//! `mcr-serve` — the fault-tolerant batched solve service (`mcrd`).
//!
//! A small TCP daemon over the [`mcr_core`] solvers, built around one
//! principle: **every failure is a typed response, never a hung client
//! or a dead process.** The pieces, each its own module:
//!
//! * [`frame`] — length-prefixed framing with a hard payload cap;
//! * [`json`] — the workspace's JSON codec, re-exported from
//!   [`mcr_graph::json`];
//! * [`protocol`] — `mcr-req v1` / `mcr-resp v1`, statuses mapped
//!   one-to-one onto the CLI's [`mcr_core::SolveStatus`] exit taxonomy;
//! * [`guard`] — the per-request [`guard::RequestGuard`] every handler
//!   installs (deadline + frame cap; lint rule MCRL008);
//! * [`cache`] — LRU instance cache keyed by content hash, holding one
//!   [`mcr_core::SccPlan`] per orientation so cached re-solves skip
//!   both parse and SCC extraction, and the certified answers already
//!   given for the instance, so a repeated question skips the solve;
//! * [`journal`] — fsynced admission journal plus `mcr-checkpoint v2`
//!   sidecars: a `kill -9` loses no admitted request and at most one
//!   iteration-slice of solve progress;
//! * [`server`] — admission control with bounded-queue load shedding,
//!   the worker pool, and restart recovery;
//! * [`client`] — the pipelined batch client behind `mcr client`, and
//!   the fleet client ([`client::fleet_replay`]) layering retry,
//!   breakers, and failover over a shard ring;
//! * [`retry`] — bounded seeded retry/backoff ([`retry::RetryPolicy`],
//!   every network retry loop routes through it — MCRL009) and the
//!   per-shard [`retry::CircuitBreaker`];
//! * [`shard`] — [`shard::ShardMap`]: graph-hash routing over N
//!   endpoints with a deterministic failover ring;
//! * [`metrics`] — `mcr-metrics v1` counters over the whole path.
//!
//! Daemon answers are bit-identical to one-shot `mcr solve` runs for
//! the same request because both call the same
//! [`mcr_core::spec::solve_spec`] dispatch — the daemon adds caching,
//! scheduling, and containment around it, never a different solver.

pub mod cache;
mod chaos;
pub mod client;
pub mod frame;
pub mod guard;
pub mod journal;
pub use mcr_graph::json;
pub mod metrics;
pub mod protocol;
pub mod retry;
pub mod server;
pub mod shard;

pub use frame::MAX_FRAME_LEN;
pub use metrics::Metrics;
pub use server::{serve, ServeConfig, ServerHandle};
