//! Observability hooks for the solver layer (`obs` feature).
//!
//! With the feature off (the default) every helper here is an empty
//! `#[inline(always)]` function and the crate links no recording code
//! at all — the same compile-out contract as [`crate::chaos`], asserted
//! by a `cargo tree` check in CI. With `--features obs` the helpers
//! report to the `mcr_obs` global recorder, producing the structured
//! spans and unified metrics described in DESIGN.md ("Observability"):
//!
//! | event               | emitted by                                  |
//! |---------------------|---------------------------------------------|
//! | `solve.start/.end`  | `solve_with_options`, λ-only, ratio entries |
//! | `job.start/.end`    | the per-SCC driver, keyed by job index      |
//! | `attempt.start/.end`| each fallback-chain attempt                 |
//! | `fallback.hop`      | advancing to the next chain alternate       |
//! | `checkpoint.save/.resume` | the checkpoint store bookkeeping      |
//! | `fault.injected`    | every chaos fault that actually fired       |
//! | `cancel.observed`   | a [`crate::CancelToken`] trip               |
//!
//! Event ordering is deterministic modulo timestamps: solve-level
//! events bracket the job phase, and job-scoped events carry the
//! driver's stable Tarjan-order job index (the checkpoint key), so each
//! per-job stream is identical at any thread count. Metric names:
//! `solve.*` / `heap.*` absorb the per-solve [`Counters`] once at solve
//! end; `loop.<site>.*` counters come from
//! [`crate::BudgetScope::loop_metrics`] marks inside each budgeted
//! algorithm loop (lint rule MCRL006 keeps those marks present).

use crate::instrument::Counters;
use mcr_graph::Graph;

#[cfg(feature = "obs")]
pub use mcr_obs::{
    active, install, ObsGuard, Report, Timestamps, METRICS_SCHEMA, TRACE_SCHEMA,
    TRACE_SCHEMA_VERSION,
};

/// Absorbs a per-solve [`Counters`] into the unified registry under
/// stable metric names. Called once per solve (at `solve.end`), never
/// per job, so thread-count never changes the totals. The heap fields
/// deliberately share one name set — `heap.insert`,
/// `heap.decrease_key`, `heap.extract_min`, `heap.remove` — whichever
/// heap engine (Fibonacci or indexed binary) produced them.
#[cfg(feature = "obs")]
pub(crate) fn absorb_counters(c: &Counters) {
    if !mcr_obs::active() {
        return;
    }
    mcr_obs::counter_add("solve.iterations", c.iterations);
    mcr_obs::counter_add("solve.relaxations", c.relaxations);
    mcr_obs::counter_add("solve.distance_updates", c.distance_updates);
    mcr_obs::counter_add("solve.arcs_visited", c.arcs_visited);
    mcr_obs::counter_add("solve.cycles_examined", c.cycles_examined);
    mcr_obs::counter_add("solve.oracle_calls", c.oracle_calls);
    mcr_obs::counter_add("heap.insert", c.heap.inserts);
    mcr_obs::counter_add("heap.decrease_key", c.heap.decrease_keys);
    mcr_obs::counter_add("heap.extract_min", c.heap.delete_mins);
    mcr_obs::counter_add("heap.remove", c.heap.removals);
}

// No feature-off twin: the only caller is the feature-on
// `solve_end_ok`, so the symbol vanishes with the feature.

/// Opens a solve span: emits `solve.start` with the requested
/// algorithm, graph size, and worker count.
#[cfg(feature = "obs")]
pub(crate) fn solve_start(alg: &'static str, g: &Graph, threads: usize) {
    if !mcr_obs::active() {
        return;
    }
    mcr_obs::solve_start(vec![
        ("alg", alg.into()),
        ("nodes", g.num_nodes().into()),
        ("arcs", g.num_arcs().into()),
        ("threads", threads.into()),
    ]);
}

#[cfg(not(feature = "obs"))]
#[inline(always)]
pub(crate) fn solve_start(_alg: &'static str, _g: &Graph, _threads: usize) {}

/// Closes a solve span successfully: emits `solve.end` with the result
/// (λ rendered exactly, as `num/den`) and absorbs the run's
/// [`Counters`] into the registry.
#[cfg(feature = "obs")]
pub(crate) fn solve_end_ok(
    lambda: &crate::rational::Ratio64,
    solved_by: &'static str,
    counters: &Counters,
) {
    if !mcr_obs::active() {
        return;
    }
    absorb_counters(counters);
    mcr_obs::solve_end(
        "solve.end",
        vec![
            ("status", "ok".into()),
            ("lambda", lambda.to_string().into()),
            ("solved_by", solved_by.into()),
        ],
    );
}

#[cfg(not(feature = "obs"))]
#[inline(always)]
pub(crate) fn solve_end_ok(
    _lambda: &crate::rational::Ratio64,
    _solved_by: &'static str,
    _counters: &Counters,
) {
}

/// Closes a solve span with a typed error: emits `solve.end` carrying
/// the [`crate::SolveError`] kind.
#[cfg(feature = "obs")]
pub(crate) fn solve_end_err(error: &'static str) {
    if !mcr_obs::active() {
        return;
    }
    mcr_obs::solve_end(
        "solve.end",
        vec![("status", "error".into()), ("error", error.into())],
    );
}

#[cfg(not(feature = "obs"))]
#[inline(always)]
pub(crate) fn solve_end_err(_error: &'static str) {}

/// Wraps one SCC job: emits `job.start` / `job.end` around `f` and
/// records the job's wall time under the `driver.job` timing metric.
/// The job index is the driver's deterministic Tarjan-order key, so the
/// emitted per-job event stream is thread-count independent.
#[cfg(feature = "obs")]
pub(crate) fn job_span<R>(job: usize, sub: &Graph, f: impl FnOnce() -> R) -> R {
    if !mcr_obs::active() {
        return f();
    }
    mcr_obs::job_event(
        job as u64,
        "job.start",
        vec![
            ("nodes", sub.num_nodes().into()),
            ("arcs", sub.num_arcs().into()),
        ],
    );
    let start = std::time::Instant::now();
    let result = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    mcr_obs::timing_record("driver.job", ns);
    mcr_obs::job_event(job as u64, "job.end", Vec::new());
    result
}

#[cfg(not(feature = "obs"))]
#[inline(always)]
pub(crate) fn job_span<R>(_job: usize, _sub: &Graph, f: impl FnOnce() -> R) -> R {
    f()
}

/// Emits `attempt.start` for one fallback-chain attempt on job `job`.
#[cfg(feature = "obs")]
pub(crate) fn attempt_start(job: usize, alg: &'static str) {
    if !mcr_obs::active() {
        return;
    }
    mcr_obs::job_event(job as u64, "attempt.start", vec![("alg", alg.into())]);
}

#[cfg(not(feature = "obs"))]
#[inline(always)]
pub(crate) fn attempt_start(_job: usize, _alg: &'static str) {}

/// Emits `attempt.end`; `status` is `"ok"` or the error kind.
#[cfg(feature = "obs")]
pub(crate) fn attempt_end(job: usize, alg: &'static str, status: &'static str) {
    if !mcr_obs::active() {
        return;
    }
    mcr_obs::job_event(
        job as u64,
        "attempt.end",
        vec![("alg", alg.into()), ("status", status.into())],
    );
}

#[cfg(not(feature = "obs"))]
#[inline(always)]
pub(crate) fn attempt_end(_job: usize, _alg: &'static str, _status: &'static str) {}

/// Emits `fallback.hop` when a recoverable failure advances the chain.
#[cfg(feature = "obs")]
pub(crate) fn fallback_hop(job: usize, from: &'static str, to: &'static str) {
    if !mcr_obs::active() {
        return;
    }
    mcr_obs::job_event(
        job as u64,
        "fallback.hop",
        vec![("from", from.into()), ("to", to.into())],
    );
}

#[cfg(not(feature = "obs"))]
#[inline(always)]
pub(crate) fn fallback_hop(_job: usize, _from: &'static str, _to: &'static str) {}

/// Emits `checkpoint.save` when an interrupted attempt stores progress.
#[cfg(feature = "obs")]
pub(crate) fn checkpoint_saved(job: usize, alg: &'static str) {
    if !mcr_obs::active() {
        return;
    }
    mcr_obs::job_event(job as u64, "checkpoint.save", vec![("alg", alg.into())]);
}

#[cfg(not(feature = "obs"))]
#[inline(always)]
pub(crate) fn checkpoint_saved(_job: usize, _alg: &'static str) {}

/// Emits `checkpoint.resume` when an attempt starts from saved progress.
#[cfg(feature = "obs")]
pub(crate) fn checkpoint_resumed(job: usize, alg: &'static str) {
    if !mcr_obs::active() {
        return;
    }
    mcr_obs::job_event(job as u64, "checkpoint.resume", vec![("alg", alg.into())]);
}

#[cfg(not(feature = "obs"))]
#[inline(always)]
pub(crate) fn checkpoint_resumed(_job: usize, _alg: &'static str) {}

/// Emits `fault.injected` for a chaos fault that actually fired at
/// `site` (only meaningful with both `chaos` and `obs` on). These carry
/// no job index — their relative order across worker threads is
/// observation order — so goldens use deterministic configurations.
#[cfg(feature = "obs")]
#[cfg_attr(not(feature = "chaos"), allow(dead_code))]
pub(crate) fn fault_injected(site: &'static str, kind: &'static str) {
    if !mcr_obs::active() {
        return;
    }
    mcr_obs::global_event(
        "fault.injected",
        vec![("site", site.into()), ("fault", kind.into())],
    );
    mcr_obs::counter_add("chaos.faults_injected", 1);
}

#[cfg(not(feature = "obs"))]
#[cfg_attr(not(feature = "chaos"), allow(dead_code))]
#[inline(always)]
pub(crate) fn fault_injected(_site: &'static str, _kind: &'static str) {}

/// Emits `cancel.observed` when a [`crate::CancelToken`] trip is first
/// seen by a budget scope.
#[cfg(feature = "obs")]
pub(crate) fn cancel_observed(alg: &'static str) {
    if !mcr_obs::active() {
        return;
    }
    mcr_obs::global_event("cancel.observed", vec![("alg", alg.into())]);
    mcr_obs::counter_add("cancel.observed", 1);
}

#[cfg(not(feature = "obs"))]
#[inline(always)]
pub(crate) fn cancel_observed(_alg: &'static str) {}

/// Records a completed budgeted loop's scope-local charge deltas under
/// `loop.<site>.*`. Called from [`crate::BudgetScope::loop_metrics`]'s
/// flush — see there for the marking protocol.
#[cfg(feature = "obs")]
pub(crate) fn loop_flush(site: &'static str, iters: u64, refines: u64) {
    if !mcr_obs::active() {
        return;
    }
    mcr_obs::counter_add(&format!("loop.{site}.visits"), 1);
    mcr_obs::counter_add(&format!("loop.{site}.iterations"), iters);
    mcr_obs::counter_add(&format!("loop.{site}.refinements"), refines);
}

#[cfg(not(feature = "obs"))]
#[inline(always)]
pub(crate) fn loop_flush(_site: &'static str, _iters: u64, _refines: u64) {}

/// Records one incremental-solver batch: how many edits it applied,
/// whether the solve was answered incrementally (component-cache hits
/// covered part of the work) or by a full from-scratch solve, and
/// whether the solver rebuilt its topology state (CSR + Tarjan) or
/// reused it, patched in place. Emits the `dynamic.solve.incremental` /
/// `dynamic.solve.full` and `dynamic.topology.patched` /
/// `dynamic.topology.rebuilt` counter pairs plus
/// `dynamic.edits.applied`, and a `dynamic.solve` trace event carrying
/// the per-batch hit/miss split and a 0/1 `rebuilt` flag.
#[cfg(feature = "obs")]
pub(crate) fn dynamic_solve(
    mode: &'static str,
    edits: u64,
    hits: u64,
    misses: u64,
    rebuilt: bool,
) {
    if !mcr_obs::active() {
        return;
    }
    mcr_obs::counter_add(&format!("dynamic.solve.{mode}"), 1);
    let topology = if rebuilt { "rebuilt" } else { "patched" };
    mcr_obs::counter_add(&format!("dynamic.topology.{topology}"), 1);
    mcr_obs::counter_add("dynamic.edits.applied", edits);
    mcr_obs::global_event(
        "dynamic.solve",
        vec![
            ("mode", mode.into()),
            ("hits", hits.into()),
            ("misses", misses.into()),
            ("rebuilt", u64::from(rebuilt).into()),
        ],
    );
}

#[cfg(not(feature = "obs"))]
#[inline(always)]
pub(crate) fn dynamic_solve(
    _mode: &'static str,
    _edits: u64,
    _hits: u64,
    _misses: u64,
    _rebuilt: bool,
) {
}

/// Records how one incremental-solver topology rebuild got its
/// component jobs: `dynamic.jobs.reused` counts the jobs carried over
/// unchanged from the state before the batch, `dynamic.jobs.extracted`
/// the ones extracted from the new graph.
#[cfg(feature = "obs")]
pub(crate) fn dynamic_rebuild(reused: u64, extracted: u64) {
    if !mcr_obs::active() {
        return;
    }
    mcr_obs::counter_add("dynamic.jobs.reused", reused);
    mcr_obs::counter_add("dynamic.jobs.extracted", extracted);
}

#[cfg(not(feature = "obs"))]
#[inline(always)]
pub(crate) fn dynamic_rebuild(_reused: u64, _extracted: u64) {}
