//! Observability hooks for the solver layer (`obs` feature).
//!
//! Every hook takes the recorder of the solve it belongs to — the
//! [`Recorder`] in [`crate::SolveOptions::recorder`], carried down to
//! the driver, the fallback chain, each [`crate::BudgetScope`] and the
//! [`crate::DynamicSolver`] — and returns at once when there is none.
//! Two solves with their own recorders never mix, whatever threads they
//! run on; solves that share one get consecutive solve indices.
//!
//! With the feature off (the default) the crate links no recording
//! code at all — the same compile-out contract as [`crate::chaos`],
//! asserted by a `cargo tree` check in CI. [`Recorder`] is then an
//! empty enum, so `SolveOptions::recorder` can only be `None` and every
//! hook body after its first line is dead code the compiler drops.
//! With `--features obs` the hooks produce the structured spans and
//! unified metrics described in DESIGN.md ("Observability"):
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
//! driver's stable canonical job index (the checkpoint key), so each
//! per-job stream is identical at any thread count. Metric names:
//! `solve.*` / `heap.*` absorb the per-solve [`Counters`] once at solve
//! end; `loop.<site>.*` counters come from
//! [`crate::BudgetScope::loop_metrics`] marks inside each budgeted
//! algorithm loop (lint rule MCRL006 keeps those marks present).

use crate::dynamic::TopologyPath;
use crate::instrument::Counters;
use mcr_graph::Graph;

#[cfg(feature = "obs")]
pub use mcr_obs::{
    Recorder, Report, Timestamps, METRICS_SCHEMA, TRACE_SCHEMA, TRACE_SCHEMA_VERSION,
};

#[cfg(not(feature = "obs"))]
pub use off::Recorder;

/// The obs-off stand-in for the part of `mcr_obs`'s API the hooks
/// call, so the hooks compile unchanged in both builds.
#[cfg(not(feature = "obs"))]
mod off {
    /// A recorder in a build without the `obs` feature: it has no
    /// values, so no solve can carry one. Build with `--features obs`
    /// to record.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Recorder {}

    pub(super) struct Value;

    macro_rules! value_from {
        ($($t:ty),*) => {$(
            impl From<$t> for Value {
                fn from(_: $t) -> Self {
                    Value
                }
            }
        )*};
    }
    value_from!(&str, String, u64, usize);

    type Fields = Vec<(&'static str, Value)>;

    impl Recorder {
        pub(super) fn solve_start(&self, _: Fields) {
            match *self {}
        }
        pub(super) fn solve_end(&self, _: &'static str, _: Fields) {
            match *self {}
        }
        pub(super) fn job_event(&self, _: u64, _: &'static str, _: Fields) {
            match *self {}
        }
        pub(super) fn global_event(&self, _: &'static str, _: Fields) {
            match *self {}
        }
        pub(super) fn counter_add(&self, _: &str, _: u64) {
            match *self {}
        }
        pub(super) fn timing_record(&self, _: &str, _: u64) {
            match *self {}
        }
    }
}

/// Absorbs a per-solve [`Counters`] into the unified registry under
/// stable metric names. Called once per solve (at `solve.end`), never
/// per job, so thread-count never changes the totals. The heap fields
/// deliberately share one name set — `heap.insert`,
/// `heap.decrease_key`, `heap.extract_min`, `heap.remove` — whichever
/// heap engine (Fibonacci or indexed binary) produced them.
fn absorb_counters(rec: &Recorder, c: &Counters) {
    rec.counter_add("solve.iterations", c.iterations);
    rec.counter_add("solve.relaxations", c.relaxations);
    rec.counter_add("solve.distance_updates", c.distance_updates);
    rec.counter_add("solve.arcs_visited", c.arcs_visited);
    rec.counter_add("solve.cycles_examined", c.cycles_examined);
    rec.counter_add("solve.oracle_calls", c.oracle_calls);
    rec.counter_add("heap.insert", c.heap.inserts);
    rec.counter_add("heap.decrease_key", c.heap.decrease_keys);
    rec.counter_add("heap.extract_min", c.heap.delete_mins);
    rec.counter_add("heap.remove", c.heap.removals);
}

/// Opens a solve span: emits `solve.start` with the requested
/// algorithm, graph size, and worker count.
#[inline]
pub(crate) fn solve_start(rec: Option<&Recorder>, alg: &'static str, g: &Graph, threads: usize) {
    let Some(rec) = rec else { return };
    rec.solve_start(vec![
        ("alg", alg.into()),
        ("nodes", g.num_nodes().into()),
        ("arcs", g.num_arcs().into()),
        ("threads", threads.into()),
    ]);
}

/// Closes a solve span successfully: emits `solve.end` with the result
/// (λ rendered exactly, as `num/den`) and absorbs the run's
/// [`Counters`] into the registry.
#[inline]
pub(crate) fn solve_end_ok(
    rec: Option<&Recorder>,
    lambda: &crate::rational::Ratio64,
    solved_by: &'static str,
    counters: &Counters,
) {
    let Some(rec) = rec else { return };
    absorb_counters(rec, counters);
    rec.solve_end(
        "solve.end",
        vec![
            ("status", "ok".into()),
            ("lambda", lambda.to_string().into()),
            ("solved_by", solved_by.into()),
        ],
    );
}

/// Closes a solve span with a typed error: emits `solve.end` carrying
/// the [`crate::SolveError`] kind.
#[inline]
pub(crate) fn solve_end_err(rec: Option<&Recorder>, error: &'static str) {
    let Some(rec) = rec else { return };
    rec.solve_end(
        "solve.end",
        vec![("status", "error".into()), ("error", error.into())],
    );
}

/// Wraps one SCC job: emits `job.start` / `job.end` around `f` and
/// records the job's wall time under the `driver.job` timing metric.
/// The job index is the driver's deterministic canonical key, so the
/// emitted per-job event stream is thread-count independent.
#[inline]
pub(crate) fn job_span<R>(
    rec: Option<&Recorder>,
    job: usize,
    sub: &Graph,
    f: impl FnOnce() -> R,
) -> R {
    let Some(rec) = rec else { return f() };
    rec.job_event(
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
    rec.timing_record("driver.job", ns);
    rec.job_event(job as u64, "job.end", Vec::new());
    result
}

/// Emits `attempt.start` for one fallback-chain attempt on job `job`.
#[inline]
pub(crate) fn attempt_start(rec: Option<&Recorder>, job: usize, alg: &'static str) {
    let Some(rec) = rec else { return };
    rec.job_event(job as u64, "attempt.start", vec![("alg", alg.into())]);
}

/// Emits `attempt.end`; `status` is `"ok"` or the error kind.
#[inline]
pub(crate) fn attempt_end(rec: Option<&Recorder>, job: usize, alg: &'static str, status: &'static str) {
    let Some(rec) = rec else { return };
    rec.job_event(
        job as u64,
        "attempt.end",
        vec![("alg", alg.into()), ("status", status.into())],
    );
}

/// Emits `fallback.hop` when a recoverable failure advances the chain.
#[inline]
pub(crate) fn fallback_hop(rec: Option<&Recorder>, job: usize, from: &'static str, to: &'static str) {
    let Some(rec) = rec else { return };
    rec.job_event(
        job as u64,
        "fallback.hop",
        vec![("from", from.into()), ("to", to.into())],
    );
}

/// Emits `checkpoint.save` when an interrupted attempt stores progress.
#[inline]
pub(crate) fn checkpoint_saved(rec: Option<&Recorder>, job: usize, alg: &'static str) {
    let Some(rec) = rec else { return };
    rec.job_event(job as u64, "checkpoint.save", vec![("alg", alg.into())]);
}

/// Emits `checkpoint.resume` when an attempt starts from saved progress.
#[inline]
pub(crate) fn checkpoint_resumed(rec: Option<&Recorder>, job: usize, alg: &'static str) {
    let Some(rec) = rec else { return };
    rec.job_event(job as u64, "checkpoint.resume", vec![("alg", alg.into())]);
}

/// Emits `fault.injected` for a chaos fault that actually fired at
/// `site` (only meaningful with both `chaos` and `obs` on). These carry
/// no job index — their relative order across worker threads is
/// observation order — so goldens use deterministic configurations.
#[cfg_attr(not(feature = "chaos"), allow(dead_code))]
#[inline]
pub(crate) fn fault_injected(rec: Option<&Recorder>, site: &'static str, kind: &'static str) {
    let Some(rec) = rec else { return };
    rec.global_event(
        "fault.injected",
        vec![("site", site.into()), ("fault", kind.into())],
    );
    rec.counter_add("chaos.faults_injected", 1);
}

/// Emits `cancel.observed` when a [`crate::CancelToken`] trip is first
/// seen by a budget scope.
#[inline]
pub(crate) fn cancel_observed(rec: Option<&Recorder>, alg: &'static str) {
    let Some(rec) = rec else { return };
    rec.global_event("cancel.observed", vec![("alg", alg.into())]);
    rec.counter_add("cancel.observed", 1);
}

/// Records a completed budgeted loop's scope-local charge deltas under
/// `loop.<site>.*`. Called from [`crate::BudgetScope::loop_metrics`]'s
/// flush — see there for the marking protocol.
#[inline]
pub(crate) fn loop_flush(rec: Option<&Recorder>, site: &'static str, iters: u64, refines: u64) {
    let Some(rec) = rec else { return };
    rec.counter_add(&format!("loop.{site}.visits"), 1);
    rec.counter_add(&format!("loop.{site}.iterations"), iters);
    rec.counter_add(&format!("loop.{site}.refinements"), refines);
}

/// Records one incremental-solver batch: how many edits it applied,
/// whether the solve was answered incrementally (component-cache hits
/// covered part of the work) or by a full from-scratch solve, and the
/// path that kept its component decomposition current
/// ([`TopologyPath::name`]). Emits the
/// `dynamic.solve.incremental` / `dynamic.solve.full` counter pair, one
/// `dynamic.topology.<path>` counter and `dynamic.edits.applied`, and a
/// `dynamic.solve` trace event carrying the per-batch hit/miss split and
/// a 0/1 `rebuilt` flag, set when the batch built the state from the
/// arc list (the only batches that run a whole-graph Tarjan).
#[inline]
pub(crate) fn dynamic_solve(
    rec: Option<&Recorder>,
    mode: &'static str,
    edits: u64,
    hits: u64,
    misses: u64,
    topology: TopologyPath,
) {
    let Some(rec) = rec else { return };
    rec.counter_add(&format!("dynamic.solve.{mode}"), 1);
    rec.counter_add(&format!("dynamic.topology.{}", topology.name()), 1);
    let rebuilt = topology == TopologyPath::Full;
    rec.counter_add("dynamic.edits.applied", edits);
    rec.global_event(
        "dynamic.solve",
        vec![
            ("mode", mode.into()),
            ("hits", hits.into()),
            ("misses", misses.into()),
            ("rebuilt", u64::from(rebuilt).into()),
        ],
    );
}

/// Records how one incremental-solver topology update got its component
/// jobs: `dynamic.jobs.reused` counts the jobs carried over unchanged
/// from the state before the batch, `dynamic.jobs.extracted` the ones
/// extracted from the new graph.
#[inline]
pub(crate) fn dynamic_rebuild(rec: Option<&Recorder>, reused: u64, extracted: u64) {
    let Some(rec) = rec else { return };
    rec.counter_add("dynamic.jobs.reused", reused);
    rec.counter_add("dynamic.jobs.extracted", extracted);
}
