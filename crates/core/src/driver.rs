//! The common per-SCC solver driver.
//!
//! Every algorithm in the study "assumes that the input graph … is
//! cyclic and strongly connected"; for general inputs the paper
//! prescribes: partition into strongly connected components, solve each,
//! take the minimum (§2). This module implements that driver once so
//! all ten algorithms share it — exactly the uniformity the original
//! C++ implementation enforced.
//!
//! # Parallel execution
//!
//! Components are independent subproblems, so the driver can solve them
//! on several worker threads ([`SolveOptions::threads`]). Determinism is
//! preserved by construction, not by luck:
//!
//! * all cyclic components are extracted **up front** into an indexed
//!   job list, in canonical job order (below);
//! * workers pull job indices from one shared atomic cursor and record
//!   each outcome in the job's own result slot — scheduling affects only
//!   *when* a job runs, never which result it produces (each job is
//!   solved from a fresh-or-reused [`Workspace`] whose contents never
//!   leak between components);
//! * the reduction walks the slots in job order with a strict `<`, so
//!   on equal λ the lowest component index wins — the same tie-break
//!   the sequential loop has always applied;
//! * per-thread [`Counters`] merge with saturating addition, which is
//!   commutative and associative, so totals are independent of the
//!   work distribution.
//!
//! Consequently `threads = 1` and `threads = N` return bit-identical
//! [`Solution`]s.
//!
//! # Job order
//!
//! Jobs are sorted by each component's smallest node id, and each job's
//! subgraph numbers the component's nodes in
//! [`mcr_graph::scc::canonical_order`]. Both are functions of the graph
//! alone, independent of where Tarjan's search happened to enter each
//! component. Job order decides the tie-break between components with
//! equal λ, which error is reported first, the order of per-job trace
//! events and the checkpoint keys; because it is canonical,
//! [`crate::DynamicSolver`] can keep it under edits by re-decomposing
//! only the components an edit touches.
//!
//! Each component is solved by one sequential kernel on one worker, so
//! the driver spawns at most one worker per component and a single
//! giant SCC runs at single-thread speed. Chunked intra-SCC sweeps and
//! per-worker work-stealing deques were tried and measured slower on 2
//! cores (see DESIGN.md, "Intra-SCC parallelism: removed").

use crate::algorithms::Algorithm;
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::obs::Recorder;
use crate::options::SolveOptions;
use crate::rational::Ratio64;
use crate::solution::{Guarantee, Solution};
use crate::workspace::Workspace;
use mcr_graph::{ArcId, Graph, SccDecomposition, SubgraphExtractor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Result of solving one strongly connected, cyclic component: the
/// optimum value and a witness cycle in the *component's local* arc ids.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SccOutcome {
    pub lambda: Ratio64,
    pub cycle: Vec<ArcId>,
    pub guarantee: Guarantee,
    /// The algorithm that produced this outcome (differs from the
    /// requested one when a fallback answered).
    pub solved_by: Algorithm,
}

/// One unit of work: a cyclic component's subgraph plus the map from its
/// local arc ids back to the host graph.
///
/// `pub(crate)` so [`crate::dynamic::DynamicSolver`] can re-enter the
/// driver pipeline at the reduction stage with a mix of cached and
/// freshly solved component outcomes.
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) sub: Graph,
    pub(crate) arc_map: Vec<ArcId>,
}

/// A pre-computed, shareable SCC decomposition of one specific graph:
/// the driver's job list in canonical order, frozen behind an `Arc`.
///
/// Attach it via [`crate::SolveOptions::plan`] to skip SCC extraction
/// on repeated solves of the **same** graph (the `mcrd` daemon's graph
/// cache does this, so a cached graph re-solved with a new epsilon or
/// algorithm pays neither parse nor SCC cost). The plan records the
/// node/arc counts of the graph it was prepared from; the driver only
/// uses it when those match the graph actually being solved, so solves
/// on internally-derived graphs (ratio expansion, register graphs)
/// silently fall back to fresh extraction. Matching counts on a
/// *different* graph of identical size would misattribute components —
/// the same-graph contract is the caller's to uphold; the fingerprint
/// is a guard against accidents, not a cryptographic check.
///
/// Job order (and therefore job indices — the checkpoint/resume keys)
/// is identical to what fresh extraction produces, so plans compose
/// with checkpoints, budgets, and every thread count.
#[derive(Clone, Debug)]
pub struct SccPlan {
    jobs: Arc<Vec<Job>>,
    nodes: usize,
    arcs: usize,
}

impl SccPlan {
    /// Runs Tarjan's SCC decomposition on `g` and freezes the cyclic
    /// components as a reusable job list.
    pub fn prepare(g: &Graph) -> SccPlan {
        SccPlan {
            jobs: Arc::new(extract_jobs(g)),
            nodes: g.num_nodes(),
            arcs: g.num_arcs(),
        }
    }

    /// Number of cyclic components (driver jobs) in the plan. Zero
    /// means the graph is acyclic.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the plan's size fingerprint matches `g` (the guard the
    /// driver applies before reusing the job list).
    fn matches(&self, g: &Graph) -> bool {
        self.nodes == g.num_nodes() && self.arcs == g.num_arcs()
    }
}

/// Plans compare by identity (clones of one prepared plan are equal),
/// mirroring [`crate::CancelToken`]'s semantics so
/// [`crate::SolveOptions`] keeps its `PartialEq`.
impl PartialEq for SccPlan {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.jobs, &other.jobs)
    }
}

/// The job list for a solve of `g`: the caller's pre-computed
/// [`SccPlan`] when it fingerprints as prepared-from-`g`, else a fresh
/// extraction. The plan path is the daemon cache's "skip SCC" fast
/// path; the fallback keeps internally-derived graphs (ratio
/// expansion) correct under a caller-attached plan.
fn plan_or_extract(g: &Graph, opts: &SolveOptions) -> Arc<Vec<Job>> {
    match opts.plan.as_ref() {
        Some(plan) if plan.matches(g) => Arc::clone(&plan.jobs),
        _ => Arc::new(extract_jobs(g)),
    }
}

/// Extracts every cyclic component of `g` as a standalone job, in
/// canonical job order (by smallest node; see the module docs), reusing
/// one translation table across extractions.
pub(crate) fn extract_jobs(g: &Graph) -> Vec<Job> {
    let scc = SccDecomposition::new(g);
    let mut ex = SubgraphExtractor::new(g.num_nodes());
    scc.cyclic_by_smallest_node(g)
        .into_iter()
        .map(|c| {
            let (sub, arc_map) = ex.extract(g, scc.component(c));
            Job { sub, arc_map }
        })
        .collect()
}

/// Total-arc floor below which spinning up worker threads costs more
/// than the solve: tiny multi-SCC instances route to the sequential
/// path (which is identical in results by construction).
const PARALLEL_ARC_THRESHOLD: usize = 256;

/// Solves every job and returns the per-job results (indexed like
/// `jobs`) plus the accumulated counters.
///
/// `threads <= 1` (or a trivially small instance) is the sequential
/// legacy path: one workspace, one counter sink, jobs in order.
/// Otherwise `threads` scoped workers pull job indices from a shared
/// atomic cursor; results land in job-indexed slots and counters merge
/// per worker, so the output is identical either way.
///
/// `solve` receives the job's index as its first argument — a stable,
/// scheduling-independent key (the component's position in canonical
/// job order) used for checkpoint/resume bookkeeping. Each job's span goes
/// to `recorder`.
fn run_jobs<R: Send>(
    jobs: &[Job],
    threads: usize,
    recorder: Option<&Recorder>,
    solve: impl Fn(usize, &Graph, &mut Counters, &mut Workspace) -> R + Sync,
) -> (Vec<R>, Counters) {
    let total_arcs: usize = jobs.iter().map(|j| j.sub.num_arcs()).sum();
    if threads <= 1 || jobs.len() <= 1 || total_arcs < PARALLEL_ARC_THRESHOLD {
        let mut counters = Counters::new();
        let mut ws = Workspace::new();
        let results = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                crate::chaos::pulse("core.driver.job", recorder);
                crate::obs::job_span(recorder, i, &j.sub, || {
                    solve(i, &j.sub, &mut counters, &mut ws)
                })
            })
            .collect();
        return (results, counters);
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..jobs.len()).map(|_| None).collect();
    let mut counters = Counters::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut ws = Workspace::new();
                    let mut local = Counters::new();
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else {
                            break; // queue drained
                        };
                        crate::chaos::pulse("core.driver.job", recorder);
                        let r = crate::obs::job_span(recorder, i, &job.sub, || {
                            solve(i, &job.sub, &mut local, &mut ws)
                        });
                        done.push((i, r));
                    }
                    (local, done)
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok((local, done)) => {
                    counters.merge(&local);
                    for (i, r) in done {
                        if let Some(slot) = slots.get_mut(i) {
                            debug_assert!(slot.is_none(), "job {i} solved twice");
                            *slot = Some(r);
                        }
                    }
                }
                // A worker panicked (solver bug): re-raise on the caller.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let results = slots
        .into_iter()
        // lint: allow(panic) reason=fetch_add hands every index in 0..jobs.len() to exactly one worker, and a worker panic re-raises above
        .map(|s| s.expect("the work queue covers every job"))
        .collect();
    (results, counters)
}

/// Runs `solve_scc` on every cyclic strongly connected component of `g`
/// on `opts`'s threads and returns the minimum, with the witness cycle
/// mapped back to `g`'s arc ids. Returns [`SolveError::Acyclic`] when
/// `g` has no cycle; any per-component error is propagated (the one
/// from the lowest component index, independent of scheduling). See the
/// module docs for the determinism argument.
///
/// `solve_scc` receives the job index (stable across thread counts —
/// the checkpoint key), a strongly connected graph that contains at
/// least one cycle (possibly a single node with self-loops), a counter
/// sink, and a reusable scratch workspace.
pub(crate) fn solve_per_scc_opts(
    g: &Graph,
    opts: &SolveOptions,
    solve_scc: impl Fn(usize, &Graph, &mut Counters, &mut Workspace) -> Result<SccOutcome, SolveError>
        + Sync,
) -> Result<Solution, SolveError> {
    let jobs = plan_or_extract(g, opts);
    let jobs: &[Job] = &jobs;
    if jobs.is_empty() {
        return Err(SolveError::Acyclic);
    }
    let threads = opts.effective_threads().clamp(1, jobs.len());
    let (results, counters) = run_jobs(jobs, threads, opts.recorder.as_ref(), solve_scc);
    reduce_outcomes(jobs, results.iter().map(Result::as_ref), counters)
}

/// The driver's reduction stage, split out so it can be re-entered with
/// per-component results that did not all come from [`run_jobs`] (the
/// incremental [`crate::dynamic::DynamicSolver`] feeds it the outcome
/// it keeps for each job, most of them from earlier batches).
///
/// Walks the slots in job (= component) order with a strict `<`: on
/// equal λ the lowest component index wins, as in the sequential loop.
/// Errors propagate the same way — the failure of the lowest component
/// index is reported, regardless of which worker hit it.
pub(crate) fn reduce_outcomes<'a>(
    jobs: &[Job],
    results: impl IntoIterator<Item = Result<&'a SccOutcome, &'a SolveError>>,
    counters: Counters,
) -> Result<Solution, SolveError> {
    let mut best: Option<(&Job, &SccOutcome)> = None;
    for (job, result) in jobs.iter().zip(results) {
        let outcome = result.map_err(Clone::clone)?;
        debug_assert!(
            crate::solution::is_closed_walk(&job.sub, &outcome.cycle),
            "solver returned a malformed cycle"
        );
        if best.is_none_or(|(_, b)| outcome.lambda < b.lambda) {
            best = Some((job, outcome));
        }
    }
    let (job, outcome) = match best {
        Some(b) => b,
        // Unreachable when jobs is non-empty: every job either erred
        // (returned above) or won. An empty job list is acyclic.
        None => return Err(SolveError::Acyclic),
    };
    let mapped: Vec<ArcId> = outcome
        .cycle
        .iter()
        // lint: allow(panic) reason=cycle arcs are ids of job.sub, which index arc_map by construction (is_closed_walk pins this in debug builds)
        .map(|&a| job.arc_map[a.index()])
        .collect();
    Ok(Solution {
        lambda: outcome.lambda,
        cycle: mapped,
        guarantee: outcome.guarantee,
        solved_by: outcome.solved_by,
        counters,
    })
}

/// Like [`solve_per_scc_opts`] but for λ-only solvers that skip witness
/// extraction — the measurement protocol of the original study, which
/// timed "each algorithm in the context of computing λ* only" (§2).
pub(crate) fn solve_value_per_scc_opts(
    g: &Graph,
    opts: &SolveOptions,
    lambda_scc: impl Fn(usize, &Graph, &mut Counters, &mut Workspace) -> Result<Ratio64, SolveError>
        + Sync,
) -> Result<(Ratio64, Counters), SolveError> {
    let jobs = plan_or_extract(g, opts);
    let jobs: &[Job] = &jobs;
    if jobs.is_empty() {
        return Err(SolveError::Acyclic);
    }
    let threads = opts.effective_threads().clamp(1, jobs.len());
    let (lambdas, counters) = run_jobs(jobs, threads, opts.recorder.as_ref(), lambda_scc);
    let mut best: Option<Ratio64> = None;
    for result in lambdas {
        let lambda = result?;
        if best.is_none_or(|b| lambda < b) {
            best = Some(lambda);
        }
    }
    match best {
        Some(lambda) => Ok((lambda, counters)),
        None => Err(SolveError::Acyclic),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_graph::graph::from_arc_list;

    /// A toy exact solver: brute force, packaged as an SCC solver.
    fn brute(
        _job: usize,
        sub: &Graph,
        counters: &mut Counters,
        _ws: &mut Workspace,
    ) -> Result<SccOutcome, SolveError> {
        counters.iterations += 1;
        let (lambda, cycle) = crate::reference::brute_force_min_mean(sub)
            .expect("driver must pass cyclic components only");
        Ok(SccOutcome {
            lambda,
            cycle,
            guarantee: Guarantee::Exact,
            solved_by: Algorithm::HowardExact,
        })
    }

    fn solve_per_scc(
        g: &Graph,
        solve_scc: impl Fn(usize, &Graph, &mut Counters, &mut Workspace) -> Result<SccOutcome, SolveError>
            + Sync,
    ) -> Result<Solution, SolveError> {
        solve_per_scc_opts(g, &SolveOptions::default(), solve_scc)
    }

    #[test]
    fn acyclic_graph_yields_acyclic_error() {
        let g = from_arc_list(3, &[(0, 1, 1), (1, 2, 1)]);
        assert_eq!(
            solve_per_scc(&g, brute).expect_err("acyclic"),
            SolveError::Acyclic
        );
    }

    #[test]
    fn component_error_propagates_at_every_thread_count() {
        // Two cyclic components; the one with weight-5 arcs fails. The
        // whole solve must report that error no matter how the jobs are
        // scheduled, even though the other component succeeds.
        let g = from_arc_list(4, &[(0, 1, 5), (1, 0, 5), (2, 3, 1), (3, 2, 3)]);
        for threads in [1, 2, 4] {
            let opts = SolveOptions::new().threads(threads);
            let err = solve_per_scc_opts(&g, &opts, |job, sub, c, ws| {
                if sub.arc_ids().any(|a| sub.weight(a) == 5) {
                    Err(SolveError::Overflow {
                        context: "synthetic failure",
                    })
                } else {
                    brute(job, sub, c, ws)
                }
            })
            .expect_err("one component fails");
            assert_eq!(
                err,
                SolveError::Overflow {
                    context: "synthetic failure"
                },
                "threads {threads}"
            );
        }
    }

    #[test]
    fn minimum_over_components() {
        // Ring A mean 5, ring B mean 2, one-way bridge.
        let g = from_arc_list(
            4,
            &[(0, 1, 5), (1, 0, 5), (1, 2, 100), (2, 3, 1), (3, 2, 3)],
        );
        let s = solve_per_scc(&g, brute).expect("cyclic");
        assert_eq!(s.lambda, Ratio64::from(2));
        // Witness arcs are in original ids and form a cycle there.
        let (w, len, _) = crate::solution::check_cycle(&g, &s.cycle).expect("valid");
        assert_eq!(Ratio64::new(w, len as i64), Ratio64::from(2));
        // Two cyclic components solved.
        assert_eq!(s.counters.iterations, 2);
    }

    #[test]
    fn isolated_self_loop_component() {
        let g = from_arc_list(2, &[(0, 1, 9), (1, 1, 4)]);
        let s = solve_per_scc(&g, brute).expect("self-loop");
        assert_eq!(s.lambda, Ratio64::from(4));
        assert_eq!(s.cycle.len(), 1);
    }

    #[test]
    fn trivial_components_are_skipped() {
        // Pure DAG portions never reach the solver.
        let g = from_arc_list(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 1, 1), (3, 4, 1)]);
        let s = solve_per_scc(&g, brute).expect("cyclic core");
        assert_eq!(s.counters.iterations, 1);
        assert_eq!(s.lambda, Ratio64::from(1));
    }

    #[test]
    fn parallel_path_matches_sequential_on_skewed_jobs() {
        // One 400-arc ring plus three 2-cycles — big enough to cross
        // PARALLEL_ARC_THRESHOLD, skewed enough that whichever worker
        // draws the ring pins it while the others drain the cursor.
        let n_ring = 400usize;
        let mut arcs: Vec<(usize, usize, i64)> = (0..n_ring)
            .map(|i| (i, (i + 1) % n_ring, (i % 7) as i64 + 1))
            .collect();
        for k in 0..3 {
            let a = n_ring + 2 * k;
            arcs.push((a, a + 1, 6 + k as i64));
            arcs.push((a + 1, a, 6 + k as i64));
        }
        let g = from_arc_list(n_ring + 6, &arcs);
        let seq = solve_per_scc(&g, brute).expect("cyclic");
        for threads in [2, 3, 8] {
            let opts = SolveOptions::new().threads(threads);
            let par = solve_per_scc_opts(&g, &opts, brute).expect("cyclic");
            assert_eq!(par.lambda, seq.lambda, "threads {threads}");
            assert_eq!(par.cycle, seq.cycle, "witness differs at {threads} threads");
            assert_eq!(par.counters, seq.counters, "threads {threads}");
        }
    }

    #[test]
    fn prepared_plan_matches_fresh_extraction_bit_for_bit() {
        let g = from_arc_list(
            8,
            &[
                (0, 1, 5),
                (1, 0, 5),
                (2, 3, 2),
                (3, 2, 2),
                (4, 5, 2),
                (5, 4, 2),
                (6, 7, 9),
                (7, 6, 9),
            ],
        );
        let plan = SccPlan::prepare(&g);
        assert_eq!(plan.num_jobs(), 4);
        let fresh = solve_per_scc(&g, brute).expect("cyclic");
        for threads in [1, 2, 8] {
            let opts = SolveOptions::new().threads(threads).plan(plan.clone());
            let planned = solve_per_scc_opts(&g, &opts, brute).expect("cyclic");
            assert_eq!(planned.lambda, fresh.lambda, "threads {threads}");
            assert_eq!(planned.cycle, fresh.cycle, "threads {threads}");
            assert_eq!(planned.counters, fresh.counters, "threads {threads}");
            let (v, c) = solve_value_per_scc_opts(&g, &opts, |j, s, cc, w| {
                brute(j, s, cc, w).map(|o| o.lambda)
            })
            .expect("cyclic");
            assert_eq!(v, fresh.lambda);
            assert_eq!(c, fresh.counters);
        }
    }

    #[test]
    fn mismatched_plan_is_ignored_not_trusted() {
        // A plan prepared from a different-sized graph must fall back
        // to fresh extraction (this is what protects the internally
        // derived ratio-expansion graphs when a caller attaches a plan
        // for the outer graph).
        let small = from_arc_list(2, &[(0, 1, 4), (1, 0, 4)]);
        let big = from_arc_list(4, &[(0, 1, 5), (1, 0, 5), (2, 3, 1), (3, 2, 3)]);
        let stale = SccPlan::prepare(&small);
        let opts = SolveOptions::new().plan(stale);
        let s = solve_per_scc_opts(&big, &opts, brute).expect("cyclic");
        assert_eq!(s.lambda, Ratio64::from(2));
        assert_eq!(s.counters.iterations, 2, "both components must be solved");
    }

    #[test]
    fn acyclic_plan_reports_acyclic() {
        let g = from_arc_list(3, &[(0, 1, 1), (1, 2, 1)]);
        let plan = SccPlan::prepare(&g);
        assert_eq!(plan.num_jobs(), 0);
        let opts = SolveOptions::new().plan(plan);
        assert_eq!(
            solve_per_scc_opts(&g, &opts, brute).expect_err("acyclic"),
            SolveError::Acyclic
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        // Four cyclic components, two tied at the minimum mean 2: the
        // tie must resolve to the same witness at every thread count.
        let g = from_arc_list(
            8,
            &[
                (0, 1, 5),
                (1, 0, 5),
                (2, 3, 2),
                (3, 2, 2),
                (4, 5, 2),
                (5, 4, 2),
                (6, 7, 9),
                (7, 6, 9),
            ],
        );
        let seq = solve_per_scc(&g, brute).expect("cyclic");
        for threads in [2, 3, 8] {
            let opts = SolveOptions::new().threads(threads);
            let par = solve_per_scc_opts(&g, &opts, brute).expect("cyclic");
            assert_eq!(par.lambda, seq.lambda);
            assert_eq!(par.cycle, seq.cycle, "witness differs at {threads} threads");
            assert_eq!(par.counters, seq.counters);
            let (v_seq, c_seq) =
                solve_value_per_scc_opts(&g, &SolveOptions::default(), |j, s, c, w| {
                    brute(j, s, c, w).map(|o| o.lambda)
                })
                .expect("cyclic");
            let (v_par, c_par) =
                solve_value_per_scc_opts(&g, &opts, |j, s, c, w| brute(j, s, c, w).map(|o| o.lambda))
                    .expect("cyclic");
            assert_eq!(v_par, v_seq);
            assert_eq!(c_par, c_seq);
        }
    }
}
