//! The algorithm suite of the study, behind one uniform interface.
//!
//! Each algorithm is exposed as a variant of [`Algorithm`]; calling
//! [`Algorithm::solve`] runs it under the common per-SCC driver. The
//! modules also expose configurable entry points for the approximate
//! algorithms (`epsilon` precision).

pub(crate) mod burns;
pub(crate) mod dg;
pub(crate) mod ho;
pub(crate) mod howard;
pub(crate) mod karp;
pub(crate) mod karp2;
pub(crate) mod lawler;
pub(crate) mod megiddo;
pub(crate) mod oa1;
pub(crate) mod parametric;

use crate::budget::{BudgetScope, Deadline};
use crate::checkpoint::JobProgress;
use crate::driver::{solve_value_per_scc_opts, SccOutcome};
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::options::SolveOptions;
use crate::rational::Ratio64;
use crate::route::Route;
use crate::solution::Solution;
use crate::workspace::Workspace;
use mcr_graph::{Graph, GraphRef};
use parametric::HeapGranularity;

/// The precision an approximate kernel reads. A route computes one only
/// when some kernel of it reads it (`route::preflight`), so `None` here
/// is a routing fault: it fails typed rather than solving under a
/// made-up precision.
pub(crate) fn read_epsilon(epsilon: Option<f64>) -> Result<f64, SolveError> {
    epsilon.ok_or(SolveError::InvalidEpsilon { epsilon: f64::NAN })
}

/// Runs one algorithm on one strongly connected, cyclic component
/// under a budget scope. This is the single dispatch point shared by
/// the primary attempt, every fallback attempt and the ratio route
/// ([`crate::route`]).
pub(crate) fn solve_scc_budgeted(
    alg: Algorithm,
    sub: GraphRef<'_>,
    counters: &mut Counters,
    epsilon: Option<f64>,
    ws: &mut Workspace,
    scope: &mut BudgetScope,
) -> Result<SccOutcome, SolveError> {
    match alg {
        Algorithm::Burns => burns::solve_scc_f64(sub, counters, scope),
        Algorithm::BurnsExact => burns::solve_scc(sub, counters, scope),
        Algorithm::Ko => parametric::solve_scc(sub, counters, HeapGranularity::PerArc, ws, scope),
        Algorithm::Yto => parametric::solve_scc(sub, counters, HeapGranularity::PerNode, ws, scope),
        Algorithm::Howard => {
            howard::solve_scc_fig1(sub, counters, read_epsilon(epsilon)?, ws, scope)
        }
        Algorithm::HowardExact => howard::solve_scc_exact(sub, counters, ws, scope),
        Algorithm::Ho => ho::solve_scc(sub, counters, ws, scope),
        Algorithm::Karp => karp::solve_scc(sub, counters, ws, scope),
        Algorithm::Karp2 => karp2::solve_scc(sub, counters, ws, scope),
        Algorithm::Dg => dg::solve_scc(sub, counters, ws, scope),
        Algorithm::Lawler => {
            lawler::solve_scc_eps(sub, counters, read_epsilon(epsilon)?, ws, scope)
        }
        Algorithm::LawlerExact => lawler::solve_scc_exact(sub, counters, ws, scope),
        Algorithm::Megiddo => megiddo::solve_scc(sub, counters, ws, scope),
        Algorithm::Oa1 => oa1::solve_scc(sub, counters, read_epsilon(epsilon)?, ws, scope),
    }
}

/// [`solve_scc_budgeted`] routed through the checkpoint-aware variants
/// for the algorithms that support interrupt/resume (the Howard and
/// Lawler families). `resume` is consulted before the first iteration;
/// `saved` receives a progress snapshot when the attempt is interrupted
/// at a budget / cancellation poll point.
#[allow(clippy::too_many_arguments)]
fn solve_scc_resumable(
    alg: Algorithm,
    sub: GraphRef<'_>,
    counters: &mut Counters,
    epsilon: Option<f64>,
    ws: &mut Workspace,
    scope: &mut BudgetScope,
    resume: Option<&JobProgress>,
    saved: &mut Option<JobProgress>,
) -> Result<SccOutcome, SolveError> {
    match alg {
        Algorithm::Howard => {
            let epsilon = read_epsilon(epsilon)?;
            howard::solve_scc_fig1_ckpt(sub, counters, epsilon, ws, scope, resume, saved)
        }
        Algorithm::HowardExact => {
            howard::solve_scc_exact_ckpt(sub, counters, ws, scope, resume, saved)
        }
        Algorithm::Lawler => {
            let epsilon = read_epsilon(epsilon)?;
            lawler::solve_scc_eps_ckpt(sub, counters, epsilon, ws, scope, resume, saved)
        }
        Algorithm::LawlerExact => {
            lawler::solve_scc_exact_ckpt(sub, counters, ws, scope, resume, saved)
        }
        other => solve_scc_budgeted(other, sub, counters, epsilon, ws, scope),
    }
}

/// Runs the full fallback chain for one SCC job. Every attempt gets a
/// fresh budget scope (sharing the solve-wide deadline and cancellation
/// token); a recoverable failure advances to the next alternate, a
/// non-recoverable one (including [`SolveError::Cancelled`]) fails the
/// whole solve closed. When a checkpoint store is attached, interrupted
/// attempts save their progress keyed by `(job, algorithm)` and a
/// successful job clears its entry.
///
/// If every attempt fails, the error of the **last** attempt is
/// returned and the workspace is left freshly reset — never poisoned —
/// so no half-updated scratch state can leak into a later job.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_fallback_chain(
    job: usize,
    chain: &[Algorithm],
    sub: GraphRef<'_>,
    counters: &mut Counters,
    epsilon: Option<f64>,
    ws: &mut Workspace,
    opts: &SolveOptions,
    deadline: Option<Deadline>,
) -> Result<SccOutcome, SolveError> {
    let recorder = opts.recorder.as_ref();
    let mut last_err = None;
    let mut hop_from: Option<Algorithm> = None;
    for &alg in chain {
        if let Some(from) = hop_from.take() {
            crate::obs::fallback_hop(recorder, job, from.name(), alg.name());
        }
        let mut scope = BudgetScope::for_solve(opts, deadline, alg);
        ws.begin_use(recorder);
        let resume = opts
            .checkpoints
            .as_ref()
            .and_then(|store| store.get(job as u64, alg));
        if resume.is_some() {
            crate::obs::checkpoint_resumed(recorder, job, alg.name());
        }
        crate::obs::attempt_start(recorder, job, alg.name());
        let mut saved = None;
        let attempt = scope.chaos_check("core.fallback.attempt").and_then(|()| {
            solve_scc_resumable(alg, sub, counters, epsilon, ws, &mut scope, resume.as_ref(), &mut saved)
        });
        // Flush any pending loop-site metrics before the attempt events.
        drop(scope);
        match attempt {
            Ok(outcome) => {
                crate::obs::attempt_end(recorder, job, alg.name(), "ok");
                ws.end_use();
                if let Some(store) = &opts.checkpoints {
                    store.clear(job as u64);
                }
                return Ok(outcome);
            }
            // A failed attempt leaves the workspace poisoned; the next
            // begin_use resets it before reuse.
            Err(err) => {
                crate::obs::attempt_end(recorder, job, alg.name(), err.kind());
                if let (Some(store), Some(progress)) = (&opts.checkpoints, saved) {
                    crate::obs::checkpoint_saved(recorder, job, alg.name());
                    store.save(job as u64, alg, progress);
                }
                if err.is_recoverable() {
                    hop_from = Some(alg);
                    last_err = Some(err);
                } else {
                    return Err(err);
                }
            }
        }
    }
    ws.reset(recorder);
    Err(last_err.unwrap_or(SolveError::NumericRange {
        context: "fallback chain was empty",
    }))
}

/// [`Algorithm::default_epsilon`] of a graph with arc weights `weights`.
pub(crate) fn default_epsilon_of(weights: impl Iterator<Item = i64> + Clone) -> f64 {
    let hi = weights.clone().max().unwrap_or(1) as f64;
    let lo = weights.min().unwrap_or(0) as f64;
    ((hi - lo).abs().max(1.0)) * 1e-6
}

/// A minimum mean cycle algorithm from the study.
///
/// ```
/// use mcr_core::Algorithm;
/// use mcr_graph::graph::from_arc_list;
/// let g = from_arc_list(2, &[(0, 1, 1), (1, 0, 3)]);
/// for alg in Algorithm::ALL {
///     let sol = alg.solve(&g).expect("cyclic");
///     assert_eq!(sol.lambda, mcr_core::Ratio64::from(2), "{}", alg.name());
/// }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Burns' primal-dual algorithm (`f64` duals, as in the original
    /// study's implementation; the reported λ is the exact mean of the
    /// critical cycle found).
    Burns,
    /// Burns' primal-dual algorithm with exact rational duals
    /// (arithmetic-cost ablation of [`Algorithm::Burns`]).
    BurnsExact,
    /// Karp–Orlin parametric shortest paths, arc-keyed heap (exact).
    Ko,
    /// Young–Tarjan–Orlin parametric shortest paths, node-keyed heap
    /// (exact).
    Yto,
    /// Howard's policy iteration, the paper's Figure 1 (`f64`,
    /// ε-terminated; returns the exact mean of its final policy cycle).
    Howard,
    /// Howard's policy iteration with exact value determination.
    HowardExact,
    /// Hartmann–Orlin early termination over Karp's recurrence (exact).
    Ho,
    /// Karp's Θ(nm) dynamic program (exact).
    Karp,
    /// Space-efficient two-pass Karp (exact, Θ(n) space).
    Karp2,
    /// Dasdan–Gupta breadth-first unfolding (exact).
    Dg,
    /// Lawler's binary search (ε-approximate).
    Lawler,
    /// Lawler sharpened with an exact rational snap (exact).
    LawlerExact,
    /// Megiddo's parametric search: symbolic Bellman–Ford whose
    /// comparisons are resolved by negative-cycle oracle calls (exact).
    Megiddo,
    /// Orlin–Ahuja-style scaling / approximate binary search
    /// (ε-approximate).
    Oa1,
}

impl Algorithm {
    /// Every variant.
    pub const ALL: [Algorithm; 14] = [
        Algorithm::Burns,
        Algorithm::BurnsExact,
        Algorithm::Ko,
        Algorithm::Yto,
        Algorithm::Howard,
        Algorithm::HowardExact,
        Algorithm::Ho,
        Algorithm::Karp,
        Algorithm::Karp2,
        Algorithm::Dg,
        Algorithm::Lawler,
        Algorithm::LawlerExact,
        Algorithm::Megiddo,
        Algorithm::Oa1,
    ];

    /// The ten algorithms of Table 2, in the paper's column order.
    pub const TABLE2: [Algorithm; 10] = [
        Algorithm::Burns,
        Algorithm::Ko,
        Algorithm::Yto,
        Algorithm::Howard,
        Algorithm::Ho,
        Algorithm::Karp,
        Algorithm::Dg,
        Algorithm::Lawler,
        Algorithm::Karp2,
        Algorithm::Oa1,
    ];

    /// The paper's name for the algorithm.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Burns => "Burns",
            Algorithm::BurnsExact => "Burns-exact",
            Algorithm::Ko => "KO",
            Algorithm::Yto => "YTO",
            Algorithm::Howard => "Howard",
            Algorithm::HowardExact => "Howard-exact",
            Algorithm::Ho => "HO",
            Algorithm::Karp => "Karp",
            Algorithm::Karp2 => "Karp2",
            Algorithm::Dg => "DG",
            Algorithm::Lawler => "Lawler",
            Algorithm::LawlerExact => "Lawler-exact",
            Algorithm::Megiddo => "Megiddo",
            Algorithm::Oa1 => "OA1",
        }
    }

    /// Inverse of [`Algorithm::name`], case-insensitive — the lookup
    /// both the CLI (`--algorithm`) and the `mcrd` request protocol
    /// (`"algorithm"` field) resolve names through.
    pub fn by_name(name: &str) -> Option<Algorithm> {
        Algorithm::ALL
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(name))
    }

    /// Whether the variant only guarantees an ε-approximate optimum.
    pub fn is_approximate(self) -> bool {
        matches!(
            self,
            Algorithm::Howard | Algorithm::Lawler | Algorithm::Oa1
        )
    }

    /// Whether the variant needs `Θ(n²)` memory (the Karp table), the
    /// reason the paper reports `N/A` on its largest inputs.
    pub fn is_quadratic_space(self) -> bool {
        matches!(self, Algorithm::Karp | Algorithm::Dg | Algorithm::Ho)
    }

    /// Default precision for the approximate variants, scaled to the
    /// weight range of `g`.
    pub fn default_epsilon(g: &Graph) -> f64 {
        default_epsilon_of(g.weights().iter().copied())
    }

    /// Computes the minimum cycle mean of `g` with this algorithm, or
    /// `None` if `g` is acyclic. Approximate variants use
    /// [`Algorithm::default_epsilon`].
    pub fn solve(self, g: &Graph) -> Option<Solution> {
        self.solve_with_epsilon(g, Self::default_epsilon(g))
    }

    /// Like [`Algorithm::solve`] with an explicit precision for the
    /// approximate variants (exact variants ignore it). Returns `None`
    /// for acyclic graphs and for non-positive or non-finite `epsilon`;
    /// use [`Algorithm::solve_with_options`] to distinguish those cases.
    pub fn solve_with_epsilon(self, g: &Graph, epsilon: f64) -> Option<Solution> {
        let opts = SolveOptions {
            epsilon: Some(epsilon),
            ..SolveOptions::default()
        };
        self.solve_with_options(g, &opts).ok()
    }

    /// Like [`Algorithm::solve`] with explicit [`SolveOptions`]: thread
    /// count for the per-SCC driver, precision for the approximate
    /// variants, work [`Budget`](crate::Budget), and
    /// [`FallbackChain`](crate::FallbackChain). Results are
    /// bit-identical for every thread count (see
    /// [`SolveOptions::threads`]).
    ///
    /// # Errors
    ///
    /// * [`SolveError::Acyclic`] when `g` has no cycle.
    /// * [`SolveError::InvalidEpsilon`] when `opts.epsilon` is
    ///   non-positive or non-finite.
    /// * [`SolveError::BudgetExhausted`] when a budget limit trips and
    ///   no fallback alternate finishes either.
    /// * [`SolveError::Overflow`] / [`SolveError::ZeroTransitCycle`] /
    ///   [`SolveError::NumericRange`] on inputs outside the solver's
    ///   numeric range (also retried along the fallback chain where
    ///   recoverable).
    ///
    /// When the primary algorithm fails recoverably on a component, the
    /// alternates of `opts.fallback` are tried in order; the variant
    /// that produced each component's answer is recorded in
    /// [`Solution::solved_by`]. Each attempt gets a fresh iteration /
    /// λ-refinement allowance, but all attempts share the solve-wide
    /// wall-clock deadline.
    pub fn solve_with_options(self, g: &Graph, opts: &SolveOptions) -> Result<Solution, SolveError> {
        crate::route::solve(g, &Route::Mean(opts.fallback.chain_for(self)), false, opts)
    }
}

impl Algorithm {
    /// Computes λ* without extracting a witness cycle — the exact
    /// measurement protocol of the original study, which timed "each
    /// algorithm in the context of computing λ* only". For the Karp
    /// family this skips the Bellman–Ford witness extraction; every
    /// other algorithm produces its witness as a byproduct, so this is
    /// equivalent to [`Algorithm::solve`] for them.
    pub fn solve_lambda_only(self, g: &Graph) -> Option<(Ratio64, Counters)> {
        self.solve_lambda_only_opts(g, &SolveOptions::default()).ok()
    }

    /// [`Algorithm::solve_lambda_only`] with explicit [`SolveOptions`].
    /// The budget applies per component (fresh allowance each), but the
    /// fallback chain does not: the λ-only path measures one algorithm.
    pub fn solve_lambda_only_opts(
        self,
        g: &Graph,
        opts: &SolveOptions,
    ) -> Result<(Ratio64, Counters), SolveError> {
        let recorder = opts.recorder.as_ref();
        crate::obs::solve_start(recorder, self.name(), g, opts.effective_threads());
        let result = self.solve_lambda_only_opts_inner(g, opts);
        match &result {
            Ok((lambda, counters)) => {
                crate::obs::solve_end_ok(recorder, lambda, self.name(), counters)
            }
            Err(err) => crate::obs::solve_end_err(recorder, err.kind()),
        }
        result
    }

    fn solve_lambda_only_opts_inner(
        self,
        g: &Graph,
        opts: &SolveOptions,
    ) -> Result<(Ratio64, Counters), SolveError> {
        let deadline = opts.effective_deadline();
        let scoped = |f: fn(
            GraphRef<'_>,
            &mut Counters,
            &mut BudgetScope,
        ) -> Result<Ratio64, SolveError>| {
            move |_job: usize, s: GraphRef<'_>, c: &mut Counters, _ws: &mut Workspace| {
                let mut scope = BudgetScope::for_solve(opts, deadline, self);
                f(s, c, &mut scope)
            }
        };
        match self {
            Algorithm::Karp => solve_value_per_scc_opts(g, opts, scoped(karp::lambda_scc)),
            Algorithm::Karp2 => solve_value_per_scc_opts(g, opts, scoped(karp2::lambda_scc)),
            Algorithm::Dg => solve_value_per_scc_opts(g, opts, scoped(dg::lambda_scc)),
            Algorithm::Ho => solve_value_per_scc_opts(g, opts, scoped(ho::lambda_scc)),
            // Untraced, so the solve span opened above is not doubled by
            // the delegation.
            other => {
                let route = Route::Mean(opts.fallback.chain_for(other));
                crate::route::solve_untraced(g, &route, false, opts).map(|s| (s.lambda, s.counters))
            }
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::Ratio64;
    use mcr_graph::graph::from_arc_list;

    #[test]
    fn all_algorithms_agree_on_multi_scc_graph() {
        let g = from_arc_list(
            5,
            &[(0, 1, 5), (1, 0, 5), (1, 2, 1), (2, 3, 1), (3, 4, 2), (4, 2, 3)],
        );
        for alg in Algorithm::ALL {
            let sol = alg.solve(&g).expect("cyclic");
            assert_eq!(sol.lambda, Ratio64::from(2), "{}", alg.name());
            assert!(crate::solution::check_cycle(&g, &sol.cycle).is_ok());
        }
    }

    #[test]
    fn acyclic_is_none_for_all() {
        let g = from_arc_list(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]);
        for alg in Algorithm::ALL {
            assert!(alg.solve(&g).is_none(), "{}", alg.name());
        }
    }

    #[test]
    fn empty_graph_is_none() {
        let g = from_arc_list(0, &[]);
        for alg in Algorithm::ALL {
            assert!(alg.solve(&g).is_none(), "{}", alg.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Algorithm::ALL.len());
    }

    #[test]
    fn table2_selection_matches_paper_columns() {
        let names: Vec<&str> = Algorithm::TABLE2.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            ["Burns", "KO", "YTO", "Howard", "HO", "Karp", "DG", "Lawler", "Karp2", "OA1"]
        );
    }

    #[test]
    fn threads_do_not_change_any_algorithm() {
        let g = from_arc_list(
            7,
            &[
                (0, 1, 5),
                (1, 0, 5),
                (1, 2, 1),
                (2, 3, 1),
                (3, 4, 2),
                (4, 2, 3),
                (5, 6, 7),
                (6, 5, 1),
            ],
        );
        for alg in Algorithm::ALL {
            let seq = alg.solve(&g).expect("cyclic");
            let par = alg
                .solve_with_options(&g, &SolveOptions::new().threads(4))
                .expect("cyclic");
            assert_eq!(par.lambda, seq.lambda, "{}", alg.name());
            assert_eq!(par.cycle, seq.cycle, "{}", alg.name());
            assert_eq!(par.guarantee, seq.guarantee, "{}", alg.name());
            assert_eq!(par.counters, seq.counters, "{}", alg.name());
        }
    }

    #[test]
    fn exactness_flags() {
        assert!(Algorithm::Howard.is_approximate());
        assert!(!Algorithm::HowardExact.is_approximate());
        assert!(Algorithm::Karp.is_quadratic_space());
        assert!(!Algorithm::Karp2.is_quadratic_space());
    }

    #[test]
    fn invalid_epsilon_is_a_typed_error() {
        let g = from_arc_list(2, &[(0, 1, 1), (1, 0, 3)]);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let opts = SolveOptions {
                epsilon: Some(bad),
                ..SolveOptions::default()
            };
            let err = Algorithm::Lawler
                .solve_with_options(&g, &opts)
                .expect_err("invalid epsilon");
            assert!(
                matches!(err, crate::SolveError::InvalidEpsilon { .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn acyclic_is_a_typed_error_with_options() {
        let g = from_arc_list(3, &[(0, 1, 1), (1, 2, 1)]);
        let err = Algorithm::Karp
            .solve_with_options(&g, &SolveOptions::default())
            .expect_err("acyclic");
        assert!(matches!(err, crate::SolveError::Acyclic));
    }

    #[test]
    fn exhausted_budget_without_fallback_surfaces_the_error() {
        use crate::{Budget, FallbackChain};
        let g = from_arc_list(2, &[(0, 1, 1), (1, 0, 100)]);
        let opts = SolveOptions::new()
            .budget(Budget::default().max_lambda_refinements(1))
            .fallback(FallbackChain::NONE);
        let err = Algorithm::LawlerExact
            .solve_with_options(&g, &opts)
            .expect_err("one refinement cannot bisect this interval");
        match err {
            crate::SolveError::BudgetExhausted { algorithm, .. } => {
                assert_eq!(algorithm, Algorithm::LawlerExact);
            }
            other => panic!("expected BudgetExhausted, got {other}"),
        }
    }

    #[test]
    fn fallback_answers_and_is_attributed() {
        use crate::Budget;
        let g = from_arc_list(2, &[(0, 1, 1), (1, 0, 100)]);
        // LawlerExact needs many λ-refinements; the default chain's
        // first alternate (HowardExact) never charges any.
        let opts =
            SolveOptions::new().budget(Budget::default().max_lambda_refinements(1));
        let sol = Algorithm::LawlerExact
            .solve_with_options(&g, &opts)
            .expect("fallback chain finishes");
        assert_eq!(sol.lambda, Ratio64::new(101, 2));
        assert_eq!(sol.solved_by, Algorithm::HowardExact);
        assert!(crate::solution::check_cycle(&g, &sol.cycle).is_ok());
    }

    #[test]
    fn fallback_result_matches_the_unbudgeted_answer() {
        use crate::Budget;
        use mcr_gen::sprand::{sprand, SprandConfig};
        for seed in 0..10 {
            let g = sprand(&SprandConfig::new(12, 36).seed(seed).weight_range(-50, 50));
            let reference = Algorithm::HowardExact.solve(&g).expect("cyclic");
            let opts =
                SolveOptions::new().budget(Budget::default().max_lambda_refinements(1));
            let sol = Algorithm::LawlerExact
                .solve_with_options(&g, &opts)
                .expect("fallback chain finishes");
            assert_eq!(sol.lambda, reference.lambda, "seed {seed}");
        }
    }

    #[test]
    fn one_iteration_budget_never_hangs_for_any_algorithm() {
        use crate::{Budget, FallbackChain};
        let g = from_arc_list(
            5,
            &[(0, 1, 5), (1, 0, 5), (1, 2, 1), (2, 3, 1), (3, 4, 2), (4, 2, 3)],
        );
        let opts = SolveOptions::new()
            .budget(Budget::default().max_iterations(1))
            .fallback(FallbackChain::NONE);
        for alg in Algorithm::ALL {
            match alg.solve_with_options(&g, &opts) {
                // A lucky instance can finish within one outer iteration.
                Ok(sol) => assert_eq!(sol.lambda, Ratio64::from(2), "{}", alg.name()),
                Err(err) => assert!(
                    matches!(err, crate::SolveError::BudgetExhausted { .. }),
                    "{}: {err}",
                    alg.name()
                ),
            }
        }
    }

    #[test]
    fn solved_by_is_the_primary_when_no_fallback_is_needed() {
        let g = from_arc_list(2, &[(0, 1, 1), (1, 0, 3)]);
        for alg in Algorithm::ALL {
            let sol = alg.solve(&g).expect("cyclic");
            assert_eq!(sol.solved_by, alg, "{}", alg.name());
        }
    }

    #[test]
    fn exhausted_chain_attributes_the_last_attempt() {
        use crate::Budget;
        // A zero-iteration budget fails every member of the default
        // chain on a non-uniform-weight graph; the surfaced error must
        // name the LAST attempt (LawlerExact), not the primary.
        let g = from_arc_list(2, &[(0, 1, 1), (1, 0, 100)]);
        let opts = SolveOptions::new().budget(Budget::default().max_iterations(0));
        let err = Algorithm::HowardExact
            .solve_with_options(&g, &opts)
            .expect_err("no chain member can run zero iterations");
        match err {
            crate::SolveError::BudgetExhausted { algorithm, .. } => {
                assert_eq!(algorithm, Algorithm::LawlerExact);
            }
            other => panic!("expected BudgetExhausted, got {other}"),
        }
    }

    #[test]
    fn only_approximate_kernels_read_the_precision() {
        let g = from_arc_list(2, &[(0, 1, 1), (1, 0, 100)]);
        for alg in Algorithm::ALL {
            let (mut scope, mut ws) = (BudgetScope::unlimited(alg), Workspace::new());
            let result = solve_scc_budgeted(
                alg,
                g.view(),
                &mut Counters::new(),
                None,
                &mut ws,
                &mut scope,
            );
            let name = alg.name();
            if alg.is_approximate() {
                assert!(
                    matches!(result, Err(SolveError::InvalidEpsilon { epsilon }) if epsilon.is_nan()),
                    "{name} ran without a precision"
                );
            } else {
                assert_eq!(result.expect(name).lambda, Ratio64::new(101, 2), "{name}");
            }
        }
    }

    #[test]
    fn exhausted_chain_leaves_the_workspace_reset_not_poisoned() {
        use crate::Budget;
        let g = from_arc_list(2, &[(0, 1, 1), (1, 0, 100)]);
        let opts = SolveOptions::new().budget(Budget::default().max_iterations(0));
        let chain = opts.fallback.chain_for(Algorithm::HowardExact);
        let mut ws = Workspace::new();
        let mut counters = Counters::new();
        let err = run_fallback_chain(
            0,
            &chain,
            g.view(),
            &mut counters,
            None,
            &mut ws,
            &opts,
            None,
        )
        .expect_err("every attempt exhausts");
        assert!(matches!(err, crate::SolveError::BudgetExhausted { .. }));
        assert!(
            !ws.is_poisoned(),
            "an exhausted chain must hand back a reset workspace"
        );
        assert!(
            ws.policy.is_empty() && ws.bf.dist.is_empty(),
            "reset must discard all scratch state"
        );
        // The same workspace must serve a clean follow-up solve.
        let mut scope = BudgetScope::unlimited(Algorithm::HowardExact);
        ws.begin_use(None);
        let outcome = howard::solve_scc_exact(g.view(), &mut counters, &mut ws, &mut scope)
            .expect("clean solve after exhaustion");
        ws.end_use();
        assert_eq!(outcome.lambda, Ratio64::new(101, 2));
    }

    #[test]
    fn a_non_recoverable_error_stops_the_chain_immediately() {
        let g = from_arc_list(2, &[(0, 1, 1), (1, 0, 100)]);
        let token = crate::CancelToken::new();
        token.cancel();
        let err = Algorithm::HowardExact
            .solve_with_options(&g, &SolveOptions::new().cancel(token))
            .expect_err("cancelled before it started");
        assert_eq!(err, crate::SolveError::Cancelled);
    }
}
