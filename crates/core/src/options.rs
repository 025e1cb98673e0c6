//! Solver configuration shared by the public entry points.

// Parsing/validation surfaces must stay panic-free whatever the
// input; CI runs clippy with -D warnings, so these lints are a gate.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use crate::algorithms::Algorithm;
use crate::budget::{Budget, Deadline};
use crate::cancel::CancelToken;
use crate::checkpoint::CheckpointStore;
use crate::driver::SccPlan;
use crate::obs::Recorder;
use std::time::Instant;

/// The ordered list of alternate algorithms the driver tries when the
/// primary algorithm fails with a recoverable error (budget exhaustion,
/// overflow, numeric-range exhaustion) on a component.
///
/// The default chain is `HowardExact → Karp → LawlerExact` — the paper's
/// practical favorite backed by the `Θ(nm)` worst-case workhorse and an
/// exact binary search with entirely different numerics. The primary
/// algorithm is always tried first; alternates equal to the primary (or
/// to an earlier alternate) are skipped.
///
/// ```
/// use mcr_core::{Algorithm, FallbackChain};
/// let chain = FallbackChain::default();
/// assert_eq!(
///     chain.chain_for(Algorithm::Karp),
///     vec![Algorithm::Karp, Algorithm::HowardExact, Algorithm::LawlerExact],
/// );
/// assert_eq!(
///     FallbackChain::NONE.chain_for(Algorithm::Megiddo),
///     vec![Algorithm::Megiddo],
/// );
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FallbackChain {
    alternates: [Option<Algorithm>; 4],
}

impl Default for FallbackChain {
    fn default() -> Self {
        FallbackChain {
            alternates: [
                Some(Algorithm::HowardExact),
                Some(Algorithm::Karp),
                Some(Algorithm::LawlerExact),
                None,
            ],
        }
    }
}

impl FallbackChain {
    /// No fallback: a recoverable failure of the primary algorithm is
    /// reported to the caller directly.
    pub const NONE: FallbackChain = FallbackChain {
        alternates: [None; 4],
    };

    /// A chain of up to four alternates, tried in order. Entries beyond
    /// the fourth are ignored.
    pub fn new(algorithms: &[Algorithm]) -> Self {
        let mut alternates = [None; 4];
        for (slot, &alg) in alternates.iter_mut().zip(algorithms) {
            *slot = Some(alg);
        }
        FallbackChain { alternates }
    }

    /// The alternates in order (without the primary).
    pub fn alternates(&self) -> impl Iterator<Item = Algorithm> + '_ {
        self.alternates.iter().flatten().copied()
    }

    /// The full attempt order for `primary`: the primary first, then
    /// each alternate not already attempted.
    pub fn chain_for(&self, primary: Algorithm) -> Vec<Algorithm> {
        let mut chain = vec![primary];
        for alg in self.alternates() {
            if !chain.contains(&alg) {
                chain.push(alg);
            }
        }
        chain
    }
}

/// Options for the per-SCC solver driver.
///
/// ```
/// use mcr_core::{Algorithm, SolveOptions};
/// use mcr_graph::graph::from_arc_list;
/// let g = from_arc_list(4, &[(0, 1, 4), (1, 0, 4), (2, 3, 1), (3, 2, 1)]);
/// let opts = SolveOptions::new().threads(2);
/// let sol = Algorithm::HowardExact.solve_with_options(&g, &opts).unwrap();
/// assert_eq!(sol.lambda, mcr_core::Ratio64::from(1));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SolveOptions {
    /// Number of worker threads for solving strongly connected
    /// components in parallel. `1` (the default) is the sequential
    /// legacy path; `0` means "use [`std::thread::available_parallelism`]".
    ///
    /// Results are **bit-identical** for every thread count: components
    /// are reduced in a fixed order with a strict comparison, and
    /// counters merge commutatively. Parallelism only helps on inputs
    /// with several nontrivial components: each component is solved by
    /// one sequential kernel on one thread, so a single giant SCC runs
    /// at single-thread speed whatever the count, and the driver never
    /// spawns more workers than there are components.
    pub threads: usize,
    /// Precision for the ε-approximate algorithms; `None` uses
    /// [`crate::Algorithm::default_epsilon`]. Exact algorithms ignore it.
    pub epsilon: Option<f64>,
    /// Work limits; [`Budget::UNLIMITED`] (the default) preserves the
    /// unbudgeted behavior exactly.
    pub budget: Budget,
    /// Alternates tried when the primary algorithm fails recoverably on
    /// a component. Use [`FallbackChain::NONE`] to surface the primary
    /// algorithm's own error instead.
    pub fallback: FallbackChain,
    /// Cooperative cancellation: when set, the solver polls the token
    /// at its wall-clock poll points and fails closed with
    /// [`crate::SolveError::Cancelled`] once it is cancelled. `None`
    /// (the default) adds no per-iteration cost.
    pub cancel: Option<CancelToken>,
    /// Cancellation deadline: the absolute monotonic instant after
    /// which the solve fails closed with
    /// [`crate::SolveError::Cancelled`] (the CLI's `--timeout`, a
    /// service request's deadline). Folded with
    /// [`Budget::wall_time`]'s deadline into **one** instant by
    /// [`SolveOptions::effective_deadline`] before the solve starts, so
    /// whether a near-boundary trip reports exit 2 (budget) or exit 4
    /// (cancelled) is decided once, deterministically — not by a race
    /// between two clocks.
    pub deadline: Option<Instant>,
    /// Checkpoint/resume state: when set, interrupted per-component
    /// attempts save their progress here, and a later solve with the
    /// same (or a reloaded) store resumes from it bit-identically. See
    /// [`crate::checkpoint`].
    pub checkpoints: Option<CheckpointStore>,
    /// A pre-computed SCC decomposition ([`SccPlan::prepare`]): when
    /// set **and** prepared from this exact graph, the per-SCC driver
    /// reuses its canonically ordered job arena instead of re-running
    /// Tarjan and the job layout — the cache fast path of the `mcrd`
    /// daemon, and a ratio solve by transit expansion expands each
    /// planned job. The plan carries a size fingerprint; a solve on any
    /// other graph falls back to a fresh layout, so a stale plan can
    /// never misroute a solve onto the wrong components as long as the
    /// caller honors the same-graph contract. Job indices (the
    /// checkpoint keys) are identical with and without a plan.
    pub plan: Option<SccPlan>,
    /// Where the solve's trace events and metrics go (`obs` feature):
    /// each solve records into the recorder it carries, so concurrent
    /// solves with their own recorders never mix. `None` (the default,
    /// and the only value without the feature) records nothing, at the
    /// cost of one branch per hook.
    pub recorder: Option<Recorder>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            threads: 1,
            epsilon: None,
            budget: Budget::UNLIMITED,
            fallback: FallbackChain::default(),
            cancel: None,
            deadline: None,
            checkpoints: None,
            plan: None,
            recorder: None,
        }
    }
}

impl SolveOptions {
    /// The default options: sequential, default precision.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker thread count (`0` = auto-detect).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the precision for approximate algorithms.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon <= 0` or is not finite.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon.is_finite(),
            "epsilon must be positive and finite"
        );
        self.epsilon = Some(epsilon);
        self
    }

    /// Sets the work limits.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the fallback chain.
    pub fn fallback(mut self, fallback: FallbackChain) -> Self {
        self.fallback = fallback;
        self
    }

    /// Attaches a cooperative cancellation token.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets the absolute cancellation deadline (see
    /// [`SolveOptions::deadline`]).
    pub fn deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Attaches a pre-computed SCC plan (see [`SolveOptions::plan`]).
    /// The plan must have been prepared from the same graph the solve
    /// runs on.
    pub fn plan(mut self, plan: SccPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Attaches a recorder for the solve's trace and metrics (see
    /// [`SolveOptions::recorder`]).
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The single solve-wide deadline: the earlier of the budget's
    /// wall-clock deadline (trips as
    /// [`crate::SolveError::BudgetExhausted`], exit 2) and the
    /// cancellation deadline (trips as
    /// [`crate::SolveError::Cancelled`], exit 4), with ties resolving
    /// to cancellation. Every entry point resolves this **once** when
    /// the solve starts, so all components and fallback attempts race
    /// against one instant and the error type at the boundary is
    /// deterministic.
    pub fn effective_deadline(&self) -> Option<Deadline> {
        Deadline::earliest(
            self.budget.deadline().map(Deadline::budget),
            self.deadline.map(Deadline::cancel),
        )
    }

    /// Attaches a checkpoint store for interrupt/resume.
    pub fn checkpoints(mut self, store: CheckpointStore) -> Self {
        self.checkpoints = Some(store);
        self
    }

    /// The concrete worker count: `threads`, or the machine's available
    /// parallelism when `threads == 0` (falling back to 1 if that cannot
    /// be determined).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential() {
        let opts = SolveOptions::default();
        assert_eq!(opts.threads, 1);
        assert_eq!(opts.effective_threads(), 1);
        assert!(opts.epsilon.is_none());
    }

    #[test]
    fn zero_threads_autodetects() {
        let opts = SolveOptions::new().threads(0);
        assert!(opts.effective_threads() >= 1);
    }

    #[test]
    fn builder_sets_fields() {
        let opts = SolveOptions::new().threads(4).epsilon(1e-3);
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.effective_threads(), 4);
        assert_eq!(opts.epsilon, Some(1e-3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_epsilon_rejected() {
        let _ = SolveOptions::new().epsilon(0.0);
    }

    #[test]
    fn effective_deadline_prefers_the_earlier_source() {
        use crate::budget::DeadlineKind;
        use std::time::Duration;
        assert!(SolveOptions::default().effective_deadline().is_none());
        // Only a cancellation deadline: kind is Cancel, instant exact.
        let at = Instant::now() + Duration::from_secs(5);
        let opts = SolveOptions::new().deadline(at);
        let d = opts.effective_deadline().expect("deadline set");
        assert_eq!((d.at, d.kind), (at, DeadlineKind::Cancel));
        // A much tighter wall budget wins over the distant timeout.
        let opts = opts.budget(Budget::default().wall_time(Duration::from_millis(1)));
        assert_eq!(
            opts.effective_deadline().expect("both set").kind,
            DeadlineKind::Budget
        );
        // ... and a timeout earlier than the wall budget wins back.
        let opts = SolveOptions::new()
            .budget(Budget::default().wall_time(Duration::from_secs(3600)))
            .deadline(Instant::now() + Duration::from_millis(1));
        assert_eq!(
            opts.effective_deadline().expect("both set").kind,
            DeadlineKind::Cancel
        );
    }

    #[test]
    fn default_budget_is_unlimited_and_chain_is_standard() {
        let opts = SolveOptions::default();
        assert!(opts.budget.is_unlimited());
        assert_eq!(opts.fallback, FallbackChain::default());
    }

    #[test]
    fn chain_for_dedups_the_primary_and_alternates() {
        let chain = FallbackChain::new(&[
            Algorithm::Karp,
            Algorithm::Karp,
            Algorithm::HowardExact,
            Algorithm::Karp,
        ]);
        assert_eq!(
            chain.chain_for(Algorithm::Karp),
            vec![Algorithm::Karp, Algorithm::HowardExact],
        );
        assert_eq!(
            chain.chain_for(Algorithm::Burns),
            vec![Algorithm::Burns, Algorithm::Karp, Algorithm::HowardExact],
        );
    }

    #[test]
    fn new_ignores_entries_beyond_four() {
        let chain = FallbackChain::new(&[
            Algorithm::Burns,
            Algorithm::Ko,
            Algorithm::Yto,
            Algorithm::Ho,
            Algorithm::Megiddo,
        ]);
        assert_eq!(chain.alternates().count(), 4);
    }
}
