//! Resource budgets for the solver layer.
//!
//! A [`Budget`] bounds how much work a solve may do before giving up:
//! outer-loop iterations, λ-refinement steps, and wall-clock time. The
//! limits are *cooperative* — each algorithm charges its dominant loop
//! against a [`BudgetScope`] and returns
//! [`SolveError::BudgetExhausted`] when a limit is hit, so a bounded
//! solve never hangs and never aborts the process.
//!
//! Iteration and refinement budgets are charged **per SCC attempt**:
//! each (component, algorithm) pair gets the full allowance, which
//! keeps results independent of how the driver schedules components
//! across threads. The wall-clock deadline is **shared** across the
//! whole solve: it is computed once when `solve_with_options` starts
//! and every component races against the same instant.

// Parsing/validation surfaces must stay panic-free whatever the
// input; CI runs clippy with -D warnings, so these lints are a gate.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]


use crate::algorithms::Algorithm;
use crate::cancel::CancelToken;
use crate::error::{BudgetResource, SolveError};
use crate::obs::Recorder;
use crate::options::SolveOptions;
use std::cell::Cell;
use std::time::{Duration, Instant};

/// How often [`BudgetScope::check_time`] aims to actually read the
/// clock. Far below any plausible wall budget (a 50 ms budget still
/// gets ~100 reads) yet long enough that the amortized per-check cost
/// is a counter decrement, not a syscall.
const TARGET_POLL_INTERVAL: Duration = Duration::from_micros(500);

/// Upper bound on the number of `check_time` calls between clock
/// reads, so a loop whose per-iteration cost suddenly grows cannot
/// coast past the deadline on a stale stride for long.
const MAX_POLL_STRIDE: u32 = 1 << 16;

/// Work limits for a solve. The default is unlimited in every
/// dimension, so existing callers see no behavior change.
///
/// ```
/// use mcr_core::Budget;
/// use std::time::Duration;
/// let b = Budget::default()
///     .max_iterations(10_000)
///     .wall_time(Duration::from_secs(5));
/// assert_eq!(b.max_iterations, Some(10_000));
/// assert!(!b.is_unlimited());
/// assert!(Budget::UNLIMITED.is_unlimited());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Cap on the dominant outer loop of the algorithm, per SCC
    /// attempt: Howard policy improvements, Burns phases, KO/YTO heap
    /// pivots, Karp/HO/DG table levels, bisection steps. `None` means
    /// unlimited.
    pub max_iterations: Option<u64>,
    /// Wall-clock limit for the whole solve (shared across all SCCs
    /// and all fallback attempts). `None` means unlimited.
    pub wall_time: Option<Duration>,
    /// Cap on λ-refinement steps of the search-based algorithms
    /// (Lawler/OA1 bisection halvings, Megiddo oracle resolutions),
    /// per SCC attempt. `None` means unlimited.
    pub max_lambda_refinements: Option<u64>,
}

impl Budget {
    /// No limits at all (same as `Budget::default()`).
    pub const UNLIMITED: Budget = Budget {
        max_iterations: None,
        wall_time: None,
        max_lambda_refinements: None,
    };

    /// Sets the per-SCC-attempt iteration cap.
    pub fn max_iterations(mut self, n: u64) -> Self {
        self.max_iterations = Some(n);
        self
    }

    /// Sets the shared wall-clock limit.
    pub fn wall_time(mut self, d: Duration) -> Self {
        self.wall_time = Some(d);
        self
    }

    /// Sets the per-SCC-attempt λ-refinement cap.
    pub fn max_lambda_refinements(mut self, n: u64) -> Self {
        self.max_lambda_refinements = Some(n);
        self
    }

    /// Whether no limit is set in any dimension.
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::UNLIMITED
    }

    /// The absolute deadline implied by `wall_time`, anchored at "now".
    /// Computed once per solve so that all SCC jobs and fallback
    /// attempts race against the same instant.
    pub fn deadline(&self) -> Option<Instant> {
        self.wall_time.map(|d| Instant::now() + d)
    }
}

/// How tripping a wall-clock deadline is reported: as an exhausted
/// budget or as a cancellation. See [`Deadline`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeadlineKind {
    /// The deadline came from [`Budget::wall_time`]; tripping it is
    /// [`SolveError::BudgetExhausted`] with
    /// [`BudgetResource::WallTime`] (CLI exit 2).
    Budget,
    /// The deadline is a caller cancellation deadline
    /// ([`crate::SolveOptions::deadline`], the CLI's `--timeout`);
    /// tripping it is [`SolveError::Cancelled`] (CLI exit 4), which
    /// fails the whole solve closed — the fallback chain does not
    /// continue past it.
    Cancel,
}

/// One monotonic wall-clock deadline plus how tripping it is typed.
///
/// Historically the CLI's `--timeout` armed a detached watchdog thread
/// while `Budget::wall_time` was polled in-loop — two independent
/// clocks that could disagree near the boundary, making exit 2 vs
/// exit 4 a race. Now both are folded into **one** deadline before the
/// solve starts ([`crate::SolveOptions::effective_deadline`]): the
/// earlier instant wins, its [`DeadlineKind`] is fixed at that moment,
/// and every poll point in the solve races against the same instant —
/// so which error a tripped deadline produces is deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline {
    /// The absolute monotonic instant after which the solve must stop.
    pub at: Instant,
    /// How tripping is reported.
    pub kind: DeadlineKind,
}

impl Deadline {
    /// A [`Budget::wall_time`]-style deadline (trips as exhaustion).
    pub fn budget(at: Instant) -> Self {
        Deadline {
            at,
            kind: DeadlineKind::Budget,
        }
    }

    /// A cancellation deadline (trips as [`SolveError::Cancelled`]).
    pub fn cancel(at: Instant) -> Self {
        Deadline {
            at,
            kind: DeadlineKind::Cancel,
        }
    }

    /// The deadline that fires first. On an exact tie the
    /// [`DeadlineKind::Cancel`] one wins: cancellation is the caller's
    /// explicit request, and a fixed rule keeps the boundary
    /// deterministic.
    pub fn earliest(a: Option<Deadline>, b: Option<Deadline>) -> Option<Deadline> {
        match (a, b) {
            (Some(x), Some(y)) => Some(if x.at < y.at {
                x
            } else if y.at < x.at {
                y
            } else if x.kind == DeadlineKind::Cancel {
                x
            } else {
                y
            }),
            (x, None) => x,
            (None, y) => y,
        }
    }
}

/// The runtime countdown for one (SCC, algorithm) attempt.
///
/// Constructed by the driver from a [`Budget`] plus the solve-wide
/// deadline; handed down into each algorithm's hot loops, which call
/// [`tick_iteration`](BudgetScope::tick_iteration) /
/// [`tick_refinement`](BudgetScope::tick_refinement) /
/// [`check_time`](BudgetScope::check_time) at their natural charge
/// points.
#[derive(Clone, Debug)]
pub struct BudgetScope {
    algorithm: Algorithm,
    iters_left: Option<u64>,
    iters_spent: u64,
    refines_left: Option<u64>,
    refines_spent: u64,
    deadline: Option<Deadline>,
    cancel: Option<CancelToken>,
    /// The solve's recorder: loop metrics, cancellation and fault
    /// events of this scope go there.
    recorder: Option<Recorder>,
    /// `check_time` calls between clock reads; adapted so clock reads
    /// land roughly every [`TARGET_POLL_INTERVAL`] of wall time.
    poll_stride: Cell<u32>,
    /// Countdown to the next clock read.
    polls_until_clock: Cell<u32>,
    /// When the clock was last read, for stride adaptation.
    last_clock: Cell<Option<Instant>>,
    /// Loop site currently charging this scope (see
    /// [`loop_metrics`](BudgetScope::loop_metrics)); flushed to the
    /// metrics registry on the next mark or on drop. `Cell`s so the
    /// `&self` helpers (Bellman rounds) can mark too.
    obs_site: Cell<Option<&'static str>>,
    /// `iters_spent` at the moment the current site was marked.
    obs_iters_mark: Cell<u64>,
    /// `refines_spent` at the moment the current site was marked.
    obs_refines_mark: Cell<u64>,
}

impl BudgetScope {
    /// A fresh countdown for one SCC attempt of `algorithm`. The
    /// deadline is the solve-wide one resolved up front by
    /// [`crate::SolveOptions::effective_deadline`], so every attempt of
    /// every component races against the same instant.
    pub fn new(budget: &Budget, deadline: Option<Deadline>, algorithm: Algorithm) -> Self {
        BudgetScope {
            algorithm,
            iters_left: budget.max_iterations,
            iters_spent: 0,
            refines_left: budget.max_lambda_refinements,
            refines_spent: 0,
            deadline,
            cancel: None,
            recorder: None,
            poll_stride: Cell::new(1),
            polls_until_clock: Cell::new(0),
            last_clock: Cell::new(None),
            obs_site: Cell::new(None),
            obs_iters_mark: Cell::new(0),
            obs_refines_mark: Cell::new(0),
        }
    }

    /// Attaches a cooperative cancellation token: subsequent
    /// [`check_time`](BudgetScope::check_time) calls return
    /// [`SolveError::Cancelled`] once the token is cancelled.
    pub fn with_cancel(mut self, cancel: Option<CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// The scope of one attempt of `algorithm` within a solve under
    /// `opts`: its budget, the solve-wide `deadline`, its cancel token
    /// and its recorder.
    pub(crate) fn for_solve(
        opts: &SolveOptions,
        deadline: Option<Deadline>,
        algorithm: Algorithm,
    ) -> Self {
        let mut scope =
            BudgetScope::new(&opts.budget, deadline, algorithm).with_cancel(opts.cancel.clone());
        scope.recorder = opts.recorder.clone();
        scope
    }

    /// A scope that never trips — for the legacy `Option`-returning
    /// entry points and internal helpers that pre-date budgets.
    pub fn unlimited(algorithm: Algorithm) -> Self {
        BudgetScope::new(&Budget::UNLIMITED, None, algorithm)
    }

    /// The algorithm this scope is charging (used to attribute
    /// [`SolveError::BudgetExhausted`]).
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Re-attributes subsequent charges (the fallback driver reuses
    /// the deadline but resets the countdowns per attempt, so it
    /// constructs fresh scopes instead; this is for wrappers that
    /// dispatch to a helper algorithm internally).
    pub fn set_algorithm(&mut self, algorithm: Algorithm) {
        self.algorithm = algorithm;
    }

    /// Outer-loop iterations charged against this scope so far.
    pub fn iters_spent(&self) -> u64 {
        self.iters_spent
    }

    /// λ-refinement steps charged against this scope so far.
    pub fn refines_spent(&self) -> u64 {
        self.refines_spent
    }

    /// Marks the budgeted loop named `site` (a chaos-site name like
    /// `"core.karp.level"`) as the current charge attribution for this
    /// scope. With the `obs` feature on and a recorder attached, the
    /// charges accumulated between this mark and the next one (or the
    /// scope's drop) are recorded as `loop.<site>.iterations` /
    /// `loop.<site>.refinements`, plus a `loop.<site>.visits` count —
    /// delta-based, so helpers sharing the scope never double-count.
    /// Without the feature this is one `Cell` store. Lint rule MCRL006
    /// requires this mark in every algorithm loop that ticks a scope.
    #[inline]
    pub fn loop_metrics(&self, site: &'static str) {
        self.flush_loop_metrics();
        self.obs_site.set(Some(site));
        self.obs_iters_mark.set(self.iters_spent);
        self.obs_refines_mark.set(self.refines_spent);
    }

    /// Reports the charges since the last
    /// [`loop_metrics`](BudgetScope::loop_metrics) mark to the registry
    /// and clears the mark. Saturating subtraction, since a clone of a marked scope
    /// restarts its own charge counters.
    fn flush_loop_metrics(&self) {
        if let Some(site) = self.obs_site.take() {
            crate::obs::loop_flush(
                self.recorder.as_ref(),
                site,
                self.iters_spent.saturating_sub(self.obs_iters_mark.get()),
                self.refines_spent.saturating_sub(self.obs_refines_mark.get()),
            );
        }
    }

    /// Charges one outer-loop iteration; errs when the cap is reached.
    #[inline]
    pub fn tick_iteration(&mut self) -> Result<(), SolveError> {
        self.iters_spent += 1;
        if let Some(left) = &mut self.iters_left {
            if *left == 0 {
                return Err(self.exhausted(BudgetResource::Iterations, self.iters_spent));
            }
            *left -= 1;
        }
        Ok(())
    }

    /// Charges one λ-refinement step; errs when the cap is reached.
    #[inline]
    pub fn tick_refinement(&mut self) -> Result<(), SolveError> {
        self.refines_spent += 1;
        if let Some(left) = &mut self.refines_left {
            if *left == 0 {
                return Err(self.exhausted(BudgetResource::LambdaRefinements, self.refines_spent));
            }
            *left -= 1;
        }
        Ok(())
    }

    /// Errs when the solve was cancelled or the shared deadline has
    /// passed. Cheap when neither a token nor a deadline is set, and
    /// *amortized* cheap with a deadline: the clock is only read every
    /// poll-stride-th call, with the stride adapted so reads land
    /// roughly twice per millisecond of wall time whatever the
    /// per-iteration cost of the calling loop.
    #[inline]
    pub fn check_time(&self) -> Result<(), SolveError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                crate::obs::cancel_observed(self.recorder.as_ref(), self.algorithm.name());
                return Err(SolveError::Cancelled);
            }
        }
        let Some(deadline) = self.deadline else {
            return Ok(());
        };
        let left = self.polls_until_clock.get();
        if left > 0 {
            self.polls_until_clock.set(left - 1);
            return Ok(());
        }
        self.poll_clock(deadline)
    }

    /// Slow path of [`check_time`](BudgetScope::check_time): reads the
    /// clock, checks the deadline, and re-tunes the poll stride toward
    /// one clock read per [`TARGET_POLL_INTERVAL`].
    #[cold]
    fn poll_clock(&self, deadline: Deadline) -> Result<(), SolveError> {
        let now = Instant::now();
        let stride = self.poll_stride.get();
        let stride = match self.last_clock.get() {
            // Checks are coming in much faster than the target cadence:
            // widen the stride. Slower: narrow it so a deadline is
            // never overshot by more than ~one target interval.
            Some(prev) => {
                let elapsed = now.saturating_duration_since(prev);
                if elapsed * 4 < TARGET_POLL_INTERVAL {
                    stride.saturating_mul(2).min(MAX_POLL_STRIDE)
                } else if elapsed > TARGET_POLL_INTERVAL {
                    (stride / 2).max(1)
                } else {
                    stride
                }
            }
            None => stride,
        };
        self.poll_stride.set(stride);
        self.polls_until_clock.set(stride - 1);
        self.last_clock.set(Some(now));
        if now >= deadline.at {
            match deadline.kind {
                DeadlineKind::Budget => {
                    Err(self.exhausted(BudgetResource::WallTime, self.iters_spent))
                }
                DeadlineKind::Cancel => {
                    crate::obs::cancel_observed(self.recorder.as_ref(), self.algorithm.name());
                    Err(SolveError::Cancelled)
                }
            }
        } else {
            Ok(())
        }
    }

    /// Failpoint hook for the chaos test harness: consults the active
    /// [`mcr_chaos::FaultSchedule`] (if any) for `site` and maps a
    /// fired fault onto this scope's typed [`SolveError`] —
    /// `BudgetExhaust` becomes [`SolveError::BudgetExhausted`]
    /// attributed to this scope's algorithm, `Overflow` becomes
    /// [`SolveError::Overflow`], and `NumericRange` / `Transient`
    /// become [`SolveError::NumericRange`] (all recoverable, so the
    /// fallback chain engages exactly as for an organic failure).
    /// `Delay` faults are applied in place by the registry.
    #[cfg(feature = "chaos")]
    pub fn chaos_check(&self, site: &'static str) -> Result<(), SolveError> {
        use mcr_chaos::FaultKind;
        let Some(kind) = mcr_chaos::hit(site) else {
            return Ok(());
        };
        crate::obs::fault_injected(self.recorder.as_ref(), site, crate::chaos::fault_name(&kind));
        match kind {
            FaultKind::Delay { .. } => Ok(()),
            FaultKind::BudgetExhaust => {
                Err(self.exhausted(BudgetResource::Iterations, self.iters_spent))
            }
            FaultKind::Overflow => Err(SolveError::Overflow { context: site }),
            FaultKind::NumericRange | FaultKind::Transient => {
                Err(SolveError::NumericRange { context: site })
            }
        }
    }

    /// Compiled-out failpoint hook: always `Ok`, inlined to nothing.
    #[cfg(not(feature = "chaos"))]
    #[inline(always)]
    pub fn chaos_check(&self, _site: &'static str) -> Result<(), SolveError> {
        Ok(())
    }

    /// Combined per-round charge used by loops that should respect
    /// both the iteration cap and the deadline.
    #[inline]
    pub fn tick_iteration_and_time(&mut self) -> Result<(), SolveError> {
        self.tick_iteration()?;
        self.check_time()
    }

    fn exhausted(&self, resource: BudgetResource, spent: u64) -> SolveError {
        SolveError::BudgetExhausted {
            algorithm: self.algorithm,
            resource,
            spent,
        }
    }
}

impl Drop for BudgetScope {
    /// Flushes a pending [`loop_metrics`](BudgetScope::loop_metrics)
    /// mark, so loops that exit through `?` (budget exhaustion,
    /// cancellation, chaos faults) still report their charges.
    fn drop(&mut self) {
        self.flush_loop_metrics();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let mut s = BudgetScope::unlimited(Algorithm::HowardExact);
        for _ in 0..10_000 {
            s.tick_iteration().expect("unlimited");
            s.tick_refinement().expect("unlimited");
            s.check_time().expect("unlimited");
        }
    }

    #[test]
    fn iteration_cap_trips_after_exactly_n_charges() {
        let b = Budget::default().max_iterations(3);
        let mut s = BudgetScope::new(&b, None, Algorithm::Karp);
        assert!(s.tick_iteration().is_ok());
        assert!(s.tick_iteration().is_ok());
        assert!(s.tick_iteration().is_ok());
        let err = s.tick_iteration().expect_err("cap of 3");
        assert_eq!(
            err,
            SolveError::BudgetExhausted {
                algorithm: Algorithm::Karp,
                resource: BudgetResource::Iterations,
                spent: 4,
            }
        );
    }

    #[test]
    fn refinement_cap_is_independent_of_iterations() {
        let b = Budget::default().max_lambda_refinements(1);
        let mut s = BudgetScope::new(&b, None, Algorithm::LawlerExact);
        for _ in 0..100 {
            s.tick_iteration().expect("iterations unlimited");
        }
        assert!(s.tick_refinement().is_ok());
        let err = s.tick_refinement().expect_err("cap of 1");
        assert!(matches!(
            err,
            SolveError::BudgetExhausted {
                resource: BudgetResource::LambdaRefinements,
                ..
            }
        ));
    }

    #[test]
    fn expired_deadline_trips_check_time() {
        let deadline = Some(Deadline::budget(Instant::now() - Duration::from_millis(1)));
        let s = BudgetScope::new(&Budget::UNLIMITED, deadline, Algorithm::Megiddo);
        let err = s.check_time().expect_err("deadline in the past");
        assert!(matches!(
            err,
            SolveError::BudgetExhausted {
                resource: BudgetResource::WallTime,
                ..
            }
        ));
    }

    #[test]
    fn expired_cancel_deadline_trips_as_cancelled() {
        let deadline = Some(Deadline::cancel(Instant::now() - Duration::from_millis(1)));
        let s = BudgetScope::new(&Budget::UNLIMITED, deadline, Algorithm::Megiddo);
        assert_eq!(
            s.check_time().expect_err("deadline in the past"),
            SolveError::Cancelled
        );
    }

    #[test]
    fn earliest_deadline_wins_and_ties_break_to_cancel() {
        let now = Instant::now();
        let soon = Deadline::budget(now + Duration::from_millis(1));
        let late = Deadline::cancel(now + Duration::from_secs(10));
        assert_eq!(Deadline::earliest(Some(soon), Some(late)), Some(soon));
        assert_eq!(Deadline::earliest(Some(late), Some(soon)), Some(soon));
        assert_eq!(Deadline::earliest(Some(soon), None), Some(soon));
        assert_eq!(Deadline::earliest(None, Some(late)), Some(late));
        assert_eq!(Deadline::earliest(None, None), None);
        // An exact tie resolves to the cancellation deadline, in either
        // argument order — the boundary-determinism contract.
        let tie_b = Deadline::budget(now);
        let tie_c = Deadline::cancel(now);
        assert_eq!(Deadline::earliest(Some(tie_b), Some(tie_c)), Some(tie_c));
        assert_eq!(Deadline::earliest(Some(tie_c), Some(tie_b)), Some(tie_c));
    }

    #[test]
    fn cancelled_token_trips_check_time() {
        let token = crate::CancelToken::new();
        let s = BudgetScope::unlimited(Algorithm::HowardExact).with_cancel(Some(token.clone()));
        s.check_time().expect("not cancelled yet");
        token.cancel();
        assert_eq!(s.check_time().expect_err("cancelled"), SolveError::Cancelled);
        // Cancellation dominates: it is reported even with a live deadline.
        let b = Budget::default().wall_time(Duration::from_secs(3600));
        let s = BudgetScope::new(&b, b.deadline().map(Deadline::budget), Algorithm::Karp)
            .with_cancel(Some(token));
        assert_eq!(s.check_time().expect_err("cancelled"), SolveError::Cancelled);
    }

    #[test]
    fn adaptive_polling_still_detects_an_expired_deadline() {
        // Warm the stride up with fast calls, then expire the deadline:
        // the stride bounds the number of stale Oks to one stride window.
        let deadline = Deadline::budget(Instant::now() + Duration::from_millis(20));
        let s = BudgetScope::new(&Budget::UNLIMITED, Some(deadline), Algorithm::Megiddo);
        let start = Instant::now();
        loop {
            if s.check_time().is_err() {
                break;
            }
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "deadline never detected"
            );
        }
        // Well within one adaptation interval of the 20ms deadline.
        assert!(start.elapsed() < Duration::from_millis(200));
    }

    #[test]
    fn poll_stride_widens_under_fast_calls() {
        let deadline = Deadline::budget(Instant::now() + Duration::from_secs(3600));
        let s = BudgetScope::new(&Budget::UNLIMITED, Some(deadline), Algorithm::Karp);
        for _ in 0..10_000 {
            s.check_time().expect("deadline far away");
        }
        assert!(
            s.poll_stride.get() > 1,
            "10k immediate checks must widen the stride beyond 1"
        );
        assert!(s.poll_stride.get() <= MAX_POLL_STRIDE);
    }

    #[test]
    fn budget_deadline_round_trips() {
        assert!(Budget::UNLIMITED.deadline().is_none());
        let b = Budget::default().wall_time(Duration::from_secs(3600));
        let d = b.deadline().expect("wall_time set");
        assert!(d > Instant::now());
    }
}
