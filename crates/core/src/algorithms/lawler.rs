//! Lawler's algorithm: binary search over λ with a negative-cycle
//! oracle.
//!
//! λ* lies between the minimum and maximum arc weight. Lawler bisects
//! that interval, testing each midpoint with Bellman–Ford on `G_λ`: a
//! negative cycle means λ is too large, its absence means λ is too
//! small. The paper's version stops when the interval is shorter than a
//! user precision ε ([`solve_scc_eps`]); the study found it to be the
//! slowest algorithm overall. [`solve_scc_exact`] sharpens it into an
//! exact method: once the interval is shorter than `1/(n(n−1))` it
//! contains exactly one rational with denominator ≤ n — the optimum —
//! recovered by a Stern–Brocot descent.

use crate::bellman::{cycle_at_or_below_ws, has_cycle_below_ws};
use crate::budget::BudgetScope;
use crate::checkpoint::JobProgress;
use crate::driver::SccOutcome;
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::rational::Ratio64;
use crate::solution::Guarantee;
use crate::workspace::Workspace;
use mcr_graph::{ArcId, GraphRef};

/// Restores a saved bisection interval if it is consistent with this
/// component's weight bounds; an inconsistent checkpoint (wrong graph,
/// corrupted file) is ignored and the solve starts fresh.
fn restore_interval(
    resume: Option<&JobProgress>,
    wlo: Ratio64,
    whi: Ratio64,
) -> Option<(Ratio64, Ratio64)> {
    match resume {
        Some(JobProgress::Interval { lo, hi }) if *lo <= *hi && wlo <= *lo && *hi <= whi => {
            Some((*lo, *hi))
        }
        _ => None,
    }
}

/// Weight bounds as rationals; equal bounds mean every arc has the same
/// weight.
fn weight_bounds(g: GraphRef<'_>) -> (Ratio64, Ratio64) {
    (
        Ratio64::from(g.min_weight().expect("component has arcs")),
        Ratio64::from(g.max_weight().expect("component has arcs")),
    )
}

fn witness_at(
    g: GraphRef<'_>,
    lambda: Ratio64,
    counters: &mut Counters,
    ws: &mut Workspace,
    scope: &BudgetScope,
) -> Result<(Ratio64, Vec<ArcId>), SolveError> {
    if !cycle_at_or_below_ws(g, lambda, counters, ws, scope)? {
        // The invariant λ* ≤ hi guarantees a witness; its absence means
        // the bisection state degenerated.
        return Err(SolveError::NumericRange {
            context: "Lawler witness extraction found no cycle at the upper bound",
        });
    }
    let cycle = ws.bf.cycle.clone();
    let w: i128 = cycle.iter().map(|&a| g.weight(a) as i128).sum();
    let mean =
        Ratio64::try_from_i128(w, cycle.len() as i128).ok_or(SolveError::Overflow {
            context: "Lawler witness cycle mean",
        })?;
    Ok((mean, cycle))
}

/// Lawler with the paper's ε-termination. Every bisection step charges
/// both an iteration and a λ-refinement.
pub(crate) fn solve_scc_eps(
    g: GraphRef<'_>,
    counters: &mut Counters,
    epsilon: f64,
    ws: &mut Workspace,
    scope: &mut BudgetScope,
) -> Result<SccOutcome, SolveError> {
    solve_scc_eps_ckpt(g, counters, epsilon, ws, scope, None, &mut None)
}

/// [`solve_scc_eps`] with checkpoint/resume: a valid
/// [`JobProgress::Interval`] restores the bisection bounds, and an
/// interrupted bisection saves its current bounds into `saved` before
/// returning the error. Resuming continues the identical midpoint
/// sequence, so an interrupted-then-resumed solve is bit-identical to
/// an uninterrupted one.
pub(crate) fn solve_scc_eps_ckpt(
    g: GraphRef<'_>,
    counters: &mut Counters,
    epsilon: f64,
    ws: &mut Workspace,
    scope: &mut BudgetScope,
    resume: Option<&JobProgress>,
    saved: &mut Option<JobProgress>,
) -> Result<SccOutcome, SolveError> {
    debug_assert!(epsilon > 0.0, "epsilon validated by the driver");
    let (wlo, whi) = weight_bounds(g);
    let (mut lo, mut hi) = restore_interval(resume, wlo, whi).unwrap_or((wlo, whi));
    // Invariants: λ* ≥ lo, λ* ≤ hi.
    scope.loop_metrics("core.lawler.bisect");
    while (hi - lo).to_f64() > epsilon && hi.denom() < i64::MAX / 4 {
        counters.iterations += 1;
        if let Err(e) = scope
            .tick_iteration_and_time()
            .and_then(|()| scope.tick_refinement())
            .and_then(|()| scope.chaos_check("core.lawler.bisect"))
        {
            *saved = Some(JobProgress::Interval { lo, hi });
            return Err(e);
        }
        let mid = lo.midpoint(hi);
        if has_cycle_below_ws(g, mid, counters, ws, scope)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let (mean, cycle) = witness_at(g, hi, counters, ws, scope)?;
    Ok(SccOutcome {
        lambda: mean,
        cycle,
        guarantee: Guarantee::Epsilon(epsilon),
        solved_by: crate::Algorithm::Lawler,
    })
}

/// Lawler sharpened to an exact algorithm by snapping the final interval
/// to the unique cycle mean inside it. Every bisection step charges
/// both an iteration and a λ-refinement.
pub(crate) fn solve_scc_exact(
    g: GraphRef<'_>,
    counters: &mut Counters,
    ws: &mut Workspace,
    scope: &mut BudgetScope,
) -> Result<SccOutcome, SolveError> {
    solve_scc_exact_ckpt(g, counters, ws, scope, None, &mut None)
}

/// [`solve_scc_exact`] with checkpoint/resume; see
/// [`solve_scc_eps_ckpt`] for the interval save/restore contract.
pub(crate) fn solve_scc_exact_ckpt(
    g: GraphRef<'_>,
    counters: &mut Counters,
    ws: &mut Workspace,
    scope: &mut BudgetScope,
    resume: Option<&JobProgress>,
    saved: &mut Option<JobProgress>,
) -> Result<SccOutcome, SolveError> {
    let n = g.num_nodes() as i64;
    let (wlo, whi) = weight_bounds(g);
    let (mut lo, mut hi) = restore_interval(resume, wlo, whi).unwrap_or((wlo, whi));
    // Cycle means have denominator ≤ n; an open interval shorter than
    // 1/(n(n−1)) contains at most one of them.
    let target = Ratio64::new(1, (n * (n - 1)).max(1) + 1);
    scope.loop_metrics("core.lawler.exact.bisect");
    while hi - lo >= target {
        counters.iterations += 1;
        if let Err(e) = scope
            .tick_iteration_and_time()
            .and_then(|()| scope.tick_refinement())
            .and_then(|()| scope.chaos_check("core.lawler.exact.bisect"))
        {
            *saved = Some(JobProgress::Interval { lo, hi });
            return Err(e);
        }
        if hi.denom() >= i64::MAX / 8 {
            return Err(SolveError::NumericRange {
                context: "Lawler bisection denominators exhausted i64 range",
            });
        }
        let mid = lo.midpoint(hi);
        if has_cycle_below_ws(g, mid, counters, ws, scope)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let lambda = Ratio64::simplest_in(lo, hi);
    let (mean, cycle) = witness_at(g, lambda, counters, ws, scope)?;
    // The bisection tests w − λ·t, so on non-unit transits it closes in
    // on the minimum ratio, not the mean: the snapped λ is then not the
    // witness's mean, and the witness's mean is what is returned.
    debug_assert!(mean == lambda || !g.has_unit_transits(), "{mean} != {lambda}");
    Ok(SccOutcome {
        lambda: mean,
        cycle,
        guarantee: Guarantee::Exact,
        solved_by: crate::Algorithm::LawlerExact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_graph::graph::from_arc_list;
    use mcr_graph::Graph;

    fn exact_outcome(g: &Graph, c: &mut Counters) -> SccOutcome {
        let mut scope = BudgetScope::unlimited(crate::Algorithm::LawlerExact);
        solve_scc_exact(g.view(), c, &mut Workspace::new(), &mut scope).expect("unlimited")
    }

    fn eps_outcome(g: &Graph, c: &mut Counters, epsilon: f64) -> SccOutcome {
        let mut scope = BudgetScope::unlimited(crate::Algorithm::Lawler);
        solve_scc_eps(g.view(), c, epsilon, &mut Workspace::new(), &mut scope).expect("unlimited")
    }

    fn exact(g: &Graph) -> Ratio64 {
        let mut c = Counters::new();
        exact_outcome(g, &mut c).lambda
    }

    #[test]
    fn single_ring_fraction() {
        let g = from_arc_list(3, &[(0, 1, 1), (1, 2, 2), (2, 0, 4)]);
        assert_eq!(exact(&g), Ratio64::new(7, 3));
    }

    #[test]
    fn uniform_weights_trivial_interval() {
        let g = from_arc_list(2, &[(0, 1, 6), (1, 0, 6)]);
        assert_eq!(exact(&g), Ratio64::from(6));
        let mut c = Counters::new();
        let s = eps_outcome(&g, &mut c, 1e-3);
        assert_eq!(s.lambda, Ratio64::from(6));
    }

    #[test]
    fn exact_matches_brute_force() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        for seed in 0..40 {
            let g = sprand(&SprandConfig::new(10, 26).seed(seed).weight_range(-40, 40));
            let (expected, _) = crate::reference::brute_force_min_mean(&g).expect("cyclic");
            assert_eq!(exact(&g), expected, "seed {seed}");
        }
    }

    #[test]
    fn eps_mode_is_within_epsilon() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        for seed in 0..20 {
            let g = sprand(&SprandConfig::new(12, 36).seed(seed).weight_range(1, 100));
            let (expected, _) = crate::reference::brute_force_min_mean(&g).expect("cyclic");
            let mut c = Counters::new();
            let s = eps_outcome(&g, &mut c, 1e-4);
            // Witness mean is never below the optimum and at most ε above.
            assert!(s.lambda >= expected, "seed {seed}");
            assert!(
                (s.lambda.to_f64() - expected.to_f64()) <= 1e-4 + 1e-12,
                "seed {seed}: {} vs {}",
                s.lambda,
                expected
            );
        }
    }

    #[test]
    fn counts_oracle_calls() {
        let g = from_arc_list(2, &[(0, 1, 1), (1, 0, 100)]);
        let mut c = Counters::new();
        exact_outcome(&g, &mut c);
        // log2(99 · n(n-1)) ≈ 8 bisections plus the witness extraction.
        assert!(c.oracle_calls >= 8, "oracle calls {}", c.oracle_calls);
        assert!(c.oracle_calls <= 40);
    }

    #[test]
    fn refinement_budget_of_one_exhausts() {
        let g = from_arc_list(2, &[(0, 1, 1), (1, 0, 100)]);
        let budget = crate::Budget::default().max_lambda_refinements(1);
        let mut scope = BudgetScope::new(&budget, None, crate::Algorithm::LawlerExact);
        let mut c = Counters::new();
        let err = solve_scc_exact(g.view(), &mut c, &mut Workspace::new(), &mut scope)
            .expect_err("needs many bisections");
        assert!(matches!(err, SolveError::BudgetExhausted { .. }), "{err}");
    }

    #[test]
    fn negative_weights() {
        let g = from_arc_list(3, &[(0, 1, -7), (1, 2, -3), (2, 0, -8), (0, 2, 5), (2, 0, 1)]);
        let (expected, _) = crate::reference::brute_force_min_mean(&g).expect("cyclic");
        assert_eq!(exact(&g), expected);
    }
}
