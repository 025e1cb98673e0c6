//! OA1: an Orlin–Ahuja-style scaling algorithm.
//!
//! The original OA1 combines an *approximate binary search* on λ with an
//! ε-scaled auction/assignment oracle; it assumes integer weights
//! bounded by `W` and is asymptotically the fastest known algorithm when
//! `W` is polynomial in `n` — yet the study found it "not as fast as
//! their running time implies … in general slower than Karp's
//! algorithm" (§4.5).
//!
//! The DAC text does not specify the auction machinery, so this
//! reproduction keeps the documented framework — approximate binary
//! search whose oracle works on *ε-scaled (rounded) costs* — with the
//! oracle realized as Bellman–Ford on the rounded integer costs
//! `ĉ(e) = ⌊(w(e) − λ)/ε⌋`:
//!
//! * a negative rounded cycle implies a real cycle of mean at most
//!   `λ + (n−1)·ε`, so the upper bound moves to `λ + δ/8` (with
//!   `ε = δ/(8n)` for interval width `δ`);
//! * no negative rounded cycle implies every real cycle mean is at
//!   least `λ`, so the lower bound moves to `λ`.
//!
//! Each phase shrinks the interval to at most 5/8 of its width. The
//! substitution (documented in DESIGN.md) preserves what the study
//! measures: a scaling method with an attractive bound that is slow in
//! practice.

use crate::bellman::{check_staged_costs_ws, cycle_at_or_below_ws};
use crate::budget::BudgetScope;
use crate::driver::SccOutcome;
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::rational::Ratio64;
use crate::solution::Guarantee;
use crate::workspace::Workspace;
use mcr_graph::{ArcId, GraphRef};

/// Rounded costs `⌊(w(e)·q − p) / (pe/qe · q)⌋` for λ = p/q and phase
/// precision ε = pe/qe, computed exactly in i128 into a reused buffer.
fn rounded_costs_into(g: GraphRef<'_>, lambda: Ratio64, eps: Ratio64, out: &mut Vec<i128>) {
    let p = lambda.numer() as i128;
    let q = lambda.denom() as i128;
    let pe = eps.numer() as i128;
    let qe = eps.denom() as i128;
    debug_assert!(pe > 0);
    // (w − p/q) / (pe/qe) = (w·q − p)·qe / (q·pe)
    let den = q * pe;
    out.clear();
    out.extend(
        g.arc_ids()
            .map(|a| ((g.weight(a) as i128 * q - p) * qe).div_euclid(den)),
    );
}

/// OA1 on one strongly connected, cyclic component. Every scaling
/// phase charges both an iteration and a λ-refinement.
pub(crate) fn solve_scc(
    g: GraphRef<'_>,
    counters: &mut Counters,
    epsilon: f64,
    ws: &mut Workspace,
    scope: &mut BudgetScope,
) -> Result<SccOutcome, SolveError> {
    debug_assert!(epsilon > 0.0, "epsilon validated by the driver");
    let n = g.num_nodes() as i64;
    let mut lo = Ratio64::from(g.min_weight().expect("component has arcs"));
    let mut hi = Ratio64::from(g.max_weight().expect("component has arcs"));
    let mut best: Option<(Ratio64, Vec<ArcId>)> = None;

    scope.loop_metrics("core.oa1.refine");
    while (hi - lo).to_f64() > epsilon {
        // Denominators grow by a factor ~16n per phase; stop scaling
        // once they threaten i64 and fall back to the witness bound.
        if hi.denom() > i64::MAX / (64 * n.max(1)) || lo.denom() > i64::MAX / (64 * n.max(1)) {
            break;
        }
        counters.iterations += 1;
        scope.tick_iteration_and_time()?;
        scope.tick_refinement()?;
        scope.chaos_check("core.oa1.refine")?;
        let delta = hi - lo;
        let mid = lo.midpoint(hi);
        let eps_phase = delta / Ratio64::from(8 * n.max(1));
        rounded_costs_into(g, mid, eps_phase, &mut ws.bf.cost);
        if check_staged_costs_ws(g, true, counters, ws, scope)? {
            // Real mean of this cycle is < mid + (n−1)·ε ≤ mid + δ/8.
            let cycle = &ws.bf.cycle;
            let w: i128 = cycle.iter().map(|&a| g.weight(a) as i128).sum();
            let mean = Ratio64::try_from_i128(w, cycle.len() as i128).ok_or(
                SolveError::Overflow {
                    context: "OA1 witness cycle mean",
                },
            )?;
            if best.as_ref().is_none_or(|(b, _)| mean < *b) {
                best = Some((mean, cycle.clone()));
            }
            let new_hi = mid + eps_phase * Ratio64::from(n.max(1));
            hi = if new_hi < hi { new_hi } else { hi };
            // The witness itself may sharpen the bound further.
            if mean < hi {
                hi = mean;
            }
        } else {
            lo = mid;
        }
    }

    let (lambda, cycle) = match best {
        Some((mean, cycle)) if mean <= hi => (mean, cycle),
        _ => {
            // No rounded phase produced a witness (λ* close to the max
            // weight): extract one exactly at the upper bound.
            if !cycle_at_or_below_ws(g, hi, counters, ws, scope)? {
                return Err(SolveError::NumericRange {
                    context: "OA1 witness extraction found no cycle at the upper bound",
                });
            }
            let cycle = ws.bf.cycle.clone();
            let w: i128 = cycle.iter().map(|&a| g.weight(a) as i128).sum();
            let mean = Ratio64::try_from_i128(w, cycle.len() as i128).ok_or(
                SolveError::Overflow {
                    context: "OA1 witness cycle mean",
                },
            )?;
            (mean, cycle)
        }
    };
    Ok(SccOutcome {
        lambda,
        cycle,
        guarantee: Guarantee::Epsilon(epsilon * 2.0),
        solved_by: crate::Algorithm::Oa1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_graph::graph::from_arc_list;
    use mcr_graph::Graph;

    fn outcome(g: &Graph, c: &mut Counters, eps: f64) -> SccOutcome {
        let mut scope = BudgetScope::unlimited(crate::Algorithm::Oa1);
        solve_scc(g.view(), c, eps, &mut Workspace::new(), &mut scope).expect("unlimited")
    }

    fn solve(g: &Graph, eps: f64) -> Ratio64 {
        let mut c = Counters::new();
        outcome(g, &mut c, eps).lambda
    }

    #[test]
    fn single_ring() {
        let g = from_arc_list(3, &[(0, 1, 1), (1, 2, 2), (2, 0, 4)]);
        let lam = solve(&g, 1e-6);
        assert_eq!(lam, Ratio64::new(7, 3));
    }

    #[test]
    fn within_epsilon_of_brute_force() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        for seed in 0..25 {
            let g = sprand(&SprandConfig::new(10, 30).seed(seed).weight_range(1, 100));
            let (expected, _) = crate::reference::brute_force_min_mean(&g).expect("cyclic");
            let lam = solve(&g, 1e-3);
            assert!(lam >= expected, "seed {seed}");
            assert!(
                lam.to_f64() - expected.to_f64() <= 2e-3 + 1e-9,
                "seed {seed}: {lam} vs {expected}"
            );
        }
    }

    #[test]
    fn uniform_weights() {
        let g = from_arc_list(2, &[(0, 1, 9), (1, 0, 9)]);
        assert_eq!(solve(&g, 1e-6), Ratio64::from(9));
    }

    #[test]
    fn phase_count_is_logarithmic() {
        let g = from_arc_list(2, &[(0, 1, 1), (1, 0, 10_000)]);
        let mut c = Counters::new();
        outcome(&g, &mut c, 1e-3);
        // (5/8)^k · 9999 < 1e-3 ⇒ k ≈ 35.
        assert!(c.iterations <= 60, "phases {}", c.iterations);
    }

    #[test]
    fn refinement_budget_of_one_exhausts_or_finishes() {
        let g = from_arc_list(2, &[(0, 1, 1), (1, 0, 10_000)]);
        let budget = crate::Budget::default().max_lambda_refinements(1);
        let mut scope = BudgetScope::new(&budget, None, crate::Algorithm::Oa1);
        let mut c = Counters::new();
        let err = solve_scc(g.view(), &mut c, 1e-3, &mut Workspace::new(), &mut scope)
            .expect_err("wide interval needs many phases");
        assert!(matches!(err, SolveError::BudgetExhausted { .. }), "{err}");
    }

    #[test]
    fn negative_weights() {
        let g = from_arc_list(3, &[(0, 1, -10), (1, 2, -20), (2, 0, -30), (1, 0, 50)]);
        let lam = solve(&g, 1e-6);
        assert_eq!(lam, Ratio64::from(-20));
    }
}
