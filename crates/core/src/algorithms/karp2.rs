//! Karp2: the space-efficient two-pass version of Karp's algorithm.
//!
//! Karp's algorithm stores the full `Θ(n²)` table of `D_k(v)` values.
//! Karp2 (suggested to the original authors by S. Gaubert) reduces the
//! space to `Θ(n)` at the cost of roughly doubling the running time:
//! the first pass computes only `D_n(v)` with two rolling rows; the
//! second pass recomputes each `D_k(v)` row in order while folding it
//! into the running maximum of Karp's formula.

use super::karp::{check_magnitude, fold_row, karp_min, relax_level, INF};
use crate::budget::BudgetScope;
use crate::driver::SccOutcome;
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::rational::Ratio64;
use crate::solution::Guarantee;
use mcr_graph::Graph;

/// Karp2, λ only. Each row relaxation (both passes) charges one budget
/// iteration, so a full run costs `2n − 1` charges.
pub(crate) fn lambda_scc(
    g: &Graph,
    counters: &mut Counters,
    scope: &mut BudgetScope,
) -> Result<Ratio64, SolveError> {
    check_magnitude(g)?;
    let n = g.num_nodes();
    let mut prev = vec![INF; n];
    let mut cur = vec![INF; n];
    prev[0] = 0;

    // Pass 1: D_n only.
    scope.loop_metrics("core.karp2.level");
    for _k in 1..=n {
        scope.tick_iteration_and_time()?;
        scope.chaos_check("core.karp2.level")?;
        cur.fill(INF);
        relax_level(g, &prev, &mut cur, None, counters);
        std::mem::swap(&mut prev, &mut cur);
    }
    let dn = prev.clone();

    // Pass 2: recompute D_k for k = 0..n-1, folding the formula's inner
    // maximum as we go.
    let mut inner = vec![None; n];
    prev.fill(INF);
    prev[0] = 0;
    for k in 0..n {
        if k > 0 {
            scope.tick_iteration_and_time()?;
            scope.chaos_check("core.karp2.level")?;
            prev.fill(INF);
            relax_level(g, &cur, &mut prev, None, counters);
        }
        fold_row(&mut inner, &prev, &dn, (n - k) as i64);
        std::mem::swap(&mut prev, &mut cur);
        // After the swap, `cur` holds row k (input of the next round).
    }
    karp_min(&inner, &dn)
}

/// Karp2 on one strongly connected, cyclic component.
pub(crate) fn solve_scc(
    g: &Graph,
    counters: &mut Counters,
    ws: &mut crate::workspace::Workspace,
    scope: &mut BudgetScope,
) -> Result<SccOutcome, SolveError> {
    let lambda = lambda_scc(g, counters, scope)?;
    let cycle = crate::critical::critical_cycle_ws(g, lambda, ws, scope)?;
    Ok(SccOutcome {
        lambda,
        cycle,
        guarantee: Guarantee::Exact,
        solved_by: crate::Algorithm::Karp2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_graph::graph::from_arc_list;

    fn karp2_solve(g: &Graph, c: &mut Counters) -> SccOutcome {
        let mut scope = BudgetScope::unlimited(crate::Algorithm::Karp2);
        solve_scc(g, c, &mut crate::workspace::Workspace::new(), &mut scope).expect("unlimited")
    }

    fn karp_solve(g: &Graph, c: &mut Counters) -> SccOutcome {
        let mut scope = BudgetScope::unlimited(crate::Algorithm::Karp);
        super::super::karp::solve_scc(g, c, &mut crate::workspace::Workspace::new(), &mut scope)
            .expect("unlimited")
    }

    fn lambda_of(g: &Graph) -> Ratio64 {
        let mut c = Counters::new();
        karp2_solve(g, &mut c).lambda
    }

    #[test]
    fn matches_karp_on_small_graphs() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        for seed in 0..25 {
            let g = sprand(&SprandConfig::new(10, 26).seed(seed).weight_range(-20, 20));
            let mut c1 = Counters::new();
            let karp = karp_solve(&g, &mut c1).lambda;
            assert_eq!(lambda_of(&g), karp, "seed {seed}");
        }
    }

    #[test]
    fn single_ring_fraction() {
        let g = from_arc_list(3, &[(0, 1, 1), (1, 2, 1), (2, 0, 2)]);
        assert_eq!(lambda_of(&g), Ratio64::new(4, 3));
    }

    #[test]
    fn does_double_the_arc_visits_of_karp() {
        let g = from_arc_list(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4), (1, 0, 9)]);
        let mut c_karp = Counters::new();
        karp_solve(&g, &mut c_karp);
        let mut c_karp2 = Counters::new();
        karp2_solve(&g, &mut c_karp2);
        // Pass 1 visits n·m arcs, pass 2 visits (n-1)·m more.
        assert!(c_karp2.arcs_visited > c_karp.arcs_visited);
        assert!(c_karp2.arcs_visited <= 2 * c_karp.arcs_visited);
    }

    #[test]
    fn self_loop() {
        let g = from_arc_list(1, &[(0, 0, 5)]);
        assert_eq!(lambda_of(&g), Ratio64::from(5));
    }
}
