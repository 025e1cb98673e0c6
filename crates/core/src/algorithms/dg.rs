//! DG: the Dasdan–Gupta breadth-first improvement of Karp's algorithm.
//!
//! Karp's recurrence relaxes every arc at every level, even arcs whose
//! source has not been reached by any walk of the previous length. DG
//! works breadth-first instead: starting from the source it "visits the
//! successors of nodes rather than their predecessors", unfolding the
//! graph level by level and touching only arcs out of reached nodes.
//! Its running time equals the size of this unfolding — between `Θ(m)`
//! and `O(nm)` depending on structure. On dense random graphs the
//! unfolding fills up immediately and the saving is small (§4.4); on
//! sparse circuits it is large.

use super::karp::{check_magnitude, karp_formula, INF};
use crate::budget::BudgetScope;
use crate::driver::SccOutcome;
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::rational::Ratio64;
use crate::solution::Guarantee;
use mcr_graph::idx32;
use mcr_graph::{GraphRef, NodeId};

/// DG, λ only. Each unfolding level charges one budget iteration.
pub(crate) fn lambda_scc(
    g: GraphRef<'_>,
    counters: &mut Counters,
    scope: &mut BudgetScope,
) -> Result<Ratio64, SolveError> {
    check_magnitude(g)?;
    let n = g.num_nodes();
    let mut d = vec![INF; (n + 1) * n];
    d[0] = 0;
    let mut frontier: Vec<u32> = vec![0];
    // touched[v] == k means v already joined level k's frontier.
    let mut touched = vec![u32::MAX; n];
    touched[0] = 0;
    scope.loop_metrics("core.dg.level");
    for k in 1..=idx32(n) {
        scope.tick_iteration_and_time()?;
        scope.chaos_check("core.dg.level")?;
        let mut reached = 0usize;
        let (prev_rows, cur_rows) = d.split_at_mut(k as usize * n);
        let prev = &prev_rows[(k as usize - 1) * n..];
        let cur = &mut cur_rows[..n];
        for &u in &frontier {
            let du = prev[u as usize];
            debug_assert!(du < INF, "frontier node without a walk");
            for (_a, target, w, _t) in g.out_adj(NodeId::new(u as usize)) {
                counters.arcs_visited += 1;
                counters.relaxations += 1;
                let v = target.index();
                let cand = du + w;
                if cand < cur[v] {
                    cur[v] = cand;
                    counters.distance_updates += 1;
                    if touched[v] != k {
                        touched[v] = k;
                        reached += 1;
                    }
                }
            }
        }
        // Rebuild the frontier in ascending node order so the next
        // level's adjacency sweep walks memory monotonically.
        frontier.clear();
        frontier.reserve(reached);
        for v in 0..idx32(n) {
            if touched[v as usize] == k {
                frontier.push(v);
            }
        }
    }
    karp_formula(&d, n)
}

/// DG on one strongly connected, cyclic component.
pub(crate) fn solve_scc(
    g: GraphRef<'_>,
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
        solved_by: crate::Algorithm::Dg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::Ratio64;
    use mcr_graph::graph::from_arc_list;
    use mcr_graph::Graph;

    fn dg_solve(g: GraphRef<'_>, c: &mut Counters) -> SccOutcome {
        let mut scope = BudgetScope::unlimited(crate::Algorithm::Dg);
        solve_scc(g, c, &mut crate::workspace::Workspace::new(), &mut scope).expect("unlimited")
    }

    fn karp_solve(g: GraphRef<'_>, c: &mut Counters) -> SccOutcome {
        let mut scope = BudgetScope::unlimited(crate::Algorithm::Karp);
        super::super::karp::solve_scc(g, c, &mut crate::workspace::Workspace::new(), &mut scope)
            .expect("unlimited")
    }

    fn lambda_of(g: &Graph) -> Ratio64 {
        let mut c = Counters::new();
        dg_solve(g.view(), &mut c).lambda
    }

    #[test]
    fn matches_karp_on_random_graphs() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        for seed in 0..25 {
            let g = sprand(&SprandConfig::new(12, 30).seed(seed).weight_range(-15, 15));
            let mut c = Counters::new();
            let karp = karp_solve(g.view(), &mut c).lambda;
            assert_eq!(lambda_of(&g), karp, "seed {seed}");
        }
    }

    #[test]
    fn visits_no_more_arcs_than_karp() {
        use mcr_gen::circuit::{circuit_graph, CircuitConfig};
        use mcr_graph::ComponentArena;
        // Use the largest SCC of a circuit-like graph, where the
        // unfolding is narrow.
        let g = circuit_graph(&CircuitConfig::new(120).seed(2));
        let arena = ComponentArena::new(g.view());
        let sub = (0..arena.len())
            .map(|j| arena.view(j))
            .max_by_key(|sub| sub.num_nodes())
            .expect("circuit has cycles");
        let mut c_dg = Counters::new();
        let mut c_karp = Counters::new();
        let dg = dg_solve(sub, &mut c_dg);
        let karp = karp_solve(sub, &mut c_karp);
        assert_eq!(dg.lambda, karp.lambda);
        assert!(c_dg.arcs_visited <= c_karp.arcs_visited);
    }

    #[test]
    fn ring_unfolding_is_linear() {
        // On a pure ring the frontier is always a single node, so DG
        // visits exactly n arcs total (one per level).
        let g = from_arc_list(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1)]);
        let mut c = Counters::new();
        let s = dg_solve(g.view(), &mut c);
        assert_eq!(s.lambda, Ratio64::from(1));
        assert_eq!(c.arcs_visited, (g.num_nodes()) as u64);
    }

    #[test]
    fn parallel_arcs_and_self_loops() {
        let g = from_arc_list(2, &[(0, 1, 3), (0, 1, 1), (1, 0, 1), (1, 1, 7)]);
        assert_eq!(lambda_of(&g), Ratio64::from(1));
    }
}
