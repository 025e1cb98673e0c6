//! Critical subgraph extraction.
//!
//! After λ* is known, the *critical subgraph* of `G_{λ*}` — the arcs
//! satisfying `d(v) − d(u) = w(u,v) − λ*·t(u,v)` for shortest-path
//! potentials `d` — "contains all the arcs and nodes that determine the
//! performance of the system modeled by G" (§2). All minimum mean
//! (ratio) cycles live inside it, so it also serves as the universal
//! witness-cycle extractor for algorithms whose internal state does not
//! directly yield a cycle (Karp, Karp2, DG).

use crate::bellman::{bellman_ford, cycle_check_ws, scaled_costs, CycleCheck};
use crate::budget::BudgetScope;
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::rational::Ratio64;
use crate::workspace::Workspace;
use mcr_graph::idx32;
use mcr_graph::{ArcId, Graph, NodeId};

/// The critical subgraph of `G_{λ}`.
#[derive(Clone, Debug)]
pub struct CriticalSubgraph {
    /// Critical (tight) arcs.
    pub arcs: Vec<ArcId>,
    /// Per-node flag: adjacent to at least one critical arc.
    pub node_is_critical: Vec<bool>,
}

impl CriticalSubgraph {
    /// The critical nodes.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.node_is_critical
            .iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }
}

/// Computes the critical subgraph of `G_λ`.
///
/// # Errors
///
/// Returns `Err` if `lambda` exceeds the optimum (then `G_λ` has a
/// negative cycle and no shortest-path potentials exist), or with the
/// fault's message when a chaos fault fails the Bellman–Ford pass.
///
/// ```
/// use mcr_core::{critical::critical_subgraph, Ratio64};
/// use mcr_graph::graph::from_arc_list;
/// // Two 2-cycles: means 2 and 5. At λ* = 2 only the first is critical.
/// let g = from_arc_list(3, &[(0, 1, 1), (1, 0, 3), (1, 2, 5), (2, 1, 5)]);
/// let cs = critical_subgraph(&g, Ratio64::from(2)).unwrap();
/// assert_eq!(cs.arcs.len(), 2);
/// assert_eq!(cs.nodes().len(), 2);
/// ```
pub fn critical_subgraph(g: &Graph, lambda: Ratio64) -> Result<CriticalSubgraph, String> {
    let cost = scaled_costs(g, lambda);
    let mut counters = Counters::new();
    let dist = match bellman_ford(g, &cost, true, &mut counters).map_err(|e| e.to_string())? {
        CycleCheck::Feasible(d) => d,
        CycleCheck::NegativeCycle(_) => {
            return Err(format!("lambda {lambda} exceeds the optimum"));
        }
    };
    let mut arcs = Vec::new();
    let mut node_is_critical = vec![false; g.num_nodes()];
    for a in g.arc_ids() {
        let u = g.source(a).index();
        let v = g.target(a).index();
        if dist[u] + cost[a.index()] == dist[v] {
            arcs.push(a);
            node_is_critical[u] = true;
            node_is_critical[v] = true;
        }
    }
    Ok(CriticalSubgraph {
        arcs,
        node_is_critical,
    })
}

/// Extracts one minimum mean (ratio) cycle, given the exact optimum
/// `lambda`: finds a cycle inside the critical subgraph by iterative
/// DFS over tight arcs.
///
/// # Errors
///
/// Returns [`SolveError::NumericRange`] if `lambda` is not the exact
/// optimum of `g` (either `G_λ` has a negative cycle, or the critical
/// subgraph is acyclic). Intended for internal use by exact solvers.
pub fn critical_cycle(g: &Graph, lambda: Ratio64) -> Result<Vec<ArcId>, SolveError> {
    let scope = BudgetScope::unlimited(crate::algorithms::Algorithm::HowardExact);
    critical_cycle_ws(g, lambda, &mut Workspace::new(), &scope)
}

/// [`critical_cycle`] over reusable workspace buffers: the Bellman–Ford
/// potentials, the tight-arc adjacency (flat CSR), and the DFS stacks
/// all live in `ws`, so witness extraction allocates only the returned
/// cycle. The wall-clock deadline of `scope` applies to the embedded
/// Bellman–Ford pass.
pub(crate) fn critical_cycle_ws(
    g: &Graph,
    lambda: Ratio64,
    ws: &mut Workspace,
    scope: &BudgetScope,
) -> Result<Vec<ArcId>, SolveError> {
    // Witness extraction is not part of the solver's instrumented work
    // (matching the allocating version, which used a private counter).
    let mut counters = Counters::new();
    if cycle_check_ws(g, lambda, true, &mut counters, ws, scope)? {
        // A λ above the optimum means the calling solver converged to a
        // wrong value (typically numeric trouble); let the fallback
        // chain try a different method rather than aborting.
        return Err(SolveError::NumericRange {
            context: "critical cycle extraction: lambda exceeds the optimum",
        });
    }
    let n = g.num_nodes();
    let Workspace {
        rev, bf, dfs, marks, ..
    } = ws;
    // Tight-arc CSR keyed by source node. Counting sort emits arcs in
    // ascending id order per source — the push order of the
    // `Vec<Vec<ArcId>>` it replaces, so the DFS visits arcs identically.
    rev.build(n, |emit| {
        for a in g.arc_ids() {
            let u = g.source(a).index();
            let v = g.target(a).index();
            if bf.dist[u] + bf.cost[a.index()] == bf.dist[v] {
                emit(idx32(u), idx32(a.index()));
            }
        }
    });
    // Iterative three-color DFS looking for a back arc; white = neither
    // stamp of the current epoch pair.
    let (gray, black) = marks.next_pair(n);
    if dfs.pos.len() < n {
        dfs.pos.resize(n, 0);
    }
    dfs.arc_stack.clear();
    for root in 0..n {
        if marks.mark[root] == gray || marks.mark[root] == black {
            continue;
        }
        // (node, next out-arc index)
        dfs.stack.clear();
        dfs.stack.push((idx32(root), 0));
        marks.mark[root] = gray;
        dfs.pos[root] = 0;
        while let Some(&mut (v, ref mut idx)) = dfs.stack.last_mut() {
            let v = v as usize;
            let out = rev.list(v);
            if (*idx as usize) < out.len() {
                let a = ArcId::new(out[*idx as usize] as usize);
                *idx += 1;
                let w = g.target(a).index();
                if marks.mark[w] == gray {
                    // Found a cycle: arcs from w's position on the path
                    // through a.
                    let mut cycle: Vec<ArcId> = dfs.arc_stack[dfs.pos[w] as usize..]
                        .iter()
                        .map(|&x| ArcId::new(x as usize))
                        .collect();
                    cycle.push(a);
                    debug_assert!(
                        crate::solution::check_cycle(g, &cycle).is_ok(),
                        "critical cycle malformed"
                    );
                    return Ok(cycle);
                } else if marks.mark[w] != black {
                    marks.mark[w] = gray;
                    dfs.pos[w] = idx32(dfs.arc_stack.len()) + 1;
                    dfs.arc_stack.push(idx32(a.index()));
                    dfs.stack.push((idx32(w), 0));
                }
            } else {
                marks.mark[v] = black;
                dfs.stack.pop();
                dfs.arc_stack.pop();
            }
        }
    }
    // Feasible but no tight cycle: λ lies strictly below the optimum.
    Err(SolveError::NumericRange {
        context: "critical cycle extraction: critical subgraph is acyclic",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::check_cycle;
    use mcr_graph::graph::from_arc_list;

    #[test]
    fn critical_cycle_of_single_ring() {
        let g = from_arc_list(3, &[(0, 1, 1), (1, 2, 2), (2, 0, 3)]);
        let cyc = critical_cycle(&g, Ratio64::from(2)).expect("optimal lambda");
        let (w, len, _) = check_cycle(&g, &cyc).expect("valid");
        assert_eq!(Ratio64::new(w, len as i64), Ratio64::from(2));
        assert_eq!(len, 3);
    }

    #[test]
    fn critical_cycle_picks_minimum() {
        // Self-loop of weight 1 beats the 2-cycle of mean 5.
        let g = from_arc_list(2, &[(0, 1, 5), (1, 0, 5), (0, 0, 1)]);
        let cyc = critical_cycle(&g, Ratio64::from(1)).expect("optimal lambda");
        assert_eq!(cyc.len(), 1);
        assert_eq!(g.weight(cyc[0]), 1);
    }

    #[test]
    fn subgraph_excludes_non_tight() {
        let g = from_arc_list(3, &[(0, 1, 1), (1, 0, 1), (1, 2, 100), (2, 1, 100)]);
        let cs = critical_subgraph(&g, Ratio64::from(1)).expect("optimal lambda");
        assert_eq!(cs.arcs.len(), 2);
        assert!(cs.node_is_critical[0]);
        assert!(cs.node_is_critical[1]);
        assert!(!cs.node_is_critical[2]);
    }

    #[test]
    fn above_optimum_is_error() {
        let g = from_arc_list(2, &[(0, 1, 4), (1, 0, 4)]);
        assert!(critical_subgraph(&g, Ratio64::from(5)).is_err());
        assert!(critical_subgraph(&g, Ratio64::from(4)).is_ok());
    }

    #[test]
    fn non_optimal_lambda_is_an_error_not_a_panic() {
        let g = from_arc_list(2, &[(0, 1, 4), (1, 0, 4)]);
        // λ = 3 < λ* = 4: feasible but nothing is tight on a cycle.
        let err = critical_cycle(&g, Ratio64::from(3)).expect_err("below optimum");
        assert!(matches!(err, SolveError::NumericRange { .. }), "{err}");
        // λ = 5 > λ* = 4: negative cycle in G_λ.
        let err = critical_cycle(&g, Ratio64::from(5)).expect_err("above optimum");
        assert!(matches!(err, SolveError::NumericRange { .. }), "{err}");
    }

    #[test]
    fn fractional_lambda_with_transits() {
        let mut b = mcr_graph::GraphBuilder::new();
        let v = b.add_nodes(2);
        b.add_arc_with_transit(v[0], v[1], 4, 1);
        b.add_arc_with_transit(v[1], v[0], 6, 3);
        let g = b.build();
        let cyc = critical_cycle(&g, Ratio64::new(5, 2)).expect("optimal lambda");
        let (w, _, t) = check_cycle(&g, &cyc).expect("valid");
        assert_eq!(Ratio64::new(w, t), Ratio64::new(5, 2));
    }
}
