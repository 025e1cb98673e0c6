//! Brute-force reference solver: enumerate every simple cycle.
//!
//! Johnson's simple-cycle enumeration, usable only on small graphs, is
//! the independent ground truth the whole algorithm suite is
//! differential-tested against. It shares no code with any of the ten
//! study algorithms.

use crate::rational::Ratio64;
use mcr_graph::{ArcId, GraphRef};

/// Enumerates all simple cycles of `g` (as arc sequences), invoking
/// `visit` on each.
///
/// Self-loops and cycles through parallel arcs are all enumerated
/// separately. Exponential in general — intended for graphs with at
/// most a few dozen nodes (tests only).
pub fn for_each_simple_cycle<'g>(g: impl Into<GraphRef<'g>>, mut visit: impl FnMut(&[ArcId])) {
    let g = g.into();
    let n = g.num_nodes();
    // Johnson-style: for each root r, enumerate cycles whose smallest
    // node is r, restricted to nodes >= r.
    let mut blocked = vec![false; n];
    let mut path: Vec<ArcId> = Vec::new();

    fn dfs(
        g: GraphRef<'_>,
        root: usize,
        v: usize,
        blocked: &mut Vec<bool>,
        path: &mut Vec<ArcId>,
        visit: &mut impl FnMut(&[ArcId]),
    ) {
        blocked[v] = true;
        for &a in g.out_arcs(mcr_graph::NodeId::new(v)) {
            let w = g.target(a).index();
            if w < root {
                continue;
            }
            if w == root {
                path.push(a);
                visit(path);
                path.pop();
            } else if !blocked[w] {
                path.push(a);
                dfs(g, root, w, blocked, path, visit);
                path.pop();
            }
        }
        blocked[v] = false;
    }

    for root in 0..n {
        dfs(g, root, root, &mut blocked, &mut path, &mut visit);
    }
}

/// The exact minimum cycle mean of `g` with a witness cycle, by
/// exhaustive enumeration, or `None` if `g` is acyclic.
pub fn brute_force_min_mean<'g>(g: impl Into<GraphRef<'g>>) -> Option<(Ratio64, Vec<ArcId>)> {
    let g = g.into();
    let mut best: Option<(Ratio64, Vec<ArcId>)> = None;
    for_each_simple_cycle(g, |cycle| {
        let w: i64 = cycle.iter().map(|&a| g.weight(a)).sum();
        let mean = Ratio64::new(w, cycle.len() as i64);
        if best.as_ref().is_none_or(|(b, _)| mean < *b) {
            best = Some((mean, cycle.to_vec()));
        }
    });
    best
}

/// The exact minimum cost-to-time ratio of `g` with a witness cycle, by
/// exhaustive enumeration. Cycles with zero total transit time are
/// skipped (their ratio is undefined). Returns `None` if `g` has no
/// cycle with positive transit time.
pub fn brute_force_min_ratio<'g>(g: impl Into<GraphRef<'g>>) -> Option<(Ratio64, Vec<ArcId>)> {
    let g = g.into();
    let mut best: Option<(Ratio64, Vec<ArcId>)> = None;
    for_each_simple_cycle(g, |cycle| {
        let w: i64 = cycle.iter().map(|&a| g.weight(a)).sum();
        let t: i64 = cycle.iter().map(|&a| g.transit(a)).sum();
        if t == 0 {
            return;
        }
        let ratio = Ratio64::new(w, t);
        if best.as_ref().is_none_or(|(b, _)| ratio < *b) {
            best = Some((ratio, cycle.to_vec()));
        }
    });
    best
}

/// Number of simple cycles of `g` (the `α` in the paper's Howard
/// bound `O(nmα)`).
pub fn count_simple_cycles<'g>(g: impl Into<GraphRef<'g>>) -> u64 {
    let mut count = 0;
    for_each_simple_cycle(g, |_| count += 1);
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::check_cycle;
    use mcr_graph::graph::from_arc_list;

    #[test]
    fn ring_has_one_cycle() {
        let g = from_arc_list(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)]);
        assert_eq!(count_simple_cycles(&g), 1);
        let (mean, cyc) = brute_force_min_mean(&g).expect("cyclic");
        assert_eq!(mean, Ratio64::new(10, 4));
        assert!(check_cycle(&g, &cyc).is_ok());
    }

    #[test]
    fn complete_graph_cycle_count() {
        // K3 directed: cycles = 3 two-cycles + 2 three-cycles = 5.
        let g = from_arc_list(3, &[(0, 1, 1), (1, 0, 1), (0, 2, 1), (2, 0, 1), (1, 2, 1), (2, 1, 1)]);
        assert_eq!(count_simple_cycles(&g), 5);
    }

    #[test]
    fn self_loops_and_parallel_arcs_counted() {
        let g = from_arc_list(2, &[(0, 0, 1), (0, 1, 2), (0, 1, 3), (1, 0, 4)]);
        // Self-loop + two distinct 2-cycles through the parallel arcs.
        assert_eq!(count_simple_cycles(&g), 3);
        let (mean, _) = brute_force_min_mean(&g).expect("cyclic");
        assert_eq!(mean, Ratio64::from(1));
    }

    #[test]
    fn acyclic_returns_none() {
        let g = from_arc_list(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 1)]);
        assert!(brute_force_min_mean(&g).is_none());
        assert!(brute_force_min_ratio(&g).is_none());
    }

    #[test]
    fn ratio_skips_zero_transit_cycles() {
        let mut b = mcr_graph::GraphBuilder::new();
        let v = b.add_nodes(2);
        // Zero-transit 2-cycle, plus a self-loop with transit 2.
        b.add_arc_with_transit(v[0], v[1], 1, 0);
        b.add_arc_with_transit(v[1], v[0], 1, 0);
        b.add_arc_with_transit(v[0], v[0], 6, 2);
        let g = b.build();
        let (ratio, cyc) = brute_force_min_ratio(&g).expect("one valid cycle");
        assert_eq!(ratio, Ratio64::from(3));
        assert_eq!(cyc.len(), 1);
    }

    #[test]
    fn min_mean_vs_min_ratio_differ() {
        let mut b = mcr_graph::GraphBuilder::new();
        let v = b.add_nodes(3);
        // Cycle A: w=4, |C|=2, t=4 → mean 2, ratio 1.
        b.add_arc_with_transit(v[0], v[1], 2, 2);
        b.add_arc_with_transit(v[1], v[0], 2, 2);
        // Cycle B (self-loop): w=1, |C|=1, t=4 → mean 1, ratio 1/4.
        b.add_arc_with_transit(v[2], v[2], 1, 4);
        let g = b.build();
        assert_eq!(brute_force_min_mean(&g).unwrap().0, Ratio64::from(1));
        assert_eq!(brute_force_min_ratio(&g).unwrap().0, Ratio64::new(1, 4));
    }
}
