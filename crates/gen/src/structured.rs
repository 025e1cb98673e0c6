//! Deterministic structured graph families for tests and ablations.

use mcr_graph::{Graph, GraphBuilder, NodeId};

/// A directed ring `0 → 1 → … → n−1 → 0` with the given arc weights.
///
/// Its unique cycle has mean `weights.iter().sum::<i64>() / n` (as a
/// rational), making it the simplest nontrivial oracle for cycle mean
/// algorithms.
///
/// # Panics
///
/// Panics if `weights` is empty.
///
/// ```
/// let g = mcr_gen::structured::ring(&[3, 5, 7]);
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_arcs(), 3);
/// ```
pub fn ring(weights: &[i64]) -> Graph {
    assert!(!weights.is_empty(), "ring requires at least one arc");
    let n = weights.len();
    let mut b = GraphBuilder::with_capacity(n, n);
    let nodes = b.add_nodes(n);
    for (i, &w) in weights.iter().enumerate() {
        b.add_arc(nodes[i], nodes[(i + 1) % n], w);
    }
    b.build()
}

/// The complete digraph on `n` nodes (no self-loops), with
/// `weight_fn(u, v)` as the weight of arc `(u, v)`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn complete(n: usize, mut weight_fn: impl FnMut(usize, usize) -> i64) -> Graph {
    assert!(n >= 2, "complete digraph needs at least two nodes");
    let mut b = GraphBuilder::with_capacity(n, n * (n - 1));
    let nodes = b.add_nodes(n);
    for u in 0..n {
        for v in 0..n {
            if u != v {
                b.add_arc(nodes[u], nodes[v], weight_fn(u, v));
            }
        }
    }
    b.build()
}

/// A `rows × cols` torus: each cell has an arc to its right and down
/// neighbors (wrapping), weighted by `weight_fn(row, col, dir)` where
/// `dir` is 0 for right and 1 for down.
///
/// # Panics
///
/// Panics if `rows == 0 || cols == 0`.
pub fn torus(rows: usize, cols: usize, mut weight_fn: impl FnMut(usize, usize, usize) -> i64) -> Graph {
    assert!(rows > 0 && cols > 0, "torus dimensions must be positive");
    let n = rows * cols;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    let nodes = b.add_nodes(n);
    let at = |r: usize, c: usize| nodes[r * cols + c];
    for r in 0..rows {
        for c in 0..cols {
            b.add_arc(at(r, c), at(r, (c + 1) % cols), weight_fn(r, c, 0));
            b.add_arc(at(r, c), at((r + 1) % rows, c), weight_fn(r, c, 1));
        }
    }
    b.build()
}

/// Two node-disjoint rings joined by a one-way bridge, useful for
/// exercising multi-SCC solving: the overall minimum cycle mean is the
/// smaller of the two ring means.
///
/// # Panics
///
/// Panics if either weight slice is empty.
pub fn two_rings_with_bridge(first: &[i64], second: &[i64], bridge_weight: i64) -> Graph {
    assert!(!first.is_empty() && !second.is_empty());
    let n1 = first.len();
    let n2 = second.len();
    let mut b = GraphBuilder::with_capacity(n1 + n2, n1 + n2 + 1);
    let nodes = b.add_nodes(n1 + n2);
    for (i, &w) in first.iter().enumerate() {
        b.add_arc(nodes[i], nodes[(i + 1) % n1], w);
    }
    for (i, &w) in second.iter().enumerate() {
        b.add_arc(nodes[n1 + i], nodes[n1 + (i + 1) % n2], w);
    }
    b.add_arc(nodes[0], nodes[n1], bridge_weight);
    b.build()
}

/// A pathological family for parametric algorithms: a long cheap path
/// shadowed by progressively more expensive shortcuts, ending in a
/// return arc. Forces many tree pivots in KO/YTO.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn shortcut_ladder(n: usize) -> Graph {
    assert!(n >= 2);
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    let nodes = b.add_nodes(n);
    for i in 0..n - 1 {
        b.add_arc(nodes[i], nodes[i + 1], 1);
        if i + 2 < n {
            b.add_arc(nodes[i], nodes[i + 2], 3 + i as i64);
        }
    }
    b.add_arc(nodes[n - 1], nodes[0], (n as i64) * 2);
    b.build()
}

/// An acyclic layered graph: `layers` layers of `width` nodes, each node
/// wired to every node of the next layer with weight
/// `weight_fn(layer, i, j)`. Returns the graph and the node matrix.
///
/// Useful as a cycle-free input (algorithms must report "no cycle").
///
/// # Panics
///
/// Panics if `layers == 0 || width == 0`.
pub fn layered_dag(
    layers: usize,
    width: usize,
    mut weight_fn: impl FnMut(usize, usize, usize) -> i64,
) -> (Graph, Vec<Vec<NodeId>>) {
    assert!(layers > 0 && width > 0);
    let mut b = GraphBuilder::with_capacity(layers * width, layers.saturating_sub(1) * width * width);
    let grid: Vec<Vec<NodeId>> = (0..layers).map(|_| b.add_nodes(width)).collect();
    for l in 0..layers.saturating_sub(1) {
        for i in 0..width {
            for j in 0..width {
                b.add_arc(grid[l][i], grid[l + 1][j], weight_fn(l, i, j));
            }
        }
    }
    (b.build(), grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_graph::traverse::{has_cycle, is_strongly_connected, topological_order};

    fn in_degree(g: &Graph, v: NodeId) -> usize {
        g.targets().iter().filter(|&&t| t == v).count()
    }

    #[test]
    fn ring_shape() {
        let g = ring(&[1, 2, 3, 4]);
        assert!(is_strongly_connected(&g));
        assert_eq!(g.num_arcs(), 4);
        for v in g.node_ids() {
            assert_eq!(g.out_degree(v), 1);
            assert_eq!(in_degree(&g, v), 1);
        }
    }

    #[test]
    fn complete_shape() {
        let g = complete(5, |u, v| (u * 10 + v) as i64);
        assert_eq!(g.num_arcs(), 20);
        assert!(is_strongly_connected(&g));
        // No self loops.
        for a in g.arc_ids() {
            assert_ne!(g.source(a), g.target(a));
        }
    }

    #[test]
    fn torus_shape() {
        let g = torus(3, 4, |_, _, _| 1);
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_arcs(), 24);
        assert!(is_strongly_connected(&g));
        for v in g.node_ids() {
            assert_eq!(g.out_degree(v), 2);
            assert_eq!(in_degree(&g, v), 2);
        }
    }

    #[test]
    fn degenerate_torus_has_self_loops() {
        let g = torus(1, 1, |_, _, _| 5);
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.num_arcs(), 2);
        assert!(has_cycle(&g));
    }

    #[test]
    fn two_rings_are_two_sccs() {
        let g = two_rings_with_bridge(&[1, 2], &[3, 4, 5], 9);
        let scc = mcr_graph::SccDecomposition::new(g.view());
        assert_eq!(scc.num_components(), 2);
        assert!(!is_strongly_connected(&g));
    }

    #[test]
    fn shortcut_ladder_is_strongly_connected() {
        let g = shortcut_ladder(20);
        assert!(is_strongly_connected(&g));
    }

    #[test]
    fn layered_dag_is_acyclic() {
        let (g, grid) = layered_dag(4, 3, |_, _, _| 1);
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(grid.len(), 4);
        assert!(topological_order(&g).is_some());
    }
}
