//! Breadth-first / depth-first traversals and topological ordering.

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Returns the nodes reachable from `start` in BFS order (including
/// `start` itself).
///
/// ```
/// use mcr_graph::{graph::from_arc_list, traverse::bfs_order, NodeId};
/// let g = from_arc_list(3, &[(0, 1, 1), (1, 2, 1)]);
/// let order = bfs_order(&g, NodeId::new(0));
/// assert_eq!(order.len(), 3);
/// assert_eq!(order[0], NodeId::new(0));
/// ```
pub fn bfs_order(g: &Graph, start: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; g.num_nodes()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    seen[start.index()] = true;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for (_, w) in g.out_neighbors(v) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                queue.push_back(w);
            }
        }
    }
    order
}

/// Returns the nodes reachable from `start` in iterative DFS preorder.
pub fn dfs_preorder(g: &Graph, start: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; g.num_nodes()];
    let mut order = Vec::new();
    let mut stack = vec![start];
    seen[start.index()] = true;
    while let Some(v) = stack.pop() {
        order.push(v);
        // Push in reverse so the first out-arc is explored first.
        for &a in g.out_arcs(v).iter().rev() {
            let w = g.target(a);
            if !seen[w.index()] {
                seen[w.index()] = true;
                stack.push(w);
            }
        }
    }
    order
}

/// Returns a topological order of `g`, or `None` if `g` contains a cycle
/// (Kahn's algorithm).
///
/// ```
/// use mcr_graph::{graph::from_arc_list, traverse::topological_order};
/// let dag = from_arc_list(3, &[(0, 1, 1), (1, 2, 1)]);
/// assert!(topological_order(&dag).is_some());
/// let cyc = from_arc_list(2, &[(0, 1, 1), (1, 0, 1)]);
/// assert!(topological_order(&cyc).is_none());
/// ```
pub fn topological_order(g: &Graph) -> Option<Vec<NodeId>> {
    let n = g.num_nodes();
    let mut indeg = vec![0usize; n];
    for t in g.targets() {
        indeg[t.index()] += 1;
    }
    let mut queue: VecDeque<NodeId> = (0..n)
        .filter(|&v| indeg[v] == 0)
        .map(NodeId::new)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for (_, w) in g.out_neighbors(v) {
            indeg[w.index()] -= 1;
            if indeg[w.index()] == 0 {
                queue.push_back(w);
            }
        }
    }
    if order.len() == n {
        Some(order)
    } else {
        None
    }
}

/// Whether every node of `g` is reachable from every other node.
///
/// Checks forward reachability from node 0 in `g` and in the reverse
/// graph. An empty graph is vacuously strongly connected; a single node
/// is strongly connected regardless of self-loops.
pub fn is_strongly_connected(g: &Graph) -> bool {
    let n = g.num_nodes();
    if n <= 1 {
        return true;
    }
    if bfs_order(g, NodeId::new(0)).len() != n {
        return false;
    }
    bfs_order(&g.reversed(), NodeId::new(0)).len() == n
}

/// Whether `g` contains at least one cycle (including self-loops).
pub fn has_cycle(g: &Graph) -> bool {
    topological_order(g).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::from_arc_list;

    #[test]
    fn bfs_visits_each_reachable_node_once() {
        let g = from_arc_list(5, &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]);
        let order = bfs_order(&g, NodeId::new(0));
        assert_eq!(order.len(), 4); // node 4 unreachable
        let mut sorted: Vec<usize> = order.iter().map(|v| v.index()).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn dfs_preorder_explores_first_arc_first() {
        let g = from_arc_list(4, &[(0, 1, 1), (0, 2, 1), (1, 3, 1)]);
        let order = dfs_preorder(&g, NodeId::new(0));
        assert_eq!(
            order,
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(3), NodeId::new(2)]
        );
    }

    #[test]
    fn topo_order_respects_arcs() {
        let g = from_arc_list(6, &[(5, 0, 1), (5, 2, 1), (4, 0, 1), (4, 1, 1), (2, 3, 1), (3, 1, 1)]);
        let order = topological_order(&g).expect("dag");
        let mut pos = [0usize; 6];
        for (i, v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        for a in g.arc_ids() {
            assert!(pos[g.source(a).index()] < pos[g.target(a).index()]);
        }
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let g = from_arc_list(2, &[(0, 1, 1), (1, 1, 1)]);
        assert!(has_cycle(&g));
    }

    #[test]
    fn strong_connectivity_checks() {
        let ring = from_arc_list(3, &[(0, 1, 1), (1, 2, 1), (2, 0, 1)]);
        assert!(is_strongly_connected(&ring));
        let path = from_arc_list(3, &[(0, 1, 1), (1, 2, 1)]);
        assert!(!is_strongly_connected(&path));
        let single = from_arc_list(1, &[]);
        assert!(is_strongly_connected(&single));
        let empty = from_arc_list(0, &[]);
        assert!(is_strongly_connected(&empty));
    }
}
