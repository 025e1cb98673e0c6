//! Strongly connected components (iterative Tarjan) and condensation.
//!
//! Every cycle mean / cycle ratio algorithm in the study assumes a
//! strongly connected input; the common driver decomposes an arbitrary
//! digraph with [`SccDecomposition::new`], extracts each nontrivial
//! component with [`SccDecomposition::component_subgraph`], solves it,
//! and takes the minimum over components — exactly the procedure
//! described in Section 2 of the paper.

use crate::compact::idx32;
use crate::graph::{ArcId, Graph, GraphBuilder, NodeId};

/// The strongly connected components of a digraph.
///
/// Components are numbered `0..num_components()` in **reverse
/// topological order** of the condensation (Tarjan's output order): if
/// there is an arc from component `a` to component `b` with `a != b`,
/// then `a > b`. Each component's nodes come in [`canonical_order`], a
/// function of the component's own arcs that ends with its smallest
/// node, so a component's node list does not depend on where the search
/// entered it.
///
/// ```
/// use mcr_graph::{graph::from_arc_list, SccDecomposition};
/// // Two 2-cycles joined by a one-way bridge.
/// let g = from_arc_list(4, &[(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 3, 1), (3, 2, 1)]);
/// let scc = SccDecomposition::new(&g);
/// assert_eq!(scc.num_components(), 2);
/// assert_eq!(scc.component_of(mcr_graph::NodeId::new(0)),
///            scc.component_of(mcr_graph::NodeId::new(1)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SccDecomposition {
    comp_of: Vec<u32>,
    /// Every node, grouped by component in emission order: component `c`
    /// is `nodes[start[c]..start[c + 1]]`, in canonical order.
    nodes: Vec<NodeId>,
    start: Vec<u32>,
}

impl SccDecomposition {
    /// Computes the strongly connected components of `g` with an
    /// iterative Tarjan algorithm (no recursion, safe for n in the
    /// hundreds of thousands), each component's nodes in
    /// [`canonical_order`].
    pub fn new(g: &Graph) -> Self {
        let n = g.num_nodes();
        const UNVISITED: u32 = u32::MAX;
        let mut index = vec![UNVISITED; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut comp_of = vec![0u32; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut nodes: Vec<NodeId> = Vec::with_capacity(n);
        let mut start: Vec<u32> = vec![0];
        let mut next_index = 0u32;

        // Explicit DFS call stack: (node, position in its out-arc list).
        let mut call: Vec<(u32, usize)> = Vec::new();

        for root in 0..idx32(n) {
            if index[root as usize] != UNVISITED {
                continue;
            }
            crate::chaos::pulse("graph.scc.root");
            call.push((root, 0));
            index[root as usize] = next_index;
            lowlink[root as usize] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root as usize] = true;

            while let Some(&mut (v, ref mut pos)) = call.last_mut() {
                let vu = v as usize;
                let out = g.out_arcs(NodeId::new(vu));
                if *pos < out.len() {
                    let a = out[*pos];
                    let w = g.target(a).index();
                    *pos += 1;
                    if index[w] == UNVISITED {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(idx32(w));
                        on_stack[w] = true;
                        call.push((idx32(w), 0));
                    } else if on_stack[w] {
                        lowlink[vu] = lowlink[vu].min(index[w]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        let p = parent as usize;
                        lowlink[p] = lowlink[p].min(lowlink[vu]);
                    }
                    if lowlink[vu] == index[vu] {
                        let comp_id = idx32(start.len() - 1);
                        let first = nodes.len();
                        let mut smallest = v;
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w as usize] = false;
                            comp_of[w as usize] = comp_id;
                            nodes.push(NodeId::new(w as usize));
                            smallest = smallest.min(w);
                            if w == v {
                                break;
                            }
                        }
                        // Entered at its smallest node, the component
                        // was popped in canonical order already.
                        if smallest != v {
                            canonical_order(g, &mut nodes[first..]);
                        }
                        start.push(idx32(nodes.len()));
                    }
                }
            }
        }

        SccDecomposition { comp_of, nodes, start }
    }

    /// Number of strongly connected components.
    pub fn num_components(&self) -> usize {
        self.start.len() - 1
    }

    /// Component id of `v`.
    #[inline]
    pub fn component_of(&self, v: NodeId) -> usize {
        self.comp_of[v.index()] as usize
    }

    /// The nodes of component `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.num_components()`.
    pub fn component(&self, c: usize) -> &[NodeId] {
        &self.nodes[self.start[c] as usize..self.start[c + 1] as usize]
    }

    /// The cyclic components in canonical job order: by smallest node,
    /// which is each component's last node.
    ///
    /// ```
    /// use mcr_graph::{graph::from_arc_list, SccDecomposition};
    /// // {0, 1} reaches {2, 3}, so Tarjan emits {2, 3} first.
    /// let g = from_arc_list(4, &[(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 3, 1), (3, 2, 1)]);
    /// let scc = SccDecomposition::new(&g);
    /// assert_eq!(scc.cyclic_by_smallest_node(&g), [1, 0]);
    /// assert_eq!(scc.component(1).last(), Some(&mcr_graph::NodeId::new(0)));
    /// ```
    pub fn cyclic_by_smallest_node(&self, g: &Graph) -> Vec<usize> {
        let mut cyclic: Vec<usize> = (0..self.num_components())
            .filter(|&c| self.is_cyclic_component(g, c))
            .collect();
        cyclic.sort_unstable_by_key(|&c| self.component(c).last().copied());
        cyclic
    }

    /// Iterates over all components as node slices.
    pub fn components(&self) -> impl Iterator<Item = &[NodeId]> {
        (0..self.num_components()).map(|c| self.component(c))
    }

    /// Whether component `c` can contain a cycle: it has more than one
    /// node, or its single node has a self-loop.
    pub fn is_cyclic_component(&self, g: &Graph, c: usize) -> bool {
        let nodes = self.component(c);
        if nodes.len() > 1 {
            return true;
        }
        let v = nodes[0];
        g.out_neighbors(v).any(|(_, w)| w == v)
    }

    /// Extracts component `c` as a standalone graph.
    ///
    /// Returns the subgraph, the mapping from subgraph node index to
    /// original [`NodeId`], and the mapping from subgraph arc index to
    /// original [`ArcId`]. Only arcs with both endpoints inside the
    /// component are kept; weights and transit times are preserved.
    ///
    /// Allocates a fresh node-translation table per call; batch callers
    /// extracting many components should use a [`SubgraphExtractor`].
    pub fn component_subgraph(&self, g: &Graph, c: usize) -> (Graph, Vec<NodeId>, Vec<ArcId>) {
        let nodes = self.component(c);
        let mut ex = SubgraphExtractor::new(g.num_nodes());
        let (sub, arc_map) = ex.extract(g, nodes);
        (sub, nodes.to_vec(), arc_map)
    }
}

/// Puts `nodes`, the node set of one strongly connected component of
/// `g`, in canonical order: the reverse of the order in which a
/// depth-first search from the smallest node discovers them, scanning
/// each node's out-arcs in out-list order and never leaving the set. It
/// is the order Tarjan pops a component that it entered at its smallest
/// node, and it depends only on the component's own arcs, so a search
/// over the component alone reproduces it. The smallest node comes last.
///
/// ```
/// use mcr_graph::{graph::from_arc_list, scc::canonical_order, NodeId};
/// let g = from_arc_list(3, &[(0, 2, 1), (2, 1, 1), (1, 0, 1)]);
/// let mut nodes = [1, 0, 2].map(NodeId::new);
/// canonical_order(&g, &mut nodes);
/// assert_eq!(nodes, [1, 2, 0].map(NodeId::new));
/// ```
pub fn canonical_order(g: &Graph, nodes: &mut [NodeId]) {
    let mut sorted = nodes.to_vec();
    sorted.sort_unstable();
    let Some(&root) = sorted.first() else { return };
    let mut seen = vec![false; sorted.len()];
    seen[0] = true;
    let mut found = vec![root];
    let mut call = vec![(root, 0usize)];
    while let Some(&mut (v, ref mut pos)) = call.last_mut() {
        let Some(&a) = g.out_arcs(v).get(*pos) else {
            call.pop();
            continue;
        };
        *pos += 1;
        let w = g.target(a);
        if let Ok(i) = sorted.binary_search(&w) {
            if !std::mem::replace(&mut seen[i], true) {
                found.push(w);
                call.push((w, 0));
            }
        }
    }
    debug_assert_eq!(found.len(), nodes.len(), "the set is strongly connected");
    for (slot, v) in nodes.iter_mut().zip(found.into_iter().rev()) {
        *slot = v;
    }
}

/// Reusable scratch state for extracting many node-induced subgraphs of
/// the same host graph without re-allocating the `O(n)` translation
/// table each time.
///
/// The per-SCC solver driver extracts every cyclic component up front;
/// with `k` components a naive loop performs `k` allocations of
/// `n · 4` bytes and `O(kn)` initialization. The extractor allocates the
/// table once and resets only the entries it touched.
///
/// ```
/// use mcr_graph::{graph::from_arc_list, scc::SubgraphExtractor, SccDecomposition};
/// let g = from_arc_list(4, &[(0, 1, 1), (1, 0, 1), (2, 3, 5), (3, 2, 5)]);
/// let scc = SccDecomposition::new(&g);
/// let mut ex = SubgraphExtractor::new(g.num_nodes());
/// for c in 0..scc.num_components() {
///     let (sub, arc_map) = ex.extract(&g, scc.component(c));
///     assert_eq!(sub.num_nodes(), 2);
///     assert_eq!(arc_map.len(), 2);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct SubgraphExtractor {
    /// `local_of[v] == u32::MAX` outside an `extract` call; only entries
    /// for the current node set are populated, and they are restored on
    /// the way out.
    local_of: Vec<u32>,
}

impl SubgraphExtractor {
    /// Creates an extractor for host graphs of up to `num_nodes` nodes
    /// (the table grows on demand if a larger graph shows up).
    pub fn new(num_nodes: usize) -> Self {
        SubgraphExtractor {
            local_of: vec![u32::MAX; num_nodes],
        }
    }

    /// Extracts the subgraph induced by `nodes` (weights and transit
    /// times preserved), plus the map from subgraph arc index to the
    /// host graph's [`ArcId`]. Node `i` of the subgraph is `nodes[i]`.
    pub fn extract(&mut self, g: &Graph, nodes: &[NodeId]) -> (Graph, Vec<ArcId>) {
        if self.local_of.len() < g.num_nodes() {
            self.local_of.resize(g.num_nodes(), u32::MAX);
        }
        for (i, &v) in nodes.iter().enumerate() {
            self.local_of[v.index()] = idx32(i);
        }
        let mut b = GraphBuilder::with_capacity(nodes.len(), nodes.len() * 2);
        b.add_nodes(nodes.len());
        let mut arc_map = Vec::new();
        for &v in nodes {
            for &a in g.out_arcs(v) {
                let t = g.target(a);
                let lt = self.local_of[t.index()];
                if lt != u32::MAX {
                    b.add_arc_with_transit(
                        NodeId::new(self.local_of[v.index()] as usize),
                        NodeId::new(lt as usize),
                        g.weight(a),
                        g.transit(a),
                    );
                    arc_map.push(a);
                }
            }
        }
        for &v in nodes {
            self.local_of[v.index()] = u32::MAX;
        }
        (b.build(), arc_map)
    }
}

/// Builds the condensation of `g`: one node per strongly connected
/// component, one zero-weight arc per original arc crossing between two
/// distinct components (parallel condensation arcs are collapsed).
///
/// The result is acyclic. Node `c` of the condensation corresponds to
/// component `c` of `scc`.
///
/// ```
/// use mcr_graph::{graph::from_arc_list, condensation, SccDecomposition};
/// let g = from_arc_list(4, &[(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 3, 1), (3, 2, 1)]);
/// let scc = SccDecomposition::new(&g);
/// let c = condensation(&g, &scc);
/// assert_eq!(c.num_nodes(), 2);
/// assert_eq!(c.num_arcs(), 1);
/// ```
pub fn condensation(g: &Graph, scc: &SccDecomposition) -> Graph {
    let k = scc.num_components();
    let mut b = GraphBuilder::with_capacity(k, k);
    b.add_nodes(k);
    let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    for a in g.arc_ids() {
        let cu = idx32(scc.component_of(g.source(a)));
        let cv = idx32(scc.component_of(g.target(a)));
        if cu != cv && seen.insert((cu, cv)) {
            b.add_arc(NodeId::new(cu as usize), NodeId::new(cv as usize), 0);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::from_arc_list;

    #[test]
    fn single_node_no_loop_is_trivial_component() {
        let g = from_arc_list(1, &[]);
        let scc = SccDecomposition::new(&g);
        assert_eq!(scc.num_components(), 1);
        assert!(!scc.is_cyclic_component(&g, 0));
    }

    #[test]
    fn self_loop_component_is_cyclic() {
        let g = from_arc_list(1, &[(0, 0, 1)]);
        let scc = SccDecomposition::new(&g);
        assert_eq!(scc.num_components(), 1);
        assert!(scc.is_cyclic_component(&g, 0));
    }

    #[test]
    fn dag_has_singleton_components() {
        let g = from_arc_list(4, &[(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)]);
        let scc = SccDecomposition::new(&g);
        assert_eq!(scc.num_components(), 4);
        for c in 0..4 {
            assert_eq!(scc.component(c).len(), 1);
            assert!(!scc.is_cyclic_component(&g, c));
        }
    }

    #[test]
    fn cycle_is_one_component() {
        let g = from_arc_list(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1)]);
        let scc = SccDecomposition::new(&g);
        assert_eq!(scc.num_components(), 1);
        assert_eq!(scc.component(0).len(), 5);
    }

    #[test]
    fn components_in_reverse_topological_order() {
        // 0 <-> 1  ->  2 <-> 3  ->  4
        let g = from_arc_list(
            5,
            &[(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 3, 1), (3, 2, 1), (3, 4, 1)],
        );
        let scc = SccDecomposition::new(&g);
        assert_eq!(scc.num_components(), 3);
        for a in g.arc_ids() {
            let cu = scc.component_of(g.source(a));
            let cv = scc.component_of(g.target(a));
            if cu != cv {
                assert!(cu > cv, "arc {:?} violates reverse topological order", a);
            }
        }
    }

    #[test]
    fn component_subgraph_preserves_weights_and_transits() {
        let mut b = GraphBuilder::new();
        let v = b.add_nodes(3);
        b.add_arc_with_transit(v[0], v[1], 5, 2);
        b.add_arc_with_transit(v[1], v[0], 7, 3);
        b.add_arc(v[1], v[2], 100); // leaves the component
        let g = b.build();
        let scc = SccDecomposition::new(&g);
        let c = scc.component_of(v[0]);
        let (sub, node_map, arc_map) = scc.component_subgraph(&g, c);
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(sub.num_arcs(), 2);
        assert_eq!(node_map.len(), 2);
        let total_w: i64 = sub.arc_ids().map(|a| sub.weight(a)).sum();
        let total_t: i64 = sub.arc_ids().map(|a| sub.transit(a)).sum();
        assert_eq!(total_w, 12);
        assert_eq!(total_t, 5);
        for (local, &orig) in arc_map.iter().enumerate() {
            assert_eq!(sub.weight(ArcId::new(local)), g.weight(orig));
        }
    }

    #[test]
    fn condensation_is_acyclic_and_collapses_parallel() {
        let g = from_arc_list(
            4,
            &[
                (0, 1, 1),
                (1, 0, 1),
                (0, 2, 1),
                (1, 2, 1), // two cross arcs, same component pair
                (2, 3, 1),
                (3, 2, 1),
            ],
        );
        let scc = SccDecomposition::new(&g);
        let c = condensation(&g, &scc);
        assert_eq!(c.num_nodes(), 2);
        assert_eq!(c.num_arcs(), 1);
        let cscc = SccDecomposition::new(&c);
        assert_eq!(cscc.num_components(), c.num_nodes());
    }

    #[test]
    fn two_disjoint_cycles() {
        let g = from_arc_list(4, &[(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1)]);
        let scc = SccDecomposition::new(&g);
        assert_eq!(scc.num_components(), 2);
        assert!(scc.is_cyclic_component(&g, 0));
        assert!(scc.is_cyclic_component(&g, 1));
        assert_ne!(
            scc.component_of(NodeId::new(0)),
            scc.component_of(NodeId::new(2))
        );
    }

    #[test]
    fn extractor_reuse_matches_one_shot_extraction() {
        // Three disjoint rings; extracting them through one extractor
        // must give the same subgraphs as fresh per-component calls.
        let g = from_arc_list(
            6,
            &[(0, 1, 1), (1, 0, 2), (2, 3, 3), (3, 2, 4), (4, 5, 5), (5, 4, 6)],
        );
        let scc = SccDecomposition::new(&g);
        let mut ex = SubgraphExtractor::new(g.num_nodes());
        for c in 0..scc.num_components() {
            let (sub_a, arcs_a) = ex.extract(&g, scc.component(c));
            let (sub_b, _, arcs_b) = scc.component_subgraph(&g, c);
            assert_eq!(arcs_a, arcs_b);
            assert_eq!(sub_a.num_nodes(), sub_b.num_nodes());
            assert_eq!(sub_a.num_arcs(), sub_b.num_arcs());
            for a in sub_a.arc_ids() {
                assert_eq!(sub_a.source(a), sub_b.source(a));
                assert_eq!(sub_a.target(a), sub_b.target(a));
                assert_eq!(sub_a.weight(a), sub_b.weight(a));
                assert_eq!(sub_a.transit(a), sub_b.transit(a));
            }
        }
    }

    #[test]
    fn extractor_grows_for_larger_graphs() {
        let small = from_arc_list(2, &[(0, 1, 1), (1, 0, 1)]);
        let big = from_arc_list(10, &[(8, 9, 2), (9, 8, 2)]);
        let mut ex = SubgraphExtractor::new(small.num_nodes());
        let (sub, _) = ex.extract(&small, &[NodeId::new(0), NodeId::new(1)]);
        assert_eq!(sub.num_arcs(), 2);
        let (sub, arcs) = ex.extract(&big, &[NodeId::new(8), NodeId::new(9)]);
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(arcs.len(), 2);
    }

    #[test]
    fn components_come_in_canonical_order_wherever_the_search_enters() {
        // Random graphs over 9 nodes: each component's node list must
        // equal a search over the component alone from its smallest
        // node and end with that node, and the lists cover the graph.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        let mut entered_elsewhere = 0;
        for _ in 0..300 {
            let n = 1 + next(9) as usize;
            let m = next(20) as usize;
            let arcs: Vec<(usize, usize, i64)> = (0..m)
                .map(|_| (next(n as u64) as usize, next(n as u64) as usize, 1))
                .collect();
            let g = from_arc_list(n, &arcs);
            let scc = SccDecomposition::new(&g);
            let mut covered = 0;
            for c in 0..scc.num_components() {
                let nodes = scc.component(c);
                covered += nodes.len();
                let smallest = *nodes.iter().min().expect("nonempty");
                assert_eq!(nodes.last(), Some(&smallest));
                let mut again = nodes.to_vec();
                again.reverse();
                canonical_order(&g, &mut again);
                assert_eq!(again, nodes);
                // A component some arc enters at a node other than its
                // smallest is one a plain Tarjan run may enter there.
                entered_elsewhere += usize::from(g.arc_ids().any(|a| {
                    scc.component_of(g.source(a)) != c
                        && scc.component_of(g.target(a)) == c
                        && g.target(a) != smallest
                }));
            }
            assert_eq!(covered, n);
        }
        assert!(entered_elsewhere > 0, "no component was entered off its smallest node");
    }

    #[test]
    fn a_component_entered_off_its_smallest_node_is_reordered() {
        // Root 0 enters {1, 2, 3} at 2; Tarjan pops 1, 3, 2, and the
        // canonical order searches from 1 instead: 1 -> 3 -> 2.
        let g = from_arc_list(4, &[(0, 2, 1), (2, 1, 1), (1, 3, 1), (3, 2, 1), (2, 3, 1)]);
        let scc = SccDecomposition::new(&g);
        let c = scc.component_of(NodeId::new(1));
        assert_eq!(scc.component(c), [2, 3, 1].map(NodeId::new));
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        // 100_000-node path; recursive Tarjan would blow the stack.
        let n = 100_000;
        let arcs: Vec<(usize, usize, i64)> = (0..n - 1).map(|i| (i, i + 1, 1)).collect();
        let g = from_arc_list(n, &arcs);
        let scc = SccDecomposition::new(&g);
        assert_eq!(scc.num_components(), n);
    }
}
