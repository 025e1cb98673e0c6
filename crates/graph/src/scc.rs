//! Strongly connected components (iterative Tarjan) and condensation.
//!
//! Every cycle mean / cycle ratio algorithm in the study assumes a
//! strongly connected input; the common driver decomposes an arbitrary
//! digraph with [`SccDecomposition::new`], lays every cyclic component
//! out in one [`ComponentArena`], solves each component through its
//! [`GraphRef`] view, and takes the minimum over components — exactly
//! the procedure described in Section 2 of the paper. A caller that
//! patches components one at a time keeps each in an arena of its own
//! ([`ComponentArena::component`]), laid out by the same routine.

use crate::compact::idx32;
use crate::graph::{ArcId, Graph, GraphBuilder, GraphRef, NodeId};

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
/// let scc = SccDecomposition::new(g.view());
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
    pub fn new(g: GraphRef<'_>) -> Self {
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
    /// let scc = SccDecomposition::new(g.view());
    /// assert_eq!(scc.cyclic_by_smallest_node(g.view()), [1, 0]);
    /// assert_eq!(scc.component(1).last(), Some(&mcr_graph::NodeId::new(0)));
    /// ```
    pub fn cyclic_by_smallest_node(&self, g: GraphRef<'_>) -> Vec<usize> {
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
    pub fn is_cyclic_component(&self, g: GraphRef<'_>, c: usize) -> bool {
        let nodes = self.component(c);
        if nodes.len() > 1 {
            return true;
        }
        let v = nodes[0];
        g.out_neighbors(v).any(|(_, w)| w == v)
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
/// canonical_order(g.view(), &mut nodes);
/// assert_eq!(nodes, [1, 2, 0].map(NodeId::new));
/// ```
pub fn canonical_order(g: GraphRef<'_>, nodes: &mut [NodeId]) {
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

/// Cyclic components of a graph as standalone subgraphs, all in one set
/// of arrays: one `first_out`, `sources`, `targets`, `weights`,
/// `transits` and arc map for every component, and a component (a
/// *job*) is a pair of ranges into them.
///
/// [`ComponentArena::new`] lays out every cyclic component of a graph,
/// in canonical job order (by smallest node,
/// [`SccDecomposition::cyclic_by_smallest_node`]), in one pass after
/// Tarjan with no per-component allocation.
/// [`ComponentArena::component`] lays out one component alone, for a
/// caller that replaces components one at a time. Both run one routine:
/// local node `i` of a job is node `i` of the list it is given (the
/// component's [`canonical_order`]), and its arcs are the ones with both
/// endpoints inside, by local source and then in the host graph's
/// out-list order. That is the arc list a [`GraphBuilder`] build of the
/// component would hold, so a job's [`ComponentArena::view`] equals that
/// graph's [`Graph::view`], array for array, and a kernel cannot tell
/// the two apart.
///
/// ```
/// use mcr_graph::{graph::from_arc_list, ArcId, ComponentArena, NodeId};
/// // {0, 1} reaches {2, 3}; node 4 lies on no cycle.
/// let g = from_arc_list(5, &[(0, 1, 1), (1, 0, 2), (1, 2, 9), (2, 3, 3), (3, 2, 4), (3, 4, 0)]);
/// let arena = ComponentArena::new(g.view());
/// assert_eq!(arena.len(), 2);
/// // Job 1 is {2, 3} in canonical order, node 3 first: host arc 4
/// // (3 -> 2), then host arc 3 (2 -> 3).
/// assert_eq!(arena.arc_map(1), [4, 3].map(ArcId::new));
/// assert_eq!(arena.view(1).weights(), [4, 3]);
/// // The same component laid out alone: `comp` names each node's
/// // component, and `local` is scratch.
/// let comp = [0, 0, 2, 2, 4];
/// let nodes = [3, 2].map(NodeId::new);
/// let one = ComponentArena::component(g.view(), &nodes, &comp, &mut [0; 5]);
/// assert_eq!(one.view(0), arena.view(1));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentArena {
    /// Each component's CSR offsets, local to its own arcs: component
    /// `j` has one more entry than it has nodes.
    first_out: Vec<u32>,
    sources: Vec<NodeId>,
    targets: Vec<NodeId>,
    weights: Vec<i64>,
    transits: Vec<i64>,
    /// Local arc → host arc, aligned with the arc arrays.
    arc_map: Vec<ArcId>,
    /// `0..k` for the largest component's arc count `k`: every view's
    /// `out_arcs`, since a component's out-adjacency is its arc table.
    identity: Vec<ArcId>,
    /// `[first_out start, arc start]` per component, plus one past the
    /// last: component `j` spans `bounds[j]..bounds[j + 1]` in both.
    bounds: Vec<[u32; 2]>,
}

impl ComponentArena {
    /// Runs Tarjan on `g`, orders the cyclic components, and lays them
    /// out.
    pub fn new(g: GraphRef<'_>) -> ComponentArena {
        let scc = SccDecomposition::new(g);
        let order = scc.cyclic_by_smallest_node(g);
        let cyclic_nodes: usize = order.iter().map(|&c| scc.component(c).len()).sum();
        let mut arena = ComponentArena::with_capacity(cyclic_nodes, g.num_arcs(), order.len());
        let mut local = vec![0u32; g.num_nodes()];
        for &c in &order {
            arena.push(g, scc.component(c), &scc.comp_of, &mut local);
        }
        arena
    }

    /// Lays out one component of `g` as an arena of one job, its local
    /// node `i` being `nodes[i]`. `comp` names the component of every
    /// node of `g`, and the job keeps the arcs whose two endpoints share
    /// the name of `nodes[0]`. `local` is scratch with an entry per node
    /// of `g`; its contents do not matter.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, or if `comp` or `local` has fewer
    /// entries than `g` has nodes.
    pub fn component(
        g: GraphRef<'_>,
        nodes: &[NodeId],
        comp: &[u32],
        local: &mut [u32],
    ) -> ComponentArena {
        let mut arena = ComponentArena::with_capacity(nodes.len(), 2 * nodes.len(), 1);
        arena.push(g, nodes, comp, local);
        arena
    }

    fn with_capacity(nodes: usize, arcs: usize, jobs: usize) -> ComponentArena {
        let mut bounds = Vec::with_capacity(jobs + 1);
        bounds.push([0, 0]);
        ComponentArena {
            first_out: Vec::with_capacity(nodes + jobs),
            sources: Vec::with_capacity(arcs),
            targets: Vec::with_capacity(arcs),
            weights: Vec::with_capacity(arcs),
            transits: Vec::with_capacity(arcs),
            arc_map: Vec::with_capacity(arcs),
            identity: Vec::new(),
            bounds,
        }
    }

    /// Appends the component `nodes` of `g` as the last job: the one
    /// routine every layout runs (see [`ComponentArena::component`] for
    /// the arguments).
    fn push(&mut self, g: GraphRef<'_>, nodes: &[NodeId], comp: &[u32], local: &mut [u32]) {
        let name = comp[nodes[0].index()];
        for (i, v) in nodes.iter().enumerate() {
            local[v.index()] = idx32(i);
        }
        let first = self.sources.len();
        self.first_out.push(0);
        for (i, &v) in nodes.iter().enumerate() {
            let lv = NodeId::new(i);
            for (a, t, w, tr) in g.out_adj(v) {
                if comp[t.index()] == name {
                    self.sources.push(lv);
                    self.targets.push(NodeId::new(local[t.index()] as usize));
                    self.weights.push(w);
                    self.transits.push(tr);
                    self.arc_map.push(a);
                }
            }
            self.first_out.push(idx32(self.sources.len() - first));
        }
        let arcs = self.sources.len() - first;
        self.identity.extend((self.identity.len()..arcs).map(ArcId::new));
        self.bounds
            .push([idx32(self.first_out.len()), idx32(self.sources.len())]);
    }

    /// Number of cyclic components.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Whether the graph is acyclic.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total arcs over all components.
    pub fn num_arcs(&self) -> usize {
        self.sources.len()
    }

    /// Component `j`'s arc range.
    fn arcs(&self, j: usize) -> std::ops::Range<usize> {
        self.bounds[j][1] as usize..self.bounds[j + 1][1] as usize
    }

    /// Component `j` as a graph of its own, in local ids.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.len()`.
    #[inline]
    pub fn view(&self, j: usize) -> GraphRef<'_> {
        self.view_with_weights(j, &self.weights[self.arcs(j)])
    }

    /// Component `j` with `weights`, one per local arc, in place of its
    /// own (a maximize solve's negated copy).
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.len()` or `weights` does not have one entry
    /// per arc of component `j`.
    #[inline]
    pub fn view_with_weights<'a>(&'a self, j: usize, weights: &'a [i64]) -> GraphRef<'a> {
        let arcs = self.arcs(j);
        assert_eq!(weights.len(), arcs.len(), "one weight per arc");
        GraphRef::source_ordered(
            &self.first_out[self.bounds[j][0] as usize..self.bounds[j + 1][0] as usize],
            &self.identity,
            &self.sources[arcs.clone()],
            &self.targets[arcs.clone()],
            weights,
            &self.transits[arcs],
        )
    }

    /// The map from component `j`'s local arc ids to the host graph's.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.len()`.
    #[inline]
    pub fn arc_map(&self, j: usize) -> &[ArcId] {
        &self.arc_map[self.arcs(j)]
    }

    /// Overwrites the weight and transit time of `arc` (an id over the
    /// whole arena, so a local id in an arena of one job) in place, as
    /// [`Graph::set_arc_values`] does to the host. The arc set, and so
    /// the layout, is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `arc` is out of range or `transit` is negative.
    pub fn set_arc_values(&mut self, arc: ArcId, weight: i64, transit: i64) {
        assert!(transit >= 0, "transit times must be nonnegative");
        self.weights[arc.index()] = weight;
        self.transits[arc.index()] = transit;
    }

    /// Renumbers the arc maps after host arc `arc` left the host graph
    /// ([`Graph::remove_arc`]): every higher host id shifts down by one.
    /// A component that held `arc` itself keeps a stale entry for it and
    /// must be laid out again.
    pub fn host_arc_removed(&mut self, arc: ArcId) {
        for host in &mut self.arc_map {
            if *host > arc {
                *host = ArcId::new(host.index() - 1);
            }
        }
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
/// let scc = SccDecomposition::new(g.view());
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
        let scc = SccDecomposition::new(g.view());
        assert_eq!(scc.num_components(), 1);
        assert!(!scc.is_cyclic_component(g.view(), 0));
    }

    #[test]
    fn self_loop_component_is_cyclic() {
        let g = from_arc_list(1, &[(0, 0, 1)]);
        let scc = SccDecomposition::new(g.view());
        assert_eq!(scc.num_components(), 1);
        assert!(scc.is_cyclic_component(g.view(), 0));
    }

    #[test]
    fn dag_has_singleton_components() {
        let g = from_arc_list(4, &[(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)]);
        let scc = SccDecomposition::new(g.view());
        assert_eq!(scc.num_components(), 4);
        for c in 0..4 {
            assert_eq!(scc.component(c).len(), 1);
            assert!(!scc.is_cyclic_component(g.view(), c));
        }
    }

    #[test]
    fn cycle_is_one_component() {
        let g = from_arc_list(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1)]);
        let scc = SccDecomposition::new(g.view());
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
        let scc = SccDecomposition::new(g.view());
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
        let arena = ComponentArena::new(g.view());
        assert_eq!(arena.len(), 1);
        let sub = arena.view(0);
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(sub.num_arcs(), 2);
        assert_eq!(sub.weights().iter().sum::<i64>(), 12);
        assert_eq!(sub.transits().iter().sum::<i64>(), 5);
        for (local, &orig) in arena.arc_map(0).iter().enumerate() {
            assert_eq!(sub.weight(ArcId::new(local)), g.weight(orig));
            assert_eq!(sub.transit(ArcId::new(local)), g.transit(orig));
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
        let scc = SccDecomposition::new(g.view());
        let c = condensation(&g, &scc);
        assert_eq!(c.num_nodes(), 2);
        assert_eq!(c.num_arcs(), 1);
        let cscc = SccDecomposition::new(c.view());
        assert_eq!(cscc.num_components(), c.num_nodes());
    }

    #[test]
    fn two_disjoint_cycles() {
        let g = from_arc_list(4, &[(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1)]);
        let scc = SccDecomposition::new(g.view());
        assert_eq!(scc.num_components(), 2);
        assert!(scc.is_cyclic_component(g.view(), 0));
        assert!(scc.is_cyclic_component(g.view(), 1));
        assert_ne!(
            scc.component_of(NodeId::new(0)),
            scc.component_of(NodeId::new(2))
        );
    }

    /// Every cyclic component of `g` laid out alone, in job order, with
    /// the smallest-node names `comp` gives.
    fn one_job_layouts(g: &Graph) -> Vec<ComponentArena> {
        let scc = SccDecomposition::new(g.view());
        let name = |c: usize| idx32(scc.component(c).last().expect("nonempty").index());
        let comp: Vec<u32> = (0..g.num_nodes())
            .map(|v| name(scc.component_of(NodeId::new(v))))
            .collect();
        let mut local = vec![u32::MAX; g.num_nodes()];
        scc.cyclic_by_smallest_node(g.view())
            .into_iter()
            .map(|c| ComponentArena::component(g.view(), scc.component(c), &comp, &mut local))
            .collect()
    }

    #[test]
    fn one_job_layouts_match_the_full_arena() {
        // Three rings, one with a chord and a self-loop, joined by
        // one-way bridges, plus a node on no cycle.
        let g = from_arc_list(
            7,
            &[
                (4, 5, 5),
                (5, 4, 6),
                (0, 1, 1),
                (1, 0, 2),
                (1, 1, 9),
                (3, 2, 4),
                (2, 3, 3),
                (1, 2, 8),
                (3, 4, 0),
                (5, 6, 7),
            ],
        );
        let arena = ComponentArena::new(g.view());
        let alone = one_job_layouts(&g);
        assert_eq!(arena.len(), 3);
        assert_eq!(alone.len(), arena.len());
        for (j, one) in alone.iter().enumerate() {
            assert_eq!(one.len(), 1);
            assert_eq!(one.view(0), arena.view(j), "job {j}");
            assert_eq!(one.arc_map(0), arena.arc_map(j), "job {j}");
        }
    }

    #[test]
    fn a_one_job_layout_reads_a_component_anywhere_in_the_host() {
        // A 2-cycle on the two highest ids of a larger graph, whose
        // scratch is dirty from another layout.
        let g = from_arc_list(10, &[(8, 9, 2), (9, 8, 3), (0, 1, 1), (1, 0, 1), (7, 8, 5)]);
        let alone = one_job_layouts(&g);
        assert_eq!(alone.len(), 2);
        let high = &alone[1];
        assert_eq!((high.view(0).num_nodes(), high.view(0).num_arcs()), (2, 2));
        assert_eq!(high.arc_map(0), [ArcId::new(1), ArcId::new(0)]);
        assert_eq!(high.view(0).weights(), [3, 2]);
    }

    #[test]
    fn patches_and_renumbering_follow_the_host() {
        // Host arc 0 enters the ring {0, 1, 2} from a node on no cycle.
        let mut g = from_arc_list(4, &[(3, 0, 9), (0, 1, 1), (1, 2, 2), (2, 0, 3), (1, 1, 4)]);
        let mut arena = ComponentArena::new(g.view());
        let local = arena.arc_map(0).iter().position(|&a| a == ArcId::new(3)).expect("kept");
        arena.set_arc_values(ArcId::new(local), -7, 5);
        g.set_arc_values(ArcId::new(3), -7, 5);
        assert_eq!(arena, ComponentArena::new(g.view()));
        g.remove_arc(ArcId::new(0));
        arena.host_arc_removed(ArcId::new(0));
        assert_eq!(arena, ComponentArena::new(g.view()));
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
            let scc = SccDecomposition::new(g.view());
            let mut covered = 0;
            for c in 0..scc.num_components() {
                let nodes = scc.component(c);
                covered += nodes.len();
                let smallest = *nodes.iter().min().expect("nonempty");
                assert_eq!(nodes.last(), Some(&smallest));
                let mut again = nodes.to_vec();
                again.reverse();
                canonical_order(g.view(), &mut again);
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
        let scc = SccDecomposition::new(g.view());
        let c = scc.component_of(NodeId::new(1));
        assert_eq!(scc.component(c), [2, 3, 1].map(NodeId::new));
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        // 100_000-node path; recursive Tarjan would blow the stack.
        let n = 100_000;
        let arcs: Vec<(usize, usize, i64)> = (0..n - 1).map(|i| (i, i + 1, 1)).collect();
        let g = from_arc_list(n, &arcs);
        let scc = SccDecomposition::new(g.view());
        assert_eq!(scc.num_components(), n);
    }
}
