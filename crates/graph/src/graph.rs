//! The core immutable digraph type and its builder.

use std::fmt;

/// Error returned by the non-panicking [`GraphBuilder::try_add_arc`]
/// family when an arc would violate a builder invariant.
///
/// The panicking [`GraphBuilder::add_arc`] methods remain available for
/// call sites that construct graphs from trusted, already-validated
/// data; code handling external input (parsers, CLI paths) should use
/// the `try_` variants and surface this error instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// An arc endpoint names a node the builder has not added.
    UnknownEndpoint {
        /// The offending endpoint.
        node: NodeId,
        /// Number of nodes added to the builder so far.
        num_nodes: usize,
    },
    /// An arc carried a negative transit time (cost-to-time ratio
    /// problems require nonnegative transits).
    NegativeTransit {
        /// The offending transit time.
        transit: i64,
    },
    /// The builder reached the compact-index capacity
    /// ([`crate::compact::MAX_INDEX`] arcs); ids are `u32` and cannot
    /// address more.
    CapacityExceeded,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownEndpoint { node, num_nodes } => write!(
                f,
                "arc endpoint {node:?} is not a previously added node (builder has {num_nodes})"
            ),
            GraphError::NegativeTransit { transit } => {
                write!(f, "transit time {transit} is negative")
            }
            GraphError::CapacityExceeded => {
                write!(f, "graph capacity exceeded (ids are u32)")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Dense index of a node in a [`Graph`].
///
/// Node ids are assigned consecutively from zero by [`GraphBuilder`], so
/// they can index flat per-node state arrays directly via
/// [`NodeId::index`].
///
/// ```
/// use mcr_graph::NodeId;
/// let v = NodeId::new(3);
/// assert_eq!(v.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

/// Dense index of an arc in a [`Graph`].
///
/// Arc ids are assigned consecutively from zero in insertion order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArcId(u32);

impl NodeId {
    /// Creates a node id from a raw index (which must lie in the
    /// compact domain, `0..`[`crate::compact::MAX_INDEX`]; the builder
    /// guarantees this for every id it hands out).
    #[inline]
    pub fn new(index: usize) -> Self {
        NodeId(crate::compact::idx32(index))
    }

    /// Returns the raw index, suitable for indexing per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ArcId {
    /// Creates an arc id from a raw index (same compact-domain contract
    /// as [`NodeId::new`]).
    #[inline]
    pub fn new(index: usize) -> Self {
        ArcId(crate::compact::idx32(index))
    }

    /// Returns the raw index, suitable for indexing per-arc arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for ArcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for ArcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An immutable directed graph with `i64` arc weights and transit times:
/// the arc table plus its out-adjacency in compressed (CSR) form.
///
/// Constructed through [`GraphBuilder`]. Parallel arcs and self-loops are
/// allowed (both occur in SPRAND-generated inputs). Forward traversals
/// (Howard, DG, Tarjan, the parametric algorithms) read the
/// out-adjacency; flat relaxation kernels (Karp's recurrence) read the
/// arc table. There is no in-adjacency: the one solver that walks
/// predecessors (KO/YTO) builds its own reverse index per solve.
/// Kernels take a [`GraphRef`], which [`Graph::view`] lends.
///
/// ```
/// use mcr_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// let v = b.add_nodes(2);
/// b.add_arc(v[0], v[1], 5);
/// b.add_arc(v[1], v[0], -1);
/// let g = b.build();
/// assert_eq!(g.out_degree(v[0]), 1);
/// assert_eq!(g.targets().iter().filter(|&&t| t == v[0]).count(), 1);
/// ```
///
/// Equality compares every array, so two graphs are equal exactly when
/// they are byte-equal: same arc list in the same id order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Graph {
    // CSR over arcs sorted by source; `out_arcs[first_out[v]..first_out[v+1]]`
    // are the arcs leaving `v`. The `out_targets`/`out_weights`/
    // `out_transits` arrays are aligned with `out_arcs` so adjacency
    // sweeps touch memory linearly instead of chasing arc ids scattered
    // by insertion order.
    first_out: Vec<u32>,
    out_arcs: Vec<ArcId>,
    out_targets: Vec<NodeId>,
    out_weights: Vec<i64>,
    out_transits: Vec<i64>,
    sources: Vec<NodeId>,
    targets: Vec<NodeId>,
    weights: Vec<i64>,
    transits: Vec<i64>,
}

/// A borrowed view of a graph: the nine arrays a [`Graph`] holds, as
/// slices, with the same accessors. It is `Copy`, so it is passed by
/// value.
///
/// Every kernel reads its input through a `GraphRef`. [`Graph::view`]
/// lends one; so does a job of [`crate::scc::ComponentArena`], which
/// keeps every cyclic component of a graph in one set of arrays. An
/// arena job's arcs are stored in local-source order, so its
/// out-adjacency is the arc table itself: `out_arcs` borrows a shared
/// identity slice and the aligned copies alias the arc table, which is
/// exactly what a [`Graph`] built from the same arc list holds.
///
/// ```
/// use mcr_graph::{graph::from_arc_list, GraphRef, NodeId};
/// let g = from_arc_list(3, &[(0, 1, 4), (1, 2, 6), (2, 0, -1), (0, 0, 2)]);
/// let view: GraphRef<'_> = g.view();
/// assert_eq!(view.num_arcs(), 4);
/// assert_eq!(view.out_arcs(NodeId::new(0)), g.out_arcs(NodeId::new(0)));
/// assert_eq!(view.weights(), g.weights());
/// // A view is `Copy`: hand it on by value.
/// let total = |h: GraphRef<'_>| h.weights().iter().sum::<i64>();
/// assert_eq!(total(view), 11);
/// ```
///
/// Equality compares the slices' contents, so a view equals another
/// exactly when the graphs they show are byte-equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphRef<'a> {
    first_out: &'a [u32],
    out_arcs: &'a [ArcId],
    out_targets: &'a [NodeId],
    out_weights: &'a [i64],
    out_transits: &'a [i64],
    sources: &'a [NodeId],
    targets: &'a [NodeId],
    weights: &'a [i64],
    transits: &'a [i64],
}

impl<'a> GraphRef<'a> {
    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.first_out.len().saturating_sub(1)
    }

    /// Number of arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.sources.len()
    }

    /// Iterates over all node ids in increasing order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + 'a {
        (0..self.num_nodes()).map(NodeId::new)
    }

    /// Iterates over all arc ids in increasing order.
    pub fn arc_ids(&self) -> impl Iterator<Item = ArcId> + 'a {
        (0..self.num_arcs()).map(ArcId::new)
    }

    /// Source node of `arc`.
    #[inline]
    pub fn source(&self, arc: ArcId) -> NodeId {
        self.sources[arc.index()]
    }

    /// Target node of `arc`.
    #[inline]
    pub fn target(&self, arc: ArcId) -> NodeId {
        self.targets[arc.index()]
    }

    /// Weight (cost) of `arc`.
    #[inline]
    pub fn weight(&self, arc: ArcId) -> i64 {
        self.weights[arc.index()]
    }

    /// Transit time of `arc`.
    #[inline]
    pub fn transit(&self, arc: ArcId) -> i64 {
        self.transits[arc.index()]
    }

    /// All arc weights as a slice, indexed by [`ArcId::index`].
    #[inline]
    pub fn weights(&self) -> &'a [i64] {
        self.weights
    }

    /// All arc transit times as a slice, indexed by [`ArcId::index`].
    #[inline]
    pub fn transits(&self) -> &'a [i64] {
        self.transits
    }

    /// All arc source nodes as a slice, indexed by [`ArcId::index`].
    /// Together with [`GraphRef::targets`], [`GraphRef::weights`] and
    /// [`GraphRef::transits`] this exposes the arc table in structure-of-
    /// arrays form, so relaxation kernels can run flat, branch-light
    /// passes over the arc array instead of chasing per-arc accessors.
    #[inline]
    pub fn sources(&self) -> &'a [NodeId] {
        self.sources
    }

    /// All arc target nodes as a slice, indexed by [`ArcId::index`].
    #[inline]
    pub fn targets(&self) -> &'a [NodeId] {
        self.targets
    }

    /// The positions of `v`'s out-arcs in the aligned adjacency arrays.
    #[inline]
    fn out_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.first_out[v.index()] as usize..self.first_out[v.index() + 1] as usize
    }

    /// Arcs leaving `v`, in ascending id.
    #[inline]
    pub fn out_arcs(&self, v: NodeId) -> &'a [ArcId] {
        let out_arcs = self.out_arcs;
        &out_arcs[self.out_range(v)]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_range(v).len()
    }

    /// Iterates over `(arc, successor)` pairs of `v`.
    pub fn out_neighbors(&self, v: NodeId) -> impl Iterator<Item = (ArcId, NodeId)> + 'a {
        let r = self.out_range(v);
        let (arcs, targets) = (self.out_arcs, self.out_targets);
        arcs[r.clone()]
            .iter()
            .zip(&targets[r])
            .map(|(&a, &t)| (a, t))
    }

    /// Iterates over `(arc, target, weight, transit)` of the arcs
    /// leaving `v`, reading the cache-aligned adjacency copies (the hot
    /// path of the breadth-first and parametric algorithms).
    pub fn out_adj(&self, v: NodeId) -> impl Iterator<Item = (ArcId, NodeId, i64, i64)> + 'a {
        let r = self.out_range(v);
        let GraphRef {
            out_arcs,
            out_targets,
            out_weights,
            out_transits,
            ..
        } = *self;
        out_arcs[r.clone()]
            .iter()
            .zip(&out_targets[r.clone()])
            .zip(&out_weights[r.clone()])
            .zip(&out_transits[r])
            .map(|(((&a, &t), &w), &tr)| (a, t, w, tr))
    }

    /// Smallest arc weight, or `None` for an arc-free graph.
    pub fn min_weight(&self) -> Option<i64> {
        self.weights.iter().copied().min()
    }

    /// Largest arc weight, or `None` for an arc-free graph.
    pub fn max_weight(&self) -> Option<i64> {
        self.weights.iter().copied().max()
    }

    /// Whether every arc has transit time 1, i.e. the cost-to-time ratio
    /// problem on this graph coincides with the cycle mean problem.
    pub fn has_unit_transits(&self) -> bool {
        self.transits.iter().all(|&t| t == 1)
    }

    /// A view of a graph whose arcs are stored in source order: its
    /// out-adjacency is the arc table, so `out_arcs` is `identity`'s
    /// first `sources.len()` ids and the aligned copies are the arc table
    /// itself. Only the crate builds these, from arrays it laid out that
    /// way.
    pub(crate) fn source_ordered(
        first_out: &'a [u32],
        identity: &'a [ArcId],
        sources: &'a [NodeId],
        targets: &'a [NodeId],
        weights: &'a [i64],
        transits: &'a [i64],
    ) -> GraphRef<'a> {
        debug_assert!(
            sources.windows(2).all(|p| p[0] <= p[1]),
            "arcs in source order"
        );
        GraphRef {
            first_out,
            out_arcs: &identity[..sources.len()],
            out_targets: targets,
            out_weights: weights,
            out_transits: transits,
            sources,
            targets,
            weights,
            transits,
        }
    }
}

impl<'a> From<&'a Graph> for GraphRef<'a> {
    #[inline]
    fn from(g: &'a Graph) -> GraphRef<'a> {
        g.view()
    }
}

impl Graph {
    /// Lends the graph as a [`GraphRef`]: the same nine arrays, borrowed.
    /// Every accessor below reads through it.
    #[inline]
    pub fn view(&self) -> GraphRef<'_> {
        GraphRef {
            first_out: &self.first_out,
            out_arcs: &self.out_arcs,
            out_targets: &self.out_targets,
            out_weights: &self.out_weights,
            out_transits: &self.out_transits,
            sources: &self.sources,
            targets: &self.targets,
            weights: &self.weights,
            transits: &self.transits,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.view().num_nodes()
    }

    /// Number of arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.sources.len()
    }

    /// Iterates over all node ids in increasing order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.view().node_ids()
    }

    /// Iterates over all arc ids in increasing order.
    pub fn arc_ids(&self) -> impl Iterator<Item = ArcId> + '_ {
        self.view().arc_ids()
    }

    /// Source node of `arc`.
    #[inline]
    pub fn source(&self, arc: ArcId) -> NodeId {
        self.sources[arc.index()]
    }

    /// Target node of `arc`.
    #[inline]
    pub fn target(&self, arc: ArcId) -> NodeId {
        self.targets[arc.index()]
    }

    /// Weight (cost) of `arc`.
    #[inline]
    pub fn weight(&self, arc: ArcId) -> i64 {
        self.weights[arc.index()]
    }

    /// Transit time of `arc` (1 unless set explicitly at build time).
    #[inline]
    pub fn transit(&self, arc: ArcId) -> i64 {
        self.transits[arc.index()]
    }

    /// All arc weights as a slice, indexed by [`ArcId::index`].
    #[inline]
    pub fn weights(&self) -> &[i64] {
        &self.weights
    }

    /// All arc transit times as a slice, indexed by [`ArcId::index`].
    #[inline]
    pub fn transits(&self) -> &[i64] {
        &self.transits
    }

    /// All arc source nodes as a slice, indexed by [`ArcId::index`]
    /// (see [`GraphRef::sources`]).
    #[inline]
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// All arc target nodes as a slice, indexed by [`ArcId::index`].
    #[inline]
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Arcs leaving `v`.
    #[inline]
    pub fn out_arcs(&self, v: NodeId) -> &[ArcId] {
        self.view().out_arcs(v)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.view().out_degree(v)
    }

    /// Iterates over `(arc, successor)` pairs of `v`.
    pub fn out_neighbors(&self, v: NodeId) -> impl Iterator<Item = (ArcId, NodeId)> + '_ {
        self.view().out_neighbors(v)
    }

    /// Iterates over `(arc, target, weight, transit)` of the arcs
    /// leaving `v` (see [`GraphRef::out_adj`]).
    pub fn out_adj(&self, v: NodeId) -> impl Iterator<Item = (ArcId, NodeId, i64, i64)> + '_ {
        self.view().out_adj(v)
    }

    /// Smallest arc weight, or `None` for an arc-free graph.
    pub fn min_weight(&self) -> Option<i64> {
        self.view().min_weight()
    }

    /// Largest arc weight, or `None` for an arc-free graph.
    pub fn max_weight(&self) -> Option<i64> {
        self.view().max_weight()
    }

    /// Whether every arc has transit time 1, i.e. the cost-to-time ratio
    /// problem on this graph coincides with the cycle mean problem.
    pub fn has_unit_transits(&self) -> bool {
        self.view().has_unit_transits()
    }

    /// Returns a graph with every weight negated, leaving transit times
    /// untouched. Maximum mean/ratio problems reduce to minimum ones on
    /// the negated graph.
    ///
    /// ```
    /// use mcr_graph::GraphBuilder;
    /// let mut b = GraphBuilder::new();
    /// let v = b.add_nodes(1);
    /// b.add_arc(v[0], v[0], 7);
    /// let g = b.build().negated();
    /// assert_eq!(g.weight(mcr_graph::ArcId::new(0)), -7);
    /// ```
    pub fn negated(&self) -> Graph {
        let mut g = self.clone();
        for w in &mut g.weights {
            *w = -*w;
        }
        for w in &mut g.out_weights {
            *w = -*w;
        }
        g
    }

    /// Returns the same graph structure with weights replaced by the
    /// provided slice.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.num_arcs()`.
    pub fn with_weights(&self, weights: &[i64]) -> Graph {
        assert_eq!(
            weights.len(),
            self.num_arcs(),
            "weight slice length must equal the number of arcs"
        );
        let mut g = self.clone();
        g.weights.copy_from_slice(weights);
        for (i, a) in g.out_arcs.iter().enumerate() {
            g.out_weights[i] = weights[a.index()];
        }
        g
    }

    /// Overwrites the weight and transit time of `arc` in place, keeping
    /// the aligned adjacency copies in step. The arc set, and so the CSR
    /// layout, is unchanged, which leaves the graph byte-equal to a fresh
    /// [`GraphBuilder`] build of the edited arc list. Costs
    /// `O(out_degree(source))`.
    ///
    /// ```
    /// use mcr_graph::{graph::from_arc_list, ArcId};
    /// let mut g = from_arc_list(2, &[(0, 1, 4), (1, 0, 6)]);
    /// g.set_arc_values(ArcId::new(1), -3, 2);
    /// assert_eq!((g.weight(ArcId::new(1)), g.transit(ArcId::new(1))), (-3, 2));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `arc` is out of range or `transit` is negative.
    pub fn set_arc_values(&mut self, arc: ArcId, weight: i64, transit: i64) {
        assert!(transit >= 0, "transit times must be nonnegative");
        let i = arc.index();
        self.weights[i] = weight;
        self.transits[i] = transit;
        let s = self.sources[i].index();
        let (lo, hi) = (self.first_out[s] as usize, self.first_out[s + 1] as usize);
        let at = lo + self.out_arcs[lo..hi]
            .iter()
            .position(|&a| a == arc)
            .expect("an arc is in its source's out-list");
        self.out_weights[at] = weight;
        self.out_transits[at] = transit;
    }

    /// Appends the arc `source -> target` in place and returns its id,
    /// `num_arcs()` before the call. The new arc has the largest id, so
    /// it goes last in its source's out-list, which leaves the graph equal
    /// to a fresh [`GraphBuilder`] build of the arc list with the arc
    /// pushed on its end. Costs `O(n + m)` (one array shift), against a
    /// rebuild's `O(n + m)` passes and allocations.
    ///
    /// ```
    /// use mcr_graph::{graph::from_arc_list, ArcId, NodeId};
    /// let mut g = from_arc_list(2, &[(0, 1, 4)]);
    /// let a = g.append_arc(NodeId::new(1), NodeId::new(0), 6, 1);
    /// assert_eq!(a, ArcId::new(1));
    /// assert_eq!(g, from_arc_list(2, &[(0, 1, 4), (1, 0, 6)]));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not a node of the graph, if `transit` is
    /// negative, or if the graph already holds
    /// [`crate::compact::MAX_INDEX`] arcs.
    pub fn append_arc(
        &mut self,
        source: NodeId,
        target: NodeId,
        weight: i64,
        transit: i64,
    ) -> ArcId {
        let n = self.num_nodes();
        assert!(
            source.index() < n && target.index() < n,
            "arc endpoints must be nodes of the graph"
        );
        assert!(transit >= 0, "transit times must be nonnegative");
        assert!(
            self.num_arcs() < crate::compact::MAX_INDEX,
            "graph capacity exceeded (ids are u32)"
        );
        let id = ArcId::new(self.num_arcs());
        let s = source.index();
        let at = self.first_out[s + 1] as usize;
        self.out_arcs.insert(at, id);
        self.out_targets.insert(at, target);
        self.out_weights.insert(at, weight);
        self.out_transits.insert(at, transit);
        for f in &mut self.first_out[s + 1..] {
            *f += 1;
        }
        self.sources.push(source);
        self.targets.push(target);
        self.weights.push(weight);
        self.transits.push(transit);
        id
    }

    /// Removes `arc` in place; every higher arc id shifts down by one.
    /// The remaining arcs keep their relative order in every list, which
    /// leaves the graph equal to a fresh [`GraphBuilder`] build of the arc
    /// list with the arc taken out. Costs `O(n + m)`.
    ///
    /// ```
    /// use mcr_graph::{graph::from_arc_list, ArcId};
    /// let mut g = from_arc_list(2, &[(0, 1, 4), (1, 0, 6), (1, 1, 2)]);
    /// g.remove_arc(ArcId::new(0));
    /// assert_eq!(g, from_arc_list(2, &[(1, 0, 6), (1, 1, 2)]));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `arc` is out of range.
    pub fn remove_arc(&mut self, arc: ArcId) {
        let i = arc.index();
        let s = self.sources.remove(i).index();
        self.targets.remove(i);
        self.weights.remove(i);
        self.transits.remove(i);
        let (lo, hi) = (self.first_out[s] as usize, self.first_out[s + 1] as usize);
        let at = lo
            + self.out_arcs[lo..hi]
                .iter()
                .position(|&a| a == arc)
                .expect("an arc is in its source's out-list");
        self.out_arcs.remove(at);
        self.out_targets.remove(at);
        self.out_weights.remove(at);
        self.out_transits.remove(at);
        for f in &mut self.first_out[s + 1..] {
            *f -= 1;
        }
        for a in &mut self.out_arcs {
            a.0 -= u32::from(a.0 > arc.0);
        }
    }

    /// Returns the reverse graph: every arc `(u, v)` becomes `(v, u)`
    /// with the same weight and transit time.
    pub fn reversed(&self) -> Graph {
        let mut b = GraphBuilder::with_capacity(self.num_nodes(), self.num_arcs());
        b.add_nodes(self.num_nodes());
        for a in self.arc_ids() {
            b.add_arc_with_transit(self.target(a), self.source(a), self.weight(a), self.transit(a));
        }
        b.build()
    }
}

/// Incremental builder for [`Graph`].
///
/// ```
/// use mcr_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// let u = b.add_node();
/// let v = b.add_node();
/// b.add_arc(u, v, 10);
/// b.add_arc_with_transit(v, u, 3, 2);
/// let g = b.build();
/// assert_eq!(g.num_arcs(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    sources: Vec<NodeId>,
    targets: Vec<NodeId>,
    weights: Vec<i64>,
    transits: Vec<i64>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with storage preallocated for `arcs`
    /// arcs. Only arc storage is preallocated: nodes are a count, so
    /// `nodes` is accepted for call-site symmetry and otherwise unused.
    pub fn with_capacity(_nodes: usize, arcs: usize) -> Self {
        GraphBuilder {
            num_nodes: 0,
            sources: Vec::with_capacity(arcs),
            targets: Vec::with_capacity(arcs),
            weights: Vec::with_capacity(arcs),
            transits: Vec::with_capacity(arcs),
        }
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of arcs added so far.
    pub fn num_arcs(&self) -> usize {
        self.sources.len()
    }

    /// Adds one node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics when the builder already holds
    /// [`crate::compact::MAX_INDEX`] nodes (ids are `u32`; at 16+ bytes
    /// of per-node state the graph would not fit in memory long before
    /// this bound matters).
    pub fn add_node(&mut self) -> NodeId {
        assert!(
            self.num_nodes < crate::compact::MAX_INDEX,
            "graph capacity exceeded (node ids are u32)"
        );
        let id = NodeId::new(self.num_nodes);
        self.num_nodes += 1;
        id
    }

    /// Adds `count` nodes and returns their ids in order.
    pub fn add_nodes(&mut self, count: usize) -> Vec<NodeId> {
        (0..count).map(|_| self.add_node()).collect()
    }

    /// Adds an arc with transit time 1 and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint has not been added to the builder.
    pub fn add_arc(&mut self, source: NodeId, target: NodeId, weight: i64) -> ArcId {
        self.add_arc_with_transit(source, target, weight, 1)
    }

    /// Adds an arc with an explicit transit time and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint has not been added, or if `transit` is
    /// negative (cost-to-time ratio problems require nonnegative transit
    /// times with positive total transit on every cycle).
    pub fn add_arc_with_transit(
        &mut self,
        source: NodeId,
        target: NodeId,
        weight: i64,
        transit: i64,
    ) -> ArcId {
        match self.try_add_arc_with_transit(source, target, weight, transit) {
            Ok(id) => id,
            Err(GraphError::UnknownEndpoint { .. }) => {
                panic!("arc endpoints must be previously added nodes")
            }
            Err(GraphError::NegativeTransit { .. }) => {
                panic!("transit times must be nonnegative")
            }
            Err(GraphError::CapacityExceeded) => {
                panic!("graph capacity exceeded (ids are u32)")
            }
        }
    }

    /// Non-panicking [`GraphBuilder::add_arc`]: adds an arc with transit
    /// time 1, or reports why it cannot.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownEndpoint`] if either endpoint has
    /// not been added to the builder.
    pub fn try_add_arc(
        &mut self,
        source: NodeId,
        target: NodeId,
        weight: i64,
    ) -> Result<ArcId, GraphError> {
        self.try_add_arc_with_transit(source, target, weight, 1)
    }

    /// Non-panicking [`GraphBuilder::add_arc_with_transit`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownEndpoint`] if either endpoint has
    /// not been added, or [`GraphError::NegativeTransit`] if `transit`
    /// is negative.
    pub fn try_add_arc_with_transit(
        &mut self,
        source: NodeId,
        target: NodeId,
        weight: i64,
        transit: i64,
    ) -> Result<ArcId, GraphError> {
        for node in [source, target] {
            if node.index() >= self.num_nodes {
                return Err(GraphError::UnknownEndpoint {
                    node,
                    num_nodes: self.num_nodes,
                });
            }
        }
        if transit < 0 {
            return Err(GraphError::NegativeTransit { transit });
        }
        if self.sources.len() >= crate::compact::MAX_INDEX {
            return Err(GraphError::CapacityExceeded);
        }
        let id = ArcId::new(self.sources.len());
        self.sources.push(source);
        self.targets.push(target);
        self.weights.push(weight);
        self.transits.push(transit);
        Ok(id)
    }

    /// Finalizes the builder into an immutable [`Graph`].
    pub fn build(self) -> Graph {
        let n = self.num_nodes;
        let m = self.sources.len();

        let mut first_out = vec![0u32; n + 1];
        for s in &self.sources {
            first_out[s.index() + 1] += 1;
        }
        for v in 0..n {
            first_out[v + 1] += first_out[v];
        }

        let mut out_arcs = vec![ArcId::new(0); m];
        let mut out_cursor = first_out.clone();
        for (i, s) in self.sources.iter().enumerate() {
            let c = &mut out_cursor[s.index()];
            out_arcs[*c as usize] = ArcId::new(i);
            *c += 1;
        }
        // Aligned adjacency copies for linear-memory sweeps.
        let out_targets: Vec<NodeId> = out_arcs.iter().map(|a| self.targets[a.index()]).collect();
        let out_weights: Vec<i64> = out_arcs.iter().map(|a| self.weights[a.index()]).collect();
        let out_transits: Vec<i64> = out_arcs.iter().map(|a| self.transits[a.index()]).collect();

        Graph {
            first_out,
            out_arcs,
            out_targets,
            out_weights,
            out_transits,
            sources: self.sources,
            targets: self.targets,
            weights: self.weights,
            transits: self.transits,
        }
    }
}

/// Builds a graph from an arc list `(source, target, weight)` over nodes
/// `0..num_nodes`, with unit transit times.
///
/// ```
/// let g = mcr_graph::graph::from_arc_list(2, &[(0, 1, 4), (1, 0, 6)]);
/// assert_eq!(g.num_arcs(), 2);
/// ```
///
/// # Panics
///
/// Panics if an endpoint is out of `0..num_nodes`.
pub fn from_arc_list(num_nodes: usize, arcs: &[(usize, usize, i64)]) -> Graph {
    let mut b = GraphBuilder::with_capacity(num_nodes, arcs.len());
    b.add_nodes(num_nodes);
    for &(u, v, w) in arcs {
        b.add_arc(NodeId::new(u), NodeId::new(v), w);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_degree(g: &Graph, v: NodeId) -> usize {
        g.targets().iter().filter(|&&t| t == v).count()
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_arcs(), 0);
        assert!(g.min_weight().is_none());
        assert!(g.max_weight().is_none());
        assert!(g.has_unit_transits());
    }

    #[test]
    fn single_self_loop() {
        let g = from_arc_list(1, &[(0, 0, -3)]);
        let v = NodeId::new(0);
        assert_eq!(g.out_degree(v), 1);
        assert_eq!(in_degree(&g, v), 1);
        let a = g.out_arcs(v)[0];
        assert_eq!(g.source(a), v);
        assert_eq!(g.target(a), v);
        assert_eq!(g.weight(a), -3);
        assert_eq!(g.transit(a), 1);
    }

    #[test]
    fn parallel_arcs_are_kept() {
        let g = from_arc_list(2, &[(0, 1, 1), (0, 1, 2), (0, 1, 3)]);
        assert_eq!(g.num_arcs(), 3);
        assert_eq!(g.out_degree(NodeId::new(0)), 3);
        assert_eq!(in_degree(&g, NodeId::new(1)), 3);
        let ws: Vec<i64> = g
            .out_arcs(NodeId::new(0))
            .iter()
            .map(|&a| g.weight(a))
            .collect();
        assert_eq!(ws.iter().sum::<i64>(), 6);
    }

    #[test]
    fn a_view_answers_every_accessor_like_its_graph() {
        // Random arc lists over up to 7 nodes, so self-loops, parallel
        // arcs, isolated nodes and the empty graph all turn up; half the
        // graphs get transits 0..=3 patched in.
        let mut x = 0x5851_f42d_4c95_7f2du64;
        let mut next = |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        for round in 0..200 {
            let n = next(8) as usize;
            let m = if n == 0 { 0 } else { next(16) as usize };
            let arcs: Vec<(usize, usize, i64)> = (0..m)
                .map(|_| {
                    (
                        next(n as u64) as usize,
                        next(n as u64) as usize,
                        next(21) as i64 - 10,
                    )
                })
                .collect();
            let mut g = from_arc_list(n, &arcs);
            if round % 2 == 1 {
                for a in 0..m {
                    let w = g.weight(ArcId::new(a));
                    g.set_arc_values(ArcId::new(a), w, next(4) as i64);
                }
            }
            let v = g.view();
            assert_eq!(v, GraphRef::from(&g));
            assert_eq!((v.num_nodes(), v.num_arcs()), (g.num_nodes(), g.num_arcs()));
            assert!(v.node_ids().eq(g.node_ids()));
            assert!(v.arc_ids().eq(g.arc_ids()));
            for a in g.arc_ids() {
                assert_eq!(v.source(a), g.source(a));
                assert_eq!(v.target(a), g.target(a));
                assert_eq!(v.weight(a), g.weight(a));
                assert_eq!(v.transit(a), g.transit(a));
            }
            assert_eq!(v.sources(), g.sources());
            assert_eq!(v.targets(), g.targets());
            assert_eq!(v.weights(), g.weights());
            assert_eq!(v.transits(), g.transits());
            for u in g.node_ids() {
                assert_eq!(v.out_arcs(u), g.out_arcs(u));
                assert_eq!(v.out_degree(u), g.out_degree(u));
                assert!(v.out_neighbors(u).eq(g.out_neighbors(u)));
                assert!(v.out_adj(u).eq(g.out_adj(u)));
            }
            assert_eq!(v.min_weight(), g.min_weight());
            assert_eq!(v.max_weight(), g.max_weight());
            assert_eq!(v.has_unit_transits(), g.has_unit_transits());
            // Each accessor reads the graph's own arrays, not a copy.
            assert!(std::ptr::eq(v.weights(), g.weights()));
        }
    }

    #[test]
    fn csr_adjacency_is_consistent() {
        let g = from_arc_list(4, &[(0, 1, 1), (1, 2, 2), (2, 0, 3), (2, 3, 4), (3, 3, 5)]);
        for v in g.node_ids() {
            for &a in g.out_arcs(v) {
                assert_eq!(g.source(a), v);
            }
            let mut ids: Vec<ArcId> = g.out_arcs(v).to_vec();
            ids.sort_unstable();
            assert_eq!(ids, g.out_arcs(v), "out-arcs in ascending id");
        }
        let total_out: usize = g.node_ids().map(|v| g.out_degree(v)).sum();
        assert_eq!(total_out, g.num_arcs());
    }

    #[test]
    fn negated_flips_weights_only() {
        let mut b = GraphBuilder::new();
        let v = b.add_nodes(2);
        b.add_arc_with_transit(v[0], v[1], 4, 3);
        let g = b.build().negated();
        let a = ArcId::new(0);
        assert_eq!(g.weight(a), -4);
        assert_eq!(g.transit(a), 3);
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let g = from_arc_list(3, &[(0, 1, 1), (1, 2, 2)]);
        let r = g.reversed();
        assert_eq!(r.num_arcs(), 2);
        assert_eq!(r.source(ArcId::new(0)), NodeId::new(1));
        assert_eq!(r.target(ArcId::new(0)), NodeId::new(0));
        assert_eq!(r.out_degree(NodeId::new(2)), 1);
    }

    #[test]
    fn with_weights_replaces_weights() {
        let g = from_arc_list(2, &[(0, 1, 1), (1, 0, 2)]);
        let h = g.with_weights(&[10, 20]);
        assert_eq!(h.weight(ArcId::new(0)), 10);
        assert_eq!(h.weight(ArcId::new(1)), 20);
        // Structure unchanged.
        assert_eq!(h.target(ArcId::new(0)), NodeId::new(1));
    }

    #[test]
    fn set_arc_values_matches_a_fresh_build_of_the_edited_arcs() {
        // A small xorshift stream: arcs over 6 nodes, so self-loops and
        // parallel arcs both turn up, then 200 random in-place patches.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        let n = 6;
        let mut arcs: Vec<(usize, usize, i64, i64)> = (0..40)
            .map(|_| (next(n) as usize, next(n) as usize, next(21) as i64 - 10, next(4) as i64))
            .collect();
        arcs.extend([(2, 2, 5, 1), (2, 2, -5, 0), (0, 3, 1, 1), (0, 3, 1, 1)]);
        let build = |arcs: &[(usize, usize, i64, i64)]| {
            let mut b = GraphBuilder::new();
            b.add_nodes(n as usize);
            for &(s, t, w, tr) in arcs {
                b.add_arc_with_transit(NodeId::new(s), NodeId::new(t), w, tr);
            }
            b.build()
        };
        let mut g = build(&arcs);
        for _ in 0..200 {
            let a = next(arcs.len() as u64) as usize;
            let (w, tr) = (next(2001) as i64 - 1000, next(5) as i64);
            arcs[a].2 = w;
            arcs[a].3 = tr;
            g.set_arc_values(ArcId::new(a), w, tr);
        }
        assert_eq!(g, build(&arcs));
    }

    #[test]
    fn appends_and_removes_match_a_fresh_build_of_the_edited_arcs() {
        // Random append/remove sequences over 5 nodes (self-loops and
        // parallel arcs turn up often), checked against a rebuild after
        // every step. The forced cases cover node 0, node n - 1, arc 0
        // and the last arc.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        let n = 5usize;
        let build = |arcs: &[(usize, usize, i64, i64)]| {
            let mut b = GraphBuilder::new();
            b.add_nodes(n);
            for &(s, t, w, tr) in arcs {
                b.add_arc_with_transit(NodeId::new(s), NodeId::new(t), w, tr);
            }
            b.build()
        };
        let mut arcs: Vec<(usize, usize, i64, i64)> = Vec::new();
        let mut g = build(&arcs);
        let forced = [
            (0, 0),         // self-loop on node 0
            (n - 1, n - 1), // self-loop on node n - 1
            (0, n - 1),
            (n - 1, 0),
            (0, n - 1), // parallel to the arc two steps back
        ];
        for (step, &(s, t)) in forced.iter().enumerate() {
            let (w, tr) = (step as i64 - 2, step as i64 % 3);
            arcs.push((s, t, w, tr));
            assert_eq!(
                g.append_arc(NodeId::new(s), NodeId::new(t), w, tr),
                ArcId::new(step)
            );
            assert_eq!(g, build(&arcs), "forced append {step}");
        }
        for step in 0..400 {
            let remove = !arcs.is_empty() && next(5) < 2;
            if remove {
                let a = match next(4) {
                    0 => 0,
                    1 => arcs.len() - 1,
                    _ => next(arcs.len() as u64) as usize,
                };
                arcs.remove(a);
                g.remove_arc(ArcId::new(a));
            } else {
                let (s, t) = (next(n as u64) as usize, next(n as u64) as usize);
                let (w, tr) = (next(41) as i64 - 20, next(4) as i64);
                arcs.push((s, t, w, tr));
                g.append_arc(NodeId::new(s), NodeId::new(t), w, tr);
            }
            assert_eq!(g, build(&arcs), "step {step} (remove: {remove})");
        }
        while !arcs.is_empty() {
            arcs.remove(0);
            g.remove_arc(ArcId::new(0));
            assert_eq!(g, build(&arcs), "draining at {} arcs", arcs.len());
        }
    }

    #[test]
    #[should_panic(expected = "endpoints")]
    fn append_arc_rejects_an_unknown_endpoint() {
        let mut g = from_arc_list(2, &[(0, 1, 1)]);
        g.append_arc(NodeId::new(0), NodeId::new(2), 1, 1);
    }

    #[test]
    #[should_panic(expected = "transit")]
    fn set_arc_values_rejects_negative_transit() {
        let mut g = from_arc_list(1, &[(0, 0, 1)]);
        g.set_arc_values(ArcId::new(0), 1, -1);
    }

    #[test]
    #[should_panic(expected = "weight slice length")]
    fn with_weights_rejects_wrong_length() {
        let g = from_arc_list(2, &[(0, 1, 1)]);
        let _ = g.with_weights(&[1, 2]);
    }

    #[test]
    #[should_panic(expected = "endpoints")]
    fn arc_to_unknown_node_panics() {
        let mut b = GraphBuilder::new();
        let u = b.add_node();
        b.add_arc(u, NodeId::new(5), 1);
    }

    #[test]
    #[should_panic(expected = "transit")]
    fn negative_transit_panics() {
        let mut b = GraphBuilder::new();
        let v = b.add_nodes(2);
        b.add_arc_with_transit(v[0], v[1], 1, -1);
    }

    #[test]
    fn try_add_reports_typed_errors_without_mutating() {
        let mut b = GraphBuilder::new();
        let v = b.add_nodes(2);
        assert_eq!(
            b.try_add_arc(v[0], NodeId::new(7), 1),
            Err(GraphError::UnknownEndpoint {
                node: NodeId::new(7),
                num_nodes: 2
            })
        );
        assert_eq!(
            b.try_add_arc_with_transit(v[0], v[1], 1, -3),
            Err(GraphError::NegativeTransit { transit: -3 })
        );
        // Failed attempts leave the builder untouched.
        assert_eq!(b.num_arcs(), 0);
        let id = b.try_add_arc_with_transit(v[0], v[1], 5, 2).expect("valid");
        assert_eq!(id, ArcId::new(0));
        let g = b.build();
        assert_eq!(g.weight(id), 5);
        assert_eq!(g.transit(id), 2);
    }

    #[test]
    fn graph_error_displays_the_offender() {
        let err = GraphError::UnknownEndpoint {
            node: NodeId::new(9),
            num_nodes: 3,
        };
        assert!(err.to_string().contains("n9"));
        let err = GraphError::NegativeTransit { transit: -4 };
        assert!(err.to_string().contains("-4"));
    }

    #[test]
    fn min_max_weight() {
        let g = from_arc_list(3, &[(0, 1, -5), (1, 2, 7), (2, 0, 0)]);
        assert_eq!(g.min_weight(), Some(-5));
        assert_eq!(g.max_weight(), Some(7));
    }

    #[test]
    fn id_display_and_debug() {
        assert_eq!(format!("{}", NodeId::new(4)), "4");
        assert_eq!(format!("{:?}", NodeId::new(4)), "n4");
        assert_eq!(format!("{}", ArcId::new(9)), "9");
        assert_eq!(format!("{:?}", ArcId::new(9)), "e9");
    }
}
