//! Parametric shortest path algorithms: KO (Karp–Orlin) and YTO
//! (Young–Tarjan–Orlin).
//!
//! Both exploit the fact that λ* is the largest λ for which `G_λ` (arc
//! costs `w − λ·t`) has no negative cycle. Starting from λ = −∞ they
//! maintain a tree of shortest paths from an artificial source and
//! increase λ continuously; each tree-path distance is a linear function
//! `a(v) − λ·k(v)` of λ (`a` = path weight, `k` = path transit), so the
//! next λ at which some non-tree arc becomes tight is a rational *event*
//!
//! ```text
//! λ_e = (a(u) + w(e) − a(v)) / (k(u) + t(e) − k(v))
//! ```
//!
//! The minimum event over all arcs triggers a pivot that swaps one tree
//! arc; when a pivot would create a cycle, that cycle has cost exactly
//! zero in `G_λ`, so λ* has been reached and the cycle is a minimum
//! mean (ratio) cycle.
//!
//! The two algorithms differ only in how events are queued — the very
//! difference the paper measures in §4.2:
//!
//! * **KO** keeps one Fibonacci-heap entry *per arc*. After a pivot
//!   moves subtree `T`, every arc with exactly one endpoint in `T` is
//!   deleted and reinserted — many insertions.
//! * **YTO** keeps one entry *per node* (the minimum event over its
//!   incoming arcs). After a pivot only affected node keys are
//!   recomputed and updated in place — far fewer heap operations,
//!   "especially in the number of insertions".
//!
//! Both walk in-arcs, which [`Graph`] does not index: each solve builds
//! its own reverse index into the workspace's [`RevCsr`], listing every
//! node's in-arcs in ascending arc id.

use crate::budget::BudgetScope;
use crate::driver::SccOutcome;
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::rational::Ratio64;
use crate::solution::Guarantee;
use crate::workspace::{RevCsr, Workspace};
use mcr_graph::idx32;
use mcr_graph::heap::{AddressableHeap, FibonacciHeap};
use mcr_graph::{ArcId, Graph, NodeId};
use std::cmp::Ordering;

const ROOT: u32 = u32::MAX;

/// Which event-queue granularity to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum HeapGranularity {
    /// One heap entry per arc (KO).
    PerArc,
    /// One heap entry per node (YTO).
    PerNode,
}

/// An event value `num/den` with `den > 0`, kept unreduced.
///
/// Events are compared far more often than they become λ, so the heap
/// keys skip [`Ratio64::new`]'s gcd: equality and order are by value,
/// with the same `i128` cross-multiply [`Ratio64`]'s order uses, and
/// only the event that closes the optimal cycle is ever reduced.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    num: i64,
    den: i64,
}

impl Event {
    /// The event in lowest terms.
    fn reduce(self) -> Ratio64 {
        Ratio64::new(self.num, self.den)
    }
}

impl Ord for Event {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        let lhs = self.num as i128 * other.den as i128;
        let rhs = other.num as i128 * self.den as i128;
        lhs.cmp(&rhs)
    }
}

impl PartialOrd for Event {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Event {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Event {}

/// What every checked step of the tree arithmetic fails with: a
/// tree-path weight or transit, or an event built from them, left i64.
const OVERFLOW: SolveError = SolveError::Overflow {
    context: "parametric tree-path arithmetic",
};

/// `x + y − z`, added first, each step checked.
#[inline]
fn add_sub(x: i64, y: i64, z: i64) -> Result<i64, SolveError> {
    x.checked_add(y)
        .and_then(|s| s.checked_sub(z))
        .ok_or(OVERFLOW)
}

struct Tree<'g> {
    g: &'g Graph,
    parent_arc: Vec<Option<ArcId>>,
    parent_node: Vec<u32>,
    children: Vec<Vec<u32>>,
    /// Tree-path weight from the artificial root.
    a: Vec<i64>,
    /// Tree-path transit from the artificial root.
    k: Vec<i64>,
    /// `stamp[v] == epoch` iff `v` is in the subtree of the last pivot.
    stamp: Vec<u32>,
    epoch: u32,
    /// The subtree of the last pivot, in breadth-first order; one
    /// buffer for the whole solve.
    sub: Vec<u32>,
}

impl<'g> Tree<'g> {
    /// Builds the shortest path tree for λ → −∞: paths are compared by
    /// `(transit, weight)` lexicographically. With strictly positive
    /// transit times the artificial star (a = 0, k = 0) is already
    /// optimal; zero-transit arcs require a lexicographic Bellman–Ford.
    fn new(g: &'g Graph) -> Result<Self, SolveError> {
        let n = g.num_nodes();
        let mut tree = Tree {
            g,
            parent_arc: vec![None; n],
            parent_node: vec![ROOT; n],
            children: vec![Vec::new(); n],
            a: vec![0; n],
            k: vec![0; n],
            stamp: vec![0; n],
            epoch: 0,
            sub: Vec::with_capacity(n),
        };
        if g.arc_ids().any(|e| g.transit(e) == 0) {
            tree.lexicographic_init()?;
        }
        Ok(tree)
    }

    fn lexicographic_init(&mut self) -> Result<(), SolveError> {
        let g = self.g;
        let n = g.num_nodes();
        let mut changed = true;
        let mut rounds = 0;
        while changed {
            changed = false;
            rounds += 1;
            if rounds > n + 1 {
                // The lexicographic relaxation diverges exactly when
                // some cycle has zero total transit (ratio undefined).
                return Err(SolveError::ZeroTransitCycle);
            }
            for e in g.arc_ids() {
                let u = g.source(e).index();
                let v = g.target(e).index();
                let cand = (
                    self.k[u].checked_add(g.transit(e)).ok_or(OVERFLOW)?,
                    self.a[u].checked_add(g.weight(e)).ok_or(OVERFLOW)?,
                );
                if cand < (self.k[v], self.a[v]) {
                    self.k[v] = cand.0;
                    self.a[v] = cand.1;
                    self.parent_arc[v] = Some(e);
                    self.parent_node[v] = idx32(u);
                    changed = true;
                }
            }
        }
        for v in 0..n {
            if self.parent_arc[v].is_some() {
                self.children[self.parent_node[v] as usize].push(idx32(v));
            }
        }
        Ok(())
    }

    /// The event value of arc `e`, if increasing λ can ever make it
    /// preferable to the current tree path of its target.
    fn event(&self, e: ArcId) -> Result<Option<Event>, SolveError> {
        self.event_parts(
            self.g.source(e).index(),
            self.g.target(e).index(),
            self.g.weight(e),
            self.g.transit(e),
        )
    }

    /// [`Tree::event`] with the arc's endpoints/weight/transit already
    /// at hand (the hot path reads them from the aligned adjacency).
    #[inline]
    fn event_parts(&self, u: usize, v: usize, w: i64, t: i64) -> Result<Option<Event>, SolveError> {
        let den = add_sub(self.k[u], t, self.k[v])?;
        if den <= 0 {
            return Ok(None);
        }
        Ok(Some(Event {
            num: add_sub(self.a[u], w, self.a[v])?,
            den,
        }))
    }

    /// Tree path from `anc` down to `node` (inclusive), as arcs.
    fn path_arcs(&self, anc: usize, node: usize) -> Vec<ArcId> {
        let mut arcs = Vec::new();
        let mut v = node;
        while v != anc {
            let a = self.parent_arc[v].expect("path within the tree");
            arcs.push(a);
            v = self.parent_node[v] as usize;
        }
        arcs.reverse();
        arcs
    }

    #[inline]
    fn in_subtree(&self, v: usize) -> bool {
        self.stamp[v] == self.epoch
    }

    /// Pivots on the popped event arc `e = (u, v)`.
    ///
    /// Collects and stamps `v`'s subtree into [`Tree::sub`] first. If
    /// `u` lies in it, `e` closes a zero-cost cycle in `G_λ`, which is
    /// returned and the tree is left as it was. Otherwise `v` is
    /// re-hung under `u` via `e` and the collected subtree's linear
    /// coefficients shift by the event's numerator and denominator. No
    /// child list in the subtree moves, so its collection order is the
    /// same before and after the re-hang.
    fn pivot(&mut self, e: ArcId) -> Result<Option<Vec<ArcId>>, SolveError> {
        let u = self.g.source(e).index();
        let v = self.g.target(e).index();
        self.epoch += 1;
        self.sub.clear();
        self.sub.push(idx32(v));
        self.stamp[v] = self.epoch;
        let mut head = 0;
        while head < self.sub.len() {
            let x = self.sub[head] as usize;
            head += 1;
            for &c in &self.children[x] {
                self.stamp[c as usize] = self.epoch;
                self.sub.push(c);
            }
        }
        if self.in_subtree(u) {
            let mut cycle = self.path_arcs(v, u);
            cycle.push(e);
            return Ok(Some(cycle));
        }
        let delta_a = add_sub(self.a[u], self.g.weight(e), self.a[v])?;
        let delta_k = add_sub(self.k[u], self.g.transit(e), self.k[v])?;
        debug_assert!(delta_k > 0, "pivot on an invalid crossing");
        // Detach from the old parent.
        match self.parent_node[v] {
            ROOT => {}
            p => {
                let list = &mut self.children[p as usize];
                let pos = list
                    .iter()
                    .position(|&c| c == idx32(v))
                    .expect("child list consistent");
                list.swap_remove(pos);
            }
        }
        self.parent_node[v] = idx32(u);
        self.parent_arc[v] = Some(e);
        self.children[u].push(idx32(v));
        for &x in &self.sub {
            let x = x as usize;
            self.a[x] = self.a[x].checked_add(delta_a).ok_or(OVERFLOW)?;
            self.k[x] = self.k[x].checked_add(delta_k).ok_or(OVERFLOW)?;
        }
        Ok(None)
    }
}

/// Rebuilds `ins` as the reverse index of `g`: list `v` holds the ids of
/// the arcs entering `v`, in ascending order.
fn index_in_arcs(g: &Graph, ins: &mut RevCsr) {
    ins.build(g.num_nodes(), |emit| {
        for (a, t) in g.targets().iter().enumerate() {
            emit(idx32(t.index()), idx32(a));
        }
    });
}

/// The arcs entering `v` as `(arc, source, weight, transit)`, read
/// through the reverse index `ins` of `g`.
#[inline]
fn in_adj<'a>(
    g: &'a Graph,
    ins: &'a RevCsr,
    v: usize,
) -> impl Iterator<Item = (ArcId, usize, i64, i64)> + 'a {
    ins.list(v).iter().map(move |&f| {
        let f = f as usize;
        (
            ArcId::new(f),
            g.sources()[f].index(),
            g.weights()[f],
            g.transits()[f],
        )
    })
}

/// Runs the parametric algorithm on one strongly connected, cyclic
/// component with the chosen heap granularity and LEDA's Fibonacci heap
/// (the study's configuration).
pub(crate) fn solve_scc(
    g: &Graph,
    counters: &mut Counters,
    granularity: HeapGranularity,
    ws: &mut Workspace,
    scope: &mut BudgetScope,
) -> Result<SccOutcome, SolveError> {
    solve_scc_with::<FibonacciHeap<Event>>(g, counters, granularity, ws, scope)
}

/// Heap-generic engine (a unit test runs it on a binary heap against
/// the Fibonacci one). Every pivot charges one budget iteration.
///
/// All path arithmetic is checked: a tree-path weight or transit that
/// leaves `i64` fails the solve with [`SolveError::Overflow`] rather
/// than wrapping into a wrong λ.
pub(crate) fn solve_scc_with<H: AddressableHeap<Event>>(
    g: &Graph,
    counters: &mut Counters,
    granularity: HeapGranularity,
    ws: &mut Workspace,
    scope: &mut BudgetScope,
) -> Result<SccOutcome, SolveError> {
    let n = g.num_nodes();
    let m = g.num_arcs();
    let mut tree = Tree::new(g)?;
    index_in_arcs(g, &mut ws.rev);
    let ins = &ws.rev;

    match granularity {
        HeapGranularity::PerArc => {
            let mut heap: H = H::with_capacity(m);
            for e in g.arc_ids() {
                if let Some(ev) = tree.event(e)? {
                    heap.push(e.index(), ev);
                }
            }
            scope.loop_metrics("core.ko-yto.pivot");
            let outcome = loop {
                let (ei, lam) = heap.pop_min().ok_or(SolveError::NumericRange {
                    context: "KO event queue drained before a cycle event",
                })?;
                let e = ArcId::new(ei);
                counters.iterations += 1;
                scope.tick_iteration_and_time()?;
                scope.chaos_check("core.ko-yto.pivot")?;
                if let Some(cycle) = tree.pivot(e)? {
                    break (lam, cycle);
                }
                // Refresh every arc with exactly one endpoint in the
                // moved subtree (events with both endpoints inside are
                // unchanged: both linear coefficients shift equally).
                for &x in &tree.sub {
                    let xv = NodeId::new(x as usize);
                    for (f, y, w, t) in g.out_adj(xv) {
                        if !tree.in_subtree(y.index()) {
                            refresh_arc(&tree, &mut heap, f, x as usize, y.index(), w, t)?;
                        }
                    }
                    for (f, z, w, t) in in_adj(g, ins, x as usize) {
                        if !tree.in_subtree(z) {
                            refresh_arc(&tree, &mut heap, f, z, x as usize, w, t)?;
                        }
                    }
                }
            };
            counters.heap += heap.counters();
            finish(g, outcome, crate::Algorithm::Ko)
        }
        HeapGranularity::PerNode => {
            let mut heap: H = H::with_capacity(n);
            let mut best_arc: Vec<Option<ArcId>> = vec![None; n];
            // `recomputed[y] == tree.epoch` once boundary node `y` has
            // been recomputed in this pivot: a repeat would see the same
            // tree, pick the same arc and key, and count nothing.
            let mut recomputed = vec![0u32; n];
            for v in 0..n {
                recompute_node(&tree, ins, &mut heap, &mut best_arc, v)?;
            }
            scope.loop_metrics("core.ko-yto.pivot");
            let outcome = loop {
                let (vi, lam) = heap.pop_min().ok_or(SolveError::NumericRange {
                    context: "YTO event queue drained before a cycle event",
                })?;
                let e = best_arc[vi].expect("queued node has a best arc");
                counters.iterations += 1;
                scope.tick_iteration_and_time()?;
                scope.chaos_check("core.ko-yto.pivot")?;
                if let Some(cycle) = tree.pivot(e)? {
                    break (lam, cycle);
                }
                // Nodes whose key may change: everything in the subtree
                // (their tree path moved) plus targets of arcs leaving
                // the subtree (their candidate events moved).
                for &x in &tree.sub {
                    recompute_node(&tree, ins, &mut heap, &mut best_arc, x as usize)?;
                }
                for &x in &tree.sub {
                    for (_f, y, _w, _t) in g.out_adj(NodeId::new(x as usize)) {
                        let y = y.index();
                        if !tree.in_subtree(y) && recomputed[y] != tree.epoch {
                            recomputed[y] = tree.epoch;
                            recompute_node(&tree, ins, &mut heap, &mut best_arc, y)?;
                        }
                    }
                }
            };
            counters.heap += heap.counters();
            finish(g, outcome, crate::Algorithm::Yto)
        }
    }
}

fn refresh_arc<H: AddressableHeap<Event>>(
    tree: &Tree<'_>,
    heap: &mut H,
    f: ArcId,
    u: usize,
    v: usize,
    w: i64,
    t: i64,
) -> Result<(), SolveError> {
    heap.remove(f.index());
    if let Some(ev) = tree.event_parts(u, v, w, t)? {
        heap.push(f.index(), ev);
    }
    Ok(())
}

fn recompute_node<H: AddressableHeap<Event>>(
    tree: &Tree<'_>,
    ins: &RevCsr,
    heap: &mut H,
    best_arc: &mut [Option<ArcId>],
    v: usize,
) -> Result<(), SolveError> {
    let mut best: Option<(Event, ArcId)> = None;
    for (f, u, w, t) in in_adj(tree.g, ins, v) {
        if let Some(ev) = tree.event_parts(u, v, w, t)? {
            if best.is_none_or(|(b, _)| ev < b) {
                best = Some((ev, f));
            }
        }
    }
    match best {
        Some((ev, f)) => {
            best_arc[v] = Some(f);
            heap.update_key(v, ev);
        }
        None => {
            best_arc[v] = None;
            heap.remove(v);
        }
    }
    Ok(())
}

fn finish(
    g: &Graph,
    (lam, cycle): (Event, Vec<ArcId>),
    solved_by: crate::Algorithm,
) -> Result<SccOutcome, SolveError> {
    let lam = lam.reduce();
    debug_assert!(crate::solution::check_cycle(g, &cycle).is_ok());
    debug_assert_eq!(
        {
            let w: i128 = cycle.iter().map(|&a| i128::from(g.weight(a))).sum();
            let t: i128 = cycle.iter().map(|&a| i128::from(g.transit(a))).sum();
            Ratio64::try_from_i128(w, t)
        },
        Some(lam),
        "pivot cycle ratio must equal the event value"
    );
    Ok(SccOutcome {
        lambda: lam,
        cycle,
        guarantee: Guarantee::Exact,
        solved_by,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_graph::graph::from_arc_list;

    fn ko(g: &Graph) -> (Ratio64, Counters) {
        let mut c = Counters::new();
        let mut scope = BudgetScope::unlimited(crate::Algorithm::Ko);
        let s = solve_scc(
            g,
            &mut c,
            HeapGranularity::PerArc,
            &mut Workspace::new(),
            &mut scope,
        )
        .expect("unlimited");
        (s.lambda, c)
    }

    fn yto(g: &Graph) -> (Ratio64, Counters) {
        let mut c = Counters::new();
        let mut scope = BudgetScope::unlimited(crate::Algorithm::Yto);
        let s = solve_scc(
            g,
            &mut c,
            HeapGranularity::PerNode,
            &mut Workspace::new(),
            &mut scope,
        )
        .expect("unlimited");
        (s.lambda, c)
    }

    #[test]
    fn events_compare_and_reduce_like_ratios() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let extreme_nums = [
            i64::MIN + 1,
            -(1 << 62),
            -3,
            -1,
            0,
            1,
            2,
            1 << 62,
            i64::MAX - 1,
            i64::MAX,
        ];
        let extreme_dens = [1, 2, 3, 4, 6, 1 << 31, 1 << 62, i64::MAX - 1, i64::MAX];
        let mut events: Vec<Event> = Vec::new();
        for &num in &extreme_nums {
            for &den in &extreme_dens {
                events.push(Event { num, den });
            }
        }
        // Equal values in different forms.
        for (num, den) in [
            (1, 2),
            (2, 4),
            (-3, 6),
            (-1, 2),
            (0, 7),
            (i64::MAX, i64::MAX),
            (5, 5),
        ] {
            events.push(Event { num, den });
        }
        let mut rng = StdRng::seed_from_u64(18);
        for _ in 0..200 {
            let num = rng.gen_range(i64::MIN + 1..=i64::MAX);
            let den = rng.gen_range(1..=i64::MAX);
            events.push(Event { num, den });
            let (small_num, small_den) = (rng.gen_range(-12..=12), rng.gen_range(1..=12));
            events.push(Event {
                num: small_num,
                den: small_den,
            });
        }
        for &x in &events {
            let rx = Ratio64::new(x.num, x.den);
            assert_eq!(x.reduce(), rx, "{x:?}");
            for &y in &events {
                let ry = Ratio64::new(y.num, y.den);
                assert_eq!(x < y, rx < ry, "{x:?} < {y:?}");
                assert_eq!(x == y, rx == ry, "{x:?} == {y:?}");
                assert_eq!(x.partial_cmp(&y), rx.partial_cmp(&ry), "{x:?} vs {y:?}");
            }
        }
        assert_eq!(Event { num: 2, den: 4 }, Event { num: 1, den: 2 });
    }

    #[test]
    fn the_in_arc_index_lists_each_nodes_in_arcs_in_ascending_id() {
        // Random arc lists over a few nodes, so parallel arcs and
        // self-loops turn up often, then random appends and removes; each
        // list must equal a per-node filter of the arc table.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(30);
        let mut ins = RevCsr::default();
        let mut check = |g: &Graph, ctx: &str| {
            index_in_arcs(g, &mut ins);
            assert_eq!(ins.start.len(), g.num_nodes() + 1, "{ctx}: list count");
            for v in g.node_ids() {
                let want: Vec<u32> = g
                    .arc_ids()
                    .filter(|&a| g.target(a) == v)
                    .map(|a| idx32(a.index()))
                    .collect();
                assert_eq!(ins.list(v.index()), want, "{ctx}: in-arcs of {v:?}");
            }
        };
        for n in 1..8usize {
            let arcs: Vec<(usize, usize, i64)> = (0..rng.gen_range(0..4 * n))
                .map(|_| {
                    (
                        rng.gen_range(0..n),
                        rng.gen_range(0..n),
                        rng.gen_range(-9..=9),
                    )
                })
                .collect();
            let mut g = from_arc_list(n, &arcs);
            check(&g, &format!("{n} nodes"));
            for step in 0..40 {
                if g.num_arcs() > 0 && rng.gen_range(0..5) < 2 {
                    g.remove_arc(ArcId::new(rng.gen_range(0..g.num_arcs())));
                } else {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    g.append_arc(NodeId::new(u), NodeId::new(v), 1, 1);
                }
                check(&g, &format!("{n} nodes, step {step}"));
            }
        }
    }

    #[test]
    fn single_ring() {
        let g = from_arc_list(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)]);
        assert_eq!(ko(&g).0, Ratio64::new(10, 4));
        assert_eq!(yto(&g).0, Ratio64::new(10, 4));
    }

    #[test]
    fn self_loop() {
        let g = from_arc_list(1, &[(0, 0, 3), (0, 0, 9)]);
        assert_eq!(ko(&g).0, Ratio64::from(3));
        assert_eq!(yto(&g).0, Ratio64::from(3));
    }

    #[test]
    fn both_match_brute_force() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        for seed in 0..60 {
            let g = sprand(&SprandConfig::new(10, 26).seed(seed).weight_range(-30, 30));
            let (expected, _) = crate::reference::brute_force_min_mean(&g).expect("cyclic");
            assert_eq!(ko(&g).0, expected, "KO seed {seed}");
            assert_eq!(yto(&g).0, expected, "YTO seed {seed}");
        }
    }

    #[test]
    fn same_pivot_counts_but_fewer_yto_inserts() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        let g = sprand(&SprandConfig::new(80, 320).seed(3));
        let (l1, c1) = ko(&g);
        let (l2, c2) = yto(&g);
        assert_eq!(l1, l2);
        // §4.2/§4.3: same number of iterations, fewer YTO insertions.
        assert_eq!(c1.iterations, c2.iterations);
        assert!(
            c2.heap.inserts < c1.heap.inserts,
            "YTO {} vs KO {}",
            c2.heap.inserts,
            c1.heap.inserts
        );
    }

    #[test]
    fn ratio_with_general_transits() {
        let mut b = mcr_graph::GraphBuilder::new();
        let v = b.add_nodes(3);
        b.add_arc_with_transit(v[0], v[1], 3, 2);
        b.add_arc_with_transit(v[1], v[2], 5, 1);
        b.add_arc_with_transit(v[2], v[0], 2, 3); // cycle ratio 10/6 = 5/3
        b.add_arc_with_transit(v[1], v[0], 9, 1); // cycle ratio 12/3 = 4
        let g = b.build();
        assert_eq!(ko(&g).0, Ratio64::new(5, 3));
        assert_eq!(yto(&g).0, Ratio64::new(5, 3));
    }

    #[test]
    fn ratio_with_zero_transit_arcs() {
        let mut b = mcr_graph::GraphBuilder::new();
        let v = b.add_nodes(3);
        b.add_arc_with_transit(v[0], v[1], -4, 0); // zero-transit shortcut
        b.add_arc_with_transit(v[1], v[2], 1, 2);
        b.add_arc_with_transit(v[2], v[0], 1, 1); // cycle ratio -2/3
        b.add_arc_with_transit(v[0], v[0], 10, 4); // self-loop ratio 5/2
        let g = b.build();
        assert_eq!(ko(&g).0, Ratio64::new(-2, 3));
        assert_eq!(yto(&g).0, Ratio64::new(-2, 3));
    }

    #[test]
    fn binary_heap_engine_matches_fibonacci() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        use mcr_graph::heap::IndexedBinaryHeap;
        for seed in 0..20 {
            let g = sprand(&SprandConfig::new(30, 90).seed(seed).weight_range(-50, 50));
            for granularity in [HeapGranularity::PerArc, HeapGranularity::PerNode] {
                let mut c1 = Counters::new();
                let mut c2 = Counters::new();
                let mut s1 = BudgetScope::unlimited(crate::Algorithm::Ko);
                let mut s2 = BudgetScope::unlimited(crate::Algorithm::Ko);
                let mut ws = Workspace::new();
                let fib = solve_scc(&g, &mut c1, granularity, &mut ws, &mut s1).expect("unlimited");
                let bin = solve_scc_with::<IndexedBinaryHeap<Event>>(
                    &g,
                    &mut c2,
                    granularity,
                    &mut ws,
                    &mut s2,
                )
                .expect("unlimited");
                assert_eq!(fib.lambda, bin.lambda, "seed {seed} {granularity:?}");
                // Tie-breaking may differ between heaps, but both
                // engines must do real work and agree on the optimum.
                assert!(c1.iterations > 0 && c2.iterations > 0);
            }
        }
    }

    #[test]
    fn pathological_ladder_still_exact() {
        let g = mcr_gen::structured::shortcut_ladder(30);
        let (expected, _) = crate::reference::brute_force_min_mean(&g).expect("cyclic");
        assert_eq!(ko(&g).0, expected);
        assert_eq!(yto(&g).0, expected);
    }
}
