//! Incremental (online) minimum cycle mean / cycle ratio solving.
//!
//! [`DynamicSolver`] owns a graph as an editable arc list, accepts
//! [`Edit`] batches (insert / delete / reweight / retime), and
//! re-answers λ* with a certified witness after each batch without
//! re-solving every component from scratch.
//!
//! # How incrementality works
//!
//! The per-SCC driver already decomposes every solve into independent
//! component jobs (`driver.rs`). An edit batch usually touches a
//! few arcs, so most components of the edited graph are **byte-identical**
//! to components of the previous graph — and a component job's outcome
//! is a deterministic function of its subgraph bytes alone (job indices
//! only key checkpoint/obs bookkeeping, which this solver disables).
//! The solver therefore:
//!
//! 1. keeps the topology-derived state alive across batches: the CSR
//!    graph, the strongly connected components (each named by its
//!    smallest node), a topological order of them, the cyclic component
//!    jobs in the driver's canonical job order (by smallest node, each
//!    job's nodes in [`canonical_order`]), each laid out in a
//!    [`ComponentArena`] of its own by the routine that lays out the
//!    driver's arena, a host-arc → component-arc map, and each
//!    component's fingerprint. Jobs hold the caller's weights in either
//!    orientation: a maximize negates a job's weights only when it
//!    solves it. The first solve builds the state with one Tarjan run
//!    over the whole graph, exactly as a from-scratch solve would; no
//!    later batch runs one. An insert or delete patches the CSR graph
//!    in place ([`Graph::append_arc`], [`Graph::remove_arc`]; byte-equal
//!    to a rebuild) and renumbers the arc maps, then updates only the
//!    components the arc can touch ([`TopologyPath`] names each case):
//!    * a delete between two components changes nothing;
//!    * a delete inside component `C` lays `C` out again and runs
//!      Tarjan on that layout alone. If `C` stays whole, the layout
//!      becomes its job (laid out once more only when the delete moved
//!      `C`'s canonical order); if it splits, its pieces take `C`'s
//!      place in the order and its cyclic pieces become jobs at their
//!      canonical places;
//!    * an insert inside one component extracts that job again (a node
//!      gaining its first self-loop becomes a job); an insert that the
//!      order already respects changes nothing;
//!    * an insert against the order searches forward from its head,
//!      visiting only components placed between the head and the tail
//!      (the forward half of Pearce–Kelly). The components it reaches
//!      that reach the tail lie on a path from head to tail and merge
//!      into one job; the components it reached move after the others
//!      placed between the two.
//!
//!    Because both job order and each job's node numbering depend on the
//!    component's own arcs alone, the jobs, subgraphs and fingerprints
//!    after every edit equal a from-scratch build; only the topological
//!    order may differ from a fresh one, and it stays valid;
//! 2. patches that state in place for a batch made only of
//!    [`Edit::Reweight`] / [`Edit::Retime`]: each edit rewrites one arc
//!    of the host graph in `O(out-degree)` ([`Graph::set_arc_values`])
//!    and of its component's job in `O(1)`. The arc set is unchanged,
//!    so the CSR, the job order and every subgraph stay byte-equal to a
//!    rebuild, and only the patched components are re-fingerprinted;
//! 3. keeps, per job, its last successful result next to its
//!    fingerprint: the outcome, its per-job [`Counters`] and its cache
//!    key. Every patch, re-extraction or failed solve puts the job on a
//!    stale list, and a batch re-fingerprints and visits only that list,
//!    in job order; every other job counts as a cache hit without a
//!    lookup. A visited job whose fingerprint (plus size) is in the
//!    fingerprint cache reuses that outcome (a component edited back,
//!    or a byte-identical twin); an error is never kept or cached. A
//!    cache entry named by a live job is in use and never evicted; once
//!    its last user lets go it ages from the last batch that visited the
//!    jobs, so hit and miss totals equal a lookup of every job on every
//!    batch;
//! 4. solves only the missed components, each with the kernel call the
//!    crate's route table (`route.rs`) picks for the [`SolveSpec`] —
//!    the same table [`crate::spec::solve_spec`]'s driver calls, under
//!    the same budget, deadline and cancel token, with the same typed
//!    errors. The precision is computed only when a kernel of the route
//!    reads it (the default chain is exact); then it joins every key, and
//!    a batch that moves it (the default follows the weight range) stales
//!    every job. An explicit invalid precision still fails first; and
//! 5. keeps the counter total as a running sum (the old counters of a
//!    re-solved job out, its new ones in, exact in `u128` and clamped to
//!    `u64`, which equals the saturating merge), and re-enters the
//!    driver's reduction over the kept outcomes in job order, so
//!    tie-breaks, error precedence, witness arc mapping and counter
//!    totals are bit-identical to a from-scratch solve.
//!
//! Because kept and cached outcomes are replayed byte-for-byte and both the
//! route table and the reduction are shared with `solve_spec`, the
//! returned [`Solution`] is **bit-identical** to `solve_spec` on the
//! edited graph — λ*, witness, guarantee, `solved_by`, and counters —
//! and so is every typed error (`dynamic_differential.rs` pins this
//! after every edit of every script, at 1/2/8 threads).
//!
//! # Full-solve fallback
//!
//! Some requests cannot be answered from the component cache and fall
//! back to a full [`solve_spec`] run (tracked by the
//! `dynamic.solve.full` vs `dynamic.solve.incremental` counter pair):
//!
//! * a ratio spec whose algorithm has no ratio kernel (the Karp family
//!   and OA1): the route table has no per-component route for it, and
//!   `solve_spec` solves the transit expansion of the whole graph, a
//!   derived graph the component cache cannot key;
//! * a chaos fault at `core.dynamic.apply` (cache and patched topology
//!   state dropped before the solve) or `core.dynamic.certify`
//!   (incremental answer rejected);
//! * a witness that fails [`certify`] — the cache is cleared, the
//!   topology state is rebuilt from the arc list, and the batch is
//!   re-answered from scratch, never returned unverified.
//!
//! Every returned solution — incremental or full — is certified exactly
//! once against the current graph: the incremental answer at the gate,
//! or the from-scratch answer that replaces it.

use crate::certify::certify;
use crate::driver::{oriented, reduce_outcomes, SccOutcome};
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::options::SolveOptions;
use crate::route::{self, route_for, Route};
use crate::solution::Solution;
use crate::spec::{solve_spec, Objective, SolveSpec, SpecError};
use crate::workspace::Workspace;
pub use mcr_graph::edit::{ArcSpec, Edit};
use mcr_graph::hash::{fnv1a_word, FNV1A_OFFSET};
use mcr_graph::heap::HeapCounters;
use mcr_graph::scc::canonical_order;
use mcr_graph::{
    idx32, ArcId, ComponentArena, Graph, GraphBuilder, GraphRef, NodeId, SccDecomposition,
};
use std::collections::{BTreeMap, VecDeque};

/// Whether a batch was answered from the component cache or by a full
/// from-scratch solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveMode {
    /// At least part of the work was covered by cached component
    /// outcomes (or the graph was acyclic — nothing to solve).
    Incremental,
    /// Everything was re-solved from scratch.
    Full,
}

impl SolveMode {
    /// Stable wire name (`"incremental"` / `"full"`), used by the CLI
    /// and the `mcrd` `edit` response's `mode` field.
    pub fn name(self) -> &'static str {
        match self {
            SolveMode::Incremental => "incremental",
            SolveMode::Full => "full",
        }
    }
}

/// The answer for one edit batch.
#[derive(Clone, Debug)]
pub struct DynamicOutcome {
    /// The certified solution, or `None` when the edited graph is
    /// acyclic (mirrors [`solve_spec`]'s `Ok(None)`).
    pub solution: Option<Solution>,
    /// Cache-or-full provenance of this answer.
    pub mode: SolveMode,
    /// Component jobs answered from the cache.
    pub cache_hits: usize,
    /// Component jobs solved fresh this batch.
    pub cache_misses: usize,
    /// How the batch kept the component decomposition current.
    pub topology: TopologyPath,
}

/// The fingerprint cache's key: a job's fingerprint, with the precision
/// folded in when the route reads one, and the job's size, so two jobs
/// share an entry only as byte-identical subproblems (the size guards
/// against fingerprint collisions, like [`crate::SccPlan`]'s node/arc
/// check).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct CacheKey {
    fingerprint: u64,
    nodes: usize,
    arcs: usize,
}

/// A cached component outcome plus the counters its solve accumulated.
#[derive(Clone, Debug)]
struct CacheEntry {
    outcome: SccOutcome,
    counters: Counters,
    /// Live jobs whose kept result names this entry. An entry in use is
    /// never evicted.
    users: u32,
    /// While unused: the last batch that visited the jobs while one of
    /// them still named this entry.
    epoch: u64,
}

/// Entries unused for this many consecutive batches are evicted.
const RETAIN_EPOCHS: u64 = 16;

/// The fingerprint cache, for components whose bytes come back: a job
/// edited away and then restored, or a byte-identical twin of another
/// job. An entry ages only once no live job names it, so eviction sees
/// the ages a cache stamped by every job on every batch would.
#[derive(Debug, Default)]
struct Cache {
    entries: BTreeMap<CacheKey, CacheEntry>,
    /// Entries whose last user let go, with the epoch stamped then,
    /// oldest first. A record goes stale when its entry is used again.
    released: VecDeque<(u64, CacheKey)>,
    /// The last batch that visited the jobs (reached the solve loop).
    visited: u64,
}

impl Cache {
    fn clear(&mut self) {
        self.entries.clear();
        self.released.clear();
    }

    /// A hit: one more job names `key`'s entry. Returns its outcome and
    /// counters.
    fn acquire(&mut self, key: CacheKey) -> Option<(SccOutcome, Counters)> {
        let entry = self.entries.get_mut(&key)?;
        entry.users += 1;
        Some((entry.outcome.clone(), entry.counters))
    }

    /// A solved miss: a new entry, named by the job that solved it.
    fn insert(&mut self, key: CacheKey, outcome: SccOutcome, counters: Counters) {
        let entry = CacheEntry {
            outcome,
            counters,
            users: 1,
            epoch: 0,
        };
        self.entries.insert(key, entry);
    }

    /// A job stops naming `key`'s entry. The last user to let go stamps
    /// it with the last visit, the batch that last saw a job name it.
    fn release(&mut self, key: CacheKey) {
        let Some(entry) = self.entries.get_mut(&key) else { return };
        entry.users -= 1;
        if entry.users == 0 {
            entry.epoch = self.visited;
            self.released.push_back((self.visited, key));
        }
    }

    /// Drops the entries unused for [`RETAIN_EPOCHS`] batches as of
    /// batch `epoch`. Stamps only grow, so the oldest come first.
    fn evict(&mut self, epoch: u64) {
        while let Some(&(stamp, key)) = self.released.front() {
            if stamp.saturating_add(RETAIN_EPOCHS) > epoch {
                break;
            }
            self.released.pop_front();
            if self
                .entries
                .get(&key)
                .is_some_and(|e| e.users == 0 && e.epoch == stamp)
            {
                self.entries.remove(&key);
            }
        }
    }
}

/// One job's last successful result, kept next to its fingerprint until
/// an edit or a new precision stales it, or a split or merge drops the
/// job.
#[derive(Clone, Debug, PartialEq)]
struct Kept {
    /// The cache entry holding the same result.
    key: CacheKey,
    outcome: SccOutcome,
    counters: Counters,
}

/// The exact field-by-field sum of a set of [`Counters`], in a width no
/// run of `u64` terms overflows, so a term can be taken back out. Its
/// clamp to `u64` equals the saturating [`Counters::merge`] of the same
/// terms in any order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct CounterSum([u128; 10]);

impl CounterSum {
    fn fields(c: &Counters) -> [u64; 10] {
        let Counters {
            iterations,
            relaxations,
            distance_updates,
            arcs_visited,
            cycles_examined,
            oracle_calls,
            heap:
                HeapCounters {
                    inserts,
                    decrease_keys,
                    delete_mins,
                    removals,
                },
        } = *c;
        [
            iterations,
            relaxations,
            distance_updates,
            arcs_visited,
            cycles_examined,
            oracle_calls,
            inserts,
            decrease_keys,
            delete_mins,
            removals,
        ]
    }

    fn add(&mut self, c: &Counters) {
        for (sum, v) in self.0.iter_mut().zip(Self::fields(c)) {
            *sum += u128::from(v);
        }
    }

    /// Takes back a term added earlier.
    fn sub(&mut self, c: &Counters) {
        for (sum, v) in self.0.iter_mut().zip(Self::fields(c)) {
            *sum -= u128::from(v);
        }
    }

    fn total(&self) -> Counters {
        let [
            iterations,
            relaxations,
            distance_updates,
            arcs_visited,
            cycles_examined,
            oracle_calls,
            inserts,
            decrease_keys,
            delete_mins,
            removals,
        ] = self.0.map(|v| u64::try_from(v).unwrap_or(u64::MAX));
        Counters {
            iterations,
            relaxations,
            distance_updates,
            arcs_visited,
            cycles_examined,
            oracle_calls,
            heap: HeapCounters {
                inserts,
                decrease_keys,
                delete_mins,
                removals,
            },
        }
    }
}

/// The `Split::owner` component of an arc outside every cyclic
/// component.
const NO_JOB: u32 = u32::MAX;

/// How a batch kept the component decomposition current, from no change
/// to a build from the arc list. A batch whose edits took several paths
/// reports the one listed last here.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TopologyPath {
    /// No component changed: a weight-only batch, a delete between two
    /// components, or an insert that respects the component order.
    None,
    /// An insert or delete inside one component that leaves its node set
    /// as it was: that one job is extracted again (or dropped, when a
    /// single node loses its last self-loop).
    Reextract,
    /// An insert against the component order that closes no cycle: the
    /// components between its endpoints are reordered locally.
    Reorder,
    /// A delete that split a component: Tarjan ran on that component's
    /// job subgraph alone.
    Split,
    /// An insert that closed a cycle: the components on the paths from
    /// its head back to its tail merged into one.
    Merge,
    /// A build from the arc list: the first solve, or a fallback to a
    /// full solve.
    Full,
}

impl TopologyPath {
    /// Stable name (`none`, `re-extract`, `reorder`, `local-split`,
    /// `merge`, `full-build`), used by `mcr dynamic` and the
    /// `dynamic.topology.*` counters.
    pub fn name(self) -> &'static str {
        match self {
            TopologyPath::None => "none",
            TopologyPath::Reextract => "re-extract",
            TopologyPath::Reorder => "reorder",
            TopologyPath::Split => "local-split",
            TopologyPath::Merge => "merge",
            TopologyPath::Full => "full-build",
        }
    }
}

/// The topology-derived state of the current graph (module docs, steps
/// 1–2). Every edit patches it in place, and after every edit it is
/// again the state a fresh build of the arc list would give, save the
/// topological order of the components, which is only kept valid.
#[derive(Debug)]
struct Topo {
    /// The current graph.
    graph: Graph,
    /// Its component decomposition and jobs; `None` for a spec with no
    /// per-component route, which always solves in full.
    split: Option<Split>,
}

/// The strongly connected components of the graph, a topological order
/// of them, the component jobs in canonical order, and each job's kept
/// result.
///
/// A component is named by its smallest node, its *id*. Each job holds
/// its component's nodes in [`canonical_order`], so a job depends on its
/// component's arcs alone, and jobs are sorted by id: both equal a fresh
/// build's whatever the edits that led here.
#[derive(Debug)]
struct Split {
    /// Per node: the id of its component.
    comp: Vec<u32>,
    /// Per component id: its place in `order`.
    pos: Vec<u32>,
    /// Every component id, in a topological order of the condensation:
    /// an arc between two components goes from the earlier to the later.
    order: Vec<u32>,
    /// The cyclic components' jobs, by id, each an arena of one job in
    /// the caller's weights.
    jobs: Vec<ComponentArena>,
    /// Per job: its component id (strictly increasing).
    job_comp: Vec<u32>,
    /// Per job: its component's nodes, node `i` of the job's subgraph
    /// first.
    members: Vec<Vec<NodeId>>,
    /// Host arc → (component id, local arc) for arcs inside a cyclic
    /// component, `(NO_JOB, _)` for the rest.
    owner: Vec<(u32, ArcId)>,
    /// Per job: the epsilon-free FNV-1a state of its subgraph.
    hashes: Vec<u64>,
    /// Per job, ratio objective only: whether it holds a zero-transit
    /// cycle. Such a cycle lies inside one cyclic component, so these
    /// flags together answer `has_zero_transit_cycle` for the graph.
    zero_transit: Vec<bool>,
    /// Per job: on `queue`.
    stale: Vec<bool>,
    /// The ids of the jobs the next solve re-fingerprints and visits, in
    /// no order: each patched, extracted or left without a kept result
    /// since the last visit. Every other job holds a kept result for its
    /// current bytes.
    queue: Vec<u32>,
    /// Per job: its kept result, `None` while it is stale or its last
    /// solve failed (an error is never kept).
    kept: Vec<Option<Kept>>,
    /// The sum of the kept results' counters.
    total: CounterSum,
    /// The bits of the precision the kept keys fold in, `None` for a
    /// route that reads none.
    epsilon: Option<u64>,
    /// The ids of the jobs extracted since the batch began.
    extracted: Vec<u32>,
    /// The heaviest path the batch's edits took so far.
    path: TopologyPath,
    /// Scratch for laying out one job.
    local: Vec<u32>,
    /// Per component id: the search's marks, all clear outside a search.
    seen: Vec<bool>,
}

impl Topo {
    /// Builds the state of `arcs` from scratch: the CSR graph, then,
    /// when `per_component`, one Tarjan pass over it.
    fn build(nodes: usize, arcs: &[ArcSpec], per_component: bool) -> Topo {
        let graph = build_graph(nodes, arcs);
        let split = per_component.then(|| Split::build(&graph));
        Topo { graph, split }
    }

    /// Rewrites one arc's weight and transit in the graph and in its
    /// job, and marks its component stale.
    fn set_arc_values(&mut self, arc: usize, weight: i64, transit: i64) {
        self.graph.set_arc_values(ArcId::new(arc), weight, transit);
        let Some(split) = &mut self.split else { return };
        let (c, local) = split.owner[arc];
        if let Some(j) = split.job_of(c) {
            split.jobs[j].set_arc_values(local, weight, transit);
            split.mark(j);
        }
    }

    /// Appends an arc to the graph in place, then updates the
    /// components ([`Split::insert_arc`]).
    fn append_arc(&mut self, src: usize, dst: usize, weight: i64, transit: i64, cache: &mut Cache) {
        let (u, v) = (NodeId::new(src), NodeId::new(dst));
        self.graph.append_arc(u, v, weight, transit);
        if let Some(split) = &mut self.split {
            split.insert_arc(&self.graph, u, v, cache);
        }
    }

    /// Removes an arc from the graph in place, renumbers the arc maps,
    /// then updates the components ([`Split::delete_arc`]).
    fn remove_arc(&mut self, arc: usize, cache: &mut Cache) {
        self.graph.remove_arc(ArcId::new(arc));
        if let Some(split) = &mut self.split {
            split.delete_arc(&self.graph, arc, cache);
        }
    }

    /// Ends a topology batch: returns its `(reused, extracted)` split of
    /// the jobs, where a job is extracted when the batch extracted it,
    /// and the heaviest path its edits took.
    fn settle(&mut self) -> ((usize, usize), TopologyPath) {
        let Some(split) = &mut self.split else { return ((0, 0), TopologyPath::None) };
        let mut ids = std::mem::take(&mut split.extracted);
        ids.sort_unstable();
        ids.dedup();
        let extracted = ids.iter().filter(|&&c| split.job_of(c).is_some()).count();
        let path = std::mem::replace(&mut split.path, TopologyPath::None);
        ((split.jobs.len() - extracted, extracted), path)
    }

    /// Re-fingerprints (and, for the ratio objective, re-checks for a
    /// zero-transit cycle) every stale job, and lets go of its kept
    /// result.
    fn refresh(&mut self, ratio: bool, cache: &mut Cache) {
        let Some(split) = &mut self.split else { return };
        let queue = std::mem::take(&mut split.queue);
        for &c in &queue {
            let j = split.live_job(c);
            let sub = split.jobs[j].view(0);
            split.hashes[j] = fingerprint(sub);
            split.zero_transit[j] = ratio && crate::ratio::has_zero_transit_cycle(sub);
            if let Some(old) = split.set_kept(j, None) {
                cache.release(old.key);
            }
        }
        split.queue = queue;
    }
}

impl Split {
    /// Runs Tarjan on `target` (the only whole-graph run a solver makes
    /// per build) and lays out one stale job per cyclic component.
    fn build(target: &Graph) -> Split {
        let scc = SccDecomposition::new(target.view());
        let n = target.num_nodes();
        let mut split = Split {
            comp: vec![0; n],
            pos: vec![0; n],
            order: Vec::with_capacity(scc.num_components()),
            jobs: Vec::new(),
            job_comp: Vec::new(),
            members: Vec::new(),
            owner: vec![(NO_JOB, ArcId::new(0)); target.num_arcs()],
            hashes: Vec::new(),
            zero_transit: Vec::new(),
            stale: Vec::new(),
            queue: Vec::new(),
            kept: Vec::new(),
            total: CounterSum::default(),
            epsilon: None,
            extracted: Vec::new(),
            path: TopologyPath::None,
            local: vec![0; n],
            seen: vec![false; n],
        };
        // Tarjan emits the components in reverse topological order, each
        // ending with its smallest node.
        for c in (0..scc.num_components()).rev() {
            let nodes = scc.component(c);
            let id = smallest(nodes);
            for v in nodes {
                split.comp[v.index()] = id;
            }
            split.pos[id as usize] = idx32(split.order.len());
            split.order.push(id);
        }
        for c in scc.cyclic_by_smallest_node(target.view()) {
            split.insert_job(target, scc.component(c).to_vec());
        }
        split.extracted.clear();
        split
    }

    /// The job of component `c`, if `c` is cyclic.
    fn job_of(&self, c: u32) -> Option<usize> {
        self.job_comp.binary_search(&c).ok()
    }

    /// The job of component `c`, which the caller knows is cyclic.
    fn live_job(&self, c: u32) -> usize {
        self.job_of(c).expect("a queued or owning component has a job")
    }

    /// Queues job `j` for the next solve.
    fn mark(&mut self, j: usize) {
        if !std::mem::replace(&mut self.stale[j], true) {
            self.queue.push(self.job_comp[j]);
        }
    }

    /// Replaces job `j`'s kept result, keeping `total` its counters' sum.
    /// Returns the old one, whose cache entry the caller releases.
    fn set_kept(&mut self, j: usize, kept: Option<Kept>) -> Option<Kept> {
        if let Some(new) = &kept {
            self.total.add(&new.counters);
        }
        let old = std::mem::replace(&mut self.kept[j], kept);
        if let Some(old) = &old {
            self.total.sub(&old.counters);
        }
        old
    }

    /// Points `owner` at job `j` for every arc of its subgraph.
    fn own(&mut self, j: usize) {
        let c = self.job_comp[j];
        for (local, host) in self.jobs[j].arc_map(0).iter().enumerate() {
            self.owner[host.index()] = (c, ArcId::new(local));
        }
    }

    /// Points the owners at job `j`, just laid out, and marks it stale.
    fn placed(&mut self, j: usize) {
        self.own(j);
        self.mark(j);
        self.extracted.push(self.job_comp[j]);
    }

    /// Puts job `j`'s nodes back in canonical order (an arc edited
    /// inside the component can move it) and lays the job out again from
    /// `target`, or takes `layout`, a layout of its old order, when the
    /// order stayed.
    fn reextract(&mut self, target: &Graph, j: usize, layout: Option<ComponentArena>) {
        let old = layout.is_some().then(|| self.members[j].clone());
        canonical_order(target.view(), &mut self.members[j]);
        self.jobs[j] = match layout {
            Some(job) if old.as_ref() == Some(&self.members[j]) => job,
            _ => {
                let nodes = &self.members[j];
                ComponentArena::component(target.view(), nodes, &self.comp, &mut self.local)
            }
        };
        self.placed(j);
    }

    /// Adds a stale job for the cyclic component `nodes` (in canonical
    /// order, so its id comes last, and named in `comp`), at its place
    /// in job order.
    fn insert_job(&mut self, target: &Graph, nodes: Vec<NodeId>) {
        let c = smallest(&nodes);
        let j = self.job_comp.partition_point(|&d| d < c);
        let job = ComponentArena::component(target.view(), &nodes, &self.comp, &mut self.local);
        self.jobs.insert(j, job);
        self.job_comp.insert(j, c);
        self.members.insert(j, nodes);
        self.hashes.insert(j, 0);
        self.zero_transit.insert(j, false);
        self.stale.insert(j, false);
        self.kept.insert(j, None);
        self.placed(j);
    }

    /// Drops job `j`, releasing its kept result and clearing the owner
    /// of the arcs it still owns (a deleted arc's stale entry in its arc
    /// map names some other arc). Returns its node list.
    fn remove_job(&mut self, j: usize, cache: &mut Cache) -> Vec<NodeId> {
        if let Some(old) = self.set_kept(j, None) {
            cache.release(old.key);
        }
        let c = self.job_comp.remove(j);
        if self.stale.remove(j) {
            self.queue.retain(|&d| d != c);
        }
        for host in self.jobs.remove(j).arc_map(0) {
            if let Some(owner) = self.owner.get_mut(host.index()).filter(|o| o.0 == c) {
                *owner = (NO_JOB, ArcId::new(0));
            }
        }
        self.hashes.remove(j);
        self.zero_transit.remove(j);
        self.kept.remove(j);
        self.members.remove(j)
    }

    /// Sets `pos` from `order` for the slots in `slots`.
    fn renumber(&mut self, slots: std::ops::Range<usize>) {
        for i in slots {
            self.pos[self.order[i] as usize] = idx32(i);
        }
    }

    /// The component of each arc's head, for every arc leaving a node of
    /// component `c`.
    fn successors<'a>(&'a self, g: &'a Graph, c: u32) -> impl Iterator<Item = u32> + 'a {
        let (nodes, single) = match self.job_of(c) {
            Some(j) => (&self.members[j][..], None),
            None => (&[][..], Some(NodeId::new(c as usize))),
        };
        nodes
            .iter()
            .copied()
            .chain(single)
            .flat_map(move |x| g.out_neighbors(x))
            .map(move |(_, w)| self.comp[w.index()])
    }

    /// Records that the batch took `path`.
    fn took(&mut self, path: TopologyPath) {
        self.path = self.path.max(path);
    }

    /// Updates the components for the arc `u → v` just appended to
    /// `target`. Inside one component it re-extracts that job (or makes
    /// a job of a node that gains its first self-loop). Between two
    /// components that the order already puts `u`'s first it changes
    /// nothing. Otherwise it restores the order ([`Split::restore_order`]).
    fn insert_arc(&mut self, target: &Graph, u: NodeId, v: NodeId, cache: &mut Cache) {
        self.owner.push((NO_JOB, ArcId::new(0)));
        let (cu, cv) = (self.comp[u.index()], self.comp[v.index()]);
        if cu == cv {
            match self.job_of(cu) {
                Some(j) => self.reextract(target, j, None),
                None => self.insert_job(target, vec![u]),
            }
            self.took(TopologyPath::Reextract);
        } else if self.pos[cu as usize] > self.pos[cv as usize] {
            self.restore_order(target, cu, cv, cache);
        }
    }

    /// Restores the order after an arc from component `cu` to the earlier
    /// component `cv` (the forward half of Pearce–Kelly). Let `F` be the
    /// components a forward search from `cv` reaches through places in
    /// `[pos cv, pos cu]`. Every component on a path from `cv` to `cu` is
    /// placed in that range, so it is in `F`, and the new cycle, if any,
    /// is the members of `F` that reach `cu`. One pass over the range in
    /// decreasing place finds them: an arc inside the range runs to a
    /// later place, so a component's successors are classified before
    /// it, and the pass reads only arcs the search already read. The
    /// range's slots then hold the components outside `F`, the merged
    /// component (if any), then the rest of `F`, each group in its old
    /// order. That order is valid. No arc leaves `F` for a range
    /// component outside `F`, or the search would have reached it. No
    /// arc runs from the rest of `F` into the merge, or its tail would
    /// reach `cu`. The new arc runs from outside `F` into it, or lies
    /// inside the merge. Every other arc keeps its direction.
    fn restore_order(&mut self, target: &Graph, cu: u32, cv: u32, cache: &mut Cache) {
        let lo = self.pos[cv as usize] as usize;
        let hi = self.pos[cu as usize] as usize;
        // Marks `F`, then, from the pass on, the members of `F` not ruled
        // out of the merge.
        let mut seen = std::mem::take(&mut self.seen);
        seen[cv as usize] = true;
        let mut stack = vec![cv];
        while let Some(c) = stack.pop() {
            for d in self.successors(target, c) {
                if !seen[d as usize] && (lo..=hi).contains(&(self.pos[d as usize] as usize)) {
                    seen[d as usize] = true;
                    stack.push(d);
                }
            }
        }
        let (mut outside, mut merged, mut rest) = (Vec::new(), Vec::new(), Vec::new());
        for &c in self.order[lo..=hi].iter().rev() {
            if !seen[c as usize] {
                outside.push(c);
            } else if c == cu
                || self
                    .successors(target, c)
                    .any(|d| d != c && seen[d as usize])
            {
                merged.push(c);
            } else {
                seen[c as usize] = false;
                rest.push(c);
            }
        }
        for &c in &merged {
            seen[c as usize] = false;
        }
        self.seen = seen;
        let mut placed: Vec<u32> = outside.into_iter().rev().collect();
        let mut nodes = Vec::new();
        for &c in &merged {
            match self.job_of(c) {
                Some(j) => nodes.extend(self.remove_job(j, cache)),
                None => nodes.push(NodeId::new(c as usize)),
            }
        }
        if !nodes.is_empty() {
            canonical_order(target.view(), &mut nodes);
            let id = smallest(&nodes);
            for v in &nodes {
                self.comp[v.index()] = id;
            }
            placed.push(id);
        }
        placed.extend(rest.iter().rev());
        self.order.splice(lo..=hi, placed);
        if nodes.is_empty() {
            self.renumber(lo..hi + 1);
            self.took(TopologyPath::Reorder);
        } else {
            self.renumber(lo..self.order.len());
            self.insert_job(target, nodes);
            self.took(TopologyPath::Merge);
        }
    }

    /// Updates the components after host arc `arc` left `target`. Every
    /// arc map is renumbered first. An arc between two components changes
    /// nothing. Inside component `C`, Tarjan runs on a fresh layout of
    /// `C` alone: if it finds one component, the layout becomes the job
    /// (laid out again if the delete moved `C`'s canonical order; dropped
    /// if `C` lost its only cycle, a self-loop); otherwise `C`'s pieces
    /// take `C`'s place in the order and its cyclic pieces become jobs at
    /// their places in job order.
    fn delete_arc(&mut self, target: &Graph, arc: usize, cache: &mut Cache) {
        let (c, _) = self.owner.remove(arc);
        for job in &mut self.jobs {
            job.host_arc_removed(ArcId::new(arc));
        }
        let Some(j) = self.job_of(c) else { return };
        let nodes = &self.members[j];
        let layout = ComponentArena::component(target.view(), nodes, &self.comp, &mut self.local);
        let sub = layout.view(0);
        let pieces = SccDecomposition::new(sub);
        if pieces.num_components() == 1 {
            if pieces.is_cyclic_component(sub, 0) {
                self.reextract(target, j, Some(layout));
            } else {
                self.remove_job(j, cache);
            }
            self.took(TopologyPath::Reextract);
            return;
        }
        let old = self.remove_job(j, cache);
        let at = self.pos[c as usize] as usize;
        let (mut ids, mut cyclic) = (Vec::new(), Vec::new());
        // Tarjan emits the pieces in reverse topological order. Every
        // piece is named before any is laid out, since a layout reads
        // the names.
        for p in (0..pieces.num_components()).rev() {
            let mut nodes: Vec<NodeId> = pieces.component(p).iter().map(|l| old[l.index()]).collect();
            if nodes.iter().min() != nodes.last() {
                canonical_order(target.view(), &mut nodes);
            }
            let id = smallest(&nodes);
            for v in &nodes {
                self.comp[v.index()] = id;
            }
            ids.push(id);
            if pieces.is_cyclic_component(sub, p) {
                cyclic.push(nodes);
            }
        }
        for nodes in cyclic {
            self.insert_job(target, nodes);
        }
        self.order.splice(at..=at, ids);
        self.renumber(at..self.order.len());
        self.took(TopologyPath::Split);
    }
}

/// The id of a component whose nodes are in canonical order: its last,
/// smallest node.
fn smallest(nodes: &[NodeId]) -> u32 {
    idx32(nodes.last().expect("a component has a node").index())
}

/// A persistent, incrementally updatable MCM/MCR solver.
///
/// Construct it from a graph plus the [`SolveSpec`] and
/// [`SolveOptions`] it will answer under (both fixed for the solver's
/// lifetime: one solver per question, orientation included, since its
/// cache keeps the answers of one question), then feed it [`Edit`]
/// batches via [`apply`]. Its jobs hold the caller's weights; a
/// maximize negates a job's weights each time it solves that job.
///
/// [`SolveOptions::plan`] and [`SolveOptions::checkpoints`] are
/// stripped at construction: a frozen plan cannot follow edits, and
/// checkpoint keys are job indices, which edits renumber — both would
/// break the bit-identity contract. Budget, deadline, cancel token,
/// epsilon and the fallback chain all apply per batch exactly as they do
/// to [`solve_spec`]. `threads` does not: an incremental batch solves
/// its missed jobs one after another on the calling thread, and only
/// the full-solve fallback runs the driver on `threads` workers. The
/// answer does not depend on the thread count either way.
///
/// [`apply`]: DynamicSolver::apply
#[derive(Debug)]
pub struct DynamicSolver {
    nodes: usize,
    arcs: Vec<ArcSpec>,
    spec: SolveSpec,
    opts: SolveOptions,
    /// The per-component route of `spec`; `None` for a ratio spec
    /// solved by transit expansion, which always solves in full.
    route: Option<Route>,
    cache: Cache,
    /// Batches so far, this one included.
    epoch: u64,
    /// Topology-derived state of `arcs`; `None` until the first solve
    /// builds it (and after a chaos fault drops it).
    topo: Option<Topo>,
    /// Jobs the most recent topology update reused and extracted.
    rebuild_jobs: (usize, usize),
    /// Whole-graph Tarjan runs so far.
    tarjan_runs: u64,
}

impl DynamicSolver {
    /// Snapshots `g` (arc list in arc-id order — the same order a
    /// rebuild reproduces) and prepares an empty component cache. The
    /// first [`solve`](DynamicSolver::solve) is a full solve that warms
    /// the cache.
    pub fn new(g: &Graph, spec: SolveSpec, opts: SolveOptions) -> DynamicSolver {
        let arcs = g
            .arc_ids()
            .map(|a| ArcSpec {
                src: g.source(a).index(),
                dst: g.target(a).index(),
                weight: g.weight(a),
                transit: g.transit(a),
            })
            .collect();
        DynamicSolver::from_parts(g.num_nodes(), arcs, spec, opts)
    }

    fn from_parts(
        nodes: usize,
        arcs: Vec<ArcSpec>,
        spec: SolveSpec,
        mut opts: SolveOptions,
    ) -> DynamicSolver {
        opts.plan = None;
        opts.checkpoints = None;
        DynamicSolver {
            nodes,
            arcs,
            route: route_for(&spec, &opts),
            spec,
            opts,
            cache: Cache::default(),
            epoch: 0,
            topo: None,
            rebuild_jobs: (0, 0),
            tarjan_runs: 0,
        }
    }

    /// Number of nodes (fixed — edits touch arcs only).
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Current number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// The current arc list, indexed by the arc ids edits refer to.
    pub fn arcs(&self) -> &[ArcSpec] {
        &self.arcs
    }

    /// How the most recent topology update (the first solve, a batch
    /// that inserts or deletes arcs, or a fallback to a full solve) got
    /// its component jobs: `(reused, extracted)`, where a reused job is
    /// carried over unchanged from the state before the batch. `(0, 0)`
    /// before the first solve.
    pub fn rebuild_jobs(&self) -> (usize, usize) {
        self.rebuild_jobs
    }

    /// How many times the solver has run Tarjan over the whole graph:
    /// once for each build from the arc list (the first solve, a
    /// fallback to a full solve). Inserts and deletes re-decompose only
    /// the components they touch ([`DynamicOutcome::topology`]).
    pub fn tarjan_runs(&self) -> u64 {
        self.tarjan_runs
    }

    /// Materializes the current graph. Arc ids in
    /// returned witnesses index this graph. After a solve this is a copy
    /// of the solver's own graph, with no rebuild.
    pub fn current_graph(&self) -> Graph {
        match &self.topo {
            Some(topo) => topo.graph.clone(),
            None => build_graph(self.nodes, &self.arcs),
        }
    }

    /// Serializes the solver's graph state as `mcr-dynamic v1` plain
    /// text (header line, then one `src dst weight transit` line per
    /// arc). The component cache is deliberately not serialized —
    /// answers are a function of graph content, so a restored solver
    /// re-answers identically after one cold (full) solve.
    pub fn checkpoint(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "mcr-dynamic v1 nodes={} arcs={}\n",
            self.nodes,
            self.arcs.len()
        ));
        for a in &self.arcs {
            out.push_str(&format!("{} {} {} {}\n", a.src, a.dst, a.weight, a.transit));
        }
        out
    }

    /// Restores a solver from [`checkpoint`](DynamicSolver::checkpoint)
    /// text. The cache starts cold; answers are bit-identical to the
    /// solver that produced the checkpoint from the first batch on.
    pub fn from_checkpoint(
        text: &str,
        spec: SolveSpec,
        opts: SolveOptions,
    ) -> Result<DynamicSolver, SpecError> {
        let bad = |msg: String| SpecError::Input(format!("mcr-dynamic v1 checkpoint: {msg}"));
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| bad("empty input".into()))?;
        let rest = header
            .strip_prefix("mcr-dynamic v1 ")
            .ok_or_else(|| bad(format!("unrecognized header `{header}`")))?;
        let mut nodes: Option<usize> = None;
        let mut arc_count: Option<usize> = None;
        for field in rest.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| bad(format!("malformed header field `{field}`")))?;
            let parsed = value
                .parse::<usize>()
                .map_err(|_| bad(format!("invalid {key} `{value}`")))?;
            match key {
                "nodes" => nodes = Some(parsed),
                "arcs" => arc_count = Some(parsed),
                other => return Err(bad(format!("unknown header field `{other}`"))),
            }
        }
        let nodes = nodes.ok_or_else(|| bad("header is missing nodes=".into()))?;
        let arc_count = arc_count.ok_or_else(|| bad("header is missing arcs=".into()))?;
        let mut arcs = Vec::with_capacity(arc_count);
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let mut next_num = |what: &str| -> Result<i64, SpecError> {
                it.next()
                    .ok_or_else(|| bad(format!("arc line `{line}` is missing {what}")))?
                    .parse::<i64>()
                    .map_err(|_| bad(format!("arc line `{line}`: invalid {what}")))
            };
            let src = next_num("src")?;
            let dst = next_num("dst")?;
            let weight = next_num("weight")?;
            let transit = next_num("transit")?;
            if it.next().is_some() {
                return Err(bad(format!("arc line `{line}` has trailing fields")));
            }
            let arc = ArcSpec {
                src: usize::try_from(src).map_err(|_| bad(format!("negative src {src}")))?,
                dst: usize::try_from(dst).map_err(|_| bad(format!("negative dst {dst}")))?,
                weight,
                transit,
            };
            validate_arc(nodes, &arc).map_err(bad)?;
            arcs.push(arc);
        }
        if arcs.len() != arc_count {
            return Err(bad(format!(
                "header declared {arc_count} arcs but {} followed",
                arcs.len()
            )));
        }
        Ok(DynamicSolver::from_parts(nodes, arcs, spec, opts))
    }

    /// Applies one edit batch **atomically** and re-solves.
    ///
    /// One validation pass checks every edit against the evolving arc
    /// count before anything changes: if any edit is invalid (arc index
    /// out of range, endpoint out of range, negative transit) the whole
    /// batch is rejected with [`SpecError::Input`] and the solver is
    /// unchanged. A *solve* error (e.g. [`SolveError::ZeroTransitCycle`],
    /// budget exhaustion) commits the edits and reports the error,
    /// exactly as a from-scratch [`solve_spec`] of the edited graph
    /// would.
    pub fn apply(&mut self, edits: &[Edit]) -> Result<DynamicOutcome, SpecError> {
        let weight_only =
            validate_edits(self.nodes, self.arcs.len(), edits).map_err(SpecError::Input)?;
        for edit in edits {
            match *edit {
                Edit::InsertArc {
                    src,
                    dst,
                    weight,
                    transit,
                } => {
                    self.arcs.push(ArcSpec {
                        src,
                        dst,
                        weight,
                        transit,
                    });
                    if let Some(topo) = &mut self.topo {
                        topo.append_arc(src, dst, weight, transit, &mut self.cache);
                    }
                }
                Edit::DeleteArc { arc } => {
                    self.arcs.remove(arc);
                    if let Some(topo) = &mut self.topo {
                        topo.remove_arc(arc, &mut self.cache);
                    }
                }
                Edit::Reweight { arc, weight } => {
                    self.set_arc_values(arc, weight, self.arcs[arc].transit)
                }
                Edit::Retime { arc, transit } => {
                    self.set_arc_values(arc, self.arcs[arc].weight, transit)
                }
            }
        }
        self.solve_batch(edits.len() as u64, !weight_only)
    }

    /// Writes one arc's new values, patching the topology state in
    /// place when it is built.
    fn set_arc_values(&mut self, arc: usize, weight: i64, transit: i64) {
        let a = &mut self.arcs[arc];
        a.weight = weight;
        a.transit = transit;
        if let Some(topo) = &mut self.topo {
            topo.set_arc_values(arc, weight, transit);
        }
    }

    /// Re-solves the current graph without editing it (the initial
    /// full solve, or a re-answer after an error).
    pub fn solve(&mut self) -> Result<DynamicOutcome, SpecError> {
        self.solve_batch(0, false)
    }

    /// Builds the topology state of the current arc list from scratch.
    fn rebuild(&mut self) -> Topo {
        let topo = Topo::build(self.nodes, &self.arcs, self.route.is_some());
        self.tarjan_runs += u64::from(topo.split.is_some());
        self.record_jobs((0, topo.split.as_ref().map_or(0, |s| s.jobs.len())));
        topo
    }

    /// Records how the latest topology update got its jobs.
    fn record_jobs(&mut self, split: (usize, usize)) {
        self.rebuild_jobs = split;
        crate::obs::dynamic_rebuild(self.opts.recorder.as_ref(), split.0 as u64, split.1 as u64);
    }

    /// Solves the state the batch's edits left behind. `topology` is
    /// whether the batch inserted or deleted an arc.
    fn solve_batch(&mut self, edits: u64, topology: bool) -> Result<DynamicOutcome, SpecError> {
        self.epoch += 1;
        let recorder = self.opts.recorder.clone();
        let recorder = recorder.as_ref();
        // A fault at the apply site simulates corrupted incremental
        // state: drop the cache and the patched topology state, forcing
        // this batch down the full path. The answer must be unchanged
        // (chaos suite pins this).
        if crate::chaos::fail_hit("core.dynamic.apply", recorder) {
            self.cache.clear();
            self.topo = None;
        }
        crate::chaos::pulse("core.dynamic.rebuild", recorder);
        let mut path = TopologyPath::None;
        let mut topo = match self.topo.take() {
            Some(mut topo) => {
                if topology {
                    let (split, taken) = topo.settle();
                    self.record_jobs(split);
                    path = taken;
                }
                topo
            }
            None => {
                path = TopologyPath::Full;
                self.rebuild()
            }
        };
        let solved = self.component_solve(&mut topo);
        // A failed solve still committed its edits, so the state stays.
        let mut topo = self.topo.insert(topo);
        let mut outcome = solved?;
        // Certification gate, one certification per returned answer: an
        // incremental answer that does not certify (or that a fault at
        // the certify site rejects) is discarded, and the batch is
        // re-answered from scratch on state rebuilt from the arc list.
        // That answer is certified in turn, never returned unverified.
        if let Some(sol) = &outcome.solution {
            let rejected = crate::chaos::fail_hit("core.dynamic.certify", recorder)
                || certify(sol, &topo.graph).is_err();
            if rejected {
                self.cache.clear();
                let fresh = self.rebuild();
                topo = self.topo.insert(fresh);
                path = TopologyPath::Full;
                outcome = full_solve(&topo.graph, &self.spec, &self.opts)?;
                if let Some(sol) = &outcome.solution {
                    certify(sol, &topo.graph).map_err(|e| {
                        SpecError::Input(format!(
                            "dynamic solve produced an uncertifiable witness: {e}"
                        ))
                    })?;
                }
            }
        }
        self.cache.evict(self.epoch);
        outcome.topology = path;
        crate::obs::dynamic_solve(
            recorder,
            outcome.mode.name(),
            edits,
            outcome.cache_hits as u64,
            outcome.cache_misses as u64,
            path,
        );
        Ok(outcome)
    }

    /// The incremental path: re-fingerprint the stale jobs, look each
    /// one up in the cache, solve only the misses by the route
    /// [`solve_spec`] would take, and reduce every job's kept result
    /// exactly as the driver would. A spec with no per-component route
    /// solves in full.
    fn component_solve(&mut self, topo: &mut Topo) -> Result<DynamicOutcome, SpecError> {
        let Some(route) = &self.route else {
            return full_solve(&topo.graph, &self.spec, &self.opts);
        };
        let cache = &mut self.cache;
        topo.refresh(self.spec.objective == Objective::Ratio, cache);
        let split = topo.split.as_mut().expect("a per-component route keeps a split");
        let zero_transit = &split.zero_transit;
        let epsilon = route::preflight(
            self.spec.objective,
            &topo.graph,
            &self.opts,
            route.consumes_epsilon(),
            || zero_transit.contains(&true),
        )?;
        // A route that reads the precision folds it into every key, so a
        // new one stales every job.
        let bits = epsilon.map(f64::to_bits);
        if bits != split.epsilon {
            split.epsilon = bits;
            for j in 0..split.jobs.len() {
                if let Some(old) = split.set_kept(j, None) {
                    cache.release(old.key);
                }
                split.mark(j);
            }
        }
        cache.visited = self.epoch;
        let deadline = self.opts.effective_deadline();
        let mut ws = Workspace::new();
        let mut negated = Vec::new();
        // Job order is id order, so the sorted queue visits jobs in order.
        let mut queue = std::mem::take(&mut split.queue);
        queue.sort_unstable();
        // Every job off the queue kept its result: a hit, as a lookup of
        // its unchanged fingerprint would be.
        let mut hits = split.jobs.len() - queue.len();
        let mut misses = 0usize;
        let mut failed = None;
        for &c in &queue {
            let j = split.live_job(c);
            split.stale[j] = false;
            let sub = split.jobs[j].view(0);
            // FNV-1a streams, so folding epsilon into the stored state
            // equals hashing it after the arc table.
            let hash = split.hashes[j];
            let key = CacheKey {
                fingerprint: epsilon.map_or(hash, |e| fnv1a_word(hash, e.to_bits())),
                nodes: sub.num_nodes(),
                arcs: sub.num_arcs(),
            };
            let (outcome, counters) = match cache.acquire(key) {
                Some(hit) => {
                    hits += 1;
                    hit
                }
                None => {
                    misses += 1;
                    let mut counters = Counters::new();
                    let result = oriented(&split.jobs[j], 0, self.spec.maximize, &mut negated)
                        .and_then(|sub| {
                            route::solve_component(
                                route,
                                j,
                                sub,
                                &mut counters,
                                &mut ws,
                                epsilon,
                                &self.opts,
                                deadline,
                            )
                        });
                    match result {
                        Ok(outcome) => {
                            cache.insert(key, outcome.clone(), counters);
                            (outcome, counters)
                        }
                        // Not kept: the job stays queued and is solved
                        // again next batch.
                        Err(e) => {
                            failed.get_or_insert(e);
                            split.mark(j);
                            continue;
                        }
                    }
                }
            };
            let old = split.set_kept(j, Some(Kept { key, outcome, counters }));
            debug_assert!(old.is_none(), "a stale job let go of its kept result");
        }

        // The queue is visited in job order, so the first failure is the
        // one the driver's reduce reports: every earlier job kept a
        // result.
        let reduced = match failed {
            Some(e) => Err(e),
            None => reduce_outcomes(
                |j| (split.jobs[j].view(0), split.jobs[j].arc_map(0)),
                split.kept.iter().map(|k| {
                    Ok(&k.as_ref().expect("a batch with no failure keeps every job").outcome)
                }),
                split.total.total(),
                self.spec.maximize,
            ),
        };
        let solution = match reduced {
            Ok(sol) => Some(sol),
            Err(SolveError::Acyclic) => None,
            Err(e) => return Err(e.into()),
        };
        // An acyclic graph has nothing to solve, so nothing was missed.
        let mode = if hits > 0 || split.jobs.is_empty() {
            SolveMode::Incremental
        } else {
            SolveMode::Full
        };
        Ok(DynamicOutcome {
            solution,
            mode,
            cache_hits: hits,
            cache_misses: misses,
            topology: TopologyPath::None,
        })
    }
}

/// The from-scratch path: delegate to [`solve_spec`] wholesale.
fn full_solve(
    g: &Graph,
    spec: &SolveSpec,
    opts: &SolveOptions,
) -> Result<DynamicOutcome, SpecError> {
    let solution = solve_spec(g, spec, opts)?;
    Ok(DynamicOutcome {
        solution,
        mode: SolveMode::Full,
        cache_hits: 0,
        cache_misses: 0,
        topology: TopologyPath::None,
    })
}

/// Builds the CSR graph of an arc list, arc ids in list order.
fn build_graph(nodes: usize, arcs: &[ArcSpec]) -> Graph {
    let mut b = GraphBuilder::with_capacity(nodes, arcs.len());
    b.add_nodes(nodes);
    for a in arcs {
        b.add_arc_with_transit(NodeId::new(a.src), NodeId::new(a.dst), a.weight, a.transit);
    }
    b.build()
}

fn validate_arc(nodes: usize, arc: &ArcSpec) -> Result<(), String> {
    if arc.src >= nodes || arc.dst >= nodes {
        return Err(format!(
            "arc {} -> {} is out of range for {nodes} nodes",
            arc.src, arc.dst
        ));
    }
    if arc.transit < 0 {
        return Err(format!("transit time {} is negative", arc.transit));
    }
    Ok(())
}

/// Checks `edits` in order against an arc list of `len` arcs, tracking
/// only how the count evolves, so a rejected batch leaves nothing to
/// undo. Returns whether the batch is weight-only: made of
/// [`Edit::Reweight`] / [`Edit::Retime`] alone, so the arc set survives
/// it.
fn validate_edits(nodes: usize, mut len: usize, edits: &[Edit]) -> Result<bool, String> {
    let mut weight_only = true;
    for (i, edit) in edits.iter().enumerate() {
        let check_index = |arc: usize, len: usize| -> Result<(), String> {
            if arc >= len {
                Err(format!(
                    "edit {i}: arc index {arc} is out of range ({len} arcs)"
                ))
            } else {
                Ok(())
            }
        };
        match *edit {
            Edit::InsertArc {
                src,
                dst,
                weight,
                transit,
            } => {
                let arc = ArcSpec {
                    src,
                    dst,
                    weight,
                    transit,
                };
                validate_arc(nodes, &arc).map_err(|e| format!("edit {i}: {e}"))?;
                len += 1;
                weight_only = false;
            }
            Edit::DeleteArc { arc } => {
                check_index(arc, len)?;
                len -= 1;
                weight_only = false;
            }
            Edit::Reweight { arc, .. } => check_index(arc, len)?,
            Edit::Retime { arc, transit } => {
                check_index(arc, len)?;
                if transit < 0 {
                    return Err(format!("edit {i}: transit time {transit} is negative"));
                }
            }
        }
    }
    Ok(weight_only)
}

/// FNV-1a fingerprint of one component subgraph: node count, arc count,
/// then each arc's `(src, dst, weight, transit)` in arc-id order. The
/// lookup folds in the effective epsilon when the spec's solver
/// consumes one (see `DynamicSolver::component_solve`). Transits
/// are always hashed — both objectives are cost-to-time ratios over the
/// graph's transits, so a retime changes λ even under `Objective::Mean`
/// (the differential harness caught a transit-blind fingerprint reusing
/// stale outcomes across retimes). Components with equal fingerprints
/// (and matching size guard) are byte-identical subproblems, so their
/// outcomes are interchangeable.
fn fingerprint(sub: GraphRef<'_>) -> u64 {
    let mut h = fnv1a_word(FNV1A_OFFSET, sub.num_nodes() as u64);
    h = fnv1a_word(h, sub.num_arcs() as u64);
    for a in sub.arc_ids() {
        h = fnv1a_word(h, sub.source(a).index() as u64);
        h = fnv1a_word(h, sub.target(a).index() as u64);
        h = fnv1a_word(h, sub.weight(a) as u64);
        h = fnv1a_word(h, sub.transit(a) as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use mcr_graph::graph::from_arc_list;

    fn mean_spec() -> SolveSpec {
        SolveSpec {
            algorithm: Algorithm::HowardExact,
            objective: Objective::Mean,
            maximize: false,
        }
    }

    fn solver(arcs: &[(usize, usize, i64)], nodes: usize) -> DynamicSolver {
        let g = from_arc_list(nodes, arcs);
        DynamicSolver::new(&g, mean_spec(), SolveOptions::new())
    }

    #[test]
    fn initial_solve_matches_solve_spec() {
        let arcs = [(0, 1, 5), (1, 0, 5), (2, 3, 1), (3, 2, 3)];
        let g = from_arc_list(4, &arcs);
        let mut dyn_solver = solver(&arcs, 4);
        let out = dyn_solver.solve().expect("solves");
        let scratch = solve_spec(&g, &mean_spec(), &SolveOptions::new()).expect("solves");
        let sol = out.solution.expect("cyclic");
        let scratch = scratch.expect("cyclic");
        assert_eq!(sol.lambda, scratch.lambda);
        assert_eq!(sol.cycle, scratch.cycle);
        assert_eq!(sol.counters, scratch.counters);
        assert_eq!(out.mode, SolveMode::Full);
    }

    #[test]
    fn untouched_components_hit_the_cache() {
        let arcs = [(0, 1, 5), (1, 0, 5), (2, 3, 1), (3, 2, 3)];
        let mut dyn_solver = solver(&arcs, 4);
        dyn_solver.solve().expect("solves");
        // Reweight inside the second component only.
        let out = dyn_solver
            .apply(&[Edit::Reweight { arc: 2, weight: 7 }])
            .expect("solves");
        assert_eq!(out.cache_hits, 1, "the 0-1 ring is untouched");
        assert_eq!(out.cache_misses, 1, "the 2-3 ring changed");
        assert_eq!(out.mode, SolveMode::Incremental);
        let sol = out.solution.expect("cyclic");
        let g = dyn_solver.current_graph();
        let scratch = solve_spec(&g, &mean_spec(), &SolveOptions::new())
            .expect("solves")
            .expect("cyclic");
        assert_eq!(sol.lambda, scratch.lambda);
        assert_eq!(sol.cycle, scratch.cycle);
        assert_eq!(sol.counters, scratch.counters);
    }

    #[test]
    fn invalid_edit_rejects_the_whole_batch() {
        let arcs = [(0, 1, 2), (1, 0, 2)];
        let mut dyn_solver = solver(&arcs, 2);
        let before = dyn_solver.arcs().to_vec();
        let err = dyn_solver
            .apply(&[
                Edit::Reweight { arc: 0, weight: 9 },
                Edit::DeleteArc { arc: 99 },
            ])
            .expect_err("out-of-range index");
        assert!(matches!(err, SpecError::Input(_)));
        assert_eq!(dyn_solver.arcs(), &before[..], "batch must be atomic");

        // A weight-only batch failing on its last edit, after a solve
        // has built the topology state that valid edits would patch.
        dyn_solver.solve().expect("solves");
        let err = dyn_solver
            .apply(&[
                Edit::Reweight { arc: 0, weight: -9 },
                Edit::Retime { arc: 1, transit: 4 },
                Edit::Reweight { arc: 2, weight: 1 },
            ])
            .expect_err("out-of-range index");
        assert_eq!(
            err.to_string(),
            "edit 2: arc index 2 is out of range (2 arcs)"
        );
        assert_eq!(dyn_solver.arcs(), &before[..], "weight-only batch must be atomic");
        assert_eq!(
            dyn_solver.current_graph().weights(),
            &[2, 2],
            "the graph must not see the rejected reweight"
        );
        // The next valid batch answers as a fresh solve of the graph it
        // leaves behind.
        let out = dyn_solver
            .apply(&[Edit::Retime { arc: 0, transit: 3 }])
            .expect("solves");
        let sol = out.solution.expect("cyclic");
        let mut b = GraphBuilder::new();
        let v = b.add_nodes(2);
        b.add_arc_with_transit(v[0], v[1], 2, 3);
        b.add_arc_with_transit(v[1], v[0], 2, 1);
        let scratch = solve_spec(&b.build(), &mean_spec(), &SolveOptions::new())
            .expect("solves")
            .expect("cyclic");
        assert_eq!(sol.lambda, scratch.lambda);
        assert_eq!(sol.cycle, scratch.cycle);
        assert_eq!(sol.counters, scratch.counters);
    }

    #[test]
    fn delete_to_acyclic_returns_none() {
        let arcs = [(0, 1, 2), (1, 0, 2)];
        let mut dyn_solver = solver(&arcs, 2);
        dyn_solver.solve().expect("solves");
        let out = dyn_solver.apply(&[Edit::DeleteArc { arc: 1 }]).expect("ok");
        assert!(out.solution.is_none(), "graph is now acyclic");
    }

    #[test]
    fn checkpoint_round_trips() {
        let arcs = [(0, 1, 5), (1, 0, 5), (2, 3, 1), (3, 2, 3)];
        let mut a = solver(&arcs, 4);
        a.solve().expect("solves");
        a.apply(&[Edit::Reweight { arc: 0, weight: -2 }]).expect("ok");
        let text = a.checkpoint();
        let mut b =
            DynamicSolver::from_checkpoint(&text, mean_spec(), SolveOptions::new()).expect("parses");
        assert_eq!(a.arcs(), b.arcs());
        assert_eq!(a.num_nodes(), b.num_nodes());
        let edit = [Edit::InsertArc {
            src: 0,
            dst: 0,
            weight: -9,
            transit: 1,
        }];
        let sa = a.apply(&edit).expect("ok").solution.expect("cyclic");
        let sb = b.apply(&edit).expect("ok").solution.expect("cyclic");
        assert_eq!(sa.lambda, sb.lambda);
        assert_eq!(sa.cycle, sb.cycle);
        assert_eq!(sa.counters, sb.counters);
    }

    /// Asserts the solver's maintained state equals a fresh solver's
    /// after one solve of the same arc list: whole graphs, the
    /// components, every job, and — when the batch reached the jobs (no
    /// up-front error) — the stale queue, every kept result and the
    /// running counter total. The components' order need not be the
    /// fresh one, only a topological order. Always: every job off the
    /// queue keeps a result, the total is the sum of the kept counters,
    /// and each cache entry counts the kept results that name it.
    fn assert_state_is_fresh(s: &DynamicSolver, ctx: &str) {
        let topo = s.topo.as_ref().expect("a solve leaves the state built");
        let mut fresh = DynamicSolver::from_parts(s.nodes, s.arcs.clone(), s.spec, s.opts.clone());
        let _ = fresh.solve();
        let want = fresh.topo.as_ref().expect("a solve leaves the state built");
        assert!(topo.graph == want.graph, "{ctx}: graph");
        let (Some(got), Some(want)) = (&topo.split, &want.split) else {
            assert!(topo.split.is_none() && want.split.is_none(), "{ctx}: split");
            return;
        };
        assert_eq!(got.comp, want.comp, "{ctx}: components");
        let mut ids = got.order.clone();
        ids.sort_unstable();
        let mut fresh_ids = want.order.clone();
        fresh_ids.sort_unstable();
        assert_eq!(ids, fresh_ids, "{ctx}: one place per component");
        for (i, &c) in got.order.iter().enumerate() {
            assert_eq!(got.pos[c as usize] as usize, i, "{ctx}: place of {c}");
        }
        let target = &topo.graph;
        for a in target.arc_ids() {
            let cu = got.comp[target.source(a).index()] as usize;
            let cv = got.comp[target.target(a).index()] as usize;
            assert!(cu == cv || got.pos[cu] < got.pos[cv], "{ctx}: arc {a:?} against the order");
        }
        assert!(!got.seen.contains(&true), "{ctx}: search marks left behind");
        assert!(got.extracted.is_empty() && got.path == TopologyPath::None, "{ctx}: batch record");
        assert_eq!(got.job_comp, want.job_comp, "{ctx}: job components");
        assert_eq!(got.members, want.members, "{ctx}: job node lists");
        assert_eq!(got.jobs.len(), want.jobs.len(), "{ctx}: job count");
        for (j, (a, b)) in got.jobs.iter().zip(&want.jobs).enumerate() {
            assert!(a == b, "{ctx}: job {j} layout");
        }
        assert_eq!(got.owner, want.owner, "{ctx}: owner");
        assert_eq!(got.hashes, want.hashes, "{ctx}: hashes");
        assert_eq!(got.zero_transit, want.zero_transit, "{ctx}: zero_transit");
        if fresh.cache.visited == fresh.epoch {
            assert_eq!(got.stale, want.stale, "{ctx}: stale");
            assert_eq!(got.kept, want.kept, "{ctx}: kept results");
            assert_eq!(got.total, want.total, "{ctx}: running total");
            assert_eq!(got.epsilon, want.epsilon, "{ctx}: precision");
        }
        let mut queue = got.queue.clone();
        queue.sort_unstable();
        let stale: Vec<u32> = (0..got.jobs.len())
            .filter(|&j| got.stale[j])
            .map(|j| got.job_comp[j])
            .collect();
        assert_eq!(queue, stale, "{ctx}: the queue holds the stale jobs once each");
        let mut sum = CounterSum::default();
        let mut merged = Counters::new();
        let mut users = BTreeMap::<CacheKey, u32>::new();
        for (j, kept) in got.kept.iter().enumerate() {
            let Some(k) = kept else {
                assert!(got.stale[j], "{ctx}: job {j} has no result and is not queued");
                continue;
            };
            sum.add(&k.counters);
            merged.merge(&k.counters);
            *users.entry(k.key).or_default() += 1;
            let entry = &s.cache.entries[&k.key];
            assert!(
                entry.outcome == k.outcome && entry.counters == k.counters,
                "{ctx}: job {j} kept what its cache entry does not hold"
            );
        }
        assert_eq!(got.total, sum, "{ctx}: running total");
        assert_eq!(got.total.total(), merged, "{ctx}: clamped total");
        for (key, entry) in &s.cache.entries {
            assert_eq!(
                entry.users,
                users.get(key).copied().unwrap_or(0),
                "{ctx}: users of {key:?}"
            );
        }
    }

    /// Solves `g`, then applies each batch and checks the state after
    /// it. Solve errors (a zero-transit cycle) still commit the batch.
    /// Returns the solver and the path of the last batch that answered.
    fn replay_checking_state(
        g: &Graph,
        spec: SolveSpec,
        batches: &[Vec<Edit>],
        ctx: &str,
    ) -> (DynamicSolver, TopologyPath) {
        let mut s = DynamicSolver::new(g, spec, SolveOptions::new());
        let _ = s.solve();
        assert_state_is_fresh(&s, &format!("{ctx} initial"));
        let mut last = TopologyPath::Full;
        for (i, batch) in batches.iter().enumerate() {
            match s.apply(batch) {
                Ok(out) => last = out.topology,
                Err(SpecError::Input(e)) => panic!("{ctx} batch {i}: rejected: {e}"),
                Err(_) => {}
            }
            assert_state_is_fresh(&s, &format!("{ctx} batch {i}"));
        }
        (s, last)
    }

    /// Mean, maximize, ratio with Howard-exact, and a native ratio route.
    fn state_specs() -> [SolveSpec; 4] {
        [
            SolveSpec::mean(Algorithm::HowardExact),
            SolveSpec::mean(Algorithm::HowardExact).maximize(),
            SolveSpec::ratio(Algorithm::HowardExact),
            SolveSpec::ratio(Algorithm::Yto),
        ]
    }

    /// Random batches of 1–3 edits over a circuit: inserts between any
    /// two nodes (which merge components), deletes (which split them),
    /// reweights and retimes.
    fn circuit_batches(g: &Graph, seed: u64) -> Vec<Vec<Edit>> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.num_nodes();
        let mut m = g.num_arcs();
        (0..24)
            .map(|_| {
                (0..rng.gen_range(1..=3))
                    .map(|_| match rng.gen_range(0..4) {
                        0 => {
                            m += 1;
                            Edit::InsertArc {
                                src: rng.gen_range(0..n),
                                dst: rng.gen_range(0..n),
                                weight: rng.gen_range(-20..=60),
                                transit: rng.gen_range(1..=3),
                            }
                        }
                        1 if m > 4 => {
                            m -= 1;
                            Edit::DeleteArc { arc: rng.gen_range(0..=m) }
                        }
                        2 => Edit::Reweight {
                            arc: rng.gen_range(0..m),
                            weight: rng.gen_range(-20..=60),
                        },
                        _ => Edit::Retime {
                            arc: rng.gen_range(0..m),
                            transit: rng.gen_range(1..=3),
                        },
                    })
                    .collect()
            })
            .collect()
    }

    /// Two 2-rings A = {0, 1} and B = {2, 3} joined by the bridge 1 → 2,
    /// a self-loop at 4, and C = 5 → 6 → 7 → 5 with the chord 6 → 5.
    fn hand_graph() -> Graph {
        from_arc_list(
            8,
            &[
                (0, 1, 4),
                (1, 0, 2),
                (2, 3, 1),
                (3, 2, 5),
                (1, 2, 9),
                (4, 4, 3),
                (5, 6, 2),
                (6, 7, 2),
                (7, 5, 2),
                (6, 5, 7),
            ],
        )
    }

    #[test]
    fn topology_batches_keep_the_state_equal_to_a_fresh_build() {
        let insert = |src, dst| Edit::InsertArc {
            src,
            dst,
            weight: 3,
            transit: 2,
        };
        let delete = |arc| Edit::DeleteArc { arc };
        // Batches on the four base jobs A, B, {4} and C (canonical
        // order), with the (reused, extracted) split of the last batch
        // and the path it took. No batch runs Tarjan on the whole graph.
        type Case = (&'static str, Vec<Vec<Edit>>, (usize, usize), TopologyPath);
        use TopologyPath::*;
        let hand: Vec<Case> = vec![
            ("merge A and B", vec![vec![insert(3, 0)]], (2, 1), Merge),
            ("split C", vec![vec![delete(8)]], (3, 1), Split),
            ("drop the self-loop", vec![vec![delete(5)]], (3, 0), Reextract),
            ("delete the bridge", vec![vec![delete(4)]], (4, 0), None),
            ("chord deleted, C kept", vec![vec![delete(9)]], (3, 1), Reextract),
            (
                "reweight and insert in C",
                vec![vec![Edit::Reweight { arc: 7, weight: -4 }, insert(7, 6)]],
                (3, 1),
                Reextract,
            ),
            (
                "two deletes, the first shifting the second",
                vec![vec![delete(1), delete(5)]],
                (2, 0),
                Split,
            ),
            ("second bridge, downstream", vec![vec![insert(1, 3)]], (4, 0), None),
            // The first build places C before B.
            ("bridge from C to B", vec![vec![insert(5, 3)]], (4, 0), None),
            ("bridge from B to C", vec![vec![insert(3, 5)]], (4, 0), Reorder),
            (
                "self-loops on cyclic components",
                vec![vec![insert(4, 4), insert(7, 7)]],
                (2, 2),
                Reextract,
            ),
            (
                "acyclic singleton gains a self-loop",
                vec![vec![delete(5)], vec![insert(4, 4)]],
                (3, 1),
                Reextract,
            ),
            ("kept delete, then a split", vec![vec![delete(9), delete(7)]], (3, 0), Split),
            (
                "kept inserts and deletes, ids shifting",
                vec![vec![
                    insert(2, 2),
                    insert(1, 3),
                    delete(10),
                    insert(0, 0),
                    delete(11),
                ]],
                (2, 2),
                Reextract,
            ),
            (
                "kept inserts and deletes, then a split",
                vec![vec![
                    insert(2, 2),
                    insert(1, 3),
                    delete(10),
                    insert(0, 0),
                    delete(0),
                ]],
                (2, 2),
                Split,
            ),
        ];
        for spec in state_specs() {
            for (name, batches, split, path) in &hand {
                let ctx = format!("{spec:?} {name}");
                let (s, last) = replay_checking_state(&hand_graph(), spec, batches, &ctx);
                assert_eq!(s.rebuild_jobs(), *split, "{ctx}: reused/extracted");
                assert_eq!(last, *path, "{ctx}: path");
                assert_eq!(s.tarjan_runs(), 1, "{ctx}: Tarjan runs");
            }
            for seed in 0..6u64 {
                let text = mcr_gen::edits::edit_script(
                    &mcr_gen::edits::EditScriptConfig::new(16).seed(seed),
                );
                let script = crate::edits::parse_edit_script(&text).expect("parses");
                let ctx = format!("{spec:?} sprand seed {seed}");
                replay_checking_state(&script.base_graph(), spec, &script.batches, &ctx);
                let g = mcr_gen::circuit::circuit_graph(
                    &mcr_gen::circuit::CircuitConfig::new(12 + seed as usize).seed(seed),
                );
                let ctx = format!("{spec:?} circuit seed {seed}");
                replay_checking_state(&g, spec, &circuit_batches(&g, seed), &ctx);
            }
        }
    }

    #[test]
    fn random_mixed_batches_on_circuits_keep_the_canonical_state() {
        // Larger circuits than the hand test's, every spec: each batch
        // mixes inserts, deletes, reweights and retimes, and together
        // they take every local path.
        let mut paths = BTreeMap::<TopologyPath, usize>::new();
        for spec in state_specs() {
            for seed in 0..8u64 {
                let g = mcr_gen::circuit::circuit_graph(
                    &mcr_gen::circuit::CircuitConfig::new(30 + 5 * seed as usize).seed(seed + 11),
                );
                let mut s = DynamicSolver::new(&g, spec, SolveOptions::new());
                let _ = s.solve();
                for (i, batch) in circuit_batches(&g, seed + 11).iter().enumerate() {
                    let ctx = format!("{spec:?} circuit seed {seed} batch {i}");
                    match s.apply(batch) {
                        Ok(out) => *paths.entry(out.topology).or_default() += 1,
                        Err(SpecError::Input(e)) => panic!("{ctx}: rejected: {e}"),
                        Err(_) => {}
                    }
                    assert_state_is_fresh(&s, &ctx);
                }
                assert_eq!(s.tarjan_runs(), 1, "{spec:?} circuit seed {seed}");
            }
        }
        use TopologyPath::*;
        for path in [None, Reextract, Reorder, Split, Merge] {
            assert!(paths.contains_key(&path), "no {path:?} batch in {paths:?}");
        }
    }

    /// Three 2-rings R1 = {0, 1}, R2 = {2, 3} and R3 = {4, 5} joined
    /// into one component C by 1 → 2, 3 → 4 and 5 → 0; R1 and R3 tie
    /// on mean 2. Three more 2-rings D = {6, 7}, E = {8, 9} and
    /// F = {10, 11}, with the bridge D → E.
    fn ring_graph() -> Graph {
        from_arc_list(
            12,
            &[
                (0, 1, 1),
                (1, 0, 3),
                (2, 3, 6),
                (3, 2, 8),
                (4, 5, 2),
                (5, 4, 2),
                (1, 2, 50),
                (3, 4, 50),
                (5, 0, 50),
                (6, 7, 9),
                (7, 6, 9),
                (8, 9, 9),
                (9, 8, 9),
                (10, 11, 9),
                (11, 10, 9),
                (7, 8, 9),
            ],
        )
    }

    #[test]
    fn local_splits_merges_and_reorders_keep_the_canonical_state() {
        // Each step names its arcs by endpoints: its deletes, then its
        // inserts (weight 40), and the path the batch must take. The
        // first build orders the components F, D, E, C (Tarjan emits C,
        // E, D, F). The last three steps order them E, D, F, C, then
        // insert against the order over a range that holds a component
        // the forward search never reaches between two it does: D
        // between E and F when C → E reorders, then C and E between D
        // and F when F → D merges D and F.
        type Step = (&'static str, &'static [(usize, usize)], &'static [(usize, usize)], TopologyPath);
        use TopologyPath::*;
        let steps: [Step; 9] = [
            ("split C into R1, R2 and R3", &[(5, 0)], &[], Split),
            ("merge R1, R2 and R3", &[], &[(5, 0)], Merge),
            ("E to F against the order, no cycle", &[], &[(8, 10)], Reorder),
            ("delete the bridge D to E", &[(7, 8)], &[], None),
            (
                "one batch: a split, a cross delete, a reorder and a merge",
                &[(5, 0), (8, 10)],
                &[(9, 6), (6, 9), (0, 0)],
                Merge,
            ),
            ("C's pieces merge again", &[], &[(5, 0)], Merge),
            ("D and E come apart", &[(9, 6), (6, 9)], &[], Split),
            ("C to E past D", &[], &[(8, 10), (6, 10), (0, 8)], Reorder),
            ("F to D past C and E", &[], &[(10, 6)], Merge),
        ];
        for spec in state_specs() {
            let mut s = DynamicSolver::new(&ring_graph(), spec, SolveOptions::new());
            s.solve().expect("solves");
            for (name, deletes, inserts, path) in steps {
                let ctx = format!("{spec:?} {name}");
                let mut ids: Vec<usize> = deletes
                    .iter()
                    .map(|&(u, v)| {
                        s.arcs().iter().position(|a| (a.src, a.dst) == (u, v)).expect("arc")
                    })
                    .collect();
                ids.sort_unstable_by(|a, b| b.cmp(a));
                let mut batch: Vec<Edit> = ids.into_iter().map(|arc| Edit::DeleteArc { arc }).collect();
                batch.extend(inserts.iter().map(|&(src, dst)| Edit::InsertArc {
                    src,
                    dst,
                    weight: 40,
                    transit: 1,
                }));
                let out = s.apply(&batch).expect("solves");
                assert_eq!(out.topology, path, "{ctx}: path");
                assert_state_is_fresh(&s, &ctx);
                let sol = out.solution.expect("cyclic");
                assert_same(&sol, &scratch(&s, &SolveOptions::new()), &ctx);
                if name.starts_with("split") && !spec.maximize {
                    // R1 and R3 tie; R1 holds the smallest node.
                    let mut ends: Vec<(usize, usize)> =
                        sol.cycle.iter().map(|a| (s.arcs()[a.index()].src, s.arcs()[a.index()].dst)).collect();
                    ends.sort_unstable();
                    assert_eq!(ends, [(0, 1), (1, 0)], "{ctx}: witness");
                }
            }
            assert_eq!(s.tarjan_runs(), 1, "{spec:?}: whole-graph Tarjan runs");
        }
    }

    #[test]
    fn a_component_no_edit_touches_keeps_its_result_wherever_tarjan_would_enter_it() {
        // A = {0, 1} and C = {2, 3, 4}. A whole-graph Tarjan from node 0
        // enters C at 4 through 0 → 4; once that arc is gone it enters C
        // at 2 through 0 → 1 → 2 and would list C's nodes in another
        // order, a job with other bytes (C's arc weights differ, so no
        // relabelling gives the same bytes) and so a cache miss. Canonical
        // order keeps C's job and its result: the delete costs no solve.
        let g = from_arc_list(
            5,
            &[(0, 4, 5), (0, 1, 1), (1, 0, 3), (1, 2, 5), (2, 3, 2), (3, 4, 3), (4, 2, 4)],
        );
        for spec in state_specs() {
            let ctx = format!("{spec:?}");
            let mut s = DynamicSolver::new(&g, spec, SolveOptions::new());
            assert_eq!(s.solve().expect("solves").cache_misses, 2, "{ctx}");
            let out = s.apply(&[Edit::DeleteArc { arc: 0 }]).expect("solves");
            assert_eq!(out.topology, TopologyPath::None, "{ctx}: path");
            assert_eq!((out.cache_hits, out.cache_misses), (2, 0), "{ctx}: no job re-solved");
            assert_state_is_fresh(&s, &ctx);
            assert_same(&out.solution.expect("cyclic"), &scratch(&s, &SolveOptions::new()), &ctx);
            assert_eq!(s.tarjan_runs(), 1, "{ctx}: whole-graph Tarjan runs");
        }
    }

    /// An `edit_stream`-shaped stream: 40% reweights, 40% retimes, 10%
    /// inserts of a local arc (head within ±12 nodes of the tail, as
    /// circuit arcs are) and 10% deletes, one edit a batch with every
    /// seventh batch three edits long.
    fn stream_batches(g: &Graph, count: usize, seed: u64) -> Vec<Vec<Edit>> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.num_nodes();
        let mut m = g.num_arcs();
        let mut edit = || match rng.gen_range(0..10) {
            0..=3 => Edit::Reweight {
                arc: rng.gen_range(0..m),
                weight: rng.gen_range(1..=100),
            },
            4..=7 => Edit::Retime {
                arc: rng.gen_range(0..m),
                transit: rng.gen_range(1..=3),
            },
            8 => {
                let src = rng.gen_range(0..n);
                m += 1;
                Edit::InsertArc {
                    src,
                    dst: (src + n - 12 + rng.gen_range(0..25)) % n,
                    weight: rng.gen_range(1..=100),
                    transit: 1,
                }
            }
            _ => {
                m -= 1;
                Edit::DeleteArc {
                    arc: rng.gen_range(0..=m),
                }
            }
        };
        (0..count)
            .map(|i| {
                (0..if i % 7 == 6 { 3 } else { 1 })
                    .map(|_| edit())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn an_edit_stream_on_a_thousand_gate_circuit_keeps_the_state_fresh() {
        let g =
            mcr_gen::circuit::circuit_graph(&mcr_gen::circuit::CircuitConfig::new(1000).seed(5));
        let specs = [
            SolveSpec::mean(Algorithm::HowardExact),
            SolveSpec::mean(Algorithm::HowardExact).maximize(),
            SolveSpec::ratio(Algorithm::HowardExact),
        ];
        for (spec, seed) in specs.into_iter().zip(1u64..) {
            let batches = stream_batches(&g, 160, seed);
            let mut s = DynamicSolver::new(&g, spec, SolveOptions::new());
            let _ = s.solve();
            assert_state_is_fresh(&s, &format!("{spec:?} initial"));
            let mut paths = BTreeMap::<TopologyPath, usize>::new();
            for (i, batch) in batches.iter().enumerate() {
                match s.apply(batch) {
                    Ok(out) => *paths.entry(out.topology).or_default() += 1,
                    Err(SpecError::Input(e)) => panic!("{spec:?} batch {i}: rejected: {e}"),
                    Err(_) => {}
                }
                assert_state_is_fresh(&s, &format!("{spec:?} batch {i}"));
            }
            assert_eq!(s.tarjan_runs(), 1, "{spec:?}: whole-graph Tarjan runs");
            for path in [TopologyPath::None, TopologyPath::Reextract, TopologyPath::Split] {
                assert!(paths.contains_key(&path), "{spec:?}: no {path:?} batch in {paths:?}");
            }
        }
    }

    /// The solution a from-scratch `solve_spec` gives for the solver's
    /// current graph.
    fn scratch(s: &DynamicSolver, opts: &SolveOptions) -> Solution {
        solve_spec(&s.current_graph(), &s.spec, opts)
            .expect("solves")
            .expect("cyclic")
    }

    fn assert_same(sol: &Solution, want: &Solution, ctx: &str) {
        assert_eq!(sol.lambda, want.lambda, "{ctx}: lambda");
        assert_eq!(sol.cycle, want.cycle, "{ctx}: witness");
        assert_eq!(sol.solved_by, want.solved_by, "{ctx}: solved_by");
        assert_eq!(sol.counters, want.counters, "{ctx}: counters");
    }

    /// Three 2-rings, job order A = {0, 1}, B = {2, 3}, C = {4, 5}.
    fn three_rings(spec: SolveSpec, b: (i64, i64), c: (i64, i64)) -> DynamicSolver {
        let arcs = [(0, 1, 5), (1, 0, 7), (2, 3, b.0), (3, 2, b.1), (4, 5, c.0), (5, 4, c.1)];
        DynamicSolver::new(&from_arc_list(6, &arcs), spec, SolveOptions::new())
    }

    #[test]
    fn only_the_edited_job_is_solved_again() {
        let mut s = three_rings(mean_spec(), (1, 3), (2, 9));
        assert_eq!(s.solve().expect("solves").cache_misses, 3);
        let opts = SolveOptions::new();
        let edits = [(0, 2), (3, -4), (4, 6), (3, 8), (1, 1)];
        for (i, (arc, weight)) in edits.into_iter().enumerate() {
            let out = s.apply(&[Edit::Reweight { arc, weight }]).expect("solves");
            let ctx = format!("edit {i}: arc {arc} to {weight}");
            assert_eq!((out.cache_hits, out.cache_misses), (2, 1), "{ctx}");
            assert_same(&out.solution.expect("cyclic"), &scratch(&s, &opts), &ctx);
            assert_state_is_fresh(&s, &ctx);
        }
    }

    #[test]
    fn ties_between_byte_identical_jobs_go_to_the_earlier_job() {
        // A and B are byte-identical as subgraphs, so B hits the entry
        // A's solve made, and on equal lambda the witness must map into
        // A's arcs (0 and 1) whichever of the two was solved last.
        let mut s = solver(&[(0, 1, 4), (1, 0, 6), (2, 3, 4), (3, 2, 6)], 4);
        let opts = SolveOptions::new();
        let steps: [(&str, Option<Edit>, &[usize], usize); 5] = [
            ("first solve", None, &[0, 1], 1),
            ("A worse", Some(Edit::Reweight { arc: 0, weight: 9 }), &[2, 3], 1),
            ("A restored", Some(Edit::Reweight { arc: 0, weight: 4 }), &[0, 1], 2),
            // B's new bytes are A's of two batches ago, still cached.
            ("B worse", Some(Edit::Reweight { arc: 2, weight: 9 }), &[0, 1], 2),
            ("B restored", Some(Edit::Reweight { arc: 2, weight: 4 }), &[0, 1], 2),
        ];
        for (ctx, edit, arcs, hits) in steps {
            let out = match edit {
                None => s.solve(),
                Some(e) => s.apply(&[e]),
            }
            .expect("solves");
            let sol = out.solution.expect("cyclic");
            let mut witness: Vec<usize> = sol.cycle.iter().map(|a| a.index()).collect();
            witness.sort_unstable();
            assert_eq!(witness, arcs, "{ctx}: witness arcs");
            assert_same(&sol, &scratch(&s, &opts), ctx);
            assert_eq!(out.cache_hits, hits, "{ctx}: cache hits");
        }
    }

    #[test]
    fn a_failed_job_is_never_kept() {
        // Lawler-exact with one refinement and no fallback fails on the
        // 1/4001 ring A and answers the self-loop B.
        let g = from_arc_list(3, &[(0, 1, 1), (1, 0, 4001), (2, 2, 5)]);
        let opts = SolveOptions::new()
            .budget(crate::Budget::default().max_lambda_refinements(1))
            .fallback(crate::FallbackChain::NONE);
        let spec = SolveSpec::mean(Algorithm::LawlerExact);
        let mut s = DynamicSolver::new(&g, spec, opts.clone());
        let failure = |r: Result<DynamicOutcome, SpecError>, ctx: &str| match r {
            Err(SpecError::Solve(SolveError::BudgetExhausted { .. })) => {}
            other => panic!("{ctx}: expected budget exhaustion, got {other:?}"),
        };
        failure(s.solve(), "first solve");
        failure(s.apply(&[Edit::Reweight { arc: 2, weight: 6 }]), "B edited");
        failure(s.solve(), "re-solve");
        let split = s.topo.as_ref().and_then(|t| t.split.as_ref()).expect("split");
        assert!(split.kept[0].is_none() && split.stale[0], "A keeps no result");
        assert!(split.kept[1].is_some() && !split.stale[1], "B keeps its result");
        // Once A is solvable it is solved, and B is still a hit.
        let out = s.apply(&[Edit::Reweight { arc: 1, weight: 1 }]).expect("solves");
        assert_eq!((out.cache_hits, out.cache_misses), (1, 1));
        assert_same(&out.solution.expect("cyclic"), &scratch(&s, &opts), "A mended");
    }

    #[test]
    fn an_entry_a_live_twin_names_is_never_evicted() {
        // A and B are byte-identical; A is edited away for three times
        // the retention window while B keeps naming the shared entry.
        let mut s = solver(&[(0, 1, 4), (1, 0, 6), (2, 3, 4), (3, 2, 6), (4, 5, 1), (5, 4, 1)], 6);
        s.solve().expect("solves");
        s.apply(&[Edit::Reweight { arc: 0, weight: 9 }]).expect("solves");
        for i in 0..3 * RETAIN_EPOCHS {
            s.apply(&[Edit::Reweight { arc: 4, weight: i as i64 }]).expect("solves");
        }
        let out = s.apply(&[Edit::Reweight { arc: 0, weight: 4 }]).expect("solves");
        assert_eq!((out.cache_hits, out.cache_misses), (3, 0), "A's bytes are B's");
        assert_state_is_fresh(&s, "A restored");
    }

    #[test]
    fn an_entry_edited_away_ages_out_after_the_retention_window() {
        // A's entry is last named in batch 1 (the first solve) and edited
        // away in batch 2; batches then edit C only. Restored in batch
        // 1 + RETAIN_EPOCHS it still hits, one batch later it misses.
        for (away, hit) in [(RETAIN_EPOCHS, true), (RETAIN_EPOCHS + 1, false)] {
            let mut s = three_rings(mean_spec(), (1, 3), (2, 9));
            s.solve().expect("solves");
            s.apply(&[Edit::Reweight { arc: 0, weight: 8 }]).expect("solves");
            for i in 2..away {
                s.apply(&[Edit::Reweight { arc: 4, weight: i as i64 }]).expect("solves");
            }
            let out = s.apply(&[Edit::Reweight { arc: 0, weight: 5 }]).expect("solves");
            assert_eq!(s.epoch, away + 1, "restored in batch {}", s.epoch);
            let want = if hit { (3, 0) } else { (2, 1) };
            assert_eq!((out.cache_hits, out.cache_misses), want, "restored in batch {}", s.epoch);
        }
    }

    #[test]
    fn the_running_total_is_exact_across_a_saturated_re_solve() {
        let mut s = three_rings(mean_spec(), (1, 3), (2, 9));
        s.solve().expect("solves");
        // Job A's counters sit near u64::MAX, so the total saturates.
        let split = s.topo.as_mut().and_then(|t| t.split.as_mut()).expect("split");
        let mut big = split.kept[0].clone().expect("kept");
        big.counters.relaxations = u64::MAX - 3;
        big.counters.heap.inserts = u64::MAX;
        big.counters.iterations = u64::MAX - 1;
        split.set_kept(0, Some(big));
        let merged = |s: &DynamicSolver| {
            let split = s.topo.as_ref().and_then(|t| t.split.as_ref()).expect("split");
            let mut c = Counters::new();
            for k in &split.kept {
                c.merge(&k.as_ref().expect("kept").counters);
            }
            c
        };
        let before = s.solve().expect("solves").solution.expect("cyclic");
        assert_eq!(before.counters, merged(&s), "saturated total");
        assert_eq!(before.counters.relaxations, u64::MAX);
        // Solving A again takes its huge counters back out exactly.
        let out = s.apply(&[Edit::Reweight { arc: 0, weight: 6 }]).expect("solves");
        assert_eq!(out.cache_misses, 1);
        let after = out.solution.expect("cyclic");
        assert_eq!(after.counters, merged(&s), "total after the re-solve");
        assert_same(&after, &scratch(&s, &SolveOptions::new()), "after the re-solve");
        assert_state_is_fresh(&s, "after the re-solve");
    }

    #[test]
    fn a_moved_default_precision_rekeys_every_job_of_an_approximate_route() {
        // Howard reads the precision, whose default follows the graph's
        // weight range: raising the largest weight (9, on C) gives every
        // job a new key. Howard-exact reads none, so only C misses.
        let edits = [
            (Edit::Reweight { arc: 5, weight: 20 }, (0, 3), (2, 1)),
            (Edit::Reweight { arc: 0, weight: 4 }, (2, 1), (2, 1)),
        ];
        for (alg, pick) in [(Algorithm::Howard, 0), (Algorithm::HowardExact, 1)] {
            let mut s = three_rings(SolveSpec::mean(alg), (1, 3), (2, 9));
            s.solve().expect("solves");
            for (edit, approximate, exact) in edits {
                let keys = |s: &DynamicSolver| -> Vec<CacheKey> {
                    let split = s.topo.as_ref().and_then(|t| t.split.as_ref()).expect("split");
                    split.kept.iter().map(|k| k.as_ref().expect("kept").key).collect()
                };
                let old = keys(&s);
                let out = s.apply(&[edit]).expect("solves");
                let want = [approximate, exact][pick];
                let ctx = format!("{} {edit:?}", alg.name());
                assert_eq!((out.cache_hits, out.cache_misses), want, "{ctx}");
                let new = keys(&s);
                let moved = old.iter().zip(&new).filter(|(a, b)| a != b).count();
                assert_eq!(moved, want.1, "{ctx}: jobs with a new key");
                let sol = out.solution.expect("cyclic");
                assert_same(&sol, &scratch(&s, &SolveOptions::new()), &ctx);
            }
        }
    }

    #[test]
    fn an_invalid_explicit_precision_fails_every_batch() {
        // An exact route reads no precision, but an explicit one is still
        // checked first, on every batch.
        for bad in [0.0, f64::NAN] {
            let g = from_arc_list(4, &[(0, 1, 5), (1, 0, 7), (2, 3, 1), (3, 2, 3)]);
            let opts = SolveOptions { epsilon: Some(bad), ..SolveOptions::new() };
            let mut s = DynamicSolver::new(&g, mean_spec(), opts);
            let batches = [
                vec![],
                vec![Edit::Reweight { arc: 0, weight: 2 }],
                vec![Edit::InsertArc { src: 1, dst: 2, weight: 1, transit: 1 }],
                vec![Edit::DeleteArc { arc: 1 }],
            ];
            for (i, batch) in batches.iter().enumerate() {
                let result = if i == 0 { s.solve() } else { s.apply(batch) };
                assert!(
                    matches!(
                        result,
                        Err(SpecError::Solve(SolveError::InvalidEpsilon { epsilon }))
                            if epsilon.to_bits() == bad.to_bits()
                    ),
                    "epsilon {bad} batch {i}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn fingerprint_is_pinned() {
        // Recorded before FNV-1a moved into mcr-graph: cache keys must
        // not change with where the hash lives.
        assert_eq!(fingerprint(hand_graph().view()), 0x978c_fe2e_f927_7bca);
    }

    #[test]
    fn checkpoint_rejects_garbage() {
        for bad in [
            "",
            "mcr-dynamic v2 nodes=1 arcs=0\n",
            "mcr-dynamic v1 nodes=1\n",
            "mcr-dynamic v1 nodes=2 arcs=2\n0 1 1 1\n",
            "mcr-dynamic v1 nodes=2 arcs=1\n0 9 1 1\n",
            "mcr-dynamic v1 nodes=2 arcs=1\n0 1 1 -4\n",
        ] {
            assert!(
                DynamicSolver::from_checkpoint(bad, mean_spec(), SolveOptions::new()).is_err(),
                "accepted {bad:?}"
            );
        }
    }
}
