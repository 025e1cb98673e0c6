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
//!    graph (and its negated twin when maximizing), Tarjan's component
//!    jobs with their node lists, a host-arc → component-arc map, and
//!    each component's fingerprint. The first solve builds it in
//!    `O(n + m)`, exactly as a from-scratch solve would. A batch that
//!    inserts or deletes an arc rebuilds the CSR graph and re-runs
//!    Tarjan, but a new cyclic component keeps its previous job —
//!    subgraph, fingerprint and flags, with the arc map rewritten to the
//!    new arc ids — when the previous job had exactly the same node list
//!    and the batch touched (inserted, deleted, reweighted or retimed) no
//!    arc with both endpoints inside it. Such a job is byte-equal to a
//!    fresh extraction: its internal arcs are unchanged, and deletes and
//!    appends keep their relative id order. Only the other components
//!    are extracted and re-fingerprinted;
//! 2. patches that state in place for a batch made only of
//!    [`Edit::Reweight`] / [`Edit::Retime`]: each edit rewrites one arc
//!    of the host graph and of its component's subgraph in
//!    `O(degree)` ([`Graph::set_arc_values`]). The arc set is unchanged,
//!    so the CSR, the job order and every subgraph stay byte-equal to a
//!    rebuild, and only the patched components are re-fingerprinted;
//! 3. looks each component's fingerprint (FNV-1a over its arc table)
//!    up in the cache and reuses the cached component outcome + per-job
//!    [`Counters`] on a hit,
//! 4. solves only the missed components, each with the kernel call the
//!    crate's route table (`route.rs`) picks for the [`SolveSpec`] —
//!    the same table [`crate::spec::solve_spec`]'s driver calls, under
//!    the same budget, deadline and cancel token, with the same typed
//!    errors — and
//! 5. re-enters the driver's reduction stage in job
//!    order, so tie-breaks, error precedence, witness arc mapping and
//!    counter totals are bit-identical to a from-scratch solve.
//!
//! Because cached outcomes are replayed byte-for-byte and both the
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
//! * a chaos fault at `core.dynamic.apply` (cache and topology state,
//!   including any kept for reuse, dropped before the solve) or
//!   `core.dynamic.certify` (incremental answer rejected);
//! * a witness that fails [`certify`] — the cache is cleared, the
//!   topology state is rebuilt from the arc list, and the batch is
//!   re-answered from scratch, never returned unverified.
//!
//! Every returned solution — incremental or full — is re-validated by
//! [`certify`] against the current caller-orientation graph.

use crate::certify::certify;
use crate::driver::{cyclic_component_jobs, reduce_outcomes, Job, SccOutcome};
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::options::SolveOptions;
use crate::route::{self, route_for, Route};
use crate::solution::Solution;
use crate::spec::{solve_spec, Objective, SolveSpec, SpecError};
use crate::workspace::Workspace;
use mcr_graph::hash::{fnv1a_word, FNV1A_OFFSET};
use mcr_graph::{idx32, ArcId, Graph, GraphBuilder, NodeId, SubgraphExtractor};
use std::collections::BTreeMap;

/// One graph mutation. Arc indices refer to the solver's *current*
/// dense arc numbering (insertion order, the same ids
/// [`Graph::arc_ids`] exposes); [`Edit::DeleteArc`] shifts every
/// higher index down by one, and [`Edit::InsertArc`] appends at index
/// `num_arcs()`. Within a batch, edits apply sequentially against the
/// evolving arc list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edit {
    /// Append an arc `src -> dst`. The new arc's index is the arc count
    /// at the moment of insertion.
    InsertArc {
        src: usize,
        dst: usize,
        weight: i64,
        transit: i64,
    },
    /// Remove the arc at `arc`; higher indices shift down by one.
    DeleteArc { arc: usize },
    /// Replace the weight of the arc at `arc`.
    Reweight { arc: usize, weight: i64 },
    /// Replace the transit time of the arc at `arc` (must stay
    /// nonnegative, like every transit).
    Retime { arc: usize, transit: i64 },
}

/// One arc of the solver's editable graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArcSpec {
    pub src: usize,
    pub dst: usize,
    pub weight: i64,
    pub transit: i64,
}

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
}

/// A cached component outcome plus the counters its solve accumulated
/// (merged back in job order on reuse, so totals match from-scratch).
#[derive(Clone, Debug)]
struct CacheEntry {
    outcome: SccOutcome,
    counters: Counters,
    /// Size guard against fingerprint collisions, like
    /// [`crate::SccPlan`]'s node/arc check.
    nodes: usize,
    arcs: usize,
    /// Last epoch (batch number) this entry was produced or reused.
    epoch: u64,
}

/// Entries unused for this many consecutive batches are evicted.
const RETAIN_EPOCHS: u64 = 16;

/// The `Topo::owner` job slot of an arc outside every cyclic component.
const NO_JOB: u32 = u32::MAX;

/// An arc with no id on the other side of a topology batch: the old id
/// of an inserted arc, the new id of a deleted one.
const NO_ARC: u32 = u32::MAX;

/// The previous topology state, kept across a batch that inserts or
/// deletes arcs so the rebuild can reuse the jobs the batch left
/// unchanged (module docs, step 1).
struct Reuse {
    prev: Topo,
    /// Per arc of the edited list, its id before the batch, or `NO_ARC`
    /// for an inserted arc: the batch replayed on an identity list.
    old_ids: Vec<u32>,
    /// Endpoints of every arc the batch inserted, deleted, reweighted or
    /// retimed.
    touched: Vec<(usize, usize)>,
}

impl Reuse {
    fn new(prev: Topo, arcs: usize) -> Reuse {
        Reuse {
            prev,
            old_ids: (0..idx32(arcs)).collect(),
            touched: Vec::new(),
        }
    }
}

/// The topology-derived state of the current graph (module docs, steps
/// 1–2). Every field is a function of the arc list. A weight-only batch
/// keeps it that way by patching in place; a batch that inserts or
/// deletes an arc rebuilds it, moving over the jobs it left unchanged.
#[derive(Debug)]
struct Topo {
    /// The current graph, caller orientation.
    graph: Graph,
    /// `graph.negated()` when a maximizing spec solves per component.
    negated: Option<Graph>,
    /// Cyclic components of the solved orientation, in Tarjan order
    /// (none for a spec with no per-component route, which always
    /// solves in full).
    jobs: Vec<Job>,
    /// Host arc → (job, local arc) for arcs inside a cyclic component,
    /// `(NO_JOB, _)` for the rest. Job indices are below the node count,
    /// so a `u32` holds them, and a rebuild fills half the memory an
    /// `Option<(usize, ArcId)>` table would take.
    owner: Vec<(u32, ArcId)>,
    /// Per job: the epsilon-free FNV-1a state of its subgraph.
    hashes: Vec<u64>,
    /// Per job, ratio objective only: whether it holds a zero-transit
    /// cycle. Such a cycle lies inside one cyclic component, so these
    /// flags together answer `has_zero_transit_cycle` for the graph.
    zero_transit: Vec<bool>,
    /// Per job: patched since `hashes`/`zero_transit` were computed.
    stale: Vec<bool>,
    /// Job `j`'s Tarjan node list is `nodes[node_start[j]..node_start[j + 1]]`.
    nodes: Vec<NodeId>,
    node_start: Vec<usize>,
}

impl Topo {
    /// Builds the state of `arcs`: the CSR graph, then, when
    /// `per_component`, its negated twin if `maximize` and one Tarjan
    /// pass over the solved orientation. A cyclic component whose job
    /// `reuse` can supply keeps that job's subgraph, fingerprint and
    /// flags; every other one is extracted and marked stale. Returns the
    /// state and the number of jobs reused.
    fn build(
        nodes: usize,
        arcs: &[ArcSpec],
        per_component: bool,
        maximize: bool,
        reuse: Option<Reuse>,
    ) -> (Topo, usize) {
        let graph = build_graph(nodes, arcs);
        let negated = (per_component && maximize).then(|| graph.negated());
        let mut prev = reuse.map(|r| Previous::new(r, nodes));
        let mut hashes = Vec::new();
        let mut zero_transit = Vec::new();
        let mut stale = Vec::new();
        let mut job_nodes = Vec::new();
        let mut node_start = vec![0];
        let mut reused = 0;
        let jobs = if per_component {
            let target = negated.as_ref().unwrap_or(&graph);
            let mut ex = SubgraphExtractor::new(nodes);
            cyclic_component_jobs(target, |c| {
                job_nodes.extend_from_slice(c);
                node_start.push(job_nodes.len());
                if let Some(kept) = prev.as_mut().and_then(|p| p.take(c)) {
                    reused += 1;
                    hashes.push(kept.hash);
                    zero_transit.push(kept.zero_transit);
                    stale.push(kept.stale);
                    return kept.job;
                }
                hashes.push(0);
                zero_transit.push(false);
                stale.push(true);
                let (sub, arc_map) = ex.extract(target, c);
                Job { sub, arc_map }
            })
        } else {
            Vec::new()
        };
        let mut owner = vec![(NO_JOB, ArcId::new(0)); arcs.len()];
        for (j, job) in jobs.iter().enumerate() {
            for (local, host) in job.arc_map.iter().enumerate() {
                owner[host.index()] = (idx32(j), ArcId::new(local));
            }
        }
        let topo = Topo {
            graph,
            negated,
            jobs,
            owner,
            hashes,
            zero_transit,
            stale,
            nodes: job_nodes,
            node_start,
        };
        (topo, reused)
    }

    /// The orientation the components are solved in.
    fn target(&self) -> &Graph {
        self.negated.as_ref().unwrap_or(&self.graph)
    }

    /// Rewrites one arc's weight and transit in every graph that holds
    /// it, and marks its component for re-fingerprinting.
    fn set_arc_values(&mut self, arc: usize, weight: i64, transit: i64) {
        let id = ArcId::new(arc);
        self.graph.set_arc_values(id, weight, transit);
        let solved_weight = match &mut self.negated {
            Some(neg) => {
                neg.set_arc_values(id, -weight, transit);
                -weight
            }
            None => weight,
        };
        let (job, local) = self.owner[arc];
        if job != NO_JOB {
            let j = job as usize;
            self.jobs[j].sub.set_arc_values(local, solved_weight, transit);
            self.stale[j] = true;
        }
    }

    /// Re-fingerprints (and, for the ratio objective, re-checks for a
    /// zero-transit cycle) every job patched since the last call.
    fn refresh(&mut self, ratio: bool) {
        for (j, job) in self.jobs.iter().enumerate() {
            if std::mem::take(&mut self.stale[j]) {
                self.hashes[j] = fingerprint(&job.sub);
                self.zero_transit[j] = ratio && crate::ratio::has_zero_transit_cycle(&job.sub);
            }
        }
    }
}

/// One job of the previous state, moved into the rebuilt one.
struct KeptJob {
    job: Job,
    hash: u64,
    zero_transit: bool,
    stale: bool,
}

/// A [`Reuse`] indexed for [`Topo::build`]'s reuse test.
struct Previous {
    prev: Topo,
    /// Per node: the previous job that held it, or `NO_JOB`.
    job_of: Vec<u32>,
    /// Per previous job: whether a touched arc has both endpoints in it.
    touched: Vec<bool>,
    /// Old arc id → new arc id, `NO_ARC` for a deleted arc.
    new_ids: Vec<u32>,
}

impl Previous {
    fn new(reuse: Reuse, nodes: usize) -> Previous {
        let Reuse { prev, old_ids, touched: pairs } = reuse;
        let mut job_of = vec![NO_JOB; nodes];
        for (j, w) in prev.node_start.windows(2).enumerate() {
            for v in &prev.nodes[w[0]..w[1]] {
                job_of[v.index()] = idx32(j);
            }
        }
        let mut touched = vec![false; prev.jobs.len()];
        for (src, dst) in pairs {
            if job_of[src] != NO_JOB && job_of[src] == job_of[dst] {
                touched[job_of[src] as usize] = true;
            }
        }
        let mut new_ids = vec![NO_ARC; prev.graph.num_arcs()];
        for (new, &old) in old_ids.iter().enumerate() {
            if old != NO_ARC {
                new_ids[old as usize] = idx32(new);
            }
        }
        Previous { prev, job_of, touched, new_ids }
    }

    /// The previous job of component `c` (a Tarjan node list of the new
    /// graph), if it is byte-equal to a fresh extraction: it held `c`'s
    /// first node, no touched arc lies inside it, and its node list is
    /// `c` exactly. Then `c`'s internal arcs are the job's, unchanged,
    /// in the same relative id order (deletes and appends keep it), so
    /// only the arc map needs the new ids.
    fn take(&mut self, c: &[NodeId]) -> Option<KeptJob> {
        let j = self.job_of[c[0].index()];
        if j == NO_JOB || self.touched[j as usize] {
            return None;
        }
        let j = j as usize;
        let prev = &mut self.prev;
        if prev.nodes[prev.node_start[j]..prev.node_start[j + 1]] != *c {
            return None;
        }
        let empty = Job { sub: Graph::default(), arc_map: Vec::new() };
        let mut job = std::mem::replace(&mut prev.jobs[j], empty);
        for a in &mut job.arc_map {
            *a = ArcId::new(self.new_ids[a.index()] as usize);
        }
        Some(KeptJob {
            job,
            hash: prev.hashes[j],
            zero_transit: prev.zero_transit[j],
            stale: prev.stale[j],
        })
    }
}

/// A persistent, incrementally updatable MCM/MCR solver.
///
/// Construct it from a graph plus the [`SolveSpec`] and
/// [`SolveOptions`] it will answer under (both fixed for the solver's
/// lifetime — one solver per question, like one `SccPlan` per
/// orientation), then feed it [`Edit`] batches via [`apply`].
///
/// [`SolveOptions::plan`] and [`SolveOptions::checkpoints`] are
/// stripped at construction: a frozen plan cannot follow edits, and
/// checkpoint keys are job indices, which edits renumber — both would
/// break the bit-identity contract. Budget, deadline, cancel token,
/// threads, epsilon and the fallback chain all apply per batch exactly
/// as they do to [`solve_spec`].
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
    cache: BTreeMap<u64, CacheEntry>,
    epoch: u64,
    /// Topology-derived state of `arcs`; `None` until the next solve
    /// builds it (at the start, and after an insert or delete).
    topo: Option<Topo>,
    /// Jobs the most recent rebuild of `topo` reused and extracted.
    rebuild_jobs: (usize, usize),
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
            cache: BTreeMap::new(),
            epoch: 0,
            topo: None,
            rebuild_jobs: (0, 0),
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

    /// How the most recent topology rebuild (the first solve, a batch
    /// that inserts or deletes arcs, or a fallback to a full solve) got
    /// its component jobs: `(reused, extracted)`, where a reused job is
    /// carried over unchanged from the state before the batch. `(0, 0)`
    /// before the first solve.
    pub fn rebuild_jobs(&self) -> (usize, usize) {
        self.rebuild_jobs
    }

    /// Materializes the current graph (caller orientation). Arc ids in
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
        // A batch that inserts or deletes keeps the previous state for
        // the rebuild to reuse, and records which arcs it touched.
        let mut reuse = if weight_only {
            None
        } else {
            self.topo.take().map(|prev| Reuse::new(prev, self.arcs.len()))
        };
        for edit in edits {
            let (src, dst) = match *edit {
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
                    if let Some(r) = &mut reuse {
                        r.old_ids.push(NO_ARC);
                    }
                    (src, dst)
                }
                Edit::DeleteArc { arc } => {
                    if let Some(r) = &mut reuse {
                        r.old_ids.remove(arc);
                    }
                    let a = self.arcs.remove(arc);
                    (a.src, a.dst)
                }
                Edit::Reweight { arc, weight } => {
                    self.set_arc_values(arc, weight, self.arcs[arc].transit)
                }
                Edit::Retime { arc, transit } => {
                    self.set_arc_values(arc, self.arcs[arc].weight, transit)
                }
            };
            if let Some(r) = &mut reuse {
                r.touched.push((src, dst));
            }
        }
        self.solve_batch(edits.len() as u64, reuse)
    }

    /// Writes one arc's new values. Only a weight-only batch finds the
    /// topology state in place to patch; a topology batch has moved it
    /// into its [`Reuse`] and records the arc as touched instead.
    /// Returns the arc's endpoints.
    fn set_arc_values(&mut self, arc: usize, weight: i64, transit: i64) -> (usize, usize) {
        let a = &mut self.arcs[arc];
        a.weight = weight;
        a.transit = transit;
        let ends = (a.src, a.dst);
        if let Some(topo) = &mut self.topo {
            topo.set_arc_values(arc, weight, transit);
        }
        ends
    }

    /// Re-solves the current graph without editing it (the initial
    /// full solve, or a re-answer after an error).
    pub fn solve(&mut self) -> Result<DynamicOutcome, SpecError> {
        self.solve_batch(0, None)
    }

    /// Builds the topology state of the current arc list, reusing what
    /// `reuse` can supply, and records the reused/extracted split.
    fn rebuild(&mut self, reuse: Option<Reuse>) -> Topo {
        let per_component = self.route.is_some();
        let (topo, reused) =
            Topo::build(self.nodes, &self.arcs, per_component, self.spec.maximize, reuse);
        self.rebuild_jobs = (reused, topo.jobs.len() - reused);
        crate::obs::dynamic_rebuild(
            self.opts.recorder.as_ref(),
            self.rebuild_jobs.0 as u64,
            self.rebuild_jobs.1 as u64,
        );
        topo
    }

    fn solve_batch(
        &mut self,
        edits: u64,
        mut reuse: Option<Reuse>,
    ) -> Result<DynamicOutcome, SpecError> {
        self.epoch += 1;
        let recorder = self.opts.recorder.clone();
        let recorder = recorder.as_ref();
        // A fault at the apply site simulates corrupted incremental
        // state: drop the cache and the topology state, including any
        // kept for reuse, forcing this batch down the full path. The
        // answer must be unchanged (chaos suite pins this).
        if crate::chaos::fail_hit("core.dynamic.apply", recorder) {
            self.cache.clear();
            self.topo = None;
            reuse = None;
        }
        crate::chaos::pulse("core.dynamic.rebuild", recorder);
        let mut rebuilt = self.topo.is_none();
        let mut topo = match self.topo.take() {
            Some(topo) => topo,
            None => self.rebuild(reuse),
        };
        let solved = self.component_solve(&mut topo);
        // A failed solve still committed its edits, so the state stays.
        let mut topo = self.topo.insert(topo);
        let mut outcome = solved?;
        // Certification gate: an incremental answer that does not
        // re-certify (or that a fault at the certify site rejects) is
        // discarded, and the batch is re-answered from scratch on state
        // rebuilt from the arc list.
        if let Some(sol) = &outcome.solution {
            let rejected = crate::chaos::fail_hit("core.dynamic.certify", recorder)
                || certify(sol, &topo.graph).is_err();
            if rejected {
                self.cache.clear();
                let fresh = self.rebuild(None);
                topo = self.topo.insert(fresh);
                rebuilt = true;
                outcome = full_solve(&topo.graph, &self.spec, &self.opts)?;
            }
        }
        if let Some(sol) = &outcome.solution {
            if let Err(e) = certify(sol, &topo.graph) {
                return Err(SpecError::Input(format!(
                    "dynamic solve produced an uncertifiable witness: {e}"
                )));
            }
        }
        self.evict_stale();
        crate::obs::dynamic_solve(
            recorder,
            outcome.mode.name(),
            edits,
            outcome.cache_hits as u64,
            outcome.cache_misses as u64,
            rebuilt,
        );
        Ok(outcome)
    }

    /// The incremental path: fingerprint the components of the edited
    /// graph, reuse cached outcomes, solve only the misses by the route
    /// [`solve_spec`] would take, and reduce exactly as the driver
    /// would. A spec with no per-component route solves in full.
    fn component_solve(&mut self, topo: &mut Topo) -> Result<DynamicOutcome, SpecError> {
        let Some(route) = &self.route else {
            return full_solve(&topo.graph, &self.spec, &self.opts);
        };
        topo.refresh(self.spec.objective == Objective::Ratio);
        let epsilon = route::preflight(self.spec.objective, topo.target(), &self.opts, || {
            topo.zero_transit.contains(&true)
        })?;
        let jobs = &topo.jobs;
        let deadline = self.opts.effective_deadline();
        // Folding epsilon into the fingerprint when no kernel reads it
        // would needlessly invalidate the cache whenever
        // `default_epsilon` shifts with the global weight range.
        let epsilon_matters = route.consumes_epsilon();

        let mut ws = Workspace::new();
        let mut results: Vec<Result<SccOutcome, SolveError>> = Vec::with_capacity(jobs.len());
        let mut counters = Counters::new();
        let mut hits = 0usize;
        let mut misses = 0usize;
        for (i, job) in jobs.iter().enumerate() {
            // FNV-1a streams, so folding epsilon into the stored state
            // equals hashing it after the arc table.
            let fp = if epsilon_matters {
                fnv1a_word(topo.hashes[i], epsilon.to_bits())
            } else {
                topo.hashes[i]
            };
            let cached = self.cache.get_mut(&fp).filter(|e| {
                e.nodes == job.sub.num_nodes() && e.arcs == job.sub.num_arcs()
            });
            if let Some(entry) = cached {
                entry.epoch = self.epoch;
                counters.merge(&entry.counters);
                hits += 1;
                results.push(Ok(entry.outcome.clone()));
                continue;
            }
            misses += 1;
            let mut job_counters = Counters::new();
            let result = route::solve_component(
                route,
                i,
                &job.sub,
                &mut job_counters,
                &mut ws,
                epsilon,
                &self.opts,
                deadline,
            );
            counters.merge(&job_counters);
            if let Ok(out) = &result {
                self.cache.insert(
                    fp,
                    CacheEntry {
                        outcome: out.clone(),
                        counters: job_counters,
                        nodes: job.sub.num_nodes(),
                        arcs: job.sub.num_arcs(),
                        epoch: self.epoch,
                    },
                );
            }
            results.push(result);
        }

        let solution = match reduce_outcomes(jobs, &results, counters) {
            Ok(mut sol) => {
                if self.spec.maximize {
                    sol.lambda = -sol.lambda;
                }
                Some(sol)
            }
            Err(SolveError::Acyclic) => None,
            Err(e) => return Err(e.into()),
        };
        // An acyclic graph has nothing to solve, so nothing was missed.
        let mode = if hits > 0 || jobs.is_empty() {
            SolveMode::Incremental
        } else {
            SolveMode::Full
        };
        Ok(DynamicOutcome {
            solution,
            mode,
            cache_hits: hits,
            cache_misses: misses,
        })
    }

    fn evict_stale(&mut self) {
        let epoch = self.epoch;
        self.cache
            .retain(|_, e| e.epoch.saturating_add(RETAIN_EPOCHS) > epoch);
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
fn fingerprint(sub: &Graph) -> u64 {
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

    /// A graph's arc table plus its out/in CSR lists (`Graph` has no
    /// `PartialEq`; the aligned adjacency copies derive from these).
    type GraphKey = (Vec<(usize, usize, i64, i64)>, Vec<Vec<ArcId>>, Vec<Vec<ArcId>>);

    fn graph_key(g: &Graph) -> GraphKey {
        let arcs = g
            .arc_ids()
            .map(|a| (g.source(a).index(), g.target(a).index(), g.weight(a), g.transit(a)))
            .collect();
        let out = g.node_ids().map(|v| g.out_arcs(v).to_vec()).collect();
        let inn = g.node_ids().map(|v| g.in_arcs(v).to_vec()).collect();
        (arcs, out, inn)
    }

    /// Asserts the solver's maintained topology state equals
    /// [`Topo::build`] + `refresh` on its current arc list, field by field.
    fn assert_state_is_fresh(s: &DynamicSolver, ctx: &str) {
        let got = s.topo.as_ref().expect("a solve leaves the state built");
        let (mut want, _) =
            Topo::build(s.nodes, &s.arcs, s.route.is_some(), s.spec.maximize, None);
        want.refresh(s.spec.objective == Objective::Ratio);
        assert_eq!(graph_key(&got.graph), graph_key(&want.graph), "{ctx}: graph");
        assert_eq!(
            got.negated.as_ref().map(graph_key),
            want.negated.as_ref().map(graph_key),
            "{ctx}: negated graph"
        );
        assert_eq!(got.jobs.len(), want.jobs.len(), "{ctx}: job count");
        for (j, (a, b)) in got.jobs.iter().zip(&want.jobs).enumerate() {
            assert_eq!(graph_key(&a.sub), graph_key(&b.sub), "{ctx}: job {j} subgraph");
            assert_eq!(a.arc_map, b.arc_map, "{ctx}: job {j} arc_map");
        }
        assert_eq!(got.owner, want.owner, "{ctx}: owner");
        assert_eq!(got.hashes, want.hashes, "{ctx}: hashes");
        assert_eq!(got.zero_transit, want.zero_transit, "{ctx}: zero_transit");
        assert_eq!(got.stale, want.stale, "{ctx}: stale");
        assert_eq!(got.nodes, want.nodes, "{ctx}: node lists");
        assert_eq!(got.node_start, want.node_start, "{ctx}: node list offsets");
    }

    /// Solves `g`, then applies each batch and checks the state after
    /// it. Solve errors (a zero-transit cycle) still commit the batch.
    fn replay_checking_state(
        g: &Graph,
        spec: SolveSpec,
        batches: &[Vec<Edit>],
        ctx: &str,
    ) -> DynamicSolver {
        let mut s = DynamicSolver::new(g, spec, SolveOptions::new());
        let _ = s.solve();
        assert_state_is_fresh(&s, &format!("{ctx} initial"));
        for (i, batch) in batches.iter().enumerate() {
            if let Err(SpecError::Input(e)) = s.apply(batch) {
                panic!("{ctx} batch {i}: rejected: {e}");
            }
            assert_state_is_fresh(&s, &format!("{ctx} batch {i}"));
        }
        s
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
        let insert = |src, dst| Edit::InsertArc { src, dst, weight: 3, transit: 2 };
        // Each batch on the four base jobs A, B, {4} and C, with the
        // (reused, extracted) split of its rebuild.
        let hand: [(&str, Vec<Edit>, (usize, usize)); 7] = [
            ("merge A and B", vec![insert(3, 0)], (2, 1)),
            ("split C", vec![Edit::DeleteArc { arc: 8 }], (3, 1)),
            ("drop the self-loop", vec![Edit::DeleteArc { arc: 5 }], (3, 0)),
            ("reorder A before B", vec![Edit::DeleteArc { arc: 4 }], (4, 0)),
            ("chord deleted, C kept", vec![Edit::DeleteArc { arc: 9 }], (3, 1)),
            (
                "reweight and insert in C",
                vec![Edit::Reweight { arc: 7, weight: -4 }, insert(7, 6)],
                (3, 1),
            ),
            (
                "two deletes, the first shifting the second",
                vec![Edit::DeleteArc { arc: 1 }, Edit::DeleteArc { arc: 5 }],
                (2, 0),
            ),
        ];
        for spec in state_specs() {
            for (name, batch, split) in &hand {
                let ctx = format!("{spec:?} {name}");
                let s =
                    replay_checking_state(&hand_graph(), spec, std::slice::from_ref(batch), &ctx);
                assert_eq!(s.rebuild_jobs(), *split, "{ctx}: reused/extracted");
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
    fn fingerprint_is_pinned() {
        // Recorded before FNV-1a moved into mcr-graph: cache keys must
        // not change with where the hash lives.
        assert_eq!(fingerprint(&hand_graph()), 0x978c_fe2e_f927_7bca);
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
