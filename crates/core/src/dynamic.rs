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
//! component jobs ([`crate::driver`]). An edit batch usually touches a
//! few arcs, so most components of the edited graph are **byte-identical**
//! to components of the previous graph — and a component job's outcome
//! is a deterministic function of its subgraph bytes alone (job indices
//! only key checkpoint/obs bookkeeping, which this solver disables).
//! The solver therefore:
//!
//! 1. keeps the topology-derived state alive across batches: the CSR
//!    graph (and its negated twin when maximizing), Tarjan's component
//!    jobs, a host-arc → component-arc map, and each component's
//!    fingerprint. It is built once (`O(n + m)`) on the first solve and
//!    after every batch that inserts or deletes an arc, exactly as a
//!    from-scratch solve would build it;
//! 2. patches that state in place for a batch made only of
//!    [`Edit::Reweight`] / [`Edit::Retime`]: each edit rewrites one arc
//!    of the host graph and of its component's subgraph in
//!    `O(degree)` ([`Graph::set_arc_values`]). The arc set is unchanged,
//!    so the CSR, the job order and every subgraph stay byte-equal to a
//!    rebuild, and only the patched components are re-fingerprinted;
//! 3. looks each component's fingerprint (FNV-1a over its arc table)
//!    up in the cache and reuses the cached [`SccOutcome`] + per-job
//!    [`Counters`] on a hit,
//! 4. solves only the missed components, with the *exact* per-SCC
//!    closure [`crate::spec::solve_spec`] would have used for the same
//!    [`SolveSpec`], and
//! 5. re-enters the driver's reduction ([`reduce_outcomes`]) in job
//!    order, so tie-breaks, error precedence, witness arc mapping and
//!    counter totals are bit-identical to a from-scratch solve.
//!
//! Because cached outcomes are replayed byte-for-byte and the reduction
//! is shared with the driver, the returned [`Solution`] is
//! **bit-identical** to `solve_spec` on the edited graph — λ*, witness,
//! guarantee, `solved_by`, and counters (`dynamic_differential.rs`
//! pins this after every edit of every script, at 1/2/8 threads).
//!
//! # Full-solve fallback
//!
//! Some requests cannot be answered from the component cache and fall
//! back to a full [`solve_spec`] run (tracked by the
//! `dynamic.solve.full` vs `dynamic.solve.incremental` counter pair):
//!
//! * ratio specs solved by expansion-based algorithms (Karp family) —
//!   the expansion graph is derived, so component caching does not
//!   apply;
//! * a chaos fault at `core.dynamic.apply` (cache and topology state
//!   dropped before the solve) or `core.dynamic.certify` (incremental
//!   answer rejected);
//! * a witness that fails [`certify`] — the cache is cleared, the
//!   topology state is rebuilt from the arc list, and the batch is
//!   re-answered from scratch, never returned unverified.
//!
//! Every returned solution — incremental or full — is re-validated by
//! [`certify`] against the current caller-orientation graph.

use crate::algorithms::Algorithm;
use crate::budget::BudgetScope;
use crate::driver::{extract_jobs, reduce_outcomes, Job, SccOutcome};
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::options::SolveOptions;
use crate::solution::Solution;
use crate::spec::{solve_spec, Objective, SolveSpec, SpecError};
use crate::certify::certify;
use crate::workspace::Workspace;
use mcr_graph::{idx32, ArcId, Graph, GraphBuilder, NodeId};
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

/// How a spec's per-SCC work is replicated (see [`route_for`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    /// `Objective::Mean`: the fallback chain, exactly as
    /// `Algorithm::solve_with_options` runs it. Errors are typed.
    Mean,
    /// Exact ratio entry points (`HowardExact` / `LawlerExact`): typed
    /// errors, budget/deadline/cancel honored per attempt.
    RatioStrict(Algorithm),
    /// The `Option`-returning native ratio solvers: any error folds to
    /// "no answer" (`Ok(None)`), matching `solve_spec`'s `.ok()` path.
    RatioNative(Algorithm),
    /// Ratio via transit expansion (Karp family): no per-SCC path on
    /// the original graph, always a full solve.
    Expansion,
}

fn route_for(spec: &SolveSpec) -> Route {
    match spec.objective {
        Objective::Mean => Route::Mean,
        Objective::Ratio => match spec.algorithm {
            Algorithm::HowardExact | Algorithm::LawlerExact => Route::RatioStrict(spec.algorithm),
            Algorithm::Howard
            | Algorithm::Burns
            | Algorithm::BurnsExact
            | Algorithm::Ko
            | Algorithm::Yto
            | Algorithm::Lawler
            | Algorithm::Megiddo => Route::RatioNative(spec.algorithm),
            _ => Route::Expansion,
        },
    }
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_u64(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// The `Topo::owner` job slot of an arc outside every cyclic component.
const NO_JOB: u32 = u32::MAX;

/// The topology-derived state of the current graph (module docs, steps
/// 1–2). Every field is a function of the arc list, and a weight-only
/// batch keeps it that way by patching in place; a batch that inserts
/// or deletes an arc drops it instead.
#[derive(Debug)]
struct Topo {
    /// The current graph, caller orientation.
    graph: Graph,
    /// `graph.negated()` when a maximizing spec solves per component.
    negated: Option<Graph>,
    /// Cyclic components of the solved orientation, in Tarjan order
    /// (none for [`Route::Expansion`], which never solves per component).
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
}

impl Topo {
    fn build(nodes: usize, arcs: &[ArcSpec], spec: &SolveSpec) -> Topo {
        let graph = build_graph(nodes, arcs);
        let per_component = route_for(spec) != Route::Expansion;
        let negated = (per_component && spec.maximize).then(|| graph.negated());
        let jobs = if per_component {
            extract_jobs(negated.as_ref().unwrap_or(&graph))
        } else {
            Vec::new()
        };
        let mut owner = vec![(NO_JOB, ArcId::new(0)); arcs.len()];
        for (j, job) in jobs.iter().enumerate() {
            for (local, host) in job.arc_map.iter().enumerate() {
                owner[host.index()] = (idx32(j), ArcId::new(local));
            }
        }
        Topo {
            graph,
            negated,
            owner,
            hashes: vec![0; jobs.len()],
            zero_transit: vec![false; jobs.len()],
            stale: vec![true; jobs.len()],
            jobs,
        }
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
    cache: BTreeMap<u64, CacheEntry>,
    epoch: u64,
    /// Topology-derived state of `arcs`; `None` until the next solve
    /// builds it (at the start, and after an insert or delete).
    topo: Option<Topo>,
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
            spec,
            opts,
            cache: BTreeMap::new(),
            epoch: 0,
            topo: None,
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
        if !weight_only {
            self.topo = None;
        }
        for edit in edits {
            match *edit {
                Edit::InsertArc {
                    src,
                    dst,
                    weight,
                    transit,
                } => self.arcs.push(ArcSpec {
                    src,
                    dst,
                    weight,
                    transit,
                }),
                Edit::DeleteArc { arc } => {
                    self.arcs.remove(arc);
                }
                Edit::Reweight { arc, weight } => {
                    self.set_arc_values(arc, weight, self.arcs[arc].transit)
                }
                Edit::Retime { arc, transit } => {
                    self.set_arc_values(arc, self.arcs[arc].weight, transit)
                }
            }
        }
        self.solve_batch(edits.len() as u64)
    }

    fn set_arc_values(&mut self, arc: usize, weight: i64, transit: i64) {
        self.arcs[arc].weight = weight;
        self.arcs[arc].transit = transit;
        if let Some(topo) = &mut self.topo {
            topo.set_arc_values(arc, weight, transit);
        }
    }

    /// Re-solves the current graph without editing it (the initial
    /// full solve, or a re-answer after an error).
    pub fn solve(&mut self) -> Result<DynamicOutcome, SpecError> {
        self.solve_batch(0)
    }

    fn solve_batch(&mut self, edits: u64) -> Result<DynamicOutcome, SpecError> {
        self.epoch += 1;
        // A fault at the apply site simulates corrupted incremental
        // state: drop the cache and the topology state, forcing this
        // batch down the full path. The answer must be unchanged (chaos
        // suite pins this).
        if crate::chaos::fail_hit("core.dynamic.apply") {
            self.cache.clear();
            self.topo = None;
        }
        crate::chaos::pulse("core.dynamic.rebuild");
        let mut rebuilt = self.topo.is_none();
        let mut topo = match self.topo.take() {
            Some(topo) => topo,
            None => Topo::build(self.nodes, &self.arcs, &self.spec),
        };
        let solved = match route_for(&self.spec) {
            Route::Expansion => full_solve(&topo.graph, &self.spec, &self.opts),
            route => self.component_solve(&mut topo, route),
        };
        // A failed solve still committed its edits, so the state stays.
        let topo = self.topo.insert(topo);
        let mut outcome = solved?;
        // Certification gate: an incremental answer that does not
        // re-certify (or that a fault at the certify site rejects) is
        // discarded, and the batch is re-answered from scratch on state
        // rebuilt from the arc list.
        if let Some(sol) = &outcome.solution {
            let rejected = crate::chaos::fail_hit("core.dynamic.certify")
                || certify(sol, &topo.graph).is_err();
            if rejected {
                self.cache.clear();
                *topo = Topo::build(self.nodes, &self.arcs, &self.spec);
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
            outcome.mode.name(),
            edits,
            outcome.cache_hits as u64,
            outcome.cache_misses as u64,
            rebuilt,
        );
        Ok(outcome)
    }

    /// The incremental path: fingerprint the components of the edited
    /// graph, reuse cached outcomes, solve only the misses, and reduce
    /// exactly as the driver would.
    fn component_solve(
        &mut self,
        topo: &mut Topo,
        route: Route,
    ) -> Result<DynamicOutcome, SpecError> {
        topo.refresh(self.spec.objective == Objective::Ratio);
        // Mirror solve_spec's up-front validation order: epsilon
        // first, then the ratio zero-transit-cycle guard.
        let epsilon = match self.opts.epsilon {
            Some(e) if e > 0.0 && e.is_finite() => e,
            Some(e) => return Err(SolveError::InvalidEpsilon { epsilon: e }.into()),
            None => Algorithm::default_epsilon(topo.target()),
        };
        if topo.zero_transit.contains(&true) {
            return Err(SolveError::ZeroTransitCycle.into());
        }
        let jobs = &topo.jobs;
        if jobs.is_empty() {
            return Ok(DynamicOutcome {
                solution: None,
                mode: SolveMode::Incremental,
                cache_hits: 0,
                cache_misses: 0,
            });
        }
        let chain = self.opts.fallback.chain_for(self.spec.algorithm);
        let deadline = self.opts.effective_deadline();
        // Only ε-terminated solvers consume epsilon; folding it into
        // the fingerprint when irrelevant would needlessly invalidate
        // the cache whenever `default_epsilon` shifts with the global
        // weight range.
        let epsilon_matters = match route {
            Route::Mean => chain.iter().any(|a| a.is_approximate()),
            Route::RatioNative(alg) => matches!(alg, Algorithm::Howard | Algorithm::Lawler),
            Route::RatioStrict(_) => false,
            Route::Expansion => false,
        };

        let mut ws = Workspace::new();
        let mut results: Vec<Result<SccOutcome, SolveError>> = Vec::with_capacity(jobs.len());
        let mut counters = Counters::new();
        let mut hits = 0usize;
        let mut misses = 0usize;
        for (i, job) in jobs.iter().enumerate() {
            // FNV-1a streams, so folding epsilon into the stored state
            // equals hashing it after the arc table.
            let mut fp = topo.hashes[i];
            if epsilon_matters {
                fnv1a_u64(&mut fp, epsilon.to_bits());
            }
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
            let result =
                self.solve_job(route, i, &job.sub, &mut job_counters, &mut ws, epsilon, &chain, deadline);
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

        let reduced = reduce_outcomes(jobs, &results, counters);
        let solution = match route {
            // The native ratio entry points fold *any* failure into
            // "no answer" (`solve_per_scc(..).ok()`); replicate that.
            Route::RatioNative(_) => reduced.ok(),
            _ => match reduced {
                Ok(sol) => Some(sol),
                Err(SolveError::Acyclic) => None,
                Err(e) => return Err(e.into()),
            },
        };
        let solution = solution.map(|mut sol| {
            if self.spec.maximize {
                sol.lambda = -sol.lambda;
            }
            sol
        });
        let mode = if hits > 0 {
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

    /// Solves one missed component with the same per-SCC closure a
    /// from-scratch [`solve_spec`] run would apply to it.
    #[allow(clippy::too_many_arguments)]
    fn solve_job(
        &self,
        route: Route,
        job: usize,
        sub: &Graph,
        counters: &mut Counters,
        ws: &mut Workspace,
        epsilon: f64,
        chain: &[Algorithm],
        deadline: Option<crate::budget::Deadline>,
    ) -> Result<SccOutcome, SolveError> {
        let opts = &self.opts;
        match route {
            Route::Mean => crate::algorithms::run_fallback_chain(
                job, chain, sub, counters, epsilon, ws, opts, deadline,
            ),
            Route::RatioStrict(Algorithm::HowardExact) => {
                let mut scope = BudgetScope::new(&opts.budget, deadline, Algorithm::HowardExact)
                    .with_cancel(opts.cancel.clone());
                crate::algorithms::howard::solve_scc_exact(sub, counters, ws, &mut scope)
            }
            Route::RatioStrict(_) => {
                let mut scope = BudgetScope::new(&opts.budget, deadline, Algorithm::LawlerExact)
                    .with_cancel(opts.cancel.clone());
                crate::ratio::ratio_bisection(sub, counters, None, ws, &mut scope)
            }
            Route::RatioNative(Algorithm::Howard) => {
                let mut scope = BudgetScope::unlimited(Algorithm::Howard);
                crate::algorithms::howard::solve_scc_fig1(sub, counters, epsilon, ws, &mut scope)
            }
            Route::RatioNative(Algorithm::Burns | Algorithm::BurnsExact) => {
                let mut scope = BudgetScope::unlimited(Algorithm::BurnsExact);
                crate::algorithms::burns::solve_scc(sub, counters, &mut scope)
            }
            Route::RatioNative(Algorithm::Ko) => {
                let mut scope = BudgetScope::unlimited(Algorithm::Ko);
                crate::algorithms::parametric::solve_scc(
                    sub,
                    counters,
                    crate::algorithms::parametric::HeapGranularity::PerArc,
                    &mut scope,
                )
            }
            Route::RatioNative(Algorithm::Yto) => {
                let mut scope = BudgetScope::unlimited(Algorithm::Yto);
                crate::algorithms::parametric::solve_scc(
                    sub,
                    counters,
                    crate::algorithms::parametric::HeapGranularity::PerNode,
                    &mut scope,
                )
            }
            Route::RatioNative(Algorithm::Lawler) => {
                let mut scope = BudgetScope::unlimited(Algorithm::Lawler);
                crate::ratio::ratio_bisection(sub, counters, Some(epsilon), ws, &mut scope)
            }
            Route::RatioNative(Algorithm::Megiddo) => {
                let mut scope = BudgetScope::unlimited(Algorithm::Megiddo);
                crate::algorithms::megiddo::solve_scc(sub, counters, ws, &mut scope)
            }
            // Unreachable: route_for sends every other spec to
            // Route::Expansion, which never calls solve_job.
            Route::RatioNative(_) | Route::Expansion => Err(SolveError::NumericRange {
                context: "dynamic solver routed a non-per-SCC spec to the component path",
            }),
        }
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
    let mut h = FNV_OFFSET;
    fnv1a_u64(&mut h, sub.num_nodes() as u64);
    fnv1a_u64(&mut h, sub.num_arcs() as u64);
    for a in sub.arc_ids() {
        fnv1a_u64(&mut h, sub.source(a).index() as u64);
        fnv1a_u64(&mut h, sub.target(a).index() as u64);
        fnv1a_u64(&mut h, sub.weight(a) as u64);
        fnv1a_u64(&mut h, sub.transit(a) as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
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
