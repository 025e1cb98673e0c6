//! The daemon's LRU graph cache.
//!
//! Parsing a DIMACS instance and running Tarjan's SCC extraction are
//! the two per-request costs that do not depend on the requested
//! algorithm or precision. The cache keys instances by the FNV-1a
//! hash of their exact DIMACS text, so a client can send a graph once
//! and then re-solve it under different algorithms, epsilons, or
//! objectives by `graph_hash` alone — the daemon pays neither parse
//! nor SCC extraction again (the `serve.graph.parse` and
//! `serve.plan.build` counters prove it).
//!
//! Each entry lazily holds one [`SccPlan`] *per orientation*: maximize
//! requests solve the negated graph, and a plan's frozen jobs carry
//! the weights of the orientation they were extracted from (see
//! [`mcr_core::spec::solve_spec`]'s plan-orientation contract), so the
//! two orientations can never share a plan.

//!
//! The `edit` op mutates a cached instance *in place*: the hash then
//! names the evolving graph, not a digest of its original text.
//! [`GraphCache::commit_edit`] is the single mutation point, and it
//! drops both orientation plans along with the graph swap — a plan's
//! frozen jobs carry the arc ids and weights of the graph they were
//! extracted from, so a surviving plan after a `DeleteArc` would hand
//! the solver stale subgraphs (the `serve.plan.build` counter jumping
//! after an edit is the pinned evidence that this invalidation runs).

use crate::chaos;
use mcr_core::{DynamicSolver, SccPlan};
use mcr_graph::Graph;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// FNV-1a, 64-bit: the wire format's content hash (re-exported from
/// `mcr-graph`, so every crate hashes with one implementation).
pub use mcr_graph::hash::fnv1a;

struct Entry {
    graph: Arc<Graph>,
    /// Plan for the minimize orientation (prepared from `graph`).
    plan: Option<SccPlan>,
    /// Plan for the maximize orientation (prepared from
    /// `graph.negated()`).
    negated_plan: Option<SccPlan>,
    /// The instance's persistent incremental solver, keyed by the
    /// question it answers (spec + epsilon + threads) so a later edit
    /// under a different question rebuilds instead of reusing a solver
    /// configured for another algorithm.
    dynamic: Option<(String, DynamicSolver)>,
}

/// What a lookup hands to the worker: the instance in the caller's
/// orientation plus the plan for the orientation the solver will run
/// on. `plan_built` reports whether this call had to build the plan
/// (first use of this orientation) so the server can meter it.
pub struct Resolved {
    /// The cached instance, caller orientation.
    pub graph: Arc<Graph>,
    /// SCC plan for the requested orientation.
    pub plan: SccPlan,
    /// Whether [`SccPlan::prepare`] ran during this lookup.
    pub plan_built: bool,
}

/// LRU cache from content hash to parsed instance. Capacity 0 disables
/// caching (every lookup misses and nothing is stored). Not internally
/// synchronized — the server wraps it in its own mutex.
pub struct GraphCache {
    capacity: usize,
    entries: HashMap<u64, Entry>,
    /// Recency order, oldest at the front. Invariant: same key set as
    /// `entries`, each key once.
    order: VecDeque<u64>,
}

impl GraphCache {
    /// An empty cache holding at most `capacity` instances.
    pub fn new(capacity: usize) -> GraphCache {
        GraphCache {
            capacity,
            entries: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Number of cached instances.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn touch(&mut self, hash: u64) {
        if let Some(pos) = self.order.iter().position(|&h| h == hash) {
            self.order.remove(pos);
        }
        self.order.push_back(hash);
    }

    /// Looks up `hash`, building the orientation's plan on first use.
    /// A hit refreshes the entry's recency. The `serve.cache.lookup`
    /// failpoint degrades a would-be hit into a miss, which the server
    /// then handles exactly like a cold instance — the fault is
    /// contained to extra work, never a wrong answer.
    pub fn get(&mut self, hash: u64, maximize: bool) -> Option<Resolved> {
        if !self.entries.contains_key(&hash) {
            return None;
        }
        if chaos::fail_hit("serve.cache.lookup") {
            return None;
        }
        self.touch(hash);
        let entry = self.entries.get_mut(&hash)?;
        let slot = if maximize {
            &mut entry.negated_plan
        } else {
            &mut entry.plan
        };
        let plan_built = slot.is_none();
        if plan_built {
            let plan = if maximize {
                SccPlan::prepare(&entry.graph.negated())
            } else {
                SccPlan::prepare(&entry.graph)
            };
            *slot = Some(plan);
        }
        let plan = slot.clone()?;
        Some(Resolved {
            graph: Arc::clone(&entry.graph),
            plan,
            plan_built,
        })
    }

    /// The cached instance itself, without building a plan (the `edit`
    /// path builds no plan — its solver re-extracts components after
    /// every batch). A hit refreshes recency; the `serve.cache.lookup`
    /// failpoint degrades it into a miss like [`GraphCache::get`].
    pub fn peek_graph(&mut self, hash: u64) -> Option<Arc<Graph>> {
        if !self.entries.contains_key(&hash) {
            return None;
        }
        if chaos::fail_hit("serve.cache.lookup") {
            return None;
        }
        self.touch(hash);
        self.entries.get(&hash).map(|e| Arc::clone(&e.graph))
    }

    /// Takes the instance's persistent [`DynamicSolver`] when one
    /// exists *for the same question* (`key` encodes spec + epsilon +
    /// threads). Ownership moves to the caller so the solve runs
    /// outside the cache lock; [`GraphCache::commit_edit`] returns it.
    pub fn take_dynamic(&mut self, hash: u64, key: &str) -> Option<DynamicSolver> {
        let entry = self.entries.get_mut(&hash)?;
        match entry.dynamic.take() {
            Some((k, solver)) if k == key => Some(solver),
            // A solver for a different question is useless here; drop
            // it rather than answer the wrong spec from its cache.
            _ => None,
        }
    }

    /// Commits an edited instance: swaps in the mutated graph, stores
    /// the solver for the next batch, and — the part a `DeleteArc`
    /// makes load-bearing — invalidates both orientation plans, whose
    /// frozen jobs still describe the pre-edit graph. No-op when the
    /// hash is not cached (capacity 0, or evicted mid-edit).
    pub fn commit_edit(&mut self, hash: u64, key: &str, graph: Arc<Graph>, solver: DynamicSolver) {
        let Some(entry) = self.entries.get_mut(&hash) else {
            return;
        };
        entry.graph = graph;
        entry.plan = None;
        entry.negated_plan = None;
        entry.dynamic = Some((key.to_string(), solver));
        self.touch(hash);
    }

    /// Inserts a freshly parsed instance, evicting the least recently
    /// used entries beyond capacity. No-op when capacity is 0.
    pub fn insert(&mut self, hash: u64, graph: Arc<Graph>) {
        if self.capacity == 0 {
            return;
        }
        self.entries.insert(
            hash,
            Entry {
                graph,
                plan: None,
                negated_plan: None,
                dynamic: None,
            },
        );
        self.touch(hash);
        while self.entries.len() > self.capacity {
            match self.order.pop_front() {
                Some(oldest) => {
                    self.entries.remove(&oldest);
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_graph::io::read_dimacs;

    const TRIANGLE: &str = "p mcr 3 3\na 1 2 1\na 2 3 2\na 3 1 3\n";

    fn graph(text: &str) -> Arc<Graph> {
        Arc::new(read_dimacs(&mut text.as_bytes()).expect("valid"))
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hit_reuses_the_plan_miss_reports_build() {
        let mut c = GraphCache::new(4);
        let h = fnv1a(TRIANGLE);
        assert!(c.get(h, false).is_none());
        c.insert(h, graph(TRIANGLE));
        let first = c.get(h, false).expect("hit");
        assert!(first.plan_built);
        let second = c.get(h, false).expect("hit");
        assert!(!second.plan_built, "plan is reused");
        assert_eq!(first.plan, second.plan, "same shared plan");
    }

    #[test]
    fn orientations_get_distinct_plans() {
        let mut c = GraphCache::new(4);
        let h = fnv1a(TRIANGLE);
        c.insert(h, graph(TRIANGLE));
        let min = c.get(h, false).expect("hit");
        let max = c.get(h, true).expect("hit");
        assert!(max.plan_built, "maximize builds its own plan");
        assert!(min.plan != max.plan, "orientations never share a plan");
        assert_eq!(min.plan.num_jobs(), max.plan.num_jobs());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut c = GraphCache::new(2);
        let texts = [
            TRIANGLE,
            "p mcr 2 2\na 1 2 5\na 2 1 1\n",
            "p mcr 1 1\na 1 1 7\n",
        ];
        let hashes: Vec<u64> = texts.iter().map(|t| fnv1a(t)).collect();
        c.insert(hashes[0], graph(texts[0]));
        c.insert(hashes[1], graph(texts[1]));
        // Touch [0] so [1] is the LRU victim.
        assert!(c.get(hashes[0], false).is_some());
        c.insert(hashes[2], graph(texts[2]));
        assert_eq!(c.len(), 2);
        assert!(c.get(hashes[1], false).is_none(), "victim evicted");
        assert!(c.get(hashes[0], false).is_some());
        assert!(c.get(hashes[2], false).is_some());
    }

    #[test]
    fn commit_edit_invalidates_both_orientation_plans() {
        use mcr_core::{SolveOptions, SolveSpec};
        let mut c = GraphCache::new(4);
        let h = fnv1a(TRIANGLE);
        c.insert(h, graph(TRIANGLE));
        // Build both orientation plans, then edit: the next lookups
        // must rebuild rather than reuse pre-edit jobs.
        assert!(c.get(h, false).expect("hit").plan_built);
        assert!(c.get(h, true).expect("hit").plan_built);
        let g = c.peek_graph(h).expect("cached");
        let solver = DynamicSolver::new(
            &g,
            SolveSpec::mean(mcr_core::Algorithm::HowardExact),
            SolveOptions::new(),
        );
        let mutated = graph("p mcr 3 2\na 1 2 1\na 2 3 2\n");
        c.commit_edit(h, "key", Arc::clone(&mutated), solver);
        let min = c.get(h, false).expect("hit");
        assert!(min.plan_built, "minimize plan was invalidated");
        assert_eq!(min.graph.num_arcs(), 2, "lookup sees the mutated graph");
        assert!(c.get(h, true).expect("hit").plan_built);
        // The solver round-trips only under the same question key.
        assert!(c.take_dynamic(h, "other").is_none());
        assert!(c.take_dynamic(h, "key").is_none(), "mismatch dropped it");
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let mut c = GraphCache::new(0);
        let h = fnv1a(TRIANGLE);
        c.insert(h, graph(TRIANGLE));
        assert!(c.is_empty());
        assert!(c.get(h, false).is_none());
    }
}
