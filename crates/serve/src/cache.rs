//! The daemon's LRU graph cache.
//!
//! Parsing a DIMACS instance and running Tarjan's SCC pass are
//! the two per-request costs that do not depend on the requested
//! algorithm or precision. The cache keys instances by the FNV-1a
//! hash of their exact DIMACS text, so a client can send a graph once
//! and then re-solve it under different algorithms, epsilons, or
//! objectives by `graph_hash` alone — the daemon pays neither parse
//! nor the SCC pass again (the `serve.graph.parse` and
//! `serve.plan.build` counters prove it).
//!
//! Each entry lazily holds one [`SccPlan`], which serves minimize and
//! maximize requests alike: a plan's job arena holds the graph's own
//! weights, and a maximize solve negates them per job as it solves.
//!
//! The `edit` op mutates a cached instance *in place*: the hash then
//! names the evolving graph, not a digest of its original text.
//! [`GraphCache::commit_edit`] is the single mutation point, and it
//! drops the plan along with the graph swap — a plan's job arena
//! carries the arc ids and weights of the graph it was laid out from,
//! so a surviving plan after a `DeleteArc` would hand the solver stale
//! subgraphs (the `serve.plan.build` counter jumping after an edit is
//! the pinned evidence that this invalidation runs). An entry also
//! keeps the incremental solver of the last `edit` question beside its
//! plan.
//!
//! λ* depends only on the graph and the [`Question`] asked, so each
//! entry also keeps the last [`ANSWERS_PER_ENTRY`] certified answers
//! it gave. A repeated question is answered from that store without a
//! solve (`serve.answer.hit` against `serve.answer.miss`). Only
//! successful answers are kept: an error is solved again every time.
//! An edit or a re-insert of the hash empties the store, and
//! [`GraphCache::remember`] keeps an answer only while the entry still
//! holds the very graph it was solved on.

use crate::chaos;
use crate::protocol::{EditJob, SolveJob};
use mcr_core::{Budget, DynamicSolver, FallbackChain, SccPlan, Solution, SolveSpec};
use mcr_graph::Graph;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// FNV-1a, 64-bit: the wire format's content hash (re-exported from
/// `mcr-graph`, so every crate hashes with one implementation).
pub use mcr_graph::hash::fnv1a;

/// Certified answers an entry keeps; the oldest is dropped first.
pub const ANSWERS_PER_ENTRY: usize = 16;

/// The question a request asks of an instance: everything that reaches
/// the solver. A request's `id`, `dedup` flag and deadline are left
/// out: a deadline can cut a solve short, never change a successful
/// answer. The precision is held as its bits, so the key is `Eq`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Question {
    spec: SolveSpec,
    epsilon: Option<u64>,
    budget: Budget,
    fallback: FallbackChain,
    threads: usize,
}

// `SolveSpec` is only `PartialEq`, but its fields (two enums and a
// bool) compare totally.
impl Eq for Question {}

impl Question {
    fn new(spec: SolveSpec, epsilon: Option<f64>, threads: usize) -> Question {
        Question {
            spec,
            epsilon: epsilon.map(f64::to_bits),
            budget: Budget::UNLIMITED,
            fallback: FallbackChain::default(),
            threads,
        }
    }

    /// The question a `solve` request asks.
    pub fn solve(job: &SolveJob) -> Question {
        Question {
            budget: job.budget.unwrap_or(Budget::UNLIMITED),
            fallback: job.fallback.unwrap_or_default(),
            ..Question::new(job.spec, job.epsilon, job.threads)
        }
    }

    /// The question an `edit` request's incremental solver answers
    /// (default budget and fallback, as `edit` takes neither).
    pub fn edit(job: &EditJob) -> Question {
        Question::new(job.spec, job.epsilon, job.threads)
    }
}

/// A certified answer: the solution, or `None` for an acyclic instance.
pub type Answer = Option<Arc<Solution>>;

struct Entry {
    graph: Arc<Graph>,
    /// The plan of `graph`, for either orientation.
    plan: Option<SccPlan>,
    /// The instance's persistent incremental solver, keyed by the
    /// question it answers so a later edit under a different question
    /// rebuilds instead of reusing a solver configured for another
    /// algorithm.
    dynamic: Option<(Question, DynamicSolver)>,
    /// Certified answers for `graph`, oldest first, at most
    /// [`ANSWERS_PER_ENTRY`].
    answers: VecDeque<(Question, Answer)>,
}

impl Entry {
    fn new(graph: Arc<Graph>) -> Entry {
        Entry {
            graph,
            plan: None,
            dynamic: None,
            answers: VecDeque::new(),
        }
    }
}

/// What a lookup hands to the worker: the instance plus its plan.
/// `plan_built` reports whether this call had to build the plan (its
/// first use since the instance was cached or edited) so the server can
/// meter it.
pub struct Resolved {
    /// The cached instance.
    pub graph: Arc<Graph>,
    /// The instance's SCC plan.
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

    /// Looks up `hash`, building the plan on first use. A hit refreshes
    /// the entry's recency. The `serve.cache.lookup` failpoint degrades a
    /// would-be hit into a miss, which the server then handles exactly
    /// like a cold instance — the fault is contained to extra work, never
    /// a wrong answer.
    pub fn get(&mut self, hash: u64) -> Option<Resolved> {
        if !self.entries.contains_key(&hash) {
            return None;
        }
        if chaos::fail_hit("serve.cache.lookup") {
            return None;
        }
        self.touch(hash);
        let entry = self.entries.get_mut(&hash)?;
        let plan_built = entry.plan.is_none();
        let plan = entry
            .plan
            .get_or_insert_with(|| SccPlan::prepare(&entry.graph))
            .clone();
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
    /// exists *for the same question*. Ownership moves to the caller
    /// so the solve runs outside the cache lock;
    /// [`GraphCache::commit_edit`] returns it.
    pub fn take_dynamic(&mut self, hash: u64, question: &Question) -> Option<DynamicSolver> {
        let entry = self.entries.get_mut(&hash)?;
        match entry.dynamic.take() {
            Some((q, solver)) if q == *question => Some(solver),
            // A solver for a different question is useless here; drop
            // it rather than answer the wrong spec from its cache.
            _ => None,
        }
    }

    /// Commits an edited instance: swaps in the mutated graph, stores
    /// the solver for the next batch, and — the part a `DeleteArc`
    /// makes load-bearing — invalidates the plan, whose frozen jobs
    /// still describe the pre-edit graph, and every stored answer.
    /// No-op when the hash is not cached (capacity 0, or evicted
    /// mid-edit).
    pub fn commit_edit(
        &mut self,
        hash: u64,
        question: Question,
        graph: Arc<Graph>,
        solver: DynamicSolver,
    ) {
        let Some(entry) = self.entries.get_mut(&hash) else {
            return;
        };
        entry.graph = graph;
        entry.plan = None;
        entry.answers.clear();
        entry.dynamic = Some((question, solver));
        self.touch(hash);
    }

    /// The stored answer to `question`, if the entry for `hash` still
    /// holds `graph` (the instance the caller resolved) and was asked
    /// it before.
    pub fn answer(&self, hash: u64, graph: &Arc<Graph>, question: &Question) -> Option<Answer> {
        let entry = self.entries.get(&hash)?;
        if !Arc::ptr_eq(&entry.graph, graph) {
            return None;
        }
        entry
            .answers
            .iter()
            .find(|(q, _)| q == question)
            .map(|(_, answer)| answer.clone())
    }

    /// Stores a certified answer to `question`, solved on `graph`. It
    /// is dropped unless the entry for `hash` still holds that very
    /// graph: an edit committed while the solve ran must not let the
    /// pre-edit answer outlive it. The oldest answer makes room once
    /// [`ANSWERS_PER_ENTRY`] are kept.
    pub fn remember(&mut self, hash: u64, graph: &Arc<Graph>, question: Question, answer: Answer) {
        let Some(entry) = self.entries.get_mut(&hash) else {
            return;
        };
        if !Arc::ptr_eq(&entry.graph, graph) || entry.answers.iter().any(|(q, _)| *q == question) {
            return;
        }
        if entry.answers.len() == ANSWERS_PER_ENTRY {
            entry.answers.pop_front();
        }
        entry.answers.push_back((question, answer));
    }

    /// Inserts a freshly parsed instance (replacing any entry for the
    /// hash, with its plans and answers), evicting the least recently
    /// used entries beyond capacity. No-op when capacity is 0.
    pub fn insert(&mut self, hash: u64, graph: Arc<Graph>) {
        if self.capacity == 0 {
            return;
        }
        self.entries.insert(hash, Entry::new(graph));
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
    use mcr_core::spec::solve_spec;
    use mcr_core::{Algorithm, SolveOptions};
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
        assert!(c.get(h).is_none());
        c.insert(h, graph(TRIANGLE));
        let first = c.get(h).expect("hit");
        assert!(first.plan_built);
        let second = c.get(h).expect("hit");
        assert!(!second.plan_built, "plan is reused");
        assert_eq!(first.plan, second.plan, "same shared plan");
    }

    #[test]
    fn orientations_get_distinct_plans() {
        // The name is older than the shared plan: both orientations now
        // get the one plan, and it must answer both like no plan does.
        let mut c = GraphCache::new(4);
        let h = fnv1a(TRIANGLE);
        c.insert(h, graph(TRIANGLE));
        let resolved = c.get(h).expect("hit");
        assert!(resolved.plan_built);
        // The plan holds the graph's own weights, so a maximize solve
        // through it equals one without a plan, and so does a minimize.
        for spec in [
            SolveSpec::mean(Algorithm::HowardExact),
            SolveSpec::mean(Algorithm::HowardExact).maximize(),
        ] {
            let planned = SolveOptions::new().plan(resolved.plan.clone());
            assert_eq!(
                format!("{:?}", solve_spec(&resolved.graph, &spec, &planned)),
                format!(
                    "{:?}",
                    solve_spec(&resolved.graph, &spec, &SolveOptions::new())
                ),
                "{spec:?}"
            );
        }
        assert!(!c.get(h).expect("hit").plan_built, "one plan serves both");
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
        assert!(c.get(hashes[0]).is_some());
        c.insert(hashes[2], graph(texts[2]));
        assert_eq!(c.len(), 2);
        assert!(c.get(hashes[1]).is_none(), "victim evicted");
        assert!(c.get(hashes[0]).is_some());
        assert!(c.get(hashes[2]).is_some());
    }

    fn question(algorithm: Algorithm) -> Question {
        Question::new(SolveSpec::mean(algorithm), None, 1)
    }

    fn answer_for(g: &Graph, algorithm: Algorithm) -> Answer {
        let spec = SolveSpec::mean(algorithm);
        let sol = solve_spec(g, &spec, &SolveOptions::new()).expect("solves");
        sol.map(Arc::new)
    }

    fn lambda(answer: Option<Answer>) -> Option<String> {
        answer.flatten().map(|sol| sol.lambda.to_string())
    }

    #[test]
    fn commit_edit_invalidates_both_orientation_plans() {
        let mut c = GraphCache::new(4);
        let h = fnv1a(TRIANGLE);
        c.insert(h, graph(TRIANGLE));
        // The name is older than the shared plan. Build the plan, then
        // edit: the next lookup must rebuild rather than reuse pre-edit
        // jobs, for either orientation.
        assert!(c.get(h).expect("hit").plan_built);
        assert!(!c.get(h).expect("hit").plan_built);
        let g = c.peek_graph(h).expect("cached");
        let solver = DynamicSolver::new(
            &g,
            SolveSpec::mean(Algorithm::HowardExact),
            SolveOptions::new(),
        );
        let mutated = graph("p mcr 3 2\na 1 2 1\na 2 3 2\n");
        let key = question(Algorithm::HowardExact);
        c.commit_edit(h, key, Arc::clone(&mutated), solver);
        let after = c.get(h).expect("hit");
        assert!(after.plan_built, "the plan was invalidated");
        assert_eq!(after.graph.num_arcs(), 2, "lookup sees the mutated graph");
        assert_eq!(after.plan.num_jobs(), 0, "the plan is the mutated graph's");
        assert!(
            !c.get(h).expect("hit").plan_built,
            "rebuilt once, then shared"
        );
        // The solver round-trips only under the same question.
        assert!(c.take_dynamic(h, &question(Algorithm::Karp)).is_none());
        assert!(c.take_dynamic(h, &key).is_none(), "mismatch dropped it");
    }

    #[test]
    fn questions_differ_in_everything_that_reaches_the_solver() {
        let base = question(Algorithm::Howard);
        let variants = [
            Question::new(SolveSpec::mean(Algorithm::Karp), None, 1),
            Question::new(SolveSpec::mean(Algorithm::Howard).maximize(), None, 1),
            Question::new(SolveSpec::ratio(Algorithm::Howard), None, 1),
            Question::new(SolveSpec::mean(Algorithm::Howard), Some(0.5), 1),
            Question::new(SolveSpec::mean(Algorithm::Howard), None, 2),
            Question {
                budget: Budget::UNLIMITED.max_iterations(3),
                ..base
            },
            Question {
                fallback: FallbackChain::NONE,
                ..base
            },
        ];
        for v in variants {
            assert_ne!(v, base, "{v:?}");
        }
        // -0.0 == 0.0 as floats, but they are different requests.
        assert_ne!(
            Question::new(SolveSpec::mean(Algorithm::Howard), Some(0.0), 1),
            Question::new(SolveSpec::mean(Algorithm::Howard), Some(-0.0), 1)
        );
        assert_eq!(base, question(Algorithm::Howard));
    }

    #[test]
    fn a_remembered_answer_is_found_until_an_edit_or_reinsert() {
        let mut c = GraphCache::new(4);
        let h = fnv1a(TRIANGLE);
        c.insert(h, graph(TRIANGLE));
        let g = c.peek_graph(h).expect("cached");
        let q = question(Algorithm::HowardExact);
        assert!(c.answer(h, &g, &q).is_none(), "nothing asked yet");
        c.remember(h, &g, q, answer_for(&g, Algorithm::HowardExact));
        assert_eq!(lambda(c.answer(h, &g, &q)).as_deref(), Some("2"));
        assert!(c.answer(h, &g, &question(Algorithm::Karp)).is_none());
        // An acyclic answer is an answer too.
        let dag = graph("p mcr 2 1\na 1 2 5\n");
        let hd = fnv1a("dag");
        c.insert(hd, Arc::clone(&dag));
        c.remember(hd, &dag, q, None);
        assert!(matches!(c.answer(hd, &dag, &q), Some(None)));
        // An edit empties the store: the same graph Arc no longer
        // matches, and the new one was never asked.
        let solver = DynamicSolver::new(
            &g,
            SolveSpec::mean(Algorithm::HowardExact),
            SolveOptions::new(),
        );
        let mutated = graph("p mcr 3 3\na 1 2 4\na 2 3 4\na 3 1 4\n");
        c.commit_edit(h, q, Arc::clone(&mutated), solver);
        assert!(c.answer(h, &g, &q).is_none());
        assert!(
            c.answer(h, &mutated, &q).is_none(),
            "commit_edit cleared the store"
        );
        c.remember(h, &mutated, q, answer_for(&mutated, Algorithm::HowardExact));
        assert_eq!(lambda(c.answer(h, &mutated, &q)).as_deref(), Some("4"));
        // Re-inserting the hash starts a fresh entry.
        c.insert(h, Arc::clone(&mutated));
        assert!(
            c.answer(h, &mutated, &q).is_none(),
            "insert cleared the store"
        );
    }

    #[test]
    fn a_remember_for_a_graph_the_entry_no_longer_holds_is_dropped() {
        let mut c = GraphCache::new(4);
        let h = fnv1a(TRIANGLE);
        c.insert(h, graph(TRIANGLE));
        let before = c.peek_graph(h).expect("cached");
        let q = question(Algorithm::HowardExact);
        // A worker resolved `before` and started solving; an edit then
        // committed another graph under the same hash.
        let solver = DynamicSolver::new(
            &before,
            SolveSpec::mean(Algorithm::HowardExact),
            SolveOptions::new(),
        );
        let after = graph("p mcr 3 3\na 1 2 4\na 2 3 4\na 3 1 4\n");
        c.commit_edit(h, q, Arc::clone(&after), solver);
        c.remember(h, &before, q, answer_for(&before, Algorithm::HowardExact));
        assert!(
            c.answer(h, &after, &q).is_none(),
            "the pre-edit answer was dropped"
        );
        // An equal graph in another allocation is not the entry's graph.
        let twin = Arc::new((*after).clone());
        c.remember(h, &twin, q, answer_for(&twin, Algorithm::HowardExact));
        assert!(c.answer(h, &after, &q).is_none());
        // An uncached hash keeps nothing.
        c.remember(7, &after, q, None);
        assert!(c.answer(7, &after, &q).is_none());
    }

    #[test]
    fn the_store_drops_its_oldest_answer_at_the_bound() {
        let mut c = GraphCache::new(4);
        let h = fnv1a(TRIANGLE);
        c.insert(h, graph(TRIANGLE));
        let g = c.peek_graph(h).expect("cached");
        let asked: Vec<Question> = (1..=ANSWERS_PER_ENTRY + 1)
            .map(|threads| Question::new(SolveSpec::mean(Algorithm::Karp), None, threads))
            .collect();
        for &q in &asked {
            c.remember(h, &g, q, answer_for(&g, Algorithm::Karp));
        }
        assert!(c.answer(h, &g, &asked[0]).is_none(), "oldest dropped");
        for q in &asked[1..] {
            assert!(c.answer(h, &g, q).is_some(), "{q:?}");
        }
        // Remembering a question already kept changes nothing.
        c.remember(h, &g, asked[1], None);
        assert!(c.answer(h, &g, &asked[1]).expect("kept").is_some());
        assert!(c.answer(h, &g, &asked[2]).is_some(), "nothing evicted");
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let mut c = GraphCache::new(0);
        let h = fnv1a(TRIANGLE);
        c.insert(h, graph(TRIANGLE));
        assert!(c.is_empty());
        assert!(c.get(h).is_none());
    }
}
