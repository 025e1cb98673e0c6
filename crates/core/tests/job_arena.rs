//! The driver's job arena against per-component extraction, and the
//! maximize orientation against a negated graph.
//!
//! [`SccPlan`] lays every cyclic component out in one
//! `mcr_graph::ComponentArena`, and kernels read each job through a
//! borrowed `GraphRef`. These tests pin that a job's view is byte-equal
//! to the standalone graph a [`GraphBuilder`] builds from the same
//! component's arcs, that every algorithm answers identically through
//! a prepared plan, through a fresh layout and at every thread count,
//! and that a maximize solve, which negates each job's weights as it
//! solves it, equals a minimize solve of the negated graph.

use mcr_core::spec::{solve_spec, SolveSpec};
use mcr_core::{Algorithm, SccPlan, Solution, SolveOptions};
use mcr_graph::{ArcId, Graph, GraphBuilder, NodeId, SccDecomposition};

/// A small xorshift stream, so the inputs are fixed without a rand
/// dependency.
struct Stream(u64);

impl Stream {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % bound
    }
}

fn build(n: usize, arcs: &[(usize, usize, i64, i64)]) -> Graph {
    let mut b = GraphBuilder::new();
    b.add_nodes(n);
    for &(s, t, w, tr) in arcs {
        b.add_arc_with_transit(NodeId::new(s), NodeId::new(t), w, tr);
    }
    b.build()
}

/// The reference extraction: the subgraph of `g` induced by `nodes`
/// (its node `i` is `nodes[i]`), built by a [`GraphBuilder`] from each
/// node's out-arcs in out-list order, kept when both endpoints are
/// inside, plus the map from its arc ids to `g`'s.
fn extract(g: &Graph, nodes: &[NodeId]) -> (Graph, Vec<ArcId>) {
    let mut b = GraphBuilder::new();
    b.add_nodes(nodes.len());
    let mut arc_map = Vec::new();
    for (i, &v) in nodes.iter().enumerate() {
        for &a in g.out_arcs(v) {
            if let Some(t) = nodes.iter().position(|&u| u == g.target(a)) {
                b.add_arc_with_transit(NodeId::new(i), NodeId::new(t), g.weight(a), g.transit(a));
                arc_map.push(a);
            }
        }
    }
    (b.build(), arc_map)
}

/// The next random graph of `rng`: up to 12 nodes with weights
/// -10..=10 and transits 0..=3, self-loops and parallel arcs often, and
/// a parallel twin of the first arc. Returns it with its arc list.
fn random_graph(rng: &mut Stream) -> (Graph, Vec<(usize, usize, i64, i64)>) {
    let n = 1 + rng.next(12) as usize;
    let m = rng.next(30) as usize;
    let mut arcs: Vec<(usize, usize, i64, i64)> = (0..m)
        .map(|_| {
            let (s, t) = (rng.next(n as u64) as usize, rng.next(n as u64) as usize);
            (s, t, rng.next(21) as i64 - 10, rng.next(4) as i64)
        })
        .collect();
    if let Some(&(s, t, w, tr)) = arcs.first() {
        arcs.push((s, t, w + 1, tr)); // a parallel twin
    }
    (build(n, &arcs), arcs)
}

/// The seed of the random graphs.
const SEED: u64 = 0x243f_6a88_85a3_08d3;

#[test]
fn every_arena_job_equals_its_extracted_subgraph() {
    // The counts below make sure self-loops, parallel arcs, zero
    // transits and components entered off their smallest node each
    // reached a job.
    let mut rng = Stream(SEED);
    let (mut loops, mut parallel, mut zero_transit, mut entered_elsewhere) = (0, 0, 0, 0);
    let mut jobs = 0;
    for _ in 0..400 {
        let (g, arcs) = random_graph(&mut rng);
        let plan = SccPlan::prepare(&g);
        let scc = SccDecomposition::new(g.view());
        let order = scc.cyclic_by_smallest_node(g.view());
        assert_eq!(plan.num_jobs(), order.len());
        for (j, &c) in order.iter().enumerate() {
            let (sub, arc_map) = extract(&g, scc.component(c));
            assert_eq!(plan.view(j), sub.view(), "job {j} of {arcs:?}");
            assert_eq!(plan.arc_map(j), arc_map, "job {j} of {arcs:?}");
            jobs += 1;
            let view = plan.view(j);
            loops += view
                .arc_ids()
                .filter(|&a| view.source(a) == view.target(a))
                .count();
            parallel += view
                .arc_ids()
                .filter(|&a| {
                    view.out_neighbors(view.source(a))
                        .any(|(b, t)| b != a && t == view.target(a))
                })
                .count();
            zero_transit += view.transits().iter().filter(|&&t| t == 0).count();
            let smallest = *scc.component(c).last().expect("nonempty");
            entered_elsewhere += usize::from(g.arc_ids().any(|a| {
                scc.component_of(g.source(a)) != c
                    && scc.component_of(g.target(a)) == c
                    && g.target(a) != smallest
            }));
        }
    }
    assert!(jobs > 400, "only {jobs} jobs");
    assert!(
        loops > 0 && parallel > 0 && zero_transit > 0,
        "{loops} {parallel} {zero_transit}"
    );
    assert!(
        entered_elsewhere > 0,
        "no component was entered off its smallest node"
    );
}

/// Four cyclic components with transits 1..=3 and over 256 arcs in
/// all, so two threads really split the jobs: a 130-node ring with
/// chords, a triangle with a parallel arc, a 2-cycle, a self-loop, and
/// a one-way chain joining them through a node on no cycle.
fn multi_component_graph() -> Graph {
    let mut rng = Stream(0x1319_8a2e_0370_7344);
    let mut arc = |s: usize, t: usize| (s, t, rng.next(41) as i64 - 20, 1 + rng.next(3) as i64);
    let ring = 130;
    let mut arcs = Vec::new();
    for i in 0..ring {
        arcs.push(arc(i, (i + 1) % ring));
        arcs.push(arc(i, (i + 7) % ring));
    }
    let (a, b, c) = (ring, ring + 1, ring + 2);
    arcs.extend([arc(a, b), arc(b, c), arc(c, a), arc(b, c)]);
    let (d, e) = (ring + 3, ring + 4);
    arcs.extend([arc(d, e), arc(e, d)]);
    let (lone, tail) = (ring + 5, ring + 6);
    arcs.extend([arc(lone, lone)]);
    arcs.extend([arc(3, a), arc(b, d), arc(e, tail), arc(tail, lone)]);
    build(ring + 7, &arcs)
}

#[test]
fn every_algorithm_answers_alike_with_and_without_a_plan_at_one_and_two_threads() {
    let g = multi_component_graph();
    assert!(g.num_arcs() > 256);
    let plan = SccPlan::prepare(&g);
    assert_eq!(plan.num_jobs(), 4);
    let mut answered = 0;
    for alg in Algorithm::ALL {
        for spec in [SolveSpec::mean(alg), SolveSpec::ratio(alg)] {
            let reference = solve_spec(&g, &spec, &SolveOptions::new().threads(1));
            answered += usize::from(matches!(reference, Ok(Some(_))));
            for threads in [1, 2] {
                for planned in [false, true] {
                    let mut opts = SolveOptions::new().threads(threads);
                    if planned {
                        opts = opts.plan(plan.clone());
                    }
                    // Debug covers λ, the witness, the guarantee, the
                    // answering algorithm and every counter, or the error.
                    assert_eq!(
                        format!("{:?}", solve_spec(&g, &spec, &opts)),
                        format!("{reference:?}"),
                        "{spec:?} at {threads} threads, planned: {planned}"
                    );
                }
            }
        }
    }
    assert_eq!(answered, 2 * Algorithm::ALL.len(), "every spec answers");
    // The witness maps back through the arena to host arcs.
    let sol = solve_spec(
        &g,
        &SolveSpec::ratio(Algorithm::HowardExact),
        &SolveOptions::new(),
    )
    .expect("solves")
    .expect("cyclic");
    assert!(sol.cycle.iter().all(|a| a.index() < g.num_arcs()));
    assert_eq!(sol.cycle_ratio(&g), sol.lambda);
}

/// `g` with every weight negated, built from its arc list.
fn negated(g: &Graph) -> Graph {
    let mut b = GraphBuilder::new();
    b.add_nodes(g.num_nodes());
    for a in g.arc_ids() {
        b.add_arc_with_transit(g.source(a), g.target(a), -g.weight(a), g.transit(a));
    }
    b.build()
}

#[test]
fn maximize_equals_a_minimize_of_the_negated_graph_with_one_plan_for_both_orientations() {
    let mut rng = Stream(SEED);
    let mut graphs: Vec<Graph> = (0..40).map(|_| random_graph(&mut rng).0).collect();
    graphs.push(multi_component_graph());
    let mut answered = 0;
    for g in &graphs {
        let plan = SccPlan::prepare(g);
        let neg = negated(g);
        for alg in Algorithm::ALL {
            for spec in [SolveSpec::mean(alg), SolveSpec::ratio(alg)] {
                let max = spec.maximize();
                // The maximum is minus the minimum over negated weights,
                // witness and counters included.
                let expected = solve_spec(&neg, &spec, &SolveOptions::new()).map(|sol| {
                    sol.map(|sol| Solution {
                        lambda: -sol.lambda,
                        ..sol
                    })
                });
                answered += usize::from(matches!(expected, Ok(Some(_))));
                let minimum = solve_spec(g, &spec, &SolveOptions::new());
                for threads in [1, 2] {
                    for planned in [false, true] {
                        let mut opts = SolveOptions::new().threads(threads);
                        if planned {
                            opts = opts.plan(plan.clone());
                        }
                        let ctx = format!(
                            "{alg:?} {spec:?} on {g:?} at {threads} threads, planned: {planned}"
                        );
                        assert_eq!(
                            format!("{:?}", solve_spec(g, &max, &opts)),
                            format!("{expected:?}"),
                            "maximize: {ctx}"
                        );
                        // The plan the maximize read serves the
                        // minimize as well.
                        assert_eq!(
                            format!("{:?}", solve_spec(g, &spec, &opts)),
                            format!("{minimum:?}"),
                            "minimize: {ctx}"
                        );
                    }
                }
            }
        }
    }
    assert!(answered > 500, "only {answered} answers");
}
