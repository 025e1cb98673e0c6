//! Structural guarantees of the critical subgraph: it contains *every*
//! minimum mean cycle (verified exhaustively against the cycle
//! enumerator), all its arcs are tight, and it is exactly the
//! performance-limiting core the paper describes in §2.

use mcr_core::bellman::{bellman_ford, scaled_costs, CycleCheck};
use mcr_core::critical::{critical_cycle, critical_subgraph};
use mcr_core::reference::{brute_force_min_mean, for_each_simple_cycle};
use mcr_core::{Counters, Ratio64};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_graph::Graph;
use std::collections::HashSet;

fn instance(seed: u64) -> Graph {
    sprand(&SprandConfig::new(11, 30).seed(seed).weight_range(-20, 20))
}

#[test]
fn contains_every_minimum_mean_cycle() {
    for seed in 0..15 {
        let g = instance(seed);
        let (lambda, _) = brute_force_min_mean(&g).expect("cyclic");
        let cs = critical_subgraph(&g, lambda).expect("optimal lambda");
        let critical: HashSet<_> = cs.arcs.iter().copied().collect();
        for_each_simple_cycle(&g, |cycle| {
            let w: i64 = cycle.iter().map(|&a| g.weight(a)).sum();
            if Ratio64::new(w, cycle.len() as i64) == lambda {
                for a in cycle {
                    assert!(
                        critical.contains(a),
                        "seed {seed}: min-mean cycle arc {a:?} missing"
                    );
                }
            }
        });
    }
}

#[test]
fn every_critical_arc_is_tight() {
    for seed in 0..15 {
        let g = instance(seed);
        let (lambda, _) = brute_force_min_mean(&g).expect("cyclic");
        let cost = scaled_costs(&g, lambda);
        let mut c = Counters::new();
        let dist = match bellman_ford(&g, &cost, true, &mut c).expect("no fault") {
            CycleCheck::Feasible(d) => d,
            CycleCheck::NegativeCycle(_) => panic!("lambda is optimal"),
        };
        let cs = critical_subgraph(&g, lambda).expect("optimal lambda");
        let critical: HashSet<_> = cs.arcs.iter().copied().collect();
        for a in g.arc_ids() {
            let tight =
                dist[g.source(a).index()] + cost[a.index()] == dist[g.target(a).index()];
            assert_eq!(critical.contains(&a), tight, "seed {seed} arc {a:?}");
        }
    }
}

#[test]
fn critical_cycle_is_inside_and_optimal() {
    for seed in 0..15 {
        let g = instance(seed);
        let (lambda, _) = brute_force_min_mean(&g).expect("cyclic");
        let cyc = critical_cycle(&g, lambda).expect("optimal lambda");
        let w: i64 = cyc.iter().map(|&a| g.weight(a)).sum();
        assert_eq!(Ratio64::new(w, cyc.len() as i64), lambda, "seed {seed}");
        let cs = critical_subgraph(&g, lambda).expect("optimal lambda");
        let critical: HashSet<_> = cs.arcs.iter().copied().collect();
        for a in cyc {
            assert!(critical.contains(&a), "seed {seed}");
        }
    }
}

#[test]
fn critical_nodes_are_endpoints_of_critical_arcs() {
    for seed in 0..10 {
        let g = instance(seed);
        let (lambda, _) = brute_force_min_mean(&g).expect("cyclic");
        let cs = critical_subgraph(&g, lambda).expect("optimal lambda");
        let mut expected = vec![false; g.num_nodes()];
        for &a in &cs.arcs {
            expected[g.source(a).index()] = true;
            expected[g.target(a).index()] = true;
        }
        assert_eq!(cs.node_is_critical, expected, "seed {seed}");
        let listed: Vec<usize> = cs.nodes().iter().map(|v| v.index()).collect();
        let from_flags: Vec<usize> = (0..g.num_nodes()).filter(|&v| expected[v]).collect();
        assert_eq!(listed, from_flags);
    }
}

#[test]
fn subgraph_shrinks_as_lambda_grows_toward_optimum() {
    // For λ < λ*, fewer (or equal) arcs are tight than at λ*... not in
    // general — but at λ far below every arc weight, nothing on a cycle
    // is tight. Check the boundary behaviors instead.
    let g = instance(42);
    let (lambda, _) = brute_force_min_mean(&g).expect("cyclic");
    // At the optimum: critical subgraph is cyclic (contains a min cycle).
    let at_opt = critical_subgraph(&g, lambda).expect("optimal");
    assert!(!at_opt.arcs.is_empty());
    // Below the optimum: still well-defined, but the tight subgraph is
    // acyclic (no cycle achieves the smaller mean).
    let below = critical_subgraph(&g, lambda - Ratio64::from(1)).expect("feasible");
    let arcs: Vec<_> = below.arcs.clone();
    assert!(
        mcr_graph::traverse::topological_order(&subgraph_of(&g, &arcs)).is_some(),
        "tight subgraph below lambda* must be acyclic"
    );
    // Above the optimum: error.
    assert!(critical_subgraph(&g, lambda + Ratio64::new(1, 1000)).is_err());
}

fn subgraph_of(g: &Graph, arcs: &[mcr_graph::ArcId]) -> Graph {
    let mut b = mcr_graph::GraphBuilder::new();
    b.add_nodes(g.num_nodes());
    for &a in arcs {
        b.add_arc(g.source(a), g.target(a), g.weight(a));
    }
    b.build()
}
