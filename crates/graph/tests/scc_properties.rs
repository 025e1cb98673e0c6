//! Property-based validation of the SCC decomposition against a naive
//! mutual-reachability oracle, plus condensation invariants.

use mcr_graph::traverse::{bfs_order, topological_order};
use mcr_graph::{condensation, ComponentArena, Graph, GraphBuilder, NodeId, SccDecomposition};
use proptest::prelude::*;

fn arbitrary_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (1..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m).prop_map(move |arcs| {
            let mut b = GraphBuilder::new();
            b.add_nodes(n);
            for (u, v) in arcs {
                b.add_arc(NodeId::new(u), NodeId::new(v), 1);
            }
            b.build()
        })
    })
}

/// Naive reachability matrix by n BFS runs.
fn reachable(g: &Graph) -> Vec<Vec<bool>> {
    let n = g.num_nodes();
    let mut r = vec![vec![false; n]; n];
    for (s, row) in r.iter_mut().enumerate() {
        for v in bfs_order(g, NodeId::new(s)) {
            row[v.index()] = true;
        }
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn components_are_mutual_reachability_classes(g in arbitrary_graph(24, 80)) {
        let scc = SccDecomposition::new(g.view());
        let r = reachable(&g);
        for (u, row) in r.iter().enumerate() {
            for (v, &forward) in row.iter().enumerate() {
                let same = scc.component_of(NodeId::new(u)) == scc.component_of(NodeId::new(v));
                let mutual = forward && r[v][u];
                prop_assert_eq!(same, mutual, "nodes {} and {}", u, v);
            }
        }
    }

    #[test]
    fn components_partition_the_nodes(g in arbitrary_graph(24, 80)) {
        let scc = SccDecomposition::new(g.view());
        let mut seen = vec![false; g.num_nodes()];
        for c in 0..scc.num_components() {
            for &v in scc.component(c) {
                prop_assert!(!seen[v.index()], "node listed twice");
                seen[v.index()] = true;
                prop_assert_eq!(scc.component_of(v), c);
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn component_order_is_reverse_topological(g in arbitrary_graph(24, 80)) {
        let scc = SccDecomposition::new(g.view());
        for a in g.arc_ids() {
            let cu = scc.component_of(g.source(a));
            let cv = scc.component_of(g.target(a));
            prop_assert!(cu >= cv, "arc {:?} breaks the order", a);
        }
    }

    #[test]
    fn condensation_is_a_dag_with_matching_reachability(g in arbitrary_graph(20, 60)) {
        let scc = SccDecomposition::new(g.view());
        let c = condensation(&g, &scc);
        prop_assert_eq!(c.num_nodes(), scc.num_components());
        prop_assert!(topological_order(&c).is_some(), "condensation has a cycle");
        // Arcs between distinct components exist iff some original arc
        // crosses them.
        let mut expected = std::collections::HashSet::new();
        for a in g.arc_ids() {
            let cu = scc.component_of(g.source(a));
            let cv = scc.component_of(g.target(a));
            if cu != cv {
                expected.insert((cu, cv));
            }
        }
        let mut got = std::collections::HashSet::new();
        for a in c.arc_ids() {
            got.insert((c.source(a).index(), c.target(a).index()));
        }
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn cyclic_component_flag_matches_definition(g in arbitrary_graph(20, 60)) {
        let scc = SccDecomposition::new(g.view());
        for c in 0..scc.num_components() {
            let nodes = scc.component(c);
            let expected = nodes.len() > 1
                || g.out_neighbors(nodes[0]).any(|(_, w)| w == nodes[0]);
            prop_assert_eq!(scc.is_cyclic_component(g.view(), c), expected);
        }
    }

    #[test]
    fn subgraph_extraction_is_faithful(g in arbitrary_graph(20, 60)) {
        // Every component laid out alone is faithful, and a cyclic one
        // is byte-equal to its job in the whole graph's arena.
        let scc = SccDecomposition::new(g.view());
        let comp: Vec<u32> = (0..g.num_nodes())
            .map(|v| scc.component_of(NodeId::new(v)) as u32)
            .collect();
        let mut local = vec![0; g.num_nodes()];
        let arena = ComponentArena::new(g.view());
        let order = scc.cyclic_by_smallest_node(g.view());
        prop_assert_eq!(arena.len(), order.len());
        for c in 0..scc.num_components() {
            let node_map = scc.component(c);
            let one = ComponentArena::component(g.view(), node_map, &comp, &mut local);
            let (sub, arc_map) = (one.view(0), one.arc_map(0));
            if let Some(j) = order.iter().position(|&d| d == c) {
                prop_assert_eq!(sub, arena.view(j));
                prop_assert_eq!(arc_map, arena.arc_map(j));
            }
            prop_assert_eq!(sub.num_nodes(), node_map.len());
            // Every kept arc has both endpoints in the component and
            // matching weight.
            for la in sub.arc_ids() {
                let orig = arc_map[la.index()];
                prop_assert_eq!(g.weight(orig), sub.weight(la));
                prop_assert_eq!(node_map[sub.source(la).index()], g.source(orig));
                prop_assert_eq!(node_map[sub.target(la).index()], g.target(orig));
            }
            // Count of internal arcs matches.
            let internal = g
                .arc_ids()
                .filter(|&a| {
                    scc.component_of(g.source(a)) == c && scc.component_of(g.target(a)) == c
                })
                .count();
            prop_assert_eq!(sub.num_arcs(), internal);
        }
    }
}
