//! Curated Miri subset for `mcr-graph`: small, allocation- and
//! index-heavy exercises of the pointer-dense structures (builder, SCC
//! decomposition, both addressable heaps, the DIMACS codec on in-memory
//! buffers). The full property suites are far too slow under the Miri
//! interpreter; this file is the tier that CI runs as
//! `cargo miri test -p mcr-graph --test miri_smoke`, and it also runs
//! as a plain (fast) integration test under `cargo test`.
//!
//! Everything here is in-memory — no file IO — so it works under Miri's
//! default isolation.

use mcr_graph::graph::from_arc_list;
use mcr_graph::heap::{AddressableHeap, FibonacciHeap, IndexedBinaryHeap};
use mcr_graph::io::{read_dimacs, write_dimacs};
use mcr_graph::{condensation, ComponentArena, NodeId, SccDecomposition};

/// Two 3-cycles bridged by a one-way arc, plus an isolated self-loop.
fn two_scc_graph() -> mcr_graph::Graph {
    from_arc_list(
        7,
        &[
            (0, 1, 2),
            (1, 2, 3),
            (2, 0, 1),
            (2, 3, 5),
            (3, 4, 1),
            (4, 5, 2),
            (5, 3, 4),
            (6, 6, 9),
        ],
    )
}

#[test]
fn builder_and_accessors_round_trip() {
    let g = two_scc_graph();
    assert_eq!(g.num_nodes(), 7);
    assert_eq!(g.num_arcs(), 8);
    let mut total = 0i64;
    for a in g.arc_ids() {
        total += g.weight(a);
    }
    assert_eq!(total, 27);
}

#[test]
fn scc_decomposition_and_condensation() {
    let g = two_scc_graph();
    let scc = SccDecomposition::new(g.view());
    assert_eq!(scc.num_components(), 3);
    assert_eq!(
        scc.component_of(NodeId::new(0)),
        scc.component_of(NodeId::new(2))
    );
    assert_ne!(
        scc.component_of(NodeId::new(0)),
        scc.component_of(NodeId::new(3))
    );
    let cond = condensation(&g, &scc);
    assert_eq!(cond.num_nodes(), 3);
    let arena = ComponentArena::new(g.view());
    assert_eq!(arena.len(), 3);
    for j in 0..arena.len() {
        let sub = arena.view(j);
        assert!(sub.num_nodes() >= 1);
        assert_eq!(sub.num_arcs(), arena.arc_map(j).len());
    }
}

fn heap_exercise<H: AddressableHeap<i64>>() {
    let mut h = H::with_capacity(8);
    for (item, key) in [(0usize, 9i64), (3, 4), (5, 7), (7, 1), (2, 6)] {
        h.push(item, key);
    }
    h.decrease_key(0, 2);
    h.decrease_key(5, 3);
    assert_eq!(h.remove(2), Some(6));
    let mut drained = Vec::new();
    while let Some((item, key)) = h.pop_min() {
        drained.push((item, key));
    }
    assert_eq!(drained, vec![(7, 1), (0, 2), (5, 3), (3, 4)]);
    assert!(h.is_empty());
}

#[test]
fn binary_heap_under_miri() {
    heap_exercise::<IndexedBinaryHeap<i64>>();
}

#[test]
fn fibonacci_heap_under_miri() {
    heap_exercise::<FibonacciHeap<i64>>();
}

#[test]
fn dimacs_codec_round_trips_in_memory() {
    let g = two_scc_graph();
    let mut buf = Vec::new();
    write_dimacs(&mut buf, &g).expect("write to Vec");
    let parsed = read_dimacs(&mut buf.as_slice()).expect("parse own output");
    assert_eq!(parsed.num_nodes(), g.num_nodes());
    assert_eq!(parsed.num_arcs(), g.num_arcs());
    for (a, b) in g.arc_ids().zip(parsed.arc_ids()) {
        assert_eq!(g.weight(a), parsed.weight(b));
        assert_eq!(g.transit(a), parsed.transit(b));
    }
}

#[test]
fn malformed_input_is_a_typed_error() {
    let bad = b"p mcr 2 1\na 1 9 5\n";
    let err = read_dimacs(&mut &bad[..]).expect_err("node out of range");
    assert!(err.line() >= 1);
}
