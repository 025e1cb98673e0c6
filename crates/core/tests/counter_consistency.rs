//! Counter-consistency contracts behind the unified metrics registry.
//!
//! The observability layer absorbs each solve's [`Counters`] once, at
//! solve end, under fixed metric names — which is only meaningful if
//! (a) the merged totals are thread-count invariant for deterministic
//! algorithms, and (b) both heap engines count the same abstract
//! operations, so `heap.decrease_key` / `heap.extract_min` mean the
//! same thing whichever engine produced them. These tests pin both
//! properties at the `Counters`/`HeapCounters` level, where they hold
//! with or without the `obs` feature compiled in.

use mcr_core::{Algorithm, SolveOptions};
use mcr_gen::circuit::{circuit_graph, CircuitConfig};
use mcr_graph::heap::{AddressableHeap, FibonacciHeap, HeapCounters, IndexedBinaryHeap};

/// The deterministic (exact, fixed-iteration-structure) algorithms
/// whose merged counters must be bit-identical at any thread count.
const DETERMINISTIC: [Algorithm; 3] = [Algorithm::Karp, Algorithm::Dg, Algorithm::Lawler];

#[test]
fn merged_counters_are_thread_count_invariant() {
    // Circuit graphs decompose into several SCCs, so the parallel
    // driver genuinely fans out and merges per-thread counters.
    for seed in 0..5u64 {
        let g = circuit_graph(&CircuitConfig::new(96).seed(seed));
        for alg in DETERMINISTIC {
            let (lam1, seq) = alg
                .solve_lambda_only_opts(&g, &SolveOptions::new().threads(1))
                .expect("circuit graphs are cyclic");
            for threads in [2usize, 8] {
                let (lam, par) = alg
                    .solve_lambda_only_opts(&g, &SolveOptions::new().threads(threads))
                    .expect("circuit graphs are cyclic");
                assert_eq!(lam, lam1, "{} seed={seed} threads={threads}", alg.name());
                assert_eq!(
                    par,
                    seq,
                    "{} seed={seed} threads={threads}: merged Counters drifted",
                    alg.name()
                );
            }
        }
    }
}

/// Drives one heap engine through a fixed operation script and returns
/// its counters. Keys are distinct so the pop order (and therefore the
/// script) is engine-independent.
fn run_script<H: AddressableHeap<i64>>() -> (Vec<(usize, i64)>, HeapCounters) {
    let mut h = H::with_capacity(64);
    for i in 0..32usize {
        // Distinct keys, deliberately out of insertion order.
        h.push(i, ((i as i64 * 37) % 101) * 2 + 1);
    }
    for i in (0..32usize).step_by(3) {
        h.decrease_key(i, -(i as i64));
    }
    let mut popped = Vec::new();
    for _ in 0..10 {
        popped.push(h.pop_min().expect("heap still has entries"));
    }
    for i in [31usize, 29, 23] {
        if h.contains(i) {
            h.remove(i);
        }
    }
    while let Some(entry) = h.pop_min() {
        popped.push(entry);
    }
    (popped, h.counters())
}

#[test]
fn heap_engines_count_the_same_abstract_operations() {
    let (fib_order, fib) = run_script::<FibonacciHeap<i64>>();
    let (bin_order, bin) = run_script::<IndexedBinaryHeap<i64>>();
    // Same script, same semantics: identical pop order...
    assert_eq!(fib_order, bin_order, "engines disagreed on the script");
    // ...and identical operation counts, field by field. This is what
    // lets the metrics registry publish `heap.insert`,
    // `heap.decrease_key`, `heap.extract_min`, and `heap.remove` under
    // one name set regardless of engine.
    assert_eq!(fib.inserts, bin.inserts);
    assert_eq!(fib.decrease_keys, bin.decrease_keys);
    assert_eq!(fib.delete_mins, bin.delete_mins);
    assert_eq!(fib.removals, bin.removals);
    assert_eq!(fib.inserts, 32);
    assert_eq!(fib.decrease_keys, 11);
    assert!(fib.removals <= 3);
}

#[test]
fn heap_counters_reach_the_solve_counters_of_heap_algorithms() {
    // KO and YTO are the heap-backed algorithms; their per-solve
    // Counters must carry non-zero heap fields (the registry's
    // `heap.*` metrics), and those too must be thread-count invariant.
    let g = circuit_graph(&CircuitConfig::new(96).seed(1));
    for alg in [Algorithm::Ko, Algorithm::Yto] {
        let (_, seq) = alg
            .solve_lambda_only_opts(&g, &SolveOptions::new().threads(1))
            .expect("cyclic");
        assert!(seq.heap.inserts > 0, "{}: no heap inserts recorded", alg.name());
        assert!(seq.heap.delete_mins > 0, "{}: no extract-mins recorded", alg.name());
        for threads in [2usize, 8] {
            let (_, par) = alg
                .solve_lambda_only_opts(&g, &SolveOptions::new().threads(threads))
                .expect("cyclic");
            assert_eq!(par.heap, seq.heap, "{} threads={threads}", alg.name());
        }
    }
}
