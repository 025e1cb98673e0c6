//! Criterion bench: per-edit latency of the incremental
//! [`DynamicSolver`] vs a from-scratch `solve_spec` after every edit.
//!
//! `cargo bench -p mcr-bench --bench dynamic`
//!
//! Two instances, both ≥ 10k arcs:
//!
//! * `sprand_union` — a disjoint union of 64 SPRAND components
//!   (the shape the component cache is built for: an edit touches one
//!   component, the other 63 replay from cache);
//! * `circuit` — one mostly-connected circuit graph (the adversarial
//!   shape: almost everything lives in one SCC, so the cache saves
//!   little solve work and the row measures what the solver pays
//!   around the solve: a reweight patches the kept CSR graph and SCC
//!   jobs in place, where a from-scratch solve rebuilds both).
//!
//! Each group times `incremental` (a persistent solver absorbing one
//! reweight per iteration) against `from_scratch` (the same edit
//! followed by a full `solve_spec` of the edited graph). Before any
//! timing, the whole edit rotation is replayed once asserting the
//! incremental answer bit-identical to the from-scratch one (λ,
//! witness, counters) and recording the fallback rate — how many
//! batches the cache could not shortcut — which is printed and
//! recorded in `results/BENCH_dynamic.json`.
//!
//! Note: the incremental speedup is *work reduction*, not parallelism,
//! so it shows up even on a single-core container; see the JSON for
//! recorded numbers and the machine caveat.
//!
//! Setting `MCR_BENCH_QUICK=1` shrinks the instances and sample counts
//! to CI-smoke size — the bit-identity asserts still run in full.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcr_core::spec::{solve_spec, SolveSpec};
use mcr_core::{Algorithm, DynamicSolver, Edit, SolveMode, SolveOptions};
use mcr_gen::circuit::{circuit_graph, CircuitConfig};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_graph::{Graph, GraphBuilder};
use std::hint::black_box;

fn quick() -> bool {
    std::env::var_os("MCR_BENCH_QUICK").is_some_and(|v| v != "0")
}

/// Disjoint union of `blocks` SPRAND components (no bridges: every
/// block is its own SCC and stays byte-identical under edits to the
/// others).
fn sprand_union(blocks: usize, n: usize, m: usize, seed: u64) -> Graph {
    let mut b = GraphBuilder::new();
    for k in 0..blocks {
        let part = sprand(
            &SprandConfig::new(n, m)
                .seed(seed * 131 + k as u64)
                .weight_range(1, 10_000),
        );
        let ids = b.add_nodes(part.num_nodes());
        for a in part.arc_ids() {
            b.add_arc(
                ids[part.source(a).index()],
                ids[part.target(a).index()],
                part.weight(a),
            );
        }
    }
    b.build()
}

/// A deterministic rotation of single-arc reweights, spread across the
/// arc range so successive edits land in different components.
fn edit_rotation(num_arcs: usize, edits: usize) -> Vec<Edit> {
    (0..edits)
        .map(|i| Edit::Reweight {
            arc: (i * 7919) % num_arcs,
            weight: 1 + ((i * 2654435761) % 9_973) as i64,
        })
        .collect()
}

/// Replays the rotation once on a warm solver, asserting every
/// incremental answer bit-identical to a from-scratch solve of the
/// edited graph, and returns how many batches fell back to the full
/// path.
fn assert_identical_and_count_fallbacks(
    g: &Graph,
    spec: SolveSpec,
    edits: &[Edit],
) -> (usize, usize) {
    let mut solver = DynamicSolver::new(g, spec, SolveOptions::new());
    solver.solve().expect("initial solve");
    let mut full = 0usize;
    for (i, edit) in edits.iter().enumerate() {
        let out = solver.apply(std::slice::from_ref(edit)).expect("edit solves");
        if out.mode == SolveMode::Full {
            full += 1;
        }
        let current = solver.current_graph();
        let fresh = solve_spec(&current, &spec, &SolveOptions::new())
            .expect("edited graph solves")
            .expect("cyclic");
        let inc = out.solution.expect("cyclic");
        assert_eq!(inc.lambda, fresh.lambda, "edit {i}: lambda");
        assert_eq!(inc.cycle, fresh.cycle, "edit {i}: witness");
        assert_eq!(inc.counters, fresh.counters, "edit {i}: counters");
    }
    (full, edits.len())
}

fn bench_instance(c: &mut Criterion, name: &str, g: &Graph, spec: SolveSpec) {
    let edits = edit_rotation(g.num_arcs(), if quick() { 8 } else { 64 });
    let (full, total) = assert_identical_and_count_fallbacks(g, spec, &edits);
    println!("{name}: {} arcs, fallback-to-full rate {full}/{total}", g.num_arcs());

    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("per_edit", "incremental"), |b| {
        let mut solver = DynamicSolver::new(g, spec, SolveOptions::new());
        solver.solve().expect("initial solve");
        let mut i = 0usize;
        b.iter(|| {
            let edit = edits[i % edits.len()];
            i += 1;
            black_box(solver.apply(std::slice::from_ref(&edit)).expect("edit"))
        });
    });
    group.bench_function(BenchmarkId::new("per_edit", "from_scratch"), |b| {
        // The non-incremental protocol: mutate a plain arc list, rebuild
        // the CSR graph, and run a full solve_spec per edit.
        let nodes = g.num_nodes();
        let mut arcs: Vec<(usize, usize, i64, i64)> = g
            .arc_ids()
            .map(|a| (g.source(a).index(), g.target(a).index(), g.weight(a), g.transit(a)))
            .collect();
        let mut i = 0usize;
        b.iter(|| {
            match edits[i % edits.len()] {
                Edit::Reweight { arc, weight } => arcs[arc].2 = weight,
                _ => unreachable!("the rotation is reweights only"),
            }
            i += 1;
            let mut builder = GraphBuilder::new();
            let ids = builder.add_nodes(nodes);
            for &(src, dst, w, t) in &arcs {
                builder.add_arc_with_transit(ids[src], ids[dst], w, t);
            }
            let edited = builder.build();
            black_box(solve_spec(&edited, &spec, &SolveOptions::new()).expect("solves"))
        });
    });
    group.finish();
}

fn bench_dynamic(c: &mut Criterion) {
    // Components big enough that per-SCC solve work (exact Lawler
    // bisection) dominates the O(n + m) rebuild the from-scratch path
    // pays — that ratio, not parallelism, is where the cache pays.
    let (blocks, n, m) = if quick() { (4, 32, 96) } else { (8, 256, 1280) };
    let union = sprand_union(blocks, n, m, 11);
    bench_instance(
        c,
        "dynamic_sprand",
        &union,
        SolveSpec::mean(Algorithm::LawlerExact),
    );

    let gates = if quick() { 512 } else { 7000 };
    let circuit = circuit_graph(&CircuitConfig::new(gates).seed(7));
    bench_instance(
        c,
        "dynamic_circuit",
        &circuit,
        SolveSpec::mean(Algorithm::HowardExact),
    );
}

criterion_group!(benches, bench_dynamic);
criterion_main!(benches);
