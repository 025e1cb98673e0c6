//! Parallel-driver determinism: solving with any worker-thread count
//! must return a `Solution` bit-identical to the sequential one — same
//! λ, same witness cycle, same guarantee, same merged counter totals.
//!
//! The driver guarantees this by construction (fixed job order, strict
//! `<` reduction, commutative saturating counter merge); these tests
//! exercise the guarantee end-to-end through every public algorithm on
//! multi-SCC inputs, where the work queue actually fans out.

use mcr_core::{Algorithm, Ratio64, Solution, SolveOptions};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_graph::graph::from_arc_list;
use mcr_graph::io::read_dimacs;
use mcr_graph::{Graph, GraphBuilder};

const THREAD_COUNTS: [usize; 2] = [2, 8];

fn assert_same_solution(seq: &Solution, par: &Solution, label: &str) {
    assert_eq!(par.lambda, seq.lambda, "{label}: lambda");
    assert_eq!(par.cycle, seq.cycle, "{label}: witness cycle");
    assert_eq!(par.guarantee, seq.guarantee, "{label}: guarantee");
    assert_eq!(par.counters, seq.counters, "{label}: counters");
}

/// Runs every algorithm sequentially and at each parallel thread count
/// and asserts the full solutions (and λ-only results) coincide.
fn assert_thread_count_invariant(g: &Graph, label: &str) {
    for alg in Algorithm::ALL {
        let seq = alg.solve(g).expect("input graphs are cyclic");
        let (seq_lam, seq_cnt) = alg.solve_lambda_only(g).expect("cyclic");
        for threads in THREAD_COUNTS {
            let opts = SolveOptions::new().threads(threads);
            let tag = format!("{label}/{}/threads={threads}", alg.name());
            let par = alg.solve_with_options(g, &opts).expect("cyclic");
            assert_same_solution(&seq, &par, &tag);
            let (par_lam, par_cnt) = alg.solve_lambda_only_opts(g, &opts).expect("cyclic");
            assert_eq!(par_lam, seq_lam, "{tag}: lambda-only value");
            assert_eq!(par_cnt, seq_cnt, "{tag}: lambda-only counters");
        }
    }
}

#[test]
fn multi_scc_benchmark_instance() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../benchmarks/multi_scc.dimacs"
    );
    let text = std::fs::read_to_string(path).expect("benchmark instance present");
    let g = read_dimacs(&mut text.as_bytes()).expect("valid DIMACS");
    // Sanity: the instance really has several components with the
    // documented optimum.
    let sol = mcr_core::minimum_cycle_mean(&g).expect("cyclic");
    assert_eq!(sol.lambda, Ratio64::from(2));
    assert_thread_count_invariant(&g, "multi_scc.dimacs");
}

#[test]
fn every_benchmark_instance() {
    // The invariant must hold on all of benchmarks/, including the
    // single-SCC instances where the parallel path degenerates to the
    // sequential one. Unit-transit instances go through every MCM
    // algorithm; transit-bearing instances (biquad) are cost-to-time
    // *ratio* problems, so they go through the ratio entry points.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("benchmarks/ present") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("dimacs") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("readable instance");
        let g = read_dimacs(&mut text.as_bytes()).expect("valid DIMACS");
        if g.arc_ids().all(|a| g.transit(a) == 1) {
            assert_thread_count_invariant(&g, &name);
        } else {
            let seq_h = mcr_core::ratio::howard_ratio_exact(&g).expect("cyclic");
            let seq_l = mcr_core::ratio::lawler_ratio_exact(&g).expect("cyclic");
            for threads in THREAD_COUNTS {
                let opts = SolveOptions::new().threads(threads);
                let par_h = mcr_core::ratio::howard_ratio_exact_opts(&g, &opts).expect("cyclic");
                assert_same_solution(&seq_h, &par_h, &format!("{name}/howard-ratio"));
                let par_l = mcr_core::ratio::lawler_ratio_exact_opts(&g, &opts).expect("cyclic");
                assert_same_solution(&seq_l, &par_l, &format!("{name}/lawler-ratio"));
            }
        }
        checked += 1;
    }
    assert!(checked >= 4, "expected the full benchmark suite, got {checked}");
}

/// Disjoint union of several SPRAND graphs plus one-way bridges between
/// consecutive blocks: each block stays its own strongly connected
/// component, so the driver sees `blocks` independent jobs.
fn multi_scc_sprand(blocks: usize, n: usize, m: usize, seed: u64) -> Graph {
    let mut b = GraphBuilder::new();
    let mut first_node = Vec::new();
    for k in 0..blocks {
        let part = sprand(
            &SprandConfig::new(n, m)
                .seed(seed * 101 + k as u64)
                .weight_range(-50, 50),
        );
        let ids = b.add_nodes(part.num_nodes());
        first_node.push(ids[0]);
        for a in part.arc_ids() {
            b.add_arc(
                ids[part.source(a).index()],
                ids[part.target(a).index()],
                part.weight(a),
            );
        }
    }
    for w in first_node.windows(2) {
        b.add_arc(w[0], w[1], 1); // one-way: never merges components
    }
    b.build()
}

#[test]
fn random_multi_scc_sprand_graphs() {
    for seed in 0..4 {
        let g = multi_scc_sprand(4, 8, 20, seed);
        assert_thread_count_invariant(&g, &format!("sprand-union seed {seed}"));
    }
}

#[test]
fn tied_components_pick_the_same_witness() {
    // Three two-cycles all with mean 3 — the reduction must break the
    // tie toward the same (first) component at every thread count.
    let g = from_arc_list(
        6,
        &[(0, 1, 3), (1, 0, 3), (2, 3, 2), (3, 2, 4), (4, 5, 1), (5, 4, 5)],
    );
    for alg in Algorithm::ALL {
        let seq = alg.solve(&g).expect("cyclic");
        assert_eq!(seq.lambda, Ratio64::from(3), "{}", alg.name());
        for threads in THREAD_COUNTS {
            let par = alg
                .solve_with_options(&g, &SolveOptions::new().threads(threads))
                .expect("cyclic");
            assert_same_solution(&seq, &par, &format!("tie/{}", alg.name()));
        }
    }
}

#[test]
fn large_multi_scc_graph_crosses_the_parallel_threshold() {
    // The other unions are small enough that the driver routes them
    // around the thread pool; this one (> 256 arcs) genuinely runs the
    // shared-cursor workers at every thread count.
    let g = multi_scc_sprand(4, 16, 70, 13);
    assert!(g.num_arcs() > 256);
    for alg in [
        Algorithm::HowardExact,
        Algorithm::Karp,
        Algorithm::Dg,
        Algorithm::LawlerExact,
    ] {
        let seq = alg.solve(&g).expect("cyclic");
        for threads in THREAD_COUNTS {
            let opts = SolveOptions::new().threads(threads);
            let par = alg.solve_with_options(&g, &opts).expect("cyclic");
            assert_same_solution(&seq, &par, &format!("large/{}/threads={threads}", alg.name()));
        }
    }
}

#[test]
fn maximum_and_opts_entry_points_are_thread_invariant() {
    let g = multi_scc_sprand(3, 6, 14, 9);
    let seq_min = mcr_core::minimum_cycle_mean(&g).expect("cyclic");
    let seq_max = mcr_core::maximum::maximum_cycle_mean(&g).expect("cyclic");
    for threads in THREAD_COUNTS {
        let opts = SolveOptions::new().threads(threads);
        let par_min = mcr_core::minimum_cycle_mean_opts(&g, &opts).expect("cyclic");
        assert_same_solution(&seq_min, &par_min, "minimum_cycle_mean_opts");
        let par_max =
            mcr_core::maximum::maximum_cycle_mean_opts(&g, Algorithm::HowardExact, &opts)
                .expect("cyclic");
        assert_same_solution(&seq_max, &par_max, "maximum_cycle_mean_opts");
    }
}
