//! End-to-end robustness of the budgeted solver layer: starved budgets
//! terminate with a typed error instead of hanging, fallback answers
//! are deterministic at every thread count, a budget-aborted attempt
//! cannot poison the workspace of the next SCC job, and every solution
//! the layer emits — on random instances and on the full benchmark
//! suite — survives independent certification.

use mcr_core::spec::solve_spec;
use mcr_core::{
    certify, Algorithm, Budget, FallbackChain, Ratio64, SolveError, SolveOptions, SolveSpec,
    SpecError,
};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_graph::io::read_dimacs;
use mcr_graph::{Graph, GraphBuilder};

const THREADS: [usize; 3] = [1, 2, 8];

/// Disjoint SPRAND blocks joined by one-way bridges: several genuine
/// SCC jobs for the driver, so worker-local workspaces really get
/// reused across components.
fn multi_scc(blocks: usize, n: usize, m: usize, seed: u64) -> Graph {
    let mut b = GraphBuilder::new();
    let mut anchors = Vec::new();
    for k in 0..blocks {
        let part = sprand(
            &SprandConfig::new(n, m)
                .seed(seed * 977 + k as u64)
                .weight_range(-30, 30),
        );
        let ids = b.add_nodes(part.num_nodes());
        anchors.push(ids[0]);
        for a in part.arc_ids() {
            b.add_arc(
                ids[part.source(a).index()],
                ids[part.target(a).index()],
                part.weight(a),
            );
        }
    }
    for w in anchors.windows(2) {
        b.add_arc(w[0], w[1], 0);
    }
    b.build()
}

/// A union of 2-rings whose weight spread forces Lawler's bisection to
/// need many refinements, so `max_lambda_refinements(1)` reliably
/// exhausts the primary and exercises the fallback on every component.
fn bisection_hostile(rings: usize) -> Graph {
    let mut b = GraphBuilder::new();
    let mut anchors = Vec::new();
    for k in 0..rings as i64 {
        let v = b.add_nodes(2);
        anchors.push(v[0]);
        b.add_arc(v[0], v[1], 1 + k);
        b.add_arc(v[1], v[0], 4000 + 13 * k);
    }
    for w in anchors.windows(2) {
        b.add_arc(w[0], w[1], 0);
    }
    b.build()
}

#[test]
fn one_iteration_budget_terminates_for_every_algorithm_and_thread_count() {
    let g = multi_scc(3, 7, 18, 5);
    let reference = mcr_core::minimum_cycle_mean(&g).expect("cyclic").lambda;
    for alg in Algorithm::ALL {
        for threads in THREADS {
            let opts = SolveOptions {
                threads,
                budget: Budget::default().max_iterations(1),
                fallback: FallbackChain::NONE,
                ..SolveOptions::default()
            };
            // The test completing at all is the no-hang guarantee; the
            // result must be a certified answer or a typed exhaustion.
            match alg.solve_with_options(&g, &opts) {
                Ok(sol) => {
                    certify(&sol, &g).expect("budgeted answers still certify");
                    assert_eq!(sol.lambda, reference, "{} t={threads}", alg.name());
                }
                Err(SolveError::BudgetExhausted { algorithm, .. }) => {
                    assert_eq!(algorithm, alg, "attribution t={threads}");
                }
                Err(other) => panic!("{} t={threads}: unexpected {other}", alg.name()),
            }
        }
    }
}

#[test]
fn zero_wall_clock_budget_terminates_for_every_algorithm() {
    let g = multi_scc(2, 8, 20, 11);
    for alg in Algorithm::ALL {
        let opts = SolveOptions {
            budget: Budget::default().wall_time(std::time::Duration::ZERO),
            fallback: FallbackChain::NONE,
            ..SolveOptions::default()
        };
        match alg.solve_with_options(&g, &opts) {
            Ok(sol) => certify(&sol, &g).expect("certifies"),
            Err(SolveError::BudgetExhausted { .. }) => {}
            Err(other) => panic!("{}: unexpected {other}", alg.name()),
        }
    }
}

#[test]
fn fallback_answers_are_bit_identical_at_every_thread_count() {
    let g = bisection_hostile(6);
    let opts_for = |threads: usize| SolveOptions {
        threads,
        budget: Budget::default().max_lambda_refinements(1),
        ..SolveOptions::default()
    };
    let baseline = Algorithm::LawlerExact
        .solve_with_options(&g, &opts_for(1))
        .expect("fallback chain answers");
    assert_ne!(
        baseline.solved_by,
        Algorithm::LawlerExact,
        "the primary must actually give up for this test to bite"
    );
    certify(&baseline, &g).expect("fallback answer certifies");
    let unbudgeted = Algorithm::LawlerExact.solve(&g).expect("cyclic");
    assert_eq!(baseline.lambda, unbudgeted.lambda, "fallback is still exact");
    for threads in [2, 8] {
        let par = Algorithm::LawlerExact
            .solve_with_options(&g, &opts_for(threads))
            .expect("fallback chain answers");
        assert_eq!(par.lambda, baseline.lambda, "t={threads}: lambda");
        assert_eq!(par.cycle, baseline.cycle, "t={threads}: witness");
        assert_eq!(par.solved_by, baseline.solved_by, "t={threads}: attribution");
    }
}

#[test]
fn budget_aborted_attempt_does_not_poison_the_next_scc_job() {
    // Many SCCs solved back-to-back on few workers: each component's
    // primary attempt aborts mid-flight (stale labels, partial policy
    // arrays) before the fallback answers. If an aborted attempt leaked
    // state into the reused workspace, some later component would come
    // out wrong — so every component's answer must match the
    // unbudgeted solve, at every thread count.
    let g = bisection_hostile(12);
    let unbudgeted = Algorithm::LawlerExact.solve(&g).expect("cyclic");
    for threads in THREADS {
        let opts = SolveOptions {
            threads,
            budget: Budget::default().max_lambda_refinements(1),
            ..SolveOptions::default()
        };
        let sol = Algorithm::LawlerExact
            .solve_with_options(&g, &opts)
            .expect("fallback answers");
        assert_eq!(sol.lambda, unbudgeted.lambda, "t={threads}");
        assert_eq!(sol.cycle, unbudgeted.cycle, "t={threads}");
        certify(&sol, &g).expect("certifies");
    }
}

#[test]
fn recovered_errors_do_not_leak_into_healthy_components() {
    // Mixed difficulty: hostile rings (primary exhausts, fallback
    // answers) interleaved with easy rings (primary succeeds). The
    // merged solution must still be the global optimum.
    let mut b = GraphBuilder::new();
    let mut anchors = Vec::new();
    for k in 0..4i64 {
        let v = b.add_nodes(2);
        anchors.push(v[0]);
        b.add_arc(v[0], v[1], 1);
        b.add_arc(v[1], v[0], 4001 + k); // hostile: wide bisection range
        let u = b.add_nodes(2);
        b.add_arc(u[0], u[1], 2 + k);
        b.add_arc(u[1], u[0], 2 + k); // easy: mean found instantly
        b.add_arc(v[0], u[0], 0);
    }
    for w in anchors.windows(2) {
        b.add_arc(w[1], w[0], 0);
    }
    let g = b.build();
    let expected = mcr_core::minimum_cycle_mean(&g).expect("cyclic").lambda;
    for threads in THREADS {
        let opts = SolveOptions {
            threads,
            budget: Budget::default().max_lambda_refinements(1),
            ..SolveOptions::default()
        };
        let sol = Algorithm::LawlerExact
            .solve_with_options(&g, &opts)
            .expect("answers");
        assert_eq!(sol.lambda, expected, "t={threads}");
        certify(&sol, &g).expect("certifies");
    }
}

#[test]
fn benchmark_instances_certify_at_every_thread_count() {
    // The acceptance sweep: every algorithm (or both ratio solvers, for
    // transit-bearing instances) on every benchmark file, at 1/2/8
    // threads — all answers certify and λ is bit-identical across
    // thread counts.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("benchmarks/ present") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("dimacs") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("readable");
        let g = read_dimacs(&mut text.as_bytes()).expect("valid DIMACS");
        if g.has_unit_transits() {
            for alg in Algorithm::ALL {
                let mut lambdas: Vec<Ratio64> = Vec::new();
                for threads in THREADS {
                    let opts = SolveOptions::new().threads(threads);
                    let sol = alg.solve_with_options(&g, &opts).expect("cyclic");
                    certify(&sol, &g)
                        .unwrap_or_else(|e| panic!("{name}/{}/t={threads}: {e}", alg.name()));
                    lambdas.push(sol.lambda);
                }
                assert!(
                    lambdas.windows(2).all(|w| w[0] == w[1]),
                    "{name}/{}: {lambdas:?}",
                    alg.name()
                );
            }
        } else {
            let mut lambdas: Vec<Ratio64> = Vec::new();
            for threads in THREADS {
                let opts = SolveOptions::new().threads(threads);
                let h = mcr_core::ratio::howard_ratio_exact_opts(&g, &opts).expect("cyclic");
                certify(&h, &g).unwrap_or_else(|e| panic!("{name}/howard/t={threads}: {e}"));
                let l = mcr_core::ratio::lawler_ratio_exact_opts(&g, &opts).expect("cyclic");
                certify(&l, &g).unwrap_or_else(|e| panic!("{name}/lawler/t={threads}: {e}"));
                assert_eq!(h.lambda, l.lambda, "{name}/t={threads}");
                lambdas.push(h.lambda);
            }
            assert!(lambdas.windows(2).all(|w| w[0] == w[1]), "{name}: {lambdas:?}");
        }
        checked += 1;
    }
    assert!(checked >= 4, "expected the full benchmark suite, got {checked}");
}

#[test]
fn generous_budget_is_invisible() {
    // A budget no algorithm comes close to must change nothing: same
    // λ, same witness, same attribution as the unbudgeted solve.
    let g = multi_scc(3, 6, 15, 23);
    for alg in Algorithm::ALL {
        let plain = alg.solve(&g).expect("cyclic");
        let opts = SolveOptions {
            budget: Budget::default()
                .max_iterations(1_000_000)
                .max_lambda_refinements(1_000_000)
                .wall_time(std::time::Duration::from_secs(600)),
            ..SolveOptions::default()
        };
        let budgeted = alg.solve_with_options(&g, &opts).expect("cyclic");
        assert_eq!(budgeted.lambda, plain.lambda, "{}", alg.name());
        assert_eq!(budgeted.cycle, plain.cycle, "{}", alg.name());
        assert_eq!(budgeted.solved_by, alg, "{}", alg.name());
    }
}

#[test]
fn karp_family_weights_past_the_table_range_fail_typed_or_fall_back() {
    // Karp, Karp2, DG and HO are exact while n · max|w| < 2^61 − 1, the
    // table's "unreached" sentinel. Inside that range each answers alone;
    // past it, alone each refuses with a typed overflow, and with the
    // default chain the solve falls back and certifies. The second graph
    // keeps every walk off the heavy chord small, so the refusal comes
    // from the range check, not from a walk reaching the sentinel.
    let edge = ((1i64 << 61) - 1) / 3 - 1;
    for w in [edge, 1 << 60, 1 << 61, (1 << 62) - 1] {
        let heavy_ring = [(0, 1, w), (1, 2, w), (2, 0, w), (1, 0, w)];
        let heavy_chord = [(0, 1, 1), (1, 2, 1), (2, 0, 1), (1, 0, w)];
        for (arcs, lambda) in [(heavy_ring, w), (heavy_chord, 1)] {
            let g = mcr_graph::graph::from_arc_list(3, &arcs);
            for alg in [Algorithm::Karp, Algorithm::Karp2, Algorithm::Dg, Algorithm::Ho] {
                for fallback in [FallbackChain::NONE, FallbackChain::default()] {
                    let opts = SolveOptions { fallback, ..SolveOptions::default() };
                    let what = format!("{} w={w} λ={lambda} {fallback:?}", alg.name());
                    match alg.solve_with_options(&g, &opts) {
                        Ok(sol) => {
                            certify(&sol, &g).unwrap_or_else(|e| panic!("{what}: {e}"));
                            assert_eq!(sol.lambda, Ratio64::from(lambda), "{what}");
                            assert_eq!(sol.solved_by == alg, w == edge, "{what}");
                        }
                        Err(SolveError::Overflow { .. })
                            if w != edge && fallback == FallbackChain::NONE => {}
                        Err(e) => panic!("{what}: {e}"),
                    }
                }
            }
        }
    }
}

#[test]
fn exact_ratio_routes_fail_typed_at_extreme_magnitudes() {
    // Eleven nodes: a self-loop at 0 of ratio −1/2^62 and the ring
    // 0 → 10 → 9 → … → 0 of ratio 2^62. λ* = −1/2^62 is representable,
    // but Howard-exact's first round needs scaled values near 2^128,
    // Lawler's bisection bound n·max|w| leaves i64 and the expansion
    // reduction would build a 2^62-arc chain. Each must fail typed, at
    // once, never panic or spin.
    let big = 1i64 << 62;
    let mut b = GraphBuilder::new();
    let v = b.add_nodes(11);
    b.add_arc_with_transit(v[0], v[0], -1, big);
    b.add_arc_with_transit(v[0], v[10], big, 1);
    for i in 1..=10 {
        b.add_arc_with_transit(v[i], v[i - 1], big, 1);
    }
    let g = b.build();
    for fallback in [FallbackChain::NONE, FallbackChain::default()] {
        let opts = SolveOptions { fallback, ..SolveOptions::default() };
        for alg in [Algorithm::HowardExact, Algorithm::LawlerExact, Algorithm::Karp] {
            let what = format!("{} {fallback:?}", alg.name());
            let started = std::time::Instant::now();
            match (alg, solve_spec(&g, &SolveSpec::ratio(alg), &opts)) {
                (Algorithm::HowardExact | Algorithm::LawlerExact, Err(SpecError::Solve(e))) => {
                    assert!(matches!(e, SolveError::Overflow { .. }), "{what}: {e}");
                }
                (Algorithm::Karp, Err(SpecError::Input(msg))) => {
                    assert!(msg.contains("past the cap"), "{what}: {msg}");
                }
                (_, other) => panic!("{what}: {other:?}"),
            }
            assert!(started.elapsed().as_secs() < 5, "{what} spun before failing");
        }
    }
}

#[test]
fn parametric_path_weights_past_i64_fail_typed_or_fall_back() {
    // The ring 0 → 1 → 2 → 0 of mean −2^62 plus the chord 1 → 0 of
    // weight 2^62 − 1. λ* = −2^62 fits i64, but after two pivots a
    // tree-path weight reaches −2^63 and the next event numerator
    // leaves i64. Wrapped, YTO stops at the 2-cycle's −1/2 (which
    // certifies: that cycle does attain it) and KO at +2^62/3. Alone,
    // each must refuse with a typed overflow; with the default chain
    // the solve must fall back to the true optimum.
    let ring = i64::MIN / 2;
    let g = mcr_graph::graph::from_arc_list(
        3,
        &[(0, 1, ring), (1, 2, ring), (2, 0, ring), (1, 0, i64::MAX / 2)],
    );
    for alg in [Algorithm::Ko, Algorithm::Yto] {
        for fallback in [FallbackChain::NONE, FallbackChain::default()] {
            let opts = SolveOptions { fallback, ..SolveOptions::default() };
            let what = format!("{} {fallback:?}", alg.name());
            match alg.solve_with_options(&g, &opts) {
                Ok(sol) if fallback != FallbackChain::NONE => {
                    certify(&sol, &g).unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(sol.lambda, Ratio64::from(ring), "{what}");
                    assert_ne!(sol.solved_by, alg, "{what}");
                }
                Err(SolveError::Overflow { .. }) if fallback == FallbackChain::NONE => {}
                other => panic!("{what}: {other:?}"),
            }
        }
    }
}

#[test]
fn parametric_ratio_route_never_falls_back_to_a_mean_solver() {
    // A 2-ring of weights 1 and transits 2^62: λ* = 1/2^62, but the
    // cycle's total transit 2^63 leaves i64, so KO and YTO overflow.
    // The ratio route runs no fallback chain; a chain naming Karp
    // (which ignores transits and would answer the mean, 1) must not
    // change that.
    let mut b = GraphBuilder::new();
    let v = b.add_nodes(2);
    b.add_arc_with_transit(v[0], v[1], 1, 1 << 62);
    b.add_arc_with_transit(v[1], v[0], 1, 1 << 62);
    let g = b.build();
    let chains = [
        FallbackChain::NONE,
        FallbackChain::new(&[Algorithm::Karp]),
        FallbackChain::default(),
    ];
    for alg in [Algorithm::Ko, Algorithm::Yto] {
        for fallback in chains {
            let opts = SolveOptions { fallback, ..SolveOptions::default() };
            match solve_spec(&g, &SolveSpec::ratio(alg), &opts) {
                Err(SpecError::Solve(SolveError::Overflow { .. })) => {}
                other => panic!("{} {fallback:?}: {other:?}", alg.name()),
            }
        }
    }
}
