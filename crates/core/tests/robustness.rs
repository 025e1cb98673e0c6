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

/// The ring 0 → 1 → 2 → 0 (weights 1, 1, 0) plus the chord 1 → 0
/// (weight 1), every transit 2^62: λ* = 2/(3·2^62) = 1/(3·2^61), but the
/// ring's total transit leaves `i64`.
fn transit_2_62_ring() -> Graph {
    let t = 1i64 << 62;
    let mut b = GraphBuilder::new();
    let v = b.add_nodes(3);
    b.add_arc_with_transit(v[0], v[1], 1, t);
    b.add_arc_with_transit(v[1], v[2], 1, t);
    b.add_arc_with_transit(v[2], v[0], 0, t);
    b.add_arc_with_transit(v[1], v[0], 1, t);
    b.build()
}

/// The 3-ring 0 → 1 → 2 → 0 of weight `w` and transit `t` per arc.
fn uniform_ring(w: i64, t: i64) -> Graph {
    let mut b = GraphBuilder::new();
    let v = b.add_nodes(3);
    for i in 0..3 {
        b.add_arc_with_transit(v[i], v[(i + 1) % 3], w, t);
    }
    b.build()
}

#[test]
fn native_ratio_kernels_fail_typed_past_i64() {
    // Burns' critical heights sum transits: two arcs of 2^62 leave i64.
    // Wrapped, Burns stopped at the 2-cycle's 1/2^62, which certifies
    // but is not optimal. KO/YTO's tree-path transits and Megiddo's
    // symbolic path lengths leave i64 on the same ring, and Megiddo's
    // interval bound n·max|w| on a ring of weights 2^62; so does
    // Lawler's bisection bound at w = 2^62 − 1, where the ε route used
    // to answer "acyclic". `DynamicSolver` used to fold each of these
    // into "acyclic" too.
    let cases = [
        (
            transit_2_62_ring(),
            vec![
                Algorithm::Burns,
                Algorithm::BurnsExact,
                Algorithm::Ko,
                Algorithm::Yto,
                Algorithm::Megiddo,
            ],
        ),
        (uniform_ring(1 << 62, 1), vec![Algorithm::Megiddo, Algorithm::LawlerExact]),
        (uniform_ring((1 << 62) - 1, 3), vec![Algorithm::Megiddo, Algorithm::Lawler]),
    ];
    let opts = SolveOptions { fallback: FallbackChain::NONE, ..SolveOptions::default() };
    for (g, algs) in cases {
        for alg in algs {
            let spec = SolveSpec::ratio(alg);
            let dynamic = mcr_core::DynamicSolver::new(&g, spec, opts.clone()).solve();
            for result in [solve_spec(&g, &spec, &opts), dynamic.map(|o| o.solution)] {
                match result {
                    Err(SpecError::Solve(SolveError::Overflow { .. })) => {}
                    other => panic!("{}: {other:?}", alg.name()),
                }
            }
        }
    }
    // Howard-exact answers the last ring exactly: (2^62 − 1)/3.
    let g = uniform_ring((1 << 62) - 1, 3);
    let sol = solve_spec(&g, &SolveSpec::ratio(Algorithm::HowardExact), &opts)
        .expect("ok")
        .expect("cyclic");
    assert_eq!(sol.lambda, Ratio64::new((1 << 62) - 1, 3));
    certify(&sol, &g).expect("certifies");
}

#[test]
fn exact_ratio_bisection_fails_typed_on_huge_transit_totals() {
    // Transits of 2^40: the snap target 1/(T(T − 1) + 1) saturates.
    // Lawler-exact's blind bisection then runs out of denominator range
    // and must say so typed instead of overflowing the target's
    // arithmetic; Megiddo pins λ* = 3/2^41 at an oracle crossing.
    let mut b = GraphBuilder::new();
    let v = b.add_nodes(2);
    b.add_arc_with_transit(v[0], v[1], 1, 1 << 40);
    b.add_arc_with_transit(v[1], v[0], 2, 1 << 40);
    let g = b.build();
    let opts = SolveOptions { fallback: FallbackChain::NONE, ..SolveOptions::default() };
    match solve_spec(&g, &SolveSpec::ratio(Algorithm::LawlerExact), &opts) {
        Err(SpecError::Solve(SolveError::NumericRange { .. })) => {}
        other => panic!("Lawler-exact: {other:?}"),
    }
    let sol = solve_spec(&g, &SolveSpec::ratio(Algorithm::Megiddo), &opts)
        .expect("ok")
        .expect("cyclic");
    assert_eq!(sol.lambda, Ratio64::new(3, 1 << 41));
    certify(&sol, &g).expect("certifies");
}

#[test]
fn lawler_exact_mean_route_answers_non_unit_transits_as_in_release() {
    // Three rings with transits 1–3 under the mean objective. The
    // exact bisection tests w − λ·t, so it snaps to a ring's ratio
    // while the witness is measured by its mean, and the two differ.
    // Debug and release builds both answer the witness mean, here the
    // minimum mean 3/2, without a debug assertion firing.
    let text = "p mcr 7 8\na 1 2 1 1\na 2 3 2 2\na 3 1 3 3\na 3 4 1 1\n\
                a 4 5 2 3\na 5 4 1 1\na 6 7 4 2\na 7 6 2 3\n";
    let g = read_dimacs(&mut text.as_bytes()).expect("parses");
    for fallback in [FallbackChain::NONE, FallbackChain::default()] {
        let opts = SolveOptions { fallback, ..SolveOptions::default() };
        let sol = solve_spec(&g, &SolveSpec::mean(Algorithm::LawlerExact), &opts)
            .expect("ok")
            .expect("cyclic");
        assert_eq!(sol.lambda, Ratio64::new(3, 2));
        assert_eq!(sol.solved_by, Algorithm::LawlerExact);
        certify(&sol, &g).expect("certifies");
    }
}

#[test]
fn every_ratio_route_honours_budget_and_cancel() {
    // The ratio routes share the mean route's budget scope: a
    // zero-iteration budget exhausts every kernel before its first
    // round, and a cancelled token stops it, through `solve_spec` and
    // through `DynamicSolver` alike. Before, only Howard-exact,
    // Lawler-exact, KO and YTO saw either; the transit expansion (Karp
    // family, OA1) solved under default options.
    let mut b = GraphBuilder::new();
    let v = b.add_nodes(3);
    b.add_arc_with_transit(v[0], v[1], 4, 1);
    b.add_arc_with_transit(v[1], v[2], -1, 2);
    b.add_arc_with_transit(v[2], v[0], 3, 1);
    b.add_arc_with_transit(v[1], v[0], 2, 3);
    let g = b.build();
    let token = mcr_core::CancelToken::new();
    token.cancel();
    let starved = SolveOptions::new().budget(Budget::default().max_iterations(0));
    let cancelled = SolveOptions::new().cancel(token);
    for alg in Algorithm::ALL {
        let spec = SolveSpec::ratio(alg);
        for (opts, what) in [(&starved, "iters=0"), (&cancelled, "cancelled")] {
            let fresh = solve_spec(&g, &spec, opts);
            let dynamic = mcr_core::DynamicSolver::new(&g, spec, opts.clone())
                .solve()
                .map(|outcome| outcome.solution);
            match &fresh {
                Err(SpecError::Solve(SolveError::BudgetExhausted { .. })) if what == "iters=0" => {}
                Err(SpecError::Solve(SolveError::Cancelled)) if what == "cancelled" => {}
                other => panic!("{} {what}: {other:?}", alg.name()),
            }
            assert_eq!(dynamic.map(|_| ()), fresh.map(|_| ()), "{} {what}", alg.name());
        }
    }
}

/// `i64::MIN` on the graph's only cycle: its negation overflows, so no
/// maximum can be computed in `i64`.
const MIN_ON_A_CYCLE: &str = "p mcr 2 2\na 1 2 -9223372036854775808\na 2 1 0\n";

/// `i64::MIN` on an arc that lies on no cycle, beside a cycle of mean 1.
const MIN_OFF_EVERY_CYCLE: &str = "p mcr 3 3\na 1 2 1\na 2 1 1\na 2 3 -9223372036854775808\n";

/// Whether `spec` solves the transit expansion of the whole graph (a
/// ratio spec whose algorithm has no ratio kernel).
fn expands(spec: &SolveSpec) -> bool {
    use Algorithm::*;
    spec.objective == mcr_core::spec::Objective::Ratio
        && !matches!(
            spec.algorithm,
            Burns | BurnsExact | Howard | HowardExact | Ko | Yto | Lawler | LawlerExact | Megiddo
        )
}

fn is_overflow(r: &Result<impl std::fmt::Debug, SpecError>) -> bool {
    matches!(r, Err(e @ SpecError::Solve(SolveError::Overflow { .. }))
        if e.status() == mcr_core::SolveStatus::InputError)
}

#[test]
fn maximizing_through_an_i64_min_weight_fails_typed_and_never_panics() {
    let on = read_dimacs(&mut MIN_ON_A_CYCLE.as_bytes()).expect("parses");
    let off = read_dimacs(&mut MIN_OFF_EVERY_CYCLE.as_bytes()).expect("parses");
    for alg in Algorithm::ALL {
        for spec in [SolveSpec::mean(alg), SolveSpec::ratio(alg)] {
            let max = spec.maximize();
            for threads in [1, 2] {
                for planned in [false, true] {
                    let ctx = format!("{max:?} at {threads} threads, planned: {planned}");
                    let opts = |g: &Graph| {
                        let opts = SolveOptions::new().threads(threads);
                        if planned {
                            opts.plan(mcr_core::SccPlan::prepare(g))
                        } else {
                            opts
                        }
                    };
                    let r = solve_spec(&on, &max, &opts(&on));
                    assert!(is_overflow(&r), "{ctx}: {r:?}");
                    let r = mcr_core::DynamicSolver::new(&on, max, opts(&on)).solve();
                    assert!(is_overflow(&r), "dynamic {ctx}: {:?}", r.map(|o| o.solution));
                    // Off every cycle the weight is never negated, save
                    // by the expansion, which negates the whole graph.
                    let r = solve_spec(&off, &max, &opts(&off));
                    if expands(&max) {
                        assert!(is_overflow(&r), "{ctx}: {r:?}");
                        continue;
                    }
                    let sol = r.expect("answers").expect("cyclic");
                    certify(&sol, &off).expect("certifies");
                    if !alg.is_approximate() {
                        assert_eq!(sol.lambda, Ratio64::from(1), "{ctx}");
                    }
                    let dynamic = mcr_core::DynamicSolver::new(&off, max, opts(&off))
                        .solve()
                        .expect("answers");
                    assert_eq!(
                        format!("{:?}", dynamic.solution),
                        format!("{:?}", Some(sol)),
                        "dynamic {ctx}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_maximize_reweight_to_i64_min_fails_typed_until_edited_back() {
    use mcr_core::Edit;
    let g = read_dimacs(&mut "p mcr 2 2\na 1 2 3\na 2 1 0\n".as_bytes()).expect("parses");
    let spec = SolveSpec::mean(Algorithm::HowardExact).maximize();
    let mut solver = mcr_core::DynamicSolver::new(&g, spec, SolveOptions::new());
    let lambda = |out: mcr_core::DynamicOutcome| out.solution.expect("cyclic").lambda;
    assert_eq!(lambda(solver.solve().expect("answers")), Ratio64::new(3, 2));
    let r = solver.apply(&[Edit::Reweight { arc: 0, weight: i64::MIN }]);
    assert!(is_overflow(&r), "{:?}", r.map(|o| o.solution));
    let back = solver.apply(&[Edit::Reweight { arc: 0, weight: 3 }]);
    assert_eq!(lambda(back.expect("answers")), Ratio64::new(3, 2));
}
