//! The documented meaning of each operation counter, checked per
//! algorithm family — these are the quantities the paper's §4.2–§4.4
//! comparisons rest on, so their semantics must not drift.

use mcr_core::{Algorithm, Counters};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_graph::Graph;

fn solve_counters(alg: Algorithm, g: &Graph) -> Counters {
    alg.solve(g).expect("cyclic").counters
}

/// A strongly connected instance (single SCC) so per-component counts
/// equal whole-graph counts.
fn instance(seed: u64, n: usize, m: usize) -> Graph {
    sprand(&SprandConfig::new(n, m).seed(seed))
}

#[test]
fn karp_visits_exactly_n_times_m_arcs() {
    for seed in 0..5 {
        let g = instance(seed, 40, 120);
        let c = solve_counters(Algorithm::Karp, &g);
        assert_eq!(c.arcs_visited, (40 * 120) as u64, "seed {seed}");
    }
}

#[test]
fn karp2_visits_just_under_twice_karp() {
    for seed in 0..5 {
        let g = instance(seed, 40, 120);
        let karp = solve_counters(Algorithm::Karp, &g).arcs_visited;
        let karp2 = solve_counters(Algorithm::Karp2, &g).arcs_visited;
        // Pass 1 does n sweeps, pass 2 does n-1 more.
        assert_eq!(karp2, karp * 2 - g.num_arcs() as u64, "seed {seed}");
    }
}

#[test]
fn dg_never_visits_more_than_karp() {
    for seed in 0..8 {
        let g = instance(seed, 50, 110);
        let karp = solve_counters(Algorithm::Karp, &g).arcs_visited;
        let dg = solve_counters(Algorithm::Dg, &g).arcs_visited;
        assert!(dg <= karp, "seed {seed}: {dg} > {karp}");
    }
}

#[test]
fn ho_iterations_is_the_final_level() {
    for seed in 0..8 {
        let g = instance(seed, 50, 150);
        let c = solve_counters(Algorithm::Ho, &g);
        assert!(c.iterations >= 1);
        assert!(c.iterations <= 50, "seed {seed}: {}", c.iterations);
        // Arc visits = m per completed level.
        assert_eq!(c.arcs_visited, c.iterations * g.num_arcs() as u64);
    }
}

#[test]
fn parametric_iterations_count_pivots_and_stay_quadratic() {
    for seed in 0..8 {
        let g = instance(seed, 60, 180);
        for alg in [Algorithm::Ko, Algorithm::Yto] {
            let c = solve_counters(alg, &g);
            assert!(c.iterations >= 1, "{}", alg.name());
            assert!(
                c.iterations <= (60 * 60) as u64,
                "{} seed {seed}: {}",
                alg.name(),
                c.iterations
            );
            assert!(c.heap.delete_mins >= c.iterations, "{}", alg.name());
        }
    }
}

#[test]
fn yto_keeps_at_most_one_heap_entry_per_node() {
    for seed in 0..5 {
        let g = instance(seed, 80, 240);
        let c = solve_counters(Algorithm::Yto, &g);
        // Every insert is eventually removed or popped; entries are
        // per-node, so live entries never exceed n. A loose but
        // meaningful consequence: pops + removals ≤ inserts ≤ pops +
        // removals + n.
        let drained = c.heap.delete_mins + c.heap.removals;
        assert!(c.heap.inserts >= drained.saturating_sub(0));
        assert!(
            c.heap.inserts <= drained + 80,
            "seed {seed}: inserts {} vs drained {}",
            c.heap.inserts,
            drained
        );
    }
}

#[test]
fn lawler_oracle_calls_scale_with_log_range() {
    for (wmax, expect_max) in [(10i64, 22u64), (10_000, 40)] {
        let g = sprand(&SprandConfig::new(30, 90).seed(1).weight_range(1, wmax));
        let c = solve_counters(Algorithm::LawlerExact, &g);
        // log2(range · n(n−1)) plus the witness extraction call.
        assert!(
            c.oracle_calls <= expect_max,
            "wmax {wmax}: {} calls",
            c.oracle_calls
        );
        assert!(c.oracle_calls >= 5);
    }
}

#[test]
fn howard_examines_at_least_one_policy_cycle_per_iteration() {
    for seed in 0..5 {
        let g = instance(seed, 70, 210);
        for alg in [Algorithm::Howard, Algorithm::HowardExact] {
            let c = solve_counters(alg, &g);
            assert!(c.cycles_examined >= c.iterations, "{}", alg.name());
            // Each iteration scans all arcs once in the improvement pass.
            assert!(c.relaxations >= c.iterations * g.num_arcs() as u64);
        }
    }
}

#[test]
fn burns_rebuilds_slacks_every_iteration() {
    for seed in 0..5 {
        let g = instance(seed, 40, 120);
        for alg in [Algorithm::Burns, Algorithm::BurnsExact] {
            let c = solve_counters(alg, &g);
            // Non-incremental: m slack evaluations per iteration (the
            // f64 variant adds one certification Bellman–Ford).
            assert!(
                c.relaxations >= c.iterations * g.num_arcs() as u64,
                "{} seed {seed}",
                alg.name()
            );
        }
    }
}

#[test]
fn counters_accumulate_across_components() {
    // Two disjoint rings bridged one-way: counters must cover both.
    let mut b = mcr_graph::GraphBuilder::new();
    let v = b.add_nodes(6);
    for i in 0..3 {
        b.add_arc(v[i], v[(i + 1) % 3], 5);
        b.add_arc(v[3 + i], v[3 + (i + 1) % 3], 7);
    }
    b.add_arc(v[0], v[3], 1);
    let g = b.build();
    let c = solve_counters(Algorithm::HowardExact, &g);
    assert!(c.iterations >= 2, "one iteration per component at least");
}

#[test]
fn lambda_only_mode_matches_solve_and_skips_witness_work() {
    for seed in 0..8 {
        let g = instance(seed, 40, 100);
        for alg in [Algorithm::Karp, Algorithm::Karp2, Algorithm::Dg, Algorithm::Ho] {
            let full = alg.solve(&g).expect("cyclic");
            let (lam, c) = alg.solve_lambda_only(&g).expect("cyclic");
            assert_eq!(lam, full.lambda, "{} seed {seed}", alg.name());
            // λ-only performs no witness-extraction oracle call.
            assert_eq!(c.oracle_calls, 0, "{} seed {seed}", alg.name());
        }
    }
}

/// Every `Counters` field of the Karp family, pinned on two fixed
/// SPRAND instances (one with negative weights) and one multi-SCC
/// circuit. `relaxations` and `distance_updates` count the two tests of
/// the level loop, so a miscounted select in that loop shows here first.
#[test]
fn karp_family_counters_are_pinned() {
    use mcr_gen::circuit::{circuit_graph, CircuitConfig};
    use mcr_graph::heap::HeapCounters;

    // (iterations, relaxations, distance_updates, arcs_visited,
    // cycles_examined) per algorithm; oracle calls and heap counts are 0.
    type Pin = (u64, u64, u64, u64, u64);
    let cases: [(&str, Graph, [Pin; 4]); 3] = [
        (
            "sprand 60x240",
            sprand(&SprandConfig::new(60, 240).seed(3)),
            [
                (0, 13563, 6215, 14400, 0),
                (0, 26886, 12322, 28560, 0),
                (0, 13563, 6215, 13563, 0),
                (19, 3723, 1749, 4560, 6),
            ],
        ),
        (
            "sprand 50x200 ±50",
            sprand(&SprandConfig::new(50, 200).seed(11).weight_range(-50, 50)),
            [
                (0, 9461, 4956, 10000, 0),
                (0, 18722, 9805, 19800, 0),
                (0, 9461, 4956, 9461, 0),
                (16, 2661, 1431, 3200, 10),
            ],
        ),
        (
            "circuit 300",
            circuit_graph(&CircuitConfig::new(300).seed(2)),
            [
                (0, 12570, 10258, 15736, 0),
                (0, 24804, 20248, 31124, 0),
                (0, 12570, 10258, 12570, 0),
                (139, 4773, 3971, 7910, 75),
            ],
        ),
    ];
    let algs = [Algorithm::Karp, Algorithm::Karp2, Algorithm::Dg, Algorithm::Ho];
    for (label, g, pins) in &cases {
        for (alg, &(iterations, relaxations, distance_updates, arcs_visited, cycles_examined)) in
            algs.iter().zip(pins)
        {
            let expected = Counters {
                iterations,
                relaxations,
                distance_updates,
                arcs_visited,
                cycles_examined,
                oracle_calls: 0,
                heap: HeapCounters::default(),
            };
            assert_eq!(solve_counters(*alg, g), expected, "{} on {label}", alg.name());
        }
    }
}

/// Every `Counters` field, λ and the witness arc ids of both Howard
/// variants, pinned on the Karp pin's three instances and one ratio
/// instance (transits 1–5). `distance_updates` counts value-
/// determination writes plus adoptions and `cycles_examined` the
/// policy cycles each scan finds, so any change to the scan, the value
/// sweep or the improvement pass that is not bit-identical shows here.
#[test]
fn howard_counters_are_pinned() {
    use mcr_core::spec::solve_spec;
    use mcr_core::{Ratio64, SolveOptions, SolveSpec};
    use mcr_gen::circuit::{circuit_graph, CircuitConfig};
    use mcr_gen::transit::with_random_transits;
    use mcr_graph::heap::HeapCounters;

    // (λ numerator, λ denominator, witness arc ids, (iterations,
    // relaxations, distance_updates, cycles_examined)) for Howard then
    // Howard-exact; arc visits, oracle calls and heap counts are 0.
    type Pin = (i64, i64, &'static [usize], (u64, u64, u64, u64));
    let ratio_instance = with_random_transits(
        &sprand(&SprandConfig::new(60, 240).seed(5).weight_range(-50, 50)),
        1,
        5,
        9,
    );
    let cases: [(&str, Graph, bool, [Pin; 2]); 4] = [
        (
            "sprand 60x240",
            sprand(&SprandConfig::new(60, 240).seed(3)),
            false,
            [
                (5677, 4, &[182, 221, 227, 95], (5, 1200, 242, 10)),
                (5677, 4, &[182, 221, 227, 95], (4, 960, 369, 6)),
            ],
        ),
        (
            "sprand 50x200 ±50",
            sprand(&SprandConfig::new(50, 200).seed(11).weight_range(-50, 50)),
            false,
            [
                (-34, 1, &[84, 77, 167], (7, 1400, 540, 10)),
                (-34, 1, &[84, 77, 167], (10, 2000, 762, 13)),
            ],
        ),
        (
            "circuit 300",
            circuit_graph(&CircuitConfig::new(300).seed(2)),
            false,
            [
                (70, 3, &[442, 0, 1], (23, 1256, 1043, 27)),
                (70, 3, &[442, 0, 1], (25, 1462, 1130, 28)),
            ],
        ),
        (
            "sprand 60x240 ±50, transits 1-5",
            ratio_instance,
            true,
            [
                (-83, 4, &[181, 139], (6, 1440, 199, 13)),
                (-83, 4, &[139, 181], (5, 1200, 400, 7)),
            ],
        ),
    ];
    for (label, g, ratio, pins) in &cases {
        for (alg, &(p, q, witness, (iterations, relaxations, distance_updates, cycles_examined))) in
            [Algorithm::Howard, Algorithm::HowardExact].iter().zip(pins)
        {
            let sol = if *ratio {
                solve_spec(g, &SolveSpec::ratio(*alg), &SolveOptions::default())
                    .expect("solvable")
                    .expect("cyclic")
            } else {
                alg.solve(g).expect("cyclic")
            };
            let what = format!("{} on {label}", alg.name());
            assert_eq!(sol.lambda, Ratio64::new(p, q), "{what}");
            let ids: Vec<usize> = sol.cycle.iter().map(|a| a.index()).collect();
            assert_eq!(ids, witness, "{what}");
            let expected = Counters {
                iterations,
                relaxations,
                distance_updates,
                arcs_visited: 0,
                cycles_examined,
                oracle_calls: 0,
                heap: HeapCounters::default(),
            };
            assert_eq!(sol.counters, expected, "{what}");
        }
    }
}

#[test]
fn parametric_counters_are_pinned() {
    use mcr_core::spec::solve_spec;
    use mcr_core::{Ratio64, SolveOptions, SolveSpec};
    use mcr_gen::circuit::{circuit_graph, CircuitConfig};
    use mcr_gen::transit::{rebuild_with, with_random_transits};
    use mcr_graph::heap::HeapCounters;

    // (λ numerator, λ denominator, witness arc ids, iterations, (inserts,
    // decrease_keys, delete_mins, removals)) for KO then YTO; the other
    // counters are 0.
    type Pin = (i64, i64, &'static [usize], u64, (u64, u64, u64, u64));
    let ratio_instance = with_random_transits(
        &sprand(&SprandConfig::new(60, 240).seed(5).weight_range(-50, 50)),
        1,
        5,
        9,
    );
    // Every third arc has zero transit, so the λ → −∞ tree needs the
    // lexicographic Bellman–Ford start.
    let zero_transit_instance = rebuild_with(
        &sprand(&SprandConfig::new(40, 160).seed(7).weight_range(-50, 50)),
        |i| if i % 3 == 0 { 0 } else { 1 + (i % 4) as i64 },
    );
    let cases: [(&str, Graph, bool, [Pin; 2]); 5] = [
        (
            "sprand 60x240",
            sprand(&SprandConfig::new(60, 240).seed(3)),
            false,
            [
                (5677, 4, &[221, 227, 95, 182], 39, (466, 0, 39, 302)),
                (5677, 4, &[221, 227, 95, 182], 39, (93, 84, 39, 9)),
            ],
        ),
        (
            "sprand 50x200 ±50",
            sprand(&SprandConfig::new(50, 200).seed(11).weight_range(-50, 50)),
            false,
            [
                (-34, 1, &[167, 84, 77], 45, (436, 0, 45, 297)),
                (-34, 1, &[167, 84, 77], 44, (90, 106, 44, 7)),
            ],
        ),
        (
            "circuit 300",
            circuit_graph(&CircuitConfig::new(300).seed(2)),
            false,
            [
                (70, 3, &[0, 1, 442], 214, (675, 0, 214, 366)),
                (70, 3, &[0, 1, 442], 214, (307, 225, 214, 13)),
            ],
        ),
        (
            "sprand 60x240 ±50, transits 1-5",
            ratio_instance,
            true,
            [
                (-83, 4, &[181, 139], 26, (433, 0, 26, 231)),
                (-83, 4, &[181, 139], 26, (86, 59, 26, 3)),
            ],
        ),
        (
            "sprand 40x160 ±50, zero transits",
            zero_transit_instance,
            true,
            [
                (-123, 1, &[159, 114, 117, 0, 141, 28], 5, (174, 0, 5, 68)),
                (-123, 1, &[159, 114, 117, 0, 141, 28], 5, (50, 19, 5, 8)),
            ],
        ),
    ];
    for (label, g, ratio, pins) in &cases {
        for (alg, &(p, q, witness, iterations, (inserts, decrease_keys, delete_mins, removals))) in
            [Algorithm::Ko, Algorithm::Yto].iter().zip(pins)
        {
            let sol = if *ratio {
                solve_spec(g, &SolveSpec::ratio(*alg), &SolveOptions::default())
                    .expect("solvable")
                    .expect("cyclic")
            } else {
                alg.solve(g).expect("cyclic")
            };
            let what = format!("{} on {label}", alg.name());
            let ids: Vec<usize> = sol.cycle.iter().map(|a| a.index()).collect();
            assert_eq!(sol.lambda, Ratio64::new(p, q), "{what}");
            assert_eq!(ids, witness, "{what}");
            let expected = Counters {
                iterations,
                relaxations: 0,
                distance_updates: 0,
                arcs_visited: 0,
                cycles_examined: 0,
                oracle_calls: 0,
                heap: HeapCounters {
                    inserts,
                    decrease_keys,
                    delete_mins,
                    removals,
                },
            };
            assert_eq!(sol.counters, expected, "{what}");
        }
    }
}
