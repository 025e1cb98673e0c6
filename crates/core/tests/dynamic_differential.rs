//! Differential proof of the incremental [`DynamicSolver`]: after
//! every edit batch, the incremental answer must be **bit-identical**
//! to a from-scratch [`solve_spec`] of the edited graph — λ as an
//! exact rational, the witness cycle, the guarantee, the answering
//! algorithm, and the operation counters — and both answers must
//! certify. Errors must match too: a batch that makes the instance
//! unsolvable (say a zero-transit cycle under the ratio objective)
//! must produce the same typed error on both paths.
//!
//! The sweep mirrors `differential.rs`: seeded random edit scripts
//! (the `mcr gen edits` generator), deterministic circuit-shaped
//! scripts, and weight-only scripts (which the solver answers by
//! patching its topology state in place), across 1/2/8 driver threads,
//! with the spec rotated across the route matrix (mean chain / strict
//! ratio / native ratio / expansion ratio / maximize). Adversarial
//! scripts cover the cases an
//! incremental solver is most likely to get wrong: deleting the
//! critical cycle, disconnecting a component, injecting zero transit
//! times, and duplicate-arc churn. `MCR_DYNAMIC_QUICK=1` shrinks the
//! seed sweep for CI's quick tier.

use mcr_core::spec::{solve_spec, SolveSpec};
use mcr_core::{
    certify, parse_edit_script, render_edit_script, Algorithm, ArcSpec, Budget, DynamicSolver,
    Edit, EditScript, Solution, SolveOptions,
};
use mcr_gen::circuit::{circuit_graph, CircuitConfig};
use mcr_gen::edits::{edit_script, EditScriptConfig};
use mcr_graph::{json, GraphBuilder};

const THREADS: [usize; 3] = [1, 2, 8];

/// CI quick tier: `MCR_DYNAMIC_QUICK=1` trims the seed sweep.
fn quick() -> bool {
    std::env::var_os("MCR_DYNAMIC_QUICK").is_some_and(|v| v != "0")
}

fn scripts_per_class() -> u64 {
    if quick() {
        12
    } else {
        100
    }
}

/// The route matrix (see `dynamic.rs`): mean fallback chain, strict
/// ratio, native ratio (exact and approximate), expansion ratio, and a
/// maximize orientation. Rotated per seed so the full sweep covers
/// every route many times without multiplying the runtime.
fn spec_for(seed: u64) -> SolveSpec {
    match seed % 6 {
        0 => SolveSpec::mean(Algorithm::HowardExact),
        1 => SolveSpec::mean(Algorithm::Karp),
        2 => SolveSpec::mean(Algorithm::HowardExact).maximize(),
        3 => SolveSpec::ratio(Algorithm::HowardExact),
        4 => SolveSpec::ratio(Algorithm::Yto),
        _ => SolveSpec::ratio(Algorithm::Karp),
    }
}

fn assert_same_solution(incremental: &Solution, fresh: &Solution, ctx: &str) {
    assert_eq!(incremental.lambda, fresh.lambda, "{ctx}: lambda");
    assert_eq!(incremental.cycle, fresh.cycle, "{ctx}: witness cycle");
    assert_eq!(incremental.guarantee, fresh.guarantee, "{ctx}: guarantee");
    assert_eq!(incremental.solved_by, fresh.solved_by, "{ctx}: solved_by");
    assert_eq!(incremental.counters, fresh.counters, "{ctx}: counters");
}

/// Runs one step (`None` = re-solve, `Some` = edit batch) on the
/// incremental solver and checks it against a from-scratch solve of
/// the solver's current graph.
fn step_and_check(
    solver: &mut DynamicSolver,
    batch: Option<&[Edit]>,
    spec: &SolveSpec,
    ctx: &str,
) {
    let result = match batch {
        None => solver.solve(),
        Some(edits) => solver.apply(edits),
    };
    let g = solver.current_graph();
    let fresh = solve_spec(&g, spec, &SolveOptions::new());
    match (result, fresh) {
        (Ok(outcome), Ok(expected)) => match (&outcome.solution, &expected) {
            (Some(inc), Some(exp)) => {
                assert_same_solution(inc, exp, ctx);
                certify(inc, &g).unwrap_or_else(|e| panic!("{ctx}: incremental certify: {e}"));
                certify(exp, &g).unwrap_or_else(|e| panic!("{ctx}: fresh certify: {e}"));
            }
            (None, None) => {}
            (inc, exp) => panic!(
                "{ctx}: incremental {:?} vs fresh {:?}",
                inc.as_ref().map(|s| &s.lambda),
                exp.as_ref().map(|s| &s.lambda)
            ),
        },
        (Err(inc), Err(exp)) => {
            assert_eq!(inc.to_string(), exp.to_string(), "{ctx}: error text");
        }
        (inc, exp) => panic!(
            "{ctx}: one path failed, the other answered: incremental={inc:?} fresh={exp:?}"
        ),
    }
}

fn replay_and_check(script: &EditScript, spec: SolveSpec, threads: usize, ctx: &str) {
    let mut solver = DynamicSolver::new(
        &script.base_graph(),
        spec,
        SolveOptions::new().threads(threads),
    );
    step_and_check(&mut solver, None, &spec, &format!("{ctx} batch=0"));
    for (i, batch) in script.batches.iter().enumerate() {
        step_and_check(
            &mut solver,
            Some(batch),
            &spec,
            &format!("{ctx} batch={}", i + 1),
        );
    }
}

/// Deterministic circuit-shaped scripts: the base is a circuit graph
/// and the edits are index arithmetic (no RNG needed), including
/// deliberate duplicate arcs.
fn circuit_script(seed: u64) -> EditScript {
    let g = circuit_graph(&CircuitConfig::new(4 + (seed % 8) as usize).seed(seed));
    let nodes = g.num_nodes();
    let base_arcs: Vec<ArcSpec> = g
        .arc_ids()
        .map(|a| ArcSpec {
            src: g.source(a).index(),
            dst: g.target(a).index(),
            weight: g.weight(a),
            transit: g.transit(a),
        })
        .collect();
    let mut m = base_arcs.len();
    let s = seed as usize;
    let mut batches = Vec::new();
    for b in 0..6usize {
        let mut batch = Vec::new();
        match (s + b) % 4 {
            0 => batch.push(Edit::Reweight {
                arc: (s * 7 + b) % m,
                weight: ((seed * 13 + b as u64) % 50) as i64 + 1,
            }),
            1 => {
                // Duplicate an existing arc's endpoints on purpose.
                batch.push(Edit::InsertArc {
                    src: (b * 3) % nodes,
                    dst: (s + b * 5) % nodes,
                    weight: 5 + b as i64,
                    transit: 1 + (b as i64 % 3),
                });
                m += 1;
            }
            2 => {
                if m > 4 {
                    batch.push(Edit::DeleteArc { arc: (s + b) % m });
                    m -= 1;
                }
            }
            _ => batch.push(Edit::Retime {
                arc: (b * 5) % m,
                transit: 1 + (b as i64 % 3),
            }),
        }
        batches.push(batch);
    }
    EditScript {
        nodes,
        base_arcs,
        batches,
        seed,
    }
}

#[test]
fn random_scripts_match_from_scratch_solves_at_every_thread_count() {
    for seed in 0..scripts_per_class() {
        let text = edit_script(&EditScriptConfig::new(6).seed(seed));
        let script = parse_edit_script(&text).expect("generated scripts parse");
        let spec = spec_for(seed);
        for threads in THREADS {
            replay_and_check(
                &script,
                spec,
                threads,
                &format!("sprand seed={seed} threads={threads}"),
            );
        }
    }
}

#[test]
fn circuit_scripts_match_from_scratch_solves_at_every_thread_count() {
    for seed in 0..scripts_per_class() {
        let script = circuit_script(seed);
        let spec = spec_for(seed.wrapping_add(1));
        for threads in THREADS {
            replay_and_check(
                &script,
                spec,
                threads,
                &format!("circuit seed={seed} threads={threads}"),
            );
        }
    }
}

/// Weight-only scripts: mostly [`Edit::Reweight`] / [`Edit::Retime`]
/// batches, which the solver answers by patching its topology state in
/// place. The base is a circuit (even seeds) or a SPRAND union (odd)
/// plus a two-arc tail that lies on no cycle. Batches cycle through
/// four shapes: several edits with one arc edited twice; a lone edit to
/// a tail arc; a lone retime; and an insert or delete, which drops the
/// state so the next solve rebuilds it mid-script.
fn weight_only_script(seed: u64) -> EditScript {
    let base = if seed.is_multiple_of(2) {
        circuit_script(seed)
    } else {
        parse_edit_script(&edit_script(&EditScriptConfig::new(0).seed(seed))).expect("parses")
    };
    let n = base.nodes;
    let mut arcs = base.base_arcs;
    // n + 1 -> n -> 0: no arc enters the two tail nodes.
    arcs.push(ArcSpec { src: n, dst: 0, weight: 7, transit: 1 });
    arcs.push(ArcSpec { src: n + 1, dst: n, weight: -3, transit: 2 });
    let mut tail = [arcs.len() - 2, arcs.len() - 1];
    let mut m = arcs.len();
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = |bound: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % bound as u64) as usize
    };
    let mut batches = Vec::new();
    for b in 0..12 {
        let mut batch = Vec::new();
        match b % 4 {
            0 => {
                for _ in 0..1 + next(3) {
                    let arc = next(m);
                    batch.push(if next(2) == 0 {
                        Edit::Reweight { arc, weight: next(81) as i64 - 20 }
                    } else {
                        Edit::Retime { arc, transit: 1 + next(3) as i64 }
                    });
                }
                let twice = next(m);
                batch.push(Edit::Reweight { arc: twice, weight: next(81) as i64 - 20 });
                batch.push(Edit::Retime { arc: twice, transit: 1 + next(3) as i64 });
                batch.push(Edit::Reweight { arc: twice, weight: next(81) as i64 - 20 });
            }
            1 => batch.push(Edit::Reweight {
                arc: tail[next(2)],
                weight: next(81) as i64 - 20,
            }),
            2 => batch.push(Edit::Retime { arc: next(m), transit: 1 + next(3) as i64 }),
            _ if b % 8 == 3 => {
                batch.push(Edit::InsertArc {
                    src: next(n),
                    dst: next(n),
                    weight: next(81) as i64 - 20,
                    transit: 1 + next(3) as i64,
                });
                m += 1;
            }
            _ => {
                // Below the tail, which therefore shifts down by one.
                batch.push(Edit::DeleteArc { arc: next(tail[0]) });
                m -= 1;
                tail = tail.map(|t| t - 1);
            }
        }
        batches.push(batch);
    }
    EditScript {
        nodes: n + 2,
        base_arcs: arcs,
        batches,
        seed,
    }
}

#[test]
fn weight_only_scripts_match_from_scratch_solves_at_every_thread_count() {
    for seed in 0..scripts_per_class() {
        let script = weight_only_script(seed);
        let spec = spec_for(seed);
        for threads in THREADS {
            replay_and_check(
                &script,
                spec,
                threads,
                &format!("weight-only seed={seed} threads={threads}"),
            );
        }
    }
}

#[test]
fn first_solve_matches_solve_spec_for_every_spec_and_failure() {
    // Both paths take their per-component kernel from one route table,
    // so every algorithm × objective × orientation must give the same
    // answer (λ, witness, solved_by, counters) or the same typed error:
    // on a small multi-component graph, on a 2-ring whose transits of
    // 2^62 overflow the parametric kernels, and under a one-iteration
    // budget that starves some kernels and not others.
    let multi = mcr_graph::graph::from_arc_list(
        7,
        &[
            (0, 1, 5),
            (1, 0, 5),
            (1, 2, 1),
            (2, 3, 1),
            (3, 4, 2),
            (4, 2, 3),
            (4, 5, -1),
            (5, 6, 7),
            (6, 5, 1),
        ],
    );
    let mut b = GraphBuilder::new();
    let v = b.add_nodes(2);
    b.add_arc_with_transit(v[0], v[1], 1, 1 << 62);
    b.add_arc_with_transit(v[1], v[0], 1, 1 << 62);
    let ring = b.build();
    let starved = SolveOptions::new().budget(Budget::default().max_iterations(1));
    let cases = [
        ("multi", &multi, SolveOptions::new()),
        ("ring 2^62", &ring, SolveOptions::new()),
        ("multi iters=1", &multi, starved),
    ];
    for (name, g, opts) in cases {
        for alg in Algorithm::ALL {
            for base in [SolveSpec::mean(alg), SolveSpec::ratio(alg)] {
                for spec in [base, base.maximize()] {
                    let ctx = format!("{name} {spec:?}");
                    let dynamic = DynamicSolver::new(g, spec, opts.clone())
                        .solve()
                        .map(|outcome| outcome.solution);
                    match (dynamic, solve_spec(g, &spec, &opts)) {
                        (Ok(Some(inc)), Ok(Some(fresh))) => {
                            assert_same_solution(&inc, &fresh, &ctx)
                        }
                        (Ok(None), Ok(None)) => {}
                        (Err(inc), Err(fresh)) => assert_eq!(inc, fresh, "{ctx}"),
                        (inc, fresh) => panic!("{ctx}: dynamic {inc:?} vs solve_spec {fresh:?}"),
                    }
                }
            }
        }
    }
}

#[test]
fn deleting_the_critical_cycle_re_answers_correctly_until_acyclic() {
    // The hardest single edit for a cached solver: remove exactly the
    // arcs the current witness runs through, repeatedly, until nothing
    // cyclic remains. Every intermediate answer must match a fresh
    // solve; the terminal state must be acyclic on both paths.
    let spec = SolveSpec::mean(Algorithm::HowardExact);
    for seed in [3u64, 17, 29] {
        let text = edit_script(&EditScriptConfig::new(0).seed(seed));
        let script = parse_edit_script(&text).expect("parses");
        let mut solver =
            DynamicSolver::new(&script.base_graph(), spec, SolveOptions::new());
        let mut outcome = solver.solve().expect("initial solve");
        let mut rounds = 0usize;
        while let Some(sol) = outcome.solution.clone() {
            // Delete the witness arcs highest-index-first so earlier
            // deletions do not renumber later ones.
            let mut arcs: Vec<usize> = sol.cycle.iter().map(|a| a.index()).collect();
            arcs.sort_unstable_by(|a, b| b.cmp(a));
            let batch: Vec<Edit> = arcs.into_iter().map(|arc| Edit::DeleteArc { arc }).collect();
            outcome = solver.apply(&batch).expect("delete batch applies");
            let g = solver.current_graph();
            let fresh = solve_spec(&g, &spec, &SolveOptions::new()).expect("solves");
            match (&outcome.solution, &fresh) {
                (Some(inc), Some(exp)) => {
                    assert_same_solution(inc, exp, &format!("seed={seed} round={rounds}"))
                }
                (None, None) => {}
                (inc, exp) => panic!(
                    "seed={seed} round={rounds}: incremental {:?} vs fresh {:?}",
                    inc.is_some(),
                    exp.is_some()
                ),
            }
            rounds += 1;
            assert!(rounds < 1000, "seed={seed}: must reach acyclic");
        }
    }
}

#[test]
fn disconnecting_a_component_drops_only_its_contribution() {
    // Two disjoint cycles with different means; deleting the better
    // one's arcs must re-answer with the worse one's mean, then
    // deleting that too must go acyclic — matching fresh solves.
    let script = EditScript {
        nodes: 4,
        base_arcs: vec![
            ArcSpec { src: 0, dst: 1, weight: 2, transit: 1 },
            ArcSpec { src: 1, dst: 0, weight: 2, transit: 1 },
            ArcSpec { src: 2, dst: 3, weight: 9, transit: 1 },
            ArcSpec { src: 3, dst: 2, weight: 9, transit: 1 },
        ],
        batches: vec![],
        seed: 0,
    };
    let spec = SolveSpec::mean(Algorithm::HowardExact);
    let mut solver = DynamicSolver::new(&script.base_graph(), spec, SolveOptions::new());
    let first = solver.solve().expect("solves").solution.expect("cyclic");
    assert_eq!(first.lambda.to_string(), "2");
    // Disconnect the λ=2 cycle.
    let outcome = solver
        .apply(&[Edit::DeleteArc { arc: 1 }, Edit::DeleteArc { arc: 0 }])
        .expect("applies");
    let second = outcome.solution.expect("the other cycle remains");
    assert_eq!(second.lambda.to_string(), "9");
    step_and_check(&mut solver, None, &spec, "post-disconnect re-check");
    // Break the survivor (one arc of a 2-cycle suffices): acyclic on
    // both paths.
    let outcome = solver
        .apply(&[Edit::DeleteArc { arc: 1 }])
        .expect("applies");
    assert!(outcome.solution.is_none(), "now acyclic");
    assert!(solve_spec(&solver.current_graph(), &spec, &SolveOptions::new())
        .expect("ok")
        .is_none());
}

#[test]
fn zero_transit_injection_errors_like_a_fresh_solve_and_recovers() {
    // Under the ratio objective, retiming a cycle to total transit 0
    // must surface SolveError::ZeroTransitCycle — the same typed error
    // a fresh solve of that graph reports — and retiming it back must
    // recover with a certified answer.
    let script = EditScript {
        nodes: 2,
        base_arcs: vec![
            ArcSpec { src: 0, dst: 1, weight: 3, transit: 1 },
            ArcSpec { src: 1, dst: 0, weight: 4, transit: 2 },
        ],
        batches: vec![],
        seed: 0,
    };
    let spec = SolveSpec::ratio(Algorithm::HowardExact);
    let mut solver = DynamicSolver::new(&script.base_graph(), spec, SolveOptions::new());
    let first = solver.solve().expect("solves").solution.expect("cyclic");
    assert_eq!(first.lambda.to_string(), "7/3");
    let err = solver
        .apply(&[
            Edit::Retime { arc: 0, transit: 0 },
            Edit::Retime { arc: 1, transit: 0 },
        ])
        .expect_err("zero-transit cycle must fail");
    let fresh_err = solve_spec(&solver.current_graph(), &spec, &SolveOptions::new())
        .expect_err("fresh solve fails identically");
    assert_eq!(err.to_string(), fresh_err.to_string());
    assert!(
        err.to_string().contains("zero total transit"),
        "unexpected error: {err}"
    );
    // The failed solve still committed the retimes; undo them.
    let outcome = solver
        .apply(&[
            Edit::Retime { arc: 0, transit: 1 },
            Edit::Retime { arc: 1, transit: 2 },
        ])
        .expect("recovers");
    let sol = outcome.solution.expect("cyclic again");
    assert_eq!(sol.lambda.to_string(), "7/3");

    // Retime-only batches on a graph with a second component, which the
    // zero-transit check must keep seeing while only the first changes:
    // create a zero-transit cycle in one component, then remove it.
    let script = EditScript {
        nodes: 4,
        base_arcs: vec![
            ArcSpec { src: 0, dst: 1, weight: 3, transit: 1 },
            ArcSpec { src: 1, dst: 0, weight: 4, transit: 2 },
            ArcSpec { src: 2, dst: 3, weight: 1, transit: 1 },
            ArcSpec { src: 3, dst: 2, weight: 9, transit: 1 },
            ArcSpec { src: 1, dst: 2, weight: 5, transit: 0 },
        ],
        batches: vec![],
        seed: 0,
    };
    let mut solver = DynamicSolver::new(&script.base_graph(), spec, SolveOptions::new());
    step_and_check(&mut solver, None, &spec, "two rings");
    let create = [Edit::Retime { arc: 2, transit: 0 }, Edit::Retime { arc: 3, transit: 0 }];
    let err = solver.apply(&create).expect_err("zero-transit cycle must fail");
    let fresh_err = solve_spec(&solver.current_graph(), &spec, &SolveOptions::new())
        .expect_err("fresh solve fails identically");
    assert_eq!(err.to_string(), fresh_err.to_string());
    // Editing the other component leaves the zero-transit cycle in place.
    step_and_check(
        &mut solver,
        Some(&[Edit::Retime { arc: 0, transit: 5 }]),
        &spec,
        "zero-transit cycle untouched",
    );
    assert!(solver.apply(&[Edit::Retime { arc: 1, transit: 1 }]).is_err());
    step_and_check(
        &mut solver,
        Some(&[Edit::Retime { arc: 3, transit: 2 }]),
        &spec,
        "zero-transit cycle removed",
    );
    // Created and removed again within one batch: never an error.
    step_and_check(
        &mut solver,
        Some(&[
            Edit::Retime { arc: 3, transit: 0 },
            Edit::Retime { arc: 4, transit: 3 },
            Edit::Retime { arc: 2, transit: 1 },
        ]),
        &spec,
        "zero-transit cycle created and removed in one batch",
    );
    // The acyclic bridge arc may carry zero transit freely.
    step_and_check(
        &mut solver,
        Some(&[Edit::Retime { arc: 4, transit: 0 }]),
        &spec,
        "zero-transit bridge",
    );
}

#[test]
fn duplicate_arc_churn_stays_bit_identical() {
    // Pile parallel arcs onto the same endpoints (cheaper and cheaper),
    // then delete from the middle of the pile; ids renumber every time.
    let spec = SolveSpec::mean(Algorithm::HowardExact);
    let text = edit_script(&EditScriptConfig::new(0).seed(5));
    let script = parse_edit_script(&text).expect("parses");
    for threads in THREADS {
        let mut solver = DynamicSolver::new(
            &script.base_graph(),
            spec,
            SolveOptions::new().threads(threads),
        );
        step_and_check(&mut solver, None, &spec, "churn batch=0");
        let base = solver.num_arcs();
        for round in 0..8i64 {
            let batch = vec![
                Edit::InsertArc { src: 0, dst: 1, weight: 40 - 4 * round, transit: 1 },
                Edit::InsertArc { src: 1, dst: 0, weight: 40 - 4 * round, transit: 1 },
            ];
            step_and_check(
                &mut solver,
                Some(&batch),
                &spec,
                &format!("churn insert round={round} threads={threads}"),
            );
        }
        for round in 0..4 {
            let batch = vec![Edit::DeleteArc { arc: base + round }];
            step_and_check(
                &mut solver,
                Some(&batch),
                &spec,
                &format!("churn delete round={round} threads={threads}"),
            );
        }
    }
}

#[test]
fn checkpoint_restore_mid_script_answers_bit_identically() {
    // Replay half a script, checkpoint, restore into a cold solver, and
    // finish the script on both: every post-restore answer must be
    // bit-identical (the restored cache is cold, so its *mode* may be
    // Full where the original says Incremental — the answers may not
    // differ).
    for seed in [2u64, 9, 23] {
        let text = edit_script(&EditScriptConfig::new(8).seed(seed));
        let script = parse_edit_script(&text).expect("parses");
        let spec = spec_for(seed);
        let opts = SolveOptions::new();
        let mut original =
            DynamicSolver::new(&script.base_graph(), spec, opts.clone());
        original.solve().expect("initial solve");
        let (first_half, second_half) = script.batches.split_at(script.batches.len() / 2);
        for batch in first_half {
            let _ = original.apply(batch);
        }
        let mut restored =
            DynamicSolver::from_checkpoint(&original.checkpoint(), spec, opts.clone())
                .expect("checkpoint parses back");
        assert_eq!(original.num_arcs(), restored.num_arcs(), "seed={seed}");
        for (i, batch) in second_half.iter().enumerate() {
            let a = original.apply(batch);
            let b = restored.apply(batch);
            match (a, b) {
                (Ok(a), Ok(b)) => match (&a.solution, &b.solution) {
                    (Some(x), Some(y)) => {
                        assert_same_solution(x, y, &format!("seed={seed} post-restore batch={i}"))
                    }
                    (None, None) => {}
                    _ => panic!("seed={seed} batch={i}: acyclic on one side only"),
                },
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "seed={seed}"),
                (a, b) => panic!("seed={seed} batch={i}: {a:?} vs {b:?}"),
            }
        }
    }
}

const GOLDEN: &str = include_str!("data/golden_edits.jsonl");
const GOLDEN_EXPECTED: &str = include_str!("data/golden_edits_expected.txt");

/// The keys of one JSONL line, in order.
fn json_keys(line: &str) -> Vec<String> {
    match json::parse(line).expect("golden line is JSON") {
        json::Value::Obj(pairs) => pairs.into_iter().map(|(key, _)| key).collect(),
        other => panic!("golden line is not an object: {other:?}"),
    }
}

#[test]
fn golden_script_regenerates_parses_and_replays_to_the_pinned_trajectory() {
    // Byte-for-byte: the committed script IS what the generator emits
    // (regeneration instructions live in EXPERIMENTS.md)...
    let regenerated = edit_script(&EditScriptConfig::new(8).seed(5));
    assert_eq!(GOLDEN, regenerated, "golden script drifted from `mcr gen edits 8 --seed 5`");
    // ...the parser round-trips it exactly...
    let script = parse_edit_script(GOLDEN).expect("golden parses");
    assert_eq!(render_edit_script(&script), GOLDEN, "render is not the parse inverse");
    // ...every JSON key is declared in the schema manifest (MCRL011's
    // on-disk face)...
    let manifest = include_str!("../../../schemas/mcr-edits-v1.txt");
    let declared: Vec<&str> = manifest
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    for line in GOLDEN.lines() {
        for key in json_keys(line) {
            assert!(
                declared.contains(&key.as_str()),
                "key `{key}` is not declared in schemas/mcr-edits-v1.txt"
            );
        }
    }
    // ...and the replayed λ* trajectory matches the committed one, at
    // one thread and at eight.
    let spec = SolveSpec::mean(Algorithm::HowardExact);
    for threads in [1usize, 8] {
        let mut solver = DynamicSolver::new(
            &script.base_graph(),
            spec,
            SolveOptions::new().threads(threads),
        );
        let mut trajectory = Vec::new();
        let initial = solver.solve().expect("initial solve");
        trajectory.push(match &initial.solution {
            Some(sol) => sol.lambda.to_string(),
            None => "acyclic".to_string(),
        });
        for batch in &script.batches {
            let outcome = solver.apply(batch).expect("golden batches solve");
            trajectory.push(match &outcome.solution {
                Some(sol) => sol.lambda.to_string(),
                None => "acyclic".to_string(),
            });
        }
        let expected: Vec<&str> = GOLDEN_EXPECTED
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        assert_eq!(
            trajectory, expected,
            "threads={threads}: λ trajectory drifted from data/golden_edits_expected.txt"
        );
    }
}

#[test]
fn metrics_pair_reports_incremental_vs_full_modes() {
    use mcr_core::SolveMode;
    // Three disjoint components: the initial solve is Full, and a
    // single-component reweight afterwards must be Incremental with
    // exactly two cache hits. This is the observable half of the
    // `dynamic.solve.incremental` / `dynamic.solve.full` metric pair.
    let text = edit_script(&EditScriptConfig::new(0).seed(1));
    let script = parse_edit_script(&text).expect("parses");
    let spec = SolveSpec::mean(Algorithm::HowardExact);
    let mut solver = DynamicSolver::new(&script.base_graph(), spec, SolveOptions::new());
    let initial = solver.solve().expect("solves");
    assert_eq!(initial.mode, SolveMode::Full);
    assert_eq!(initial.cache_hits, 0);
    let outcome = solver
        .apply(&[Edit::Reweight { arc: 0, weight: 60 }])
        .expect("applies");
    assert_eq!(outcome.mode, SolveMode::Incremental);
    assert_eq!(outcome.cache_hits, 2, "two untouched components reused");
    assert_eq!(outcome.cache_misses, 1, "the edited component re-solved");

    // The `dynamic.topology.patched` / `.rebuilt` pair and the event's
    // `rebuilt` flag: a reweight batch patches the topology state in
    // place, an insert batch rebuilds it, reusing the untouched jobs
    // (`dynamic.jobs.reused`) and extracting the edited one
    // (`dynamic.jobs.extracted`). A solver that carries its own
    // recorder reports exactly its own batches: the initial full solve
    // (a rebuild that extracts all three jobs), one reweight and one
    // insert.
    #[cfg(feature = "obs")]
    {
        use mcr_core::obs::{Recorder, Timestamps};
        let recorder = Recorder::new();
        let opts = SolveOptions::new().recorder(recorder.clone());
        let mut solver = DynamicSolver::new(&script.base_graph(), spec, opts);
        solver.solve().expect("solves");
        solver
            .apply(&[Edit::Reweight { arc: 0, weight: 61 }])
            .expect("applies");
        let a = script.base_arcs[0];
        let outcome = solver
            .apply(&[Edit::InsertArc { src: a.src, dst: a.dst, weight: 70, transit: 1 }])
            .expect("applies");
        assert_eq!((outcome.cache_hits, outcome.cache_misses), (2, 1));
        let report = recorder.report();
        for (name, value) in [
            ("dynamic.solve.full", 1),
            ("dynamic.solve.incremental", 2),
            ("dynamic.topology.patched", 1),
            ("dynamic.topology.rebuilt", 2),
            ("dynamic.jobs.reused", 2),
            ("dynamic.jobs.extracted", 4),
            ("dynamic.edits.applied", 2),
        ] {
            assert_eq!(report.counters.get(name), Some(&value), "{name}");
        }
        let trace = report.trace_jsonl(Timestamps::Normalized);
        for rebuilt in [0, 1] {
            let fields =
                format!("\"mode\":\"incremental\",\"hits\":2,\"misses\":1,\"rebuilt\":{rebuilt}}}");
            assert!(
                trace
                    .lines()
                    .any(|l| l.contains("\"kind\":\"dynamic.solve\"") && l.ends_with(&fields)),
                "no dynamic.solve event ending {fields} in\n{trace}"
            );
        }
    }
}
