//! Chaos suite: deterministic fault injection against the full solver
//! stack (`--features chaos`). The invariant under every schedule is
//! the same: the solve either returns the **correct certified answer**
//! (fallback chain absorbed the faults) or fails **closed** with a
//! typed [`SolveError`] — never a wrong answer, a hang, or reuse of a
//! poisoned workspace.
//!
//! Schedules install into a process-global registry whose guard
//! serializes concurrent installs, so these tests may run in parallel
//! test threads without observing each other's faults.
//!
//! CI runs this suite across the three fixed seeds below (see
//! `scripts/ci.sh`); the seed offsets every derived trigger point.

#![cfg(feature = "chaos")]

use mcr_core::chaos::{FaultKind, FaultSchedule};
use mcr_core::{
    certify, Algorithm, CancelToken, FallbackChain, Solution, SolveError, SolveOptions,
};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_graph::graph::from_arc_list;
use mcr_graph::Graph;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes the whole suite: the chaos registry is process-global, so
/// a reference solve in one test must never run while another test's
/// schedule is installed.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// The fixed seeds CI sweeps (kept in sync with scripts/ci.sh). Each
/// test additionally honors `MCR_CHAOS_SEED` so the CI job can pin one.
const SEEDS: [u64; 3] = [11, 42, 20240806];

fn seeds() -> Vec<u64> {
    match std::env::var("MCR_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("MCR_CHAOS_SEED must be a u64")],
        Err(_) => SEEDS.to_vec(),
    }
}

fn multi_scc_graph() -> Graph {
    let parts: Vec<Graph> = (0..3)
        .map(|seed| {
            sprand(
                &SprandConfig::new(16, 48)
                    .seed(0xBEEF + seed)
                    .weight_range(-40, 40),
            )
        })
        .collect();
    let mut arcs = Vec::new();
    let mut offset = 0usize;
    for g in &parts {
        for a in g.arc_ids() {
            arcs.push((
                g.source(a).index() + offset,
                g.target(a).index() + offset,
                g.weight(a),
            ));
        }
        offset += g.num_nodes();
    }
    from_arc_list(offset, &arcs)
}

fn reference(g: &Graph) -> Solution {
    Algorithm::HowardExact
        .solve_with_options(g, &SolveOptions::default())
        .expect("cyclic")
}

/// Correct-or-fail-closed: `Ok` must match the reference and certify;
/// `Err` must be a recoverable solver error or a budget exhaustion —
/// never a panic, hang, or wrong answer (asserted by construction).
fn assert_sound(result: Result<Solution, SolveError>, g: &Graph, reference: &Solution, ctx: &str) {
    match result {
        Ok(sol) => {
            assert_eq!(sol.lambda, reference.lambda, "{ctx}: wrong lambda");
            certify(&sol, g).unwrap_or_else(|e| panic!("{ctx}: certification failed: {e}"));
        }
        Err(err) => assert!(
            matches!(
                err,
                SolveError::BudgetExhausted { .. }
                    | SolveError::Overflow { .. }
                    | SolveError::NumericRange { .. }
            ),
            "{ctx}: unexpected error {err}"
        ),
    }
}

#[test]
fn fallback_chain_absorbs_a_dead_primary_algorithm() {
    let _serial = serial();
    let g = multi_scc_graph();
    let reference = reference(&g);
    for seed in seeds() {
        for threads in [1, 2, 8] {
            for kind in [FaultKind::BudgetExhaust, FaultKind::Overflow, FaultKind::NumericRange] {
                // Kill every Howard-exact improvement round on every
                // component: the chain's next member must answer.
                let _guard = FaultSchedule::new(seed)
                    .inject_always("core.howard.exact.improve", kind)
                    .install();
                let sol = Algorithm::HowardExact
                    .solve_with_options(&g, &SolveOptions::new().threads(threads))
                    .expect("fallback chain must absorb the injected faults");
                assert_eq!(
                    sol.lambda,
                    reference.lambda,
                    "seed={seed} threads={threads} kind={kind:?}"
                );
                assert_ne!(
                    sol.solved_by,
                    Algorithm::HowardExact,
                    "seed={seed}: the dead primary cannot have answered"
                );
                certify(&sol, &g).expect("fallback answer certifies");
            }
        }
    }
}

#[test]
fn without_fallback_the_injected_fault_surfaces_typed() {
    let _serial = serial();
    let g = multi_scc_graph();
    for seed in seeds() {
        let _guard = FaultSchedule::new(seed)
            .inject_always("core.howard.exact.improve", FaultKind::BudgetExhaust)
            .install();
        let err = Algorithm::HowardExact
            .solve_with_options(&g, &SolveOptions::new().fallback(FallbackChain::NONE))
            .expect_err("no fallback: the injected exhaustion surfaces");
        match err {
            SolveError::BudgetExhausted { algorithm, .. } => {
                assert_eq!(algorithm, Algorithm::HowardExact, "seed={seed}")
            }
            other => panic!("seed={seed}: expected BudgetExhausted, got {other}"),
        }
    }
}

#[test]
fn exhausted_chain_fails_closed_and_attributes_the_last_attempt() {
    let _serial = serial();
    let g = multi_scc_graph();
    let reference = reference(&g);
    for seed in seeds() {
        for threads in [1, 2, 8] {
            let err = {
                // Kill every member of the default chain
                // (HowardExact → Karp → LawlerExact).
                let _guard = FaultSchedule::new(seed)
                    .inject_always("core.howard.exact.improve", FaultKind::BudgetExhaust)
                    .inject_always("core.karp.level", FaultKind::BudgetExhaust)
                    .inject_always("core.lawler.exact.bisect", FaultKind::BudgetExhaust)
                    .install();
                Algorithm::HowardExact
                    .solve_with_options(&g, &SolveOptions::new().threads(threads))
                    .expect_err("every chain member is dead")
            };
            match err {
                SolveError::BudgetExhausted { algorithm, .. } => assert_eq!(
                    algorithm,
                    Algorithm::LawlerExact,
                    "seed={seed} threads={threads}: the error must name the LAST attempt"
                ),
                other => panic!("expected BudgetExhausted, got {other}"),
            }
            // Schedule uninstalled: the very next solve must be clean —
            // no fault state, no stale workspace contents.
            let sol = Algorithm::HowardExact
                .solve_with_options(&g, &SolveOptions::new().threads(threads))
                .expect("clean solve after chaos");
            assert_eq!(sol.lambda, reference.lambda);
            assert_eq!(sol.solved_by, Algorithm::HowardExact);
        }
    }
}

#[test]
fn seeded_one_shot_faults_are_correct_or_fail_closed() {
    let _serial = serial();
    let g = multi_scc_graph();
    let reference = reference(&g);
    for seed in seeds() {
        for threads in [1, 2, 8] {
            // One seed-derived transient somewhere in the core layer,
            // one in the Bellman oracle: wherever they land, the result
            // must be sound.
            let result = {
                let _guard = FaultSchedule::new(seed)
                    .inject("core.*", FaultKind::Transient)
                    .inject("core.bellman.round", FaultKind::NumericRange)
                    .install();
                Algorithm::HowardExact.solve_with_options(&g, &SolveOptions::new().threads(threads))
            };
            assert_sound(result, &g, &reference, &format!("seed={seed} threads={threads}"));
        }
    }
}

#[test]
fn every_algorithm_survives_faults_at_its_own_sites() {
    let _serial = serial();
    // Small instance so the per-algorithm sweep stays fast; one
    // seed-derived fault against each algorithm's own loop site, solved
    // without fallback: the typed error (or the correct answer) must
    // come back for all 14 variants.
    let g = from_arc_list(
        5,
        &[(0, 1, 5), (1, 0, 5), (1, 2, 1), (2, 3, 1), (3, 4, 2), (4, 2, 3)],
    );
    let reference = Algorithm::HowardExact
        .solve_with_options(&g, &SolveOptions::default())
        .expect("cyclic");
    for seed in seeds() {
        for alg in Algorithm::ALL {
            let result = {
                let _guard = FaultSchedule::new(seed)
                    .inject_at("core.*", FaultKind::Transient, seed % 4, 1)
                    .install();
                alg.solve_with_options(&g, &SolveOptions::new().fallback(FallbackChain::NONE))
            };
            assert_sound(result, &g, &reference, &format!("seed={seed} alg={}", alg.name()));
        }
    }
}

#[test]
fn bellman_round_faults_fail_typed_under_an_unbudgeted_oracle() {
    let _serial = serial();
    // Burns' exact certification and the critical-structure helpers run
    // Bellman–Ford with no budget, so only a fault at its round site
    // fails them: typed, never as a panic.
    let g = multi_scc_graph();
    let reference = reference(&g);
    for seed in seeds() {
        for kind in [FaultKind::BudgetExhaust, FaultKind::Overflow, FaultKind::NumericRange] {
            let _guard = FaultSchedule::new(seed)
                .inject_always("core.bellman.round", kind)
                .install();
            let ctx = format!("seed={seed} kind={kind:?}");
            let burns = Algorithm::Burns
                .solve_with_options(&g, &SolveOptions::new().fallback(FallbackChain::NONE));
            assert!(burns.is_err(), "{ctx}: Burns certified through a faulted oracle");
            assert_sound(burns, &g, &reference, &ctx);
            let err = mcr_core::critical::critical_subgraph(&g, reference.lambda)
                .expect_err("the potentials pass is faulted");
            assert!(err.contains("core.bellman.round") || err.contains("budget"), "{ctx}: {err}");
            let err = mcr_core::critical::critical_cycle(&g, reference.lambda)
                .expect_err("the potentials pass is faulted");
            assert_sound(Err(err), &g, &reference, &ctx);
        }
    }
}

#[test]
fn delays_do_not_change_results_across_thread_counts() {
    let _serial = serial();
    let g = multi_scc_graph();
    let sequential = reference(&g);
    for seed in seeds() {
        let _guard = FaultSchedule::new(seed)
            .inject_always("core.driver.job", FaultKind::Delay { millis: 2 })
            .install();
        for threads in [2, 8] {
            let sol = Algorithm::HowardExact
                .solve_with_options(&g, &SolveOptions::new().threads(threads))
                .expect("delays never fail a solve");
            assert_eq!(sol.lambda, sequential.lambda, "seed={seed} threads={threads}");
            assert_eq!(sol.cycle, sequential.cycle, "seed={seed} threads={threads}");
            assert_eq!(sol.counters, sequential.counters, "seed={seed} threads={threads}");
        }
    }
}

#[test]
fn cancellation_wins_over_recoverable_faults() {
    let _serial = serial();
    let g = multi_scc_graph();
    for seed in seeds() {
        let token = CancelToken::new();
        token.cancel();
        let _guard = FaultSchedule::new(seed)
            .inject_always("core.howard.exact.improve", FaultKind::BudgetExhaust)
            .install();
        // A cancelled token is non-recoverable: the chain must NOT
        // continue past it to mask the cancellation with a fallback.
        let err = Algorithm::HowardExact
            .solve_with_options(&g, &SolveOptions::new().cancel(token))
            .expect_err("cancelled before it started");
        assert_eq!(err, SolveError::Cancelled, "seed={seed}");
    }
}

#[test]
fn interrupted_chaos_runs_resume_bit_identically() {
    let _serial = serial();
    use mcr_core::{Budget, CheckpointStore};
    let g = multi_scc_graph();
    let reference = Algorithm::HowardExact
        .solve_with_options(&g, &SolveOptions::new().fallback(FallbackChain::NONE))
        .expect("cyclic");
    for seed in seeds() {
        for threads in [1, 2, 8] {
            let store = CheckpointStore::new();
            {
                let _guard = FaultSchedule::new(seed)
                    .inject_at("core.howard.exact.improve", FaultKind::BudgetExhaust, 1, u64::MAX)
                    .install();
                Algorithm::HowardExact
                    .solve_with_options(
                        &g,
                        &SolveOptions::new()
                            .threads(threads)
                            .budget(Budget::default())
                            .fallback(FallbackChain::NONE)
                            .checkpoints(store.clone()),
                    )
                    .expect_err("injected exhaustion interrupts");
            }
            assert!(!store.is_empty(), "seed={seed}: no progress was saved");
            let resumed = Algorithm::HowardExact
                .solve_with_options(
                    &g,
                    &SolveOptions::new()
                        .threads(threads)
                        .fallback(FallbackChain::NONE)
                        .checkpoints(store),
                )
                .expect("chaos-free resume finishes");
            assert_eq!(resumed.lambda, reference.lambda, "seed={seed} threads={threads}");
            assert_eq!(resumed.cycle, reference.cycle, "seed={seed} threads={threads}");
            assert_eq!(resumed.solved_by, reference.solved_by);
        }
    }
}

#[test]
fn parser_faults_surface_as_parse_errors_not_panics() {
    let _serial = serial();
    let g = from_arc_list(3, &[(0, 1, 4), (1, 2, 2), (2, 0, 3)]);
    let mut text = Vec::new();
    mcr_graph::io::write_dimacs(&mut text, &g).expect("serialize");
    for seed in seeds() {
        let _guard = FaultSchedule::new(seed)
            .inject_always("graph.io.read_dimacs.arc", FaultKind::Transient)
            .install();
        let err = mcr_graph::io::read_dimacs(&mut text.as_slice())
            .expect_err("every arc line is poisoned");
        assert!(
            err.to_string().contains("chaos"),
            "seed={seed}: expected the injected parse error, got {err}"
        );
    }
}

#[test]
fn every_fired_site_is_declared_in_the_manifest() {
    let _serial = serial();
    let g = multi_scc_graph();
    // An empty schedule observes every site hit without firing faults;
    // sweep all fourteen algorithms plus the parser so each layer's
    // sites pulse at least once.
    let _guard = FaultSchedule::new(0).install();
    for alg in Algorithm::ALL {
        let _ = alg.solve_with_options(&g, &SolveOptions::default());
    }
    let mut text = Vec::new();
    mcr_graph::io::write_dimacs(&mut text, &g).expect("serialize");
    let _ = mcr_graph::io::read_dimacs(&mut text.as_slice()).expect("round trip");
    let declared = mcr_core::chaos::declared_sites();
    let fired = mcr_core::chaos::hit_sites();
    assert!(!fired.is_empty(), "the sweep must pulse some sites");
    for site in &fired {
        assert!(
            declared.contains(&site.as_str()),
            "site `{site}` fired but is not declared in crates/chaos/sites.txt"
        );
    }
}

#[test]
fn unit_sites_count_hits_without_failing() {
    let _serial = serial();
    let g = multi_scc_graph();
    let reference = reference(&g);
    // Error-kind faults aimed at infallible "unit" sites (driver jobs,
    // workspace resets, heap pops, SCC visits) must be counted but
    // cannot fail the solve.
    let _guard = FaultSchedule::new(7)
        .inject_always("core.driver.job", FaultKind::Overflow)
        .inject_always("core.workspace.reset", FaultKind::Overflow)
        .inject_always("graph.scc.root", FaultKind::Overflow)
        .install();
    let sol = Algorithm::HowardExact
        .solve_with_options(&g, &SolveOptions::default())
        .expect("unit sites cannot fail");
    assert_eq!(sol.lambda, reference.lambda);
    assert!(
        mcr_core::chaos::hits("core.driver.job") >= 3,
        "driver jobs must pulse their site"
    );
    assert!(mcr_core::chaos::hits("graph.scc.root") > 0);
}

#[cfg(feature = "obs")]
#[test]
fn faults_land_only_in_the_faulted_solves_own_report() {
    use mcr_core::obs::{Recorder, Timestamps};
    let _serial = serial();
    // Two rings (means 5 and 2), so the driver runs two jobs.
    let g = from_arc_list(4, &[(0, 1, 5), (1, 0, 5), (2, 3, 1), (3, 2, 3)]);
    // Every Howard-exact round fails (a fallible site); Karp answers
    // instead, and its attempt first resets the poisoned workspace (a
    // unit site). That is two faults per job.
    let _guard = FaultSchedule::new(7)
        .inject_always("core.howard.exact.improve", FaultKind::Overflow)
        .inject_always("core.workspace.reset", FaultKind::Overflow)
        .install();
    let (faulted, bystander) = (Recorder::new(), Recorder::new());
    let (sol, other) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            let opts = SolveOptions::new().recorder(faulted.clone());
            Algorithm::HowardExact.solve_with_options(&g, &opts)
        });
        // Karp alone reaches neither faulted site.
        let b = s.spawn(|| {
            let opts = SolveOptions::new()
                .fallback(FallbackChain::NONE)
                .recorder(bystander.clone());
            Algorithm::Karp.solve_with_options(&g, &opts)
        });
        (a.join().expect("no panic"), b.join().expect("no panic"))
    });
    let (sol, other) = (sol.expect("Karp answers"), other.expect("unfaulted"));
    assert_eq!((sol.lambda, other.lambda), (2.into(), 2.into()));
    assert_eq!(sol.solved_by, Algorithm::Karp);

    let report = faulted.report();
    let trace = report.trace_jsonl(Timestamps::Normalized);
    let faults = |site: &str| {
        let fields = format!("\"site\":\"{site}\",\"fault\":\"overflow\"}}");
        trace
            .lines()
            .filter(|l| l.contains("\"kind\":\"fault.injected\"") && l.ends_with(&fields))
            .count()
    };
    assert_eq!(faults("core.howard.exact.improve"), 2, "{trace}");
    assert_eq!(faults("core.workspace.reset"), 2, "{trace}");
    assert_eq!(report.counters.get("chaos.faults_injected"), Some(&4));
    assert_eq!(mcr_core::chaos::faults_fired(), 4);

    let report = bystander.report();
    assert!(report.events.iter().all(|e| e.kind != "fault.injected"));
    assert!(!report.counters.contains_key("chaos.faults_injected"));
}

// ---- incremental (dynamic) solver sites ---------------------------

/// A deterministic edit sequence for the dynamic-solver chaos tests:
/// touch one component, grow another, then shrink the arc list.
fn dynamic_edits() -> Vec<Vec<mcr_core::Edit>> {
    use mcr_core::Edit;
    vec![
        vec![Edit::Reweight { arc: 3, weight: -11 }],
        vec![
            Edit::InsertArc { src: 17, dst: 20, weight: -5, transit: 1 },
            Edit::Retime { arc: 40, transit: 2 },
        ],
        vec![Edit::DeleteArc { arc: 12 }],
    ]
}

fn dynamic_spec() -> mcr_core::spec::SolveSpec {
    mcr_core::spec::SolveSpec::mean(Algorithm::HowardExact)
}

#[test]
fn dynamic_apply_fault_falls_back_to_a_full_solve_with_the_answer_unchanged() {
    let _serial = serial();
    let g = multi_scc_graph();
    // Unfaulted replay first: the reference trajectory, incremental.
    let mut clean = mcr_core::DynamicSolver::new(&g, dynamic_spec(), SolveOptions::new());
    clean.solve().expect("reference initial solve");
    let reference: Vec<_> = dynamic_edits()
        .iter()
        .map(|batch| {
            let out = clean.apply(batch).expect("reference batch");
            let topology = batch
                .iter()
                .any(|e| matches!(e, mcr_core::Edit::InsertArc { .. } | mcr_core::Edit::DeleteArc { .. }));
            if topology {
                // Unfaulted, a topology batch reuses the untouched jobs.
                assert!(clean.rebuild_jobs().0 > 0, "reference topology batch reused no job");
            }
            out
        })
        .collect();
    for seed in seeds() {
        let mut faulted =
            mcr_core::DynamicSolver::new(&g, dynamic_spec(), SolveOptions::new());
        faulted.solve().expect("initial solve");
        let _guard = FaultSchedule::new(seed)
            .inject_always("core.dynamic.apply", FaultKind::Transient)
            .install();
        for (i, batch) in dynamic_edits().iter().enumerate() {
            let out = faulted.apply(batch).expect("faulted batch still answers");
            // The fault drops the component cache, so every batch is
            // answered by the full path — with identical content.
            assert_eq!(
                out.mode,
                mcr_core::SolveMode::Full,
                "seed={seed} batch={i}: apply fault must force the full path"
            );
            // ...and drops the state a topology batch keeps for reuse:
            // every job is extracted again.
            assert_eq!(
                faulted.rebuild_jobs().0,
                0,
                "seed={seed} batch={i}: a faulted rebuild must reuse no job"
            );
            let exp = reference[i].solution.as_ref().expect("cyclic");
            let got = out.solution.as_ref().expect("cyclic");
            assert_eq!(got.lambda, exp.lambda, "seed={seed} batch={i}");
            assert_eq!(got.cycle, exp.cycle, "seed={seed} batch={i}");
            assert_eq!(got.counters, exp.counters, "seed={seed} batch={i}");
            let current = faulted.current_graph();
            certify(got, &current)
                .unwrap_or_else(|e| panic!("seed={seed} batch={i}: certify: {e}"));
        }
        assert!(
            mcr_core::chaos::hits("core.dynamic.apply") > 0,
            "seed={seed}: the apply site must register its hits"
        );
    }
}

#[test]
fn dynamic_certify_fault_rejects_the_incremental_answer_and_resolves() {
    let _serial = serial();
    let g = multi_scc_graph();
    let mut clean = mcr_core::DynamicSolver::new(&g, dynamic_spec(), SolveOptions::new());
    clean.solve().expect("reference initial solve");
    let reference: Vec<_> = dynamic_edits()
        .iter()
        .map(|batch| {
            let out = clean.apply(batch).expect("reference batch");
            let topology = batch
                .iter()
                .any(|e| matches!(e, mcr_core::Edit::InsertArc { .. } | mcr_core::Edit::DeleteArc { .. }));
            if topology {
                // Unfaulted, a topology batch reuses the untouched jobs.
                assert!(clean.rebuild_jobs().0 > 0, "reference topology batch reused no job");
            }
            out
        })
        .collect();
    for seed in seeds() {
        let mut faulted =
            mcr_core::DynamicSolver::new(&g, dynamic_spec(), SolveOptions::new());
        faulted.solve().expect("initial solve");
        let _guard = FaultSchedule::new(seed)
            .inject_always("core.dynamic.certify", FaultKind::Transient)
            .install();
        for (i, batch) in dynamic_edits().iter().enumerate() {
            // The certification gate rejects the incremental answer;
            // the solver must re-answer from scratch, identically.
            let out = faulted.apply(batch).expect("rejected answers are re-solved");
            let exp = reference[i].solution.as_ref().expect("cyclic");
            let got = out.solution.as_ref().expect("cyclic");
            assert_eq!(got.lambda, exp.lambda, "seed={seed} batch={i}");
            assert_eq!(got.cycle, exp.cycle, "seed={seed} batch={i}");
            assert_eq!(got.counters, exp.counters, "seed={seed} batch={i}");
        }
        assert!(
            mcr_core::chaos::hits("core.dynamic.certify") > 0,
            "seed={seed}: the certify gate must register its hits"
        );
    }
}

#[test]
fn dynamic_rebuild_site_pulses_on_every_batch() {
    let _serial = serial();
    let g = multi_scc_graph();
    let _guard = FaultSchedule::new(0).install();
    let before = mcr_core::chaos::hits("core.dynamic.rebuild");
    let mut solver = mcr_core::DynamicSolver::new(&g, dynamic_spec(), SolveOptions::new());
    solver.solve().expect("initial solve");
    for batch in dynamic_edits() {
        solver.apply(&batch).expect("batch");
    }
    // One rebuild per solve: the initial one plus one per batch.
    assert_eq!(
        mcr_core::chaos::hits("core.dynamic.rebuild") - before,
        1 + dynamic_edits().len() as u64,
        "every dynamic solve must pulse the rebuild site"
    );
}
