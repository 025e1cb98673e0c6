//! Checkpoint/resume end-to-end: a solve interrupted by its budget and
//! resumed from a [`CheckpointStore`] must reach a **bit-identical**
//! result to an uninterrupted solve — same lambda, same witness cycle,
//! same guarantee, same answering algorithm — at 1, 2, and 8 worker
//! threads. Checkpoints are keyed by job index (Tarjan extraction
//! order), which is independent of the thread count, so a store written
//! at one thread count resumes correctly at any other.

use mcr_core::{
    Algorithm, Budget, Checkpoint, CheckpointStore, FallbackChain, Solution, SolveError,
    SolveOptions,
};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_graph::graph::from_arc_list;
use mcr_graph::Graph;

/// Several nontrivial strongly connected components in one graph, so
/// multi-threaded runs genuinely schedule multiple jobs.
fn multi_scc_graph() -> Graph {
    let parts: Vec<Graph> = (0..3)
        .map(|seed| {
            sprand(
                &SprandConfig::new(24, 72)
                    .seed(0xC0FFEE + seed)
                    .weight_range(-60, 60),
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

fn assert_bit_identical(resumed: &Solution, reference: &Solution, context: &str) {
    assert_eq!(resumed.lambda, reference.lambda, "{context}: lambda");
    assert_eq!(resumed.cycle, reference.cycle, "{context}: witness cycle");
    assert_eq!(resumed.guarantee, reference.guarantee, "{context}: guarantee");
    assert_eq!(
        resumed.solved_by, reference.solved_by,
        "{context}: solved_by"
    );
}

/// Interrupt `alg` with `tight` (which must exhaust on this graph),
/// then resume unlimited from the same store and compare against the
/// uninterrupted reference. Returns the resumed solution.
fn interrupt_then_resume(
    g: &Graph,
    alg: Algorithm,
    tight: Budget,
    threads: usize,
    reference: &Solution,
) -> Solution {
    let store = CheckpointStore::new();
    let interrupted = alg.solve_with_options(
        g,
        &SolveOptions::new()
            .threads(threads)
            .budget(tight)
            .fallback(FallbackChain::NONE)
            .checkpoints(store.clone()),
    );
    let err = interrupted.expect_err("tight budget must interrupt the solve");
    assert!(
        matches!(err, SolveError::BudgetExhausted { .. }),
        "{} threads={threads}: {err}",
        alg.name()
    );
    assert!(
        !store.is_empty(),
        "{} threads={threads}: interruption saved no progress",
        alg.name()
    );

    let resumed = alg
        .solve_with_options(
            g,
            &SolveOptions::new()
                .threads(threads)
                .fallback(FallbackChain::NONE)
                .checkpoints(store.clone()),
        )
        .expect("unlimited resume finishes");
    assert_bit_identical(
        &resumed,
        reference,
        &format!("{} threads={threads}", alg.name()),
    );
    assert!(
        store.is_empty(),
        "{} threads={threads}: successful jobs must clear their checkpoints",
        alg.name()
    );
    resumed
}

#[test]
fn howard_exact_resumes_bit_identically_at_1_2_8_threads() {
    let g = multi_scc_graph();
    let reference = Algorithm::HowardExact
        .solve_with_options(&g, &SolveOptions::new().fallback(FallbackChain::NONE))
        .expect("cyclic");
    assert!(
        reference.counters.iterations >= 6,
        "instance too easy to demonstrate resumption ({} iterations)",
        reference.counters.iterations
    );
    for threads in [1, 2, 8] {
        let resumed = interrupt_then_resume(
            &g,
            Algorithm::HowardExact,
            Budget::default().max_iterations(1),
            threads,
            &reference,
        );
        // Fewer iterations than the reference proves the resumed run
        // continued from the saved policy instead of starting over.
        assert!(
            resumed.counters.iterations < reference.counters.iterations,
            "threads={threads}: resume did not reuse saved progress \
             ({} vs {} iterations)",
            resumed.counters.iterations,
            reference.counters.iterations
        );
    }
}

#[test]
fn howard_fig1_resumes_bit_identically() {
    let g = multi_scc_graph();
    let reference = Algorithm::Howard
        .solve_with_options(&g, &SolveOptions::new().fallback(FallbackChain::NONE))
        .expect("cyclic");
    for threads in [1, 2, 8] {
        interrupt_then_resume(
            &g,
            Algorithm::Howard,
            Budget::default().max_iterations(1),
            threads,
            &reference,
        );
    }
}

#[test]
fn lawler_exact_resumes_the_bisection_interval() {
    let g = multi_scc_graph();
    let reference = Algorithm::LawlerExact
        .solve_with_options(&g, &SolveOptions::new().fallback(FallbackChain::NONE))
        .expect("cyclic");
    for threads in [1, 2, 8] {
        let resumed = interrupt_then_resume(
            &g,
            Algorithm::LawlerExact,
            Budget::default().max_lambda_refinements(3),
            threads,
            &reference,
        );
        assert!(
            resumed.counters.iterations < reference.counters.iterations,
            "threads={threads}: bisection restarted instead of resuming"
        );
    }
}

#[test]
fn lawler_eps_resumes_bit_identically() {
    let g = multi_scc_graph();
    let reference = Algorithm::Lawler
        .solve_with_options(&g, &SolveOptions::new().fallback(FallbackChain::NONE))
        .expect("cyclic");
    for threads in [1, 2, 8] {
        interrupt_then_resume(
            &g,
            Algorithm::Lawler,
            Budget::default().max_lambda_refinements(3),
            threads,
            &reference,
        );
    }
}

#[test]
fn store_written_at_one_thread_count_resumes_at_another() {
    let g = multi_scc_graph();
    let reference = Algorithm::HowardExact
        .solve_with_options(&g, &SolveOptions::new().fallback(FallbackChain::NONE))
        .expect("cyclic");
    // Interrupt at 8 threads, resume at 1 (and the reverse): job keys
    // come from the SCC extraction order, not the schedule.
    for (interrupt_threads, resume_threads) in [(8, 1), (1, 8)] {
        let store = CheckpointStore::new();
        Algorithm::HowardExact
            .solve_with_options(
                &g,
                &SolveOptions::new()
                    .threads(interrupt_threads)
                    .budget(Budget::default().max_iterations(1))
                    .fallback(FallbackChain::NONE)
                    .checkpoints(store.clone()),
            )
            .expect_err("tight budget interrupts");
        let resumed = Algorithm::HowardExact
            .solve_with_options(
                &g,
                &SolveOptions::new()
                    .threads(resume_threads)
                    .fallback(FallbackChain::NONE)
                    .checkpoints(store),
            )
            .expect("resume finishes");
        assert_bit_identical(
            &resumed,
            &reference,
            &format!("interrupt@{interrupt_threads} resume@{resume_threads}"),
        );
    }
}

#[test]
fn checkpoints_survive_a_text_round_trip() {
    let g = multi_scc_graph();
    let reference = Algorithm::HowardExact
        .solve_with_options(&g, &SolveOptions::new().fallback(FallbackChain::NONE))
        .expect("cyclic");
    let store = CheckpointStore::new();
    Algorithm::HowardExact
        .solve_with_options(
            &g,
            &SolveOptions::new()
                .budget(Budget::default().max_iterations(1))
                .fallback(FallbackChain::NONE)
                .checkpoints(store.clone()),
        )
        .expect_err("tight budget interrupts");

    // Persist to the text format and reload into a fresh store, as a
    // process restart would.
    let text = store.snapshot().to_text();
    let reloaded = Checkpoint::from_text(&text).expect("own output parses");
    let resumed = Algorithm::HowardExact
        .solve_with_options(
            &g,
            &SolveOptions::new()
                .fallback(FallbackChain::NONE)
                .checkpoints(CheckpointStore::from_checkpoint(reloaded)),
        )
        .expect("resume from reloaded store finishes");
    assert_bit_identical(&resumed, &reference, "text round trip");
}

#[test]
fn stale_checkpoint_for_a_different_graph_is_ignored() {
    let g = multi_scc_graph();
    let other = from_arc_list(2, &[(0, 1, 1), (1, 0, 9)]);
    let reference = Algorithm::HowardExact
        .solve_with_options(&g, &SolveOptions::new().fallback(FallbackChain::NONE))
        .expect("cyclic");
    // Write checkpoints against a tiny unrelated graph, then resume the
    // big one with them: validation must reject the stale policy and
    // solve fresh, still reaching the reference answer.
    let store = CheckpointStore::new();
    Algorithm::HowardExact
        .solve_with_options(
            &other,
            &SolveOptions::new()
                .budget(Budget::default().max_iterations(0))
                .fallback(FallbackChain::NONE)
                .checkpoints(store.clone()),
        )
        .expect_err("zero budget interrupts");
    let resumed = Algorithm::HowardExact
        .solve_with_options(
            &g,
            &SolveOptions::new()
                .fallback(FallbackChain::NONE)
                .checkpoints(store),
        )
        .expect("stale checkpoints must not break the solve");
    assert_bit_identical(&resumed, &reference, "stale store");
}
