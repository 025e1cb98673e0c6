//! Crash-recovery tests: a daemon is stopped with admitted-but-unsolved
//! work in its journal, and a second daemon over the same directory
//! must finish that work — including resuming a partial solve from its
//! `mcr-checkpoint v2` sidecar.
//!
//! Graceful stop and `kill -9` share one recovery path (the journal is
//! fsynced at admission, never flushed at exit), so these in-process
//! tests exercise the same code the CI serve stage drives with a real
//! `kill -9`.

use mcr_core::spec::solve_spec;
use mcr_core::{Budget, CheckpointStore, FallbackChain, SolveOptions, SolveSpec};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_serve::journal::{Journal, JOURNAL_FILE};
use mcr_serve::json::{self, Value};
use mcr_serve::{serve, ServeConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcr-serve-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn graph_text(n: usize, seed: u64) -> String {
    let g = sprand(&SprandConfig::new(n, 2 * n).seed(seed).weight_range(1, 100));
    let mut buf = Vec::new();
    mcr_graph::io::write_dimacs(&mut buf, &g).expect("write");
    String::from_utf8(buf).expect("utf8")
}

fn solve_req(id: u64, graph: &str) -> String {
    format!(
        "{{\"schema\":\"mcr-req v1\",\"id\":{id},\"op\":\"solve\",\
         \"graph\":\"{}\",\"algorithm\":\"howard-exact\"}}",
        json::escape(graph)
    )
}

fn start(workers: usize, dir: &Path) -> ServerHandle {
    serve(ServeConfig {
        workers,
        journal_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .expect("daemon starts")
}

/// Polls `probe` until it returns true or ~30s pass.
fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if probe() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for {what}");
}

/// Parsed `recovered` journal lines, in admission-id order. Several
/// workers finish recovered requests in any order, so write order is
/// not admission order.
fn recovered_lines(dir: &Path) -> Vec<Value> {
    let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap_or_default();
    let mut lines: Vec<Value> = text
        .lines()
        .filter_map(|l| json::parse(l).ok())
        .filter(|v| v.get("kind").and_then(Value::as_str) == Some("recovered"))
        .collect();
    lines.sort_by_key(|v| v.get("id").and_then(Value::as_u64));
    lines
}

fn field<'a>(v: &'a Value, name: &str) -> &'a str {
    v.get(name).and_then(Value::as_str).expect(name)
}

fn direct_lambda(graph: &str) -> String {
    let g = mcr_graph::io::read_dimacs(&mut graph.as_bytes()).expect("parse");
    solve_spec(
        &g,
        &SolveSpec::mean(mcr_core::Algorithm::HowardExact),
        &SolveOptions::new(),
    )
    .expect("solves")
    .expect("cyclic")
    .lambda
    .to_string()
}

#[test]
fn restart_finishes_work_the_stopped_daemon_admitted() {
    let dir = tmpdir("requeue");
    let g1 = graph_text(10, 1);
    let g2 = graph_text(12, 2);
    // Daemon A: zero workers, so both requests are admitted (and
    // journaled, fsynced) but never solved — the same state a `kill -9`
    // mid-queue leaves behind.
    let a = start(0, &dir);
    let lines = vec![solve_req(1, &g1), solve_req(2, &g2)];
    let mut sink = Vec::new();
    let report = mcr_serve::client::replay(&a.local_addr().to_string(), &lines, true, &mut sink)
        .expect("replay");
    assert_eq!(report.sent, 2);
    assert_eq!(report.received, 0, "--no-wait returns before any solve");
    wait_for("admissions journaled", || {
        a.metric("serve.requests.accepted") == Some(2)
    });
    a.shutdown();
    let journal_text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("journal");
    assert_eq!(journal_text.matches("\"kind\":\"accept\"").count(), 2);
    assert_eq!(journal_text.matches("\"kind\":\"done\"").count(), 0);
    // Daemon B over the same directory finishes the work; its clients
    // are gone, so completion lands in the journal as `recovered` lines
    // carrying the λ.
    let b = start(2, &dir);
    assert_eq!(b.metric("serve.journal.recovered"), Some(2));
    wait_for("recovered requests solved", || recovered_lines(&dir).len() == 2);
    let recovered = recovered_lines(&dir);
    for (line, graph) in [(&recovered[0], &g1), (&recovered[1], &g2)] {
        assert_eq!(field(line, "status"), "ok");
        assert_eq!(
            field(line, "lambda"),
            direct_lambda(graph),
            "recovered λ must match a fresh solve"
        );
    }
    b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_resumes_a_partial_solve_from_its_checkpoint() {
    let dir = tmpdir("resume");
    let graph = graph_text(24, 9);
    let g = mcr_graph::io::read_dimacs(&mut graph.as_bytes()).expect("parse");
    // Manufacture the state a crash mid-slice leaves: an admitted
    // request plus a genuine partial-progress checkpoint. The snapshot
    // comes from a real interrupted solve (one-iteration budget), not a
    // hand-written file — resume soundness is the point of the test.
    let store = CheckpointStore::new();
    let mut opts = SolveOptions::new().budget(Budget::UNLIMITED.max_iterations(1));
    opts.fallback = FallbackChain::NONE;
    opts.checkpoints = Some(store.clone());
    solve_spec(
        &g,
        &SolveSpec::mean(mcr_core::Algorithm::HowardExact),
        &opts,
    )
    .expect_err("one iteration must not converge on this instance");
    let snapshot = store.snapshot().to_text();
    assert!(snapshot.contains("mcr-checkpoint v2"), "{snapshot}");
    let a = start(0, &dir);
    let mut sink = Vec::new();
    mcr_serve::client::replay(
        &a.local_addr().to_string(),
        &[solve_req(5, &graph)],
        true,
        &mut sink,
    )
    .expect("replay");
    wait_for("admission journaled", || {
        a.metric("serve.requests.accepted") == Some(1)
    });
    a.shutdown();
    let journal = Journal::open(&dir).expect("open");
    journal.save_checkpoint(5, &snapshot).expect("plant ckpt");
    drop(journal);
    let b = start(1, &dir);
    assert_eq!(b.metric("serve.journal.recovered"), Some(1));
    wait_for("recovered solve finishes", || recovered_lines(&dir).len() == 1);
    assert_eq!(
        b.metric("serve.solve.resumed"),
        Some(1),
        "the solve must resume from the planted checkpoint, not restart"
    );
    let recovered = recovered_lines(&dir);
    assert_eq!(field(&recovered[0], "status"), "ok");
    assert_eq!(
        field(&recovered[0], "lambda"),
        direct_lambda(&graph),
        "resumed solve must reach the same λ as an uninterrupted one"
    );
    assert!(
        !dir.join("ckpt-5.txt").exists(),
        "checkpoint is consumed on completion"
    );
    b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn finished_journal_entries_are_not_rerun() {
    let dir = tmpdir("done");
    let graph = graph_text(8, 3);
    {
        let journal = Journal::open(&dir).expect("open");
        journal.accept(1, &solve_req(1, &graph)).expect("accept");
        journal
            .done(1, mcr_core::SolveStatus::Ok, None)
            .expect("done");
        journal.accept(2, &solve_req(2, &graph)).expect("accept");
    }
    let b = start(1, &dir);
    assert_eq!(
        b.metric("serve.journal.recovered"),
        Some(1),
        "only the unfinished entry is recovered"
    );
    wait_for("recovered solve finishes", || recovered_lines(&dir).len() == 1);
    let recovered = recovered_lines(&dir);
    assert_eq!(recovered[0].get("id").and_then(Value::as_u64), Some(2));
    b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_recovered_request_answered_from_the_store_drops_its_checkpoint() {
    let dir = tmpdir("stored");
    let graph = graph_text(24, 9);
    let g = mcr_graph::io::read_dimacs(&mut graph.as_bytes()).expect("parse");
    let store = CheckpointStore::new();
    let mut opts = SolveOptions::new().budget(Budget::UNLIMITED.max_iterations(1));
    opts.fallback = FallbackChain::NONE;
    opts.checkpoints = Some(store.clone());
    solve_spec(
        &g,
        &SolveSpec::mean(mcr_core::Algorithm::HowardExact),
        &opts,
    )
    .expect_err("one iteration must not converge on this instance");
    // Two admitted requests ask the same question; the second also left
    // a partial checkpoint behind.
    let a = start(0, &dir);
    let mut sink = Vec::new();
    mcr_serve::client::replay(
        &a.local_addr().to_string(),
        &[solve_req(5, &graph), solve_req(6, &graph)],
        true,
        &mut sink,
    )
    .expect("replay");
    wait_for("admissions journaled", || {
        a.metric("serve.requests.accepted") == Some(2)
    });
    a.shutdown();
    let journal = Journal::open(&dir).expect("open");
    journal
        .save_checkpoint(6, &store.snapshot().to_text())
        .expect("plant ckpt");
    drop(journal);
    // One worker settles 5 first (a fresh solve) and answers 6 from the
    // store, which must not leave 6's checkpoint for a later request
    // reusing the id to resume from.
    let b = start(1, &dir);
    wait_for("recovered requests settle", || {
        recovered_lines(&dir).len() == 2
    });
    assert_eq!(b.metric("serve.answer.miss"), Some(1));
    assert_eq!(b.metric("serve.answer.hit"), Some(1));
    assert_eq!(b.metric("serve.solve.resumed"), Some(0));
    for line in recovered_lines(&dir) {
        assert_eq!(field(&line, "status"), "ok");
        assert_eq!(field(&line, "lambda"), direct_lambda(&graph));
    }
    assert!(
        !dir.join("ckpt-6.txt").exists(),
        "the stored answer consumed the checkpoint"
    );
    b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
