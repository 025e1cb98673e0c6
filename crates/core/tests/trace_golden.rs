//! Golden snapshots of the `mcr-trace v1` observability output
//! (`--features obs` only): the normalized trace JSONL, metrics JSONL,
//! and `--summary` table of a fixed two-solve scenario are pinned
//! byte-for-byte, and must come out identical at 1, 2, and 8 worker
//! threads. A schema guard ties the goldens to `TRACE_SCHEMA_VERSION`
//! so any wire-format change is a deliberate, documented bump. Each
//! solve records into the recorder its options carry, so solves running
//! at the same time on other threads leave a report untouched.
//!
//! Regenerate after an intentional format change with:
//! `UPDATE_GOLDENS=1 cargo test -p mcr-core --features obs --test trace_golden`

#![cfg(feature = "obs")]

use mcr_core::checkpoint::CheckpointStore;
use mcr_core::obs::{Recorder, Report, Timestamps, TRACE_SCHEMA, TRACE_SCHEMA_VERSION};
use mcr_core::{Algorithm, Budget, FallbackChain, SolveOptions};
use mcr_graph::graph::from_arc_list;
use mcr_graph::{json, Graph};

/// Two cyclic SCCs (means 5 and 2) plus a connecting arc: the driver
/// runs two jobs, in canonical job order.
fn two_scc_graph() -> Graph {
    from_arc_list(
        5,
        &[(0, 1, 5), (1, 0, 5), (1, 2, 1), (2, 3, 1), (3, 4, 2), (4, 2, 3)],
    )
}

/// The clean solve of the scenario.
fn clean_solve(g: &Graph, threads: usize, recorder: &Recorder) {
    Algorithm::HowardExact
        .solve_with_options(g, &SolveOptions::new().threads(threads).recorder(recorder.clone()))
        .expect("cyclic");
}

/// The scenario's second solve: its primary exhausts a one-iteration
/// budget and falls back.
fn fallback_solve(g: &Graph, threads: usize, recorder: &Recorder) {
    let _ = Algorithm::Lawler.solve_with_options(
        g,
        &SolveOptions::new()
            .threads(threads)
            .budget(Budget::default().max_iterations(1))
            .fallback(FallbackChain::new(&[Algorithm::Karp]))
            .checkpoints(CheckpointStore::new())
            .recorder(recorder.clone()),
    );
}

/// The pinned scenario: one clean solve, then one solve that falls back
/// — covering solve, job, attempt, checkpoint.save, and fallback.hop
/// events — both recorded by one recorder (solve indices 0 and 1).
fn run_scenario(threads: usize) -> Report {
    let g = two_scc_graph();
    let recorder = Recorder::new();
    clean_solve(&g, threads, &recorder);
    fallback_solve(&g, threads, &recorder);
    recorder.report()
}

/// The normalized trace and metrics JSONL of `report`.
fn normalized(report: &Report) -> (String, String) {
    (
        report.trace_jsonl(Timestamps::Normalized),
        report.metrics_jsonl(Timestamps::Normalized),
    )
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

/// Compares `actual` against the committed golden, or rewrites the
/// golden when `UPDATE_GOLDENS` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().expect("goldens dir has a parent"))
            .expect("create goldens dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nregenerate with UPDATE_GOLDENS=1 \
             cargo test -p mcr-core --features obs --test trace_golden",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "{name} drifted from its golden; if the change is intentional, bump \
         TRACE_SCHEMA_VERSION when the wire format changed and regenerate with \
         UPDATE_GOLDENS=1 cargo test -p mcr-core --features obs --test trace_golden"
    );
}

/// The one field that legitimately varies with the worker count is the
/// `solve.start` event's own `"threads"` attribute; rewrite it to the
/// baseline's so everything else can be compared byte-for-byte.
fn pin_thread_field(trace: &str, threads: usize) -> String {
    trace.replace(
        &format!("\"threads\":{threads}}}"),
        "\"threads\":1}",
    )
}

#[test]
fn normalized_trace_matches_golden_at_every_thread_count() {
    let baseline = run_scenario(1).trace_jsonl(Timestamps::Normalized);
    assert_golden("trace_two_solves.jsonl", &baseline);
    for threads in [2usize, 8] {
        let trace = run_scenario(threads).trace_jsonl(Timestamps::Normalized);
        assert_eq!(
            pin_thread_field(&trace, threads),
            baseline,
            "normalized trace differs between 1 and {threads} threads"
        );
    }
}

#[test]
fn normalized_metrics_match_golden_at_every_thread_count() {
    let baseline = run_scenario(1).metrics_jsonl(Timestamps::Normalized);
    assert_golden("metrics_two_solves.jsonl", &baseline);
    for threads in [2usize, 8] {
        let metrics = run_scenario(threads).metrics_jsonl(Timestamps::Normalized);
        assert_eq!(
            metrics, baseline,
            "normalized metrics differ between 1 and {threads} threads"
        );
    }
}

#[test]
fn normalized_summary_matches_golden() {
    let summary = run_scenario(1).summary(Timestamps::Normalized);
    assert_golden("summary_two_solves.txt", &summary);
}

#[test]
fn concurrent_solves_each_keep_their_own_report() {
    // Each scenario solve alone, with its own recorder...
    let g = two_scc_graph();
    let alone = |solve: fn(&Graph, usize, &Recorder)| {
        let recorder = Recorder::new();
        solve(&g, 2, &recorder);
        normalized(&recorder.report())
    };
    let (clean, fallback) = (alone(clean_solve), alone(fallback_solve));
    // ...must report the same bytes when the two run at once on two
    // threads, each with its own recorder.
    for round in 0..20 {
        let (a, b) = (Recorder::new(), Recorder::new());
        std::thread::scope(|s| {
            s.spawn(|| clean_solve(&g, 2, &a));
            s.spawn(|| fallback_solve(&g, 2, &b));
        });
        assert_eq!(normalized(&a.report()), clean, "clean solve, round {round}");
        assert_eq!(normalized(&b.report()), fallback, "fallback solve, round {round}");
    }
}

#[test]
fn schema_version_bump_requires_regenerating_goldens() {
    // The goldens in tests/goldens/ encode wire format version 1. If
    // this assertion fails you changed the schema version: update the
    // `v<N>` suffix in TRACE_SCHEMA/METRICS_SCHEMA, regenerate the
    // goldens (UPDATE_GOLDENS=1, command in the module docs), describe
    // the migration in DESIGN.md ("Observability"), and only then bump
    // the number here.
    assert_eq!(
        TRACE_SCHEMA_VERSION, 1,
        "mcr-trace schema version changed — see this test's comment for the \
         required migration steps"
    );
    assert!(
        TRACE_SCHEMA.ends_with(&format!("v{TRACE_SCHEMA_VERSION}")),
        "TRACE_SCHEMA string and TRACE_SCHEMA_VERSION fell out of sync"
    );
    // Every golden line must carry the schema tag, so consumers can
    // reject files from a different version with a clear error.
    let trace = run_scenario(1).trace_jsonl(Timestamps::Normalized);
    for line in trace.lines() {
        assert!(
            line.contains(&format!("\"schema\":\"{TRACE_SCHEMA}\"")),
            "trace line missing schema tag: {line}"
        );
    }
}

/// The top-level object keys of one JSONL line, in order.
fn top_level_keys(line: &str) -> Vec<String> {
    match json::parse(line).expect("golden line is JSON") {
        json::Value::Obj(pairs) => pairs.into_iter().map(|(key, _)| key).collect(),
        other => panic!("golden line is not an object: {other:?}"),
    }
}

/// The committed `schemas/<name>` manifest's field set (workspace root
/// is two levels above this crate).
fn manifest_fields(name: &str) -> std::collections::BTreeSet<String> {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("schemas")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

#[test]
fn golden_jsonl_keys_are_declared_in_the_schema_manifests() {
    // The goldens and the schemas/ manifests describe the same wire
    // formats; mcr-lint (MCRL011) ties the manifests to the writer
    // code, and this test ties them to the actual emitted bytes. A key
    // in a golden line that the manifest does not declare means one of
    // the two is stale.
    for (golden, manifest) in [
        ("trace_two_solves.jsonl", "mcr-trace-v1.txt"),
        ("metrics_two_solves.jsonl", "mcr-metrics-v1.txt"),
    ] {
        let declared = manifest_fields(manifest);
        let text = std::fs::read_to_string(golden_path(golden)).expect("read golden");
        for (n, line) in text.lines().enumerate() {
            let keys = top_level_keys(line);
            assert!(!keys.is_empty(), "{golden}:{} has no keys", n + 1);
            for key in keys {
                assert!(
                    declared.contains(&key),
                    "{golden}:{} key `{key}` is not declared in schemas/{manifest}",
                    n + 1
                );
            }
        }
    }
}
