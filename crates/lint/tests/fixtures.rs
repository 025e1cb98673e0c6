//! End-to-end fixture tests: run the full workspace walker + rule set
//! over the miniature fake workspace in `tests/fixtures/ws/` and assert
//! the exact diagnostic set — rule IDs, file paths, line numbers, and
//! allowlist status. Any drift in the scanner or scope tables shows up
//! here as a precise diff.

use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

/// (rule, file, line, allowed) — the full expected report, in the
/// report's own sort order (file, line, rule).
const EXPECTED: [(&str, &str, u32, bool); 32] = [
    ("MCRL002", "crates/chaos/sites.txt", 3, false), // declared but never used
    ("MCRL001", "crates/core/src/algorithms/l1_bad.rs", 1, false), // no ticks
    ("MCRL006", "crates/core/src/algorithms/l1_bad.rs", 9, false), // ticks, no loop_metrics
    ("MCRL001", "crates/core/src/algorithms/l1_bad.rs", 25, true), // allowlisted
    ("MCRL006", "crates/core/src/algorithms/l1_bad.rs", 42, true), // allowlisted
    ("MCRL003", "crates/core/src/float_bad.rs", 2, false), // a == 0.0
    ("MCRL003", "crates/core/src/float_bad.rs", 3, false), // (n as f64) != a
    ("MCRL004", "crates/core/src/float_bad.rs", 6, false), // n as u32
    ("MCRL003", "crates/core/src/float_bad.rs", 8, true),  // allowlisted
    ("MCRL004", "crates/core/src/float_bad.rs", 10, true), // allowlisted
    ("MCRL000", "crates/core/src/float_bad.rs", 12, false), // allow without reason
    ("MCRL005", "crates/core/src/ratio.rs", 2, false), // .unwrap()
    ("MCRL005", "crates/core/src/ratio.rs", 3, false), // v[0]
    ("MCRL005", "crates/core/src/ratio.rs", 5, true),  // v[1], allowlisted
    ("MCRL002", "crates/core/src/ratio.rs", 7, false), // undeclared site use
    ("MCRL005", "crates/core/src/ratio.rs", 17, false), // self[0]; `for [u64]` on 16 and `&'a [u64]` on 13 are clean
    ("MCRL013", "crates/core/src/status.rs", 17, false), // wire_name hides Failed behind `_`
    ("MCRL010", "crates/obs/src/emit_bad.rs", 2, false), // Instant::now in obs
    ("MCRL008", "crates/serve/src/guard.rs", 1, false), // guard module lost MAX_FRAME_LEN
    ("MCRL008", "crates/serve/src/handlers_bad.rs", 1, false), // unguarded handler
    ("MCRL008", "crates/serve/src/handlers_bad.rs", 6, true), // allowlisted
    ("MCRL014", "crates/serve/src/locks_bad.rs", 3, false), // queue taken under inflight
    ("MCRL014", "crates/serve/src/locks_bad.rs", 9, true), // allowlisted
    ("MCRL014", "crates/serve/src/locks_bad.rs", 19, false), // `let` binds the guard
    ("MCRL014", "crates/serve/src/locks_bad.rs", 24, false), // bound after unwrap()
    ("MCRL014", "crates/serve/src/locks_bad.rs", 29, false), // bound inside Some(..)
    ("MCRL010", "crates/serve/src/nondet_bad.rs", 1, false), // HashMap import in serve
    ("MCRL010", "crates/serve/src/nondet_bad.rs", 4, true), // allowlisted
    ("MCRL011", "crates/serve/src/protocol.rs", 11, false), // undeclared bogus_field
    ("MCRL009", "crates/serve/src/retry_bad.rs", 1, false), // unbounded connect loop
    ("MCRL009", "crates/serve/src/retry_bad.rs", 10, true), // allowlisted
    ("MCRL011", "schemas/mcr-resp-v1.txt", 5, false), // stale manifest entry
];

#[test]
fn fixture_workspace_produces_the_exact_diagnostic_set() {
    let report = mcr_lint::run_workspace(&fixture_root()).expect("fixture run");
    let got: Vec<(&str, &str, u32, bool)> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.file.as_str(), d.line, d.allowed))
        .collect();
    assert_eq!(
        got,
        EXPECTED.to_vec(),
        "diagnostic set drifted; full report:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| format!(
                "  {} {}:{} allowed={} {}",
                d.rule, d.file, d.line, d.allowed, d.message
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn fixture_counts_and_gate_semantics() {
    let report = mcr_lint::run_workspace(&fixture_root()).expect("fixture run");
    assert_eq!(report.files_scanned, 11);
    assert_eq!(report.violation_count(), 23);
    assert_eq!(report.suppressed_count(), 9);
    // Allowlisted findings never appear in the gating iterator.
    assert!(report.violations().all(|d| !d.allowed));
}

#[test]
fn fixture_test_code_is_exempt_from_panic_rules() {
    let report = mcr_lint::run_workspace(&fixture_root()).expect("fixture run");
    // ratio.rs line 25 has an unwrap inside `#[cfg(test)]` (line 20
    // on) — it must not be reported at all (not even as an allowed
    // finding).
    assert!(!report
        .diagnostics
        .iter()
        .any(|d| d.file.ends_with("ratio.rs") && d.line >= 20));
}

#[test]
fn json_report_round_trips_the_key_fields() {
    let report = mcr_lint::run_workspace(&fixture_root()).expect("fixture run");
    let json = mcr_lint::to_json(&report);
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"files_scanned\":11"));
    assert!(json.contains("\"violations\":23"));
    assert!(json.contains("\"suppressed\":9"));
    for (rule, file, line, allowed) in EXPECTED {
        assert!(
            json.contains(&format!(
                "{{\"rule\":\"{rule}\",\"file\":\"{file}\",\"line\":{line},\"allowed\":{allowed}"
            )),
            "missing {rule} {file}:{line} in JSON:\n{json}"
        );
    }
}

#[test]
fn missing_manifest_is_a_hard_error_not_a_panic() {
    let Err(err) = mcr_lint::run_workspace(&fixture_root().join("crates")) else {
        panic!("expected an error: no crates/ under crates/chaos");
    };
    assert!(err.contains("failed to"), "unexpected error text: {err}");
}
