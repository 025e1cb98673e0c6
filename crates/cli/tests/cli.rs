//! End-to-end tests of the `mcr` command-line tool, driving the real
//! binary through pipes.

use std::io::Write;
use std::process::{Command, Stdio};

fn mcr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mcr"))
}

fn run_with_stdin(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = mcr()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mcr");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

const TRIANGLE: &str = "p mcr 3 4\na 1 2 2\na 2 3 4\na 3 1 3\na 2 1 10\n";

#[test]
fn solve_reads_stdin_and_reports_exact_lambda() {
    let (stdout, _, ok) = run_with_stdin(&["solve"], TRIANGLE);
    assert!(ok);
    assert!(stdout.contains("lambda = 3"), "{stdout}");
    assert!(stdout.contains("guarantee: exact"));
    assert!(stdout.contains("witness cycle (3 arcs)"));
}

#[test]
fn solve_with_each_algorithm_flag() {
    for name in [
        "burns",
        "burns-exact",
        "ko",
        "yto",
        "howard",
        "howard-exact",
        "ho",
        "karp",
        "karp2",
        "dg",
        "lawler",
        "lawler-exact",
        "oa1",
    ] {
        let (stdout, stderr, ok) = run_with_stdin(&["solve", "--algorithm", name], TRIANGLE);
        assert!(ok, "{name}: {stderr}");
        assert!(stdout.contains("lambda = 3"), "{name}: {stdout}");
    }
}

#[test]
fn solve_max_negates_properly() {
    let (stdout, _, ok) = run_with_stdin(&["solve", "--max"], TRIANGLE);
    assert!(ok);
    // Max mean cycle: 1->2->1 with (2+10)/2 = 6.
    assert!(stdout.contains("lambda = 6"), "{stdout}");
    assert!(stdout.contains("maximum cycle mean"));
}

#[test]
fn solve_ratio_uses_transit_times() {
    let input = "p mcr 2 2\na 1 2 4 1\na 2 1 6 3\n";
    let (stdout, _, ok) = run_with_stdin(&["solve", "--ratio"], input);
    assert!(ok);
    assert!(stdout.contains("lambda = 5/2"), "{stdout}");
}

#[test]
fn solve_rejects_zero_transit_cycles_in_ratio_mode() {
    let input = "p mcr 2 2\na 1 2 4 0\na 2 1 6 0\n";
    let (_, stderr, ok) = run_with_stdin(&["solve", "--ratio"], input);
    assert!(!ok);
    assert!(stderr.contains("zero total transit time"), "{stderr}");
}

#[test]
fn solve_critical_and_counters_flags() {
    let (stdout, _, ok) =
        run_with_stdin(&["solve", "--critical", "--counters"], TRIANGLE);
    assert!(ok);
    assert!(stdout.contains("critical arcs"));
    assert!(stdout.contains("counters:"));
}

#[test]
fn unknown_algorithm_is_a_clean_error() {
    let (_, stderr, ok) = run_with_stdin(&["solve", "--algorithm", "dijkstra"], TRIANGLE);
    assert!(!ok);
    assert!(stderr.contains("unknown algorithm"));
}

#[test]
fn unknown_flag_is_a_usage_error_naming_the_flag() {
    // A misspelled option must not run the solve with a default.
    for bad in ["--algoritm", "--sweep"] {
        let mut child = mcr()
            .args(["solve", "-", bad, "karp"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn mcr");
        // The parser may exit before reading stdin; a closed pipe is fine.
        let _ = child
            .stdin
            .as_mut()
            .expect("stdin piped")
            .write_all(TRIANGLE.as_bytes());
        let out = child.wait_with_output().expect("wait");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bad}: {stderr}");
        assert!(out.stdout.is_empty(), "{bad}: a solve ran");
        assert!(stderr.contains(&format!("unknown flag `{bad}`")), "{stderr}");
    }
}

#[test]
fn karp_family_past_the_table_range_exits_cleanly() {
    // 3 · 2^60 reaches the Karp table's "unreached" sentinel. Alone the
    // solver must refuse with a typed overflow (exit 1); with the default
    // chain Howard-exact answers. Neither may panic (exit 101).
    let w = 1u64 << 60;
    let input = format!("p mcr 3 4\na 1 2 {w}\na 2 3 {w}\na 3 1 {w}\na 2 1 {w}\n");
    for alg in ["karp", "karp2", "dg", "ho"] {
        for (fallback, code) in [(None, 0), (Some("none"), 1)] {
            let mut args = vec!["solve", "-", "--algorithm", alg];
            args.extend(fallback.iter().flat_map(|f| ["--fallback", f]));
            let mut child = mcr()
                .args(&args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn mcr");
            child
                .stdin
                .as_mut()
                .expect("stdin piped")
                .write_all(input.as_bytes())
                .expect("write stdin");
            let out = child.wait_with_output().expect("wait");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(code), "{args:?}: {stdout}{stderr}");
            if code == 0 {
                assert!(stdout.contains("Howard-exact answered instead"), "{stdout}");
                assert!(stdout.contains(&format!("lambda = {w}")), "{stdout}");
                assert!(stdout.contains("certificate"), "{stdout}");
            } else {
                assert!(stderr.contains("overflow"), "{stderr}");
            }
        }
    }
}

#[test]
fn malformed_input_is_a_clean_error() {
    let (_, stderr, ok) = run_with_stdin(&["solve"], "p mcr nonsense\n");
    assert!(!ok);
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn gen_sprand_pipes_into_solve() {
    let out = mcr()
        .args(["gen", "sprand", "30", "90", "--seed", "5"])
        .output()
        .expect("gen");
    assert!(out.status.success());
    let dimacs = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(dimacs.starts_with("p mcr 30 90"));
    let (stdout, _, ok) = run_with_stdin(&["solve", "-"], &dimacs);
    assert!(ok);
    assert!(stdout.contains("lambda = "));
}

#[test]
fn gen_circuit_and_dot_output() {
    let out = mcr()
        .args(["gen", "circuit", "40", "--seed", "2"])
        .output()
        .expect("gen");
    assert!(out.status.success());
    let dimacs = String::from_utf8_lossy(&out.stdout).into_owned();
    let (dot, _, ok) = run_with_stdin(&["dot"], &dimacs);
    assert!(ok);
    assert!(dot.starts_with("digraph"));
    assert!(dot.contains("->"));
}

#[test]
fn gen_with_transit_range_produces_ratio_instances() {
    let out = mcr()
        .args(["gen", "sprand", "10", "20", "--tmin", "1", "--tmax", "5"])
        .output()
        .expect("gen");
    assert!(out.status.success());
    let dimacs = String::from_utf8_lossy(&out.stdout).into_owned();
    // 5-field arc lines include transit times.
    let arc_line = dimacs.lines().find(|l| l.starts_with('a')).expect("arcs");
    assert_eq!(arc_line.split_whitespace().count(), 5, "{arc_line}");
}

#[test]
fn acyclic_graph_reports_no_cycle() {
    let input = "p mcr 2 1\na 1 2 5\n";
    let (stdout, _, ok) = run_with_stdin(&["solve"], input);
    assert!(ok);
    assert!(stdout.contains("acyclic"));
}

#[test]
fn bench_runs_every_algorithm() {
    let (stdout, stderr, ok) = run_with_stdin(&["bench"], TRIANGLE);
    assert!(ok, "{stderr}");
    for name in ["Howard", "Karp", "YTO", "Lawler", "Megiddo"] {
        assert!(stdout.contains(name), "missing {name}: {stdout}");
    }
}

#[test]
fn no_subcommand_prints_usage() {
    let (_, stderr, ok) = run_with_stdin(&[], "");
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn gen_requests_emits_a_deterministic_request_log() {
    let a = mcr()
        .args(["gen", "requests", "6", "--seed", "3"])
        .output()
        .expect("gen requests");
    assert!(a.status.success());
    let b = mcr()
        .args(["gen", "requests", "6", "--seed", "3"])
        .output()
        .expect("gen requests");
    assert_eq!(a.stdout, b.stdout, "same seed, same log");
    let log = String::from_utf8_lossy(&a.stdout).into_owned();
    assert_eq!(log.lines().count(), 6);
    for line in log.lines() {
        assert!(line.contains("\"schema\":\"mcr-req v1\""), "{line}");
    }
}

/// Starts an in-process daemon and returns (handle, addr string).
fn daemon() -> (mcr_serve::ServerHandle, String) {
    let handle = mcr_serve::serve(mcr_serve::ServeConfig::default()).expect("daemon");
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

#[test]
fn client_replays_a_request_log_against_a_live_daemon() {
    let (handle, addr) = daemon();
    let log = mcr()
        .args(["gen", "requests", "6", "--seed", "5"])
        .output()
        .expect("gen requests");
    let path = std::env::temp_dir().join(format!("mcr-cli-replay-{}.jsonl", std::process::id()));
    std::fs::write(&path, &log.stdout).expect("write log");
    let out = mcr()
        .args(["client", "--addr", &addr, "--replay", path.to_str().expect("utf8 path")])
        .output()
        .expect("client");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(stdout.lines().count(), 6, "one response line per request");
    for line in stdout.lines() {
        assert!(line.contains("\"schema\":\"mcr-resp v1\""), "{line}");
    }
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.contains("sent=6 received=6"), "{stderr}");
    // The generator's deterministic failure tail surfaces as data.
    assert!(stderr.contains("cancelled=1"), "{stderr}");
    assert!(stderr.contains("budget-exhausted=1"), "{stderr}");
    let _ = std::fs::remove_file(&path);
    handle.shutdown();
}

#[test]
fn client_no_wait_sends_without_collecting_responses() {
    let (handle, addr) = daemon();
    let log = mcr()
        .args(["gen", "requests", "4", "--seed", "8"])
        .output()
        .expect("gen requests");
    let path = std::env::temp_dir().join(format!("mcr-cli-nowait-{}.jsonl", std::process::id()));
    std::fs::write(&path, &log.stdout).expect("write log");
    let out = mcr()
        .args(["client", "--addr", &addr, "--replay", path.to_str().expect("utf8 path"), "--no-wait"])
        .output()
        .expect("client");
    assert!(out.status.success());
    assert!(out.stdout.is_empty(), "--no-wait prints no responses");
    assert!(String::from_utf8_lossy(&out.stderr).contains("sent=4 received=0"));
    let _ = std::fs::remove_file(&path);
    handle.shutdown();
}

#[test]
fn client_single_ops_ping_and_shutdown() {
    let (handle, addr) = daemon();
    let out = mcr()
        .args(["client", "--addr", &addr, "--op", "ping"])
        .output()
        .expect("client ping");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"pong\":true"));
    let out = mcr()
        .args(["client", "--addr", &addr, "--op", "metrics"])
        .output()
        .expect("client metrics");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("mcr-metrics v1"));
    let out = mcr()
        .args(["client", "--addr", &addr, "--op", "shutdown"])
        .output()
        .expect("client shutdown");
    assert!(out.status.success());
    let dump = handle.wait();
    assert!(dump.contains("serve.requests.accepted"));
}

#[test]
fn client_without_addr_or_mode_is_a_usage_error() {
    let out = mcr().args(["client"]).output().expect("client");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: mcr client"));
}

#[test]
fn dynamic_rederives_the_default_precision_like_the_library() {
    use mcr_core::{
        render_edit_script, Algorithm, ArcSpec, DynamicSolver, Edit, EditScript, Guarantee,
        SolveOptions, SolveSpec,
    };
    // Two rings; the second holds the heaviest arc (weight 30). Raising
    // it to 30000 widens the weight range, and with it the default
    // precision an approximate route reads, so every job re-keys.
    let ring = |base: usize, weights: [i64; 3]| {
        (0..3).map(move |i| ArcSpec {
            src: base + i,
            dst: base + (i + 1) % 3,
            weight: weights[i],
            transit: 1,
        })
    };
    let script = EditScript {
        nodes: 6,
        base_arcs: ring(0, [1, 2, 3]).chain(ring(3, [10, 20, 30])).collect(),
        batches: vec![
            vec![Edit::Reweight {
                arc: 5,
                weight: 30_000,
            }],
            vec![Edit::Reweight { arc: 0, weight: 2 }],
        ],
        seed: 0,
    };
    let text = render_edit_script(&script);
    let (stdout, stderr, ok) = run_with_stdin(
        &[
            "dynamic",
            "--edits",
            "-",
            "--algorithm",
            "howard",
            "--threads",
            "1",
        ],
        &text,
    );
    assert!(ok, "{stderr}");
    let mut opts = SolveOptions::new().threads(1);
    opts.epsilon = None;
    let mut solver = DynamicSolver::new(
        &script.base_graph(),
        SolveSpec::mean(Algorithm::Howard),
        opts,
    );
    let mut outcomes = vec![solver.solve().expect("solves")];
    for batch in &script.batches {
        outcomes.push(solver.apply(batch).expect("applies"));
    }
    for (i, outcome) in outcomes.iter().enumerate() {
        let sol = outcome.solution.as_ref().expect("cyclic");
        let line = format!(
            "batch {i}: lambda = {} (~ {:.6}) [{}; {} cached, {} solved; topology {}]",
            sol.lambda,
            sol.lambda.to_f64(),
            outcome.mode.name(),
            outcome.cache_hits,
            outcome.cache_misses,
            outcome.topology.name()
        );
        assert!(stdout.contains(&line), "missing `{line}` in:\n{stdout}");
    }
    assert!(stdout.contains("whole-graph Tarjan runs: 1\n"), "{stdout}");
    assert_eq!(
        outcomes[1].cache_misses, 2,
        "the moved precision re-keys both rings"
    );
    let last = outcomes[2].solution.as_ref().expect("cyclic");
    let Guarantee::Epsilon(e) = last.guarantee else {
        panic!("howard is approximate");
    };
    assert!(
        stdout.contains(&format!("guarantee: within {e} of the optimum")),
        "{stdout}"
    );
}
