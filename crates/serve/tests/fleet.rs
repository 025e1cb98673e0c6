//! Fleet resilience tests: the sharded client against real daemons.
//!
//! The centerpiece is the kill-drill: two shards, one `kill -9`ed
//! mid-replay, and every request must still settle exactly once with
//! its deterministic status. The victim runs with `--workers 0` so it
//! admits and journals but never solves — any `done` line in its
//! journal would be a duplicate solve, so "zero done lines" is the
//! machine-checkable no-duplicates proof.

use mcr_gen::requests::{request_log, RequestLogConfig};
use mcr_serve::client::{fleet_replay, FleetConfig};
use mcr_serve::json::{self, Value};
use mcr_serve::shard::ShardMap;
use mcr_serve::{serve, ServeConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn log_lines(count: usize, seed: u64) -> Vec<String> {
    request_log(&RequestLogConfig::new(count).seed(seed))
        .lines()
        .map(String::from)
        .collect()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcr-serve-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

fn by_status(report: &mcr_serve::client::FleetReport) -> BTreeMap<&str, usize> {
    report
        .by_status
        .iter()
        .map(|(s, n)| (s.as_str(), *n))
        .collect()
}

/// `done` entry ids in a shard's journal, in write order.
fn done_ids(journal_dir: &Path) -> Vec<u64> {
    let text = std::fs::read_to_string(journal_dir.join(mcr_serve::journal::JOURNAL_FILE))
        .unwrap_or_default();
    text.lines()
        .filter_map(|line| {
            let v = json::parse(line).ok()?;
            if v.get("kind").and_then(Value::as_str) != Some("done") {
                return None;
            }
            v.get("id").and_then(Value::as_u64)
        })
        .collect()
}

/// An `mcrd` subprocess that is SIGKILLed when dropped, so a failing
/// assertion never leaks a daemon.
struct VictimDaemon {
    child: Arc<Mutex<Option<Child>>>,
    addr: String,
}

impl VictimDaemon {
    /// Spawns `mcrd --workers 0` on an ephemeral port and scrapes the
    /// bound address from its startup banner.
    fn spawn(journal_dir: &Path) -> VictimDaemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mcrd"))
            .args(["--listen", "127.0.0.1:0", "--workers", "0", "--journal-dir"])
            .arg(journal_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn mcrd victim");
        let stdout = child.stdout.take().expect("victim stdout");
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .expect("victim banner");
        let addr = banner
            .trim()
            .strip_prefix("mcrd listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .to_string();
        VictimDaemon {
            child: Arc::new(Mutex::new(Some(child))),
            addr,
        }
    }

    /// SIGKILL — the crash under test, not a graceful stop.
    fn kill(child: &Mutex<Option<Child>>) {
        if let Some(mut child) = child.lock().expect("victim lock").take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for VictimDaemon {
    fn drop(&mut self) {
        VictimDaemon::kill(&self.child);
    }
}

/// The kill-drill: the victim shard is SIGKILLed mid-replay; the fleet
/// client fails over and settles all 12 requests with the generator's
/// deterministic statuses. The victim journal must hold zero `done`
/// lines (it never solves), the survivor exactly one per id.
#[test]
fn kill_minus_nine_mid_replay_settles_every_request_exactly_once() {
    let base = tmpdir("drill");
    let victim_dir = base.join("victim");
    let survivor_dir = base.join("survivor");
    let victim = VictimDaemon::spawn(&victim_dir);
    let survivor = serve(ServeConfig {
        workers: 2,
        journal_dir: Some(survivor_dir.clone()),
        ..ServeConfig::default()
    })
    .expect("survivor starts");
    let spec = format!("{},{}", victim.addr, survivor.local_addr());
    let mut cfg = FleetConfig::new(ShardMap::parse(&spec).expect("two shards"));
    // A victim-routed request must fail over in ~1 s, not 30; two
    // refused connects open the victim's breaker so the rest of the
    // replay skips it without paying the connect attempt.
    cfg.response_timeout = Duration::from_millis(1_000);
    cfg.retry.max_attempts = 5;
    cfg.breaker_threshold = 2;
    cfg.breaker_cooldown = Duration::from_millis(400);
    let killer = {
        let child = Arc::clone(&victim.child);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            VictimDaemon::kill(&child);
        })
    };
    let lines = log_lines(12, 42);
    let mut out = Vec::new();
    let report = fleet_replay(&cfg, &lines, &mut out).expect("fleet replay");
    killer.join().expect("killer thread");
    assert_eq!(report.sent, 12);
    assert_eq!(report.settled, 12, "every request settles exactly once");
    let statuses = by_status(&report);
    assert_eq!(statuses.get("ok"), Some(&10), "{statuses:?}");
    assert_eq!(statuses.get("cancelled"), Some(&1));
    assert_eq!(statuses.get("budget-exhausted"), Some(&1));
    assert!(
        report.failovers >= 1,
        "some request must have been routed to the dead victim first"
    );
    // No duplicate solves: the victim admits but never solves, so its
    // journal must not contain a single settled outcome...
    assert_eq!(done_ids(&victim_dir), Vec::<u64>::new());
    // ...and the survivor settles each id exactly once. A worker sends
    // its response before it journals `done`, so stop the survivor (its
    // workers join) before reading the journal.
    survivor.shutdown();
    let mut survivor_done = done_ids(&survivor_dir);
    survivor_done.sort_unstable();
    assert_eq!(survivor_done, (1..=12).collect::<Vec<u64>>());
    let _ = std::fs::remove_dir_all(&base);
}

/// A shard that was never alive: every connect is refused, the breaker
/// opens, and the whole replay settles through the live shard.
#[test]
fn dead_endpoint_opens_the_breaker_and_the_ring_absorbs_it() {
    let base = tmpdir("dead");
    // Bind-then-drop reserves an address that now refuses connects.
    let dead_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").to_string()
    };
    let live = serve(ServeConfig {
        workers: 2,
        journal_dir: Some(base.join("live")),
        ..ServeConfig::default()
    })
    .expect("live shard starts");
    let spec = format!("{dead_addr},{}", live.local_addr());
    let mut cfg = FleetConfig::new(ShardMap::parse(&spec).expect("two shards"));
    cfg.breaker_threshold = 1;
    cfg.breaker_cooldown = Duration::from_secs(30); // stays open for the whole test
    let lines = log_lines(10, 7);
    let mut out = Vec::new();
    let report = fleet_replay(&cfg, &lines, &mut out).expect("fleet replay");
    assert_eq!(report.settled, 10);
    let statuses = by_status(&report);
    assert_eq!(statuses.get("ok"), Some(&8), "{statuses:?}");
    assert_eq!(statuses.get("cancelled"), Some(&1));
    assert_eq!(statuses.get("budget-exhausted"), Some(&1));
    assert!(report.failovers >= 1, "dead-routed requests fail over");
    assert!(report.breaker_opens >= 1, "the dead shard's breaker opens");
    live.shutdown();
    let _ = std::fs::remove_dir_all(&base);
}

/// The no-fault baseline: a healthy two-shard ring behaves exactly like
/// one daemon — no retries, no failovers, no breaker activity, and
/// between them the shards solve each id exactly once.
#[test]
fn clean_two_shard_replay_is_failure_free_and_exactly_once() {
    let base = tmpdir("clean");
    let dirs = [base.join("shard0"), base.join("shard1")];
    let handles: Vec<_> = dirs
        .iter()
        .map(|dir| {
            serve(ServeConfig {
                workers: 2,
                journal_dir: Some(dir.clone()),
                ..ServeConfig::default()
            })
            .expect("shard starts")
        })
        .collect();
    let spec = format!("{},{}", handles[0].local_addr(), handles[1].local_addr());
    let cfg = FleetConfig::new(ShardMap::parse(&spec).expect("two shards"));
    let lines = log_lines(10, 7);
    let mut out = Vec::new();
    let report = fleet_replay(&cfg, &lines, &mut out).expect("fleet replay");
    assert_eq!(report.settled, 10);
    let statuses = by_status(&report);
    assert_eq!(statuses.get("ok"), Some(&8), "{statuses:?}");
    assert_eq!(statuses.get("cancelled"), Some(&1));
    assert_eq!(statuses.get("budget-exhausted"), Some(&1));
    assert_eq!(report.retries, 0);
    assert_eq!(report.failovers, 0);
    assert_eq!(report.breaker_opens, 0);
    assert_eq!(report.deduped, 0);
    for handle in handles {
        handle.shutdown();
    }
    let mut all_done: Vec<u64> = dirs.iter().flat_map(|d| done_ids(d)).collect();
    all_done.sort_unstable();
    assert_eq!(
        all_done,
        (1..=10).collect::<Vec<u64>>(),
        "each id solved exactly once across the ring"
    );
    // And the routing really sharded: with ten distinct graphs both
    // shards must have seen work (hash split, not primary pinning).
    for dir in &dirs {
        assert!(!done_ids(dir).is_empty(), "one shard never saw a request");
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Duplicate suppression end to end: a re-send with `"dedup":true`
/// whose id already settled is answered from the journal (marked
/// `deduped`), not solved twice.
#[test]
fn dedup_resend_replays_the_settled_outcome() {
    let base = tmpdir("dedup");
    let handle = serve(ServeConfig {
        workers: 1,
        journal_dir: Some(base.clone()),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.local_addr().to_string();
    let lines = log_lines(4, 5);
    let solve = lines[0].clone();
    let mut out = Vec::new();
    mcr_serve::client::replay(&addr, std::slice::from_ref(&solve), false, &mut out).expect("first send");
    let first = json::parse(String::from_utf8(out).expect("utf8").trim()).expect("json");
    assert_eq!(first.get("status").and_then(Value::as_str), Some("ok"));
    let lambda = first
        .get("lambda")
        .and_then(Value::as_str)
        .expect("lambda")
        .to_string();
    // Same id again, flagged as a dedup re-send.
    let resend = format!(
        "{},\"dedup\":true}}",
        solve.strip_suffix('}').expect("object")
    );
    let mut out = Vec::new();
    mcr_serve::client::replay(&addr, &[resend], false, &mut out).expect("re-send");
    let second = json::parse(String::from_utf8(out).expect("utf8").trim()).expect("json");
    assert_eq!(second.get("deduped").and_then(Value::as_bool), Some(true));
    assert_eq!(second.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(
        second.get("lambda").and_then(Value::as_str),
        Some(lambda.as_str()),
        "the journaled λ is replayed verbatim"
    );
    assert_eq!(handle.metric("serve.dedup.settled"), Some(1));
    assert_eq!(done_ids(&base).len(), 1, "the duplicate never re-solved");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&base);
}

/// Graceful drain: a wire `shutdown` stops admissions but settles the
/// already-admitted queue before the daemon exits.
#[test]
fn wire_shutdown_drains_the_queue_before_exit() {
    let handle = serve(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.local_addr().to_string();
    let lines = log_lines(6, 9);
    // Pipeline six solves plus the shutdown on ONE connection: the
    // solves are all admitted (and queued behind the single worker)
    // before the drain begins, and all seven frames must be answered.
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    for line in &lines {
        mcr_serve::frame::write_frame(&mut writer, line.as_bytes()).expect("send");
    }
    let shutdown = "{\"schema\":\"mcr-req v1\",\"id\":99,\"op\":\"shutdown\"}";
    mcr_serve::frame::write_frame(&mut writer, shutdown.as_bytes()).expect("send shutdown");
    let mut reader = BufReader::new(stream);
    let mut statuses: BTreeMap<u64, String> = BTreeMap::new();
    let mut acked_shutdown = false;
    for _ in 0..7 {
        let payload = mcr_serve::frame::read_frame(&mut reader)
            .expect("read")
            .expect("response before close");
        let v = json::parse(std::str::from_utf8(&payload).expect("utf8")).expect("json");
        let id = v.get("id").and_then(Value::as_u64).expect("id");
        if id == 99 {
            assert_eq!(v.get("shutting_down").and_then(Value::as_bool), Some(true));
            acked_shutdown = true;
        } else {
            let status = v.get("status").and_then(Value::as_str).expect("status");
            statuses.insert(id, status.to_string());
        }
    }
    assert!(acked_shutdown);
    assert_eq!(statuses.len(), 6, "every queued solve settled: {statuses:?}");
    // The drain settles real work — the generator's tail statuses
    // arrive intact, nothing is shed retroactively.
    assert_eq!(
        statuses.values().filter(|s| s.as_str() == "ok").count(),
        4,
        "{statuses:?}"
    );
    let dump = handle.wait();
    assert!(dump.contains("serve.requests.accepted"));
}
