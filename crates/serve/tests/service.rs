//! In-process service tests: one daemon per test, raw protocol frames
//! over a real TCP socket.
//!
//! The load-bearing assertions: daemon responses are *bit-identical*
//! to direct [`mcr_core::spec::solve_spec`] calls, the cache provably
//! skips parse + SCC extraction (metrics counters, not vibes), and
//! every failure mode comes back as a typed status from the CLI's exit
//! taxonomy.

use mcr_core::spec::solve_spec;
use mcr_core::{SolveOptions, SolveSpec};
use mcr_gen::requests::{request_log, RequestLogConfig};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_serve::frame::{read_frame, write_frame};
use mcr_serve::json::{self, Value};
use mcr_serve::protocol;
use mcr_serve::{serve, ServeConfig, ServerHandle};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::time::Duration;

fn start(cfg: ServeConfig) -> ServerHandle {
    serve(cfg).expect("daemon starts")
}

fn quiet() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

/// One worker makes queue consumption strictly ordered, which the
/// cache-counter tests need: with two workers, two requests carrying
/// the same graph can both miss the cache and both parse.
fn serial() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

/// Sends every request over one connection and returns the responses
/// keyed by id (responses may interleave).
fn roundtrip(handle: &ServerHandle, requests: &[String]) -> BTreeMap<u64, Value> {
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    for r in requests {
        write_frame(&mut writer, r.as_bytes()).expect("send");
    }
    let mut reader = BufReader::new(stream);
    let mut out = BTreeMap::new();
    for _ in 0..requests.len() {
        let payload = read_frame(&mut reader)
            .expect("read")
            .expect("response frame");
        let v = json::parse(std::str::from_utf8(&payload).expect("utf8")).expect("json");
        let id = v.get("id").and_then(Value::as_u64).expect("id");
        out.insert(id, v);
    }
    out
}

fn graph_text(n: usize, seed: u64) -> String {
    let g = sprand(&SprandConfig::new(n, 2 * n).seed(seed).weight_range(1, 100));
    let mut buf = Vec::new();
    mcr_graph::io::write_dimacs(&mut buf, &g).expect("write");
    String::from_utf8(buf).expect("utf8")
}

fn solve_req(id: u64, graph: &str, extra: &str) -> String {
    format!(
        "{{\"schema\":\"mcr-req v1\",\"id\":{id},\"op\":\"solve\",\"graph\":\"{}\"{extra}}}",
        json::escape(graph)
    )
}

fn status_of(v: &Value) -> (&str, u64) {
    (
        v.get("status").and_then(Value::as_str).expect("status"),
        v.get("code").and_then(Value::as_u64).expect("code"),
    )
}

#[test]
fn ping_metrics_and_shutdown_ops_answer_typed() {
    let handle = start(quiet());
    let addr = handle.local_addr();
    let resp = roundtrip(
        &handle,
        &[
            "{\"schema\":\"mcr-req v1\",\"id\":1,\"op\":\"ping\"}".to_string(),
            "{\"schema\":\"mcr-req v1\",\"id\":2,\"op\":\"metrics\"}".to_string(),
        ],
    );
    assert_eq!(resp[&1].get("pong").and_then(Value::as_bool), Some(true));
    let dump = resp[&2]
        .get("metrics")
        .and_then(Value::as_str)
        .expect("metrics dump");
    assert!(dump.contains("serve.requests.accepted"), "{dump}");
    assert!(dump.contains("mcr-metrics v1"));
    // A shutdown op stops the daemon; wait() then returns.
    let resp = roundtrip(
        &handle,
        &["{\"schema\":\"mcr-req v1\",\"id\":3,\"op\":\"shutdown\"}".to_string()],
    );
    assert_eq!(
        resp[&3].get("shutting_down").and_then(Value::as_bool),
        Some(true)
    );
    let dump = handle.wait();
    assert!(dump.contains("serve.requests.accepted"));
    let _ = addr; // the listener thread is gone; the port is released
}

#[test]
fn solve_is_bit_identical_to_direct_solve_spec() {
    let text = graph_text(12, 3);
    let g = mcr_graph::io::read_dimacs(&mut text.as_bytes()).expect("parse");
    let handle = start(quiet());
    let resp = roundtrip(
        &handle,
        &[
            solve_req(1, &text, ",\"algorithm\":\"howard-exact\""),
            solve_req(2, &text, ",\"algorithm\":\"karp\""),
            solve_req(3, &text, ",\"algorithm\":\"lawler-exact\""),
            solve_req(4, &text, ",\"algorithm\":\"howard-exact\",\"maximize\":true"),
        ],
    );
    for (id, alg, maximize) in [
        (1u64, "howard-exact", false),
        (2, "karp", false),
        (3, "lawler-exact", false),
        (4, "howard-exact", true),
    ] {
        let v = &resp[&id];
        assert_eq!(status_of(v), ("ok", 0), "request {id}");
        let mut spec = SolveSpec::mean(mcr_core::Algorithm::by_name(alg).expect("alg"));
        if maximize {
            spec = spec.maximize();
        }
        let direct = solve_spec(&g, &spec, &SolveOptions::new())
            .expect("solves")
            .expect("cyclic");
        assert_eq!(
            v.get("lambda").and_then(Value::as_str),
            Some(direct.lambda.to_string().as_str()),
            "request {id}: daemon λ must be bit-identical to the CLI path"
        );
        assert_eq!(
            v.get("solved_by").and_then(Value::as_str),
            Some(direct.solved_by.name())
        );
    }
    handle.shutdown();
}

#[test]
fn cache_hits_skip_parse_and_scc_extraction() {
    let text = graph_text(10, 11);
    let hash = protocol::format_hash(mcr_serve::cache::fnv1a(&text));
    let handle = start(serial());
    // Same instance four ways: inline, inline again with another
    // algorithm and epsilon, and twice by hash alone.
    let resp = roundtrip(
        &handle,
        &[
            solve_req(1, &text, ",\"algorithm\":\"howard-exact\""),
            solve_req(2, &text, ",\"algorithm\":\"lawler\",\"epsilon\":1e-7"),
            format!(
                "{{\"schema\":\"mcr-req v1\",\"id\":3,\"op\":\"solve\",\
                 \"graph_hash\":\"{hash}\",\"algorithm\":\"karp\"}}"
            ),
            format!(
                "{{\"schema\":\"mcr-req v1\",\"id\":4,\"op\":\"solve\",\
                 \"graph_hash\":\"{hash}\",\"algorithm\":\"howard\",\"epsilon\":0.5}}"
            ),
        ],
    );
    for id in 1..=4u64 {
        assert_eq!(status_of(&resp[&id]).0, "ok", "request {id}");
        assert_eq!(
            resp[&id].get("graph_hash").and_then(Value::as_str),
            Some(hash.as_str())
        );
    }
    // The proof: one parse, one SCC plan build, three cache hits.
    assert_eq!(handle.metric("serve.graph.parse"), Some(1));
    assert_eq!(handle.metric("serve.plan.build"), Some(1));
    assert_eq!(handle.metric("serve.cache.hit"), Some(3));
    assert_eq!(handle.metric("serve.cache.miss"), Some(1));
    handle.shutdown();
}

#[test]
fn edit_op_mutates_the_cached_instance_and_invalidates_its_plans() {
    use mcr_core::{DynamicSolver, Edit};
    // The latent-stale-plan pin: a solve caches an SccPlan whose frozen
    // jobs carry pre-edit arc ids and weights. After an edit containing
    // a DeleteArc, a by-hash solve MUST rebuild the plan (plan_build
    // jumps) and answer for the mutated graph — and must not re-parse
    // (graph_parse stays put; the hash is a handle, not a digest).
    let text = graph_text(10, 17);
    let g = mcr_graph::io::read_dimacs(&mut text.as_bytes()).expect("parse");
    let hash = protocol::format_hash(mcr_serve::cache::fnv1a(&text));
    let edits = [
        Edit::Reweight { arc: 0, weight: 1 },
        Edit::DeleteArc { arc: 5 },
    ];
    let handle = start(serial());
    // Step 1: seed the cache and build the minimize plan.
    let resp = roundtrip(&handle, &[solve_req(1, &text, "")]);
    assert_eq!(status_of(&resp[&1]), ("ok", 0));
    assert_eq!(handle.metric("serve.plan.build"), Some(1));
    // Step 2: edit by hash alone — answered from the DynamicSolver.
    let edit_req = format!(
        "{{\"schema\":\"mcr-req v1\",\"id\":2,\"op\":\"edit\",\"graph_hash\":\"{hash}\",\
         \"edits\":[{{\"op\":\"reweight\",\"arc\":0,\"weight\":1}},\
         {{\"op\":\"delete\",\"arc\":5}}]}}"
    );
    let resp = roundtrip(&handle, &[edit_req]);
    assert_eq!(status_of(&resp[&2]), ("ok", 0));
    let mode = resp[&2].get("mode").and_then(Value::as_str).expect("mode");
    assert!(mode == "incremental" || mode == "full", "{mode}");
    // The same edits applied locally give the reference instance.
    let mut reference = DynamicSolver::new(
        &g,
        SolveSpec::mean(mcr_core::Algorithm::HowardExact),
        SolveOptions::new(),
    );
    reference.apply(&edits).expect("reference edit applies");
    let mutated = reference.current_graph();
    let direct = solve_spec(
        &mutated,
        &SolveSpec::mean(mcr_core::Algorithm::HowardExact),
        &SolveOptions::new(),
    )
    .expect("solves")
    .expect("still cyclic");
    assert_eq!(
        resp[&2].get("lambda").and_then(Value::as_str),
        Some(direct.lambda.to_string().as_str()),
        "edit answer must be bit-identical to a from-scratch solve of the mutated graph"
    );
    // Step 3: solve by hash — cache hit, NO re-parse, but the plan must
    // be rebuilt for the mutated graph (the stale-plan fix).
    let resp = roundtrip(
        &handle,
        &[format!(
            "{{\"schema\":\"mcr-req v1\",\"id\":3,\"op\":\"solve\",\"graph_hash\":\"{hash}\"}}"
        )],
    );
    assert_eq!(status_of(&resp[&3]), ("ok", 0));
    assert_eq!(
        resp[&3].get("lambda").and_then(Value::as_str),
        Some(direct.lambda.to_string().as_str()),
        "by-hash solve must see the mutated graph, not the pre-edit one"
    );
    // Step 4: a second batch reuses the persistent solver.
    let resp = roundtrip(
        &handle,
        &[format!(
            "{{\"schema\":\"mcr-req v1\",\"id\":4,\"op\":\"edit\",\"graph_hash\":\"{hash}\",\
             \"edits\":[{{\"op\":\"reweight\",\"arc\":1,\"weight\":50}}]}}"
        )],
    );
    assert_eq!(status_of(&resp[&4]), ("ok", 0));
    assert_eq!(handle.metric("serve.graph.parse"), Some(1), "never re-parsed");
    assert_eq!(
        handle.metric("serve.plan.build"),
        Some(2),
        "the post-edit solve rebuilt the plan instead of reusing a stale one"
    );
    assert_eq!(handle.metric("serve.edit.applied"), Some(2));
    assert_eq!(handle.metric("serve.cache.hit"), Some(3));
    assert_eq!(handle.metric("serve.cache.miss"), Some(1));
    handle.shutdown();
}

#[test]
fn cold_start_edit_with_inline_graph_seeds_the_cache_and_answers() {
    use mcr_core::{DynamicSolver, Edit};
    // Regression pin for a self-deadlock: on the cold-start edit path
    // (unknown hash, graph sent inline) the handler re-locked the cache
    // to insert the parsed graph while the `match` scrutinee still held
    // the peek guard. No prior solve here — the daemon's very first
    // request is an edit carrying the graph inline.
    let text = graph_text(8, 41);
    let g = mcr_graph::io::read_dimacs(&mut text.as_bytes()).expect("parse");
    let handle = start(serial());
    let req = format!(
        "{{\"schema\":\"mcr-req v1\",\"id\":1,\"op\":\"edit\",\"graph\":\"{}\",\
         \"edits\":[{{\"op\":\"reweight\",\"arc\":0,\"weight\":7}}]}}",
        json::escape(&text)
    );
    let resp = roundtrip(&handle, &[req]);
    assert_eq!(status_of(&resp[&1]), ("ok", 0));
    let mut reference = DynamicSolver::new(
        &g,
        SolveSpec::mean(mcr_core::Algorithm::HowardExact),
        SolveOptions::new(),
    );
    reference
        .apply(&[Edit::Reweight { arc: 0, weight: 7 }])
        .expect("reference edit applies");
    let direct = solve_spec(
        &reference.current_graph(),
        &SolveSpec::mean(mcr_core::Algorithm::HowardExact),
        &SolveOptions::new(),
    )
    .expect("solves")
    .expect("cyclic");
    assert_eq!(
        resp[&1].get("lambda").and_then(Value::as_str),
        Some(direct.lambda.to_string().as_str()),
        "cold-start edit answer must match a from-scratch solve of the edited graph"
    );
    // The inline graph was parsed once and now seeds the cache: a
    // by-hash solve hits without re-parsing.
    let hash = protocol::format_hash(mcr_serve::cache::fnv1a(&text));
    let resp = roundtrip(
        &handle,
        &[format!(
            "{{\"schema\":\"mcr-req v1\",\"id\":2,\"op\":\"solve\",\"graph_hash\":\"{hash}\"}}"
        )],
    );
    assert_eq!(status_of(&resp[&2]), ("ok", 0));
    assert_eq!(
        resp[&2].get("lambda").and_then(Value::as_str),
        Some(direct.lambda.to_string().as_str()),
        "by-hash solve must see the graph the cold-start edit committed"
    );
    assert_eq!(handle.metric("serve.graph.parse"), Some(1), "parsed once");
    assert_eq!(handle.metric("serve.cache.miss"), Some(1));
    assert_eq!(handle.metric("serve.cache.hit"), Some(1));
    handle.shutdown();
}

#[test]
fn edit_weights_and_request_ids_are_read_as_exact_integers() {
    use mcr_core::{DynamicSolver, Edit};
    // Two 2-rings sharing node 2. Maximizing, the ring through arc 0 is
    // critical once arc 0 weighs 2^53 + 1, and its mean tells 2^53 + 1
    // from the 2^53 an f64 reading would give.
    let text = "p mcr 3 4\na 1 2 1\na 2 1 1\na 2 3 5\na 3 2 5\n";
    let g = mcr_graph::io::read_dimacs(&mut text.as_bytes()).expect("parse");
    let weight: i64 = (1 << 53) + 1;
    let edit = |id: u64, weight: &str| {
        format!(
            "{{\"schema\":\"mcr-req v1\",\"id\":{id},\"op\":\"edit\",\"graph\":\"{}\",\
             \"maximize\":true,\"edits\":[{{\"op\":\"reweight\",\"arc\":0,\"weight\":{weight}}}]}}",
            json::escape(text)
        )
    };
    let id = (1u64 << 53) + 1;
    let handle = start(serial());
    let resp = roundtrip(&handle, &[edit(id, &weight.to_string())]);
    let answer = resp.get(&id).expect("the id comes back unchanged");
    assert_eq!(status_of(answer), ("ok", 0));
    let spec = SolveSpec::mean(mcr_core::Algorithm::HowardExact).maximize();
    let mut reference = DynamicSolver::new(&g, spec, SolveOptions::new());
    let expected = reference
        .apply(&[Edit::Reweight { arc: 0, weight }])
        .expect("reference edit applies")
        .solution
        .expect("cyclic");
    assert_eq!(expected.lambda, mcr_core::Ratio64::new(weight + 1, 2));
    assert_eq!(
        answer.get("lambda").and_then(Value::as_str),
        Some(expected.lambda.to_string().as_str())
    );
    // 2^63 does not fit a weight: a typed input error, not a saturated
    // i64::MAX.
    let resp = roundtrip(&handle, &[edit(2, "9223372036854775808")]);
    assert_eq!(status_of(&resp[&2]), ("input-error", 1));
    let error = resp[&2].get("error").and_then(Value::as_str).expect("error");
    assert!(error.contains("\"weight\""), "{error}");
    handle.shutdown();
}

#[test]
fn maximize_reuses_a_separate_negated_plan() {
    // The name is older than the shared plan. Two maximize solves and
    // a minimize of a cached instance: all three run on the one plan
    // the first built, and each must agree with the direct (no plan)
    // answer — a plan holding anything but the graph's own weights
    // would corrupt λ in one orientation.
    let text = graph_text(14, 21);
    let g = mcr_graph::io::read_dimacs(&mut text.as_bytes()).expect("parse");
    let handle = start(serial());
    let resp = roundtrip(
        &handle,
        &[
            solve_req(1, &text, ",\"maximize\":true"),
            solve_req(2, &text, ",\"maximize\":true,\"algorithm\":\"karp\""),
            solve_req(3, &text, ""),
        ],
    );
    let direct_max = solve_spec(
        &g,
        &SolveSpec::mean(mcr_core::Algorithm::HowardExact).maximize(),
        &SolveOptions::new(),
    )
    .expect("solves")
    .expect("cyclic");
    let direct_min = solve_spec(
        &g,
        &SolveSpec::mean(mcr_core::Algorithm::HowardExact),
        &SolveOptions::new(),
    )
    .expect("solves")
    .expect("cyclic");
    let max_lambda = direct_max.lambda.to_string();
    assert_eq!(
        resp[&1].get("lambda").and_then(Value::as_str),
        Some(max_lambda.as_str())
    );
    assert_eq!(
        resp[&2].get("lambda").and_then(Value::as_str),
        Some(max_lambda.as_str()),
        "the cached plan must not change the answer"
    );
    assert_eq!(
        resp[&3].get("lambda").and_then(Value::as_str),
        Some(direct_min.lambda.to_string().as_str())
    );
    // One plan serves both orientations; one parse total.
    assert_eq!(handle.metric("serve.graph.parse"), Some(1));
    assert_eq!(handle.metric("serve.plan.build"), Some(1));
    handle.shutdown();
}

#[test]
fn maximizing_through_an_i64_min_weight_on_a_cycle_is_an_input_error() {
    let on_a_cycle = "p mcr 2 2\na 1 2 -9223372036854775808\na 2 1 0\n";
    let off_every_cycle = "p mcr 3 3\na 1 2 1\na 2 1 1\na 2 3 -9223372036854775808\n";
    let handle = start(serial());
    let resp = roundtrip(
        &handle,
        &[
            solve_req(1, on_a_cycle, ",\"maximize\":true"),
            // The second reads the plan the first built.
            solve_req(2, on_a_cycle, ",\"maximize\":true,\"threads\":2"),
            solve_req(3, off_every_cycle, ",\"maximize\":true"),
        ],
    );
    for id in [1, 2] {
        assert_eq!(status_of(&resp[&id]), ("input-error", 1), "{:?}", resp[&id]);
        assert!(resp[&id]
            .get("error")
            .and_then(Value::as_str)
            .expect("error")
            .contains("i64::MIN"));
    }
    assert_eq!(resp[&3].get("lambda").and_then(Value::as_str), Some("1"));
    handle.shutdown();
}

#[test]
fn failure_statuses_mirror_the_exit_taxonomy() {
    let text = graph_text(8, 2);
    let handle = start(quiet());
    let resp = roundtrip(
        &handle,
        &[
            // Expired on arrival → cancelled (4).
            solve_req(1, &text, ",\"deadline_ms\":0"),
            // Unknown algorithm → input-error (1) at parse.
            solve_req(2, &text, ",\"algorithm\":\"simplex\""),
            // Unknown hash, no inline graph → input-error (1).
            "{\"schema\":\"mcr-req v1\",\"id\":3,\"op\":\"solve\",\
             \"graph_hash\":\"00000000000000aa\"}"
                .to_string(),
            // One λ refinement, fallbacks off → budget-exhausted (2).
            solve_req(
                4,
                &text,
                ",\"algorithm\":\"lawler-exact\",\"budget\":\"refine=1\",\"fallback\":\"none\"",
            ),
            // Bad epsilon → input-error (1), typed not folded.
            solve_req(5, &text, ",\"algorithm\":\"lawler\",\"epsilon\":-1.0"),
        ],
    );
    assert_eq!(status_of(&resp[&1]), ("cancelled", 4));
    assert_eq!(status_of(&resp[&2]), ("input-error", 1));
    assert_eq!(status_of(&resp[&3]), ("input-error", 1));
    assert!(resp[&3]
        .get("error")
        .and_then(Value::as_str)
        .expect("error")
        .contains("unknown graph hash"));
    assert_eq!(status_of(&resp[&4]), ("budget-exhausted", 2));
    assert_eq!(
        resp[&4].get("retryable").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(status_of(&resp[&5]), ("input-error", 1));
    handle.shutdown();
}

#[test]
fn full_queue_sheds_load_with_retry_after() {
    // No workers, depth 1: the first solve occupies the only slot
    // forever, the second is shed with a typed overloaded response.
    let handle = start(ServeConfig {
        workers: 0,
        queue_depth: 1,
        retry_after_ms: 75,
        ..ServeConfig::default()
    });
    let text = graph_text(8, 2);
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    write_frame(&mut writer, solve_req(1, &text, "").as_bytes()).expect("send");
    write_frame(&mut writer, solve_req(2, &text, "").as_bytes()).expect("send");
    let mut reader = BufReader::new(stream);
    // Only request 2 answers (request 1 sits in the queue unserved).
    let payload = read_frame(&mut reader).expect("read").expect("frame");
    let v = json::parse(std::str::from_utf8(&payload).expect("utf8")).expect("json");
    assert_eq!(v.get("id").and_then(Value::as_u64), Some(2));
    assert_eq!(status_of(&v), ("overloaded", 5));
    assert_eq!(v.get("retry_after_ms").and_then(Value::as_u64), Some(75));
    assert_eq!(v.get("retryable").and_then(Value::as_bool), Some(true));
    assert_eq!(handle.metric("serve.requests.rejected"), Some(1));
    assert_eq!(handle.metric("serve.requests.accepted"), Some(1));
    handle.shutdown();
}

#[test]
fn golden_request_log_is_what_the_generator_emits() {
    // Regeneration guard: the committed golden replay log must be
    // byte-identical to `mcr gen requests 12 --seed 42`, and every
    // line must parse as a valid mcr-req v1 request.
    let golden = include_str!("data/golden_requests.jsonl");
    let generated = request_log(&RequestLogConfig::new(12).seed(42));
    assert_eq!(
        golden, generated,
        "regenerate with: cargo run -p mcr-cli -- gen requests 12 --seed 42"
    );
    // Every request key must be declared in the committed mcr-req v1
    // schema manifest — the same file mcr-lint (MCRL011) checks the
    // protocol parser against, so goldens, parser, and manifest cannot
    // drift apart independently.
    let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("schemas/mcr-req-v1.txt");
    let declared: std::collections::BTreeSet<String> = std::fs::read_to_string(&manifest)
        .unwrap_or_else(|e| panic!("read {}: {e}", manifest.display()))
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect();
    for (n, line) in golden.lines().enumerate() {
        protocol::parse_request(line.as_bytes()).expect("golden line parses");
        let Value::Obj(obj) = json::parse(line).expect("golden line is JSON") else {
            panic!("golden line {} is not an object", n + 1);
        };
        for (key, _) in &obj {
            assert!(
                declared.contains(key),
                "golden_requests.jsonl:{} key `{key}` is not declared in schemas/mcr-req-v1.txt",
                n + 1
            );
        }
    }
}

#[test]
fn replay_client_drives_the_golden_log_end_to_end() {
    let handle = start(serial());
    let lines: Vec<String> = request_log(&RequestLogConfig::new(12).seed(42))
        .lines()
        .map(String::from)
        .collect();
    let mut out = Vec::new();
    let report = mcr_serve::client::replay(
        &handle.local_addr().to_string(),
        &lines,
        false,
        &mut out,
    )
    .expect("replay succeeds");
    assert_eq!(report.sent, 12);
    assert_eq!(report.received, 12);
    let by_status: BTreeMap<&str, usize> = report
        .by_status
        .iter()
        .map(|(s, n)| (s.as_str(), *n))
        .collect();
    assert_eq!(by_status.get("cancelled"), Some(&1), "{by_status:?}");
    assert_eq!(by_status.get("budget-exhausted"), Some(&1));
    assert_eq!(by_status.get("ok"), Some(&10));
    // The pool repeats instances, so the cache must have proven hits.
    assert!(handle.metric("serve.cache.hit").unwrap_or(0) >= 4);
    let parses = handle.metric("serve.graph.parse").unwrap_or(u64::MAX);
    assert!(parses <= 4, "at most one parse per pool instance: {parses}");
    handle.shutdown();
}

/// One connection that sends a request and reads its response before
/// the next, keeping every response's raw bytes.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(handle: &ServerHandle) -> Conn {
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        // One small frame per call: without this, Nagle's algorithm
        // and the daemon's delayed ACK add ~40 ms to every round trip.
        stream.set_nodelay(true).expect("nodelay");
        Conn {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn call(&mut self, request: &str) -> String {
        write_frame(&mut self.writer, request.as_bytes()).expect("send");
        let payload = read_frame(&mut self.reader)
            .expect("read")
            .expect("response frame");
        String::from_utf8(payload).expect("utf8")
    }
}

fn lambda_of(response: &str) -> String {
    let v = json::parse(response).expect("json");
    v.get("lambda")
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no lambda in {response}"))
        .to_string()
}

fn by_hash(id: u64, hash: &str, extra: &str) -> String {
    format!(
        "{{\"schema\":\"mcr-req v1\",\"id\":{id},\"op\":\"solve\",\"graph_hash\":\"{hash}\"{extra}}}"
    )
}

#[test]
fn a_repeated_question_is_answered_from_the_store_with_the_same_bytes() {
    let text = graph_text(12, 5);
    let ratio_text = "p mcr 3 4\na 1 2 4 2\na 2 3 1 1\na 3 1 2 3\na 2 1 7 1\n";
    let acyclic_text = "p mcr 3 2\na 1 2 4\na 2 3 1\n";
    let questions = [
        solve_req(0, &text, ""),
        solve_req(0, &text, ",\"algorithm\":\"karp\""),
        solve_req(0, &text, ",\"algorithm\":\"lawler\",\"epsilon\":1e-7"),
        solve_req(0, &text, ",\"maximize\":true"),
        solve_req(
            0,
            ratio_text,
            ",\"objective\":\"ratio\",\"algorithm\":\"yto\"",
        ),
        solve_req(0, acyclic_text, ""),
    ];
    let handle = start(quiet());
    let mut conn = Conn::open(&handle);
    let mut id = 0;
    let mut ask = |template: &str| {
        id += 1;
        let request = template.replacen("\"id\":0,", &format!("\"id\":{id},"), 1);
        (id, conn.call(&request))
    };
    for q in &questions {
        let (first_id, first) = ask(q);
        let misses = handle.metric("serve.answer.miss");
        let hits = handle.metric("serve.answer.hit").expect("registered");
        // Again, now with a deadline, which is not part of the question.
        let (again_id, again) = ask(&q.replacen("}", ",\"deadline_ms\":60000}", 1));
        assert_eq!(
            status_of(&json::parse(&again).expect("json")).0,
            "ok",
            "{again}"
        );
        assert_eq!(
            first.replacen(
                &format!("\"id\":{first_id},"),
                &format!("\"id\":{again_id},"),
                1
            ),
            again,
            "a stored answer must render as the fresh solve did"
        );
        assert_eq!(handle.metric("serve.answer.hit"), Some(hits + 1), "{q}");
        assert_eq!(handle.metric("serve.answer.miss"), misses, "{q}");
    }
    assert_eq!(
        handle.metric("serve.answer.miss"),
        Some(questions.len() as u64)
    );
    // A question differing only in its budget is a new question.
    let (_, limited) = ask(&questions[0].replacen("}", ",\"budget\":\"iters=1000\"}", 1));
    assert_eq!(lambda_of(&limited), lambda_of(&ask(&questions[0]).1));
    assert_eq!(
        handle.metric("serve.answer.miss"),
        Some(questions.len() as u64 + 1)
    );
    handle.shutdown();
}

#[test]
fn a_solve_after_a_lambda_changing_edit_sees_the_edited_graph() {
    // A 2-ring 1 -> 2 -> 1 with weights 6 and 0 (mean 3) and a 3-ring
    // of weight 9 each.
    let text = "p mcr 5 5\na 1 2 6\na 2 1 0\na 3 4 9\na 4 5 9\na 5 3 9\n";
    let hash = protocol::format_hash(mcr_serve::cache::fnv1a(text));
    let handle = start(quiet());
    let mut conn = Conn::open(&handle);
    assert_eq!(lambda_of(&conn.call(&solve_req(1, text, ""))), "3");
    assert_eq!(lambda_of(&conn.call(&by_hash(2, &hash, ""))), "3");
    let karp = ",\"algorithm\":\"karp\"";
    assert_eq!(lambda_of(&conn.call(&by_hash(3, &hash, karp))), "3");
    assert_eq!(handle.metric("serve.answer.hit"), Some(1));
    let edit = format!(
        "{{\"schema\":\"mcr-req v1\",\"id\":4,\"op\":\"edit\",\"graph_hash\":\"{hash}\",\
         \"edits\":[{{\"op\":\"reweight\",\"arc\":0,\"weight\":20}}]}}"
    );
    assert_eq!(lambda_of(&conn.call(&edit)), "9");
    // Both questions asked before the edit are answered anew.
    assert_eq!(lambda_of(&conn.call(&by_hash(5, &hash, ""))), "9");
    assert_eq!(lambda_of(&conn.call(&by_hash(6, &hash, karp))), "9");
    assert_eq!(handle.metric("serve.answer.hit"), Some(1));
    assert_eq!(handle.metric("serve.answer.miss"), Some(4));
    assert_eq!(lambda_of(&conn.call(&by_hash(7, &hash, karp))), "9");
    assert_eq!(handle.metric("serve.answer.hit"), Some(2));
    handle.shutdown();
}

#[test]
fn failed_and_cancelled_lines_answer_the_same_on_every_resend() {
    // The golden log ends with a `deadline_ms: 0` line (cancelled at
    // dequeue) and a one-refinement Lawler-exact line without fallback
    // (budget-exhausted). Errors are never stored, so every replay
    // solves those again and must answer as the first replay did.
    let log = request_log(&RequestLogConfig::new(12).seed(42));
    let lines: Vec<&str> = log.lines().collect();
    let handle = start(serial());
    let mut conn = Conn::open(&handle);
    let replay = |conn: &mut Conn| -> Vec<String> { lines.iter().map(|l| conn.call(l)).collect() };
    let first = replay(&mut conn);
    let statuses: Vec<String> = first
        .iter()
        .map(|r| status_of(&json::parse(r).expect("json")).0.to_string())
        .collect();
    assert_eq!(statuses[10], "cancelled", "{}", first[10]);
    assert_eq!(statuses[11], "budget-exhausted", "{}", first[11]);
    let miss_after_first = handle.metric("serve.answer.miss").expect("registered");
    for round in 2..=3 {
        assert_eq!(replay(&mut conn), first, "replay {round}");
    }
    // Each replay solves only the failed line again; the 10 ok lines
    // (fewer distinct questions) all hit.
    assert_eq!(
        handle.metric("serve.answer.miss"),
        Some(miss_after_first + 2)
    );
    assert_eq!(
        handle.metric("serve.answer.hit").map(|h| h >= 20),
        Some(true)
    );
    handle.shutdown();
}

#[test]
fn a_solve_sent_after_an_edit_response_never_sees_the_pre_edit_lambda() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    // A 2-ring (arcs 0 and 1, weights 0) beside a 1000-node SPRAND
    // component with positive weights. Edit k reweights arc 0 to -2k,
    // so λ = -k names the last edit the answer saw.
    let sprand = graph_text(1000, 13);
    let (header, arcs) = sprand.split_once('\n').expect("header");
    let counts: Vec<usize> = header
        .split_whitespace()
        .skip(2)
        .map(|t| t.parse().expect("count"))
        .collect();
    let text = format!(
        "p mcr {} {}\na {} {} 0\na {} {} 0\n{arcs}",
        counts[0] + 2,
        counts[1] + 2,
        counts[0] + 1,
        counts[0] + 2,
        counts[0] + 2,
        counts[0] + 1
    );
    let hash = protocol::format_hash(mcr_serve::cache::fnv1a(&text));
    let handle = start(quiet());
    let mut editor = Conn::open(&handle);
    assert_eq!(lambda_of(&editor.call(&solve_req(1, &text, ""))), "0");
    let edited = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    // Two connections keep both workers solving while the edits commit
    // back to back. Each rotates over four questions (threads 1-4), so
    // many solves miss the store and some straddle an edit's commit:
    // the solves whose answer the store must then drop.
    let solvers: Vec<_> = (1..=2u64)
        .map(|t| {
            let (edited, done, hash) = (Arc::clone(&edited), Arc::clone(&done), hash.clone());
            let mut conn = Conn::open(&handle);
            std::thread::spawn(move || {
                let mut id = t * 1_000_000;
                while !done.load(Ordering::SeqCst) {
                    let seen = edited.load(Ordering::SeqCst);
                    id += 1;
                    let threads = format!(",\"threads\":{}", 1 + id % 4);
                    let lambda: i64 = lambda_of(&conn.call(&by_hash(id, &hash, &threads)))
                        .parse()
                        .expect("integral λ");
                    assert!(
                        -lambda >= seen as i64,
                        "solve {id} sent after edit {seen} answered λ = {lambda}"
                    );
                }
            })
        })
        .collect();
    for k in 1..=300u64 {
        let edit = format!(
            "{{\"schema\":\"mcr-req v1\",\"id\":{},\"op\":\"edit\",\"graph_hash\":\"{hash}\",\
             \"edits\":[{{\"op\":\"reweight\",\"arc\":0,\"weight\":-{}}}]}}",
            k + 1,
            2 * k
        );
        assert_eq!(lambda_of(&editor.call(&edit)), format!("-{k}"));
        edited.store(k, Ordering::SeqCst);
    }
    done.store(true, Ordering::SeqCst);
    for solver in solvers {
        solver.join().expect("no stale answer");
    }
    // The settled graph's answer is stored once asked.
    let hits = handle.metric("serve.answer.hit").expect("registered");
    assert_eq!(lambda_of(&editor.call(&by_hash(90, &hash, ""))), "-300");
    assert_eq!(lambda_of(&editor.call(&by_hash(91, &hash, ""))), "-300");
    assert!(handle.metric("serve.answer.hit") > Some(hits));
    handle.shutdown();
}
