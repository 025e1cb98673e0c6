//! `mcr` — command-line optimum cycle mean / cycle ratio analysis.
//!
//! ```text
//! mcr solve [FILE]      solve a DIMACS-style instance (stdin if omitted)
//!     --algorithm NAME  one of: burns burns-exact ko yto howard
//!                       howard-exact ho karp karp2 dg lawler
//!                       lawler-exact oa1        (default: howard-exact)
//!     --max             maximize instead of minimize
//!     --ratio           cost-to-time ratio objective (needs transit times)
//!     --epsilon X       precision for approximate algorithms
//!     --threads N       worker threads for the per-SCC driver
//!                       (default: available parallelism; 1 = sequential)
//!     --budget SPEC     work limits, comma-separated `key=value` terms:
//!                       iters=N (outer-loop iterations per SCC attempt),
//!                       refine=N (lambda refinements per SCC attempt),
//!                       time=DUR (wall clock, e.g. 500ms, 2s, 1.5)
//!     --fallback CHAIN  `none`, or comma-separated algorithm names tried
//!                       in order when the primary fails recoverably
//!                       (default: howard-exact,karp,lawler-exact)
//!     --timeout DUR     hard wall-clock deadline, enforced cooperatively
//!                       at the solver's poll points (the solve fails
//!                       closed, exit code 4; when it coincides with a
//!                       --budget time= deadline the timeout wins, so
//!                       the exit code is deterministic at the boundary)
//!     --critical        also print the critical subgraph
//!     --counters        also print operation counts
//!     --trace-out PATH  write a structured solve trace (`mcr-trace v1`
//!                       JSONL; needs a build with `--features obs`)
//!     --metrics-out PATH  write the unified metrics registry
//!                       (`mcr-metrics v1` JSONL; needs `obs`)
//!     --summary         print a human-readable observability summary
//!                       table after the solve (needs `obs`)
//!
//! Exit codes come from [`mcr_core::SolveStatus`] (shared with the
//! `mcrd` response protocol): 0 success, 1 input or usage error,
//! 2 budget exhausted, 3 certification failure (a solved instance
//! whose witness cycle does not reproduce the reported lambda — a
//! solver bug, never silent), 4 cancelled (the `--timeout` deadline
//! passed before the solve finished; no partial answer is printed).
//!
//! mcr dynamic --edits FILE  replay an `mcr-edits v1` edit script with
//!                       the incremental [`mcr_core::DynamicSolver`]:
//!                       one trajectory line per batch (λ as an exact
//!                       fraction, plus whether the batch was answered
//!                       incrementally or by a full re-solve), then the
//!                       final solution. `-` reads the script from
//!                       stdin. Accepts --algorithm, --ratio, --max,
//!                       --epsilon, --threads, --critical, --counters
//!                       with the same meanings as `mcr solve`; every
//!                       batch's answer is re-certified before printing
//!
//! mcr gen sprand N M [--seed S] [--wmin A] [--wmax B] [--tmin A --tmax B]
//! mcr gen circuit N   [--seed S]
//!                       emit a DIMACS-style instance on stdout
//! mcr gen requests N  [--seed S]
//!                       emit a replayable `mcr-req v1` JSONL request
//!                       log for the mcrd daemon (deterministic per
//!                       seed; feed it to `mcr client --replay`)
//! mcr gen edits N     [--seed S] [--nodes V --arcs E]
//!                       emit a deterministic `mcr-edits v1` edit
//!                       script with N batches over a SPRAND base
//!                       instance (feed it to `mcr dynamic --edits`)
//!
//! mcr client --addr HOST:PORT (--replay FILE|- [--no-wait] | --op OP)
//!                       batch client for a running mcrd daemon.
//!     --replay FILE     pipeline a JSONL request log (`-` = stdin) and
//!                       print one response line per request; exits 0
//!                       iff every request got a response (per-request
//!                       failures are data in the response lines).
//!                       `overloaded` sheds are retried with bounded
//!                       backoff honoring the daemon's retry_after_ms
//!     --no-wait         return after sending, without collecting
//!                       responses — used by crash drills to kill the
//!                       daemon with admitted work provably queued
//!     --op OP           send a single ping | metrics | shutdown
//!     --fleet H:P,H:P   shard across several daemons by graph hash
//!                       instead of --addr: per-shard circuit breakers,
//!                       ring failover with journal-backed duplicate
//!                       suppression; --op broadcasts to every shard
//!     --timeout-ms N    per-response read timeout (default 30000;
//!                       also the fleet's failover detection latency)
//!
//! mcr bench [FILE]      run every algorithm on an instance and print a
//!     --threads N       timing/operation-count table
//!
//! mcr dot [FILE]        convert an instance to Graphviz DOT
//! ```
//!
//! A `--flag` outside the set above is a usage error (exit 1), never
//! silently ignored.

use mcr_core::critical::critical_subgraph;
use mcr_core::obs::Recorder;
use mcr_core::spec::{parse_budget_spec, parse_duration_spec, parse_fallback_spec, solve_spec, SpecError};
use mcr_core::{
    certify, parse_edit_script, Algorithm, DynamicOutcome, DynamicSolver, Guarantee, Objective,
    Solution, SolveError, SolveOptions, SolveSpec, SolveStatus,
};
use mcr_gen::circuit::{circuit_graph, CircuitConfig};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_gen::transit::with_random_transits;
use mcr_graph::io::{read_dimacs, to_dot, write_dimacs};
use mcr_graph::Graph;
use std::io::{Read, Write};
use std::process::ExitCode;
use std::time::Instant;

/// CLI failure: a message plus the [`SolveStatus`] that fixes the
/// process exit code (the taxonomy lives in `mcr_core::status`, shared
/// with the `mcrd` response protocol).
struct CliError {
    status: SolveStatus,
    message: String,
}

impl CliError {
    fn new(status: SolveStatus, message: impl Into<String>) -> CliError {
        CliError {
            status,
            message: message.into(),
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::new(SolveStatus::InputError, msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::new(SolveStatus::InputError, msg)
    }
}

impl From<SpecError> for CliError {
    fn from(e: SpecError) -> Self {
        CliError::new(e.status(), e.to_string())
    }
}

/// Every `--flag` some subcommand reads.
const KNOWN_FLAGS: [&str; 27] = [
    "addr",
    "algorithm",
    "arcs",
    "budget",
    "counters",
    "critical",
    "edits",
    "epsilon",
    "fallback",
    "fleet",
    "max",
    "metrics-out",
    "no-wait",
    "nodes",
    "op",
    "ratio",
    "replay",
    "seed",
    "summary",
    "threads",
    "timeout",
    "timeout-ms",
    "trace-out",
    "tmax",
    "tmin",
    "wmax",
    "wmin",
];

/// The flags in [`KNOWN_FLAGS`] that take no value.
const SWITCHES: [&str; 6] = ["max", "ratio", "critical", "counters", "summary", "no-wait"];

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Splits `raw` into positionals and flags. An unknown `--flag` is
    /// an error, so a misspelled option cannot fall back to a default.
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            if let Some(name) = raw[i].strip_prefix("--") {
                if !KNOWN_FLAGS.contains(&name) {
                    return Err(format!("unknown flag `--{name}`; {USAGE}"));
                }
                let takes_value = !SWITCHES.contains(&name);
                if takes_value && i + 1 < raw.len() {
                    flags.push((name.to_string(), Some(raw[i + 1].clone())));
                    i += 2;
                } else {
                    flags.push((name.to_string(), None));
                    i += 1;
                }
            } else {
                positional.push(raw[i].clone());
                i += 1;
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn value_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v}")),
        }
    }
}

fn load_graph(path: Option<&str>) -> Result<Graph, String> {
    let mut text = String::new();
    match path {
        None | Some("-") => {
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| format!("reading stdin: {e}"))?;
        }
        Some(p) => {
            text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        }
    }
    read_dimacs(&mut text.as_bytes()).map_err(|e| format!("parse error: {e}"))
}

/// `--epsilon X` / `--threads N` / `--budget SPEC` / `--fallback CHAIN`
/// → [`SolveOptions`], recording into `recorder` (see [`with_obs`]).
/// Without `--epsilon` the precision stays unset, so the library
/// derives its default only for a route that reads it (and, under
/// `mcr dynamic`, re-derives it as edits move the weight range). The
/// CLI defaults to `--threads 0` (auto-detect available parallelism);
/// `--threads 1` forces the sequential legacy path. Results are
/// identical either way.
fn solve_options(args: &Args, recorder: Option<Recorder>) -> Result<SolveOptions, String> {
    let epsilon = match args.value("epsilon") {
        None => None,
        Some(_) => Some(args.value_parsed("epsilon", 0.0)?),
    };
    if epsilon.is_some_and(|e: f64| e <= 0.0) {
        return Err("epsilon must be positive".into());
    }
    let threads: usize = args.value_parsed("threads", 0)?;
    let mut opts = SolveOptions {
        threads,
        epsilon,
        recorder,
        ..SolveOptions::default()
    };
    if let Some(spec) = args.value("budget") {
        opts.budget = parse_budget_spec(spec)?;
    }
    if let Some(spec) = args.value("fallback") {
        opts.fallback = parse_fallback_spec(spec)?;
    }
    if let Some(spec) = args.value("timeout") {
        // One monotonic deadline, resolved here and carried through
        // SolveOptions. The solver compares it against Budget wall-time
        // deadlines once per solve (earliest wins, ties break to the
        // cancellation kind), so exit 2 vs exit 4 is deterministic even
        // when --timeout and --budget time= land on the same instant.
        // `--timeout 0ms` trips at the first poll point: exit 4, always.
        opts.deadline = Some(Instant::now() + parse_duration_spec(spec)?);
    }
    Ok(opts)
}

/// The observability outputs requested on the command line
/// (`--trace-out`, `--metrics-out`, `--summary`). Parsed in every
/// build; honored only by builds with the `obs` feature.
struct ObsRequest {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    summary: bool,
}

impl ObsRequest {
    fn from_args(args: &Args) -> ObsRequest {
        ObsRequest {
            trace_out: args.value("trace-out").map(str::to_string),
            metrics_out: args.value("metrics-out").map(str::to_string),
            summary: args.flag("summary"),
        }
    }

    fn any(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.summary
    }
}

/// Runs `f` with one fresh recorder for the options it builds (none
/// when no output is requested), then writes the requested outputs
/// from that recorder's report. The solve's own result passes through
/// unchanged — traces of failed solves are written too (that is when
/// you want them). Wall-clock timestamps are real here; the golden
/// tests normalize via `Timestamps::Normalized` instead.
///
/// Without the `obs` feature the observability flags fail loudly:
/// recording code is compiled out of this binary, so honoring the flag
/// by writing an empty file would be silent data loss.
fn with_obs<T>(
    req: &ObsRequest,
    f: impl FnOnce(Option<Recorder>) -> Result<T, CliError>,
) -> Result<T, CliError> {
    if !req.any() {
        return f(None);
    }
    #[cfg(not(feature = "obs"))]
    {
        Err(CliError::from(
            "this build has no observability support; rebuild with \
             `cargo build -p mcr-cli --features obs` to use --trace-out, \
             --metrics-out, or --summary",
        ))
    }
    #[cfg(feature = "obs")]
    {
        use mcr_core::obs::Timestamps;
        let recorder = Recorder::new();
        let out = f(Some(recorder.clone()));
        let report = recorder.report();
        if let Some(path) = &req.trace_out {
            std::fs::write(path, report.trace_jsonl(Timestamps::Wall))
                .map_err(|e| CliError::from(format!("writing trace to {path}: {e}")))?;
        }
        if let Some(path) = &req.metrics_out {
            std::fs::write(path, report.metrics_jsonl(Timestamps::Wall))
                .map_err(|e| CliError::from(format!("writing metrics to {path}: {e}")))?;
        }
        if req.summary {
            print!("{}", report.summary(Timestamps::Wall));
        }
        out
    }
}

fn print_solution(g: &Graph, sol: &Solution, maximize: bool, args: &Args) {
    println!("lambda = {} (~ {:.6})", sol.lambda, sol.lambda.to_f64());
    match sol.guarantee {
        Guarantee::Exact => println!("guarantee: exact"),
        Guarantee::Epsilon(e) => println!("guarantee: within {e} of the optimum"),
    }
    let nodes: Vec<String> = sol
        .cycle_nodes(g)
        .iter()
        .map(|v| (v.index() + 1).to_string())
        .collect();
    println!("witness cycle ({} arcs): {}", sol.cycle.len(), nodes.join(" -> "));
    if args.flag("counters") {
        let c = &sol.counters;
        println!(
            "counters: iterations={} relaxations={} updates={} arcs_visited={} cycles={} oracle_calls={} heap_ops={}",
            c.iterations,
            c.relaxations,
            c.distance_updates,
            c.arcs_visited,
            c.cycles_examined,
            c.oracle_calls,
            c.heap.total()
        );
    }
    if args.flag("critical") {
        let (graph, lambda) = if maximize {
            (g.checked_negated(), -sol.lambda)
        } else {
            (Some(g.clone()), sol.lambda)
        };
        match graph.map(|graph| critical_subgraph(&graph, lambda)) {
            Some(Ok(cs)) => {
                println!("critical arcs ({}):", cs.arcs.len());
                for a in cs.arcs {
                    println!(
                        "  {} -> {} (w={}, t={})",
                        g.source(a).index() + 1,
                        g.target(a).index() + 1,
                        g.weight(a),
                        g.transit(a)
                    );
                }
            }
            Some(Err(_)) => println!("critical subgraph: unavailable (approximate lambda)"),
            None => {
                println!("critical subgraph: unavailable (a weight of i64::MIN has no negation)")
            }
        }
    }
}

fn cmd_solve(args: &Args, recorder: Option<Recorder>) -> Result<(), CliError> {
    let g = load_graph(args.positional.get(1).map(|s| s.as_str()))?;
    let alg_name = args.value("algorithm").unwrap_or("howard-exact");
    let alg = Algorithm::by_name(alg_name)
        .ok_or_else(|| format!("unknown algorithm `{alg_name}` (see --help)"))?;
    let maximize = args.flag("max");
    let ratio_mode = args.flag("ratio");
    let opts = solve_options(args, recorder)?;

    // The dispatch itself — objective match, maximize negation, the
    // acyclic fold — lives in `mcr_core::spec`, shared verbatim with
    // the `mcrd` daemon so both front ends give bit-identical answers.
    let spec = SolveSpec {
        algorithm: alg,
        objective: if ratio_mode {
            Objective::Ratio
        } else {
            Objective::Mean
        },
        maximize,
    };
    match solve_spec(&g, &spec, &opts)? {
        None => {
            println!("graph is acyclic: no cycle mean/ratio");
            Ok(())
        }
        Some(sol) => {
            println!(
                "{} {} via {}",
                if maximize { "maximum" } else { "minimum" },
                if ratio_mode { "cycle ratio" } else { "cycle mean" },
                alg.name()
            );
            if sol.solved_by != alg {
                println!(
                    "note: {} gave up; {} answered instead",
                    alg.name(),
                    sol.solved_by.name()
                );
            }
            print_solution(&g, &sol, maximize, args);
            // Independent re-walk of the witness cycle: the reported
            // lambda must be its exact mean or ratio in the input graph
            // (negation commutes with both, so `g` works for --max too).
            certify(&sol, &g).map_err(|e| {
                CliError::new(
                    SolveStatus::CertifyFailed,
                    format!("certification failed: {e}"),
                )
            })?;
            println!("certificate: witness cycle reproduces lambda exactly");
            Ok(())
        }
    }
}

/// One trajectory line per batch: exact λ (or acyclic), whether the
/// incremental solver answered from its component cache, and how it
/// kept the component decomposition current. The line is
/// thread-count-independent — λ by the bit-identity contract, the
/// hit/miss split because component fingerprints do not depend on the
/// driver schedule, the topology path because it depends on the edits
/// alone — which is what lets CI byte-compare 1-thread and 4-thread
/// replays.
fn describe_batch(i: usize, outcome: &DynamicOutcome) {
    let provenance = format!(
        "[{}; {} cached, {} solved; topology {}]",
        outcome.mode.name(),
        outcome.cache_hits,
        outcome.cache_misses,
        outcome.topology.name()
    );
    match &outcome.solution {
        Some(sol) => println!(
            "batch {i}: lambda = {} (~ {:.6}) {provenance}",
            sol.lambda,
            sol.lambda.to_f64()
        ),
        None => println!("batch {i}: acyclic {provenance}"),
    }
}

/// `mcr dynamic --edits FILE`: replay an `mcr-edits v1` script with the
/// persistent incremental solver, printing the λ trajectory.
fn cmd_dynamic(args: &Args, recorder: Option<Recorder>) -> Result<(), CliError> {
    let source = args
        .value("edits")
        .ok_or("usage: mcr dynamic --edits FILE [solve flags] (see crate docs)")?;
    let mut text = String::new();
    match source {
        "-" => {
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| format!("reading stdin: {e}"))?;
        }
        p => {
            text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        }
    }
    let script = parse_edit_script(&text).map_err(|e| format!("edit script: {e}"))?;
    let g = script.base_graph();
    let alg_name = args.value("algorithm").unwrap_or("howard-exact");
    let alg = Algorithm::by_name(alg_name)
        .ok_or_else(|| format!("unknown algorithm `{alg_name}` (see --help)"))?;
    let maximize = args.flag("max");
    let ratio_mode = args.flag("ratio");
    let opts = solve_options(args, recorder)?;
    let spec = SolveSpec {
        algorithm: alg,
        objective: if ratio_mode {
            Objective::Ratio
        } else {
            Objective::Mean
        },
        maximize,
    };
    println!(
        "dynamic {} {} via {}: {} nodes, {} base arcs, {} batches (seed {})",
        if maximize { "maximum" } else { "minimum" },
        if ratio_mode { "cycle ratio" } else { "cycle mean" },
        alg.name(),
        script.nodes,
        script.base_arcs.len(),
        script.batches.len(),
        script.seed
    );
    let mut solver = DynamicSolver::new(&g, spec, opts);
    // Batch 0 is the initial full solve that warms the component cache;
    // a failed batch aborts the replay with its typed exit code (the
    // solver state still reflects every committed edit at that point).
    let mut last = solver.solve()?;
    describe_batch(0, &last);
    for (i, batch) in script.batches.iter().enumerate() {
        last = solver.apply(batch)?;
        describe_batch(i + 1, &last);
    }
    println!("whole-graph Tarjan runs: {}", solver.tarjan_runs());
    match last.solution {
        None => {
            println!("final graph is acyclic: no cycle mean/ratio");
            Ok(())
        }
        Some(sol) => {
            let final_graph = solver.current_graph();
            print_solution(&final_graph, &sol, maximize, args);
            // The solver re-certified every batch internally; repeat
            // the independent re-walk here so the printed certificate
            // line means the same thing it does on the one-shot path.
            certify(&sol, &final_graph).map_err(|e| {
                CliError::new(
                    SolveStatus::CertifyFailed,
                    format!("certification failed: {e}"),
                )
            })?;
            println!("certificate: witness cycle reproduces lambda exactly");
            Ok(())
        }
    }
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let family = args
        .positional
        .get(1)
        .ok_or("usage: mcr gen <sprand|circuit|requests> ...")?;
    let seed: u64 = args.value_parsed("seed", 0)?;
    if family == "requests" {
        let count: usize = args
            .positional
            .get(2)
            .ok_or("usage: mcr gen requests N [--seed S]")?
            .parse()
            .map_err(|_| "invalid N")?;
        print!(
            "{}",
            mcr_gen::requests::request_log(
                &mcr_gen::requests::RequestLogConfig::new(count).seed(seed)
            )
        );
        return Ok(());
    }
    if family == "edits" {
        let batches: usize = args
            .positional
            .get(2)
            .ok_or("usage: mcr gen edits N [--seed S] [--nodes V --arcs E]")?
            .parse()
            .map_err(|_| "invalid N")?;
        let mut cfg = mcr_gen::edits::EditScriptConfig::new(batches).seed(seed);
        let nodes: usize = args.value_parsed("nodes", cfg.nodes)?;
        let arcs: usize = args.value_parsed("arcs", cfg.arcs)?;
        cfg = cfg.size(nodes, arcs);
        print!("{}", mcr_gen::edits::edit_script(&cfg));
        return Ok(());
    }
    let g = match family.as_str() {
        "sprand" => {
            let n: usize = args
                .positional
                .get(2)
                .ok_or("usage: mcr gen sprand N M")?
                .parse()
                .map_err(|_| "invalid N")?;
            let m: usize = args
                .positional
                .get(3)
                .ok_or("usage: mcr gen sprand N M")?
                .parse()
                .map_err(|_| "invalid M")?;
            let wmin: i64 = args.value_parsed("wmin", 1)?;
            let wmax: i64 = args.value_parsed("wmax", 10_000)?;
            let g = sprand(
                &SprandConfig::new(n, m)
                    .seed(seed)
                    .weight_range(wmin, wmax),
            );
            match (args.value("tmin"), args.value("tmax")) {
                (Some(_), _) | (_, Some(_)) => {
                    let tmin: i64 = args.value_parsed("tmin", 1)?;
                    let tmax: i64 = args.value_parsed("tmax", 10)?;
                    with_random_transits(&g, tmin, tmax, seed ^ 0x7ea)
                }
                _ => g,
            }
        }
        "circuit" => {
            let n: usize = args
                .positional
                .get(2)
                .ok_or("usage: mcr gen circuit N")?
                .parse()
                .map_err(|_| "invalid N")?;
            circuit_graph(&CircuitConfig::new(n).seed(seed))
        }
        other => return Err(format!("unknown generator `{other}`")),
    };
    let mut out = Vec::new();
    write_dimacs(&mut out, &g).map_err(|e| e.to_string())?;
    print!("{}", String::from_utf8_lossy(&out));
    Ok(())
}

fn cmd_client(args: &Args) -> Result<(), String> {
    const CLIENT_USAGE: &str = "usage: mcr client (--addr HOST:PORT | --fleet H:P,H:P[,..]) \
         (--replay FILE|- [--no-wait] | --op ping|metrics|shutdown) [--timeout-ms N]";
    let timeout =
        std::time::Duration::from_millis(args.value_parsed::<u64>("timeout-ms", 30_000)?);
    let mut out = std::io::stdout();
    let fleet = match args.value("fleet") {
        Some(spec) => {
            let mut cfg =
                mcr_serve::client::FleetConfig::new(mcr_serve::shard::ShardMap::parse(spec)?);
            cfg.response_timeout = timeout;
            Some(cfg)
        }
        None => None,
    };
    if let Some(op) = args.value("op") {
        return match &fleet {
            Some(cfg) => mcr_serve::client::fleet_one_op(cfg, op, &mut out),
            None => {
                let addr = args.value("addr").ok_or(CLIENT_USAGE)?;
                mcr_serve::client::one_op_with(addr, op, timeout, &mut out)
            }
        };
    }
    if let Some(cfg) = &fleet {
        return client_fleet_replay(args, cfg, &mut out);
    }
    let addr = args.value("addr").ok_or(CLIENT_USAGE)?;
    let source = args.value("replay").ok_or(CLIENT_USAGE)?;
    let lines = read_request_log(source)?;
    let report = mcr_serve::client::replay_with(
        addr,
        &lines,
        args.flag("no-wait"),
        timeout,
        &mcr_serve::retry::RetryPolicy::default(),
        &mut out,
    )?;
    eprintln!(
        "mcr client: sent={} received={} retries={}{}",
        report.sent,
        report.received,
        report.retries,
        status_summary(&report.by_status)
    );
    Ok(())
}

fn read_request_log(source: &str) -> Result<Vec<String>, String> {
    let mut text = String::new();
    match source {
        "-" => {
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| format!("reading stdin: {e}"))?;
        }
        p => {
            text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        }
    }
    Ok(text.lines().map(String::from).collect())
}

fn status_summary(by_status: &[(String, usize)]) -> String {
    if by_status.is_empty() {
        return String::new();
    }
    let statuses: Vec<String> = by_status.iter().map(|(s, n)| format!("{s}={n}")).collect();
    format!(" [{}]", statuses.join(" "))
}

fn client_fleet_replay(
    args: &Args,
    cfg: &mcr_serve::client::FleetConfig,
    out: &mut dyn Write,
) -> Result<(), String> {
    const FLEET_USAGE: &str =
        "usage: mcr client --fleet H:P,H:P[,..] --replay FILE|- [--timeout-ms N]";
    if args.flag("no-wait") {
        return Err("--no-wait needs --addr: the fleet client settles every request".to_string());
    }
    let source = args.value("replay").ok_or(FLEET_USAGE)?;
    let lines = read_request_log(source)?;
    let report = mcr_serve::client::fleet_replay(cfg, &lines, out)?;
    eprintln!(
        "mcr client: sent={} settled={} retries={} failovers={} breaker_opens={} deduped={}{}",
        report.sent,
        report.settled,
        report.retries,
        report.failovers,
        report.breaker_opens,
        report.deduped,
        status_summary(&report.by_status)
    );
    Ok(())
}

fn cmd_dot(args: &Args) -> Result<(), String> {
    let g = load_graph(args.positional.get(1).map(|s| s.as_str()))?;
    print!("{}", to_dot(&g, "mcr"));
    Ok(())
}

fn cmd_bench(args: &Args, recorder: Option<Recorder>) -> Result<(), CliError> {
    let g = load_graph(args.positional.get(1).map(|s| s.as_str()))?;
    let opts = solve_options(args, recorder)?;
    println!(
        "instance: {} nodes, {} arcs, weights [{}, {}]",
        g.num_nodes(),
        g.num_arcs(),
        g.min_weight().unwrap_or(0),
        g.max_weight().unwrap_or(0)
    );
    println!(
        "{:<14} {:>12} {:>14} {:>9} {:>12}",
        "algorithm", "time", "lambda", "iters", "relaxations"
    );
    for alg in Algorithm::ALL {
        let start = std::time::Instant::now();
        match alg.solve_lambda_only_opts(&g, &opts) {
            Err(SolveError::Acyclic) => {
                println!("{:<14} graph is acyclic", alg.name());
                break;
            }
            // A bounded bench records the miss and keeps sweeping.
            Err(e) => println!("{:<14} {e}", alg.name()),
            Ok((lambda, counters)) => {
                println!(
                    "{:<14} {:>12} {:>14} {:>9} {:>12}",
                    alg.name(),
                    format!("{:.3?}", start.elapsed()),
                    lambda.to_string(),
                    counters.iterations,
                    counters.relaxations
                );
            }
        }
    }
    Ok(())
}

const USAGE: &str =
    "usage: mcr <solve|dynamic|gen|client|dot|bench> ...  (see crate docs for flags)";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(&raw).map_err(CliError::from).and_then(|args| {
        let obs_req = ObsRequest::from_args(&args);
        match args.positional.first().map(|s| s.as_str()) {
            Some("solve") => with_obs(&obs_req, |rec| cmd_solve(&args, rec)),
            Some("dynamic") => with_obs(&obs_req, |rec| cmd_dynamic(&args, rec)),
            Some("gen") => cmd_gen(&args).map_err(CliError::from),
            Some("client") => cmd_client(&args).map_err(CliError::from),
            Some("dot") => cmd_dot(&args).map_err(CliError::from),
            Some("bench") => with_obs(&obs_req, |rec| cmd_bench(&args, rec)),
            _ => Err(CliError::from(USAGE.to_string())),
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mcr: {}", e.message);
            ExitCode::from(e.status.code())
        }
    }
}
