//! The traced pass (`--trace 1`): times calls into each layer's public
//! functions on the seed's inputs and reports the per-layer metrics.
//!
//! Every workload's traced run profiles every layer, so each one prints
//! the whole per-layer table. The end-to-end numbers come from the
//! untraced pass; the `share.*` metrics are each layer's part of its
//! workload's op, the evidence for which workload can show which layer.

use crate::inputs;
use crate::serve_load::{request_options, Conn, Fixture, LogEntry};
use crate::stats::{mean, median, percentile, sample};
use crate::workloads::{
    counter_fields, giant_setup, kernel_op, record_counters, replay_checked, same_answer, Kernel,
    EDIT_CYCLE, FILE_THREADS, KERNELS, SERVE_CHUNK,
};
use crate::Report;
use mcr_core::spec::{solve_spec, SolveSpec};
use mcr_core::{certify, Algorithm, Counters, SccPlan, Solution, SolveOptions, SolveStatus};
use mcr_graph::io::read_dimacs;
use mcr_graph::{GraphBuilder, NodeId};
use mcr_serve::journal::Journal;
use mcr_serve::json::Value;
use mcr_serve::protocol::parse_request;
use std::path::Path;
use std::time::Duration;

pub fn run(seed: u64, budget: Duration, scratch: &Path, rep: &mut Report) -> Result<(), String> {
    let slice = budget / 10;
    graph_and_driver(seed, slice, rep)?;
    kernels(seed, slice, rep)?;
    dynamic(seed, rep)?;
    serve(seed, budget / 5, scratch, rep)
}

/// `mcr-graph` parse and SCC, the `mcr-core` driver and `certify`, on
/// the `file_solve` circuit.
fn graph_and_driver(seed: u64, slice: Duration, rep: &mut Report) -> Result<(), String> {
    let text = inputs::file_circuit(seed);
    let parse = median(&sample(5, slice, || read_dimacs(&mut text.as_bytes())));
    let g = read_dimacs(&mut text.as_bytes()).map_err(|e| format!("parse: {e}"))?;
    let scc = median(&sample(5, slice, || SccPlan::prepare(&g)));
    let plan = SccPlan::prepare(&g);
    let spec = SolveSpec::mean(Algorithm::HowardExact);
    let solve = |threads: usize| -> Result<Solution, String> {
        let opts = SolveOptions::new().threads(threads).plan(plan.clone());
        solve_spec(&g, &spec, &opts)
            .map_err(|e| format!("solve: {e}"))?
            .ok_or_else(|| "the circuit is acyclic".to_string())
    };
    let sol = solve(FILE_THREADS)?;
    rep.check(same_answer(&solve(1)?, &sol), || {
        "1 and 2 driver threads disagree".to_string()
    });
    rep.check(certify(&sol, &g).is_ok(), || {
        "the circuit solution does not certify".to_string()
    });
    let t1 = median(&sample(5, slice, || solve(1)));
    let t2 = median(&sample(5, slice, || solve(2)));
    let cert = median(&sample(100, slice / 10, || certify(&sol, &g)));
    rep.metric("graph.parse_ms", parse, "ms");
    rep.metric("graph.parse_mb_s", text.len() as f64 / 1e3 / parse, "MB/s");
    rep.metric("graph.scc_ms", scc, "ms");
    rep.count("graph.cyclic_sccs", plan.num_jobs() as u64);
    rep.metric("graph.cyclic_sccs", plan.num_jobs() as f64, "count");
    rep.metric("core.solve_ms.t1", t1, "ms");
    rep.metric("core.solve_ms.t2", t2, "ms");
    rep.metric("core.driver_speedup_t2", t1 / t2, "x");
    rep.metric("core.certify_ms", cert, "ms");
    report_counters(rep, "file", &["relaxations", "iterations"], &sol.counters);
    let op = parse + scc + t2 + cert;
    rep.metric("share.file_solve.parse", parse / op, "ratio");
    rep.metric("share.file_solve.scc", scc / op, "ratio");
    rep.metric("share.file_solve.solve", t2 / op, "ratio");
    rep.metric("share.file_solve.certify", cert / op, "ratio");
    Ok(())
}

/// Records `c` as exact counts under `prefix` and reports the `fields`
/// the solver advances as per-layer metrics.
fn report_counters(rep: &mut Report, prefix: &str, fields: &[&str], c: &Counters) {
    record_counters(rep, prefix, c);
    for (field, value) in counter_fields(c) {
        if fields.contains(&field) {
            rep.metric(&format!("{prefix}.{field}"), value as f64, "count");
        }
    }
}

/// The four kernel engines on the seed's first giant component: time,
/// exact counts, and the kernel's share of parse + SCC + solve.
fn kernels(seed: u64, slice: Duration, rep: &mut Report) -> Result<(), String> {
    let text = inputs::dimacs(&inputs::giant_scc(seed, 0));
    let parse = median(&sample(3, slice / 4, || read_dimacs(&mut text.as_bytes())));
    let giant = giant_setup(seed, 1)?.pop().ok_or("no giant component")?;
    let scc = median(&sample(3, slice / 4, || SccPlan::prepare(&giant.g)));
    rep.metric("giant.parse_ms", parse, "ms");
    rep.metric("giant.scc_ms", scc, "ms");
    for Kernel {
        name,
        alg,
        fields,
        work: (work_field, per_work),
        ..
    } in KERNELS
    {
        let sol = kernel_op(&giant.g, &giant.plan, alg)?;
        rep.check(sol.lambda == giant.lambda, || {
            format!("{name} λ {} != howard_exact λ {}", sol.lambda, giant.lambda)
        });
        let solve = median(&sample(1, slice, || kernel_op(&giant.g, &giant.plan, alg)));
        // Time per unit of the kernel's own work: arc relaxations, Karp
        // table arcs or YTO heap operations.
        let c = &sol.counters;
        let work = counter_fields(c)
            .into_iter()
            .find(|(field, _)| *field == work_field)
            .map_or(0, |(_, value)| value);
        rep.metric(&format!("kernel.{name}.solve_ms"), solve, "ms");
        rep.metric(
            &format!("kernel.{name}.{per_work}"),
            solve * 1e6 / work.max(1) as f64,
            "ns",
        );
        rep.metric(
            &format!("share.giant_scc.{name}.kernel"),
            solve / (parse + scc + solve),
            "ratio",
        );
        report_counters(rep, &format!("kernel.{name}"), fields, c);
    }
    Ok(())
}

/// `DynamicSolver` on the `edit_stream` circuit: apply time by edit
/// kind, the rebuild proxy, cache behaviour and the speedup over a
/// from-scratch solve.
fn dynamic(seed: u64, rep: &mut Report) -> Result<(), String> {
    let base = inputs::edit_circuit(seed);
    let edits = inputs::edit_stream(&base, EDIT_CYCLE, seed);
    let r = replay_checked(&base, &edits, None, rep)?;
    let (mut stable, mut topo) = (Vec::new(), Vec::new());
    for (edit, &t) in edits.iter().zip(&r.apply_ms) {
        if inputs::changes_topology(edit) {
            topo.push(t);
        } else {
            stable.push(t);
        }
    }
    // What every batch pays before any component is solved: the CSR
    // rebuild and Tarjan, on the edited arc list.
    let arcs = r.solver.arcs();
    let nodes = r.solver.num_nodes();
    let rebuild = median(&sample(20, Duration::from_millis(200), || {
        let mut b = GraphBuilder::new();
        b.add_nodes(nodes);
        for a in arcs {
            b.add_arc_with_transit(NodeId::new(a.src), NodeId::new(a.dst), a.weight, a.transit);
        }
        SccPlan::prepare(&b.build())
    }));
    let apply = median(&r.apply_ms);
    rep.metric("dynamic.cache_hits", r.hits as f64, "count");
    rep.metric("dynamic.cache_misses", r.misses as f64, "count");
    rep.metric("dynamic.apply_ms.stable", median(&stable), "ms");
    rep.metric("dynamic.apply_ms.topo", median(&topo), "ms");
    rep.metric("dynamic.rebuild_ms", rebuild, "ms");
    rep.metric(
        "dynamic.cache_hit_ratio",
        r.hits as f64 / (r.hits + r.misses).max(1) as f64,
        "ratio",
    );
    // The share answered without a full solve (1 when none fell back).
    let incremental = 1.0 - r.full as f64 / edits.len() as f64;
    rep.metric("dynamic.incremental_ratio", incremental, "ratio");
    rep.metric("dynamic.speedup", median(&r.scratch_ms) / apply, "x");
    rep.metric("share.edit_stream.rebuild", rebuild / apply, "ratio");
    Ok(())
}

const SERVE_COUNTERS: [&str; 4] = [
    "serve.cache.hit",
    "serve.cache.miss",
    "serve.requests.accepted",
    "serve.requests.rejected",
];

/// The `mcrd` path piece by piece — socket round trip, request parse and
/// solve (each the mean over the requests) — then a short stream, as
/// `serve_stream` runs it, whose latency the pieces should explain; the
/// remainder is queue wait. The fsynced journal, which that stream leaves
/// off, is timed on its own.
fn serve(seed: u64, stream_for: Duration, scratch: &Path, rep: &mut Report) -> Result<(), String> {
    let fixture = Fixture::start(seed)?;
    let mut conn = Conn::open(&fixture.addr)?;
    let ping = |id: u64| format!("{{\"schema\":\"mcr-req v1\",\"id\":{id},\"op\":\"ping\"}}");
    let pong = conn.call(&ping(1))?;
    rep.check(
        pong.get("status").and_then(Value::as_str) == Some("ok"),
        || format!("ping answered {pong:?}"),
    );
    let mut id = 1;
    let rtt = median(&sample(200, Duration::from_millis(100), || {
        id += 1;
        conn.call(&ping(id))
    }));
    drop(conn);

    let log = &fixture.log;
    let (sized, small): (Vec<_>, Vec<_>) = log.iter().partition(|e| e.sized);
    let parse_ms: Vec<f64> = log
        .iter()
        .map(|e| {
            median(&sample(3, Duration::ZERO, || {
                parse_request(e.line.as_bytes()).is_ok()
            }))
        })
        .collect();
    let parse_median = |entries: &[&LogEntry]| {
        let mut i = 0;
        median(&sample(entries.len(), Duration::from_millis(50), || {
            i += 1;
            parse_request(entries[i % entries.len()].line.as_bytes()).is_ok()
        }))
    };
    let parse_us = 1e3 * parse_median(&small);
    let parse_sized = parse_median(&sized);
    let parse = mean(&parse_ms);

    let probe = scratch.join("journal-probe");
    let journal = Journal::open(&probe).map_err(|e| format!("journal: {e}"))?;
    let mut jid = 0;
    let journal_ms = median(&sample(50, Duration::from_millis(200), || {
        jid += 1;
        let line = &log[jid as usize % log.len()].line;
        journal
            .accept(jid, line)
            .and_then(|()| journal.done(jid, SolveStatus::Ok, Some("1")))
    }));
    drop(journal);
    let _ = std::fs::remove_dir_all(&probe);

    let per_request: Vec<f64> = log
        .iter()
        .filter(|e| e.job.deadline_ms != Some(0))
        .map(|e| {
            let opts = request_options(&e.job);
            median(&sample(3, Duration::ZERO, || {
                solve_spec(&e.graph, &e.job.spec, &opts)
            }))
        })
        .collect();
    let solve = mean(&per_request);

    let before = SERVE_COUNTERS.map(|name| fixture.metric(name));
    let stream = fixture.stream(stream_for, SERVE_CHUNK, 10_000_000)?;
    stream.tally(rep);
    let after = SERVE_COUNTERS.map(|name| fixture.metric(name));
    let [hits, misses, accepted, rejected] =
        [0, 1, 2, 3].map(|k| after[k].saturating_sub(before[k]) as f64);
    let latency = percentile(&stream.latencies, 0.5);
    let queue = latency - rtt - parse - solve;
    rep.metric("serve.latency_ms.p50", latency, "ms");
    rep.metric(
        "serve.latency_ms.p99",
        percentile(&stream.latencies, 0.99),
        "ms",
    );
    rep.metric(
        "serve.goodput_rps",
        stream.good as f64 / stream_for.as_secs_f64(),
        "1/s",
    );
    rep.metric("serve.ping_rtt_ms", rtt, "ms");
    rep.metric("serve.request_parse_us", parse_us, "us");
    rep.metric("serve.request_parse_ms.sized", parse_sized, "ms");
    rep.metric("serve.journal_append_ms", journal_ms, "ms");
    rep.metric("serve.solve_ms", solve, "ms");
    rep.metric("serve.queue_wait_ms.derived", queue, "ms");
    rep.metric(
        "serve.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    // Admitted share and sends per request, rather than the shed ratio and
    // the retry count, so that the healthy value is 1 and not 0.
    rep.metric(
        "serve.admitted_ratio",
        accepted / (accepted + rejected).max(1.0),
        "ratio",
    );
    let responses = stream.latencies.len().max(1) as f64;
    rep.metric(
        "serve.sends_per_request",
        1.0 + stream.retries as f64 / responses,
        "ratio",
    );
    rep.metric("serve.gen_lateness_ms.max", stream.max_lateness_ms, "ms");
    rep.metric("share.serve_stream.rtt", rtt / latency, "ratio");
    rep.metric("share.serve_stream.parse", parse / latency, "ratio");
    rep.metric("share.serve_stream.solve", solve / latency, "ratio");
    rep.metric("share.serve_stream.queue", queue / latency, "ratio");
    Ok(())
}
