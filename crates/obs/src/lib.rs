//! mcr-obs: structured solve traces and a unified metrics registry.
//!
//! This crate is the recording half of the observability layer described
//! in DESIGN.md. It is linked into `mcr-core` only when core's `obs`
//! feature is on (the same compile-out contract as `mcr-chaos`, asserted
//! by `cargo tree` in CI). Its only dependency is `mcr-graph`, for the
//! workspace's one JSON writer ([`mcr_graph::json::ObjWriter`]).
//!
//! # Model
//!
//! A [`Recorder`] is a value, not a global: each solve records into the
//! recorder its options carry (`mcr_core::SolveOptions::recorder`), and
//! a solve with none records nothing. Solves that share one recorder
//! (its clones share the state) get consecutive solve indices; two
//! solves with their own recorders never mix, whatever threads they
//! run on:
//!
//! ```
//! let recorder = mcr_obs::Recorder::new();
//! recorder.counter_add("heap.insert", 3);
//! recorder.job_event(0, "job.start", vec![("alg", "Karp".into())]);
//! let report = recorder.report();
//! assert_eq!(report.counters["heap.insert"], 3);
//! ```
//!
//! A recorder accumulates three kinds of data:
//!
//! * **Events** — spans and point events (`solve.start`, `job.end`,
//!   `attempt.start`, `fallback.hop`, `checkpoint.save`,
//!   `fault.injected`, `cancel.observed`, ...). Every event carries a
//!   deterministic ordering key `(solve, phase, job, seq)` plus a wall
//!   clock timestamp that is *excluded* from ordering, so the rendered
//!   trace is stable across thread counts and machine speeds: each SCC
//!   job is solved by exactly one thread, so its per-job sequence
//!   numbers are reproducible even though jobs interleave in real time.
//! * **Counters** — named monotonic `u64` counters. The per-solve
//!   `Counters` structs that the algorithms already thread by hand are
//!   absorbed here once per solve under `solve.*` / `heap.*` names, and
//!   each budgeted algorithm loop registers its own scope-local
//!   `loop.<site>.*` counts (lint rule MCRL006 enforces this).
//! * **Timings** — named duration aggregates (count/total/min/max).
//!
//! [`Recorder::report`] returns a [`Report`] which renders to the
//! versioned JSONL schemas `mcr-trace v1` and `mcr-metrics v1`, or to a
//! human summary table. Goldens use [`Timestamps::Normalized`], which
//! zeroes every wall-clock field while keeping the deterministic parts.

use mcr_graph::json::ObjWriter;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Version tag stamped on every trace JSONL line.
pub const TRACE_SCHEMA: &str = "mcr-trace v1";
/// Version tag stamped on every metrics JSONL line.
pub const METRICS_SCHEMA: &str = "mcr-metrics v1";
/// Numeric trace schema version; bump together with [`TRACE_SCHEMA`].
/// The golden suite pins this so schema drift fails loudly with
/// instructions instead of silently rewriting snapshots.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// A field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Which part of a solve an event belongs to. The phase is the second
/// component of the deterministic ordering key, so solve-level start
/// events sort before every job event, which sort before solve-level
/// end events, regardless of wall-clock interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Solve-level events emitted before jobs run (`solve.start`).
    Setup = 0,
    /// Job-scoped events (and global mid-solve events, which sort after
    /// all job streams within the phase).
    Jobs = 1,
    /// Solve-level events emitted after jobs finish (`solve.end`).
    Teardown = 2,
}

impl Phase {
    fn as_u8(self) -> u8 {
        match self {
            Phase::Setup => 0,
            Phase::Jobs => 1,
            Phase::Teardown => 2,
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Index of the enclosing solve (0-based, incremented by each
    /// `solve.start`).
    pub solve: u64,
    /// Ordering phase within the solve.
    pub phase: Phase,
    /// SCC job index for job-scoped events; `None` for solve-level and
    /// global events. Job indices come from the driver's deterministic
    /// Tarjan-order job extraction, the same key checkpointing uses.
    pub job: Option<u64>,
    /// Sequence number within this event's `(solve, phase, job)` stream.
    pub seq: u64,
    /// Wall-clock nanoseconds since the recorder was created.
    /// Excluded from ordering; zeroed by [`Timestamps::Normalized`].
    pub elapsed_ns: u64,
    /// Event kind, e.g. `"job.start"` or `"fault.injected"`.
    pub kind: &'static str,
    /// Free-form payload fields, rendered after the fixed keys.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// The deterministic sort key. Within [`Phase::Jobs`], events with a
    /// job index sort by job then sequence; global (job-less) events
    /// sort after every job stream.
    fn sort_key(&self) -> (u64, u8, u64, u64) {
        let job_key = self.job.unwrap_or(u64::MAX);
        (self.solve, self.phase.as_u8(), job_key, self.seq)
    }
}

/// Duration aggregate for one named timing metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Timing {
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

impl Timing {
    fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count = self.count.saturating_add(1);
        self.total_ns = self.total_ns.saturating_add(ns);
    }
}

/// Whether rendered output keeps real wall-clock values or zeroes them
/// for byte-stable golden comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timestamps {
    /// Real elapsed times and timing aggregates.
    Wall,
    /// Every wall-clock-derived field rendered as zero; the
    /// deterministic ordering key, event payloads, counters, and timing
    /// *counts* are kept.
    Normalized,
}

struct State {
    started: Instant,
    /// Index of the solve currently being recorded; `solve.start`
    /// advances it. Concurrent solves under one recorder would share an
    /// index, so concurrent solves each carry their own recorder.
    current_solve: u64,
    solves_started: u64,
    /// Next sequence number per `(solve, phase, job-or-MAX)` stream.
    seqs: BTreeMap<(u64, u8, u64), u64>,
    events: Vec<Event>,
    counters: BTreeMap<String, u64>,
    timings: BTreeMap<String, Timing>,
}

impl State {
    fn new() -> Self {
        State {
            // lint: allow(nondet) reason=wall anchor only; every emitted t_ns is relative to it and Timestamps::Normalized zeroes them for goldens
            started: Instant::now(),
            current_solve: 0,
            solves_started: 0,
            seqs: BTreeMap::new(),
            events: Vec::new(),
            counters: BTreeMap::new(),
            timings: BTreeMap::new(),
        }
    }

    fn push_event(&mut self, phase: Phase, job: Option<u64>, kind: &'static str, fields: Vec<(&'static str, Value)>) {
        let solve = self.current_solve;
        let stream = (solve, phase.as_u8(), job.unwrap_or(u64::MAX));
        let seq = self.seqs.entry(stream).or_insert(0);
        let event = Event {
            solve,
            phase,
            job,
            seq: *seq,
            elapsed_ns: u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            kind,
            fields,
        };
        *seq = seq.saturating_add(1);
        self.events.push(event);
    }
}

/// A recorder: a cloneable handle to one recording. Clones share it, so
/// one handle can ride in a solve's options into every worker thread,
/// and the solves that share a handle share its solve index; two
/// recorders never see each other's events or counters.
#[derive(Clone)]
pub struct Recorder {
    state: Arc<Mutex<State>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// Recorders compare by identity (clones of one recorder are equal),
/// like `mcr_core::CancelToken`, so options that carry one keep their
/// `PartialEq`.
impl PartialEq for Recorder {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.state, &other.state)
    }
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder").finish_non_exhaustive()
    }
}

impl Recorder {
    /// A fresh, empty recorder; its wall-clock timestamps count from now.
    pub fn new() -> Self {
        Recorder {
            state: Arc::new(Mutex::new(State::new())),
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        // A panic while holding the lock poisons it; the state itself
        // stays coherent (every mutation is a single guarded section),
        // so recover the inner value rather than propagating the poison.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a solve-level start event ([`Phase::Setup`]) and advances
    /// the solve index.
    pub fn solve_start(&self, fields: Vec<(&'static str, Value)>) {
        let mut state = self.state();
        state.current_solve = state.solves_started;
        state.solves_started = state.solves_started.saturating_add(1);
        state.push_event(Phase::Setup, None, "solve.start", fields);
    }

    /// Records a solve-level end event ([`Phase::Teardown`]).
    pub fn solve_end(&self, kind: &'static str, fields: Vec<(&'static str, Value)>) {
        self.state().push_event(Phase::Teardown, None, kind, fields);
    }

    /// Records an event scoped to SCC job `job` ([`Phase::Jobs`]). Each
    /// job runs on exactly one thread, so its sequence numbers — and
    /// therefore the rendered order — are identical at any thread count.
    pub fn job_event(&self, job: u64, kind: &'static str, fields: Vec<(&'static str, Value)>) {
        self.state().push_event(Phase::Jobs, Some(job), kind, fields);
    }

    /// Records a mid-solve event with no job scope (e.g. a fault
    /// injected outside any job). These sort after all job streams
    /// within the phase; their relative order across threads is
    /// observation order, so goldens use single-job or single-threaded
    /// configurations for them.
    pub fn global_event(&self, kind: &'static str, fields: Vec<(&'static str, Value)>) {
        self.state().push_event(Phase::Jobs, None, kind, fields);
    }

    /// Adds `delta` to the named monotonic counter; a zero delta
    /// creates nothing.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        let mut state = self.state();
        let slot = state.counters.entry(name.to_owned()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Records one duration sample for the named timing metric.
    pub fn timing_record(&self, name: &str, ns: u64) {
        self.state().timings.entry(name.to_owned()).or_default().record(ns);
    }

    /// Everything recorded so far, sorted into the deterministic event
    /// order. Recording may continue afterwards.
    pub fn report(&self) -> Report {
        Report::from_state(&self.state())
    }
}

/// Everything one recorder captured, ready to render.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Events in deterministic `(solve, phase, job, seq)` order.
    pub events: Vec<Event>,
    /// Monotonic counters, name-sorted (BTreeMap order).
    pub counters: BTreeMap<String, u64>,
    /// Timing aggregates, name-sorted.
    pub timings: BTreeMap<String, Timing>,
}

impl Report {
    fn from_state(state: &State) -> Self {
        let mut events = state.events.clone();
        events.sort_by_key(Event::sort_key);
        Report {
            events,
            counters: state.counters.clone(),
            timings: state.timings.clone(),
        }
    }

    /// Renders the trace as `mcr-trace v1` JSONL: a header line, then
    /// one line per event in deterministic order.
    pub fn trace_jsonl(&self, timestamps: Timestamps) -> String {
        let mut out = String::new();
        out.push_str(
            &ObjWriter::new()
                .str("schema", TRACE_SCHEMA)
                .str("kind", "trace.header")
                .u64("version", u64::from(TRACE_SCHEMA_VERSION))
                .u64("events", self.events.len() as u64)
                .finish(),
        );
        out.push('\n');
        for (i, event) in self.events.iter().enumerate() {
            let t_ns = match timestamps {
                Timestamps::Wall => event.elapsed_ns,
                Timestamps::Normalized => 0,
            };
            let mut obj = ObjWriter::new()
                .str("schema", TRACE_SCHEMA)
                .u64("i", i as u64)
                .str("kind", event.kind)
                .u64("solve", event.solve)
                .u64("phase", u64::from(event.phase.as_u8()));
            if let Some(job) = event.job {
                obj = obj.u64("job", job);
            }
            obj = obj.u64("seq", event.seq).u64("t_ns", t_ns);
            for (key, value) in &event.fields {
                obj = match value {
                    Value::U64(v) => obj.u64(key, *v),
                    Value::I64(v) => obj.i64(key, *v),
                    Value::F64(v) => obj.f64(key, *v),
                    Value::Str(v) => obj.str(key, v),
                };
            }
            out.push_str(&obj.finish());
            out.push('\n');
        }
        out
    }

    /// Renders the registry as `mcr-metrics v1` JSONL: a header line,
    /// then one line per counter, then one line per timing.
    pub fn metrics_jsonl(&self, timestamps: Timestamps) -> String {
        let mut out = String::new();
        out.push_str(
            &ObjWriter::new()
                .str("schema", METRICS_SCHEMA)
                .str("kind", "metrics.header")
                .u64("counters", self.counters.len() as u64)
                .u64("timings", self.timings.len() as u64)
                .finish(),
        );
        out.push('\n');
        for (name, value) in &self.counters {
            out.push_str(
                &ObjWriter::new()
                    .str("schema", METRICS_SCHEMA)
                    .str("kind", "counter")
                    .str("name", name)
                    .u64("value", *value)
                    .finish(),
            );
            out.push('\n');
        }
        for (name, timing) in &self.timings {
            let (total, min, max) = match timestamps {
                Timestamps::Wall => (timing.total_ns, timing.min_ns, timing.max_ns),
                Timestamps::Normalized => (0, 0, 0),
            };
            out.push_str(
                &ObjWriter::new()
                    .str("schema", METRICS_SCHEMA)
                    .str("kind", "timing")
                    .str("name", name)
                    .u64("count", timing.count)
                    .u64("total_ns", total)
                    .u64("min_ns", min)
                    .u64("max_ns", max)
                    .finish(),
            );
            out.push('\n');
        }
        out
    }

    /// Renders the human-facing summary table the CLI prints under
    /// `--summary`. With [`Timestamps::Normalized`] all wall-clock
    /// columns show `-` so the layout itself can be golden-tested.
    pub fn summary(&self, timestamps: Timestamps) -> String {
        let mut out = String::new();
        out.push_str(&format!("observability summary ({TRACE_SCHEMA})\n"));

        let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
        for event in &self.events {
            *by_kind.entry(event.kind).or_insert(0) += 1;
        }
        out.push_str(&format!("  events: {}\n", self.events.len()));
        for (kind, count) in &by_kind {
            out.push_str(&format!("    {kind:<24} {count:>10}\n"));
        }

        out.push_str(&format!("  counters: {}\n", self.counters.len()));
        for (name, value) in &self.counters {
            out.push_str(&format!("    {name:<32} {value:>14}\n"));
        }

        out.push_str(&format!("  timings: {}\n", self.timings.len()));
        if !self.timings.is_empty() {
            out.push_str(&format!(
                "    {:<24} {:>8} {:>12} {:>12} {:>12}\n",
                "name", "count", "total_ms", "min_ms", "max_ms"
            ));
        }
        for (name, timing) in &self.timings {
            match timestamps {
                Timestamps::Wall => {
                    let ms = |ns: u64| ns as f64 / 1.0e6;
                    out.push_str(&format!(
                        "    {:<24} {:>8} {:>12.3} {:>12.3} {:>12.3}\n",
                        name,
                        timing.count,
                        ms(timing.total_ns),
                        ms(timing.min_ns),
                        ms(timing.max_ns)
                    ));
                }
                Timestamps::Normalized => {
                    out.push_str(&format!(
                        "    {:<24} {:>8} {:>12} {:>12} {:>12}\n",
                        name, timing.count, "-", "-", "-"
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separate_recorders_never_mix() {
        let a = Recorder::new();
        let b = Recorder::new();
        a.counter_add("x", 1);
        a.job_event(0, "job.start", Vec::new());
        b.timing_record("t", 10);
        let (ra, rb) = (a.report(), b.report());
        assert_eq!(ra.counters.get("x"), Some(&1));
        assert_eq!(ra.events.len(), 1);
        assert!(ra.timings.is_empty());
        assert!(rb.events.is_empty());
        assert!(rb.counters.is_empty());
        assert_eq!(rb.timings["t"].count, 1);
        let fresh = Recorder::new().report();
        assert!(fresh.events.is_empty() && fresh.counters.is_empty() && fresh.timings.is_empty());
    }

    #[test]
    fn clones_share_one_recording() {
        let a = Recorder::new();
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, Recorder::new());
        b.counter_add("x", 2);
        a.counter_add("x", 3);
        assert_eq!(a.report().counters["x"], 5);
        // A report is a snapshot: recording continues after it.
        a.counter_add("x", 1);
        assert_eq!(b.report().counters["x"], 6);
    }

    #[test]
    fn concurrent_recorders_each_keep_their_own_counts() {
        let reports: Vec<Report> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..=8u64)
                .map(|k| {
                    s.spawn(move || {
                        let r = Recorder::new();
                        r.solve_start(Vec::new());
                        for job in 0..k {
                            r.job_event(job, "job.start", Vec::new());
                            r.counter_add("jobs", 1);
                        }
                        r.report()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        for (k, report) in (1..=8u64).zip(&reports) {
            assert_eq!(report.counters["jobs"], k);
            assert_eq!(report.events.len() as u64, k + 1);
            assert!(report.events.iter().all(|e| e.solve == 0));
        }
    }

    #[test]
    fn events_sort_by_solve_phase_job_seq() {
        let r = Recorder::new();
        r.solve_start(vec![("n", 4u64.into())]);
        // Emit job events out of job order, as a thread race would.
        r.job_event(2, "job.start", Vec::new());
        r.job_event(0, "job.start", Vec::new());
        r.job_event(0, "job.end", Vec::new());
        r.job_event(2, "job.end", Vec::new());
        r.global_event("fault.injected", vec![("site", "core.karp.level".into())]);
        r.solve_end("solve.end", vec![("status", "ok".into())]);
        let report = r.report();
        let kinds: Vec<(&str, Option<u64>)> = report.events.iter().map(|e| (e.kind, e.job)).collect();
        assert_eq!(
            kinds,
            vec![
                ("solve.start", None),
                ("job.start", Some(0)),
                ("job.end", Some(0)),
                ("job.start", Some(2)),
                ("job.end", Some(2)),
                ("fault.injected", None),
                ("solve.end", None),
            ]
        );
        // Per-stream sequence numbers restart at 0.
        assert_eq!(report.events[1].seq, 0);
        assert_eq!(report.events[2].seq, 1);
        assert_eq!(report.events[3].seq, 0);
    }

    #[test]
    fn counters_and_timings_accumulate() {
        let r = Recorder::new();
        r.counter_add("heap.insert", 2);
        r.counter_add("heap.insert", 3);
        r.counter_add("zero", 0); // zero deltas create nothing
        r.timing_record("driver.job", 10);
        r.timing_record("driver.job", 4);
        let report = r.report();
        assert_eq!(report.counters.get("heap.insert"), Some(&5));
        assert!(!report.counters.contains_key("zero"));
        let t = report.timings["driver.job"];
        assert_eq!((t.count, t.total_ns, t.min_ns, t.max_ns), (2, 14, 4, 10));
    }

    #[test]
    fn normalized_trace_is_deterministic() {
        let render = || {
            let r = Recorder::new();
            r.solve_start(vec![("alg", "Karp".into())]);
            r.job_event(0, "job.start", vec![("nodes", 3u64.into())]);
            r.job_event(0, "job.end", vec![("status", "ok".into())]);
            r.solve_end("solve.end", Vec::new());
            r.counter_add("solve.iterations", 7);
            r.timing_record("driver.job", 123);
            let report = r.report();
            (
                report.trace_jsonl(Timestamps::Normalized),
                report.metrics_jsonl(Timestamps::Normalized),
                report.summary(Timestamps::Normalized),
            )
        };
        let (t1, m1, s1) = render();
        let (t2, m2, s2) = render();
        assert_eq!(t1, t2);
        assert_eq!(m1, m2);
        assert_eq!(s1, s2);
        assert!(t1.lines().next().is_some_and(|l| l.contains("trace.header")));
        assert!(t1.contains(r#""schema":"mcr-trace v1""#));
        assert!(t1.contains(r#""t_ns":0"#));
        assert!(m1.contains(r#""name":"solve.iterations","value":7"#));
        assert!(m1.contains(r#""total_ns":0"#));
        assert!(s1.contains("driver.job"));
    }

    #[test]
    fn wall_trace_reports_real_timestamps() {
        let r = Recorder::new();
        r.solve_start(Vec::new());
        r.timing_record("driver.job", 500);
        let wall = r.report().metrics_jsonl(Timestamps::Wall);
        assert!(wall.contains(r#""total_ns":500"#));
    }

    #[test]
    fn second_solve_increments_solve_index() {
        let r = Recorder::new();
        r.solve_start(Vec::new());
        r.solve_end("solve.end", Vec::new());
        r.solve_start(Vec::new());
        r.job_event(0, "job.start", Vec::new());
        let report = r.report();
        assert_eq!(report.events[0].solve, 0);
        assert_eq!(report.events.last().map(|e| e.solve), Some(1));
    }
}
