//! The `serve_stream` load: an in-process `mcrd` without a journal,
//! driven open-loop by two threads over two connections.
//!
//! Requests come from `mcr-gen`: [`LOGS`] `request_log`s drawn from the
//! seed, with a sized request (a [`SIZED_NODES`]-node SPRAND graph inline)
//! after every fourth log line, re-sent under fresh ids. The log graphs
//! have 8 to 16 nodes, so a stream of them alone costs a few microseconds
//! of work per request, and its latency was mostly thread wake-ups, whose
//! cost moved by up to a third between runs of one seed; the sized requests
//! make it the daemon's own work. Each connection releases a burst every
//! [`PERIOD`] (the two offset by half a period), so the queue wait is real
//! while at most `CONNECTIONS × BURST` requests are outstanding — far
//! below the default queue depth, so nothing should be shed. Latency runs
//! from a request's due time, so a late generator shows as latency too.

use crate::inputs;
use crate::stats::{ms, process_cpu, SplitMix};
use crate::Report;
use mcr_core::spec::solve_spec;
use mcr_core::{Budget, SolveOptions};
use mcr_gen::requests::{request_log, RequestLogConfig};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_graph::io::read_dimacs;
use mcr_graph::Graph;
use mcr_serve::frame::{read_frame, write_frame};
use mcr_serve::json::{self, Value};
use mcr_serve::protocol::{parse_request, Op, SolveJob};
use mcr_serve::{serve, ServeConfig, ServerHandle};
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Request logs drawn from the seed, and requests in each; the stream
/// cycles through all of them and the sized requests. One log holds four
/// small graphs; with their solve costs a single log moved the cost of a
/// request by a tenth from one seed to the next. The 16 log graphs and the
/// sized ones together fit the daemon's default cache of 32, so every
/// request of the stream is a cache hit.
pub const LOGS: usize = 4;
pub const LOG_LEN: usize = 50;
/// Sized requests, the graphs they are spread over, and the graphs' nodes
/// (with four arcs a node, about 16 KB of DIMACS text).
pub const SIZED: usize = 50;
pub const SIZED_GRAPHS: usize = 10;
pub const SIZED_NODES: usize = 256;
/// Connections, one load thread each.
pub const CONNECTIONS: usize = 2;
/// Requests released at once on one connection.
pub const BURST: usize = 8;
/// Interval between one connection's bursts. Offered rate:
/// `CONNECTIONS × BURST / PERIOD` = 400 requests/s, at about 0.8 ms of
/// CPU each on average.
pub const PERIOD: Duration = Duration::from_millis(40);
/// A response later than this after its due time misses the limit.
pub const LIMIT_MS: f64 = 50.0;
/// Sends per request before an `overloaded` answer counts as shed.
const MAX_SENDS: u32 = 4;

/// What a correct response to one log line looks like.
#[derive(Clone, Debug, PartialEq)]
pub enum Expected {
    Lambda(String),
    Acyclic,
    Status(String),
}

/// One log line with its id cut out, to re-send under fresh ids.
pub struct Template {
    head: String,
    tail: String,
}

impl Template {
    fn new(line: &str) -> Result<Template, String> {
        let start = line.find("\"id\":").ok_or("log request without an id")? + 5;
        let len = line[start..]
            .find(|c: char| !c.is_ascii_digit())
            .ok_or("log request with an unterminated id")?;
        Ok(Template {
            head: line[..start].to_string(),
            tail: line[start + len..].to_string(),
        })
    }

    pub fn line(&self, id: u64) -> String {
        format!("{}{id}{}", self.head, self.tail)
    }
}

/// A request of the log, parsed: the job, its graph and its answer.
pub struct LogEntry {
    pub line: String,
    pub template: Template,
    pub job: SolveJob,
    pub graph: Graph,
    pub expected: Expected,
    /// One of the sized requests rather than a log line.
    pub sized: bool,
}

/// The options the daemon derives from a solve request.
pub fn request_options(job: &SolveJob) -> SolveOptions {
    let mut opts = SolveOptions::new()
        .threads(job.threads)
        .budget(job.budget.unwrap_or(Budget::UNLIMITED));
    opts.epsilon = job.epsilon;
    if let Some(fallback) = job.fallback {
        opts.fallback = fallback;
    }
    opts
}

/// The seed's requests with every answer computed in-process by
/// `solve_spec`: [`LOGS`] request logs, with one of the seed's sized
/// requests after every fourth log line.
pub fn request_entries(seed: u64) -> Result<Vec<LogEntry>, String> {
    let mut rng = SplitMix::new(seed);
    let mut small = Vec::new();
    for _ in 0..LOGS {
        small.extend(log_entries(rng.next_u64())?);
    }
    let mut sized = sized_lines(rng.next_u64()).into_iter();
    let mut entries = Vec::new();
    for (i, e) in small.into_iter().enumerate() {
        entries.push(e);
        if i % 4 == 3 {
            if let Some(line) = sized.next() {
                entries.push(entry(&line, true)?);
            }
        }
    }
    Ok(entries)
}

/// One seeded log with its answers. Its deterministic tail must come back
/// `cancelled` (an expired deadline) and `budget-exhausted` (one
/// refinement, no fallback).
fn log_entries(seed: u64) -> Result<Vec<LogEntry>, String> {
    let text = request_log(&RequestLogConfig::new(LOG_LEN).seed(seed));
    let entries = text
        .lines()
        .map(|line| entry(line, false))
        .collect::<Result<Vec<_>, _>>()?;
    let tail: Vec<&Expected> = entries.iter().rev().take(2).map(|e| &e.expected).collect();
    let want = [
        Expected::Status("budget-exhausted".to_string()),
        Expected::Status("cancelled".to_string()),
    ];
    if tail != want.iter().collect::<Vec<_>>() {
        return Err(format!("the log's deterministic tail answers {tail:?}"));
    }
    Ok(entries)
}

/// [`SIZED`] mean-solve requests over [`SIZED_GRAPHS`] SPRAND graphs of
/// [`SIZED_NODES`] nodes, alternating Howard-exact and YTO.
fn sized_lines(seed: u64) -> Vec<String> {
    let graphs: Vec<String> = (0..SIZED_GRAPHS as u64)
        .map(|k| {
            let g = sprand(
                &SprandConfig::new(SIZED_NODES, 4 * SIZED_NODES)
                    .seed(seed.wrapping_add(k))
                    .weight_range(1, 10_000),
            );
            inputs::dimacs(&g)
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        })
        .collect();
    (0..SIZED)
        .map(|i| {
            format!(
                "{{\"schema\":\"mcr-req v1\",\"id\":{},\"op\":\"solve\",\
                 \"graph\":\"{}\",\"algorithm\":\"{}\"}}",
                i + 1,
                graphs[i % SIZED_GRAPHS],
                ["howard-exact", "yto"][i / SIZED_GRAPHS % 2]
            )
        })
        .collect()
}

/// A request line parsed, with its answer computed in-process.
fn entry(line: &str, sized: bool) -> Result<LogEntry, String> {
    let job = match parse_request(line.as_bytes()).map_err(|e| e.message)?.op {
        Op::Solve(job) => *job,
        _ => return Err("the request log holds a non-solve op".to_string()),
    };
    let graph_text = job
        .graph_text
        .as_deref()
        .ok_or("log request without an inline graph")?;
    let graph = read_dimacs(&mut graph_text.as_bytes()).map_err(|e| format!("log graph: {e}"))?;
    let expected = if job.deadline_ms == Some(0) {
        Expected::Status("cancelled".to_string())
    } else {
        match solve_spec(&graph, &job.spec, &request_options(&job)) {
            Ok(Some(sol)) => Expected::Lambda(sol.lambda.to_string()),
            Ok(None) => Expected::Acyclic,
            Err(e) => Expected::Status(e.status().wire_name().to_string()),
        }
    };
    Ok(LogEntry {
        template: Template::new(line)?,
        line: line.to_string(),
        job,
        graph,
        expected,
        sized,
    })
}

/// Whether response `v` is the correct answer `expected`.
pub fn matches(v: &Value, expected: &Expected) -> bool {
    let status = v.get("status").and_then(Value::as_str);
    match expected {
        Expected::Lambda(l) => {
            status == Some("ok") && v.get("lambda").and_then(Value::as_str) == Some(l.as_str())
        }
        Expected::Acyclic => {
            status == Some("ok") && v.get("acyclic").and_then(Value::as_bool) == Some(true)
        }
        Expected::Status(s) => status == Some(s.as_str()),
    }
}

/// One framed client connection. Writes are buffered so that a frame's
/// length prefix and payload leave in one system call.
pub struct Conn {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(30))))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Conn {
            writer: BufWriter::new(
                stream
                    .try_clone()
                    .map_err(|e| format!("clone socket: {e}"))?,
            ),
            reader: BufReader::new(stream),
        })
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        write_frame(&mut self.writer, line.as_bytes()).map_err(|e| format!("send: {e}"))
    }

    pub fn recv(&mut self) -> Result<Value, String> {
        let payload = read_frame(&mut self.reader)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("the daemon closed the connection")?;
        let text = String::from_utf8(payload).map_err(|_| "non-UTF-8 response".to_string())?;
        json::parse(&text).map_err(|e| format!("response: {e}"))
    }

    pub fn call(&mut self, line: &str) -> Result<Value, String> {
        self.send(line)?;
        self.recv()
    }
}

/// A running daemon with a warm cache; shut down on drop.
pub struct Fixture {
    handle: Option<ServerHandle>,
    pub addr: String,
    pub log: Vec<LogEntry>,
}

/// What one stream saw.
#[derive(Default)]
pub struct StreamStats {
    pub latencies: Vec<f64>,
    /// When each request of `latencies` was due, after the stream began.
    pub due: Vec<Duration>,
    /// Process CPU time at the start of each chunk of the stream and at
    /// the end of the last one.
    pub cpu_marks: Vec<Duration>,
    /// Correct responses within [`LIMIT_MS`].
    pub good: u64,
    pub wrong: Vec<String>,
    pub retries: u64,
    /// The most a burst was sent after its due time.
    pub max_lateness_ms: f64,
}

impl StreamStats {
    /// The latencies of the requests due in each whole chunk, with the
    /// process CPU time spent in it.
    pub fn chunks(&self, chunk: Duration) -> Vec<(Duration, Vec<f64>)> {
        let mut out: Vec<(Duration, Vec<f64>)> = self
            .cpu_marks
            .windows(2)
            .map(|w| (w[1].saturating_sub(w[0]), Vec::new()))
            .collect();
        for (due, &latency) in self.due.iter().zip(&self.latencies) {
            let c = (due.as_secs_f64() / chunk.as_secs_f64()) as usize;
            if let Some((_, l)) = out.get_mut(c) {
                l.push(latency);
            }
        }
        out
    }

    /// Counts every response as one checked operation.
    pub fn tally(&self, rep: &mut Report) {
        for _ in self.wrong.len()..self.latencies.len() {
            rep.check(true, String::new);
        }
        for w in &self.wrong {
            rep.fail(w.clone());
        }
    }
}

impl Fixture {
    /// Computes the requests' answers, starts a daemon (2 workers, no
    /// journal, every other setting at its default) and warms its cache
    /// with one checked pass over the requests.
    pub fn start(seed: u64) -> Result<Fixture, String> {
        let log = request_entries(seed)?;
        let handle = serve(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("daemon start: {e}"))?;
        let fixture = Fixture {
            addr: handle.local_addr().to_string(),
            handle: Some(handle),
            log,
        };
        let mut conn = Conn::open(&fixture.addr)?;
        for (i, entry) in fixture.log.iter().enumerate() {
            let v = conn.call(&entry.template.line(i as u64 + 1))?;
            if !matches(&v, &entry.expected) {
                return Err(format!(
                    "warm-up request {}: got {v:?}, want {:?}",
                    i + 1,
                    entry.expected
                ));
            }
        }
        Ok(fixture)
    }

    /// One daemon counter by its `mcr-metrics v1` name.
    pub fn metric(&self, name: &str) -> u64 {
        self.handle
            .as_ref()
            .and_then(|h| h.metric(name))
            .unwrap_or(0)
    }

    /// Runs the open-loop stream for `duration`, cut into chunks of
    /// `chunk`; request ids start above `id_base`.
    pub fn stream(
        &self,
        duration: Duration,
        chunk: Duration,
        id_base: u64,
    ) -> Result<StreamStats, String> {
        let t0 = Instant::now() + Duration::from_millis(5);
        let mut cpu_marks = Vec::new();
        let results: Vec<Result<StreamStats, String>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..CONNECTIONS)
                .map(|c| s.spawn(move || self.drive(c, t0, duration, id_base)))
                .collect();
            let chunks = (duration.as_secs_f64() / chunk.as_secs_f64()) as u32;
            for c in 0..=chunks {
                let at = t0 + chunk * c;
                let now = Instant::now();
                if now < at {
                    std::thread::sleep(at - now);
                }
                cpu_marks.push(process_cpu());
            }
            threads
                .into_iter()
                .map(|t| {
                    t.join()
                        .unwrap_or_else(|_| Err("load thread panicked".to_string()))
                })
                .collect()
        });
        let mut total = StreamStats {
            cpu_marks,
            ..StreamStats::default()
        };
        for r in results {
            let r = r?;
            total.latencies.extend(r.latencies);
            total.due.extend(r.due);
            total.good += r.good;
            total.wrong.extend(r.wrong);
            total.retries += r.retries;
            total.max_lateness_ms = total.max_lateness_ms.max(r.max_lateness_ms);
        }
        Ok(total)
    }

    /// One connection's share of the stream.
    fn drive(
        &self,
        conn_index: usize,
        t0: Instant,
        duration: Duration,
        id_base: u64,
    ) -> Result<StreamStats, String> {
        let mut conn = Conn::open(&self.addr)?;
        let mut st = StreamStats::default();
        let offset = PERIOD * conn_index as u32 / CONNECTIONS as u32;
        let n = self.log.len();
        let mut next = conn_index * n / CONNECTIONS;
        let mut pending: BTreeMap<u64, (usize, u32)> = BTreeMap::new();
        for k in 0u32.. {
            let due = t0 + offset + PERIOD * k;
            if due >= t0 + duration {
                break;
            }
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let late = Instant::now().saturating_duration_since(due);
            st.max_lateness_ms = st.max_lateness_ms.max(ms(late));
            for b in 0..BURST {
                let seq = u64::from(k) * BURST as u64 + b as u64;
                let id = id_base + seq * CONNECTIONS as u64 + conn_index as u64;
                let idx = next % n;
                next += 1;
                conn.send(&self.log[idx].template.line(id))?;
                pending.insert(id, (idx, 1));
            }
            while !pending.is_empty() {
                let v = conn.recv()?;
                let latency = ms(due.elapsed());
                let id = v
                    .get("id")
                    .and_then(Value::as_u64)
                    .ok_or("response without an id")?;
                let (idx, sends) = pending
                    .get(&id)
                    .copied()
                    .ok_or_else(|| format!("response for unknown id {id}"))?;
                let status = v.get("status").and_then(Value::as_str);
                if status == Some("overloaded") && sends < MAX_SENDS {
                    let hint = v
                        .get("retry_after_ms")
                        .and_then(Value::as_u64)
                        .unwrap_or(10);
                    std::thread::sleep(Duration::from_millis(hint));
                    conn.send(&self.log[idx].template.line(id))?;
                    pending.insert(id, (idx, sends + 1));
                    st.retries += 1;
                    continue;
                }
                pending.remove(&id);
                st.latencies.push(latency);
                st.due.push(due - t0);
                if status == Some("overloaded") {
                    st.wrong
                        .push(format!("request {id} shed after {sends} sends"));
                } else if !matches(&v, &self.log[idx].expected) {
                    st.wrong.push(format!(
                        "request {id} (log line {}): got {v:?}, want {:?}",
                        idx + 1,
                        self.log[idx].expected
                    ));
                } else if latency <= LIMIT_MS {
                    st.good += 1;
                }
            }
        }
        Ok(st)
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}
