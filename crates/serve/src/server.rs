//! The daemon: admission control, the worker pool, and recovery.
//!
//! # Request lifecycle
//!
//! A connection's reader thread parses frames and dispatches each
//! request to a `handle_*` function (every one installs a
//! [`RequestGuard`] — lint rule MCRL008). `ping`, `metrics`, and
//! `shutdown` answer inline; `solve` goes through admission:
//!
//! 1. under the queue lock, reject with `overloaded` + `retry_after_ms`
//!    if the bounded queue is full (load shedding — the daemon degrades
//!    by refusing work, never by growing without bound);
//! 2. append (fsynced) the raw request to the journal, if one is
//!    configured — a request is only admitted once it would survive a
//!    `kill -9`;
//! 3. enqueue and wake a worker.
//!
//! Workers re-check the deadline at dequeue (queue wait counts), then
//! resolve the graph through the LRU cache, solve via
//! [`mcr_core::spec::solve_spec`] — the *same* dispatch the one-shot
//! CLI uses, which is what makes daemon responses bit-identical to CLI
//! runs — certify the witness, respond, and mark the journal entry
//! done. Long budget-free solves of the checkpointable algorithms run
//! in bounded iteration slices, snapshotting `mcr-checkpoint v2` state
//! to the journal directory between slices so a crash loses at most
//! one slice of progress.
//!
//! A question the cached instance has already answered skips the
//! solve: the cache entry keeps its certified answers keyed by
//! [`cache::Question`] (everything in the request that reaches the
//! solver, not the id or the deadline). The lookup runs after the
//! deadline check and the `serve.worker.solve` failpoint; the answer is
//! certified and rendered as a fresh one would be, so the response
//! bytes are a fresh solve's. Errors are never stored, and an `edit`
//! empties the store (see [`GraphCache::remember`]).
//!
//! # Restart
//!
//! [`serve`] replays the journal before accepting connections:
//! accepted-but-unfinished requests re-enter the queue (oldest first)
//! and their solves resume from the on-disk checkpoints. Responses for
//! recovered requests cannot be delivered (the connection died with
//! the old process) — completion is recorded as a `recovered` journal
//! line carrying the λ, which is the audit trail the CI restart stage
//! asserts on.
//!
//! With journaling enabled, request ids name journal entries, so
//! clients must not reuse an id while a previous request with that id
//! is still in flight.
//!
//! # Duplicate suppression
//!
//! A fleet client that re-sends after a possibly-delivered write marks
//! the re-send `"dedup":true`. For such requests the daemon consults
//! its settled log (seeded from the journal's `done`/`recovered`
//! entries at startup, updated on every completion): an already-settled
//! id is answered with [`protocol::resp_deduped`] — the journaled
//! status and λ, no re-solve — and an id still in flight is answered
//! `overloaded` + `retry_after_ms` so the client backs off until the
//! original settles. Requests without the flag never dedup, so
//! independent clients may freely reuse ids (the concurrent soak does).
//!
//! # Drain
//!
//! A wire `shutdown` op drains: admission stops (new solves shed with
//! `overloaded`), queued work settles, then the workers stop. The
//! in-process [`ServerHandle::shutdown`] stays a hard stop — queued
//! work is left journaled for the next start, which is the crash-
//! recovery path the restart tests pin.

use crate::cache::{self, GraphCache, Question, Resolved};
use crate::chaos;
use crate::frame;
use crate::guard::RequestGuard;
use crate::journal::Journal;
use crate::metrics::Metrics;
use crate::protocol::{self, EditJob, Op, Request, SolveJob};
use mcr_core::error::BudgetResource;
use mcr_core::spec::solve_spec;
use mcr_core::{
    certify, Algorithm, Budget, CheckpointStore, DynamicSolver, FallbackChain, Objective, SccPlan,
    SolveError, SolveOptions, SolveStatus, SpecError,
};
use mcr_graph::io::read_dimacs;
use mcr_graph::Graph;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How the daemon is wired; every knob has a conservative default.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Worker threads. 0 is legal: requests are admitted (and
    /// journaled) but nothing solves until a restart brings workers —
    /// the CI crash stage uses this to make `kill -9` deterministic.
    pub workers: usize,
    /// Bounded queue depth; admissions beyond it are shed with
    /// `overloaded`.
    pub queue_depth: usize,
    /// LRU graph cache capacity (instances); 0 disables caching.
    pub cache_capacity: usize,
    /// Journal directory; `None` disables journaling (and therefore
    /// sliced solves and crash recovery).
    pub journal_dir: Option<PathBuf>,
    /// Iterations per checkpoint slice for the sliced-solve loop.
    pub slice_iterations: u64,
    /// `retry_after_ms` hint attached to load-shed responses.
    pub retry_after_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 64,
            cache_capacity: 32,
            journal_dir: None,
            slice_iterations: 64,
            retry_after_ms: 50,
        }
    }
}

/// Safety net for the sliced-solve loop; with 64-iteration slices this
/// is far beyond any converging instance.
const MAX_SLICES: u64 = 1_000_000;

type ReplyHandle = Arc<Mutex<TcpStream>>;

struct QueuedJob {
    id: u64,
    solve: Box<SolveJob>,
    accepted_at: Instant,
    /// `None` for requests recovered from the journal: their client's
    /// connection died with the previous process.
    reply: Option<ReplyHandle>,
    frame_len: usize,
}

/// Bounded insertion-ordered log of settled outcomes, the in-memory
/// face of the journal's `done`/`recovered` entries. Bounded so a
/// long-lived daemon cannot grow it without limit; eviction is
/// oldest-first, which only weakens dedup for ids settled more than
/// `SETTLED_CAP` completions ago.
struct SettledLog {
    // BTreeMap, not HashMap: anything that ever iterates the log (a
    // future dump/debug endpoint) must see one order regardless of
    // hasher seed — the determinism contract (lint MCRL010).
    by_id: BTreeMap<u64, (SolveStatus, Option<String>)>,
    order: VecDeque<u64>,
}

/// How many settled outcomes the dedup log retains.
const SETTLED_CAP: usize = 16 * 1024;

impl SettledLog {
    fn new() -> SettledLog {
        SettledLog {
            by_id: BTreeMap::new(),
            order: VecDeque::new(),
        }
    }

    fn insert(&mut self, id: u64, status: SolveStatus, lambda: Option<String>) {
        if self.by_id.insert(id, (status, lambda)).is_none() {
            self.order.push_back(id);
        }
        while self.order.len() > SETTLED_CAP {
            if let Some(old) = self.order.pop_front() {
                self.by_id.remove(&old);
            }
        }
    }

    fn get(&self, id: u64) -> Option<&(SolveStatus, Option<String>)> {
        self.by_id.get(&id)
    }
}

/// Declared lock order (lint MCRL014): nested acquisitions must move
/// strictly rightward in
///
/// > `queue` → `file` (journal) → `settled` → `inflight` → `cache` → reply
///
/// so no two paths can ever wait on each other's lock. The real
/// nestings today: admission holds `queue` across the journal append
/// (`file`), and the dedup/shed paths hold `settled`/`inflight` across
/// the reply write.
struct Shared {
    cfg: ServeConfig,
    metrics: Metrics,
    queue: Mutex<VecDeque<QueuedJob>>,
    cond: Condvar,
    stop: AtomicBool,
    /// Wire-`shutdown` drain: admission refuses new solves while queued
    /// work settles; the workers flip `stop` once the queue is empty.
    draining: AtomicBool,
    cache: Mutex<GraphCache>,
    journal: Option<Journal>,
    /// Settled outcomes for duplicate suppression.
    settled: Mutex<SettledLog>,
    /// Ids admitted (or recovered) but not yet settled. BTreeSet so any
    /// future iteration (drain reporting, debug dumps) is
    /// hasher-independent (lint MCRL010).
    inflight: Mutex<BTreeSet<u64>>,
}

/// A poison-tolerant lock: a worker that panicked (only possible via
/// injected test harness bugs — the crate itself is panic-free) must
/// not wedge the whole daemon.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running daemon, in-process. Dropping the handle detaches the
/// daemon (it keeps serving); use [`ServerHandle::shutdown`] to stop
/// it or [`ServerHandle::wait`] to block until a `shutdown` request
/// arrives.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counter registry.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// One counter by wire name (test helper).
    pub fn metric(&self, name: &str) -> Option<u64> {
        self.shared.metrics.value(name)
    }

    /// Stops accepting, wakes the workers, and joins the daemon's
    /// threads; returns the final `mcr-metrics v1` dump.
    /// Queued-but-unsolved requests stay in the journal and are
    /// recovered by the next start — graceful stop and crash share one
    /// recovery path.
    pub fn shutdown(self) -> String {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.cond.notify_all();
        for t in self.threads {
            let _ = t.join();
        }
        self.shared.metrics.render()
    }

    /// Blocks until a `shutdown` request (or fatal accept error) stops
    /// the daemon; returns the final `mcr-metrics v1` dump.
    pub fn wait(self) -> String {
        for t in self.threads {
            let _ = t.join();
        }
        self.shared.metrics.render()
    }
}

/// Starts the daemon: binds, replays the journal, spawns the worker
/// pool and the accept loop, then returns immediately.
pub fn serve(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let journal = match &cfg.journal_dir {
        Some(dir) => Some(Journal::open(dir)?),
        None => None,
    };
    let shared = Arc::new(Shared {
        metrics: Metrics::default(),
        queue: Mutex::new(VecDeque::new()),
        cond: Condvar::new(),
        stop: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        cache: Mutex::new(GraphCache::new(cfg.cache_capacity)),
        journal,
        settled: Mutex::new(SettledLog::new()),
        inflight: Mutex::new(BTreeSet::new()),
        cfg,
    });
    // Replay the journal's settled outcomes so a re-send of an id the
    // previous process already answered dedups instead of re-solving.
    if let Some(journal) = &shared.journal {
        let mut settled = lock(&shared.settled);
        for (id, status, lambda) in journal.settled() {
            settled.insert(id, status, lambda);
        }
    }
    recover_pending(&shared);
    let mut threads = Vec::new();
    for _ in 0..shared.cfg.workers {
        let sh = Arc::clone(&shared);
        threads.push(thread::spawn(move || worker_loop(&sh)));
    }
    let sh = Arc::clone(&shared);
    threads.push(thread::spawn(move || accept_loop(&sh, listener)));
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

/// Re-queues every journaled request the previous process accepted but
/// never finished. Runs before the listener thread starts, so recovered
/// work is ahead of any new admission in the queue.
fn recover_pending(shared: &Arc<Shared>) {
    let Some(journal) = &shared.journal else {
        return;
    };
    let (pending, skipped) = journal.replay();
    for _ in 0..skipped {
        Metrics::bump(&shared.metrics.journal_skipped);
    }
    let mut q = lock(&shared.queue);
    for rec in pending {
        match protocol::parse_request(rec.payload.as_bytes()) {
            Ok(Request {
                op: Op::Solve(solve),
                ..
            }) => {
                // The deadline re-anchors at restart: deadlines bound a
                // *client's* wait, and a recovered request has no
                // client waiting — only the journal to settle.
                q.push_back(QueuedJob {
                    id: rec.id,
                    frame_len: rec.payload.len(),
                    solve,
                    accepted_at: Instant::now(),
                    reply: None,
                });
                lock(&shared.inflight).insert(rec.id);
                Metrics::bump(&shared.metrics.journal_recovered);
            }
            _ => Metrics::bump(&shared.metrics.journal_skipped),
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        if shared.stop.load(Ordering::SeqCst) || shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Responses are one small frame each; Nagle would add a
                // delayed-ACK round trip to every settle on the fleet path.
                let _ = stream.set_nodelay(true);
                let sh = Arc::clone(shared);
                // Reader threads are detached: they exit on EOF, frame
                // error, or after a shutdown op; process exit reaps any
                // still blocked on a silent peer.
                thread::spawn(move || conn_loop(&sh, stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

enum Flow {
    Continue,
    Close,
}

fn conn_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let reply: ReplyHandle = Arc::new(Mutex::new(write_half));
    let mut reader = BufReader::new(stream);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match frame::read_frame(&mut reader) {
            Ok(None) => return,
            Err(_) => {
                // Framing is unrecoverable mid-stream (the length
                // prefix is gone); fail the connection, not the daemon.
                Metrics::bump(&shared.metrics.frame_errors);
                return;
            }
            Ok(Some(payload)) => {
                if let Flow::Close = dispatch(shared, &reply, payload) {
                    return;
                }
            }
        }
    }
}

fn send(shared: &Shared, reply: &ReplyHandle, text: &str) {
    let mut w = lock(reply);
    if frame::write_frame(&mut *w, text.as_bytes()).is_err() {
        // The client may be gone; the journal still records the
        // outcome, so nothing is lost but the delivery. A torn write
        // may have left partial frame bytes on the wire, so shut the
        // stream down: the peer must see a typed mid-frame EOF, never
        // a later frame parsed out of phase.
        Metrics::bump(&shared.metrics.frame_errors);
        let _ = w.shutdown(Shutdown::Both);
    }
}

fn dispatch(shared: &Arc<Shared>, reply: &ReplyHandle, payload: Vec<u8>) -> Flow {
    match protocol::parse_request(&payload) {
        Err(e) => {
            Metrics::bump(&shared.metrics.failed);
            send(
                shared,
                reply,
                &protocol::resp_error(e.id, SolveStatus::InputError, &e.message, None),
            );
            Flow::Continue
        }
        Ok(Request { id, op }) => match op {
            Op::Ping => handle_ping(shared, reply, id, payload.len()),
            Op::Metrics => handle_metrics(shared, reply, id, payload.len()),
            Op::Shutdown => handle_shutdown(shared, reply, id, payload.len()),
            Op::Edit(edit) => handle_edit(shared, reply, id, &edit, payload.len()),
            Op::Solve(solve) => handle_admit(shared, reply, id, solve, payload),
        },
    }
}

fn handle_ping(shared: &Shared, reply: &ReplyHandle, id: u64, frame_len: usize) -> Flow {
    match RequestGuard::install(
        &Budget::UNLIMITED,
        None,
        Instant::now(),
        Algorithm::HowardExact,
        frame_len,
    ) {
        Ok(_guard) => send(shared, reply, &protocol::resp_pong(id)),
        Err(msg) => send(
            shared,
            reply,
            &protocol::resp_error(id, SolveStatus::InputError, &msg, None),
        ),
    }
    Flow::Continue
}

fn handle_metrics(shared: &Shared, reply: &ReplyHandle, id: u64, frame_len: usize) -> Flow {
    match RequestGuard::install(
        &Budget::UNLIMITED,
        None,
        Instant::now(),
        Algorithm::HowardExact,
        frame_len,
    ) {
        Ok(_guard) => send(
            shared,
            reply,
            &protocol::resp_metrics(id, &shared.metrics.render()),
        ),
        Err(msg) => send(
            shared,
            reply,
            &protocol::resp_error(id, SolveStatus::InputError, &msg, None),
        ),
    }
    Flow::Continue
}

fn handle_shutdown(shared: &Shared, reply: &ReplyHandle, id: u64, frame_len: usize) -> Flow {
    match RequestGuard::install(
        &Budget::UNLIMITED,
        None,
        Instant::now(),
        Algorithm::HowardExact,
        frame_len,
    ) {
        Ok(_guard) => send(shared, reply, &protocol::resp_shutdown(id)),
        Err(msg) => send(
            shared,
            reply,
            &protocol::resp_error(id, SolveStatus::InputError, &msg, None),
        ),
    }
    // Graceful drain: stop admitting, let the workers settle the queue,
    // and have the last idle worker flip `stop`. With no workers nobody
    // could ever drain, so stop outright (queued work stays journaled).
    shared.draining.store(true, Ordering::SeqCst);
    if shared.cfg.workers == 0 {
        shared.stop.store(true, Ordering::SeqCst);
    }
    shared.cond.notify_all();
    Flow::Close
}

/// The `edit` op: mutate a cached instance in place and re-answer from
/// its persistent [`DynamicSolver`] — no re-parse, and (when the batch
/// leaves enough components intact) no from-scratch solve either.
///
/// Edits run inline on the connection's reader thread rather than
/// through the admission queue: an edit is a cache mutation plus an
/// incremental solve, and interleaving it with queued solves against
/// the same hash would make "which graph did that solve see" depend on
/// worker scheduling. They are not journaled — a crash loses the edit,
/// and the client re-seeds by sending the graph inline again.
fn handle_edit(
    shared: &Shared,
    reply: &ReplyHandle,
    id: u64,
    job: &EditJob,
    frame_len: usize,
) -> Flow {
    let _guard = match RequestGuard::install(
        &Budget::UNLIMITED,
        None,
        Instant::now(),
        job.spec.algorithm,
        frame_len,
    ) {
        Ok(g) => g,
        Err(msg) => {
            Metrics::bump(&shared.metrics.failed);
            send(
                shared,
                reply,
                &protocol::resp_error(id, SolveStatus::InputError, &msg, None),
            );
            return Flow::Continue;
        }
    };
    let input_err = |message: String| {
        Metrics::bump(&shared.metrics.failed);
        send(
            shared,
            reply,
            &protocol::resp_error(id, SolveStatus::InputError, &message, None),
        );
        Flow::Continue
    };
    let hash = match (&job.graph_text, job.graph_hash) {
        (Some(text), Some(claimed)) => {
            let actual = cache::fnv1a(text);
            if actual != claimed {
                return input_err(format!(
                    "graph_hash {} does not match the inline graph (actual {})",
                    protocol::format_hash(claimed),
                    protocol::format_hash(actual)
                ));
            }
            actual
        }
        (Some(text), None) => cache::fnv1a(text),
        (None, Some(claimed)) => claimed,
        (None, None) => return input_err("edit request lost its graph".to_string()),
    };
    // Prefer the cached instance: after earlier edits it is the evolving
    // graph the hash names, and any inline text is only a cold-start
    // seed for a hash the daemon does not know yet.
    //
    // Drop the peek guard before the miss arm re-locks to insert — a
    // `match lock(..).peek(..)` scrutinee keeps its guard alive for the
    // whole match and would self-deadlock on the cold-start path.
    let mut cache = lock(&shared.cache);
    let cached = cache.peek_graph(hash);
    drop(cache);
    let graph = match cached {
        Some(g) => {
            Metrics::bump(&shared.metrics.cache_hit);
            g
        }
        None => {
            Metrics::bump(&shared.metrics.cache_miss);
            let Some(text) = &job.graph_text else {
                return input_err(format!(
                    "unknown graph hash {} (send the graph inline once to cache it)",
                    protocol::format_hash(hash)
                ));
            };
            Metrics::bump(&shared.metrics.graph_parse);
            let graph = match read_dimacs(&mut text.as_bytes()) {
                Ok(g) => Arc::new(g),
                Err(e) => return input_err(format!("graph parse error: {e}")),
            };
            lock(&shared.cache).insert(hash, Arc::clone(&graph));
            graph
        }
    };
    let mut opts = SolveOptions::new().threads(job.threads);
    opts.epsilon = job.epsilon;
    // The solver answers one fixed question; reuse it only for the
    // exact same one (see GraphCache::take_dynamic).
    let question = Question::edit(job);
    let mut cache = lock(&shared.cache);
    let reused = cache.take_dynamic(hash, &question);
    drop(cache);
    let mut solver = match reused {
        Some(s) => s,
        None => DynamicSolver::new(&graph, job.spec, opts),
    };
    let result = solver.apply(&job.edits);
    // Commit whatever state the solver ended in: a rejected batch left
    // the graph untouched, a failed solve still committed its edits.
    let mutated = Arc::new(solver.current_graph());
    lock(&shared.cache).commit_edit(hash, question, mutated, solver);
    match result {
        Ok(outcome) => {
            Metrics::bump(&shared.metrics.edit_applied);
            Metrics::bump(&shared.metrics.completed);
            send(shared, reply, &protocol::resp_edit(id, Some(hash), &outcome));
        }
        Err(e) => {
            let status = e.status();
            count_status(shared, status);
            send(
                shared,
                reply,
                &protocol::resp_error(id, status, &e.to_string(), None),
            );
        }
    }
    Flow::Continue
}

/// Admission: guard, load-shed, journal, enqueue — in that order.
fn handle_admit(
    shared: &Shared,
    reply: &ReplyHandle,
    id: u64,
    solve: Box<SolveJob>,
    payload: Vec<u8>,
) -> Flow {
    let accepted_at = Instant::now();
    let frame_len = payload.len();
    let budget = solve.budget.unwrap_or(Budget::UNLIMITED);
    let _guard = match RequestGuard::install(
        &budget,
        solve.deadline_ms,
        accepted_at,
        solve.spec.algorithm,
        frame_len,
    ) {
        Ok(g) => g,
        Err(msg) => {
            Metrics::bump(&shared.metrics.failed);
            send(
                shared,
                reply,
                &protocol::resp_error(id, SolveStatus::InputError, &msg, None),
            );
            return Flow::Continue;
        }
    };
    let shed = |message: String| {
        Metrics::bump(&shared.metrics.rejected);
        send(
            shared,
            reply,
            &protocol::resp_error(
                id,
                SolveStatus::Overloaded,
                &message,
                Some(shared.cfg.retry_after_ms),
            ),
        );
        Flow::Continue
    };
    if chaos::fail_hit("serve.queue.admit") {
        return shed("injected admission fault".to_string());
    }
    if shared.draining.load(Ordering::SeqCst) {
        Metrics::bump(&shared.metrics.drained);
        return shed("draining for shutdown — retry another shard".to_string());
    }
    // Duplicate suppression, only when the client asked for it (a
    // re-send after a possibly-delivered write): answer settled ids
    // from the journaled outcome, hold off ids still in flight.
    if solve.dedup {
        if let Some((status, lambda)) = lock(&shared.settled).get(id).cloned() {
            Metrics::bump(&shared.metrics.dedup_settled);
            send(
                shared,
                reply,
                &protocol::resp_deduped(id, status, lambda.as_deref()),
            );
            return Flow::Continue;
        }
        if lock(&shared.inflight).contains(&id) {
            Metrics::bump(&shared.metrics.dedup_inflight);
            send(
                shared,
                reply,
                &protocol::resp_error(
                    id,
                    SolveStatus::Overloaded,
                    "duplicate of an in-flight request — retry after it settles",
                    Some(shared.cfg.retry_after_ms),
                ),
            );
            return Flow::Continue;
        }
    }
    let Ok(payload_text) = String::from_utf8(payload) else {
        // parse_request already validated UTF-8; fail typed regardless.
        Metrics::bump(&shared.metrics.failed);
        send(
            shared,
            reply,
            &protocol::resp_error(id, SolveStatus::InputError, "request is not UTF-8", None),
        );
        return Flow::Continue;
    };
    // Depth check and journal append happen under one lock so two
    // racing admissions cannot both claim the last slot.
    let mut q = lock(&shared.queue);
    if q.len() >= shared.cfg.queue_depth {
        drop(q);
        return shed(format!(
            "queue full (depth {})— retry later",
            shared.cfg.queue_depth
        ));
    }
    if let Some(journal) = &shared.journal {
        if let Err(e) = journal.accept(id, &payload_text) {
            drop(q);
            return shed(format!("journal unavailable: {e}"));
        }
    }
    q.push_back(QueuedJob {
        id,
        solve,
        accepted_at,
        reply: Some(Arc::clone(reply)),
        frame_len,
    });
    // Mark and count the request before a worker can pop it: a worker
    // that answered first (a stored answer takes microseconds) would
    // leave the id in flight for good, and a client could read the
    // counters before its own admission was counted.
    lock(&shared.inflight).insert(id);
    Metrics::bump(&shared.metrics.accepted);
    drop(q);
    shared.cond.notify_one();
    Flow::Continue
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = q.pop_front() {
                    break job;
                }
                // Drain complete: the queue is empty and no new work is
                // admitted, so the daemon can stop for real.
                if shared.draining.load(Ordering::SeqCst) {
                    shared.stop.store(true, Ordering::SeqCst);
                    shared.cond.notify_all();
                    return;
                }
                let (guard, _timeout) = shared
                    .cond
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
            }
        };
        handle_dequeued(shared, job);
    }
}

fn count_status(shared: &Shared, status: SolveStatus) {
    match status {
        SolveStatus::Ok => Metrics::bump(&shared.metrics.completed),
        SolveStatus::Cancelled => Metrics::bump(&shared.metrics.cancelled),
        _ => Metrics::bump(&shared.metrics.failed),
    }
}

/// Sends the response (when a client is still attached) and settles the
/// journal entry. A journal write failure here is deliberately
/// swallowed: the response is already out, and the worst case is the
/// next restart redoing completed work.
fn finish(
    shared: &Shared,
    id: u64,
    reply: &Option<ReplyHandle>,
    status: SolveStatus,
    response: String,
    lambda: Option<String>,
) {
    count_status(shared, status);
    if let Some(reply) = reply {
        send(shared, reply, &response);
    }
    if let Some(journal) = &shared.journal {
        let _ = match reply {
            Some(_) => journal.done(id, status, lambda.as_deref()),
            None => journal.recovered(id, status, lambda.as_deref()),
        };
    }
    // Settle before clearing in-flight: a racing duplicate must see
    // either "in flight" or "settled", never neither.
    lock(&shared.settled).insert(id, status, lambda);
    lock(&shared.inflight).remove(&id);
}

/// The worker-side handler: deadline re-check, graph resolution, the
/// answer store or a (sliced) solve, certification, response.
fn handle_dequeued(shared: &Shared, job: QueuedJob) {
    let QueuedJob {
        id,
        solve,
        accepted_at,
        reply,
        frame_len,
    } = job;
    let budget = solve.budget.unwrap_or(Budget::UNLIMITED);
    let guard = match RequestGuard::install(
        &budget,
        solve.deadline_ms,
        accepted_at,
        solve.spec.algorithm,
        frame_len,
    ) {
        Ok(g) => g,
        Err(msg) => {
            let resp = protocol::resp_error(id, SolveStatus::InputError, &msg, None);
            finish(shared, id, &reply, SolveStatus::InputError, resp, None);
            return;
        }
    };
    if guard.expired() {
        let resp = protocol::resp_error(
            id,
            SolveStatus::Cancelled,
            "deadline expired while queued",
            None,
        );
        finish(shared, id, &reply, SolveStatus::Cancelled, resp, None);
        return;
    }
    let resolved = match resolve_graph(shared, id, &solve) {
        Ok(r) => r,
        Err(resp) => {
            finish(shared, id, &reply, SolveStatus::InputError, resp, None);
            return;
        }
    };
    if chaos::fail_hit("serve.worker.solve") {
        let resp = protocol::resp_error(
            id,
            SolveStatus::BudgetExhausted,
            "injected solve fault",
            None,
        );
        finish(shared, id, &reply, SolveStatus::BudgetExhausted, resp, None);
        return;
    }
    let question = Question::solve(&solve);
    let stored = lock(&shared.cache).answer(resolved.hash, &resolved.graph, &question);
    let hit = stored.is_some();
    let outcome = match stored {
        Some(answer) => {
            Metrics::bump(&shared.metrics.answer_hit);
            // A recovered request's solve would have consumed the
            // checkpoint its previous process left.
            if let (None, Some(journal)) = (&reply, &shared.journal) {
                journal.clear_checkpoint(id);
            }
            Ok(answer)
        }
        None => {
            Metrics::bump(&shared.metrics.answer_miss);
            let mut opts = SolveOptions::new().threads(solve.threads).budget(budget);
            opts.epsilon = solve.epsilon;
            if let Some(fallback) = solve.fallback {
                opts.fallback = fallback;
            }
            if let Some(ms) = solve.deadline_ms {
                opts.deadline = Some(accepted_at + Duration::from_millis(ms));
            }
            opts.plan = resolved.plan.clone();
            solve_one(shared, id, &resolved.graph, &solve, &opts).map(|sol| sol.map(Arc::new))
        }
    };
    // Store a fresh answer before the response goes out, so a repeat
    // sent after reading it finds the answer. An edit that replaced the
    // graph meanwhile makes the store drop it.
    let keep = |answer: cache::Answer| {
        if !hit {
            lock(&shared.cache).remember(resolved.hash, &resolved.graph, question, answer);
        }
    };
    let hash = Some(resolved.hash);
    match outcome {
        Ok(Some(sol)) => match certify(&sol, &resolved.graph) {
            Ok(()) => {
                let lambda = sol.lambda.to_string();
                let resp = protocol::resp_solution(id, hash, &sol);
                keep(Some(sol));
                finish(shared, id, &reply, SolveStatus::Ok, resp, Some(lambda));
            }
            Err(e) => {
                let resp = protocol::resp_error(
                    id,
                    SolveStatus::CertifyFailed,
                    &format!("certification failed: {e}"),
                    None,
                );
                finish(shared, id, &reply, SolveStatus::CertifyFailed, resp, None);
            }
        },
        Ok(None) => {
            keep(None);
            let resp = protocol::resp_acyclic(id, hash);
            finish(shared, id, &reply, SolveStatus::Ok, resp, None);
        }
        Err(e) => {
            let status = e.status();
            let resp = protocol::resp_error(id, status, &e.to_string(), None);
            finish(shared, id, &reply, status, resp, None);
        }
    }
}

struct Instance {
    graph: Arc<Graph>,
    plan: Option<SccPlan>,
    hash: u64,
}

/// Resolves a request's graph through the cache. Errors are returned as
/// ready-to-send `input-error` responses.
fn resolve_graph(shared: &Shared, id: u64, solve: &SolveJob) -> Result<Instance, String> {
    let input_err =
        |message: String| protocol::resp_error(id, SolveStatus::InputError, &message, None);
    let hash = match (&solve.graph_text, solve.graph_hash) {
        (Some(text), Some(claimed)) => {
            let actual = cache::fnv1a(text);
            if actual != claimed {
                return Err(input_err(format!(
                    "graph_hash {} does not match the inline graph (actual {})",
                    protocol::format_hash(claimed),
                    protocol::format_hash(actual)
                )));
            }
            actual
        }
        (Some(text), None) => cache::fnv1a(text),
        (None, Some(claimed)) => claimed,
        (None, None) => return Err(input_err("solve request lost its graph".to_string())),
    };
    let maximize = solve.spec.maximize;
    if let Some(found) = lock(&shared.cache).get(hash, maximize) {
        Metrics::bump(&shared.metrics.cache_hit);
        if found.plan_built {
            Metrics::bump(&shared.metrics.plan_build);
        }
        let Resolved { graph, plan, .. } = found;
        return Ok(Instance {
            graph,
            plan: Some(plan),
            hash,
        });
    }
    Metrics::bump(&shared.metrics.cache_miss);
    let Some(text) = &solve.graph_text else {
        return Err(input_err(format!(
            "unknown graph hash {} (send the graph inline once to cache it)",
            protocol::format_hash(hash)
        )));
    };
    Metrics::bump(&shared.metrics.graph_parse);
    let graph = read_dimacs(&mut text.as_bytes())
        .map_err(|e| input_err(format!("graph parse error: {e}")))?;
    let graph = Arc::new(graph);
    let mut cache = lock(&shared.cache);
    cache.insert(hash, Arc::clone(&graph));
    // Re-read through the cache so the plan is built once and shared;
    // with caching disabled (capacity 0) this misses and the solve
    // simply runs without a plan.
    if let Some(found) = cache.get(hash, maximize) {
        if found.plan_built {
            Metrics::bump(&shared.metrics.plan_build);
        }
        return Ok(Instance {
            graph: found.graph,
            plan: Some(found.plan),
            hash,
        });
    }
    Ok(Instance {
        graph,
        plan: None,
        hash,
    })
}

/// Whether this request takes the journaled sliced-solve path: only
/// the checkpointable mean algorithms, and only when the user set no
/// budget of their own (slicing repurposes the iteration budget, and a
/// user wall-clock limit must not silently re-anchor per slice).
fn sliceable(solve: &SolveJob) -> bool {
    solve.spec.objective == Objective::Mean
        && matches!(
            solve.spec.algorithm,
            Algorithm::Howard | Algorithm::HowardExact | Algorithm::Lawler | Algorithm::LawlerExact
        )
        && solve.budget.is_none_or(|b| b.is_unlimited())
}

/// One solve, possibly sliced. Sliced solves run the primary algorithm
/// alone under a small iteration budget, snapshotting checkpoint state
/// between slices; any non-exhaustion failure falls back to one
/// ordinary solve under the user's own fallback configuration.
fn solve_one(
    shared: &Shared,
    id: u64,
    g: &Graph,
    solve: &SolveJob,
    opts: &SolveOptions,
) -> Result<Option<mcr_core::Solution>, SpecError> {
    let spec = &solve.spec;
    let Some(journal) = &shared.journal else {
        return solve_spec(g, spec, opts);
    };
    if !sliceable(solve) {
        return solve_spec(g, spec, opts);
    }
    let store = match journal.load_checkpoint(id) {
        Some(ckpt) => {
            Metrics::bump(&shared.metrics.solve_resumed);
            CheckpointStore::from_checkpoint(ckpt)
        }
        None => CheckpointStore::new(),
    };
    let mut slice_opts = opts.clone();
    slice_opts.budget = Budget::UNLIMITED.max_iterations(shared.cfg.slice_iterations.max(1));
    slice_opts.fallback = FallbackChain::NONE;
    slice_opts.checkpoints = Some(store.clone());
    for _ in 0..MAX_SLICES {
        Metrics::bump(&shared.metrics.solve_slices);
        match solve_spec(g, spec, &slice_opts) {
            Ok(result) => {
                journal.clear_checkpoint(id);
                return Ok(result);
            }
            Err(SpecError::Solve(SolveError::BudgetExhausted {
                resource: BudgetResource::Iterations,
                ..
            })) => {
                // Crash containment: at most one slice of progress is
                // ever lost. A failed snapshot write only costs
                // durability of this slice, not correctness.
                let _ = journal.save_checkpoint(id, &store.snapshot().to_text());
            }
            Err(e @ SpecError::Solve(SolveError::Cancelled)) => {
                journal.clear_checkpoint(id);
                return Err(e);
            }
            Err(_) => {
                // The primary failed under FallbackChain::NONE; give
                // the user's own fallback configuration one ordinary
                // (unsliced) attempt.
                journal.clear_checkpoint(id);
                return solve_spec(g, spec, opts);
            }
        }
    }
    journal.clear_checkpoint(id);
    solve_spec(g, spec, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settled_log_iterates_in_id_order_regardless_of_insertion() {
        // Pins the BTreeMap choice (lint MCRL010): the dedup log's
        // iteration order is ascending-by-id at any hasher seed, so
        // anything that ever walks it (drain reports, debug dumps)
        // is reproducible.
        let mut log = SettledLog::new();
        for id in [9, 2, 27, 4] {
            log.insert(id, SolveStatus::Ok, None);
        }
        let ids: Vec<u64> = log.by_id.keys().copied().collect();
        assert_eq!(ids, [2, 4, 9, 27]);
        assert!(log.get(27).is_some());
        assert!(log.get(5).is_none());
    }

    #[test]
    fn settled_log_evicts_oldest_first_at_cap() {
        let mut log = SettledLog::new();
        for id in 0..(SETTLED_CAP as u64 + 3) {
            log.insert(id, SolveStatus::Ok, None);
        }
        assert_eq!(log.by_id.len(), SETTLED_CAP);
        assert!(log.get(2).is_none());
        assert!(log.get(3).is_some());
        // Re-inserting an already-settled id must not grow the order
        // log (dedup of the dedup log).
        log.insert(5000, SolveStatus::Ok, None);
        assert_eq!(log.by_id.len(), SETTLED_CAP);
    }

    #[test]
    fn inflight_set_iterates_in_ascending_id_order() {
        let inflight: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());
        for id in [8, 1, 5] {
            lock(&inflight).insert(id);
        }
        let ids: Vec<u64> = lock(&inflight).iter().copied().collect();
        assert_eq!(ids, [1, 5, 8]);
    }
}
