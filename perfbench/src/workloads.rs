//! End-to-end passes (`--trace 0`): set up, then time whole operations
//! for the run's duration, checking every answer.

use crate::inputs;
use crate::serve_load::Fixture;
use crate::stats::{median, ms, percentile, process_cpu};
use crate::Report;
use mcr_core::spec::{solve_spec, SolveSpec};
use mcr_core::{
    certify, Algorithm, Counters, DynamicSolver, Edit, Ratio64, SccPlan, Solution, SolveMode,
    SolveOptions,
};
use mcr_graph::io::read_dimacs;
use mcr_graph::Graph;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The workloads, in `BENCHMARK.json` order.
pub const NAMES: [&str; 6] = [
    "file_solve",
    "giant_scc.howard_exact",
    "giant_scc.yto",
    "giant_scc.karp",
    "edit_stream",
    "serve_stream",
];

/// A kernel engine.
#[derive(Clone, Copy)]
pub struct Kernel {
    /// Its name in metric and workload names.
    pub name: &'static str,
    pub alg: Algorithm,
    /// The counter fields it advances (the others stay zero).
    pub fields: &'static [&'static str],
    /// Its unit of work: the counter its time is divided by, and the name
    /// of that per-unit time.
    pub work: (&'static str, &'static str),
    /// Giant components its `giant_scc` workload cycles through; one pass
    /// over them is a chunk. Their costs differ up to several-fold, so a
    /// chunk is never less than a whole pass. Karp, at over 0.1 s a solve,
    /// takes fewer so that a run holds several passes.
    pub instances: u64,
}

/// The giant-SCC kernel engines: policy iteration, parametric heap, Karp
/// recurrence, Bellman oracle. Lawler-exact (over a second per solve) is
/// profiled by the traced pass only.
pub const KERNELS: [Kernel; 4] = [
    Kernel {
        name: "howard_exact",
        alg: Algorithm::HowardExact,
        fields: &["relaxations", "iterations"],
        work: ("relaxations", "ns_per_relax"),
        instances: inputs::GIANT_INSTANCES,
    },
    Kernel {
        name: "yto",
        alg: Algorithm::Yto,
        fields: &["iterations", "heap_ops"],
        work: ("heap_ops", "ns_per_heap_op"),
        instances: inputs::GIANT_INSTANCES,
    },
    Kernel {
        name: "karp",
        alg: Algorithm::Karp,
        fields: &["relaxations", "arcs_visited"],
        work: ("arcs_visited", "ns_per_arc"),
        instances: 12,
    },
    Kernel {
        name: "lawler_exact",
        alg: Algorithm::LawlerExact,
        fields: &["relaxations", "iterations", "oracle_calls"],
        work: ("relaxations", "ns_per_relax"),
        instances: 1,
    },
];

/// Driver threads of the `file_solve` op: `mcr solve`'s default
/// (`--threads 0`) on the 2-core machine the benchmark targets.
pub const FILE_THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Edits in the `edit_stream` cycle. A run applies them in turn from the
/// post-setup state, again and again, so every run does the same work;
/// each is re-checked against a from-scratch solve, and their cache hit
/// and miss totals are exact counts.
pub const EDIT_CYCLE: usize = 300;

pub fn run(workload: &str, seed: u64, budget: Duration, rep: &mut Report) -> Result<(), String> {
    match workload {
        "file_solve" => file_solve(seed, budget, rep),
        "edit_stream" => edit_stream(seed, budget, rep),
        "serve_stream" => serve_stream(seed, budget, rep),
        other => {
            let kernel = other
                .strip_prefix("giant_scc.")
                .and_then(|name| KERNELS.into_iter().find(|k| k.name == name))
                .ok_or_else(|| format!("unknown workload `{other}`"))?;
            giant_scc(kernel, seed, budget, rep)
        }
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, reports the median of its
/// process CPU time as `setup_s`, and keeps the last state (earlier ones
/// are dropped first).
fn timed_setup<T>(
    rep: &mut Report,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let cpu = process_cpu();
        state = Some(setup()?);
        times.push(process_cpu().saturating_sub(cpu).as_secs_f64());
    }
    rep.metric("setup_s", median(&times), "s");
    state.ok_or_else(|| "no set-up ran".to_string())
}

/// Quantile of the chunk costs that a run reports.
///
/// The benchmark targets a shared virtual machine whose neighbours slow
/// the same work by up to a factor of two, in spells of seconds to a
/// minute (the same seed's `edit_stream` read 1.3 to 3.0 ms per op on
/// different runs). A run is therefore cut into chunks of identical work,
/// and it reports the tenth percentile of their costs: the code's cost in
/// the least disturbed tenth of the run, rather than the share of it the
/// neighbours had.
const CHUNK_QUANTILE: f64 = 0.1;

/// The measured part of a run, cut into chunks of identical work.
///
/// Two end-to-end costs come out of it, both per chunk. `cpu_ms_per_op`
/// is process CPU time per op: it leaves out the time the host runs other
/// guests (steal), but it is blind to time off the CPU (queue wait, fsync)
/// and adds up the threads of a parallel op. `latency_ms.p50` is the
/// chunk's median wall-clock op latency, which sees both.
pub struct Window {
    wall: Instant,
    /// Process CPU time at the start of the current chunk.
    cpu: Duration,
    /// CPU time spent between ops in the current chunk (state restores),
    /// left out of its cost.
    excluded: Duration,
    /// Wall-clock milliseconds of each op of the current chunk.
    latencies: Vec<f64>,
    /// CPU milliseconds per op and median latency of each whole chunk.
    chunks: Vec<(f64, f64)>,
}

impl Window {
    pub fn start() -> Window {
        Window {
            wall: Instant::now(),
            cpu: process_cpu(),
            excluded: Duration::ZERO,
            latencies: Vec::new(),
            chunks: Vec::new(),
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.wall.elapsed()
    }

    /// Runs one op, recording its wall-clock latency.
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.latencies.push(ms(t.elapsed()));
        out
    }

    /// Adds a chunk measured elsewhere (the open-loop stream): the
    /// process CPU time spent in it and its op latencies.
    pub fn add_chunk(&mut self, cpu: Duration, latencies: &[f64]) {
        let ops = latencies.len().max(1) as f64;
        self.chunks.push((ms(cpu) / ops, median(latencies)));
    }

    /// Runs `f` between ops, its CPU time left out of `cpu_ms_per_op`.
    pub fn exclude<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu = process_cpu();
        let out = f();
        self.excluded += process_cpu().saturating_sub(cpu);
        out
    }

    /// Closes the current chunk: the CPU time of every thread of the
    /// process (driver threads, daemon and load generator included) since
    /// it began, per op, and its median op latency. Ops after the last
    /// closed chunk are left out of the costs.
    pub fn end_chunk(&mut self) {
        let now = process_cpu();
        let cpu = ms(now.saturating_sub(self.cpu + self.excluded));
        let ops = self.latencies.len().max(1) as f64;
        self.chunks.push((cpu / ops, median(&self.latencies)));
        self.latencies.clear();
        self.cpu = now;
        self.excluded = Duration::ZERO;
    }

    /// Reports `cpu_ms_per_op` and `latency_ms.p50`, each the
    /// [`CHUNK_QUANTILE`] of its chunk values.
    pub fn report(&self, rep: &mut Report) {
        let (cpu, latency): (Vec<f64>, Vec<f64>) = self.chunks.iter().copied().unzip();
        rep.metric("cpu_ms_per_op", percentile(&cpu, CHUNK_QUANTILE), "ms");
        rep.metric("latency_ms.p50", percentile(&latency, CHUNK_QUANTILE), "ms");
    }
}

/// Bit-identity of two answers: λ, witness and operation counts.
pub fn same_answer(a: &Solution, b: &Solution) -> bool {
    a.lambda == b.lambda && a.cycle == b.cycle && a.counters == b.counters
}

/// The kernel counters of `c` by field name.
pub fn counter_fields(c: &Counters) -> [(&'static str, u64); 5] {
    let heap = c.heap.inserts + c.heap.decrease_keys + c.heap.delete_mins + c.heap.removals;
    [
        ("relaxations", c.relaxations),
        ("iterations", c.iterations),
        ("arcs_visited", c.arcs_visited),
        ("heap_ops", heap),
        ("oracle_calls", c.oracle_calls),
    ]
}

/// Records the kernel counters of `c` as exact counts under `prefix`.
pub fn record_counters(rep: &mut Report, prefix: &str, c: &Counters) {
    for (field, value) in counter_fields(c) {
        rep.count(&format!("{prefix}.{field}"), value);
    }
}

/// One `mcr solve` op on in-memory DIMACS text: `read_dimacs`, then
/// `solve_spec` (mean, Howard-exact, default fallback), then `certify`.
pub fn file_op(text: &str, threads: usize) -> Result<Solution, String> {
    let g = read_dimacs(&mut text.as_bytes()).map_err(|e| format!("parse: {e}"))?;
    let sol = solve_spec(
        &g,
        &SolveSpec::mean(Algorithm::HowardExact),
        &SolveOptions::new().threads(threads),
    )
    .map_err(|e| format!("solve: {e}"))?
    .ok_or("the circuit is acyclic")?;
    certify(&sol, &g).map_err(|e| format!("certify: {e}"))?;
    Ok(sol)
}

fn file_solve(seed: u64, budget: Duration, rep: &mut Report) -> Result<(), String> {
    let (text, reference) = timed_setup(rep, || {
        let text = inputs::file_circuit(seed);
        let reference = file_op(&text, FILE_THREADS)?;
        Ok((text, reference))
    })?;
    let sequential = file_op(&text, 1)?;
    rep.check(same_answer(&sequential, &reference), || {
        "file_solve: 1 and 2 driver threads disagree".to_string()
    });
    record_counters(rep, "file", &reference.counters);
    let mut window = Window::start();
    while window.elapsed() < budget {
        let out = window.op(|| file_op(black_box(&text), FILE_THREADS));
        window.end_chunk();
        let ok = matches!(&out, Ok(sol) if same_answer(sol, &reference));
        rep.check(ok, || format!("file_solve op: {:?}", out.err()));
    }
    window.report(rep);
    Ok(())
}

/// A giant component parsed from its DIMACS text, its SCC plan, and the
/// λ every kernel must reproduce (Howard-exact's).
pub struct Giant {
    pub g: Graph,
    pub plan: SccPlan,
    pub lambda: Ratio64,
}

/// The first `count` giant components of `seed`.
pub fn giant_setup(seed: u64, count: u64) -> Result<Vec<Giant>, String> {
    (0..count)
        .map(|i| {
            let text = inputs::dimacs(&inputs::giant_scc(seed, i));
            let g = read_dimacs(&mut text.as_bytes()).map_err(|e| format!("parse: {e}"))?;
            let plan = SccPlan::prepare(&g);
            let lambda = kernel_op(&g, &plan, Algorithm::HowardExact)?.lambda;
            Ok(Giant { g, plan, lambda })
        })
        .collect()
}

/// One kernel solve of a prepared giant component at 1 thread, certified.
pub fn kernel_op(g: &Graph, plan: &SccPlan, alg: Algorithm) -> Result<Solution, String> {
    let opts = SolveOptions::new().threads(1).plan(plan.clone());
    let sol = solve_spec(g, &SolveSpec::mean(alg), &opts)
        .map_err(|e| format!("{}: {e}", alg.name()))?
        .ok_or("the giant component is acyclic")?;
    certify(&sol, g).map_err(|e| format!("{} certify: {e}", alg.name()))?;
    Ok(sol)
}

/// Solves the seed's giant components in turn with one kernel, pass after
/// pass. Each instance's first answer must match Howard-exact's λ, and
/// every later answer must repeat it bit for bit.
fn giant_scc(
    Kernel {
        name,
        alg,
        instances,
        ..
    }: Kernel,
    seed: u64,
    budget: Duration,
    rep: &mut Report,
) -> Result<(), String> {
    let giants = timed_setup(rep, || giant_setup(seed, instances))?;
    let mut first: Vec<Option<Solution>> = vec![None; giants.len()];
    let mut window = Window::start();
    // Every instance is solved at least once, so the exact counts cover all.
    for i in (0..giants.len()).cycle() {
        if i == 0 && first.iter().all(Option::is_some) && window.elapsed() >= budget {
            break;
        }
        let giant = &giants[i];
        let out = window.op(|| kernel_op(black_box(&giant.g), &giant.plan, alg));
        if i + 1 == giants.len() {
            window.end_chunk();
        }
        let ok = match (&out, &first[i]) {
            (Ok(sol), Some(f)) => same_answer(sol, f),
            (Ok(sol), None) => sol.lambda == giant.lambda,
            (Err(_), _) => false,
        };
        rep.check(ok, || {
            format!(
                "{name} on instance {i}: {:?}, howard_exact λ {}",
                out.as_ref().map(|s| s.lambda),
                giant.lambda
            )
        });
        if let (Ok(sol), None) = (out, &first[i]) {
            first[i] = Some(sol);
        }
    }
    window.report(rep);
    let mut total = Counters::new();
    for sol in first.iter().flatten() {
        total.merge(&sol.counters);
    }
    record_counters(rep, &format!("giant_total.{name}"), &total);
    Ok(())
}

fn edit_spec() -> SolveSpec {
    SolveSpec::mean(Algorithm::HowardExact)
}

/// A `DynamicSolver` over `base` with a warm cache: the state every
/// `edit_stream` cycle starts from.
fn warm_solver(base: &Graph) -> Result<DynamicSolver, String> {
    let mut solver = DynamicSolver::new(base, edit_spec(), SolveOptions::new());
    solver.solve().map_err(|e| format!("initial solve: {e}"))?;
    Ok(solver)
}

/// Applies the [`EDIT_CYCLE`] edits in turn, then restores the solver to
/// its post-setup state (untimed) and starts over, until the budget is
/// spent after a whole cycle. Every cycle must repeat the first one's
/// answers bit for bit.
fn edit_stream(seed: u64, budget: Duration, rep: &mut Report) -> Result<(), String> {
    let (base, edits, mut solver) = timed_setup(rep, || {
        let base = inputs::edit_circuit(seed);
        let edits = inputs::edit_stream(&base, EDIT_CYCLE, seed);
        let solver = warm_solver(&base)?;
        Ok((base, edits, solver))
    })?;
    let mut answers: Vec<Solution> = Vec::new();
    let mut window = Window::start();
    for cycle in 0.. {
        if cycle > 0 {
            if window.elapsed() >= budget {
                break;
            }
            solver = window.exclude(|| warm_solver(&base))?;
        }
        for (i, edit) in edits.iter().enumerate() {
            let out = window.op(|| solver.apply(std::slice::from_ref(edit)));
            let sol = out
                .map_err(|e| format!("edit {i}: {e}"))?
                .solution
                .ok_or_else(|| format!("edit {i} made the circuit acyclic"))?;
            if cycle == 0 {
                rep.check(true, String::new);
                answers.push(sol);
            } else {
                rep.check(same_answer(&sol, &answers[i]), || {
                    format!("edit {i} answered differently in cycle {cycle}")
                });
            }
        }
        window.end_chunk();
    }
    window.report(rep);
    // Untimed: the cycle again, bit for bit against from-scratch solves.
    replay_checked(&base, &edits, Some(&answers), rep)?;
    Ok(())
}

/// What a checked replay measured, batch by batch.
pub struct Replay {
    pub solver: DynamicSolver,
    pub apply_ms: Vec<f64>,
    pub scratch_ms: Vec<f64>,
    pub hits: u64,
    pub misses: u64,
    pub full: u64,
}

/// Replays `edits` one per batch on a fresh solver over `base`. Each
/// answer must equal a from-scratch `solve_spec` of the edited graph bit
/// for bit (λ, witness, counters), certify, and equal `expected[i]` (the
/// timed pass's answer) when given.
pub fn replay_checked(
    base: &Graph,
    edits: &[Edit],
    expected: Option<&[Solution]>,
    rep: &mut Report,
) -> Result<Replay, String> {
    let mut solver = DynamicSolver::new(base, edit_spec(), SolveOptions::new());
    solver.solve().map_err(|e| format!("initial solve: {e}"))?;
    let mut r = Replay {
        solver,
        apply_ms: Vec::new(),
        scratch_ms: Vec::new(),
        hits: 0,
        misses: 0,
        full: 0,
    };
    for (i, edit) in edits.iter().enumerate() {
        let t = Instant::now();
        let out = r
            .solver
            .apply(std::slice::from_ref(edit))
            .map_err(|e| format!("replayed edit {i}: {e}"))?;
        r.apply_ms.push(ms(t.elapsed()));
        r.hits += out.cache_hits as u64;
        r.misses += out.cache_misses as u64;
        r.full += u64::from(out.mode == SolveMode::Full);
        let g = r.solver.current_graph();
        let t = Instant::now();
        let fresh = solve_spec(&g, &edit_spec(), &SolveOptions::new())
            .map_err(|e| format!("from-scratch solve after edit {i}: {e}"))?;
        r.scratch_ms.push(ms(t.elapsed()));
        let ok = match (&out.solution, &fresh) {
            (Some(a), Some(b)) => same_answer(a, b) && certify(a, &g).is_ok(),
            (None, None) => true,
            _ => false,
        };
        let same_as_timed = expected
            .and_then(|e| e.get(i))
            .is_none_or(|timed| out.solution.as_ref().is_some_and(|a| same_answer(a, timed)));
        rep.check(ok && same_as_timed, || {
            format!("edit {i}: incremental answer differs from the from-scratch one")
        });
    }
    if edits.len() == EDIT_CYCLE {
        rep.count("dynamic.cache_hits", r.hits);
        rep.count("dynamic.cache_misses", r.misses);
    }
    Ok(r)
}

/// Length of a `serve_stream` chunk: 200 requests at the offered rate.
pub const SERVE_CHUNK: Duration = Duration::from_millis(500);

/// The open-loop stream against a daemon without a journal. With the
/// journal on, each request waits for two `fsync`s and the burst behind
/// it for theirs, so latency was mostly the disk's flush time; that time
/// moved the median by over a quarter between two sets of runs of the
/// same code. The journal is timed on its own by the traced pass.
fn serve_stream(seed: u64, budget: Duration, rep: &mut Report) -> Result<(), String> {
    let fixture = timed_setup(rep, || Fixture::start(seed))?;
    let mut window = Window::start();
    let stream = fixture.stream(budget, SERVE_CHUNK, 1_000)?;
    stream.tally(rep);
    // Each request's latency runs from its due time.
    for (cpu, latencies) in stream.chunks(SERVE_CHUNK) {
        window.add_chunk(cpu, &latencies);
    }
    window.report(rep);
    Ok(())
}
