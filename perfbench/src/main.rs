//! `perfbench`: the benchmark runner of the mcr workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One process drives each layer only through its public functions, on
//! inputs generated from `--seed`, checks every answer, and prints one
//! JSON object as the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` runs the workload end to end, untraced, and reports
//!   `setup_s` and `cpu_ms_per_op` (process CPU time) and
//!   `latency_ms.p50` (wall time).
//! * `--trace 1` runs the traced pass: it times calls into each layer on
//!   the seed's inputs and reports the per-layer metrics.
//!
//! Any wrong answer, or an exact operation count that differs from the
//! one recorded in `golden_counts.txt` for the same seed, makes the run
//! exit 1. Every run prints its exact counts to stderr in that file's
//! `seed name value` format. The line before the result stamps the
//! hardware.

mod inputs;
mod serve_load;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Exact operation counts recorded for fixed seeds, `seed name value`
/// per line. A run on one of these seeds must reproduce them exactly.
const GOLDEN_COUNTS: &str = include_str!("../golden_counts.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("invalid --seed `{value}`"))?,
                )
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("invalid --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("invalid --trace `{value}` (use 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
    })
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Exact operation counts, compared with `GOLDEN_COUNTS`.
    counts: BTreeMap<String, u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), || format!("metric {name} is {value}"));
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Tallies one checked operation; `problem` describes a failure.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 16 {
                self.problems.push(problem());
            }
        }
    }

    /// Tallies one failed operation.
    pub fn fail(&mut self, problem: String) {
        self.check(false, || problem);
    }

    /// Records an exact operation count (checked against `GOLDEN_COUNTS`).
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), value);
    }

    fn check_golden(&mut self, seed: u64) {
        for line in GOLDEN_COUNTS.lines().filter(|l| !l.starts_with('#')) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [s, name, want] = fields[..] else {
                continue;
            };
            if s.parse::<u64>().ok() != Some(seed) {
                continue;
            }
            if let Some(&got) = self.counts.get(name) {
                let want: u64 = want.parse().unwrap_or(u64::MAX);
                self.check(got == want, || {
                    format!("{name} = {got}, but seed {seed} recorded {want}")
                });
            }
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A per-process scratch directory under `.perfbench_tmp/` in the
/// working directory (the traced pass's journal lives here), removed on
/// drop.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> std::io::Result<Scratch> {
        let dir = Path::new(".perfbench_tmp").join(std::process::id().to_string());
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the parent.
        let _ = fs::remove_dir(".perfbench_tmp");
    }
}

fn json_str(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// `nproc`, CPU model, compiler and the journal directory's filesystem.
fn hardware_stamp(journal_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let fs_type = filesystem_of(journal_dir).unwrap_or_else(|| "unknown".to_string());
    // The toolchain `cargo run` built this binary with is on the PATH.
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"journal_fs\": \"{}\"}}",
        json_str(&cpu),
        json_str(&rustc),
        json_str(&fs_type)
    )
}

/// The type of the filesystem holding `dir`: the longest mount point in
/// `/proc/self/mountinfo` that contains it.
fn filesystem_of(dir: &Path) -> Option<String> {
    let dir = fs::canonicalize(dir).ok()?;
    let info = fs::read_to_string("/proc/self/mountinfo").ok()?;
    info.lines()
        .filter_map(|line| {
            let (mount, fs_type) = line.split_once(" - ")?;
            let mount_point = mount.split(' ').nth(4)?;
            let fs_type = fs_type.split(' ').next()?;
            dir.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs_type)| fs_type)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rep = Report::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let outcome = if args.trace {
        trace::run(args.seed, budget, &scratch.0, &mut rep)
    } else {
        workloads::run(&args.workload, args.seed, budget, &mut rep)
    };
    if let Err(e) = outcome {
        rep.fail(e);
    }
    rep.check_golden(args.seed);
    for (name, value) in &rep.counts {
        eprintln!("{} {name} {value}", args.seed);
    }
    for problem in &rep.problems {
        eprintln!("perfbench: FAILED: {problem}");
    }
    println!("hardware {}", hardware_stamp(&scratch.0));
    println!("{}", rep.render());
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
