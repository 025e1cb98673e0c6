//! Shared harness machinery for the experiment binaries.
//!
//! Every binary in this crate regenerates one of the paper's artifacts
//! (see DESIGN.md's experiment index and EXPERIMENTS.md for the
//! paper-vs-measured record). They share the SPRAND grid of Table 2,
//! seed-averaged timing, and plain-text table rendering, all
//! implemented here.

use mcr_core::{Algorithm, Solution, SolveOptions};
use mcr_gen::sprand::{sprand, SprandConfig};
use mcr_graph::Graph;
use std::time::{Duration, Instant};

/// Harness configuration parsed from the command line.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// `(n, m)` grid to sweep.
    pub grid: Vec<(usize, usize)>,
    /// Random seeds per configuration (the paper averaged over 10).
    pub seeds: u64,
    /// Quick mode: CI-sized inputs.
    pub quick: bool,
    /// Worker threads for the per-SCC driver (`1` = the paper's
    /// sequential protocol, `0` = auto-detect). Results are identical
    /// at every thread count; only wall time changes.
    pub threads: usize,
}

impl HarnessConfig {
    /// Parses `--quick`, `--full`, `--tiny`, `--seeds <k>`, and
    /// `--threads <n>` from `args`.
    ///
    /// Full mode reproduces the exact Table 2 grid
    /// (n ∈ {512..8192} × m/n ∈ {1..3}, 10 seeds); quick mode (default)
    /// uses n ∈ {512, 1024} and 3 seeds so the whole suite terminates in
    /// minutes; tiny mode is the [`tiny_grid`]-based regression
    /// configuration pinned by the committed golden in `results/`.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let full = args.iter().any(|a| a == "--full");
        let tiny = args.iter().any(|a| a == "--tiny");
        let mut seeds = if full {
            10
        } else if tiny {
            TINY_SEEDS
        } else {
            3
        };
        if let Some(i) = args.iter().position(|a| a == "--seeds") {
            if let Some(k) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                seeds = k;
            }
        }
        let mut threads = 1;
        if let Some(i) = args.iter().position(|a| a == "--threads") {
            if let Some(k) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                threads = k;
            }
        }
        let grid = if full {
            mcr_gen::sprand::table2_grid()
        } else if tiny {
            tiny_grid()
        } else {
            let mut g = Vec::new();
            for &n in &[512usize, 1024] {
                for &num in &[2usize, 3, 4, 5, 6] {
                    g.push((n, n * num / 2));
                }
            }
            g
        };
        HarnessConfig {
            grid,
            seeds,
            quick: !full,
            threads,
        }
    }

    /// The [`SolveOptions`] implied by the configuration.
    pub fn solve_options(&self) -> SolveOptions {
        SolveOptions::new().threads(self.threads)
    }

    /// The SPRAND instance for a grid point and seed (the paper's
    /// default weight interval [1, 10000]).
    pub fn instance(&self, n: usize, m: usize, seed: u64) -> Graph {
        sprand(&SprandConfig::new(n, m).seed(seed))
    }
}

/// Seeds per grid point in `--tiny` mode.
pub const TINY_SEEDS: u64 = 2;

/// The `--tiny` regression grid: n = 64 instances small enough that a
/// full Table-2 sweep runs in well under a second, used by the golden
/// regression test in `tests/table2_tiny.rs`.
pub fn tiny_grid() -> Vec<(usize, usize)> {
    vec![(64, 128), (64, 192)]
}

/// Memory policy matching the paper's N/A entries: the Θ(n²)-space
/// algorithms (Karp, DG, HO) are skipped when the table would exceed
/// 512 MiB, which excludes exactly the paper's N/A row n = 8192. (The
/// original machine had 64 MB and additionally gave up on HO at
/// n = 4096; modern memory lets us fill that cell in.)
pub fn fits_in_memory(alg: Algorithm, n: usize) -> bool {
    if !alg.is_quadratic_space() {
        return true;
    }
    // D table: (n+1)·n i64 entries; HO adds a parent table of u32.
    let bytes = (n + 1) as u64 * n as u64 * 12;
    bytes < 512 * 1024 * 1024
}

/// Runs `alg` on `g`, returning the wall time and the solution.
pub fn run_timed(alg: Algorithm, g: &Graph) -> (Duration, Option<Solution>) {
    let start = Instant::now();
    let sol = alg.solve(g);
    (start.elapsed(), sol)
}

/// Runs `alg` in λ-only mode (the paper's measurement protocol — no
/// witness-cycle extraction), returning the wall time and the result.
pub fn run_timed_lambda(
    alg: Algorithm,
    g: &Graph,
) -> (Duration, Option<(mcr_core::Ratio64, mcr_core::Counters)>) {
    run_timed_lambda_opts(alg, g, &SolveOptions::default())
}

/// [`run_timed_lambda`] with explicit [`SolveOptions`] (thread count).
pub fn run_timed_lambda_opts(
    alg: Algorithm,
    g: &Graph,
    opts: &SolveOptions,
) -> (Duration, Option<(mcr_core::Ratio64, mcr_core::Counters)>) {
    let start = Instant::now();
    // Budget-exhausted or out-of-range seeds yield `None`, so a bounded
    // sweep records the miss and moves on instead of aborting the run.
    let out = alg.solve_lambda_only_opts(g, opts).ok();
    (start.elapsed(), out)
}

/// Mean λ-only wall time of `alg` over the seeds of one grid point,
/// with the per-seed λ values for cross-checking.
pub fn average_lambda_over_seeds(
    cfg: &HarnessConfig,
    alg: Algorithm,
    n: usize,
    m: usize,
) -> (Duration, Vec<mcr_core::Ratio64>) {
    let mut total = Duration::ZERO;
    let mut lams = Vec::new();
    let opts = cfg.solve_options();
    for seed in 0..cfg.seeds {
        let g = cfg.instance(n, m, seed);
        let (t, out) = run_timed_lambda_opts(alg, &g, &opts);
        total += t;
        lams.push(out.expect("SPRAND graphs are cyclic").0);
    }
    (total / cfg.seeds as u32, lams)
}

/// Mean wall time and the per-seed solutions of `alg` over the seeds of
/// one grid point.
pub fn average_over_seeds(
    cfg: &HarnessConfig,
    alg: Algorithm,
    n: usize,
    m: usize,
) -> (Duration, Vec<Solution>) {
    let mut total = Duration::ZERO;
    let mut sols = Vec::new();
    for seed in 0..cfg.seeds {
        let g = cfg.instance(n, m, seed);
        let (t, sol) = run_timed(alg, &g);
        total += t;
        sols.push(sol.expect("SPRAND graphs are cyclic"));
    }
    (total / cfg.seeds as u32, sols)
}

/// Formats a duration in fractional milliseconds.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Renders an aligned plain-text table.
pub fn print_table(header: &[String], rows: &[Vec<String>]) {
    let cols = header.len();
    let mut width = vec![0usize; cols];
    for (i, h) in header.iter().enumerate() {
        width[i] = h.len();
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            width[i] = width[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let body: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = width[i]))
            .collect();
        println!("{}", body.join("  "));
    };
    line(header);
    let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
    println!("{}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

pub mod table2 {
    //! The Table-2 sweep shared by the `table2` binary and the tiny-grid
    //! regression test, plus its `mcr-table2 v1` JSONL rendering.

    use super::{average_lambda_over_seeds, fits_in_memory, HarnessConfig};
    use mcr_core::{Algorithm, Ratio64};
    use mcr_graph::json::ObjWriter;
    use std::time::Duration;

    /// Version tag stamped on every `table2 --jsonl` line.
    pub const TABLE2_SCHEMA: &str = "mcr-table2 v1";

    /// One measured Table-2 cell: the mean λ-only wall time of one
    /// algorithm at one grid point, plus the first seed's λ for the
    /// cross-checks and goldens. `lambda == None` marks an `N/A` cell
    /// (the memory policy skipped a Θ(n²)-space algorithm).
    #[derive(Clone, Debug)]
    pub struct Cell {
        pub n: usize,
        pub m: usize,
        pub alg: Algorithm,
        pub mean: Duration,
        pub lambda: Option<Ratio64>,
    }

    /// Runs the paper's ten Table-2 algorithms over the configured
    /// grid, cross-checking every exact λ against the row's first exact
    /// answer (and every approximate λ against it from above). Panics
    /// on disagreement: a wrong answer must never become a table entry.
    pub fn sweep(cfg: &HarnessConfig) -> Vec<Cell> {
        let mut cells = Vec::new();
        for &(n, m) in &cfg.grid {
            let mut lambda_check: Option<Ratio64> = None;
            for alg in Algorithm::TABLE2 {
                if !fits_in_memory(alg, n) {
                    cells.push(Cell { n, m, alg, mean: Duration::ZERO, lambda: None });
                    continue;
                }
                let (t, lams) = average_lambda_over_seeds(cfg, alg, n, m);
                let lam = lams[0];
                if alg.is_approximate() {
                    if let Some(expected) = lambda_check {
                        assert!(
                            lam >= expected,
                            "{} returned a value below the optimum at n={n} m={m}",
                            alg.name()
                        );
                    }
                } else {
                    match lambda_check {
                        Some(expected) => assert_eq!(
                            lam,
                            expected,
                            "{} disagrees at n={n} m={m}",
                            alg.name()
                        ),
                        None => lambda_check = Some(lam),
                    }
                }
                cells.push(Cell { n, m, alg, mean: t, lambda: Some(lam) });
            }
            eprintln!("done n={n} m={m}");
        }
        cells
    }

    /// Renders one cell as an `mcr-table2 v1` JSONL line.
    /// `normalize_times` zeroes the wall-clock field so the output is
    /// bit-stable across machines — the mode the committed goldens use.
    pub fn cell_jsonl(cell: &Cell, normalize_times: bool) -> String {
        let base = ObjWriter::new()
            .str("schema", TABLE2_SCHEMA)
            .str("kind", "cell")
            .u64("n", cell.n as u64)
            .u64("m", cell.m as u64)
            .str("alg", cell.alg.name());
        match &cell.lambda {
            None => base.str("status", "n/a").finish(),
            Some(lam) => {
                let ms = if normalize_times {
                    0.0
                } else {
                    cell.mean.as_secs_f64() * 1e3
                };
                base.str("status", "ok")
                    .f64("mean_ms", ms)
                    .str("lambda", &lam.to_string())
                    .finish()
            }
        }
    }

    /// Renders the full per-cell report: a header line carrying the run
    /// configuration, then one line per cell in grid-major order.
    pub fn jsonl_report(cells: &[Cell], cfg: &HarnessConfig, normalize_times: bool) -> String {
        let mut out = ObjWriter::new()
            .str("schema", TABLE2_SCHEMA)
            .str("kind", "table2.header")
            .u64("cells", cells.len() as u64)
            .u64("seeds", cfg.seeds)
            .u64("threads", cfg.threads as u64)
            .finish();
        out.push('\n');
        for cell in cells {
            out.push_str(&cell_jsonl(cell, normalize_times));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_is_small() {
        // from_args reads real argv; construct directly instead.
        let cfg = HarnessConfig {
            grid: vec![(512, 1024)],
            seeds: 2,
            quick: true,
            threads: 1,
        };
        let (t, sols) = average_over_seeds(&cfg, Algorithm::HowardExact, 512, 1024);
        assert_eq!(sols.len(), 2);
        assert!(t > Duration::ZERO);
    }

    #[test]
    fn memory_policy_matches_paper_shape() {
        assert!(fits_in_memory(Algorithm::Karp, 4096));
        assert!(!fits_in_memory(Algorithm::Karp, 8192));
        assert!(fits_in_memory(Algorithm::Howard, 1 << 20));
        assert!(fits_in_memory(Algorithm::Karp2, 1 << 20));
    }

    #[test]
    fn fmt_ms_renders_fractions() {
        assert_eq!(fmt_ms(Duration::from_micros(1500)), "1.50");
    }
}
