//! Replayable `mcr-req v1` request logs for the `mcrd` daemon.
//!
//! [`request_log`] emits a deterministic JSONL batch — one request per
//! line — that `mcr client --replay` feeds to a live daemon and the
//! serve test-suite uses as golden input. The mix is deliberately
//! adversarial for a *service* rather than a solver:
//!
//! * a small pool of instances, each referenced by several requests,
//!   so the daemon's graph cache has hits to prove;
//! * both objectives, both orientations, several algorithms, explicit
//!   epsilons — exercising the whole [`mcr-req v1`] surface;
//! * one `deadline_ms: 0` request per batch (deterministically
//!   `cancelled`, exit taxonomy 4) and one single-refinement budget
//!   with fallbacks disabled (deterministically `budget-exhausted`,
//!   exit taxonomy 2) — so a replay asserts the failure statuses too,
//!   not just the happy path.
//!
//! The emitter writes its lines with `format!` and
//! [`mcr_graph::json::escape`] rather than through `mcr-serve`: the
//! generator crate sits below the service in the dependency order, and
//! the service's tests depend on it in turn.

use crate::sprand::{sprand, SprandConfig};
use crate::transit::with_random_transits;
use mcr_graph::io::write_dimacs;
use mcr_graph::json::escape;
use mcr_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for [`request_log`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestLogConfig {
    /// Number of requests to emit.
    pub count: usize,
    /// RNG seed; equal configs produce byte-identical logs.
    pub rng_seed: u64,
}

impl RequestLogConfig {
    /// A `count`-request log with seed 0.
    pub fn new(count: usize) -> Self {
        RequestLogConfig { count, rng_seed: 0 }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }
}

fn dimacs(g: &Graph) -> String {
    let mut buf = Vec::new();
    // An in-memory write cannot fail; fall back to an empty instance
    // rather than panicking in a generator.
    if write_dimacs(&mut buf, g).is_err() {
        return String::new();
    }
    String::from_utf8(buf).unwrap_or_default()
}

/// The algorithm rotation: exact and approximate, mean-capable and
/// ratio-capable, including the checkpointable ones (`howard-exact`,
/// `lawler-exact`) the daemon's sliced-solve path cares about.
const ALGORITHMS: [&str; 5] = ["howard-exact", "karp", "lawler-exact", "burns-exact", "yto"];

/// Renders a deterministic `mcr-req v1` JSONL request log.
///
/// Line `i` (0-based) gets request id `i + 1`. The final two requests
/// of every batch of at least four are the deterministic failures: the
/// second-to-last carries `deadline_ms: 0`, the last a
/// `refine=1` budget with `fallback: "none"` on `lawler-exact`.
pub fn request_log(cfg: &RequestLogConfig) -> String {
    let mut rng = StdRng::seed_from_u64(cfg.rng_seed);
    // Instance pool: 3 mean instances + 1 ratio instance, small enough
    // that a full replay stays fast, rich enough to have real cycles.
    let pool: Vec<String> = (0..3)
        .map(|i| {
            let n = 8 + 4 * i;
            let g = sprand(
                &SprandConfig::new(n, 2 * n)
                    .seed(cfg.rng_seed.wrapping_add(i as u64))
                    .weight_range(1, 100),
            );
            dimacs(&g)
        })
        .collect();
    let ratio_instance = {
        let g = sprand(
            &SprandConfig::new(10, 20)
                .seed(cfg.rng_seed.wrapping_add(7))
                .weight_range(1, 50),
        );
        dimacs(&with_random_transits(&g, 1, 5, cfg.rng_seed.wrapping_add(7)))
    };
    let mut out = String::new();
    for i in 0..cfg.count {
        let id = (i + 1) as u64;
        let tail = cfg.count >= 4 && i + 2 >= cfg.count;
        let line = if tail && i + 2 == cfg.count {
            // Deterministic `cancelled` (code 4): expired on arrival.
            format!(
                "{{\"schema\":\"mcr-req v1\",\"id\":{id},\"op\":\"solve\",\
                 \"graph\":\"{}\",\"algorithm\":\"howard-exact\",\"deadline_ms\":0}}",
                escape(&pool[0])
            )
        } else if tail {
            // Deterministic `budget-exhausted` (code 2): one λ
            // refinement cannot converge, and fallbacks are off.
            format!(
                "{{\"schema\":\"mcr-req v1\",\"id\":{id},\"op\":\"solve\",\
                 \"graph\":\"{}\",\"algorithm\":\"lawler-exact\",\
                 \"budget\":\"refine=1\",\"fallback\":\"none\"}}",
                escape(&pool[1])
            )
        } else if i % 5 == 4 {
            // Ratio objective on the transit-decorated instance.
            format!(
                "{{\"schema\":\"mcr-req v1\",\"id\":{id},\"op\":\"solve\",\
                 \"graph\":\"{}\",\"algorithm\":\"{}\",\"objective\":\"ratio\"}}",
                escape(&ratio_instance),
                ["howard-exact", "burns-exact", "yto"][i % 3]
            )
        } else {
            // Mean requests over the shared pool: repeated graph text
            // (cache hits), rotating algorithms, occasional maximize
            // and explicit epsilon.
            let graph = &pool[rng.gen_range(0..pool.len())];
            let algorithm = ALGORITHMS[rng.gen_range(0..ALGORITHMS.len())];
            let maximize = rng.gen_range(0..4) == 0;
            let epsilon = rng.gen_range(0..3) == 0;
            let mut line = format!(
                "{{\"schema\":\"mcr-req v1\",\"id\":{id},\"op\":\"solve\",\
                 \"graph\":\"{}\",\"algorithm\":\"{algorithm}\"",
                escape(graph)
            );
            if maximize {
                line.push_str(",\"maximize\":true");
            }
            if epsilon {
                line.push_str(",\"epsilon\":1e-9");
            }
            line.push('}');
            line
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logs_are_deterministic_per_seed() {
        let a = request_log(&RequestLogConfig::new(12).seed(3));
        let b = request_log(&RequestLogConfig::new(12).seed(3));
        let c = request_log(&RequestLogConfig::new(12).seed(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.lines().count(), 12);
    }

    #[test]
    fn every_batch_has_the_deterministic_failures() {
        let log = request_log(&RequestLogConfig::new(8));
        let lines: Vec<&str> = log.lines().collect();
        assert!(lines[6].contains("\"deadline_ms\":0"));
        assert!(lines[7].contains("\"budget\":\"refine=1\""));
        assert!(lines[7].contains("\"fallback\":\"none\""));
    }

    #[test]
    fn ids_are_sequential_from_one() {
        let log = request_log(&RequestLogConfig::new(5));
        for (i, line) in log.lines().enumerate() {
            assert!(line.contains(&format!("\"id\":{}", i + 1)), "{line}");
        }
    }
}
