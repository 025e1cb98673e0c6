//! Sample statistics, timing helpers and the seeded RNG.

use std::time::{Duration, Instant};

/// Milliseconds in `d`, with sub-microsecond digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPU_CLOCK: i32 = 2;

/// CPU time used so far by all threads of this process. On a virtual
/// machine with steal-time accounting it leaves out the time the host ran
/// other guests, which wall-clock latency includes.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(PROCESS_CPU_CLOCK, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(f64::NAN)
}

/// The median of `samples` (upper median for an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The arithmetic mean of `samples`.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Calls `f` at least `min_calls` times and until `budget` has passed,
/// returning each call's duration in milliseconds.
pub fn sample<T>(min_calls: usize, budget: Duration, mut f: impl FnMut() -> T) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_calls || start.elapsed() < budget {
        let t = Instant::now();
        std::hint::black_box(f());
        out.push(ms(t.elapsed()));
    }
    out
}

/// SplitMix64: a tiny seeded generator for the runner's own streams
/// (edit scripts). Graphs and request logs come from `mcr-gen`.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
