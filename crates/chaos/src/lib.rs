//! Deterministic failpoint-style fault injection for the mcr stack.
//!
//! Production code is threaded with **named injection sites** (see the
//! site naming scheme below); each site reports every pass through it
//! to a process-global registry. A test installs a [`FaultSchedule`] —
//! a seeded, fully deterministic list of *(site pattern, fault kind,
//! trigger window)* rules — and the registry answers each site hit with
//! either "proceed" or a [`FaultKind`] to act on. The consuming crates
//! (`mcr-graph`, `mcr-core`) map each kind onto their own typed error
//! at the site, so an injected fault exercises exactly the error path a
//! real fault of that kind would take.
//!
//! This crate is only ever linked when a consumer enables its `chaos`
//! feature; release builds compile the sites out entirely (the
//! consumers' wrappers become empty inline functions and this crate is
//! not even a dependency).
//!
//! # Determinism
//!
//! Every run of the same schedule against the same workload observes
//! the same site-hit sequence per thread and therefore fires the same
//! faults: trigger points are chosen by a splitmix64 hash of
//! `(seed, site pattern)`, not by wall clock or OS randomness. The only
//! caveat is cross-thread interleaving: a rule whose pattern matches
//! hits from several worker threads fires on the n-th *global* hit,
//! so schedules meant for multi-threaded runs should either target
//! per-component sites or use [`Injection::always`]-style windows
//! (fire on every hit), which are interleaving-independent. The chaos
//! suite uses the latter.
//!
//! # Site naming scheme
//!
//! `<crate>.<module>.<point>`, all lower-case, dot-separated:
//!
//! * `graph.io.read_dimacs.arc` — DIMACS parser, per arc line
//! * `graph.scc.root` — SCC decomposition, per component root
//! * `graph.heap.binary.pop` / `graph.heap.fib.pop` — heap operations
//! * `core.<algorithm>.<loop>` — each algorithm's dominant loop, e.g.
//!   `core.howard.exact.improve`, `core.karp.level`,
//!   `core.lawler.exact.bisect`
//! * `core.driver.job` — per-SCC parallel driver, per job
//! * `core.fallback.attempt` — fallback chain, per attempt
//! * `core.workspace.reset` — workspace poison/reset
//!
//! A pattern is either an exact site name or a prefix ending in `*`
//! (e.g. `core.howard.*`).
//!
//! ```
//! use mcr_chaos::{FaultKind, FaultSchedule};
//! let _guard = FaultSchedule::new(42)
//!     .inject_at("core.karp.level", FaultKind::Overflow, 2, 1)
//!     .install();
//! assert_eq!(mcr_chaos::hit("core.karp.level"), None); // hit 0
//! assert_eq!(mcr_chaos::hit("core.karp.level"), None); // hit 1
//! assert_eq!(
//!     mcr_chaos::hit("core.karp.level"),
//!     Some(FaultKind::Overflow) // hit 2: the trigger window opens
//! );
//! assert_eq!(mcr_chaos::hit("core.karp.level"), None); // window closed
//! ```

// The registry is test infrastructure, but it must never take the
// process down from inside a solver: no unwraps, no panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The kind of fault a site should act on.
///
/// Sites that can return an error map the first four kinds onto their
/// layer's typed error (`SolveError`, `ParseGraphError`, …). Pure
/// "unit" sites (heap operations, SCC visits, workspace resets) cannot
/// fail by construction; they honor only [`FaultKind::Delay`] and count
/// the hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The site should behave as if its work budget ran out
    /// (`SolveError::BudgetExhausted` in the solver layer).
    BudgetExhaust,
    /// The site should behave as if integer arithmetic overflowed.
    Overflow,
    /// The site should behave as if an internal numeric range was
    /// exhausted.
    NumericRange,
    /// A generic transient fault: recoverable, attributable to the
    /// attempted method rather than the input. The solver layer maps it
    /// to a recoverable `SolveError`; the parser maps it to an I/O-kind
    /// parse error.
    Transient,
    /// The site should stall for this many milliseconds before
    /// proceeding normally (simulates slow storage, contended locks,
    /// scheduling hiccups; used to exercise wall-clock budgets and
    /// cancellation).
    Delay {
        /// Stall duration in milliseconds.
        millis: u64,
    },
}

/// One injection rule: fire `kind` at hits `after .. after + count` of
/// sites matching `pattern`.
#[derive(Clone, Debug)]
pub struct Injection {
    /// Exact site name, or a prefix ending in `*`.
    pub pattern: String,
    /// What to inject.
    pub kind: FaultKind,
    /// Zero-based hit index at which the trigger window opens.
    pub after: u64,
    /// How many consecutive hits fire once the window opens
    /// (`u64::MAX` = every hit from `after` on).
    pub count: u64,
}

impl Injection {
    fn matches(&self, site: &str) -> bool {
        match self.pattern.strip_suffix('*') {
            Some(prefix) => site.starts_with(prefix),
            None => self.pattern == site,
        }
    }
}

/// A seeded, deterministic fault schedule.
///
/// Build one with [`FaultSchedule::new`], add rules, then
/// [`install`](FaultSchedule::install) it. Installation is globally
/// serialized: the returned [`ChaosGuard`] holds an exclusive lock so
/// concurrent chaos tests cannot observe each other's schedules, and
/// uninstalls the schedule when dropped.
#[derive(Clone, Debug)]
pub struct FaultSchedule {
    seed: u64,
    injections: Vec<Injection>,
}

impl FaultSchedule {
    /// An empty schedule with the given seed. The seed determines the
    /// trigger points chosen by [`inject`](FaultSchedule::inject).
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            seed,
            injections: Vec::new(),
        }
    }

    /// The seed this schedule was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Adds a rule that fires `kind` once, at a trigger point derived
    /// deterministically from the schedule seed and the pattern (a
    /// splitmix64 hash reduced to `0..16`). Reproducible: the same
    /// seed and pattern always pick the same trigger hit.
    pub fn inject(self, pattern: &str, kind: FaultKind) -> Self {
        let after = splitmix64(self.seed ^ fnv1a(pattern)) % 16;
        self.inject_at(pattern, kind, after, 1)
    }

    /// Adds a rule that fires `kind` on every hit of `pattern` from the
    /// first on (interleaving-independent; safe for multi-threaded
    /// runs).
    pub fn inject_always(self, pattern: &str, kind: FaultKind) -> Self {
        self.inject_at(pattern, kind, 0, u64::MAX)
    }

    /// Adds a fully explicit rule: fire `kind` on hits
    /// `after .. after + count` of `pattern`.
    pub fn inject_at(mut self, pattern: &str, kind: FaultKind, after: u64, count: u64) -> Self {
        self.injections.push(Injection {
            pattern: pattern.to_string(),
            kind,
            after,
            count,
        });
        self
    }

    /// The rules in insertion order.
    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }

    /// Installs this schedule as the process-global active schedule and
    /// returns a guard that uninstalls it on drop. Blocks until any
    /// other installed schedule is dropped (chaos tests serialize).
    pub fn install(self) -> ChaosGuard {
        let lock = install_lock()
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        {
            let mut state = registry().lock().unwrap_or_else(|p| p.into_inner());
            *state = Some(ActiveState {
                rules: self
                    .injections
                    .into_iter()
                    .map(|inj| RuleState { inj, hits: 0 })
                    .collect(),
                site_hits: HashMap::new(),
                fired: 0,
            });
        }
        ChaosGuard { _lock: lock }
    }
}

struct RuleState {
    inj: Injection,
    /// Matching hits observed so far by this rule.
    hits: u64,
}

struct ActiveState {
    rules: Vec<RuleState>,
    /// Per-site observation counters (for assertions about coverage).
    site_hits: HashMap<String, u64>,
    /// Total faults fired by this schedule.
    fired: u64,
}

/// Uninstalls the active schedule (and releases the installation lock)
/// when dropped.
pub struct ChaosGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        let mut state = registry().lock().unwrap_or_else(|p| p.into_inner());
        *state = None;
    }
}

fn registry() -> &'static Mutex<Option<ActiveState>> {
    static REGISTRY: OnceLock<Mutex<Option<ActiveState>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(None))
}

fn install_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Reports one pass through `site`. Returns the fault to act on, if a
/// rule of the active schedule fires on this hit (the first matching
/// rule in insertion order wins). With no schedule installed this is a
/// registry lock plus a `None` — cheap, and only ever compiled into
/// `--features chaos` builds anyway.
///
/// [`FaultKind::Delay`] is applied *here* (the calling thread sleeps)
/// and `None` is returned, so callers only ever see kinds they must map
/// to errors.
pub fn hit(site: &str) -> Option<FaultKind> {
    let fault = {
        let mut guard = registry().lock().unwrap_or_else(|p| p.into_inner());
        let state = guard.as_mut()?;
        *state.site_hits.entry(site.to_string()).or_insert(0) += 1;
        let mut fired = None;
        for rule in &mut state.rules {
            if !rule.inj.matches(site) {
                continue;
            }
            let n = rule.hits;
            rule.hits += 1;
            if fired.is_none() && n >= rule.inj.after && n - rule.inj.after < rule.inj.count {
                fired = Some(rule.inj.kind);
            }
        }
        if fired.is_some() {
            state.fired += 1;
        }
        fired
    };
    if let Some(FaultKind::Delay { millis }) = fault {
        std::thread::sleep(std::time::Duration::from_millis(millis));
        return None;
    }
    fault
}

/// How many times `site` has been hit under the active schedule
/// (0 when no schedule is installed or the site was never reached).
pub fn hits(site: &str) -> u64 {
    let guard = registry().lock().unwrap_or_else(|p| p.into_inner());
    guard
        .as_ref()
        .and_then(|s| s.site_hits.get(site).copied())
        .unwrap_or(0)
}

/// Total number of site hits observed under the active schedule, across
/// all sites (0 when no schedule is installed).
pub fn total_hits() -> u64 {
    let guard = registry().lock().unwrap_or_else(|p| p.into_inner());
    guard
        .as_ref()
        .map(|s| s.site_hits.values().sum())
        .unwrap_or(0)
}

/// Total number of faults the active schedule has fired so far.
pub fn faults_fired() -> u64 {
    let guard = registry().lock().unwrap_or_else(|p| p.into_inner());
    guard.as_ref().map(|s| s.fired).unwrap_or(0)
}

/// Whether a schedule is currently installed.
pub fn active() -> bool {
    registry()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .is_some()
}

/// Names of every site hit at least once under the active schedule,
/// sorted (empty when no schedule is installed). The chaos suite
/// cross-checks this against [`declared_sites`].
pub fn hit_sites() -> Vec<String> {
    let guard = registry().lock().unwrap_or_else(|p| p.into_inner());
    let mut sites: Vec<String> = guard
        .as_ref()
        .map(|s| s.site_hits.keys().cloned().collect())
        .unwrap_or_default();
    sites.sort();
    sites
}

/// The central site manifest (`crates/chaos/sites.txt`), embedded at
/// compile time so the runtime, the chaos tests, and `mcr-lint` all
/// read the same declaration list. Comments and blank lines are
/// stripped; order follows the file.
pub fn declared_sites() -> Vec<&'static str> {
    include_str!("../sites.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// splitmix64: the standard 64-bit finalizer-style mixer; used to
/// derive reproducible trigger points from (seed, pattern).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// FNV-1a over the pattern bytes, so trigger points differ per site.
/// A private copy of `mcr_graph::hash::fnv1a`: `mcr-graph` depends on
/// this crate (for its own fault sites), so this crate cannot use it.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_observes_but_never_fires() {
        // (Holding the guard serializes against the other chaos tests.)
        let _guard = FaultSchedule::new(0).install();
        assert_eq!(hit("core.karp.level"), None);
        assert!(active());
        assert_eq!(hits("core.karp.level"), 1);
        assert_eq!(faults_fired(), 0);
    }

    #[test]
    fn exact_window_fires_and_closes() {
        let _g = FaultSchedule::new(1)
            .inject_at("a.b", FaultKind::Transient, 1, 2)
            .install();
        assert_eq!(hit("a.b"), None);
        assert_eq!(hit("a.b"), Some(FaultKind::Transient));
        assert_eq!(hit("a.b"), Some(FaultKind::Transient));
        assert_eq!(hit("a.b"), None);
        assert_eq!(hits("a.b"), 4);
        assert_eq!(faults_fired(), 2);
    }

    #[test]
    fn prefix_patterns_match() {
        let _g = FaultSchedule::new(1)
            .inject_always("core.howard.*", FaultKind::Overflow)
            .install();
        assert_eq!(hit("core.howard.exact.improve"), Some(FaultKind::Overflow));
        assert_eq!(hit("core.howard.fig1.improve"), Some(FaultKind::Overflow));
        assert_eq!(hit("core.karp.level"), None);
    }

    #[test]
    fn seeded_trigger_points_are_reproducible() {
        let a = FaultSchedule::new(7).inject("x.y", FaultKind::Transient);
        let b = FaultSchedule::new(7).inject("x.y", FaultKind::Transient);
        assert_eq!(a.injections()[0].after, b.injections()[0].after);
        let c = FaultSchedule::new(8).inject("x.y", FaultKind::Transient);
        // Different seeds *may* collide (mod 16); different sites under
        // the same seed usually differ. Just pin the derivation window.
        assert!(c.injections()[0].after < 16);
        assert!(a.injections()[0].after < 16);
    }

    #[test]
    fn guard_uninstalls_on_drop() {
        {
            let _g = FaultSchedule::new(1)
                .inject_always("z", FaultKind::Transient)
                .install();
            assert_eq!(hit("z"), Some(FaultKind::Transient));
        }
        // No schedule of this test remains; "z" can no longer fire.
        // (Another test's schedule may be active concurrently, but none
        // of them match "z".)
        assert_eq!(hit("z"), None);
    }

    #[test]
    fn manifest_is_nonempty_and_duplicate_free() {
        let sites = declared_sites();
        assert!(!sites.is_empty());
        let mut dedup = sites.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), sites.len(), "duplicate site in sites.txt");
        for s in &sites {
            assert!(
                s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._-".contains(c)),
                "site `{s}` violates the naming scheme"
            );
        }
    }

    #[test]
    fn hit_sites_reports_observed_names() {
        let _g = FaultSchedule::new(3).install();
        let _ = hit("core.karp.level");
        let _ = hit("graph.scc.root");
        let observed = hit_sites();
        assert!(observed.contains(&"core.karp.level".to_string()));
        assert!(observed.contains(&"graph.scc.root".to_string()));
    }

    #[test]
    fn delay_is_applied_not_returned() {
        let _g = FaultSchedule::new(1)
            .inject_at("slow", FaultKind::Delay { millis: 5 }, 0, 1)
            .install();
        let t0 = std::time::Instant::now();
        assert_eq!(hit("slow"), None);
        assert!(t0.elapsed() >= std::time::Duration::from_millis(4));
    }
}
