//! Failpoint sites for the solver layer (`chaos` feature).
//!
//! With the feature off (the default) every helper here is an empty
//! `#[inline(always)]` function and the crate contains no injection
//! code at all. With `--features chaos` the helpers report to the
//! [`mcr_chaos`] registry, so a seeded [`mcr_chaos::FaultSchedule`]
//! can deterministically fail any layer of a solve.
//!
//! # Site naming
//!
//! Sites are dot-separated, coarse-to-fine:
//!
//! | site                        | layer                                  |
//! |-----------------------------|----------------------------------------|
//! | `core.<algorithm>.<loop>`   | an algorithm's main loop (see below)   |
//! | `core.bellman.round`        | the shared Bellman–Ford oracle         |
//! | `core.driver.job`           | per-SCC job dispatch (unit site)       |
//! | `core.fallback.attempt`     | each fallback-chain attempt            |
//! | `core.workspace.reset`      | workspace poison-recovery (unit site)  |
//! | `core.dynamic.apply`        | incremental edit-batch application     |
//! | `core.dynamic.rebuild`      | topology rebuild or patch (unit site)  |
//! | `core.dynamic.certify`      | incremental witness re-certification   |
//!
//! Algorithm loop sites: `core.burns.phase`, `core.burns.exact.phase`,
//! `core.ko-yto.pivot`, `core.howard.fig1.improve`,
//! `core.howard.exact.improve`, `core.ho.level`, `core.karp.level`,
//! `core.karp2.level`, `core.dg.level`, `core.lawler.bisect`,
//! `core.lawler.exact.bisect`, `core.megiddo.resolve`, `core.oa1.refine`,
//! `core.ratio.bisect`. Error-capable sites are reached through
//! [`crate::BudgetScope::chaos_check`], which maps the injected
//! [`mcr_chaos::FaultKind`] onto the layer's typed
//! [`crate::SolveError`]; unit sites only count hits and honor
//! [`mcr_chaos::FaultKind::Delay`].
//!
//! The authoritative list of site names lives in
//! `crates/chaos/sites.txt` ([`mcr_chaos::declared_sites`]); the chaos
//! suite asserts every fired site is declared there, and `mcr-lint`
//! rule MCRL002 statically checks every call site against it.

#[cfg(feature = "chaos")]
pub use mcr_chaos::{
    active, declared_sites, faults_fired, hit_sites, hits, total_hits, ChaosGuard, FaultKind,
    FaultSchedule,
};

/// Unit failpoint: counts the hit and applies delay faults; error kinds
/// scheduled on a unit site are ignored (the site has no error path).
#[cfg(feature = "chaos")]
#[inline]
pub(crate) fn pulse(site: &'static str) {
    if let Some(kind) = mcr_chaos::hit(site) {
        // With `obs` also enabled, even faults on unit sites (which
        // have no error path) become trace events.
        crate::obs::fault_injected(
            site,
            match kind {
                mcr_chaos::FaultKind::Delay { .. } => "delay",
                mcr_chaos::FaultKind::BudgetExhaust => "budget-exhaust",
                mcr_chaos::FaultKind::Overflow => "overflow",
                mcr_chaos::FaultKind::NumericRange => "numeric-range",
                mcr_chaos::FaultKind::Transient => "transient",
            },
        );
    }
}

/// Compiled-out unit failpoint: nothing at all.
#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub(crate) fn pulse(_site: &'static str) {}

/// Boolean failpoint: `true` when a fault fires at `site`, for code
/// with its own degradation path rather than a typed error (the
/// incremental solver falls back to a full solve). Any scheduled fault
/// kind trips it; the fault is reported like [`pulse`] does.
#[cfg(feature = "chaos")]
#[inline]
pub(crate) fn fail_hit(site: &'static str) -> bool {
    if let Some(kind) = mcr_chaos::hit(site) {
        crate::obs::fault_injected(
            site,
            match kind {
                mcr_chaos::FaultKind::Delay { .. } => "delay",
                mcr_chaos::FaultKind::BudgetExhaust => "budget-exhaust",
                mcr_chaos::FaultKind::Overflow => "overflow",
                mcr_chaos::FaultKind::NumericRange => "numeric-range",
                mcr_chaos::FaultKind::Transient => "transient",
            },
        );
        return true;
    }
    false
}

/// Compiled-out boolean failpoint: never fires.
#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub(crate) fn fail_hit(_site: &'static str) -> bool {
    false
}
