//! Failpoint sites for the graph substrate (`chaos` feature).
//!
//! With the feature off (the default) every helper here is an empty
//! `#[inline(always)]` function, so release builds carry no injection
//! overhead whatsoever. With `--features chaos` the helpers report to
//! the `mcr_chaos` registry and surface scheduled faults.
//!
//! Two flavors of site exist in this crate:
//!
//! * **fallible sites** (`fail_hit`) — places with an error path
//!   (the DIMACS parser). An injected error-kind fault makes the caller
//!   return its layer's typed error.
//! * **unit sites** (`pulse`) — places that cannot fail by
//!   construction (heap operations, SCC roots). These honor only
//!   `mcr_chaos::FaultKind::Delay` (the registry applies it in
//!   place) and count the hit for coverage assertions.

#[cfg(feature = "chaos")]
pub use mcr_chaos::{active, faults_fired, hits, total_hits, ChaosGuard, FaultKind, FaultSchedule};

/// Fallible failpoint: returns `true` when an error-kind fault fired at
/// `site` (the caller must then fail with its typed error). Delay
/// faults are applied in place and report `false`.
#[cfg(feature = "chaos")]
#[inline]
pub(crate) fn fail_hit(site: &'static str) -> bool {
    !matches!(
        mcr_chaos::hit(site),
        None | Some(mcr_chaos::FaultKind::Delay { .. })
    )
}

/// Compiled-out fallible failpoint: never fires.
#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub(crate) fn fail_hit(_site: &'static str) -> bool {
    false
}

/// Unit failpoint: counts the hit and applies delay faults; error kinds
/// scheduled on a unit site are ignored (the site has no error path).
#[cfg(feature = "chaos")]
#[inline]
pub(crate) fn pulse(site: &'static str) {
    let _ = mcr_chaos::hit(site);
}

/// Compiled-out unit failpoint: nothing at all.
#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub(crate) fn pulse(_site: &'static str) {}
