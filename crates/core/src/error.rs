//! The typed error model for the solver layer.
//!
//! Every public entry point of this crate is *total*: instead of
//! panicking on degenerate inputs (zero-transit cycles, adversarial
//! weights that overflow `i64`, budgets that run out before an
//! iterative method converges) it returns a [`SolveError`]. The driver
//! distinguishes *recoverable* errors — another algorithm might still
//! succeed, so the fallback chain keeps going — from *non-recoverable*
//! ones, which are properties of the input itself and abort the solve
//! immediately (see [`SolveError::is_recoverable`]).

// Parsing/validation surfaces must stay panic-free whatever the
// input; CI runs clippy with -D warnings, so these lints are a gate.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]


use crate::algorithms::Algorithm;
use std::fmt;

/// Which budgeted resource ran out (see [`crate::Budget`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BudgetResource {
    /// [`crate::Budget::max_iterations`]: outer-loop passes of the
    /// algorithm (policy improvements, pivots, table levels, bisection
    /// steps).
    Iterations,
    /// [`crate::Budget::wall_time`]: the shared wall-clock deadline.
    WallTime,
    /// [`crate::Budget::max_lambda_refinements`]: λ-refinement steps of
    /// the search-based algorithms (Lawler, OA1, Megiddo's oracle
    /// resolutions, the ratio bisection).
    LambdaRefinements,
}

impl fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetResource::Iterations => "iterations",
            BudgetResource::WallTime => "wall time",
            BudgetResource::LambdaRefinements => "lambda refinements",
        })
    }
}

/// Why a solve did not produce a [`crate::Solution`].
///
/// Returned by [`Algorithm::solve_with_options`] and every `_opts`
/// entry point. The convenience wrappers ([`Algorithm::solve`],
/// [`crate::minimum_cycle_mean`], …) flatten this to `Option` for the
/// common acyclic case.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SolveError {
    /// The input graph has no cycle, so no cycle mean or ratio exists.
    Acyclic,
    /// A [`crate::Budget`] resource was exhausted before `algorithm`
    /// converged (after `spent` charges against that resource) and no
    /// fallback answered either.
    BudgetExhausted {
        /// The algorithm that ran out (the last of the fallback chain
        /// to be attempted).
        algorithm: Algorithm,
        /// Which resource ran out.
        resource: BudgetResource,
        /// Charges consumed against that resource when it ran out.
        spent: u64,
    },
    /// Integer arithmetic overflowed while accumulating cycle weights
    /// or transit times.
    Overflow {
        /// Where the overflow happened.
        context: &'static str,
    },
    /// A ratio problem was posed on a graph with a cycle of zero total
    /// transit time; its ratio is undefined.
    ZeroTransitCycle,
    /// An approximate algorithm was configured with an epsilon that is
    /// not positive and finite.
    InvalidEpsilon {
        /// The offending value.
        epsilon: f64,
    },
    /// An internal numeric range was exhausted (binary-search
    /// denominators outgrowing `i64`, scaling phases collapsing);
    /// another algorithm may still solve the instance exactly.
    NumericRange {
        /// Which search ran out of range.
        context: &'static str,
    },
    /// The solve was cancelled through a [`crate::CancelToken`]
    /// (directly, or by the CLI's `--timeout` watchdog). Cancellation
    /// is deliberate and solve-wide, so the fallback chain does *not*
    /// continue past it: the solve fails closed immediately.
    Cancelled,
}

impl SolveError {
    /// Whether a *different algorithm* might still solve the instance:
    /// budget exhaustion, overflow, and numeric-range failures are
    /// properties of the attempted method, so the fallback chain
    /// continues past them. [`SolveError::Acyclic`],
    /// [`SolveError::ZeroTransitCycle`] and
    /// [`SolveError::InvalidEpsilon`] are properties of the input or
    /// configuration, and [`SolveError::Cancelled`] is an explicit
    /// caller request; all of those abort immediately.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            SolveError::BudgetExhausted { .. }
                | SolveError::Overflow { .. }
                | SolveError::NumericRange { .. }
        )
    }

    /// A short stable kebab-case tag for the variant, used as the
    /// `error` field of `mcr-trace v1` events and by machine-readable
    /// CLI output. Part of the trace schema: renaming one is a schema
    /// version bump.
    pub fn kind(&self) -> &'static str {
        match self {
            SolveError::Acyclic => "acyclic",
            SolveError::BudgetExhausted { .. } => "budget-exhausted",
            SolveError::Overflow { .. } => "overflow",
            SolveError::ZeroTransitCycle => "zero-transit-cycle",
            SolveError::InvalidEpsilon { .. } => "invalid-epsilon",
            SolveError::NumericRange { .. } => "numeric-range",
            SolveError::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Acyclic => f.write_str("the graph is acyclic: no cycle mean or ratio exists"),
            SolveError::BudgetExhausted {
                algorithm,
                resource,
                spent,
            } => write!(
                f,
                "budget exhausted: {algorithm} ran out of {resource} after {spent} charge(s)"
            ),
            SolveError::Overflow { context } => {
                write!(f, "integer overflow in {context}")
            }
            SolveError::ZeroTransitCycle => f.write_str(
                "some cycle has zero total transit time: its cost-to-time ratio is undefined",
            ),
            SolveError::InvalidEpsilon { epsilon } => {
                write!(f, "epsilon must be positive and finite, got {epsilon}")
            }
            SolveError::NumericRange { context } => {
                write!(f, "numeric range exhausted in {context}")
            }
            SolveError::Cancelled => f.write_str("the solve was cancelled"),
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recoverability_partition() {
        let recoverable = [
            SolveError::BudgetExhausted {
                algorithm: Algorithm::HowardExact,
                resource: BudgetResource::Iterations,
                spent: 1,
            },
            SolveError::Overflow { context: "test" },
            SolveError::NumericRange { context: "test" },
        ];
        let fatal = [
            SolveError::Acyclic,
            SolveError::ZeroTransitCycle,
            SolveError::InvalidEpsilon { epsilon: -1.0 },
            SolveError::Cancelled,
        ];
        for e in recoverable {
            assert!(e.is_recoverable(), "{e}");
        }
        for e in fatal {
            assert!(!e.is_recoverable(), "{e}");
        }
    }

    #[test]
    fn display_mentions_the_essentials() {
        let e = SolveError::BudgetExhausted {
            algorithm: Algorithm::Karp,
            resource: BudgetResource::WallTime,
            spent: 42,
        };
        let s = e.to_string();
        assert!(s.contains("Karp") && s.contains("wall time") && s.contains("42"), "{s}");
        assert!(SolveError::Acyclic.to_string().contains("acyclic"));
    }
}
