//! The route table: which kernel solves each cyclic component of a
//! request, under which budget, with which errors.
//!
//! The paper's driver solves every strongly connected component with
//! one kernel and takes the minimum (§2). Every entry point that runs
//! that driver — [`crate::spec::solve_spec`],
//! [`Algorithm::solve_with_options`], the `ratio::*` functions and the
//! incremental [`crate::DynamicSolver`] — picks its per-component call
//! here, so the answer, the counters and the typed error for a request
//! cannot depend on which front end asked.
//!
//! Every route runs its kernels under the request's budget, deadline
//! and cancel token, and every failure comes back as a typed
//! [`SolveError`]. The mean objective adds the fallback chain; the
//! ratio objective has none (the chain's Karp and Lawler-exact ignore
//! transit times).

// Request dispatch must stay panic-free whatever the request says;
// CI runs clippy with -D warnings, so these lints are a gate.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use crate::algorithms::{read_epsilon, run_fallback_chain, solve_scc_budgeted, Algorithm};
use crate::budget::{BudgetScope, Deadline};
use crate::driver::{solve_per_scc_opts, SccOutcome};
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::options::SolveOptions;
use crate::ratio::{has_zero_transit_cycle, ratio_bisection};
use crate::solution::Solution;
use crate::spec::{Objective, SolveSpec};
use crate::workspace::Workspace;
use mcr_graph::Graph;

/// How each cyclic component of a request is solved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// The mean objective: the fallback chain, primary first, each
    /// attempt under a fresh budget scope.
    Mean(Vec<Algorithm>),
    /// The ratio objective with a transit-aware kernel and no fallback.
    Ratio(Algorithm),
}

/// The route of `spec` under `opts`, or `None` when the ratio objective
/// names an algorithm with no ratio kernel (the Karp family and OA1).
/// Those solve the transit expansion of the whole graph under the same
/// options ([`crate::ratio::ratio_via_expansion`]), so they have no
/// per-component route.
pub(crate) fn route_for(spec: &SolveSpec, opts: &SolveOptions) -> Option<Route> {
    match spec.objective {
        Objective::Mean => Some(Route::Mean(opts.fallback.chain_for(spec.algorithm))),
        Objective::Ratio => match spec.algorithm {
            // The ratio route has always run Burns on exact duals.
            Algorithm::Burns | Algorithm::BurnsExact => Some(Route::Ratio(Algorithm::BurnsExact)),
            alg @ (Algorithm::Howard
            | Algorithm::HowardExact
            | Algorithm::Ko
            | Algorithm::Yto
            | Algorithm::Lawler
            | Algorithm::LawlerExact
            | Algorithm::Megiddo) => Some(Route::Ratio(alg)),
            _ => None,
        },
    }
}

impl Route {
    fn objective(&self) -> Objective {
        match self {
            Route::Mean(_) => Objective::Mean,
            Route::Ratio(_) => Objective::Ratio,
        }
    }

    /// The algorithm the request names (the chain's primary).
    fn name(&self) -> &'static str {
        match self {
            Route::Mean(chain) => chain.first().map_or("", |alg| alg.name()),
            Route::Ratio(alg) => alg.name(),
        }
    }

    /// Whether some kernel of the route reads the precision, so an
    /// answer cached under one precision is stale under another.
    pub(crate) fn consumes_epsilon(&self) -> bool {
        match self {
            Route::Mean(chain) => chain.iter().any(|alg| alg.is_approximate()),
            Route::Ratio(alg) => alg.is_approximate(),
        }
    }
}

/// The up-front checks of every solve, in order: the precision (an
/// explicit one must be positive and finite), then, for the ratio
/// objective, the zero-transit-cycle guard, which `zero_transit_cycle`
/// answers. Returns the precision when `consumes_epsilon` (some kernel
/// of the route reads it): the explicit one, or else the default, which
/// scales with `g`'s weight range and costs two scans of its weights.
/// An exact route gets `None`, so no kernel can read a precision nobody
/// computed.
pub(crate) fn preflight(
    objective: Objective,
    g: &Graph,
    opts: &SolveOptions,
    consumes_epsilon: bool,
    zero_transit_cycle: impl FnOnce() -> bool,
) -> Result<Option<f64>, SolveError> {
    let epsilon = match opts.epsilon {
        Some(e) if e > 0.0 && e.is_finite() => Some(e),
        Some(e) => return Err(SolveError::InvalidEpsilon { epsilon: e }),
        None => None,
    };
    if objective == Objective::Ratio && zero_transit_cycle() {
        return Err(SolveError::ZeroTransitCycle);
    }
    Ok(consumes_epsilon.then(|| epsilon.unwrap_or_else(|| Algorithm::default_epsilon(g))))
}

/// Solves one strongly connected, cyclic component by `route`. `job` is
/// the component's index in canonical job order, the key of the mean
/// route's checkpoints and trace events; `epsilon` is [`preflight`]'s.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_component(
    route: &Route,
    job: usize,
    sub: &Graph,
    counters: &mut Counters,
    ws: &mut Workspace,
    epsilon: Option<f64>,
    opts: &SolveOptions,
    deadline: Option<Deadline>,
) -> Result<SccOutcome, SolveError> {
    match route {
        Route::Mean(chain) => {
            run_fallback_chain(job, chain, sub, counters, epsilon, ws, opts, deadline)
        }
        &Route::Ratio(alg) => {
            let mut scope = BudgetScope::for_solve(opts, deadline, alg);
            match alg {
                Algorithm::Lawler => {
                    ratio_bisection(sub, counters, Some(read_epsilon(epsilon)?), ws, &mut scope)
                }
                Algorithm::LawlerExact => ratio_bisection(sub, counters, None, ws, &mut scope),
                // Howard, Burns-exact, KO, YTO and Megiddo read transit
                // times, so their mean kernels solve the ratio problem.
                _ => solve_scc_budgeted(alg, sub, counters, epsilon, ws, &mut scope),
            }
        }
    }
}

/// Solves `g` by `route`: the up-front checks, then every cyclic
/// component and the minimum, inside one trace span.
pub(crate) fn solve(g: &Graph, route: &Route, opts: &SolveOptions) -> Result<Solution, SolveError> {
    let recorder = opts.recorder.as_ref();
    crate::obs::solve_start(recorder, route.name(), g, opts.effective_threads());
    let result = solve_untraced(g, route, opts);
    match &result {
        Ok(sol) => {
            crate::obs::solve_end_ok(recorder, &sol.lambda, sol.solved_by.name(), &sol.counters)
        }
        Err(err) => crate::obs::solve_end_err(recorder, err.kind()),
    }
    result
}

/// [`solve`] without the trace span, for a caller that opened its own.
pub(crate) fn solve_untraced(
    g: &Graph,
    route: &Route,
    opts: &SolveOptions,
) -> Result<Solution, SolveError> {
    let epsilon = preflight(route.objective(), g, opts, route.consumes_epsilon(), || {
        has_zero_transit_cycle(g)
    })?;
    let deadline = opts.effective_deadline();
    solve_per_scc_opts(g, opts, |job, sub, counters, ws| {
        solve_component(route, job, sub, counters, ws, epsilon, opts, deadline)
    })
}
