//! One request, one dispatch: the shared solve entry point.
//!
//! The CLI's `mcr solve` and the `mcrd` daemon accept the same logical
//! request — algorithm, objective (mean or ratio), minimize/maximize,
//! precision — and must produce **bit-identical** answers for it. That
//! only holds if they share one dispatch: [`solve_spec`] is it. The
//! per-component kernel it runs comes from the crate's route table,
//! shared with the incremental [`crate::DynamicSolver`]; the ratio
//! objective on an algorithm with no ratio kernel solves the whole
//! graph by transit expansion instead.

// Request dispatch must stay panic-free whatever the request says;
// CI runs clippy with -D warnings, so these lints are a gate.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use crate::algorithms::Algorithm;
use crate::budget::Budget;
use crate::error::SolveError;
use crate::options::{FallbackChain, SolveOptions};
use crate::ratio;
use crate::route::{self, route_for};
use crate::solution::Solution;
use crate::status::SolveStatus;
use mcr_graph::Graph;
use std::fmt;
use std::time::Duration;

/// Which cyclic quantity is being optimized.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Cycle mean `w(C)/|C|` — the MCMP of the study.
    Mean,
    /// Cost-to-time ratio `w(C)/t(C)` — the MCRP (requires every cycle
    /// to have positive total transit time).
    Ratio,
}

impl Objective {
    /// Stable wire tag (`mcr-req v1` `objective` field).
    pub fn wire_name(self) -> &'static str {
        match self {
            Objective::Mean => "mean",
            Objective::Ratio => "ratio",
        }
    }

    /// Inverse of [`Objective::wire_name`] (case-insensitive).
    pub fn by_name(name: &str) -> Option<Objective> {
        if name.eq_ignore_ascii_case("mean") {
            Some(Objective::Mean)
        } else if name.eq_ignore_ascii_case("ratio") {
            Some(Objective::Ratio)
        } else {
            None
        }
    }
}

/// A fully-specified solve request, minus the execution knobs (which
/// live in [`SolveOptions`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolveSpec {
    /// The algorithm to dispatch (fallbacks come from the options).
    pub algorithm: Algorithm,
    /// Mean or ratio.
    pub objective: Objective,
    /// Maximize instead of minimize (solved as the minimum over negated
    /// weights; the returned λ is already negated back to the caller's
    /// orientation).
    pub maximize: bool,
}

impl SolveSpec {
    /// Minimum cycle mean with `algorithm`.
    pub fn mean(algorithm: Algorithm) -> SolveSpec {
        SolveSpec {
            algorithm,
            objective: Objective::Mean,
            maximize: false,
        }
    }

    /// Minimum cycle ratio with `algorithm`.
    pub fn ratio(algorithm: Algorithm) -> SolveSpec {
        SolveSpec {
            algorithm,
            objective: Objective::Ratio,
            maximize: false,
        }
    }

    /// Flips to the maximization objective.
    pub fn maximize(mut self) -> SolveSpec {
        self.maximize = true;
        self
    }
}

/// Why [`solve_spec`] failed: a typed solver error, or a request-level
/// problem that has no [`SolveError`] variant (the ratio-expansion
/// reduction reports those as text).
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// A typed failure from the solver layer.
    Solve(SolveError),
    /// The request itself was unusable.
    Input(String),
}

impl SpecError {
    /// The [`SolveStatus`] this failure maps to (CLI exit code,
    /// `mcr-resp v1` status).
    pub fn status(&self) -> SolveStatus {
        match self {
            SpecError::Solve(e) => SolveStatus::from_solve_error(e),
            SpecError::Input(_) => SolveStatus::InputError,
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Solve(e) => e.fmt(f),
            SpecError::Input(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<SolveError> for SpecError {
    fn from(e: SolveError) -> Self {
        SpecError::Solve(e)
    }
}

/// Runs `spec` on `g` under `opts`.
///
/// Returns `Ok(None)` when `g` is acyclic (a non-error outcome: there
/// is no cycle mean or ratio to report). For `maximize` each cyclic
/// component is solved as the minimum over its negated weights and the
/// returned λ is negated back, so the solution is in the caller's
/// orientation; the witness cycle indexes `g`'s arcs either way, and
/// [`crate::certify()`] against `g` works unchanged (negation commutes
/// with both objectives). A cycle through a weight of `i64::MIN`, which
/// has no negation, makes a maximize fail with
/// [`SolveError::Overflow`]. [`SolveOptions::plan`] is prepared from
/// `g` for either orientation.
///
/// The per-component kernel comes from the crate's one route table,
/// which [`crate::DynamicSolver`] shares; the `mcrd` daemon calls this
/// same function, which is what makes daemon answers bit-identical to
/// one-shot CLI answers for the same request.
pub fn solve_spec(
    g: &Graph,
    spec: &SolveSpec,
    opts: &SolveOptions,
) -> Result<Option<Solution>, SpecError> {
    if let Some(route) = route_for(spec, opts) {
        return flatten_acyclic(route::solve(g, &route, spec.maximize, opts));
    }
    // The expansion's own solve picks its precision.
    route::preflight(Objective::Ratio, g, opts, false, || {
        ratio::has_zero_transit_cycle(g.view())
    })?;
    if !spec.maximize {
        return ratio::solve_by_expansion(g, spec.algorithm, opts);
    }
    // The expansion is one derived graph, so a maximize negates all of
    // `g`, not only its cycles.
    let negated = g.checked_negated().ok_or(SolveError::Overflow {
        context: "maximize: negating an arc weight of i64::MIN",
    })?;
    let sol = ratio::solve_by_expansion(&negated, spec.algorithm, opts)?;
    Ok(sol.map(|sol| Solution {
        lambda: -sol.lambda,
        ..sol
    }))
}

/// Folds the non-error "no cycle" outcome back into `None`, leaving
/// real failures typed.
fn flatten_acyclic(r: Result<Solution, SolveError>) -> Result<Option<Solution>, SpecError> {
    match r {
        Ok(sol) => Ok(Some(sol)),
        Err(SolveError::Acyclic) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Parses a budget spec: comma-separated `key=value` terms with keys
/// `iters`, `refine`, `time` (`500ms`, `2s`, or plain seconds). The
/// one syntax accepted by both `mcr solve --budget` and the `mcr-req
/// v1` `"budget"` field.
pub fn parse_budget_spec(spec: &str) -> Result<Budget, String> {
    let mut budget = Budget::UNLIMITED;
    for term in spec.split(',') {
        let term = term.trim();
        if term.is_empty() {
            continue;
        }
        let (key, value) = term
            .split_once('=')
            .ok_or_else(|| format!("budget term `{term}` is not key=value"))?;
        match key {
            "iters" | "iterations" => {
                let n: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid iteration budget `{value}`"))?;
                budget = budget.max_iterations(n);
            }
            "refine" | "refinements" => {
                let n: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid refinement budget `{value}`"))?;
                budget = budget.max_lambda_refinements(n);
            }
            "time" | "wall" => {
                budget = budget.wall_time(parse_duration_spec(value)?);
            }
            other => {
                return Err(format!(
                    "unknown budget resource `{other}` (use iters, refine, or time)"
                ))
            }
        }
    }
    Ok(budget)
}

/// Parses a duration spec: `500ms`, `2s`, or plain seconds.
pub fn parse_duration_spec(value: &str) -> Result<Duration, String> {
    let (digits, scale) = if let Some(ms) = value.strip_suffix("ms") {
        (ms, 1e-3)
    } else if let Some(secs) = value.strip_suffix('s') {
        (secs, 1.0)
    } else {
        (value, 1.0)
    };
    let amount: f64 = digits
        .parse()
        .map_err(|_| format!("invalid duration `{value}` (use e.g. 500ms, 2s)"))?;
    if !(amount >= 0.0 && amount.is_finite()) {
        return Err(format!("invalid duration `{value}`"));
    }
    Ok(Duration::from_secs_f64(amount * scale))
}

/// Parses a fallback-chain spec: `none`, or comma-separated algorithm
/// names in attempt order. Shared by `mcr solve --fallback` and the
/// `mcr-req v1` `"fallback"` field.
pub fn parse_fallback_spec(spec: &str) -> Result<FallbackChain, String> {
    if spec.eq_ignore_ascii_case("none") {
        return Ok(FallbackChain::NONE);
    }
    let mut chain = Vec::new();
    for name in spec.split(',') {
        let name = name.trim();
        if name.is_empty() {
            continue;
        }
        chain.push(
            Algorithm::by_name(name)
                .ok_or_else(|| format!("unknown fallback algorithm `{name}`"))?,
        );
    }
    Ok(FallbackChain::new(&chain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::Ratio64;
    use mcr_graph::graph::from_arc_list;

    #[test]
    fn mean_spec_matches_direct_solve() {
        let g = from_arc_list(3, &[(0, 1, 2), (1, 2, 4), (2, 0, 3), (1, 0, 8)]);
        for alg in Algorithm::ALL {
            let direct = alg.solve(&g).expect("cyclic");
            let via_spec = solve_spec(&g, &SolveSpec::mean(alg), &SolveOptions::default())
                .expect("ok")
                .expect("cyclic");
            assert_eq!(via_spec.lambda, direct.lambda, "{}", alg.name());
            assert_eq!(via_spec.cycle, direct.cycle, "{}", alg.name());
            assert_eq!(via_spec.counters, direct.counters, "{}", alg.name());
        }
    }

    #[test]
    fn maximize_negates_in_and_out() {
        let g = from_arc_list(2, &[(0, 1, 1), (1, 0, 5)]);
        let spec = SolveSpec::mean(Algorithm::HowardExact).maximize();
        let sol = solve_spec(&g, &spec, &SolveOptions::default())
            .expect("ok")
            .expect("cyclic");
        assert_eq!(sol.lambda, Ratio64::from(3));
        // The witness indexes the caller's graph and certifies there.
        crate::certify(&sol, &g).expect("maximized witness certifies");
    }

    #[test]
    fn acyclic_is_ok_none() {
        let g = from_arc_list(3, &[(0, 1, 1), (1, 2, 1)]);
        for objective in [Objective::Mean, Objective::Ratio] {
            let spec = SolveSpec {
                algorithm: Algorithm::Karp,
                objective,
                maximize: false,
            };
            assert!(
                solve_spec(&g, &spec, &SolveOptions::default())
                    .expect("non-error")
                    .is_none(),
                "{objective:?}"
            );
        }
    }

    #[test]
    fn ratio_spec_agrees_across_algorithms() {
        use mcr_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        let v = b.add_nodes(3);
        b.add_arc_with_transit(v[0], v[1], 2, 1);
        b.add_arc_with_transit(v[1], v[2], 4, 2);
        b.add_arc_with_transit(v[2], v[0], 3, 1);
        b.add_arc_with_transit(v[1], v[0], 8, 3);
        let g = b.build();
        let reference = solve_spec(
            &g,
            &SolveSpec::ratio(Algorithm::HowardExact),
            &SolveOptions::default(),
        )
        .expect("ok")
        .expect("cyclic")
        .lambda;
        for alg in Algorithm::ALL {
            let sol = solve_spec(&g, &SolveSpec::ratio(alg), &SolveOptions::default())
                .expect("ok")
                .expect("cyclic");
            if !alg.is_approximate() {
                assert_eq!(sol.lambda, reference, "{}", alg.name());
            }
        }
    }

    #[test]
    fn zero_transit_cycle_is_typed() {
        use mcr_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        let v = b.add_nodes(2);
        b.add_arc_with_transit(v[0], v[1], 1, 0);
        b.add_arc_with_transit(v[1], v[0], 1, 0);
        let g = b.build();
        let err = solve_spec(
            &g,
            &SolveSpec::ratio(Algorithm::HowardExact),
            &SolveOptions::default(),
        )
        .expect_err("zero-transit cycle");
        assert_eq!(err, SpecError::Solve(SolveError::ZeroTransitCycle));
        assert_eq!(err.status(), SolveStatus::InputError);
    }

    #[test]
    fn invalid_epsilon_is_typed_for_both_objectives() {
        let g = from_arc_list(2, &[(0, 1, 1), (1, 0, 3)]);
        for objective in [Objective::Mean, Objective::Ratio] {
            let spec = SolveSpec {
                algorithm: Algorithm::Lawler,
                objective,
                maximize: false,
            };
            let opts = SolveOptions {
                epsilon: Some(-1.0),
                ..SolveOptions::default()
            };
            let err = solve_spec(&g, &spec, &opts).expect_err("bad epsilon");
            assert!(
                matches!(err, SpecError::Solve(SolveError::InvalidEpsilon { .. })),
                "{objective:?}: {err}"
            );
        }
    }

    #[test]
    fn budget_and_fallback_specs_parse() {
        let b = parse_budget_spec("iters=3,refine=2,time=250ms").expect("parses");
        assert_eq!(b.max_iterations, Some(3));
        assert_eq!(b.max_lambda_refinements, Some(2));
        assert_eq!(b.wall_time, Some(Duration::from_millis(250)));
        assert!(parse_budget_spec("fuel=9").is_err());
        assert_eq!(parse_fallback_spec("none").expect("parses"), FallbackChain::NONE);
        let chain = parse_fallback_spec("karp, lawler-exact").expect("parses");
        assert_eq!(
            chain.alternates().collect::<Vec<_>>(),
            [Algorithm::Karp, Algorithm::LawlerExact]
        );
        assert!(parse_fallback_spec("dijkstra").is_err());
        assert!(parse_duration_spec("-1s").is_err());
        assert!(parse_duration_spec("2s").is_ok());
    }

    #[test]
    fn objective_wire_names_round_trip() {
        for o in [Objective::Mean, Objective::Ratio] {
            assert_eq!(Objective::by_name(o.wire_name()), Some(o));
        }
        assert_eq!(Objective::by_name("nonsense"), None);
    }
}
