//! The optimum cost-to-time ratio problem (MCRP).
//!
//! The cycle *ratio* `w(C)/t(C)` generalizes the cycle mean (which is
//! the unit-transit special case). Several algorithms in the suite
//! handle general transit times natively — Howard, Burns, Lawler, and
//! the parametric pair KO/YTO — and this module exposes them. It also
//! implements the classic reduction in the other direction: expanding
//! each arc of transit time `t ≥ 1` into a chain of `t` unit-transit
//! arcs turns any MCM algorithm into an MCR algorithm (the
//! Hartmann–Orlin `O(Tm)` approach, item 13 of the paper's Table 1).
//!
//! # Preconditions
//!
//! A cycle ratio is only defined for cycles of positive total transit
//! time. All solvers here require every cycle of the input to have
//! `t(C) > 0` (zero-transit *arcs* are fine); a zero-transit cycle is a
//! causality violation in the modeled system and is reported by
//! [`has_zero_transit_cycle`].

use crate::algorithms::{run_fallback_chain, Algorithm};
use crate::budget::{BudgetScope, Deadline};
use crate::driver::SccOutcome;
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::options::SolveOptions;
use crate::route::{self, Route};
use crate::solution::Solution;
use crate::spec::SpecError;
use crate::workspace::Workspace;
use mcr_graph::compact::MAX_INDEX;
use mcr_graph::{ArcId, ComponentArena, Graph, GraphBuilder, GraphRef, NodeId, SccDecomposition};

/// Whether some cycle of `g` has zero total transit time (making cycle
/// ratios undefined).
///
/// ```
/// use mcr_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// let v = b.add_nodes(2);
/// b.add_arc_with_transit(v[0], v[1], 1, 0);
/// b.add_arc_with_transit(v[1], v[0], 1, 0);
/// assert!(mcr_core::ratio::has_zero_transit_cycle(b.build().view()));
/// ```
pub fn has_zero_transit_cycle(g: GraphRef<'_>) -> bool {
    // A zero-transit cycle lies entirely within zero-transit arcs.
    let mut b = GraphBuilder::with_capacity(g.num_nodes(), g.num_arcs());
    b.add_nodes(g.num_nodes());
    for a in g.arc_ids() {
        if g.transit(a) == 0 {
            b.add_arc(g.source(a), g.target(a), 0);
        }
    }
    mcr_graph::traverse::has_cycle(&b.build())
}

/// Minimum cycle ratio with Howard's exact policy iteration (the
/// default recommendation).
///
/// Returns `None` if `g` is acyclic or on any failure (a zero-transit
/// cycle, a value past the `i64` range); use
/// [`howard_ratio_exact_opts`] for the typed error.
pub fn howard_ratio_exact(g: &Graph) -> Option<Solution> {
    howard_ratio_exact_opts(g, &SolveOptions::default()).ok()
}

/// [`howard_ratio_exact`] with explicit [`SolveOptions`] (thread count
/// for the per-SCC driver — results are bit-identical at every count —
/// plus the work [`Budget`](crate::Budget), deadline and cancel token;
/// the fallback chain does not apply to the ratio objective).
pub fn howard_ratio_exact_opts(g: &Graph, opts: &SolveOptions) -> Result<Solution, SolveError> {
    route::solve(g, &Route::Ratio(Algorithm::HowardExact), false, opts)
}

/// Minimum cycle ratio with the paper's Figure-1 Howard (ε-terminated).
///
/// Returns `None` if `g` is acyclic, if `epsilon` is not positive and
/// finite, or on any failure.
pub fn howard_ratio(g: &Graph, epsilon: f64) -> Option<Solution> {
    solve_or_none(g, Algorithm::Howard, Some(epsilon))
}

/// Minimum cycle ratio with Burns' exact primal-dual algorithm (the
/// algorithm's original formulation — Burns developed it for
/// asynchronous circuit performance, a ratio problem).
///
/// Returns `None` if `g` is acyclic or on any failure.
pub fn burns_ratio(g: &Graph) -> Option<Solution> {
    solve_or_none(g, Algorithm::BurnsExact, None)
}

/// Minimum cycle ratio with the parametric shortest path algorithms.
/// `node_keyed` selects YTO's node-keyed heap (`true`) or KO's
/// arc-keyed heap (`false`).
///
/// Returns `None` if `g` is acyclic or on any failure;
/// [`crate::spec::solve_spec`] reports the failure typed.
pub fn parametric_ratio(g: &Graph, node_keyed: bool) -> Option<Solution> {
    solve_or_none(g, if node_keyed { Algorithm::Yto } else { Algorithm::Ko }, None)
}

/// Minimum cycle ratio with Megiddo's parametric search (Table 1 row
/// 12): exact, with oracle calls only at the master algorithm's own
/// decision points.
///
/// Returns `None` if `g` is acyclic or on any failure.
pub fn megiddo_ratio(g: &Graph) -> Option<Solution> {
    solve_or_none(g, Algorithm::Megiddo, None)
}

/// Minimum cycle ratio via the Ito–Parhi register-graph reduction
/// (Table 1 row 15, `O(Tm + T³)` with Karp inside). Re-exported from
/// [`crate::register_graph`].
pub use crate::register_graph::minimum_ratio_via_registers;

/// Minimum cycle ratio by ε-precision binary search (Lawler's method on
/// the ratio formulation).
///
/// Returns `None` if `g` is acyclic, if `epsilon` is not positive and
/// finite, or on any failure.
pub fn lawler_ratio(g: &Graph, epsilon: f64) -> Option<Solution> {
    solve_or_none(g, Algorithm::Lawler, Some(epsilon))
}

/// Exact minimum cycle ratio by binary search plus a rational snap
/// (denominators are bounded by the component's total transit time).
pub fn lawler_ratio_exact(g: &Graph) -> Option<Solution> {
    lawler_ratio_exact_opts(g, &SolveOptions::default()).ok()
}

/// [`lawler_ratio_exact`] with explicit [`SolveOptions`] (threads,
/// budget, deadline and cancel token; no fallback chain on the ratio
/// objective).
pub fn lawler_ratio_exact_opts(g: &Graph, opts: &SolveOptions) -> Result<Solution, SolveError> {
    route::solve(g, &Route::Ratio(Algorithm::LawlerExact), false, opts)
}

/// The ratio route of `alg` under default options at precision
/// `epsilon` (the default one when `None`), any failure folded into
/// `None`.
fn solve_or_none(g: &Graph, alg: Algorithm, epsilon: Option<f64>) -> Option<Solution> {
    let opts = SolveOptions {
        epsilon,
        ..SolveOptions::default()
    };
    route::solve(g, &Route::Ratio(alg), false, &opts).ok()
}

/// Every bisection step charges an iteration and a λ-refinement, like
/// the mean-problem Lawler it mirrors.
pub(crate) fn ratio_bisection(
    g: GraphRef<'_>,
    counters: &mut Counters,
    epsilon: Option<f64>,
    ws: &mut Workspace,
    scope: &mut BudgetScope,
) -> Result<SccOutcome, SolveError> {
    use crate::bellman::{cycle_at_or_below_ws, has_cycle_below_ws};
    use crate::rational::Ratio64;
    use crate::solution::Guarantee;
    // |w(C)/t(C)| ≤ n·W since t(C) ≥ 1 for every cycle.
    let wabs = match g.weights().iter().map(|w| w.unsigned_abs()).max() {
        Some(w) => w,
        // The driver only dispatches cyclic components, so an arc-free
        // graph can only arrive through a direct call.
        None => return Err(SolveError::Acyclic),
    };
    // Both bounds are computed in i128 and must fit the i64 of Ratio64.
    let too_wide = |_| SolveError::Overflow {
        context: "ratio bisection: bounds leave the i64 range",
    };
    let bound = i64::try_from(i128::from(wabs) * g.num_nodes() as i128).map_err(too_wide)?;
    let mut lo = Ratio64::from(-bound);
    let mut hi = Ratio64::from(bound);
    // Ratio denominators are bounded by the total transit time T.
    let total_t = i64::try_from(g.transits().iter().map(|&t| i128::from(t)).sum::<i128>())
        .map_err(too_wide)?;
    let t_bound = total_t.max(1);
    let target = match epsilon {
        Some(_) => None,
        None => Some(Ratio64::new(
            1,
            t_bound.saturating_mul(t_bound - 1).max(1).saturating_add(1),
        )),
    };
    scope.loop_metrics("core.ratio.bisect");
    loop {
        let width = hi - lo;
        let done = match epsilon {
            Some(e) => width.to_f64() <= e,
            None => target.is_some_and(|t| width < t),
        };
        if done {
            break;
        }
        if hi.denom() >= i64::MAX / 8 || lo.denom() >= i64::MAX / 8 {
            return Err(SolveError::NumericRange {
                context: "ratio bisection denominators exhausted the i64 range",
            });
        }
        counters.iterations += 1;
        scope.tick_iteration_and_time()?;
        scope.tick_refinement()?;
        scope.chaos_check("core.ratio.bisect")?;
        let mid = lo.midpoint(hi);
        if has_cycle_below_ws(g, mid, counters, ws, scope)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let (lambda, guarantee) = match epsilon {
        Some(e) => (hi, Guarantee::Epsilon(e)),
        None => (Ratio64::simplest_in(lo, hi), Guarantee::Exact),
    };
    if !cycle_at_or_below_ws(g, lambda, counters, ws, scope)? {
        // The invariant λ* ≤ hi guarantees a witness.
        return Err(SolveError::NumericRange {
            context: "ratio bisection found no cycle at the upper bound",
        });
    }
    let cycle = ws.bf.cycle.clone();
    let w: i128 = cycle.iter().map(|&a| g.weight(a) as i128).sum();
    let t: i128 = cycle.iter().map(|&a| g.transit(a) as i128).sum();
    if t <= 0 {
        return Err(SolveError::ZeroTransitCycle);
    }
    let exact_ratio = Ratio64::try_from_i128(w, t).ok_or(SolveError::Overflow {
        context: "ratio bisection witness cycle ratio",
    })?;
    Ok(SccOutcome {
        lambda: exact_ratio,
        cycle,
        guarantee,
        solved_by: scope.algorithm(),
    })
}

/// Expands every arc of transit time `t ≥ 1` into a chain of `t`
/// unit-transit arcs (the first carries the weight, the rest weigh 0),
/// reducing MCRP to MCMP. Returns the expanded graph and, per expanded
/// arc, the original arc it came from paired with its segment index.
///
/// # Errors
///
/// Returns `Err` if any arc has transit time 0 (the reduction requires
/// strictly positive transits), or if the expanded graph would exceed
/// the [`MAX_INDEX`] node or arc cap (checked before anything is
/// allocated).
pub fn expand_transits(g: &Graph) -> Result<(Graph, Vec<(ArcId, i64)>), String> {
    check_expansion(g).map_err(|e| e.to_string())?;
    Ok(expand(g.view(), |v| v))
}

/// The transit expansion's refusals, checked over the whole of `g`
/// before any component is expanded: an arc of transit time 0, or an
/// expansion past the [`MAX_INDEX`] node or arc cap.
pub(crate) fn check_expansion(g: &Graph) -> Result<(), SpecError> {
    let mut extra = 0u128;
    for a in g.arc_ids() {
        let t = g.transit(a);
        if t < 1 {
            return Err(SpecError::Input(format!("arc {a:?} has zero transit time")));
        }
        extra += u128::from((t - 1).unsigned_abs());
    }
    let fits = usize::try_from(extra)
        .is_ok_and(|e| g.num_nodes().max(g.num_arcs()).saturating_add(e) <= MAX_INDEX);
    if !fits {
        return Err(SpecError::Input(format!(
            "expanding the transit times adds {extra} nodes and arcs, \
             past the cap of {MAX_INDEX}"
        )));
    }
    Ok(())
}

/// The expansion of `g`, whose transits [`check_expansion`] accepted:
/// node `v` of `g` becomes node `node(v)`, and the chain nodes follow
/// `g`'s nodes, numbered in `g`'s arc order.
fn expand(g: GraphRef<'_>, node: impl Fn(NodeId) -> NodeId) -> (Graph, Vec<(ArcId, i64)>) {
    debug_assert!(g.transits().iter().all(|&t| t >= 1));
    let extra: usize = g.transits().iter().map(|&t| (t - 1) as usize).sum();
    let mut b = GraphBuilder::with_capacity(g.num_nodes() + extra, g.num_arcs() + extra);
    b.add_nodes(g.num_nodes());
    let mut origin = Vec::with_capacity(g.num_arcs() + extra);
    for a in g.arc_ids() {
        let t = g.transit(a);
        let mut prev = node(g.source(a));
        for seg in 0..t {
            let next = if seg == t - 1 {
                node(g.target(a))
            } else {
                b.add_node()
            };
            let w = if seg == 0 { g.weight(a) } else { 0 };
            b.add_arc(prev, next, w);
            origin.push((a, seg));
            prev = next;
        }
    }
    (b.build(), origin)
}

/// Solves one cyclic component `sub` by its transit expansion, a mean
/// problem for the fallback `chain`; the witness is in `sub`'s arc ids.
/// The kernels see exactly the job the whole graph's expansion would
/// give them: the chains follow `sub`'s arc order, and `sub`'s local
/// node `k − 1`, the component's smallest host node (canonical order
/// puts it last), becomes node 0, so the expansion's canonical order
/// starts where the whole graph's does.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_expanded(
    job: usize,
    chain: &[Algorithm],
    sub: GraphRef<'_>,
    counters: &mut Counters,
    epsilon: Option<f64>,
    ws: &mut Workspace,
    opts: &SolveOptions,
    deadline: Option<Deadline>,
) -> Result<SccOutcome, SolveError> {
    let k = sub.num_nodes();
    let (expanded, origin) = expand(sub, |v| NodeId::new((v.index() + 1) % k));
    // Every arc of a strongly connected graph lies on a cycle, so the
    // expansion is one cyclic component: job 0.
    let arena = ComponentArena::new(expanded.view());
    let view = arena.view(0);
    let outcome = run_fallback_chain(job, chain, view, counters, epsilon, ws, opts, deadline)?;
    // A closed walk of the expansion runs through whole chains, so the
    // first segment of each, in walk order, is a closed walk of `sub`.
    let arc_map = arena.arc_map(0);
    let cycle = outcome
        .cycle
        .iter()
        .filter_map(|a| origin.get(arc_map.get(a.index())?.index()))
        .filter_map(|&(arc, seg)| (seg == 0).then_some(arc))
        .collect();
    Ok(SccOutcome { cycle, ..outcome })
}

/// Minimum cycle ratio via the expansion reduction and an arbitrary MCM
/// [`Algorithm`] (the Hartmann–Orlin `O(Tm)` route when combined with a
/// linear-time-per-level MCM method), one component at a time.
///
/// Returns `Ok(None)` if `g` is acyclic or on any solver failure;
/// [`crate::spec::solve_spec`] reports the failure typed.
///
/// # Errors
///
/// Returns `Err` if any arc has transit time 0, or if the expansion
/// would pass the [`MAX_INDEX`] cap.
pub fn ratio_via_expansion(g: &Graph, algorithm: Algorithm) -> Result<Option<Solution>, String> {
    check_expansion(g).map_err(|e| e.to_string())?;
    let opts = SolveOptions::default();
    let route = Route::Expand(opts.fallback.chain_for(algorithm));
    Ok(route::solve(g, &route, false, &opts).ok())
}

/// Per-component transit statistics used by harnesses: `(components,
/// max total transit over cyclic components)`.
pub fn transit_profile(g: &Graph) -> (usize, i64) {
    let scc = SccDecomposition::new(g.view());
    let mut max_t = 0i64;
    let mut cyclic = 0usize;
    for c in 0..scc.num_components() {
        if !scc.is_cyclic_component(g.view(), c) {
            continue;
        }
        cyclic += 1;
        let t: i64 = g
            .arc_ids()
            .filter(|&a| {
                scc.component_of(g.source(a)) == c && scc.component_of(g.target(a)) == c
            })
            .map(|a| g.transit(a))
            .sum();
        max_t = max_t.max(t);
    }
    (cyclic, max_t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::Ratio64;
    use crate::reference::brute_force_min_ratio;
    use mcr_gen::sprand::{sprand, SprandConfig};
    use mcr_gen::transit::with_random_transits;

    fn random_ratio_graph(seed: u64) -> Graph {
        let g = sprand(&SprandConfig::new(9, 22).seed(seed).weight_range(-20, 20));
        with_random_transits(&g, 1, 5, seed ^ 0xabcd)
    }

    #[test]
    fn all_ratio_solvers_agree_with_brute_force() {
        for seed in 0..30 {
            let g = random_ratio_graph(seed);
            let (expected, _) = brute_force_min_ratio(&g).expect("cyclic");
            assert_eq!(
                howard_ratio_exact(&g).unwrap().lambda,
                expected,
                "howard seed {seed}"
            );
            assert_eq!(burns_ratio(&g).unwrap().lambda, expected, "burns seed {seed}");
            assert_eq!(
                parametric_ratio(&g, true).unwrap().lambda,
                expected,
                "yto seed {seed}"
            );
            assert_eq!(
                parametric_ratio(&g, false).unwrap().lambda,
                expected,
                "ko seed {seed}"
            );
            assert_eq!(
                lawler_ratio_exact(&g).unwrap().lambda,
                expected,
                "lawler seed {seed}"
            );
            assert_eq!(
                ratio_via_expansion(&g, Algorithm::Karp)
                    .unwrap()
                    .unwrap()
                    .lambda,
                expected,
                "expansion seed {seed}"
            );
        }
    }

    #[test]
    fn approximate_ratio_solvers_are_close() {
        for seed in 0..10 {
            let g = random_ratio_graph(seed);
            let (expected, _) = brute_force_min_ratio(&g).expect("cyclic");
            let h = howard_ratio(&g, 1e-9).unwrap().lambda;
            assert_eq!(h, expected, "howard-fig1 seed {seed}");
            let l = lawler_ratio(&g, 1e-4).unwrap().lambda;
            assert!(l >= expected && l.to_f64() - expected.to_f64() <= 1e-4 + 1e-12);
        }
    }

    #[test]
    fn expansion_rejects_zero_transit() {
        let mut b = GraphBuilder::new();
        let v = b.add_nodes(2);
        b.add_arc_with_transit(v[0], v[1], 1, 0);
        b.add_arc_with_transit(v[1], v[0], 1, 2);
        let g = b.build();
        assert!(expand_transits(&g).is_err());
        assert!(ratio_via_expansion(&g, Algorithm::Karp).is_err());
        // But the native solvers handle it.
        assert_eq!(
            howard_ratio_exact(&g).unwrap().lambda,
            Ratio64::from(1)
        );
    }

    #[test]
    fn expansion_sizes() {
        let mut b = GraphBuilder::new();
        let v = b.add_nodes(2);
        b.add_arc_with_transit(v[0], v[1], 5, 3);
        b.add_arc_with_transit(v[1], v[0], 1, 1);
        let g = b.build();
        let (e, origin) = expand_transits(&g).expect("positive transits");
        assert_eq!(e.num_nodes(), 2 + 2);
        assert_eq!(e.num_arcs(), 4);
        assert_eq!(origin.len(), 4);
        assert!(e.has_unit_transits());
    }

    #[test]
    fn zero_transit_cycle_detection() {
        let mut b = GraphBuilder::new();
        let v = b.add_nodes(2);
        b.add_arc_with_transit(v[0], v[1], 1, 0);
        b.add_arc_with_transit(v[1], v[0], 1, 1);
        let ok = b.build();
        assert!(!has_zero_transit_cycle(ok.view()));
        let mut b = GraphBuilder::new();
        let v = b.add_nodes(2);
        b.add_arc_with_transit(v[0], v[1], 1, 0);
        b.add_arc_with_transit(v[1], v[0], 1, 0);
        assert!(has_zero_transit_cycle(b.build().view()));
    }

    #[test]
    fn transit_profile_reports_cyclic_components() {
        let g = random_ratio_graph(3);
        let (cyclic, max_t) = transit_profile(&g);
        assert_eq!(cyclic, 1); // SPRAND graphs are strongly connected
        let total: i64 = g.arc_ids().map(|a| g.transit(a)).sum();
        assert_eq!(max_t, total);
    }

    use mcr_graph::GraphBuilder;
}
