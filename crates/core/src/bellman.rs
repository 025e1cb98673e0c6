//! Shared Bellman–Ford oracle on the λ-shifted graph `G_λ`.
//!
//! Several algorithms in the study (Lawler, OA1, and the critical
//! subgraph extraction every Karp-family algorithm uses for witness
//! cycles) need the primitive "does `G_λ` contain a negative cycle, and
//! if not, give me shortest-path potentials". To keep everything exact,
//! arc costs are scaled integers: for `λ = p/q` and transit times `t`,
//! the scaled cost of arc `e` is `w(e)·q − p·t(e)` (an `i128`), which is
//! `q` times the real cost `w(e) − λ·t(e)`. With unit transit times this
//! is the cycle *mean* shift; with general transit times it is the cycle
//! *ratio* shift.

use crate::budget::BudgetScope;
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::rational::Ratio64;
use crate::workspace::Workspace;
use mcr_graph::idx32;
use mcr_graph::{ArcId, Graph};

/// Outcome of a negative-cycle test on `G_λ`.
#[derive(Clone, Debug)]
pub enum CycleCheck {
    /// No (strictly) negative cycle: `G_λ` admits the returned
    /// shortest-path potentials `d`, satisfying
    /// `d[v] ≤ d[u] + cost(u→v)` for every arc (costs scaled by
    /// `lambda.denom()`).
    Feasible(Vec<i128>),
    /// A witness cycle with negative (or, in non-strict mode,
    /// non-positive) total scaled cost, in traversal order.
    NegativeCycle(Vec<ArcId>),
}

/// Scaled arc costs of `G_λ`: `w(e)·q − p·t(e)` for `λ = p/q`.
pub fn scaled_costs(g: &Graph, lambda: Ratio64) -> Vec<i128> {
    let mut out = Vec::new();
    scaled_costs_into(g, lambda, &mut out);
    out
}

/// [`scaled_costs`] into a reusable buffer.
pub(crate) fn scaled_costs_into(g: &Graph, lambda: Ratio64, out: &mut Vec<i128>) {
    let p = lambda.numer() as i128;
    let q = lambda.denom() as i128;
    out.clear();
    out.extend(
        g.arc_ids()
            .map(|a| g.weight(a) as i128 * q - p * g.transit(a) as i128),
    );
}

/// Runs Bellman–Ford over integer costs `cost` (indexed by arc), from an
/// implicit super-source connected to every node with cost 0.
///
/// In strict mode a cycle is reported only if its total cost is
/// negative; in non-strict mode cycles with total cost zero are also
/// reported (used to extract a witness cycle at `λ = λ*`, where minimum
/// mean cycles have scaled cost exactly zero).
///
/// # Errors
///
/// The run has no budget, so only a chaos fault injected at the
/// `core.bellman.round` site fails it, with that fault's typed error.
///
/// # Panics
///
/// Panics if `cost.len() != g.num_arcs()`.
pub fn bellman_ford(
    g: &Graph,
    cost: &[i128],
    strict: bool,
    counters: &mut Counters,
) -> Result<CycleCheck, SolveError> {
    assert_eq!(cost.len(), g.num_arcs());
    counters.oracle_calls += 1;
    if !strict {
        // Shift costs so that zero-cost cycles become negative:
        // c'(e) = c(e)·(n+1) − 1. For a cycle C of length |C| ≤ n:
        // c(C) ≤ 0  ⟺  c'(C) = c(C)(n+1) − |C| < 0.
        let scale = g.num_nodes() as i128 + 1;
        let shifted: Vec<i128> = cost.iter().map(|&c| c * scale - 1).collect();
        return bellman_ford(g, &shifted, true, counters);
    }

    let mut dist = Vec::new();
    let mut parent = Vec::new();
    let mut cycle = Vec::new();
    let scope = BudgetScope::unlimited(crate::algorithms::Algorithm::HowardExact);
    let found = bellman_core(
        g,
        cost,
        counters,
        &mut dist,
        &mut parent,
        &mut cycle,
        &scope,
    );
    Ok(if found? {
        CycleCheck::NegativeCycle(cycle)
    } else {
        CycleCheck::Feasible(dist)
    })
}

/// The strict-mode Bellman–Ford loop over caller-provided buffers.
/// Returns `true` if a strictly negative cycle exists (left in `cycle`,
/// traversal order); `false` if feasible (potentials left in `dist`).
/// The wall-clock deadline of `scope` is checked once per relaxation
/// round, so a budgeted oracle call is abandoned within one `O(m)` pass
/// of its deadline.
///
/// Each round is a Gauss–Seidel pass: later arcs in the round see
/// updates committed by earlier arcs.
fn bellman_core(
    g: &Graph,
    cost: &[i128],
    counters: &mut Counters,
    dist: &mut Vec<i128>,
    parent: &mut Vec<u32>,
    cycle: &mut Vec<ArcId>,
    scope: &BudgetScope,
) -> Result<bool, SolveError> {
    let n = g.num_nodes();
    let m = g.num_arcs();
    const NO_PARENT: u32 = u32::MAX;
    let srcs = g.sources();
    let tgts = g.targets();
    dist.clear();
    dist.resize(n, 0);
    parent.clear();
    parent.resize(n, NO_PARENT);
    cycle.clear();
    let mut updated_node = None;
    for _round in 0..n {
        scope.check_time()?;
        scope.chaos_check("core.bellman.round")?;
        counters.relaxations += m as u64;
        let mut any = false;
        #[allow(clippy::needless_range_loop)] // hot loop indexes flat arrays in step
        for ai in 0..m {
            let u = srcs[ai].index();
            let v = tgts[ai].index();
            let c = dist[u] + cost[ai];
            if c < dist[v] {
                dist[v] = c;
                parent[v] = idx32(ai);
                counters.distance_updates += 1;
                any = true;
                updated_node = Some(v);
            }
        }
        if !any {
            return Ok(false);
        }
    }
    // An update in round n certifies a negative cycle reachable through
    // the parent pointers: walk n steps to land on the cycle, then
    // collect it.
    let mut v = updated_node.expect("update recorded in final round");
    for _ in 0..n {
        let a = ArcId::new(parent[v] as usize);
        v = g.source(a).index();
    }
    let start = v;
    loop {
        let a = ArcId::new(parent[v] as usize);
        cycle.push(a);
        v = g.source(a).index();
        if v == start {
            break;
        }
    }
    cycle.reverse();
    counters.cycles_examined += 1;
    debug_assert!(
        cycle.iter().map(|&a| cost[a.index()]).sum::<i128>() < 0,
        "extracted cycle is not negative"
    );
    Ok(true)
}

/// Runs the oracle on the costs already staged in `ws.bf.cost`, entirely
/// within workspace buffers. Returns `true` if a negative (strict mode)
/// or non-positive (non-strict) cycle was found — left in `ws.bf.cycle`;
/// on `false` the potentials are left in `ws.bf.dist`. Counter semantics
/// match [`bellman_ford`] exactly (non-strict counts two oracle calls,
/// mirroring its internal recursion).
pub(crate) fn check_staged_costs_ws(
    g: &Graph,
    strict: bool,
    counters: &mut Counters,
    ws: &mut Workspace,
    scope: &BudgetScope,
) -> Result<bool, SolveError> {
    debug_assert_eq!(ws.bf.cost.len(), g.num_arcs());
    counters.oracle_calls += 1;
    let bf = &mut ws.bf;
    if !strict {
        counters.oracle_calls += 1;
        let scale = g.num_nodes() as i128 + 1;
        bf.cost_shifted.clear();
        bf.cost_shifted
            .extend(bf.cost.iter().map(|&c| c * scale - 1));
        return bellman_core(
            g,
            &bf.cost_shifted,
            counters,
            &mut bf.dist,
            &mut bf.parent,
            &mut bf.cycle,
            scope,
        );
    }
    bellman_core(
        g,
        &bf.cost,
        counters,
        &mut bf.dist,
        &mut bf.parent,
        &mut bf.cycle,
        scope,
    )
}

/// Workspace-buffered cycle test on `G_λ`. See [`check_staged_costs_ws`]
/// for where the results land.
pub(crate) fn cycle_check_ws(
    g: &Graph,
    lambda: Ratio64,
    strict: bool,
    counters: &mut Counters,
    ws: &mut Workspace,
    scope: &BudgetScope,
) -> Result<bool, SolveError> {
    scaled_costs_into(g, lambda, &mut ws.bf.cost);
    check_staged_costs_ws(g, strict, counters, ws, scope)
}

/// Workspace-buffered [`has_cycle_below`]: `true` iff some cycle has
/// ratio strictly below `lambda` (the witness is left in `ws.bf.cycle`).
pub(crate) fn has_cycle_below_ws(
    g: &Graph,
    lambda: Ratio64,
    counters: &mut Counters,
    ws: &mut Workspace,
    scope: &BudgetScope,
) -> Result<bool, SolveError> {
    cycle_check_ws(g, lambda, true, counters, ws, scope)
}

/// Workspace-buffered [`cycle_at_or_below`]: `true` iff some cycle has
/// ratio at most `lambda` (the witness is left in `ws.bf.cycle`).
pub(crate) fn cycle_at_or_below_ws(
    g: &Graph,
    lambda: Ratio64,
    counters: &mut Counters,
    ws: &mut Workspace,
    scope: &BudgetScope,
) -> Result<bool, SolveError> {
    cycle_check_ws(g, lambda, false, counters, ws, scope)
}

/// Tests whether `G_λ` (costs `w − λ·t`) has a strictly negative cycle,
/// i.e. whether some cycle of `g` has ratio (mean, for unit transits)
/// strictly below `lambda`. Fails only as [`bellman_ford`] does.
pub fn has_cycle_below(
    g: &Graph,
    lambda: Ratio64,
    counters: &mut Counters,
) -> Result<Option<Vec<ArcId>>, SolveError> {
    let cost = scaled_costs(g, lambda);
    Ok(match bellman_ford(g, &cost, true, counters)? {
        CycleCheck::Feasible(_) => None,
        CycleCheck::NegativeCycle(c) => Some(c),
    })
}

/// Finds a cycle with ratio (mean) at most `lambda`, if any. Fails only
/// as [`bellman_ford`] does.
pub fn cycle_at_or_below(
    g: &Graph,
    lambda: Ratio64,
    counters: &mut Counters,
) -> Result<Option<Vec<ArcId>>, SolveError> {
    let cost = scaled_costs(g, lambda);
    Ok(match bellman_ford(g, &cost, false, counters)? {
        CycleCheck::Feasible(_) => None,
        CycleCheck::NegativeCycle(c) => Some(c),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_graph::graph::from_arc_list;

    fn counters() -> Counters {
        Counters::new()
    }

    #[test]
    fn feasible_on_positive_shift() {
        // Ring with mean 2; at λ = 1 no negative cycle.
        let g = from_arc_list(3, &[(0, 1, 2), (1, 2, 2), (2, 0, 2)]);
        let mut c = counters();
        assert!(has_cycle_below(&g, Ratio64::from(1), &mut c)
            .expect("no fault")
            .is_none());
        assert_eq!(c.oracle_calls, 1);
    }

    #[test]
    fn negative_cycle_found_and_valid() {
        let g = from_arc_list(3, &[(0, 1, 2), (1, 2, 2), (2, 0, 2)]);
        let mut c = counters();
        let cyc = has_cycle_below(&g, Ratio64::from(3), &mut c)
            .expect("no fault")
            .expect("mean 2 < 3");
        let (w, len, _) = crate::solution::check_cycle(&g, &cyc).expect("well-formed");
        assert_eq!(Ratio64::new(w, len as i64), Ratio64::from(2));
    }

    #[test]
    fn strict_vs_nonstrict_at_exact_lambda() {
        // Ring with mean exactly 5/2.
        let g = from_arc_list(2, &[(0, 1, 2), (1, 0, 3)]);
        let lam = Ratio64::new(5, 2);
        let mut c = counters();
        assert!(has_cycle_below(&g, lam, &mut c)
            .expect("no fault")
            .is_none());
        let cyc = cycle_at_or_below(&g, lam, &mut c)
            .expect("no fault")
            .expect("zero-cost cycle");
        let (w, len, _) = crate::solution::check_cycle(&g, &cyc).expect("well-formed");
        assert_eq!(Ratio64::new(w, len as i64), lam);
    }

    #[test]
    fn respects_transit_times_for_ratio() {
        // One cycle: weight 10, transit 4 → ratio 5/2.
        let mut b = mcr_graph::GraphBuilder::new();
        let v = b.add_nodes(2);
        b.add_arc_with_transit(v[0], v[1], 4, 1);
        b.add_arc_with_transit(v[1], v[0], 6, 3);
        let g = b.build();
        let mut c = counters();
        assert!(has_cycle_below(&g, Ratio64::new(5, 2), &mut c)
            .expect("no fault")
            .is_none());
        assert!(has_cycle_below(&g, Ratio64::new(26, 10), &mut c)
            .expect("no fault")
            .is_some());
    }

    #[test]
    fn picks_up_self_loop() {
        let g = from_arc_list(2, &[(0, 1, 10), (1, 0, 10), (1, 1, 3)]);
        let mut c = counters();
        let cyc = has_cycle_below(&g, Ratio64::from(4), &mut c)
            .expect("no fault")
            .expect("self loop mean 3");
        assert_eq!(cyc.len(), 1);
    }

    #[test]
    fn workspace_variant_matches_allocating_variant() {
        let g = from_arc_list(4, &[(0, 1, 3), (1, 2, 1), (2, 0, 5), (2, 3, 1), (3, 1, 4)]);
        let mut ws = Workspace::new();
        let scope = BudgetScope::unlimited(crate::algorithms::Algorithm::HowardExact);
        for num in -10..10 {
            let lam = Ratio64::new(num, 3);
            let mut c1 = counters();
            let plain = has_cycle_below(&g, lam, &mut c1).expect("no fault");
            let mut c2 = counters();
            let found = has_cycle_below_ws(&g, lam, &mut c2, &mut ws, &scope).expect("unlimited");
            assert_eq!(plain.is_some(), found, "lambda {lam}");
            if let Some(cycle) = plain {
                assert_eq!(cycle, ws.bf.cycle, "lambda {lam}");
            }
            assert_eq!(c1, c2, "counters must match for lambda {lam}");

            let mut c3 = counters();
            let plain = cycle_at_or_below(&g, lam, &mut c3).expect("no fault");
            let mut c4 = counters();
            let found =
                cycle_at_or_below_ws(&g, lam, &mut c4, &mut ws, &scope).expect("unlimited");
            assert_eq!(plain.is_some(), found, "lambda {lam} (non-strict)");
            if let Some(cycle) = plain {
                assert_eq!(cycle, ws.bf.cycle, "lambda {lam} (non-strict)");
            }
            assert_eq!(c3, c4, "counters must match for lambda {lam} (non-strict)");
        }
    }

    #[test]
    fn expired_deadline_aborts_the_oracle() {
        let g = from_arc_list(3, &[(0, 1, 2), (1, 2, 2), (2, 0, 2)]);
        let budget = crate::Budget::default().wall_time(std::time::Duration::ZERO);
        let deadline = budget.deadline().map(crate::budget::Deadline::budget);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let scope = BudgetScope::new(&budget, deadline, crate::algorithms::Algorithm::Megiddo);
        let mut ws = Workspace::new();
        let mut c = counters();
        let err = has_cycle_below_ws(&g, Ratio64::from(3), &mut c, &mut ws, &scope)
            .expect_err("deadline already passed");
        assert!(matches!(
            err,
            SolveError::BudgetExhausted {
                resource: crate::BudgetResource::WallTime,
                ..
            }
        ));
    }

    #[test]
    fn feasible_potentials_satisfy_constraints() {
        let g = from_arc_list(4, &[(0, 1, 3), (1, 2, 1), (2, 0, 5), (2, 3, 1), (3, 1, 4)]);
        let lam = Ratio64::new(2, 1);
        let cost = scaled_costs(&g, lam);
        let mut c = counters();
        match bellman_ford(&g, &cost, true, &mut c).expect("no fault") {
            CycleCheck::Feasible(d) => {
                for a in g.arc_ids() {
                    let u = g.source(a).index();
                    let v = g.target(a).index();
                    assert!(d[v] <= d[u] + cost[a.index()]);
                }
            }
            CycleCheck::NegativeCycle(_) => panic!("min mean is 7/3 > 2"),
        }
    }
}
