//! HO: the Hartmann–Orlin early-termination variant of Karp's algorithm.
//!
//! HO keeps Karp's recurrence intact but tries to stop long before level
//! `n`: "many of the shortest paths computed by Karp's algorithm will
//! contain cycles; if one of these cycles is critical, then the minimum
//! cycle mean is found" (§2.2). At each level the walk realizing the
//! smallest `D_k` value is inspected for a cycle; whenever the best
//! cycle mean found so far improves, a criticality check — building node
//! potentials from the partial `D` table and verifying the LP
//! feasibility `d(v) − d(u) ≤ w(u,v) − λ` on every arc — either proves
//! the candidate optimal (terminate with the level `k` recorded as the
//! "iteration count" of §4.3) or the recurrence continues. If level `n`
//! is reached, Karp's formula decides as usual, so the algorithm is
//! always exact.

use super::karp::{check_magnitude, karp_formula, relax_level, INF};
use crate::budget::BudgetScope;
use crate::driver::SccOutcome;
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::rational::Ratio64;
use crate::solution::Guarantee;
use mcr_graph::idx32;
use mcr_graph::{ArcId, GraphRef};

const NO_PARENT: u32 = u32::MAX;

/// Walks the parent chain of `(level, node)` down to level 0, returning
/// the first cycle found on it (in forward order), if any.
#[allow(clippy::too_many_arguments)] // internal helper over flat scratch arrays
fn cycle_on_walk(
    g: GraphRef<'_>,
    parent: &[u32],
    n: usize,
    level: usize,
    node: usize,
    seen_at: &mut [u32],
    stamp_of: &mut [u32],
    stamp: u32,
) -> Option<Vec<ArcId>> {
    let mut v = node;
    let mut j = level;
    loop {
        if stamp_of[v] == stamp && seen_at[v] as usize > j {
            // v occurs at levels j and seen_at[v]: the arcs between are
            // a cycle. Re-walk from the higher occurrence to collect.
            let hi = seen_at[v] as usize;
            let mut arcs = Vec::with_capacity(hi - j);
            let mut x = v;
            let mut l = hi;
            while l > j {
                let a = ArcId::new(parent[l * n + x] as usize);
                arcs.push(a);
                x = g.source(a).index();
                l -= 1;
            }
            debug_assert_eq!(x, v);
            arcs.reverse();
            return Some(arcs);
        }
        stamp_of[v] = stamp;
        seen_at[v] = idx32(j);
        if j == 0 {
            return None;
        }
        let p = parent[j * n + v];
        if p == NO_PARENT {
            return None;
        }
        v = g.source(ArcId::new(p as usize)).index();
        j -= 1;
    }
}

/// Verifies that `mu` is the optimum by building potentials
/// `d(v) = min_j (D_j(v) − j·mu)` from the first `k+1` table rows and
/// checking LP feasibility on every arc.
fn criticality_check(g: GraphRef<'_>, table: &[i64], k: usize, mu: Ratio64) -> bool {
    let n = g.num_nodes();
    let p = mu.numer() as i128;
    let q = mu.denom() as i128;
    const UNSET: i128 = i128::MAX / 4;
    let mut pot = vec![UNSET; n];
    for j in 0..=k {
        for v in 0..n {
            let d = table[j * n + v];
            if d < INF {
                let scaled = d as i128 * q - j as i128 * p;
                if scaled < pot[v] {
                    pot[v] = scaled;
                }
            }
        }
    }
    for a in g.arc_ids() {
        let u = g.source(a).index();
        let v = g.target(a).index();
        if pot[u] >= UNSET {
            continue; // vacuous: no walk reaches u yet
        }
        if pot[v] >= UNSET || pot[v] > pot[u] + g.weight(a) as i128 * q - p {
            return false;
        }
    }
    true
}

/// Runs HO, returning λ and the witness when one came out naturally
/// (early termination, or the best path cycle matching λ at level n).
fn run(
    g: GraphRef<'_>,
    counters: &mut Counters,
    scope: &mut BudgetScope,
) -> Result<(Ratio64, Option<Vec<ArcId>>), SolveError> {
    check_magnitude(g)?;
    let n = g.num_nodes();
    let mut d = vec![INF; (n + 1) * n];
    let mut parent = vec![NO_PARENT; (n + 1) * n];
    d[0] = 0;

    let mut seen_at = vec![0u32; n];
    let mut stamp_of = vec![u32::MAX; n];
    let mut best_mu: Option<Ratio64> = None;
    let mut best_cycle: Vec<ArcId> = Vec::new();

    scope.loop_metrics("core.ho.level");
    for k in 1..=n {
        scope.tick_iteration_and_time()?;
        scope.chaos_check("core.ho.level")?;
        let (prev_rows, cur_rows) = d.split_at_mut(k * n);
        let par = &mut parent[k * n..(k + 1) * n];
        relax_level(g, &prev_rows[(k - 1) * n..], &mut cur_rows[..n], Some(par), counters);
        // Early termination attempt: inspect the walk realizing the
        // level's minimum D value.
        let cur = &d[k * n..(k + 1) * n];
        let vmin = match (0..n).filter(|&v| cur[v] < INF).min_by_key(|&v| cur[v]) {
            Some(v) => v,
            None => continue,
        };
        let mut improved = false;
        if let Some(cycle) =
            cycle_on_walk(g, &parent, n, k, vmin, &mut seen_at, &mut stamp_of, idx32(k))
        {
            counters.cycles_examined += 1;
            let w: i128 = cycle.iter().map(|&a| g.weight(a) as i128).sum();
            let mu = Ratio64::try_from_i128(w, cycle.len() as i128).ok_or(
                SolveError::Overflow {
                    context: "HO candidate cycle mean",
                },
            )?;
            if best_mu.is_none_or(|b| mu < b) {
                best_mu = Some(mu);
                best_cycle = cycle;
                improved = true;
            }
        }
        // Run the (relatively expensive) criticality check when the
        // candidate improves, and retry at power-of-two levels — the
        // first check can fail merely because distant nodes are still
        // unreached. O(lg n) retries keep the total overhead within
        // HO's O(n² + m·lg n) budget.
        // `iterations` accumulates (never assigns): per-component counts
        // must sum identically whether components share one counter
        // sink or merge from per-thread counters.
        if let Some(mu) = best_mu {
            if (improved || k.is_power_of_two()) && criticality_check(g, &d, k, mu) {
                counters.iterations += k as u64;
                return Ok((mu, Some(best_cycle)));
            }
        }
    }

    // No early exit: fall back to Karp's formula over the full table.
    counters.iterations += n as u64;
    let lambda = karp_formula(&d, n)?;
    if best_mu == Some(lambda) {
        Ok((lambda, Some(best_cycle)))
    } else {
        Ok((lambda, None))
    }
}

/// HO, λ only (the paper's measurement protocol).
pub(crate) fn lambda_scc(
    g: GraphRef<'_>,
    counters: &mut Counters,
    scope: &mut BudgetScope,
) -> Result<Ratio64, SolveError> {
    Ok(run(g, counters, scope)?.0)
}

/// HO on one strongly connected, cyclic component.
pub(crate) fn solve_scc(
    g: GraphRef<'_>,
    counters: &mut Counters,
    ws: &mut crate::workspace::Workspace,
    scope: &mut BudgetScope,
) -> Result<SccOutcome, SolveError> {
    let (lambda, witness) = run(g, counters, scope)?;
    let cycle = match witness {
        Some(c) => c,
        None => crate::critical::critical_cycle_ws(g, lambda, ws, scope)?,
    };
    Ok(SccOutcome {
        lambda,
        cycle,
        guarantee: Guarantee::Exact,
        solved_by: crate::Algorithm::Ho,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_graph::graph::from_arc_list;
    use mcr_graph::Graph;

    fn scope() -> BudgetScope {
        BudgetScope::unlimited(crate::Algorithm::Ho)
    }

    fn solve(g: &Graph, c: &mut Counters) -> SccOutcome {
        solve_scc(
            g.view(),
            c,
            &mut crate::workspace::Workspace::new(),
            &mut scope(),
        )
        .expect("unlimited")
    }

    fn lambda_of(g: &Graph) -> Ratio64 {
        let mut c = Counters::new();
        solve(g, &mut c).lambda
    }

    #[test]
    fn matches_karp_on_random_graphs() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        for seed in 0..40 {
            let g = sprand(&SprandConfig::new(12, 34).seed(seed).weight_range(-15, 15));
            let mut c = Counters::new();
            let karp = super::super::karp::solve_scc(
                g.view(),
                &mut c,
                &mut crate::workspace::Workspace::new(),
                &mut BudgetScope::unlimited(crate::Algorithm::Karp),
            )
            .expect("unlimited")
            .lambda;
            assert_eq!(lambda_of(&g), karp, "seed {seed}");
        }
    }

    #[test]
    fn terminates_early_on_small_diameter_graph() {
        // Complete digraph of weight 10 plus one cheap 2-cycle: every
        // node is reached by level 1 and the critical cycle shows up by
        // level 2, so HO certifies optimality at k << n. (On a bare
        // ring no early termination is possible: walks reach only one
        // new node per level.)
        let n = 30;
        let mut arcs: Vec<(usize, usize, i64)> = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    arcs.push((u, v, 10));
                }
            }
        }
        arcs.push((0, 1, 1));
        arcs.push((1, 0, 1));
        let g = from_arc_list(n, &arcs);
        let mut c = Counters::new();
        let s = solve(&g, &mut c);
        assert_eq!(s.lambda, Ratio64::from(1));
        assert!(c.iterations < 6, "iterations {}", c.iterations);
    }

    #[test]
    fn iteration_count_never_exceeds_n() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        for seed in 0..10 {
            let g = sprand(&SprandConfig::new(20, 50).seed(seed));
            let mut c = Counters::new();
            solve(&g, &mut c);
            assert!(c.iterations <= 20);
        }
    }

    #[test]
    fn witness_cycle_is_valid_and_optimal() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        for seed in 0..10 {
            let g = sprand(&SprandConfig::new(15, 45).seed(seed).weight_range(1, 30));
            let mut c = Counters::new();
            let s = solve(&g, &mut c);
            let (w, len, _) = crate::solution::check_cycle(&g, &s.cycle).expect("valid");
            assert_eq!(Ratio64::new(w, len as i64), s.lambda, "seed {seed}");
        }
    }

    #[test]
    fn one_level_budget_exhausts_instead_of_hanging() {
        let g = from_arc_list(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)]);
        let budget = crate::Budget::default().max_iterations(1);
        let mut s = BudgetScope::new(&budget, None, crate::Algorithm::Ho);
        let mut c = Counters::new();
        let err = solve_scc(
            g.view(),
            &mut c,
            &mut crate::workspace::Workspace::new(),
            &mut s,
        )
        .expect_err("ring of 4 needs more than one level");
        assert!(matches!(err, SolveError::BudgetExhausted { .. }), "{err}");
    }
}
