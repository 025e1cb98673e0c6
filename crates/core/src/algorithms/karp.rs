//! Karp's algorithm: the `Θ(nm)` dynamic program.
//!
//! Karp's theorem characterizes the minimum cycle mean of a strongly
//! connected digraph as
//!
//! ```text
//! λ* = min_v max_{0 ≤ k ≤ n−1} (D_n(v) − D_k(v)) / (n − k)
//! ```
//!
//! where `D_k(v)` is the weight of the shortest walk of exactly `k` arcs
//! from an arbitrary source to `v` (`+∞` if none exists). The recurrence
//! computing every `D_k(v)` does the same work in the best and worst
//! case, which is why the algorithm is `Θ(nm)` — and `Θ(n²)` space, the
//! reason the paper reports `N/A` for the largest inputs.

use crate::budget::BudgetScope;
use crate::driver::SccOutcome;
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::rational::Ratio64;
use crate::solution::Guarantee;
use mcr_graph::Graph;

pub(crate) const INF: i64 = i64::MAX / 4;

/// Fills the full `(n+1) × n` table of `D_k(v)` values from source
/// node 0, counting each arc scan. Each of the `n` levels charges one
/// budget iteration.
pub(crate) fn fill_table(
    g: &Graph,
    counters: &mut Counters,
    scope: &mut BudgetScope,
) -> Result<Vec<i64>, SolveError> {
    let n = g.num_nodes();
    let m = g.num_arcs();
    let srcs = g.sources();
    let tgts = g.targets();
    let wts = g.weights();
    let mut d = vec![INF; (n + 1) * n];
    d[0] = 0; // D_0(source) with source = node 0.
    scope.loop_metrics("core.karp.level");
    for k in 1..=n {
        scope.tick_iteration_and_time()?;
        scope.chaos_check("core.karp.level")?;
        let (prev_rows, cur_rows) = d.split_at_mut(k * n);
        let prev = &prev_rows[(k - 1) * n..];
        let cur = &mut cur_rows[..n];
        counters.arcs_visited += m as u64;
        #[allow(clippy::needless_range_loop)] // hot loop indexes flat arrays in step
        for ai in 0..m {
            let u = srcs[ai].index();
            if prev[u] < INF {
                counters.relaxations += 1;
                let c = prev[u] + wts[ai];
                let v = tgts[ai].index();
                if c < cur[v] {
                    cur[v] = c;
                    counters.distance_updates += 1;
                }
            }
        }
    }
    Ok(d)
}

/// Evaluates Karp's min-max formula over a filled table.
///
/// The sweep is row-major (k outer, v inner) so it walks the table in
/// memory order, and fractions are compared by `i128`
/// cross-multiplication without constructing (and reducing) rationals
/// in the `Θ(n²)` loop — the reduced [`Ratio64`] is built once at the
/// end.
pub(crate) fn karp_formula(table: &[i64], n: usize) -> Ratio64 {
    let last = &table[n * n..];
    // Per-node inner maximum as an unreduced (numerator, denominator>0).
    let mut inner: Vec<Option<(i64, i64)>> = vec![None; n];
    for k in 0..n {
        let row = &table[k * n..(k + 1) * n];
        let den = (n - k) as i64;
        for v in 0..n {
            if row[v] >= INF || last[v] >= INF {
                continue;
            }
            let cand = (last[v] - row[v], den);
            let bigger = inner[v].is_none_or(|(bn, bd)| {
                cand.0 as i128 * (bd as i128) > bn as i128 * (cand.1 as i128)
            });
            if bigger {
                inner[v] = Some(cand);
            }
        }
    }
    let mut best: Option<(i64, i64)> = None;
    for v in 0..n {
        if last[v] >= INF {
            continue;
        }
        // A walk of length n to v contains a cycle, so removing it
        // leaves a shorter walk: some D_k(v) with k < n is finite.
        let iv = inner[v].expect("finite D_n implies a finite prefix");
        let smaller = best.is_none_or(|(bn, bd)| {
            iv.0 as i128 * (bd as i128) < bn as i128 * (iv.1 as i128)
        });
        if smaller {
            best = Some(iv);
        }
    }
    let (num, den) = best.expect("strongly connected cyclic graph has a finite cycle mean");
    Ratio64::new(num, den)
}

/// Karp's algorithm, λ only (the paper's measurement protocol skips
/// witness extraction).
pub(crate) fn lambda_scc(
    g: &Graph,
    counters: &mut Counters,
    scope: &mut BudgetScope,
) -> Result<Ratio64, SolveError> {
    let table = fill_table(g, counters, scope)?;
    Ok(karp_formula(&table, g.num_nodes()))
}

/// Karp's algorithm on one strongly connected, cyclic component.
pub(crate) fn solve_scc(
    g: &Graph,
    counters: &mut Counters,
    ws: &mut crate::workspace::Workspace,
    scope: &mut BudgetScope,
) -> Result<SccOutcome, SolveError> {
    let n = g.num_nodes();
    let table = fill_table(g, counters, scope)?;
    let lambda = karp_formula(&table, n);
    drop(table);
    let cycle = crate::critical::critical_cycle_ws(g, lambda, ws, scope)?;
    Ok(SccOutcome {
        lambda,
        cycle,
        guarantee: Guarantee::Exact,
        solved_by: crate::Algorithm::Karp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_graph::graph::from_arc_list;

    fn solve(g: &Graph, c: &mut Counters) -> SccOutcome {
        let mut scope = BudgetScope::unlimited(crate::Algorithm::Karp);
        solve_scc(g, c, &mut crate::workspace::Workspace::new(), &mut scope).expect("unlimited")
    }

    fn lambda_of(g: &Graph) -> Ratio64 {
        let mut c = Counters::new();
        solve(g, &mut c).lambda
    }

    #[test]
    fn single_ring() {
        let g = from_arc_list(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)]);
        assert_eq!(lambda_of(&g), Ratio64::new(10, 4));
    }

    #[test]
    fn self_loop_only() {
        let g = from_arc_list(1, &[(0, 0, -7)]);
        assert_eq!(lambda_of(&g), Ratio64::from(-7));
    }

    #[test]
    fn chooses_smaller_of_two_cycles() {
        let g = from_arc_list(3, &[(0, 1, 1), (1, 0, 1), (1, 2, 10), (2, 0, 10), (0, 2, 10)]);
        // 2-cycle mean 1 beats 3-cycle mean 10... the 3-cycle 0->2->0? arcs (0,2,10),(2,0,10): mean 10.
        assert_eq!(lambda_of(&g), Ratio64::from(1));
    }

    #[test]
    fn negative_weights() {
        let g = from_arc_list(3, &[(0, 1, -5), (1, 2, 3), (2, 0, -1), (1, 0, 10)]);
        assert_eq!(lambda_of(&g), Ratio64::new(-3, 3));
    }

    #[test]
    fn arcs_visited_is_n_times_m() {
        let g = from_arc_list(3, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (0, 2, 5)]);
        let mut c = Counters::new();
        solve(&g, &mut c);
        assert_eq!(c.arcs_visited, (g.num_nodes() * g.num_arcs()) as u64);
    }

    #[test]
    fn matches_brute_force_on_small_graphs() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        for seed in 0..20 {
            let g = sprand(&SprandConfig::new(8, 20).seed(seed).weight_range(-10, 10));
            let (expected, _) = crate::reference::brute_force_min_mean(&g).expect("cyclic");
            assert_eq!(lambda_of(&g), expected, "seed {seed}");
        }
    }
}
