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
//!
//! Since the cost of one level is all there is, the level loop is one
//! branch-free kernel, [`relax_level`], shared by Karp, Karp2 and HO;
//! DG walks its own frontier instead. `+∞` is the sentinel [`INF`]
//! `= 2^61 − 1`, so the family is exact only while `n · max|w| < INF`:
//! [`check_magnitude`] rejects larger inputs with
//! [`SolveError::Overflow`] before any table is filled, and the
//! fallback chain moves on to another algorithm.

use crate::budget::BudgetScope;
use crate::driver::SccOutcome;
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::rational::Ratio64;
use crate::solution::Guarantee;
use mcr_graph::Graph;
use std::hint::select_unpredictable;

pub(crate) const INF: i64 = i64::MAX / 4;

/// The guard of Karp, Karp2, DG and HO: rejects a component whose walk
/// weights could reach [`INF`]. A walk of at most `n` arcs weighs at
/// most `n · max|w|` in absolute value, so below the bound no finite
/// `D_k(v)` is read as unreached and `D_{k−1}(u) + w` cannot overflow,
/// even for `D_{k−1}(u) = INF`.
pub(crate) fn check_magnitude(g: &Graph) -> Result<(), SolveError> {
    let max_abs = g.weights().iter().map(|w| w.unsigned_abs()).max().unwrap_or(0);
    if g.num_nodes() as i128 * max_abs as i128 >= INF as i128 {
        return Err(SolveError::Overflow {
            context: "Karp table: n·max|w| reaches the unreached sentinel",
        });
    }
    Ok(())
}

/// One level of Karp's recurrence: `cur[v] = min(cur[v], prev[u] + w)`
/// over every arc `(u, v, w)` with `prev[u] < INF`. With `parent`,
/// `parent[v]` records the arc that last lowered `cur[v]`.
///
/// Both tests are selects, not branches: on random graphs each goes
/// either way often enough that branches mispredict. The counts stay in
/// locals and reach `counters` once: `m` arcs visited, a relaxation per
/// arc with a reached source, a distance update per lowered `cur[v]`.
/// The caller must have passed [`check_magnitude`].
pub(crate) fn relax_level(
    g: &Graph,
    prev: &[i64],
    cur: &mut [i64],
    mut parent: Option<&mut [u32]>,
    counters: &mut Counters,
) {
    let (mut relaxations, mut updates) = (0u64, 0u64);
    let arcs = g.sources().iter().zip(g.targets()).zip(g.weights());
    for (ai, ((u, v), &w)) in (0u32..).zip(arcs) {
        let du = prev[u.index()];
        let reached = du < INF;
        let c = du + w;
        let old = cur[v.index()];
        let lower = reached & (c < old);
        cur[v.index()] = select_unpredictable(lower, c, old);
        if let Some(par) = parent.as_deref_mut() {
            par[v.index()] = select_unpredictable(lower, ai, par[v.index()]);
        }
        relaxations += u64::from(reached);
        updates += u64::from(lower);
    }
    counters.arcs_visited += g.num_arcs() as u64;
    counters.relaxations += relaxations;
    counters.distance_updates += updates;
}

/// Fills the full `(n+1) × n` table of `D_k(v)` values from source
/// node 0, counting each arc scan. Each of the `n` levels charges one
/// budget iteration.
pub(crate) fn fill_table(
    g: &Graph,
    counters: &mut Counters,
    scope: &mut BudgetScope,
) -> Result<Vec<i64>, SolveError> {
    check_magnitude(g)?;
    let n = g.num_nodes();
    let mut d = vec![INF; (n + 1) * n];
    d[0] = 0; // D_0(source) with source = node 0.
    scope.loop_metrics("core.karp.level");
    for k in 1..=n {
        scope.tick_iteration_and_time()?;
        scope.chaos_check("core.karp.level")?;
        let (prev_rows, cur_rows) = d.split_at_mut(k * n);
        relax_level(g, &prev_rows[(k - 1) * n..], &mut cur_rows[..n], None, counters);
    }
    Ok(d)
}

/// Folds row `D_k` into `inner[v] = max_k (D_n(v) − D_k(v)) / (n − k)`,
/// Karp's inner maximum, with `den = n − k`. Fractions stay unreduced
/// and are compared by `i128` cross-multiplication, so the `Θ(n²)` fold
/// builds no rationals.
pub(crate) fn fold_row(inner: &mut [Option<(i64, i64)>], row: &[i64], last: &[i64], den: i64) {
    for ((slot, &dk), &dn) in inner.iter_mut().zip(row).zip(last) {
        if dk >= INF || dn >= INF {
            continue;
        }
        let num = dn - dk;
        if slot.is_none_or(|(bn, bd)| num as i128 * bd as i128 > bn as i128 * den as i128) {
            *slot = Some((num, den));
        }
    }
}

/// The outer minimum of Karp's formula over the folded `inner` maxima,
/// reduced once. A finite `D_n(v)` without a finite prefix, or no finite
/// `D_n(v)` at all, cannot happen on a strongly connected cyclic
/// component within [`check_magnitude`]'s range; either is reported as
/// [`SolveError::Overflow`], not a panic.
pub(crate) fn karp_min(inner: &[Option<(i64, i64)>], last: &[i64]) -> Result<Ratio64, SolveError> {
    let mut best: Option<(i64, i64)> = None;
    for (iv, _) in inner.iter().zip(last).filter(|(_, &dn)| dn < INF) {
        // A walk of length n to v contains a cycle, so removing it
        // leaves a shorter walk: some D_k(v) with k < n is finite.
        let (num, den) = iv.ok_or(SolveError::Overflow {
            context: "Karp formula: finite D_n without a finite prefix",
        })?;
        if best.is_none_or(|(bn, bd)| num as i128 * (bd as i128) < bn as i128 * den as i128) {
            best = Some((num, den));
        }
    }
    let (num, den) = best.ok_or(SolveError::Overflow {
        context: "Karp formula: no finite D_n",
    })?;
    Ok(Ratio64::new(num, den))
}

/// Evaluates Karp's min-max formula over a filled table, row-major so
/// the sweep walks the table in memory order.
pub(crate) fn karp_formula(table: &[i64], n: usize) -> Result<Ratio64, SolveError> {
    let last = &table[n * n..];
    let mut inner = vec![None; n];
    for (k, row) in table[..n * n].chunks_exact(n).enumerate() {
        fold_row(&mut inner, row, last, (n - k) as i64);
    }
    karp_min(&inner, last)
}

/// Karp's algorithm, λ only (the paper's measurement protocol skips
/// witness extraction).
pub(crate) fn lambda_scc(
    g: &Graph,
    counters: &mut Counters,
    scope: &mut BudgetScope,
) -> Result<Ratio64, SolveError> {
    let table = fill_table(g, counters, scope)?;
    karp_formula(&table, g.num_nodes())
}

/// Karp's algorithm on one strongly connected, cyclic component.
pub(crate) fn solve_scc(
    g: &Graph,
    counters: &mut Counters,
    ws: &mut crate::workspace::Workspace,
    scope: &mut BudgetScope,
) -> Result<SccOutcome, SolveError> {
    let lambda = lambda_scc(g, counters, scope)?;
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
    fn relax_level_matches_a_naive_per_arc_loop() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..300 {
            let n = rng.gen_range(1..=12usize);
            // Random endpoints give self-loops and parallel arcs; the
            // last two arcs make sure both occur in every case.
            let mut arcs: Vec<(usize, usize, i64)> = (0..rng.gen_range(1..=40))
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(-50..=50i64)))
                .collect();
            arcs.extend([arcs[0], (0, 0, -3)]);
            let g = from_arc_list(n, &arcs);
            // Early levels: half the sources unreached on even cases.
            let unreached = if case % 2 == 0 { 2 } else { 8 };
            let mut row = || -> Vec<i64> {
                (0..n)
                    .map(|_| match rng.gen_range(0..unreached) {
                        0 => INF,
                        _ => rng.gen_range(-500..=500i64),
                    })
                    .collect()
            };
            let (prev, cur0) = (row(), row());
            let par0: Vec<u32> = (0..n as u32).map(|v| v * 7919).collect();

            let (mut cur_ref, mut par_ref) = (cur0.clone(), par0.clone());
            let mut c_ref = Counters { arcs_visited: g.num_arcs() as u64, ..Counters::new() };
            for a in g.arc_ids() {
                let (u, v) = (g.source(a).index(), g.target(a).index());
                if prev[u] < INF {
                    c_ref.relaxations += 1;
                    if prev[u] + g.weight(a) < cur_ref[v] {
                        cur_ref[v] = prev[u] + g.weight(a);
                        par_ref[v] = a.index() as u32;
                        c_ref.distance_updates += 1;
                    }
                }
            }

            let (mut cur, mut par, mut c) = (cur0.clone(), par0, Counters::new());
            relax_level(&g, &prev, &mut cur, Some(&mut par), &mut c);
            assert_eq!((&cur, &par, c), (&cur_ref, &par_ref, c_ref), "case {case}");
            let (mut cur, mut c) = (cur0, Counters::new());
            relax_level(&g, &prev, &mut cur, None, &mut c);
            assert_eq!((&cur, c), (&cur_ref, c_ref), "case {case} without parents");
        }
    }

    #[test]
    fn karp_formula_reports_an_impossible_table_as_overflow() {
        // Rows D_0, D_1, D_2 for n = 2: first no finite D_2 at all, then
        // a finite D_2(1) without a finite D_0(1) or D_1(1).
        for table in [[0, INF, INF, INF, INF, INF], [0, INF, INF, INF, INF, 4]] {
            let err = karp_formula(&table, 2).expect_err("no cycle mean to read off");
            assert!(matches!(err, SolveError::Overflow { .. }), "{err}");
        }
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
