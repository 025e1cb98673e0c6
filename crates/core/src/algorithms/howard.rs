//! Howard's algorithm (policy iteration), the study's overall winner.
//!
//! Two variants are provided:
//!
//! * [`solve_scc_fig1`] — the improved version of Figure 1 of the paper:
//!   node distances persist across iterations (`f64`), only the basin of
//!   the minimum policy cycle is refreshed, and the loop exits when no
//!   distance improves by more than ε. The reported λ is the exact
//!   rational mean of the final policy cycle.
//! * [`solve_scc_exact`] — classical policy iteration with full value
//!   determination per round in exact scaled-integer arithmetic
//!   (distances scaled by the denominator of the current λ), terminating
//!   only when no arc admits a strict improvement. Certified exact.
//!
//! Both versions work for the general cost-to-time-ratio problem; the
//! cycle mean problem is the unit-transit special case. Each iteration
//! costs `Θ(m)`; the only proven bounds on the iteration count are
//! pseudopolynomial/exponential (`O(N·m)` for `N` the product of
//! out-degrees), yet in practice the count is tiny — the very
//! observation the paper popularized.
//!
//! A round of either variant is three linear passes:
//!
//! 1. **Scan.** Walk the policy graph along `succ[v]` (the target of
//!    `v`'s policy arc) from every unvisited node, in node order. Each
//!    walk ends on a new cycle or on a node of an earlier walk; the scan
//!    keeps the visit order and, per walk, the cycle it drains into.
//! 2. **Sweep.** The nodes whose policy path reaches the best cycle are
//!    exactly the walks that drain into it. Each such walk, taken in
//!    reverse, lists every node after its successor, so one pass sets
//!    `d(u) = d(succ(u)) + reduced cost of u's policy arc` from the
//!    anchor `s` outward. No reverse adjacency and no queue.
//! 3. **Improvement pass** over all arcs in id order (Gauss–Seidel:
//!    later arcs see earlier adoptions).

use crate::algorithms::Algorithm;
use crate::budget::BudgetScope;
use crate::checkpoint::JobProgress;
use crate::driver::SccOutcome;
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::rational::Ratio64;
use crate::solution::Guarantee;
use crate::workspace::{PolicyCycleScratch, Workspace};
use mcr_graph::idx32;
use mcr_graph::{ArcId, Graph};
use std::hint::select_unpredictable;
use std::ops::{Add, Mul, Sub};

/// Captures the cross-round state of a policy iteration for
/// checkpointing: the policy vector, plus the `f64` node values for the
/// Figure 1 variant (which persists them across rounds).
fn snapshot_policy(policy: &[ArcId], d: Option<&[f64]>) -> JobProgress {
    JobProgress::Howard {
        policy: policy.iter().map(|a| idx32(a.index())).collect(),
        dist_bits: d.map(|d| d.iter().map(|x| x.to_bits()).collect()),
    }
}

/// Restores a checkpointed policy into `policy` (and its targets into
/// `succ`), validating that every entry is an out-arc of its node in
/// *this* graph. Returns `false` (leaving `policy` empty) on any
/// mismatch — a stale or corrupt checkpoint falls back to a fresh solve
/// instead of panicking or poisoning the iteration.
fn restore_policy(g: &Graph, saved: &[u32], policy: &mut Vec<ArcId>, succ: &mut Vec<u32>) -> bool {
    policy.clear();
    succ.clear();
    if saved.len() != g.num_nodes() {
        return false;
    }
    for (v, &raw) in saved.iter().enumerate() {
        let a = raw as usize;
        if a >= g.num_arcs() || g.source(ArcId::new(a)).index() != v {
            policy.clear();
            return false;
        }
        policy.push(ArcId::new(a));
        succ.push(idx32(g.target(ArcId::new(a)).index()));
    }
    true
}

/// Iteration-cap safety net: policy iteration provably terminates, but a
/// bug would otherwise loop forever. Generous enough never to fire on
/// sane inputs.
fn iteration_cap(n: usize) -> u64 {
    200_000 + 200 * n as u64
}

/// Scans the policy graph (step 1 of a round, see the module docs) and
/// returns the cycle of minimum ratio `w(C)/t(C)` (the mean when every
/// transit is 1) as `(lambda, s)`, where `s` is the node at which the
/// first walk to reach the cycle closed it. The cycle's arcs are left
/// in `scratch.best_cycle`, starting with `s`'s policy arc, and the
/// walks that drain into it are what
/// [`PolicyCycleScratch::for_each_in_basin`] visits.
fn min_policy_cycle(
    g: &Graph,
    policy: &[ArcId],
    succ: &[u32],
    counters: &mut Counters,
    scratch: &mut PolicyCycleScratch,
) -> Result<(Ratio64, usize), SolveError> {
    let n = succ.len();
    let PolicyCycleScratch {
        visited_by,
        order,
        walk_end,
        walk_cycle,
        best_walk,
        best_cycle,
    } = scratch;
    // 0 = unvisited, otherwise the 1-based id of the walk that first
    // visited. Every node is visited each scan, so a full refill is the
    // natural reset (no allocation; the buffers persist).
    visited_by.clear();
    visited_by.resize(n, 0);
    order.clear();
    walk_end.clear();
    walk_cycle.clear();
    let mut best: Option<(Ratio64, usize)> = None;
    for start in 0..n {
        if visited_by[start] != 0 {
            continue;
        }
        let walk_id = idx32(walk_end.len()) + 1;
        let begin = order.len();
        let mut v = start;
        while visited_by[v] == 0 {
            visited_by[v] = walk_id;
            order.push(idx32(v));
            v = succ[v] as usize;
        }
        let drains_into = if visited_by[v] == walk_id {
            // New cycle: the walk's nodes from v onward.
            counters.cycles_examined += 1;
            let first = begin
                + order[begin..]
                    .iter()
                    .position(|&u| u as usize == v)
                    .expect("the walk closed on one of its own nodes");
            // Exact accumulation in i128: a policy cycle has at most n
            // arcs, so the sums cannot wrap.
            let mut w = 0i128;
            let mut t = 0i128;
            for &u in &order[first..] {
                let a = policy[u as usize];
                w += g.weight(a) as i128;
                t += g.transit(a) as i128;
            }
            if t <= 0 {
                return Err(SolveError::ZeroTransitCycle);
            }
            let lam = Ratio64::try_from_i128(w, t).ok_or(SolveError::Overflow {
                context: "policy cycle ratio",
            })?;
            if best.as_ref().is_none_or(|(b, _)| lam < *b) {
                best = Some((lam, v));
                *best_walk = walk_id;
                best_cycle.clear();
                best_cycle.extend(order[first..].iter().map(|&u| policy[u as usize]));
            }
            walk_id
        } else {
            walk_cycle[visited_by[v] as usize - 1]
        };
        walk_end.push(idx32(order.len()));
        walk_cycle.push(drains_into);
    }
    Ok(best.expect("policy graph of a nonempty component always has a cycle"))
}

impl PolicyCycleScratch {
    /// Calls `f(u)` for every node `u ≠ s` whose policy path reaches the
    /// best cycle of the latest scan, each after its successor (step 2 of
    /// a round). Returns the number of calls.
    fn for_each_in_basin(&self, s: usize, mut f: impl FnMut(usize)) -> u64 {
        let mut calls = 0u64;
        let mut begin = 0;
        for (&end, &cycle) in self.walk_end.iter().zip(&self.walk_cycle) {
            let end = end as usize;
            if cycle == self.best_walk {
                for &u in self.order[begin..end].iter().rev() {
                    if u as usize != s {
                        f(u as usize);
                        calls += 1;
                    }
                }
            }
            begin = end;
        }
        calls
    }
}

/// Initial policy: each node's minimum-weight outgoing arc (lines 1–4 of
/// Figure 1), with its target in `succ`.
fn initial_policy_into(g: &Graph, policy: &mut Vec<ArcId>, succ: &mut Vec<u32>) {
    policy.clear();
    succ.clear();
    for v in g.node_ids() {
        let (best, target, _, _) = g
            .out_adj(v)
            .min_by_key(|&(_, _, w, _)| w)
            .expect("strongly connected component node has an out-arc");
        policy.push(best);
        succ.push(idx32(target.index()));
    }
}

/// The improved Howard's algorithm of Figure 1 (`f64` distances,
/// ε-terminated). All scratch state lives in `ws`; steady-state
/// iterations allocate nothing.
pub(crate) fn solve_scc_fig1(
    g: &Graph,
    counters: &mut Counters,
    epsilon: f64,
    ws: &mut Workspace,
    scope: &mut BudgetScope,
) -> Result<SccOutcome, SolveError> {
    solve_scc_fig1_ckpt(g, counters, epsilon, ws, scope, None, &mut None)
}

/// [`solve_scc_fig1`] with checkpoint/resume: starts from `resume` when
/// it carries a valid policy + value snapshot for this graph, and
/// populates `saved` with the current snapshot when the budget, the
/// cancellation token, or an injected fault interrupts the iteration.
/// Resuming continues the exact round sequence of an uninterrupted run.
pub(crate) fn solve_scc_fig1_ckpt(
    g: &Graph,
    counters: &mut Counters,
    epsilon: f64,
    ws: &mut Workspace,
    scope: &mut BudgetScope,
    resume: Option<&JobProgress>,
    saved: &mut Option<JobProgress>,
) -> Result<SccOutcome, SolveError> {
    let n = g.num_nodes();
    let m = g.num_arcs();
    let Workspace {
        policy,
        succ,
        dist_f64: d,
        cycles,
        ..
    } = ws;
    let srcs = g.sources();
    let tgts = g.targets();
    let wts = g.weights();
    let trs = g.transits();
    let resumed = match resume {
        Some(JobProgress::Howard {
            policy: saved_policy,
            dist_bits: Some(bits),
        }) if bits.len() == g.num_nodes() && restore_policy(g, saved_policy, policy, succ) => {
            d.clear();
            d.extend(bits.iter().map(|&b| f64::from_bits(b)));
            true
        }
        _ => false,
    };
    if !resumed {
        // Initial distances d(u) = w(u, π(u)).
        initial_policy_into(g, policy, succ);
        d.clear();
        d.extend(policy.iter().map(|&a| g.weight(a) as f64));
    }
    let cap = iteration_cap(n);
    let mut rounds = 0u64;
    scope.loop_metrics("core.howard.fig1.improve");
    loop {
        counters.iterations += 1;
        if let Err(e) = scope
            .tick_iteration_and_time()
            .and_then(|()| scope.chaos_check("core.howard.fig1.improve"))
        {
            *saved = Some(snapshot_policy(policy, Some(d)));
            return Err(e);
        }
        rounds += 1;
        if rounds > cap {
            // Safety net: policy iteration provably terminates; only a
            // pathological epsilon (denormal-scale) can spin here.
            return Err(SolveError::NumericRange {
                context: "Howard (fig. 1) iteration cap — epsilon too small?",
            });
        }
        let (lam_exact, s) = min_policy_cycle(g, policy, succ, counters, cycles)?;
        let lam = lam_exact.to_f64();

        // Refresh the distances of every node with a policy path to s
        // (lines 11–12); d(s) itself and nodes outside the basin keep
        // their values.
        counters.distance_updates += cycles.for_each_in_basin(s, |v| {
            let a = policy[v];
            d[v] = d[succ[v] as usize] + g.weight(a) as f64 - lam * g.transit(a) as f64;
        });

        // Improvement pass over all arcs (lines 13–18): a Gauss–Seidel
        // pass, so later arcs see commits from earlier arcs through `d`.
        let mut improved = false;
        #[allow(clippy::needless_range_loop)] // hot loop indexes flat arrays in step
        for ai in 0..m {
            let u = srcs[ai].index();
            let v = tgts[ai].index();
            counters.relaxations += 1;
            let c = d[v] + wts[ai] as f64 - lam * trs[ai] as f64;
            let delta = d[u] - c;
            if delta > 0.0 {
                if delta > epsilon {
                    improved = true;
                }
                d[u] = c;
                policy[u] = ArcId::new(ai);
                succ[u] = idx32(v);
                counters.distance_updates += 1;
            }
        }
        if !improved {
            return Ok(SccOutcome {
                lambda: lam_exact,
                cycle: cycles.best_cycle.clone(),
                guarantee: Guarantee::Epsilon(epsilon * n as f64),
                solved_by: Algorithm::Howard,
            });
        }
    }
}

/// The integer width of one exact round: `i64` when the round's values
/// provably fit, `i128` otherwise (see [`round_fits_i64`]). One generic
/// round serves both.
trait Scaled: Copy + Ord + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> {
    /// "Not reached from `s` this round." Every value a round computes
    /// lies strictly inside `±B` with `B ≤ INF / 2`, so no finite value
    /// reaches it and `INF + reduced cost` cannot overflow.
    const INF: Self;
    fn of(x: i64) -> Self;
}

impl Scaled for i64 {
    const INF: i64 = 1 << 62;
    #[inline]
    fn of(x: i64) -> i64 {
        x
    }
}

impl Scaled for i128 {
    const INF: i128 = 1 << 126;
    #[inline]
    fn of(x: i64) -> i128 {
        i128::from(x)
    }
}

/// Chooses the width of an exact round at `λ = p/q`: `Ok(true)` for
/// `i64`, `Ok(false)` for `i128`, and [`SolveError::Overflow`] when not
/// even `i128` is safe. `w_max` and `t_max` are the component's largest
/// `|w(e)|` and `|t(e)|`.
///
/// Every reduced cost `w·q − p·t` has magnitude at most
/// `K = w_max·q + |p|·t_max`. Value determination follows policy paths
/// of at most `n − 1` arcs, so after it `|d| ≤ (n − 1)·K`. Each adoption
/// of the improvement pass sets `d(u) = d(v) + (w·q − p·t)` from a value
/// already bounded, adding at most one `K`, and a pass adopts at most
/// `m` times, so every stored value stays within `(n − 1 + m)·K` and
/// every candidate within `(n + m)·K < B = (n + m + 1)·K`. With
/// `B < 2^61` (`2^125`) the `i64` (`i128`) round never overflows, its
/// sentinel `INF = 2^62` (`2^126`) is never reached by a finite value,
/// and `INF + w·q − p·t` stays below the type's maximum. The choice may
/// differ from round to round because the exact variant recomputes
/// every value from the policy each round.
fn round_fits_i64(
    n: usize,
    m: usize,
    w_max: u64,
    t_max: u64,
    lam: Ratio64,
) -> Result<bool, SolveError> {
    // Each product is below 2^126, so K < 2^127 cannot overflow u128.
    let k = u128::from(w_max) * u128::from(lam.denom().unsigned_abs())
        + u128::from(lam.numer().unsigned_abs()) * u128::from(t_max);
    match k.checked_mul(n as u128 + m as u128 + 1) {
        Some(b) if b < 1 << 61 => Ok(true),
        Some(b) if b < 1 << 125 => Ok(false),
        _ => Err(SolveError::Overflow {
            context: "Howard (exact): scaled values leave the i128 range",
        }),
    }
}

/// One exact round after the scan: value determination anchored at
/// `d(s) = 0`, then the improvement pass. Returns whether any arc was
/// adopted.
#[allow(clippy::too_many_arguments)]
fn exact_round<T: Scaled>(
    g: &Graph,
    lam: Ratio64,
    s: usize,
    walks: &PolicyCycleScratch,
    policy: &mut [ArcId],
    succ: &mut [u32],
    d: &mut Vec<T>,
    counters: &mut Counters,
) -> bool {
    determine_values(g, lam, s, walks, policy, succ, d, counters);
    improve(g, lam, policy, succ, d, counters)
}

/// Value determination: `d` scaled by `q`, `d(s) = 0`, and
/// `d(u) = d(succ(u)) + w·q − p·t` along the policy for every node in
/// `s`'s basin. Nodes that cannot reach `s` under the current policy
/// get `INF` this round.
#[allow(clippy::too_many_arguments)]
fn determine_values<T: Scaled>(
    g: &Graph,
    lam: Ratio64,
    s: usize,
    walks: &PolicyCycleScratch,
    policy: &[ArcId],
    succ: &[u32],
    d: &mut Vec<T>,
    counters: &mut Counters,
) {
    let (p, q) = (T::of(lam.numer()), T::of(lam.denom()));
    d.clear();
    d.resize(succ.len(), T::INF);
    d[s] = T::of(0);
    counters.distance_updates += walks.for_each_in_basin(s, |u| {
        let a = policy[u];
        d[u] = d[succ[u] as usize] + T::of(g.weight(a)) * q - p * T::of(g.transit(a));
    });
}

/// The strict improvement pass, branch-free. An `INF` (unset) `d(u)`
/// loses to every finite candidate, so "u unset" needs no test of its
/// own; a candidate through an `INF` `d(v)` is never taken.
fn improve<T: Scaled>(
    g: &Graph,
    lam: Ratio64,
    policy: &mut [ArcId],
    succ: &mut [u32],
    d: &mut [T],
    counters: &mut Counters,
) -> bool {
    let (p, q) = (T::of(lam.numer()), T::of(lam.denom()));
    let mut adopted = 0u64;
    let arcs = g.sources().iter().zip(g.targets()).zip(g.weights()).zip(g.transits());
    for (ai, (((u, v), &w), &t)) in (0u32..).zip(arcs) {
        let (u, v) = (u.index(), v.index());
        let dv = d[v];
        let c = dv + T::of(w) * q - p * T::of(t);
        let du = d[u];
        let take = (dv != T::INF) & (c < du);
        d[u] = select_unpredictable(take, c, du);
        policy[u] = select_unpredictable(take, ArcId::new(ai as usize), policy[u]);
        succ[u] = select_unpredictable(take, idx32(v), succ[u]);
        adopted += u64::from(take);
    }
    counters.relaxations += g.num_arcs() as u64;
    counters.distance_updates += adopted;
    adopted > 0
}

/// Exact Howard: full value determination per round in scaled integers.
/// All scratch state lives in `ws`; "unset this round" is an `INF`
/// sentinel written by the value sweep.
pub(crate) fn solve_scc_exact(
    g: &Graph,
    counters: &mut Counters,
    ws: &mut Workspace,
    scope: &mut BudgetScope,
) -> Result<SccOutcome, SolveError> {
    solve_scc_exact_ckpt(g, counters, ws, scope, None, &mut None)
}

/// [`solve_scc_exact`] with checkpoint/resume. The exact variant's only
/// cross-round state is the policy vector (values are recomputed from
/// it each round), so the snapshot is the policy alone; see
/// [`solve_scc_fig1_ckpt`] for the save/restore contract.
///
/// After a solve, the final round's values — dual potentials proving
/// that no cycle beats λ — are in `ws.dist_i64` or `ws.dist_i128`,
/// whichever width that round used; the other is empty.
pub(crate) fn solve_scc_exact_ckpt(
    g: &Graph,
    counters: &mut Counters,
    ws: &mut Workspace,
    scope: &mut BudgetScope,
    resume: Option<&JobProgress>,
    saved: &mut Option<JobProgress>,
) -> Result<SccOutcome, SolveError> {
    let n = g.num_nodes();
    let m = g.num_arcs();
    let Workspace {
        policy,
        succ,
        dist_i64,
        dist_i128,
        cycles,
        ..
    } = ws;
    let resumed = match resume {
        Some(JobProgress::Howard {
            policy: saved_policy,
            dist_bits: None,
        }) => restore_policy(g, saved_policy, policy, succ),
        _ => false,
    };
    if !resumed {
        initial_policy_into(g, policy, succ);
    }
    let w_max = g.weights().iter().map(|w| w.unsigned_abs()).max().unwrap_or(0);
    let t_max = g.transits().iter().map(|t| t.unsigned_abs()).max().unwrap_or(0);
    let cap = iteration_cap(n);
    let mut rounds = 0u64;
    scope.loop_metrics("core.howard.exact.improve");
    loop {
        counters.iterations += 1;
        if let Err(e) = scope
            .tick_iteration_and_time()
            .and_then(|()| scope.chaos_check("core.howard.exact.improve"))
        {
            *saved = Some(snapshot_policy(policy, None));
            return Err(e);
        }
        rounds += 1;
        if rounds > cap {
            return Err(SolveError::NumericRange {
                context: "Howard (exact) iteration cap",
            });
        }
        let (lam, s) = min_policy_cycle(g, policy, succ, counters, cycles)?;
        let improved = if round_fits_i64(n, m, w_max, t_max, lam)? {
            dist_i128.clear();
            exact_round(g, lam, s, cycles, policy, succ, dist_i64, counters)
        } else {
            dist_i64.clear();
            exact_round(g, lam, s, cycles, policy, succ, dist_i128, counters)
        };
        if !improved {
            // No strict improvement and (by strong connectivity) no
            // unset node remains: d certifies λ* = lam.
            debug_assert!(dist_i64.iter().all(|&x| x != i64::INF));
            debug_assert!(dist_i128.iter().all(|&x| x != i128::INF));
            return Ok(SccOutcome {
                lambda: lam,
                cycle: cycles.best_cycle.clone(),
                guarantee: Guarantee::Exact,
                solved_by: Algorithm::HowardExact,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_graph::graph::from_arc_list;

    fn scope() -> BudgetScope {
        BudgetScope::unlimited(Algorithm::HowardExact)
    }

    fn exact_lambda(g: &Graph) -> Ratio64 {
        let mut c = Counters::new();
        solve_scc_exact(g, &mut c, &mut Workspace::new(), &mut scope())
            .expect("solvable")
            .lambda
    }

    fn fig1_lambda(g: &Graph) -> Ratio64 {
        let mut c = Counters::new();
        solve_scc_fig1(g, &mut c, 1e-9, &mut Workspace::new(), &mut scope())
            .expect("solvable")
            .lambda
    }

    #[test]
    fn single_ring() {
        let g = from_arc_list(3, &[(0, 1, 1), (1, 2, 2), (2, 0, 4)]);
        assert_eq!(exact_lambda(&g), Ratio64::new(7, 3));
        assert_eq!(fig1_lambda(&g), Ratio64::new(7, 3));
    }

    #[test]
    fn self_loop_wins() {
        let g = from_arc_list(2, &[(0, 1, 5), (1, 0, 5), (1, 1, 2)]);
        assert_eq!(exact_lambda(&g), Ratio64::from(2));
        assert_eq!(fig1_lambda(&g), Ratio64::from(2));
    }

    #[test]
    fn both_variants_match_brute_force() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        for seed in 0..60 {
            let g = sprand(&SprandConfig::new(10, 28).seed(seed).weight_range(-50, 50));
            let (expected, _) = crate::reference::brute_force_min_mean(&g).expect("cyclic");
            assert_eq!(exact_lambda(&g), expected, "exact seed {seed}");
            assert_eq!(fig1_lambda(&g), expected, "fig1 seed {seed}");
        }
    }

    #[test]
    fn iteration_count_is_small_on_random_graphs() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        let g = sprand(&SprandConfig::new(200, 600).seed(7));
        let mut c = Counters::new();
        solve_scc_exact(&g, &mut c, &mut Workspace::new(), &mut scope()).expect("solvable");
        // §4.3: "drastically small compared to the other algorithms".
        assert!(c.iterations < 60, "iterations {}", c.iterations);
    }

    #[test]
    fn witness_cycle_mean_equals_lambda() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        for seed in 0..10 {
            let g = sprand(&SprandConfig::new(30, 90).seed(seed));
            let mut c = Counters::new();
            let s =
                solve_scc_exact(&g, &mut c, &mut Workspace::new(), &mut scope()).expect("solvable");
            let (w, len, _) = crate::solution::check_cycle(&g, &s.cycle).expect("valid");
            assert_eq!(Ratio64::new(w, len as i64), s.lambda);
        }
    }

    #[test]
    fn ratio_problem_with_transits() {
        // Two cycles with different (mean, ratio) orderings.
        let mut b = mcr_graph::GraphBuilder::new();
        let v = b.add_nodes(2);
        b.add_arc_with_transit(v[0], v[1], 2, 5);
        b.add_arc_with_transit(v[1], v[0], 2, 5); // ratio 4/10 = 2/5
        b.add_arc_with_transit(v[0], v[0], 1, 1); // ratio 1
        let g = b.build();
        let mut c = Counters::new();
        let s = solve_scc_exact(&g, &mut c, &mut Workspace::new(), &mut scope()).expect("solvable");
        assert_eq!(s.lambda, Ratio64::new(2, 5));
    }

    #[test]
    fn zero_transit_policy_cycle_is_an_error() {
        let mut b = mcr_graph::GraphBuilder::new();
        let v = b.add_nodes(1);
        b.add_arc_with_transit(v[0], v[0], 3, 0);
        let g = b.build();
        let mut c = Counters::new();
        let err = solve_scc_exact(&g, &mut c, &mut Workspace::new(), &mut scope())
            .expect_err("zero-transit cycle");
        assert_eq!(err, SolveError::ZeroTransitCycle);
    }

    /// `d(u)` for every node by walking the policy from `u` to `s` and
    /// summing reduced costs; `None` when the walk never reaches `s`.
    fn values_by_walking(g: &Graph, policy: &[ArcId], lam: Ratio64, s: usize) -> Vec<Option<i128>> {
        let (p, q) = (i128::from(lam.numer()), i128::from(lam.denom()));
        (0..g.num_nodes())
            .map(|start| {
                let (mut u, mut sum) = (start, 0i128);
                for _ in 0..g.num_nodes() {
                    if u == s {
                        return Some(sum);
                    }
                    let a = policy[u];
                    sum += i128::from(g.weight(a)) * q - p * i128::from(g.transit(a));
                    u = g.target(a).index();
                }
                (u == s).then_some(sum)
            })
            .collect()
    }

    fn widen<T: Scaled>(d: &[T], to_i128: impl Fn(T) -> i128) -> Vec<Option<i128>> {
        d.iter().map(|&x| (x != T::INF).then(|| to_i128(x))).collect()
    }

    #[test]
    fn one_round_agrees_in_both_widths_and_with_walked_values() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        use mcr_gen::transit::with_random_transits;
        for seed in 0..6 {
            let g = with_random_transits(
                &sprand(&SprandConfig::new(120, 400).seed(seed).weight_range(-500, 500)),
                1,
                3,
                seed,
            );
            let (mut policy, mut succ) = (Vec::new(), Vec::new());
            initial_policy_into(&g, &mut policy, &mut succ);
            let mut scratch = PolicyCycleScratch::default();
            let mut rounds = 0;
            loop {
                let mut c = Counters::new();
                let (lam, s) = min_policy_cycle(&g, &policy, &succ, &mut c, &mut scratch)
                    .expect("positive transits");
                assert!(round_fits_i64(g.num_nodes(), g.num_arcs(), 500, 3, lam).expect("fits"));
                let walked = values_by_walking(&g, &policy, lam, s);

                let (mut p64, mut s64, mut d64, mut c64) =
                    (policy.clone(), succ.clone(), Vec::<i64>::new(), c);
                determine_values(&g, lam, s, &scratch, &p64, &s64, &mut d64, &mut c64);
                assert_eq!(widen(&d64, i128::from), walked, "seed {seed} round {rounds}");
                let improved64 = improve(&g, lam, &mut p64, &mut s64, &mut d64, &mut c64);

                let (mut p128, mut s128, mut d128, mut c128) =
                    (policy.clone(), succ.clone(), Vec::<i128>::new(), c);
                let improved128 =
                    exact_round(&g, lam, s, &scratch, &mut p128, &mut s128, &mut d128, &mut c128);

                assert_eq!((improved64, &p64, &s64, c64), (improved128, &p128, &s128, c128));
                assert_eq!(widen(&d64, i128::from), widen(&d128, |x| x), "seed {seed}");
                for (v, &a) in p64.iter().enumerate() {
                    assert_eq!(s64[v] as usize, g.target(a).index(), "succ tracks the policy");
                }
                (policy, succ) = (p64, s64);
                rounds += 1;
                if !improved64 {
                    break;
                }
            }
            assert!(rounds >= 2, "seed {seed}: the test needs an adopting round");
        }
    }

    #[test]
    fn scaling_weights_across_the_width_switch_scales_lambda_only() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        let base = sprand(&SprandConfig::new(200, 800).seed(4));
        let mut reference = None;
        for k in [0u32, 20, 30, 40] {
            let mut b = mcr_graph::GraphBuilder::new();
            b.add_nodes(base.num_nodes());
            for a in base.arc_ids() {
                b.add_arc(base.source(a), base.target(a), base.weight(a) << k);
            }
            let g = b.build();
            let mut ws = Workspace::new();
            let mut c = Counters::new();
            let out = solve_scc_exact(&g, &mut c, &mut ws, &mut scope()).expect("solvable");
            // The final round ran narrow below the switch (between k = 30
            // and k = 40 here, where every λ has denominator 1), wide above.
            assert_eq!(ws.dist_i64.is_empty(), k >= 40, "k = {k}");
            assert_eq!(ws.dist_i128.is_empty(), k < 40, "k = {k}");
            // Its values are dual potentials anchored at the witness.
            let d: Vec<i128> = if k < 40 {
                ws.dist_i64.iter().map(|&x| i128::from(x)).collect()
            } else {
                ws.dist_i128.clone()
            };
            let (p, q) = (i128::from(out.lambda.numer()), i128::from(out.lambda.denom()));
            assert_eq!(d[g.source(out.cycle[0]).index()], 0, "k = {k}");
            for a in g.arc_ids() {
                let (u, v) = (g.source(a).index(), g.target(a).index());
                let reduced = i128::from(g.weight(a)) * q - p * i128::from(g.transit(a));
                assert!(d[u] <= d[v] + reduced, "k = {k}: arc {a:?} still improves");
            }
            let (lam0, cycle0, c0) = reference.get_or_insert((out.lambda, out.cycle.clone(), c));
            assert_eq!(out.lambda, *lam0 * Ratio64::from(1i64 << k), "k = {k}");
            assert_eq!((&out.cycle, c), (&*cycle0, *c0), "k = {k}");
        }
    }

    #[test]
    fn round_width_follows_the_bound() {
        // B = (n + m + 1)·(w_max·q + |p|·t_max) with n + m + 1 = 8.
        let fits = |w_max, t_max, lam| round_fits_i64(3, 4, w_max, t_max, lam);
        assert_eq!(fits((1 << 58) - 1, 1, Ratio64::from(-1)), Ok(false)); // B = 2^61
        assert_eq!(fits((1 << 58) - 2, 1, Ratio64::from(-1)), Ok(true)); // B = 2^61 − 8
        assert_eq!(fits(1 << 62, 1 << 62, Ratio64::new(-1, 1 << 62)), Err(SolveError::Overflow {
            context: "Howard (exact): scaled values leave the i128 range",
        }));
        assert_eq!(fits(1 << 40, 1, Ratio64::new(1, 1 << 40)), Ok(false));
    }

    #[test]
    fn one_iteration_budget_exhausts_deterministically() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        let g = sprand(&SprandConfig::new(20, 60).seed(3));
        let budget = crate::Budget::default().max_iterations(1);
        let mut scope = BudgetScope::new(&budget, None, Algorithm::HowardExact);
        let mut c = Counters::new();
        // One policy improvement is allowed; the second charge errs.
        let r = solve_scc_exact(&g, &mut c, &mut Workspace::new(), &mut scope);
        if let Err(e) = r {
            assert!(
                matches!(e, SolveError::BudgetExhausted { .. }),
                "unexpected error {e}"
            );
        }
        // (Ok is possible only if policy iteration converged in one
        // round, which cannot happen on this seed.)
    }
}
