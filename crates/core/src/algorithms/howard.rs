//! Howard's algorithm (policy iteration), the study's overall winner.
//!
//! Two variants are provided:
//!
//! * [`solve_scc_fig1`] — the improved version of Figure 1 of the paper:
//!   node distances persist across iterations (`f64`), only the basin of
//!   the minimum policy cycle is refreshed by a reverse BFS, and the
//!   loop exits when no distance improves by more than ε. The reported
//!   λ is the exact rational mean of the final policy cycle.
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

/// Captures the cross-round state of a policy iteration for
/// checkpointing: the policy vector, plus the `f64` node values for the
/// Figure 1 variant (which persists them across rounds).
fn snapshot_policy(policy: &[ArcId], d: Option<&[f64]>) -> JobProgress {
    JobProgress::Howard {
        policy: policy.iter().map(|a| idx32(a.index())).collect(),
        dist_bits: d.map(|d| d.iter().map(|x| x.to_bits()).collect()),
    }
}

/// Restores a checkpointed policy into `policy`, validating that every
/// entry is an out-arc of its node in *this* graph. Returns `false`
/// (leaving `policy` empty) on any mismatch — a stale or corrupt
/// checkpoint falls back to a fresh solve instead of panicking or
/// poisoning the iteration.
fn restore_policy(g: &Graph, saved: &[u32], policy: &mut Vec<ArcId>) -> bool {
    policy.clear();
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
    }
    true
}

/// Iteration-cap safety net: policy iteration provably terminates, but a
/// bug would otherwise loop forever. Generous enough never to fire on
/// sane inputs.
fn iteration_cap(n: usize) -> u64 {
    200_000 + 200 * n as u64
}

/// Finds all cycles of the current policy graph and returns the one
/// with the minimum ratio `w(C)/t(C)` (mean when transits are 1), as
/// `(lambda, anchor_node)`. The cycle's arcs are left in
/// `scratch.best_cycle`.
fn min_policy_cycle(
    g: &Graph,
    policy: &[ArcId],
    counters: &mut Counters,
    scratch: &mut PolicyCycleScratch,
) -> Result<(Ratio64, usize), SolveError> {
    let n = g.num_nodes();
    // 0 = unvisited, otherwise the 1-based walk id that first visited.
    // Every node is visited each scan, so a full refill is the natural
    // reset (no allocation; the buffers persist in the workspace).
    scratch.visited_by.clear();
    scratch.visited_by.resize(n, 0);
    if scratch.pos_in_walk.len() < n {
        scratch.pos_in_walk.resize(n, 0);
    }
    let visited_by = &mut scratch.visited_by;
    let pos_in_walk = &mut scratch.pos_in_walk;
    let walk = &mut scratch.walk;
    let best_cycle = &mut scratch.best_cycle;
    let mut best: Option<(Ratio64, usize)> = None;
    for start in 0..n {
        if visited_by[start] != 0 {
            continue;
        }
        let walk_id = idx32(start) + 1;
        walk.clear();
        let mut v = start;
        while visited_by[v] == 0 {
            visited_by[v] = walk_id;
            pos_in_walk[v] = idx32(walk.len());
            walk.push(idx32(v));
            v = g.target(policy[v]).index();
        }
        if visited_by[v] == walk_id {
            // New cycle: nodes walk[pos_in_walk[v]..].
            counters.cycles_examined += 1;
            let first = pos_in_walk[v] as usize;
            // Exact accumulation in i128: a policy cycle has at most n
            // arcs, so the sums cannot wrap.
            let mut w = 0i128;
            let mut t = 0i128;
            for &u in &walk[first..] {
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
                best_cycle.clear();
                best_cycle.extend(walk[first..].iter().map(|&u| policy[u as usize]));
            }
        }
    }
    Ok(best.expect("policy graph of a nonempty component always has a cycle"))
}

/// Initial policy: each node's minimum-weight outgoing arc (lines 1–4 of
/// Figure 1), along with the initial distances `d(u) = w(u, π(u))`.
fn initial_policy_into(g: &Graph, policy: &mut Vec<ArcId>, d: &mut Vec<f64>) {
    policy.clear();
    d.clear();
    for v in g.node_ids() {
        let (best, weight) = g
            .out_adj(v)
            .map(|(a, _, w, _)| (a, w))
            .min_by_key(|&(_, w)| w)
            .expect("strongly connected component node has an out-arc");
        policy.push(best);
        d.push(weight as f64);
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
        dist_f64: d,
        cycles,
        rev,
        queue,
        marks,
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
        }) if bits.len() == g.num_nodes() && restore_policy(g, saved_policy, policy) => {
            d.clear();
            d.extend(bits.iter().map(|&b| f64::from_bits(b)));
            true
        }
        _ => false,
    };
    if !resumed {
        initial_policy_into(g, policy, d);
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
        let (lam_exact, s) = min_policy_cycle(g, policy, counters, cycles)?;
        let lam = lam_exact.to_f64();

        // Reverse BFS within the policy graph from s: refresh distances
        // of every node with a policy path to s (line 11–12). The
        // reverse adjacency is a flat CSR whose per-node lists hold
        // sources in ascending order — the push order of the
        // `Vec<Vec<u32>>` it replaces, so traversal is identical.
        rev.build(n, |emit| {
            for (v, &a) in policy.iter().enumerate().take(n) {
                if v != s {
                    emit(idx32(g.target(a).index()), idx32(v));
                }
            }
        });
        queue.clear();
        queue.push(idx32(s));
        let mut head = 0;
        let settled = marks.next(n);
        marks.mark[s] = settled;
        while head < queue.len() {
            let x = queue[head] as usize;
            head += 1;
            for &vu in rev.list(x) {
                let v = vu as usize;
                if marks.mark[v] != settled {
                    marks.mark[v] = settled;
                    d[v] = d[x] + g.weight(policy[v]) as f64
                        - lam * g.transit(policy[v]) as f64;
                    counters.distance_updates += 1;
                    queue.push(vu);
                }
            }
        }

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

/// Exact Howard: full value determination per round in scaled integers.
/// All scratch state lives in `ws`; "unset this round" is an
/// epoch-stamped mark instead of a sentinel fill, so each iteration
/// starts in `O(1)` instead of `O(n)`.
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
        dist_f64,
        dist_scaled: d,
        cycles,
        rev,
        queue,
        marks,
        ..
    } = ws;
    let srcs = g.sources();
    let tgts = g.targets();
    let wts = g.weights();
    let trs = g.transits();
    let resumed = match resume {
        Some(JobProgress::Howard {
            policy: saved_policy,
            dist_bits: None,
        }) => restore_policy(g, saved_policy, policy),
        _ => false,
    };
    if !resumed {
        initial_policy_into(g, policy, dist_f64);
    }
    d.clear();
    d.resize(n, 0);
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
        let (lam, s) = min_policy_cycle(g, policy, counters, cycles)?;
        let p = lam.numer() as i128;
        let q = lam.denom() as i128;

        // Value determination: d scaled by q, anchored at d(s) = 0,
        // propagated backward through the policy graph. Nodes that
        // cannot reach s under the current policy stay unset (not
        // `valid`-stamped) this round.
        let valid = marks.next(n);
        d[s] = 0;
        marks.mark[s] = valid;
        rev.build(n, |emit| {
            for (v, &a) in policy.iter().enumerate().take(n) {
                if v != s {
                    emit(idx32(g.target(a).index()), idx32(v));
                }
            }
        });
        queue.clear();
        queue.push(idx32(s));
        let mut head = 0;
        while head < queue.len() {
            let x = queue[head] as usize;
            head += 1;
            for &vu in rev.list(x) {
                let v = vu as usize;
                if marks.mark[v] != valid {
                    marks.mark[v] = valid;
                    d[v] = d[x] + g.weight(policy[v]) as i128 * q
                        - p * g.transit(policy[v]) as i128;
                    counters.distance_updates += 1;
                    queue.push(vu);
                }
            }
        }

        // Strict improvement pass. An unset d(u) behaves like +∞: any
        // candidate through a valid d(v) adopts it (and validates u for
        // the rest of the pass, as the sentinel version did implicitly).
        let mut improved = false;
        #[allow(clippy::needless_range_loop)] // hot loop indexes flat arrays in step
        for ai in 0..m {
            let u = srcs[ai].index();
            let v = tgts[ai].index();
            counters.relaxations += 1;
            if marks.mark[v] != valid {
                continue;
            }
            let c = d[v] + wts[ai] as i128 * q - p * trs[ai] as i128;
            if marks.mark[u] != valid || c < d[u] {
                d[u] = c;
                marks.mark[u] = valid;
                policy[u] = ArcId::new(ai);
                improved = true;
                counters.distance_updates += 1;
            }
        }
        if !improved {
            // No strict improvement and (by strong connectivity) no
            // unset node remains: d certifies λ* = lam.
            debug_assert!(marks.mark[..n].iter().all(|&x| x == valid));
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
