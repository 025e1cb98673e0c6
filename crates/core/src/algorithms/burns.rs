//! Burns' algorithm: primal-dual linear programming.
//!
//! Burns solves the LP formulation `max λ s.t. d(v) − d(u) ≤ w(u,v) −
//! λ·t(u,v)` and its dual simultaneously. It maintains a dual-feasible
//! pair `(d, λ)` and the *critical subgraph* of tight arcs; while that
//! subgraph is acyclic, λ can be pushed up by the largest step `θ` that
//! keeps every constraint satisfied (with `d` adjusted along the
//! critical heights), rebuilding the critical subgraph from scratch
//! every iteration — the non-incremental behavior the paper blames for
//! Burns being slower than KO/YTO despite fewer iterations (§4.5). When
//! the critical subgraph acquires a cycle, that cycle is optimum.
//!
//! All arithmetic is exact (`i128` rationals), so the result is
//! certified.

use crate::budget::BudgetScope;
use crate::driver::SccOutcome;
use crate::error::SolveError;
use crate::instrument::Counters;
use crate::rational::Ratio64;
use crate::solution::Guarantee;
use mcr_graph::{ArcId, Graph};

/// Minimal exact rational over `i128` with overflow-checked arithmetic.
/// Burns' intermediate duals can need denominators beyond `i64`, hence
/// this widened private type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Rat {
    num: i128,
    den: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rat {
    const ZERO: Rat = Rat { num: 0, den: 1 };

    fn new(num: i128, den: i128) -> Self {
        assert!(den != 0);
        let (num, den) = if den < 0 { (-num, -den) } else { (num, den) };
        let g = gcd(num, den);
        if g == 0 {
            Rat { num: 0, den: 1 }
        } else {
            Rat {
                num: num / g,
                den: den / g,
            }
        }
    }

    fn from_int(v: i64) -> Self {
        Rat {
            num: v as i128,
            den: 1,
        }
    }

    fn checked(v: Option<i128>) -> Result<i128, SolveError> {
        v.ok_or(SolveError::Overflow {
            context: "Burns exact arithmetic (i128)",
        })
    }

    /// Knuth's gcd-first rational addition (TAOCP 4.5.1): keeps
    /// intermediates small when denominators share factors, which they
    /// overwhelmingly do in Burns' iterates.
    fn add(self, o: Rat) -> Result<Rat, SolveError> {
        let g = gcd(self.den, o.den).max(1);
        let t = Self::checked(
            Self::checked(self.num.checked_mul(o.den / g))?
                .checked_add(Self::checked(o.num.checked_mul(self.den / g))?),
        )?;
        let g2 = gcd(t, g).max(1);
        Ok(Rat {
            num: t / g2,
            den: Self::checked((self.den / g).checked_mul(o.den / g2))?,
        })
    }

    fn sub(self, o: Rat) -> Result<Rat, SolveError> {
        self.add(Rat {
            num: -o.num,
            den: o.den,
        })
    }

    fn mul_int(self, k: i64) -> Result<Rat, SolveError> {
        let k = k as i128;
        let g = gcd(k, self.den).max(1);
        Ok(Rat {
            num: Self::checked(self.num.checked_mul(k / g))?,
            den: self.den / g,
        })
    }

    fn div_int(self, k: i64) -> Result<Rat, SolveError> {
        debug_assert!(k != 0);
        let k = k as i128;
        let g = gcd(self.num, k).max(1);
        Ok(Rat::new(
            self.num / g,
            Self::checked(self.den.checked_mul(k / g))?,
        ))
    }

    fn is_zero(self) -> bool {
        self.num == 0
    }

    fn lt(self, o: Rat) -> Result<bool, SolveError> {
        Ok(Self::checked(self.num.checked_mul(o.den))?
            < Self::checked(o.num.checked_mul(self.den))?)
    }

    fn to_ratio64(self) -> Result<Ratio64, SolveError> {
        Ratio64::try_from_i128(self.num, self.den).ok_or(SolveError::Overflow {
            context: "Burns dual value exceeds Ratio64 range",
        })
    }
}

/// Finds a cycle among `arcs` (a subgraph of `g`) via iterative
/// three-color DFS, or `None` if the subgraph is acyclic.
pub(crate) fn cycle_in_arc_subgraph(g: &Graph, arcs: &[ArcId]) -> Option<Vec<ArcId>> {
    let n = g.num_nodes();
    let mut out: Vec<Vec<ArcId>> = vec![Vec::new(); n];
    for &a in arcs {
        out[g.source(a).index()].push(a);
    }
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    let mut color = vec![WHITE; n];
    let mut arc_stack: Vec<ArcId> = Vec::new();
    let mut pos = vec![usize::MAX; n];
    for root in 0..n {
        if color[root] != WHITE {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        color[root] = GRAY;
        pos[root] = 0;
        while let Some(&mut (v, ref mut idx)) = stack.last_mut() {
            if *idx < out[v].len() {
                let a = out[v][*idx];
                *idx += 1;
                let w = g.target(a).index();
                match color[w] {
                    WHITE => {
                        color[w] = GRAY;
                        pos[w] = arc_stack.len() + 1;
                        arc_stack.push(a);
                        stack.push((w, 0));
                    }
                    GRAY => {
                        let mut cycle: Vec<ArcId> = arc_stack[pos[w]..].to_vec();
                        cycle.push(a);
                        return Some(cycle);
                    }
                    _ => {}
                }
            } else {
                color[v] = 2;
                stack.pop();
                arc_stack.pop();
            }
        }
    }
    None
}

/// Initial dual-feasible pair from the lexicographic shortest path tree
/// (compare paths by `(transit, weight)`): `λ₀` is the smallest event of
/// any arc, `d₀(v) = a(v) − λ₀·k(v)`. With unit transit times this
/// reduces to the classic `λ₀ = min w`, `d₀ = 0`.
fn initial_pair(g: &Graph) -> Result<(Rat, Vec<Rat>), SolveError> {
    let n = g.num_nodes();
    let mut a = vec![0i64; n];
    let mut k = vec![0i64; n];
    let mut rounds = 0;
    loop {
        let mut changed = false;
        rounds += 1;
        if rounds > n + 1 {
            // The lexicographic relaxation converges within n rounds
            // unless some cycle has zero total transit time (its ratio
            // is undefined, so the instance is invalid for MCRP).
            return Err(SolveError::ZeroTransitCycle);
        }
        for e in g.arc_ids() {
            let u = g.source(e).index();
            let v = g.target(e).index();
            let cand = (
                i128::from(k[u]) + i128::from(g.transit(e)),
                i128::from(a[u]) + i128::from(g.weight(e)),
            );
            if cand < (i128::from(k[v]), i128::from(a[v])) {
                k[v] = i64::try_from(cand.0).map_err(|_| PATH_OVERFLOW)?;
                a[v] = i64::try_from(cand.1).map_err(|_| PATH_OVERFLOW)?;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut lambda: Option<Ratio64> = None;
    for e in g.arc_ids() {
        let u = g.source(e).index();
        let v = g.target(e).index();
        let den = i128::from(k[u]) + i128::from(g.transit(e)) - i128::from(k[v]);
        if den > 0 {
            let num = i128::from(a[u]) + i128::from(g.weight(e)) - i128::from(a[v]);
            let ev = Ratio64::try_from_i128(num, den).ok_or(PATH_OVERFLOW)?;
            if lambda.is_none_or(|l| ev < l) {
                lambda = Some(ev);
            }
        }
    }
    // A cyclic component always has a positive-transit event once
    // zero-transit cycles are ruled out above.
    let lambda = lambda.ok_or(SolveError::ZeroTransitCycle)?;
    let lam = Rat::new(lambda.numer() as i128, lambda.denom() as i128);
    let mut d = Vec::with_capacity(n);
    for v in 0..n {
        d.push(Rat::from_int(a[v]).sub(lam.mul_int(k[v])?)?);
    }
    Ok((lam, d))
}

/// Critical heights ρ(u) = max over tight out-arcs of ρ(v) + t(e), via
/// a reverse topological sweep of the (acyclic) critical subgraph. A
/// height past `i64` is [`SolveError::Overflow`].
fn critical_heights(g: &Graph, tight: &[ArcId]) -> Result<Vec<i64>, SolveError> {
    let n = g.num_nodes();
    let mut tight_out: Vec<Vec<ArcId>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for &e in tight {
        tight_out[g.source(e).index()].push(e);
        indeg[g.target(e).index()] += 1;
    }
    let mut order: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let v = order[head];
        head += 1;
        for &e in &tight_out[v] {
            let w = g.target(e).index();
            indeg[w] -= 1;
            if indeg[w] == 0 {
                order.push(w);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "critical subgraph must be acyclic here");
    let mut rho = vec![0i64; n];
    for &v in order.iter().rev() {
        for &e in &tight_out[v] {
            let cand = rho[g.target(e).index()]
                .checked_add(g.transit(e))
                .ok_or(HEIGHT_OVERFLOW)?;
            if cand > rho[v] {
                rho[v] = cand;
            }
        }
    }
    Ok(rho)
}

/// The rate `ρ(v) + t(e) − ρ(u)` at which arc `e = (u, v)`'s slack
/// shrinks per unit step.
fn step_coefficient(g: &Graph, rho: &[i64], e: ArcId) -> Result<i64, SolveError> {
    let rate = i128::from(rho[g.target(e).index()]) + i128::from(g.transit(e))
        - i128::from(rho[g.source(e).index()]);
    i64::try_from(rate).map_err(|_| HEIGHT_OVERFLOW)
}

const PATH_OVERFLOW: SolveError = SolveError::Overflow {
    context: "Burns initial shortest paths leave the i64 range",
};

const HEIGHT_OVERFLOW: SolveError = SolveError::Overflow {
    context: "Burns critical heights leave the i64 range",
};

/// Burns' algorithm on one strongly connected, cyclic component.
pub(crate) fn solve_scc(
    g: &Graph,
    counters: &mut Counters,
    scope: &mut BudgetScope,
) -> Result<SccOutcome, SolveError> {
    let n = g.num_nodes();
    let (mut lambda, mut d) = initial_pair(g)?;
    let cap = 4 * (n as u64) * (n as u64) + 1_000;
    let mut rounds = 0u64;
    let mut slack = vec![Rat::ZERO; g.num_arcs()];
    scope.loop_metrics("core.burns.exact.phase");
    loop {
        counters.iterations += 1;
        scope.tick_iteration_and_time()?;
        scope.chaos_check("core.burns.exact.phase")?;
        rounds += 1;
        if rounds > cap {
            return Err(SolveError::NumericRange {
                context: "Burns exceeded its internal iteration cap",
            });
        }

        // Rebuild the critical (tight) subgraph from scratch.
        let mut tight: Vec<ArcId> = Vec::new();
        for e in g.arc_ids() {
            let u = g.source(e).index();
            let v = g.target(e).index();
            counters.relaxations += 1;
            let s = Rat::from_int(g.weight(e))
                .sub(lambda.mul_int(g.transit(e))?)?
                .add(d[u])?
                .sub(d[v])?;
            debug_assert!(!s.lt(Rat::ZERO).unwrap_or(false), "dual feasibility violated");
            if s.is_zero() {
                tight.push(e);
            }
            slack[e.index()] = s;
        }

        if let Some(cycle) = cycle_in_arc_subgraph(g, &tight) {
            counters.cycles_examined += 1;
            return Ok(SccOutcome {
                lambda: lambda.to_ratio64()?,
                cycle,
                guarantee: Guarantee::Exact,
                solved_by: crate::Algorithm::BurnsExact,
            });
        }

        let rho = critical_heights(g, &tight)?;

        // Largest feasible step θ.
        let mut theta: Option<Rat> = None;
        for e in g.arc_ids() {
            let coeff = step_coefficient(g, &rho, e)?;
            if coeff > 0 && !slack[e.index()].is_zero() {
                let cand = slack[e.index()].div_int(coeff)?;
                let smaller = match theta {
                    None => true,
                    Some(t) => cand.lt(t)?,
                };
                if smaller {
                    theta = Some(cand);
                }
            }
        }
        // On a strongly connected cyclic component some arc always
        // bounds the step; an unbounded θ means the dual state has
        // degenerated (numeric trouble, not a property of the input).
        let theta = theta.ok_or(SolveError::NumericRange {
            context: "Burns step is unbounded",
        })?;
        debug_assert!(Rat::ZERO.lt(theta).unwrap_or(false));
        lambda = lambda.add(theta)?;
        for v in 0..n {
            if rho[v] != 0 {
                d[v] = d[v].add(theta.mul_int(rho[v])?)?;
                counters.distance_updates += 1;
            }
        }
    }
}

/// Burns' algorithm with `f64` duals — the arithmetic the original
/// study's C++/LEDA implementation used. The step/tightness logic is
/// identical to [`solve_scc`]; slacks within `tol` of zero count as
/// tight. The returned λ is the exact rational mean of the critical
/// cycle found, so on non-adversarial inputs the result matches the
/// exact version bit for bit (differential tests enforce this); the
/// exact version remains available as `Algorithm::BurnsExact` for the
/// arithmetic-cost ablation.
pub(crate) fn solve_scc_f64(
    g: &Graph,
    counters: &mut Counters,
    scope: &mut BudgetScope,
) -> Result<SccOutcome, SolveError> {
    let n = g.num_nodes();
    let (lam0, d0) = initial_pair(g)?;
    let mut lambda = lam0.num as f64 / lam0.den as f64;
    let mut d: Vec<f64> = d0.iter().map(|r| r.num as f64 / r.den as f64).collect();
    let scale = g
        .arc_ids()
        .map(|a| g.weight(a).abs())
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let tol = scale * 1e-9;
    let cap = 4 * (n as u64) * (n as u64) + 1_000;
    let mut rounds = 0u64;
    let mut slack = vec![0f64; g.num_arcs()];
    scope.loop_metrics("core.burns.phase");
    loop {
        counters.iterations += 1;
        scope.tick_iteration_and_time()?;
        scope.chaos_check("core.burns.phase")?;
        rounds += 1;
        if rounds > cap {
            return Err(SolveError::NumericRange {
                context: "Burns (f64) exceeded its internal iteration cap",
            });
        }
        let mut tight: Vec<ArcId> = Vec::new();
        for e in g.arc_ids() {
            let u = g.source(e).index();
            let v = g.target(e).index();
            counters.relaxations += 1;
            let s = g.weight(e) as f64 - lambda * g.transit(e) as f64 + d[u] - d[v];
            if s <= tol {
                tight.push(e);
            }
            slack[e.index()] = s;
        }
        if let Some(cycle) = cycle_in_arc_subgraph(g, &tight) {
            counters.cycles_examined += 1;
            let w: i128 = cycle.iter().map(|&a| g.weight(a) as i128).sum();
            let t: i128 = cycle.iter().map(|&a| g.transit(a) as i128).sum();
            if t <= 0 {
                return Err(SolveError::ZeroTransitCycle);
            }
            let candidate = Ratio64::try_from_i128(w, t).ok_or(SolveError::Overflow {
                context: "Burns (f64) critical cycle ratio",
            })?;
            // Certify: double-precision slacks can misclassify tight
            // arcs on extreme weight scales, yielding a non-optimal
            // cycle. One exact negative-cycle test (O(nm), the cost of
            // a single Burns iteration) catches that; fall back to the
            // exact-rational variant in the rare failure case.
            if crate::bellman::has_cycle_below(g, candidate, counters)?.is_some() {
                let mut fresh = Counters::new();
                let outcome = solve_scc(g, &mut fresh, scope);
                *counters += fresh;
                return outcome;
            }
            return Ok(SccOutcome {
                lambda: candidate,
                cycle,
                guarantee: Guarantee::Exact,
                solved_by: crate::Algorithm::Burns,
            });
        }
        let rho = critical_heights(g, &tight)?;
        let mut theta = f64::INFINITY;
        for e in g.arc_ids() {
            let coeff = step_coefficient(g, &rho, e)?;
            if coeff > 0 && slack[e.index()] > tol {
                theta = theta.min(slack[e.index()] / coeff as f64);
            }
        }
        if !(theta.is_finite() && theta > 0.0) {
            return Err(SolveError::NumericRange {
                context: "Burns (f64) step collapsed — tolerance too loose for this input",
            });
        }
        lambda += theta;
        for v in 0..n {
            if rho[v] != 0 {
                d[v] += theta * rho[v] as f64;
                counters.distance_updates += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_graph::graph::from_arc_list;

    fn exact(g: &Graph, c: &mut Counters) -> SccOutcome {
        let mut scope = BudgetScope::unlimited(crate::Algorithm::BurnsExact);
        solve_scc(g, c, &mut scope).expect("unlimited")
    }

    fn fast(g: &Graph, c: &mut Counters) -> SccOutcome {
        let mut scope = BudgetScope::unlimited(crate::Algorithm::Burns);
        solve_scc_f64(g, c, &mut scope).expect("unlimited")
    }

    fn solve(g: &Graph) -> Ratio64 {
        let mut c = Counters::new();
        exact(g, &mut c).lambda
    }

    #[test]
    fn single_ring() {
        let g = from_arc_list(3, &[(0, 1, 1), (1, 2, 2), (2, 0, 4)]);
        assert_eq!(solve(&g), Ratio64::new(7, 3));
    }

    #[test]
    fn self_loop() {
        let g = from_arc_list(1, &[(0, 0, -2)]);
        assert_eq!(solve(&g), Ratio64::from(-2));
    }

    #[test]
    fn matches_brute_force() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        for seed in 0..60 {
            let g = sprand(&SprandConfig::new(10, 28).seed(seed).weight_range(-25, 25));
            let (expected, _) = crate::reference::brute_force_min_mean(&g).expect("cyclic");
            assert_eq!(solve(&g), expected, "seed {seed}");
        }
    }

    #[test]
    fn f64_variant_matches_exact_variant() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        for seed in 0..60 {
            let g = sprand(&SprandConfig::new(12, 32).seed(seed).weight_range(-100, 100));
            let mut c1 = Counters::new();
            let mut c2 = Counters::new();
            let precise = exact(&g, &mut c1);
            let quick = fast(&g, &mut c2);
            assert_eq!(quick.lambda, precise.lambda, "seed {seed}");
            assert!(crate::solution::check_cycle(&g, &quick.cycle).is_ok());
        }
    }

    #[test]
    fn f64_variant_handles_transits() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        use mcr_gen::transit::with_random_transits;
        for seed in 0..20 {
            let g0 = sprand(&SprandConfig::new(10, 25).seed(seed).weight_range(-20, 20));
            let g = with_random_transits(&g0, 1, 5, seed);
            let (expected, _) = crate::reference::brute_force_min_ratio(&g).expect("cyclic");
            let mut c = Counters::new();
            assert_eq!(fast(&g, &mut c).lambda, expected, "seed {seed}");
        }
    }

    #[test]
    fn ratio_with_transits() {
        let mut b = mcr_graph::GraphBuilder::new();
        let v = b.add_nodes(2);
        b.add_arc_with_transit(v[0], v[1], 3, 2);
        b.add_arc_with_transit(v[1], v[0], 7, 3); // ratio 2
        b.add_arc_with_transit(v[0], v[0], 9, 2); // ratio 9/2
        let g = b.build();
        assert_eq!(solve(&g), Ratio64::from(2));
    }

    #[test]
    fn ratio_with_zero_transit_arcs() {
        let mut b = mcr_graph::GraphBuilder::new();
        let v = b.add_nodes(3);
        b.add_arc_with_transit(v[0], v[1], -4, 0);
        b.add_arc_with_transit(v[1], v[2], 1, 2);
        b.add_arc_with_transit(v[2], v[0], 1, 1); // ratio -2/3
        b.add_arc_with_transit(v[0], v[0], 10, 4);
        let g = b.build();
        assert_eq!(solve(&g), Ratio64::new(-2, 3));
    }

    #[test]
    fn iteration_count_within_quadratic_bound() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        let g = sprand(&SprandConfig::new(60, 180).seed(1));
        let mut c = Counters::new();
        exact(&g, &mut c);
        // §4.3: "the number of iterations is always less than the
        // number of nodes" in practice.
        assert!(c.iterations <= 60 * 60);
    }

    #[test]
    fn witness_cycle_checks_out() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        for seed in 0..10 {
            let g = sprand(&SprandConfig::new(20, 60).seed(seed));
            let mut c = Counters::new();
            let s = exact(&g, &mut c);
            let (w, len, _) = crate::solution::check_cycle(&g, &s.cycle).expect("valid");
            assert_eq!(Ratio64::new(w, len as i64), s.lambda);
        }
    }

    #[test]
    fn zero_transit_cycle_is_an_error() {
        let mut b = mcr_graph::GraphBuilder::new();
        let v = b.add_nodes(2);
        b.add_arc_with_transit(v[0], v[1], 1, 0);
        b.add_arc_with_transit(v[1], v[0], 2, 0);
        let g = b.build();
        let mut c = Counters::new();
        let mut scope = BudgetScope::unlimited(crate::Algorithm::BurnsExact);
        let err = solve_scc(&g, &mut c, &mut scope).expect_err("ratio undefined");
        assert_eq!(err, SolveError::ZeroTransitCycle);
    }

    #[test]
    fn one_iteration_budget_exhausts_instead_of_hanging() {
        use mcr_gen::sprand::{sprand, SprandConfig};
        let g = sprand(&SprandConfig::new(12, 32).seed(3).weight_range(-40, 40));
        let budget = crate::Budget::default().max_iterations(1);
        let mut scope = BudgetScope::new(&budget, None, crate::Algorithm::BurnsExact);
        let mut c = Counters::new();
        match solve_scc(&g, &mut c, &mut scope) {
            Ok(_) => {} // a lucky instance can finish in one phase
            Err(e) => assert!(matches!(e, SolveError::BudgetExhausted { .. }), "{e}"),
        }
    }
}
