//! Solver results: the optimum value, a witness cycle, and the
//! optimality guarantee.

use crate::algorithms::Algorithm;
use crate::instrument::Counters;
use crate::rational::Ratio64;
use mcr_graph::{ArcId, GraphRef, NodeId};

/// What a solver promises about the [`Solution::lambda`] it returned.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Guarantee {
    /// `lambda` is exactly the optimum cycle mean/ratio.
    Exact,
    /// `lambda` is the exact mean/ratio of the returned witness cycle,
    /// and the optimum lies within `eps` of it (approximate algorithms:
    /// Lawler, OA1, Howard with coarse precision).
    Epsilon(f64),
}

impl Guarantee {
    /// Whether the result is certified optimal.
    pub fn is_exact(self) -> bool {
        matches!(self, Guarantee::Exact)
    }
}

/// The result of a minimum cycle mean / cycle ratio computation.
///
/// `lambda` is always the *exact* rational mean (or ratio) of the
/// witness `cycle`; for approximate algorithms the optimum may be up to
/// the guarantee's epsilon below it.
#[derive(Clone, Debug)]
pub struct Solution {
    /// The optimum (or near-optimum) cycle mean or cost-to-time ratio.
    pub lambda: Ratio64,
    /// A witness cycle achieving `lambda`, as a sequence of arc ids of
    /// the original input graph, in traversal order (the target of each
    /// arc is the source of the next, cyclically).
    pub cycle: Vec<ArcId>,
    /// Optimality guarantee.
    pub guarantee: Guarantee,
    /// The algorithm that actually produced this result. Normally the
    /// one the caller asked for; under graceful degradation
    /// ([`crate::FallbackChain`]) it records which member of the chain
    /// answered for the winning component.
    pub solved_by: Algorithm,
    /// Operation counts accumulated while solving.
    pub counters: Counters,
}

impl Solution {
    /// The nodes of the witness cycle, in traversal order (one per arc).
    pub fn cycle_nodes<'g>(&self, g: impl Into<GraphRef<'g>>) -> Vec<NodeId> {
        let g = g.into();
        self.cycle.iter().map(|&a| g.source(a)).collect()
    }

    /// Recomputes the mean (weight over length) of the witness cycle.
    ///
    /// # Panics
    ///
    /// Panics on a malformed witness (empty cycle, or a mean whose
    /// reduced form no longer fits `i64/i64`) — impossible for
    /// solutions produced by this crate. Use [`Solution::try_cycle_mean`]
    /// for untrusted data.
    pub fn cycle_mean<'g>(&self, g: impl Into<GraphRef<'g>>) -> Ratio64 {
        // lint: allow(panic) reason=documented panicking convenience API; try_cycle_mean is the fallible form
        self.try_cycle_mean(g).expect("well-formed witness cycle")
    }

    /// Fallible [`Solution::cycle_mean`]: the accumulation is exact in
    /// `i128`, so this is `None` only for an empty cycle or a value
    /// outside `i64/i64`.
    pub fn try_cycle_mean<'g>(&self, g: impl Into<GraphRef<'g>>) -> Option<Ratio64> {
        let (w, _) = cycle_totals(g, &self.cycle);
        Ratio64::try_from_i128(w, self.cycle.len() as i128)
    }

    /// Recomputes the cost-to-time ratio (weight over transit time) of
    /// the witness cycle.
    ///
    /// # Panics
    ///
    /// Panics if the cycle's total transit time is zero. Use
    /// [`Solution::try_cycle_ratio`] for untrusted data.
    pub fn cycle_ratio<'g>(&self, g: impl Into<GraphRef<'g>>) -> Ratio64 {
        let g = g.into();
        let (_, t) = cycle_totals(g, &self.cycle);
        assert!(t > 0, "witness cycle has zero transit time");
        // lint: allow(panic) reason=documented panicking convenience API; try_cycle_ratio is the fallible form
        self.try_cycle_ratio(g).expect("well-formed witness cycle")
    }

    /// Fallible [`Solution::cycle_ratio`]: `None` if the cycle's total
    /// transit time is not positive or the reduced ratio does not fit
    /// `i64/i64`.
    pub fn try_cycle_ratio<'g>(&self, g: impl Into<GraphRef<'g>>) -> Option<Ratio64> {
        let (w, t) = cycle_totals(g, &self.cycle);
        if t <= 0 {
            return None;
        }
        Ratio64::try_from_i128(w, t)
    }
}

/// Exact total weight and transit time of `cycle`, accumulated in
/// `i128` (a sum of at most `usize::MAX` `i64` terms cannot overflow
/// `i128`, so this never wraps — the fallibility of downstream
/// consumers is confined to fitting the *reduced ratio* back into
/// [`Ratio64`]).
pub fn cycle_totals<'g>(g: impl Into<GraphRef<'g>>, cycle: &[ArcId]) -> (i128, i128) {
    let g = g.into();
    let mut weight = 0i128;
    let mut transit = 0i128;
    for &a in cycle {
        weight += g.weight(a) as i128;
        transit += g.transit(a) as i128;
    }
    (weight, transit)
}

/// Whether `cycle` is nonempty and closed: each arc's target is the next
/// arc's source, wrapping around. Unlike [`check_cycle`] it accepts a
/// cycle whose weight sum leaves `i64`, which an exact answer may have
/// (its mean `w / len` can still fit).
pub(crate) fn is_closed_walk(g: GraphRef<'_>, cycle: &[ArcId]) -> bool {
    let next = cycle.iter().cycle().skip(1);
    !cycle.is_empty() && cycle.iter().zip(next).all(|(&a, &b)| g.target(a) == g.source(b))
}

/// Checks that `cycle` is a well-formed cycle in `g`: nonempty, each
/// arc's target is the next arc's source, and the last arc returns to
/// the first arc's source. Returns its `(weight, length, transit)`.
///
/// Used by tests and debug assertions throughout the crate.
pub fn check_cycle<'g>(
    g: impl Into<GraphRef<'g>>,
    cycle: &[ArcId],
) -> Result<(i64, usize, i64), String> {
    let g = g.into();
    if cycle.is_empty() {
        return Err("empty cycle".into());
    }
    let mut weight = 0i64;
    let mut transit = 0i64;
    for (i, &a) in cycle.iter().enumerate() {
        let next = cycle[(i + 1) % cycle.len()];
        if g.target(a) != g.source(next) {
            return Err(format!(
                "arc {a:?} ends at {:?} but next arc {next:?} starts at {:?}",
                g.target(a),
                g.source(next)
            ));
        }
        weight = weight
            .checked_add(g.weight(a))
            .ok_or_else(|| format!("cycle weight overflows i64 at arc {a:?}"))?;
        transit = transit
            .checked_add(g.transit(a))
            .ok_or_else(|| format!("cycle transit overflows i64 at arc {a:?}"))?;
    }
    Ok((weight, cycle.len(), transit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_graph::graph::from_arc_list;

    #[test]
    fn check_cycle_accepts_valid() {
        let g = from_arc_list(3, &[(0, 1, 2), (1, 2, 3), (2, 0, 4)]);
        let cycle: Vec<ArcId> = g.arc_ids().collect();
        let (w, len, t) = check_cycle(&g, &cycle).expect("valid cycle");
        assert_eq!((w, len, t), (9, 3, 3));
    }

    #[test]
    fn check_cycle_rejects_broken() {
        let g = from_arc_list(3, &[(0, 1, 2), (1, 2, 3), (2, 0, 4)]);
        let bad = vec![ArcId::new(0), ArcId::new(2)];
        assert!(check_cycle(&g, &bad).is_err());
        assert!(check_cycle(&g, &[]).is_err());
    }

    #[test]
    fn solution_helpers() {
        let g = from_arc_list(2, &[(0, 1, 3), (1, 0, 5)]);
        let s = Solution {
            lambda: Ratio64::new(4, 1),
            cycle: g.arc_ids().collect(),
            guarantee: Guarantee::Exact,
            solved_by: Algorithm::HowardExact,
            counters: Counters::new(),
        };
        assert_eq!(s.cycle_mean(&g), Ratio64::from(4));
        assert_eq!(s.cycle_ratio(&g), Ratio64::from(4));
        assert_eq!(s.cycle_nodes(&g), vec![NodeId::new(0), NodeId::new(1)]);
        assert!(s.guarantee.is_exact());
        assert!(!Guarantee::Epsilon(0.5).is_exact());
        assert_eq!(s.solved_by, Algorithm::HowardExact);
    }

    #[test]
    fn check_cycle_reports_overflow_instead_of_wrapping() {
        let g = from_arc_list(2, &[(0, 1, i64::MAX), (1, 0, i64::MAX)]);
        let cycle: Vec<ArcId> = g.arc_ids().collect();
        let err = check_cycle(&g, &cycle).expect_err("sum overflows i64");
        assert!(err.contains("overflows"), "{err}");
        // The exact i128 totals are still available.
        let (w, t) = cycle_totals(&g, &cycle);
        assert_eq!(w, 2 * i64::MAX as i128);
        assert_eq!(t, 2);
    }
}
