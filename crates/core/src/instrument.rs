//! Operation-count instrumentation.
//!
//! The original study measured "representative operation counts, as
//! advocated in [Ahuja–Kodialam–Mishra–Orlin]" alongside wall-clock
//! time. Every algorithm in this crate fills a [`Counters`] so that the
//! paper's §4.2–§4.4 comparisons (heap operations, iteration counts,
//! arcs visited by the Karp family) can be regenerated.

use mcr_graph::heap::HeapCounters;

/// Operation counts accumulated by one solver run.
///
/// Not every field is meaningful for every algorithm — the paper
/// likewise "compared only the relevant ones because all the algorithms
/// do not have the same kind of operations" (§3). Unused fields stay
/// zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Main-loop iterations (Burns, KO, YTO, Howard) or, for the HO
    /// algorithm, the level `k` reached at termination.
    pub iterations: u64,
    /// Arc relaxation tests (distance comparisons over arcs).
    pub relaxations: u64,
    /// Distance (or key) updates that actually changed a value.
    pub distance_updates: u64,
    /// Arcs visited while unfolding the Karp recurrence (Karp, Karp2,
    /// DG, HO) — the §4.4 metric.
    pub arcs_visited: u64,
    /// Cycles examined (policy cycles for Howard, path cycles for HO,
    /// witness cycles for Lawler/OA1 oracles).
    pub cycles_examined: u64,
    /// Negative-cycle oracle invocations (Lawler, OA1).
    pub oracle_calls: u64,
    /// Heap operations (KO, YTO).
    pub heap: HeapCounters,
}

impl Counters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates `other` into `self` with saturating addition.
    ///
    /// This is the merge the parallel per-SCC driver uses to combine
    /// per-thread counters: saturating `u64` addition is commutative and
    /// associative (both sides clamp to `min(Σ, u64::MAX)`), so the
    /// merged totals are independent of which worker solved which
    /// component and of the merge order — solving with 1 or N threads
    /// yields identical instrumentation. The zero counter is the
    /// identity.
    pub fn merge(&mut self, other: &Counters) {
        self.iterations = self.iterations.saturating_add(other.iterations);
        self.relaxations = self.relaxations.saturating_add(other.relaxations);
        self.distance_updates = self.distance_updates.saturating_add(other.distance_updates);
        self.arcs_visited = self.arcs_visited.saturating_add(other.arcs_visited);
        self.cycles_examined = self.cycles_examined.saturating_add(other.cycles_examined);
        self.oracle_calls = self.oracle_calls.saturating_add(other.oracle_calls);
        self.heap.merge(&other.heap);
    }
}

impl std::ops::Add for Counters {
    type Output = Counters;
    fn add(self, rhs: Counters) -> Counters {
        Counters {
            iterations: self.iterations + rhs.iterations,
            relaxations: self.relaxations + rhs.relaxations,
            distance_updates: self.distance_updates + rhs.distance_updates,
            arcs_visited: self.arcs_visited + rhs.arcs_visited,
            cycles_examined: self.cycles_examined + rhs.cycles_examined,
            oracle_calls: self.oracle_calls + rhs.oracle_calls,
            heap: self.heap + rhs.heap,
        }
    }
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, rhs: Counters) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_all_fields() {
        let mut a = Counters::new();
        a.iterations = 1;
        a.relaxations = 2;
        a.distance_updates = 3;
        a.arcs_visited = 4;
        a.cycles_examined = 5;
        a.oracle_calls = 6;
        a.heap.inserts = 7;
        let b = a + a;
        assert_eq!(b.iterations, 2);
        assert_eq!(b.relaxations, 4);
        assert_eq!(b.distance_updates, 6);
        assert_eq!(b.arcs_visited, 8);
        assert_eq!(b.cycles_examined, 10);
        assert_eq!(b.oracle_calls, 12);
        assert_eq!(b.heap.inserts, 14);
        let mut c = a;
        c += a;
        assert_eq!(c, b);
    }

    #[test]
    fn merge_matches_add_without_saturation() {
        let mut a = Counters::new();
        a.iterations = 3;
        a.relaxations = 5;
        a.heap.decrease_keys = 11;
        let mut b = Counters::new();
        b.iterations = 10;
        b.oracle_calls = 2;
        b.heap.decrease_keys = 4;
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged, a + b);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = Counters::new();
        a.relaxations = u64::MAX - 1;
        a.heap.inserts = u64::MAX;
        let mut b = Counters::new();
        b.relaxations = 5;
        b.heap.inserts = 1;
        a.merge(&b);
        assert_eq!(a.relaxations, u64::MAX);
        assert_eq!(a.heap.inserts, u64::MAX);
    }

    #[test]
    fn merge_identity_and_order_independence() {
        let zero = Counters::new();
        let mut a = Counters::new();
        a.iterations = 7;
        a.cycles_examined = 3;
        let mut with_zero = a;
        with_zero.merge(&zero);
        assert_eq!(with_zero, a, "zero counter is the merge identity");

        let mut b = Counters::new();
        b.iterations = u64::MAX - 3; // saturates in one order, same total in both
        b.distance_updates = 9;
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative even when saturating");
    }
}
