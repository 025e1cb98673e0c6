//! Addressable priority queues used by the parametric shortest path
//! algorithms (KO, YTO).
//!
//! The original study used LEDA's Fibonacci heap ("the default heap data
//! structure in LEDA", §4.2). [`FibonacciHeap`] reproduces it;
//! [`IndexedBinaryHeap`] is a d=2 indexed heap provided for ablation
//! benchmarks. Both count their operations so the paper's
//! heap-operation comparison (insertions, decrease-keys, delete-mins)
//! can be regenerated.
//!
//! Items are dense indices `0..capacity` (node ids), each present at
//! most once — the "one key per node" usage pattern of the parametric
//! algorithms.

mod binary;
mod fibonacci;

pub use binary::IndexedBinaryHeap;
pub use fibonacci::FibonacciHeap;

/// Operation counts accumulated by a heap over its lifetime.
///
/// These are the "representative operation counts" advocated by Ahuja,
/// Magnanti and Orlin that the paper reports for KO vs YTO.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapCounters {
    /// Number of `push` operations.
    pub inserts: u64,
    /// Number of `decrease_key` operations.
    pub decrease_keys: u64,
    /// Number of `pop_min` operations that returned an item.
    pub delete_mins: u64,
    /// Number of `remove` operations that removed an item.
    pub removals: u64,
}

impl HeapCounters {
    /// Total number of counted operations.
    pub fn total(&self) -> u64 {
        self.inserts + self.decrease_keys + self.delete_mins + self.removals
    }

    /// Accumulates `other` into `self` with saturating addition, so
    /// merging per-thread counters can never wrap even on pathological
    /// totals. Saturating addition is commutative and associative,
    /// making the merged totals independent of merge order — the
    /// property the parallel solver driver relies on for deterministic
    /// instrumentation.
    pub fn merge(&mut self, other: &HeapCounters) {
        self.inserts = self.inserts.saturating_add(other.inserts);
        self.decrease_keys = self.decrease_keys.saturating_add(other.decrease_keys);
        self.delete_mins = self.delete_mins.saturating_add(other.delete_mins);
        self.removals = self.removals.saturating_add(other.removals);
    }
}

impl std::ops::Add for HeapCounters {
    type Output = HeapCounters;
    fn add(self, rhs: HeapCounters) -> HeapCounters {
        HeapCounters {
            inserts: self.inserts + rhs.inserts,
            decrease_keys: self.decrease_keys + rhs.decrease_keys,
            delete_mins: self.delete_mins + rhs.delete_mins,
            removals: self.removals + rhs.removals,
        }
    }
}

impl std::ops::AddAssign for HeapCounters {
    fn add_assign(&mut self, rhs: HeapCounters) {
        *self = *self + rhs;
    }
}

/// A min-priority queue over items `0..capacity` with addressable
/// decrease-key and removal.
///
/// Implementations must order by `K`'s `PartialOrd`; keys are never NaN
/// in this crate's usage (rational or integer keys), so a total order is
/// assumed in practice.
pub trait AddressableHeap<K: PartialOrd + Clone> {
    /// Creates an empty heap able to hold items `0..capacity`.
    fn with_capacity(capacity: usize) -> Self;

    /// Number of items currently in the heap.
    fn len(&self) -> usize;

    /// Whether the heap is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `item` is currently in the heap.
    fn contains(&self, item: usize) -> bool;

    /// Current key of `item`, if present.
    fn key(&self, item: usize) -> Option<&K>;

    /// Inserts `item` with `key`.
    ///
    /// # Panics
    ///
    /// Panics if `item` is already present or out of capacity.
    fn push(&mut self, item: usize, key: K);

    /// Lowers the key of `item` to `key`.
    ///
    /// # Panics
    ///
    /// Panics if `item` is absent or `key` is greater than the current
    /// key.
    fn decrease_key(&mut self, item: usize, key: K);

    /// Removes and returns the item with the minimum key.
    fn pop_min(&mut self) -> Option<(usize, K)>;

    /// Removes `item` if present, returning its key.
    fn remove(&mut self, item: usize) -> Option<K>;

    /// Replaces the key of `item` regardless of direction; inserts the
    /// item if absent. Implemented via decrease-key when the key drops,
    /// and remove + push when it rises.
    fn update_key(&mut self, item: usize, key: K) {
        match self.key(item) {
            None => self.push(item, key),
            Some(current) => {
                if key < *current {
                    self.decrease_key(item, key);
                } else if *current < key {
                    self.remove(item);
                    self.push(item, key);
                }
            }
        }
    }

    /// Operation counters accumulated so far.
    fn counters(&self) -> HeapCounters;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn exercise_basic<H: AddressableHeap<i64>>() {
        let mut h = H::with_capacity(8);
        assert!(h.is_empty());
        assert_eq!(h.pop_min(), None);
        h.push(3, 30);
        h.push(1, 10);
        h.push(5, 50);
        assert_eq!(h.len(), 3);
        assert!(h.contains(3));
        assert!(!h.contains(0));
        assert_eq!(h.key(5), Some(&50));
        assert_eq!(h.pop_min(), Some((1, 10)));
        h.decrease_key(5, 5);
        assert_eq!(h.pop_min(), Some((5, 5)));
        assert_eq!(h.pop_min(), Some((3, 30)));
        assert!(h.is_empty());
        let c = h.counters();
        assert_eq!(c.inserts, 3);
        assert_eq!(c.decrease_keys, 1);
        assert_eq!(c.delete_mins, 3);
    }

    fn exercise_remove_and_update<H: AddressableHeap<i64>>() {
        let mut h = H::with_capacity(8);
        for i in 0..8 {
            h.push(i, (i as i64) * 10);
        }
        assert_eq!(h.remove(4), Some(40));
        assert_eq!(h.remove(4), None);
        assert_eq!(h.len(), 7);
        h.update_key(7, -1); // decrease path
        h.update_key(0, 100); // increase path (remove + reinsert)
        h.update_key(4, 35); // absent -> insert
        let mut order = Vec::new();
        while let Some((i, _)) = h.pop_min() {
            order.push(i);
        }
        assert_eq!(order, vec![7, 1, 2, 3, 4, 5, 6, 0]);
    }

    fn exercise_randomized<H: AddressableHeap<i64>>(seed: u64) {
        // Differential test against a sorted-vec model.
        let n = 200;
        let mut h = H::with_capacity(n);
        let mut model: Vec<Option<i64>> = vec![None; n];
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..5000 {
            let item = rng.gen_range(0..n);
            match rng.gen_range(0..4) {
                0 => {
                    if model[item].is_none() {
                        let k = rng.gen_range(-1000..1000);
                        h.push(item, k);
                        model[item] = Some(k);
                    }
                }
                1 => {
                    if let Some(cur) = model[item] {
                        let k = cur - rng.gen_range(0..100);
                        h.decrease_key(item, k);
                        model[item] = Some(k);
                    }
                }
                2 => {
                    let expected = model
                        .iter()
                        .enumerate()
                        .filter_map(|(i, k)| k.map(|k| (k, i)))
                        .min();
                    match h.pop_min() {
                        None => assert!(expected.is_none()),
                        Some((i, k)) => {
                            let (mk, _) = expected.expect("model not empty");
                            assert_eq!(k, mk, "popped key must be the minimum");
                            assert_eq!(model[i], Some(k));
                            model[i] = None;
                        }
                    }
                }
                _ => {
                    let got = h.remove(item);
                    assert_eq!(got, model[item]);
                    model[item] = None;
                }
            }
            assert_eq!(h.len(), model.iter().filter(|k| k.is_some()).count());
        }
    }

    #[test]
    fn fibonacci_basic() {
        exercise_basic::<FibonacciHeap<i64>>();
    }

    #[test]
    fn binary_basic() {
        exercise_basic::<IndexedBinaryHeap<i64>>();
    }

    #[test]
    fn fibonacci_remove_update() {
        exercise_remove_and_update::<FibonacciHeap<i64>>();
    }

    #[test]
    fn binary_remove_update() {
        exercise_remove_and_update::<IndexedBinaryHeap<i64>>();
    }

    #[test]
    fn fibonacci_randomized() {
        for seed in 0..5 {
            exercise_randomized::<FibonacciHeap<i64>>(seed);
        }
    }

    #[test]
    fn binary_randomized() {
        for seed in 0..5 {
            exercise_randomized::<IndexedBinaryHeap<i64>>(seed);
        }
    }

    #[test]
    fn counters_add() {
        let a = HeapCounters {
            inserts: 1,
            decrease_keys: 2,
            delete_mins: 3,
            removals: 4,
        };
        let b = a + a;
        assert_eq!(b.inserts, 2);
        assert_eq!(b.total(), 20);
    }
}
