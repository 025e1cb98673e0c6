//! Arena-based Fibonacci heap (the LEDA heap stand-in).

use super::{AddressableHeap, HeapCounters};
use crate::compact::idx32;

const NIL: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Node<K> {
    key: Option<K>,
    parent: u32,
    child: u32,
    left: u32,
    right: u32,
    degree: u32,
    marked: bool,
}

impl<K> Node<K> {
    fn empty() -> Self {
        Node {
            key: None,
            parent: NIL,
            child: NIL,
            left: NIL,
            right: NIL,
            degree: 0,
            marked: false,
        }
    }
}

/// A Fibonacci heap over items `0..capacity`, the priority queue the
/// original study inherited from LEDA and used in both KO and YTO
/// ("their use in the KO algorithm was preferred to make these two
/// algorithms comparable", §4.2).
///
/// Each item doubles as its own arena slot, so all heap links are flat
/// `u32` indices with no allocation per operation. `push` and
/// `decrease_key` are `O(1)` amortized; `pop_min` is `O(log n)`
/// amortized.
///
/// ```
/// use mcr_graph::heap::{AddressableHeap, FibonacciHeap};
/// let mut h = FibonacciHeap::with_capacity(3);
/// h.push(0, 9i64);
/// h.push(1, 4);
/// h.push(2, 6);
/// h.decrease_key(0, 1);
/// assert_eq!(h.pop_min(), Some((0, 1)));
/// assert_eq!(h.pop_min(), Some((1, 4)));
/// ```
#[derive(Clone, Debug)]
pub struct FibonacciHeap<K> {
    nodes: Vec<Node<K>>,
    min: u32,
    len: usize,
    counters: HeapCounters,
    // Scratch buffers for consolidation, kept across calls so a pop
    // allocates nothing: one root per degree, sized ~log_phi(capacity)
    // + 2, and the root list being consolidated.
    degree_slots: Vec<u32>,
    roots: Vec<u32>,
}

impl<K: PartialOrd + Clone> FibonacciHeap<K> {
    #[inline]
    fn key_of(&self, i: u32) -> &K {
        self.nodes[i as usize].key.as_ref().expect("node in heap")
    }

    /// Splices node `i` (a detached singleton) into the root list.
    fn add_root(&mut self, i: u32) {
        self.nodes[i as usize].parent = NIL;
        if self.min == NIL {
            self.nodes[i as usize].left = i;
            self.nodes[i as usize].right = i;
            self.min = i;
        } else {
            let m = self.min;
            let r = self.nodes[m as usize].right;
            self.nodes[i as usize].left = m;
            self.nodes[i as usize].right = r;
            self.nodes[m as usize].right = i;
            self.nodes[r as usize].left = i;
            if self.key_of(i) < self.key_of(m) {
                self.min = i;
            }
        }
    }

    /// Unlinks node `i` from its sibling list (does not touch parent
    /// pointers or child lists).
    fn unlink(&mut self, i: u32) {
        let l = self.nodes[i as usize].left;
        let r = self.nodes[i as usize].right;
        self.nodes[l as usize].right = r;
        self.nodes[r as usize].left = l;
        self.nodes[i as usize].left = i;
        self.nodes[i as usize].right = i;
    }

    /// Makes `child` a child of `root` (both must be roots, with
    /// `child` already unlinked from the root list).
    fn link(&mut self, child: u32, root: u32) {
        self.nodes[child as usize].parent = root;
        self.nodes[child as usize].marked = false;
        let c = self.nodes[root as usize].child;
        if c == NIL {
            self.nodes[root as usize].child = child;
            self.nodes[child as usize].left = child;
            self.nodes[child as usize].right = child;
        } else {
            let r = self.nodes[c as usize].right;
            self.nodes[child as usize].left = c;
            self.nodes[child as usize].right = r;
            self.nodes[c as usize].right = child;
            self.nodes[r as usize].left = child;
        }
        self.nodes[root as usize].degree += 1;
    }

    /// Cuts `i` from its parent and moves it to the root list, then
    /// cascades up marked ancestors.
    fn cut(&mut self, i: u32) {
        let p = self.nodes[i as usize].parent;
        debug_assert_ne!(p, NIL);
        // Fix parent's child pointer.
        if self.nodes[p as usize].child == i {
            let r = self.nodes[i as usize].right;
            self.nodes[p as usize].child = if r == i { NIL } else { r };
        }
        self.unlink(i);
        self.nodes[p as usize].degree -= 1;
        self.nodes[i as usize].marked = false;
        self.add_root(i);
        // Cascading cut.
        let mut cur = p;
        while self.nodes[cur as usize].parent != NIL {
            if !self.nodes[cur as usize].marked {
                self.nodes[cur as usize].marked = true;
                break;
            }
            let next = self.nodes[cur as usize].parent;
            // Cut `cur` from `next`.
            if self.nodes[next as usize].child == cur {
                let r = self.nodes[cur as usize].right;
                self.nodes[next as usize].child = if r == cur { NIL } else { r };
            }
            self.unlink(cur);
            self.nodes[next as usize].degree -= 1;
            self.nodes[cur as usize].marked = false;
            self.add_root(cur);
            cur = next;
        }
    }

    fn consolidate(&mut self) {
        if self.min == NIL {
            return;
        }
        // Collect the current roots.
        let mut roots = std::mem::take(&mut self.roots);
        roots.clear();
        let start = self.min;
        let mut cur = start;
        loop {
            roots.push(cur);
            cur = self.nodes[cur as usize].right;
            if cur == start {
                break;
            }
        }
        self.degree_slots.fill(NIL);
        for &root in &roots {
            let mut x = root;
            self.unlink(x);
            loop {
                let d = self.nodes[x as usize].degree as usize;
                if d >= self.degree_slots.len() {
                    self.degree_slots.resize(d + 1, NIL);
                }
                let y = self.degree_slots[d];
                if y == NIL {
                    self.degree_slots[d] = x;
                    break;
                }
                self.degree_slots[d] = NIL;
                // Link the larger-keyed tree under the smaller.
                let (small, large) = if self.key_of(y) < self.key_of(x) {
                    (y, x)
                } else {
                    (x, y)
                };
                self.link(large, small);
                x = small;
            }
        }
        self.roots = roots;
        // Rebuild the root list from the slots, in degree order.
        self.min = NIL;
        for d in 0..self.degree_slots.len() {
            let s = self.degree_slots[d];
            if s != NIL {
                self.add_root(s);
            }
        }
    }
}

impl<K: PartialOrd + Clone> AddressableHeap<K> for FibonacciHeap<K> {
    fn with_capacity(capacity: usize) -> Self {
        let log_cap = (usize::BITS - capacity.max(1).leading_zeros()) as usize;
        FibonacciHeap {
            nodes: (0..capacity).map(|_| Node::empty()).collect(),
            min: NIL,
            len: 0,
            counters: HeapCounters::default(),
            degree_slots: vec![NIL; 2 * log_cap + 4],
            roots: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn contains(&self, item: usize) -> bool {
        item < self.nodes.len() && self.nodes[item].key.is_some()
    }

    fn key(&self, item: usize) -> Option<&K> {
        self.nodes.get(item).and_then(|n| n.key.as_ref())
    }

    fn push(&mut self, item: usize, key: K) {
        assert!(item < self.nodes.len(), "item out of capacity");
        assert!(!self.contains(item), "item already in heap");
        self.counters.inserts += 1;
        let node = &mut self.nodes[item];
        *node = Node::empty();
        node.key = Some(key);
        self.add_root(idx32(item));
        self.len += 1;
    }

    fn decrease_key(&mut self, item: usize, key: K) {
        assert!(self.contains(item), "decrease_key on absent item");
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // keys are never NaN here
        let not_increasing = !(*self.key_of(idx32(item)) < key);
        assert!(not_increasing, "decrease_key must not increase the key");
        self.counters.decrease_keys += 1;
        self.nodes[item].key = Some(key);
        let i = idx32(item);
        let p = self.nodes[item].parent;
        if p != NIL && self.key_of(i) < self.key_of(p) {
            self.cut(i);
        } else if p == NIL && self.key_of(i) < self.key_of(self.min) {
            self.min = i;
        }
    }

    fn pop_min(&mut self) -> Option<(usize, K)> {
        if self.min == NIL {
            return None;
        }
        crate::chaos::pulse("graph.heap.fib.pop");
        self.counters.delete_mins += 1;
        let z = self.min;
        // Move z's children to the root list.
        let mut c = self.nodes[z as usize].child;
        while c != NIL {
            let next = self.nodes[c as usize].right;
            let last = next == c;
            self.unlink(c);
            self.nodes[c as usize].parent = NIL;
            // Temporarily splice next to z's left? Simpler: collect below.
            self.add_root(c);
            c = if last { NIL } else { next };
        }
        self.nodes[z as usize].child = NIL;
        self.nodes[z as usize].degree = 0;
        // Remove z from the root list.
        let right = self.nodes[z as usize].right;
        self.unlink(z);
        self.min = if right == z { NIL } else { right };
        let key = self.nodes[z as usize].key.take().expect("min in heap");
        self.len -= 1;
        self.consolidate();
        Some((z as usize, key))
    }

    fn remove(&mut self, item: usize) -> Option<K> {
        if !self.contains(item) {
            return None;
        }
        self.counters.removals += 1;
        let i = idx32(item);
        if self.nodes[item].parent != NIL {
            self.cut(i);
        }
        // i is now a root. Move its children up and unlink it.
        let mut c = self.nodes[item].child;
        while c != NIL {
            let next = self.nodes[c as usize].right;
            let last = next == c;
            self.unlink(c);
            self.nodes[c as usize].parent = NIL;
            self.add_root(c);
            c = if last { NIL } else { next };
        }
        self.nodes[item].child = NIL;
        self.nodes[item].degree = 0;
        let right = self.nodes[item].right;
        self.unlink(i);
        let key = self.nodes[item].key.take().expect("node in heap");
        self.len -= 1;
        if self.min == i {
            // Scan the remaining roots for the new minimum.
            self.min = if right == i { NIL } else { right };
            if self.min != NIL {
                let start = self.min;
                let mut cur = self.nodes[start as usize].right;
                while cur != start {
                    if self.key_of(cur) < self.key_of(self.min) {
                        self.min = cur;
                    }
                    cur = self.nodes[cur as usize].right;
                }
            }
        }
        Some(key)
    }

    fn counters(&self) -> HeapCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_min_is_sorted() {
        let n = 500;
        let mut h = FibonacciHeap::with_capacity(n);
        // Insert keys in a scrambled order.
        for i in 0..n {
            h.push(i, ((i * 7919) % n) as i64);
        }
        let mut last = i64::MIN;
        let mut count = 0;
        while let Some((_, k)) = h.pop_min() {
            assert!(k >= last);
            last = k;
            count += 1;
        }
        assert_eq!(count, n);
    }

    #[test]
    fn decrease_key_reorders() {
        let mut h = FibonacciHeap::with_capacity(10);
        for i in 0..10 {
            h.push(i, 100 + i as i64);
        }
        // Force tree structure via a pop.
        assert_eq!(h.pop_min(), Some((0, 100)));
        h.decrease_key(9, -5);
        h.decrease_key(5, -3);
        assert_eq!(h.pop_min(), Some((9, -5)));
        assert_eq!(h.pop_min(), Some((5, -3)));
        assert_eq!(h.pop_min(), Some((1, 101)));
    }

    #[test]
    fn remove_root_and_internal() {
        let mut h = FibonacciHeap::with_capacity(16);
        for i in 0..16 {
            h.push(i, i as i64);
        }
        assert_eq!(h.pop_min(), Some((0, 0))); // consolidates into trees
        assert_eq!(h.remove(1), Some(1)); // removes the min root
        assert_eq!(h.remove(9), Some(9)); // removes an internal node
        assert_eq!(h.pop_min(), Some((2, 2)));
        assert_eq!(h.len(), 12);
    }

    #[test]
    fn reinsert_after_pop() {
        let mut h = FibonacciHeap::with_capacity(4);
        h.push(0, 5i64);
        assert_eq!(h.pop_min(), Some((0, 5)));
        h.push(0, 3);
        assert_eq!(h.key(0), Some(&3));
        assert_eq!(h.pop_min(), Some((0, 3)));
    }

    #[test]
    fn cascading_cuts_preserve_order() {
        // Build a deep-ish structure and hammer decrease_key.
        let n = 64;
        let mut h = FibonacciHeap::with_capacity(n);
        for i in 0..n {
            h.push(i, 1000 + i as i64);
        }
        h.pop_min();
        for i in (8..n).rev() {
            h.decrease_key(i, -(i as i64));
        }
        let mut last = i64::MIN;
        while let Some((_, k)) = h.pop_min() {
            assert!(k >= last);
            last = k;
        }
    }
}
