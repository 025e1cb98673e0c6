//! Reusable scratch workspaces for the per-SCC solvers.
//!
//! The hot loops of Howard's algorithm, the Bellman–Ford oracle and the
//! critical-cycle extraction would otherwise allocate afresh on every
//! iteration or oracle call (policy, distance and scan arrays; distance,
//! parent and cost vectors; the tight-arc adjacency). A [`Workspace`]
//! owns all of that scratch state once per solving thread: buffers grow
//! to the largest component seen and are then reused, so steady-state
//! solving performs no heap allocation beyond the returned witness
//! cycles.
//!
//! Howard keeps `succ[v]`, the target of `v`'s policy arc, beside the
//! policy, and its policy-cycle scan records the visit order of its
//! walks (`PolicyCycleScratch`). Value determination is then one
//! sweep over those walks, with an `INF` sentinel for nodes outside the
//! basin, so Howard needs no marks, queue or reverse adjacency.
//!
//! Two techniques keep the reuse cheap *and* bit-identical elsewhere:
//!
//! * **Epoch-stamped marks** (`Marks`): a "visited/settled" flag is a
//!   `u32` stamp compared against the current epoch, so clearing a mark
//!   array is a single counter increment instead of an `O(n)` fill.
//! * **Flat CSR adjacency** (`RevCsr`): the critical-cycle DFS's
//!   tight-arc adjacency and KO/YTO's in-arc index are rebuilt per call
//!   by counting sort into one flat array. Items are placed in
//!   increasing insertion order, which is exactly the push order of the
//!   `Vec<Vec<u32>>` it replaces — traversal order, and therefore every
//!   downstream tie-break, is unchanged.

use crate::obs::Recorder;
use mcr_graph::ArcId;

/// Epoch-stamped mark array: `mark[v] == epoch` means "set in the
/// current epoch". [`Marks::next_pair`] starts a new epoch in `O(1)`
/// (amortized — the array is zeroed only on `u32` wrap-around).
#[derive(Clone, Debug, Default)]
pub(crate) struct Marks {
    pub(crate) mark: Vec<u32>,
    epoch: u32,
}

impl Marks {
    /// Starts a new epoch over `n` slots and reserves two consecutive
    /// stamps (`(e, e + 1)`), for tri-state marking (unseen / first /
    /// second); no slot carries either stamp in a fresh epoch.
    pub(crate) fn next_pair(&mut self, n: usize) -> (u32, u32) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        if self.epoch >= u32::MAX - 2 {
            // Wrap-around: stale stamps could collide, so pay one full
            // clear (once per ~2 billion epochs).
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 2;
        (self.epoch - 1, self.epoch)
    }
}

/// Flat CSR (compressed sparse row) adjacency rebuilt in place: list `x`
/// is `flat[start[x]..start[x + 1]]`. Entries are placed by counting
/// sort in increasing insertion order, matching the push order of the
/// per-list `Vec<Vec<u32>>` representation it replaces.
#[derive(Clone, Debug, Default)]
pub(crate) struct RevCsr {
    pub(crate) start: Vec<u32>,
    pub(crate) flat: Vec<u32>,
    cursor: Vec<u32>,
}

impl RevCsr {
    /// Rebuilds the CSR from `(list, item)` pairs produced by `pairs`
    /// (invoked twice — it must be cheap and deterministic). `lists` is
    /// the number of lists.
    pub(crate) fn build(&mut self, lists: usize, pairs: impl Fn(&mut dyn FnMut(u32, u32)) + Copy) {
        self.start.clear();
        self.start.resize(lists + 1, 0);
        let mut total = 0u32;
        pairs(&mut |list, _item| {
            self.start[list as usize + 1] += 1;
            total += 1;
        });
        for i in 0..lists {
            self.start[i + 1] += self.start[i];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.start[..lists]);
        self.flat.clear();
        self.flat.resize(total as usize, 0);
        pairs(&mut |list, item| {
            let c = &mut self.cursor[list as usize];
            self.flat[*c as usize] = item;
            *c += 1;
        });
    }

    /// The items of list `x`, in insertion order.
    #[inline]
    pub(crate) fn list(&self, x: usize) -> &[u32] {
        &self.flat[self.start[x] as usize..self.start[x + 1] as usize]
    }
}

/// Scratch buffers for the policy-cycle scan of Howard's algorithm.
#[derive(Clone, Debug, Default)]
pub(crate) struct PolicyCycleScratch {
    /// Per node, the 1-based id of the walk that visited it first.
    pub(crate) visited_by: Vec<u32>,
    /// Every node, in the order the scan's walks visited them.
    pub(crate) order: Vec<u32>,
    /// Per walk, the end of its nodes in `order` (each walk starts
    /// where the previous one ended).
    pub(crate) walk_end: Vec<u32>,
    /// Per walk, the id of the walk that closed the cycle it drains
    /// into.
    pub(crate) walk_cycle: Vec<u32>,
    /// The id of the walk that closed the best cycle.
    pub(crate) best_walk: u32,
    /// The minimum-ratio policy cycle found by the latest scan.
    pub(crate) best_cycle: Vec<ArcId>,
}

/// Scratch buffers for the Bellman–Ford negative-cycle oracle.
#[derive(Clone, Debug, Default)]
pub(crate) struct BellmanScratch {
    /// Scaled arc costs of `G_λ` (input to the oracle).
    pub(crate) cost: Vec<i128>,
    /// Shifted costs used by the non-strict (≤ 0) cycle test.
    pub(crate) cost_shifted: Vec<i128>,
    pub(crate) dist: Vec<i128>,
    pub(crate) parent: Vec<u32>,
    /// The negative cycle found by the latest failed feasibility check.
    pub(crate) cycle: Vec<ArcId>,
}

/// Scratch buffers for the critical-subgraph DFS.
#[derive(Clone, Debug, Default)]
pub(crate) struct DfsScratch {
    /// `(node, next out-index)` call stack.
    pub(crate) stack: Vec<(u32, u32)>,
    /// Arcs of the current DFS path.
    pub(crate) arc_stack: Vec<u32>,
    /// Position of each gray node's incoming arc on `arc_stack`.
    pub(crate) pos: Vec<u32>,
}

/// Per-thread scratch state threaded through every SCC solver by the
/// driver. Create one per worker (or one for a whole sequential run)
/// and reuse it across components; see the module docs for what it
/// buys and why results stay bit-identical.
///
/// `Workspace::new()` allocates nothing — buffers grow on first use.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Howard: current policy (one out-arc per node).
    pub(crate) policy: Vec<ArcId>,
    /// Howard: `succ[v]` is the target of `policy[v]`, kept in step
    /// with it so the policy-cycle scan chases one array.
    pub(crate) succ: Vec<u32>,
    /// Howard (fig. 1): `f64` node distances, persisted across
    /// iterations.
    pub(crate) dist_f64: Vec<f64>,
    /// Howard (exact): the latest round's scaled-integer node distances
    /// when it ran in `i64`; empty when it ran in `i128`. After a solve
    /// they are the final round's dual potentials.
    pub(crate) dist_i64: Vec<i64>,
    /// Howard (exact): the same, when the latest round ran in `i128`.
    pub(crate) dist_i128: Vec<i128>,
    pub(crate) cycles: PolicyCycleScratch,
    /// Tight-arc adjacency of the critical-cycle extraction, and the
    /// in-arc index of a KO/YTO solve.
    pub(crate) rev: RevCsr,
    pub(crate) marks: Marks,
    pub(crate) bf: BellmanScratch,
    pub(crate) dfs: DfsScratch,
    /// Set between [`Workspace::begin_use`] and [`Workspace::end_use`].
    /// A workspace still poisoned at the *next* `begin_use` was
    /// abandoned mid-solve (budget abort, error unwind) and is reset to
    /// a pristine state before reuse, so no half-updated policy or
    /// distance state can leak into the next SCC job.
    poisoned: bool,
}

impl Workspace {
    /// A fresh workspace. No allocation happens until first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the workspace as in use by one SCC solve attempt. If the
    /// previous attempt never called [`Workspace::end_use`] (it errored
    /// or was cancelled partway), the scratch state is discarded via
    /// [`Workspace::reset`] first — a fresh workspace is bit-identical
    /// to a cleanly-reused one, so determinism is preserved at the cost
    /// of re-growing the buffers once.
    pub(crate) fn begin_use(&mut self, recorder: Option<&Recorder>) {
        if self.poisoned {
            self.reset(recorder);
        }
        self.poisoned = true;
    }

    /// Marks the current solve attempt as cleanly completed; the
    /// scratch state is safe to reuse as-is.
    pub(crate) fn end_use(&mut self) {
        self.poisoned = false;
    }

    /// Whether the workspace holds state from an attempt that did not
    /// complete cleanly (no `end_use` after the last `begin_use`).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Discards all scratch state, returning the workspace to its
    /// freshly-constructed (unpoisoned, empty) state. A chaos fault at
    /// the reset site goes to `recorder`.
    pub(crate) fn reset(&mut self, recorder: Option<&Recorder>) {
        crate::chaos::pulse("core.workspace.reset", recorder);
        *self = Workspace::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_epochs_do_not_collide() {
        let mut m = Marks::default();
        let (e1, f1) = m.next_pair(4);
        m.mark[2] = e1;
        m.mark[3] = f1;
        let (a, b) = m.next_pair(4);
        assert_eq!(b, a + 1);
        assert!(
            [e1, f1].iter().all(|&x| x != a && x != b),
            "stale mark leaked into the new epoch"
        );
    }

    #[test]
    fn marks_survive_wraparound() {
        let mut m = Marks {
            mark: vec![0; 3],
            epoch: u32::MAX - 4,
        };
        let (e1, _) = m.next_pair(3);
        m.mark[0] = e1;
        let (a, b) = m.next_pair(3); // forces the wrap path
        assert!(m.mark[0] != a && m.mark[0] != b, "wrap must clear stale stamps");
    }

    #[test]
    fn csr_preserves_insertion_order() {
        // Pairs emitted in source order 0..5, lists keyed by item % 2.
        let mut csr = RevCsr::default();
        csr.build(2, |emit| {
            for v in 0u32..5 {
                emit(v % 2, v);
            }
        });
        assert_eq!(csr.list(0), &[0, 2, 4]);
        assert_eq!(csr.list(1), &[1, 3]);
        // Rebuild with different shape reuses the buffers.
        csr.build(3, |emit| {
            emit(2, 7);
            emit(0, 9);
        });
        assert_eq!(csr.list(0), &[9]);
        assert_eq!(csr.list(1), &[] as &[u32]);
        assert_eq!(csr.list(2), &[7]);
    }

    #[test]
    fn workspace_new_is_empty() {
        let ws = Workspace::new();
        assert!(ws.policy.is_empty());
        assert!(ws.bf.dist.is_empty());
        assert_eq!(ws.rev.start.capacity(), 0);
    }

    #[test]
    fn abandoned_use_resets_on_next_begin() {
        let mut ws = Workspace::new();
        ws.begin_use(None);
        ws.dist_f64.push(1.5); // simulate mid-solve state
        assert!(ws.is_poisoned());
        // No end_use: the attempt was aborted. The next begin_use must
        // not see the stale state.
        ws.begin_use(None);
        assert!(ws.dist_f64.is_empty(), "stale scratch leaked past reset");
        ws.end_use();
        assert!(!ws.is_poisoned());
    }

    #[test]
    fn clean_use_preserves_buffers() {
        let mut ws = Workspace::new();
        ws.begin_use(None);
        ws.dist_f64.resize(8, 0.0);
        ws.end_use();
        ws.begin_use(None);
        assert_eq!(ws.dist_f64.len(), 8, "clean reuse must keep grown buffers");
        ws.end_use();
    }
}
