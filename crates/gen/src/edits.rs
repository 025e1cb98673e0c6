//! Deterministic `mcr-edits v1` edit scripts for the incremental
//! solver.
//!
//! [`edit_script`] emits a base graph (a disjoint union of SPRAND
//! components, so untouched components stay cacheable) plus a seeded
//! stream of edit batches — what `mcr gen edits N --seed S` prints, what
//! `mcr dynamic --edits` replays, and what the committed golden script
//! (`crates/core/tests/data/golden_edits.jsonl`) pins byte-for-byte.
//!
//! The batch mix is deliberately adversarial for an *incremental*
//! solver rather than a one-shot one: reweights dominate (cheap,
//! cache-friendly), but every script also inserts fresh arcs (new
//! cycles appear), deletes existing arcs (arc ids renumber, components
//! split), and retimes (the ratio objective's sensitivity). The
//! generator tracks the evolving arc count so every emitted edit is
//! valid at replay time.
//!
//! Every line is written by `mcr_graph::edit`'s line writers, the same
//! ones `mcr_core::render_edit_script` calls (the generator crate sits
//! below `mcr-core` in the dependency order, and core's tests depend on
//! it in turn).

use crate::sprand::{sprand, SprandConfig};
use mcr_graph::edit::{arc_line, edit_line, header_line, ArcSpec, Edit};
use mcr_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for [`edit_script`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EditScriptConfig {
    /// Number of edit batches to emit.
    pub batches: usize,
    /// RNG seed; equal configs produce byte-identical scripts.
    pub rng_seed: u64,
    /// Total node count of the base graph (split across components).
    pub nodes: usize,
    /// Total arc count of the base graph (split across components).
    pub arcs: usize,
    /// Disjoint SPRAND components in the base graph. More than one
    /// makes the script a real incremental workload: an edit inside one
    /// component leaves the others' fingerprints — and therefore the
    /// `mcr_core::DynamicSolver` cache entries — untouched.
    pub components: usize,
}

impl EditScriptConfig {
    /// A `batches`-batch script with seed 0 over the default base
    /// instance (24 nodes, 48 arcs, 3 disjoint components).
    pub fn new(batches: usize) -> Self {
        EditScriptConfig {
            batches,
            rng_seed: 0,
            nodes: 24,
            arcs: 48,
            components: 3,
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Sets the base instance size (totals across all components).
    pub fn size(mut self, nodes: usize, arcs: usize) -> Self {
        self.nodes = nodes;
        self.arcs = arcs;
        self
    }

    /// Sets the number of disjoint base components.
    pub fn components(mut self, components: usize) -> Self {
        self.components = components;
        self
    }
}

/// The arcs of `g` in arc-id order, node ids shifted by `off`.
fn arc_rows(g: &Graph, off: usize) -> impl Iterator<Item = ArcSpec> + '_ {
    g.arc_ids().map(move |a| ArcSpec {
        src: g.source(a).index() + off,
        dst: g.target(a).index() + off,
        weight: g.weight(a),
        transit: g.transit(a),
    })
}

/// Renders a deterministic `mcr-edits v1` JSONL script.
///
/// The base graph is the disjoint union of `components` SPRAND blocks
/// (weights in `1..=100`, unit transits), `nodes/components` nodes and
/// `arcs/components` arcs each. Each batch holds 1–3 edits; op
/// frequencies are roughly reweight 40%, insert 25%, delete 20%,
/// retime 15%. Inserted arcs stay inside one randomly chosen block, so
/// the blocks remain disjoint and the untouched ones stay cacheable.
/// Deletes are suppressed while fewer than 4 arcs remain so a script
/// never empties its own graph.
pub fn edit_script(cfg: &EditScriptConfig) -> String {
    let mut rng = StdRng::seed_from_u64(cfg.rng_seed);
    let components = cfg.components.max(1);
    let per_nodes = (cfg.nodes / components).max(2);
    let per_arcs = (cfg.arcs / components).max(2);
    let nodes = components * per_nodes;
    let mut arcs = Vec::new();
    for k in 0..components {
        let block = sprand(
            &SprandConfig::new(per_nodes, per_arcs)
                .seed(cfg.rng_seed.wrapping_add(k as u64))
                .weight_range(1, 100),
        );
        arcs.extend(arc_rows(&block, k * per_nodes));
    }
    let mut out = header_line(nodes, arcs.len(), cfg.batches, cfg.rng_seed);
    for arc in &arcs {
        out.push_str(&arc_line(arc));
    }
    for batch in 1..=cfg.batches {
        let count = 1 + rng.gen_range(0..3);
        for _ in 0..count {
            let roll = rng.gen_range(0..100);
            let edit = if roll < 40 && !arcs.is_empty() {
                let arc = rng.gen_range(0..arcs.len());
                let weight = rng.gen_range(1..=100i64);
                arcs[arc].weight = weight;
                Edit::Reweight { arc, weight }
            } else if roll < 65 {
                let off = rng.gen_range(0..components) * per_nodes;
                let src = off + rng.gen_range(0..per_nodes);
                let dst = off + rng.gen_range(0..per_nodes);
                let weight = rng.gen_range(1..=100i64);
                let transit = rng.gen_range(1..=3i64);
                arcs.push(ArcSpec {
                    src,
                    dst,
                    weight,
                    transit,
                });
                Edit::InsertArc {
                    src,
                    dst,
                    weight,
                    transit,
                }
            } else if roll < 85 && arcs.len() >= 4 {
                let arc = rng.gen_range(0..arcs.len());
                arcs.remove(arc);
                Edit::DeleteArc { arc }
            } else if !arcs.is_empty() {
                let arc = rng.gen_range(0..arcs.len());
                let transit = rng.gen_range(1..=3i64);
                arcs[arc].transit = transit;
                Edit::Retime { arc, transit }
            } else {
                continue;
            };
            out.push_str(&edit_line(batch, &edit));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_configs() {
        let a = edit_script(&EditScriptConfig::new(8).seed(7));
        let b = edit_script(&EditScriptConfig::new(8).seed(7));
        assert_eq!(a, b);
        let c = edit_script(&EditScriptConfig::new(8).seed(8));
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn header_counts_match_the_lines() {
        let text = edit_script(&EditScriptConfig::new(5).seed(3));
        let header = text.lines().next().expect("header");
        let arcs = text.lines().filter(|l| l.contains("\"kind\":\"arc\"")).count();
        assert!(header.contains(&format!("\"arcs\":{arcs}")), "{header}");
        assert!(header.contains("\"batches\":5"), "{header}");
        let edits = text.lines().filter(|l| l.contains("\"kind\":\"edit\"")).count();
        assert!(edits >= 5, "each batch emits at least one edit");
    }

    #[test]
    fn every_edit_is_valid_at_replay_time() {
        // Track the arc count exactly as a replayer would and check
        // each referenced index is in range when its line is reached.
        let text = edit_script(&EditScriptConfig::new(64).seed(11));
        let mut arcs = 0usize;
        for line in text.lines() {
            if line.contains("\"kind\":\"arc\"") || line.contains("\"op\":\"insert\"") {
                arcs += 1;
            } else if let Some(rest) = line.split("\"arc\":").nth(1) {
                let idx: usize = rest
                    .trim_end_matches('}')
                    .split(',')
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("arc index parses");
                assert!(idx < arcs, "index {idx} out of {arcs}: {line}");
                if line.contains("\"op\":\"delete\"") {
                    arcs -= 1;
                }
            }
        }
        assert!(arcs >= 4);
    }
}
