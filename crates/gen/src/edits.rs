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
//! Like `requests.rs`, the JSON is hand-rolled: the generator crate
//! sits below `mcr-core` in the dependency order, and core's tests
//! depend on it in turn.

use crate::sprand::{sprand, SprandConfig};
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

/// Extracts `(src, dst, weight, transit)` rows in arc-id order.
fn arc_rows(g: &Graph) -> Vec<(usize, usize, i64, i64)> {
    g.arc_ids()
        .map(|a| {
            (
                g.source(a).index(),
                g.target(a).index(),
                g.weight(a),
                g.transit(a),
            )
        })
        .collect()
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
        let off = k * per_nodes;
        for (src, dst, weight, transit) in arc_rows(&block) {
            arcs.push((src + off, dst + off, weight, transit));
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\":\"mcr-edits v1\",\"kind\":\"header\",\"nodes\":{},\"arcs\":{},\"batches\":{},\"seed\":{}}}\n",
        nodes,
        arcs.len(),
        cfg.batches,
        cfg.rng_seed
    ));
    for &(src, dst, weight, transit) in &arcs {
        out.push_str(&format!(
            "{{\"kind\":\"arc\",\"src\":{src},\"dst\":{dst},\"weight\":{weight},\"transit\":{transit}}}\n"
        ));
    }
    for batch in 1..=cfg.batches {
        let count = 1 + rng.gen_range(0..3);
        for _ in 0..count {
            let roll = rng.gen_range(0..100);
            let line = if roll < 40 && !arcs.is_empty() {
                let arc = rng.gen_range(0..arcs.len());
                let weight = rng.gen_range(1..=100i64);
                arcs[arc].2 = weight;
                format!(
                    "{{\"kind\":\"edit\",\"batch\":{batch},\"op\":\"reweight\",\"arc\":{arc},\"weight\":{weight}}}\n"
                )
            } else if roll < 65 {
                let off = rng.gen_range(0..components) * per_nodes;
                let src = off + rng.gen_range(0..per_nodes);
                let dst = off + rng.gen_range(0..per_nodes);
                let weight = rng.gen_range(1..=100i64);
                let transit = rng.gen_range(1..=3i64);
                arcs.push((src, dst, weight, transit));
                format!(
                    "{{\"kind\":\"edit\",\"batch\":{batch},\"op\":\"insert\",\"src\":{src},\"dst\":{dst},\"weight\":{weight},\"transit\":{transit}}}\n"
                )
            } else if roll < 85 && arcs.len() >= 4 {
                let arc = rng.gen_range(0..arcs.len());
                arcs.remove(arc);
                format!("{{\"kind\":\"edit\",\"batch\":{batch},\"op\":\"delete\",\"arc\":{arc}}}\n")
            } else if !arcs.is_empty() {
                let arc = rng.gen_range(0..arcs.len());
                let transit = rng.gen_range(1..=3i64);
                arcs[arc].3 = transit;
                format!(
                    "{{\"kind\":\"edit\",\"batch\":{batch},\"op\":\"retime\",\"arc\":{arc},\"transit\":{transit}}}\n"
                )
            } else {
                continue;
            };
            out.push_str(&line);
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
            if line.contains("\"kind\":\"arc\"") {
                arcs += 1;
            } else if line.contains("\"op\":\"insert\"") {
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
