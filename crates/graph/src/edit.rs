//! Arc-list edits and the one writer of `mcr-edits v1` lines.
//!
//! [`Edit`] is one mutation of a graph's arc list, the unit
//! `mcr_core::DynamicSolver` applies in batches. An `mcr-edits v1` script
//! is JSONL: a header line, one line per base arc, then one line per edit
//! (`mcr_core::edits` documents the format and reads it). Both producers
//! of the format — `mcr_core::edits::render_edit_script` and
//! `mcr_gen::edits::edit_script` — write every line through
//! [`header_line`], [`arc_line`] and [`edit_line`], so the bytes cannot
//! drift apart.

use crate::json::ObjWriter;

/// The schema tag every `mcr-edits v1` header carries.
pub const EDITS_SCHEMA: &str = "mcr-edits v1";

/// One graph mutation. Arc indices refer to the *current* dense arc
/// numbering (insertion order, the same ids [`crate::Graph::arc_ids`]
/// exposes); [`Edit::DeleteArc`] shifts every higher index down by one,
/// and [`Edit::InsertArc`] appends at index `num_arcs()`. Within a batch,
/// edits apply sequentially against the evolving arc list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edit {
    /// Append an arc `src -> dst`. The new arc's index is the arc count
    /// at the moment of insertion.
    InsertArc {
        src: usize,
        dst: usize,
        weight: i64,
        transit: i64,
    },
    /// Remove the arc at `arc`; higher indices shift down by one.
    DeleteArc { arc: usize },
    /// Replace the weight of the arc at `arc`.
    Reweight { arc: usize, weight: i64 },
    /// Replace the transit time of the arc at `arc` (must stay
    /// nonnegative, like every transit).
    Retime { arc: usize, transit: i64 },
}

/// One arc of an editable arc list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArcSpec {
    pub src: usize,
    pub dst: usize,
    pub weight: i64,
    pub transit: i64,
}

/// The header line: node count, base arc count, batch count and the
/// generator seed. Like every line writer here, it ends in `\n`.
pub fn header_line(nodes: usize, arcs: usize, batches: usize, seed: u64) -> String {
    let line = ObjWriter::new()
        .str("schema", EDITS_SCHEMA)
        .str("kind", "header")
        .u64("nodes", nodes as u64)
        .u64("arcs", arcs as u64)
        .u64("batches", batches as u64)
        .u64("seed", seed)
        .finish();
    line + "\n"
}

/// One base-arc line.
pub fn arc_line(arc: &ArcSpec) -> String {
    let line = ObjWriter::new()
        .str("kind", "arc")
        .u64("src", arc.src as u64)
        .u64("dst", arc.dst as u64)
        .i64("weight", arc.weight)
        .i64("transit", arc.transit)
        .finish();
    line + "\n"
}

/// One edit line of the 1-based `batch`.
pub fn edit_line(batch: usize, edit: &Edit) -> String {
    let w = ObjWriter::new().str("kind", "edit").u64("batch", batch as u64);
    let line = match *edit {
        Edit::InsertArc {
            src,
            dst,
            weight,
            transit,
        } => w
            .str("op", "insert")
            .u64("src", src as u64)
            .u64("dst", dst as u64)
            .i64("weight", weight)
            .i64("transit", transit),
        Edit::DeleteArc { arc } => w.str("op", "delete").u64("arc", arc as u64),
        Edit::Reweight { arc, weight } => {
            w.str("op", "reweight").u64("arc", arc as u64).i64("weight", weight)
        }
        Edit::Retime { arc, transit } => {
            w.str("op", "retime").u64("arc", arc as u64).i64("transit", transit)
        }
    };
    line.finish() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_pinned() {
        assert_eq!(
            header_line(4, 2, 1, 7),
            "{\"schema\":\"mcr-edits v1\",\"kind\":\"header\",\
             \"nodes\":4,\"arcs\":2,\"batches\":1,\"seed\":7}\n"
        );
        let arc = ArcSpec { src: 0, dst: 1, weight: -5, transit: 1 };
        assert_eq!(
            arc_line(&arc),
            "{\"kind\":\"arc\",\"src\":0,\"dst\":1,\"weight\":-5,\"transit\":1}\n"
        );
        let edits = [
            (
                Edit::InsertArc { src: 2, dst: 0, weight: 9, transit: 3 },
                "\"op\":\"insert\",\"src\":2,\"dst\":0,\"weight\":9,\"transit\":3",
            ),
            (Edit::DeleteArc { arc: 4 }, "\"op\":\"delete\",\"arc\":4"),
            (Edit::Reweight { arc: 1, weight: -2 }, "\"op\":\"reweight\",\"arc\":1,\"weight\":-2"),
            (Edit::Retime { arc: 0, transit: 2 }, "\"op\":\"retime\",\"arc\":0,\"transit\":2"),
        ];
        for (edit, fields) in edits {
            assert_eq!(
                edit_line(3, &edit),
                format!("{{\"kind\":\"edit\",\"batch\":3,{fields}}}\n")
            );
        }
    }
}
