//! The `mcr-edits v1` edit-script wire format.
//!
//! A versioned JSONL format describing a base graph plus a sequence of
//! edit batches for the incremental [`crate::DynamicSolver`] — what
//! `mcr dynamic --edits FILE` consumes and `mcr gen edits` emits. Every
//! line is one flat JSON object (string or integer values, each key
//! once; read with [`mcr_graph::json`]), in this order:
//!
//! ```text
//! {"schema":"mcr-edits v1","kind":"header","nodes":4,"arcs":2,"batches":1,"seed":7}
//! {"kind":"arc","src":0,"dst":1,"weight":5,"transit":1}
//! {"kind":"arc","src":1,"dst":0,"weight":3,"transit":1}
//! {"kind":"edit","batch":1,"op":"reweight","arc":0,"weight":-2}
//! ```
//!
//! * the **header** line declares the node count, the number of base
//!   `arc` lines that follow, the number of edit batches, and the
//!   generator seed (informational);
//! * one **arc** line per base arc, in arc-id (insertion) order;
//! * **edit** lines carry a 1-based `batch` number (batch boundaries
//!   are where the replayer re-solves) and an `op` of `insert`
//!   (`src`/`dst`/`weight`/`transit`), `delete` (`arc`), `reweight`
//!   (`arc`/`weight`), or `retime` (`arc`/`transit`). Batch numbers
//!   must be nondecreasing; a batch with no lines is an empty batch
//!   (re-solve without edits).
//!
//! The field list is pinned by `schemas/mcr-edits-v1.txt` and checked
//! by `mcr-lint` rule MCRL011; `crates/core/tests/data/golden_edits.jsonl`
//! is the committed golden script guarding the byte format.

use crate::dynamic::{ArcSpec, Edit};
use mcr_graph::edit::{arc_line, edit_line, header_line};
pub use mcr_graph::edit::EDITS_SCHEMA;
use mcr_graph::json::{self, Value};
use mcr_graph::{Graph, GraphBuilder, NodeId};

/// A parsed edit script: the base graph plus the edit batches to replay
/// against it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EditScript {
    /// Node count of the base graph (fixed across the whole script).
    pub nodes: usize,
    /// Base arcs in arc-id order.
    pub base_arcs: Vec<ArcSpec>,
    /// Edit batches, in replay order. `batches[i]` is wire batch `i+1`.
    pub batches: Vec<Vec<Edit>>,
    /// The generator seed recorded in the header (informational).
    pub seed: u64,
}

impl EditScript {
    /// Materializes the base graph (before any batch), arcs in arc-id
    /// order — the instance a [`crate::DynamicSolver`] replaying this
    /// script starts from.
    pub fn base_graph(&self) -> Graph {
        let mut b = GraphBuilder::new();
        b.add_nodes(self.nodes);
        for a in &self.base_arcs {
            b.add_arc_with_transit(NodeId::new(a.src), NodeId::new(a.dst), a.weight, a.transit);
        }
        b.build()
    }
}

/// One script line: a flat JSON object whose values are strings or
/// integers, each key at most once.
struct Line<'a> {
    text: &'a str,
    obj: Value,
}

impl<'a> Line<'a> {
    fn parse(text: &'a str) -> Result<Self, String> {
        let obj = json::parse(text).map_err(|e| format!("{e} in: {text}"))?;
        let Value::Obj(pairs) = &obj else {
            return Err(format!("line is not a JSON object: {text}"));
        };
        for (i, (key, value)) in pairs.iter().enumerate() {
            if !matches!(value, Value::Str(_) | Value::Int(_)) {
                return Err(format!("unsupported value for key `{key}` in: {text}"));
            }
            if pairs.iter().take(i).any(|(k, _)| k == key) {
                return Err(format!("duplicate key `{key}` in: {text}"));
            }
        }
        Ok(Line { text, obj })
    }

    /// The integer field `key`, converted to the caller's type.
    fn int<T: TryFrom<i128>>(&self, key: &str) -> Result<T, String> {
        let text = self.text;
        match self.obj.get(key) {
            Some(Value::Int(n)) => {
                T::try_from(*n).map_err(|_| format!("field `{key}` is out of range in: {text}"))
            }
            Some(_) => Err(format!("field `{key}` must be a number in: {text}")),
            None => Err(format!("missing field `{key}` in: {text}")),
        }
    }

    /// The string field `key`.
    fn str(&self, key: &str) -> Result<&str, String> {
        let text = self.text;
        match self.obj.get(key) {
            Some(Value::Str(s)) => Ok(s),
            Some(_) => Err(format!("field `{key}` must be a string in: {text}")),
            None => Err(format!("missing field `{key}` in: {text}")),
        }
    }
}

/// Parses a whole `mcr-edits v1` script. Blank lines are ignored.
pub fn parse_edit_script(text: &str) -> Result<EditScript, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = Line::parse(lines.next().ok_or("empty edit script")?)?;
    let schema = header.str("schema")?;
    if schema != EDITS_SCHEMA {
        return Err(format!("unsupported schema `{schema}` (want `{EDITS_SCHEMA}`)"));
    }
    if header.str("kind")? != "header" {
        return Err(format!("first line must be the header: {}", header.text));
    }
    let nodes = header.int("nodes")?;
    let arcs = header.int("arcs")?;
    let batches = header.int("batches")?;

    let mut script = EditScript {
        nodes,
        base_arcs: Vec::with_capacity(arcs),
        batches: vec![Vec::new(); batches],
        seed: header.int("seed")?,
    };
    let mut last_batch = 0usize;
    for text in lines {
        let line = Line::parse(text)?;
        match line.str("kind")? {
            "arc" => {
                if !script.batches.iter().all(Vec::is_empty) || last_batch != 0 {
                    return Err(format!("arc line after the first edit line: {text}"));
                }
                script.base_arcs.push(ArcSpec {
                    src: line.int("src")?,
                    dst: line.int("dst")?,
                    weight: line.int("weight")?,
                    transit: line.int("transit")?,
                });
            }
            "edit" => {
                let batch: usize = line.int("batch")?;
                if batch == 0 || batch > batches {
                    return Err(format!("batch {batch} is outside 1..={batches}: {text}"));
                }
                if batch < last_batch {
                    return Err(format!("batch numbers must be nondecreasing: {text}"));
                }
                last_batch = batch;
                let edit = match line.str("op")? {
                    "insert" => Edit::InsertArc {
                        src: line.int("src")?,
                        dst: line.int("dst")?,
                        weight: line.int("weight")?,
                        transit: line.int("transit")?,
                    },
                    "delete" => Edit::DeleteArc {
                        arc: line.int("arc")?,
                    },
                    "reweight" => Edit::Reweight {
                        arc: line.int("arc")?,
                        weight: line.int("weight")?,
                    },
                    "retime" => Edit::Retime {
                        arc: line.int("arc")?,
                        transit: line.int("transit")?,
                    },
                    other => return Err(format!("unknown op `{other}`: {text}")),
                };
                // lint: allow(panic) reason=batch is validated to lie in 1..=batches just above
                script.batches[batch - 1].push(edit);
            }
            other => return Err(format!("unknown kind `{other}`: {text}")),
        }
    }
    if script.base_arcs.len() != arcs {
        return Err(format!(
            "header declared {arcs} base arcs but {} followed",
            script.base_arcs.len()
        ));
    }
    Ok(script)
}

/// Renders a script back to `mcr-edits v1` text (the inverse of
/// [`parse_edit_script`]; `parse(render(s)) == s`).
pub fn render_edit_script(script: &EditScript) -> String {
    let mut out = header_line(
        script.nodes,
        script.base_arcs.len(),
        script.batches.len(),
        script.seed,
    );
    for a in &script.base_arcs {
        out.push_str(&arc_line(a));
    }
    for (i, batch) in script.batches.iter().enumerate() {
        for edit in batch {
            out.push_str(&edit_line(i + 1, edit));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EditScript {
        EditScript {
            nodes: 3,
            base_arcs: vec![
                ArcSpec {
                    src: 0,
                    dst: 1,
                    weight: 5,
                    transit: 1,
                },
                ArcSpec {
                    src: 1,
                    dst: 0,
                    weight: -3,
                    transit: 2,
                },
            ],
            batches: vec![
                vec![
                    Edit::Reweight { arc: 0, weight: 7 },
                    Edit::InsertArc {
                        src: 2,
                        dst: 2,
                        weight: 1,
                        transit: 1,
                    },
                ],
                vec![],
                vec![Edit::DeleteArc { arc: 1 }, Edit::Retime { arc: 0, transit: 3 }],
            ],
            seed: 42,
        }
    }

    #[test]
    fn round_trips() {
        let script = sample();
        let text = render_edit_script(&script);
        assert_eq!(parse_edit_script(&text).expect("parses"), script);
    }

    #[test]
    fn rejects_malformed_lines() {
        let good = render_edit_script(&sample());
        for bad in [
            "",
            "{\"schema\":\"mcr-edits v9\",\"kind\":\"header\",\"nodes\":1,\"arcs\":0,\"batches\":0,\"seed\":0}\n",
            "{\"kind\":\"header\",\"nodes\":1,\"arcs\":0,\"batches\":0,\"seed\":0}\n",
            &good.replace("\"op\":\"delete\"", "\"op\":\"explode\""),
            &good.replace("\"kind\":\"arc\"", "\"kind\":\"blob\""),
            &good.replace("\"batch\":3", "\"batch\":9"),
            &good.replace("\"arcs\":2", "\"arcs\":5"),
            // Not flat string/integer objects, or a key given twice.
            &good.replace("\"arc\":1}", "\"arc\":1,\"arc\":0}"),
            &good.replace("\"seed\":42", "\"seed\":42,\"seed\":42"),
            &good.replace("\"weight\":7", "\"weight\":[7]"),
            &good.replace("\"weight\":7", "\"weight\":{\"w\":7}"),
            &good.replace("\"weight\":7", "\"weight\":7.0"),
            &good.replace("\"weight\":7", "\"weight\":true"),
            &good.replace("\"weight\":7", "\"weight\":9223372036854775808"),
        ] {
            assert!(parse_edit_script(bad).is_err(), "accepted: {bad:?}");
        }
        // Standard string escapes are part of the format.
        let escaped = good.replacen("\"kind\":\"arc\"", "\"kind\":\"\\u0061rc\"", 1);
        assert_ne!(escaped, good);
        assert_eq!(parse_edit_script(&escaped).expect("parses"), sample());
    }

    #[test]
    fn batch_order_is_enforced() {
        let mut script = render_edit_script(&sample());
        // Swap the batch-1 and batch-3 groups textually: the decreasing
        // batch number must be rejected.
        script = script.replace("\"batch\":1", "\"batch\":9");
        script = script.replace("\"batch\":3", "\"batch\":1");
        script = script.replace("\"batch\":9", "\"batch\":3");
        assert!(parse_edit_script(&script).is_err());
    }

    #[test]
    fn empty_batches_survive() {
        let script = sample();
        let parsed = parse_edit_script(&render_edit_script(&script)).expect("parses");
        assert_eq!(parsed.batches.len(), 3);
        assert!(parsed.batches[1].is_empty());
    }
}
