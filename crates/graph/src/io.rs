//! Graph serialization: a DIMACS-style arc-list text format and DOT
//! export for visualization.
//!
//! The text format follows the DIMACS shortest-path convention the
//! SPRAND generator family emits, extended with an optional transit-time
//! field:
//!
//! ```text
//! c comment lines
//! p mcr <num_nodes> <num_arcs>
//! a <source> <target> <weight> [transit]
//! ```
//!
//! Nodes are 1-based in the file (DIMACS convention) and 0-based in
//! memory.

// Parsing/validation surfaces must stay panic-free whatever the
// input; CI runs clippy with -D warnings, so these lints are a gate.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use crate::graph::{Graph, GraphBuilder, GraphError, NodeId};
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

/// Machine-readable classification of a [`ParseGraphError`].
///
/// Callers that need to distinguish "the file is garbage" from "one
/// field is wrong" can match on this instead of scraping the display
/// message; the message remains the human-facing diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// The underlying reader failed.
    Io,
    /// A `p` line is present but malformed (wrong field count, wrong
    /// problem tag, or the file ends mid-header).
    TruncatedHeader,
    /// A second `p` line appeared after the graph was already declared.
    DuplicateHeader,
    /// No `p` line precedes the arcs (or the file has none at all).
    MissingHeader,
    /// An `a` line has the wrong number of fields.
    MalformedArc,
    /// A numeric field (count, endpoint, weight, or transit) failed to
    /// parse as an integer.
    NonNumericField,
    /// An arc endpoint falls outside `1..=num_nodes`.
    OutOfRangeEndpoint,
    /// The header declares more nodes or arcs than ids (`u32`) can
    /// address; rejected before any allocation is sized from it.
    HeaderCountOverflow,
    /// An arc declared a negative transit time.
    NegativeTransit,
    /// A line starts with an unrecognized type character.
    UnknownLineType,
}

/// Error produced when parsing the DIMACS-style text format.
///
/// Carries the 1-based line number of the offending line (0 for
/// whole-file errors such as a missing header), a [`ParseErrorKind`]
/// for programmatic matching, and a human-readable message.
#[derive(Debug)]
pub struct ParseGraphError {
    line: usize,
    kind: ParseErrorKind,
    message: String,
}

impl ParseGraphError {
    fn new(line: usize, kind: ParseErrorKind, message: impl Into<String>) -> Self {
        ParseGraphError {
            line,
            kind,
            message: message.into(),
        }
    }

    /// The 1-based line number the error was detected on (0 when the
    /// error concerns the file as a whole, e.g. a missing header).
    pub fn line(&self) -> usize {
        self.line
    }

    /// The machine-readable classification of the error.
    pub fn kind(&self) -> ParseErrorKind {
        self.kind
    }

    /// The human-readable diagnostic, without the line prefix.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ParseGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseGraphError {}

/// Reads a graph in the DIMACS-style format described in the
/// [module documentation](self).
///
/// A mutable reference to any `BufRead` may be passed. The input is
/// read into memory once and split into lines on `\n`; fields and
/// integers are parsed from its bytes in place, and arcs keep their
/// file order. Fields are separated by any whitespace
/// `char::is_whitespace` accepts, Unicode included.
///
/// # Errors
///
/// Returns [`ParseGraphError`] on malformed or duplicated headers, arc
/// lines with the wrong field count, out-of-range endpoints, negative
/// transit times, or unparsable integers. The error's
/// [`kind`](ParseGraphError::kind) distinguishes the cases and
/// [`line`](ParseGraphError::line) locates the offending line; parsing
/// never panics, whatever the input. A line that is not valid UTF-8
/// is an [`Io`](ParseErrorKind::Io) error at that line. If the reader
/// fails, the complete lines before the failure are parsed first and
/// the failure is reported on the line after them.
///
/// ```
/// use mcr_graph::io::read_dimacs;
/// let text = "c tiny\np mcr 2 2\na 1 2 5\na 2 1 3 7\n";
/// let g = read_dimacs(&mut text.as_bytes())?;
/// assert_eq!(g.num_nodes(), 2);
/// assert_eq!(g.transit(mcr_graph::ArcId::new(1)), 7);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn read_dimacs<R: BufRead>(reader: &mut R) -> Result<Graph, ParseGraphError> {
    let mut bytes = Vec::new();
    // After a failed read only the lines that end in `\n` are complete:
    // they are parsed, and the failure is reported on the line after.
    let read_error = reader.read_to_end(&mut bytes).err();
    let complete = match read_error {
        Some(_) => {
            let end = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            bytes.get(..end).unwrap_or_default()
        }
        None => &bytes,
    };
    let mut builder: Option<GraphBuilder> = None;
    let mut lineno = 0;
    for line in complete.split(|&b| b == b'\n') {
        lineno += 1;
        if line.is_ascii() {
            parse_line(
                &mut builder,
                lineno,
                line.split(is_space).filter(|f| !f.is_empty()),
            )?;
        } else {
            let text = std::str::from_utf8(line).map_err(|_| {
                ParseGraphError::new(
                    lineno,
                    ParseErrorKind::Io,
                    "io error: stream did not contain valid UTF-8",
                )
            })?;
            parse_line(&mut builder, lineno, text.split_whitespace())?;
        }
    }
    if let Some(e) = read_error {
        // `complete` is empty or ends in `\n`, so its last piece is the
        // line the failure cut short.
        return Err(ParseGraphError::new(
            lineno,
            ParseErrorKind::Io,
            format!("io error: {e}"),
        ));
    }
    let builder = builder.ok_or_else(|| {
        ParseGraphError::new(
            0,
            ParseErrorKind::MissingHeader,
            "missing problem line `p mcr ...`",
        )
    })?;
    Ok(builder.build())
}

/// The ASCII bytes `char::is_whitespace` accepts, so that ASCII lines
/// split exactly as `str::split_whitespace` splits the others.
/// (`u8::is_ascii_whitespace` omits `\x0B`.)
fn is_space(b: &u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r')
}

/// Handles one line, given its whitespace-separated fields: skips blank
/// and comment lines, declares the graph on the `p` line, and pushes
/// each `a` line's arc into the builder.
fn parse_line<F: AsRef<[u8]>>(
    builder: &mut Option<GraphBuilder>,
    lineno: usize,
    mut fields: impl Iterator<Item = F>,
) -> Result<(), ParseGraphError> {
    let err = |kind, message: &str| ParseGraphError::new(lineno, kind, message);
    let Some(line_type) = fields.next() else {
        return Ok(()); // blank line
    };
    match line_type.as_ref() {
        [b'c', ..] => Ok(()),
        b"p" => {
            if builder.is_some() {
                return Err(err(
                    ParseErrorKind::DuplicateHeader,
                    "duplicate problem line: the graph was already declared",
                ));
            }
            let (nodes_field, arcs_field) =
                match (fields.next(), fields.next(), fields.next(), fields.next()) {
                    (Some(tag), Some(nodes), Some(arcs), None) if tag.as_ref() == b"mcr" => {
                        (nodes, arcs)
                    }
                    _ => {
                        return Err(err(
                            ParseErrorKind::TruncatedHeader,
                            "expected problem line `p mcr <nodes> <arcs>`",
                        ))
                    }
                };
            let num_nodes = parse_usize(nodes_field.as_ref())
                .ok_or_else(|| err(ParseErrorKind::NonNumericField, "invalid node count"))?;
            let declared_arcs = parse_usize(arcs_field.as_ref())
                .ok_or_else(|| err(ParseErrorKind::NonNumericField, "invalid arc count"))?;
            // Node and arc ids are u32 internally, so larger declared
            // counts can never produce a valid graph — reject them
            // *before* allocating, or a one-line header could demand
            // hundreds of gigabytes (found by fuzzing).
            if num_nodes > u32::MAX as usize || declared_arcs > u32::MAX as usize {
                return Err(err(
                    ParseErrorKind::HeaderCountOverflow,
                    "declared node/arc count exceeds the supported maximum (2^32 - 1)",
                ));
            }
            // The declared arc count is only a capacity *hint* — arcs
            // are stored as their lines arrive — so clamp it: a header
            // claiming 4 billion arcs must not reserve gigabytes the
            // file never delivers.
            const MAX_ARC_PREALLOC: usize = 1 << 20;
            let mut b = GraphBuilder::with_capacity(num_nodes, declared_arcs.min(MAX_ARC_PREALLOC));
            b.add_nodes(num_nodes);
            *builder = Some(b);
            Ok(())
        }
        b"a" => {
            if crate::chaos::fail_hit("graph.io.read_dimacs.arc") {
                return Err(err(
                    ParseErrorKind::Io,
                    "injected chaos fault while reading arc line",
                ));
            }
            let b = builder
                .as_mut()
                .ok_or_else(|| err(ParseErrorKind::MissingHeader, "arc before problem line"))?;
            let (Some(src_field), Some(dst_field), Some(weight_field), transit_field, None) = (
                fields.next(),
                fields.next(),
                fields.next(),
                fields.next(),
                fields.next(),
            ) else {
                return Err(err(
                    ParseErrorKind::MalformedArc,
                    "expected `a <src> <dst> <weight> [transit]`",
                ));
            };
            let src = parse_usize(src_field.as_ref())
                .ok_or_else(|| err(ParseErrorKind::NonNumericField, "invalid source"))?;
            let dst = parse_usize(dst_field.as_ref())
                .ok_or_else(|| err(ParseErrorKind::NonNumericField, "invalid target"))?;
            let weight = parse_i64(weight_field.as_ref())
                .ok_or_else(|| err(ParseErrorKind::NonNumericField, "invalid weight"))?;
            let transit = match transit_field {
                Some(t) => parse_i64(t.as_ref())
                    .ok_or_else(|| err(ParseErrorKind::NonNumericField, "invalid transit"))?,
                None => 1,
            };
            let num_nodes = b.num_nodes();
            if src == 0 || src > num_nodes || dst == 0 || dst > num_nodes {
                return Err(err(
                    ParseErrorKind::OutOfRangeEndpoint,
                    &format!("endpoint out of range 1..={num_nodes}"),
                ));
            }
            b.try_add_arc_with_transit(NodeId::new(src - 1), NodeId::new(dst - 1), weight, transit)
                .map_err(|e| match e {
                    GraphError::NegativeTransit { .. } => {
                        err(ParseErrorKind::NegativeTransit, "negative transit time")
                    }
                    other => err(ParseErrorKind::OutOfRangeEndpoint, &other.to_string()),
                })?;
            Ok(())
        }
        // Fields are ASCII or cut from a `str`, so the lossy decoding
        // never substitutes.
        other => Err(err(
            ParseErrorKind::UnknownLineType,
            &format!("unknown line type `{}`", String::from_utf8_lossy(other)),
        )),
    }
}

/// `str::parse::<usize>` on bytes: an optional `+`, then one or more
/// ASCII digits, with overflow rejected.
fn parse_usize(field: &[u8]) -> Option<usize> {
    let digits = match field {
        [b'+', rest @ ..] => rest,
        _ => field,
    };
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0usize, |acc, &b| {
        let d = b.is_ascii_digit().then(|| b - b'0')?;
        acc.checked_mul(10)?.checked_add(usize::from(d))
    })
}

/// `str::parse::<i64>` on bytes: an optional `+` or `-`, then one or
/// more ASCII digits, with overflow rejected. Negative values
/// accumulate downwards so `i64::MIN` parses.
fn parse_i64(field: &[u8]) -> Option<i64> {
    let (negative, digits) = match field {
        [b'-', rest @ ..] => (true, rest),
        [b'+', rest @ ..] => (false, rest),
        _ => (false, field),
    };
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0i64, |acc, &b| {
        let d = b.is_ascii_digit().then(|| b - b'0')?;
        let acc = acc.checked_mul(10)?;
        if negative {
            acc.checked_sub(i64::from(d))
        } else {
            acc.checked_add(i64::from(d))
        }
    })
}

/// Writes `g` in the DIMACS-style format accepted by [`read_dimacs`].
///
/// Transit times are emitted only when some arc has a non-unit transit
/// time. A mutable reference to any `Write` may be passed.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_dimacs<W: Write>(writer: &mut W, g: &Graph) -> std::io::Result<()> {
    writeln!(writer, "p mcr {} {}", g.num_nodes(), g.num_arcs())?;
    let with_transit = !g.has_unit_transits();
    for a in g.arc_ids() {
        if with_transit {
            writeln!(
                writer,
                "a {} {} {} {}",
                g.source(a).index() + 1,
                g.target(a).index() + 1,
                g.weight(a),
                g.transit(a)
            )?;
        } else {
            writeln!(
                writer,
                "a {} {} {}",
                g.source(a).index() + 1,
                g.target(a).index() + 1,
                g.weight(a)
            )?;
        }
    }
    Ok(())
}

/// Renders `g` in Graphviz DOT syntax, labeling arcs with `weight` or
/// `weight/transit`.
///
/// ```
/// use mcr_graph::{graph::from_arc_list, io::to_dot};
/// let g = from_arc_list(2, &[(0, 1, 4)]);
/// let dot = to_dot(&g, "tiny");
/// assert!(dot.contains("digraph tiny"));
/// assert!(dot.contains("0 -> 1"));
/// ```
pub fn to_dot(g: &Graph, name: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "digraph {name} {{");
    let with_transit = !g.has_unit_transits();
    for a in g.arc_ids() {
        if with_transit {
            let _ = writeln!(
                out,
                "  {} -> {} [label=\"{}/{}\"];",
                g.source(a).index(),
                g.target(a).index(),
                g.weight(a),
                g.transit(a)
            );
        } else {
            let _ = writeln!(
                out,
                "  {} -> {} [label=\"{}\"];",
                g.source(a).index(),
                g.target(a).index(),
                g.weight(a)
            );
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::from_arc_list;

    #[test]
    fn roundtrip_unit_transit() {
        let g = from_arc_list(3, &[(0, 1, 5), (1, 2, -3), (2, 0, 7)]);
        let mut buf = Vec::new();
        write_dimacs(&mut buf, &g).expect("write");
        let h = read_dimacs(&mut buf.as_slice()).expect("parse");
        assert_eq!(h.num_nodes(), 3);
        assert_eq!(h.num_arcs(), 3);
        for a in g.arc_ids() {
            assert_eq!(g.source(a), h.source(a));
            assert_eq!(g.target(a), h.target(a));
            assert_eq!(g.weight(a), h.weight(a));
            assert_eq!(h.transit(a), 1);
        }
    }

    #[test]
    fn roundtrip_with_transits() {
        let mut b = GraphBuilder::new();
        let v = b.add_nodes(2);
        b.add_arc_with_transit(v[0], v[1], 10, 3);
        b.add_arc_with_transit(v[1], v[0], -2, 0);
        let g = b.build();
        let mut buf = Vec::new();
        write_dimacs(&mut buf, &g).expect("write");
        let h = read_dimacs(&mut buf.as_slice()).expect("parse");
        for a in g.arc_ids() {
            assert_eq!(g.transit(a), h.transit(a));
            assert_eq!(g.weight(a), h.weight(a));
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "c header\n\nc more\np mcr 1 1\nc inline\na 1 1 -4\n";
        let g = read_dimacs(&mut text.as_bytes()).expect("parse");
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.weight(crate::graph::ArcId::new(0)), -4);
    }

    #[test]
    fn errors_are_reported_with_line_numbers_and_kinds() {
        use ParseErrorKind as K;
        let cases = [
            ("a 1 2 3\n", "problem line", K::MissingHeader, 1),
            ("p mcr x 1\n", "node count", K::NonNumericField, 1),
            ("p mcr 2 1\na 1 3 1\n", "out of range", K::OutOfRangeEndpoint, 2),
            ("p mcr 2 1\na 1 2\n", "expected", K::MalformedArc, 2),
            ("p mcr 2 1\nq 1 2\n", "unknown line type", K::UnknownLineType, 2),
            ("p mcr 2 1\na 1 2 1 -1\n", "negative transit", K::NegativeTransit, 2),
            ("", "missing problem line", K::MissingHeader, 0),
            ("p mcr\n", "expected problem line", K::TruncatedHeader, 1),
            ("p mcr 2 2\np mcr 2 2\n", "duplicate", K::DuplicateHeader, 2),
        ];
        for (text, needle, kind, line) in cases {
            let err = read_dimacs(&mut text.as_bytes()).expect_err(text);
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "error for {text:?} was {msg:?}, expected to contain {needle:?}"
            );
            assert_eq!(err.kind(), kind, "kind for {text:?}");
            assert_eq!(err.line(), line, "line for {text:?}");
        }
    }

    #[test]
    fn absurd_header_counts_are_rejected_before_allocation() {
        // A mutated header declaring ~10^11 nodes must fail fast with a
        // typed error instead of attempting a multi-hundred-gigabyte
        // `with_capacity` (found by fuzzing the parser).
        for text in [
            "p mcr 99999999999 5\n",
            "p mcr 5 99999999999\n",
            "p mcr 4294967296 4294967296\n",
        ] {
            let err = read_dimacs(&mut text.as_bytes()).expect_err(text);
            assert_eq!(err.kind(), ParseErrorKind::HeaderCountOverflow, "{text:?}");
            assert_eq!(err.line(), 1, "{text:?}");
        }
        // The boundary itself (u32::MAX) is legal as a *declared* count;
        // the file just doesn't have to deliver that many arcs.
        let text = "p mcr 2 4294967295\na 1 2 1\n";
        assert!(read_dimacs(&mut text.as_bytes()).is_ok());
    }

    #[test]
    fn second_header_is_rejected_not_silently_replaced() {
        // Before the duplicate-header check, a second `p` line would
        // silently discard every arc parsed so far.
        let text = "p mcr 2 2\na 1 2 5\np mcr 9 9\na 2 1 3\n";
        let err = read_dimacs(&mut text.as_bytes()).expect_err("duplicate header");
        assert_eq!(err.kind(), ParseErrorKind::DuplicateHeader);
        assert_eq!(err.line(), 3);
    }

    #[test]
    fn dot_contains_all_arcs() {
        let g = from_arc_list(3, &[(0, 1, 1), (1, 2, 2), (2, 0, 3)]);
        let dot = to_dot(&g, "g");
        assert_eq!(dot.matches("->").count(), 3);
    }

    use crate::graph::GraphBuilder;
}
