//! The parser contract: what `read_dimacs` returns for a fixed set of
//! inputs, pinned byte for byte in `tests/data/parse_outcomes.txt`.
//!
//! Each input yields one line, `<label> ok <nodes> <arcs> <digest>` or
//! `<label> err <kind> <line> <message>`, where the digest is FNV-1a
//! over every arc's `(source, target, weight, transit)` in arc order
//! and the message is `{:?}`-escaped. The inputs are the bad corpus,
//! hand-written edge cases (line endings, every whitespace class,
//! invalid UTF-8, integer boundaries, field counts), seeded byte
//! mutations of a valid file, and readers that fail after `k` bytes.
//! Any change to an error kind, line number or message, or to the
//! graph a file parses to, shows up as a diff against the golden.
//!
//! Regenerate after an intended change with
//! `UPDATE_GOLDENS=1 cargo test -p mcr-graph --test parse_contract`.

use mcr_graph::hash::{fnv1a_word, FNV1A_OFFSET};
use mcr_graph::io::read_dimacs;
use std::io::{self, BufRead, BufReader, Read};
use std::path::PathBuf;

fn data_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

/// FNV-1a over the arc table, in arc order.
fn digest(g: &mcr_graph::Graph) -> u64 {
    g.arc_ids().fold(FNV1A_OFFSET, |h, a| {
        let h = fnv1a_word(h, g.source(a).index() as u64);
        let h = fnv1a_word(h, g.target(a).index() as u64);
        let h = fnv1a_word(h, g.weight(a) as u64);
        fnv1a_word(h, g.transit(a) as u64)
    })
}

fn outcome<R: BufRead>(reader: &mut R) -> String {
    match read_dimacs(reader) {
        Ok(g) => format!("ok {} {} {:016x}", g.num_nodes(), g.num_arcs(), digest(&g)),
        Err(e) => format!("err {:?} {} {:?}", e.kind(), e.line(), e.message()),
    }
}

/// A reader that yields the first `k` bytes of `data`, then fails.
struct FailAfter<'a> {
    data: &'a [u8],
    left: usize,
}

impl Read for FailAfter<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.left == 0 {
            return Err(io::Error::other("injected read failure"));
        }
        let n = buf.len().min(self.left).min(self.data.len());
        let (head, tail) = self.data.split_at(n);
        buf[..n].copy_from_slice(head);
        self.data = tail;
        self.left -= n;
        Ok(n)
    }
}

/// Hand-written edge cases: `(label, input)`.
#[rustfmt::skip]
const EDGE_CASES: &[(&str, &[u8])] = &[
    ("empty", b""),
    ("blank-lines-only", b"\n\n\n"),
    ("whitespace-only-lines", b" \t \n\x0b\x0c\r\n\t\np mcr 1 1\n  \t\na 1 1 3\n"),
    ("crlf", b"c crlf\r\np mcr 2 2\r\na 1 2 3\r\na 2 1 4 2\r\n"),
    ("lone-cr-lines", b"\r\np mcr 2 1\r\r\n\r\na 1 2 3\r"),
    ("vertical-tab-separators", b"\x0bp\x0bmcr\x0b2 1\na\x0b1\x0b2\x0b-3\x0b\n"),
    ("form-feed-separators", b"\x0cp\x0cmcr 2 1\x0c\na 2\x0c1\x0c5\n"),
    ("tab-separators", b"p\tmcr\t3\t2\na\t1\t2\t7\na\t2\t3\t8\t0\n"),
    ("nbsp-separators", "p\u{a0}mcr\u{a0}2 1\na 1\u{a0}2\u{a0}6\n".as_bytes()),
    ("ideographic-space-separators", "p mcr\u{3000}2\u{3000}1\n\u{3000}a 1 2 6\u{3000}\n".as_bytes()),
    ("nel-separator", "p mcr 2 1\na 1 2\u{85}6\n".as_bytes()),
    ("zero-width-space-is-not-whitespace", "p mcr 2 1\na 1 2 6\u{200b}\n".as_bytes()),
    ("fullwidth-digit", "p mcr 2 1\na 1 2 \u{ff17}\n".as_bytes()),
    ("non-ascii-line-type", "p mcr 2 1\n\u{e9} 1 2 6\n".as_bytes()),
    ("non-ascii-comment", "c caf\u{e9}\np mcr 1 1\na 1 1 2\n".as_bytes()),
    ("invalid-utf8-comment", b"p mcr 1 1\nc \xff\xfe\na 1 1 2\n"),
    ("invalid-utf8-arc", b"p mcr 2 1\na 1 2 \xff5\n"),
    ("invalid-utf8-truncated-sequence-at-eof", b"p mcr 2 1\na 1 2 5 \xc2"),
    ("invalid-utf8-after-error-line", b"p mcr 2 1\na 1 2\nc \xff\n"),
    ("nul-byte-in-field", b"p mcr 2 1\na 1 2 5\x00\n"),
    ("plus-sign", b"p mcr +2 +1\na +1 +2 +7 +3\n"),
    ("minus-zero-weight-and-transit", b"p mcr 2 1\na 1 2 -0 -0\n"),
    ("minus-zero-endpoint", b"p mcr 2 1\na -0 2 1\n"),
    ("minus-zero-node-count", b"p mcr -0 1\n"),
    ("plus-minus", b"p mcr 2 1\na 1 2 +-1\n"),
    ("minus-plus", b"p mcr 2 1\na 1 2 -+1\n"),
    ("lone-plus", b"p mcr 2 1\na 1 2 +\n"),
    ("lone-minus", b"p mcr 2 1\na 1 2 -\n"),
    ("lone-plus-endpoint", b"p mcr 2 1\na + 2 1\n"),
    ("leading-zeros", b"p mcr 002 01\na 0001 02 -007 0010\n"),
    ("underscore-digits", b"p mcr 2 1\na 1 2 1_000\n"),
    ("i64-min-max", b"p mcr 2 2\na 1 2 -9223372036854775808 0\na 2 1 9223372036854775807 9223372036854775807\n"),
    ("i64-min-minus-one", b"p mcr 2 1\na 1 2 -9223372036854775809\n"),
    ("i64-max-plus-one", b"p mcr 2 1\na 1 2 9223372036854775808\n"),
    ("transit-i64-max-plus-one", b"p mcr 2 1\na 1 2 1 9223372036854775808\n"),
    ("negative-transit", b"p mcr 2 1\na 1 2 1 -1\n"),
    ("endpoint-usize-overflow", b"p mcr 2 1\na 18446744073709551616 2 1\n"),
    ("endpoint-usize-max", b"p mcr 2 1\na 1 18446744073709551615 1\n"),
    ("endpoint-zero", b"p mcr 2 1\na 0 2 1\n"),
    ("endpoint-past-n", b"p mcr 2 1\na 1 3 1\n"),
    ("arc-header-u32-max", b"p mcr 2 4294967295\na 1 2 1\n"),
    ("arc-header-u32-max-plus-one", b"p mcr 2 4294967296\n"),
    ("node-header-u32-max-plus-one", b"p mcr 4294967296 1\n"),
    ("node-header-usize-max", b"p mcr 18446744073709551615 1\n"),
    ("node-header-usize-overflow", b"p mcr 18446744073709551616 1\n"),
    ("arc-header-non-numeric", b"p mcr 2 many\n"),
    ("last-line-without-newline", b"p mcr 2 2\na 1 2 3\na 2 1 4"),
    ("comment-without-space", b"cfoo\nc\n  c indented\n\x0cc after form feed\np mcr 1 1\na 1 1 1\n"),
    ("lone-p", b"p\n"),
    ("p-without-tag", b"p 2 2\n"),
    ("p-wrong-tag", b"p MCR 2 2\n"),
    ("p-extra-field", b"p mcr 2 2 9\n"),
    ("p-glued-tag", b"pmcr 2 2\n"),
    ("duplicate-header", b"p mcr 2 1\np mcr 2 1\n"),
    ("arc-before-header", b"c\na 1 2 3\np mcr 2 1\n"),
    ("lone-a-before-header", b"a\n"),
    ("lone-a", b"p mcr 2 1\na\n"),
    ("two-field-arc", b"p mcr 2 1\na 1 2\n"),
    ("five-field-arc", b"p mcr 2 1\na 1 2 3 4 5\n"),
    ("glued-arc-type", b"p mcr 2 1\na1 2 3\n"),
    ("unknown-line-type", b"p mcr 2 1\nx 1 2 3\n"),
    ("uppercase-line-type", b"p mcr 2 1\nA 1 2 3\n"),
    ("empty-graph", b"p mcr 0 0\n"),
    ("nodes-without-arcs", b"c only nodes\np mcr 3 0\n"),
    ("header-only-missing-counts", b"p mcr\n"),
];

/// The valid file the seeded mutations start from: comments, a blank
/// line, CRLF, tabs, three- and four-field arcs, negative weights.
const MUTATION_BASE: &[u8] = b"c mutation base\np mcr 6 9\na 1 2 5\na 2 3 -7 2\na 3 1 12\n\nc mid comment\na 3 4 0 0\na 4 5 -3\r\na 5 6 9 4\na 6 4\t-1\na 5 1 33 1\na 6 6 2\n";

/// Bytes the mutator favours: digits, signs, every ASCII whitespace
/// byte, line-type letters, and the lead bytes of multi-byte UTF-8.
const INTERESTING: &[u8] = b"0123456789+- \t\r\n\x0b\x0capcx\xc2\xa0\xe3\xff";

/// Multi-byte sequences the mutator splices in whole: NBSP, U+3000,
/// NEL, a lone continuation byte, and `i64::MAX`.
const SPLICES: &[&[u8]] = &[
    "\u{a0}".as_bytes(),
    "\u{3000}".as_bytes(),
    "\u{85}".as_bytes(),
    b"\x80",
    b"9223372036854775807",
];

const MUTATIONS: usize = 2000;

/// xorshift64: deterministic, with no dependency whose stream could
/// change under the golden.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    fn byte(&mut self) -> u8 {
        if self.below(3) == 0 {
            self.next() as u8
        } else {
            INTERESTING[self.below(INTERESTING.len())]
        }
    }
}

fn mutate(rng: &mut Rng) -> Vec<u8> {
    let mut bytes = MUTATION_BASE.to_vec();
    for _ in 0..=rng.below(4) {
        match rng.below(6) {
            0 | 1 => {
                let i = rng.below(bytes.len());
                bytes[i] = rng.byte();
            }
            2 => {
                let i = rng.below(bytes.len() + 1);
                let b = rng.byte();
                bytes.insert(i, b);
            }
            3 => {
                bytes.remove(rng.below(bytes.len()));
            }
            4 => {
                let i = rng.below(bytes.len() + 1);
                let s = SPLICES[rng.below(SPLICES.len())];
                bytes.splice(i..i, s.iter().copied());
            }
            _ => bytes.truncate(bytes.len() - rng.below(8).min(bytes.len() - 1)),
        }
    }
    bytes
}

/// Inputs the failing readers replay: a valid file whose last line has
/// no newline, and one with invalid UTF-8 on its third line.
#[rustfmt::skip]
const FAILING_INPUTS: &[(&str, &[u8])] = &[
    ("valid", b"c fail\np mcr 3 3\r\na 1 2 5\na 2 3 -1 4\na 3 1 2"),
    ("invalid-utf8", b"p mcr 2 2\na 1 2 5\nc \xff\na 2 1 3\n"),
];

/// Every input's outcome line, in a fixed order.
fn outcomes() -> String {
    let mut out = String::new();
    let mut push = |label: &str, line: String| {
        out.push_str(label);
        out.push(' ');
        out.push_str(&line);
        out.push('\n');
    };

    let mut corpus: Vec<PathBuf> = std::fs::read_dir(data_dir().join("bad"))
        .expect("corpus directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.is_file())
        .collect();
    corpus.sort();
    for path in corpus {
        let name = path
            .file_name()
            .expect("a file name")
            .to_string_lossy()
            .into_owned();
        let file = std::fs::File::open(&path).expect("open corpus file");
        push(
            &format!("corpus/{name}"),
            outcome(&mut BufReader::new(file)),
        );
    }

    for (label, input) in EDGE_CASES {
        push(&format!("edge/{label}"), outcome(&mut &input[..]));
    }

    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    for i in 0..MUTATIONS {
        let bytes = mutate(&mut rng);
        push(&format!("mutation/{i:04}"), outcome(&mut bytes.as_slice()));
    }

    for (label, input) in FAILING_INPUTS {
        for k in 0..=input.len() {
            let reader = FailAfter {
                data: input,
                left: k,
            };
            // A small buffer so lines straddle several reads.
            let mut reader = BufReader::with_capacity(8, reader);
            push(&format!("fail-after/{label}/{k}"), outcome(&mut reader));
        }
    }
    out
}

#[test]
fn outcomes_match_the_golden() {
    let path = data_dir().join("parse_outcomes.txt");
    let actual = outcomes();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("read parse_outcomes.txt");
    for (got, want) in actual.lines().zip(expected.lines()) {
        assert_eq!(got, want, "parser outcome drifted from parse_outcomes.txt");
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "parse_outcomes.txt has a different number of cases"
    );
}
