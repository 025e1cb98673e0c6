//! The bad-input corpus: every file under `tests/data/bad/` must parse
//! to a typed [`ParseErrorKind`] with the right line number — never a
//! panic, never a silently wrong graph. The CLI's exit-code contract
//! (exit 1 on input errors) is built on this guarantee.

use mcr_graph::io::read_dimacs;
use mcr_graph::ParseErrorKind;
use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;

fn corpus_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/bad")
        .join(name)
}

fn parse(name: &str) -> mcr_graph::ParseGraphError {
    let file = File::open(corpus_file(name)).unwrap_or_else(|e| panic!("open {name}: {e}"));
    read_dimacs(&mut BufReader::new(file))
        .expect_err("a corpus file must fail to parse")
}

#[test]
fn truncated_header_is_detected() {
    let err = parse("truncated_header.dimacs");
    assert_eq!(err.kind(), ParseErrorKind::TruncatedHeader);
    assert_eq!(err.line(), 2);
    assert!(err.to_string().starts_with("line 2:"), "{err}");
}

#[test]
fn out_of_range_arc_is_detected() {
    let err = parse("out_of_range_arc.dimacs");
    assert_eq!(err.kind(), ParseErrorKind::OutOfRangeEndpoint);
    assert_eq!(err.line(), 5);
    assert!(err.message().contains("1..=4"), "{err}");
}

#[test]
fn non_numeric_weight_is_detected() {
    let err = parse("non_numeric_weight.dimacs");
    assert_eq!(err.kind(), ParseErrorKind::NonNumericField);
    assert_eq!(err.line(), 4);
}

#[test]
fn duplicate_header_is_detected() {
    let err = parse("duplicate_header.dimacs");
    assert_eq!(err.kind(), ParseErrorKind::DuplicateHeader);
    assert_eq!(err.line(), 4);
}

#[test]
fn invalid_utf8_is_an_io_error_at_its_line() {
    let err = parse("invalid_utf8.dimacs");
    assert_eq!(err.kind(), ParseErrorKind::Io);
    assert_eq!(err.line(), 4);
    assert_eq!(err.message(), "io error: stream did not contain valid UTF-8");
}

#[test]
fn weight_overflow_is_detected() {
    let err = parse("weight_overflow.dimacs");
    assert_eq!(err.kind(), ParseErrorKind::NonNumericField);
    assert_eq!(err.line(), 3);
    assert_eq!(err.message(), "invalid weight");
}

#[test]
fn crlf_out_of_range_arc_is_detected() {
    let err = parse("crlf_out_of_range.dimacs");
    assert_eq!(err.kind(), ParseErrorKind::OutOfRangeEndpoint);
    assert_eq!(err.line(), 4);
    assert_eq!(err.message(), "endpoint out of range 1..=3");
}

#[test]
fn every_corpus_file_fails_without_panicking() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/bad");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus directory exists") {
        let path = entry.expect("readable entry").path();
        if !path.is_file() {
            continue;
        }
        seen += 1;
        let file = File::open(&path).expect("open corpus file");
        let err = read_dimacs(&mut BufReader::new(file))
            .expect_err("bad corpus files must not parse");
        // Every error carries a usable location and classification.
        let _ = err.kind();
        assert!(err.to_string().contains("line"), "{err}");
    }
    assert!(seen >= 7, "expected the seven seeded corpus files, saw {seen}");
}

#[test]
fn arbitrary_byte_noise_never_panics() {
    // Fixed pseudo-random byte soup (xorshift) fed straight into the
    // parser: any outcome is fine except a panic.
    let mut state = 0x9e3779b97f4a7c15u64;
    for len in [0usize, 1, 7, 64, 513, 4096] {
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            bytes.push((state & 0xff) as u8);
        }
        let _ = read_dimacs(&mut bytes.as_slice());
    }
}
