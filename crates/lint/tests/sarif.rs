//! SARIF output guard: the fixture workspace's report must serialize to
//! syntactically valid JSON carrying the SARIF 2.1.0 envelope fields
//! that code-scanning upload endpoints require. The checker below is a
//! minimal JSON syntax validator (no dependencies), enough to catch an
//! unescaped quote or trailing comma in the hand-rolled writer.

use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

/// Validates JSON syntax; returns the rest of the input after one value.
fn json_value(s: &[u8]) -> Result<&[u8], String> {
    let s = skip_ws(s);
    match s.first() {
        Some(b'{') => json_seq(&s[1..], b'}', |s| {
            let s = json_string(skip_ws(s))?;
            let s = skip_ws(s);
            match s.first() {
                Some(b':') => json_value(&s[1..]),
                other => Err(format!("expected ':', got {other:?}")),
            }
        }),
        Some(b'[') => json_seq(&s[1..], b']', json_value),
        Some(b'"') => json_string(s),
        Some(b't') => expect(s, b"true"),
        Some(b'f') => expect(s, b"false"),
        Some(b'n') => expect(s, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let end = s[1..]
                .iter()
                .position(|c| !matches!(c, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
                .map(|i| i + 1)
                .unwrap_or(s.len());
            Ok(&s[end..])
        }
        other => Err(format!("unexpected {other:?}")),
    }
}

fn json_seq<'a>(
    mut s: &'a [u8],
    close: u8,
    item: impl Fn(&'a [u8]) -> Result<&'a [u8], String>,
) -> Result<&'a [u8], String> {
    s = skip_ws(s);
    if s.first() == Some(&close) {
        return Ok(&s[1..]);
    }
    loop {
        s = skip_ws(item(s)?);
        match s.first() {
            Some(b',') => s = skip_ws(&s[1..]),
            Some(c) if *c == close => return Ok(&s[1..]),
            other => return Err(format!("expected ',' or close, got {other:?}")),
        }
    }
}

fn json_string(s: &[u8]) -> Result<&[u8], String> {
    if s.first() != Some(&b'"') {
        return Err("expected string".into());
    }
    let mut i = 1;
    while i < s.len() {
        match s[i] {
            b'\\' => i += 2,
            b'"' => return Ok(&s[i + 1..]),
            _ => i += 1,
        }
    }
    Err("unterminated string".into())
}

fn expect<'a>(s: &'a [u8], word: &[u8]) -> Result<&'a [u8], String> {
    s.strip_prefix(word)
        .ok_or_else(|| format!("expected {}", String::from_utf8_lossy(word)))
}

fn skip_ws(s: &[u8]) -> &[u8] {
    let n = s
        .iter()
        .position(|c| !c.is_ascii_whitespace())
        .unwrap_or(s.len());
    &s[n..]
}

fn assert_valid_json(text: &str) {
    let rest = json_value(text.as_bytes()).unwrap_or_else(|e| panic!("invalid JSON: {e}"));
    assert!(
        skip_ws(rest).is_empty(),
        "trailing garbage after JSON value: {:?}",
        String::from_utf8_lossy(&rest[..rest.len().min(40)])
    );
}

#[test]
fn sarif_output_is_valid_json_with_the_required_envelope() {
    let report = mcr_lint::run_workspace(&fixture_root()).expect("fixture run");
    let sarif = mcr_lint::sarif::to_sarif(&report);
    assert_valid_json(&sarif);
    for needle in [
        "\"version\":\"2.1.0\"",
        "sarif-2.1.0.json",
        "\"name\":\"mcr-lint\"",
        "\"ruleIndex\":",
        "%SRCROOT%",
    ] {
        assert!(sarif.contains(needle), "missing {needle} in SARIF:\n{sarif}");
    }
    // Every fixture diagnostic surfaces as a result with its rule id,
    // and allowlisted ones carry an inSource suppression.
    assert!(sarif.contains("\"ruleId\":\"MCRL014\""));
    assert!(sarif.contains("\"kind\":\"inSource\""));
    // All thirteen live rules are declared in the driver's rule table;
    // the retired MCRL007 and MCRL012 are not.
    for i in 0..15 {
        let declared = sarif.contains(&format!("\"id\":\"MCRL{i:03}\""));
        let retired = i == 7 || i == 12;
        assert_eq!(declared, !retired, "rule MCRL{i:03} in the SARIF rules table");
    }
}

#[test]
fn json_report_is_valid_json_and_names_suppressions() {
    let report = mcr_lint::run_workspace(&fixture_root()).expect("fixture run");
    let json = mcr_lint::to_json(&report);
    assert_valid_json(&json);
    // The suppression inventory names each allowlisted finding's rule
    // and site — not just a count (the count-only shape was a bug).
    assert!(json.contains(
        "{\"rule\":\"MCRL014\",\"file\":\"crates/serve/src/locks_bad.rs\",\"line\":9,\"source\":\"allow\"}"
    ));
}
