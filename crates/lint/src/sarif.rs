//! SARIF 2.1.0 output, hand-rolled like the rest of the crate's JSON
//! (the linter stays dependency-free).
//!
//! One run, one driver (`mcr-lint`), a static rule-metadata table, and
//! one result per diagnostic. Suppressed findings are emitted with a
//! SARIF `suppressions` entry rather than dropped, so code-scanning
//! UIs show the accepted debt instead of pretending it isn't there:
//! inline `// lint: allow` comments map to `"kind": "inSource"`,
//! baseline entries to `"kind": "external"`.

use crate::{json_escape, Report};

/// The rule-metadata table: id, one-line description. Kept in rule-id
/// order; the SARIF `ruleIndex` of each result indexes into this.
/// MCRL007 and MCRL012 are retired (their chunked-sweep engine is gone)
/// and are never reused.
pub const RULES: [(&str, &str); 13] = [
    ("MCRL000", "Malformed lint allowlist comment"),
    ("MCRL001", "Solver loop missing budget/cancellation charge"),
    ("MCRL002", "Chaos failpoint site not in the central manifest"),
    ("MCRL003", "Bare f64 equality in solver code"),
    ("MCRL004", "Narrowing as-cast on a hot path"),
    ("MCRL005", "Panic or unchecked indexing in a panic-free layer"),
    ("MCRL006", "Budgeted loop missing its metrics registration"),
    ("MCRL008", "Serve handler missing the per-request guard"),
    ("MCRL009", "Network path missing retry/backoff classification"),
    ("MCRL010", "Nondeterminism in an ordering-sensitive scope"),
    ("MCRL011", "Wire field not matching the schemas/ manifest"),
    ("MCRL013", "SolveStatus variant missing from a status table"),
    ("MCRL014", "Nested lock acquisition violates the declared order"),
];

fn rule_index(id: &str) -> Option<usize> {
    RULES.iter().position(|(r, _)| *r == id)
}

/// Renders the report as a SARIF 2.1.0 log.
pub fn to_sarif(report: &Report) -> String {
    let mut s = String::from(
        "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\
         \"name\":\"mcr-lint\",\"informationUri\":\
         \"https://example.com/mcr\",\"rules\":[",
    );
    for (i, (id, desc)) in RULES.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"id\":\"{id}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
            json_escape(desc)
        ));
    }
    s.push_str("]}},\"results\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"ruleId\":\"{}\"{},\"level\":\"error\",\
             \"message\":{{\"text\":\"{}\"}},\
             \"locations\":[{{\"physicalLocation\":{{\
             \"artifactLocation\":{{\"uri\":\"{}\",\"uriBaseId\":\"%SRCROOT%\"}},\
             \"region\":{{\"startLine\":{}}}}}}}]",
            d.rule,
            rule_index(d.rule)
                .map(|ix| format!(",\"ruleIndex\":{ix}"))
                .unwrap_or_default(),
            json_escape(&d.message),
            json_escape(&d.file),
            d.line.max(1)
        ));
        if d.allowed {
            s.push_str(",\"suppressions\":[{\"kind\":\"inSource\"}]");
        } else if report
            .baselined
            .iter()
            .any(|(r, f, l)| r == d.rule && *f == d.file && *l == d.line)
        {
            s.push_str(",\"suppressions\":[{\"kind\":\"external\"}]");
        }
        s.push('}');
    }
    s.push_str("]}]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Diagnostic;

    #[test]
    fn sarif_carries_results_and_suppressions() {
        let report = Report {
            diagnostics: vec![
                Diagnostic {
                    rule: "MCRL010",
                    file: "crates/serve/src/server.rs".to_string(),
                    line: 146,
                    message: "order-unstable `HashMap`".to_string(),
                    allowed: false,
                },
                Diagnostic {
                    rule: "MCRL005",
                    file: "crates/core/src/driver.rs".to_string(),
                    line: 9,
                    message: "`unwrap` in a panic-free layer".to_string(),
                    allowed: true,
                },
            ],
            files_scanned: 2,
            baselined: vec![(
                "MCRL010".to_string(),
                "crates/serve/src/server.rs".to_string(),
                146,
            )],
        };
        let sarif = to_sarif(&report);
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("\"ruleId\":\"MCRL010\""));
        assert!(sarif.contains("\"startLine\":146"));
        assert!(sarif.contains("{\"kind\":\"external\"}"));
        assert!(sarif.contains("{\"kind\":\"inSource\"}"));
        // Every rule id appears in the metadata table.
        for (id, _) in RULES {
            assert!(sarif.contains(&format!("\"id\":\"{id}\"")));
        }
    }
}
