//! The eight workspace contract rules (MCRL007 is retired).
//!
//! | id      | allow tag        | contract                                              |
//! |---------|------------------|-------------------------------------------------------|
//! | MCRL001 | `budget`         | algorithm loops charge a budget and poll time/cancel  |
//! | MCRL002 | `chaos`          | chaos sites match the central manifest exactly once   |
//! | MCRL003 | `float-eq`       | no bare `==`/`!=` on `f64` expressions in solver code |
//! | MCRL004 | `narrowing-cast` | no narrowing `as` casts in graph/core hot paths       |
//! | MCRL005 | `panic`          | parser/solver/driver/fallback layers are panic-free   |
//! | MCRL006 | `obs`            | budget-charging algorithm loops register loop metrics |
//! | MCRL008 | `serve`          | every serve-layer request handler installs the guard  |
//! | MCRL009 | `retry`          | network connect/send loops are bounded by RetryPolicy |
//!
//! MCRL000 reports a malformed `// lint: allow(...)` comment (typos in
//! the allowlist must never silently disable a rule).

use crate::scan::{Scanned, TokKind, Token};

/// Rule tags accepted inside `// lint: allow(<tag>) reason=...`.
pub const KNOWN_ALLOW_TAGS: [&str; 12] = [
    "budget",
    "chaos",
    "float-eq",
    "narrowing-cast",
    "panic",
    "obs",
    "serve",
    "retry",
    "nondet",
    "wire-schema",
    "status-map",
    "lock-order",
];

/// One finding, position included.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable rule id (`MCRL00x`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
    /// Suppressed by a well-formed inline allowlist comment.
    pub allowed: bool,
}

/// A chaos failpoint site referenced from source, for the cross-file
/// manifest check.
#[derive(Clone, Debug)]
pub struct ChaosUse {
    pub site: String,
    pub file: String,
    pub line: u32,
    pub allowed: bool,
}

fn diag(
    out: &mut Vec<Diagnostic>,
    s: &Scanned,
    rule: &'static str,
    tag: &str,
    file: &str,
    line: u32,
    message: String,
) {
    out.push(Diagnostic {
        rule,
        file: file.to_string(),
        line,
        message,
        allowed: s.is_allowed(tag, line),
    });
}

/// MCRL000: malformed allowlist comments (never suppressible).
pub fn check_allow_syntax(file: &str, s: &Scanned, out: &mut Vec<Diagnostic>) {
    for m in &s.malformed_allows {
        out.push(Diagnostic {
            rule: "MCRL000",
            file: file.to_string(),
            line: m.line,
            message: format!("malformed lint allow comment: {}", m.detail),
            allowed: false,
        });
    }
}

/// MCRL001: every function in `crates/core/src/algorithms/` that takes
/// a `BudgetScope` and loops must charge the budget
/// (`tick_iteration`/`tick_refinement`) and poll the shared
/// deadline/cancellation token (`check_time`, or the combined
/// `tick_iteration_and_time`) somewhere in its body.
pub fn check_budget_coverage(file: &str, s: &Scanned, out: &mut Vec<Diagnostic>) {
    let toks = &s.tokens;
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "fn") {
            i += 1;
            continue;
        }
        // `fn` in type position (`fn(...)`) has no name token.
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        if s.is_test_line(toks[i].line) {
            i += 1;
            continue;
        }
        let fn_line = toks[i].line;
        // Parameter list: the first `(` after the name, to its match.
        let Some(popen) = (i + 1..toks.len()).find(|&k| toks[k].text == "(") else {
            break;
        };
        let Some(pclose) = matching(toks, popen, "(", ")") else {
            break;
        };
        let takes_scope = toks[popen..=pclose]
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "BudgetScope");
        // Body: the first `{` after the parameter list, to its match
        // (trait-style declarations ending in `;` have none).
        let body_open = (pclose..toks.len()).find(|&k| toks[k].text == "{" || toks[k].text == ";");
        let (bopen, bclose) = match body_open {
            Some(k) if toks[k].text == "{" => match matching(toks, k, "{", "}") {
                Some(c) => (k, c),
                None => break,
            },
            _ => {
                i = pclose + 1;
                continue;
            }
        };
        if takes_scope {
            let body = &toks[bopen..=bclose];
            let has_loop = body
                .iter()
                .any(|t| t.kind == TokKind::Ident && matches!(t.text.as_str(), "loop" | "while" | "for"));
            if has_loop {
                let has = |names: &[&str]| {
                    body.iter()
                        .any(|t| t.kind == TokKind::Ident && names.contains(&t.text.as_str()))
                };
                let charges =
                    has(&["tick_iteration", "tick_refinement", "tick_iteration_and_time"]);
                let polls = has(&["check_time", "tick_iteration_and_time"]);
                if !(charges && polls) {
                    let mut missing = Vec::new();
                    if !charges {
                        missing.push("a budget charge (tick_iteration/tick_refinement)");
                    }
                    if !polls {
                        missing.push("a deadline/cancellation poll (check_time)");
                    }
                    diag(
                        out,
                        s,
                        "MCRL001",
                        "budget",
                        file,
                        fn_line,
                        format!(
                            "algorithm loop in `{}` takes a BudgetScope but is missing {}",
                            name.text,
                            missing.join(" and ")
                        ),
                    );
                }
            }
        }
        // Continue scanning inside the body too (nested fns).
        i += 1;
    }
}

/// MCRL006: every function in `crates/core/src/algorithms/` whose loop
/// charges a [`BudgetScope`] must also register the loop with the
/// observability metrics registry via `scope.loop_metrics("<site>")`,
/// so `--features obs` builds report `loop.<site>.*` counters for every
/// budgeted algorithm loop. Helpers that loop without charging (their
/// work is charged by the caller's mark) are exempt, as is anything
/// outside the algorithms tree.
pub fn check_obs_coverage(file: &str, s: &Scanned, out: &mut Vec<Diagnostic>) {
    let toks = &s.tokens;
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "fn") {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        if s.is_test_line(toks[i].line) {
            i += 1;
            continue;
        }
        let fn_line = toks[i].line;
        let Some(popen) = (i + 1..toks.len()).find(|&k| toks[k].text == "(") else {
            break;
        };
        let Some(pclose) = matching(toks, popen, "(", ")") else {
            break;
        };
        let takes_scope = toks[popen..=pclose]
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "BudgetScope");
        let body_open = (pclose..toks.len()).find(|&k| toks[k].text == "{" || toks[k].text == ";");
        let (bopen, bclose) = match body_open {
            Some(k) if toks[k].text == "{" => match matching(toks, k, "{", "}") {
                Some(c) => (k, c),
                None => break,
            },
            _ => {
                i = pclose + 1;
                continue;
            }
        };
        if takes_scope {
            let body = &toks[bopen..=bclose];
            let has = |names: &[&str]| {
                body.iter()
                    .any(|t| t.kind == TokKind::Ident && names.contains(&t.text.as_str()))
            };
            let has_loop = has(&["loop", "while", "for"]);
            let charges = has(&["tick_iteration", "tick_refinement", "tick_iteration_and_time"]);
            if has_loop && charges && !has(&["loop_metrics"]) {
                diag(
                    out,
                    s,
                    "MCRL006",
                    "obs",
                    file,
                    fn_line,
                    format!(
                        "budgeted loop in `{}` never calls scope.loop_metrics(\"<site>\"): \
                         its work would be invisible to the obs metrics registry",
                        name.text
                    ),
                );
            }
        }
        i += 1;
    }
}

/// Collects `chaos_check("…")` / `pulse("…")` / `mcr_chaos::hit("…")`
/// sites with string-literal arguments (the manifest comparison itself
/// is cross-file and lives in [`crate::run_workspace`]).
pub fn collect_chaos_uses(file: &str, s: &Scanned, uses: &mut Vec<ChaosUse>) {
    let toks = &s.tokens;
    // The n-th Str token corresponds to the n-th recorded literal.
    let mut str_idx = 0usize;
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Str {
            let is_site_call = i >= 2
                && toks[i - 1].text == "("
                && toks[i - 2].kind == TokKind::Ident
                && matches!(
                    toks[i - 2].text.as_str(),
                    "chaos_check" | "pulse" | "fail_hit" | "hit"
                );
            if is_site_call && !s.is_test_line(toks[i].line) {
                if let Some(lit) = s.strings.get(str_idx) {
                    uses.push(ChaosUse {
                        site: lit.value.clone(),
                        file: file.to_string(),
                        line: toks[i].line,
                        allowed: s.is_allowed("chaos", toks[i].line),
                    });
                }
            }
            str_idx += 1;
        }
        i += 1;
    }
}

/// MCRL003: no bare `==`/`!=` where either operand looks like an `f64`
/// expression (float literal, `to_f64()`, `as f64`, `f64::` paths).
/// Magnitude comparisons against an epsilon are the sanctioned idiom.
pub fn check_float_eq(file: &str, s: &Scanned, out: &mut Vec<Diagnostic>) {
    let toks = &s.tokens;
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Punct || !(toks[i].text == "==" || toks[i].text == "!=") {
            continue;
        }
        if s.is_test_line(toks[i].line) {
            continue;
        }
        if operand_is_floatish(toks, i, true) || operand_is_floatish(toks, i, false) {
            diag(
                out,
                s,
                "MCRL003",
                "float-eq",
                file,
                toks[i].line,
                format!(
                    "bare `{}` on an f64 expression; compare via an epsilon helper instead",
                    toks[i].text
                ),
            );
        }
    }
}

/// Whether the operand on one side of a comparison contains a float
/// marker. Walks at most 64 tokens, through balanced groups, stopping
/// at the expression boundary.
fn operand_is_floatish(toks: &[Token], op: usize, forward: bool) -> bool {
    const BOUNDARY_PUNCT: [&str; 17] = [
        ",", ";", "{", "}", "==", "!=", "<", ">", "<=", ">=", "=", "&&", "||", "?", "=>", "->",
        "..",
    ];
    const BOUNDARY_KW: [&str; 9] = [
        "if", "else", "while", "for", "match", "return", "let", "in", "debug_assert",
    ];
    let mut depth: i32 = 0;
    let mut steps = 0;
    let mut k = op;
    loop {
        if forward {
            k += 1;
            if k >= toks.len() {
                return false;
            }
        } else {
            if k == 0 {
                return false;
            }
            k -= 1;
        }
        steps += 1;
        if steps > 64 {
            return false;
        }
        let t = &toks[k];
        if t.kind == TokKind::Punct {
            let open = t.text == "(" || t.text == "[";
            let close = t.text == ")" || t.text == "]";
            if (forward && open) || (!forward && close) {
                depth += 1;
                continue;
            }
            if (forward && close) || (!forward && open) {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
                continue;
            }
            if depth == 0 && BOUNDARY_PUNCT.contains(&t.text.as_str()) {
                return false;
            }
        }
        if t.kind == TokKind::Ident && depth == 0 && BOUNDARY_KW.contains(&t.text.as_str()) {
            return false;
        }
        if t.kind == TokKind::Float {
            return true;
        }
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "f64" | "f32" | "to_f64" | "to_f32")
        {
            return true;
        }
    }
}

/// MCRL004: no `as` casts to a type narrower than the graph's index
/// domain (`usize`/`i64`) in graph/core hot paths. `try_into` at
/// fallible boundaries, or the bound-guaranteed helpers
/// (`mcr_graph::compact`), are the sanctioned idioms.
pub fn check_narrowing_casts(file: &str, s: &Scanned, out: &mut Vec<Diagnostic>) {
    const NARROW: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];
    let toks = &s.tokens;
    for i in 0..toks.len().saturating_sub(1) {
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "as"
            && toks[i + 1].kind == TokKind::Ident
            && NARROW.contains(&toks[i + 1].text.as_str())
            && !s.is_test_line(toks[i].line)
        {
            diag(
                out,
                s,
                "MCRL004",
                "narrowing-cast",
                file,
                toks[i].line,
                format!(
                    "narrowing `as {}` cast in a hot path; use try_into or a bound-guaranteed helper",
                    toks[i + 1].text
                ),
            );
        }
    }
}

/// MCRL005 (panic family): no `unwrap`/`expect`/`panic!`-family macros
/// in the panic-free layers.
pub fn check_panic_free(file: &str, s: &Scanned, out: &mut Vec<Diagnostic>) {
    let toks = &s.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || s.is_test_line(t.line) {
            continue;
        }
        let called = matches!(t.text.as_str(), "unwrap" | "expect")
            && i >= 1
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|n| n.text == "(");
        if called {
            diag(
                out,
                s,
                "MCRL005",
                "panic",
                file,
                t.line,
                format!(
                    "`.{}()` in a panic-free layer; return a typed SolveError/ParseError instead",
                    t.text
                ),
            );
            continue;
        }
        let panics = matches!(
            t.text.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && toks.get(i + 1).is_some_and(|n| n.text == "!");
        if panics {
            diag(
                out,
                s,
                "MCRL005",
                "panic",
                file,
                t.line,
                format!("`{}!` in a panic-free layer", t.text),
            );
        }
    }
}

/// MCRL005 (index family): no slice/array indexing (`x[i]`, `x[i..]`)
/// in the layers that must fail typed rather than panic. `get`/
/// `get_mut` with an error path is the sanctioned idiom.
pub fn check_no_indexing(file: &str, s: &Scanned, out: &mut Vec<Diagnostic>) {
    const NON_RECEIVER_KW: [&str; 12] = [
        "let", "in", "mut", "ref", "return", "as", "if", "else", "match", "move", "box", "use",
    ];
    let toks = &s.tokens;
    for i in 1..toks.len() {
        if toks[i].text != "[" || s.is_test_line(toks[i].line) {
            continue;
        }
        let prev = &toks[i - 1];
        let is_receiver = match prev.kind {
            TokKind::Ident => !NON_RECEIVER_KW.contains(&prev.text.as_str()),
            TokKind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
            _ => false,
        };
        if is_receiver {
            diag(
                out,
                s,
                "MCRL005",
                "panic",
                file,
                toks[i].line,
                "slice indexing in a panic-free layer; use get()/get_mut() with an error path"
                    .to_string(),
            );
        }
    }
}

/// MCRL008: every non-test `fn handle_*` in the serve layer must
/// install the per-request [`RequestGuard`] — the one object tying a
/// request's deadline, budget, and frame-size cap together. A handler
/// that skips the guard runs outside the containment boundary: its
/// work is invisible to admission control and can outlive its
/// deadline. The guard module itself (`guard.rs`) must keep mentioning
/// `BudgetScope` and `MAX_FRAME_LEN`, so the tie between the solver
/// budget machinery and the wire-level cap cannot silently dissolve
/// into a stub.
pub fn check_serve_handlers(file: &str, s: &Scanned, out: &mut Vec<Diagnostic>) {
    let toks = &s.tokens;
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "fn") {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        if !name.text.starts_with("handle_") || s.is_test_line(toks[i].line) {
            i += 1;
            continue;
        }
        let fn_line = toks[i].line;
        let Some(popen) = (i + 1..toks.len()).find(|&k| toks[k].text == "(") else {
            break;
        };
        let Some(pclose) = matching(toks, popen, "(", ")") else {
            break;
        };
        let body_open = (pclose..toks.len()).find(|&k| toks[k].text == "{" || toks[k].text == ";");
        let (bopen, bclose) = match body_open {
            Some(k) if toks[k].text == "{" => match matching(toks, k, "{", "}") {
                Some(c) => (k, c),
                None => break,
            },
            _ => {
                i = pclose + 1;
                continue;
            }
        };
        let guarded = toks[bopen..=bclose]
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "RequestGuard");
        if !guarded {
            diag(
                out,
                s,
                "MCRL008",
                "serve",
                file,
                fn_line,
                format!(
                    "request handler `{}` never installs a RequestGuard: its work would \
                     run outside the deadline/frame-cap containment boundary",
                    name.text
                ),
            );
        }
        i += 1;
    }
    if file.ends_with("/guard.rs") {
        for ident in ["BudgetScope", "MAX_FRAME_LEN"] {
            if !toks
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text == ident)
            {
                diag(
                    out,
                    s,
                    "MCRL008",
                    "serve",
                    file,
                    1,
                    format!(
                        "serve guard module never mentions `{ident}`; RequestGuard must \
                         tie the request budget and the frame cap together"
                    ),
                );
            }
        }
    }
}

/// MCRL009: a non-test function in the network layer whose loop
/// connects or writes frames must be bounded by the retry machinery —
/// the function has to reference `RetryPolicy`, `attempt_allowed`, or
/// `max_attempts` so the loop provably cannot spin on a dead peer
/// forever. An unbounded reconnect loop is the classic retry-storm
/// bug: it turns one shard's crash into a fleet-wide connect flood.
pub fn check_network_retry(file: &str, s: &Scanned, out: &mut Vec<Diagnostic>) {
    const LOOP_KEYWORDS: [&str; 3] = ["loop", "while", "for"];
    const NET_CALLS: [&str; 2] = ["connect", "write_frame"];
    const BOUNDS: [&str; 3] = ["RetryPolicy", "attempt_allowed", "max_attempts"];
    let toks = &s.tokens;
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "fn") {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        if s.is_test_line(toks[i].line) {
            i += 1;
            continue;
        }
        let fn_line = toks[i].line;
        let Some(popen) = (i + 1..toks.len()).find(|&k| toks[k].text == "(") else {
            break;
        };
        let Some(pclose) = matching(toks, popen, "(", ")") else {
            break;
        };
        let body_open = (pclose..toks.len()).find(|&k| toks[k].text == "{" || toks[k].text == ";");
        let (bopen, bclose) = match body_open {
            Some(k) if toks[k].text == "{" => match matching(toks, k, "{", "}") {
                Some(c) => (k, c),
                None => break,
            },
            _ => {
                i = pclose + 1;
                continue;
            }
        };
        // Signature + body: a `retry: &RetryPolicy` parameter counts
        // as the bound, same as a call to `attempt_allowed` inside.
        let bounded = toks[i..=bclose]
            .iter()
            .any(|t| t.kind == TokKind::Ident && BOUNDS.contains(&t.text.as_str()));
        if !bounded {
            let mut k = bopen;
            while k < bclose {
                let t = &toks[k];
                if !(t.kind == TokKind::Ident && LOOP_KEYWORDS.contains(&t.text.as_str())) {
                    k += 1;
                    continue;
                }
                let Some(lopen) = (k + 1..bclose).find(|&j| toks[j].text == "{") else {
                    break;
                };
                let Some(lclose) = matching(toks, lopen, "{", "}") else {
                    break;
                };
                // Keyword through close brace: `while connect(..).is_err() {}`
                // keeps the network call in the condition, not the body.
                let networked = toks[k..=lclose].iter().any(|t| {
                    t.kind == TokKind::Ident
                        && NET_CALLS.iter().any(|call| t.text.starts_with(call))
                });
                if networked {
                    diag(
                        out,
                        s,
                        "MCRL009",
                        "retry",
                        file,
                        fn_line,
                        format!(
                            "`{}` loops over a network connect/send without a bounded \
                             retry: route the loop through RetryPolicy (attempt_allowed \
                             / max_attempts) so a dead peer cannot spin it forever",
                            name.text
                        ),
                    );
                    break;
                }
                k = lclose + 1;
            }
        }
        i += 1;
    }
}

/// Index of the token matching `open` at `at`, honoring nesting.
fn matching(toks: &[Token], at: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(at) {
        if t.kind == TokKind::Punct || t.kind == TokKind::Ident {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn run<F: Fn(&str, &Scanned, &mut Vec<Diagnostic>)>(src: &str, f: F) -> Vec<Diagnostic> {
        let s = scan(src);
        let mut out = Vec::new();
        f("test.rs", &s, &mut out);
        out
    }

    #[test]
    fn budget_rule_fires_on_unticked_loop() {
        let src = "fn solve(g: &Graph, scope: &mut BudgetScope) -> R {\n\
                   \x20 for a in g.arcs() { relax(a); }\n\
                   }\n";
        let d = run(src, check_budget_coverage);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "MCRL001");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn budget_rule_passes_ticked_loop_and_scopeless_helpers() {
        let src = "fn solve(scope: &mut BudgetScope) {\n\
                   \x20 loop { scope.tick_iteration_and_time()?; }\n\
                   }\n\
                   fn helper(n: usize) { for _ in 0..n {} }\n";
        assert!(run(src, check_budget_coverage).is_empty());
    }

    #[test]
    fn obs_rule_fires_on_unmarked_ticking_loop() {
        let src = "fn solve(scope: &mut BudgetScope) -> R {\n\
                   \x20 loop { scope.tick_iteration_and_time()?; }\n\
                   }\n";
        let d = run(src, check_obs_coverage);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "MCRL006");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn obs_rule_passes_marked_loops_and_chargeless_helpers() {
        // Marked loop: compliant. Loop that never charges the budget:
        // exempt (its work is charged under the caller's mark).
        let src = "fn solve(scope: &mut BudgetScope) {\n\
                   \x20 scope.loop_metrics(\"core.x.loop\");\n\
                   \x20 loop { scope.tick_iteration_and_time()?; }\n\
                   }\n\
                   fn helper(scope: &BudgetScope, n: usize) { for _ in 0..n {} }\n";
        assert!(run(src, check_obs_coverage).is_empty());
    }

    #[test]
    fn float_eq_fires_on_literal_and_to_f64() {
        let d = run("fn f(x: f64) { if x == 0.0 {} }", check_float_eq);
        assert_eq!(d.len(), 1, "{d:?}");
        let d = run("fn f() { let b = a.to_f64() != b; }", check_float_eq);
        assert_eq!(d.len(), 1);
        assert!(run("fn f() { let y = n == 0; }", check_float_eq).is_empty());
        // Ordered comparisons are the sanctioned idiom.
        assert!(run("fn f(d: f64) { if d > 0.0 {} }", check_float_eq).is_empty());
    }

    #[test]
    fn narrowing_cast_fires_and_u64_does_not() {
        let d = run("fn f(n: usize) -> u32 { n as u32 }", check_narrowing_casts);
        assert_eq!(d.len(), 1);
        assert!(run("fn f(n: usize) -> u64 { n as u64 }", check_narrowing_casts).is_empty());
    }

    #[test]
    fn panic_family_and_indexing_fire() {
        let d = run("fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"n\"); }", |f, s, o| {
            check_panic_free(f, s, o);
        });
        assert_eq!(d.len(), 3);
        let d = run("fn f() { let y = v[i]; }", check_no_indexing);
        assert_eq!(d.len(), 1);
        // Macros, attributes, types, and array literals are not indexing.
        let src = "#[derive(Debug)]\nfn f(a: &[u8]) { let v = vec![0; 4]; let w = [1, 2]; }";
        assert!(run(src, check_no_indexing).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        assert!(run("fn f() { x.unwrap_or(0); e.expect_err(\"m\"); }", |f, s, o| {
            check_panic_free(f, s, o);
        })
        .is_empty());
    }

    #[test]
    fn allowlisted_sites_are_marked_allowed() {
        let src = "fn f() {\n\
                   \x20 // lint: allow(panic) reason=cursor bounded by len\n\
                   \x20 x.unwrap();\n\
                   \x20 y.unwrap();\n\
                   }\n";
        let d = run(src, check_panic_free);
        assert_eq!(d.len(), 2);
        assert!(d[0].allowed, "line under the allow comment is suppressed");
        assert!(!d[1].allowed, "the allow does not leak further down");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); let z = 1.0 == y; }\n}\n";
        assert!(run(src, check_panic_free).is_empty());
        assert!(run(src, check_float_eq).is_empty());
    }

    #[test]
    fn serve_rule_fires_on_unguarded_handler() {
        let src = "fn handle_ping(shared: &Shared, id: u64) -> Flow {\n\
                   \x20 reply(shared, id)\n\
                   }\n";
        let d = run(src, check_serve_handlers);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "MCRL008");
        assert_eq!(d[0].line, 1);
        assert!(d[0].message.contains("handle_ping"));
    }

    #[test]
    fn serve_rule_passes_guarded_handlers_and_non_handlers() {
        let src = "fn handle_solve(shared: &Shared, id: u64) -> Flow {\n\
                   \x20 let _g = RequestGuard::install(&b, d, now, alg, n)?;\n\
                   \x20 solve(shared, id)\n\
                   }\n\
                   fn dispatch(op: Op) { route(op); }\n";
        assert!(run(src, check_serve_handlers).is_empty());
    }

    #[test]
    fn serve_rule_skips_test_handlers() {
        let src = "#[cfg(test)]\nmod tests {\n fn handle_fake(x: u64) { drop(x); }\n}\n";
        assert!(run(src, check_serve_handlers).is_empty());
    }

    #[test]
    fn serve_rule_guards_the_guard_module_itself() {
        // A stub guard.rs that lost the frame-cap tie must fire; the
        // same source under any other file name must not.
        let src = "pub struct RequestGuard { scope: BudgetScope }\n";
        let s = scan(src);
        let mut d = Vec::new();
        check_serve_handlers("crates/serve/src/guard.rs", &s, &mut d);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "MCRL008");
        assert!(d[0].message.contains("MAX_FRAME_LEN"));
        assert!(run(src, check_serve_handlers).is_empty());
    }

    #[test]
    fn retry_rule_fires_on_unbounded_connect_loop() {
        let src = "fn reconnect(addr: &str) -> TcpStream {\n\
                   \x20 loop {\n\
                   \x20   if let Ok(s) = TcpStream::connect(addr) { return s; }\n\
                   \x20 }\n\
                   }\n";
        let d = run(src, check_network_retry);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "MCRL009");
        assert_eq!(d[0].line, 1);
        assert!(d[0].message.contains("reconnect"));
    }

    #[test]
    fn retry_rule_fires_on_unbounded_send_loop() {
        let src = "fn pump(w: &mut TcpStream, lines: &[String]) {\n\
                   \x20 for line in lines { while write_frame(w, line.as_bytes()).is_err() {} }\n\
                   }\n";
        let d = run(src, check_network_retry);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "MCRL009");
    }

    #[test]
    fn retry_rule_passes_bounded_loops_and_offline_code() {
        // A RetryPolicy parameter bounds the whole function.
        let src = "fn replay(retry: &RetryPolicy, lines: &[String]) {\n\
                   \x20 for line in lines {\n\
                   \x20   if !retry.attempt_allowed(0) { continue; }\n\
                   \x20   write_frame(&mut w, line.as_bytes());\n\
                   \x20 }\n\
                   }\n";
        assert!(run(src, check_network_retry).is_empty());
        // attempt_allowed alone (policy reached through a config) too.
        let src = "fn settle(cfg: &FleetConfig) {\n\
                   \x20 while cfg.retry.attempt_allowed(n) { connect_shard(e, t); }\n\
                   }\n";
        assert!(run(src, check_network_retry).is_empty());
        // Loops that never touch the network are out of scope.
        let src = "fn sum(xs: &[u64]) -> u64 { let mut t = 0; for x in xs { t += x; } t }\n";
        assert!(run(src, check_network_retry).is_empty());
    }

    #[test]
    fn retry_rule_skips_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { loop { connect(a); } }\n}\n";
        assert!(run(src, check_network_retry).is_empty());
    }

    #[test]
    fn chaos_uses_are_collected() {
        let src = "fn f(scope: &S) { scope.chaos_check(\"core.karp.level\")?; pulse(\"core.driver.job\"); }";
        let s = scan(src);
        let mut uses = Vec::new();
        collect_chaos_uses("x.rs", &s, &mut uses);
        let names: Vec<_> = uses.iter().map(|u| u.site.as_str()).collect();
        assert_eq!(names, ["core.karp.level", "core.driver.job"]);
    }
}
