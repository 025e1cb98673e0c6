//! The symbol-graph rules MCRL010–014, built on the engine layers
//! (lexer → scan → brace tree → symbol index).
//!
//! These rules protect the repo's two load-bearing contracts
//! structurally, before any golden test runs:
//!
//! * **MCRL010 `nondet`** — no order-unstable containers, wall-clock
//!   reads, or thread-id reads in ordering-sensitive scopes. The
//!   determinism guarantee (bit-identical results at any thread count)
//!   dies quietly when a `HashMap` iteration order reaches an output.
//! * **MCRL011 `wire-schema`** — every JSON field-name literal written
//!   or parsed for a versioned wire format must be declared in its
//!   committed `schemas/<format>.txt` manifest, and every manifest
//!   entry must still be produced or parsed somewhere. Adding a field
//!   without touching the manifest (and so the version review) is a
//!   lint error.
//! * **MCRL013 `status-map`** — every `SolveStatus` variant appears in
//!   the exit-code map, the wire-name table, `from_code`,
//!   `is_retryable`, and `ALL`; a new variant cannot ship half-mapped.
//! * **MCRL014 `lock-order`** — nested `Mutex` acquisitions in
//!   `crates/serve` follow the single declared order, checked through
//!   one level of interprocedural closure over the crate's call graph.

use crate::index::{self, Workspace};
use crate::rules::Diagnostic;
use crate::scan::{Scanned, TokKind, Token};
use crate::tree::{matching, FnItem};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

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

// ---------------------------------------------------------------------
// MCRL010: determinism scopes.
// ---------------------------------------------------------------------

/// Ordering-sensitive scope for order-unstable containers and thread-id
/// reads: everything whose iteration or identity could reach a wire
/// frame, a journal line, a trace event, or a solver output.
/// `cache.rs` is excluded deliberately — the graph cache is keyed
/// lookup only, with eviction ordered by its own `VecDeque`.
fn in_nondet_scope(rel: &str) -> bool {
    (rel.starts_with("crates/serve/src/") && rel != "crates/serve/src/cache.rs")
        || rel.starts_with("crates/obs/src/")
        || rel == "crates/graph/src/json.rs"
        || rel == "crates/core/src/driver.rs"
        || rel == "crates/core/src/solution.rs"
}

/// The narrower wall-clock scope: emitters and formats that must be
/// reproducible byte-for-byte. The daemon/client files are *not* here:
/// deadlines and backoff legitimately read `Instant::now`.
const WALL_SCOPE: [&str; 5] = [
    "crates/core/src/driver.rs",
    "crates/core/src/solution.rs",
    "crates/serve/src/protocol.rs",
    "crates/serve/src/metrics.rs",
    "crates/serve/src/journal.rs",
];

fn in_wall_scope(rel: &str) -> bool {
    rel.starts_with("crates/obs/src/") || WALL_SCOPE.contains(&rel)
}

/// MCRL010: no `HashMap`/`HashSet`, `Instant::now`/`SystemTime::now`,
/// or thread-id reads in ordering-sensitive scopes.
pub fn check_nondet(file: &str, s: &Scanned, out: &mut Vec<Diagnostic>) {
    let toks = &s.tokens;
    let container = in_nondet_scope(file);
    let wall = in_wall_scope(file);
    let mut seen_lines: BTreeSet<(u32, &str)> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || s.is_test_line(t.line) {
            continue;
        }
        let follows = |k: usize, text: &str| toks.get(i + k).is_some_and(|n| n.text == text);
        match t.text.as_str() {
            name @ ("HashMap" | "HashSet") if container => {
                if seen_lines.insert((t.line, "container")) {
                    diag(
                        out,
                        s,
                        "MCRL010",
                        "nondet",
                        file,
                        t.line,
                        format!(
                            "order-unstable `{name}` in an ordering-sensitive scope; \
                             use BTreeMap/BTreeSet or sort at the commit point"
                        ),
                    );
                }
            }
            name @ ("Instant" | "SystemTime")
                if wall && follows(1, "::") && follows(2, "now") =>
            {
                if seen_lines.insert((t.line, "wall")) {
                    diag(
                        out,
                        s,
                        "MCRL010",
                        "nondet",
                        file,
                        t.line,
                        format!(
                            "`{name}::now()` in a reproducible-output scope; \
                             thread timestamps through the caller or normalize them"
                        ),
                    );
                }
            }
            "thread" if container && follows(1, "::") && follows(2, "current") => {
                if seen_lines.insert((t.line, "thread")) {
                    diag(
                        out,
                        s,
                        "MCRL010",
                        "nondet",
                        file,
                        t.line,
                        "`thread::current()` identity read in an ordering-sensitive scope"
                            .to_string(),
                    );
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// MCRL011: wire-format schema manifests.
// ---------------------------------------------------------------------

/// The six versioned wire formats. A manifest file in `schemas/` that
/// names anything else is itself a violation.
pub const KNOWN_FORMATS: [&str; 6] = [
    "mcr-req-v1",
    "mcr-resp-v1",
    "mcr-trace-v1",
    "mcr-metrics-v1",
    "mcr-checkpoint-v2",
    "mcr-edits-v1",
];

/// Which formats a file writes/parses: every JSON field-name literal in
/// the file must belong to one of its formats' manifests.
const WIRE_FIELD_SCOPE: &[(&str, &[&str])] = &[
    (
        "crates/serve/src/protocol.rs",
        &["mcr-req-v1", "mcr-resp-v1", "mcr-edits-v1"],
    ),
    (
        "crates/serve/src/client.rs",
        &["mcr-req-v1", "mcr-resp-v1", "mcr-metrics-v1"],
    ),
    ("crates/serve/src/metrics.rs", &["mcr-metrics-v1"]),
    ("crates/core/src/edits.rs", &["mcr-edits-v1"]),
    ("crates/graph/src/edit.rs", &["mcr-edits-v1"]),
    ("crates/obs/src/lib.rs", &["mcr-trace-v1", "mcr-metrics-v1"]),
];

/// Where each manifest entry must still be visible as a string literal
/// (whole value or quoted/word occurrence) — the liveness direction,
/// catching stale manifest entries and renamed fields. The checkpoint
/// format is text, not JSON, so only this direction applies to it.
const WIRE_PRESENCE: &[(&str, &[&str])] = &[
    ("mcr-req-v1", &["crates/serve/src/protocol.rs"]),
    ("mcr-resp-v1", &["crates/serve/src/protocol.rs"]),
    (
        "mcr-trace-v1",
        &["crates/obs/src/lib.rs", "crates/core/src/obs.rs"],
    ),
    (
        "mcr-metrics-v1",
        &["crates/serve/src/metrics.rs", "crates/obs/src/lib.rs"],
    ),
    ("mcr-checkpoint-v2", &["crates/core/src/checkpoint.rs"]),
    (
        "mcr-edits-v1",
        &[
            "crates/core/src/edits.rs",
            "crates/graph/src/edit.rs",
            "crates/serve/src/protocol.rs",
        ],
    ),
];

/// The writer/parser methods whose first string-literal argument is a
/// JSON field name (the `mcr_graph::json` `ObjWriter` and `Value`
/// surfaces, and the edit-script reader's `str`/`int` field getters).
const FIELD_METHODS: [&str; 7] = ["str", "u64", "f64", "bool", "raw", "get", "int"];

/// One parsed manifest: `schemas/<format>.txt`, one field per line.
pub struct WireManifest {
    pub format: String,
    /// Workspace-relative manifest path.
    pub file: String,
    /// (field, 1-based manifest line).
    pub entries: Vec<(String, u32)>,
}

/// Loads every `schemas/*.txt` manifest under `root`.
pub fn load_manifests(root: &Path) -> Result<Vec<WireManifest>, String> {
    let dir = root.join("schemas");
    let mut names: Vec<String> = fs::read_dir(&dir)
        .map_err(|e| format!("failed to list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".txt"))
        .collect();
    names.sort();
    let mut manifests = Vec::new();
    for name in names {
        let path = dir.join(&name);
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("failed to read {}: {e}", path.display()))?;
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            entries.push((line.to_string(), idx as u32 + 1));
        }
        manifests.push(WireManifest {
            format: name.trim_end_matches(".txt").to_string(),
            file: format!("schemas/{name}"),
            entries,
        });
    }
    Ok(manifests)
}

/// Whether a source literal "mentions" a manifest entry: the whole
/// value, or a word inside a larger literal (covers `"job {} ..."`
/// format strings and `,"dedup":true` splices).
fn literal_mentions(value: &str, entry: &str) -> bool {
    value == entry
        || value
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
            .any(|w| w == entry)
}

/// MCRL011, per-file direction: every field-name literal handed to a
/// writer/parser method must be declared in one of the file's format
/// manifests.
pub fn check_wire_fields(
    file: &str,
    s: &Scanned,
    manifests: &[WireManifest],
    out: &mut Vec<Diagnostic>,
) {
    let Some((_, formats)) = WIRE_FIELD_SCOPE.iter().find(|(f, _)| *f == file) else {
        return;
    };
    let declared: BTreeSet<&str> = manifests
        .iter()
        .filter(|m| formats.contains(&m.format.as_str()))
        .flat_map(|m| m.entries.iter().map(|(e, _)| e.as_str()))
        .collect();
    let toks = &s.tokens;
    let mut str_idx = 0usize;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Str {
            continue;
        }
        let idx = str_idx;
        str_idx += 1;
        // `.method("field", ...)` — the literal directly after the
        // opening paren of a field-taking method call.
        let is_field = i >= 3
            && toks[i - 1].text == "("
            && toks[i - 2].kind == TokKind::Ident
            && FIELD_METHODS.contains(&toks[i - 2].text.as_str())
            && toks[i - 3].text == ".";
        if !is_field || s.is_test_line(t.line) {
            continue;
        }
        let Some(lit) = s.strings.get(idx) else {
            continue;
        };
        if !declared.contains(lit.value.as_str()) {
            diag(
                out,
                s,
                "MCRL011",
                "wire-schema",
                file,
                t.line,
                format!(
                    "JSON field `{}` is not declared in the {} manifest(s) under schemas/; \
                     declare it (and review the format version) or fix the name",
                    lit.value,
                    formats.join("/")
                ),
            );
        }
    }
}

/// MCRL011, manifest direction: unknown manifest files, and entries no
/// longer visible in their format's producer/parser files.
pub fn check_wire_manifests(
    ws: &Workspace,
    manifests: &[WireManifest],
    out: &mut Vec<Diagnostic>,
) {
    for m in manifests {
        if !KNOWN_FORMATS.contains(&m.format.as_str()) {
            out.push(Diagnostic {
                rule: "MCRL011",
                file: m.file.clone(),
                line: 1,
                message: format!(
                    "`{}` does not name a known wire format (known: {})",
                    m.file,
                    KNOWN_FORMATS.join(", ")
                ),
                allowed: false,
            });
            continue;
        }
        let Some((_, files)) = WIRE_PRESENCE.iter().find(|(f, _)| *f == m.format) else {
            continue;
        };
        // Only check presence against files that exist in this
        // workspace (the fixture workspace carries a subset).
        let sources: Vec<&index::FileModel> =
            files.iter().filter_map(|f| ws.file(f)).collect();
        if sources.is_empty() {
            continue;
        }
        for (entry, line) in &m.entries {
            let alive = sources.iter().any(|f| {
                f.scanned
                    .strings
                    .iter()
                    .any(|lit| literal_mentions(&lit.value, entry))
            });
            if !alive {
                out.push(Diagnostic {
                    rule: "MCRL011",
                    file: m.file.clone(),
                    line: *line,
                    message: format!(
                        "manifest field `{entry}` of `{}` is no longer produced or parsed by {}; \
                         remove the stale entry or restore the field",
                        m.format,
                        files.join(", ")
                    ),
                    allowed: false,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// MCRL013: total SolveStatus maps.
// ---------------------------------------------------------------------

/// The file owning the status taxonomy, and the maps that must stay
/// total over its variants.
const STATUS_FILE: &str = "crates/core/src/status.rs";
const STATUS_MAPS: [(&str, &str); 4] = [
    ("code", "the CLI exit-code map"),
    ("from_code", "the exit-code decoder"),
    ("wire_name", "the wire status-string table"),
    ("is_retryable", "the retry classification"),
];

/// MCRL013: every `SolveStatus` variant appears in `ALL` and in each of
/// the four total maps. An `_` arm can still hide a variant from a
/// value table, so the rule demands the variant *name*, which is what
/// makes a half-mapped new variant impossible to commit.
pub fn check_status_map(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let Some(model) = ws.file(STATUS_FILE) else {
        return;
    };
    let s = &model.scanned;
    let toks = &s.tokens;
    let Some(en) = model.tree.enums.iter().find(|e| e.name == "SolveStatus") else {
        return;
    };
    let mut regions: Vec<(&str, &str, u32, usize, usize)> = Vec::new();
    for (name, what) in STATUS_MAPS {
        match model
            .tree
            .fns
            .iter()
            .find(|f| f.name == name && !f.is_test && f.body.is_some())
        {
            Some(f) => {
                let (bo, bc) = f.body.expect("checked above");
                regions.push((name, what, f.line, bo, bc));
            }
            None => diag(
                out,
                s,
                "MCRL013",
                "status-map",
                STATUS_FILE,
                en.line,
                format!("status.rs must define `{name}` ({what}) over SolveStatus"),
            ),
        }
    }
    // The `ALL` table: `const ALL: ... = [ ... ];`
    if let Some(k) = toks
        .iter()
        .position(|t| t.kind == TokKind::Ident && t.text == "ALL")
    {
        if let Some(open) = (k..toks.len()).find(|&j| toks[j].text == "[") {
            if let Some(close) = matching(toks, open, "[", "]") {
                // Skip the type position `[SolveStatus; n]`: take the
                // bracket group after the `=` if this one precedes it.
                let (open, close) = match (open..close).any(|j| toks[j].text == ";") {
                    true => {
                        let eq = (close..toks.len())
                            .find(|&j| toks[j].text == "=")
                            .unwrap_or(close);
                        let o2 = (eq..toks.len())
                            .find(|&j| toks[j].text == "[")
                            .unwrap_or(open);
                        (o2, matching(toks, o2, "[", "]").unwrap_or(close))
                    }
                    false => (open, close),
                };
                regions.push(("ALL", "the ALL listing", toks[k].line, open, close));
            }
        }
    }
    for (name, what, line, lo, hi) in regions {
        // A body that derives its answer from `ALL` (e.g. `from_code`
        // scanning `ALL` for a code match) is total by delegation: the
        // `ALL` listing itself is variant-checked above.
        if name != "ALL"
            && toks[lo..=hi]
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text == "ALL")
        {
            continue;
        }
        for variant in &en.variants {
            let present = toks[lo..=hi]
                .iter()
                .any(|t| t.kind == TokKind::Ident && &t.text == variant);
            if !present {
                diag(
                    out,
                    s,
                    "MCRL013",
                    "status-map",
                    STATUS_FILE,
                    line,
                    format!(
                        "SolveStatus variant `{variant}` is missing from `{name}` ({what}); \
                         every variant must be mapped explicitly"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// MCRL014: declared lock order in crates/serve.
// ---------------------------------------------------------------------

/// The single declared acquisition order for the serve daemon's locks
/// (by field/binding name). A nested acquisition must move strictly
/// rightward in this list; acquiring the *same* name nested is a
/// self-deadlock and equally flagged.
///
/// * `queue`   — admission/dispatch queue (`Shared.queue`)
/// * `file`    — the journal's fsynced append handle (`Journal.file`)
/// * `settled` — the dedup log (`Shared.settled`)
/// * `inflight`— admitted-but-unsettled ids (`Shared.inflight`)
/// * `cache`   — the graph LRU (`Shared.cache`)
/// * `reply`   — a connection's write half (`ReplyHandle`)
pub const LOCK_ORDER: [&str; 6] = ["queue", "file", "settled", "inflight", "cache", "reply"];

fn lock_rank(name: &str) -> Option<usize> {
    LOCK_ORDER.iter().position(|&n| n == name)
}

/// A lock acquisition site inside a token range.
struct Acquire {
    /// Lock name: the last ident of `lock(&shared.X)` / the receiver of
    /// `X.lock()`.
    name: String,
    /// Token index of the acquisition.
    at: usize,
}

/// All acquisition sites in `[lo, hi]`. Both forms the crate uses:
/// the poison-tolerant helper `lock(&...)` and the raw `.lock()`.
fn acquisitions(toks: &[Token], lo: usize, hi: usize) -> Vec<Acquire> {
    let mut found = Vec::new();
    for i in lo..=hi {
        let t = &toks[i];
        if t.kind != TokKind::Ident || t.text != "lock" {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.text == "(") {
            continue;
        }
        let is_method = i > 0 && toks[i - 1].text == ".";
        let is_def = i > 0 && toks[i - 1].text == "fn";
        if is_def {
            continue;
        }
        let name = if is_method {
            // `X.lock()` — receiver ident just before the dot.
            (i >= 2 && toks[i - 2].kind == TokKind::Ident).then(|| toks[i - 2].text.clone())
        } else {
            // `lock(&shared.X)` — last ident of the argument.
            matching(toks, i + 1, "(", ")").and_then(|close| {
                toks[i + 2..close]
                    .iter()
                    .rev()
                    .find(|a| a.kind == TokKind::Ident)
                    .map(|a| a.text.clone())
            })
        };
        if let Some(name) = name {
            found.push(Acquire { name, at: i });
        }
    }
    found
}

/// The serve crate's lock-relevant call graph: which fn may acquire
/// which locks, transitively.
///
/// Functions are keyed by a qualified name (`Journal::append` for
/// methods, `send` for free fns), and call sites are resolved
/// *conservatively by shape*, never by bare name alone — a bare-name
/// scheme confuses `OpenOptions::append` with `Journal::append` and
/// `TcpStream::shutdown` with `ServerHandle::shutdown`, producing
/// unreviewable false inversions:
///
/// * `f(...)` resolves to the crate's free fn `f`, if one exists;
/// * `Type::m(...)` resolves to `Type::m` if that impl method exists;
/// * `self.m(...)` resolves within the calling method's own impl;
/// * `recv.m(...)` resolves to `Type::m` only when the receiver ident
///   is the snake_case of an impl type defining `m` (`journal.accept`
///   → `Journal::accept`; `listener.accept` resolves to nothing).
struct ServeGraph {
    /// Qualified fn name → every lock it may acquire, transitively.
    closure: BTreeMap<String, BTreeSet<String>>,
    /// Method name → impl owners defining it.
    methods: BTreeMap<String, BTreeSet<String>>,
    /// Free fn names.
    free: BTreeSet<String>,
}

fn qualify(owner: Option<&str>, name: &str) -> String {
    match owner {
        Some(o) => format!("{o}::{name}"),
        None => name.to_string(),
    }
}

/// `SettledLog` → `settled_log`, the receiver-name convention the
/// method resolution above keys on.
fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

impl ServeGraph {
    fn build(ws: &Workspace) -> ServeGraph {
        let mut graph = ServeGraph {
            closure: BTreeMap::new(),
            methods: BTreeMap::new(),
            free: BTreeSet::new(),
        };
        // Pass A: definitions, so call resolution knows every name.
        for f in ws.files.iter().filter(|f| f.rel.starts_with("crates/serve/src/")) {
            for item in &f.tree.fns {
                if item.is_test || item.name == "lock" {
                    continue;
                }
                match &item.owner {
                    Some(o) => {
                        graph
                            .methods
                            .entry(item.name.clone())
                            .or_default()
                            .insert(o.clone());
                    }
                    None => {
                        graph.free.insert(item.name.clone());
                    }
                }
            }
        }
        // Pass B: direct lock sets and resolved call edges.
        let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for f in ws.files.iter().filter(|f| f.rel.starts_with("crates/serve/src/")) {
            let toks = &f.scanned.tokens;
            for item in &f.tree.fns {
                if item.is_test || item.name == "lock" {
                    continue;
                }
                let Some((bo, bc)) = item.body else {
                    continue;
                };
                let key = qualify(item.owner.as_deref(), &item.name);
                let locks = graph.closure.entry(key.clone()).or_default();
                for a in acquisitions(toks, bo, bc) {
                    locks.insert(a.name);
                }
                let callees = calls.entry(key).or_default();
                for k in bo..=bc {
                    if let Some(callee) = graph.resolve_call(toks, k, item.owner.as_deref()) {
                        callees.insert(callee);
                    }
                }
            }
        }
        // Fixpoint over the call edges (the graph is tiny).
        loop {
            let mut changed = false;
            let snapshot = graph.closure.clone();
            for (name, callees) in &calls {
                for callee in callees {
                    if callee == name {
                        continue;
                    }
                    if let Some(extra) = snapshot.get(callee) {
                        let set = graph.closure.entry(name.clone()).or_default();
                        for l in extra {
                            changed |= set.insert(l.clone());
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        graph
    }

    /// Resolves the call site at token `k` (if it is one) to a
    /// qualified fn key, per the scheme documented on [`ServeGraph`].
    fn resolve_call(&self, toks: &[Token], k: usize, caller_owner: Option<&str>) -> Option<String> {
        let t = &toks[k];
        if t.kind != TokKind::Ident
            || t.text == "lock"
            || !toks.get(k + 1).is_some_and(|n| n.text == "(")
        {
            return None;
        }
        let name = t.text.as_str();
        let prev = k.checked_sub(1).map(|p| toks[p].text.as_str());
        match prev {
            Some(".") => {
                let recv = toks.get(k.wrapping_sub(2)).filter(|r| r.kind == TokKind::Ident)?;
                if recv.text == "self" {
                    let owner = caller_owner?;
                    self.methods
                        .get(name)
                        .is_some_and(|o| o.contains(owner))
                        .then(|| qualify(Some(owner), name))
                } else {
                    let owners = self.methods.get(name)?;
                    owners
                        .iter()
                        .find(|o| snake_case(o) == recv.text)
                        .map(|o| qualify(Some(o), name))
                }
            }
            Some("::") => {
                let qual = toks.get(k.wrapping_sub(2)).filter(|q| q.kind == TokKind::Ident)?;
                self.methods
                    .get(name)
                    .is_some_and(|o| o.contains(&qual.text))
                    .then(|| qualify(Some(&qual.text), name))
            }
            Some("fn") => None,
            _ => self.free.contains(name).then(|| name.to_string()),
        }
    }
}

/// A lock guard modeled as live during the nesting walk.
struct LiveGuard {
    name: String,
    /// `let` binding name, for `drop(x)` tracking; `None` = statement
    /// temporary.
    binding: Option<String>,
    /// Brace depth at acquisition.
    depth: usize,
}

/// MCRL014: walks every serve `fn` body, modeling guard lifetimes
/// (`let` guards to `drop`/block end, temporaries to statement end with
/// `if let` scrutinee extension) and flags nested acquisitions — direct
/// or one call level deep — that do not move strictly rightward in
/// [`LOCK_ORDER`].
pub fn check_lock_order(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let graph = ServeGraph::build(ws);
    for f in ws.files.iter().filter(|f| f.rel.starts_with("crates/serve/src/")) {
        let s = &f.scanned;
        let toks = &s.tokens;
        for item in &f.tree.fns {
            if item.is_test || item.name == "lock" {
                continue;
            }
            let Some((bo, bc)) = item.body else {
                continue;
            };
            walk_fn_locks(&f.rel, s, toks, item, bo, bc, &graph, out);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn walk_fn_locks(
    file: &str,
    s: &Scanned,
    toks: &[Token],
    item: &FnItem,
    bo: usize,
    bc: usize,
    graph: &ServeGraph,
    out: &mut Vec<Diagnostic>,
) {
    let acquires = acquisitions(toks, bo, bc);
    let mut acq_at: BTreeMap<usize, &Acquire> = BTreeMap::new();
    for a in &acquires {
        acq_at.insert(a.at, a);
    }
    let mut live: Vec<LiveGuard> = Vec::new();
    let mut depth = 0usize;
    let mut pending_let: Option<String> = None;
    let mut flagged_lines: BTreeSet<u32> = BTreeSet::new();
    // Nested fns are walked by their own iteration; skip their bodies
    // here so a parent's guards aren't blamed for a child's locks.
    let mut skip_until = 0usize;
    let mut k = bo;
    while k <= bc {
        if k < skip_until {
            k += 1;
            continue;
        }
        let t = &toks[k];
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                live.retain(|g| {
                    if g.binding.is_some() {
                        g.depth <= depth
                    } else {
                        g.depth < depth
                    }
                });
            }
            ";" => {
                live.retain(|g| g.binding.is_some() || g.depth != depth);
                pending_let = None;
            }
            "let" if t.kind == TokKind::Ident => {
                // An `if let`/`while let` scrutinee is a *temporary*
                // (extended to the block's end by the `}` rule below),
                // not a named guard binding.
                let scrutinee = k > bo
                    && toks[k - 1].kind == TokKind::Ident
                    && matches!(toks[k - 1].text.as_str(), "if" | "while");
                pending_let = (!scrutinee)
                    .then(|| {
                        toks[k + 1..=bc.min(k + 6)]
                            .iter()
                            .find(|n| n.kind == TokKind::Ident && n.text != "mut")
                            .map(|n| n.text.clone())
                    })
                    .flatten();
            }
            "fn" if t.kind == TokKind::Ident && k > bo => {
                // A nested fn item: skip to past its body.
                if let Some(nested) = (k..bc).find(|&j| toks[j].text == "{") {
                    if let Some(close) = matching(toks, nested, "{", "}") {
                        skip_until = close + 1;
                    }
                }
            }
            "drop" if t.kind == TokKind::Ident => {
                if toks.get(k + 1).is_some_and(|n| n.text == "(") {
                    if let Some(arg) = toks.get(k + 2).filter(|a| a.kind == TokKind::Ident) {
                        live.retain(|g| g.binding.as_deref() != Some(arg.text.as_str()));
                    }
                }
            }
            _ => {}
        }
        if let Some(a) = acq_at.get(&k) {
            for g in &live {
                report_nesting(
                    file, s, item, &g.name, &a.name, None, toks[k].line, &mut flagged_lines, out,
                );
            }
            live.push(LiveGuard {
                name: a.name.clone(),
                binding: pending_let.clone().filter(|_| binds_guard(toks, k)),
                depth,
            });
        } else if !live.is_empty() && t.text != "drop" {
            // A call while holding locks: fold in the callee's
            // transitive lock set.
            if let Some(callee) =
                graph.resolve_call(toks, k, item.owner.as_deref())
            {
                if let Some(callee_locks) = graph.closure.get(&callee) {
                    for lock_name in callee_locks {
                        for g in &live {
                            report_nesting(
                                file,
                                s,
                                item,
                                &g.name,
                                lock_name,
                                Some(&callee),
                                t.line,
                                &mut flagged_lines,
                                out,
                            );
                        }
                    }
                }
            }
        }
        k += 1;
    }
}

/// Whether the `let` that the acquisition at `at` sits in binds the
/// guard. Only `let x = lock(&m).method(..);`, a method call other than
/// `unwrap`/`expect`/`unwrap_or_else` right after the call chain (`?`
/// and those three are skipped), makes the guard a temporary that drops
/// at the end of the statement. Any other form (`Some(lock(&m))`, a
/// tuple, a constructor) is taken to hold it to the end of the block.
fn binds_guard(toks: &[Token], at: usize) -> bool {
    let text = |k: usize| toks.get(k).map(|t| t.text.as_str());
    let Some(mut k) = matching(toks, at + 1, "(", ")").map(|close| close + 1) else {
        return true;
    };
    loop {
        match text(k) {
            Some("?") => k += 1,
            Some(".") if text(k + 2) == Some("(") => {
                if !matches!(text(k + 1), Some("unwrap" | "expect" | "unwrap_or_else")) {
                    return false;
                }
                match matching(toks, k + 2, "(", ")") {
                    Some(close) => k = close + 1,
                    None => return true,
                }
            }
            _ => return true,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn report_nesting(
    file: &str,
    s: &Scanned,
    item: &FnItem,
    held: &str,
    taken: &str,
    via: Option<&str>,
    line: u32,
    flagged_lines: &mut BTreeSet<u32>,
    out: &mut Vec<Diagnostic>,
) {
    let violation = match (lock_rank(held), lock_rank(taken)) {
        (Some(h), Some(t)) => t <= h,
        // A nesting involving a lock outside the declared order is
        // unreviewable — declare it or restructure.
        _ => true,
    };
    if !violation || !flagged_lines.insert(line) {
        return;
    }
    let via = via.map(|c| format!(" via `{c}()`")).unwrap_or_default();
    diag(
        out,
        s,
        "MCRL014",
        "lock-order",
        file,
        line,
        format!(
            "`{}` acquires `{taken}`{via} while holding `{held}`, violating the declared \
             lock order ({})",
            item.name,
            LOCK_ORDER.join(" → ")
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::FileModel;

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: files
                .iter()
                .map(|(rel, src)| FileModel::new(rel.to_string(), src))
                .collect(),
        }
    }

    fn run_nondet(rel: &str, src: &str) -> Vec<(u32, bool)> {
        let m = FileModel::new(rel.to_string(), src);
        let mut out = Vec::new();
        check_nondet(&m.rel, &m.scanned, &mut out);
        out.iter().map(|d| (d.line, d.allowed)).collect()
    }

    #[test]
    fn nondet_flags_containers_in_scope_only() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u64, u64> = HashMap::new(); }\n";
        assert_eq!(run_nondet("crates/serve/src/server.rs", src), [(1, false), (2, false)]);
        // cache.rs is the documented exclusion; out-of-scope crates too.
        assert!(run_nondet("crates/serve/src/cache.rs", src).is_empty());
        assert!(run_nondet("crates/graph/src/lib.rs", src).is_empty());
    }

    #[test]
    fn nondet_wall_clock_scope_is_narrower() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(run_nondet("crates/obs/src/lib.rs", src), [(1, false)]);
        // The daemon legitimately reads the clock for deadlines.
        assert!(run_nondet("crates/serve/src/server.rs", src).is_empty());
    }

    #[test]
    fn nondet_honors_allows_and_test_code() {
        let src = "// lint: allow(nondet) reason=wall anchor normalized on render\n\
                   fn f() { let t = Instant::now(); }\n\
                   #[cfg(test)]\nmod t { fn g() { let t = Instant::now(); } }\n";
        assert_eq!(run_nondet("crates/obs/src/lib.rs", src), [(2, true)]);
    }

    #[test]
    fn status_map_requires_every_variant_in_every_table() {
        let src = "pub enum SolveStatus { Ok, Failed }\n\
                   impl SolveStatus {\n\
                   pub const ALL: [SolveStatus; 2] = [SolveStatus::Ok, SolveStatus::Failed];\n\
                   pub fn code(self) -> u8 { match self { SolveStatus::Ok => 0, SolveStatus::Failed => 1 } }\n\
                   pub fn from_code(c: u8) -> Option<SolveStatus> { match c { 0 => Some(SolveStatus::Ok), 1 => Some(SolveStatus::Failed), _ => None } }\n\
                   pub fn wire_name(self) -> &'static str { match self { SolveStatus::Ok => \"ok\", _ => \"failed\" } }\n\
                   pub fn is_retryable(self) -> bool { match self { SolveStatus::Ok => false, SolveStatus::Failed => true } }\n\
                   }\n";
        let ws = ws_of(&[("crates/core/src/status.rs", src)]);
        let mut out = Vec::new();
        check_status_map(&ws, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 6); // wire_name hides Failed behind `_`
        assert!(out[0].message.contains("`Failed`"));
        assert!(out[0].message.contains("wire_name"));
    }

    const LOCK_PRELUDE: &str = "fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {\n\
        m.lock().unwrap_or_else(PoisonError::into_inner)\n}\n";

    #[test]
    fn lock_order_flags_inversion_and_accepts_declared_order() {
        let src = format!(
            "{LOCK_PRELUDE}\
             fn good(shared: &Shared) {{\n\
             let mut q = lock(&shared.queue);\n\
             lock(&shared.inflight).insert(1);\n\
             drop(q);\n\
             lock(&shared.settled).insert(2);\n\
             }}\n\
             fn bad(shared: &Shared) {{\n\
             let mut inflight = lock(&shared.inflight);\n\
             lock(&shared.queue).push_back(1);\n\
             }}\n"
        );
        let ws = ws_of(&[("crates/serve/src/server.rs", &src)]);
        let mut out = Vec::new();
        check_lock_order(&ws, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 12);
        assert!(out[0].message.contains("`bad` acquires `queue`"));
    }

    #[test]
    fn lock_order_sees_through_one_call_level() {
        let src = format!(
            "{LOCK_PRELUDE}\
             fn append(j: &Journal) {{\n\
             let mut file = j.file.lock();\n\
             }}\n\
             fn admit(shared: &Shared) {{\n\
             let mut settled = lock(&shared.settled);\n\
             append(&shared.journal);\n\
             }}\n"
        );
        let ws = ws_of(&[("crates/serve/src/server.rs", &src)]);
        let mut out = Vec::new();
        check_lock_order(&ws, &mut out);
        // settled (rank 2) → file (rank 1) via append() is an inversion.
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 9);
        assert!(out[0].message.contains("via `append()`"));
    }

    #[test]
    fn lock_order_temporaries_die_at_statement_end() {
        let src = format!(
            "{LOCK_PRELUDE}\
             fn sequential(shared: &Shared) {{\n\
             lock(&shared.inflight).insert(1);\n\
             lock(&shared.queue).push_back(2);\n\
             }}\n"
        );
        let ws = ws_of(&[("crates/serve/src/server.rs", &src)]);
        let mut out = Vec::new();
        check_lock_order(&ws, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn lock_order_if_let_scrutinee_guard_spans_the_block() {
        // The scrutinee temporary lives through the if-let block
        // (Rust's temporary extension), so a nested acquisition inside
        // the block is checked — and conforms here (settled → reply).
        let src = format!(
            "{LOCK_PRELUDE}\
             fn send(reply: &ReplyHandle) {{\n\
             let mut w = lock(reply);\n\
             }}\n\
             fn dedup(shared: &Shared, reply: &ReplyHandle) {{\n\
             if let Some(hit) = lock(&shared.settled).get(7) {{\n\
             send(reply);\n\
             }}\n\
             lock(&shared.queue).push_back(7);\n\
             }}\n"
        );
        let ws = ws_of(&[("crates/serve/src/server.rs", &src)]);
        let mut out = Vec::new();
        check_lock_order(&ws, &mut out);
        // send-while-settled conforms; the queue acquisition afterwards
        // must NOT be blamed on the dead scrutinee guard.
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn wire_fields_must_be_declared() {
        let m = FileModel::new(
            "crates/serve/src/metrics.rs".to_string(),
            "fn render(o: &mut ObjWriter) { o.str(\"kind\", \"m\"); o.u64(\"bogus\", 1); }",
        );
        let manifests = vec![WireManifest {
            format: "mcr-metrics-v1".to_string(),
            file: "schemas/mcr-metrics-v1.txt".to_string(),
            entries: vec![("kind".to_string(), 1)],
        }];
        let mut out = Vec::new();
        check_wire_fields(&m.rel, &m.scanned, &manifests, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`bogus`"));
    }

    #[test]
    fn stale_manifest_entries_are_flagged() {
        let ws = ws_of(&[(
            "crates/serve/src/protocol.rs",
            "fn f(o: &mut ObjWriter) { o.str(\"status\", \"ok\"); }",
        )]);
        let manifests = vec![WireManifest {
            format: "mcr-resp-v1".to_string(),
            file: "schemas/mcr-resp-v1.txt".to_string(),
            entries: vec![("status".to_string(), 1), ("ghost".to_string(), 2)],
        }];
        let mut out = Vec::new();
        check_wire_manifests(&ws, &manifests, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].file.as_str(), out[0].line), ("schemas/mcr-resp-v1.txt", 2));
        assert!(out[0].message.contains("`ghost`"));
    }

    #[test]
    fn unknown_manifest_files_are_flagged() {
        let ws = ws_of(&[]);
        let manifests = vec![WireManifest {
            format: "mcr-mystery-v9".to_string(),
            file: "schemas/mcr-mystery-v9.txt".to_string(),
            entries: vec![],
        }];
        let mut out = Vec::new();
        check_wire_manifests(&ws, &manifests, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("known wire format"));
    }
}
