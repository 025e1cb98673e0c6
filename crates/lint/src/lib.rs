//! `mcr-lint`: the workspace contract checker.
//!
//! Walks every crate's `src/` tree (the lint crate itself excluded),
//! scans each file with [`scan`], applies the rules in [`rules`]
//! according to the scope tables below, and cross-checks every chaos
//! site against the central manifest `crates/chaos/sites.txt`.
//!
//! Scope tables — which rule applies where:
//!
//! * **MCRL000** (malformed allowlist comment): every scanned file.
//! * **MCRL001** (budget/cancellation coverage): `crates/core/src/algorithms/`.
//! * **MCRL006** (obs loop-metrics coverage): same scope as MCRL001 —
//!   a loop that charges a `BudgetScope` must also register itself with
//!   the metrics registry via `scope.loop_metrics("<site>")`.
//! * **MCRL002** (chaos manifest): site *uses* are collected from every
//!   scanned file; the manifest must be duplicate-free, every use must
//!   be declared, and every declaration must be used.
//! * **MCRL003** (bare f64 `==`/`!=`): all solver code, `crates/core/src/`.
//! * **MCRL004** (narrowing `as` casts): the hot paths,
//!   `crates/core/src/` and `crates/graph/src/`.
//! * **MCRL005** (panic-free layers): the explicit [`PANIC_SCOPE`] file
//!   list for `unwrap`/`expect`/`panic!`-family, and the stricter
//!   [`INDEX_SCOPE`] subset for slice indexing. The DFS kernels
//!   (`critical.rs`, `reference.rs`) are deliberately in the panic
//!   scope but *not* the index scope: their indices are bounded by
//!   construction, every access is covered by the dynamic suites
//!   (proptest differential, chaos, adversarial), and `get()` chains
//!   there would obscure the papers' pseudocode.
//! * **MCRL008** (serve request containment): `crates/serve/src/` —
//!   every `fn handle_*` must install the per-request `RequestGuard`,
//!   and `guard.rs` must keep tying `BudgetScope` to `MAX_FRAME_LEN`.
//! * **MCRL010** (determinism): order-unstable containers and
//!   thread-id reads in the ordering-sensitive scope, wall-clock reads
//!   in the reproducible-output scope (see `rules_sym`).
//! * **MCRL011** (wire schema): JSON field literals of the versioned
//!   wire formats must match the committed `schemas/` manifests, both
//!   directions.
//! * **MCRL013** (status map): `crates/core/src/status.rs` — every
//!   `SolveStatus` variant in every status table.
//! * **MCRL014** (lock order): `crates/serve/src/` — nested lock
//!   acquisitions follow [`rules_sym::LOCK_ORDER`].
//!
//! The walk covers `crates/*/src` **and** `crates/*/tests` (the lint
//! crate itself excluded, so its rule fixtures are not scanned); test
//! trees only participate in the universally-scoped rules (MCRL000,
//! chaos-site collection) because every other scope table is keyed on
//! `src/` paths.

pub mod baseline;
pub mod index;
pub mod lexer;
pub mod rules;
pub mod rules_sym;
pub mod sarif;
pub mod scan;
pub mod tree;

use rules::{ChaosUse, Diagnostic};
use std::fs;
use std::path::{Path, PathBuf};

/// Files whose production code must not contain `unwrap`/`expect`/
/// `panic!`/`unreachable!`/`todo!`/`unimplemented!` (parser, solver
/// surface, driver, fallback, and error layers).
pub const PANIC_SCOPE: [&str; 15] = [
    "crates/graph/src/io.rs",
    "crates/core/src/driver.rs",
    "crates/core/src/route.rs",
    "crates/core/src/ratio.rs",
    "crates/core/src/maximum.rs",
    "crates/core/src/reference.rs",
    "crates/core/src/critical.rs",
    "crates/core/src/error.rs",
    "crates/core/src/budget.rs",
    "crates/core/src/options.rs",
    "crates/core/src/cancel.rs",
    "crates/core/src/checkpoint.rs",
    "crates/core/src/certify.rs",
    "crates/core/src/solution.rs",
    "crates/core/src/algorithms/mod.rs",
];

/// The subset of [`PANIC_SCOPE`] that must also avoid slice indexing
/// (`x[i]`): layers that consume externally-shaped data, where an
/// out-of-bounds index means a malformed input rather than a broken
/// internal invariant.
pub const INDEX_SCOPE: [&str; 6] = [
    "crates/graph/src/io.rs",
    "crates/core/src/driver.rs",
    "crates/core/src/route.rs",
    "crates/core/src/ratio.rs",
    "crates/core/src/maximum.rs",
    "crates/core/src/algorithms/mod.rs",
];

/// Workspace-relative path of the chaos site manifest.
pub const SITES_MANIFEST: &str = "crates/chaos/sites.txt";

/// The result of a full workspace run.
pub struct Report {
    /// All findings, sorted by (file, line, rule). `allowed` marks the
    /// ones suppressed by an inline allowlist comment.
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
    /// (rule, file, line) triples suppressed by an accepted-debt
    /// baseline file (see [`baseline`]); empty when no baseline is
    /// applied.
    pub baselined: Vec<(String, String, u32)>,
}

impl Report {
    fn is_baselined(&self, d: &Diagnostic) -> bool {
        self.baselined
            .iter()
            .any(|(r, f, l)| r == d.rule && *f == d.file && *l == d.line)
    }

    /// Findings that fail the gate.
    pub fn violations(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| !d.allowed && !self.is_baselined(d))
    }

    pub fn violation_count(&self) -> usize {
        self.violations().count()
    }

    pub fn suppressed_count(&self) -> usize {
        self.diagnostics.len() - self.violation_count()
    }
}

/// Runs every rule over the workspace rooted at `root`.
///
/// Pass 1 builds the full symbol index (every file scanned and
/// brace-parsed); pass 2 runs the per-file rules; the cross-file rules
/// (chaos manifest, status map, lock order, wire manifests) run over
/// the finished [`index::Workspace`].
pub fn run_workspace(root: &Path) -> Result<Report, String> {
    let files = walk_sources(root)?;
    let mut models = Vec::with_capacity(files.len());
    for path in &files {
        let rel = relative(root, path);
        let src = fs::read_to_string(path)
            .map_err(|e| format!("failed to read {}: {e}", path.display()))?;
        models.push(index::FileModel::new(rel, &src));
    }
    let ws = index::Workspace { files: models };
    let manifests = rules_sym::load_manifests(root)?;
    let mut diagnostics = Vec::new();
    let mut uses: Vec<ChaosUse> = Vec::new();
    for model in &ws.files {
        let rel = model.rel.as_str();
        let scanned = &model.scanned;
        rules::check_allow_syntax(rel, scanned, &mut diagnostics);
        rules::collect_chaos_uses(rel, scanned, &mut uses);
        rules_sym::check_nondet(rel, scanned, &mut diagnostics);
        rules_sym::check_wire_fields(rel, scanned, &manifests, &mut diagnostics);
        if rel.starts_with("crates/core/src/algorithms/") {
            rules::check_budget_coverage(rel, scanned, &mut diagnostics);
            rules::check_obs_coverage(rel, scanned, &mut diagnostics);
        }
        if rel.starts_with("crates/core/src/") {
            rules::check_float_eq(rel, scanned, &mut diagnostics);
        }
        if rel.starts_with("crates/core/src/") || rel.starts_with("crates/graph/src/") {
            rules::check_narrowing_casts(rel, scanned, &mut diagnostics);
        }
        if rel.starts_with("crates/serve/src/") {
            rules::check_serve_handlers(rel, scanned, &mut diagnostics);
        }
        if rel.starts_with("crates/serve/src/") || rel.starts_with("crates/cli/src/") {
            rules::check_network_retry(rel, scanned, &mut diagnostics);
        }
        if PANIC_SCOPE.contains(&rel) {
            rules::check_panic_free(rel, scanned, &mut diagnostics);
        }
        if INDEX_SCOPE.contains(&rel) {
            rules::check_no_indexing(rel, scanned, &mut diagnostics);
        }
    }
    check_chaos_manifest(root, &uses, &mut diagnostics)?;
    rules_sym::check_status_map(&ws, &mut diagnostics);
    rules_sym::check_lock_order(&ws, &mut diagnostics);
    rules_sym::check_wire_manifests(&ws, &manifests, &mut diagnostics);
    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    Ok(Report {
        diagnostics,
        files_scanned: ws.files.len(),
        baselined: Vec::new(),
    })
}

/// MCRL002: cross-checks the collected site uses against the manifest.
/// The `mcr-chaos` crate embeds the same file (`declared_sites()`), so
/// the lint, the runtime, and the chaos tests all share one source of
/// truth.
fn check_chaos_manifest(
    root: &Path,
    uses: &[ChaosUse],
    out: &mut Vec<Diagnostic>,
) -> Result<(), String> {
    let manifest_path = root.join(SITES_MANIFEST);
    let text = fs::read_to_string(&manifest_path)
        .map_err(|e| format!("failed to read {}: {e}", manifest_path.display()))?;
    // (site, 1-based manifest line)
    let mut declared: Vec<(String, u32)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = idx as u32 + 1;
        if declared.iter().any(|(s, _)| s == line) {
            out.push(Diagnostic {
                rule: "MCRL002",
                file: SITES_MANIFEST.to_string(),
                line: lineno,
                message: format!("chaos site `{line}` is declared more than once"),
                allowed: false,
            });
        } else {
            declared.push((line.to_string(), lineno));
        }
    }
    for u in uses {
        if !declared.iter().any(|(s, _)| *s == u.site) {
            out.push(Diagnostic {
                rule: "MCRL002",
                file: u.file.clone(),
                line: u.line,
                message: format!(
                    "chaos site `{}` is not declared in {SITES_MANIFEST}",
                    u.site
                ),
                allowed: u.allowed,
            });
        }
    }
    for (site, lineno) in &declared {
        if !uses.iter().any(|u| u.site == *site) {
            out.push(Diagnostic {
                rule: "MCRL002",
                file: SITES_MANIFEST.to_string(),
                line: *lineno,
                message: format!("declared chaos site `{site}` is never used in source"),
                allowed: false,
            });
        }
    }
    Ok(())
}

/// Every `.rs` file under `crates/*/src` and `crates/*/tests`, lint
/// crate excluded, in a deterministic order.
fn walk_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("failed to list {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "lint"))
        .collect();
    crate_dirs.sort();
    let mut files = Vec::new();
    for dir in crate_dirs {
        for sub in ["src", "tests"] {
            let tree = dir.join(sub);
            if tree.is_dir() {
                collect_rs(&tree, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("failed to list {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry
            .map_err(|e| format!("failed to list {}: {e}", dir.display()))?
            .path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    // Normalize separators so the scope tables work on every platform.
    rel.to_string_lossy().replace('\\', "/")
}

/// Renders the report as JSON for CI (the crate is dependency-free, so
/// the encoder is ~20 lines rather than a serde graph).
pub fn to_json(report: &Report) -> String {
    let mut s = String::from("{\"diagnostics\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"allowed\":{},\"message\":\"{}\"}}",
            d.rule,
            json_escape(&d.file),
            d.line,
            d.allowed,
            json_escape(&d.message)
        ));
    }
    // Every suppressed finding with its provenance — a bare count hides
    // *what* is being waved through and makes suppression drift
    // unreviewable.
    s.push_str("],\"suppressions\":[");
    let mut first = true;
    for d in &report.diagnostics {
        let source = if d.allowed {
            "allow"
        } else if report.is_baselined(d) {
            "baseline"
        } else {
            continue;
        };
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"source\":\"{source}\"}}",
            d.rule,
            json_escape(&d.file),
            d.line
        ));
    }
    s.push_str(&format!(
        "],\"files_scanned\":{},\"violations\":{},\"suppressed\":{}}}",
        report.files_scanned,
        report.violation_count(),
        report.suppressed_count()
    ));
    s
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
