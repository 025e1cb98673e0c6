//! Checkpoint/resume for long-running solves.
//!
//! A budgeted or cancelled solve does not have to lose its work: when
//! [`crate::SolveOptions::checkpoints`] carries a [`CheckpointStore`],
//! the driver records each component's partial progress at the moment
//! an attempt is interrupted (budget exhaustion, cancellation, or an
//! injected chaos fault), and a later call with the same store resumes
//! each component from that state instead of from scratch.
//!
//! # What is saved
//!
//! Progress is keyed by the component's **job index** — its position in
//! the driver's canonically ordered job list — which is a pure function of
//! the input graph, independent of thread count and scheduling. Per
//! attempt the save is the algorithm's full cross-iteration state:
//!
//! * Howard's policy iteration ([`JobProgress::Howard`]): the policy
//!   vector (one out-arc per node), plus the `f64` node values as raw
//!   bit patterns for the Figure 1 variant (the exact variant
//!   recomputes values from the policy each round, so the policy alone
//!   suffices).
//! * The λ-interval searches, Lawler's bisection and the cycle-ratio
//!   bisection ([`JobProgress::Interval`]): the current `[lo, hi]`
//!   rational interval.
//!
//! Because each algorithm's round is a deterministic function of
//! exactly this state, a resumed solve walks the same iteration
//! sequence as an uninterrupted one and produces a **bit-identical**
//! result — the property `tests/checkpoint_resume.rs` pins at 1, 2 and
//! 8 worker threads.
//!
//! # File format
//!
//! [`Checkpoint::to_text`] / [`Checkpoint::from_text`] give a versioned,
//! line-oriented text encoding ("`mcr-checkpoint v2`" header, one
//! `job …` line per saved component) used by the CLI and usable
//! without any serialization framework.

// Parsing/validation surfaces must stay panic-free whatever the
// input; CI runs clippy with -D warnings, so these lints are a gate.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use crate::algorithms::Algorithm;
use crate::rational::Ratio64;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Version tag written in the checkpoint header; bumped on any
/// incompatible format change. Version 2 keys jobs by canonical job
/// order (by smallest node); version 1 keyed them by Tarjan's emission
/// order, so a version 1 file would resume progress into the wrong
/// components and is refused.
pub const FORMAT_VERSION: u32 = 2;

/// Cross-iteration state of one interrupted per-SCC solve attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum JobProgress {
    /// Howard policy iteration: the current policy (arc index chosen at
    /// each node) and, for the `f64` Figure 1 variant, the node values
    /// as `f64::to_bits` patterns (`None` for the exact variant, which
    /// recomputes values from the policy).
    Howard {
        /// `policy[v]` is the arc id currently chosen at node `v`.
        policy: Vec<u32>,
        /// Figure 1 node values (`f64::to_bits`), if the variant keeps
        /// them across iterations.
        dist_bits: Option<Vec<u64>>,
    },
    /// A λ-interval search (Lawler bisection, ratio bisection): the
    /// current half-open search interval.
    Interval {
        /// Largest λ known infeasible (or the initial lower bound).
        lo: Ratio64,
        /// Smallest λ known feasible (or the initial upper bound).
        hi: Ratio64,
    },
}

/// One saved entry: which algorithm the progress belongs to plus its
/// state. Progress is only resumed by the *same* algorithm — a Lawler
/// interval means nothing to Howard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobEntry {
    /// The algorithm that was interrupted.
    pub algorithm: Algorithm,
    /// Its cross-iteration state at the interruption point.
    pub progress: JobProgress,
}

/// A point-in-time snapshot of saved solve progress, keyed by job
/// index (the component's position in the driver's canonical job
/// order).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Saved progress per job index.
    pub jobs: BTreeMap<u64, JobEntry>,
}

/// Error from [`Checkpoint::from_text`]: the 1-based offending line
/// plus a human-readable description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointError {
    line: usize,
    message: String,
}

impl CheckpointError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        CheckpointError {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number the error was detected on (0 for whole-file
    /// problems such as a missing header).
    pub fn line(&self) -> usize {
        self.line
    }

    /// Human-readable diagnostic, without the line prefix.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint line {}: {}", self.line, self.message)
    }
}

impl Error for CheckpointError {}

fn parse_ratio(tok: &str, lineno: usize) -> Result<Ratio64, CheckpointError> {
    let (num, den) = match tok.split_once('/') {
        Some((n, d)) => (n, d),
        None => (tok, "1"),
    };
    let num: i64 = num
        .parse()
        .map_err(|_| CheckpointError::new(lineno, format!("invalid rational `{tok}`")))?;
    let den: i64 = den
        .parse()
        .map_err(|_| CheckpointError::new(lineno, format!("invalid rational `{tok}`")))?;
    if den == 0 {
        return Err(CheckpointError::new(
            lineno,
            format!("zero denominator in `{tok}`"),
        ));
    }
    Ok(Ratio64::new(num, den))
}

impl Checkpoint {
    /// An empty checkpoint (nothing saved).
    pub fn new() -> Self {
        Checkpoint::default()
    }

    /// Whether no job has saved progress.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Renders the checkpoint in the versioned line format accepted by
    /// [`Checkpoint::from_text`].
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "mcr-checkpoint v{FORMAT_VERSION}");
        for (job, entry) in &self.jobs {
            match &entry.progress {
                JobProgress::Howard { policy, dist_bits } => {
                    let _ = write!(
                        out,
                        "job {job} {} howard {} {}",
                        entry.algorithm.name(),
                        policy.len(),
                        dist_bits.as_ref().map_or(0, Vec::len),
                    );
                    for p in policy {
                        let _ = write!(out, " {p}");
                    }
                    for d in dist_bits.iter().flatten() {
                        let _ = write!(out, " {d}");
                    }
                    out.push('\n');
                }
                JobProgress::Interval { lo, hi } => {
                    let _ = writeln!(
                        out,
                        "job {job} {} interval {}/{} {}/{}",
                        entry.algorithm.name(),
                        lo.numer(),
                        lo.denom(),
                        hi.numer(),
                        hi.denom(),
                    );
                }
            }
        }
        out
    }

    /// Parses the text produced by [`Checkpoint::to_text`]. Blank lines
    /// and `#` comments are ignored; any malformed line, unknown
    /// version, or unknown algorithm name is a typed error — corrupt
    /// checkpoints are rejected, never resumed from.
    pub fn from_text(text: &str) -> Result<Checkpoint, CheckpointError> {
        let mut jobs = BTreeMap::new();
        let mut saw_header = false;
        for (lineno, raw) in text.lines().enumerate() {
            let lineno = lineno + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if !saw_header {
                let version = line
                    .strip_prefix("mcr-checkpoint v")
                    .and_then(|v| v.parse::<u32>().ok())
                    .ok_or_else(|| {
                        CheckpointError::new(
                            lineno,
                            format!("expected header `mcr-checkpoint v{FORMAT_VERSION}`"),
                        )
                    })?;
                if version != FORMAT_VERSION {
                    return Err(CheckpointError::new(
                        lineno,
                        format!("unsupported checkpoint version {version}"),
                    ));
                }
                saw_header = true;
                continue;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            if toks.first() != Some(&"job") || toks.len() < 4 {
                return Err(CheckpointError::new(
                    lineno,
                    "expected `job <index> <algorithm> <kind> ...`",
                ));
            }
            let job: u64 = toks[1]
                .parse()
                .map_err(|_| CheckpointError::new(lineno, "invalid job index"))?;
            let algorithm = Algorithm::ALL
                .into_iter()
                .find(|a| a.name() == toks[2])
                .ok_or_else(|| {
                    CheckpointError::new(lineno, format!("unknown algorithm `{}`", toks[2]))
                })?;
            let progress = match toks[3] {
                "howard" => {
                    if toks.len() < 6 {
                        return Err(CheckpointError::new(lineno, "truncated howard entry"));
                    }
                    let np: usize = toks[4]
                        .parse()
                        .map_err(|_| CheckpointError::new(lineno, "invalid policy length"))?;
                    let nd: usize = toks[5]
                        .parse()
                        .map_err(|_| CheckpointError::new(lineno, "invalid value length"))?;
                    let values = &toks[6..];
                    if values.len() != np + nd || (nd != 0 && nd != np) {
                        return Err(CheckpointError::new(
                            lineno,
                            format!(
                                "howard entry declares {np}+{nd} values but carries {}",
                                values.len()
                            ),
                        ));
                    }
                    let policy = values[..np]
                        .iter()
                        .map(|t| t.parse::<u32>())
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|_| CheckpointError::new(lineno, "invalid policy arc id"))?;
                    let dist_bits = if nd == 0 {
                        None
                    } else {
                        Some(
                            values[np..]
                                .iter()
                                .map(|t| t.parse::<u64>())
                                .collect::<Result<Vec<_>, _>>()
                                .map_err(|_| {
                                    CheckpointError::new(lineno, "invalid value bit pattern")
                                })?,
                        )
                    };
                    JobProgress::Howard { policy, dist_bits }
                }
                "interval" => {
                    if toks.len() != 6 {
                        return Err(CheckpointError::new(lineno, "truncated interval entry"));
                    }
                    JobProgress::Interval {
                        lo: parse_ratio(toks[4], lineno)?,
                        hi: parse_ratio(toks[5], lineno)?,
                    }
                }
                other => {
                    return Err(CheckpointError::new(
                        lineno,
                        format!("unknown progress kind `{other}`"),
                    ));
                }
            };
            jobs.insert(job, JobEntry { algorithm, progress });
        }
        if !saw_header {
            return Err(CheckpointError::new(0, "missing `mcr-checkpoint` header"));
        }
        Ok(Checkpoint { jobs })
    }
}

/// Shared, thread-safe handle to checkpoint state, attachable to a
/// solve via [`crate::SolveOptions::checkpoints`].
///
/// Clones share the same underlying state (like
/// [`crate::CancelToken`]); worker threads save progress concurrently
/// under one mutex, which is far off any hot path — it is touched only
/// when an attempt is interrupted or a component completes.
///
/// ```
/// use mcr_core::{Algorithm, CheckpointStore, JobProgress};
/// let store = CheckpointStore::new();
/// store.save(0, Algorithm::HowardExact, JobProgress::Howard {
///     policy: vec![1, 2, 0],
///     dist_bits: None,
/// });
/// let text = store.snapshot().to_text();
/// let restored = CheckpointStore::from_checkpoint(
///     mcr_core::Checkpoint::from_text(&text).unwrap());
/// assert!(restored.get(0, Algorithm::HowardExact).is_some());
/// assert!(restored.get(0, Algorithm::Karp).is_none()); // wrong algorithm
/// ```
#[derive(Clone, Debug, Default)]
pub struct CheckpointStore {
    inner: Arc<Mutex<Checkpoint>>,
}

impl CheckpointStore {
    /// A fresh, empty store.
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// A store pre-loaded from a snapshot (e.g. parsed from a file) to
    /// resume from.
    pub fn from_checkpoint(checkpoint: Checkpoint) -> Self {
        CheckpointStore {
            inner: Arc::new(Mutex::new(checkpoint)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Checkpoint> {
        // A panic while holding this mutex can only come from a solver
        // bug; the stored snapshot itself is always consistent, so
        // recover the guard rather than poisoning every later solve.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Records `progress` for `job`, replacing any previous entry.
    pub fn save(&self, job: u64, algorithm: Algorithm, progress: JobProgress) {
        self.lock().jobs.insert(job, JobEntry { algorithm, progress });
    }

    /// The saved progress for `job`, only if it was recorded by the
    /// same `algorithm` (state is meaningless across algorithms).
    pub fn get(&self, job: u64, algorithm: Algorithm) -> Option<JobProgress> {
        self.lock()
            .jobs
            .get(&job)
            .filter(|e| e.algorithm == algorithm)
            .map(|e| e.progress.clone())
    }

    /// Drops the entry for `job` (called when the job completes, so a
    /// finished component is never "resumed" again).
    pub fn clear(&self, job: u64) {
        self.lock().jobs.remove(&job);
    }

    /// Whether no job has saved progress.
    pub fn is_empty(&self) -> bool {
        self.lock().jobs.is_empty()
    }

    /// A point-in-time copy of the saved state, for persisting.
    pub fn snapshot(&self) -> Checkpoint {
        self.lock().clone()
    }
}

/// Two stores are equal when they share the same underlying state
/// (clones of one another), mirroring [`crate::CancelToken`].
impl PartialEq for CheckpointStore {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for CheckpointStore {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut jobs = BTreeMap::new();
        jobs.insert(
            0,
            JobEntry {
                algorithm: Algorithm::HowardExact,
                progress: JobProgress::Howard {
                    policy: vec![2, 0, 1],
                    dist_bits: None,
                },
            },
        );
        jobs.insert(
            3,
            JobEntry {
                algorithm: Algorithm::Howard,
                progress: JobProgress::Howard {
                    policy: vec![1, 1],
                    dist_bits: Some(vec![0.5f64.to_bits(), (-2.25f64).to_bits()]),
                },
            },
        );
        jobs.insert(
            7,
            JobEntry {
                algorithm: Algorithm::LawlerExact,
                progress: JobProgress::Interval {
                    lo: Ratio64::new(-5, 2),
                    hi: Ratio64::new(7, 3),
                },
            },
        );
        Checkpoint { jobs }
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        let ckpt = sample();
        let text = ckpt.to_text();
        assert!(text.starts_with("mcr-checkpoint v2\n"), "{text}");
        let back = Checkpoint::from_text(&text).expect("parse");
        assert_eq!(back, ckpt);
    }

    #[test]
    fn a_version_1_checkpoint_is_refused_with_a_typed_error() {
        // Version 1 keyed jobs by Tarjan order; resuming it under
        // canonical job order could hand one component's progress to
        // another.
        let err = Checkpoint::from_text("mcr-checkpoint v1\njob 0 Karp interval 0/1 5/1\n")
            .expect_err("version 1 is refused");
        assert_eq!(err.line(), 1);
        assert_eq!(err.message(), "unsupported checkpoint version 1");
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "# a comment\n\nmcr-checkpoint v2\n# another\njob 1 Karp interval 0/1 5/1\n";
        let ckpt = Checkpoint::from_text(text).expect("parse");
        assert_eq!(ckpt.jobs.len(), 1);
        assert_eq!(ckpt.jobs[&1].algorithm, Algorithm::Karp);
    }

    #[test]
    fn corrupt_checkpoints_are_rejected_with_line_numbers() {
        let cases = [
            ("", "missing", 0),
            ("nonsense\n", "header", 1),
            ("mcr-checkpoint v99\n", "version", 1),
            ("mcr-checkpoint v2\nblob 0 Karp interval 0 1\n", "job", 2),
            ("mcr-checkpoint v2\njob x Karp interval 0 1\n", "job index", 2),
            ("mcr-checkpoint v2\njob 0 Nope interval 0 1\n", "algorithm", 2),
            ("mcr-checkpoint v2\njob 0 Karp wat 0 1\n", "kind", 2),
            ("mcr-checkpoint v2\njob 0 Karp interval 1/0 2\n", "denominator", 2),
            (
                "mcr-checkpoint v2\njob 0 Howard howard 3 0 1 2\n",
                "declares",
                2,
            ),
        ];
        for (text, needle, line) in cases {
            let err = Checkpoint::from_text(text).expect_err(text);
            assert!(
                err.to_string().contains(needle),
                "error for {text:?} was {err}, wanted {needle:?}"
            );
            assert_eq!(err.line(), line, "line for {text:?}");
        }
    }

    #[test]
    fn store_is_shared_and_algorithm_scoped() {
        let store = CheckpointStore::new();
        let alias = store.clone();
        assert!(store.is_empty());
        alias.save(
            4,
            Algorithm::LawlerExact,
            JobProgress::Interval {
                lo: Ratio64::from(0),
                hi: Ratio64::from(10),
            },
        );
        assert!(store.get(4, Algorithm::LawlerExact).is_some());
        assert!(store.get(4, Algorithm::Lawler).is_none(), "wrong algorithm");
        assert!(store.get(5, Algorithm::LawlerExact).is_none(), "wrong job");
        store.clear(4);
        assert!(alias.is_empty());
    }

    #[test]
    fn snapshot_is_a_point_in_time_copy() {
        let store = CheckpointStore::from_checkpoint(sample());
        let snap = store.snapshot();
        store.clear(0);
        assert!(snap.jobs.contains_key(&0), "snapshot must not alias");
        assert!(store.get(0, Algorithm::HowardExact).is_none());
    }

    #[test]
    fn equality_is_identity() {
        let a = CheckpointStore::new();
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, CheckpointStore::new());
    }
}
