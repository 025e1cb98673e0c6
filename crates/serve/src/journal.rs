//! Crash-recovery journal: every admitted request is durable before it
//! is queued, so a `kill -9` loses no accepted work.
//!
//! Layout under the journal directory:
//!
//! * `journal.jsonl` — append-only event log, one JSON object per
//!   line:
//!   - `{"kind":"accept","id":N,"req":"<original request JSON>"}`
//!     written (and fsynced) at admission, *before* the request enters
//!     the queue;
//!   - `{"kind":"done","id":N,"status":"ok"}` written after the
//!     response is sent;
//!   - `{"kind":"recovered","id":N,"status":"ok","lambda":"7/2"}`
//!     written when a *replayed* request finishes after a restart
//!     (counts as completion for any later replay).
//! * `ckpt-<id>.txt` — an `mcr-checkpoint v2` snapshot
//!   ([`mcr_core::Checkpoint::to_text`]) of a long solve's partial
//!   progress, rewritten atomically after each slice and removed on
//!   completion.
//!
//! On restart, [`Journal::replay`] returns the accepted-but-unfinished
//! requests in admission order; the server re-queues them and the
//! worker resumes each from its checkpoint file if one survived. A
//! corrupt line (torn write from the crash) or an injected
//! `serve.journal.replay` fault skips that entry — recovery degrades,
//! it never panics or refuses to start.

// The journal reads back files written by a crashed process: every
// parse must fail soft.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use crate::chaos;
use crate::json::{self, ObjWriter, Value};
use mcr_core::{Checkpoint, SolveStatus};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The event log's file name inside the journal directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// The append-only event log plus its checkpoint sidecar files.
pub struct Journal {
    dir: PathBuf,
    file: Mutex<File>,
}

/// One recovered request: the admission id and the original request
/// JSON, ready for [`crate::protocol::parse_request`] again.
pub struct RecoveredRequest {
    /// The id the crashed daemon assigned at admission.
    pub id: u64,
    /// The original request payload.
    pub payload: String,
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`.
    pub fn open(dir: &Path) -> io::Result<Journal> {
        fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(JOURNAL_FILE))?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn append(&self, line: &str) -> io::Result<()> {
        if chaos::fail_hit("serve.journal.append") {
            return Err(io::Error::other("injected journal-append fault"));
        }
        let mut file = self
            .file
            .lock()
            .map_err(|_| io::Error::other("journal lock poisoned"))?;
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        // Durability is the whole point: the admission response must
        // imply the request survives a crash.
        file.sync_data()
    }

    /// Records an admission. Must succeed before the request is queued.
    pub fn accept(&self, id: u64, payload: &str) -> io::Result<()> {
        self.append(
            &ObjWriter::new()
                .str("kind", "accept")
                .u64("id", id)
                .str("req", payload)
                .finish(),
        )
    }

    /// Records a response sent for a live (non-recovered) request. The
    /// λ (when the solve produced one) makes the entry sufficient to
    /// answer a duplicate of the same id without re-solving.
    pub fn done(&self, id: u64, status: SolveStatus, lambda: Option<&str>) -> io::Result<()> {
        let mut w = ObjWriter::new()
            .str("kind", "done")
            .u64("id", id)
            .str("status", status.wire_name());
        if let Some(lambda) = lambda {
            w = w.str("lambda", lambda);
        }
        self.append(&w.finish())
    }

    /// Records completion of a replayed request, with the recovered λ
    /// when there is one (the restart audit trail the CI stage greps).
    pub fn recovered(&self, id: u64, status: SolveStatus, lambda: Option<&str>) -> io::Result<()> {
        let mut w = ObjWriter::new()
            .str("kind", "recovered")
            .u64("id", id)
            .str("status", status.wire_name());
        if let Some(lambda) = lambda {
            w = w.str("lambda", lambda);
        }
        self.append(&w.finish())
    }

    /// Scans the log and returns accepted-but-unfinished requests in
    /// admission order, plus the number of entries skipped (corrupt
    /// lines, injected replay faults).
    pub fn replay(&self) -> (Vec<RecoveredRequest>, u64) {
        let text = match fs::read_to_string(self.dir.join(JOURNAL_FILE)) {
            Ok(text) => text,
            Err(_) => return (Vec::new(), 0),
        };
        let mut pending: Vec<(u64, String)> = Vec::new();
        let mut skipped = 0u64;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            if chaos::fail_hit("serve.journal.replay") {
                skipped += 1;
                continue;
            }
            let Ok(v) = json::parse(line) else {
                skipped += 1;
                continue;
            };
            let id = v.get("id").and_then(Value::as_u64);
            match (v.get("kind").and_then(Value::as_str), id) {
                (Some("accept"), Some(id)) => {
                    match v.get("req").and_then(Value::as_str) {
                        Some(req) => pending.push((id, req.to_string())),
                        None => skipped += 1,
                    }
                }
                (Some("done" | "recovered"), Some(id)) => {
                    pending.retain(|&(p, _)| p != id);
                }
                _ => skipped += 1,
            }
        }
        let recovered = pending
            .into_iter()
            .map(|(id, payload)| RecoveredRequest { id, payload })
            .collect();
        (recovered, skipped)
    }

    /// Scans the log for settled outcomes: every `done`/`recovered`
    /// entry's `(id, status, lambda)`, last write wins. This is the
    /// duplicate-suppression base: a client re-send whose id appears
    /// here is answered from the journal instead of re-solved.
    pub fn settled(&self) -> Vec<(u64, SolveStatus, Option<String>)> {
        let text = match fs::read_to_string(self.dir.join(JOURNAL_FILE)) {
            Ok(text) => text,
            Err(_) => return Vec::new(),
        };
        let mut out: Vec<(u64, SolveStatus, Option<String>)> = Vec::new();
        for line in text.lines() {
            let Ok(v) = json::parse(line) else { continue };
            let (Some("done" | "recovered"), Some(id)) = (
                v.get("kind").and_then(Value::as_str),
                v.get("id").and_then(Value::as_u64),
            ) else {
                continue;
            };
            let Some(status) = v
                .get("status")
                .and_then(Value::as_str)
                .and_then(|name| SolveStatus::ALL.iter().find(|s| s.wire_name() == name))
            else {
                continue;
            };
            let lambda = v.get("lambda").and_then(Value::as_str).map(String::from);
            out.retain(|&(p, _, _)| p != id);
            out.push((id, *status, lambda));
        }
        out
    }

    /// Path of the checkpoint sidecar for request `id`.
    pub fn checkpoint_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{id}.txt"))
    }

    /// Atomically replaces request `id`'s checkpoint snapshot
    /// (write-to-temp + rename, so a crash mid-save leaves the previous
    /// snapshot intact).
    pub fn save_checkpoint(&self, id: u64, text: &str) -> io::Result<()> {
        let tmp = self.dir.join(format!("ckpt-{id}.tmp"));
        fs::write(&tmp, text)?;
        fs::rename(&tmp, self.checkpoint_path(id))
    }

    /// Loads request `id`'s checkpoint, if a parseable one survives.
    pub fn load_checkpoint(&self, id: u64) -> Option<Checkpoint> {
        let text = fs::read_to_string(self.checkpoint_path(id)).ok()?;
        Checkpoint::from_text(&text).ok()
    }

    /// Removes request `id`'s checkpoint (solve finished).
    pub fn clear_checkpoint(&self, id: u64) {
        let _ = fs::remove_file(self.checkpoint_path(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mcr-serve-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn replay_returns_only_unfinished_accepts_in_order() {
        let dir = tmpdir("replay");
        let j = Journal::open(&dir).expect("open");
        j.accept(1, "{\"id\":1}").expect("accept");
        j.accept(2, "{\"id\":2}").expect("accept");
        j.accept(3, "{\"id\":3}").expect("accept");
        j.done(2, SolveStatus::Ok, Some("3/1")).expect("done");
        let (pending, skipped) = j.replay();
        assert_eq!(skipped, 0);
        let ids: Vec<u64> = pending.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(pending[0].payload, "{\"id\":1}");
        // A second process completing the recovered work closes them.
        j.recovered(1, SolveStatus::Ok, Some("5/2")).expect("rec");
        j.recovered(3, SolveStatus::Cancelled, None).expect("rec");
        let (pending, _) = j.replay();
        assert!(pending.is_empty());
        // And the settled scan reconstructs every outcome with its λ.
        let settled = j.settled();
        assert_eq!(settled.len(), 3);
        let find = |id: u64| settled.iter().find(|&&(p, _, _)| p == id).expect("settled");
        assert_eq!(find(2), &(2, SolveStatus::Ok, Some("3/1".to_string())));
        assert_eq!(find(1), &(1, SolveStatus::Ok, Some("5/2".to_string())));
        assert_eq!(find(3), &(3, SolveStatus::Cancelled, None));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let dir = tmpdir("corrupt");
        let j = Journal::open(&dir).expect("open");
        j.accept(1, "{\"id\":1}").expect("accept");
        // Simulate a torn write from the crash.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(JOURNAL_FILE))
                .expect("reopen");
            f.write_all(b"{\"kind\":\"acc").expect("torn");
            f.write_all(b"\n{\"kind\":\"mystery\",\"id\":7}\n")
                .expect("junk");
        }
        let (pending, skipped) = j.replay();
        assert_eq!(pending.len(), 1);
        assert_eq!(skipped, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_save_load_and_clear() {
        let dir = tmpdir("ckpt");
        let j = Journal::open(&dir).expect("open");
        assert!(j.load_checkpoint(9).is_none());
        let text = mcr_core::Checkpoint::default().to_text();
        j.save_checkpoint(9, &text).expect("save");
        assert!(j.load_checkpoint(9).is_some());
        j.save_checkpoint(9, "not a checkpoint").expect("save");
        assert!(j.load_checkpoint(9).is_none(), "corrupt parses to None");
        j.clear_checkpoint(9);
        assert!(!j.checkpoint_path(9).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
