//! Service counters, rendered as `mcr-metrics v1` JSONL.
//!
//! The daemon keeps a fixed set of atomic counters covering every
//! stage of the request path. The `metrics` op (and `mcrd`'s exit
//! dump) renders them in the same JSONL shape `mcr-obs` uses — a
//! `metrics.header` line followed by one `counter` line per metric —
//! so the existing trace tooling can consume either source. The crate
//! deliberately does *not* depend on `mcr-obs`: the service must stay
//! observable even when the solver-side observability feature is
//! compiled out, and the CI dependency walls keep `mcr-core` free of
//! `mcr-obs` in default builds.

use crate::json::ObjWriter;
use std::sync::atomic::{AtomicU64, Ordering};

/// Schema tag on every rendered line (matches `mcr_obs::METRICS_SCHEMA`).
pub const METRICS_SCHEMA: &str = "mcr-metrics v1";

macro_rules! metrics_struct {
    ($($(#[$doc:meta])* $field:ident => $name:literal,)+) => {
        /// The daemon-wide counter registry. All counters are
        /// monotonic; relaxed ordering is enough because readers only
        /// ever want a recent snapshot, not a synchronization edge.
        #[derive(Default)]
        pub struct Metrics {
            $($(#[$doc])* pub $field: AtomicU64,)+
        }

        impl Metrics {
            /// Counter names in render order.
            pub const NAMES: &'static [&'static str] = &[$($name,)+];

            /// Renders the registry as `mcr-metrics v1` JSONL.
            pub fn render(&self) -> String {
                let mut out = String::new();
                out.push_str(
                    &ObjWriter::new()
                        .str("schema", METRICS_SCHEMA)
                        .str("kind", "metrics.header")
                        .u64("counters", Self::NAMES.len() as u64)
                        .u64("timings", 0)
                        .finish(),
                );
                out.push('\n');
                $(
                    out.push_str(
                        &ObjWriter::new()
                            .str("schema", METRICS_SCHEMA)
                            .str("kind", "counter")
                            .str("name", $name)
                            .u64("value", self.$field.load(Ordering::Relaxed))
                            .finish(),
                    );
                    out.push('\n');
                )+
                out
            }

            /// Reads one counter by wire name (test/assertion helper).
            pub fn value(&self, name: &str) -> Option<u64> {
                match name {
                    $($name => Some(self.$field.load(Ordering::Relaxed)),)+
                    _ => None,
                }
            }
        }
    };
}

metrics_struct! {
    /// Solve requests admitted to the queue.
    accepted => "serve.requests.accepted",
    /// Solve requests shed at admission (queue full, journal down,
    /// injected admission fault).
    rejected => "serve.requests.rejected",
    /// Solve requests answered with status `ok`.
    completed => "serve.requests.completed",
    /// Solve requests that tripped their deadline (status `cancelled`).
    cancelled => "serve.requests.cancelled",
    /// Solve requests answered with any other non-`ok` status.
    failed => "serve.requests.failed",
    /// Graph cache hits (instance reused, parse + SCC skipped).
    cache_hit => "serve.cache.hit",
    /// Graph cache misses (inline text parsed, or unknown hash).
    cache_miss => "serve.cache.miss",
    /// DIMACS parses actually performed.
    graph_parse => "serve.graph.parse",
    /// SCC plans actually built ([`mcr_core::SccPlan::prepare`] runs).
    plan_build => "serve.plan.build",
    /// Journaled in-flight requests re-queued on restart.
    journal_recovered => "serve.journal.recovered",
    /// Journal entries skipped during recovery (corrupt line or
    /// injected replay fault).
    journal_skipped => "serve.journal.skipped",
    /// Checkpoint slices executed by the sliced-solve loop.
    solve_slices => "serve.solve.slices",
    /// Solves resumed from an on-disk checkpoint.
    solve_resumed => "serve.solve.resumed",
    /// Frame-level I/O errors on any connection (read or write side).
    frame_errors => "serve.frame.errors",
    /// Duplicate requests answered from the settled journal state
    /// (a client resend after a lost response; no re-solve happened).
    dedup_settled => "serve.dedup.settled",
    /// Duplicate requests held off because the original is in flight
    /// (answered overloaded-retryable with a backoff hint).
    dedup_inflight => "serve.dedup.inflight",
    /// Requests shed because the daemon is draining for shutdown.
    drained => "serve.requests.drained",
    /// Edit batches applied to cached instances (the `edit` op settled
    /// `ok`; each one also invalidated the instance's cached plans).
    edit_applied => "serve.edit.applied",
    /// Solve requests answered from the cached instance's store of
    /// certified answers: the same question was answered before, so no
    /// solve ran.
    answer_hit => "serve.answer.hit",
    /// Solve requests that reached the solver: the question is new to
    /// the instance (since it was cached or last edited), its earlier
    /// answer was an error, or caching is off.
    answer_miss => "serve.answer.miss",
}

impl Metrics {
    /// Relaxed add, for the common `+= 1` call sites.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn renders_header_then_one_line_per_counter() {
        let m = Metrics::default();
        m.cache_hit.fetch_add(3, Ordering::Relaxed);
        let text = m.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + Metrics::NAMES.len());
        let header = json::parse(lines[0]).expect("header parses");
        assert_eq!(
            header.get("schema").and_then(Value::as_str),
            Some(METRICS_SCHEMA)
        );
        assert_eq!(
            header.get("kind").and_then(Value::as_str),
            Some("metrics.header")
        );
        let mut saw_hit = false;
        for line in &lines[1..] {
            let v = json::parse(line).expect("counter line parses");
            assert_eq!(v.get("kind").and_then(Value::as_str), Some("counter"));
            if v.get("name").and_then(Value::as_str) == Some("serve.cache.hit") {
                assert_eq!(v.get("value").and_then(Value::as_u64), Some(3));
                saw_hit = true;
            }
        }
        assert!(saw_hit);
    }

    #[test]
    fn the_schema_manifest_lists_every_counter_in_render_order() {
        let manifest = include_str!("../../../schemas/mcr-metrics-v1.txt");
        let declared: Vec<&str> = manifest
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("serve."))
            .collect();
        assert_eq!(declared, Metrics::NAMES);
    }

    #[test]
    fn answer_store_counters_are_registered() {
        let m = Metrics::default();
        Metrics::bump(&m.answer_hit);
        Metrics::bump(&m.answer_miss);
        Metrics::bump(&m.answer_miss);
        assert_eq!(m.value("serve.answer.hit"), Some(1));
        assert_eq!(m.value("serve.answer.miss"), Some(2));
        let text = m.render();
        assert!(
            text.contains("\"name\":\"serve.answer.hit\",\"value\":1}"),
            "{text}"
        );
        assert!(
            text.contains("\"name\":\"serve.answer.miss\",\"value\":2}"),
            "{text}"
        );
    }

    #[test]
    fn value_lookup_matches_names() {
        let m = Metrics::default();
        for name in Metrics::NAMES {
            assert_eq!(m.value(name), Some(0), "{name}");
        }
        assert_eq!(m.value("serve.not.a.counter"), None);
    }
}
