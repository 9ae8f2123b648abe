//! Process-global metrics registry, slow-query log, and Prometheus
//! text exposition.

use std::collections::VecDeque;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::histogram::{bucket_upper_bound, BUCKETS};
use crate::{Counter, Gauge, Histogram, QueryOutcome, Sampler, SlowQueryEntry};

/// Maximum entries retained by the slow-query log; older entries are
/// evicted FIFO.
pub const SLOW_LOG_CAPACITY: usize = 128;

/// Longest label prefix (bytes) the slow-query log retains per entry.
/// A multi-megabyte SQL statement arriving over the wire would otherwise
/// be pinned ×[`SLOW_LOG_CAPACITY`] entries; anything longer is cut at a
/// char boundary and marked with a trailing `…`.
pub const SLOW_LOG_LABEL_MAX: usize = 1024;

/// Truncate `label` to at most [`SLOW_LOG_LABEL_MAX`] bytes (on a char
/// boundary), appending `…` when anything was cut.
fn bounded_label(label: String) -> String {
    if label.len() <= SLOW_LOG_LABEL_MAX {
        return label;
    }
    let mut end = SLOW_LOG_LABEL_MAX;
    while !label.is_char_boundary(end) {
        end -= 1;
    }
    let mut out = String::with_capacity(end + '…'.len_utf8());
    out.push_str(&label[..end]);
    out.push('…');
    out
}

/// Bounded ring buffer of slow queries. `push` takes a short mutex
/// critical section (a deque rotate) and is only reached for queries
/// that already blew the slowness threshold, so it is never on a hot
/// path and can never deadlock against metric reads (counters and
/// histograms are lock-free). With `obs` off `push` retains nothing.
pub struct SlowQueryLog {
    entries: Mutex<VecDeque<SlowQueryEntry>>,
    next_seq: AtomicU64,
}

impl SlowQueryLog {
    /// New empty log.
    pub const fn new() -> Self {
        SlowQueryLog {
            entries: Mutex::new(VecDeque::new()),
            next_seq: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<SlowQueryEntry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record a slow query, evicting the oldest entry when full. Labels
    /// are truncated to [`SLOW_LOG_LABEL_MAX`] bytes with a `…` marker so
    /// oversized SQL text cannot pin megabytes per ring slot.
    pub fn push(&self, label: impl Into<String>, elapsed_ns: u64, outcome: QueryOutcome) {
        if !crate::enabled() {
            return;
        }
        let entry = SlowQueryEntry {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            label: bounded_label(label.into()),
            elapsed_ns,
            outcome,
        };
        let mut q = self.lock();
        if q.len() == SLOW_LOG_CAPACITY {
            q.pop_front();
        }
        q.push_back(entry);
    }

    /// All retained entries, oldest first.
    pub fn entries(&self) -> Vec<SlowQueryEntry> {
        self.lock().iter().cloned().collect()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all retained entries (test support).
    pub fn reset(&self) {
        self.lock().clear();
    }
}

impl std::fmt::Debug for SlowQueryLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SlowQueryLog").field(&self.len()).finish()
    }
}

/// How one metric kind renders in Prometheus text exposition.
trait Expose {
    /// The `# TYPE` keyword.
    const TYPE: &'static str;
    /// Append the sample lines for a metric called `name`.
    fn samples(&self, out: &mut String, name: &str);
}

impl Expose for Counter {
    const TYPE: &'static str = "counter";
    fn samples(&self, out: &mut String, name: &str) {
        let _ = writeln!(out, "{name} {}", self.get());
    }
}

impl Expose for Gauge {
    const TYPE: &'static str = "gauge";
    fn samples(&self, out: &mut String, name: &str) {
        let _ = writeln!(out, "{name} {}", self.get());
    }
}

/// The slow-query log is exposed as a gauge of its retained entries.
impl Expose for SlowQueryLog {
    const TYPE: &'static str = "gauge";
    fn samples(&self, out: &mut String, name: &str) {
        let _ = writeln!(out, "{name} {}", self.len());
    }
}

impl Expose for Histogram {
    const TYPE: &'static str = "histogram";
    fn samples(&self, out: &mut String, name: &str) {
        let mut cumulative = 0u64;
        for (i, &c) in self.bucket_counts().iter().enumerate() {
            // Skip empty leading/inner buckets to keep the exposition
            // readable; cumulative counts stay correct because `cumulative`
            // carries across skipped buckets.
            cumulative += c;
            if c == 0 {
                continue;
            }
            if i == BUCKETS - 1 {
                // Top bucket is only reachable via +Inf below.
                continue;
            }
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                bucket_upper_bound(i)
            );
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum {}", self.sum());
        let _ = writeln!(out, "{name}_count {cumulative}");
    }
}

fn expose<M: Expose>(out: &mut String, name: &str, help: &str, metric: &M) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {}", M::TYPE);
    metric.samples(out, name);
}

/// Declares the metric inventory: one row per metric, in exposition
/// order — `Kind field = "prometheus_name", "help text";` under the
/// field's doc comment. The struct field, its initializer, its `reset()`
/// and its `# HELP`/`# TYPE`/sample lines are all generated from the
/// row, so adding a metric is a one-row change.
macro_rules! metrics {
    ($( $(#[$doc:meta])* $kind:ident $field:ident = $name:literal, $help:literal; )+) => {
        /// The engine's metric inventory. One process-global instance lives
        /// behind [`global`]; tests may build private instances.
        ///
        /// Every field is individually lock-free (the slow log uses a short
        /// mutex but sits off the hot path), so storage and operator code may
        /// hit these from arbitrary threads.
        #[derive(Debug)]
        pub struct MetricsRegistry {
            $( $(#[$doc])* pub $field: $kind, )+
            /// Gates the clock reads behind [`Self::snapshot_age_ns`].
            pub probe_sampler: Sampler,
            /// Ring buffer of queries slower than the session threshold.
            pub slow_queries: SlowQueryLog,
        }

        impl MetricsRegistry {
            /// New registry with all metrics at zero.
            pub const fn new() -> Self {
                MetricsRegistry {
                    $( $field: $kind::new(), )+
                    probe_sampler: Sampler::new(),
                    slow_queries: SlowQueryLog::new(),
                }
            }

            /// Reset every metric to zero (test support). Racing writers may
            /// land on either side of the reset; callers serialize.
            pub fn reset(&self) {
                $( self.$field.reset(); )+
                self.probe_sampler.reset();
                self.slow_queries.reset();
            }

            /// Render every metric in Prometheus text exposition format
            /// (`# TYPE` lines, `_bucket{le=...}` cumulative histograms).
            /// Empty with `obs` off.
            pub fn prometheus(&self) -> String {
                if !crate::enabled() {
                    return String::new();
                }
                let mut out = String::with_capacity(4096);
                $( expose(&mut out, $name, $help, &self.$field); )+
                expose(
                    &mut out,
                    "idf_slow_query_log_entries",
                    "Entries retained in the slow-query log.",
                    &self.slow_queries,
                );
                out
            }
        }
    };
}

metrics! {
    // Storage layer.
    /// Rows published by `append_chunk` across all tables.
    Counter append_rows = "idf_storage_append_rows_total",
        "Rows published by append_chunk.";
    /// Encoded payload bytes published by `append_chunk`.
    Counter append_bytes = "idf_storage_append_bytes_total",
        "Encoded payload bytes published by append_chunk.";
    /// Row batches sealed (rolled over) by appends.
    Counter batch_seals = "idf_storage_batch_seals_total",
        "Row batches sealed by append rollover.";
    /// Immutable partition snapshots taken.
    Counter snapshots_taken = "idf_storage_snapshots_total",
        "Immutable partition snapshots taken.";
    /// Age of a partition snapshot at probe time, nanoseconds.
    /// Sampled 1-in-[`crate::SAMPLE_PERIOD`] by [`Self::probe_sampler`]
    /// so the probe hot path pays no clock read on unsampled events.
    Histogram snapshot_age_ns = "idf_storage_snapshot_age_ns",
        "Snapshot age at probe time, nanoseconds.";

    // Index probe path.
    /// cTrie probes that found the key.
    Counter probe_hits = "idf_index_probe_hits_total",
        "Index probes that found the key.";
    /// cTrie probes that missed.
    Counter probe_misses = "idf_index_probe_misses_total",
        "Index probes that missed.";
    /// Version-chain rows walked per successful probe.
    Histogram chain_walk = "idf_index_chain_walk_length",
        "Version-chain rows walked per successful probe.";

    // Query lifecycle (session layer).
    /// Queries that began executing.
    Counter queries_started = "idf_query_started_total",
        "Queries that began executing.";
    /// Queries that ran to completion.
    Counter queries_finished = "idf_query_finished_total",
        "Queries that ran to completion.";
    /// Queries stopped by cancellation or deadline.
    Counter queries_cancelled = "idf_query_cancelled_total",
        "Queries stopped by cancellation or deadline.";
    /// Queries stopped by any other error.
    Counter queries_failed = "idf_query_failed_total",
        "Queries stopped by any other error.";
    /// Queries currently executing.
    Gauge queries_in_flight = "idf_query_in_flight",
        "Queries currently executing.";
    /// End-to-end query latency, nanoseconds.
    Histogram query_latency_ns = "idf_query_latency_ns",
        "End-to-end query latency, nanoseconds.";
    /// High-water mark of per-query reserved memory, bytes.
    Gauge query_peak_memory_bytes = "idf_query_peak_memory_bytes",
        "High-water mark of per-query reserved memory.";
    /// SELECTs answered from the session plan cache.
    Counter plan_cache_hits = "idf_plan_cache_hits_total",
        "SELECTs answered from the session plan cache.";
    /// Cacheable SELECTs that had to be parsed, bound and optimized.
    Counter plan_cache_misses = "idf_plan_cache_misses_total",
        "Cacheable SELECTs that had to be parsed, bound and optimized.";
    /// Cached plans displaced to stay within the cache's capacity.
    Counter plan_cache_evictions = "idf_plan_cache_evictions_total",
        "Cached plans displaced to stay within the cache's capacity.";
    /// Cached plans dropped because the catalog or rule set changed.
    Counter plan_cache_invalidations = "idf_plan_cache_invalidations_total",
        "Cached plans dropped because the catalog or rule set changed.";
    /// Partition fan-outs that ran every partition on the calling thread.
    Counter exec_inline = "idf_exec_inline_total",
        "Partition fan-outs that ran every partition on the calling thread.";
    /// Helper threads spawned to run partitions beside the calling thread.
    Counter exec_threads_spawned = "idf_exec_threads_spawned_total",
        "Helper threads spawned to run partitions beside the calling thread.";

    // Durability layer (WAL + checkpoints + recovery).
    /// WAL records appended (one per committed chunk).
    Counter wal_records = "idf_wal_records_total",
        "WAL records appended (one per committed chunk).";
    /// WAL bytes appended (framed record bytes, header included).
    Counter wal_bytes = "idf_wal_bytes_total",
        "WAL bytes appended, framing included.";
    /// fsync calls issued by the group-commit writer.
    Counter wal_fsyncs = "idf_wal_fsyncs_total",
        "fsync calls issued by the group-commit writer.";
    /// Records coalesced into each group-commit flush.
    Histogram wal_group_commit_batch = "idf_wal_group_commit_batch",
        "Records coalesced into each group-commit flush.";
    /// Wall-clock time to write one table checkpoint, nanoseconds.
    Histogram checkpoint_duration_ns = "idf_checkpoint_duration_ns",
        "Time to write one table checkpoint, nanoseconds.";
    /// Wall-clock time to recover one table on open, nanoseconds.
    Histogram recovery_duration_ns = "idf_recovery_duration_ns",
        "Time to recover one table on open, nanoseconds.";
    /// WAL records replayed during recovery.
    Counter recovery_replayed_records = "idf_recovery_replayed_records_total",
        "WAL records replayed during recovery.";
    /// WAL healthy→degraded (read-only) transitions.
    Counter wal_degraded_transitions = "idf_wal_degraded_transitions_total",
        "WAL healthy-to-degraded (read-only) transitions.";
    /// Appends rejected because the WAL was degraded read-only.
    Counter wal_readonly_rejections = "idf_wal_readonly_rejections_total",
        "Appends rejected because the WAL was degraded read-only.";
    /// Successful `resume_writes` re-arms of a degraded WAL.
    Counter wal_resumes = "idf_wal_resumes_total",
        "Successful resume_writes re-arms of a degraded WAL.";
    /// Scrub passes completed (per table target).
    Counter scrub_runs = "idf_scrub_runs_total",
        "Scrub passes completed (per table target).";
    /// Corruption findings reported by scrub.
    Counter scrub_corruptions = "idf_scrub_corruptions_total",
        "Corruption findings reported by scrub.";

    // Service layer (idf-serve).
    /// Client connections accepted since start.
    Counter server_connections_total = "idf_server_connections_total",
        "Client connections accepted since start.";
    /// Client connections currently open.
    Gauge server_connections_open = "idf_server_connections_open",
        "Client connections currently open.";
    /// Queries admitted and currently executing, each on its connection's thread.
    Gauge server_in_flight = "idf_server_in_flight",
        "Queries admitted and currently executing, each on its connection's thread.";
    /// Admitted queries waiting for a free execution slot.
    Gauge server_queue_depth = "idf_server_queue_depth",
        "Admitted queries waiting for a free execution slot.";
    /// Queries rejected with `ServerBusy` (admission queue full).
    Counter server_rejected_busy = "idf_server_rejected_busy_total",
        "Queries rejected with ServerBusy (admission queue full).";
    /// Queries rejected with `QuotaExceeded` (per-tenant limits).
    Counter server_rejected_quota = "idf_server_rejected_quota_total",
        "Queries rejected with QuotaExceeded (per-tenant limits).";
    /// Wall-clock time of each graceful drain, nanoseconds.
    Histogram server_drain_ns = "idf_server_drain_ns",
        "Wall-clock time of each graceful drain, nanoseconds.";

    // Materialized views (idf-views).
    /// Materialized views currently registered.
    Gauge views_registered = "idf_views_registered",
        "Materialized views currently registered.";
    /// Committed deltas applied to a view (one count per view per delta).
    Counter view_deltas_applied = "idf_views_deltas_applied_total",
        "Committed deltas applied to a view (one count per view per delta).";
    /// Commit-to-applied latency of each delta application, nanoseconds.
    Histogram view_maintenance_lag_ns = "idf_views_maintenance_lag_ns",
        "Commit-to-applied latency of each delta application, nanoseconds.";
    /// Wall-clock time of each full view recompute (REFRESH), nanoseconds.
    Histogram view_refresh_ns = "idf_views_refresh_duration_ns",
        "Wall-clock time of each full view recompute (REFRESH), nanoseconds.";

    // DML (UPDATE/DELETE as versioned appends).
    /// UPDATE statements executed.
    Counter dml_updates = "idf_dml_updates_total",
        "UPDATE statements executed.";
    /// DELETE statements executed.
    Counter dml_deletes = "idf_dml_deletes_total",
        "DELETE statements executed.";
    /// Rows matched (affected) by UPDATE/DELETE statements.
    Counter dml_rows_affected = "idf_dml_rows_affected_total",
        "Rows matched (affected) by UPDATE/DELETE statements.";
    /// Row versions a DML statement hid below a tombstone (the dead
    /// versions a later compaction reclaims).
    Counter superseded_versions = "idf_dml_superseded_versions_total",
        "Row versions hidden below a tombstone by DML.";

    // Background compaction (idf-compact).
    /// Live tombstone rows across compactor-surveyed tables.
    Gauge tombstones_live = "idf_compaction_tombstones_live",
        "Live tombstone rows across compactor-surveyed tables.";
    /// Dead (reclaimable) row versions across compactor-surveyed tables.
    Gauge dead_rows_live = "idf_compaction_dead_rows_live",
        "Dead (reclaimable) row versions across compactor-surveyed tables.";
    /// Table rewrites completed by the compactor.
    Counter compaction_runs = "idf_compaction_runs_total",
        "Table rewrites completed by the compactor.";
    /// Compaction attempts that failed (fault injection, swap refusal).
    Counter compaction_failures = "idf_compaction_failures_total",
        "Compaction attempts that failed.";
    /// Row batches replaced by compaction rewrites.
    Counter compaction_batches_rewritten = "idf_compaction_batches_rewritten_total",
        "Row batches replaced by compaction rewrites.";
    /// Dead row versions dropped by compaction.
    Counter compaction_rows_reclaimed = "idf_compaction_rows_reclaimed_total",
        "Dead row versions dropped by compaction.";
    /// Stored bytes released by compaction.
    Counter compaction_bytes_reclaimed = "idf_compaction_bytes_reclaimed_total",
        "Stored bytes released by compaction.";
    /// Wall-clock time of one table compaction, nanoseconds.
    Histogram compaction_duration_ns = "idf_compaction_duration_ns",
        "Wall-clock time of one table compaction, nanoseconds.";
    /// Mean stored rows per key right after each compaction — the chain
    /// length a post-compaction probe walks.
    Histogram post_compaction_chain_walk = "idf_compaction_chain_walk_length",
        "Mean stored rows per key right after each compaction.";
}

/// The process-global registry all engine layers report into. A plain
/// `static`, so hot paths reach a metric with no initialization check.
#[inline]
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: MetricsRegistry = MetricsRegistry::new();
    &GLOBAL
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;

    #[test]
    fn slow_log_is_bounded_fifo() {
        let log = SlowQueryLog::new();
        for i in 0..(SLOW_LOG_CAPACITY + 10) {
            log.push(format!("q{i}"), i as u64, QueryOutcome::Finished);
        }
        let entries = log.entries();
        assert_eq!(entries.len(), SLOW_LOG_CAPACITY);
        assert_eq!(entries[0].label, "q10");
        assert_eq!(
            entries.last().unwrap().label,
            format!("q{}", SLOW_LOG_CAPACITY + 9)
        );
        // Sequence numbers stay monotone across eviction.
        for w in entries.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    /// Regression: the ring used to retain full SQL text, so a
    /// multi-megabyte statement was pinned once per slot. Labels are now
    /// cut to a bounded prefix with an ellipsis marker.
    #[test]
    fn slow_log_truncates_oversized_labels() {
        let log = SlowQueryLog::new();
        let huge = "SELECT ".to_string() + &"x".repeat(4 * 1024 * 1024);
        log.push(huge.clone(), 1, QueryOutcome::Finished);
        let entry = &log.entries()[0];
        assert!(entry.label.len() <= SLOW_LOG_LABEL_MAX + '…'.len_utf8());
        assert!(
            entry.label.ends_with('…'),
            "missing marker: {}",
            entry.label
        );
        assert!(entry.label.starts_with("SELECT x"));
        // Short labels pass through untouched.
        log.push("SELECT 1", 1, QueryOutcome::Finished);
        assert_eq!(log.entries()[1].label, "SELECT 1");
        // Truncation lands on a char boundary even mid-multibyte-run.
        let multibyte = "é".repeat(SLOW_LOG_LABEL_MAX);
        log.push(multibyte, 1, QueryOutcome::Finished);
        assert!(log.entries()[2].label.ends_with('…'));
    }

    /// Names, help strings, types and ordering are pinned byte-for-byte
    /// by `tests/golden.rs`; this checks the line grammar on live values.
    #[test]
    fn prometheus_exposition_shape() {
        let m = MetricsRegistry::new();
        m.append_rows.add(7);
        m.chain_walk.record(1);
        m.chain_walk.record(5);
        m.queries_in_flight.set(2);
        m.slow_queries.push("q", 1, QueryOutcome::Finished);
        let text = m.prometheus();
        assert!(text.contains("idf_storage_append_rows_total 7"));
        assert!(text.contains("idf_index_chain_walk_length_sum 6"));
        assert!(text.contains("idf_query_in_flight 2"));
        assert!(text.contains("idf_slow_query_log_entries 1"));
        // Every line is a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.splitn(2, ' ').count() == 2,
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = MetricsRegistry::new();
        m.append_rows.add(5);
        m.query_latency_ns.record(1000);
        m.slow_queries.push("q", 1, QueryOutcome::Failed);
        m.reset();
        assert_eq!(m.append_rows.get(), 0);
        assert_eq!(m.query_latency_ns.count(), 0);
        assert!(m.slow_queries.is_empty());
    }
}
