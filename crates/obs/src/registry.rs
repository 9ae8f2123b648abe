//! Process-global metrics registry, slow-query log, and Prometheus
//! text exposition.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::histogram::{bucket_upper_bound, BUCKETS};
use crate::{Counter, Gauge, Histogram, QueryOutcome, SlowQueryEntry};

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
/// histograms are lock-free).
#[derive(Default)]
pub struct SlowQueryLog {
    entries: Mutex<VecDeque<SlowQueryEntry>>,
    next_seq: AtomicU64,
}

impl SlowQueryLog {
    /// New empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<SlowQueryEntry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record a slow query, evicting the oldest entry when full. Labels
    /// are truncated to [`SLOW_LOG_LABEL_MAX`] bytes with a `…` marker so
    /// oversized SQL text cannot pin megabytes per ring slot.
    pub fn push(&self, label: impl Into<String>, elapsed_ns: u64, outcome: QueryOutcome) {
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

/// The engine's metric inventory. One process-global instance lives
/// behind [`global`]; tests may build private instances.
///
/// Every field is individually lock-free (the slow log uses a short
/// mutex but sits off the hot path), so storage and operator code may
/// hit these from arbitrary threads.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    // Storage layer.
    /// Rows published by `append_chunk` across all tables.
    pub append_rows: Counter,
    /// Encoded payload bytes published by `append_chunk`.
    pub append_bytes: Counter,
    /// Row batches sealed (rolled over) by appends.
    pub batch_seals: Counter,
    /// Immutable partition snapshots taken.
    pub snapshots_taken: Counter,
    /// Age of a partition snapshot at probe time, nanoseconds.
    /// Sampled 1-in-[`crate::SAMPLE_PERIOD`] by [`Self::probe_sampler`]
    /// so the probe hot path pays no clock read on unsampled events.
    pub snapshot_age_ns: Histogram,
    /// Gates the clock reads behind [`Self::snapshot_age_ns`].
    pub probe_sampler: crate::Sampler,

    // Index probe path.
    /// cTrie probes that found the key.
    pub probe_hits: Counter,
    /// cTrie probes that missed.
    pub probe_misses: Counter,
    /// Version-chain rows walked per successful probe.
    pub chain_walk: Histogram,

    // Query lifecycle (session layer).
    /// Queries that began executing.
    pub queries_started: Counter,
    /// Queries that ran to completion.
    pub queries_finished: Counter,
    /// Queries stopped by cancellation or deadline.
    pub queries_cancelled: Counter,
    /// Queries stopped by any other error.
    pub queries_failed: Counter,
    /// Queries currently executing.
    pub queries_in_flight: Gauge,
    /// End-to-end query latency, nanoseconds.
    pub query_latency_ns: Histogram,
    /// High-water mark of per-query reserved memory, bytes.
    pub query_peak_memory_bytes: Gauge,
    /// SELECTs answered from the session plan cache.
    pub plan_cache_hits: Counter,
    /// Cacheable SELECTs that had to be parsed, bound and optimized.
    pub plan_cache_misses: Counter,
    /// Cached plans displaced to stay within the cache's capacity.
    pub plan_cache_evictions: Counter,
    /// Cached plans dropped because the catalog or rule set changed.
    pub plan_cache_invalidations: Counter,
    /// Plan executions whose partitions ran on the calling thread.
    pub exec_inline: Counter,
    /// Partition tasks run on a spawned thread.
    pub exec_threads_spawned: Counter,

    // Durability layer (WAL + checkpoints + recovery).
    /// WAL records appended (one per committed chunk).
    pub wal_records: Counter,
    /// WAL bytes appended (framed record bytes, header included).
    pub wal_bytes: Counter,
    /// fsync calls issued by the group-commit writer.
    pub wal_fsyncs: Counter,
    /// Records coalesced into each group-commit flush.
    pub wal_group_commit_batch: Histogram,
    /// Wall-clock time to write one table checkpoint, nanoseconds.
    pub checkpoint_duration_ns: Histogram,
    /// Wall-clock time to recover one table on open, nanoseconds.
    pub recovery_duration_ns: Histogram,
    /// WAL records replayed during recovery.
    pub recovery_replayed_records: Counter,
    /// WAL healthy→degraded (read-only) transitions.
    pub wal_degraded_transitions: Counter,
    /// Appends rejected because the WAL was degraded read-only.
    pub wal_readonly_rejections: Counter,
    /// Successful `resume_writes` re-arms of a degraded WAL.
    pub wal_resumes: Counter,
    /// Scrub passes completed (per table target).
    pub scrub_runs: Counter,
    /// Corruption findings reported by scrub.
    pub scrub_corruptions: Counter,

    // Service layer (idf-serve).
    /// Client connections accepted since start.
    pub server_connections_total: Counter,
    /// Client connections currently open.
    pub server_connections_open: Gauge,
    /// Queries admitted and currently executing on server workers.
    pub server_in_flight: Gauge,
    /// Admitted queries waiting for a free worker.
    pub server_queue_depth: Gauge,
    /// Queries rejected with `ServerBusy` (admission queue full).
    pub server_rejected_busy: Counter,
    /// Queries rejected with `QuotaExceeded` (per-tenant limits).
    pub server_rejected_quota: Counter,
    /// Wall-clock time of each graceful drain, nanoseconds.
    pub server_drain_ns: Histogram,

    // Materialized views (idf-views).
    /// Materialized views currently registered.
    pub views_registered: Gauge,
    /// Committed deltas applied to a view (one count per view per delta).
    pub view_deltas_applied: Counter,
    /// Commit-to-applied latency of each delta application, nanoseconds.
    pub view_maintenance_lag_ns: Histogram,
    /// Wall-clock time of each full view recompute (REFRESH), nanoseconds.
    pub view_refresh_ns: Histogram,

    // DML (UPDATE/DELETE as versioned appends).
    /// UPDATE statements executed.
    pub dml_updates: Counter,
    /// DELETE statements executed.
    pub dml_deletes: Counter,
    /// Rows matched (affected) by UPDATE/DELETE statements.
    pub dml_rows_affected: Counter,
    /// Row versions a DML statement hid below a tombstone (the dead
    /// versions a later compaction reclaims).
    pub superseded_versions: Counter,

    // Background compaction (idf-compact).
    /// Live tombstone rows across compactor-surveyed tables.
    pub tombstones_live: Gauge,
    /// Dead (reclaimable) row versions across compactor-surveyed tables.
    pub dead_rows_live: Gauge,
    /// Table rewrites completed by the compactor.
    pub compaction_runs: Counter,
    /// Compaction attempts that failed (fault injection, swap refusal).
    pub compaction_failures: Counter,
    /// Row batches replaced by compaction rewrites.
    pub compaction_batches_rewritten: Counter,
    /// Dead row versions dropped by compaction.
    pub compaction_rows_reclaimed: Counter,
    /// Stored bytes released by compaction.
    pub compaction_bytes_reclaimed: Counter,
    /// Wall-clock time of one table compaction, nanoseconds.
    pub compaction_duration_ns: Histogram,
    /// Mean stored rows per key right after each compaction — the chain
    /// length a post-compaction probe walks.
    pub post_compaction_chain_walk: Histogram,

    /// Ring buffer of queries slower than the session threshold.
    pub slow_queries: SlowQueryLog,
}

impl MetricsRegistry {
    /// New registry with all metrics at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-global registry all engine layers report into.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// Reset every metric to zero (test support). Racing writers may
    /// land on either side of the reset; callers serialize.
    pub fn reset(&self) {
        self.append_rows.reset();
        self.append_bytes.reset();
        self.batch_seals.reset();
        self.snapshots_taken.reset();
        self.snapshot_age_ns.reset();
        self.probe_sampler.reset();
        self.probe_hits.reset();
        self.probe_misses.reset();
        self.chain_walk.reset();
        self.queries_started.reset();
        self.queries_finished.reset();
        self.queries_cancelled.reset();
        self.queries_failed.reset();
        self.queries_in_flight.reset();
        self.query_latency_ns.reset();
        self.query_peak_memory_bytes.reset();
        self.plan_cache_hits.reset();
        self.plan_cache_misses.reset();
        self.plan_cache_evictions.reset();
        self.plan_cache_invalidations.reset();
        self.exec_inline.reset();
        self.exec_threads_spawned.reset();
        self.wal_records.reset();
        self.wal_bytes.reset();
        self.wal_fsyncs.reset();
        self.wal_group_commit_batch.reset();
        self.checkpoint_duration_ns.reset();
        self.recovery_duration_ns.reset();
        self.recovery_replayed_records.reset();
        self.wal_degraded_transitions.reset();
        self.wal_readonly_rejections.reset();
        self.wal_resumes.reset();
        self.scrub_runs.reset();
        self.scrub_corruptions.reset();
        self.server_connections_total.reset();
        self.server_connections_open.reset();
        self.server_in_flight.reset();
        self.server_queue_depth.reset();
        self.server_rejected_busy.reset();
        self.server_rejected_quota.reset();
        self.server_drain_ns.reset();
        self.views_registered.reset();
        self.view_deltas_applied.reset();
        self.view_maintenance_lag_ns.reset();
        self.view_refresh_ns.reset();
        self.dml_updates.reset();
        self.dml_deletes.reset();
        self.dml_rows_affected.reset();
        self.superseded_versions.reset();
        self.tombstones_live.reset();
        self.dead_rows_live.reset();
        self.compaction_runs.reset();
        self.compaction_failures.reset();
        self.compaction_batches_rewritten.reset();
        self.compaction_rows_reclaimed.reset();
        self.compaction_bytes_reclaimed.reset();
        self.compaction_duration_ns.reset();
        self.post_compaction_chain_walk.reset();
        self.slow_queries.reset();
    }

    /// Render every metric in Prometheus text exposition format
    /// (`# TYPE` lines, `_bucket{le=...}` cumulative histograms).
    pub fn prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        write_counter(
            &mut out,
            "idf_storage_append_rows_total",
            "Rows published by append_chunk.",
            &self.append_rows,
        );
        write_counter(
            &mut out,
            "idf_storage_append_bytes_total",
            "Encoded payload bytes published by append_chunk.",
            &self.append_bytes,
        );
        write_counter(
            &mut out,
            "idf_storage_batch_seals_total",
            "Row batches sealed by append rollover.",
            &self.batch_seals,
        );
        write_counter(
            &mut out,
            "idf_storage_snapshots_total",
            "Immutable partition snapshots taken.",
            &self.snapshots_taken,
        );
        write_histogram(
            &mut out,
            "idf_storage_snapshot_age_ns",
            "Snapshot age at probe time, nanoseconds.",
            &self.snapshot_age_ns,
        );
        write_counter(
            &mut out,
            "idf_index_probe_hits_total",
            "Index probes that found the key.",
            &self.probe_hits,
        );
        write_counter(
            &mut out,
            "idf_index_probe_misses_total",
            "Index probes that missed.",
            &self.probe_misses,
        );
        write_histogram(
            &mut out,
            "idf_index_chain_walk_length",
            "Version-chain rows walked per successful probe.",
            &self.chain_walk,
        );
        write_counter(
            &mut out,
            "idf_query_started_total",
            "Queries that began executing.",
            &self.queries_started,
        );
        write_counter(
            &mut out,
            "idf_query_finished_total",
            "Queries that ran to completion.",
            &self.queries_finished,
        );
        write_counter(
            &mut out,
            "idf_query_cancelled_total",
            "Queries stopped by cancellation or deadline.",
            &self.queries_cancelled,
        );
        write_counter(
            &mut out,
            "idf_query_failed_total",
            "Queries stopped by any other error.",
            &self.queries_failed,
        );
        write_gauge(
            &mut out,
            "idf_query_in_flight",
            "Queries currently executing.",
            &self.queries_in_flight,
        );
        write_histogram(
            &mut out,
            "idf_query_latency_ns",
            "End-to-end query latency, nanoseconds.",
            &self.query_latency_ns,
        );
        write_gauge(
            &mut out,
            "idf_query_peak_memory_bytes",
            "High-water mark of per-query reserved memory.",
            &self.query_peak_memory_bytes,
        );
        write_counter(
            &mut out,
            "idf_plan_cache_hits_total",
            "SELECTs answered from the session plan cache.",
            &self.plan_cache_hits,
        );
        write_counter(
            &mut out,
            "idf_plan_cache_misses_total",
            "Cacheable SELECTs that had to be parsed, bound and optimized.",
            &self.plan_cache_misses,
        );
        write_counter(
            &mut out,
            "idf_plan_cache_evictions_total",
            "Cached plans displaced to stay within the cache's capacity.",
            &self.plan_cache_evictions,
        );
        write_counter(
            &mut out,
            "idf_plan_cache_invalidations_total",
            "Cached plans dropped because the catalog or rule set changed.",
            &self.plan_cache_invalidations,
        );
        write_counter(
            &mut out,
            "idf_exec_inline_total",
            "Plan executions whose partitions ran on the calling thread.",
            &self.exec_inline,
        );
        write_counter(
            &mut out,
            "idf_exec_threads_spawned_total",
            "Partition tasks run on a spawned thread.",
            &self.exec_threads_spawned,
        );
        write_counter(
            &mut out,
            "idf_wal_records_total",
            "WAL records appended (one per committed chunk).",
            &self.wal_records,
        );
        write_counter(
            &mut out,
            "idf_wal_bytes_total",
            "WAL bytes appended, framing included.",
            &self.wal_bytes,
        );
        write_counter(
            &mut out,
            "idf_wal_fsyncs_total",
            "fsync calls issued by the group-commit writer.",
            &self.wal_fsyncs,
        );
        write_histogram(
            &mut out,
            "idf_wal_group_commit_batch",
            "Records coalesced into each group-commit flush.",
            &self.wal_group_commit_batch,
        );
        write_histogram(
            &mut out,
            "idf_checkpoint_duration_ns",
            "Time to write one table checkpoint, nanoseconds.",
            &self.checkpoint_duration_ns,
        );
        write_histogram(
            &mut out,
            "idf_recovery_duration_ns",
            "Time to recover one table on open, nanoseconds.",
            &self.recovery_duration_ns,
        );
        write_counter(
            &mut out,
            "idf_recovery_replayed_records_total",
            "WAL records replayed during recovery.",
            &self.recovery_replayed_records,
        );
        write_counter(
            &mut out,
            "idf_wal_degraded_transitions_total",
            "WAL healthy-to-degraded (read-only) transitions.",
            &self.wal_degraded_transitions,
        );
        write_counter(
            &mut out,
            "idf_wal_readonly_rejections_total",
            "Appends rejected because the WAL was degraded read-only.",
            &self.wal_readonly_rejections,
        );
        write_counter(
            &mut out,
            "idf_wal_resumes_total",
            "Successful resume_writes re-arms of a degraded WAL.",
            &self.wal_resumes,
        );
        write_counter(
            &mut out,
            "idf_scrub_runs_total",
            "Scrub passes completed (per table target).",
            &self.scrub_runs,
        );
        write_counter(
            &mut out,
            "idf_scrub_corruptions_total",
            "Corruption findings reported by scrub.",
            &self.scrub_corruptions,
        );
        write_counter(
            &mut out,
            "idf_server_connections_total",
            "Client connections accepted since start.",
            &self.server_connections_total,
        );
        write_gauge(
            &mut out,
            "idf_server_connections_open",
            "Client connections currently open.",
            &self.server_connections_open,
        );
        write_gauge(
            &mut out,
            "idf_server_in_flight",
            "Queries admitted and currently executing on server workers.",
            &self.server_in_flight,
        );
        write_gauge(
            &mut out,
            "idf_server_queue_depth",
            "Admitted queries waiting for a free worker.",
            &self.server_queue_depth,
        );
        write_counter(
            &mut out,
            "idf_server_rejected_busy_total",
            "Queries rejected with ServerBusy (admission queue full).",
            &self.server_rejected_busy,
        );
        write_counter(
            &mut out,
            "idf_server_rejected_quota_total",
            "Queries rejected with QuotaExceeded (per-tenant limits).",
            &self.server_rejected_quota,
        );
        write_histogram(
            &mut out,
            "idf_server_drain_ns",
            "Wall-clock time of each graceful drain, nanoseconds.",
            &self.server_drain_ns,
        );
        write_gauge(
            &mut out,
            "idf_views_registered",
            "Materialized views currently registered.",
            &self.views_registered,
        );
        write_counter(
            &mut out,
            "idf_views_deltas_applied_total",
            "Committed deltas applied to a view (one count per view per delta).",
            &self.view_deltas_applied,
        );
        write_histogram(
            &mut out,
            "idf_views_maintenance_lag_ns",
            "Commit-to-applied latency of each delta application, nanoseconds.",
            &self.view_maintenance_lag_ns,
        );
        write_histogram(
            &mut out,
            "idf_views_refresh_duration_ns",
            "Wall-clock time of each full view recompute (REFRESH), nanoseconds.",
            &self.view_refresh_ns,
        );
        write_counter(
            &mut out,
            "idf_dml_updates_total",
            "UPDATE statements executed.",
            &self.dml_updates,
        );
        write_counter(
            &mut out,
            "idf_dml_deletes_total",
            "DELETE statements executed.",
            &self.dml_deletes,
        );
        write_counter(
            &mut out,
            "idf_dml_rows_affected_total",
            "Rows matched (affected) by UPDATE/DELETE statements.",
            &self.dml_rows_affected,
        );
        write_counter(
            &mut out,
            "idf_dml_superseded_versions_total",
            "Row versions hidden below a tombstone by DML.",
            &self.superseded_versions,
        );
        write_gauge(
            &mut out,
            "idf_compaction_tombstones_live",
            "Live tombstone rows across compactor-surveyed tables.",
            &self.tombstones_live,
        );
        write_gauge(
            &mut out,
            "idf_compaction_dead_rows_live",
            "Dead (reclaimable) row versions across compactor-surveyed tables.",
            &self.dead_rows_live,
        );
        write_counter(
            &mut out,
            "idf_compaction_runs_total",
            "Table rewrites completed by the compactor.",
            &self.compaction_runs,
        );
        write_counter(
            &mut out,
            "idf_compaction_failures_total",
            "Compaction attempts that failed.",
            &self.compaction_failures,
        );
        write_counter(
            &mut out,
            "idf_compaction_batches_rewritten_total",
            "Row batches replaced by compaction rewrites.",
            &self.compaction_batches_rewritten,
        );
        write_counter(
            &mut out,
            "idf_compaction_rows_reclaimed_total",
            "Dead row versions dropped by compaction.",
            &self.compaction_rows_reclaimed,
        );
        write_counter(
            &mut out,
            "idf_compaction_bytes_reclaimed_total",
            "Stored bytes released by compaction.",
            &self.compaction_bytes_reclaimed,
        );
        write_histogram(
            &mut out,
            "idf_compaction_duration_ns",
            "Wall-clock time of one table compaction, nanoseconds.",
            &self.compaction_duration_ns,
        );
        write_histogram(
            &mut out,
            "idf_compaction_chain_walk_length",
            "Mean stored rows per key right after each compaction.",
            &self.post_compaction_chain_walk,
        );
        write_gauge_value(
            &mut out,
            "idf_slow_query_log_entries",
            "Entries retained in the slow-query log.",
            self.slow_queries.len() as i64,
        );
        out
    }
}

/// The process-global registry (free-function alias for
/// [`MetricsRegistry::global`], the form hot paths call).
#[inline]
pub fn global() -> &'static MetricsRegistry {
    MetricsRegistry::global()
}

fn write_counter(out: &mut String, name: &str, help: &str, c: &Counter) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {}", c.get());
}

fn write_gauge(out: &mut String, name: &str, help: &str, g: &Gauge) {
    write_gauge_value(out, name, help, g.get());
}

fn write_gauge_value(out: &mut String, name: &str, help: &str, v: i64) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {v}");
}

fn write_histogram(out: &mut String, name: &str, help: &str, h: &Histogram) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let counts = h.bucket_counts();
    let mut cumulative = 0u64;
    for (i, &c) in counts.iter().enumerate() {
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
    let _ = writeln!(out, "{name}_sum {}", h.sum());
    let _ = writeln!(out, "{name}_count {cumulative}");
}

#[cfg(test)]
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

    #[test]
    fn prometheus_exposition_shape() {
        let m = MetricsRegistry::new();
        m.append_rows.add(7);
        m.probe_hits.add(3);
        m.probe_misses.inc();
        m.chain_walk.record(1);
        m.chain_walk.record(5);
        m.queries_in_flight.set(2);
        let text = m.prometheus();
        assert!(text.contains("# TYPE idf_storage_append_rows_total counter"));
        assert!(text.contains("idf_storage_append_rows_total 7"));
        assert!(text.contains("idf_index_probe_hits_total 3"));
        assert!(text.contains("idf_index_probe_misses_total 1"));
        assert!(text.contains("# TYPE idf_index_chain_walk_length histogram"));
        assert!(text.contains("idf_index_chain_walk_length_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("idf_index_chain_walk_length_sum 6"));
        assert!(text.contains("idf_index_chain_walk_length_count 2"));
        assert!(text.contains("idf_query_in_flight 2"));
        m.wal_records.add(4);
        m.wal_fsyncs.inc();
        m.wal_group_commit_batch.record(4);
        m.server_connections_total.add(6);
        m.server_connections_open.set(2);
        m.server_queue_depth.set(1);
        m.server_rejected_busy.inc();
        m.server_drain_ns.record(1_000);
        let text = m.prometheus();
        assert!(text.contains("idf_wal_records_total 4"));
        assert!(text.contains("idf_wal_fsyncs_total 1"));
        assert!(text.contains("# TYPE idf_wal_group_commit_batch histogram"));
        assert!(text.contains("# TYPE idf_recovery_replayed_records_total counter"));
        assert!(text.contains("idf_server_connections_total 6"));
        assert!(text.contains("idf_server_connections_open 2"));
        assert!(text.contains("idf_server_queue_depth 1"));
        assert!(text.contains("idf_server_rejected_busy_total 1"));
        assert!(text.contains("# TYPE idf_server_drain_ns histogram"));
        m.dml_updates.inc();
        m.dml_deletes.add(2);
        m.dml_rows_affected.add(3);
        m.superseded_versions.add(3);
        m.tombstones_live.set(5);
        m.compaction_runs.inc();
        m.compaction_batches_rewritten.add(4);
        m.compaction_rows_reclaimed.add(9);
        m.compaction_duration_ns.record(2_000);
        m.post_compaction_chain_walk.record(1);
        let text = m.prometheus();
        assert!(text.contains("idf_dml_updates_total 1"));
        assert!(text.contains("idf_dml_deletes_total 2"));
        assert!(text.contains("idf_dml_rows_affected_total 3"));
        assert!(text.contains("idf_dml_superseded_versions_total 3"));
        assert!(text.contains("idf_compaction_tombstones_live 5"));
        assert!(text.contains("idf_compaction_runs_total 1"));
        assert!(text.contains("idf_compaction_batches_rewritten_total 4"));
        assert!(text.contains("idf_compaction_rows_reclaimed_total 9"));
        assert!(text.contains("# TYPE idf_compaction_duration_ns histogram"));
        assert!(text.contains("# TYPE idf_compaction_chain_walk_length histogram"));
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
