//! Compiled-out mirror of the metrics API (`--no-default-features`).
//!
//! Every type exists with the same surface as the real implementation,
//! but all mutators are inlined empty bodies and all readouts return
//! zero / empty, so callers need no `#[cfg]` guards and the optimizer
//! removes the calls entirely.

use crate::{HistogramSnapshot, QueryOutcome, SlowQueryEntry};

/// Capacity the real slow-query log would have (kept for API parity).
pub const SLOW_LOG_CAPACITY: usize = 128;

/// Label byte bound the real slow-query log would apply (API parity).
pub const SLOW_LOG_LABEL_MAX: usize = 1024;

/// Sample period the real sampler would use (kept for API parity).
pub const SAMPLE_PERIOD: u64 = 64;

/// Sampler stub: never samples, so gated clock reads compile out.
#[derive(Debug, Default)]
pub struct Sampler;

impl Sampler {
    /// New sampler stub.
    pub const fn new() -> Self {
        Sampler
    }
    /// Always `false` — no event carries expensive telemetry.
    #[inline(always)]
    pub fn tick(&self) -> bool {
        false
    }
    /// No-op.
    #[inline(always)]
    pub fn reset(&self) {}
}

/// Counter stub: all operations are no-ops.
#[derive(Debug, Default)]
pub struct Counter;

impl Counter {
    /// New counter stub.
    pub fn new() -> Self {
        Counter
    }
    /// No-op.
    #[inline(always)]
    pub fn inc(&self) {}
    /// No-op.
    #[inline(always)]
    pub fn add(&self, _n: u64) {}
    /// Always zero.
    #[inline(always)]
    pub fn get(&self) -> u64 {
        0
    }
    /// No-op.
    #[inline(always)]
    pub fn reset(&self) {}
}

/// Gauge stub: all operations are no-ops.
#[derive(Debug, Default)]
pub struct Gauge;

impl Gauge {
    /// New gauge stub.
    pub fn new() -> Self {
        Gauge
    }
    /// No-op.
    #[inline(always)]
    pub fn set(&self, _v: i64) {}
    /// No-op.
    #[inline(always)]
    pub fn add(&self, _n: i64) {}
    /// No-op.
    #[inline(always)]
    pub fn sub(&self, _n: i64) {}
    /// No-op.
    #[inline(always)]
    pub fn set_max(&self, _v: i64) {}
    /// Always zero.
    #[inline(always)]
    pub fn get(&self) -> i64 {
        0
    }
    /// No-op.
    #[inline(always)]
    pub fn reset(&self) {}
}

/// Histogram stub: all operations are no-ops.
#[derive(Debug, Default)]
pub struct Histogram;

impl Histogram {
    /// New histogram stub.
    pub fn new() -> Self {
        Histogram
    }
    /// No-op.
    #[inline(always)]
    pub fn record(&self, _v: u64) {}
    /// Always zero.
    #[inline(always)]
    pub fn count(&self) -> u64 {
        0
    }
    /// Always zero.
    #[inline(always)]
    pub fn sum(&self) -> u64 {
        0
    }
    /// Always zero.
    #[inline(always)]
    pub fn percentile(&self, _p: f64) -> u64 {
        0
    }
    /// Always the zero snapshot.
    #[inline(always)]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot::default()
    }
    /// No-op.
    #[inline(always)]
    pub fn reset(&self) {}
}

/// Slow-query log stub: retains nothing.
#[derive(Debug, Default)]
pub struct SlowQueryLog;

impl SlowQueryLog {
    /// New log stub.
    pub fn new() -> Self {
        SlowQueryLog
    }
    /// No-op.
    #[inline(always)]
    pub fn push(&self, _label: impl Into<String>, _elapsed_ns: u64, _outcome: QueryOutcome) {}
    /// Always empty.
    #[inline(always)]
    pub fn entries(&self) -> Vec<SlowQueryEntry> {
        Vec::new()
    }
    /// Always zero.
    #[inline(always)]
    pub fn len(&self) -> usize {
        0
    }
    /// Always `true`.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        true
    }
    /// No-op.
    #[inline(always)]
    pub fn reset(&self) {}
}

/// Registry stub with the same field names as the real registry.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Stub.
    pub append_rows: Counter,
    /// Stub.
    pub append_bytes: Counter,
    /// Stub.
    pub batch_seals: Counter,
    /// Stub.
    pub snapshots_taken: Counter,
    /// Stub.
    pub snapshot_age_ns: Histogram,
    /// Stub.
    pub probe_sampler: Sampler,
    /// Stub.
    pub probe_hits: Counter,
    /// Stub.
    pub probe_misses: Counter,
    /// Stub.
    pub chain_walk: Histogram,
    /// Stub.
    pub queries_started: Counter,
    /// Stub.
    pub queries_finished: Counter,
    /// Stub.
    pub queries_cancelled: Counter,
    /// Stub.
    pub queries_failed: Counter,
    /// Stub.
    pub queries_in_flight: Gauge,
    /// Stub.
    pub query_latency_ns: Histogram,
    /// Stub.
    pub query_peak_memory_bytes: Gauge,
    /// Stub.
    pub plan_cache_hits: Counter,
    /// Stub.
    pub plan_cache_misses: Counter,
    /// Stub.
    pub plan_cache_evictions: Counter,
    /// Stub.
    pub plan_cache_invalidations: Counter,
    /// Stub.
    pub exec_inline: Counter,
    /// Stub.
    pub exec_threads_spawned: Counter,
    /// Stub.
    pub wal_records: Counter,
    /// Stub.
    pub wal_bytes: Counter,
    /// Stub.
    pub wal_fsyncs: Counter,
    /// Stub.
    pub wal_group_commit_batch: Histogram,
    /// Stub.
    pub checkpoint_duration_ns: Histogram,
    /// Stub.
    pub recovery_duration_ns: Histogram,
    /// Stub.
    pub recovery_replayed_records: Counter,
    /// Stub.
    pub wal_degraded_transitions: Counter,
    /// Stub.
    pub wal_readonly_rejections: Counter,
    /// Stub.
    pub wal_resumes: Counter,
    /// Stub.
    pub scrub_runs: Counter,
    /// Stub.
    pub scrub_corruptions: Counter,
    /// Stub.
    pub server_connections_total: Counter,
    /// Stub.
    pub server_connections_open: Gauge,
    /// Stub.
    pub server_in_flight: Gauge,
    /// Stub.
    pub server_queue_depth: Gauge,
    /// Stub.
    pub server_rejected_busy: Counter,
    /// Stub.
    pub server_rejected_quota: Counter,
    /// Stub.
    pub server_drain_ns: Histogram,
    /// Stub.
    pub views_registered: Gauge,
    /// Stub.
    pub view_deltas_applied: Counter,
    /// Stub.
    pub view_maintenance_lag_ns: Histogram,
    /// Stub.
    pub view_refresh_ns: Histogram,
    /// Stub.
    pub dml_updates: Counter,
    /// Stub.
    pub dml_deletes: Counter,
    /// Stub.
    pub dml_rows_affected: Counter,
    /// Stub.
    pub superseded_versions: Counter,
    /// Stub.
    pub tombstones_live: Gauge,
    /// Stub.
    pub dead_rows_live: Gauge,
    /// Stub.
    pub compaction_runs: Counter,
    /// Stub.
    pub compaction_failures: Counter,
    /// Stub.
    pub compaction_batches_rewritten: Counter,
    /// Stub.
    pub compaction_rows_reclaimed: Counter,
    /// Stub.
    pub compaction_bytes_reclaimed: Counter,
    /// Stub.
    pub compaction_duration_ns: Histogram,
    /// Stub.
    pub post_compaction_chain_walk: Histogram,
    /// Stub.
    pub slow_queries: SlowQueryLog,
}

impl MetricsRegistry {
    /// New registry stub.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-global registry stub.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: MetricsRegistry = MetricsRegistry {
            append_rows: Counter,
            append_bytes: Counter,
            batch_seals: Counter,
            snapshots_taken: Counter,
            snapshot_age_ns: Histogram,
            probe_sampler: Sampler,
            probe_hits: Counter,
            probe_misses: Counter,
            chain_walk: Histogram,
            queries_started: Counter,
            queries_finished: Counter,
            queries_cancelled: Counter,
            queries_failed: Counter,
            queries_in_flight: Gauge,
            query_latency_ns: Histogram,
            query_peak_memory_bytes: Gauge,
            plan_cache_hits: Counter,
            plan_cache_misses: Counter,
            plan_cache_evictions: Counter,
            plan_cache_invalidations: Counter,
            exec_inline: Counter,
            exec_threads_spawned: Counter,
            wal_records: Counter,
            wal_bytes: Counter,
            wal_fsyncs: Counter,
            wal_group_commit_batch: Histogram,
            checkpoint_duration_ns: Histogram,
            recovery_duration_ns: Histogram,
            recovery_replayed_records: Counter,
            wal_degraded_transitions: Counter,
            wal_readonly_rejections: Counter,
            wal_resumes: Counter,
            scrub_runs: Counter,
            scrub_corruptions: Counter,
            server_connections_total: Counter,
            server_connections_open: Gauge,
            server_in_flight: Gauge,
            server_queue_depth: Gauge,
            server_rejected_busy: Counter,
            server_rejected_quota: Counter,
            server_drain_ns: Histogram,
            views_registered: Gauge,
            view_deltas_applied: Counter,
            view_maintenance_lag_ns: Histogram,
            view_refresh_ns: Histogram,
            dml_updates: Counter,
            dml_deletes: Counter,
            dml_rows_affected: Counter,
            superseded_versions: Counter,
            tombstones_live: Gauge,
            dead_rows_live: Gauge,
            compaction_runs: Counter,
            compaction_failures: Counter,
            compaction_batches_rewritten: Counter,
            compaction_rows_reclaimed: Counter,
            compaction_bytes_reclaimed: Counter,
            compaction_duration_ns: Histogram,
            post_compaction_chain_walk: Histogram,
            slow_queries: SlowQueryLog,
        };
        &GLOBAL
    }

    /// No-op.
    #[inline(always)]
    pub fn reset(&self) {}

    /// Empty exposition (metrics compiled out).
    #[inline(always)]
    pub fn prometheus(&self) -> String {
        String::new()
    }
}

/// The process-global registry stub.
#[inline(always)]
pub fn global() -> &'static MetricsRegistry {
    MetricsRegistry::global()
}
