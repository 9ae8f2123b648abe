//! Golden Prometheus exposition: the text below `tests/golden/` was
//! rendered by the hand-written registry this crate had before the
//! `metrics!` table, so a byte-identical render proves no metric name,
//! help string, type or ordering changed. A dropped, renamed or
//! reordered table row fails here; an intended change updates the
//! golden files in the same commit.

#![cfg(feature = "obs")]

use idf_obs::MetricsRegistry;

/// Assert `actual` equals the golden file, naming the first line that
/// differs.
fn assert_golden(actual: &str, golden: &str, file: &str) {
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "tests/golden/{file} line {}", i + 1);
    }
    assert_eq!(actual.len(), golden.len(), "tests/golden/{file} length");
}

/// `$method(1)` on every listed field.
macro_rules! bump {
    ($m:ident . $method:ident : $($field:ident)+) => {
        $( $m.$field.$method(1); )+
    };
}

#[test]
fn fresh_registry_renders_the_golden_exposition() {
    let m = MetricsRegistry::new();
    assert_golden(
        &m.prometheus(),
        include_str!("golden/prometheus_fresh.txt"),
        "prometheus_fresh.txt",
    );
}

#[test]
fn every_metric_at_one_renders_the_golden_exposition() {
    let m = MetricsRegistry::new();
    bump!(m.add: append_rows append_bytes batch_seals snapshots_taken probe_hits
        probe_misses queries_started queries_finished queries_cancelled
        queries_failed plan_cache_hits plan_cache_misses
        plan_cache_evictions plan_cache_invalidations exec_inline
        exec_threads_spawned wal_records wal_bytes wal_fsyncs
        recovery_replayed_records wal_degraded_transitions
        wal_readonly_rejections wal_resumes scrub_runs scrub_corruptions
        server_connections_total server_rejected_busy server_rejected_quota
        view_deltas_applied dml_updates dml_deletes dml_rows_affected
        superseded_versions compaction_runs compaction_failures
        compaction_batches_rewritten compaction_rows_reclaimed
        compaction_bytes_reclaimed);
    bump!(m.set: queries_in_flight query_peak_memory_bytes server_connections_open
        server_in_flight server_queue_depth views_registered tombstones_live
        dead_rows_live);
    bump!(m.record: snapshot_age_ns chain_walk query_latency_ns wal_group_commit_batch
        checkpoint_duration_ns recovery_duration_ns server_drain_ns
        view_maintenance_lag_ns view_refresh_ns compaction_duration_ns
        post_compaction_chain_walk);
    assert_golden(
        &m.prometheus(),
        include_str!("golden/prometheus_ones.txt"),
        "prometheus_ones.txt",
    );
}
