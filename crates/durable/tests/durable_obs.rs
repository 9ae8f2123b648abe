//! End-to-end durability observability: the WAL, checkpoint and recovery
//! metrics must move under a real durable workload and show up in the
//! Prometheus exposition. Runs only with the `obs` feature; the
//! compiled-out build is covered by `idf-obs`'s own `both_builds` test.

#![cfg(feature = "obs")]

use std::path::Path;
use std::sync::Arc;

use idf_core::config::IndexConfig;
use idf_durable::{DurableSession, TempDir};
use idf_engine::config::{DurabilityLevel, EngineConfig};
use idf_engine::schema::{Field, Schema, SchemaRef};
use idf_engine::types::{DataType, Value};

fn config(dir: &Path) -> EngineConfig {
    EngineConfig {
        data_dir: Some(dir.to_path_buf()),
        durability: DurabilityLevel::Sync,
        ..EngineConfig::default()
    }
}

fn schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        Field::required("k", DataType::Int64),
        Field::new("v", DataType::Utf8),
    ]))
}

#[test]
fn durability_metrics_move_and_are_exposed() {
    const APPENDS: u64 = 64;
    let m = idf_obs::global();
    let wal_records0 = m.wal_records.get();
    let wal_bytes0 = m.wal_bytes.get();
    let wal_fsyncs0 = m.wal_fsyncs.get();
    let batch0 = m.wal_group_commit_batch.snapshot().count;
    let ckpt0 = m.checkpoint_duration_ns.snapshot().count;
    let recov0 = m.recovery_duration_ns.snapshot().count;
    let replayed0 = m.recovery_replayed_records.get();

    let dir = TempDir::new("obs-durable");
    {
        let sess = DurableSession::open(config(dir.path())).unwrap();
        let df = sess
            .create_table(
                "t",
                schema(),
                0,
                IndexConfig {
                    num_partitions: 4,
                    ..IndexConfig::default()
                },
            )
            .unwrap();
        for i in 0..APPENDS {
            df.append_row(&[Value::Int64(i as i64), Value::Utf8(format!("v{i}"))])
                .unwrap();
        }
        // Half the workload is checkpointed away; the rest stays in the
        // WAL so the reopen below has records to replay.
        sess.checkpoint(Some("t")).unwrap();
        for i in APPENDS..APPENDS * 2 {
            df.append_row(&[Value::Int64(i as i64), Value::Utf8(format!("v{i}"))])
                .unwrap();
        }
    }

    // WAL accounting: one record per append, every commit fsynced before
    // acknowledgement (Sync), batch-size histogram fed per flush.
    let records = m.wal_records.get() - wal_records0;
    assert_eq!(records, APPENDS * 2, "one WAL record per append");
    assert!(m.wal_bytes.get() - wal_bytes0 > 0);
    let fsyncs = m.wal_fsyncs.get() - wal_fsyncs0;
    assert!(fsyncs >= 1 && fsyncs <= records, "fsyncs {fsyncs}");
    let batches = m.wal_group_commit_batch.snapshot();
    assert_eq!(
        batches.count - batch0,
        fsyncs,
        "one batch-size sample per flush"
    );
    assert_eq!(
        m.checkpoint_duration_ns.snapshot().count - ckpt0,
        1,
        "one explicit checkpoint"
    );

    // Recovery accounting: the reopen replays exactly the post-checkpoint
    // WAL tail.
    let sess = DurableSession::open(config(dir.path())).unwrap();
    assert_eq!(sess.dataframe("t").unwrap().row_count() as u64, APPENDS * 2);
    assert_eq!(
        m.recovery_duration_ns.snapshot().count - recov0,
        2,
        "both opens record a recovery duration"
    );
    assert_eq!(
        m.recovery_replayed_records.get() - replayed0,
        APPENDS,
        "the checkpointed prefix is not replayed"
    );

    // And all of it is visible to a Prometheus scrape.
    let text = m.prometheus();
    for name in [
        "idf_wal_records_total",
        "idf_wal_bytes_total",
        "idf_wal_fsyncs_total",
        "idf_wal_group_commit_batch",
        "idf_checkpoint_duration_ns",
        "idf_recovery_duration_ns",
        "idf_recovery_replayed_records_total",
    ] {
        assert!(text.contains(name), "exposition is missing {name}");
    }
}
