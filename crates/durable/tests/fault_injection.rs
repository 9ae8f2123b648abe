//! Durability tests that arm failpoints. A failpoint site is process-wide,
//! so an armed `durable::wal::fsync` also fires in every other test of the
//! same binary that runs a WAL writer at that moment. These tests
//! therefore live in their own binary, away from the library's unit tests,
//! and each one holds [`serial`] for its whole run so no two of them arm
//! a site at once.

#![cfg(feature = "failpoints")]

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use idf_core::config::IndexConfig;
use idf_core::sink::SinkStatus;
use idf_core::table::IndexedTable;
use idf_durable::checkpoint::{load_table, read_manifest, write_manifest, write_snapshot};
use idf_durable::failpoints::{CHECKPOINT_WRITE, WAL_FSYNC};
use idf_durable::wal::{TableWal, WalRecord};
use idf_durable::{DurableSession, OsIo, StorageIo, TempDir};
use idf_engine::config::{DurabilityLevel, EngineConfig};
use idf_engine::error::EngineError;
use idf_engine::schema::{Field, Schema, SchemaRef};
use idf_engine::types::{DataType, Value};
use idf_fail::{FailConfig, FailGuard};

static FAULTS: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    FAULTS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn osio() -> Arc<dyn StorageIo> {
    Arc::new(OsIo)
}

fn open(path: &Path, level: DurabilityLevel) -> (TableWal, Vec<WalRecord>) {
    TableWal::open(osio(), path, level).unwrap()
}

fn payloads(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("row-{i}").into_bytes()).collect()
}

fn commit(wal: &TableWal, rows: &[Vec<u8>]) {
    let refs: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
    let _ticket = wal.begin_commit(&refs).unwrap();
}

fn people_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        Field::required("id", DataType::Int64),
        Field::new("name", DataType::Utf8),
    ]))
}

fn small_index() -> IndexConfig {
    IndexConfig {
        num_partitions: 4,
        ..IndexConfig::default()
    }
}

#[test]
fn injected_fsync_failure_degrades_to_typed_read_only() {
    let _serial = serial();
    let dir = TempDir::new("wal-fsync-fault");
    let path = dir.path().join("wal.log");
    let (wal, _) = open(&path, DurabilityLevel::Sync);
    commit(&wal, &payloads(1));
    {
        let _guard = FailGuard::new(WAL_FSYNC, FailConfig::error("disk gone"));
        let row = b"doomed".as_slice();
        let err = wal.begin_commit(&[row]).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert!(
            matches!(err, EngineError::ReadOnly(_)),
            "degraded append must be typed ReadOnly, got {err:?}"
        );
        // Sticky: even without the failpoint the WAL stays degraded.
    }
    let row = b"still-doomed".as_slice();
    let err = wal.begin_commit(&[row]).unwrap_err();
    assert!(matches!(err, EngineError::ReadOnly(_)), "{err:?}");
    assert!(wal.degraded_reason().is_some());
    drop(wal);
    // Reopen recovers the pre-fault prefix.
    let (_, records) = open(&path, DurabilityLevel::Sync);
    assert_eq!(records.len(), 1);
}

/// A *transient* flush failure (here: a failpoint armed for exactly
/// one hit) must not let frames queued behind the failing batch reach
/// disk on a later writer iteration — their commits observed the
/// degraded state and were reported failed, so flushing them would
/// resurrect refused appends on recovery.
#[test]
fn transient_fsync_failure_never_flushes_queued_commits() {
    let _serial = serial();
    let dir = TempDir::new("wal-transient");
    let path = dir.path().join("wal.log");
    let (wal, _) = open(&path, DurabilityLevel::Async);
    let _guard = FailGuard::new(
        WAL_FSYNC,
        FailConfig::error("transient disk error").times(1),
    );
    // Async commits are acknowledged once staged; pile several up so
    // some are queued behind the batch that hits the (single-shot)
    // fault.
    for i in 0..16 {
        let row = format!("async-{i}").into_bytes();
        if wal.begin_commit(&[row.as_slice()]).is_err() {
            break; // degradation already surfaced
        }
    }
    // Wait for the writer to hit the fault and degrade the log.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let row = b"probe".as_slice();
        if wal.begin_commit(&[row]).is_err() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "WAL never became degraded"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    drop(wal);
    // The fault fired exactly once, so every later iteration *could*
    // have written — the fix is that there is no later iteration.
    let (_, records) = open(&path, DurabilityLevel::Async);
    assert!(
        records.is_empty(),
        "{} refused commits were flushed after the transient fault",
        records.len()
    );
}

/// Regression (shutdown ordering): a `Sync` committer whose frame is
/// still queued when the log is dropped must resolve deterministically
/// — the drop drain flushes the frame, so the committer is
/// acknowledged and the record is on disk. Before the fix the waiter
/// bailed as soon as it saw `shutdown`, reporting failure for a
/// commit the drain then made durable.
#[test]
fn drop_during_pending_sync_commit_resolves_deterministically() {
    let _serial = serial();
    let dir = TempDir::new("wal-drop-pending");
    for round in 0..8 {
        let p = dir.path().join(format!("wal-{round}.log"));
        let (wal, _) = open(&p, DurabilityLevel::Sync);
        let wal = Arc::new(wal);
        // Slow the flush so the drop lands while the commit is
        // pending.
        let guard = FailGuard::new(WAL_FSYNC, FailConfig::delay(15));
        let committer = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || {
                let row = b"pending".as_slice();
                wal.begin_commit(&[row]).map(|_t| ())
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(3));
        drop(wal); // shutdown + drain + join
        let outcome = committer.join().unwrap();
        drop(guard);
        let (_, records) = open(&p, DurabilityLevel::Sync);
        match outcome {
            Ok(()) => assert_eq!(
                records.len(),
                1,
                "round {round}: acknowledged commit missing from disk"
            ),
            Err(e) => {
                // Only acceptable if the record truly is absent.
                assert_eq!(
                    records.len(),
                    0,
                    "round {round}: commit reported failed ({e}) but is durable"
                );
            }
        }
    }
}

#[test]
fn rearm_recovers_a_degraded_log() {
    let _serial = serial();
    let dir = TempDir::new("wal-rearm");
    let path = dir.path().join("wal-1.log");
    let next = dir.path().join("wal-2.log");
    let (wal, _) = open(&path, DurabilityLevel::Sync);
    commit(&wal, &payloads(1));
    {
        let _guard = FailGuard::new(WAL_FSYNC, FailConfig::error("disk gone").times(1));
        assert!(wal.begin_commit(&[b"doomed".as_slice()]).is_err());
    }
    assert!(wal.degraded_reason().is_some());
    // Checkpoint refuses: the log is read-only.
    let err = wal
        .quiesce_and_rotate::<()>(|| unreachable!("must not run"), |_| Ok(()))
        .unwrap_err();
    assert!(matches!(err, EngineError::ReadOnly(_)), "{err:?}");
    // A rearm whose publish phase fails leaves the log degraded.
    let stillborn = dir.path().join("wal-stillborn.log");
    let err = wal
        .rearm(
            || Ok(((), stillborn.clone())),
            |_| Err(EngineError::durability("flip failed")),
        )
        .unwrap_err();
    assert!(err.to_string().contains("flip failed"));
    assert!(
        wal.degraded_reason().is_some(),
        "failed rearm must stay degraded"
    );
    // Re-arm rotates to a fresh segment and accepts commits again.
    wal.rearm(|| Ok(((), next.clone())), |_| Ok(())).unwrap();
    assert!(wal.degraded_reason().is_none());
    commit(&wal, &payloads(2));
    drop(wal);
    let (_, records) = open(&next, DurabilityLevel::Sync);
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].rows, payloads(2));
}

#[test]
fn injected_checkpoint_fault_leaves_previous_checkpoint_authoritative() {
    let _serial = serial();
    let io = OsIo;
    let dir = TempDir::new("ckpt-fault");
    let table = IndexedTable::new(people_schema(), 0, small_index()).unwrap();
    for i in 0..500i64 {
        table
            .append_row(&[Value::Int64(i % 100), Value::Utf8(format!("row-{i}"))])
            .unwrap();
    }
    write_snapshot(&io, dir.path(), 1, &table.snapshot(), table.config()).unwrap();
    write_manifest(&io, dir.path(), 1).unwrap();
    table
        .append_row(&[Value::Int64(7), Value::Utf8("extra".into())])
        .unwrap();
    let _guard = FailGuard::new(CHECKPOINT_WRITE, FailConfig::error("disk full").times(1));
    let err = write_snapshot(&io, dir.path(), 2, &table.snapshot(), table.config()).unwrap_err();
    assert!(err.to_string().contains("injected"), "{err}");
    assert_eq!(read_manifest(&io, dir.path()).unwrap(), Some(1));
    assert_eq!(load_table(&io, dir.path(), 1).unwrap().row_count(), 500);
}

#[test]
fn degraded_table_serves_reads_and_resume_writes_rearms() {
    let _serial = serial();
    let dir = TempDir::new("sess-degrade");
    let cfg = || EngineConfig {
        data_dir: Some(dir.path().to_path_buf()),
        durability: DurabilityLevel::Sync,
        ..EngineConfig::default()
    };
    let sess = DurableSession::open(cfg()).unwrap();
    let df = sess
        .create_table("t", people_schema(), 0, small_index())
        .unwrap();
    for i in 0..20i64 {
        df.append_row(&[Value::Int64(i), Value::Utf8(format!("p{i}"))])
            .unwrap();
    }
    // One injected fsync failure degrades the WAL...
    {
        let _guard = FailGuard::new(WAL_FSYNC, FailConfig::error("disk died").times(1));
        let err = df
            .append_row(&[Value::Int64(20), Value::Utf8("doomed".into())])
            .unwrap_err();
        assert!(matches!(err, EngineError::ReadOnly(_)), "{err:?}");
    }
    // ...stickily: appends keep failing typed, reads keep serving.
    let err = df
        .append_row(&[Value::Int64(21), Value::Utf8("also-doomed".into())])
        .unwrap_err();
    assert!(matches!(err, EngineError::ReadOnly(_)), "{err:?}");
    assert!(matches!(
        sess.write_status("t").unwrap(),
        SinkStatus::ReadOnly(_)
    ));
    assert_eq!(df.table().row_count(), 20);
    assert_eq!(df.get_rows(7i64).unwrap().collect().unwrap().len(), 1);
    let out = sess
        .sql("SELECT COUNT(*) FROM t")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.to_rows()[0][0], Value::Int64(20));
    // Checkpoint refuses while degraded; resume_writes re-arms.
    let err = sess.checkpoint(Some("t")).unwrap_err();
    assert!(matches!(err, EngineError::ReadOnly(_)), "{err:?}");
    assert_eq!(
        sess.resume_writes(Some("t")).unwrap(),
        vec!["t".to_string()]
    );
    assert_eq!(sess.write_status("t").unwrap(), SinkStatus::Writable);
    df.append_row(&[Value::Int64(22), Value::Utf8("revived".into())])
        .unwrap();
    drop(df);
    drop(sess);
    // The re-anchored store recovers everything acknowledged.
    let sess = DurableSession::open(cfg()).unwrap();
    let df = sess.dataframe("t").unwrap();
    assert_eq!(df.table().row_count(), 21);
    assert_eq!(df.get_rows(22i64).unwrap().collect().unwrap().len(), 1);
    assert_eq!(df.get_rows(20i64).unwrap().collect().unwrap().len(), 0);
}
