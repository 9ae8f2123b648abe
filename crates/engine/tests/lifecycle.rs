//! Query lifecycle hardening, engine level: cooperative cancellation,
//! deadlines, memory budgets, and panic isolation over plain `MemTable`
//! plans. The storage-layer (indexed) counterparts live in
//! `crates/core/tests/lifecycle.rs`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use idf_engine::config::EngineConfig;
use idf_engine::prelude::*;

/// Failpoints are process-global; every test here serializes on this
/// lock — the ones that configure a site, and the ones that merely run a
/// query and would otherwise evaluate a site a sibling has armed (and
/// tolerates a poisoned lock — a failed sibling test must not cascade).
static FAIL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn session_with(config: EngineConfig, rows: i64) -> Session {
    let s = Session::with_config(config);
    let schema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("g", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]));
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| vec![Value::Int64(i), Value::Int64(i % 1000), Value::Int64(i * 3)])
        .collect();
    let chunk = Chunk::from_rows(&schema, &data).unwrap();
    s.register_table(
        "t",
        Arc::new(MemTable::from_chunk_partitioned(schema, chunk, 4).unwrap()),
    );
    s
}

#[test]
fn pre_cancelled_query_returns_cancelled() {
    let _serial = FAIL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let s = session_with(EngineConfig::default(), 10_000);
    let df = s.sql("SELECT g, count(*) FROM t GROUP BY g").unwrap();
    let query = s.new_query();
    query.cancel();
    assert_eq!(df.collect_ctx(&query).unwrap_err(), EngineError::Cancelled);
}

#[test]
fn cancel_mid_query_bounded_latency() {
    let _serial = FAIL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let s = session_with(EngineConfig::default(), 400_000);
    let df = s
        .sql("SELECT a.g, count(*) FROM t a JOIN t b ON a.g = b.g GROUP BY a.g")
        .unwrap();
    let query = s.new_query();
    let canceller = {
        let query = Arc::clone(&query);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            query.cancel();
            Instant::now()
        })
    };
    let result = df.collect_ctx(&query);
    let returned_at = Instant::now();
    let cancelled_at = canceller.join().unwrap();
    match result {
        Err(EngineError::Cancelled) => {
            let latency = returned_at.duration_since(cancelled_at);
            assert!(
                latency < Duration::from_secs(2),
                "cancellation took {latency:?}"
            );
        }
        // The query may legitimately win the race on a fast machine.
        Ok(_) => {}
        Err(other) => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn expired_deadline_returns_deadline_exceeded() {
    let _serial = FAIL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let s = session_with(EngineConfig::default(), 10_000);
    let df = s.sql("SELECT g, sum(v) FROM t GROUP BY g").unwrap();
    let err = df.collect_timeout(Duration::ZERO).unwrap_err();
    assert_eq!(err, EngineError::DeadlineExceeded);
}

#[test]
fn cancelled_query_leaves_session_usable() {
    let _serial = FAIL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let s = session_with(EngineConfig::default(), 10_000);
    let df = s.sql("SELECT g, count(*) FROM t GROUP BY g").unwrap();
    let query = s.new_query();
    query.cancel();
    assert!(df.collect_ctx(&query).is_err());
    // A fresh query on the same session (and same DataFrame) completes.
    let again = df.collect().unwrap();
    assert_eq!(again.len(), 1000);
}

#[test]
fn over_budget_aggregation_is_resource_exhausted() {
    let _serial = FAIL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let s = session_with(
        EngineConfig {
            query_memory_limit: Some(32 * 1024),
            ..Default::default()
        },
        100_000,
    );
    // 1000 groups of accumulators blow a 32 KiB budget.
    let err = s
        .sql("SELECT g, count(*), sum(v), min(v), max(v) FROM t GROUP BY g")
        .unwrap()
        .collect()
        .unwrap_err();
    assert!(
        matches!(err, EngineError::ResourceExhausted(_)),
        "got {err:?}"
    );
    // A small query under the same per-query budget still runs.
    let out = s
        .sql("SELECT k FROM t WHERE k = 17")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.len(), 1);
}

#[test]
fn global_governor_is_released_after_failure() {
    let _serial = FAIL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let s = session_with(
        EngineConfig {
            total_memory_limit: Some(48 * 1024),
            ..Default::default()
        },
        100_000,
    );
    let governor = s.memory_governor().expect("configured");
    let err = s
        .sql("SELECT g, count(*), sum(v), min(v), max(v) FROM t GROUP BY g")
        .unwrap()
        .collect()
        .unwrap_err();
    assert!(
        matches!(err, EngineError::ResourceExhausted(_)),
        "got {err:?}"
    );
    // The failed query's charges were returned to the pool...
    assert_eq!(governor.used(), 0, "leaked {} bytes", governor.used());
    // ...so later small queries are unaffected.
    let out = s
        .sql("SELECT k FROM t WHERE k = 17")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.len(), 1);
}

#[cfg(feature = "failpoints")]
#[test]
fn shuffle_fault_surfaces_as_query_error() {
    let _serial = FAIL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let s = session_with(EngineConfig::default(), 10_000);
    let df = s
        .sql("SELECT a.g, count(*) FROM t a JOIN t b ON a.g = b.g GROUP BY a.g")
        .unwrap();
    {
        let _fault = idf_fail::FailGuard::new(
            idf_engine::failpoints::SHUFFLE_EXCHANGE,
            idf_fail::FailConfig::error("io refused"),
        );
        let err = df.collect().unwrap_err();
        assert!(err.to_string().contains("injected"), "got: {err}");
    }
    // Fault removed: the very same plan completes.
    assert_eq!(df.collect().unwrap().len(), 1000);
}

#[cfg(feature = "failpoints")]
#[test]
fn worker_panic_becomes_error_not_abort() {
    let _serial = FAIL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let s = session_with(EngineConfig::default(), 10_000);
    let df = s.sql("SELECT g, count(*) FROM t GROUP BY g").unwrap();
    {
        let _fault = idf_fail::FailGuard::new(
            idf_engine::failpoints::WORKER_START,
            idf_fail::FailConfig::panic("simulated worker crash"),
        );
        let err = df.collect().unwrap_err();
        assert!(err.to_string().contains("panicked"), "got: {err}");
    }
    assert_eq!(df.collect().unwrap().len(), 1000);
}
