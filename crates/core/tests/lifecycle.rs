//! Query lifecycle hardening over the indexed storage layer: the
//! acceptance scenarios of the robustness PR. A heavy query on a
//! million-row indexed table is cancellable mid-execution with bounded
//! latency while concurrent point lookups on the same session keep
//! answering; an over-budget aggregation dies with a typed
//! `ResourceExhausted` without disturbing its neighbours; oversized rows
//! are rejected as typed errors at every API layer with no partial
//! visibility.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use idf_core::prelude::*;
use idf_engine::config::EngineConfig;
use idf_engine::error::EngineError;
use idf_engine::prelude::*;

fn schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("grp", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]))
}

fn indexed_table(session: &Session, rows: i64) -> IndexedDataFrame {
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| vec![Value::Int64(i), Value::Int64(i % 500), Value::Int64(i * 7)])
        .collect();
    let chunk = Chunk::from_rows(&schema(), &data).unwrap();
    let df = session.dataframe_from_chunk(schema(), chunk);
    let idf = df.create_index("id").unwrap();
    idf.cache();
    idf
}

#[test]
fn heavy_query_cancels_while_lookups_proceed() {
    let session = Session::new();
    let idf = indexed_table(&session, 1_000_000);
    idf.register("big");
    // A full-scan aggregation over the million rows: plenty of chunk
    // boundaries for the cooperative cancellation check to fire at.
    let heavy = session
        .sql("SELECT grp, count(*), sum(v) FROM big GROUP BY grp")
        .unwrap();
    let query = session.new_query();
    let stop_lookups = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Concurrent point lookups on the same session, racing the
        // cancelled query the whole time.
        let reader = {
            let idf = idf.clone();
            let stop = Arc::clone(&stop_lookups);
            s.spawn(move || {
                let mut lookups = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let key = (lookups as i64 * 37) % 1_000_000;
                    let chunk = idf.get_rows_chunk(key).unwrap();
                    assert_eq!(chunk.len(), 1, "key {key}");
                    lookups += 1;
                }
                lookups
            })
        };
        let canceller = {
            let query = Arc::clone(&query);
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                query.cancel();
                Instant::now()
            })
        };
        let result = heavy.collect_ctx(&query);
        let returned_at = Instant::now();
        let cancelled_at = canceller.join().unwrap();
        stop_lookups.store(true, Ordering::Relaxed);
        let lookups = reader.join().unwrap();

        assert_eq!(
            result.unwrap_err(),
            EngineError::Cancelled,
            "1M-row aggregation must not finish within 50ms in a test build"
        );
        let latency = returned_at.saturating_duration_since(cancelled_at);
        assert!(latency < Duration::from_secs(2), "cancel took {latency:?}");
        assert!(lookups > 0, "reader never got a lookup through");
    });

    // The same session still answers the same (un-cancelled) query shape.
    let out = session
        .sql("SELECT grp, count(*) FROM big GROUP BY grp LIMIT 5")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.len(), 5);
}

#[test]
fn over_budget_scan_aggregation_is_resource_exhausted() {
    let session = Session::with_config(EngineConfig {
        query_memory_limit: Some(64 * 1024),
        ..Default::default()
    });
    let idf = indexed_table(&session, 100_000);
    idf.register("t");
    // The full scan charges the chunk in flight (8192 rows x 2 columns,
    // 128 KiB) and the partial aggregate its 500-group table, against a
    // 64 KiB budget.
    let err = session
        .sql("SELECT grp, count(*), sum(v) FROM t GROUP BY grp")
        .unwrap()
        .collect()
        .unwrap_err();
    assert!(
        matches!(err, EngineError::ResourceExhausted(_)),
        "got {err:?}"
    );
    // Point lookups (indexed probes of a few rows) stay within budget —
    // both through the library API and through SQL on the same session.
    assert_eq!(idf.get_rows_chunk(4217i64).unwrap().len(), 1);
    let out = session
        .sql("SELECT v FROM t WHERE id = 4217")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.len(), 1);
}

#[test]
fn oversized_row_is_typed_error_with_no_partial_visibility() {
    let session = Session::new();
    let idf = indexed_table(&session, 1_000);
    let before = idf.row_count();

    let huge = "x".repeat(4096);
    // Two well-formed appends succeed; a mistyped row fails at encode
    // and leaves no trace.
    idf.append_row(&[Value::Int64(-1), Value::Int64(0), Value::Int64(0)])
        .unwrap();
    idf.append_row(&[Value::Int64(-3), Value::Int64(0), Value::Int64(0)])
        .unwrap();
    idf.append_row(&[Value::Int64(-2), Value::Utf8(huge.clone()), Value::Int64(0)])
        .unwrap_err();
    assert!(idf.get_rows_chunk(-2i64).unwrap().is_empty());

    // A string schema so the row can legitimately exceed max_row_size.
    let sschema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("s", DataType::Utf8),
    ]));
    let df = session.create_dataframe(
        sschema.clone(),
        vec![vec![Value::Int64(1), Value::Utf8("ok".into())]],
    );
    let sidf = df.create_index("k").unwrap();
    let err = sidf
        .append_row(&[Value::Int64(2), Value::Utf8(huge.clone())])
        .unwrap_err();
    assert!(
        matches!(err, EngineError::RowTooLarge { .. }),
        "got {err:?}"
    );
    assert!(err.to_string().contains("at most"), "got: {err}");
    assert_eq!(sidf.row_count(), 1, "failed append left no trace");
    assert!(sidf.get_rows_chunk(2i64).unwrap().is_empty());

    // API layer: a chunk append where ONE row in the middle is oversized
    // must publish nothing at all (phase-1 validation precedes phase 2).
    let rows: Vec<Vec<Value>> = (10..20)
        .map(|i| {
            let s = if i == 15 {
                huge.clone()
            } else {
                format!("s{i}")
            };
            vec![Value::Int64(i), Value::Utf8(s)]
        })
        .collect();
    let bad = session.create_dataframe(sschema, rows);
    let err = sidf.append_rows(&bad).unwrap_err();
    assert!(
        matches!(err, EngineError::RowTooLarge { .. }),
        "got {err:?}"
    );
    assert_eq!(sidf.row_count(), 1, "no row of the failed batch is visible");
    for k in 10..20 {
        assert!(sidf.get_rows_chunk(k).unwrap().is_empty(), "key {k}");
    }
    // The table remains fully usable after the rejected batch.
    sidf.append_row(&[Value::Int64(2), Value::Utf8("fine".into())])
        .unwrap();
    assert_eq!(sidf.get_rows_chunk(2i64).unwrap().len(), 1);
    assert_eq!(idf.row_count(), before + 2);
}
