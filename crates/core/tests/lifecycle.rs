//! Query lifecycle hardening over the indexed storage layer. A heavy query
//! on a million-row indexed table is cancellable mid-execution with bounded
//! latency while concurrent point lookups on the same session keep
//! answering; a scan whose predicate passes nothing still stops in the
//! middle of its walk; an over-budget aggregation dies with a typed
//! `ResourceExhausted` without disturbing its neighbours; oversized rows
//! are rejected as typed errors at every API layer with no partial
//! visibility.

// Tests time their subject; the clock gate is for the storage paths.
#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use idf_core::prelude::*;
use idf_engine::catalog::{ChunkIter, TableSource};
use idf_engine::config::EngineConfig;
use idf_engine::error::{EngineError, Result};
use idf_engine::expr::{col, lit, Expr};
use idf_engine::prelude::*;
use idf_engine::query::QueryContext;
use idf_fail::{FailConfig, FailGuard};

fn schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("grp", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]))
}

fn rows(rows: i64) -> Chunk {
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| vec![Value::Int64(i), Value::Int64(i % 500), Value::Int64(i * 7)])
        .collect();
    Chunk::from_rows(&schema(), &data).unwrap()
}

fn indexed_table(session: &Session, rows: i64) -> IndexedDataFrame {
    let df = session.dataframe_from_chunk(schema(), self::rows(rows));
    let idf = df.create_index("id").unwrap();
    idf.cache();
    idf
}

/// Tests here build million-row tables and one arms a failpoint, which is
/// process-wide: they run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A table's source whose partition scans each hand out their first chunk
/// and then hold until `query` is cancelled: the query is provably in
/// flight when the cancel lands, however fast the machine runs it.
struct HeldAfterFirstChunk {
    inner: Arc<dyn TableSource>,
    query: Arc<QueryContext>,
    in_flight: Mutex<mpsc::Sender<()>>,
}

impl TableSource for HeldAfterFirstChunk {
    fn schema(&self) -> SchemaRef {
        self.inner.schema()
    }

    fn num_partitions(&self) -> usize {
        self.inner.num_partitions()
    }

    fn scan(&self, partition: usize, projection: Option<&[usize]>) -> Result<ChunkIter> {
        self.inner.scan(partition, projection)
    }

    fn scan_with_ctx(
        &self,
        partition: usize,
        projection: Option<&[usize]>,
        filters: &[Expr],
        query: &Arc<QueryContext>,
    ) -> Result<ChunkIter> {
        let mut chunks = self
            .inner
            .scan_with_ctx(partition, projection, filters, query)?;
        let held = Arc::clone(&self.query);
        let in_flight = self.in_flight.lock().unwrap().clone();
        let mut first = true;
        Ok(Box::new(std::iter::from_fn(move || {
            if !std::mem::take(&mut first) {
                let _ = in_flight.send(());
                while !held.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            chunks.next()
        })))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn heavy_query_cancels_while_lookups_proceed() {
    let _serial = serial();
    let session = Session::new();
    let idf = indexed_table(&session, 1_000_000);
    // A full-scan aggregation over the million rows, held in flight after
    // each partition's first chunk until the cancel arrives.
    let query = session.new_query();
    let (in_flight_tx, in_flight) = mpsc::channel();
    session.register_table(
        "big",
        Arc::new(HeldAfterFirstChunk {
            inner: Arc::new(IndexedSource::live(Arc::clone(idf.table()))),
            query: Arc::clone(&query),
            in_flight: Mutex::new(in_flight_tx),
        }),
    );
    let heavy = session
        .sql("SELECT grp, count(*), sum(v) FROM big GROUP BY grp")
        .unwrap();
    let stop_lookups = Arc::new(AtomicBool::new(false));
    let lookups_done = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        // Concurrent point lookups on the same session, racing the
        // cancelled query the whole time.
        let reader = {
            let idf = idf.clone();
            let (stop, done) = (Arc::clone(&stop_lookups), Arc::clone(&lookups_done));
            s.spawn(move || {
                let mut lookups = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let key = (lookups as i64 * 37) % 1_000_000;
                    let chunk = idf.get_rows_chunk(key).unwrap();
                    assert_eq!(chunk.len(), 1, "key {key}");
                    lookups += 1;
                    done.store(lookups, Ordering::Relaxed);
                }
                lookups
            })
        };
        // Cancel once the query is mid-flight and a lookup has got through
        // beside it.
        let canceller = {
            let (query, done) = (Arc::clone(&query), Arc::clone(&lookups_done));
            s.spawn(move || {
                in_flight.recv().unwrap();
                while done.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
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
            "an aggregation cancelled mid-flight must end Cancelled"
        );
        let latency = returned_at.saturating_duration_since(cancelled_at);
        assert!(latency < Duration::from_secs(2), "cancel took {latency:?}");
        assert!(lookups > 0, "reader never got a lookup through");
    });

    // The same session still answers the same (un-cancelled) query shape.
    idf.register("big");
    let out = session
        .sql("SELECT grp, count(*) FROM big GROUP BY grp LIMIT 5")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.len(), 5);
}

/// A predicate no row passes keeps the scan walking a whole partition
/// without producing a chunk, so the walk itself checks the query every
/// `COUNT_CHUNK_ROWS` (8 192) rows. The stop is the query's deadline (the
/// same `QueryContext::check` a cancel trips), and the walk must stop in
/// the batch it overran the deadline in, not run on to the partition's end.
///
/// The schedule holds by construction, however slow the machine, and no
/// assertion reads a clock. The first check arms the 50 ms deadline before
/// batch 0 opens. A batch holds 6 144 rows, fewer than one check's worth,
/// so no check falls inside batch 0 however long its walk takes. Opening
/// batch 1 sleeps 100 ms, so the deadline has passed before any row of it
/// is walked, and the walk's first check comes at its 8 192nd row, inside
/// batch 1 (rows 6 144 to 12 287). That batch 2 is never opened is what
/// shows the walk stopped there.
#[test]
fn never_true_walk_stops_mid_partition() {
    let _serial = serial();
    const ROW_BYTES: usize = 10 + 1 + 3 * 8; // header, null bitmap, three slots
    const BATCH_ROWS: usize = 6_144;
    let config = IndexConfig {
        num_partitions: 1,
        batch_size: BATCH_ROWS * ROW_BYTES,
        ..IndexConfig::default()
    };
    let table = Arc::new(IndexedTable::from_chunk(schema(), 0, config, &rows(30_000)).unwrap());
    let snap = table.snapshot();
    let part = &snap.partitions()[0];
    assert!(
        part.export_batches().len() >= 3,
        "the walk needs a batch after the delayed one"
    );
    let mut v = col("v");
    if let Expr::Column(c) = &mut v {
        c.index = Some(2);
    }
    let source = IndexedSource::live(Arc::clone(&table));
    let never = source.walk_predicate(&v.lt(lit(0i64))).unwrap();

    let site = idf_core::failpoints::BATCH_READ;
    let _slow = FailGuard::new(site, FailConfig::delay(100).skip(1).times(1));
    if idf_fail::hit_count(site).is_none() {
        return; // failpoints compiled out: nothing can hold the walk
    }
    let query = QueryContext::builder()
        .timeout(Duration::from_millis(50))
        .build();
    let mut walk = part
        .scan_where(Some(&[]), &[never], usize::MAX, Some(query))
        .unwrap();
    let err = walk.next().expect("one item").unwrap_err();
    assert_eq!(err, EngineError::DeadlineExceeded);
    assert_eq!(
        idf_fail::hit_count(site),
        Some(2),
        "the walk opened a batch past the one it overran its deadline in"
    );
    assert!(walk.next().is_none(), "a stopped walk is fused");
}

#[test]
fn over_budget_scan_aggregation_is_resource_exhausted() {
    let _serial = serial();
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
    let _serial = serial();
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
