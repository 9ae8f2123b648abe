//! **ABL-MVCC** — the paper's multi-version concurrency: interactive point
//! lookups must stay fast *while the update stream mutates the data*
//! ("low-latency joins and point lookups … on data that is moving all the
//! time"). This ablation measures lookup latency on a quiescent table vs
//! the same table under a paced single-writer append stream, and what
//! taking a table snapshot costs.
//!
//! Run: `cargo bench -p idf-bench --bench abl_mvcc`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use idf_core::prelude::*;
use idf_engine::chunk::Chunk;
use idf_engine::schema::{Field, Schema};
use idf_engine::types::{DataType, Value};

/// Rows per second the append stream is paced at (`benchmark/`'s
/// `embedded-lookup` appender runs at the same rate).
const APPEND_RATE: u64 = 10_000;

fn table(rows: i64) -> Arc<IndexedTable> {
    let schema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Utf8),
    ]));
    let chunk = Chunk::from_rows(
        &schema,
        &(0..rows)
            .map(|i| vec![Value::Int64(i % 10_000), Value::Utf8(format!("v{i}"))])
            .collect::<Vec<_>>(),
    )
    .expect("chunk");
    Arc::new(IndexedTable::from_chunk(schema, 0, IndexConfig::default(), &chunk).expect("table"))
}

fn bench_mvcc(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_mvcc");
    group.sample_size(20);

    // Quiescent baseline.
    {
        let t = table(100_000);
        let mut k = 0i64;
        group.bench_function("lookup_quiescent", |b| {
            b.iter(|| {
                k = (k + 7919) % 10_000;
                t.lookup_chunk(&Value::Int64(k), None).expect("lookup")
            })
        });
    }

    // Under a continuous append stream.
    {
        let t = table(100_000);
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Paced: chains grow at the same rate however much the
                // reads slow the writer, so both sides of a comparison
                // probe chains of the same length.
                let start = Instant::now();
                let mut i = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let due = Duration::from_micros(i as u64 * 1_000_000 / APPEND_RATE);
                    if let Some(early) = due.checked_sub(start.elapsed()) {
                        std::thread::sleep(early);
                        continue;
                    }
                    t.append_row(&[Value::Int64(i % 10_000), Value::Utf8(format!("live{i}"))])
                        .expect("append");
                    i += 1;
                }
                i
            })
        };
        // Wait for the stream to actually start before measuring — in
        // `--test` smoke mode the single iteration can finish before the
        // writer thread gets scheduled at all.
        while t.row_count() == 100_000 {
            std::thread::yield_now();
        }
        let mut k = 0i64;
        group.bench_function("lookup_under_appends", |b| {
            b.iter(|| {
                k = (k + 7919) % 10_000;
                t.lookup_chunk(&Value::Int64(k), None).expect("lookup")
            })
        });
        stop.store(true, Ordering::Relaxed);
        let appended = writer.join().expect("writer");
        assert!(appended > 0, "writer must have made progress");
    }

    // Snapshot acquisition cost (the per-query MVCC overhead).
    {
        let t = table(100_000);
        group.bench_function("snapshot_acquisition", |b| b.iter(|| t.snapshot()));
    }

    group.finish();
}

/// Short measurement windows so `cargo bench --workspace` stays tractable
/// on small machines; raise for more precision.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_mvcc
}
criterion_main!(benches);
