//! **ABL-APPEND** — the paper's `appendRows` supports both "fine-grained
//! … small amounts of rows" and "batch multiple updates in a larger
//! Dataframe". This ablation measures append cost per row across update
//! batch sizes (1 row … 10 000 rows per appendRows call), with keys that
//! repeat at most ten times per call, and once more for a 10 000-row call
//! holding ≈30 rows per key — the mean chain length of SNB `knows`, where
//! a call links each key's rows as one run.
//!
//! Run: `cargo bench -p idf-bench --bench abl_append`

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use idf_core::prelude::*;
use idf_engine::chunk::Chunk;
use idf_engine::schema::{Field, Schema};
use idf_engine::types::{DataType, Value};

fn bench_append(c: &mut Criterion) {
    let schema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Utf8),
    ]));
    let mut group = c.benchmark_group("abl_append");
    group.sample_size(10);
    let cases = [1usize, 10, 100, 1_000, 10_000]
        .map(|rows| ("append_rows", rows, 1_000))
        .into_iter()
        .chain([("append_rows_30_per_key", 10_000, 333)]);
    for (name, batch_rows, keys) in cases {
        // Pre-build the update chunk once.
        let rows: Vec<Vec<Value>> = (0..batch_rows as i64)
            .map(|i| vec![Value::Int64(i % keys), Value::Utf8(format!("u{i}"))])
            .collect();
        let update = Chunk::from_rows(&schema, &rows).expect("chunk");
        group.throughput(Throughput::Elements(batch_rows as u64));
        group.bench_with_input(BenchmarkId::new(name, batch_rows), &update, |b, update| {
            let table = IndexedTable::new(
                Arc::clone(&schema),
                0,
                IndexConfig {
                    num_partitions: 4,
                    ..Default::default()
                },
            )
            .expect("table");
            b.iter(|| table.append_chunk(update).expect("append"));
        });
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
    targets = bench_append
}
criterion_main!(benches);
