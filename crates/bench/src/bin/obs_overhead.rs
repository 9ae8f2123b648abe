//! Obs-overhead probe: a fixed point-lookup loop that prints one number
//! — minimum ns per `get_rows_chunk` across rounds — to stdout. CI runs
//! this binary with `idf-obs` compiled in (default features) and compiled
//! out (`--no-default-features --features failpoints`), and fails if the
//! instrumented build regresses by more than the 5% budget.
//!
//! The min (not the median) is reported because shared CI runners add
//! tens of percent of scheduling noise on top of the real per-op cost;
//! the fastest round is the closest observation of the uncontended cost
//! and is what makes an A/B ratio between two binaries meaningful.
//!
//! ```bash
//! cargo run --release -p idf-bench --bin obs_overhead
//! cargo run --release -p idf-bench --bin obs_overhead --no-default-features --features failpoints
//! ```

use std::sync::Arc;
use std::time::Instant;

use idf_core::prelude::*;
use idf_engine::chunk::Chunk;
use idf_engine::error::Result;
use idf_engine::prelude::Session;
use idf_engine::schema::{Field, Schema};
use idf_engine::types::{DataType, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEYS: usize = 50_000;
const VERSIONS: usize = 4;
const WARMUP: usize = 20_000;
const PROBES: usize = 200_000;
const ROUNDS: usize = 9;

/// The probe table: `(k Int64, v Int64)` indexed on `k`, `versions`
/// chained rows per key.
fn build_table(n_keys: usize, versions: usize) -> Result<IndexedDataFrame> {
    let schema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]));
    let rows: Vec<Vec<Value>> = (0..versions as i64)
        .flat_map(|ver| {
            (0..n_keys as i64)
                .map(move |k| vec![Value::Int64(k), Value::Int64(ver * n_keys as i64 + k)])
        })
        .collect();
    let chunk = Chunk::from_rows(&schema, &rows)?;
    let table = Arc::new(IndexedTable::from_chunk(
        schema,
        0,
        IndexConfig::default(),
        &chunk,
    )?);
    Ok(IndexedDataFrame::from_table(Session::new(), table))
}

fn main() {
    let idf = build_table(KEYS, VERSIONS).expect("building the probe table");
    let mut rng = StdRng::seed_from_u64(0x0b5_0423);
    let mut probe = |n: usize| {
        let start = Instant::now();
        for _ in 0..n {
            let key = Value::Int64(rng.gen_range(0..KEYS as i64));
            let chunk = idf.get_rows_chunk(key).expect("probe failed");
            assert_eq!(chunk.len(), VERSIONS, "probe missed a resident key");
        }
        start.elapsed().as_nanos() as u64 / n as u64
    };
    let _ = probe(WARMUP);
    let mut rounds: Vec<u64> = (0..ROUNDS).map(|_| probe(PROBES)).collect();
    rounds.sort_unstable();
    eprintln!(
        "# obs_overhead: obs_enabled={} rounds={rounds:?} ns/op",
        idf_obs::enabled()
    );
    println!("{}", rounds[0]);
}
