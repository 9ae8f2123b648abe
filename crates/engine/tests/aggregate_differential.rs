//! Aggregate differential: the columnar group-by kernel, alone and split
//! into partial → exchange → final, against the scalar loop it replaced.
//!
//! The oracle is that loop — `HashMap<Vec<Value>, Vec<accumulator>>`, one
//! boxed `Value` per cell — kept here, test-only. Inputs are seeded: key
//! columns over all six types with NULL keys, NaN/−0.0, empty and unicode
//! strings, one to three key columns, every aggregate function plus the
//! zero-aggregate `DISTINCT` shape, chunk sizes from one row to more than
//! the input, and 1/2/7 input partitions (one partition plans a single
//! phase, more plan partial → shuffle/coalesce → final). Fixed seeds run in
//! tier-1; `IDF_AGG_DIFF_SEEDS=<n>` widens the sweep (CI does). Every
//! failure message names its seed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use idf_engine::catalog::ChunkIter;
use idf_engine::column::Column;
use idf_engine::physical::{hash_columns, hash_values};
use idf_engine::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TYPES: [DataType; 6] = [
    DataType::Boolean,
    DataType::Int32,
    DataType::Int64,
    DataType::Float64,
    DataType::Utf8,
    DataType::Timestamp,
];

/// A value of `dt` from a small domain (so groups repeat) that includes
/// the awkward members of each type; NULL one time in six.
fn random_value(rng: &mut StdRng, dt: DataType) -> Value {
    if rng.gen_range(0..6) == 0 {
        return Value::Null;
    }
    match dt {
        DataType::Boolean => Value::Boolean(rng.gen_bool(0.5)),
        DataType::Int32 => Value::Int32([0, 1, -1, 7, i32::MIN, i32::MAX][rng.gen_range(0..6)]),
        DataType::Int64 => {
            Value::Int64([0, 1, -1, 42, i64::MIN, i64::MAX, 1 << 40][rng.gen_range(0..7)])
        }
        DataType::Float64 => Value::Float64(
            [0.0, -0.0, 1.5, -2.25, f64::NAN, f64::INFINITY, f64::MIN][rng.gen_range(0..7)],
        ),
        DataType::Utf8 => {
            Value::Utf8(["", "a", "ab", "é", "日本", "a\0"][rng.gen_range(0..6)].into())
        }
        DataType::Timestamp => Value::Timestamp([0, 1, -1, 1_561_852_800_000][rng.gen_range(0..4)]),
    }
}

/// Argument columns, after the key columns. `wrap` holds values whose sum
/// overflows `i64`; `small`/`quarter` sum exactly in any order, so float
/// results can be compared bit for bit across phase splits.
const ARGS: [(&str, DataType); 7] = [
    ("wrap", DataType::Int64),
    ("small", DataType::Int32),
    ("quarter", DataType::Float64),
    ("wild", DataType::Float64),
    ("s", DataType::Utf8),
    ("b", DataType::Boolean),
    ("ts", DataType::Timestamp),
];

fn random_arg(rng: &mut StdRng, name: &str, dt: DataType) -> Value {
    if rng.gen_range(0..5) == 0 {
        return Value::Null;
    }
    match name {
        "wrap" => Value::Int64([i64::MAX, i64::MAX - 3, i64::MIN, 5, -9][rng.gen_range(0..5)]),
        "small" => Value::Int32(rng.gen_range(-1000..1000)),
        "quarter" => Value::Float64(f64::from(rng.gen_range(-400..400i32)) * 0.25),
        _ => random_value(rng, dt),
    }
}

struct Case {
    schema: SchemaRef,
    key_count: usize,
    rows: Vec<Vec<Value>>,
}

fn random_case(rng: &mut StdRng) -> Case {
    let key_count = rng.gen_range(1..=3usize);
    let mut fields: Vec<Field> = (0..key_count)
        .map(|i| Field::new(format!("k{i}"), TYPES[rng.gen_range(0..TYPES.len())]))
        .collect();
    fields.extend(ARGS.iter().map(|(name, dt)| Field::new(*name, *dt)));
    let rows = (0..rng.gen_range(0..300usize))
        .map(|_| {
            fields
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    if i < key_count {
                        random_value(rng, f.data_type)
                    } else {
                        random_arg(rng, &f.name, f.data_type)
                    }
                })
                .collect()
        })
        .collect();
    Case {
        schema: Arc::new(Schema::new(fields)),
        key_count,
        rows,
    }
}

/// The aggregates every case computes: `(function, argument column)`.
const AGGS: [(&str, Option<&str>); 16] = [
    ("count", None),
    ("count", Some("s")),
    ("sum", Some("wrap")),
    ("sum", Some("small")),
    ("sum", Some("quarter")),
    ("avg", Some("small")),
    ("avg", Some("quarter")),
    ("min", Some("wrap")),
    ("max", Some("small")),
    ("min", Some("wild")),
    ("max", Some("wild")),
    ("min", Some("s")),
    ("max", Some("s")),
    ("min", Some("b")),
    ("max", Some("ts")),
    ("count", Some("wild")),
];

fn agg_expr(func: &str, arg: Option<&str>) -> Expr {
    match (func, arg) {
        ("count", None) => count_star(),
        ("count", Some(c)) => count(col(c)),
        ("sum", Some(c)) => sum(col(c)),
        ("avg", Some(c)) => avg(col(c)),
        ("min", Some(c)) => min(col(c)),
        ("max", Some(c)) => max(col(c)),
        other => panic!("no such aggregate: {other:?}"),
    }
}

/// The scalar accumulator the columnar kernel replaced.
#[derive(Clone)]
enum OracleAcc {
    Count(i64),
    SumI(Option<i64>),
    SumF(Option<f64>),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg(f64, i64),
}

impl OracleAcc {
    fn new(func: &str, arg_type: Option<DataType>) -> OracleAcc {
        match func {
            "count" => OracleAcc::Count(0),
            "sum" if arg_type == Some(DataType::Float64) => OracleAcc::SumF(None),
            "sum" => OracleAcc::SumI(None),
            "min" => OracleAcc::Min(None),
            "max" => OracleAcc::Max(None),
            _ => OracleAcc::Avg(0.0, 0),
        }
    }

    fn update(&mut self, v: &Value) {
        match self {
            OracleAcc::Count(n) => *n += i64::from(!v.is_null()),
            OracleAcc::SumI(acc) => {
                if let Some(x) = v.as_i64() {
                    *acc = Some(acc.unwrap_or(0).wrapping_add(x));
                }
            }
            OracleAcc::SumF(acc) => {
                if let Some(x) = v.as_f64() {
                    *acc = Some(acc.unwrap_or(0.0) + x);
                }
            }
            OracleAcc::Min(acc) => {
                if !v.is_null() && acc.as_ref().is_none_or(|m| v < m) {
                    *acc = Some(v.clone());
                }
            }
            OracleAcc::Max(acc) => {
                if !v.is_null() && acc.as_ref().is_none_or(|m| v > m) {
                    *acc = Some(v.clone());
                }
            }
            OracleAcc::Avg(sum, n) => {
                if let Some(x) = v.as_f64() {
                    *sum += x;
                    *n += 1;
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            OracleAcc::Count(n) => Value::Int64(n),
            OracleAcc::SumI(v) => v.map_or(Value::Null, Value::Int64),
            OracleAcc::SumF(v) => v.map_or(Value::Null, Value::Float64),
            OracleAcc::Min(v) | OracleAcc::Max(v) => v.unwrap_or(Value::Null),
            OracleAcc::Avg(_, 0) => Value::Null,
            OracleAcc::Avg(sum, n) => Value::Float64(sum / n as f64),
        }
    }
}

/// The old row-at-a-time loop: group rows by their first `keys` columns.
fn oracle(case: &Case, keys: usize, aggs: &[(&str, Option<&str>)]) -> Vec<Vec<Value>> {
    let arg_index = |name: &str| case.schema.index_of(None, name).expect("argument column");
    let fresh: Vec<OracleAcc> = aggs
        .iter()
        .map(|(f, a)| OracleAcc::new(f, a.map(|a| case.schema.field(arg_index(a)).data_type)))
        .collect();
    let mut groups: HashMap<Vec<Value>, Vec<OracleAcc>> = HashMap::new();
    if keys == 0 {
        groups.insert(Vec::new(), fresh.clone());
    }
    for row in &case.rows {
        let accs = groups
            .entry(row[..keys].to_vec())
            .or_insert_with(|| fresh.clone());
        for (acc, (_, arg)) in accs.iter_mut().zip(aggs) {
            match arg {
                Some(a) => acc.update(&row[arg_index(a)]),
                None => acc.update(&Value::Int64(1)),
            }
        }
    }
    let mut out: Vec<Vec<Value>> = groups
        .into_iter()
        .map(|(mut key, accs)| {
            key.extend(accs.into_iter().map(OracleAcc::finish));
            key
        })
        .collect();
    out.sort();
    out
}

/// `case` as a table of `partitions` round-robin partitions, each cut into
/// chunks of `chunk_rows` rows.
fn table(case: &Case, partitions: usize, chunk_rows: usize) -> Arc<MemTable> {
    let mut parts: Vec<Vec<Vec<Value>>> = vec![Vec::new(); partitions];
    for (i, row) in case.rows.iter().enumerate() {
        parts[i % partitions].push(row.clone());
    }
    let chunks = parts
        .iter()
        .map(|rows| {
            rows.chunks(chunk_rows)
                .map(|c| Chunk::from_rows(&case.schema, c).expect("chunk"))
                .collect()
        })
        .collect();
    Arc::new(MemTable::new(Arc::clone(&case.schema), chunks))
}

fn sorted_rows(chunk: &Chunk) -> Vec<Vec<Value>> {
    let mut rows = chunk.to_rows();
    rows.sort();
    rows
}

fn seeds() -> std::ops::Range<u64> {
    let n = std::env::var("IDF_AGG_DIFF_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12);
    0..n
}

#[test]
fn kernel_and_two_phase_plans_equal_the_scalar_oracle() {
    for seed in seeds() {
        let mut rng = StdRng::seed_from_u64(0xA66_0000 + seed);
        let case = random_case(&mut rng);
        for partitions in [1usize, 2, 7] {
            for chunk_rows in [1usize, 3, 64, 1000] {
                let session = Session::with_config(EngineConfig {
                    target_partitions: 3,
                    ..Default::default()
                });
                session.register_table("t", table(&case, partitions, chunk_rows));
                let t = session.table("t").expect("table");
                let at = format!("seed {seed}, {partitions} partitions, {chunk_rows}-row chunks");
                // Grouped on every prefix of the key columns, global
                // (no keys), and DISTINCT (no aggregates).
                for keys in 0..=case.key_count {
                    let group: Vec<Expr> = (0..keys).map(|i| col(&format!("k{i}"))).collect();
                    let aggs = AGGS.iter().map(|(f, a)| agg_expr(f, *a)).collect();
                    let df = t.aggregate(group, aggs).expect("aggregate");
                    let plan = df.explain().expect("explain");
                    assert_eq!(
                        plan.contains("partial"),
                        partitions > 1,
                        "{at}: one partition is single-phase, more are two-phase\n{plan}"
                    );
                    let got = sorted_rows(&df.collect().expect("collect"));
                    assert_eq!(got, oracle(&case, keys, &AGGS), "{at}, {keys} keys");
                }
                let key_names: Vec<String> = (0..case.key_count).map(|i| format!("k{i}")).collect();
                let key_names: Vec<&str> = key_names.iter().map(String::as_str).collect();
                let distinct = t
                    .select_columns(&key_names)
                    .and_then(|df| df.distinct())
                    .and_then(|df| df.collect())
                    .expect("distinct");
                assert_eq!(
                    sorted_rows(&distinct),
                    oracle(&case, case.key_count, &[]),
                    "{at}, DISTINCT"
                );
            }
        }
    }
}

#[test]
fn integer_sums_wrap_like_the_scalar_loop() {
    let schema = Arc::new(Schema::new(vec![
        Field::new("g", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]));
    let rows: Vec<Vec<Value>> = [i64::MAX, 1, i64::MAX, 2]
        .iter()
        .map(|&v| vec![Value::Int64(7), Value::Int64(v)])
        .collect();
    let expected = i64::MAX
        .wrapping_add(1)
        .wrapping_add(i64::MAX)
        .wrapping_add(2);
    for partitions in [1, 2] {
        let session = Session::new();
        let case = Case {
            schema: Arc::clone(&schema),
            key_count: 1,
            rows: rows.clone(),
        };
        session.register_table("t", table(&case, partitions, 1));
        for sql in [
            "SELECT g, sum(v) FROM t GROUP BY g",
            "SELECT 7, sum(v) FROM t",
        ] {
            let out = session.sql(sql).unwrap().collect().unwrap();
            assert_eq!(out.value_at(1, 0), Value::Int64(expected), "{sql}");
        }
    }
}

/// Guards index co-partitioning: the Indexed DataFrame routes rows with the
/// scalar `hash_values`, shuffles bucket with the typed `hash_columns`.
#[test]
fn typed_column_hash_equals_hash_values_for_every_type() {
    for seed in seeds() {
        let mut rng = StdRng::seed_from_u64(0x4A54 + seed);
        let width = rng.gen_range(1..=3usize);
        let types: Vec<DataType> = (0..width)
            .map(|_| TYPES[rng.gen_range(0..TYPES.len())])
            .collect();
        // Every type alone, then a random composite.
        let mut shapes: Vec<Vec<DataType>> = TYPES.iter().map(|&t| vec![t]).collect();
        shapes.push(types);
        for shape in shapes {
            let rows: Vec<Vec<Value>> = (0..100)
                .map(|_| shape.iter().map(|&dt| random_value(&mut rng, dt)).collect())
                .collect();
            let columns: Vec<Arc<Column>> = shape
                .iter()
                .enumerate()
                .map(|(c, &dt)| {
                    let values: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
                    Arc::new(Column::from_values(dt, &values).expect("column"))
                })
                .collect();
            let typed = hash_columns(&columns, rows.len());
            for (row, hash) in rows.iter().zip(typed) {
                assert_eq!(
                    hash,
                    hash_values(row),
                    "seed {seed}, {shape:?}, row {row:?}"
                );
            }
        }
    }
}

/// A single-partition source of `chunks` chunks that counts the chunks an
/// operator has pulled and runs `on_pull(chunks pulled so far)` before
/// handing out the next.
struct CountingSource {
    schema: SchemaRef,
    chunks: Vec<Chunk>,
    pulled: Arc<AtomicUsize>,
    on_pull: Arc<dyn Fn(usize) + Send + Sync>,
}

impl TableSource for CountingSource {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn num_partitions(&self) -> usize {
        1
    }

    fn scan(&self, _partition: usize, projection: Option<&[usize]>) -> Result<ChunkIter> {
        let projection = projection.map(<[usize]>::to_vec);
        let (pulled, on_pull) = (Arc::clone(&self.pulled), Arc::clone(&self.on_pull));
        Ok(Box::new(self.chunks.clone().into_iter().map(move |c| {
            on_pull(pulled.fetch_add(1, Ordering::SeqCst));
            Ok(match &projection {
                Some(p) => c.project(p),
                None => c,
            })
        })))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// 100 chunks of 100 rows, every row a new group.
fn counting_session(
    config: EngineConfig,
    on_pull: Arc<dyn Fn(usize) + Send + Sync>,
) -> (Session, Arc<AtomicUsize>) {
    let schema = Arc::new(Schema::new(vec![
        Field::new("g", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]));
    let chunks = (0..100i64)
        .map(|c| {
            let rows: Vec<Vec<Value>> = (0..100)
                .map(|r| vec![Value::Int64(c * 100 + r), Value::Int64(r)])
                .collect();
            Chunk::from_rows(&schema, &rows).unwrap()
        })
        .collect();
    let pulled = Arc::new(AtomicUsize::new(0));
    let session = Session::with_config(config);
    session.register_table(
        "t",
        Arc::new(CountingSource {
            schema,
            chunks,
            pulled: Arc::clone(&pulled),
            on_pull,
        }),
    );
    (session, pulled)
}

#[test]
fn over_budget_aggregation_fails_typed_while_the_table_grows() {
    let (session, pulled) = counting_session(
        EngineConfig {
            query_memory_limit: Some(128 * 1024),
            ..Default::default()
        },
        Arc::new(|_| {}),
    );
    let err = session
        .sql("SELECT g, count(*), sum(v), max(v) FROM t GROUP BY g")
        .unwrap()
        .collect()
        .unwrap_err();
    assert!(
        matches!(err, EngineError::ResourceExhausted(_)),
        "got {err:?}"
    );
    // 10 000 groups of table slot, key and three accumulators outgrow
    // 128 KiB well before the input ends; the table is billed chunk by
    // chunk, so the query stops there instead of at the end.
    let pulled = pulled.load(Ordering::SeqCst);
    assert!((5..60).contains(&pulled), "stopped after {pulled} chunks");
}

#[test]
fn cancel_and_deadline_stop_an_aggregation_within_one_chunk() {
    let query_slot: Arc<std::sync::Mutex<Option<Arc<QueryContext>>>> = Arc::default();
    let slot = Arc::clone(&query_slot);
    let (session, pulled) = counting_session(
        EngineConfig::default(),
        Arc::new(move |so_far| {
            if so_far == 4 {
                if let Some(q) = slot.lock().unwrap().as_ref() {
                    q.cancel();
                }
            }
        }),
    );
    let df = session.sql("SELECT g, count(*) FROM t GROUP BY g").unwrap();
    let query = session.new_query();
    *query_slot.lock().unwrap() = Some(Arc::clone(&query));
    assert_eq!(df.collect_ctx(&query).unwrap_err(), EngineError::Cancelled);
    assert_eq!(
        pulled.load(Ordering::SeqCst),
        5,
        "cancelled while chunk 5 was produced: it is the last one pulled"
    );

    // A deadline already past stops the aggregate before it pulls anything.
    *query_slot.lock().unwrap() = None;
    pulled.store(0, Ordering::SeqCst);
    let err = df.collect_timeout(std::time::Duration::ZERO).unwrap_err();
    assert_eq!(err, EngineError::DeadlineExceeded);
    assert_eq!(pulled.load(Ordering::SeqCst), 0);
}
