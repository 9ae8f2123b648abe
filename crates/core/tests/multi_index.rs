//! One row store, many indexes: every index of a table answers exactly
//! what a filtered scan of the same rows answers.
//!
//! * `lookups_equal_scans_and_the_model` — seeded tables with one to three
//!   indexes (NULL keys in every indexed column, secondary keys that span
//!   partitions) take random interleavings of `append_row`,
//!   `append_chunk`, `apply_dml` (DELETE, and UPDATE that moves a row to
//!   another key) and `compact`. After every step, for sampled hit and
//!   miss keys of every index: the handle's lookup, its pushed-down scan
//!   over the partitions `prune` names, a filtered full scan and a naive
//!   `Vec<Row>` model agree as multisets, and each index's maintained key
//!   count equals its trie (and, right after a compaction, the keys the
//!   model still holds). Fixed seeds run in tier-1;
//!   `IDF_MULTI_INDEX_SEEDS=<n>` widens the sweep. Every failure message
//!   names its seed.
//! * `a_snapshot_finds_a_row_through_every_index_or_none` — an appender
//!   (with DML) and a compactor race readers that probe all three tries of
//!   one partition view.
//! * `single_index_rows_keep_their_bytes` — the committed bytes of a fixed
//!   single-index table, pinned: checkpoint files and the scan path of a
//!   one-index table see the same format as before indexes could share
//!   rows.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

use idf_core::prelude::*;
use idf_engine::catalog::TableSource;
use idf_engine::expr::{col, Expr};
use idf_engine::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Row = Vec<Value>;

/// `(k, a, b, seq)`: `k` is the primary key, `a`/`b` the secondary ones,
/// `seq` names a row for the model.
fn schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("a", DataType::Int64),
        Field::new("b", DataType::Utf8),
        Field::new("seq", DataType::Int64),
    ]))
}

fn random_k(rng: &mut StdRng) -> Value {
    if rng.gen_range(0..10) == 0 {
        Value::Null
    } else {
        Value::Int64(rng.gen_range(0..9i64))
    }
}

fn random_a(rng: &mut StdRng) -> Value {
    if rng.gen_range(0..4) == 0 {
        Value::Null
    } else {
        Value::Int64(rng.gen_range(0..5i64))
    }
}

fn random_b(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..5) {
        0 => Value::Null,
        i => Value::Utf8(["x", "y", "zz", ""][i - 1].into()),
    }
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

fn scan_all(table: &IndexedTable) -> Vec<Row> {
    let mut rows = Vec::new();
    for p in table.snapshot().partitions() {
        for chunk in p.scan_chunks(None, 7).expect("scan") {
            rows.extend(chunk.to_rows());
        }
    }
    rows
}

fn bound_eq(column: &str, index: usize, key: &Value) -> Expr {
    let mut c = col(column);
    if let Expr::Column(cr) = &mut c {
        cr.index = Some(index);
    }
    c.eq(Expr::Literal(key.clone()))
}

/// The rows the engine's path would fetch: `prune`, then the pushed-down
/// scan of each partition it names.
fn pushed_scan(source: &IndexedSource, filter: Expr) -> Vec<Row> {
    let filters = [filter];
    let pruning = source.prune(&filters).expect("a key filter prunes");
    let mut rows = Vec::new();
    for p in pruning.partitions {
        for chunk in source.scan_with_filters(p, None, &filters).expect("scan") {
            rows.extend(chunk.expect("chunk").to_rows());
        }
    }
    rows
}

struct Case {
    seed: u64,
    table: IndexedTable,
    /// Indexed columns, primary first.
    cols: Vec<usize>,
    model: Vec<Row>,
    next_seq: i64,
    /// Every primary key ever stored: the primary trie never drops one.
    primary_keys: HashSet<Value>,
}

impl Case {
    fn new(seed: u64) -> Case {
        let mut rng = StdRng::seed_from_u64(0x3317_0000 + seed);
        let cols: Vec<usize> = [0usize, 1, 2][..rng.gen_range(1..4usize)].to_vec();
        let config = IndexConfig {
            num_partitions: rng.gen_range(1..4usize),
            batch_size: 512,
            max_row_size: 200,
            ..Default::default()
        };
        let table =
            IndexedTable::with_indexes(schema(), cols[0], &cols[1..], config).expect("valid table");
        Case {
            seed,
            table,
            cols,
            model: Vec::new(),
            next_seq: 0,
            primary_keys: HashSet::new(),
        }
    }

    fn new_row(&mut self, rng: &mut StdRng) -> Row {
        self.next_seq += 1;
        vec![
            random_k(rng),
            random_a(rng),
            random_b(rng),
            Value::Int64(self.next_seq),
        ]
    }

    fn stored(&mut self, rows: &[Row]) {
        for r in rows {
            if !r[0].is_null() {
                self.primary_keys.insert(r[0].clone());
            }
        }
        self.model.extend_from_slice(rows);
    }

    /// Model rows DML can name (a NULL primary key is not addressable).
    fn addressable(&self) -> Vec<usize> {
        (0..self.model.len())
            .filter(|&i| !self.model[i][0].is_null())
            .collect()
    }

    fn step(&mut self, rng: &mut StdRng) -> String {
        match rng.gen_range(0..10) {
            0..=2 => {
                let row = self.new_row(rng);
                self.table.append_row(&row).expect("append_row");
                self.stored(&[row]);
                "append_row".into()
            }
            3..=4 => {
                let rows: Vec<Row> = (0..rng.gen_range(1..7))
                    .map(|_| self.new_row(rng))
                    .collect();
                let chunk = Chunk::from_rows(&schema(), &rows).expect("chunk");
                self.table.append_chunk(&chunk).expect("append_chunk");
                self.stored(&rows);
                format!("append_chunk({})", rows.len())
            }
            5..=6 => {
                let mut candidates = self.addressable();
                let mut gone = Vec::new();
                for _ in 0..rng.gen_range(1..4) {
                    if candidates.is_empty() {
                        break;
                    }
                    gone.push(candidates.swap_remove(rng.gen_range(0..candidates.len())));
                }
                let deletes: Vec<Row> = gone.iter().map(|&i| self.model[i].clone()).collect();
                let affected = self.table.apply_dml(&deletes, &[]).expect("delete");
                assert_eq!(affected, deletes.len(), "seed {}: delete", self.seed);
                self.model.retain(|r| !deletes.contains(r));
                format!("delete({})", deletes.len())
            }
            7..=8 => {
                let candidates = self.addressable();
                if candidates.is_empty() {
                    return "update(none)".into();
                }
                let old = self.model[candidates[rng.gen_range(0..candidates.len())]].clone();
                let mut new = old.clone();
                // Move the row to another key of some index (the primary
                // one moves it to another partition).
                match rng.gen_range(0..3) {
                    0 => new[0] = Value::Int64(rng.gen_range(0..9i64)),
                    1 => new[1] = random_a(rng),
                    _ => new[2] = random_b(rng),
                }
                let affected = self
                    .table
                    .apply_dml(std::slice::from_ref(&old), std::slice::from_ref(&new))
                    .expect("update");
                assert_eq!(affected, 1, "seed {}: update", self.seed);
                self.model.retain(|r| r != &old);
                self.stored(&[new]);
                "update".into()
            }
            _ => {
                self.table.compact().expect("compact");
                "compact".into()
            }
        }
    }

    fn check(&self, rng: &mut StdRng, after: &str) {
        let at = format!("seed {} after {after}", self.seed);
        assert_eq!(
            sorted(scan_all(&self.table)),
            sorted(self.model.clone()),
            "{at}: full scan"
        );
        let names = ["k", "a", "b"];
        for (ordinal, &c) in self.cols.iter().enumerate() {
            let handle = self.table.index(c).expect("index handle");
            assert_eq!(handle.key_col(), c);
            let mut keys: Vec<Value> = (0..3)
                .filter_map(|_| {
                    let r = self.model.get(rng.gen_range(0..self.model.len().max(1)))?;
                    Some(r[c].clone()).filter(|v| !v.is_null())
                })
                .collect();
            keys.push(match c {
                2 => Value::Utf8("miss".into()),
                _ => Value::Int64(1_000),
            });
            let source = IndexedSource::live(Arc::new(self.table.index(c).expect("index")));
            for key in &keys {
                let want = sorted(
                    self.model
                        .iter()
                        .filter(|r| &r[c] == key)
                        .cloned()
                        .collect(),
                );
                let looked_up = handle.lookup_chunk(key, None).expect("lookup").to_rows();
                assert_eq!(sorted(looked_up), want, "{at}: lookup {}={key:?}", names[c]);
                let pushed = pushed_scan(&source, bound_eq(names[c], c, key));
                assert_eq!(
                    sorted(pushed),
                    want,
                    "{at}: pushed scan {}={key:?}",
                    names[c]
                );
            }
            let batch = handle.lookup_chunk_batch(&keys, None).expect("batch");
            let want: Vec<Row> = self
                .model
                .iter()
                .filter(|r| keys.contains(&r[c]))
                .cloned()
                .collect();
            assert_eq!(
                sorted(batch.to_rows()),
                sorted(want),
                "{at}: batch {}",
                names[c]
            );

            // The maintained counter is exact: it equals the trie.
            let entries = handle.memory_stats().index_entries;
            let in_tries: usize = (0..self.table.num_partitions())
                .map(|p| self.table.partition(p).snapshot_all().key_count_in(ordinal))
                .sum();
            assert_eq!(entries, in_tries, "{at}: key count of {}", names[c]);
            if ordinal == 0 {
                assert_eq!(entries, self.primary_keys.len(), "{at}: primary keys");
            } else if after == "compact" {
                // A compaction drops the secondary keys no row holds.
                let live: HashSet<(usize, &Value)> = self
                    .model
                    .iter()
                    .filter(|r| !r[c].is_null())
                    .map(|r| (self.table.partition_of(&r[0]), &r[c]))
                    .collect();
                assert_eq!(
                    entries,
                    live.len(),
                    "{at}: {} keys after compaction",
                    names[c]
                );
            }
        }
    }
}

fn seeds() -> std::ops::Range<u64> {
    let n = std::env::var("IDF_MULTI_INDEX_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    0..n
}

#[test]
fn lookups_equal_scans_and_the_model() {
    for seed in seeds() {
        let mut case = Case::new(seed);
        let mut rng = StdRng::seed_from_u64(0x3317_0000 ^ (seed << 8));
        for _ in 0..60 {
            let op = case.step(&mut rng);
            case.check(&mut rng, &op);
        }
    }
}

#[test]
fn a_snapshot_finds_a_row_through_every_index_or_none() {
    let schema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("a", DataType::Int64),
        Field::new("b", DataType::Int64),
        Field::new("seq", DataType::Int64),
    ]));
    let config = IndexConfig {
        num_partitions: 2,
        batch_size: 4096,
        max_row_size: 200,
        ..Default::default()
    };
    let table = Arc::new(IndexedTable::with_indexes(schema, 0, &[1, 2], config).expect("table"));
    let row = |i: i64| {
        vec![
            Value::Int64(i % 40),
            Value::Int64(i % 7),
            Value::Int64(i % 11),
            Value::Int64(i),
        ]
    };
    let stop = AtomicBool::new(false);
    // The row being appended: readers probe its keys, where a publish is
    // most likely to be caught half done.
    let latest = AtomicI64::new(0);
    std::thread::scope(|s| {
        let appender = s.spawn(|| {
            for i in 0..5_000i64 {
                latest.store(i, Ordering::SeqCst);
                table.append_row(&row(i)).expect("append");
                if i % 10 == 9 {
                    // Delete an older row, and move another to a new `a`.
                    table.apply_dml(&[row(i - 9)], &[]).expect("delete");
                    let mut moved = row(i - 5);
                    moved[1] = Value::Int64(100 + i % 3);
                    table.apply_dml(&[row(i - 5)], &[moved]).expect("update");
                }
            }
            stop.store(true, Ordering::SeqCst);
        });
        let compactor = s.spawn(|| {
            let mut runs = 0;
            while !stop.load(Ordering::SeqCst) {
                table.compact().expect("compact");
                runs += 1;
            }
            runs
        });
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let table = Arc::clone(&table);
                let (stop, latest) = (&stop, &latest);
                s.spawn(move || {
                    let mut checked = 0usize;
                    let mut rng = StdRng::seed_from_u64(r);
                    while !stop.load(Ordering::SeqCst) {
                        let fresh = row(latest.load(Ordering::SeqCst));
                        let snap = table
                            .partition(table.partition_of(&fresh[0]))
                            .snapshot_all();
                        let probe = rng.gen_range(0..3usize);
                        for payload in snap.lookup_payloads_in(probe, &fresh[probe]) {
                            let found = snap.decode_row(payload.expect("walk")).expect("decode");
                            for other in 0..3 {
                                let seen = snap
                                    .lookup_payloads_in(other, &found[other])
                                    .map(|p| snap.decode_row(p.expect("walk")).expect("decode"))
                                    .any(|r| r == found);
                                assert!(
                                    seen,
                                    "row {found:?} found through index {probe} \
                                     but not through index {other} of the same view"
                                );
                            }
                            checked += 1;
                        }
                    }
                    checked
                })
            })
            .collect();
        appender.join().expect("appender");
        assert!(compactor.join().expect("compactor") > 0);
        let checked: usize = readers.into_iter().map(|r| r.join().expect("reader")).sum();
        assert!(checked > 0, "readers checked rows");
    });
}

#[test]
fn single_index_rows_keep_their_bytes() {
    let schema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Utf8),
        Field::new("w", DataType::Int64),
    ]));
    let config = IndexConfig {
        num_partitions: 2,
        ..Default::default()
    };
    let t = IndexedTable::new(schema, 0, config).expect("table");
    for i in 0..12i64 {
        let w = if i % 3 == 0 {
            Value::Null
        } else {
            Value::Int64(i * 7)
        };
        t.append_row(&[Value::Int64(i % 4), Value::Utf8(format!("v{i}")), w])
            .expect("append");
    }
    t.append_row(&[Value::Null, Value::Utf8("unkeyed".into()), Value::Int64(-1)])
        .expect("append");
    let row =
        |k: i64, v: &str, w: i64| vec![Value::Int64(k), Value::Utf8(v.into()), Value::Int64(w)];
    assert_eq!(t.apply_dml(&[row(1, "v5", 35)], &[]).expect("delete"), 1);
    assert_eq!(
        t.apply_dml(&[row(2, "v2", 14)], &[row(2, "v2*", 15)])
            .expect("update"),
        1
    );
    let mut dump = String::new();
    for p in t.snapshot().partitions() {
        for (capacity, bytes) in p.export_batches() {
            dump.push_str(&format!("{capacity}:"));
            for b in bytes {
                dump.push_str(&format!("{b:02x}"));
            }
            dump.push('\n');
        }
    }
    assert_eq!(dump, include_str!("golden/single_index_batches.hex"));
}
