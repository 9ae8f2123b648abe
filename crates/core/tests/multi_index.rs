//! One row store, many indexes: every index of a table answers exactly
//! what a filtered scan of the same rows answers.
//!
//! * `lookups_equal_scans_and_the_model` — seeded tables with one to three
//!   indexes (NULL keys in every indexed column, secondary keys that span
//!   partitions) take random interleavings of `append_row`,
//!   `append_chunk`, `apply_dml` (DELETE, and UPDATE that moves a row to
//!   another key or flips the sign bit of its float), SQL `DELETE` and
//!   `UPDATE`, and `compact`. Rows hold `-0.0`, NaNs of both signs,
//!   NULLs, `""` and multibyte strings, and some rows are *twins*: equal
//!   but for the bits of their float or `""` against NULL, so only bytes
//!   tell them apart. A DML statement must hide exactly the rows it names,
//!   one stored row per named row. After every step, for sampled hit and
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
//! * `a_chunk_append_writes_what_row_appends_write` — seeded tables with
//!   one to three indexes, the primary on a column of any type, take a
//!   chunk (a column of every type, NULLs in each; NULL keys, duplicate
//!   keys inside it, keys already stored, more rows than one batch holds)
//!   through `append_chunk`, into an empty table and into a populated one,
//!   and the same rows through `append_row` in the order `append_chunk`
//!   stored them: the committed bytes and every per-key lookup of every
//!   index are equal, and each partition stores the chunk's rows in
//!   `(key, position in the chunk)` order. Widened by
//!   `IDF_MULTI_INDEX_SEEDS`.
//! * `a_mistyped_chunk_changes_nothing` — a chunk whose column does not
//!   match its field fails with a type error, and rows, lookups and key
//!   counts stay as they were.
//! * `a_chunk_routes_every_row_to_its_key_partition` — for keys of each
//!   routable type, NULL included, every row of a chunk lands in
//!   `partition_of(key)`.
//! * `a_publish_fault_at_row_k_leaves_k_rows_indexed` — the publish
//!   failpoint armed at row `k` of a chunk's publish, as an error and as a
//!   panic: exactly the first `k` rows of the chunk's stored order are
//!   scan-visible, and each is found through every index.
//! * `many_key_walks_equal_per_key_walks` — the many-key walk
//!   (`lookup_chunk_multi`, several chains walked at once and their rows
//!   put back in key order) equals one `lookup_payloads` walk per key, row
//!   for row and in order: keys that repeat, miss or are NULL, `Int64` and
//!   `Utf8` primaries, secondary indexes, one to three partitions, after a
//!   chunk load, scattered appends, DML before and after a compaction, and
//!   on a view whose cursor trails later appends. Widened by
//!   `IDF_MULTI_INDEX_SEEDS`.
//! * `indexed_joins_equal_vanilla_on_repeated_keys` — the indexed join
//!   (one walk per distinct key of a probe chunk, fanned out per probe
//!   row) returns what the vanilla hash join returns, partitioned and
//!   broadcast, through a primary and a secondary index, in both
//!   directions of a foreign key. Widened by `IDF_MULTI_INDEX_SEEDS`.
//!
//! `a_publish_fault_at_row_k_leaves_k_rows_indexed` arms a process-wide
//! failpoint, so every test here runs under one lock.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use idf_core::layout::RowLayout;
use idf_core::prelude::*;
use idf_core::table::TableSnapshot;
use idf_engine::catalog::TableSource;
use idf_engine::column::{Column, PrimVec};
use idf_engine::expr::{col, Expr};
use idf_engine::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Row = Vec<Value>;

/// Held by every test: one of them arms a failpoint, which is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `(k, a, b, seq, f)`: `k` is the primary key, `a`/`b` the secondary ones,
/// `seq` names a row and its twins for the model, `f` is a float.
fn schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("a", DataType::Int64),
        Field::new("b", DataType::Utf8),
        Field::new("seq", DataType::Int64),
        Field::new("f", DataType::Float64),
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
    match rng.gen_range(0..6) {
        0 => Value::Null,
        i => Value::Utf8(["x", "y", "zz", "", "é→"][i - 1].into()),
    }
}

fn random_f(rng: &mut StdRng) -> Value {
    let f = [0.0, -0.0, 1.5, f64::NAN, -f64::NAN][rng.gen_range(0..5usize)];
    or_null(rng, Value::Float64(f))
}

/// `f` with its sign bit flipped (`0.0` and `-0.0`, the two NaNs); a NULL
/// becomes `-0.0`.
fn twin_f(f: &Value) -> Value {
    match f {
        Value::Float64(x) => Value::Float64(f64::from_bits(x.to_bits() ^ (1 << 63))),
        _ => Value::Float64(-0.0),
    }
}

/// `Some(v)` three times in four, else NULL.
fn or_null(rng: &mut StdRng, v: Value) -> Value {
    if rng.gen_range(0..4) == 0 {
        Value::Null
    } else {
        v
    }
}

/// `(k, a, b, seq)` of [`schema`] and one more column of every other type,
/// for chunk appends: `(k, a, b, seq, flag, small, score, ts)`.
fn chunk_schema() -> SchemaRef {
    let mut fields = schema().fields[..4].to_vec();
    fields.extend([
        Field::new("flag", DataType::Boolean),
        Field::new("small", DataType::Int32),
        Field::new("score", DataType::Float64),
        Field::new("ts", DataType::Timestamp),
    ]);
    Arc::new(Schema::new(fields))
}

/// The columns of [`chunk_schema`] a chunk test's primary index may key.
const CHUNK_PRIMARIES: [usize; 6] = [0, 4, 5, 6, 7, 2];

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
    table: Arc<IndexedTable>,
    /// A session with `table` registered as `t`, for SQL DML.
    session: Session,
    /// Indexed columns, primary first.
    cols: Vec<usize>,
    model: Vec<Row>,
    next_seq: i64,
    /// Per index, the `(partition, key)` pairs its tries hold: every key
    /// stored, less, on an index after the primary, those no row held at
    /// the last compaction. The primary trie never drops a key.
    trie_keys: Vec<HashSet<(usize, Value)>>,
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
        let table = Arc::new(
            IndexedTable::with_indexes(schema(), cols[0], &cols[1..], config).expect("valid table"),
        );
        let session = Session::new();
        IndexedDataFrame::from_table(session.clone(), Arc::clone(&table)).register("t");
        Case {
            seed,
            table,
            session,
            trie_keys: vec![HashSet::new(); cols.len()],
            cols,
            model: Vec::new(),
            next_seq: 0,
        }
    }

    /// A fresh row, or one time in five the twin of a stored row: its
    /// float's sign bit flipped and, where `b` is `""` or NULL, the other.
    fn new_row(&mut self, rng: &mut StdRng) -> Row {
        if !self.model.is_empty() && rng.gen_range(0..5) == 0 {
            let mut twin = self.model[rng.gen_range(0..self.model.len())].clone();
            twin[4] = twin_f(&twin[4]);
            twin[2] = match &twin[2] {
                Value::Null => Value::Utf8(String::new()),
                Value::Utf8(s) if s.is_empty() => Value::Null,
                b => b.clone(),
            };
            return twin;
        }
        self.next_seq += 1;
        vec![
            random_k(rng),
            random_a(rng),
            random_b(rng),
            Value::Int64(self.next_seq),
            random_f(rng),
        ]
    }

    /// Drop one model row equal to each of `rows`: a DML statement hides
    /// one stored row per row it names.
    fn forget(&mut self, rows: &[Row]) {
        for row in rows {
            if let Some(i) = self.model.iter().position(|r| r == row) {
                self.model.swap_remove(i);
            }
        }
    }

    fn stored(&mut self, rows: &[Row]) {
        for r in rows {
            let p = self.table.partition_of(&r[0]);
            for (keys, &c) in self.trie_keys.iter_mut().zip(&self.cols) {
                if !r[c].is_null() {
                    keys.insert((p, r[c].clone()));
                }
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
        match rng.gen_range(0..12) {
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
                self.forget(&deletes);
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
                // one moves it to another partition), or change only the
                // bits of its float.
                match rng.gen_range(0..4) {
                    0 => new[0] = Value::Int64(rng.gen_range(0..9i64)),
                    1 => new[1] = random_a(rng),
                    2 => new[2] = random_b(rng),
                    _ => new[4] = twin_f(&new[4]),
                }
                let affected = self
                    .table
                    .apply_dml(std::slice::from_ref(&old), std::slice::from_ref(&new))
                    .expect("update");
                assert_eq!(affected, 1, "seed {}: update", self.seed);
                self.forget(&[old]);
                self.stored(&[new]);
                "update".into()
            }
            9..=10 => {
                // SQL names a row and its twins by `seq`; the executor hands
                // back the rows it scanned, decoded, to be matched by bytes.
                let candidates = self.addressable();
                if candidates.is_empty() {
                    return "sql(none)".into();
                }
                let seq = self.model[candidates[rng.gen_range(0..candidates.len())]][3].clone();
                let named: Vec<Row> = self
                    .model
                    .iter()
                    .filter(|r| r[3] == seq && !r[0].is_null())
                    .cloned()
                    .collect();
                let filter = format!("seq = {seq} AND k IS NOT NULL");
                let (sql, images) = match rng.gen_range(0..2) {
                    0 => (format!("DELETE FROM t WHERE {filter}"), Vec::new()),
                    _ => {
                        let a = rng.gen_range(0..5i64);
                        let images: Vec<Row> = named
                            .iter()
                            .map(|r| {
                                let mut r = r.clone();
                                r[1] = Value::Int64(a);
                                r
                            })
                            .collect();
                        (format!("UPDATE t SET a = {a} WHERE {filter}"), images)
                    }
                };
                let out = self.session.sql(&sql).and_then(|df| df.collect());
                let out = out.unwrap_or_else(|e| panic!("seed {}: {sql}: {e}", self.seed));
                assert_eq!(
                    out.value_at(0, 0),
                    Value::Int64(named.len() as i64),
                    "seed {}: {sql}",
                    self.seed
                );
                self.forget(&named);
                self.stored(&images);
                sql
            }
            _ => {
                self.table.compact().expect("compact");
                for (keys, &c) in self.trie_keys.iter_mut().zip(&self.cols).skip(1) {
                    keys.retain(|(p, k)| {
                        self.model
                            .iter()
                            .any(|r| &r[c] == k && self.table.partition_of(&r[0]) == *p)
                    });
                }
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

            // The maintained counter is exact: it counts the keys the
            // tries hold.
            assert_eq!(
                handle.memory_stats().index_entries,
                self.trie_keys[ordinal].len(),
                "{at}: key count of {}",
                names[c]
            );
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
    let _serial = serial();
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
    let _serial = serial();
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
                        let snap = table.partition(table.partition_of(&fresh[0])).snapshot();
                        let layout = RowLayout::new(snap.schema().clone());
                        let probe = rng.gen_range(0..3usize);
                        for payload in snap.lookup_payloads_in(probe, &fresh[probe]) {
                            let found = layout.decode_row(payload.expect("walk")).expect("decode");
                            for other in 0..3 {
                                let seen = snap
                                    .lookup_payloads_in(other, &found[other])
                                    .map(|p| layout.decode_row(p.expect("walk")).expect("decode"))
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

/// Reads write no trie. Lookups through every index, batched lookups,
/// pushed-down scans and full scans leave the root generation of every
/// trie as it was; a trie snapshot, such as the one a checkpoint export
/// iterates, is what moves it.
#[test]
fn reads_leave_every_trie_root_unchanged() {
    let _serial = serial();
    let config = IndexConfig {
        num_partitions: 2,
        ..Default::default()
    };
    let table = IndexedTable::with_indexes(schema(), 0, &[1, 2], config).expect("table");
    let row = |i: i64| {
        vec![
            Value::Int64(i % 5),
            Value::Int64(i % 7),
            Value::Utf8(format!("b{}", i % 3)),
            Value::Int64(i),
            Value::Float64(-0.0),
        ]
    };
    for i in 0..200 {
        table.append_row(&row(i)).expect("append");
    }
    // A dead row makes the secondary walks check their primary chains too.
    table.apply_dml(&[row(3)], &[]).expect("delete");
    let roots = |t: &IndexedTable| -> Vec<Vec<u64>> {
        (0..t.num_partitions())
            .map(|p| t.partition(p).trie_generations())
            .collect()
    };
    let before = roots(&table);
    for (c, name) in [(0usize, "k"), (1, "a"), (2, "b")] {
        let keys: Vec<Value> = match c {
            2 => ["b0", "b1", "b2"].map(|b| Value::Utf8(b.into())).to_vec(),
            _ => (0..7).map(Value::Int64).collect(),
        };
        let handle = Arc::new(table.index(c).expect("handle"));
        for key in &keys {
            handle.lookup_chunk(key, None).expect("lookup");
            pushed_scan(
                &IndexedSource::live(Arc::clone(&handle)),
                bound_eq(name, c, key),
            );
        }
        handle.lookup_chunk_batch(&keys, None).expect("batch");
        assert_eq!(handle.snapshot().row_count(), 199);
    }
    assert_eq!(scan_all(&table).len(), 199);
    assert_eq!(roots(&table), before, "a read wrote a trie root");
    table.snapshot().partitions()[0]
        .export_index()
        .expect("export");
    assert_ne!(
        roots(&table)[0][0],
        before[0][0],
        "an export snapshots the trie"
    );
}

#[test]
fn single_index_rows_keep_their_bytes() {
    let _serial = serial();
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

/// A seeded table with one to three indexes, and the seeded rows that go
/// into it: `stored` row by row, then `chunk` in one call.
struct ChunkCase {
    cols: Vec<usize>,
    config: IndexConfig,
    stored: Vec<Row>,
    chunk: Vec<Row>,
}

impl ChunkCase {
    fn new(seed: u64, partitions: usize) -> ChunkCase {
        let mut rng = StdRng::seed_from_u64(0xC4C4_0000 ^ (seed << 8));
        let cols = [0usize, 1, 2][..rng.gen_range(1..4usize)].to_vec();
        let mut seq = 0i64;
        let mut row = |rng: &mut StdRng| {
            seq += 1;
            let flag = Value::Boolean(rng.gen_bool(0.5));
            let small = Value::Int32(rng.gen_range(-3..3));
            let score = [0.0, -0.0, 1.5, -2.25, f64::NAN][rng.gen_range(0..5usize)];
            let ts = Value::Timestamp(rng.gen_range(-2..3i64) * 1_000);
            vec![
                random_k(rng),
                random_a(rng),
                random_b(rng),
                Value::Int64(seq),
                or_null(rng, flag),
                or_null(rng, small),
                or_null(rng, Value::Float64(score)),
                or_null(rng, ts),
            ]
        };
        // Nine primary keys: a chunk of 40 or more holds duplicates, and
        // the rows stored before it hold keys it extends.
        let stored: Vec<Row> = (0..rng.gen_range(0..25)).map(|_| row(&mut rng)).collect();
        let chunk: Vec<Row> = (0..rng.gen_range(40..120)).map(|_| row(&mut rng)).collect();
        ChunkCase {
            cols,
            config: IndexConfig {
                num_partitions: partitions,
                batch_size: 512,
                max_row_size: 200,
                ..Default::default()
            },
            stored,
            chunk,
        }
    }

    /// The case with its primary index on column `primary`, which leaves
    /// the other indexes.
    fn keyed_on(mut self, primary: usize) -> ChunkCase {
        self.cols.retain(|&c| c != primary);
        self.cols.insert(0, primary);
        self
    }

    /// An empty table, then `stored` appended row by row.
    fn table(&self) -> IndexedTable {
        let table = IndexedTable::with_indexes(
            chunk_schema(),
            self.cols[0],
            &self.cols[1..],
            self.config.clone(),
        )
        .expect("valid table");
        for row in &self.stored {
            table.append_row(row).expect("append_row");
        }
        table
    }

    fn chunk(&self) -> Chunk {
        Chunk::from_rows(&chunk_schema(), &self.chunk).expect("chunk")
    }

    /// Committed `(capacity, bytes)` of each batch, per partition.
    fn bytes(table: &IndexedTable) -> Vec<Batches> {
        table
            .snapshot()
            .partitions()
            .iter()
            .map(|p| {
                p.export_batches()
                    .into_iter()
                    .map(|(cap, bytes)| (cap, bytes.to_vec()))
                    .collect()
            })
            .collect()
    }
}

type Batches = Vec<(usize, Vec<u8>)>;

fn batch_count(bytes: &[Batches]) -> usize {
    bytes.iter().map(Vec::len).sum()
}

/// Every row a scan of `table` returns whose `seq` is above `after`, per
/// partition in the order its bytes lie.
fn stored_after(table: &IndexedTable, after: usize) -> Vec<Row> {
    partitions_after(table, after).concat()
}

/// [`stored_after`], one list per partition.
fn partitions_after(table: &IndexedTable, after: usize) -> Vec<Vec<Row>> {
    let mut partitions = Vec::new();
    for p in table.snapshot().partitions() {
        let mut rows = Vec::new();
        for chunk in p.scan_chunks(None, 64).expect("scan") {
            rows.extend(
                chunk
                    .to_rows()
                    .into_iter()
                    .filter(|r| r[3] > Value::Int64(after as i64)),
            );
        }
        partitions.push(rows);
    }
    partitions
}

#[test]
fn a_chunk_append_writes_what_row_appends_write() {
    let _serial = serial();
    for seed in seeds() {
        let primary = CHUNK_PRIMARIES[seed as usize % CHUNK_PRIMARIES.len()];
        let populated = ChunkCase::new(seed, 1 + seed as usize % 3).keyed_on(primary);
        // The same chunk into an empty table: every trie is built bottom-up.
        let empty = ChunkCase {
            stored: Vec::new(),
            cols: populated.cols.clone(),
            config: populated.config.clone(),
            chunk: populated.chunk.clone(),
        };
        for case in [populated, empty] {
            let at = format!(
                "seed {seed}, indexes {:?}, {} rows before",
                case.cols,
                case.stored.len()
            );
            chunk_matches_rows(&case, &at);
        }
    }
}

fn chunk_matches_rows(case: &ChunkCase, at: &str) {
    let chunked = case.table();
    let batches_before = batch_count(&ChunkCase::bytes(&chunked));
    chunked.append_chunk(&case.chunk()).expect("append_chunk");
    let chunk_bytes = ChunkCase::bytes(&chunked);
    assert!(
        batch_count(&chunk_bytes) > batches_before,
        "{at}: the chunk crosses a batch rollover"
    );
    // Each partition holds its rows in (key, position in the chunk) order;
    // `seq` numbers the chunk's rows in order.
    let primary = case.cols[0];
    for rows in partitions_after(&chunked, case.stored.len()) {
        let order: Vec<(Value, Value)> = rows
            .iter()
            .map(|r| (r[primary].clone(), r[3].clone()))
            .collect();
        let mut want = order.clone();
        want.sort();
        assert_eq!(order, want, "{at}: a partition's rows in key order");
    }
    // The same rows, one at a time, in the order the chunk stored them.
    let in_order = stored_after(&chunked, case.stored.len());
    assert_eq!(
        sorted(in_order.clone()),
        sorted(case.chunk.clone()),
        "{at}: the chunk's rows, each stored once"
    );
    let rowwise = case.table();
    for row in &in_order {
        rowwise.append_row(row).expect("append_row");
    }
    assert!(
        ChunkCase::bytes(&rowwise) == chunk_bytes,
        "{at}: committed bytes differ"
    );
    let all: Vec<&Row> = case.stored.iter().chain(&case.chunk).collect();
    for (ordinal, &c) in case.cols.iter().enumerate() {
        let (a, b) = (
            chunked.index(c).expect("index"),
            rowwise.index(c).expect("index"),
        );
        let mut keys: Vec<Value> = all.iter().map(|r| r[c].clone()).collect();
        keys.sort();
        keys.dedup();
        keys.push(Value::Int64(1_000));
        for key in &keys {
            let got = a.lookup_chunk(key, None).expect("lookup").to_rows();
            let want = b.lookup_chunk(key, None).expect("lookup").to_rows();
            assert_eq!(got, want, "{at}: index {ordinal} key {key:?}");
            let model = all
                .iter()
                .filter(|r| !key.is_null() && &r[c] == key)
                .count();
            assert_eq!(got.len(), model, "{at}: index {ordinal} key {key:?}");
        }
        assert_eq!(
            key_counts(&a, ordinal),
            key_counts(&b, ordinal),
            "{at}: index {ordinal} key counts"
        );
    }
}

/// Each partition's key count of index `ordinal`.
fn key_counts(table: &IndexedTable, ordinal: usize) -> Vec<usize> {
    (0..table.num_partitions())
        .map(|p| table.partition(p).key_count(ordinal))
        .collect()
}

#[test]
fn a_mistyped_chunk_changes_nothing() {
    let _serial = serial();
    let case = ChunkCase::new(3, 2).keyed_on(0);
    let table = case.table();
    table.append_chunk(&case.chunk()).expect("append_chunk");
    let state = |t: &IndexedTable| {
        let lookups: Vec<Vec<Row>> = (0..9i64)
            .map(|k| {
                let key = Value::Int64(k);
                t.lookup_chunk(&key, None).expect("lookup").to_rows()
            })
            .collect();
        let counts: Vec<Vec<usize>> = (0..case.cols.len()).map(|i| key_counts(t, i)).collect();
        (t.row_count(), sorted(scan_all(t)), lookups, counts)
    };
    let before = state(&table);
    // `small` is Int32; an Int64 column with a value there does not fit.
    let good = case.chunk();
    let mut columns = good.columns().to_vec();
    let rows = good.len();
    columns[5] = Arc::new(Column::Int64(PrimVec::from_values(vec![7; rows])));
    let bad = Chunk::new(columns).expect("chunk");
    let err = table.append_chunk(&bad).unwrap_err();
    assert!(matches!(err, EngineError::Type(_)), "{err:?}");
    assert!(err.to_string().contains("small"), "{err}");
    assert!(state(&table) == before, "a failed chunk left a trace");
}

#[test]
fn a_chunk_routes_every_row_to_its_key_partition() {
    let _serial = serial();
    let mut rng = StdRng::seed_from_u64(0x2077);
    let key = |data_type: DataType, i: i64| match data_type {
        DataType::Int32 => Value::Int32(i as i32),
        DataType::Timestamp => Value::Timestamp(i),
        DataType::Utf8 => Value::Utf8(format!("key-{i}")),
        _ => Value::Int64(i),
    };
    for data_type in [
        DataType::Int64,
        DataType::Int32,
        DataType::Timestamp,
        DataType::Utf8,
    ] {
        let schema = Arc::new(Schema::new(vec![
            Field::new("key", data_type),
            Field::new("seq", DataType::Int64),
        ]));
        let rows: Vec<Row> = (0..300i64)
            .map(|seq| {
                let k = rng.gen_range(-50..50i64);
                vec![or_null(&mut rng, key(data_type, k)), Value::Int64(seq)]
            })
            .collect();
        let config = IndexConfig {
            num_partitions: 3,
            ..Default::default()
        };
        let table = IndexedTable::new(Arc::clone(&schema), 0, config).expect("table");
        table
            .append_chunk(&Chunk::from_rows(&schema, &rows).expect("chunk"))
            .expect("append_chunk");
        let mut seen = 0;
        for (p, snap) in table.snapshot().partitions().iter().enumerate() {
            for chunk in snap.scan_chunks(None, 64).expect("scan") {
                for row in chunk.to_rows() {
                    assert_eq!(
                        table.partition_of(&row[0]),
                        p,
                        "{data_type}: key {:?} stored in partition {p}",
                        row[0]
                    );
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, rows.len(), "{data_type}: every row stored once");
    }
}

#[cfg(feature = "failpoints")]
#[test]
fn a_publish_fault_at_row_k_leaves_k_rows_indexed() {
    use idf_fail::{FailConfig, FailGuard};
    let _serial = serial();
    for seed in seeds() {
        // One partition, so the chunk's publish is one call and row `k`
        // is the k-th row of the chunk in key order.
        let case = ChunkCase::new(seed, 1);
        let mut rng = StdRng::seed_from_u64(0xFA17 ^ seed);
        let k = rng.gen_range(0..case.chunk.len());
        for fault in [
            FailConfig::error("publish fault"),
            FailConfig::panic("publish fault"),
        ] {
            let at = format!("seed {seed}, indexes {:?}, {fault:?} at row {k}", case.cols);
            let table = case.table();
            let err = {
                // The first hit is the chunk's commit point, then one per row.
                let _fault = FailGuard::new(
                    idf_core::failpoints::APPEND_PUBLISH,
                    fault.skip(1 + k as u64).times(1),
                );
                table.append_chunk(&case.chunk()).unwrap_err()
            };
            assert!(err.to_string().contains("publish fault"), "{at}: {err}");
            let mut order: Vec<(Value, usize)> = case
                .chunk
                .iter()
                .enumerate()
                .map(|(i, r)| (r[0].clone(), i))
                .collect();
            order.sort();
            let written: Vec<Row> = order[..k]
                .iter()
                .map(|(_, i)| case.chunk[*i].clone())
                .collect();
            assert_eq!(
                stored_after(&table, case.stored.len()),
                written,
                "{at}: exactly the first k rows are scan-visible"
            );
            let model: Vec<&Row> = case.stored.iter().chain(&written).collect();
            for (ordinal, &c) in case.cols.iter().enumerate() {
                let handle = table.index(c).expect("index");
                for row in &case.chunk {
                    let key = &row[c];
                    if key.is_null() {
                        continue;
                    }
                    let got = handle.lookup_chunk(key, None).expect("lookup").to_rows();
                    let want: Vec<Row> = model
                        .iter()
                        .filter(|r| &r[c] == key)
                        .map(|r| (*r).clone())
                        .collect();
                    assert_eq!(
                        sorted(got),
                        sorted(want),
                        "{at}: index {ordinal} key {key:?}"
                    );
                }
            }
            assert_eq!(table.row_count(), case.stored.len() + k, "{at}: row count");
            // The partition takes appends again, and the rest of the chunk
            // lands on the prefix the fault left.
            let rest: Vec<Row> = order[k..]
                .iter()
                .map(|(_, i)| case.chunk[*i].clone())
                .collect();
            table
                .append_chunk(&Chunk::from_rows(&chunk_schema(), &rest).expect("chunk"))
                .expect("append after the fault");
            assert_eq!(
                sorted(stored_after(&table, case.stored.len())),
                sorted(case.chunk.clone()),
                "{at}: the whole chunk after a retry of the rest"
            );
        }
    }
}

/// Keys for a many-key walk of index column `c`: keys `rows` hold, some
/// of them twice, a key no row holds and a NULL, shuffled.
fn walk_keys(rng: &mut StdRng, rows: &[Row], c: usize) -> Vec<Value> {
    let mut keys: Vec<Value> = (0..rng.gen_range(1..12))
        .filter_map(|_| {
            let r = rows.get(rng.gen_range(0..rows.len().max(1)))?;
            Some(r[c].clone()).filter(|v| !v.is_null())
        })
        .collect();
    if let Some(again) = keys.first().cloned() {
        keys.push(again);
    }
    keys.push(match c {
        2 => Value::Utf8("miss".into()),
        _ => Value::Int64(1_000),
    });
    keys.push(Value::Null);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..=i));
    }
    keys
}

/// Each partition view of `view` answers a many-key lookup with exactly
/// the rows of one `lookup_payloads` walk per key, key by key in the
/// order given, each chain latest-first.
fn walks_match(at: &str, view: &TableSnapshot, keys: &[Value], projection: &[usize]) {
    for (p, part) in view.partitions().iter().enumerate() {
        let got = part
            .lookup_chunk_multi(keys, Some(projection))
            .unwrap_or_else(|e| panic!("{at}: partition {p}: {e}"));
        let mut payloads: Vec<&[u8]> = Vec::new();
        for key in keys {
            for payload in part.lookup_payloads(key) {
                payloads.push(payload.expect("chain row"));
            }
        }
        let want = RowLayout::new(schema())
            .decode_chunk(&payloads, projection)
            .expect("decode");
        assert_eq!(
            got.to_rows(),
            want.to_rows(),
            "{at}: partition {p}, keys {keys:?}"
        );
    }
}

/// A fresh row of [`schema`] with sequence number `seq`.
fn walk_row(rng: &mut StdRng, seq: i64) -> Row {
    vec![
        random_k(rng),
        random_a(rng),
        random_b(rng),
        Value::Int64(seq),
        random_f(rng),
    ]
}

/// The many-key walk (`lookup_chunk_multi`: walks in flight, rows put back
/// in key order) equals one per-key walk after another, row for row and in
/// order, through every index of seeded tables: the primary on an `Int64`
/// or a `Utf8` column, one or two more indexes, one to three partitions,
/// batches small enough that chains cross them. Checked after a chunk
/// load, after scattered single-row appends, on a view whose cursor trails
/// later appends, after DML (tombstones, and secondary chains with dead
/// rows), after a compaction and after DML on top of it.
#[test]
fn many_key_walks_equal_per_key_walks() {
    let _serial = serial();
    for seed in seeds() {
        let mut rng = StdRng::seed_from_u64(0x4545_0000 ^ seed);
        let primary = if seed % 2 == 0 { 0 } else { 2 };
        let mut secondaries: Vec<usize> = [0usize, 1, 2]
            .into_iter()
            .filter(|&c| c != primary && rng.gen_range(0..3) != 0)
            .collect();
        if secondaries.is_empty() {
            secondaries.push(1);
        }
        let config = IndexConfig {
            num_partitions: rng.gen_range(1..4usize),
            batch_size: rng.gen_range(512..2048usize),
            max_row_size: 200,
            ..Default::default()
        };
        let table = IndexedTable::with_indexes(schema(), primary, &secondaries, config)
            .expect("valid table");
        let cols: Vec<usize> = table.index_cols().to_vec();
        let mut seq = 0;
        let mut next_row = |rng: &mut StdRng| {
            seq += 1;
            walk_row(rng, seq)
        };
        let at = |step: &str| format!("seed {seed}, indexes {cols:?}, {step}");
        let check = |rng: &mut StdRng, step: &str, views: &[TableSnapshot]| {
            let rows = scan_all(&table);
            for (view, &c) in views.iter().zip(&cols) {
                let keys = walk_keys(rng, &rows, c);
                walks_match(&at(step), view, &keys, &[0, 1, 2, 3, 4]);
                walks_match(&at(step), view, &keys, &[3]);
            }
        };
        let views = |table: &IndexedTable| -> Vec<TableSnapshot> {
            cols.iter()
                .map(|&c| table.index(c).expect("index").snapshot())
                .collect()
        };

        let load: Vec<Row> = (0..rng.gen_range(40..160))
            .map(|_| next_row(&mut rng))
            .collect();
        let chunk = Chunk::from_rows(&schema(), &load).expect("chunk");
        table.append_chunk(&chunk).expect("append_chunk");
        check(&mut rng, "chunk load", &views(&table));

        for _ in 0..rng.gen_range(30..90) {
            table.append_row(&next_row(&mut rng)).expect("append_row");
        }
        check(&mut rng, "scattered appends", &views(&table));

        let trailing = views(&table);
        for _ in 0..rng.gen_range(10..40) {
            table.append_row(&next_row(&mut rng)).expect("append_row");
        }
        check(&mut rng, "a view that trails appends", &trailing);

        let dml = |rng: &mut StdRng, seq: &mut i64| {
            let rows: Vec<Row> = scan_all(&table)
                .into_iter()
                .filter(|r| !r[primary].is_null())
                .collect();
            let mut named: Vec<Row> = (0..rng.gen_range(1..8))
                .filter_map(|_| rows.get(rng.gen_range(0..rows.len().max(1))).cloned())
                .collect();
            named.sort();
            named.dedup();
            let (deletes, updates) = named.split_at(named.len() / 2);
            table.apply_dml(deletes, &[]).expect("delete");
            let images: Vec<Row> = updates
                .iter()
                .map(|r| {
                    *seq += 1;
                    let mut image = r.clone();
                    image[1] = random_a(rng);
                    image[3] = Value::Int64(*seq);
                    image
                })
                .collect();
            table.apply_dml(updates, &images).expect("update");
        };
        dml(&mut rng, &mut 10_000);
        let dead = views(&table);
        assert!(table.memory_stats().tombstones > 0, "{}", at("after DML"));
        check(&mut rng, "DML", &dead);

        table.compact().expect("compact");
        check(&mut rng, "compaction", &views(&table));
        check(&mut rng, "a view from before the compaction", &dead);

        for _ in 0..rng.gen_range(5..30) {
            table.append_row(&next_row(&mut rng)).expect("append_row");
        }
        dml(&mut rng, &mut 20_000);
        check(&mut rng, "DML after compaction", &views(&table));
    }
}

/// A table keyed `(id, name)`, one row per id in `ids`.
fn dimension(ids: std::ops::Range<i64>) -> (SchemaRef, Vec<Row>) {
    let schema: SchemaRef = Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("name", DataType::Utf8),
    ]));
    let rows = ids
        .map(|i| vec![Value::Int64(i), Value::Utf8(format!("d{i}"))])
        .collect();
    (schema, rows)
}

/// The indexed join (one probe and walk per distinct key of a probe
/// chunk, its rows fanned out per probe row) returns what the vanilla
/// hash join returns, for probe sides whose keys repeat, with NULL and
/// missing keys: partitioned and broadcast, through the primary index and
/// a secondary one, in both directions of a foreign key — the index on
/// the many side probed by the one side (long chains, distinct probe
/// keys) and the index on the one side probed by the many side (short
/// chains, each key probed by many rows).
#[test]
fn indexed_joins_equal_vanilla_on_repeated_keys() {
    let _serial = serial();
    for seed in seeds() {
        let mut rng = StdRng::seed_from_u64(0x4546_0000 ^ seed);
        let partitions = rng.gen_range(1..4usize);
        let config = IndexConfig {
            num_partitions: partitions,
            batch_size: 1024,
            max_row_size: 200,
            ..Default::default()
        };
        // `t` is the many side: `k` (and `a`) reference `d.id`.
        let t = Arc::new(
            IndexedTable::with_indexes(schema(), 0, &[1], config.clone()).expect("valid table"),
        );
        let load: Vec<Row> = (0..rng.gen_range(60..200))
            .map(|seq| walk_row(&mut rng, seq))
            .collect();
        t.append_chunk(&Chunk::from_rows(&schema(), &load).expect("chunk"))
            .expect("append_chunk");
        for seq in 1_000..1_000 + rng.gen_range(20..60) {
            t.append_row(&walk_row(&mut rng, seq)).expect("append_row");
        }
        let gone: Vec<Row> = scan_all(&t)
            .into_iter()
            .filter(|r| !r[0].is_null())
            .take(rng.gen_range(1..6))
            .collect();
        t.apply_dml(&gone, &[]).expect("delete");
        // Every `k` but 0 and every `a` but 0 has its `d` row; ids 9..12
        // are referenced by no `k`, ids 5..12 by no `a`.
        let (d_schema, d_rows) = dimension(1..12);
        let d = Arc::new(IndexedTable::new(Arc::clone(&d_schema), 0, config).expect("valid table"));
        d.append_chunk(&Chunk::from_rows(&d_schema, &d_rows).expect("chunk"))
            .expect("append_chunk");
        let t_rows = scan_all(&t);
        for (threshold, mode) in [(0, "Partitioned"), (usize::MAX, "Broadcast")] {
            let session = Session::with_config(EngineConfig {
                broadcast_threshold_rows: threshold,
                ..EngineConfig::default()
            });
            let t_frame = IndexedDataFrame::from_table(session.clone(), Arc::clone(&t));
            t_frame.register("t");
            t_frame.index("a").expect("index").register("t_by_a");
            IndexedDataFrame::from_table(session.clone(), Arc::clone(&d)).register("d");
            let plain = |name: &str, schema: &SchemaRef, rows: &[Row]| {
                let chunk = Chunk::from_rows(schema, rows).expect("chunk");
                let table = MemTable::from_chunk_partitioned(Arc::clone(schema), chunk, 2);
                session.register_table(name, Arc::new(table.expect("table")));
            };
            plain("t_plain", &schema(), &t_rows);
            plain("d_plain", &d_schema, &d_rows);
            for (sql, vanilla, secondary) in [
                // The many side's index, probed by the one side.
                (
                    "SELECT t.seq, t.b, d.name FROM t JOIN d_plain d ON t.k = d.id",
                    "SELECT t.seq, t.b, d.name FROM t_plain t JOIN d_plain d ON t.k = d.id",
                    false,
                ),
                (
                    "SELECT x.seq, x.k, d.name FROM t_by_a x JOIN d_plain d ON x.a = d.id",
                    "SELECT x.seq, x.k, d.name FROM t_plain x JOIN d_plain d ON x.a = d.id",
                    true,
                ),
                // The one side's index, probed by the many side.
                (
                    "SELECT d.name, t.seq, t.f FROM d JOIN t_plain t ON d.id = t.k",
                    "SELECT d.name, t.seq, t.f FROM d_plain d JOIN t_plain t ON d.id = t.k",
                    false,
                ),
                (
                    "SELECT d.name, x.seq FROM d JOIN t_plain x ON d.id = x.a",
                    "SELECT d.name, x.seq FROM d_plain d JOIN t_plain x ON d.id = x.a",
                    false,
                ),
            ] {
                let at = format!("seed {seed}, {partitions} partitions, {mode}: {sql}");
                let df = session.sql(sql).unwrap_or_else(|e| panic!("{at}: {e}"));
                let plan = df.explain().expect("explain");
                let want_mode = if secondary { "Broadcast" } else { mode };
                assert!(
                    plan.contains("IndexedJoin") && plan.contains(&format!("probe {want_mode}")),
                    "{at}:\n{plan}"
                );
                let got = df.collect().unwrap_or_else(|e| panic!("{at}: {e}"));
                let want = session
                    .sql(vanilla)
                    .and_then(|df| df.collect())
                    .unwrap_or_else(|e| panic!("{at}: {vanilla}: {e}"));
                assert!(!want.is_empty(), "{at}: no rows to compare");
                assert_eq!(sorted(got.to_rows()), sorted(want.to_rows()), "{at}");
            }
        }
    }
}
