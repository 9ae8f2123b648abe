//! A concurrent history checker for one partition.
//!
//! One writer runs a seeded sequence of statements: a key's row deleted
//! and then inserted back, an update, multi-key DML, chunk appends and row
//! appends. A compactor swaps versions the whole time. Readers record
//! `(start, end, answer)` for point lookups, batched lookups, a scan count,
//! SQL `count(*)` with and without a key filter, and a checkpoint (the
//! export a durable checkpoint writes, restored into a fresh partition).
//!
//! Every answer must equal the answer of the state after some prefix of
//! the commit order, and that prefix must lie between the statements that
//! had finished when the read started and those that had begun when it
//! ended.
//!
//! Fixed seeds run by default. `IDF_HISTORY_SEEDS=<n>` runs seeds
//! `base..base + n` instead, with `base` from `IDF_HISTORY_SEED_BASE`
//! (default 0). A failure prints its seed and the history shrunk to the
//! first wrong read: the statements inside its window, and what each
//! prefix in the window would have answered.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use idf_core::batch::RowBatch;
use idf_core::partition::IndexedPartition;
use idf_core::prelude::*;
use idf_engine::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Keys of the table; each starts with `ROWS_PER_KEY` rows.
const KEYS: i64 = 6;
const ROWS_PER_KEY: i64 = 10;
/// Statements one seed's writer runs.
const STATEMENTS: usize = 600;
/// Readers beside the writer and the compactor.
const READERS: usize = 2;
/// Reads the readers make per statement at most, and (as the writer
/// waits for them) at least one.
const READS_PER_STATEMENT: usize = 4;

/// `(k, v)`: `v` names a row.
fn schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]))
}

/// A row as the model holds it: `(k, v)`.
type Row = (i64, i64);

fn row(k: i64, v: i64) -> Vec<Value> {
    vec![Value::Int64(k), Value::Int64(v)]
}

/// The rows of every key after some prefix of the statements: `v`s per
/// key, sorted.
type State = Vec<Vec<i64>>;

/// One write, committed as one step.
#[derive(Debug, Clone)]
enum Statement {
    /// `DELETE` of the listed rows and `INSERT` of the new ones, as one
    /// statement.
    Dml {
        deletes: Vec<Row>,
        inserts: Vec<Row>,
    },
    AppendChunk(Vec<Row>),
    AppendRow(i64, i64),
}

impl Statement {
    fn apply(&self, table: &IndexedTable) {
        let rows = |rs: &[Row]| rs.iter().map(|&(k, v)| row(k, v)).collect::<Vec<_>>();
        match self {
            Statement::Dml { deletes, inserts } => {
                let affected = table
                    .apply_dml(&rows(deletes), &rows(inserts))
                    .expect("dml");
                assert_eq!(affected, deletes.len(), "{self:?}");
            }
            Statement::AppendChunk(rs) => {
                let chunk = Chunk::from_rows(&schema(), &rows(rs)).expect("chunk");
                table.append_chunk(&chunk).expect("append_chunk");
            }
            Statement::AppendRow(k, v) => table.append_row(&row(*k, *v)).expect("append_row"),
        }
    }

    fn applied(&self, state: &State) -> State {
        let mut next = state.clone();
        let (deletes, inserts): (&[Row], Vec<Row>) = match self {
            Statement::Dml { deletes, inserts } => (deletes, inserts.clone()),
            Statement::AppendChunk(rs) => (&[], rs.clone()),
            Statement::AppendRow(k, v) => (&[], vec![(*k, *v)]),
        };
        for &(k, v) in deletes {
            next[k as usize].retain(|&x| x != v);
        }
        for (k, v) in inserts {
            next[k as usize].push(v);
            next[k as usize].sort_unstable();
        }
        next
    }
}

/// The seeded statements and the state after each prefix of them.
struct Script {
    statements: Vec<Statement>,
    /// `states[j]`: the state after the first `j` statements.
    states: Vec<State>,
}

impl Script {
    fn new(seed: u64) -> Script {
        let mut rng = StdRng::seed_from_u64(0x4157_0000 ^ seed);
        let initial: State = (0..KEYS)
            .map(|k| (0..ROWS_PER_KEY).map(|i| k * 1000 + i).collect())
            .collect();
        let mut next_v = 1_000_000i64;
        let mut fresh = |k: i64| {
            next_v += 1;
            (k, next_v)
        };
        let mut statements = Vec::new();
        let mut states = vec![initial];
        // A row deleted and waiting to be inserted back.
        let mut pending: Option<Row> = None;
        while statements.len() < STATEMENTS {
            let state = states.last().expect("initial state");
            // A stored row of a random key.
            let pick = |rng: &mut StdRng| -> Option<Row> {
                let k = rng.gen_range(0..KEYS);
                let vs = &state[k as usize];
                (!vs.is_empty()).then(|| (k, vs[rng.gen_range(0..vs.len())]))
            };
            let statement = if let Some((k, v)) = pending.take() {
                Statement::Dml {
                    deletes: vec![],
                    inserts: vec![(k, v)],
                }
            } else {
                match rng.gen_range(0..10) {
                    0..=3 => {
                        let Some(gone) = pick(&mut rng) else {
                            continue;
                        };
                        pending = Some(gone);
                        Statement::Dml {
                            deletes: vec![gone],
                            inserts: vec![],
                        }
                    }
                    4 => {
                        let Some(old) = pick(&mut rng) else {
                            continue;
                        };
                        Statement::Dml {
                            deletes: vec![old],
                            inserts: vec![fresh(old.0)],
                        }
                    }
                    5..=6 => {
                        let mut deletes: Vec<Row> = Vec::new();
                        for _ in 0..rng.gen_range(1..4) {
                            if let Some(d) = pick(&mut rng) {
                                if !deletes.contains(&d) {
                                    deletes.push(d);
                                }
                            }
                        }
                        let inserts = (0..rng.gen_range(1..4))
                            .map(|_| fresh(rng.gen_range(0..KEYS)))
                            .collect();
                        Statement::Dml { deletes, inserts }
                    }
                    7..=8 => Statement::AppendChunk(
                        (0..rng.gen_range(1..7))
                            .map(|_| fresh(rng.gen_range(0..KEYS)))
                            .collect(),
                    ),
                    _ => {
                        let (k, v) = fresh(rng.gen_range(0..KEYS));
                        Statement::AppendRow(k, v)
                    }
                }
            };
            states.push(statement.applied(state));
            statements.push(statement);
        }
        Script { statements, states }
    }
}

/// One read.
#[derive(Debug, Clone)]
enum Read {
    Lookup(i64),
    LookupBatch(Vec<i64>),
    ScanCount,
    SqlCount,
    SqlKeyCount(i64),
    Checkpoint,
}

/// What a read returned: `(k, v)` rows sorted, or a count.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Answer {
    Rows(Vec<Row>),
    Count(usize),
    /// A restored checkpoint whose index finds other rows than its scan:
    /// never a right answer.
    Unindexed {
        scanned: Vec<Row>,
        probed: Vec<Row>,
    },
}

impl Read {
    fn random(rng: &mut StdRng) -> Read {
        let key = |rng: &mut StdRng| rng.gen_range(0..KEYS);
        match rng.gen_range(0..12) {
            0..=2 => Read::Lookup(key(rng)),
            3..=4 => Read::LookupBatch((0..rng.gen_range(1..4)).map(|_| key(rng)).collect()),
            5..=6 => Read::ScanCount,
            7..=8 => Read::SqlCount,
            9..=10 => Read::SqlKeyCount(key(rng)),
            _ => Read::Checkpoint,
        }
    }

    fn run(&self, table: &IndexedTable, session: &Session) -> Answer {
        let sql_count = |sql: &str| {
            let chunk = session.sql(sql).and_then(|df| df.collect()).expect(sql);
            Answer::Count(chunk.value_at(0, 0).as_i64().expect("count") as usize)
        };
        match self {
            Read::Lookup(k) => Answer::Rows(rows_of(
                &table.lookup_chunk(&Value::Int64(*k), None).expect("lookup"),
            )),
            Read::LookupBatch(keys) => {
                let keys: Vec<Value> = keys.iter().map(|&k| Value::Int64(k)).collect();
                Answer::Rows(rows_of(
                    &table.lookup_chunk_batch(&keys, None).expect("lookup_batch"),
                ))
            }
            Read::ScanCount => Answer::Count(table.snapshot().row_count()),
            Read::SqlCount => sql_count("SELECT count(*) FROM t"),
            Read::SqlKeyCount(k) => sql_count(&format!("SELECT count(*) FROM t WHERE k = {k}")),
            Read::Checkpoint => {
                let view = table.partition(0).snapshot();
                let batches = view
                    .export_batches()
                    .into_iter()
                    .map(|(capacity, bytes)| {
                        Arc::new(RowBatch::from_committed_bytes(capacity, bytes).expect("batch"))
                    })
                    .collect();
                let restored = IndexedPartition::restore(
                    schema(),
                    0,
                    config(),
                    batches,
                    view.export_index().expect("export"),
                )
                .expect("restore");
                let view = restored.snapshot();
                let rows = rows_of(
                    &Chunk::concat(&view.scan_chunks(None, 64).expect("scan")).expect("concat"),
                );
                // The restored index must find exactly the restored rows.
                let mut probed: Vec<Row> = (0..KEYS)
                    .flat_map(|k| {
                        rows_of(&view.lookup_chunk(&Value::Int64(k), None).expect("probe"))
                    })
                    .collect();
                probed.sort_unstable();
                if probed != rows {
                    return Answer::Unindexed {
                        scanned: rows,
                        probed,
                    };
                }
                Answer::Rows(rows)
            }
        }
    }

    fn expected(&self, state: &State) -> Answer {
        let rows_of_keys = |keys: &mut dyn Iterator<Item = i64>| {
            let mut keys: Vec<i64> = keys.collect();
            keys.sort_unstable();
            keys.dedup();
            let mut rows: Vec<Row> = keys
                .into_iter()
                .flat_map(|k| state[k as usize].iter().map(move |&v| (k, v)))
                .collect();
            rows.sort_unstable();
            rows
        };
        match self {
            Read::Lookup(k) => Answer::Rows(rows_of_keys(&mut std::iter::once(*k))),
            Read::LookupBatch(keys) => Answer::Rows(rows_of_keys(&mut keys.iter().copied())),
            Read::ScanCount | Read::SqlCount => Answer::Count(state.iter().map(Vec::len).sum()),
            Read::SqlKeyCount(k) => Answer::Count(state[*k as usize].len()),
            Read::Checkpoint => Answer::Rows(rows_of_keys(&mut (0..KEYS))),
        }
    }
}

fn rows_of(chunk: &Chunk) -> Vec<Row> {
    let mut rows: Vec<Row> = (0..chunk.len())
        .map(|r| {
            let v = |c| chunk.value_at(c, r).as_i64().expect("int");
            (v(0), v(1))
        })
        .collect();
    rows.sort_unstable();
    rows
}

/// One partition, and batches small enough that the run rolls over often.
fn config() -> IndexConfig {
    IndexConfig {
        num_partitions: 1,
        batch_size: 1024,
        max_row_size: 200,
        ..Default::default()
    }
}

/// Stops the run when the thread holding it panics, so that the threads
/// waiting for it finish and the panic surfaces.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

/// A read whose answer matched no prefix of its window.
struct Wrong {
    read: Read,
    answer: Answer,
    /// Statements finished when it started, and begun when it ended.
    window: (usize, usize),
}

/// Run one seed; returns the reads made and the wrong ones.
fn run(seed: u64) -> (usize, Vec<Wrong>, Script) {
    let script = Script::new(seed);
    let initial: Vec<Vec<Value>> = script.states[0]
        .iter()
        .enumerate()
        .flat_map(|(k, vs)| vs.iter().map(move |&v| row(k as i64, v)))
        .collect();
    let table = Arc::new(
        IndexedTable::from_chunk(
            schema(),
            0,
            config(),
            &Chunk::from_rows(&schema(), &initial).expect("chunk"),
        )
        .expect("table"),
    );
    let session = Session::new();
    IndexedDataFrame::from_table(session.clone(), Arc::clone(&table)).register("t");
    let begun = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let reads = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let wrong = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let _stop = StopOnPanic(&stop);
            for (i, statement) in script.statements.iter().enumerate() {
                // Keep pace with the readers, so that reads and statements
                // interleave however fast either side runs.
                while reads.load(Ordering::SeqCst) < i {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::yield_now();
                }
                begun.store(i + 1, Ordering::SeqCst);
                statement.apply(&table);
                finished.store(i + 1, Ordering::SeqCst);
            }
            stop.store(true, Ordering::SeqCst);
        });
        let compactor = s.spawn(|| {
            let _stop = StopOnPanic(&stop);
            while !stop.load(Ordering::SeqCst) {
                table.compact().expect("compact");
                std::thread::yield_now();
            }
        });
        for r in 0..READERS {
            let (table, session, script) = (&table, &session, &script);
            let (begun, finished, reads, stop, wrong) = (&begun, &finished, &reads, &stop, &wrong);
            s.spawn(move || {
                let _stop = StopOnPanic(stop);
                let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31) + r as u64);
                while !stop.load(Ordering::SeqCst) {
                    // At most a few reads per statement, so that the
                    // statements set a run's length however much reads and
                    // writes slow each other down.
                    if reads.load(Ordering::SeqCst)
                        > READS_PER_STATEMENT * begun.load(Ordering::SeqCst)
                    {
                        std::thread::yield_now();
                        continue;
                    }
                    let read = Read::random(&mut rng);
                    let lo = finished.load(Ordering::SeqCst);
                    let answer = read.run(table, session);
                    let hi = begun.load(Ordering::SeqCst);
                    if !(lo..=hi).any(|j| read.expected(&script.states[j]) == answer) {
                        wrong.lock().expect("record").push(Wrong {
                            read,
                            answer,
                            window: (lo, hi),
                        });
                    }
                    reads.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        writer.join().expect("writer");
        compactor.join().expect("compactor");
    });
    let wrong = wrong.into_inner().expect("wrong reads");
    (reads.into_inner(), wrong, script)
}

/// The seed, the share of wrong reads, and the first one's window.
fn report(seed: u64, reads: usize, wrong: &[Wrong], script: &Script) -> String {
    let mut out = format!(
        "seed {seed}: {} of {reads} reads match no state of their window \
         (replay: IDF_HISTORY_SEEDS=1 IDF_HISTORY_SEED_BASE={seed})\n",
        wrong.len()
    );
    let Some(first) = wrong.first() else {
        return out;
    };
    let (lo, hi) = first.window;
    let _ = writeln!(out, "first wrong read: {:?}", first.read);
    let _ = writeln!(out, "  answered {:?}", first.answer);
    let _ = writeln!(
        out,
        "  after {lo} statements: {:?}",
        first.read.expected(&script.states[lo])
    );
    for j in lo..hi {
        let _ = writeln!(out, "  statement {j}: {:?}", script.statements[j]);
        let _ = writeln!(
            out,
            "  after {} statements: {:?}",
            j + 1,
            first.read.expected(&script.states[j + 1])
        );
    }
    out
}

fn seeds() -> std::ops::Range<u64> {
    let var = |name: &str| std::env::var(name).ok().and_then(|v| v.parse::<u64>().ok());
    match var("IDF_HISTORY_SEEDS") {
        Some(n) => {
            let base = var("IDF_HISTORY_SEED_BASE").unwrap_or(0);
            base..base + n
        }
        None => 0..4,
    }
}

#[test]
fn every_read_sees_a_prefix_of_the_commit_order() {
    let mut failures = String::new();
    for seed in seeds() {
        let (reads, wrong, script) = run(seed);
        assert!(reads >= STATEMENTS, "seed {seed}: only {reads} reads");
        if !wrong.is_empty() {
            failures.push_str(&report(seed, reads, &wrong, &script));
        }
    }
    assert!(failures.is_empty(), "{failures}");
}
