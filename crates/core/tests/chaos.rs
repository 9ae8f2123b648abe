//! Deterministic chaos suite: faults injected at every registered
//! storage-layer site while lookups race appends, asserting the PR-1
//! snapshot-consistency invariants the whole time — no abort, no poisoned
//! lock, per-partition-consistent chains, and a failed append never
//! partially visible.
//!
//! Rounds are capped so the suite rides in tier-1 `cargo test`; set
//! `IDF_CHAOS_ROUNDS` to run longer locally (see EXPERIMENTS.md).

#![cfg(feature = "failpoints")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use idf_core::config::IndexConfig;
use idf_core::failpoints as fp;
use idf_core::table::IndexedTable;
use idf_engine::chunk::Chunk;
use idf_engine::schema::{Field, Schema, SchemaRef};
use idf_engine::types::{DataType, Value};
use idf_fail::{FailConfig, FailGuard};

/// The failpoint registry is process-global; every test here serializes
/// on this lock (poison tolerated so one failure doesn't cascade).
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn rounds() -> usize {
    std::env::var("IDF_CHAOS_ROUNDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

fn schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]))
}

fn table() -> Arc<IndexedTable> {
    Arc::new(
        IndexedTable::new(
            schema(),
            0,
            IndexConfig {
                num_partitions: 4,
                ..Default::default()
            },
        )
        .unwrap(),
    )
}

fn chunk(rows: impl Iterator<Item = (i64, i64)>) -> Chunk {
    let rows: Vec<Vec<Value>> = rows
        .map(|(k, v)| vec![Value::Int64(k), Value::Int64(v)])
        .collect();
    Chunk::from_rows(&schema(), &rows).unwrap()
}

/// An operation outcome under chaos: success, a tolerated injected
/// failure, or an intolerable error (which fails the test).
fn tolerated(result: Result<(), String>) -> bool {
    match result {
        Ok(()) => true,
        Err(msg) => {
            assert!(
                msg.contains("injected") || msg.contains("panicked") || msg.contains("failpoint"),
                "non-injected failure under chaos: {msg}"
            );
            false
        }
    }
}

/// Run `f`, flattening engine errors and panics into a message.
fn run_op(f: impl FnOnce() -> idf_engine::error::Result<()>) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(idf_engine::error::panic_message(payload.as_ref())),
    }
}

/// Full integrity audit with all faults cleared: every key's chain is
/// latest-first and contiguous (values `len-1 … 0`), and the total row
/// count matches the per-key success counters.
fn audit(table: &IndexedTable, expected: &[u64]) {
    assert!(
        fp::SITES.iter().all(|&s| idf_fail::hit_count(s).is_none()),
        "sanity: every fault cleared before the audit"
    );
    let snap = table.snapshot();
    let mut total = 0usize;
    for (k, &succ) in expected.iter().enumerate() {
        let c = snap.lookup_chunk(&Value::Int64(k as i64), None).unwrap();
        assert_eq!(c.len() as u64, succ, "key {k} chain length");
        for r in 0..c.len() {
            assert_eq!(
                c.value_at(1, r),
                Value::Int64(c.len() as i64 - 1 - r as i64),
                "key {k} chain must be latest-first and contiguous"
            );
        }
        total += c.len();
    }
    assert_eq!(table.row_count(), total);
    // No poisoned state: the table still accepts appends and answers.
    table
        .append_row(&[Value::Int64(0), Value::Int64(expected[0] as i64)])
        .unwrap();
    assert_eq!(
        snap.lookup_chunk(&Value::Int64(0), None).unwrap().len() + 1,
        table
            .snapshot()
            .lookup_chunk(&Value::Int64(0), None)
            .unwrap()
            .len()
    );
}

#[test]
fn fault_at_every_site_is_survivable() {
    let _s = serial();
    idf_fail::reset();
    for &site in fp::SITES {
        for config in [
            FailConfig::error("chaos io error"),
            FailConfig::panic("chaos crash"),
            FailConfig::delay(1).times(8),
        ] {
            let t = table();
            t.append_chunk(&chunk((0..64).map(|i| (i % 8, i / 8))))
                .unwrap();
            let is_delay = matches!(&config, c if format!("{c:?}").contains("Delay"));
            let guard = FailGuard::new(site, config);
            // Mixed workload under the fault: every op either succeeds or
            // reports the injection — never aborts, never corrupts.
            let keys: Vec<Value> = (0..8).map(Value::Int64).collect();
            let ops: Vec<Result<(), String>> = vec![
                run_op(|| t.append_chunk(&chunk((0..8).map(|i| (i, 100))))),
                run_op(|| t.append_row(&[Value::Int64(3), Value::Int64(200)])),
                run_op(|| t.snapshot().lookup_batch(&keys, None).map(|_| ())),
                run_op(|| t.lookup_chunk(&Value::Int64(5), None).map(|_| ())),
            ];
            let successes = ops.into_iter().filter(|o| tolerated(o.clone())).count();
            if is_delay {
                assert_eq!(successes, 4, "delay must not fail ops at {site}");
            }
            assert!(
                idf_fail::hit_count(site).unwrap_or(0) > 0,
                "workload never reached site {site}"
            );
            drop(guard);
            // With the fault cleared the table is fully consistent: every
            // chain intact, appends and lookups work.
            let snap = t.snapshot();
            for k in 0..8 {
                let c = snap.lookup_chunk(&Value::Int64(k), None).unwrap();
                assert!(!c.is_empty(), "seed rows for key {k} survived");
            }
            t.append_row(&[Value::Int64(7), Value::Int64(999)]).unwrap();
            assert!(t.snapshot().lookup_batch(&keys, None).unwrap().len() >= 64);
        }
    }
}

#[test]
fn failed_chunk_append_is_never_partially_visible() {
    let _s = serial();
    idf_fail::reset();
    // A fault at the publish commit point (or anywhere in encode) of a
    // cross-partition batch must leave the table exactly as it was.
    for config in [
        (
            fp::APPEND_PUBLISH,
            FailConfig::error("publish fault").times(1),
        ),
        (
            fp::APPEND_ENCODE,
            FailConfig::error("encode fault").times(1),
        ),
        (
            fp::APPEND_ENCODE,
            FailConfig::panic("encode crash").times(1),
        ),
    ] {
        let (site, cfg) = config;
        let t = table();
        t.append_chunk(&chunk((0..100).map(|i| (i % 10, i / 10))))
            .unwrap();
        let before = t.row_count();
        let batch = chunk((1000..1040).map(|i| (i, 0)));
        let err = {
            let _guard = FailGuard::new(site, cfg);
            t.append_chunk(&batch).unwrap_err()
        };
        let msg = err.to_string();
        assert!(
            msg.contains("injected") || msg.contains("panicked"),
            "site {site}: {msg}"
        );
        assert_eq!(t.row_count(), before, "site {site}: no partial publish");
        let snap = t.snapshot();
        for k in 1000..1040 {
            assert!(
                snap.lookup_chunk(&Value::Int64(k), None)
                    .unwrap()
                    .is_empty(),
                "site {site}: key {k} of the failed batch is visible"
            );
        }
        // The same batch goes through once the fault clears.
        t.append_chunk(&batch).unwrap();
        assert_eq!(t.row_count(), before + 40);
    }
}

/// Query-lifecycle metrics must stay internally consistent while faults
/// fire in the storage layer: every started query settles exactly once
/// (finished + cancelled + failed), and the in-flight gauge returns to
/// its baseline — no double counting, no leaks, whatever the failpoints
/// do to the queries themselves.
#[cfg(feature = "obs")]
#[test]
fn metrics_stay_consistent_under_chaos() {
    let _s = serial();
    idf_fail::reset();
    let m = idf_obs::global();
    let started0 = m.queries_started.get();
    let settled = |m: &idf_obs::MetricsRegistry| {
        m.queries_finished.get() + m.queries_cancelled.get() + m.queries_failed.get()
    };
    let settled0 = settled(m);
    let inflight0 = m.queries_in_flight.get();
    let cancelled0 = m.queries_cancelled.get();

    let session = idf_engine::prelude::Session::new();
    let t = table();
    t.append_chunk(&chunk((0..64).map(|i| (i % 8, i / 8))))
        .unwrap();
    let indexed = idf_core::api::IndexedDataFrame::from_table(session.clone(), Arc::clone(&t));
    indexed.register("chaos_t");
    let df = session.sql("SELECT v FROM chaos_t WHERE k = 3").unwrap();

    let mut rng = Lcg(0xC0FFEE);
    let n = rounds().max(8);
    for round in 0..n {
        let site = fp::SITES[(rng.next() as usize) % fp::SITES.len()];
        let cfg = match rng.next() % 2 {
            0 => FailConfig::error("chaos"),
            _ => FailConfig::panic("chaos"),
        };
        let guard = FailGuard::new(site, cfg.times(1 + rng.next() % 3));
        let q = session.new_query();
        if round % 3 == 0 {
            q.cancel();
        }
        // Outcome is irrelevant — only the accounting is under test.
        let _ = df.collect_ctx(&q);
        drop(guard);
    }
    idf_fail::reset();

    let started = m.queries_started.get() - started0;
    assert!(started >= n as u64, "every round issues at least one query");
    assert_eq!(
        started,
        settled(m) - settled0,
        "every started query must settle exactly once"
    );
    assert!(
        m.queries_cancelled.get() - cancelled0 >= (n as u64).div_ceil(3),
        "pre-cancelled rounds must be counted as cancelled"
    );
    assert_eq!(
        m.queries_in_flight.get(),
        inflight0,
        "in-flight gauge must return to baseline"
    );
}

/// Deterministic xorshift-style generator so every run of a seed is
/// identical.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 17
    }
}

#[test]
fn seeded_chaos_lookups_under_appends() {
    let _s = serial();
    idf_fail::reset();
    for seed in [0xDEAD_BEEFu64, 42, 0x1DF2_2024] {
        chaos_round(seed, rounds());
    }
}

fn chaos_round(seed: u64, rounds: usize) {
    const KEYS: usize = 8;
    let t = table();
    let stop = Arc::new(AtomicBool::new(false));
    // Per-key success counters: the writer appends value = #successes so
    // far, so a key's published chain is always exactly `0..succ`.
    let counters: Mutex<Vec<u64>> = Mutex::new(vec![0; KEYS]);
    let mut rng = Lcg(seed);

    std::thread::scope(|s| {
        let writer = {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            let counters = &counters;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for k in 0..KEYS {
                        let succ = { counters.lock().unwrap_or_else(PoisonError::into_inner)[k] };
                        let row = [Value::Int64(k as i64), Value::Int64(succ as i64)];
                        if tolerated(run_op(|| t.append_row(&row))) {
                            counters.lock().unwrap_or_else(PoisonError::into_inner)[k] += 1;
                        }
                    }
                }
            })
        };
        let reader = {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let keys: Vec<Value> = (0..KEYS as i64).map(Value::Int64).collect();
                while !stop.load(Ordering::Relaxed) {
                    let snap = t.snapshot();
                    // Batched probe: per-partition snapshot consistency.
                    let _ = run_op(|| snap.lookup_batch(&keys, None).map(|_| ()));
                    // Per-key chain contiguity on the same snapshot.
                    for k in &keys {
                        let result = catch_unwind(AssertUnwindSafe(|| snap.lookup_chunk(k, None)));
                        let Ok(Ok(c)) = result else {
                            continue; // injected failure — tolerated
                        };
                        if !c.is_empty() {
                            assert_eq!(
                                c.value_at(1, 0),
                                Value::Int64(c.len() as i64 - 1),
                                "chain head must be the latest append"
                            );
                            assert_eq!(c.value_at(1, c.len() - 1), Value::Int64(0));
                        }
                    }
                }
            })
        };
        // Chaos driver: flip a random fault on and off per round.
        for _ in 0..rounds {
            let site = fp::SITES[(rng.next() as usize) % fp::SITES.len()];
            let cfg = match rng.next() % 3 {
                0 => FailConfig::error("chaos"),
                1 => FailConfig::panic("chaos"),
                _ => FailConfig::delay(1),
            };
            let cfg = cfg.skip(rng.next() % 4).times(1 + rng.next() % 4);
            let guard = FailGuard::new(site, cfg);
            std::thread::sleep(Duration::from_millis(2));
            drop(guard);
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        reader.join().unwrap();
    });

    idf_fail::reset();
    let expected = counters
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    assert!(
        expected.iter().sum::<u64>() > 0,
        "seed {seed:#x}: writer made no progress"
    );
    audit(&t, &expected);
}

/// Compaction keeps one tombstone sentinel per fully deleted key. A scan
/// used to take "any tombstone stored" as its cue to walk every chain, so
/// one DELETE left a table on that path forever, compacted or not. The
/// scan is now one sequential walk whatever the table has seen: counted
/// here through `BATCH_READ`, which a chain walk hits once per batch it
/// enters and a scan once per batch walk it opens, so walking every chain
/// of this one-batch table would hit it once per key, not once.
#[test]
fn a_compacted_table_scans_sequentially_again() {
    let _serial = serial();
    let table = IndexedTable::new(
        schema(),
        0,
        IndexConfig {
            num_partitions: 1,
            ..Default::default()
        },
    )
    .unwrap();
    table
        .append_chunk(&chunk((0..40).map(|i| (i % 20, i))))
        .unwrap();
    table.append_row(&[Value::Null, Value::Int64(-1)]).unwrap();
    // Delete key 7 down to its last row, then compact.
    let victims: Vec<Vec<Value>> = table
        .snapshot()
        .lookup_chunk(&Value::Int64(7), None)
        .unwrap()
        .to_rows();
    assert_eq!(table.apply_dml(&victims, &[]).unwrap(), 2);
    table.compact().unwrap();
    let stats = table.memory_stats();
    assert_eq!((stats.tombstones, stats.dead_rows), (1, 0), "{stats:?}");

    // The oracle: every surviving key's chain decoded row by row, plus
    // the NULL-key row no chain holds.
    let snap = table.snapshot();
    let part = &snap.partitions()[0];
    let layout = idf_core::layout::RowLayout::new(part.schema().clone());
    let mut expected = vec![vec![Value::Null, Value::Int64(-1)]];
    for k in 0..20 {
        for payload in part.lookup_payloads(&Value::Int64(k)) {
            expected.push(layout.decode_row(payload.unwrap()).unwrap());
        }
    }
    assert_eq!(expected.len(), 39);
    let sorted = |mut rows: Vec<Vec<Value>>| {
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    };

    let reads = FailGuard::new(fp::BATCH_READ, FailConfig::delay(0));
    let scanned: Vec<Vec<Value>> = part
        .scan_chunks(None, 1024)
        .unwrap()
        .iter()
        .flat_map(Chunk::to_rows)
        .collect();
    assert_eq!(
        idf_fail::hit_count(reads.site()),
        Some(1),
        "one batch, one walk"
    );
    assert_eq!(part.row_count(), 39);
    assert_eq!(
        idf_fail::hit_count(reads.site()),
        Some(2),
        "row_count walks once more"
    );
    drop(reads);
    assert_eq!(sorted(scanned), sorted(expected));
}
