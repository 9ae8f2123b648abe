//! End-to-end tests for the compaction subsystem: the SQL `COMPACT`
//! manual trigger, the policy-driven background worker, and (under the
//! `failpoints` feature) fault injection at every registered site with
//! answer-invariance audits after each failure.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use idf_compact::{install, CompactConfig, Compactor};
use idf_core::prelude::*;
use idf_core::source::IndexedSource;
use idf_core::table::IndexedTable;
use idf_engine::chunk::Chunk;
use idf_engine::session::Session;
use idf_engine::types::Value;

/// The obs registry and the failpoint registry are process-global;
/// every test here serializes on this lock (poison tolerated so one
/// failure doesn't cascade).
static SUITE_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    #[cfg(feature = "failpoints")]
    idf_fail::reset();
    SUITE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn setup() -> (Session, Arc<Compactor>) {
    let session = Session::new();
    install_indexed_ddl(&session, IndexConfig::default());
    let compactor = install(&session, CompactConfig::default());
    (session, compactor)
}

fn sql(session: &Session, query: &str) -> Chunk {
    session
        .sql(query)
        .unwrap_or_else(|e| panic!("{query}: {e}"))
        .collect()
        .unwrap_or_else(|e| panic!("{query}: {e}"))
}

fn rows_of(chunk: &Chunk) -> Vec<Vec<Value>> {
    let mut rows = chunk.to_rows();
    rows.sort();
    rows
}

/// The registered `IndexedTable` behind a DDL-created table, resolved
/// the same way the compactor's catalog discovery does.
fn table_handle(session: &Session, name: &str) -> Arc<IndexedTable> {
    let source = session.catalog().get(name).expect("table registered");
    let indexed = source
        .as_any()
        .downcast_ref::<IndexedSource>()
        .expect("indexed source");
    Arc::clone(indexed.table())
}

/// CREATE `name` and load `keys` rows of (k, v = k * 10).
fn seed_table(session: &Session, name: &str, keys: i64) {
    sql(
        session,
        &format!("CREATE TABLE {name} (k BIGINT, v BIGINT)"),
    );
    let values: Vec<String> = (0..keys).map(|k| format!("({k}, {})", k * 10)).collect();
    sql(
        session,
        &format!("INSERT INTO {name} VALUES {}", values.join(", ")),
    );
}

#[test]
fn sql_compact_reclaims_superseded_versions_and_preserves_answers() {
    let _guard = serial();
    let (session, _compactor) = setup();
    seed_table(&session, "t", 64);

    // Two update waves over half the keys plus a few deletes: every
    // superseded image and every row under a tombstone is dead weight.
    sql(&session, "UPDATE t SET v = v + 1000 WHERE k < 32");
    sql(&session, "UPDATE t SET v = v + 1000 WHERE k < 32");
    sql(&session, "DELETE FROM t WHERE k >= 60");

    let table = table_handle(&session, "t");
    let before = table.memory_stats();
    assert!(before.dead_rows > 0, "updates must strand dead versions");
    assert!(before.tombstones > 0, "deletes must leave tombstones");

    let answer_before = rows_of(&sql(&session, "SELECT k, v FROM t"));
    assert_eq!(answer_before.len(), 60);

    let report = rows_of(&sql(&session, "COMPACT t"));
    assert_eq!(report.len(), 1);
    assert_eq!(report[0][0], Value::Utf8("t".to_string()));
    let Value::Int64(rows_reclaimed) = report[0][1] else {
        panic!("rows_reclaimed must be an integer: {:?}", report[0][1]);
    };
    assert!(rows_reclaimed > 0, "rewrite must reclaim dead versions");

    let after = table.memory_stats();
    assert_eq!(after.dead_rows, 0, "no dead versions survive a rewrite");
    assert!(
        after.rows < before.rows,
        "stored rows must shrink ({} -> {})",
        before.rows,
        after.rows
    );
    // Fully deleted keys keep exactly one tombstone sentinel each.
    assert_eq!(after.tombstones, 4);

    let answer_after = rows_of(&sql(&session, "SELECT k, v FROM t"));
    assert_eq!(
        answer_before, answer_after,
        "COMPACT must not change answers"
    );
}

#[test]
fn background_worker_reclaims_once_policy_thresholds_cross() {
    let _guard = serial();
    let session = Session::new();
    install_indexed_ddl(&session, IndexConfig::default());
    let compactor = install(
        &session,
        CompactConfig {
            interval: Duration::from_millis(5),
            min_dead_rows: 8,
            min_dead_ratio: 0.1,
            ..CompactConfig::default()
        },
    );
    seed_table(&session, "bg", 32);
    sql(&session, "UPDATE bg SET v = v + 1");
    sql(&session, "UPDATE bg SET v = v + 1");

    let table = table_handle(&session, "bg");
    assert!(table.memory_stats().dead_rows >= 32);
    let answer_before = rows_of(&sql(&session, "SELECT k, v FROM bg"));

    compactor.register("bg", Arc::clone(&table));
    assert_eq!(compactor.registered(), ["bg"]);
    compactor.start();
    compactor.start(); // idempotent while running

    // The worker counts a cycle only after its rewrite returns, so the
    // dead rows can read zero while the first cycle is still uncounted.
    let deadline = Instant::now() + Duration::from_secs(10);
    while table.memory_stats().dead_rows > 0 || compactor.cycles() == 0 {
        assert!(
            Instant::now() < deadline,
            "worker never reclaimed: {:?}, {} cycles",
            table.memory_stats(),
            compactor.cycles()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    compactor.stop();
    compactor.stop(); // idempotent after a stop

    assert_eq!(
        answer_before,
        rows_of(&sql(&session, "SELECT k, v FROM bg")),
        "background compaction must not change answers"
    );
    // Stopped workers make no further progress.
    let frozen = compactor.cycles();
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(compactor.cycles(), frozen);

    compactor.deregister("bg");
    assert!(compactor.registered().is_empty());
}

#[test]
fn background_policy_skips_tables_below_thresholds() {
    let _guard = serial();
    let session = Session::new();
    install_indexed_ddl(&session, IndexConfig::default());
    idf_obs::global().chain_walk.reset();
    let compactor = install(
        &session,
        CompactConfig {
            min_dead_rows: 1_000_000,
            chain_walk_p99_trigger: u64::MAX,
            ..CompactConfig::default()
        },
    );
    seed_table(&session, "cold", 16);
    sql(&session, "UPDATE cold SET v = v + 1");

    let table = table_handle(&session, "cold");
    let before = table.memory_stats();
    assert!(before.dead_rows > 0);

    compactor.register("cold", Arc::clone(&table));
    let report = compactor.run_once().expect("survey must succeed");
    assert!(report.is_empty(), "below-threshold table must be skipped");
    assert_eq!(
        table.memory_stats().dead_rows,
        before.dead_rows,
        "a skipped table must not be rewritten"
    );

    // A table with nothing stored is never eligible either.
    sql(&session, "CREATE TABLE empty (k BIGINT, v BIGINT)");
    compactor.register("empty", table_handle(&session, "empty"));
    assert!(compactor.run_once().expect("survey").is_empty());
}

#[test]
fn compact_unknown_table_is_a_typed_error() {
    let _guard = serial();
    let (session, _compactor) = setup();
    seed_table(&session, "known", 4);

    let err = session
        .sql("COMPACT no_such_table")
        .err()
        .expect("COMPACT of an unknown table must fail")
        .to_string();
    assert!(
        err.contains("no_such_table"),
        "error must name the table: {err}"
    );

    // The named form still works for registered-but-uncataloged handles.
    let (other, compactor) = setup();
    seed_table(&other, "side", 4);
    sql(&other, "UPDATE side SET v = v + 1");
    let side = table_handle(&other, "side");
    other.drop_table("side").expect("drop");
    compactor.register("side", Arc::clone(&side));
    let report = rows_of(&sql(&other, "COMPACT side"));
    assert_eq!(report.len(), 1);
    assert_eq!(side.memory_stats().dead_rows, 0);
}

#[test]
fn compact_all_walks_every_catalog_table() {
    let _guard = serial();
    let (session, _compactor) = setup();
    seed_table(&session, "a", 8);
    seed_table(&session, "b", 8);
    sql(&session, "UPDATE a SET v = v + 1");
    sql(&session, "UPDATE b SET v = v + 1");

    let report = rows_of(&sql(&session, "COMPACT"));
    let tables: Vec<&Value> = report.iter().map(|r| &r[0]).collect();
    assert_eq!(
        tables,
        [&Value::Utf8("a".to_string()), &Value::Utf8("b".to_string())]
    );
    assert_eq!(table_handle(&session, "a").memory_stats().dead_rows, 0);
    assert_eq!(table_handle(&session, "b").memory_stats().dead_rows, 0);
}

#[cfg(feature = "failpoints")]
mod chaos {
    use super::*;
    use idf_compact::failpoints as fp;
    use idf_fail::{FailConfig, FailGuard};

    #[test]
    fn registered_sites_cover_select_rewrite_swap() {
        let names: Vec<&str> = fp::SITES.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "idf_compact::failpoints::COMPACT_SELECT",
                "idf_compact::failpoints::COMPACT_REWRITE",
                "idf_compact::failpoints::COMPACT_SWAP"
            ]
        );
    }

    /// A compaction writes its rewrite through the append protocol's write
    /// and link steps, but it is not an append: it crosses neither append
    /// failpoint, and the append counters do not move.
    #[test]
    fn compact_is_not_an_append() {
        let _guard = serial();
        let (session, _compactor) = setup();
        seed_table(&session, "t", 32);
        sql(&session, "UPDATE t SET v = v + 1");
        let table = table_handle(&session, "t");
        assert!(table.memory_stats().dead_rows > 0);
        let answer = rows_of(&sql(&session, "SELECT k, v FROM t"));
        let m = idf_obs::global();
        let counted = || (m.append_rows.get(), m.append_bytes.get());
        let before = counted();
        {
            let _encode = FailGuard::new(
                idf_core::failpoints::APPEND_ENCODE,
                FailConfig::error("append encode"),
            );
            let _publish = FailGuard::new(
                idf_core::failpoints::APPEND_PUBLISH,
                FailConfig::error("append publish"),
            );
            sql(&session, "COMPACT t");
        }
        assert_eq!(counted(), before, "COMPACT counted as an append");
        assert_eq!(table.memory_stats().dead_rows, 0);
        assert_eq!(answer, rows_of(&sql(&session, "SELECT k, v FROM t")));
        // The counters are live: an append moves them.
        sql(&session, "INSERT INTO t VALUES (1000, 1)");
        assert_eq!(counted() != before, idf_obs::enabled());
    }

    /// A fault at any compaction site fails the statement, changes no
    /// answers, and a clean retry reclaims everything.
    #[test]
    fn faults_abort_cleanly_and_retry_succeeds() {
        let _guard = serial();
        for site in [fp::COMPACT_REWRITE, fp::COMPACT_SWAP] {
            let (session, _compactor) = setup();
            seed_table(&session, "t", 32);
            sql(&session, "UPDATE t SET v = v + 1");
            let table = table_handle(&session, "t");
            let dead_before = table.memory_stats().dead_rows;
            assert!(dead_before > 0);
            let answer = rows_of(&sql(&session, "SELECT k, v FROM t"));

            {
                let _fault = FailGuard::new(site, FailConfig::error("injected"));
                let err = session
                    .sql("COMPACT t")
                    .err()
                    .unwrap_or_else(|| panic!("{site}: fault must fail COMPACT"))
                    .to_string();
                assert!(err.contains("injected"), "{site}: {err}");
            }
            assert_eq!(
                table.memory_stats().dead_rows,
                dead_before,
                "{site}: aborted rewrite must leave state unchanged"
            );
            assert_eq!(
                answer,
                rows_of(&sql(&session, "SELECT k, v FROM t")),
                "{site}: aborted rewrite must not change answers"
            );

            // Clean retry reclaims everything the fault blocked.
            let report = rows_of(&sql(&session, "COMPACT t"));
            assert_eq!(report.len(), 1, "{site}: retry must succeed");
            assert_eq!(table.memory_stats().dead_rows, 0);
            assert_eq!(answer, rows_of(&sql(&session, "SELECT k, v FROM t")));
        }
    }

    /// The background worker survives injected faults: failed cycles are
    /// counted, and once the fault clears it reclaims as usual.
    #[test]
    fn background_worker_outlives_injected_faults() {
        let _guard = serial();
        let session = Session::new();
        install_indexed_ddl(&session, IndexConfig::default());
        let compactor = install(
            &session,
            CompactConfig {
                interval: Duration::from_millis(5),
                min_dead_rows: 8,
                min_dead_ratio: 0.1,
                ..CompactConfig::default()
            },
        );
        seed_table(&session, "t", 32);
        sql(&session, "UPDATE t SET v = v + 1");
        let table = table_handle(&session, "t");
        compactor.register("t", Arc::clone(&table));

        let failures_before = idf_obs::global().compaction_failures.get();
        idf_fail::configure(fp::COMPACT_SELECT, FailConfig::error("injected").times(3));
        compactor.start();

        let deadline = Instant::now() + Duration::from_secs(10);
        while table.memory_stats().dead_rows > 0 {
            assert!(
                Instant::now() < deadline,
                "worker never recovered from faults"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        compactor.stop();
        idf_fail::reset();

        assert!(
            idf_obs::global().compaction_failures.get() >= failures_before + 3,
            "each injected fault must be counted"
        );
    }

    /// Regression: nothing contained a panic inside a cycle, so it killed
    /// the worker thread while `running` stayed set — `cycles()` froze and
    /// `start()` could never revive the compactor. A panicking cycle is
    /// now a failed cycle: counted, and the loop goes on.
    #[test]
    fn background_worker_outlives_a_panicking_cycle() {
        let _guard = serial();
        let session = Session::new();
        install_indexed_ddl(&session, IndexConfig::default());
        let compactor = install(
            &session,
            CompactConfig {
                interval: Duration::from_millis(5),
                min_dead_rows: 8,
                min_dead_ratio: 0.1,
                ..CompactConfig::default()
            },
        );
        seed_table(&session, "t", 32);
        sql(&session, "UPDATE t SET v = v + 1");
        let table = table_handle(&session, "t");
        compactor.register("t", Arc::clone(&table));

        let failures_before = idf_obs::global().compaction_failures.get();
        idf_fail::configure(fp::COMPACT_REWRITE, FailConfig::panic("injected").times(2));
        compactor.start();

        let deadline = Instant::now() + Duration::from_secs(10);
        while table.memory_stats().dead_rows > 0 {
            assert!(
                Instant::now() < deadline,
                "worker died with the panic: {} cycles, {:?}",
                compactor.cycles(),
                table.memory_stats()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        compactor.stop();
        idf_fail::reset();

        assert!(
            compactor.cycles() >= 3,
            "two panicking cycles, then the one that reclaimed"
        );
        if idf_obs::enabled() {
            assert!(
                idf_obs::global().compaction_failures.get() >= failures_before + 2,
                "each panicking cycle must be counted"
            );
        }
    }

    /// `run_once` surfaces a select-site fault as a typed error without
    /// touching any table.
    #[test]
    fn select_fault_fails_survey_without_rewriting() {
        let _guard = serial();
        let (session, compactor) = setup();
        seed_table(&session, "t", 16);
        sql(&session, "UPDATE t SET v = v + 1");
        let table = table_handle(&session, "t");
        let dead_before = table.memory_stats().dead_rows;
        compactor.register("t", Arc::clone(&table));

        let _fault = FailGuard::new(fp::COMPACT_SELECT, FailConfig::error("injected"));
        let err = compactor
            .run_once()
            .expect_err("select fault must fail the survey")
            .to_string();
        assert!(err.contains("injected"), "{err}");
        assert_eq!(table.memory_stats().dead_rows, dead_before);
    }
}
