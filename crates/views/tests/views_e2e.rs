//! End-to-end materialized-view coverage through the SQL front end:
//! CREATE/DROP/REFRESH, incremental maintenance for all three view
//! classes (filter/project, aggregate, join), snapshot consistency under
//! concurrent appends, read-your-writes while another commit's delta is
//! applying, views over dropped and re-created tables, typed errors, and
//! planning through the normal physical layer (EXPLAIN).
//!
//! The core invariant asserted everywhere: a view's contents are
//! bit-for-bit equal to re-running its defining query at the same
//! snapshot.

use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use idf_core::prelude::*;
use idf_engine::chunk::Chunk;
use idf_engine::error::EngineError;
use idf_engine::session::Session;
use idf_engine::types::Value;
use idf_views::{install, ViewsConfig, ViewsSystem};

/// Failpoints are process-wide, so the one test here that arms a site
/// takes this lock alone, and every other test holds it shared: an armed
/// site meets only the apply it is aimed at.
static FAILPOINT: RwLock<()> = RwLock::new(());

fn views_session() -> (Session, Arc<ViewsSystem>) {
    let session = Session::new();
    install_indexed_ddl(&session, IndexConfig::default());
    let views = install(&session, ViewsConfig::default());
    (session, views)
}

/// A session with views, and a shared hold on [`FAILPOINT`] for the test.
fn setup() -> (Session, Arc<ViewsSystem>, RwLockReadGuard<'static, ()>) {
    let shared = FAILPOINT.read().unwrap_or_else(PoisonError::into_inner);
    let (session, views) = views_session();
    (session, views, shared)
}

fn sql(session: &Session, query: &str) -> Chunk {
    session
        .sql(query)
        .unwrap_or_else(|e| panic!("{query}: {e}"))
        .collect()
        .unwrap_or_else(|e| panic!("{query}: {e}"))
}

/// Run a statement that must fail at plan time and return the error.
fn sql_err(session: &Session, query: &str) -> EngineError {
    match session.sql(query) {
        Err(e) => e,
        Ok(_) => panic!("{query}: expected an error"),
    }
}

/// Sorted row multiset of a chunk, for order-insensitive equality.
fn rows_of(chunk: &Chunk) -> Vec<Vec<Value>> {
    let mut rows = chunk.to_rows();
    rows.sort();
    rows
}

/// The live table behind an indexed catalog entry.
fn indexed_table(session: &Session, name: &str) -> Arc<IndexedTable> {
    let source = session.catalog().get(name).unwrap();
    let indexed = source.as_any().downcast_ref::<IndexedSource>().unwrap();
    Arc::clone(indexed.table())
}

/// Assert `SELECT * FROM <view>` equals re-running the defining query.
fn assert_matches_query(session: &Session, view: &str, defining: &str) {
    let view_rows = rows_of(&sql(session, &format!("SELECT * FROM {view}")));
    let fresh_rows = rows_of(&sql(session, defining));
    assert_eq!(view_rows, fresh_rows, "view {view} diverged from its query");
}

#[test]
fn filter_project_view_maintains_incrementally() {
    let (session, _views, _fp) = setup();
    sql(&session, "CREATE TABLE t (k BIGINT, v BIGINT)");
    sql(&session, "INSERT INTO t VALUES (1, 5), (2, 50), (3, 7)");
    sql(
        &session,
        "CREATE MATERIALIZED VIEW big AS SELECT k, v FROM t WHERE v > 10",
    );
    let defining = "SELECT k, v FROM t WHERE v > 10";
    assert_matches_query(&session, "big", defining);
    // Incremental: appends flow through without re-execution.
    sql(&session, "INSERT INTO t VALUES (4, 40), (5, 2), (6, 60)");
    assert_matches_query(&session, "big", defining);
    assert_eq!(sql(&session, "SELECT k FROM big").len(), 3);
    // Views plan through the normal physical layer.
    let plan = sql(&session, "EXPLAIN SELECT k FROM big WHERE v > 50");
    assert!(!plan.is_empty(), "EXPLAIN over a view returns a plan");
}

#[test]
fn aggregate_view_maintains_all_accumulators() {
    let (session, _views, _fp) = setup();
    sql(&session, "CREATE TABLE m (g BIGINT, x BIGINT)");
    sql(
        &session,
        "INSERT INTO m VALUES (1, 10), (1, 20), (2, 5), (2, 7), (3, 100)",
    );
    let defining = "SELECT g, count(*), sum(x), min(x), max(x), avg(x) \
                    FROM m GROUP BY g";
    sql(
        &session,
        &format!("CREATE MATERIALIZED VIEW stats AS {defining}"),
    );
    assert_matches_query(&session, "stats", defining);
    // New rows touch existing groups and mint new ones.
    sql(
        &session,
        "INSERT INTO m VALUES (1, 1), (4, 4), (2, 1000), (4, 8)",
    );
    assert_matches_query(&session, "stats", defining);
    // A second wave, to exercise repeated merges.
    sql(&session, "INSERT INTO m VALUES (3, 1), (3, 2), (3, 3)");
    assert_matches_query(&session, "stats", defining);
}

#[test]
fn global_aggregate_view_without_group_by() {
    let (session, _views, _fp) = setup();
    sql(&session, "CREATE TABLE g (x BIGINT)");
    let defining = "SELECT count(*), sum(x) FROM g";
    sql(
        &session,
        &format!("CREATE MATERIALIZED VIEW total AS {defining}"),
    );
    // Seeded over an empty table: one global row.
    assert_matches_query(&session, "total", defining);
    sql(&session, "INSERT INTO g VALUES (1), (2), (3)");
    assert_matches_query(&session, "total", defining);
    let rows = rows_of(&sql(&session, "SELECT * FROM total"));
    assert_eq!(rows, vec![vec![Value::Int64(3), Value::Int64(6)]]);
}

#[test]
fn join_view_probes_the_arrangement() {
    let (session, _views, _fp) = setup();
    sql(&session, "CREATE TABLE person (id BIGINT, city BIGINT)");
    sql(&session, "CREATE TABLE msg (author BIGINT, len BIGINT)");
    sql(&session, "INSERT INTO person VALUES (1, 10), (2, 20)");
    sql(
        &session,
        "INSERT INTO msg VALUES (1, 100), (1, 101), (2, 200)",
    );
    let defining = "SELECT person.id, person.city, msg.len \
                    FROM person JOIN msg ON person.id = msg.author";
    sql(
        &session,
        &format!("CREATE MATERIALIZED VIEW feed AS {defining}"),
    );
    assert_matches_query(&session, "feed", defining);
    // Deltas on either side must pair with the other side's history.
    sql(&session, "INSERT INTO msg VALUES (2, 201), (3, 300)");
    assert_matches_query(&session, "feed", defining);
    sql(&session, "INSERT INTO person VALUES (3, 30)");
    // The person delta must pick up the earlier dangling msg (3, 300).
    assert_matches_query(&session, "feed", defining);
    sql(&session, "INSERT INTO msg VALUES (3, 301)");
    sql(&session, "INSERT INTO person VALUES (4, 40)");
    assert_matches_query(&session, "feed", defining);
}

#[test]
fn join_view_with_filter_and_aliases() {
    let (session, _views, _fp) = setup();
    sql(&session, "CREATE TABLE a (id BIGINT, v BIGINT)");
    sql(&session, "CREATE TABLE b (rid BIGINT, w BIGINT)");
    sql(&session, "INSERT INTO a VALUES (1, 1), (2, 2)");
    sql(&session, "INSERT INTO b VALUES (1, 10), (2, 3), (1, 4)");
    let defining = "SELECT x.id, y.w FROM a AS x JOIN b AS y ON x.id = y.rid WHERE y.w > 5";
    sql(
        &session,
        &format!("CREATE MATERIALIZED VIEW filtered AS {defining}"),
    );
    assert_matches_query(&session, "filtered", defining);
    sql(&session, "INSERT INTO b VALUES (2, 20), (2, 1)");
    assert_matches_query(&session, "filtered", defining);
}

#[test]
fn multiple_views_share_one_delta_pass() {
    let (session, _views, _fp) = setup();
    sql(&session, "CREATE TABLE t (k BIGINT, v BIGINT)");
    sql(&session, "INSERT INTO t VALUES (1, 1), (2, 2)");
    sql(
        &session,
        "CREATE MATERIALIZED VIEW odd AS SELECT k, v FROM t WHERE v % 2 = 1",
    );
    sql(
        &session,
        "CREATE MATERIALIZED VIEW sums AS SELECT k, sum(v) FROM t GROUP BY k",
    );
    sql(&session, "INSERT INTO t VALUES (1, 3), (2, 4), (3, 5)");
    assert_matches_query(&session, "odd", "SELECT k, v FROM t WHERE v % 2 = 1");
    assert_matches_query(&session, "sums", "SELECT k, sum(v) FROM t GROUP BY k");
}

#[test]
fn concurrent_appends_never_observe_half_applied_state() {
    let (session, _views, _fp) = setup();
    sql(&session, "CREATE TABLE c (k BIGINT, v BIGINT)");
    sql(
        &session,
        "CREATE MATERIALIZED VIEW csum AS SELECT k, count(*), sum(v) FROM c GROUP BY k",
    );
    let writers = 4;
    let per_writer = 25i64;
    std::thread::scope(|scope| {
        for w in 0..writers {
            let session = session.clone();
            scope.spawn(move || {
                for i in 0..per_writer {
                    let k = i % 5;
                    let v = w as i64 * per_writer + i;
                    session
                        .sql(&format!("INSERT INTO c VALUES ({k}, {v})"))
                        .unwrap()
                        .collect()
                        .unwrap();
                }
            });
        }
        // Reader thread: every observed state must be internally
        // consistent — for this data, sum(count) == total rows seen and
        // counts never decrease.
        let reader = session.clone();
        scope.spawn(move || {
            let mut last_total = 0i64;
            for _ in 0..50 {
                let chunk = reader
                    .sql("SELECT k, count(*), sum(v) FROM csum GROUP BY k")
                    .ok()
                    .and_then(|df| df.collect().ok());
                if let Some(chunk) = chunk {
                    let total: i64 = (0..chunk.len())
                        .map(|r| match chunk.value_at(1, r) {
                            Value::Int64(n) => n,
                            other => panic!("count column: {other:?}"),
                        })
                        .sum();
                    assert!(total >= last_total, "view went backwards");
                    last_total = total;
                }
                std::thread::yield_now();
            }
        });
    });
    assert_matches_query(
        &session,
        "csum",
        "SELECT k, count(*), sum(v) FROM c GROUP BY k",
    );
    let rows = rows_of(&sql(&session, "SELECT * FROM csum"));
    let total: i64 = rows
        .iter()
        .map(|r| match &r[1] {
            Value::Int64(n) => *n,
            other => panic!("count column: {other:?}"),
        })
        .sum();
    assert_eq!(total, writers as i64 * per_writer, "no lost deltas");
}

/// Read-your-writes under contention: while another commit's delta is
/// held inside its apply, a second writer's append returns only once its
/// own delta is applied, so its next view read sees the row.
#[cfg(feature = "failpoints")]
#[test]
fn an_append_is_applied_before_it_returns_while_another_apply_is_held() {
    use idf_fail::{FailConfig, FailGuard};
    use idf_views::failpoints::MAINTAIN_APPLY;

    let _alone = FAILPOINT.write().unwrap_or_else(PoisonError::into_inner);
    let (session, views) = views_session();
    sql(&session, "CREATE TABLE a (k BIGINT, v BIGINT)");
    sql(&session, "CREATE TABLE b (k BIGINT, v BIGINT)");
    sql(
        &session,
        "CREATE MATERIALIZED VIEW av AS SELECT k, v FROM a WHERE v > 0",
    );
    sql(
        &session,
        "CREATE MATERIALIZED VIEW bv AS SELECT k, v FROM b WHERE v > 0",
    );
    // Arm the site once and wait until an apply is held there: the site
    // counts its hit before it sleeps, so from then on writer A's apply
    // holds `apply_lock` for 300 ms.
    fn hold_next_apply<'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        session: &Session,
        insert: &'static str,
    ) -> FailGuard {
        let held = FailGuard::new(MAINTAIN_APPLY, FailConfig::delay(300).times(1));
        let writer_a = session.clone();
        scope.spawn(move || sql(&writer_a, insert));
        while idf_fail::hit_count(MAINTAIN_APPLY).unwrap_or(0) == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        held
    }
    std::thread::scope(|scope| {
        let _held = hold_next_apply(scope, &session, "INSERT INTO a VALUES (1, 1)");
        sql(&session, "INSERT INTO b VALUES (2, 2)");
        assert_eq!(
            sql(&session, "SELECT * FROM bv").len(),
            1,
            "the writer must read its own append through the view"
        );
    });
    // `wait_idle` waits for an apply another thread is still running.
    std::thread::scope(|scope| {
        let _held = hold_next_apply(scope, &session, "INSERT INTO a VALUES (3, 3)");
        views.wait_idle();
        assert_eq!(sql(&session, "SELECT * FROM av").len(), 2);
    });
    assert_matches_query(&session, "av", "SELECT k, v FROM a WHERE v > 0");
}

/// A commit whose publish fails partway applies nothing to its views:
/// the base holds only part of the statement, so the views over it and
/// the join's arrangement of it go stale, keep serving their last good
/// state, and `REFRESH` rebuilds them from what the base holds.
#[cfg(feature = "failpoints")]
#[test]
fn a_publish_that_fails_partway_applies_nothing_and_marks_views_stale() {
    use idf_core::failpoints::APPEND_PUBLISH;
    use idf_fail::{FailConfig, FailGuard};

    let _alone = FAILPOINT.write().unwrap_or_else(PoisonError::into_inner);
    let session = Session::new();
    // One partition, so the statement's rows publish in order on one
    // thread and the fault lands after exactly one of them.
    let config = IndexConfig {
        num_partitions: 1,
        ..IndexConfig::default()
    };
    install_indexed_ddl(&session, config);
    let views = install(&session, ViewsConfig::default());
    sql(&session, "CREATE TABLE t (k BIGINT, v BIGINT)");
    sql(&session, "CREATE TABLE u (k BIGINT, w BIGINT)");
    sql(&session, "INSERT INTO t VALUES (1, 10)");
    sql(
        &session,
        "INSERT INTO u VALUES (1, 100), (2, 200), (3, 300)",
    );
    let filter = "SELECT k, v FROM t WHERE v > 0";
    let join = "SELECT t.v, u.w FROM t JOIN u ON t.k = u.k";
    sql(
        &session,
        &format!("CREATE MATERIALIZED VIEW fv AS {filter}"),
    );
    sql(&session, &format!("CREATE MATERIALIZED VIEW jv AS {join}"));

    // The statement's first hit is its commit point, then one per
    // published row: pass the commit point and the first row, fail the
    // second.
    {
        let _fault = FailGuard::new(
            APPEND_PUBLISH,
            FailConfig::error("publish fault").skip(2).times(1),
        );
        let insert = "INSERT INTO t VALUES (2, 20), (3, 30), (4, 40)";
        let outcome = session.sql(insert).and_then(|df| df.collect());
        assert!(
            outcome.is_err(),
            "the injected publish fault must fail the INSERT"
        );
    }
    assert_eq!(
        sql(&session, "SELECT k FROM t").len(),
        2,
        "the base got one row of the three"
    );
    assert_eq!(views.stale_views(), ["fv", "jv"]);
    assert_eq!(
        rows_of(&sql(&session, "SELECT * FROM fv")),
        [[Value::Int64(1), Value::Int64(10)]],
        "nothing of the failed commit is applied"
    );
    assert_eq!(sql(&session, "SELECT * FROM jv").len(), 1);

    sql(&session, "REFRESH MATERIALIZED VIEW fv");
    sql(&session, "REFRESH MATERIALIZED VIEW jv");
    assert!(views.stale_views().is_empty());
    assert_matches_query(&session, "fv", filter);
    assert_matches_query(&session, "jv", join);
    // Maintenance resumes on the next commit.
    sql(&session, "INSERT INTO t VALUES (3, 31)");
    assert!(views.stale_views().is_empty());
    assert_matches_query(&session, "fv", filter);
    assert_matches_query(&session, "jv", join);
    assert_eq!(sql(&session, "SELECT * FROM jv").len(), 3);
}

#[test]
fn refresh_recomputes_and_matches() {
    let (session, _views, _fp) = setup();
    sql(&session, "CREATE TABLE r (k BIGINT, v BIGINT)");
    sql(&session, "INSERT INTO r VALUES (1, 1), (2, 2)");
    sql(
        &session,
        "CREATE MATERIALIZED VIEW rv AS SELECT k, v FROM r WHERE v > 0",
    );
    sql(&session, "INSERT INTO r VALUES (3, 3)");
    sql(&session, "REFRESH MATERIALIZED VIEW rv");
    assert_matches_query(&session, "rv", "SELECT k, v FROM r WHERE v > 0");
    // Maintenance continues after a refresh.
    sql(&session, "INSERT INTO r VALUES (4, 4)");
    assert_matches_query(&session, "rv", "SELECT k, v FROM r WHERE v > 0");
}

#[test]
fn drop_view_unregisters_and_allows_recreate() {
    let (session, _views, _fp) = setup();
    sql(&session, "CREATE TABLE d (k BIGINT, v BIGINT)");
    sql(
        &session,
        "CREATE MATERIALIZED VIEW dv AS SELECT k FROM d WHERE v > 1",
    );
    sql(&session, "DROP MATERIALIZED VIEW dv");
    let err = sql_err(&session, "SELECT * FROM dv");
    assert!(matches!(err, EngineError::TableNotFound(_)), "{err}");
    // The name is free again.
    sql(
        &session,
        "CREATE MATERIALIZED VIEW dv AS SELECT k FROM d WHERE v > 2",
    );
    sql(&session, "INSERT INTO d VALUES (9, 9)");
    assert_matches_query(&session, "dv", "SELECT k FROM d WHERE v > 2");
}

/// A table dropped and re-created under the same name is another table:
/// a view over the new one gets its own tap and tracks its appends.
#[test]
fn a_view_over_a_recreated_table_tracks_its_appends() {
    let (session, views, _fp) = setup();
    sql(&session, "CREATE TABLE t (k BIGINT, v BIGINT)");
    sql(
        &session,
        "CREATE MATERIALIZED VIEW v1 AS SELECT k, v FROM t WHERE v > 0",
    );
    sql(&session, "DROP MATERIALIZED VIEW v1");
    sql(&session, "DROP TABLE t");
    sql(&session, "CREATE TABLE t (k BIGINT, v BIGINT)");
    let defining = "SELECT k, v FROM t WHERE v > 0";
    sql(
        &session,
        &format!("CREATE MATERIALIZED VIEW v2 AS {defining}"),
    );
    sql(&session, "INSERT INTO t VALUES (1, 1), (2, 2)");
    assert_eq!(sql(&session, "SELECT * FROM v2").len(), 2);
    assert_matches_query(&session, "v2", defining);
    assert!(views.stale_views().is_empty());
}

/// A view keeps following the table it was defined over after its name
/// passes to a new table: neither view receives the other table's
/// deltas.
#[test]
fn a_view_over_a_dropped_table_receives_none_of_its_successors_deltas() {
    let (session, views, _fp) = setup();
    sql(&session, "CREATE TABLE t (k BIGINT, v BIGINT)");
    sql(&session, "INSERT INTO t VALUES (1, 1)");
    sql(
        &session,
        "CREATE MATERIALIZED VIEW old_v AS SELECT k, v FROM t WHERE v > 0",
    );
    let old_table = indexed_table(&session, "t");
    sql(&session, "DROP TABLE t");
    sql(&session, "CREATE TABLE t (k BIGINT, v BIGINT)");
    let defining = "SELECT k, v FROM t WHERE v > 0";
    sql(
        &session,
        &format!("CREATE MATERIALIZED VIEW new_v AS {defining}"),
    );
    sql(&session, "INSERT INTO t VALUES (2, 2), (3, 3)");
    // The dropped table is still live for a holder of its handle.
    old_table
        .append_row(&[Value::Int64(4), Value::Int64(4)])
        .unwrap();
    assert_eq!(
        rows_of(&sql(&session, "SELECT * FROM old_v")),
        vec![
            vec![Value::Int64(1), Value::Int64(1)],
            vec![Value::Int64(4), Value::Int64(4)],
        ]
    );
    assert_matches_query(&session, "new_v", defining);
    assert_eq!(sql(&session, "SELECT * FROM new_v").len(), 2);
    assert!(views.stale_views().is_empty());
}

/// A tap holds its table weakly: once its views and its catalog entry are
/// gone, a dropped table is freed.
#[test]
fn a_dropped_table_is_freed_once_its_views_are_dropped() {
    let (session, _views, _fp) = setup();
    sql(&session, "CREATE TABLE t (k BIGINT, v BIGINT)");
    let table = Arc::downgrade(&indexed_table(&session, "t"));
    sql(
        &session,
        "CREATE MATERIALIZED VIEW tv AS SELECT k, v FROM t WHERE v > 0",
    );
    sql(&session, "INSERT INTO t VALUES (1, 1)");
    sql(&session, "DROP MATERIALIZED VIEW tv");
    sql(&session, "DROP TABLE t");
    assert!(
        table.upgrade().is_none(),
        "the dropped table is still alive"
    );
}

#[test]
fn ddl_errors_are_typed() {
    let (session, _views, _fp) = setup();
    sql(&session, "CREATE TABLE e (k BIGINT, v BIGINT)");
    sql(
        &session,
        "CREATE MATERIALIZED VIEW ev AS SELECT k FROM e WHERE v > 1",
    );
    // Duplicate view name: one winner, typed loser.
    let err = sql_err(&session, "CREATE MATERIALIZED VIEW ev AS SELECT v FROM e");
    assert!(matches!(err, EngineError::ViewAlreadyExists(_)), "{err}");
    // View name colliding with a table.
    let err = sql_err(&session, "CREATE MATERIALIZED VIEW e AS SELECT k FROM e");
    assert!(matches!(err, EngineError::TableAlreadyExists(_)), "{err}");
    // Unknown view: typed, distinct from TableNotFound.
    for stmt in [
        "DROP MATERIALIZED VIEW nope",
        "REFRESH MATERIALIZED VIEW nope",
    ] {
        let err = sql_err(&session, stmt);
        assert!(matches!(err, EngineError::ViewNotFound(_)), "{stmt}: {err}");
    }
    // DROP MATERIALIZED VIEW does not drop tables.
    let err = sql_err(&session, "DROP MATERIALIZED VIEW e");
    assert!(matches!(err, EngineError::ViewNotFound(_)), "{err}");
    assert_eq!(sql(&session, "SELECT count(*) FROM e").len(), 1);
}

#[test]
fn unsupported_defining_queries_are_rejected_with_reasons() {
    let (session, _views, _fp) = setup();
    sql(&session, "CREATE TABLE u (k BIGINT, v BIGINT)");
    sql(&session, "CREATE TABLE u2 (k BIGINT, w BIGINT)");
    let rejected = [
        "SELECT DISTINCT k FROM u",
        "SELECT k FROM u ORDER BY k",
        "SELECT k FROM u LIMIT 3",
        "SELECT k, count(*) FROM u GROUP BY k HAVING count(*) > 1",
        "SELECT k FROM (SELECT k FROM u) AS s",
        "SELECT u.k FROM u LEFT JOIN u2 ON u.k = u2.k",
        "SELECT a.k FROM u AS a JOIN u AS b ON a.k = b.v",
        "SELECT k, count(*) + 1 FROM u GROUP BY k",
        "SELECT u.k FROM u JOIN u2 ON u.k > u2.k",
    ];
    for defining in rejected {
        let err = sql_err(
            &session,
            &format!("CREATE MATERIALIZED VIEW bad AS {defining}"),
        );
        assert!(
            matches!(err, EngineError::Unsupported(_)),
            "{defining}: {err}"
        );
        assert!(
            err.to_string().contains("materialized view"),
            "{defining}: {err}"
        );
    }
    // None of the rejects registered anything.
    assert!(session.sql("SELECT * FROM bad").is_err());
}

#[test]
fn views_require_the_subsystem() {
    let session = Session::new();
    install_indexed_ddl(&session, IndexConfig::default());
    sql(&session, "CREATE TABLE t (k BIGINT)");
    let err = sql_err(&session, "CREATE MATERIALIZED VIEW v AS SELECT k FROM t");
    assert!(matches!(err, EngineError::Unsupported(_)), "{err}");
    assert!(err.to_string().contains("idf-views"), "{err}");
}

#[test]
fn view_over_plain_table_is_rejected() {
    let (session, _views, _fp) = setup();
    // A non-indexed source (no indexed DDL factory behind it).
    let schema = Arc::new(idf_engine::schema::Schema::new(vec![
        idf_engine::schema::Field::new("x", idf_engine::types::DataType::Int64),
    ]));
    session.register_table(
        "plain",
        Arc::new(idf_engine::catalog::MemTable::new(schema, vec![vec![]])),
    );
    let err = sql_err(
        &session,
        "CREATE MATERIALIZED VIEW pv AS SELECT x FROM plain",
    );
    assert!(matches!(err, EngineError::Unsupported(_)), "{err}");
    assert!(err.to_string().contains("live indexed table"), "{err}");
}

#[test]
fn dml_on_base_marks_views_stale_and_refresh_recovers() {
    let (session, views, _fp) = setup();
    sql(&session, "CREATE TABLE d (k BIGINT, v BIGINT)");
    sql(&session, "INSERT INTO d VALUES (1, 10), (2, 20), (3, 30)");
    let defining = "SELECT k, v FROM d WHERE v > 5";
    sql(
        &session,
        &format!("CREATE MATERIALIZED VIEW dv AS {defining}"),
    );
    assert_matches_query(&session, "dv", defining);

    // An UPDATE appends a tombstone + a new version: the delta cannot be
    // replayed as an append, so the view must go stale — and must NOT
    // have half-applied the survivor re-appends in the meantime.
    sql(&session, "UPDATE d SET v = 11 WHERE k = 1");
    assert_eq!(views.stale_views(), ["dv"]);
    assert_eq!(
        sql(&session, "SELECT k FROM dv").len(),
        3,
        "stale view keeps serving its last good state, undoubled"
    );

    sql(&session, "REFRESH MATERIALIZED VIEW dv");
    assert!(views.stale_views().is_empty());
    assert_matches_query(&session, "dv", defining);

    // DELETE behaves the same way.
    sql(&session, "DELETE FROM d WHERE k = 2");
    assert_eq!(views.stale_views(), ["dv"]);
    sql(&session, "REFRESH MATERIALIZED VIEW dv");
    assert_matches_query(&session, "dv", defining);
    assert_eq!(sql(&session, "SELECT k FROM dv").len(), 2);

    // Incremental maintenance resumes after the refresh.
    sql(&session, "INSERT INTO d VALUES (4, 40)");
    assert!(views.stale_views().is_empty());
    assert_matches_query(&session, "dv", defining);
}

#[test]
fn dml_poisons_join_arrangements_until_refresh() {
    let (session, views, _fp) = setup();
    sql(&session, "CREATE TABLE l (k BIGINT, a BIGINT)");
    sql(&session, "CREATE TABLE r2 (k BIGINT, b BIGINT)");
    sql(&session, "INSERT INTO l VALUES (1, 10), (2, 20)");
    sql(&session, "INSERT INTO r2 VALUES (1, 100), (2, 200)");
    let defining = "SELECT l.a, r2.b FROM l JOIN r2 ON l.k = r2.k";
    sql(
        &session,
        &format!("CREATE MATERIALIZED VIEW jv AS {defining}"),
    );
    assert_matches_query(&session, "jv", defining);

    // DML on one side poisons its arrangement; the join view goes stale.
    sql(&session, "UPDATE r2 SET b = 201 WHERE k = 2");
    assert_eq!(views.stale_views(), ["jv"]);

    // REFRESH rebuilds the arrangement from the post-DML base and the
    // view maintains incrementally again afterwards.
    sql(&session, "REFRESH MATERIALIZED VIEW jv");
    assert!(views.stale_views().is_empty());
    assert_matches_query(&session, "jv", defining);
    sql(&session, "INSERT INTO l VALUES (3, 30)");
    sql(&session, "INSERT INTO r2 VALUES (3, 300)");
    assert!(views.stale_views().is_empty());
    assert_matches_query(&session, "jv", defining);
}
