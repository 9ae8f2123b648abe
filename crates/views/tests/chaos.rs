//! Deterministic chaos suite for view maintenance: faults seeded at
//! every registered `idf-views` failpoint site while appends stream in,
//! asserting the exactly-once invariant the whole time — after every
//! storm (and a REFRESH for any view that went stale) each view's
//! contents are bit-for-bit equal to re-running its defining query, with
//! no lost and no double-applied deltas.
//!
//! Rounds are capped so the suite rides in tier-1 `cargo test`; set
//! `IDF_CHAOS_ROUNDS` to run longer locally (see EXPERIMENTS.md).

#![cfg(feature = "failpoints")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

use idf_core::prelude::*;
use idf_engine::chunk::Chunk;
use idf_engine::session::Session;
use idf_engine::types::Value;
use idf_fail::{FailConfig, FailGuard};
use idf_views::failpoints as fp;
use idf_views::{install, ViewsConfig, ViewsSystem};

/// The failpoint registry is process-global; every test here serializes
/// on this lock (poison tolerated so one failure doesn't cascade).
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    idf_fail::reset();
    CHAOS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn rounds() -> usize {
    std::env::var("IDF_CHAOS_ROUNDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
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

fn setup() -> (Session, Arc<ViewsSystem>) {
    let session = Session::new();
    install_indexed_ddl(&session, IndexConfig::default());
    let views = install(&session, ViewsConfig::default());
    (session, views)
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

fn assert_matches_query(session: &Session, view: &str, defining: &str) {
    let view_rows = rows_of(&sql(session, &format!("SELECT * FROM {view}")));
    let fresh_rows = rows_of(&sql(session, defining));
    assert_eq!(view_rows, fresh_rows, "view {view} diverged from its query");
}

/// Clear all faults, refresh every stale view, and prove each view is
/// bit-for-bit equal to its defining query.
fn heal_and_audit(session: &Session, views: &ViewsSystem, defs: &[(&str, &str)]) {
    idf_fail::reset();
    for name in views.stale_views() {
        sql(session, &format!("REFRESH MATERIALIZED VIEW {name}"));
    }
    assert!(views.stale_views().is_empty(), "refresh must clear stale");
    for (view, defining) in defs {
        assert_matches_query(session, view, defining);
    }
}

#[test]
fn registered_sites_cover_apply_and_refresh() {
    let names: Vec<&str> = fp::SITES.iter().map(|s| s.name()).collect();
    assert_eq!(
        names,
        [
            "idf_views::failpoints::MAINTAIN_APPLY",
            "idf_views::failpoints::REFRESH"
        ]
    );
}

/// The core storm: bounded error/panic/delay faults at the apply site
/// (and errors at the refresh site) while appends stream into filter,
/// aggregate, and join views. Appends themselves must never fail —
/// maintenance faults are retried or contained, never propagated into
/// the commit path — and after healing every view matches its query
/// exactly, which rules out both lost and double-applied deltas.
#[test]
fn fault_storm_preserves_exactly_once_maintenance() {
    let _guard = serial();
    let (session, views) = setup();
    sql(&session, "CREATE TABLE t (k BIGINT, v BIGINT)");
    sql(&session, "CREATE TABLE d (k BIGINT, w BIGINT)");
    sql(
        &session,
        "INSERT INTO d VALUES (0, 100), (1, 101), (2, 102)",
    );
    let defs: &[(&str, &str)] = &[
        ("cv_filter", "SELECT k, v FROM t WHERE v % 3 = 0"),
        (
            "cv_agg",
            "SELECT k, count(*), sum(v), min(v), max(v) FROM t GROUP BY k",
        ),
        ("cv_join", "SELECT t.k, t.v, d.w FROM t JOIN d ON t.k = d.k"),
    ];
    for (view, defining) in defs {
        sql(
            &session,
            &format!("CREATE MATERIALIZED VIEW {view} AS {defining}"),
        );
    }
    let mut inserted = 0i64;
    for round in 0..rounds() {
        let times = 1 + (round % 4) as u64;
        let skip = (round % 3) as u64;
        let config = match round % 3 {
            0 => FailConfig::error("chaos apply error")
                .skip(skip)
                .times(times),
            1 => FailConfig::panic("chaos apply panic")
                .skip(skip)
                .times(times),
            _ => FailConfig::delay(1).times(times),
        };
        let _apply = FailGuard::new(fp::MAINTAIN_APPLY, config);
        // The append path must stay fault-free: maintenance retries
        // absorb the storm.
        for i in 0..4i64 {
            let k = (inserted + i) % 3;
            let v = inserted + i;
            sql(&session, &format!("INSERT INTO t VALUES ({k}, {v})"));
        }
        inserted += 4;
        // Every third round, a refresh races the storm too; an injected
        // refusal is tolerated and must leave state consistent.
        if round % 3 == 0 {
            let _refresh = FailGuard::new(
                fp::REFRESH,
                FailConfig::error("chaos refresh error").times(1),
            );
            tolerated(run_op(|| {
                session
                    .sql("REFRESH MATERIALIZED VIEW cv_filter")
                    .map(|_| ())
            }));
        }
    }
    heal_and_audit(&session, &views, defs);
    // Count-exactness: the aggregate view's counts must sum to exactly
    // the number of committed rows (lost deltas would undercount,
    // double-applied deltas would overcount).
    let chunk = sql(&session, "SELECT * FROM cv_agg");
    let total: i64 = (0..chunk.len())
        .map(|r| match chunk.value_at(1, r) {
            Value::Int64(n) => n,
            other => panic!("count column: {other:?}"),
        })
        .sum();
    assert_eq!(total, inserted, "lost or double-applied deltas");
}

/// Retry exhaustion: an unbounded error fault at the apply site marks
/// the views stale instead of wedging the append path; stale views keep
/// serving their last consistent state and REFRESH fully recovers them.
#[test]
fn exhausted_retries_go_stale_and_refresh_recovers() {
    let _guard = serial();
    let (session, views) = setup();
    sql(&session, "CREATE TABLE s (k BIGINT, v BIGINT)");
    sql(&session, "INSERT INTO s VALUES (1, 1), (2, 2)");
    let defining = "SELECT k, sum(v) FROM s GROUP BY k";
    sql(
        &session,
        &format!("CREATE MATERIALIZED VIEW sv AS {defining}"),
    );
    let before = rows_of(&sql(&session, "SELECT * FROM sv"));
    {
        let _apply = FailGuard::new(fp::MAINTAIN_APPLY, FailConfig::error("chaos wedge"));
        sql(&session, "INSERT INTO s VALUES (1, 10), (3, 30)");
        assert_eq!(views.stale_views(), vec!["sv".to_string()]);
        // The stale view serves its last consistent state, not a torn one.
        assert_eq!(rows_of(&sql(&session, "SELECT * FROM sv")), before);
        // A refresh attempt under the same storm at the refresh site is
        // a clean typed refusal.
        let _refresh = FailGuard::new(fp::REFRESH, FailConfig::error("chaos refresh"));
        assert!(!tolerated(run_op(|| {
            session.sql("REFRESH MATERIALIZED VIEW sv").map(|_| ())
        })));
        assert_eq!(rows_of(&sql(&session, "SELECT * FROM sv")), before);
    }
    heal_and_audit(&session, &views, &[("sv", defining)]);
    // Maintenance resumes incrementally after recovery.
    sql(&session, "INSERT INTO s VALUES (2, 20)");
    assert_matches_query(&session, "sv", defining);
}

/// Concurrent writers under a delay storm: slowed-down apply windows
/// must never let a reader observe a half-applied delta, and the final
/// state is exact.
#[test]
fn delay_storm_with_concurrent_writers_stays_consistent() {
    let _guard = serial();
    let (session, views) = setup();
    sql(&session, "CREATE TABLE w (k BIGINT, v BIGINT)");
    let defining = "SELECT k, count(*), sum(v) FROM w GROUP BY k";
    sql(
        &session,
        &format!("CREATE MATERIALIZED VIEW wv AS {defining}"),
    );
    let writers = 3usize;
    let per_writer = 3 * rounds() as i64;
    {
        let _apply = FailGuard::new(fp::MAINTAIN_APPLY, FailConfig::delay(1));
        std::thread::scope(|scope| {
            for w in 0..writers {
                let session = session.clone();
                scope.spawn(move || {
                    for i in 0..per_writer {
                        let k = i % 4;
                        let v = w as i64 * per_writer + i;
                        session
                            .sql(&format!("INSERT INTO w VALUES ({k}, {v})"))
                            .unwrap()
                            .collect()
                            .unwrap();
                    }
                });
            }
            let reader = session.clone();
            scope.spawn(move || {
                let mut last_total = 0i64;
                for _ in 0..20 {
                    let chunk = sql(&reader, "SELECT * FROM wv");
                    let total: i64 = (0..chunk.len())
                        .map(|r| match chunk.value_at(1, r) {
                            Value::Int64(n) => n,
                            other => panic!("count column: {other:?}"),
                        })
                        .sum();
                    assert!(total >= last_total, "view went backwards");
                    last_total = total;
                    std::thread::yield_now();
                }
            });
        });
    }
    heal_and_audit(&session, &views, &[("wv", defining)]);
    let chunk = sql(&session, "SELECT * FROM wv");
    let total: i64 = (0..chunk.len())
        .map(|r| match chunk.value_at(1, r) {
            Value::Int64(n) => n,
            other => panic!("count column: {other:?}"),
        })
        .sum();
    assert_eq!(total, writers as i64 * per_writer, "lost or double deltas");
}
