//! End-to-end crash/recovery test: populate two durable tables, snapshot
//! query results (point lookup, indexed join, SQL aggregate), crash the
//! session mid-append via an injected commit fault, recover with
//! [`DurableSession::open`], and assert every committed result is
//! reproduced bit-for-bit. The subprocess-kill variant of this round-trip
//! lives in `kill_reopen.rs`.

use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use idf_core::config::IndexConfig;
use idf_durable::{DurableSession, TempDir};
use idf_engine::config::{DurabilityLevel, EngineConfig};
use idf_engine::schema::{Field, Schema, SchemaRef};
use idf_engine::types::{DataType, Value};

/// Serialize against other tests in this binary — the failpoint registry
/// is process-global.
static LOCK: Mutex<()> = Mutex::new(());

fn config(dir: &Path) -> EngineConfig {
    EngineConfig {
        data_dir: Some(dir.to_path_buf()),
        durability: DurabilityLevel::Sync,
        ..EngineConfig::default()
    }
}

fn person_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        Field::required("id", DataType::Int64),
        Field::new("name", DataType::Utf8),
        Field::new("age", DataType::Int64),
    ]))
}

fn knows_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        Field::required("src", DataType::Int64),
        Field::new("dst", DataType::Int64),
    ]))
}

fn index() -> IndexConfig {
    IndexConfig {
        num_partitions: 4,
        ..IndexConfig::default()
    }
}

fn sorted_rows(chunk: &idf_engine::chunk::Chunk) -> Vec<Vec<Value>> {
    let mut rows = chunk.to_rows();
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

#[cfg_attr(not(feature = "failpoints"), allow(unused_mut, unused_variables))]
#[test]
fn committed_results_survive_a_mid_append_crash() {
    let _s = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    idf_fail::reset();
    let dir = TempDir::new("e2e-crash");

    // --- Before the crash: populate and snapshot query results. -------
    let (pre_lookup, pre_join, pre_agg, pre_rows);
    {
        let sess = DurableSession::open(config(dir.path())).unwrap();
        let person = sess
            .create_table("person", person_schema(), 0, index())
            .unwrap();
        let knows = sess
            .create_table("knows", knows_schema(), 0, index())
            .unwrap();
        for i in 0..300i64 {
            person
                .append_row(&[
                    Value::Int64(i % 60),
                    Value::Utf8(format!("p{i}")),
                    Value::Int64(20 + i % 50),
                ])
                .unwrap();
        }
        for i in 0..120i64 {
            knows
                .append_row(&[Value::Int64(i % 60), Value::Int64((i * 7) % 60)])
                .unwrap();
        }
        // Mid-run checkpoint so recovery exercises snapshot + WAL replay.
        sess.checkpoint(Some("person")).unwrap();
        for i in 300..400i64 {
            person
                .append_row(&[
                    Value::Int64(i % 60),
                    Value::Utf8(format!("p{i}")),
                    Value::Int64(20 + i % 50),
                ])
                .unwrap();
        }

        pre_lookup = sorted_rows(&person.get_rows_chunk(17i64).unwrap());
        pre_join = sorted_rows(
            &person
                .join(&knows.df_named("knows"), "id", "src")
                .unwrap()
                .collect()
                .unwrap(),
        );
        pre_agg = sess
            .sql("SELECT COUNT(*), SUM(age) FROM person")
            .unwrap()
            .collect()
            .unwrap()
            .to_rows();
        pre_rows = person.row_count();

        // --- Crash mid-append: the commit fault fails the append, and
        // the session is dropped without a clean checkpoint. -----------
        #[cfg(feature = "failpoints")]
        {
            let _guard = idf_fail::FailGuard::new(
                idf_durable::failpoints::WAL_APPEND,
                idf_fail::FailConfig::error("crash now"),
            );
            let err = person
                .append_row(&[
                    Value::Int64(999),
                    Value::Utf8("lost".into()),
                    Value::Int64(0),
                ])
                .unwrap_err();
            assert!(err.to_string().contains("injected"), "{err}");
        }
    }
    idf_fail::reset();

    // --- After recovery: every committed result matches exactly. ------
    let sess = DurableSession::open(config(dir.path())).unwrap();
    let person = sess.dataframe("person").unwrap();
    let knows = sess.dataframe("knows").unwrap();
    assert_eq!(person.row_count(), pre_rows);
    assert_eq!(
        sorted_rows(&person.get_rows_chunk(17i64).unwrap()),
        pre_lookup,
        "point lookup after recovery"
    );
    assert_eq!(
        sorted_rows(
            &person
                .join(&knows.df_named("knows"), "id", "src")
                .unwrap()
                .collect()
                .unwrap()
        ),
        pre_join,
        "indexed join after recovery"
    );
    assert_eq!(
        sess.sql("SELECT COUNT(*), SUM(age) FROM person")
            .unwrap()
            .collect()
            .unwrap()
            .to_rows(),
        pre_agg,
        "aggregate after recovery"
    );
    // The aborted append left nothing behind.
    assert!(person.get_rows_chunk(999i64).unwrap().is_empty());
    // And the recovered session keeps accepting durable appends.
    person
        .append_row(&[
            Value::Int64(17),
            Value::Utf8("alive".into()),
            Value::Int64(1),
        ])
        .unwrap();
    assert_eq!(person.row_count(), pre_rows + 1);
}

/// The same round-trip driven entirely through SQL, including
/// `CHECKPOINT` — the demo-facing surface.
#[test]
fn sql_checkpoint_roundtrip() {
    let _s = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    idf_fail::reset();
    let dir = TempDir::new("e2e-sql");
    {
        let sess = DurableSession::open(config(dir.path())).unwrap();
        let person = sess
            .create_table("person", person_schema(), 0, index())
            .unwrap();
        for i in 0..50i64 {
            person
                .append_row(&[
                    Value::Int64(i),
                    Value::Utf8(format!("p{i}")),
                    Value::Int64(i),
                ])
                .unwrap();
        }
        let out = sess.sql("CHECKPOINT").unwrap().collect().unwrap();
        assert_eq!(out.to_rows(), vec![vec![Value::Utf8("person".into())]]);
    }
    let sess = DurableSession::open(config(dir.path())).unwrap();
    let out = sess
        .sql("SELECT COUNT(*) FROM person WHERE id >= 25")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.to_rows()[0][0], Value::Int64(25));
}

/// A restored table counts its rows as the live table did: every stored
/// row, tombstones and the versions they hide included. After DML leaves
/// both, `CHECKPOINT` and a reopen give the same `row_count()` and
/// `memory_stats()` as the live table, and the same visible rows.
#[test]
fn a_restored_table_counts_its_rows_as_the_live_one() {
    let _s = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    idf_fail::reset();
    let dir = TempDir::new("e2e-rowcount");
    let count = |sess: &DurableSession| {
        sess.sql("SELECT COUNT(*) FROM person")
            .unwrap()
            .collect()
            .unwrap()
            .to_rows()
    };
    let (live_rows, live_stats, live_visible);
    {
        let sess = DurableSession::open(config(dir.path())).unwrap();
        let person = sess
            .create_table("person", person_schema(), 0, index())
            .unwrap();
        for i in 0..240i64 {
            person
                .append_row(&[
                    Value::Int64(i % 60),
                    Value::Utf8(format!("p{i}")),
                    Value::Int64(i),
                ])
                .unwrap();
        }
        sess.sql("DELETE FROM person WHERE id < 12")
            .unwrap()
            .collect()
            .unwrap();
        sess.sql("UPDATE person SET age = 0 WHERE id >= 50")
            .unwrap()
            .collect()
            .unwrap();
        sess.sql("CHECKPOINT").unwrap().collect().unwrap();
        live_rows = person.row_count();
        live_stats = person.memory_stats();
        live_visible = count(&sess);
        assert!(live_stats.tombstones > 0 && live_stats.dead_rows > 0);
        assert_eq!(live_visible, vec![vec![Value::Int64(48 * 4)]]);
    }
    let sess = DurableSession::open(config(dir.path())).unwrap();
    let person = sess.dataframe("person").unwrap();
    assert_eq!(person.row_count(), live_rows, "stored rows");
    assert_eq!(person.memory_stats(), live_stats);
    assert_eq!(count(&sess), live_visible);
}
