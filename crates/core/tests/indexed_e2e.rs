//! End-to-end tests of the Indexed DataFrame through the engine: the
//! Catalyst-analog integration must route equality filters into cTrie
//! lookups, claim equi-joins for `IndexedJoinExec`, fall back to vanilla
//! execution everywhere else, and keep answers identical to the vanilla
//! engine throughout — including under concurrent appends.

use std::sync::Arc;

use idf_core::prelude::*;
use idf_engine::prelude::*;

fn person_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("name", DataType::Utf8),
        Field::new("age", DataType::Int64),
    ]))
}

fn knows_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        Field::new("src", DataType::Int64),
        Field::new("dst", DataType::Int64),
        Field::new("weight", DataType::Int64),
    ]))
}

fn setup() -> (Session, IndexedDataFrame) {
    let session = Session::new();
    let person_rows: Vec<Vec<Value>> = (0..500)
        .map(|i| {
            vec![
                Value::Int64(i),
                Value::Utf8(format!("p{i}")),
                Value::Int64(20 + i % 40),
            ]
        })
        .collect();
    let chunk = Chunk::from_rows(&person_schema(), &person_rows).unwrap();
    session.register_table(
        "person_plain",
        Arc::new(MemTable::from_chunk_partitioned(person_schema(), chunk, 4).unwrap()),
    );
    let knows_rows: Vec<Vec<Value>> = (0..2000)
        .map(|i| {
            vec![
                Value::Int64(i % 500),
                Value::Int64((i * 13 + 1) % 500),
                Value::Int64(i % 7),
            ]
        })
        .collect();
    let chunk = Chunk::from_rows(&knows_schema(), &knows_rows).unwrap();
    session.register_table(
        "knows",
        Arc::new(MemTable::from_chunk_partitioned(knows_schema(), chunk, 4).unwrap()),
    );
    // Index person on id; register so SQL can see it.
    let indexed = session
        .table("person_plain")
        .unwrap()
        .create_index("id")
        .unwrap();
    indexed.cache().register("person");
    (session, indexed)
}

#[test]
fn equality_filter_becomes_index_lookup() {
    let (session, _) = setup();
    let df = session
        .sql("SELECT name FROM person WHERE id = 123")
        .unwrap();
    let plan = df.explain().unwrap();
    // The filter must be pushed into the scan (no Filter operator left).
    assert!(
        plan.contains("pushed="),
        "expected pushed filter, got:\n{plan}"
    );
    assert!(
        !plan
            .split("== Physical ==")
            .nth(1)
            .unwrap()
            .contains("Filter"),
        "no residual filter expected:\n{plan}"
    );
    let out = df.collect().unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out.value_at(0, 0), Value::Utf8("p123".into()));
}

#[test]
fn get_rows_returns_all_versions_latest_first() {
    let (_, indexed) = setup();
    indexed
        .append_row(&[
            Value::Int64(7),
            Value::Utf8("p7 v2".into()),
            Value::Int64(99),
        ])
        .unwrap();
    let rows = indexed.get_rows_chunk(7i64).unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows.value_at(1, 0), Value::Utf8("p7 v2".into()));
    assert_eq!(rows.value_at(1, 1), Value::Utf8("p7".into()));
    // And through the DataFrame wrapper as in the paper's Listing 1.
    let df = indexed.get_rows(7i64).unwrap();
    assert_eq!(df.count().unwrap(), 2);
}

#[test]
fn indexed_join_is_planned_and_correct() {
    let (session, indexed) = setup();
    let knows = session.table("knows").unwrap();
    let joined = indexed.join(&knows, "id", "src").unwrap();
    let plan = joined.explain().unwrap();
    assert!(
        plan.contains("IndexedJoin"),
        "expected IndexedJoin:\n{plan}"
    );
    // Compare against the vanilla plan on the plain table.
    let vanilla = session
        .table("person_plain")
        .unwrap()
        .join(&knows, vec![("id", "src")], JoinType::Inner)
        .unwrap();
    assert!(!vanilla.explain().unwrap().contains("IndexedJoin"));
    let a = joined.count().unwrap();
    let b = vanilla.count().unwrap();
    assert_eq!(a, b);
    assert_eq!(a, 2000);
}

#[test]
fn indexed_join_values_match_vanilla() {
    let (session, indexed) = setup();
    let knows = session.table("knows").unwrap();
    let sort = |df: &DataFrame| -> Vec<Vec<Value>> {
        let sorted = df
            .sort(vec![
                SortExpr::asc(col("src")),
                SortExpr::asc(col("dst")),
                SortExpr::asc(col("id")),
            ])
            .unwrap()
            .collect()
            .unwrap();
        sorted.to_rows()
    };
    let joined = indexed
        .join(&knows, "id", "src")
        .unwrap()
        .select(vec![col("id"), col("src"), col("dst")])
        .unwrap();
    let vanilla = session
        .table("person_plain")
        .unwrap()
        .join(&knows, vec![("id", "src")], JoinType::Inner)
        .unwrap()
        .select(vec![col("id"), col("src"), col("dst")])
        .unwrap();
    assert_eq!(sort(&joined), sort(&vanilla));
}

#[test]
fn sql_join_over_registered_indexed_table() {
    let (session, _) = setup();
    let df = session
        .sql(
            "SELECT p.name, k.dst FROM person p JOIN knows k ON p.id = k.src \
             WHERE k.weight = 0",
        )
        .unwrap();
    let plan = df.explain().unwrap();
    assert!(plan.contains("IndexedJoin"), "{plan}");
    let expected = (0..2000).filter(|i| i % 7 == 0).count();
    assert_eq!(df.count().unwrap(), expected);
}

#[test]
fn non_indexed_operations_fall_back() {
    let (session, _) = setup();
    // A range filter cannot use the index: the scan walks every row and
    // evaluates it there, with no probe and no `Filter` above.
    let df = session
        .sql("SELECT count(*) FROM person WHERE id > 400")
        .unwrap();
    let plan = df.explain().unwrap();
    let physical = plan.split("== Physical ==").nth(1).unwrap();
    assert!(
        physical.contains("SourceScan: person projection=[] where=[(id > 400)]")
            && !physical.contains("Filter")
            && !physical.contains("pushed="),
        "range filter must run in the walk:\n{plan}"
    );
    let out = df.collect().unwrap();
    assert_eq!(out.value_at(0, 0), Value::Int64(99));
    // Aggregation over the indexed table falls back to a scan.
    let agg = session
        .sql("SELECT age, count(*) AS n FROM person GROUP BY age ORDER BY age LIMIT 1")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(agg.value_at(0, 0), Value::Int64(20));
}

#[test]
fn append_rows_batched_and_fine_grained() {
    let (session, indexed) = setup();
    let before = indexed.row_count();
    // Batched: a 100-row regular DataFrame.
    let rows: Vec<Vec<Value>> = (1000..1100)
        .map(|i| {
            vec![
                Value::Int64(i),
                Value::Utf8(format!("n{i}")),
                Value::Int64(30),
            ]
        })
        .collect();
    let batch_df = session.create_dataframe(person_schema(), rows);
    indexed.append_rows(&batch_df).unwrap();
    // Fine-grained: single-row DataFrames.
    for i in 1100..1110 {
        let one = session.create_dataframe(
            person_schema(),
            vec![vec![
                Value::Int64(i),
                Value::Utf8(format!("n{i}")),
                Value::Int64(31),
            ]],
        );
        indexed.append_rows(&one).unwrap();
    }
    assert_eq!(indexed.row_count(), before + 110);
    // New rows are immediately visible to indexed queries.
    let out = session
        .sql("SELECT name FROM person WHERE id = 1105")
        .unwrap();
    assert_eq!(out.count().unwrap(), 1);
}

#[test]
fn append_schema_mismatch_rejected() {
    let (session, indexed) = setup();
    let bad = session.create_dataframe(
        knows_schema(),
        vec![vec![Value::Int64(1), Value::Int64(2), Value::Int64(3)]],
    );
    assert!(indexed.append_rows(&bad).is_err());
}

#[test]
fn snapshot_df_is_repeatable_under_appends() {
    let (session, indexed) = setup();
    let snap = indexed.snapshot_df();
    let live = indexed.df();
    let n0 = snap.count().unwrap();
    indexed
        .append_row(&[
            Value::Int64(9999),
            Value::Utf8("late".into()),
            Value::Int64(1),
        ])
        .unwrap();
    assert_eq!(snap.count().unwrap(), n0, "frozen view must not move");
    assert_eq!(live.count().unwrap(), n0 + 1);
    let _ = session;
}

#[test]
fn frozen_joins_respect_the_snapshot() {
    let (session, indexed) = setup();
    let knows = session.table("knows").unwrap();
    let frozen = indexed.snapshot_df();
    let joined_before = frozen
        .join(&knows, vec![("id", "src")], JoinType::Inner)
        .unwrap();
    let n_before = joined_before.count().unwrap();
    // Frozen scans are not claimed by the indexed strategy (it would read
    // the live table); they fall back to the vanilla join.
    assert!(
        !joined_before.explain().unwrap().contains("IndexedJoin"),
        "{}",
        joined_before.explain().unwrap()
    );
    // Appends after the snapshot add matches for key 3 in the live table
    // but must not change the frozen join's answer.
    indexed
        .append_row(&[Value::Int64(3), Value::Utf8("late".into()), Value::Int64(0)])
        .unwrap();
    assert_eq!(joined_before.count().unwrap(), n_before);
    let live = indexed.join(&knows, "id", "src").unwrap();
    assert!(
        live.count().unwrap() > n_before,
        "live join sees the new row's matches"
    );
}

#[test]
fn concurrent_queries_during_append_stream() {
    let (session, indexed) = setup();
    let writer = {
        let indexed = indexed.clone();
        std::thread::spawn(move || {
            for i in 0..2000i64 {
                indexed
                    .append_row(&[
                        Value::Int64(10_000 + i),
                        Value::Utf8(format!("live{i}")),
                        Value::Int64(i % 50),
                    ])
                    .unwrap();
            }
        })
    };
    // Interactive lookups while the update stream runs (the demo scenario).
    for _ in 0..50 {
        let out = session
            .sql("SELECT name FROM person WHERE id = 250")
            .unwrap();
        assert_eq!(out.count().unwrap(), 1);
    }
    writer.join().unwrap();
    assert_eq!(indexed.row_count(), 2500);
    let out = session
        .sql("SELECT name FROM person WHERE id = 11999")
        .unwrap();
    assert_eq!(out.count().unwrap(), 1);
}

#[test]
fn broadcast_probe_when_small() {
    let (session, indexed) = setup();
    // A tiny probe side should take the broadcast path.
    let small = session
        .table("knows")
        .unwrap()
        .filter(col("src").eq(lit(3i64)))
        .unwrap()
        .cache()
        .unwrap();
    let joined = indexed.join(&small, "id", "src").unwrap();
    let plan = joined.explain().unwrap();
    assert!(plan.contains("IndexedJoin"), "{plan}");
    assert!(
        plan.contains("Broadcast") || !plan.contains("Shuffle"),
        "small probe should broadcast, not shuffle:\n{plan}"
    );
    assert_eq!(joined.count().unwrap(), 4, "person 3 has 4 edges");
}

#[test]
fn multi_version_lookup_counts_grow() {
    let (_, indexed) = setup();
    for v in 0..10 {
        indexed
            .append_row(&[
                Value::Int64(42),
                Value::Utf8(format!("v{v}")),
                Value::Int64(v),
            ])
            .unwrap();
        assert_eq!(
            indexed.get_rows_chunk(42i64).unwrap().len(),
            (v + 2) as usize
        );
    }
}

#[test]
fn indexed_ddl_create_insert_lookup() {
    let session = Session::new();
    install_indexed_ddl(&session, IndexConfig::default());
    session
        .sql("CREATE TABLE events (id BIGINT, name VARCHAR)")
        .unwrap();
    session
        .sql("INSERT INTO events VALUES (1, 'a'), (2, 'b'), (1, 'a2')")
        .unwrap();
    // Key-equality SELECT on the indexed (first) column pushes into the
    // scan, where IndexedSource answers it with a cTrie lookup.
    let df = session.sql("SELECT name FROM events WHERE id = 1").unwrap();
    let plan = df.explain().unwrap();
    assert!(plan.contains("pushed=[(id = 1)]"), "{plan}");
    assert_eq!(df.count().unwrap(), 2);
    // Duplicate CREATE is a typed error and leaves the table intact.
    let err = session
        .sql("CREATE TABLE events (id BIGINT)")
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, EngineError::TableAlreadyExists(_)), "{err}");
    let out = session.sql("SELECT * FROM events").unwrap();
    assert_eq!(out.count().unwrap(), 3);
    session.sql("DROP TABLE events").unwrap();
    let err = session.sql("SELECT * FROM events").map(|_| ()).unwrap_err();
    assert!(matches!(err, EngineError::TableNotFound(_)), "{err}");
}

#[test]
fn frozen_source_rejects_append_rows() {
    let (_, indexed) = setup();
    let live = IndexedSource::live(Arc::clone(indexed.table()));
    let frozen = IndexedSource::frozen(Arc::clone(indexed.table()));
    use idf_engine::catalog::TableSource;
    let row = vec![vec![
        Value::Int64(9001),
        Value::Utf8("new".into()),
        Value::Int64(1),
    ]];
    let err = frozen.append_rows(&row).unwrap_err();
    assert!(matches!(err, EngineError::Unsupported(_)), "{err}");
    assert_eq!(live.append_rows(&row).unwrap(), 1);
    assert_eq!(indexed.get_rows_chunk(9001i64).unwrap().len(), 1);
    // Typed validation comes from the shared check.
    let bad = vec![vec![Value::Int64(1)]];
    let err = live.append_rows(&bad).unwrap_err();
    assert!(matches!(err, EngineError::Type(_)), "{err}");
}

/// The trie matches a Float64 key by its bits, SQL by IEEE equality
/// (`0.0 = -0.0`, NaN equals nothing). So `=` and `IN` on a Float64 key
/// are not probed: the indexed table answers them exactly as the vanilla
/// one does, from a filter over the scan.
#[test]
fn float_key_filters_answer_as_vanilla() {
    let session = Session::new();
    let schema = Arc::new(Schema::new(vec![
        Field::new("f", DataType::Float64),
        Field::new("n", DataType::Int64),
    ]));
    let rows: Vec<Vec<Value>> = [0.0, -0.0, f64::NAN, 1.5, 2.0, 0.0, -0.0, 2.0]
        .iter()
        .zip(0..)
        .map(|(&f, n)| vec![Value::Float64(f), Value::Int64(n)])
        .collect();
    let chunk = Chunk::from_rows(&schema, &rows).unwrap();
    session.register_table(
        "plain",
        Arc::new(MemTable::from_chunk_partitioned(Arc::clone(&schema), chunk.clone(), 4).unwrap()),
    );
    session
        .dataframe_from_chunk(schema, chunk)
        .create_index("f")
        .unwrap()
        .cache()
        .register("indexed");
    let ns = |table: &str, predicate: &str| {
        let out = session
            .sql(&format!("SELECT n FROM {table} WHERE {predicate}"))
            .unwrap()
            .collect()
            .unwrap();
        let mut ns: Vec<Value> = (0..out.len()).map(|i| out.value_at(0, i)).collect();
        ns.sort();
        ns
    };
    for predicate in [
        "f = 0.0",
        "f = -0.0",
        "-0.0 = f",
        "f IN (0.0, 2.0)",
        "f IN (-0.0, 1.5)",
        "f NOT IN (0.0, 2.0)",
        "f = 0.0 / 0.0",
        "f = 2.0 AND f IN (2.0, 0.0)",
    ] {
        assert_eq!(
            ns("indexed", predicate),
            ns("plain", predicate),
            "{predicate}"
        );
    }
    assert_eq!(ns("indexed", "f = 0.0").len(), 4);
    let plan = session
        .sql("SELECT n FROM indexed WHERE f = 0.0")
        .unwrap()
        .explain()
        .unwrap();
    assert!(!plan.contains("pushed="), "{plan}");
}
