//! End-to-end SQL tests over the full stack: parse → bind → analyze →
//! optimize → plan → parallel execution.

use std::sync::Arc;

use idf_engine::catalog::{AppendTable, TableSource};
use idf_engine::prelude::*;

fn session() -> Session {
    let s = Session::new();
    let person_schema = Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("name", DataType::Utf8),
        Field::new("city", DataType::Utf8),
        Field::new("age", DataType::Int64),
    ]));
    let person_rows: Vec<Vec<Value>> = (0..1000)
        .map(|i| {
            vec![
                Value::Int64(i),
                Value::Utf8(format!("p{i}")),
                Value::Utf8(["ams", "sfo", "nyc"][(i % 3) as usize].to_string()),
                Value::Int64(18 + i % 60),
            ]
        })
        .collect();
    let chunk = Chunk::from_rows(&person_schema, &person_rows).unwrap();
    s.register_table(
        "person",
        Arc::new(MemTable::from_chunk_partitioned(person_schema, chunk, 4).unwrap()),
    );

    let knows_schema = Arc::new(Schema::new(vec![
        Field::new("src", DataType::Int64),
        Field::new("dst", DataType::Int64),
        Field::new("since", DataType::Int64),
    ]));
    let knows_rows: Vec<Vec<Value>> = (0..5000)
        .map(|i| {
            vec![
                Value::Int64(i % 1000),
                Value::Int64((i * 7 + 3) % 1000),
                Value::Int64(2000 + i % 20),
            ]
        })
        .collect();
    let chunk = Chunk::from_rows(&knows_schema, &knows_rows).unwrap();
    s.register_table(
        "knows",
        Arc::new(MemTable::from_chunk_partitioned(knows_schema, chunk, 4).unwrap()),
    );
    s
}

#[test]
fn point_select() {
    let s = session();
    let out = s
        .sql("SELECT name FROM person WHERE id = 42")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out.value_at(0, 0), Value::Utf8("p42".into()));
}

#[test]
fn select_star_with_limit() {
    let s = session();
    let out = s
        .sql("SELECT * FROM person LIMIT 5")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.len(), 5);
    assert_eq!(out.num_columns(), 4);
}

#[test]
fn range_filter_count() {
    let s = session();
    let out = s
        .sql("SELECT count(*) AS n FROM person WHERE age >= 18 AND age < 28")
        .unwrap()
        .collect()
        .unwrap();
    let Value::Int64(n) = out.value_at(0, 0) else {
        panic!()
    };
    // ages cycle 18..78, so 10 of every 60.
    assert_eq!(n, (0..1000).filter(|i| (18 + i % 60) < 28).count() as i64);
}

#[test]
fn join_two_tables() {
    let s = session();
    let out = s
        .sql(
            "SELECT p.name, k.dst FROM person p JOIN knows k ON p.id = k.src \
             WHERE p.id = 7",
        )
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.len(), 5, "person 7 has 5 outgoing edges");
    for r in 0..out.len() {
        assert_eq!(out.value_at(0, r), Value::Utf8("p7".into()));
    }
}

#[test]
fn group_by_having_order() {
    let s = session();
    let out = s
        .sql(
            "SELECT city, count(*) AS n, avg(age) AS a FROM person \
             GROUP BY city HAVING count(*) > 100 ORDER BY city",
        )
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.len(), 3);
    assert_eq!(out.value_at(0, 0), Value::Utf8("ams".into()));
    let Value::Int64(n) = out.value_at(1, 0) else {
        panic!()
    };
    assert_eq!(n, 334); // ceil(1000/3)
}

#[test]
fn order_by_desc_limit_topk() {
    let s = session();
    let out = s
        .sql("SELECT id FROM person ORDER BY id DESC LIMIT 3")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.len(), 3);
    assert_eq!(out.value_at(0, 0), Value::Int64(999));
    assert_eq!(out.value_at(0, 2), Value::Int64(997));
}

#[test]
fn left_join_preserves_unmatched() {
    let s = session();
    // dst values only go up to 999; join on a filtered right side.
    let out = s
        .sql(
            "SELECT p.id, k.src FROM person p \
             LEFT JOIN (SELECT src FROM knows WHERE src < 10) k ON p.id = k.src \
             WHERE p.id < 20",
        )
        .unwrap()
        .collect()
        .unwrap();
    // ids 0..10 match 5 edges each → 50 rows; ids 10..20 unmatched → 10 rows.
    assert_eq!(out.len(), 60);
    let nulls = (0..out.len())
        .filter(|&r| out.value_at(1, r) == Value::Null)
        .count();
    assert_eq!(nulls, 10);
}

#[test]
fn subquery_in_from() {
    let s = session();
    let out = s
        .sql(
            "SELECT city, n FROM \
             (SELECT city, count(*) AS n FROM person GROUP BY city) sub \
             WHERE n > 300 ORDER BY n DESC",
        )
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.len(), 3);
}

#[test]
fn self_join_with_aliases() {
    let s = session();
    let out = s
        .sql(
            "SELECT a.name, b.name FROM person a JOIN person b ON a.id = b.id \
             WHERE a.id = 1",
        )
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.len(), 1);
}

#[test]
fn arithmetic_and_aliases_in_select() {
    let s = session();
    let out = s
        .sql("SELECT id * 2 + 1 AS odd FROM person WHERE id = 10")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.value_at(0, 0), Value::Int64(21));
}

#[test]
fn aggregate_expression_in_select() {
    let s = session();
    let out = s
        .sql("SELECT count(*) * 2 AS double_n FROM person")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.value_at(0, 0), Value::Int64(2000));
}

#[test]
fn error_cases() {
    let s = session();
    assert!(s.sql("SELECT nope FROM person").is_err());
    assert!(s.sql("SELECT * FROM missing_table").is_err());
    assert!(s.sql("SELECT city FROM person GROUP BY age").is_err());
    assert!(s
        .sql("SELECT count(*) FROM person WHERE count(*) > 1")
        .is_err());
    assert!(s
        .sql("SELECT * FROM person JOIN knows ON person.id < knows.src")
        .is_err());
}

#[test]
fn explain_pushes_filters_and_prunes_columns() {
    let s = session();
    let df = s.sql("SELECT name FROM person WHERE age > 70").unwrap();
    let text = df.explain().unwrap();
    // Pruning should narrow the scan to name+age.
    assert!(text.contains("projection="), "{text}");
}

#[test]
fn is_null_and_boolean_literals() {
    let s = session();
    let out = s
        .sql("SELECT count(*) FROM person WHERE name IS NOT NULL AND TRUE")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.value_at(0, 0), Value::Int64(1000));
}

#[test]
fn cast_in_sql() {
    let s = session();
    let out = s
        .sql("SELECT CAST(id AS DOUBLE) / 4 AS q FROM person WHERE id = 1")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.value_at(0, 0), Value::Float64(0.25));
}

#[test]
fn distinct_deduplicates() {
    let s = session();
    let out = s
        .sql("SELECT DISTINCT city FROM person")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.len(), 3);
    let n = s
        .sql("SELECT count(*) FROM (SELECT DISTINCT city, age FROM person) d")
        .unwrap()
        .collect()
        .unwrap();
    // city = i%3 is determined by age = 18 + i%60 (3 divides 60), so the
    // distinct (city, age) pairs collapse to the 60 distinct ages.
    assert_eq!(n.value_at(0, 0), Value::Int64(60));
}

#[test]
fn in_list_predicate() {
    let s = session();
    let out = s
        .sql("SELECT count(*) FROM person WHERE city IN ('ams', 'nyc')")
        .unwrap()
        .collect()
        .unwrap();
    let Value::Int64(n) = out.value_at(0, 0) else {
        panic!()
    };
    assert_eq!(n, (0..1000).filter(|i| i % 3 != 1).count() as i64);
    let none = s
        .sql("SELECT count(*) FROM person WHERE id NOT IN (1, 2, 3)")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(none.value_at(0, 0), Value::Int64(997));
}

#[test]
fn like_patterns() {
    let s = session();
    // names are p0..p999; p1% matches p1, p1x, p1xx.
    let out = s
        .sql("SELECT count(*) FROM person WHERE name LIKE 'p1%'")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.value_at(0, 0), Value::Int64(111));
    let underscore = s
        .sql("SELECT count(*) FROM person WHERE name LIKE 'p_'")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(underscore.value_at(0, 0), Value::Int64(10));
    let not_like = s
        .sql("SELECT count(*) FROM person WHERE name NOT LIKE 'p%'")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(not_like.value_at(0, 0), Value::Int64(0));
}

#[test]
fn between_predicate() {
    let s = session();
    let out = s
        .sql("SELECT count(*) FROM person WHERE id BETWEEN 10 AND 19")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.value_at(0, 0), Value::Int64(10));
    let out = s
        .sql("SELECT count(*) FROM person WHERE id NOT BETWEEN 10 AND 989")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.value_at(0, 0), Value::Int64(20));
}

#[test]
fn scalar_functions() {
    let s = session();
    let out = s
        .sql(
            "SELECT upper(city) AS u, lower(name) AS l, length(name) AS n, \
                    abs(id - 999) AS a, coalesce(name, 'x') AS c \
             FROM person WHERE id = 1",
        )
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.value_at(0, 0), Value::Utf8("SFO".into()));
    assert_eq!(out.value_at(1, 0), Value::Utf8("p1".into()));
    assert_eq!(out.value_at(2, 0), Value::Int64(2));
    assert_eq!(out.value_at(3, 0), Value::Int64(998));
    assert_eq!(out.value_at(4, 0), Value::Utf8("p1".into()));
}

#[test]
fn scalar_function_type_errors() {
    let s = session();
    assert!(s.sql("SELECT upper(id) FROM person").is_err());
    assert!(s.sql("SELECT abs(name) FROM person").is_err());
    assert!(s.sql("SELECT length() FROM person").is_err());
    assert!(
        s.sql("SELECT id IN ('x') FROM person").is_err(),
        "IN type mismatch"
    );
    assert!(
        s.sql("SELECT id LIKE 'x' FROM person").is_err(),
        "LIKE over int"
    );
}

#[test]
fn scalar_functions_in_predicates_and_groups() {
    let s = session();
    let out = s
        .sql(
            "SELECT upper(city) AS u, count(*) AS n FROM person \
             WHERE length(name) >= 2 GROUP BY upper(city) ORDER BY u",
        )
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.len(), 3);
    assert_eq!(out.value_at(0, 0), Value::Utf8("AMS".into()));
}

#[test]
fn explain_analyze_reports_operator_metrics() {
    let s = session();
    let report = s
        .sql(
            "SELECT city, count(*) AS n FROM person WHERE age > 30 \
             GROUP BY city ORDER BY n DESC",
        )
        .unwrap()
        .explain_analyze()
        .unwrap();
    assert!(report.contains("== Metrics"), "{report}");
    assert!(report.contains("HashAggregate"), "{report}");
    assert!(report.contains("SourceScan"), "{report}");
    assert!(report.contains("Filter"), "{report}");
}

/// Regression: `instrument` used to time only `next()` on the returned
/// iterator, so a pipeline breaker's work — done inside `execute()` —
/// belonged to nobody (`HashAggregate time=0.001ms` on a 30 ms statement).
#[test]
fn explain_analyze_attributes_blocking_work_to_its_operator() {
    let s = Session::new();
    let schema = Arc::new(Schema::new(vec![
        Field::new("g", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]));
    let rows: Vec<Vec<Value>> = (0..100_000i64)
        .map(|i| vec![Value::Int64(i % 5000), Value::Int64(i)])
        .collect();
    let chunk = Chunk::from_rows(&schema, &rows).unwrap();
    // One partition: one thread, so self times add up to the wall time.
    s.register_table("t", Arc::new(MemTable::from_chunk(schema, chunk)));
    let df = s
        .sql("SELECT g, count(*), sum(v), max(v) FROM t GROUP BY g")
        .unwrap();
    let start = std::time::Instant::now();
    let (out, _plan, registry) = df.collect_instrumented(&s.new_query()).unwrap();
    let exec_ns = start.elapsed().as_nanos() as u64;
    assert_eq!(out.len(), 5000);
    let report = registry.report();
    let aggregate = report
        .iter()
        .find(|op| op.key.starts_with("HashAggregate"))
        .expect("aggregate ran");
    assert!(
        aggregate.elapsed_ns * 2 > exec_ns,
        "HashAggregate {} ns of {exec_ns} ns:\n{}",
        aggregate.elapsed_ns,
        registry.render()
    );
    let attributed: u64 = report.iter().map(|op| op.elapsed_ns).sum();
    assert!(
        attributed <= exec_ns && attributed * 5 >= exec_ns * 4,
        "operators account for {attributed} ns of {exec_ns} ns:\n{}",
        registry.render()
    );
}

/// The width of every `SourceScan` in a statement's physical plan, in plan
/// order: the length of its `projection=[..]` list, or `None` for a scan
/// that decodes every column.
fn scan_widths(s: &Session, sql: &str) -> Vec<Option<usize>> {
    let plan = s.sql(sql).unwrap().explain().unwrap();
    let physical = &plan[plan.find("== Physical ==").unwrap()..];
    physical
        .lines()
        .filter(|l| l.trim_start().starts_with("SourceScan"))
        .map(|l| {
            let list = l.split_once("projection=[")?.1.split_once(']')?.0;
            Some(list.split(',').filter(|c| !c.trim().is_empty()).count())
        })
        .collect()
}

/// Regression: a table alias on a single-table query wraps the scan in an
/// identity projection; with a filter between the two, projection pruning
/// stopped there and the scan decoded every column.
#[test]
fn table_alias_does_not_defeat_projection_pushdown() {
    let s = session();
    for (aliased, plain, widths) in [
        (
            "SELECT count(*) FROM person p WHERE p.age = 30",
            "SELECT count(*) FROM person WHERE age = 30",
            vec![Some(1)],
        ),
        (
            "SELECT p.city, max(p.age) FROM person p WHERE p.id > 10 GROUP BY p.city",
            "SELECT city, max(age) FROM person WHERE id > 10 GROUP BY city",
            vec![Some(3)],
        ),
        (
            "SELECT p.city, count(*) FROM person p GROUP BY p.city",
            "SELECT city, count(*) FROM person GROUP BY city",
            vec![Some(1)],
        ),
        (
            "SELECT p.name FROM person p JOIN knows k ON k.src = p.id WHERE k.since > 2010",
            "SELECT name FROM person JOIN knows ON src = id WHERE since > 2010",
            vec![Some(2), Some(2)],
        ),
    ] {
        assert_eq!(scan_widths(&s, aliased), widths, "{aliased}");
        assert_eq!(scan_widths(&s, plain), widths, "{plain}");
        let rows = |sql: &str| {
            let mut rows = s.sql(sql).unwrap().collect().unwrap().to_rows();
            rows.sort();
            rows
        };
        assert_eq!(rows(aliased), rows(plain), "{aliased}");
    }
}

#[test]
fn ddl_insert_select_roundtrip() {
    let s = session();
    s.sql("CREATE TABLE events (id BIGINT, kind VARCHAR, score DOUBLE, at TIMESTAMP)")
        .unwrap()
        .collect()
        .unwrap();
    let n = s
        .sql("INSERT INTO events VALUES (1, 'click', 0.5, 1000), (2, 'view', 2, 2000), (3, NULL, NULL, 3000)")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(n.value_at(0, 0), Value::Int64(3));
    let out = s
        .sql("SELECT id, kind FROM events WHERE at >= 2000 ORDER BY id")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.len(), 2);
    assert_eq!(out.value_at(0, 0), Value::Int64(2));
    // Created tables join against pre-registered ones.
    let joined = s
        .sql("SELECT p.name FROM events e JOIN person p ON e.id = p.id")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(joined.len(), 3);
    // Duplicate create is a typed error; drop removes the table.
    let err = s
        .sql("CREATE TABLE events (id BIGINT)")
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, EngineError::TableAlreadyExists(_)), "{err:?}");
    s.sql("DROP TABLE events").unwrap().collect().unwrap();
    assert!(s.sql("SELECT * FROM events").is_err());
    assert!(s.sql("DROP TABLE events").is_err());
    // INSERT into a read-only source and type errors are rejected.
    let err = s
        .sql("INSERT INTO person VALUES (1, 'x', 'ams', 30)")
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, EngineError::Unsupported(_)), "{err:?}");
}

#[test]
fn insert_rejects_mistyped_rows() {
    let s = Session::new();
    s.sql("CREATE TABLE t (id BIGINT, name VARCHAR)")
        .unwrap()
        .collect()
        .unwrap();
    let err = s.sql("INSERT INTO t VALUES (1)").map(|_| ()).unwrap_err();
    assert!(matches!(err, EngineError::Type(_)), "{err:?}");
    let err = s
        .sql("INSERT INTO t VALUES ('oops', 'x')")
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, EngineError::Type(_)), "{err:?}");
    let err = s
        .sql("INSERT INTO t VALUES (1 + id, 'x')")
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, EngineError::Sql(_)), "{err:?}");
    // Failed inserts leave the table unchanged.
    let out = s.sql("SELECT count(*) FROM t").unwrap().collect().unwrap();
    assert_eq!(out.value_at(0, 0), Value::Int64(0));
    let err = s
        .sql("CREATE TABLE bad (id WIBBLE)")
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, EngineError::Sql(_)), "{err:?}");
}

#[test]
fn update_and_delete_end_to_end() {
    let s = Session::new();
    s.sql("CREATE TABLE accounts (id BIGINT, owner VARCHAR, balance BIGINT)")
        .unwrap()
        .collect()
        .unwrap();
    s.sql("INSERT INTO accounts VALUES (1, 'ada', 100), (2, 'bob', 200), (3, 'cy', 300)")
        .unwrap()
        .collect()
        .unwrap();
    // UPDATE with an expression over the row's current columns.
    let out = s
        .sql("UPDATE accounts SET balance = balance + 50 WHERE id <= 2")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.value_at(0, 0), Value::Int64(2), "rows affected");
    let out = s
        .sql("SELECT id, balance FROM accounts ORDER BY id")
        .unwrap()
        .collect()
        .unwrap();
    let got: Vec<Value> = (0..3).map(|r| out.value_at(1, r)).collect();
    assert_eq!(got, [150i64, 250, 300].map(Value::Int64).to_vec());
    // Multi-column SET.
    s.sql("UPDATE accounts SET owner = 'eve', balance = 0 WHERE id = 3")
        .unwrap()
        .collect()
        .unwrap();
    let out = s
        .sql("SELECT owner, balance FROM accounts WHERE id = 3")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.value_at(0, 0), Value::Utf8("eve".into()));
    assert_eq!(out.value_at(1, 0), Value::Int64(0));
    // DELETE with predicate; rows-affected reported.
    let out = s
        .sql("DELETE FROM accounts WHERE balance = 0")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.value_at(0, 0), Value::Int64(1));
    let out = s
        .sql("SELECT count(*) FROM accounts")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.value_at(0, 0), Value::Int64(2));
    // WHERE matching nothing affects nothing.
    let out = s
        .sql("DELETE FROM accounts WHERE id = 999")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.value_at(0, 0), Value::Int64(0));
    // WHERE-less forms touch every row.
    let out = s
        .sql("UPDATE accounts SET balance = 7")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.value_at(0, 0), Value::Int64(2));
    let out = s.sql("DELETE FROM accounts").unwrap().collect().unwrap();
    assert_eq!(out.value_at(0, 0), Value::Int64(2));
    let out = s
        .sql("SELECT count(*) FROM accounts")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.value_at(0, 0), Value::Int64(0));
}

#[test]
fn dml_errors_are_typed() {
    let s = session();
    // person is a read-only MemTable.
    let err = s
        .sql("UPDATE person SET age = 1 WHERE id = 1")
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, EngineError::Unsupported(_)), "{err:?}");
    let err = s.sql("DELETE FROM person").map(|_| ()).unwrap_err();
    assert!(matches!(err, EngineError::Unsupported(_)), "{err:?}");
    // Unknown table / column / duplicate assignment.
    let err = s.sql("DELETE FROM nope").map(|_| ()).unwrap_err();
    assert!(matches!(err, EngineError::TableNotFound(_)), "{err:?}");
    let err = s.sql("UPDATE person SET nope = 1").map(|_| ()).unwrap_err();
    assert!(matches!(err, EngineError::Sql(_)), "{err:?}");
    let err = s
        .sql("UPDATE person SET age = 1, age = 2")
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, EngineError::Sql(_)), "{err:?}");
    // COMPACT without the subsystem installed is typed, not a panic.
    let err = s.sql("COMPACT").map(|_| ()).unwrap_err();
    assert!(matches!(err, EngineError::Unsupported(_)), "{err:?}");
    let err = s.sql("COMPACT person").map(|_| ()).unwrap_err();
    assert!(matches!(err, EngineError::Unsupported(_)), "{err:?}");
}

/// The three `message*` names of the indexed SNB deployment are one row
/// store probed through three indexes: DML issued through
/// `message_by_creator` is seen through every name, and SQ2/SQ4/SQ7 under
/// each name agree with a vanilla twin that took the same statements.
/// `EXPLAIN` names the probed index and its fan-out.
#[test]
fn dml_through_one_message_name_is_seen_through_all_three() {
    let data = idf_snb::generate(idf_snb::SnbConfig::with_scale(0.05)).unwrap();
    let indexed = Session::new();
    idf_snb::register_indexed(&indexed, &data).unwrap();
    let vanilla = Session::new();
    idf_snb::register_vanilla(&vanilla, &data).unwrap();
    let message = Arc::new(AppendTable::new(idf_snb::gen::message_schema()));
    message.append_rows(&data.message.to_rows()).unwrap();
    for name in ["message", "message_by_creator", "message_by_reply"] {
        vanilla.register_table(name, Arc::clone(&message) as Arc<dyn TableSource>);
    }

    // A message with replies, its author, and some other author.
    let rows = data.message.to_rows();
    let replied = rows.iter().find_map(|r| r[6].as_i64()).unwrap();
    let parent = rows.iter().find(|r| r[0] == Value::Int64(replied)).unwrap();
    let author = parent[4].as_i64().unwrap();
    let other = rows
        .iter()
        .filter_map(|r| r[4].as_i64())
        .find(|&c| c != author)
        .unwrap();

    let p = idf_engine::config::default_parallelism();
    let plan = indexed
        .sql(&format!(
            "SELECT id, content, creation_date FROM message_by_creator WHERE creator_id = {author}"
        ))
        .unwrap()
        .explain()
        .unwrap();
    let scan = format!(
        "SourceScan: message_by_creator projection=[0, 1, 3] index=creator_id \
         pushed=[(creator_id = {author})] partitions={p}/{p}"
    );
    assert!(plan.contains(&scan), "{plan}");
    let plan = indexed
        .sql(&format!("SELECT content FROM message WHERE id = {replied}"))
        .unwrap()
        .explain()
        .unwrap();
    assert!(plan.contains("index=id pushed=[(id = "), "{plan}");
    assert!(plan.contains(&format!("partitions=1/{p}")), "{plan}");

    let sq2 = |t: &str, c: i64| {
        format!(
            "SELECT id, content, creation_date FROM {t} WHERE creator_id = {c} \
             ORDER BY creation_date DESC, id DESC LIMIT 10"
        )
    };
    let sq4 = |t: &str, m: i64| format!("SELECT creation_date, content FROM {t} WHERE id = {m}");
    let sq7 = |t: &str, m: i64| {
        format!(
            "SELECT r.id, r.content, r.creation_date, p.id, p.first_name, p.last_name \
             FROM {t} r JOIN person p ON r.creator_id = p.id WHERE r.reply_of_id = {m} \
             ORDER BY r.creation_date DESC, r.id"
        )
    };
    let rows_of = |s: &Session, sql: &str| s.sql(sql).unwrap().collect().unwrap().to_rows();
    let agree = |stage: &str| {
        for t in ["message", "message_by_creator", "message_by_reply"] {
            for sql in [
                sq2(t, author),
                sq2(t, other),
                sq4(t, replied),
                sq7(t, replied),
            ] {
                assert_eq!(
                    rows_of(&indexed, &sql),
                    rows_of(&vanilla, &sql),
                    "{stage}: {sql}"
                );
            }
        }
    };
    agree("fresh");
    assert!(!rows_of(&indexed, &sq7("message", replied)).is_empty());
    for dml in [
        format!("UPDATE message_by_creator SET creator_id = {other} WHERE id = {replied}"),
        format!("UPDATE message_by_creator SET content = 'edited' WHERE id = {replied}"),
        format!("DELETE FROM message_by_creator WHERE creator_id = {author}"),
    ] {
        assert_eq!(rows_of(&indexed, &dml), rows_of(&vanilla, &dml), "{dml}");
        agree(&dml);
    }
    assert!(rows_of(&indexed, &sq2("message_by_reply", author)).is_empty());
}
