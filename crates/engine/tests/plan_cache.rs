//! The session plan cache must be invisible except in latency: a statement
//! answered from a cached, parameterized plan returns what the same
//! statement returns when it is parsed, bound and optimized as written —
//! and a cached plan never outlives the catalog state it was bound
//! against.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use idf_engine::logical::LogicalPlan;
use idf_engine::optimizer::OptimizerRule;
use idf_engine::physical::display_exec;
use idf_engine::prelude::*;
use idf_engine::session::SessionExtension;
use idf_engine::sql::{binder, parse_statement, SelectStmt, Statement, PLAN_CACHE_CAPACITY};
use idf_snb::queries::{self, QueryParams};
use idf_snb::{generate, SnbConfig};

/// What a statement produces: its rows as a sorted multiset plus the
/// output column names, or the fact that it failed.
#[derive(Debug, PartialEq)]
enum Outcome {
    Rows(Vec<String>, Vec<Vec<Value>>),
    Failed,
}

fn outcome_of(df: Result<DataFrame>) -> Outcome {
    let Ok(df) = df else { return Outcome::Failed };
    let names = df.schema().fields.iter().map(|f| f.name.clone()).collect();
    match df.collect() {
        Ok(chunk) => {
            let mut rows = chunk.to_rows();
            rows.sort();
            Outcome::Rows(names, rows)
        }
        Err(_) => Outcome::Failed,
    }
}

/// The statement planned as written, bypassing the cache: parse, bind,
/// and let `collect` optimize.
fn uncached(session: &Session, sql: &str) -> Result<DataFrame> {
    match parse_statement(sql)? {
        Statement::Select(stmt) => binder::bind(session, &stmt),
        _ => session.sql(sql),
    }
}

fn physical(df: &DataFrame) -> String {
    display_exec(df.physical_plan().unwrap().as_ref())
}

#[test]
fn snb_reads_answered_from_the_cache_equal_uncached_ones() {
    let data = generate(SnbConfig::with_scale(0.1)).unwrap();
    let session = Session::new();
    idf_snb::register_indexed(&session, &data).unwrap();
    let params = |i: u64| {
        QueryParams::nth(
            i,
            data.max_person_id,
            data.max_message_id,
            data.config.forums as i64,
        )
    };
    type Read = fn(&Session, &QueryParams) -> Result<DataFrame>;
    let reads: Vec<(&str, Read)> = vec![
        ("SQ1", queries::sq1),
        ("SQ2", queries::sq2),
        ("SQ3", queries::sq3),
        ("SQ4", queries::sq4),
        ("SQ5", queries::sq5),
        ("SQ6", queries::sq6),
        ("SQ7", queries::sq7),
        ("CQ1", queries::cq1),
        ("CQ2", queries::cq2),
        ("CQ3", queries::cq3),
    ];
    // Every shape is cached by a first run with other literals.
    for (_, read) in &reads {
        read(&session, &params(1000)).unwrap().collect().unwrap();
    }
    assert_eq!(session.plan_cache_len(), reads.len());
    for i in 0..12 {
        let p = params(i);
        for (name, read) in &reads {
            let hit = read(&session, &p).unwrap();
            let sql = hit.sql_text().unwrap().to_string();
            let cold = uncached(&session, &sql).unwrap();
            if name.starts_with("SQ") {
                assert_eq!(physical(&hit), physical(&cold), "{name} {p:?}");
            }
            assert_eq!(outcome_of(Ok(hit)), outcome_of(Ok(cold)), "{name} {p:?}");
        }
    }
    assert_eq!(session.plan_cache_len(), reads.len(), "no new shapes");
}

fn kv_session() -> Session {
    let s = Session::new();
    let schema = Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("name", DataType::Utf8),
        Field::new("age", DataType::Int64),
    ]));
    let rows: Vec<Vec<Value>> = (-5..10)
        .map(|i| {
            vec![
                Value::Int64(i),
                Value::Utf8(format!("p{i}")),
                Value::Int64(20 + i % 3),
            ]
        })
        .collect();
    let chunk = Chunk::from_rows(&schema, &rows).unwrap();
    s.register_table(
        "t",
        Arc::new(MemTable::from_chunk_partitioned(schema, chunk, 2).unwrap()),
    );
    s
}

/// The `sql_junk` corpus: its seed statements, every truncation of them,
/// and every single-character mangling.
fn junk_corpus() -> Vec<String> {
    const SEEDS: &[&str] = &[
        "SELECT id, name FROM t WHERE id = 1",
        "SELECT * FROM t WHERE name LIKE 'p%' ORDER BY age DESC LIMIT 3",
        "SELECT age, count(*) FROM t GROUP BY age HAVING count(*) > 1",
        "SELECT a.id FROM t a JOIN t b ON a.id = b.age",
        "SELECT x FROM (SELECT id AS x FROM t) sub WHERE x IN (1, 2, 3)",
        "SELECT CAST(id AS DOUBLE) FROM t WHERE id BETWEEN 1 AND 5",
        "SELECT id FROM t WHERE name = 'it''s -- tricky'",
    ];
    let junk = ['\'', '(', ')', '.', '-', '%', 'é', '\u{0}', '🔥', '\\'];
    let mut corpus = Vec::new();
    for seed in SEEDS {
        corpus.push(seed.to_string());
        for (end, _) in seed.char_indices() {
            corpus.push(seed[..end].to_string());
        }
        for pos in 0..seed.chars().count() {
            for j in junk {
                corpus.push(
                    seed.chars()
                        .enumerate()
                        .map(|(i, c)| if i == pos { j } else { c })
                        .collect(),
                );
            }
        }
    }
    corpus
}

#[test]
fn junk_corpus_gets_the_same_answer_cached_and_uncached() {
    let session = kv_session();
    for sql in junk_corpus() {
        let cold = outcome_of(uncached(&session, &sql));
        // First through the cache (a miss that fills it), then a hit.
        for pass in ["miss", "hit"] {
            assert_eq!(outcome_of(session.sql(&sql)), cold, "{pass}: {sql:?}");
        }
    }
    assert!(session.plan_cache_len() <= PLAN_CACHE_CAPACITY);
}

#[test]
fn literals_of_different_types_or_counts_never_share_a_plan() {
    let session = kv_session();
    let statements = [
        "SELECT name FROM t WHERE id = 5",
        "SELECT name FROM t WHERE id = -5",
        "SELECT name FROM t WHERE id = '5'",
        "SELECT name FROM t WHERE id = 5.0",
        "SELECT name FROM t WHERE id = 5.5",
        "SELECT name FROM t WHERE id = NULL",
        "SELECT name FROM t WHERE id IN (5)",
        "SELECT name FROM t WHERE id IN (5, 6)",
        "SELECT name FROM t WHERE id IN (5, 6, 5)",
        "SELECT name FROM t WHERE id IN (5, NULL)",
        "SELECT name FROM t WHERE id IN (5, 6.0)",
        "SELECT name FROM t WHERE id NOT IN (5, 6)",
        "SELECT name FROM t WHERE name = '5'",
        "SELECT name FROM t WHERE name = 5",
        "SELECT name FROM t WHERE age > 20 AND id <= 3",
        "SELECT name FROM t WHERE age > 20.5 AND id <= 3",
    ];
    // Interleave so every statement runs after each other's plan is
    // cached, twice.
    for round in 0..2 {
        for sql in statements {
            let (cached, cold) = (session.sql(sql), uncached(&session, sql));
            // Binding folds what the parameter kept the optimizer from
            // folding (`CAST(?0 AS DOUBLE)`, duplicate IN entries), so
            // even the plans agree.
            if let (Ok(cached), Ok(cold)) = (&cached, &cold) {
                assert_eq!(physical(cached), physical(cold), "round {round}: {sql}");
            }
            assert_eq!(outcome_of(cached), outcome_of(cold), "round {round}: {sql}");
        }
    }
    // Spot checks of what those answers are.
    let names = |sql: &str| match outcome_of(session.sql(sql)) {
        Outcome::Rows(_, rows) => rows.len(),
        Outcome::Failed => usize::MAX,
    };
    assert_eq!(names("SELECT name FROM t WHERE id = 5"), 1);
    assert_eq!(names("SELECT name FROM t WHERE id = -5"), 1);
    assert_eq!(names("SELECT name FROM t WHERE id = 5.0"), 1);
    assert_eq!(names("SELECT name FROM t WHERE id = 5.5"), 0);
    assert_eq!(names("SELECT name FROM t WHERE id = '5'"), usize::MAX);
    assert_eq!(names("SELECT name FROM t WHERE id IN (5, 6, 5)"), 2);
}

#[test]
fn a_cached_plan_is_reused_for_other_literals() {
    let session = kv_session();
    for id in -5..10 {
        let sql = format!("SELECT name FROM t WHERE id = {id}");
        let Outcome::Rows(_, rows) = outcome_of(session.sql(&sql)) else {
            panic!("{sql} failed");
        };
        assert_eq!(rows, vec![vec![Value::Utf8(format!("p{id}"))]]);
    }
    assert_eq!(session.plan_cache_len(), 1, "one shape, one plan");
    // The select list, LIMIT and a literal's type are part of the shape.
    session.sql("SELECT age FROM t WHERE id = 1").unwrap();
    session
        .sql("SELECT name FROM t WHERE id = 1 LIMIT 1")
        .unwrap();
    session
        .sql("SELECT name FROM t WHERE id = 1 LIMIT 2")
        .unwrap();
    session.sql("SELECT name FROM t WHERE id = 1.0").unwrap();
    assert_eq!(session.plan_cache_len(), 5);
}

/// A bound parameter reaches the comparison and arithmetic kernels as a
/// scalar operand, on either side of the operator: the hit must equal the
/// statement planned as written, for literals at the edges of `BIGINT`
/// (overflow and division by zero become NULL on both paths).
#[test]
fn parameters_on_either_side_of_an_operator_match_the_uncached_answer() {
    let session = kv_session();
    let shapes: [fn(i64) -> String; 6] = [
        |x| format!("SELECT id FROM t WHERE id > {x}"),
        |x| format!("SELECT id FROM t WHERE {x} >= id"),
        |x| format!("SELECT id FROM t WHERE {x} - age <= id AND id <> {x}"),
        |x| format!("SELECT id + {x}, {x} - id, id * {x} FROM t"),
        |x| format!("SELECT id FROM t WHERE id % {x} = 0 OR {x} / id > 1"),
        |x| format!("SELECT count(*) FROM t WHERE age + {x} > 21"),
    ];
    let literals = [-7, 0, 1, 3, 21, i64::MAX];
    for shape in shapes {
        for x in literals {
            let sql = shape(x);
            let cold = outcome_of(uncached(&session, &sql));
            assert_ne!(cold, Outcome::Failed, "{sql}");
            // A miss that fills the cache (or a hit on an earlier
            // literal's plan), then certainly a hit.
            for pass in ["first", "hit"] {
                assert_eq!(outcome_of(session.sql(&sql)), cold, "{pass}: {sql}");
            }
        }
    }
    // And against the data itself: ids run from -5 to 9.
    for (sql, ids) in [
        ("SELECT id FROM t WHERE id > 6", vec![7, 8, 9]),
        ("SELECT id FROM t WHERE -4 >= id", vec![-5, -4]),
    ] {
        let rows = ids.into_iter().map(|i| vec![Value::Int64(i)]).collect();
        let names = vec!["id".to_string()];
        assert_eq!(
            outcome_of(session.sql(sql)),
            Outcome::Rows(names, rows),
            "{sql}"
        );
    }
}

#[test]
fn explain_reports_the_cache_without_filling_it() {
    let session = kv_session();
    let explain = |sql: &str| {
        let out = session.sql(sql).unwrap().collect().unwrap();
        (0..out.len())
            .map(|r| out.value_at(0, r).to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let text = explain("EXPLAIN SELECT name FROM t WHERE id = 3");
    assert!(text.ends_with("plan cache: miss"), "{text}");
    assert_eq!(session.plan_cache_len(), 0, "EXPLAIN bypasses the cache");
    session.sql("SELECT name FROM t WHERE id = 4").unwrap();
    let text = explain("EXPLAIN SELECT name FROM t WHERE id = 3");
    assert!(text.ends_with("plan cache: hit"), "{text}");
    assert!(
        text.contains("(id = 3)"),
        "the statement's own literal: {text}"
    );
    let text = explain("EXPLAIN ANALYZE SELECT name FROM t WHERE id = 3");
    assert!(text.ends_with("plan cache: hit"), "{text}");
}

/// The normalizer tracks clauses by keyword, so a column that is *named*
/// like one can get a select-list literal lifted. Such a plan is not
/// cached: the literal's text names an output column.
#[test]
fn a_parameter_that_would_name_a_column_is_not_cached() {
    let session = Session::new();
    session.sql("CREATE TABLE w (on BIGINT)").unwrap();
    session.sql("INSERT INTO w VALUES (5), (6)").unwrap();
    for literal in [5, 6] {
        let sql = format!("SELECT on = {literal} FROM w");
        let df = session.sql(&sql).unwrap();
        assert_eq!(column_names(&df), [format!("on = {literal}")]);
        assert_eq!(outcome_of(Ok(df)), outcome_of(uncached(&session, &sql)));
    }
    assert_eq!(session.plan_cache_len(), 0);
    let out = session
        .sql("EXPLAIN SELECT on = 5 FROM w")
        .unwrap()
        .collect()
        .unwrap();
    let last = out.value_at(0, out.len() - 1).to_string();
    assert_eq!(last, "plan cache: bypass");
}

fn int_schema(columns: &[&str]) -> SchemaRef {
    Arc::new(Schema::new(
        columns
            .iter()
            .map(|c| Field::new(*c, DataType::Int64))
            .collect(),
    ))
}

fn column_names(df: &DataFrame) -> Vec<String> {
    df.schema().fields.iter().map(|f| f.name.clone()).collect()
}

#[test]
fn drop_and_recreate_with_another_schema_invalidates() {
    let session = Session::new();
    session.sql("CREATE TABLE t (id BIGINT, a BIGINT)").unwrap();
    session.sql("INSERT INTO t VALUES (1, 10)").unwrap();
    let df = session.sql("SELECT * FROM t WHERE id = 1").unwrap();
    assert_eq!(column_names(&df), ["id", "a"]);
    assert_eq!(session.plan_cache_len(), 1);
    session.sql("DROP TABLE t").unwrap();
    assert!(session.sql("SELECT * FROM t WHERE id = 1").is_err());
    session
        .sql("CREATE TABLE t (id BIGINT, b VARCHAR, c BIGINT)")
        .unwrap();
    session.sql("INSERT INTO t VALUES (1, 'x', 7)").unwrap();
    let df = session.sql("SELECT * FROM t WHERE id = 1").unwrap();
    assert_eq!(column_names(&df), ["id", "b", "c"]);
    assert_eq!(
        df.collect().unwrap().to_rows(),
        vec![vec![
            Value::Int64(1),
            Value::Utf8("x".into()),
            Value::Int64(7)
        ]]
    );
    // Replacing a registration in place invalidates too.
    session.register_table(
        "t",
        Arc::new(MemTable::from_chunk(
            int_schema(&["id", "z"]),
            Chunk::from_rows(&int_schema(&["id", "z"]), &[]).unwrap(),
        )),
    );
    let df = session.sql("SELECT * FROM t WHERE id = 1").unwrap();
    assert_eq!(column_names(&df), ["id", "z"]);
}

/// A views subsystem in miniature: a view is a table registered under its
/// name (which is how `idf-views` plans reads of a view too).
struct TableViews;

impl SessionExtension for TableViews {
    fn name(&self) -> &str {
        "table-views"
    }

    fn create_view(
        &self,
        session: &Session,
        name: &str,
        _query: &SelectStmt,
    ) -> Result<Option<()>> {
        let schema = int_schema(&["id", "total"]);
        let chunk = Chunk::from_rows(&schema, &[vec![Value::Int64(1), Value::Int64(42)]])?;
        session.register_table_new(name, Arc::new(MemTable::from_chunk(schema, chunk)))?;
        Ok(Some(()))
    }

    fn drop_view(&self, session: &Session, name: &str) -> Result<Option<()>> {
        session.drop_table(name).map(Some)
    }
}

#[test]
fn creating_and_dropping_a_materialized_view_invalidates() {
    let session = kv_session();
    session.install_extension(Arc::new(TableViews));
    let read = "SELECT total FROM v WHERE id = 1";
    assert!(session.sql(read).is_err());
    session.sql("SELECT name FROM t WHERE id = 1").unwrap();
    assert_eq!(session.plan_cache_len(), 1);
    session
        .sql("CREATE MATERIALIZED VIEW v AS SELECT id, count(*) AS total FROM t GROUP BY id")
        .unwrap();
    let rows = session.sql(read).unwrap().collect().unwrap().to_rows();
    assert_eq!(rows, vec![vec![Value::Int64(42)]]);
    // The view's creation emptied the cache; only its read is in it now.
    assert_eq!(session.plan_cache_len(), 1);
    session.sql("DROP MATERIALIZED VIEW v").unwrap();
    assert!(session.sql(read).is_err(), "a dropped view must not answer");
}

/// Replaces every plan by an empty relation of the same schema.
struct EmptyEverything;

impl OptimizerRule for EmptyEverything {
    fn name(&self) -> &str {
        "empty_everything"
    }

    fn optimize(&self, plan: &LogicalPlan) -> Result<LogicalPlan> {
        Ok(LogicalPlan::Values {
            schema: plan.schema(),
            rows: vec![],
        })
    }
}

#[test]
fn registering_a_rule_invalidates() {
    let session = kv_session();
    let sql = "SELECT name FROM t WHERE id = 1";
    assert_eq!(session.sql(sql).unwrap().collect().unwrap().len(), 1);
    session.register_rule(Arc::new(EmptyEverything));
    assert_eq!(
        session.sql(sql).unwrap().collect().unwrap().len(),
        0,
        "the plan optimized without the rule was served again"
    );
}

#[test]
fn readers_never_see_a_schema_older_than_the_last_completed_ddl() {
    const READERS: usize = 8;
    const GENERATIONS: u64 = 150;
    let session = Session::new();
    session
        .sql("CREATE TABLE t (id BIGINT, c0 BIGINT)")
        .unwrap();
    // The generation whose CREATE has completed; column `c<n>` names it.
    let completed = AtomicU64::new(0);
    let start = Barrier::new(READERS + 1);
    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let (session, completed, start) = (&session, &completed, &start);
            scope.spawn(move || {
                start.wait();
                let mut i = reader as u64;
                loop {
                    let before = completed.load(Ordering::SeqCst);
                    if before >= GENERATIONS {
                        break;
                    }
                    i += READERS as u64;
                    // Dropped-but-not-yet-recreated is a legal moment.
                    let Ok(df) = session.sql(&format!("SELECT * FROM t WHERE id = {i}")) else {
                        continue;
                    };
                    let column = df.schema().field(1).name.clone();
                    let seen: u64 = column[1..].parse().unwrap();
                    assert!(
                        seen >= before,
                        "generation {before} was complete, yet the plan still reads {column}"
                    );
                    let _ = df.collect();
                }
            });
        }
        start.wait();
        for generation in 1..=GENERATIONS {
            session.sql("DROP TABLE t").unwrap();
            session
                .sql(&format!("CREATE TABLE t (id BIGINT, c{generation} BIGINT)"))
                .unwrap();
            completed.store(generation, Ordering::SeqCst);
        }
    });
}

#[test]
fn never_repeated_shapes_leave_the_cache_at_its_capacity() {
    let session = kv_session();
    for i in 0..10_000 {
        session
            .sql(&format!("SELECT id AS shape_{i} FROM t WHERE id = 1"))
            .unwrap();
        assert!(session.plan_cache_len() <= PLAN_CACHE_CAPACITY);
    }
    assert_eq!(session.plan_cache_len(), PLAN_CACHE_CAPACITY);
}
