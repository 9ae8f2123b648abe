//! Partitioning-aware planning over the Indexed DataFrame: an aggregate or
//! join on the indexed key runs where the rows already are (no exchange,
//! one phase); everything else aggregates partially below the exchange and
//! merges above it — and either way the answer equals the vanilla engine's,
//! as a multiset, through UPDATE/DELETE/COMPACT and beside an appender.

use std::sync::Arc;

use idf_core::prelude::*;
use idf_engine::prelude::*;

fn knows_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        Field::new("person1_id", DataType::Int64),
        Field::new("person2_id", DataType::Int64),
        Field::new("weight", DataType::Int64),
    ]))
}

fn knows_rows(n: i64) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            vec![
                Value::Int64(i % 97),
                Value::Int64((i * 13 + 1) % 89),
                Value::Int64(i % 7),
            ]
        })
        .collect()
}

/// A session (4 target partitions, broadcasts only under 100 rows) with
/// `knows` indexed on `person1_id` over `partitions` hash partitions and
/// the same rows as the vanilla `knows_plain`.
fn setup(partitions: usize) -> (Session, IndexedDataFrame) {
    let session = Session::with_config(EngineConfig {
        target_partitions: 4,
        broadcast_threshold_rows: 100,
        ..Default::default()
    });
    let chunk = Chunk::from_rows(&knows_schema(), &knows_rows(3000)).unwrap();
    session.register_table(
        "knows_plain",
        Arc::new(MemTable::from_chunk_partitioned(knows_schema(), chunk, 4).unwrap()),
    );
    let indexed = session
        .table("knows_plain")
        .unwrap()
        .create_index_with(
            "person1_id",
            IndexConfig {
                num_partitions: partitions,
                ..Default::default()
            },
        )
        .unwrap();
    indexed.register("knows");
    (session, indexed)
}

fn physical(session: &Session, sql: &str) -> String {
    let plan = session.sql(sql).unwrap().explain().unwrap();
    plan[plan.find("== Physical ==").expect("physical section")..].to_string()
}

fn sorted(session: &Session, sql: &str) -> Vec<Vec<Value>> {
    let mut rows = session.sql(sql).unwrap().collect().unwrap().to_rows();
    rows.sort();
    rows
}

/// The lines of a plan, outermost operator first, trimmed.
fn operators(plan: &str) -> Vec<&str> {
    plan.lines().skip(1).map(str::trim).collect()
}

#[test]
fn group_by_the_index_key_needs_no_exchange_and_one_phase() {
    let (session, _) = setup(3); // 3 != target_partitions: alignment, not count, decides
    for sql in [
        "SELECT person1_id, count(*) FROM knows GROUP BY person1_id",
        "SELECT person1_id, person2_id, sum(weight) FROM knows GROUP BY person1_id, person2_id",
        "SELECT k.person1_id, max(k.weight) FROM knows k WHERE k.weight > 2 GROUP BY k.person1_id",
    ] {
        let plan = physical(&session, sql);
        assert!(!plan.contains("Shuffle"), "{sql}\n{plan}");
        assert!(!plan.contains("Coalesce"), "{sql}\n{plan}");
        assert!(
            !plan.contains("partial") && !plan.contains("final"),
            "{sql}\n{plan}"
        );
        assert_eq!(
            sorted(&session, sql),
            sorted(&session, &sql.replace("knows", "knows_plain")),
            "{sql}"
        );
    }
    // The gated shape: the aggregate sits directly on the one-column scan.
    let plan = physical(
        &session,
        "SELECT person1_id, count(*) AS degree FROM knows GROUP BY person1_id",
    );
    let ops = operators(&plan);
    let aggregate = ops
        .iter()
        .position(|op| op.starts_with("HashAggregate: 1 group keys"))
        .unwrap_or_else(|| panic!("{plan}"));
    assert_eq!(
        ops[aggregate + 1],
        "SourceScan: knows projection=[0]",
        "{plan}"
    );
}

#[test]
fn everything_else_aggregates_below_the_exchange_and_merges_above() {
    let (session, _) = setup(3);
    for (sql, exchange) in [
        // Not the index key.
        (
            "SELECT person2_id, count(*), avg(weight) FROM knows GROUP BY person2_id",
            "Shuffle",
        ),
        // The key projected away from what the aggregate groups on.
        (
            "SELECT weight, min(person2_id) FROM knows GROUP BY weight",
            "Shuffle",
        ),
        // A computed key hashes differently from the column.
        (
            "SELECT CAST(person1_id AS INT) AS k, count(*) FROM knows GROUP BY CAST(person1_id AS INT)",
            "Shuffle",
        ),
        // Every vanilla table.
        (
            "SELECT person1_id, count(*) FROM knows_plain GROUP BY person1_id",
            "Shuffle",
        ),
        // Global: one state row per partition crosses the coalesce.
        ("SELECT sum(person2_id), avg(weight) FROM knows", "Coalesce"),
    ] {
        let plan = physical(&session, sql);
        let ops = operators(&plan);
        let at = |needle: &str| {
            ops.iter()
                .position(|op| op.starts_with(needle))
                .unwrap_or_else(|| panic!("no {needle} in\n{plan}"))
        };
        let (fin, ex, part) = (
            at("HashAggregate: final"),
            at(exchange),
            at("HashAggregate: partial"),
        );
        assert!(fin < ex && ex < part, "{sql}\n{plan}");
        assert_eq!(
            sorted(&session, sql),
            sorted(&session, &sql.replace("FROM knows ", "FROM knows_plain "))
        );
    }
}

#[test]
fn frozen_and_pruned_scans_keep_the_property() {
    let (session, indexed) = setup(4);
    // A snapshot-pinned scan is partitioned like the live table.
    let frozen = indexed
        .snapshot_df()
        .aggregate(vec![col("person1_id")], vec![count_star()])
        .unwrap();
    let plan = frozen.explain().unwrap();
    assert!(
        !plan.contains("Shuffle") && !plan.contains("partial"),
        "{plan}"
    );
    assert_eq!(frozen.collect().unwrap().len(), 97);

    // Pruned to one partition, any grouping is already co-located.
    let sql = "SELECT person2_id, count(*) FROM knows WHERE person1_id = 5 GROUP BY person2_id";
    let plan = physical(&session, sql);
    assert!(plan.contains("partitions=1/4"), "{plan}");
    assert!(
        !plan.contains("Shuffle") && !plan.contains("partial"),
        "{plan}"
    );
    assert_eq!(
        sorted(&session, sql),
        sorted(&session, &sql.replace("knows", "knows_plain"))
    );
}

/// Two tables indexed on the join key. `n_right` partitions on the right.
fn join_setup(n_right: usize) -> Session {
    let (session, _) = setup(3);
    let other = session
        .table("knows_plain")
        .unwrap()
        .create_index_with(
            "person1_id",
            IndexConfig {
                num_partitions: n_right,
                ..Default::default()
            },
        )
        .unwrap();
    other.register("knows2");
    session
}

const JOIN: &str = "SELECT a.person1_id, a.weight, b.person2_id \
                    FROM knows a JOIN knows2 b ON a.person1_id = b.person1_id";

#[test]
fn co_partitioned_indexed_join_has_no_exchange() {
    let session = join_setup(3);
    let plan = physical(&session, JOIN);
    assert!(plan.contains("IndexedJoin"), "{plan}");
    assert!(
        !plan.contains("Shuffle") && !plan.contains("Broadcast"),
        "{plan}"
    );
    let vanilla = JOIN
        .replace("knows2 b", "knows_plain b")
        .replace("knows a", "knows_plain a");
    assert_eq!(sorted(&session, JOIN), sorted(&session, &vanilla));

    // A LEFT join is not claimed by the indexed strategy; the hash join
    // over the two aligned scans needs no exchange either.
    let left = JOIN.replace("JOIN", "LEFT JOIN");
    let plan = physical(&session, &left);
    assert!(plan.contains("HashJoin"), "{plan}");
    assert!(!plan.contains("Shuffle"), "{plan}");
    assert_eq!(
        sorted(&session, &left),
        sorted(&session, &vanilla.replace("JOIN", "LEFT JOIN"))
    );
}

#[test]
fn unequal_partition_counts_still_shuffle_the_probe() {
    let session = join_setup(5);
    let plan = physical(&session, JOIN);
    assert!(plan.contains("IndexedJoin"), "{plan}");
    assert!(plan.contains("Shuffle: hash, 3 partitions"), "{plan}");
    let vanilla = JOIN
        .replace("knows2 b", "knows_plain b")
        .replace("knows a", "knows_plain a");
    assert_eq!(sorted(&session, JOIN), sorted(&session, &vanilla));

    // And the operator itself still refuses a probe side that does not
    // match the index's partition count, with a typed error.
    let (session, indexed) = setup(3);
    let probe = session
        .sql("SELECT person1_id FROM knows_plain")
        .unwrap()
        .physical_plan()
        .unwrap();
    assert_eq!(probe.output_partitions(), 4);
    let schema = Arc::new(knows_schema().join(&probe.schema()));
    let join: idf_engine::physical::ExecPlanRef =
        Arc::new(idf_core::join_exec::IndexedJoinExec::new(
            Arc::clone(indexed.table()),
            None,
            Arc::clone(&probe),
            idf_engine::physical::expr::column_expr(0, DataType::Int64),
            true,
            schema,
            idf_core::join_exec::ProbeMode::Partitioned,
        ));
    let err =
        idf_engine::physical::execute_collect(&join, &idf_engine::physical::TaskContext::default())
            .unwrap_err();
    assert!(
        matches!(&err, EngineError::Internal(m) if m.contains("index partitioning")),
        "got {err:?}"
    );
}

#[test]
fn aligned_aggregates_survive_dml_compaction_and_a_concurrent_appender() {
    let (session, indexed) = setup(3);
    // The vanilla twin takes the same statements.
    let twin = Session::new();
    twin.sql("CREATE TABLE knows (person1_id BIGINT, person2_id BIGINT, weight BIGINT)")
        .unwrap()
        .collect()
        .unwrap();
    let twin_source = twin.catalog().get("knows").unwrap();
    twin_source.append_rows(&knows_rows(3000)).unwrap();

    let queries = [
        "SELECT person1_id, count(*), sum(weight), min(person2_id) FROM knows GROUP BY person1_id",
        "SELECT person1_id, person2_id, count(*) FROM knows GROUP BY person1_id, person2_id",
        "SELECT count(*), sum(weight) FROM knows",
    ];
    let check = |stage: &str| {
        for sql in queries {
            assert_eq!(sorted(&session, sql), sorted(&twin, sql), "{stage}: {sql}");
        }
        let plan = physical(&session, queries[0]);
        assert!(!plan.contains("Shuffle"), "{stage}\n{plan}");
    };
    check("fresh");
    for dml in [
        "UPDATE knows SET weight = weight + 100 WHERE person2_id < 20",
        "DELETE FROM knows WHERE person1_id = 11 OR weight = 3",
        "INSERT INTO knows VALUES (11, 1, 1), (500, 2, 2)",
    ] {
        session.sql(dml).unwrap().collect().unwrap();
        twin.sql(dml).unwrap().collect().unwrap();
        check(dml);
    }
    indexed.table().compact().unwrap();
    check("compacted");

    // Beside an appender: every result is some prefix of the append stream
    // — counts per key only grow, and keys land in their own partition.
    let appender = {
        let table = Arc::clone(indexed.table());
        std::thread::spawn(move || {
            for i in 0..2000i64 {
                table
                    .append_row(&[
                        Value::Int64(1000 + i % 50),
                        Value::Int64(i),
                        Value::Int64(1),
                    ])
                    .unwrap();
            }
        })
    };
    let mut last = 0i64;
    while !appender.is_finished() {
        let rows = sorted(
            &session,
            "SELECT person1_id, count(*) FROM knows WHERE person1_id >= 1000 GROUP BY person1_id",
        );
        let keys: std::collections::HashSet<&Value> = rows.iter().map(|r| &r[0]).collect();
        assert_eq!(
            keys.len(),
            rows.len(),
            "a key is in one partition: one group"
        );
        let total: i64 = rows.iter().filter_map(|r| r[1].as_i64()).sum();
        assert!(total >= last, "appends only add rows");
        last = total;
    }
    appender.join().unwrap();
    twin_source
        .append_rows(
            &(0..2000i64)
                .map(|i| {
                    vec![
                        Value::Int64(1000 + i % 50),
                        Value::Int64(i),
                        Value::Int64(1),
                    ]
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
    check("after the appender");
}
