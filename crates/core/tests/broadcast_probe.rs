//! A broadcast probe of the primary index goes to each key's home
//! partition only: the indexed join makes one trie probe per probe row,
//! not one per partition, and still returns what the vanilla hash join
//! returns. A secondary index keeps probing every partition (its keys are
//! not where rows are routed). The probe counters are process-wide, so
//! this binary holds this one test.

#![cfg(feature = "obs")]

use std::sync::Arc;

use idf_core::prelude::*;
use idf_engine::prelude::*;

const PARTITIONS: usize = 4;

fn sorted(chunk: &Chunk) -> Vec<Vec<Value>> {
    let mut rows = chunk.to_rows();
    rows.sort();
    rows
}

fn probes() -> u64 {
    let m = idf_obs::global();
    m.probe_hits.get() + m.probe_misses.get()
}

#[test]
fn a_broadcast_probe_of_the_primary_index_probes_one_partition_per_row() {
    let person: SchemaRef = Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("name", DataType::Utf8),
        Field::new("city", DataType::Int64),
    ]));
    let rows: Vec<Vec<Value>> = (0..400i64)
        .map(|i| {
            vec![
                Value::Int64(i),
                Value::Utf8(format!("p{i}")),
                Value::Int64(i % 37),
            ]
        })
        .collect();
    let chunk = Chunk::from_rows(&person, &rows).unwrap();
    let config = IndexConfig {
        num_partitions: PARTITIONS,
        ..IndexConfig::default()
    };
    let table = IndexedTable::with_indexes(Arc::clone(&person), 0, &[2], config).unwrap();
    table.append_chunk(&chunk).unwrap();
    let session = Session::new();
    let indexed = IndexedDataFrame::from_table(session.clone(), Arc::new(table));
    indexed.register("person");
    indexed.index("city").unwrap().register("person_by_city");
    session.register_table(
        "person_plain",
        Arc::new(MemTable::from_chunk_partitioned(Arc::clone(&person), chunk, PARTITIONS).unwrap()),
    );

    // Half the probe keys miss, some repeat, some are NULL.
    let friends: SchemaRef = Arc::new(Schema::new(vec![
        Field::new("fid", DataType::Int64),
        Field::new("w", DataType::Int64),
    ]));
    let probe_rows: Vec<Vec<Value>> = (0..300i64)
        .map(|i| {
            let fid = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int64((i * 7) % 800)
            };
            vec![fid, Value::Int64(i)]
        })
        .collect();
    let keyed = probe_rows.iter().filter(|r| !r[0].is_null()).count() as u64;
    let probe_chunk = Chunk::from_rows(&friends, &probe_rows).unwrap();
    session.register_table(
        "friends",
        Arc::new(MemTable::from_chunk_partitioned(friends, probe_chunk, 3).unwrap()),
    );

    for (indexed_name, key, probes_per_row) in [
        ("person", "id", 1),
        ("person_by_city", "city", PARTITIONS as u64),
    ] {
        let sql = |t: &str| {
            format!("SELECT p.id, p.name, p.city, f.w FROM friends f JOIN {t} p ON p.{key} = f.fid")
        };
        let df = session.sql(&sql(indexed_name)).unwrap();
        let plan = df.explain().unwrap();
        assert!(
            plan.contains("IndexedJoin") && plan.contains("probe Broadcast"),
            "{plan}"
        );
        let before = probes();
        let got = df.collect().unwrap();
        let made = probes() - before;
        assert_eq!(
            made,
            keyed * probes_per_row,
            "{indexed_name}: {keyed} keyed probe rows over {PARTITIONS} partitions"
        );
        let want = session
            .sql(&sql("person_plain"))
            .unwrap()
            .collect()
            .unwrap();
        assert!(!want.is_empty());
        assert_eq!(sorted(&got), sorted(&want), "{indexed_name}");
    }
}
