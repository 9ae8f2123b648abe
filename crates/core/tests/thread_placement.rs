//! An SQ3-shaped read — a pruned key lookup broadcast into an indexed
//! join, then sorted — executes entirely on the calling thread: every
//! leaf is a pruned probe, so there is nothing for extra threads to
//! overlap. (The engine-side cases live in
//! `crates/engine/tests/thread_placement.rs`.)

use std::any::Any;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use idf_core::prelude::*;
use idf_engine::catalog::{ChunkIter, ScanPruning};
use idf_engine::expr::BinaryOp;
use idf_engine::prelude::*;

const PARTITIONS: usize = 4;

/// `knows(src, dst)`: person `src` knows `src+1 … src+5`. Claims
/// `src = <integer>`, prunes it to one partition, and records the thread
/// of every scan.
struct Knows {
    schema: SchemaRef,
    scan_threads: Mutex<Vec<ThreadId>>,
}

fn src_key(filter: &Expr) -> Option<Option<i64>> {
    let Expr::Binary {
        left,
        op: BinaryOp::Eq,
        right,
    } = filter
    else {
        return None;
    };
    if !matches!(left.as_ref(), Expr::Column(c) if c.index == Some(0)) {
        return None;
    }
    match right.as_ref() {
        Expr::Literal(Value::Int64(k)) => Some(Some(*k)),
        // A cached plan decides pushdown before the literal is bound.
        Expr::Param {
            data_type: DataType::Int64,
            ..
        } => Some(None),
        _ => None,
    }
}

impl TableSource for Knows {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn num_partitions(&self) -> usize {
        PARTITIONS
    }

    fn scan(&self, _partition: usize, _projection: Option<&[usize]>) -> Result<ChunkIter> {
        Err(EngineError::Unsupported("only key lookups".to_string()))
    }

    fn supports_filter_pushdown(&self, filter: &Expr) -> bool {
        src_key(filter).is_some()
    }

    fn scan_with_filters(
        &self,
        _partition: usize,
        projection: Option<&[usize]>,
        filters: &[Expr],
    ) -> Result<ChunkIter> {
        self.scan_threads
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        let src = src_key(&filters[0]).flatten().expect("a bound key filter");
        let rows: Vec<Vec<Value>> = (1..=5)
            .map(|d| vec![Value::Int64(src), Value::Int64(src + d)])
            .collect();
        let chunk = Chunk::from_rows(&self.schema, &rows)?;
        Ok(Box::new(std::iter::once(Ok(match projection {
            Some(p) => chunk.project(p),
            None => chunk,
        }))))
    }

    fn prune(&self, filters: &[Expr]) -> Option<ScanPruning> {
        let src = src_key(filters.first()?)??;
        Some(ScanPruning {
            partitions: vec![src.rem_euclid(PARTITIONS as i64) as usize],
            rows: 5,
        })
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn a_pruned_probe_into_an_indexed_join_then_sort_runs_on_the_calling_thread() {
    let session = Session::new();
    let person_schema = Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("name", DataType::Utf8),
    ]));
    let people: Vec<Vec<Value>> = (0..200)
        .map(|i| vec![Value::Int64(i), Value::Utf8(format!("p{i}"))])
        .collect();
    let table = IndexedTable::from_chunk(
        Arc::clone(&person_schema),
        0,
        IndexConfig {
            num_partitions: PARTITIONS,
            ..IndexConfig::default()
        },
        &Chunk::from_rows(&person_schema, &people).unwrap(),
    )
    .unwrap();
    IndexedDataFrame::from_table(session.clone(), Arc::new(table)).register("person");
    let knows = Arc::new(Knows {
        schema: Arc::new(Schema::new(vec![
            Field::new("src", DataType::Int64),
            Field::new("dst", DataType::Int64),
        ])),
        scan_threads: Mutex::new(Vec::new()),
    });
    session.register_table("knows", Arc::clone(&knows) as Arc<dyn TableSource>);

    let me = std::thread::current().id();
    // Planned from scratch, then from the plan cache.
    for src in [17i64, 100] {
        let df = session
            .sql(&format!(
                "SELECT p.id, p.name FROM knows k JOIN person p ON k.dst = p.id \
                 WHERE k.src = {src} ORDER BY p.id DESC"
            ))
            .unwrap();
        let shown = df.explain().unwrap();
        let physical = shown.split("== Physical ==").nth(1).unwrap();
        assert!(physical.contains("probe Broadcast"), "{shown}");
        // The join fans out over the index partitions and is coalesced
        // for the sort — the shape that used to spawn a thread each.
        assert!(physical.contains("Coalesce"), "{shown}");
        assert!(
            physical.contains(&format!("partitions=1/{PARTITIONS}")),
            "{shown}"
        );
        let plan = df.physical_plan().unwrap();
        assert_eq!(plan.bounded_input_rows(), Some(5));

        let ids: Vec<Value> = df
            .collect()
            .unwrap()
            .to_rows()
            .into_iter()
            .map(|r| r[0].clone())
            .collect();
        let expected: Vec<Value> = (1..=5).rev().map(|d| Value::Int64(src + d)).collect();
        assert_eq!(ids, expected);
    }
    // One scan per execution (the probe side is collected once and
    // broadcast), each on this thread — which it can only be if the join
    // partition that triggered it ran here too.
    assert_eq!(*knows.scan_threads.lock().unwrap(), vec![me, me]);
}
