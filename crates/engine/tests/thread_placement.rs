//! Where plans execute: a plan whose leaves are pruned lookups runs on the
//! thread that called `collect` (spawning one thread per partition costs
//! more than the lookup), while an unbounded scan still fans out.

use std::any::Any;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use idf_engine::catalog::{ChunkIter, ScanPruning};
use idf_engine::expr::BinaryOp;
use idf_engine::physical::{
    execute, execute_collect_partitions, CoalesceExec, ExecPlanRef, ExecutionPlan, TaskContext,
};
use idf_engine::prelude::*;

const PARTITIONS: usize = 4;
const ROWS_PER_PARTITION: i64 = 100;

/// `PARTITIONS` partitions of `(id, v)` rows, row `id` living in partition
/// `id % PARTITIONS`. Claims `id = <integer>` filters, prunes them to the
/// key's partition, and records the thread of every scan.
struct Recording {
    schema: SchemaRef,
    scans: Mutex<Vec<(usize, ThreadId)>>,
}

impl Recording {
    fn new() -> Arc<Recording> {
        Arc::new(Recording {
            schema: Arc::new(Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("v", DataType::Int64),
            ])),
            scans: Mutex::new(Vec::new()),
        })
    }

    /// The key of a claimed `id = key` filter (`None`: a parameter, whose
    /// value is not known yet).
    fn key_of(filter: &Expr) -> Option<Option<i64>> {
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
            Expr::Param {
                data_type: DataType::Int64,
                ..
            } => Some(None),
            _ => None,
        }
    }

    fn rows(partition: usize, key: Option<i64>) -> Vec<Vec<Value>> {
        (0..ROWS_PER_PARTITION)
            .map(|i| i * PARTITIONS as i64 + partition as i64)
            .filter(|id| key.is_none_or(|k| k == *id))
            .map(|id| vec![Value::Int64(id), Value::Int64(id * 10)])
            .collect()
    }

    fn scan_threads(&self) -> Vec<ThreadId> {
        self.scans.lock().unwrap().iter().map(|s| s.1).collect()
    }

    fn take_scans(&self) -> Vec<(usize, ThreadId)> {
        std::mem::take(&mut *self.scans.lock().unwrap())
    }
}

impl TableSource for Recording {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn num_partitions(&self) -> usize {
        PARTITIONS
    }

    fn scan(&self, partition: usize, projection: Option<&[usize]>) -> Result<ChunkIter> {
        self.scan_with_filters(partition, projection, &[])
    }

    fn supports_filter_pushdown(&self, filter: &Expr) -> bool {
        Recording::key_of(filter).is_some()
    }

    fn scan_with_filters(
        &self,
        partition: usize,
        projection: Option<&[usize]>,
        filters: &[Expr],
    ) -> Result<ChunkIter> {
        self.scans
            .lock()
            .unwrap()
            .push((partition, std::thread::current().id()));
        let key = filters
            .first()
            .map(|f| Recording::key_of(f).flatten().expect("a bound key filter"));
        let chunk = Chunk::from_rows(&self.schema, &Recording::rows(partition, key))?;
        let chunk = match projection {
            Some(p) => chunk.project(p),
            None => chunk,
        };
        Ok(Box::new(std::iter::once(Ok(chunk))))
    }

    fn prune(&self, filters: &[Expr]) -> Option<ScanPruning> {
        let key = Recording::key_of(filters.first()?)??;
        Some(ScanPruning {
            partitions: vec![key.rem_euclid(PARTITIONS as i64) as usize],
            rows: 1,
        })
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn session_over(source: &Arc<Recording>) -> Session {
    let session = Session::new();
    session.register_table("t", Arc::clone(source) as Arc<dyn TableSource>);
    session
}

#[test]
fn a_key_equality_read_runs_on_the_calling_thread_in_one_partition() {
    let source = Recording::new();
    let session = session_over(&source);
    let me = std::thread::current().id();
    // Twice: planned from scratch, then from the plan cache.
    for key in [7, 42] {
        let df = session
            .sql(&format!("SELECT v FROM t WHERE id = {key}"))
            .unwrap();
        let plan = df.physical_plan().unwrap();
        assert_eq!(plan.output_partitions(), 1);
        assert!(
            df.explain()
                .unwrap()
                .contains(&format!("partitions=1/{PARTITIONS}")),
            "{}",
            df.explain().unwrap()
        );
        let out = df.collect().unwrap();
        assert_eq!(out.to_rows(), vec![vec![Value::Int64(key * 10)]]);
        let scans = source.take_scans();
        assert_eq!(scans, vec![(key as usize % PARTITIONS, me)], "key {key}");
    }
}

#[test]
fn a_top_k_sort_over_a_pruned_scan_runs_on_the_calling_thread() {
    let source = Recording::new();
    let session = session_over(&source);
    let df = session
        .sql("SELECT id, v FROM t WHERE id = 9 ORDER BY v DESC, id LIMIT 3")
        .unwrap();
    let shown = df.explain().unwrap();
    let physical = shown.split("== Physical ==").nth(1).unwrap();
    assert!(physical.contains("Sort: 2 keys, fetch 3"), "{shown}");
    assert!(
        !physical.contains("Coalesce"),
        "nothing to coalesce: {shown}"
    );
    assert_eq!(df.collect().unwrap().len(), 1);
    assert_eq!(source.scan_threads(), vec![std::thread::current().id()]);
}

#[test]
fn a_full_scan_still_fans_out() {
    let source = Recording::new();
    let session = session_over(&source);
    let out = session.sql("SELECT id FROM t").unwrap().collect().unwrap();
    assert_eq!(out.len(), PARTITIONS * ROWS_PER_PARTITION as usize);
    let threads: HashSet<ThreadId> = source.scan_threads().into_iter().collect();
    assert_eq!(source.scan_threads().len(), PARTITIONS);
    assert!(
        threads.len() > 1,
        "a {PARTITIONS}-partition scan ran on one thread"
    );
    assert!(!threads.contains(&std::thread::current().id()));
    // So does a filter the source cannot prune.
    source.take_scans();
    let out = session
        .sql("SELECT id FROM t WHERE v = 70")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.len(), 1);
    let threads: HashSet<ThreadId> = source.scan_threads().into_iter().collect();
    assert!(threads.len() > 1);
}

/// Two pruned single-key scans side by side: two partitions, two rows.
struct PairOfLookups(Vec<ExecPlanRef>);

impl std::fmt::Debug for PairOfLookups {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PairOfLookups")
    }
}

impl ExecutionPlan for PairOfLookups {
    fn name(&self) -> &'static str {
        "PairOfLookups"
    }
    fn schema(&self) -> SchemaRef {
        self.0[0].schema()
    }
    fn output_partitions(&self) -> usize {
        self.0.len()
    }
    fn children(&self) -> Vec<ExecPlanRef> {
        self.0.clone()
    }
    fn open(&self, partition: usize, ctx: &TaskContext) -> Result<ChunkIter> {
        execute(self.0[partition].as_ref(), 0, ctx)
    }
}

/// Running a small multi-partition plan on the calling thread must not
/// change what an execution is: a pipeline breaker above it still
/// computes once per `TaskContext` and again for a fresh one.
#[test]
fn inline_execution_keeps_once_per_execution_caching() {
    let source = Recording::new();
    let session = session_over(&source);
    let lookup = |key: i64| {
        session
            .sql(&format!("SELECT v FROM t WHERE id = {key}"))
            .unwrap()
            .physical_plan()
            .unwrap()
    };
    let pair: ExecPlanRef = Arc::new(PairOfLookups(vec![lookup(1), lookup(2)]));
    assert_eq!(pair.output_partitions(), 2);
    assert_eq!(pair.bounded_input_rows(), Some(2));
    let plan: ExecPlanRef = Arc::new(CoalesceExec::new(pair));
    let me = std::thread::current().id();

    let ctx = TaskContext::default();
    let first = execute_collect_partitions(&plan, &ctx).unwrap();
    assert_eq!(first.iter().flatten().map(Chunk::len).sum::<usize>(), 2);
    assert_eq!(source.scan_threads(), vec![me, me]);
    // Same context, same execution: the coalesced chunks are reused.
    execute_collect_partitions(&plan, &ctx).unwrap();
    assert_eq!(source.scan_threads().len(), 2);
    execute_collect_partitions(&plan, &ctx.clone()).unwrap();
    assert_eq!(source.scan_threads().len(), 2);
    // A fresh context is a new execution: both lookups run again, inline.
    execute_collect_partitions(&plan, &TaskContext::default()).unwrap();
    assert_eq!(source.scan_threads(), vec![me, me, me, me]);
}
