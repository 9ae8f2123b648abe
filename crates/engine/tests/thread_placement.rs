//! Where plans execute: a plan whose leaves are pruned lookups runs on the
//! thread that called `collect` (spawning a thread costs more than the
//! lookup), while an unbounded scan fans out over its share of the cores
//! with the calling thread as one of its threads.
//!
//! The share depends on how many queries are in flight in the process, so
//! every test here takes [`serial`] first: no test's queries change the
//! share another one sees.

use std::any::Any;
use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Duration;

use idf_engine::catalog::{ChunkIter, ScanPruning};
use idf_engine::expr::BinaryOp;
use idf_engine::fanout;
use idf_engine::physical::{
    execute, execute_collect_partitions, CoalesceExec, ExecPlanRef, ExecutionPlan, TaskContext,
};
use idf_engine::prelude::*;

static SERIAL: Mutex<()> = Mutex::new(());

/// Run one test of this binary at a time.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a scan does on the thread it is armed for.
#[derive(Clone)]
enum Fault {
    Panic,
    Error,
    Cancel(Arc<QueryContext>),
}

/// Which thread a fault is armed for: the one that called `collect`, or
/// any other.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Side {
    Caller(ThreadId),
    Helper(ThreadId),
}

impl Side {
    fn matches(self, thread: ThreadId) -> bool {
        match self {
            Side::Caller(me) => thread == me,
            Side::Helper(me) => thread != me,
        }
    }
}

const PARTITIONS: usize = 4;
const ROWS_PER_PARTITION: i64 = 100;

/// `PARTITIONS` partitions of `(id, v)` rows, row `id` living in partition
/// `id % PARTITIONS`. Claims `id = <integer>` filters, prunes them to the
/// key's partition, and records the thread of every scan.
///
/// With `rendezvous` set, a scan waits until two distinct threads have
/// scanned (or ten seconds pass), so a fan-out's helper gets a partition
/// before the calling thread can drain them all. With a fault armed, the
/// first scan on the armed side fires it once.
struct Recording {
    schema: SchemaRef,
    scans: Mutex<Vec<(usize, ThreadId)>>,
    rendezvous: Mutex<bool>,
    arrived: Condvar,
    fault: Mutex<Option<(Side, Fault)>>,
    fired_on: Mutex<Option<ThreadId>>,
}

impl Recording {
    fn new() -> Arc<Recording> {
        Arc::new(Recording {
            schema: Arc::new(Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("v", DataType::Int64),
            ])),
            scans: Mutex::new(Vec::new()),
            rendezvous: Mutex::new(false),
            arrived: Condvar::new(),
            fault: Mutex::new(None),
            fired_on: Mutex::new(None),
        })
    }

    fn set_rendezvous(&self, on: bool) {
        *self.rendezvous.lock().unwrap() = on;
    }

    fn arm(&self, side: Side, fault: Fault) {
        *self.fault.lock().unwrap() = Some((side, fault));
        *self.fired_on.lock().unwrap() = None;
    }

    /// Record a scan on this thread; wait for a second thread when asked
    /// to; fire the armed fault if this is its side.
    fn enter_scan(&self, partition: usize) -> Result<()> {
        let me = std::thread::current().id();
        let distinct = {
            let mut scans = self.scans.lock().unwrap_or_else(PoisonError::into_inner);
            scans.push((partition, me));
            scans.iter().map(|s| s.1).collect::<HashSet<_>>().len()
        };
        self.arrived.notify_all();
        if *self
            .rendezvous
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            && distinct < 2
        {
            let scans = self.scans.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = self
                .arrived
                .wait_timeout_while(scans, Duration::from_secs(10), |scans| {
                    scans.iter().map(|s| s.1).collect::<HashSet<_>>().len() < 2
                })
                .unwrap_or_else(PoisonError::into_inner);
        }
        let fault = {
            let mut armed = self.fault.lock().unwrap_or_else(PoisonError::into_inner);
            match armed.as_ref() {
                Some((side, _)) if side.matches(me) => armed.take().map(|(_, f)| f),
                _ => None,
            }
        };
        let Some(fault) = fault else { return Ok(()) };
        *self.fired_on.lock().unwrap_or_else(PoisonError::into_inner) = Some(me);
        match fault {
            Fault::Panic => panic!("scan of partition {partition} panicked"),
            Fault::Error => Err(EngineError::exec(format!(
                "scan of partition {partition} failed"
            ))),
            Fault::Cancel(query) => {
                query.cancel();
                Ok(())
            }
        }
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
        self.enter_scan(partition)?;
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
    let _serial = serial();
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
    let _serial = serial();
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

/// A full scan runs on its share of the cores, the calling thread among
/// them; on a one-core machine that share is the caller alone.
#[test]
fn a_full_scan_still_fans_out() {
    let _serial = serial();
    let source = Recording::new();
    let session = session_over(&source);
    let me = std::thread::current().id();
    let fans_out = fanout::cores() > 1;
    source.set_rendezvous(fans_out);
    // A plain scan, then a filter the source cannot prune.
    for (sql, rows) in [
        ("SELECT id FROM t", PARTITIONS * ROWS_PER_PARTITION as usize),
        ("SELECT id FROM t WHERE v = 70", 1),
    ] {
        source.take_scans();
        let out = session.sql(sql).unwrap().collect().unwrap();
        assert_eq!(out.len(), rows, "{sql}");
        assert_eq!(source.scan_threads().len(), PARTITIONS, "{sql}");
        let threads: HashSet<ThreadId> = source.scan_threads().into_iter().collect();
        if fans_out {
            assert!(
                threads.len() > 1,
                "{sql}: a {PARTITIONS}-partition scan ran on one thread"
            );
            assert!(threads.contains(&me), "{sql}: the caller runs partitions");
        } else {
            assert_eq!(threads, HashSet::from([me]), "{sql}: one core runs inline");
        }
    }
    assert_eq!(fanout::in_flight(), 0);
}

/// A partition that panics, errors or is cancelled — on the calling
/// thread or on a helper — fails its own query and nothing else: every
/// partition still starts once, the in-flight count is back to zero, and
/// the next full scan runs whole and fans out again.
#[test]
fn a_failing_partition_fails_only_its_query() {
    let _serial = serial();
    let source = Recording::new();
    let session = session_over(&source);
    let me = std::thread::current().id();
    let fans_out = fanout::cores() > 1;
    source.set_rendezvous(fans_out);
    let mut sides = vec![Side::Caller(me)];
    if fans_out {
        sides.push(Side::Helper(me));
    }
    let df = session.sql("SELECT id FROM t").unwrap();
    for side in sides {
        for kind in ["panic", "error", "cancel"] {
            let at = format!("{kind} on {side:?}");
            let query = session.new_query();
            let fault = match kind {
                "panic" => Fault::Panic,
                "error" => Fault::Error,
                _ => Fault::Cancel(Arc::clone(&query)),
            };
            source.take_scans();
            source.arm(side, fault);
            let starts = idf_fail::FailGuard::new(
                idf_engine::failpoints::WORKER_START,
                idf_fail::FailConfig::error("counted, never fired").times(0),
            );
            let err = df.collect_ctx(&query).unwrap_err();
            match kind {
                "panic" => assert!(err.to_string().contains("panicked"), "{at}: {err}"),
                "error" => assert!(err.to_string().contains("failed"), "{at}: {err}"),
                _ => assert_eq!(err, EngineError::Cancelled, "{at}"),
            }
            let fired = source.fired_on.lock().unwrap().expect("the fault fired");
            assert!(side.matches(fired), "{at}: fired on {fired:?}");
            if cfg!(feature = "failpoints") {
                assert_eq!(
                    idf_fail::hit_count(idf_engine::failpoints::WORKER_START),
                    Some(PARTITIONS as u64),
                    "{at}: every partition starts once"
                );
            }
            drop(starts);
            assert_eq!(fanout::in_flight(), 0, "{at}");
            source.take_scans();
            let out = df.collect().unwrap();
            assert_eq!(out.len(), PARTITIONS * ROWS_PER_PARTITION as usize, "{at}");
            let threads: HashSet<ThreadId> = source.scan_threads().into_iter().collect();
            assert_eq!(threads.len() > 1, fans_out, "{at}: the next scan fans out");
        }
    }
}

/// Eight callers run a grouped aggregate whose partial and final phases
/// are joined by a `Shuffle`, over and over: every answer equals the one
/// computed row by row, and no caller is left waiting (each reports within
/// two minutes, or the test fails instead of hanging).
#[test]
fn eight_concurrent_callers_of_a_shuffled_aggregate_agree() {
    let _serial = serial();
    let source = Recording::new();
    let session = Session::with_config(EngineConfig {
        target_partitions: PARTITIONS,
        ..Default::default()
    });
    session.register_table("t", Arc::clone(&source) as Arc<dyn TableSource>);
    const SQL: &str = "SELECT v % 7, count(*), sum(id) FROM t GROUP BY v % 7";
    let shown = session.sql(SQL).unwrap().explain().unwrap();
    let physical = shown.split("== Physical ==").nth(1).unwrap();
    assert!(
        physical.contains("Shuffle") && physical.contains("partial"),
        "{shown}"
    );
    let mut groups = std::collections::BTreeMap::<i64, (i64, i64)>::new();
    for row in (0..PARTITIONS).flat_map(|p| Recording::rows(p, None)) {
        let (Value::Int64(id), Value::Int64(v)) = (&row[0], &row[1]) else {
            unreachable!()
        };
        let g = groups.entry(v % 7).or_default();
        *g = (g.0 + 1, g.1 + id);
    }
    let want: Vec<Vec<Value>> = groups
        .into_iter()
        .map(|(g, (n, s))| vec![Value::Int64(g), Value::Int64(n), Value::Int64(s)])
        .collect();
    let (tx, rx) = std::sync::mpsc::channel();
    for caller in 0..8 {
        let (session, want, tx) = (session.clone(), want.clone(), tx.clone());
        std::thread::spawn(move || {
            let outcome = (0..25).try_for_each(|round| {
                let mut got = session
                    .sql(SQL)
                    .and_then(|df| df.collect())
                    .map_err(|e| format!("caller {caller}, round {round}: {e}"))?
                    .to_rows();
                got.sort();
                if got == want {
                    Ok(())
                } else {
                    Err(format!("caller {caller}, round {round}: {got:?}"))
                }
            });
            tx.send(outcome).unwrap();
        });
    }
    for _ in 0..8 {
        rx.recv_timeout(Duration::from_secs(120))
            .expect("a caller did not finish")
            .unwrap();
    }
    assert_eq!(fanout::in_flight(), 0);
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
    let _serial = serial();
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
