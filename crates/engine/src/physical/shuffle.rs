//! Exchange operators: hash repartitioning (shuffle) and coalescing.
//!
//! The single-process analogue of Spark's shuffle: the first output
//! partition to be pulled materializes *all* input partitions in parallel
//! behind an [`ExecCache`] keyed by the execution id, bucketing rows by
//! key hash; every output partition of the same execution then reads its
//! bucket, while a later execution of the same plan recomputes (the input
//! may be a live, updatable source). The Indexed DataFrame's hash partitioning on the
//! indexed key uses the same [`hash_values`](crate::physical::hash_values)
//! function, so a scan of it reports the partitioning a shuffle on that
//! key would produce — and the planner, which places an exchange only
//! where [`ExecutionPlan::output_partitioning`] does not already satisfy
//! the consumer, leaves it out.

use std::sync::Arc;

use crate::catalog::ChunkIter;
use crate::chunk::Chunk;
use crate::error::Result;
use crate::physical::{
    hash_columns, ExecCache, ExecPlanRef, ExecutionPlan, Partitioning, PhysicalExprRef, TaskContext,
};
use crate::schema::SchemaRef;

/// Hash-repartition rows on key expressions into `num_partitions` buckets.
pub struct ShuffleExec {
    /// Input operator.
    pub input: ExecPlanRef,
    /// Partitioning key expressions.
    pub keys: Vec<PhysicalExprRef>,
    /// Number of output partitions.
    pub num_partitions: usize,
    state: ExecCache<Arc<Vec<Vec<Chunk>>>>,
}

impl std::fmt::Debug for ShuffleExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShuffleExec(n={})", self.num_partitions)
    }
}

impl ShuffleExec {
    /// Create a shuffle of `input` on `keys`.
    pub fn new(input: ExecPlanRef, keys: Vec<PhysicalExprRef>, num_partitions: usize) -> Self {
        ShuffleExec {
            input,
            keys,
            num_partitions: num_partitions.max(1),
            state: ExecCache::new(),
        }
    }

    /// Bucket one chunk's rows by key hash.
    fn bucket_chunk(chunk: &Chunk, keys: &[PhysicalExprRef], n: usize) -> Result<Vec<Vec<u32>>> {
        let key_cols = keys
            .iter()
            .map(|k| k.evaluate(chunk))
            .collect::<Result<Vec<_>>>()?;
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (row, hash) in hash_columns(&key_cols, chunk.len()).into_iter().enumerate() {
            buckets[(hash % n as u64) as usize].push(row as u32);
        }
        Ok(buckets)
    }

    /// The bucketed input: built by the first partition to ask, awaited by
    /// the others — either way time this partition spends in the exchange.
    fn materialize(&self, ctx: &TaskContext) -> Result<Arc<Vec<Vec<Chunk>>>> {
        ctx.instrument_blocking(self, || {
            self.state.get_or_try_init(ctx, || {
                crate::failpoints::check(crate::failpoints::SHUFFLE_EXCHANGE)?;
                let n = self.num_partitions;
                let inputs = crate::physical::execute_collect_partitions(&self.input, ctx)?;
                let mut out: Vec<Vec<Chunk>> = vec![Vec::new(); n];
                for chunk in inputs.into_iter().flatten() {
                    if chunk.is_empty() {
                        continue;
                    }
                    // The whole exchange is buffered until consumed; bill
                    // it to the query's memory budget.
                    ctx.charge_memory(chunk.byte_size())?;
                    let buckets = Self::bucket_chunk(&chunk, &self.keys, n)?;
                    for (b, rows) in buckets.into_iter().enumerate() {
                        if !rows.is_empty() {
                            out[b].push(chunk.take(&rows)?);
                        }
                    }
                }
                Ok(Arc::new(out))
            })
        })
    }
}

impl ExecutionPlan for ShuffleExec {
    fn name(&self) -> &'static str {
        "Shuffle"
    }

    fn schema(&self) -> SchemaRef {
        self.input.schema()
    }

    fn output_partitions(&self) -> usize {
        self.num_partitions
    }

    fn children(&self) -> Vec<ExecPlanRef> {
        vec![Arc::clone(&self.input)]
    }

    fn output_partitioning(&self) -> Partitioning {
        match self.keys.iter().map(|k| k.column_index()).collect() {
            Some(columns) => Partitioning::Hash {
                columns,
                n: self.num_partitions,
            },
            // A computed key is not a column a consumer could name.
            None => Partitioning::Unknown,
        }
    }

    fn open(&self, partition: usize, ctx: &TaskContext) -> Result<ChunkIter> {
        let buckets = self.materialize(ctx)?;
        let chunks = buckets[partition].clone();
        Ok(Box::new(chunks.into_iter().map(Ok)))
    }

    fn detail(&self) -> String {
        format!("hash, {} partitions", self.num_partitions)
    }
}

/// Merge all input partitions into one.
pub struct CoalesceExec {
    /// Input operator.
    pub input: ExecPlanRef,
    state: ExecCache<Arc<Vec<Chunk>>>,
}

impl std::fmt::Debug for CoalesceExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CoalesceExec")
    }
}

impl CoalesceExec {
    /// Coalesce `input` into a single partition.
    pub fn new(input: ExecPlanRef) -> Self {
        CoalesceExec {
            input,
            state: ExecCache::new(),
        }
    }
}

impl ExecutionPlan for CoalesceExec {
    fn name(&self) -> &'static str {
        "Coalesce"
    }

    fn schema(&self) -> SchemaRef {
        self.input.schema()
    }

    fn output_partitions(&self) -> usize {
        1
    }

    fn children(&self) -> Vec<ExecPlanRef> {
        vec![Arc::clone(&self.input)]
    }

    fn open(&self, _partition: usize, ctx: &TaskContext) -> Result<ChunkIter> {
        let chunks = ctx.instrument_blocking(self, || {
            self.state.get_or_try_init(ctx, || {
                let parts = crate::physical::execute_collect_partitions(&self.input, ctx)?;
                let chunks: Vec<Chunk> = parts.into_iter().flatten().collect();
                ctx.charge_memory(chunks.iter().map(Chunk::byte_size).sum())?;
                Ok(Arc::new(chunks))
            })
        })?;
        Ok(Box::new(chunks.as_ref().clone().into_iter().map(Ok)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::resolve_expr;
    use crate::catalog::MemTable;
    use crate::expr::col;
    use crate::physical::expr::create_physical_expr;
    use crate::physical::scan::SourceScanExec;
    use crate::physical::{execute_collect, execute_collect_partitions};
    use crate::schema::{Field, Schema};
    use crate::types::{DataType, Value};

    fn scan(n_rows: i64, parts: usize) -> (ExecPlanRef, SchemaRef) {
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
        let chunk = Chunk::from_rows(
            &schema,
            &(0..n_rows)
                .map(|i| vec![Value::Int64(i % 10)])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let source =
            Arc::new(MemTable::from_chunk_partitioned(Arc::clone(&schema), chunk, parts).unwrap());
        (
            Arc::new(SourceScanExec::new(
                "t".into(),
                source,
                Arc::clone(&schema),
                None,
                vec![],
            )),
            schema,
        )
    }

    #[test]
    fn shuffle_groups_equal_keys_together() {
        let (input, schema) = scan(100, 4);
        let key = resolve_expr(&col("k"), &schema).unwrap();
        let plan: ExecPlanRef = Arc::new(ShuffleExec::new(
            input,
            vec![create_physical_expr(&key, &schema).unwrap()],
            3,
        ));
        let parts = execute_collect_partitions(&plan, &TaskContext::default()).unwrap();
        assert_eq!(parts.len(), 3);
        // Every key value must land in exactly one partition.
        let mut seen: std::collections::HashMap<i64, usize> = Default::default();
        let mut total = 0;
        for (p, chunks) in parts.iter().enumerate() {
            for c in chunks {
                total += c.len();
                for r in 0..c.len() {
                    let Value::Int64(k) = c.value_at(0, r) else {
                        panic!()
                    };
                    if let Some(prev) = seen.insert(k, p) {
                        assert_eq!(prev, p, "key {k} split across partitions");
                    }
                }
            }
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn coalesce_merges_everything() {
        let (input, _) = scan(50, 5);
        let plan: ExecPlanRef = Arc::new(CoalesceExec::new(input));
        assert_eq!(plan.output_partitions(), 1);
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 50);
    }

    /// A single-partition source whose contents can grow between scans —
    /// a stand-in for the live Indexed DataFrame source.
    struct LiveSource {
        schema: SchemaRef,
        chunks: std::sync::Mutex<Vec<Chunk>>,
        scans: std::sync::atomic::AtomicUsize,
    }

    impl crate::catalog::TableSource for LiveSource {
        fn schema(&self) -> SchemaRef {
            Arc::clone(&self.schema)
        }

        fn num_partitions(&self) -> usize {
            1
        }

        fn scan(&self, _partition: usize, _projection: Option<&[usize]>) -> Result<ChunkIter> {
            self.scans.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let chunks = self.chunks.lock().unwrap().clone();
            Ok(Box::new(chunks.into_iter().map(Ok)))
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    /// Regression test: `ShuffleExec` used to cache its materialized
    /// buckets in a `OnceLock`, so a second execution of the *same
    /// physical plan* over a source that had since grown replayed the
    /// first execution's rows. The cache is now keyed by execution id.
    #[test]
    fn shuffle_recomputes_for_a_new_execution_over_a_live_source() {
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
        let rows = |lo: i64, hi: i64| (lo..hi).map(|i| vec![Value::Int64(i)]).collect::<Vec<_>>();
        let source = Arc::new(LiveSource {
            schema: Arc::clone(&schema),
            chunks: std::sync::Mutex::new(vec![Chunk::from_rows(&schema, &rows(0, 10)).unwrap()]),
            scans: std::sync::atomic::AtomicUsize::new(0),
        });
        let input: ExecPlanRef = Arc::new(SourceScanExec::new(
            "live".into(),
            Arc::clone(&source) as _,
            Arc::clone(&schema),
            None,
            vec![],
        ));
        let key = resolve_expr(&col("k"), &schema).unwrap();
        let plan: ExecPlanRef = Arc::new(ShuffleExec::new(
            input,
            vec![create_physical_expr(&key, &schema).unwrap()],
            4,
        ));

        let total =
            |parts: &[Vec<Chunk>]| -> usize { parts.iter().flatten().map(Chunk::len).sum() };

        // First execution sees the initial 10 rows, scanning the input
        // exactly once even though 4 output partitions pull from the cache.
        let ctx_a = TaskContext::default();
        let first = execute_collect_partitions(&plan, &ctx_a).unwrap();
        assert_eq!(total(&first), 10);
        assert_eq!(source.scans.load(std::sync::atomic::Ordering::SeqCst), 1);

        // The source grows between executions.
        source
            .chunks
            .lock()
            .unwrap()
            .push(Chunk::from_rows(&schema, &rows(10, 30)).unwrap());

        // Re-executing with the SAME context stays within the original
        // execution: cached buckets, no rescan (snapshot stability).
        let again = execute_collect_partitions(&plan, &ctx_a).unwrap();
        assert_eq!(total(&again), 10);
        assert_eq!(source.scans.load(std::sync::atomic::Ordering::SeqCst), 1);

        // A fresh context is a new execution and must see the new rows —
        // the OnceLock bug returned 10 here.
        let second = execute_collect_partitions(&plan, &TaskContext::default()).unwrap();
        assert_eq!(total(&second), 30);
        assert_eq!(source.scans.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    /// Same regression for `CoalesceExec`, which shared the stale-cache
    /// pattern.
    #[test]
    fn coalesce_recomputes_for_a_new_execution_over_a_live_source() {
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
        let rows = |lo: i64, hi: i64| (lo..hi).map(|i| vec![Value::Int64(i)]).collect::<Vec<_>>();
        let source = Arc::new(LiveSource {
            schema: Arc::clone(&schema),
            chunks: std::sync::Mutex::new(vec![Chunk::from_rows(&schema, &rows(0, 5)).unwrap()]),
            scans: std::sync::atomic::AtomicUsize::new(0),
        });
        let input: ExecPlanRef = Arc::new(SourceScanExec::new(
            "live".into(),
            Arc::clone(&source) as _,
            Arc::clone(&schema),
            None,
            vec![],
        ));
        let plan: ExecPlanRef = Arc::new(CoalesceExec::new(input));

        assert_eq!(
            execute_collect(&plan, &TaskContext::default())
                .unwrap()
                .len(),
            5
        );
        source
            .chunks
            .lock()
            .unwrap()
            .push(Chunk::from_rows(&schema, &rows(5, 12)).unwrap());
        assert_eq!(
            execute_collect(&plan, &TaskContext::default())
                .unwrap()
                .len(),
            12
        );
    }

    #[test]
    fn shuffle_is_deterministic_across_runs() {
        for _ in 0..2 {
            let (input, schema) = scan(40, 2);
            let key = resolve_expr(&col("k"), &schema).unwrap();
            let plan: ExecPlanRef = Arc::new(ShuffleExec::new(
                input,
                vec![create_physical_expr(&key, &schema).unwrap()],
                4,
            ));
            let parts = execute_collect_partitions(&plan, &TaskContext::default()).unwrap();
            let sizes: Vec<usize> = parts
                .iter()
                .map(|c| c.iter().map(Chunk::len).sum())
                .collect();
            assert_eq!(sizes.iter().sum::<usize>(), 40);
        }
    }
}
