//! Physical query plans: executable, partitioned operators.
//!
//! The execution model is partition-parallel pull (Volcano per partition,
//! vectorized over [`Chunk`]s): [`execute`]`(plan, p)` returns an iterator
//! of chunks for output partition `p`; the driver ([`execute_collect_partitions`])
//! runs the output partitions on the query's share of the cores
//! ([`crate::fanout`]), the calling thread included — or one after
//! another on the calling thread alone when there is a single partition or
//! the plan only reads a few pruned rows. Pipeline breakers ([`ShuffleExec`], [`SortExec`],
//! [`HashAggregateExec`] and join build sides) materialize lazily and
//! exactly once *per execution* behind [`ExecCache`]s, which is the
//! single-process analogue of Spark's shuffle files and broadcast
//! variables (re-keyed per job so re-running a plan over a live, updatable
//! source sees fresh data).
//!
//! Every operator reports how its output is partitioned
//! ([`ExecutionPlan::output_partitioning`]); the planner places an exchange
//! only where an operator's requirement is not already met (see
//! `Planner::ensure_partitioned`), so a `GROUP BY` or join on the column a
//! source is hash-partitioned by runs where the rows already are.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod aggregate;
pub mod expr;
mod filter;
mod join;
mod limit;
pub mod metrics;
mod project;
mod scan;
mod shuffle;
pub mod sort;
mod union;

pub use aggregate::{AggMode, AggregateSpec, HashAggregateExec};
pub use expr::{create_physical_expr, evaluate_predicate, PhysicalExpr, PhysicalExprRef};
pub use filter::FilterExec;
pub use join::{BroadcastHashJoinExec, HashJoinExec};
pub use limit::LimitExec;
pub use metrics::{MetricsRegistry, OperatorStats};
pub use project::ProjectionExec;
pub use scan::{SourceScanExec, ValuesExec};
pub use shuffle::{CoalesceExec, ShuffleExec};
pub use sort::{PhysicalSortKey, SortExec};
pub use union::UnionExec;

use std::fmt;
use std::sync::Arc;

pub use crate::catalog::ChunkIter;
use crate::chunk::Chunk;
use crate::column::{Column, ColumnRef};
use crate::config::EngineConfig;
use crate::error::Result;
use crate::query::QueryContext;
use crate::schema::SchemaRef;
use crate::types::Value;

/// Per-query execution context handed to every operator.
///
/// Every constructed context gets a fresh [`TaskContext::execution_id`];
/// *clones* share it. The driver clones one context across the partition
/// tasks of a single collect, so the id identifies "one execution of one
/// plan" — which is exactly the lifetime pipeline-breaker results cached
/// in an [`ExecCache`] are valid for.
///
/// The context also carries the query's [`QueryContext`] (cancellation
/// token, deadline, memory account); [`execute`] wraps every operator's
/// output iterator with a per-chunk lifecycle check, so cancellation and
/// deadlines take effect within one chunk of work at every pipeline
/// stage.
#[derive(Debug, Clone)]
pub struct TaskContext {
    /// Engine configuration (shared with the session, not copied per
    /// query).
    pub config: Arc<EngineConfig>,
    /// When present, operators report per-operator metrics here
    /// (`EXPLAIN ANALYZE`).
    pub metrics: Option<Arc<MetricsRegistry>>,
    query: Arc<QueryContext>,
    execution_id: u64,
}

impl Default for TaskContext {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

/// Source of fresh [`TaskContext::execution_id`]s.
static NEXT_EXECUTION_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl TaskContext {
    /// Context with the given configuration and an unbounded
    /// [`QueryContext`] (no deadline, no memory limits).
    pub fn new(config: impl Into<Arc<EngineConfig>>) -> Self {
        Self::with_query(config, QueryContext::unbounded())
    }

    /// Context bound to an existing query lifecycle token.
    pub fn with_query(config: impl Into<Arc<EngineConfig>>, query: Arc<QueryContext>) -> Self {
        TaskContext {
            config: config.into(),
            metrics: None,
            query,
            execution_id: Self::fresh_execution_id(),
        }
    }

    /// Context that records per-operator metrics into `registry`.
    pub fn with_metrics(
        config: impl Into<Arc<EngineConfig>>,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        Self::with_query_metrics(config, QueryContext::unbounded(), registry)
    }

    /// Context bound to a query lifecycle token that also records
    /// per-operator metrics into `registry` (`EXPLAIN ANALYZE` under
    /// cancellation/deadline/memory budgets).
    pub fn with_query_metrics(
        config: impl Into<Arc<EngineConfig>>,
        query: Arc<QueryContext>,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        TaskContext {
            config: config.into(),
            metrics: Some(registry),
            query,
            execution_id: Self::fresh_execution_id(),
        }
    }

    /// The query lifecycle token (cancellation, deadline, memory budget)
    /// this execution runs under.
    pub fn query(&self) -> &Arc<QueryContext> {
        &self.query
    }

    /// Return the typed stop error if the query was cancelled or is past
    /// its deadline. Long-running loops inside one chunk of work call this
    /// directly.
    pub fn check_cancelled(&self) -> Result<()> {
        self.query.check()
    }

    /// Charge `bytes` of materialized buffer against the query's memory
    /// budgets (see [`QueryContext::charge_memory`]).
    pub fn charge_memory(&self, bytes: usize) -> Result<()> {
        self.query.charge_memory(bytes)
    }

    fn fresh_execution_id() -> u64 {
        NEXT_EXECUTION_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// The id of the plan execution this context belongs to (shared by
    /// clones, unique per constructed context).
    pub fn execution_id(&self) -> u64 {
        self.execution_id
    }

    /// Run a pipeline breaker's blocking work (draining its input,
    /// building a table, sorting) as part of `plan`: the lifecycle check
    /// runs before the work starts, and under `EXPLAIN ANALYZE` the time is
    /// attributed to the operator like the time spent in its iterator.
    pub fn instrument_blocking<T>(
        &self,
        plan: &dyn ExecutionPlan,
        work: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        self.query.check()?;
        match &self.metrics {
            Some(registry) => metrics::timed(&registry.operator(&operator_key(plan)), work),
            None => work(),
        }
    }
}

/// Iterator adapter that checks the query lifecycle before yielding each
/// chunk; fused after the first error so a cancelled pipeline stops
/// cleanly.
struct LifecycleGuard {
    query: Arc<QueryContext>,
    inner: ChunkIter,
    done: bool,
}

impl Iterator for LifecycleGuard {
    type Item = Result<Chunk>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if let Err(e) = self.query.check() {
            self.done = true;
            return Some(Err(e));
        }
        match self.inner.next() {
            Some(Err(e)) => {
                self.done = true;
                Some(Err(e))
            }
            other => other,
        }
    }
}

/// Wrap `iter` so each `next()` first checks `query` for cancellation or
/// an elapsed deadline.
fn guard_lifecycle(query: Arc<QueryContext>, inner: ChunkIter) -> ChunkIter {
    Box::new(LifecycleGuard {
        query,
        inner,
        done: false,
    })
}

/// Once-per-execution cache for pipeline-breaker results (shuffle
/// spills, broadcast build sides), keyed by [`TaskContext::execution_id`].
///
/// A bare `OnceLock` in an operator caches *forever*: re-executing the
/// same physical plan against a live, updatable source would replay the
/// first execution's data. `ExecCache` recomputes whenever the context's
/// execution id differs from the cached one, while partition tasks of the
/// *same* execution (which share a cloned context, hence the id) still
/// compute the value exactly once — the mutex is held for the duration of
/// `init`, so same-execution callers block and then reuse the result.
#[derive(Debug, Default)]
pub struct ExecCache<T> {
    slot: std::sync::Mutex<Option<(u64, T)>>,
}

impl<T: Clone> ExecCache<T> {
    /// An empty cache.
    pub fn new() -> Self {
        ExecCache {
            slot: std::sync::Mutex::new(None),
        }
    }

    /// The value for `ctx`'s execution: cached if this execution already
    /// computed it, otherwise freshly built by `init` (replacing any value
    /// a previous execution left behind).
    pub fn get_or_try_init(
        &self,
        ctx: &TaskContext,
        init: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let mut slot = self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((id, value)) = slot.as_ref() {
            if *id == ctx.execution_id() {
                return Ok(value.clone());
            }
        }
        let value = init()?;
        *slot = Some((ctx.execution_id(), value.clone()));
        Ok(value)
    }
}

/// How an operator's output rows are spread over its output partitions —
/// the plan property that lets an operator needing co-located keys skip
/// the exchange when its input already has them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partitioning {
    /// A row is in output partition `hash_values(row[columns]) % n`, with
    /// `n` the operator's partition count (the function [`ShuffleExec`] and
    /// the Indexed DataFrame both partition by).
    Hash {
        /// Output column indices, in hash order.
        columns: Vec<usize>,
        /// Number of partitions.
        n: usize,
    },
    /// No placement guarantee.
    Unknown,
}

impl Partitioning {
    /// The same placement seen through a projection of the columns:
    /// `position(c)` is where input column `c` lands in the output, `None`
    /// when it does not survive — and then neither does the guarantee.
    pub fn project(&self, position: impl Fn(usize) -> Option<usize>) -> Partitioning {
        let Partitioning::Hash { columns, n } = self else {
            return Partitioning::Unknown;
        };
        match columns.iter().map(|&c| position(c)).collect() {
            Some(columns) => Partitioning::Hash { columns, n: *n },
            None => Partitioning::Unknown,
        }
    }
}

/// Where input column `c` appears as a bare column reference in `exprs`.
pub(crate) fn position_of_column(exprs: &[PhysicalExprRef], c: usize) -> Option<usize> {
    exprs.iter().position(|e| e.column_index() == Some(c))
}

/// An executable operator.
pub trait ExecutionPlan: Send + Sync + fmt::Debug {
    /// Operator name for `EXPLAIN` output.
    fn name(&self) -> &'static str;
    /// Output schema.
    fn schema(&self) -> SchemaRef;
    /// Number of output partitions.
    fn output_partitions(&self) -> usize;
    /// Child operators.
    fn children(&self) -> Vec<Arc<dyn ExecutionPlan>>;
    /// How the output rows are placed across the output partitions.
    /// Operators that keep every row in its input partition pass their
    /// child's answer through (mapped to their own column positions).
    fn output_partitioning(&self) -> Partitioning {
        Partitioning::Unknown
    }
    /// The operator's own iterator over output partition `partition`.
    /// Nothing calls this but [`execute`], which wraps the result; an
    /// operator reads its children through [`execute`] too.
    fn open(&self, partition: usize, ctx: &TaskContext) -> Result<ChunkIter>;
    /// One-line detail string appended to [`ExecutionPlan::name`] in
    /// `EXPLAIN` output.
    fn detail(&self) -> String {
        String::new()
    }
    /// The planner's estimate of the rows this subtree reads from its
    /// leaves, when every leaf has one: a pruned index probe or literal
    /// rows. `None` as soon as one leaf is an unbounded scan. The driver
    /// uses it to decide whether fanning partitions out over threads can
    /// pay for itself (see [`execute_collect_partitions`]).
    fn bounded_input_rows(&self) -> Option<usize> {
        let children = self.children();
        if children.is_empty() {
            return None;
        }
        children.iter().map(|c| c.bounded_input_rows()).sum()
    }
}

/// Shared physical plan handle.
pub type ExecPlanRef = Arc<dyn ExecutionPlan>;

/// Produce output partition `partition` of `plan`: [`ExecutionPlan::open`]
/// it, then wrap the iterator with the query's per-chunk lifecycle check
/// (cancellation + deadline) and, when a metrics registry is present,
/// attribute its output to `plan`. Every operator's output passes through
/// here, which is what bounds cancellation latency to one chunk per
/// pipeline stage and gives every node of `EXPLAIN ANALYZE` its actuals.
pub fn execute(plan: &dyn ExecutionPlan, partition: usize, ctx: &TaskContext) -> Result<ChunkIter> {
    let iter = guard_lifecycle(Arc::clone(&ctx.query), plan.open(partition, ctx)?);
    Ok(match &ctx.metrics {
        Some(registry) => metrics::instrument(registry.operator(&operator_key(plan)), iter),
        None => iter,
    })
}

/// The key operator metrics are recorded and looked up under:
/// `"{name}: {detail}"`, or just the name when there is no detail.
/// Nodes with identical keys (e.g. two scans of the same table)
/// aggregate into one entry.
pub fn operator_key(plan: &dyn ExecutionPlan) -> String {
    let detail = plan.detail();
    if detail.is_empty() {
        plan.name().to_string()
    } else {
        format!("{}: {}", plan.name(), detail)
    }
}

/// Render a physical plan tree as indented text.
pub fn display_exec(plan: &dyn ExecutionPlan) -> String {
    fn rec(plan: &dyn ExecutionPlan, out: &mut String, indent: usize) {
        out.push_str(&"  ".repeat(indent));
        out.push_str(plan.name());
        let d = plan.detail();
        if !d.is_empty() {
            out.push_str(": ");
            out.push_str(&d);
        }
        out.push('\n');
        for c in plan.children() {
            rec(c.as_ref(), out, indent + 1);
        }
    }
    let mut s = String::new();
    rec(plan, &mut s, 0);
    s
}

/// Drain every output partition of `plan` and return the chunks per
/// partition. This is the driver's "run the job" entry point.
///
/// The partitions run through [`fan_out`](crate::fanout::fan_out): on the
/// calling thread plus however many helpers this execution's share of the
/// cores allows, or on the calling thread alone when there is nothing to
/// overlap — a single partition, or a plan whose leaves together read at
/// most `broadcast_threshold_rows` rows ([`ExecutionPlan::bounded_input_rows`]
/// — a key lookup, an indexed join over one); spawning costs more than
/// those do.
///
/// Every partition task runs inside [`catch_panics`](crate::error::catch_panics),
/// so a panicking operator (or injected fault) surfaces as an
/// [`EngineError::Internal`] on this query instead of aborting the process.
///
/// [`EngineError::Internal`]: crate::error::EngineError::Internal
pub fn execute_collect_partitions(
    plan: &ExecPlanRef,
    ctx: &TaskContext,
) -> Result<Vec<Vec<Chunk>>> {
    ctx.check_cancelled()?;
    let n = plan.output_partitions();
    let bounded = n <= 1
        || plan
            .bounded_input_rows()
            .is_some_and(|rows| rows <= ctx.config.broadcast_threshold_rows);
    crate::fanout::fan_out((0..n).collect(), bounded, |p| {
        crate::failpoints::check(crate::failpoints::WORKER_START)?;
        execute(plan.as_ref(), p, ctx)?.collect()
    })
    .into_iter()
    .collect()
}

/// Drain every partition and concatenate into a single chunk.
pub fn execute_collect(plan: &ExecPlanRef, ctx: &TaskContext) -> Result<Chunk> {
    let parts = execute_collect_partitions(plan, ctx)?;
    let mut chunks: Vec<Chunk> = parts.into_iter().flatten().collect();
    if chunks.len() > 1 {
        return Chunk::concat(&chunks);
    }
    match chunks.pop() {
        Some(only) => Ok(only),
        None => Ok(Chunk::empty(&plan.schema())),
    }
}

/// Stable 64-bit hash of a scalar, used for shuffle partitioning and join
/// keys. Must agree between the build and probe sides of a join and with
/// the Indexed DataFrame's partitioner (`idf-core` re-exports it).
pub fn hash_value(v: &Value) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = idf_hash::FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// Combined hash of a composite key.
pub fn hash_values(vs: &[Value]) -> u64 {
    let mut acc = idf_hash::OFFSET;
    for v in vs {
        acc = idf_hash::mix64(acc ^ hash_value(v));
    }
    acc
}

/// [`hash_values`] of every row of `columns`, computed on the typed
/// vectors: no scalar is boxed and no key `Vec` is built per row. Bit for
/// bit the scalar function — the Indexed DataFrame routes rows to
/// partitions with that one, and a shuffle must agree with it.
pub fn hash_columns(columns: &[ColumnRef], rows: usize) -> Vec<u64> {
    use idf_hash::{hash_bool, hash_str, hash_word, mix64, NULL_HASH};
    /// Fold one column's per-row value hash into the running row hashes.
    fn fold<T: Copy>(
        acc: &mut [u64],
        values: &[T],
        validity: Option<&crate::bitmap::Bitmap>,
        hash: impl Fn(T) -> u64,
    ) {
        match validity {
            None => {
                for (a, &v) in acc.iter_mut().zip(values) {
                    *a = mix64(*a ^ hash(v));
                }
            }
            Some(valid) => {
                for (i, (a, &v)) in acc.iter_mut().zip(values).enumerate() {
                    *a = mix64(*a ^ if valid.get(i) { hash(v) } else { NULL_HASH });
                }
            }
        }
    }
    // Tags are `Value`'s discriminants, which its `Hash` impl writes first.
    let mut acc = vec![idf_hash::OFFSET; rows];
    for column in columns {
        let valid = column.validity();
        match column.as_ref() {
            Column::Boolean(v) => fold(&mut acc, &v.values, valid, hash_bool),
            Column::Int32(v) => fold(&mut acc, &v.values, valid, |x| {
                hash_word(2, u64::from(x as u32))
            }),
            Column::Int64(v) => fold(&mut acc, &v.values, valid, |x| hash_word(3, x as u64)),
            Column::Float64(v) => fold(&mut acc, &v.values, valid, |x| hash_word(4, x.to_bits())),
            Column::Timestamp(v) => fold(&mut acc, &v.values, valid, |x| hash_word(6, x as u64)),
            Column::Utf8(v) => {
                for (i, a) in acc.iter_mut().enumerate() {
                    *a = mix64(*a ^ v.get(i).map_or(NULL_HASH, hash_str));
                }
            }
        }
    }
    acc
}

pub(crate) use idf_hash::mix64;

/// Minimal local Fx-style hasher so the engine does not depend on
/// `idf-ctrie` (which depends on nothing here; the dependency must stay
/// one-way for the workspace layering).
mod idf_hash {
    /// FNV-1a offset basis: the hasher's initial state.
    pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// What [`FxHasher`] yields for `Value`'s `Hash` impl, spelled out per
    /// shape so column kernels can compute it without a `Value`: the
    /// discriminant as one word, then the payload.
    const fn tagged(tag: u64) -> u64 {
        mix64(OFFSET ^ tag)
    }

    /// `hash_value(&Value::Null)`.
    pub const NULL_HASH: u64 = mix64(tagged(0));

    /// `hash_value` of a variant whose payload hashes as one 64-bit word.
    #[inline]
    pub fn hash_word(tag: u64, word: u64) -> u64 {
        mix64(mix64(tagged(tag) ^ word))
    }

    /// `hash_value(&Value::Boolean(b))` (a bool hashes as one byte).
    #[inline]
    pub fn hash_bool(b: bool) -> u64 {
        mix64((tagged(1) ^ u64::from(b)).wrapping_mul(PRIME))
    }

    /// `hash_value(&Value::Utf8(s))` (a str hashes as its bytes, then 0xff).
    #[inline]
    pub fn hash_str(s: &str) -> u64 {
        let mut state = tagged(5);
        for &b in s.as_bytes() {
            state = (state ^ u64::from(b)).wrapping_mul(PRIME);
        }
        mix64((state ^ 0xff).wrapping_mul(PRIME))
    }

    /// splitmix64 finalizer.
    #[inline]
    pub const fn mix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// FNV-1a with splitmix64 finalizer (same construction as
    /// `idf_ctrie::hash::FxHasher`).
    pub struct FxHasher {
        state: u64,
    }

    impl Default for FxHasher {
        fn default() -> Self {
            FxHasher { state: OFFSET }
        }
    }

    impl std::hash::Hasher for FxHasher {
        #[inline]
        fn finish(&self) -> u64 {
            mix64(self.state)
        }

        #[inline]
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.state = (self.state ^ u64::from(b)).wrapping_mul(PRIME);
            }
        }

        #[inline]
        fn write_u64(&mut self, i: u64) {
            self.state = mix64(self.state ^ i);
        }

        #[inline]
        fn write_i64(&mut self, i: i64) {
            self.write_u64(i as u64);
        }

        #[inline]
        fn write_u32(&mut self, i: u32) {
            self.write_u64(u64::from(i));
        }

        #[inline]
        fn write_i32(&mut self, i: i32) {
            self.write_u64(i as u32 as u64);
        }

        #[inline]
        fn write_usize(&mut self, i: usize) {
            self.write_u64(i as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_cache_is_keyed_by_execution_id() {
        let cache: ExecCache<u64> = ExecCache::new();
        let ctx_a = TaskContext::default();
        let calls = std::sync::atomic::AtomicU64::new(0);
        let bump = || Ok(calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1);
        // First call computes; same-execution calls (clones included) hit
        // the cache.
        assert_eq!(cache.get_or_try_init(&ctx_a, bump).unwrap(), 1);
        assert_eq!(cache.get_or_try_init(&ctx_a, bump).unwrap(), 1);
        assert_eq!(cache.get_or_try_init(&ctx_a.clone(), bump).unwrap(), 1);
        // A fresh context is a new execution: recompute.
        let ctx_b = TaskContext::default();
        assert_eq!(cache.get_or_try_init(&ctx_b, bump).unwrap(), 2);
        // Errors are not cached — the next caller retries.
        let err = cache
            .get_or_try_init(&TaskContext::default(), || {
                Err::<u64, _>(crate::error::EngineError::internal("boom"))
            })
            .unwrap_err();
        assert!(err.to_string().contains("boom"));
        assert_eq!(cache.get_or_try_init(&ctx_b, bump).unwrap(), 2);
    }

    #[test]
    fn hash_value_stable_and_type_tagged() {
        assert_eq!(hash_value(&Value::Int64(5)), hash_value(&Value::Int64(5)));
        assert_ne!(hash_value(&Value::Int64(5)), hash_value(&Value::Int64(6)));
        // discriminant participates: Int32(5) != Int64(5)
        assert_ne!(hash_value(&Value::Int32(5)), hash_value(&Value::Int64(5)));
    }

    #[test]
    fn hash_values_order_sensitive() {
        let a = [Value::Int64(1), Value::Int64(2)];
        let b = [Value::Int64(2), Value::Int64(1)];
        assert_ne!(hash_values(&a), hash_values(&b));
        assert_eq!(hash_values(&a), hash_values(&a));
    }
}
