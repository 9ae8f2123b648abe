//! The engine [`TableSource`] over an [`IndexedTable`].
//!
//! This is where the Catalyst-analog integration happens on the *filter*
//! path: [`IndexedSource::supports_filter_pushdown`] advertises equality
//! predicates (`key = lit`) and IN-lists of literals (`key IN (…)`) on the
//! indexed column, so the engine's predicate-pushdown rule moves them into
//! the scan, and [`IndexedSource::scan_with_filters`] answers them with
//! cTrie lookups plus backward-pointer traversals instead of a full scan
//! (paper: *"Equality filter"* indexed operator, extended to multi-key
//! probes). A conjunction of pushed filters intersects their key sets.
//! Everything else falls back to `transformToRowRDD`-style full scans over
//! the row batches — and an integer or timestamp comparison with a
//! constant ([`IndexedSource::walk_predicate`]) is claimed too and
//! evaluated inside that walk (or on a probe's chain rows), on the row
//! bytes, before anything is decoded.
//!
//! A pushed filter must answer exactly as the engine's comparison kernels
//! would above the scan. The trie finds a key by its `Value` bits, which
//! agrees with SQL `=` for every key type but Float64 (`0.0 = -0.0` is
//! TRUE, `NaN = NaN` is not), so nothing is claimed on a Float64 key: its
//! filters stay a plain `Filter` over the scan, and prune nothing.
//!
//! The same key set answers [`IndexedSource::prune`] at plan time: through
//! the primary index each key lives in exactly one hash partition, so a
//! key-equality scan is planned over that partition alone; through any
//! other index of the table (a handle from [`IndexedTable::index`]) a key's
//! rows may sit in every partition, so the probe fans out to all of them —
//! still one cTrie lookup per partition, not a scan. In a cached plan the
//! literal is still an [`Expr::Param`] when pushdown is decided; a
//! parameter is claimed exactly like a literal of its type, and is bound
//! before any scan runs. Walk predicates prune nothing.

use std::any::Any;
use std::sync::Arc;

use idf_engine::catalog::{check_append_rows, ChunkIter, ScanPruning, Statistics, TableSource};
use idf_engine::chunk::Chunk;
use idf_engine::error::{EngineError, Result};
use idf_engine::expr::{BinaryOp, Expr};
use idf_engine::query::QueryContext;
use idf_engine::schema::SchemaRef;
use idf_engine::types::{DataType, Value};

use crate::layout::{RowLayout, SlotPredicate};
use crate::table::{IndexedTable, TableSnapshot};

/// Scan source over an indexed table: either *live* (each partition scan
/// snapshots at execution time — cheap, loosely consistent across
/// partitions, like querying a continuously updated cache) or *frozen*
/// (pinned to one [`TableSnapshot`] for cross-partition consistency).
pub struct IndexedSource {
    table: Arc<IndexedTable>,
    frozen: Option<Arc<TableSnapshot>>,
}

impl IndexedSource {
    /// A live source over `table`.
    pub fn live(table: Arc<IndexedTable>) -> Self {
        IndexedSource {
            table,
            frozen: None,
        }
    }

    /// A source pinned to a consistent snapshot of `table`.
    pub fn frozen(table: Arc<IndexedTable>) -> Self {
        let snap = Arc::new(table.snapshot());
        IndexedSource {
            table,
            frozen: Some(snap),
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &Arc<IndexedTable> {
        &self.table
    }

    /// Whether this source is pinned to a snapshot.
    pub fn is_frozen(&self) -> bool {
        self.frozen.is_some()
    }

    fn is_key_col(&self, e: &Expr) -> bool {
        matches!(e, Expr::Column(c) if c.index == Some(self.table.key_col()))
    }

    fn key_type(&self) -> DataType {
        self.table.schema().field(self.table.key_col()).data_type
    }

    /// Extract the key literal of an equality filter on the indexed
    /// column, if the expression has that shape.
    ///
    /// Accepted shapes (post constant-folding): `key = lit` and
    /// `lit = key`, where the literal's type matches the key column.
    pub fn key_equality_literal(&self, filter: &Expr) -> Option<Value> {
        let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = filter
        else {
            return None;
        };
        let key_dt = self.key_type();
        let literal_of = |e: &Expr| match e {
            Expr::Literal(v) if v.data_type() == Some(key_dt) => Some(v.clone()),
            _ => None,
        };
        if self.is_key_col(left) {
            return literal_of(right);
        }
        if self.is_key_col(right) {
            return literal_of(left);
        }
        None
    }

    /// Extract the key literals of an IN-list filter on the indexed
    /// column: `key IN (lit, …)`, not negated, every entry a literal of
    /// the key type or NULL.
    ///
    /// NULL entries are dropped: in a *filter* position `key IN (…, NULL)`
    /// can only add NULL outcomes, and a filter treats NULL as false — so
    /// the non-null entries alone decide which rows survive. Duplicates
    /// are removed. An empty result (`Some(vec![])`) means the filter is
    /// unsatisfiable.
    pub fn key_in_list_literals(&self, filter: &Expr) -> Option<Vec<Value>> {
        let Expr::InList {
            expr,
            list,
            negated: false,
        } = filter
        else {
            return None;
        };
        if !self.is_key_col(expr) {
            return None;
        }
        let key_dt = self.key_type();
        let mut keys: Vec<Value> = Vec::with_capacity(list.len());
        for entry in list {
            match entry {
                Expr::Literal(Value::Null) => {}
                Expr::Literal(v) if v.data_type() == Some(key_dt) => {
                    if !keys.contains(v) {
                        keys.push(v.clone());
                    }
                }
                _ => return None,
            }
        }
        Some(keys)
    }

    /// The key set a pushed filter selects, if it has a pushable shape.
    /// None on a Float64 key: the trie matches a key by its bits, a filter
    /// by IEEE equality (`0.0 = -0.0`, `NaN <> NaN`), so such a filter
    /// stays above the scan.
    fn key_set_of(&self, filter: &Expr) -> Option<Vec<Value>> {
        if self.key_type() == DataType::Float64 {
            return None;
        }
        if let Some(k) = self.key_equality_literal(filter) {
            return Some(vec![k]);
        }
        self.key_in_list_literals(filter)
    }

    /// A comparison the scan evaluates on the row bytes as it walks them:
    /// `col op c` or `c op col`, with `op` one of `= <> < <= > >=`, `col`
    /// an Int32, Int64 or Timestamp column (bare, or as the
    /// `CAST(col AS BIGINT)` the analyzer wraps around an Int32 or a
    /// timestamp compared with an integer), and `c` a non-null literal of
    /// the operand's type. An equality on the key is an index probe
    /// instead (see [`Self::key_equality_literal`]).
    pub fn walk_predicate(&self, filter: &Expr) -> Option<SlotPredicate> {
        let Expr::Binary { left, op, right } = filter else {
            return None;
        };
        let (operand, constant, op) = match self.slot_operand(left) {
            Some(operand) => (operand, right, *op),
            None => (self.slot_operand(right)?, left, flipped(*op)?),
        };
        let (col, operand_type) = operand;
        let value = match constant.as_ref() {
            Expr::Literal(v) if v.data_type() == Some(operand_type) => v.as_i64()?,
            _ => return None,
        };
        RowLayout::new(self.table.schema()).slot_predicate(col, op, value)
    }

    /// The column a comparison operand reads and the operand's type: a
    /// bare column, or `CAST(col AS BIGINT)` of an integer or timestamp
    /// column (the same slot, widened or reinterpreted exactly).
    fn slot_operand(&self, e: &Expr) -> Option<(usize, DataType)> {
        let column = |e: &Expr| match e {
            Expr::Column(c) => {
                let col = c.index?;
                Some((col, self.table.schema().fields.get(col)?.data_type))
            }
            _ => None,
        };
        match e {
            Expr::Cast {
                expr,
                to: DataType::Int64,
            } => match column(expr)? {
                (col, DataType::Int32 | DataType::Int64 | DataType::Timestamp) => {
                    Some((col, DataType::Int64))
                }
                _ => None,
            },
            e => column(e),
        }
    }

    /// The keys the key filters among `filters` select: the intersection
    /// of their key sets (`Some(vec![])` when it is empty: no row can
    /// match). `None` when no filter is a key filter — the scan is then
    /// not restricted to any key.
    fn pushed_keys(&self, filters: &[Expr]) -> Option<Vec<Value>> {
        filters
            .iter()
            .filter_map(|f| self.key_set_of(f))
            .reduce(intersect)
    }

    /// Sort pushed filters into the key set the index answers (see
    /// [`Self::pushed_keys`]) and the predicates the walk evaluates. The
    /// pushdown rule only hands over filters this source claimed, so an
    /// unclaimed one is a planner bug, not a case to scan around.
    fn split(&self, filters: &[Expr]) -> Result<(Option<Vec<Value>>, Vec<SlotPredicate>)> {
        let mut keys: Option<Vec<Value>> = None;
        let mut preds = Vec::new();
        for f in filters {
            match self.key_set_of(f) {
                Some(set) => {
                    keys = Some(match keys.take() {
                        None => set,
                        Some(prev) => intersect(prev, set),
                    })
                }
                None => preds.push(self.walk_predicate(f).ok_or_else(|| {
                    EngineError::internal("indexed scan was handed a filter it did not claim")
                })?),
            }
        }
        Ok((keys, preds))
    }

    /// Whether `filter` is a pushable shape once its [`Expr::Param`]
    /// placeholders are bound: a cached plan decides pushdown before it
    /// knows the literal, and a parameter is claimed exactly like a
    /// literal of its type.
    fn claims(&self, filter: &Expr) -> bool {
        let as_literals = with_placeholders(filter);
        self.key_set_of(&as_literals).is_some() || self.walk_predicate(&as_literals).is_some()
    }

    fn partition_snapshot(&self, partition: usize) -> Result<PartitionView<'_>> {
        match &self.frozen {
            Some(snap) => Ok(PartitionView::Frozen(snap, partition)),
            None => Ok(PartitionView::Live(
                self.table.partition_snapshot(partition),
            )),
        }
    }

    /// Scan of one partition with pushed `filters`, optionally under a
    /// query lifecycle context. Key filters become index probes that honour
    /// cancellation and charge their result chunks against the query's
    /// memory budget; without one, the partition is walked lazily, chunk by
    /// chunk as the consumer pulls them. Either way only the rows that pass
    /// the walk predicates are decoded.
    fn scan_filtered(
        &self,
        partition: usize,
        projection: Option<&[usize]>,
        filters: &[Expr],
        query: Option<&Arc<QueryContext>>,
    ) -> Result<ChunkIter> {
        let (keys, preds) = self.split(filters)?;
        let view = self.partition_snapshot(partition)?;
        let Some(keys) = keys else {
            let chunks = view.get().scan_where(
                projection,
                &preds,
                self.table.config().scan_chunk_rows,
                query.cloned(),
            )?;
            return Ok(Box::new(chunks));
        };
        // Through the primary index, keep the keys that hash-route to THIS
        // partition; the rest are pruned — their home partitions answer
        // for them. Any other index's keys are not routed.
        let local: Vec<Value> = keys
            .into_iter()
            .filter(|k| !self.table.is_primary() || self.table.partition_of(k) == partition)
            .collect();
        let chunk = match (local.as_slice(), preds.is_empty()) {
            // Empty intersection (or no local keys): nothing here.
            ([], _) => Chunk::empty(&project_schema(&self.table.schema(), projection)),
            // Index lookup instead of a scan; the result is billed to the
            // query (the multi-key path bills inside the probe).
            ([key], true) => {
                let chunk = view.get().lookup_chunk(key, projection)?;
                if let Some(q) = query {
                    q.charge_memory(chunk.byte_size())?;
                }
                chunk
            }
            // Several keys, or rows to filter: one set of column builders.
            (keys, _) => view.get().lookup_chunk_multi_ctx(
                keys,
                projection,
                &preds,
                query.map(Arc::as_ref),
            )?,
        };
        Ok(Box::new(std::iter::once(Ok(chunk))))
    }
}

/// The keys of `keys` that `set` also holds.
fn intersect(keys: Vec<Value>, set: Vec<Value>) -> Vec<Value> {
    keys.into_iter().filter(|k| set.contains(k)).collect()
}

/// `filter` with every [`Expr::Param`] replaced by some non-null value of
/// its type (which one is irrelevant: only the shape is being judged).
fn with_placeholders(filter: &Expr) -> Expr {
    filter.map_leaves(&|leaf| match leaf {
        Expr::Param { data_type, .. } => Expr::Literal(placeholder_of(*data_type)),
        other => other.clone(),
    })
}

/// `op` with its operands swapped (`c < col` is `col > c`), for a
/// comparison.
fn flipped(op: BinaryOp) -> Option<BinaryOp> {
    Some(match op {
        BinaryOp::Eq | BinaryOp::NotEq => op,
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        _ => return None,
    })
}

enum PartitionView<'a> {
    Live(crate::partition::PartitionSnapshot),
    Frozen(&'a Arc<TableSnapshot>, usize),
}

impl PartitionView<'_> {
    fn get(&self) -> &crate::partition::PartitionSnapshot {
        match self {
            PartitionView::Live(s) => s,
            PartitionView::Frozen(t, p) => &t.partitions()[*p],
        }
    }
}

impl TableSource for IndexedSource {
    fn schema(&self) -> SchemaRef {
        self.table.schema()
    }

    fn num_partitions(&self) -> usize {
        self.table.num_partitions()
    }

    fn scan(&self, partition: usize, projection: Option<&[usize]>) -> Result<ChunkIter> {
        self.scan_filtered(partition, projection, &[], None)
    }

    fn supports_filter_pushdown(&self, filter: &Expr) -> bool {
        self.claims(filter)
    }

    fn probes_index(&self, filter: &Expr) -> bool {
        self.key_set_of(&with_placeholders(filter)).is_some()
    }

    fn hash_partitioned_by(&self) -> Option<usize> {
        // Appends and DML route every row image by `partition_of` its own
        // primary key, whichever index this handle probes; a frozen
        // snapshot keeps the table's partitions.
        Some(self.table.primary_col())
    }

    fn indexed_by(&self) -> Option<usize> {
        Some(self.table.key_col())
    }

    fn prune(&self, filters: &[Expr]) -> Option<ScanPruning> {
        // Walk predicates prune nothing: only a key filter names partitions.
        let keys = self.pushed_keys(filters)?;
        let mut partitions: Vec<usize> = if !self.table.is_primary() && !keys.is_empty() {
            (0..self.table.num_partitions()).collect()
        } else {
            keys.iter().map(|k| self.table.partition_of(k)).collect()
        };
        partitions.sort_unstable();
        partitions.dedup();
        // Rows per key from the maintained counters: the visible rows over
        // the probed index's keys (its mean visible chain).
        let m = self.table.memory_stats();
        let per_key = m.visible_rows().div_ceil(m.index_entries.max(1));
        Some(ScanPruning {
            partitions,
            rows: keys.len() * per_key,
        })
    }

    fn scan_with_filters(
        &self,
        partition: usize,
        projection: Option<&[usize]>,
        filters: &[Expr],
    ) -> Result<ChunkIter> {
        self.scan_filtered(partition, projection, filters, None)
    }

    fn scan_with_ctx(
        &self,
        partition: usize,
        projection: Option<&[usize]>,
        filters: &[Expr],
        query: &Arc<QueryContext>,
    ) -> Result<ChunkIter> {
        self.scan_filtered(partition, projection, filters, Some(query))
    }

    fn statistics(&self) -> Statistics {
        let m = self.table.store_stats();
        Statistics {
            row_count: Some(m.visible_rows()),
            byte_size: Some(m.data_bytes),
        }
    }

    fn append_rows(&self, rows: &[Vec<Value>]) -> Result<usize> {
        if self.is_frozen() {
            return Err(EngineError::Unsupported(
                "cannot INSERT through a frozen (snapshot-pinned) source".to_string(),
            ));
        }
        check_append_rows(&self.table.schema(), rows)?;
        let chunk = Chunk::from_rows(&self.table.schema(), rows)?;
        self.table.append_chunk(&chunk)?;
        Ok(rows.len())
    }

    fn apply_dml(&self, deletes: &[Vec<Value>], inserts: &[Vec<Value>]) -> Result<usize> {
        if self.is_frozen() {
            return Err(EngineError::Unsupported(
                "cannot UPDATE/DELETE through a frozen (snapshot-pinned) source".to_string(),
            ));
        }
        check_append_rows(&self.table.schema(), deletes)?;
        check_append_rows(&self.table.schema(), inserts)?;
        self.table.apply_dml(deletes, inserts)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Some non-null value of type `dt` (which one is irrelevant to the caller).
fn placeholder_of(dt: DataType) -> Value {
    match dt {
        DataType::Boolean => Value::Boolean(false),
        DataType::Int32 => Value::Int32(0),
        DataType::Int64 => Value::Int64(0),
        DataType::Float64 => Value::Float64(0.0),
        DataType::Utf8 => Value::Utf8(String::new()),
        DataType::Timestamp => Value::Timestamp(0),
    }
}

fn project_schema(schema: &SchemaRef, projection: Option<&[usize]>) -> SchemaRef {
    match projection {
        Some(p) => Arc::new(schema.project(p)),
        None => Arc::clone(schema),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use idf_engine::expr::{col, lit};
    use idf_engine::schema::{Field, Schema};
    use idf_engine::types::DataType;

    fn table() -> Arc<IndexedTable> {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Utf8),
        ]));
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::Int64(i % 10), Value::Utf8(format!("v{i}"))])
            .collect();
        let chunk = Chunk::from_rows(&schema, &rows).unwrap();
        Arc::new(
            IndexedTable::from_chunk(
                schema,
                0,
                IndexConfig {
                    num_partitions: 4,
                    ..Default::default()
                },
                &chunk,
            )
            .unwrap(),
        )
    }

    fn bound_col(name: &str, index: usize) -> Expr {
        let mut c = col(name);
        if let Expr::Column(cr) = &mut c {
            cr.index = Some(index);
        }
        c
    }

    fn bound_key_eq(v: i64) -> Expr {
        bound_col("k", 0).eq(lit(v))
    }

    fn bound_key_in(vs: &[i64]) -> Expr {
        bound_col("k", 0).in_list(vs.iter().map(|&v| lit(v)).collect())
    }

    #[test]
    fn recognizes_pushable_filters() {
        let s = IndexedSource::live(table());
        assert!(s.supports_filter_pushdown(&bound_key_eq(3)));
        // flipped orientation
        let mut c = col("k");
        if let Expr::Column(cr) = &mut c {
            cr.index = Some(0);
        }
        assert!(s.supports_filter_pushdown(&lit(3i64).eq(c)));
        // wrong column
        let mut v = col("v");
        if let Expr::Column(cr) = &mut v {
            cr.index = Some(1);
        }
        assert!(!s.supports_filter_pushdown(&v.eq(lit("x"))));
        // non-equality: not a probe, but the walk evaluates it
        let mut c = col("k");
        if let Expr::Column(cr) = &mut c {
            cr.index = Some(0);
        }
        let range = c.gt(lit(3i64));
        assert!(s.supports_filter_pushdown(&range));
        assert!(!s.probes_index(&range));
        assert!(s.probes_index(&bound_key_eq(3)));
        // mismatched literal type
        let mut c = col("k");
        if let Expr::Column(cr) = &mut c {
            cr.index = Some(0);
        }
        assert!(!s.supports_filter_pushdown(&c.eq(lit("three"))));
    }

    /// A table with every claimed type and a few it leaves to `Filter`.
    fn typed_table() -> Arc<IndexedTable> {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("i", DataType::Int32),
            Field::new("ts", DataType::Timestamp),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ]));
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                vec![
                    Value::Int64(i % 10),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int32(i as i32)
                    },
                    Value::Timestamp(1000 + i),
                    Value::Float64(i as f64),
                    Value::Utf8(format!("v{i}")),
                ]
            })
            .collect();
        let chunk = Chunk::from_rows(&schema, &rows).unwrap();
        let cfg = IndexConfig {
            num_partitions: 4,
            ..Default::default()
        };
        Arc::new(IndexedTable::from_chunk(schema, 0, cfg, &chunk).unwrap())
    }

    fn count(s: &IndexedSource, filters: &[Expr]) -> usize {
        (0..s.num_partitions())
            .flat_map(|p| s.scan_with_filters(p, Some(&[]), filters).unwrap())
            .map(|c| c.unwrap().len())
            .sum()
    }

    #[test]
    fn claims_integer_comparisons_for_the_walk() {
        let s = IndexedSource::live(typed_table());
        let param = |dt| Expr::Param {
            slot: 0,
            data_type: dt,
        };
        let ts_as_int = || bound_col("ts", 2).cast(DataType::Int64);
        for claimed in [
            bound_col("i", 1).lt_eq(lit(5i32)),
            lit(5i32).lt(bound_col("i", 1)),
            bound_col("ts", 2).not_eq(Expr::Literal(Value::Timestamp(1003))),
            ts_as_int().gt(lit(1050i64)),
            ts_as_int().gt(param(DataType::Int64)),
            bound_col("i", 1).cast(DataType::Int64).gt_eq(lit(3i64)),
            bound_col("k", 0).not_eq(param(DataType::Int64)),
        ] {
            assert!(s.supports_filter_pushdown(&claimed), "{claimed}");
            assert!(!s.probes_index(&claimed), "{claimed}");
        }
        for left in [
            // Floats, strings and booleans stay with `Filter`.
            bound_col("f", 3).gt(lit(1.5)),
            bound_col("s", 4).eq(lit("v3")),
            // A constant of another type, NULL, or no constant at all.
            bound_col("i", 1).lt(lit(5i64)),
            ts_as_int().gt(param(DataType::Int32)),
            bound_col("i", 1).lt(Expr::Literal(Value::Null)),
            bound_col("i", 1).lt(bound_col("k", 0)),
            // Arithmetic is not a slot.
            bound_col("k", 0).add(lit(1i64)).gt(lit(3i64)),
        ] {
            assert!(!s.supports_filter_pushdown(&left), "{left}");
        }
    }

    #[test]
    fn walk_predicates_filter_scans_and_probes() {
        let s = IndexedSource::live(typed_table());
        // i = 1..99 minus the NULL multiples of 7; a NULL never passes.
        let small = bound_col("i", 1).lt(lit(20i32));
        assert_eq!(count(&s, std::slice::from_ref(&small)), 19 - 2);
        assert_eq!(count(&s, &[lit(20i32).gt_eq(bound_col("i", 1))]), 21 - 3);
        let late = bound_col("ts", 2).cast(DataType::Int64).gt(lit(1089i64));
        assert_eq!(count(&s, std::slice::from_ref(&late)), 10);
        assert_eq!(count(&s, &[small.clone(), late.clone()]), 0);
        // Key probe plus walk predicate: key 3 holds i = 3, 13, …, 93.
        assert_eq!(count(&s, &[bound_key_eq(3), small]), 2);
        assert_eq!(count(&s, &[bound_key_in(&[3, 9]), late]), 2);
        // Projected rows are the passing ones.
        let rows: Vec<Value> = (0..s.num_partitions())
            .flat_map(|p| {
                s.scan_with_filters(p, Some(&[1]), &[bound_col("i", 1).gt(lit(95i32))])
                    .unwrap()
            })
            .flat_map(|c| c.unwrap().to_rows())
            .flatten()
            .collect();
        let mut rows: Vec<i64> = rows.iter().filter_map(Value::as_i64).collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![96, 97, 99]);
    }

    /// Only key filters restrict which keys a scan reads: a filter list
    /// with no key filter must neither prune partitions nor be read as
    /// the empty key set ("no rows").
    #[test]
    fn walk_only_filters_never_mean_no_keys() {
        let s = IndexedSource::live(typed_table());
        let all = bound_col("i", 1).gt(lit(-1i32));
        assert_eq!(s.pushed_keys(std::slice::from_ref(&all)), None);
        assert!(s.prune(std::slice::from_ref(&all)).is_none());
        assert_eq!(count(&s, std::slice::from_ref(&all)), 100 - 15);
        let pruned = s.prune(&[all, bound_key_eq(3)]).unwrap();
        assert_eq!(pruned.partitions.len(), 1);
        assert_eq!(s.pushed_keys(&[bound_key_in(&[])]), Some(vec![]));
    }

    #[test]
    fn filtered_scan_is_an_index_lookup() {
        let s = IndexedSource::live(table());
        let mut total = 0;
        for p in 0..s.num_partitions() {
            for chunk in s.scan_with_filters(p, None, &[bound_key_eq(3)]).unwrap() {
                let chunk = chunk.unwrap();
                for r in 0..chunk.len() {
                    assert_eq!(chunk.value_at(0, r), Value::Int64(3));
                }
                total += chunk.len();
            }
        }
        assert_eq!(total, 10);
    }

    #[test]
    fn recognizes_in_list_filters() {
        let s = IndexedSource::live(table());
        assert!(s.supports_filter_pushdown(&bound_key_in(&[3, 7])));
        // NULL entries are tolerated (dropped in filter position).
        let with_null = bound_col("k", 0).in_list(vec![lit(3i64), Expr::Literal(Value::Null)]);
        assert_eq!(
            s.key_in_list_literals(&with_null),
            Some(vec![Value::Int64(3)])
        );
        // NOT IN is not pushable.
        assert!(!s.supports_filter_pushdown(&bound_col("k", 0).not_in_list(vec![lit(3i64)])));
        // Wrong column, non-literal entry, mismatched type: not pushable.
        assert!(!s.supports_filter_pushdown(&bound_col("v", 1).in_list(vec![lit("x")])));
        assert!(!s.supports_filter_pushdown(&bound_col("k", 0).in_list(vec![bound_col("k", 0)])));
        assert!(!s.supports_filter_pushdown(&bound_col("k", 0).in_list(vec![lit("three")])));
    }

    #[test]
    fn in_list_scan_probes_each_key_once() {
        let s = IndexedSource::live(table());
        let mut total = 0;
        for p in 0..s.num_partitions() {
            // Duplicate 3 must not double its rows.
            for chunk in s
                .scan_with_filters(p, None, &[bound_key_in(&[3, 7, 3, 999])])
                .unwrap()
            {
                let chunk = chunk.unwrap();
                for r in 0..chunk.len() {
                    let k = chunk.value_at(0, r);
                    assert!(k == Value::Int64(3) || k == Value::Int64(7), "got {k:?}");
                }
                total += chunk.len();
            }
        }
        assert_eq!(total, 20);
    }

    #[test]
    fn eq_and_in_list_intersect() {
        let s = IndexedSource::live(table());
        let count = |filters: &[Expr]| {
            let mut total = 0;
            for p in 0..s.num_partitions() {
                for chunk in s.scan_with_filters(p, None, filters).unwrap() {
                    total += chunk.unwrap().len();
                }
            }
            total
        };
        // k IN (3, 7) AND k = 3  →  only key 3.
        assert_eq!(count(&[bound_key_in(&[3, 7]), bound_key_eq(3)]), 10);
        // k IN (3, 7) AND k = 4  →  empty.
        assert_eq!(count(&[bound_key_in(&[3, 7]), bound_key_eq(4)]), 0);
        // k IN (3, 7) AND k IN (7, 8)  →  only key 7.
        assert_eq!(count(&[bound_key_in(&[3, 7]), bound_key_in(&[7, 8])]), 10);
        // Empty IN-list is unsatisfiable.
        assert_eq!(count(&[bound_key_in(&[])]), 0);
    }

    #[test]
    fn contradictory_filters_yield_empty() {
        let s = IndexedSource::live(table());
        let mut total = 0;
        for p in 0..s.num_partitions() {
            for chunk in s
                .scan_with_filters(p, None, &[bound_key_eq(3), bound_key_eq(4)])
                .unwrap()
            {
                total += chunk.unwrap().len();
            }
        }
        assert_eq!(total, 0);
    }

    #[test]
    fn full_scan_covers_everything() {
        let s = IndexedSource::live(table());
        let mut total = 0;
        for p in 0..s.num_partitions() {
            for chunk in s.scan(p, None).unwrap() {
                total += chunk.unwrap().len();
            }
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn frozen_source_is_consistent() {
        let t = table();
        let s = IndexedSource::frozen(Arc::clone(&t));
        t.append_row(&[Value::Int64(3), Value::Utf8("new".into())])
            .unwrap();
        let mut total = 0;
        for p in 0..s.num_partitions() {
            for chunk in s.scan_with_filters(p, None, &[bound_key_eq(3)]).unwrap() {
                total += chunk.unwrap().len();
            }
        }
        assert_eq!(total, 10, "frozen view misses the new row");
        let live = IndexedSource::live(t);
        let mut total = 0;
        for p in 0..live.num_partitions() {
            for chunk in live.scan_with_filters(p, None, &[bound_key_eq(3)]).unwrap() {
                total += chunk.unwrap().len();
            }
        }
        assert_eq!(total, 11);
    }

    #[test]
    fn scan_projection_narrows_columns() {
        let s = IndexedSource::live(table());
        for chunk in s.scan(0, Some(&[1])).unwrap() {
            assert_eq!(chunk.unwrap().num_columns(), 1);
        }
    }

    #[test]
    fn statistics_report_rows() {
        let s = IndexedSource::live(table());
        assert_eq!(s.statistics().row_count, Some(100));
    }

    /// Plan-time estimates count only the rows a scan would return: after
    /// half of one key's chain is deleted (a tombstone, the dead chain
    /// below it and the re-appended survivors all stay stored until a
    /// compaction), the bound is the visible mean chain — and through a
    /// secondary index, the visible rows over that index's own keys, on
    /// every partition.
    #[test]
    fn estimates_count_visible_rows_through_every_index() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("g", DataType::Int64),
        ]));
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::Int64(i % 10), Value::Int64(i % 4)])
            .collect();
        let cfg = IndexConfig {
            num_partitions: 4,
            ..Default::default()
        };
        let table = IndexedTable::with_indexes(Arc::clone(&schema), 0, &[1], cfg).unwrap();
        table
            .append_chunk(&Chunk::from_rows(&schema, &rows).unwrap())
            .unwrap();
        let half_of_key_3: Vec<Vec<Value>> = [3i64, 13, 23, 33, 43]
            .iter()
            .map(|&i| vec![Value::Int64(i % 10), Value::Int64(i % 4)])
            .collect();
        assert_eq!(table.apply_dml(&half_of_key_3, &[]).unwrap(), 5);
        let m = table.memory_stats();
        assert_eq!((m.rows, m.tombstones, m.dead_rows), (106, 1, 10));
        assert_eq!(m.visible_rows(), 95);

        let by_k = IndexedSource::live(Arc::new(table.index(0).unwrap()));
        let pruned = by_k.prune(&[bound_key_eq(3)]).unwrap();
        assert_eq!(pruned.rows, 10, "95 visible rows over 10 keys");
        assert_eq!(pruned.partitions.len(), 1);
        assert_eq!(by_k.statistics().row_count, Some(95));

        let by_g = IndexedSource::live(Arc::new(table.index(1).unwrap()));
        let entries = by_g.table().memory_stats().index_entries;
        let pruned = by_g.prune(&[bound_col("g", 1).eq(lit(2i64))]).unwrap();
        assert_eq!(pruned.rows, 95usize.div_ceil(entries));
        assert_eq!(
            pruned.partitions,
            vec![0, 1, 2, 3],
            "a secondary probe fans out"
        );
        assert_eq!(by_g.statistics().row_count, Some(95));
        let none = by_g
            .prune(&[bound_col("g", 1).in_list(Vec::new())])
            .unwrap();
        assert_eq!((none.partitions.len(), none.rows), (0, 0));
    }
}
