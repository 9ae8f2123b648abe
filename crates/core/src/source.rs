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
//! the row batches.
//!
//! The same key set answers [`IndexedSource::prune`] at plan time: through
//! the primary index each key lives in exactly one hash partition, so a
//! key-equality scan is planned over that partition alone; through any
//! other index of the table (a handle from [`IndexedTable::index`]) a key's
//! rows may sit in every partition, so the probe fans out to all of them —
//! still one cTrie lookup per partition, not a scan. In a cached plan the
//! literal is still an [`Expr::Param`] when pushdown is decided; a
//! parameter of the key's type is claimed exactly like a literal, and is
//! bound before any scan runs.

use std::any::Any;
use std::sync::Arc;

use idf_engine::catalog::{check_append_rows, ChunkIter, ScanPruning, Statistics, TableSource};
use idf_engine::chunk::Chunk;
use idf_engine::error::{EngineError, Result};
use idf_engine::expr::{BinaryOp, Expr};
use idf_engine::query::QueryContext;
use idf_engine::schema::SchemaRef;
use idf_engine::types::Value;

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

    fn key_type(&self) -> idf_engine::types::DataType {
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
    fn key_set_of(&self, filter: &Expr) -> Option<Vec<Value>> {
        if let Some(k) = self.key_equality_literal(filter) {
            return Some(vec![k]);
        }
        self.key_in_list_literals(filter)
    }

    /// The keys a conjunction of pushed filters selects: the intersection
    /// of their key sets. `None` when a filter has no pushable shape —
    /// the pushdown rule only hands over filters this source claimed, so
    /// that is a planner bug, not a case to scan around.
    fn pushed_keys(&self, filters: &[Expr]) -> Option<Vec<Value>> {
        let mut keys: Option<Vec<Value>> = None;
        for f in filters {
            let set = self.key_set_of(f)?;
            keys = Some(match keys {
                None => set,
                Some(prev) => prev.into_iter().filter(|k| set.contains(k)).collect(),
            });
        }
        Some(keys.unwrap_or_default())
    }

    /// Whether `filter` is a pushable shape once its [`Expr::Param`]
    /// placeholders (of the key's type) are bound: a cached plan decides
    /// pushdown before it knows the literal.
    fn claims(&self, filter: &Expr) -> bool {
        let key_dt = self.key_type();
        let as_literals = filter.map_leaves(&|leaf| match leaf {
            Expr::Param { data_type, .. } if *data_type == key_dt => {
                // Any value of the key type stands in for the parameter;
                // only the shape is being judged.
                Expr::Literal(placeholder_of(key_dt))
            }
            other => other.clone(),
        });
        self.key_set_of(&as_literals).is_some()
    }

    fn partition_snapshot(&self, partition: usize) -> Result<PartitionView<'_>> {
        match &self.frozen {
            Some(snap) => Ok(PartitionView::Frozen(snap, partition)),
            None => Ok(PartitionView::Live(
                self.table.partition_snapshot(partition),
            )),
        }
    }

    /// Full scan of one partition, optionally under a query lifecycle
    /// context (cancellation checks and memory charging per emitted chunk).
    /// Chunks are decoded as the consumer pulls them.
    fn scan_ctx(
        &self,
        partition: usize,
        projection: Option<&[usize]>,
        query: Option<&Arc<QueryContext>>,
    ) -> Result<ChunkIter> {
        let view = self.partition_snapshot(partition)?;
        let chunks = view.get().scan(
            projection,
            self.table.config().scan_chunk_rows,
            query.cloned(),
        )?;
        Ok(Box::new(chunks))
    }

    /// Filtered scan of one partition under an optional lifecycle context:
    /// pushed key filters become index probes that honour cancellation and
    /// charge their result chunks against the query's memory budget.
    fn scan_with_filters_ctx(
        &self,
        partition: usize,
        projection: Option<&[usize]>,
        filters: &[Expr],
        query: Option<&QueryContext>,
    ) -> Result<ChunkIter> {
        let keys = self.pushed_keys(filters).ok_or_else(|| {
            EngineError::internal("indexed scan was handed a filter it did not claim")
        })?;
        // Through the primary index, keep the keys that hash-route to THIS
        // partition; the rest are pruned — their home partitions answer
        // for them. Any other index's keys are not routed.
        let local: Vec<Value> = keys
            .into_iter()
            .filter(|k| !self.table.is_primary() || self.table.partition_of(k) == partition)
            .collect();
        let view = self.partition_snapshot(partition)?;
        let chunk = match local.as_slice() {
            // Empty intersection (or no local keys): nothing here.
            [] => Chunk::empty(&project_schema(&self.table.schema(), projection)),
            // Index lookup instead of a scan; the result is billed to the
            // query (the multi-key path bills inside the probe).
            [key] => {
                let chunk = view.get().lookup_chunk(key, projection)?;
                if let Some(q) = query {
                    q.charge_memory(chunk.byte_size())?;
                }
                chunk
            }
            // Multi-key probe sharing one set of column builders.
            many => view.get().lookup_chunk_multi_ctx(many, projection, query)?,
        };
        Ok(Box::new(std::iter::once(Ok(chunk))))
    }
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
        self.scan_ctx(partition, projection, None)
    }

    fn supports_filter_pushdown(&self, filter: &Expr) -> bool {
        self.claims(filter)
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
        if filters.is_empty() {
            return None;
        }
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
        self.scan_with_filters_ctx(partition, projection, filters, None)
    }

    fn scan_with_ctx(
        &self,
        partition: usize,
        projection: Option<&[usize]>,
        filters: &[Expr],
        query: &Arc<QueryContext>,
    ) -> Result<ChunkIter> {
        if filters.is_empty() {
            self.scan_ctx(partition, projection, Some(query))
        } else {
            self.scan_with_filters_ctx(partition, projection, filters, Some(query.as_ref()))
        }
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

/// Some value of type `dt` (which one is irrelevant to the caller).
fn placeholder_of(dt: idf_engine::types::DataType) -> Value {
    use idf_engine::types::DataType;
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
        // non-equality
        let mut c = col("k");
        if let Expr::Column(cr) = &mut c {
            cr.index = Some(0);
        }
        assert!(!s.supports_filter_pushdown(&c.gt(lit(3i64))));
        // mismatched literal type
        let mut c = col("k");
        if let Expr::Column(cr) = &mut c {
            cr.index = Some(0);
        }
        assert!(!s.supports_filter_pushdown(&c.eq(lit("three"))));
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
