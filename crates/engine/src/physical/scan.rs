//! Scan operators: table sources and literal values.

use std::sync::Arc;

use crate::catalog::{ChunkIter, ScanPruning, TableSource};
use crate::chunk::Chunk;
use crate::error::Result;
use crate::expr::Expr;
use crate::physical::{ExecutionPlan, Partitioning, TaskContext};
use crate::schema::SchemaRef;
use crate::types::Value;

/// Scan of a [`TableSource`], with optional projection and pushed filters.
pub struct SourceScanExec {
    /// Catalog name, for EXPLAIN.
    pub table: String,
    /// The source.
    pub source: Arc<dyn TableSource>,
    /// Output schema (post-projection, qualified).
    pub schema: SchemaRef,
    /// Projected column indices into the source schema.
    pub projection: Option<Vec<usize>>,
    /// Filters the source evaluates natively: index probes, or predicates
    /// it applies to the rows it reads.
    pub filters: Vec<Expr>,
    /// What the source's [`TableSource::prune`] answered for `filters`.
    pruning: Option<ScanPruning>,
}

impl SourceScanExec {
    /// Scan `source`, exposing only the partitions its
    /// [`TableSource::prune`] says `filters` can touch.
    pub fn new(
        table: String,
        source: Arc<dyn TableSource>,
        schema: SchemaRef,
        projection: Option<Vec<usize>>,
        filters: Vec<Expr>,
    ) -> Self {
        let mut pruning = source.prune(&filters);
        if let Some(pruning) = &mut pruning {
            // Operators above expect at least one partition; an
            // unsatisfiable filter scans one and finds nothing.
            if pruning.partitions.is_empty() {
                pruning.partitions.push(0);
            }
        }
        SourceScanExec {
            table,
            source,
            schema,
            projection,
            filters,
            pruning,
        }
    }
}

impl std::fmt::Debug for SourceScanExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SourceScanExec({})", self.table)
    }
}

impl ExecutionPlan for SourceScanExec {
    fn name(&self) -> &'static str {
        "SourceScan"
    }

    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn output_partitions(&self) -> usize {
        match &self.pruning {
            Some(pruning) => pruning.partitions.len(),
            None => self.source.num_partitions(),
        }
    }

    fn children(&self) -> Vec<Arc<dyn ExecutionPlan>> {
        vec![]
    }

    fn output_partitioning(&self) -> Partitioning {
        // A pruned scan renumbers the partitions it keeps, so row placement
        // no longer follows the hash (pruned to one, it satisfies any
        // requirement anyway).
        let (None, Some(key)) = (&self.pruning, self.source.hash_partitioned_by()) else {
            return Partitioning::Unknown;
        };
        Partitioning::Hash {
            columns: vec![key],
            n: self.source.num_partitions(),
        }
        .project(|c| match &self.projection {
            Some(projection) => projection.iter().position(|&p| p == c),
            None => Some(c),
        })
    }

    fn open(&self, partition: usize, ctx: &TaskContext) -> Result<ChunkIter> {
        let source_partition = match &self.pruning {
            Some(pruning) => pruning.partitions[partition],
            None => partition,
        };
        self.source.scan_with_ctx(
            source_partition,
            self.projection.as_deref(),
            &self.filters,
            ctx.query(),
        )
    }

    fn detail(&self) -> String {
        let mut s = self.table.clone();
        if let Some(p) = &self.projection {
            s.push_str(&format!(" projection={p:?}"));
        }
        let (probed, walked): (Vec<&Expr>, Vec<&Expr>) = self
            .filters
            .iter()
            .partition(|f| self.source.probes_index(f));
        let list = |fs: &[&Expr]| {
            fs.iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        if !probed.is_empty() {
            if let Some(c) = self.source.indexed_by() {
                s.push_str(&format!(" index={}", self.source.schema().field(c).name));
            }
            s.push_str(&format!(" pushed=[{}]", list(&probed)));
        }
        if !walked.is_empty() {
            s.push_str(&format!(" where=[{}]", list(&walked)));
        }
        if let Some(pruning) = &self.pruning {
            s.push_str(&format!(
                " partitions={}/{}",
                pruning.partitions.len(),
                self.source.num_partitions()
            ));
        }
        s
    }

    fn bounded_input_rows(&self) -> Option<usize> {
        self.pruning.as_ref().map(|pruning| pruning.rows)
    }
}

/// Literal rows (the `VALUES` clause / `Session::create_dataframe`).
#[derive(Debug)]
pub struct ValuesExec {
    /// Output schema.
    pub schema: SchemaRef,
    /// Row-major literals.
    pub rows: Vec<Vec<Value>>,
}

impl ExecutionPlan for ValuesExec {
    fn name(&self) -> &'static str {
        "Values"
    }

    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn output_partitions(&self) -> usize {
        1
    }

    fn children(&self) -> Vec<Arc<dyn ExecutionPlan>> {
        vec![]
    }

    fn open(&self, _partition: usize, _ctx: &TaskContext) -> Result<ChunkIter> {
        let chunk = Chunk::from_rows(&self.schema, &self.rows)?;
        Ok(Box::new(std::iter::once(Ok(chunk))))
    }

    fn detail(&self) -> String {
        format!("{} rows", self.rows.len())
    }

    fn bounded_input_rows(&self) -> Option<usize> {
        Some(self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MemTable;
    use crate::physical::execute_collect;
    use crate::physical::ExecPlanRef;
    use crate::schema::{Field, Schema};
    use crate::types::DataType;

    #[test]
    fn values_exec_produces_rows() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let plan: ExecPlanRef = Arc::new(ValuesExec {
            schema,
            rows: vec![vec![Value::Int64(1)], vec![Value::Int64(2)]],
        });
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.value_at(0, 1), Value::Int64(2));
    }

    #[test]
    fn source_scan_partitions_match_source() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let chunk = Chunk::from_rows(
            &schema,
            &(0..9).map(|i| vec![Value::Int64(i)]).collect::<Vec<_>>(),
        )
        .unwrap();
        let source =
            Arc::new(MemTable::from_chunk_partitioned(Arc::clone(&schema), chunk, 3).unwrap());
        let plan: ExecPlanRef = Arc::new(SourceScanExec::new(
            "t".into(),
            source,
            schema,
            None,
            vec![],
        ));
        assert_eq!(plan.output_partitions(), 3);
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 9);
    }
}
