//! Row filtering.

use std::sync::Arc;

use crate::catalog::ChunkIter;
use crate::error::Result;
use crate::physical::expr::evaluate_predicate;
use crate::physical::{
    execute, ExecPlanRef, ExecutionPlan, Partitioning, PhysicalExprRef, TaskContext,
};
use crate::schema::SchemaRef;

/// Keeps rows whose predicate evaluates to `true` (nulls drop, per SQL).
#[derive(Debug)]
pub struct FilterExec {
    /// Input operator.
    pub input: ExecPlanRef,
    /// Boolean predicate.
    pub predicate: PhysicalExprRef,
    /// Display string of the original logical predicate.
    pub display: String,
}

impl ExecutionPlan for FilterExec {
    fn name(&self) -> &'static str {
        "Filter"
    }

    fn schema(&self) -> SchemaRef {
        self.input.schema()
    }

    fn output_partitions(&self) -> usize {
        self.input.output_partitions()
    }

    fn children(&self) -> Vec<ExecPlanRef> {
        vec![Arc::clone(&self.input)]
    }

    fn output_partitioning(&self) -> Partitioning {
        self.input.output_partitioning()
    }

    fn open(&self, partition: usize, ctx: &TaskContext) -> Result<ChunkIter> {
        let input = execute(self.input.as_ref(), partition, ctx)?;
        let predicate = Arc::clone(&self.predicate);
        Ok(Box::new(input.map(move |chunk| {
            let chunk = chunk?;
            let mask = evaluate_predicate(predicate.as_ref(), &chunk)?;
            chunk.filter(&mask)
        })))
    }

    fn detail(&self) -> String {
        self.display.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::resolve_expr;
    use crate::chunk::Chunk;
    use crate::expr::{col, lit};
    use crate::physical::execute_collect;
    use crate::physical::expr::create_physical_expr;
    use crate::physical::scan::ValuesExec;
    use crate::schema::{Field, Schema};
    use crate::types::{DataType, Value};

    #[test]
    fn filters_rows() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let input: ExecPlanRef = Arc::new(ValuesExec {
            schema: Arc::clone(&schema),
            rows: (0..10).map(|i| vec![Value::Int64(i)]).collect(),
        });
        let pred = resolve_expr(&col("x").gt_eq(lit(7i64)), &schema).unwrap();
        let plan: ExecPlanRef = Arc::new(FilterExec {
            input,
            predicate: create_physical_expr(&pred, &schema).unwrap(),
            display: pred.to_string(),
        });
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.value_at(0, 0), Value::Int64(7));
    }

    #[test]
    fn empty_result_keeps_schema() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let input: ExecPlanRef = Arc::new(ValuesExec {
            schema: Arc::clone(&schema),
            rows: vec![vec![Value::Int64(1)]],
        });
        let pred = resolve_expr(&col("x").gt(lit(100i64)), &schema).unwrap();
        let plan: ExecPlanRef = Arc::new(FilterExec {
            input,
            predicate: create_physical_expr(&pred, &schema).unwrap(),
            display: String::new(),
        });
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 0);
        assert_eq!(out.num_columns(), 1);
        let _ = Chunk::empty(&plan.schema());
    }
}
