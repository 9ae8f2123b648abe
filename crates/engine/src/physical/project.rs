//! Column projection / computation.

use std::sync::Arc;

use crate::catalog::ChunkIter;
use crate::chunk::Chunk;
use crate::error::Result;
use crate::physical::{
    execute, position_of_column, ExecPlanRef, ExecutionPlan, Partitioning, PhysicalExprRef,
    TaskContext,
};
use crate::schema::SchemaRef;

/// Computes one output column per expression.
#[derive(Debug)]
pub struct ProjectionExec {
    /// Input operator.
    pub input: ExecPlanRef,
    /// Output expressions.
    pub exprs: Vec<PhysicalExprRef>,
    /// Output schema (names decided at planning).
    pub schema: SchemaRef,
    /// Display strings of the logical expressions.
    pub display: Vec<String>,
}

impl ExecutionPlan for ProjectionExec {
    fn name(&self) -> &'static str {
        "Projection"
    }

    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn output_partitions(&self) -> usize {
        self.input.output_partitions()
    }

    fn children(&self) -> Vec<ExecPlanRef> {
        vec![Arc::clone(&self.input)]
    }

    fn output_partitioning(&self) -> Partitioning {
        self.input
            .output_partitioning()
            .project(|c| position_of_column(&self.exprs, c))
    }

    fn open(&self, partition: usize, ctx: &TaskContext) -> Result<ChunkIter> {
        let input = execute(self.input.as_ref(), partition, ctx)?;
        let exprs = self.exprs.clone();
        Ok(Box::new(input.map(move |chunk| {
            let chunk = chunk?;
            if exprs.is_empty() {
                // COUNT(*)-style projections: carry the row count only.
                return Ok(Chunk::new_empty_columns(chunk.len()));
            }
            let columns = exprs
                .iter()
                .map(|e| e.evaluate(&chunk))
                .collect::<Result<Vec<_>>>()?;
            Chunk::new(columns)
        })))
    }

    fn detail(&self) -> String {
        self.display.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::{expr_to_field, resolve_expr};
    use crate::expr::{col, lit};
    use crate::physical::execute_collect;
    use crate::physical::expr::create_physical_expr;
    use crate::physical::scan::ValuesExec;
    use crate::schema::{Field, Schema};
    use crate::types::{DataType, Value};

    #[test]
    fn computes_expressions() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("x", DataType::Int64),
            Field::new("y", DataType::Int64),
        ]));
        let input: ExecPlanRef = Arc::new(ValuesExec {
            schema: Arc::clone(&schema),
            rows: vec![
                vec![Value::Int64(1), Value::Int64(10)],
                vec![Value::Int64(2), Value::Int64(20)],
            ],
        });
        let exprs = [
            resolve_expr(&col("y"), &schema).unwrap(),
            resolve_expr(&col("x").add(lit(100i64)).alias("x100"), &schema).unwrap(),
        ];
        let out_schema = Arc::new(Schema::new(
            exprs
                .iter()
                .map(|e| expr_to_field(e, &schema).unwrap())
                .collect(),
        ));
        let plan: ExecPlanRef = Arc::new(ProjectionExec {
            input,
            exprs: exprs
                .iter()
                .map(|e| create_physical_expr(e, &schema).unwrap())
                .collect(),
            schema: Arc::clone(&out_schema),
            display: exprs.iter().map(|e| e.to_string()).collect(),
        });
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.num_columns(), 2);
        assert_eq!(out.value_at(1, 1), Value::Int64(102));
        assert_eq!(plan.schema().field(1).name, "x100");
    }
}
