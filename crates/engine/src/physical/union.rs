//! Union (bag concatenation) of plans with identical schemas.

use std::sync::Arc;

use crate::catalog::ChunkIter;
use crate::error::{EngineError, Result};
use crate::physical::{execute, ExecPlanRef, ExecutionPlan, TaskContext};
use crate::schema::SchemaRef;

/// Concatenates the partitions of all inputs: output partition `p` maps
/// onto the `p`-th partition in input order.
#[derive(Debug)]
pub struct UnionExec {
    /// The inputs (all with the same schema).
    pub inputs: Vec<ExecPlanRef>,
    /// Shared schema.
    pub schema: SchemaRef,
}

impl ExecutionPlan for UnionExec {
    fn name(&self) -> &'static str {
        "Union"
    }

    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn output_partitions(&self) -> usize {
        self.inputs.iter().map(|i| i.output_partitions()).sum()
    }

    fn children(&self) -> Vec<ExecPlanRef> {
        self.inputs.clone()
    }

    fn open(&self, partition: usize, ctx: &TaskContext) -> Result<ChunkIter> {
        let mut p = partition;
        for input in &self.inputs {
            let n = input.output_partitions();
            if p < n {
                return execute(input.as_ref(), p, ctx);
            }
            p -= n;
        }
        Err(EngineError::internal(format!(
            "union partition {partition} out of range"
        )))
    }

    fn detail(&self) -> String {
        format!("{} inputs", self.inputs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::execute_collect;
    use crate::physical::scan::ValuesExec;
    use crate::schema::{Field, Schema};
    use crate::types::{DataType, Value};

    #[test]
    fn union_concatenates() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let a: ExecPlanRef = Arc::new(ValuesExec {
            schema: Arc::clone(&schema),
            rows: vec![vec![Value::Int64(1)]],
        });
        let b: ExecPlanRef = Arc::new(ValuesExec {
            schema: Arc::clone(&schema),
            rows: vec![vec![Value::Int64(2)], vec![Value::Int64(3)]],
        });
        let plan: ExecPlanRef = Arc::new(UnionExec {
            inputs: vec![a, b],
            schema,
        });
        assert_eq!(plan.output_partitions(), 2);
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 3);
    }
}
