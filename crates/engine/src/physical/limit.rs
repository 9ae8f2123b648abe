//! Row limits.

use std::sync::Arc;

use crate::catalog::ChunkIter;
use crate::error::Result;
use crate::physical::{ExecPlanRef, ExecutionPlan, Partitioning, TaskContext};
use crate::schema::SchemaRef;

/// Emit at most `n` rows (global when the input has one partition — the
/// planner coalesces — or per-partition as a pre-limit otherwise).
#[derive(Debug)]
pub struct LimitExec {
    /// Input operator.
    pub input: ExecPlanRef,
    /// Maximum rows per output partition.
    pub n: usize,
}

impl ExecutionPlan for LimitExec {
    fn name(&self) -> &'static str {
        "Limit"
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

    fn execute(&self, partition: usize, ctx: &TaskContext) -> Result<ChunkIter> {
        let input = self.input.execute(partition, ctx)?;
        let mut remaining = self.n;
        let iter: ChunkIter = Box::new(input.map_while(move |chunk| {
            if remaining == 0 {
                return None;
            }
            let chunk = match chunk {
                Ok(c) => c,
                Err(e) => return Some(Err(e)),
            };
            let take = chunk.len().min(remaining);
            remaining -= take;
            Some(chunk.limit(take))
        }));
        Ok(ctx.instrument(self, iter))
    }

    fn detail(&self) -> String {
        format!("{}", self.n)
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
    fn truncates_rows() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let inp: ExecPlanRef = Arc::new(ValuesExec {
            schema,
            rows: (0..100).map(|i| vec![Value::Int64(i)]).collect(),
        });
        let plan: ExecPlanRef = Arc::new(LimitExec { input: inp, n: 7 });
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 7);
        assert_eq!(out.value_at(0, 6), Value::Int64(6));
    }

    #[test]
    fn limit_zero() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let inp: ExecPlanRef = Arc::new(ValuesExec {
            schema,
            rows: vec![vec![Value::Int64(1)]],
        });
        let plan: ExecPlanRef = Arc::new(LimitExec { input: inp, n: 0 });
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn limit_larger_than_input() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let inp: ExecPlanRef = Arc::new(ValuesExec {
            schema,
            rows: (0..3).map(|i| vec![Value::Int64(i)]).collect(),
        });
        let plan: ExecPlanRef = Arc::new(LimitExec { input: inp, n: 100 });
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 3);
    }
}
