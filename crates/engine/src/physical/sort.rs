//! Sorting (single-partition; the planner coalesces first).

use std::sync::Arc;

use crate::catalog::ChunkIter;
use crate::chunk::Chunk;
use crate::error::{EngineError, Result};
use crate::physical::{execute, ExecPlanRef, ExecutionPlan, PhysicalExprRef, TaskContext};
use crate::schema::SchemaRef;

/// One physical sort key.
#[derive(Debug, Clone)]
pub struct PhysicalSortKey {
    /// Key expression.
    pub expr: PhysicalExprRef,
    /// Ascending?
    pub ascending: bool,
}

/// Total sort of a single input partition.
#[derive(Debug)]
pub struct SortExec {
    /// Input operator (must have one partition).
    pub input: ExecPlanRef,
    /// Sort keys, major first.
    pub keys: Vec<PhysicalSortKey>,
    /// Optional `LIMIT` fused into the sort (top-k).
    pub fetch: Option<usize>,
}

impl ExecutionPlan for SortExec {
    fn name(&self) -> &'static str {
        "Sort"
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

    fn open(&self, partition: usize, ctx: &TaskContext) -> Result<ChunkIter> {
        if self.input.output_partitions() != 1 {
            return Err(EngineError::internal(
                "SortExec requires a single input partition (planner bug)",
            ));
        }
        let sorted = ctx.instrument_blocking(self, || {
            let chunks: Vec<Chunk> =
                execute(self.input.as_ref(), partition, ctx)?.collect::<Result<_>>()?;
            if chunks.is_empty() {
                return Ok(Chunk::empty(&self.schema()));
            }
            let chunk = Chunk::concat(&chunks)?;
            // The whole input is buffered for sorting; bill it (plus the
            // index vec) to the query's memory budget before the O(n log n)
            // work starts.
            ctx.charge_memory(chunk.byte_size() + chunk.len() * 4)?;
            ctx.check_cancelled()?;
            // Evaluate all keys once, then sort row indices.
            let key_cols = self
                .keys
                .iter()
                .map(|k| k.expr.evaluate(&chunk))
                .collect::<Result<Vec<_>>>()?;
            let mut indices: Vec<u32> = (0..chunk.len() as u32).collect();
            indices.sort_by(|&a, &b| {
                for (k, col) in self.keys.iter().zip(&key_cols) {
                    let va = col.value_at(a as usize);
                    let vb = col.value_at(b as usize);
                    let ord = va.cmp(&vb);
                    let ord = if k.ascending { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            if let Some(n) = self.fetch {
                indices.truncate(n);
            }
            chunk.take(&indices)
        })?;
        Ok(Box::new(std::iter::once(Ok(sorted))))
    }

    fn detail(&self) -> String {
        let mut s = format!("{} keys", self.keys.len());
        if let Some(n) = self.fetch {
            s.push_str(&format!(", fetch {n}"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::resolve_expr;
    use crate::expr::col;
    use crate::physical::execute_collect;
    use crate::physical::expr::create_physical_expr;
    use crate::physical::scan::ValuesExec;
    use crate::schema::{Field, Schema};
    use crate::types::{DataType, Value};

    fn input() -> (ExecPlanRef, SchemaRef) {
        let schema = Arc::new(Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Utf8),
        ]));
        let rows = vec![
            vec![Value::Int64(2), Value::Utf8("y".into())],
            vec![Value::Int64(1), Value::Utf8("z".into())],
            vec![Value::Null, Value::Utf8("n".into())],
            vec![Value::Int64(2), Value::Utf8("x".into())],
        ];
        (
            Arc::new(ValuesExec {
                schema: Arc::clone(&schema),
                rows,
            }),
            schema,
        )
    }

    fn key(schema: &SchemaRef, name: &str, asc: bool) -> PhysicalSortKey {
        let e = resolve_expr(&col(name), schema).unwrap();
        PhysicalSortKey {
            expr: create_physical_expr(&e, schema).unwrap(),
            ascending: asc,
        }
    }

    #[test]
    fn multi_key_sort_nulls_first() {
        let (inp, schema) = input();
        let plan: ExecPlanRef = Arc::new(SortExec {
            input: inp,
            keys: vec![key(&schema, "a", true), key(&schema, "b", true)],
            fetch: None,
        });
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        let bs: Vec<String> = (0..4).map(|r| out.value_at(1, r).to_string()).collect();
        assert_eq!(bs, vec!["n", "z", "x", "y"]);
    }

    #[test]
    fn descending_with_fetch() {
        let (inp, schema) = input();
        let plan: ExecPlanRef = Arc::new(SortExec {
            input: inp,
            keys: vec![key(&schema, "a", false)],
            fetch: Some(2),
        });
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.value_at(0, 0), Value::Int64(2));
        assert_eq!(out.value_at(0, 1), Value::Int64(2));
    }

    #[test]
    fn empty_input_ok() {
        let schema = Arc::new(Schema::new(vec![Field::new("a", DataType::Int64)]));
        let inp: ExecPlanRef = Arc::new(ValuesExec {
            schema: Arc::clone(&schema),
            rows: vec![],
        });
        let plan: ExecPlanRef = Arc::new(SortExec {
            input: inp,
            keys: vec![key(&schema, "a", true)],
            fetch: None,
        });
        let out = execute_collect(&plan, &TaskContext::default()).unwrap();
        assert_eq!(out.len(), 0);
    }
}
