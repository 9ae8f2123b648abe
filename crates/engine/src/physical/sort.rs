//! Sorting (single-partition; the planner coalesces first).

use std::cmp::Ordering;
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::catalog::ChunkIter;
use crate::chunk::Chunk;
use crate::column::{Column, StrVec};
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
            // Evaluate all keys once, then sort row indices by the typed
            // key columns.
            let key_cols = self
                .keys
                .iter()
                .map(|k| k.expr.evaluate(&chunk))
                .collect::<Result<Vec<_>>>()?;
            let keys: Vec<(SortColumn<'_>, bool)> = key_cols
                .iter()
                .zip(&self.keys)
                .map(|(c, k)| (SortColumn::of(c), k.ascending))
                .collect();
            let mut indices: Vec<u32> = (0..chunk.len() as u32).collect();
            sort_indices(&keys, &mut indices, self.fetch);
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

/// One evaluated sort key, read by type: rows compare without building a
/// [`crate::types::Value`] per comparison, in `Value`'s order (NULL
/// first, floats by `total_cmp`, strings by bytes).
enum SortColumn<'a> {
    Boolean(&'a [bool], Option<&'a Bitmap>),
    Int32(&'a [i32], Option<&'a Bitmap>),
    /// Int64 and Timestamp.
    Int64(&'a [i64], Option<&'a Bitmap>),
    Float64(&'a [f64], Option<&'a Bitmap>),
    Utf8(&'a StrVec),
}

impl<'a> SortColumn<'a> {
    fn of(column: &'a Column) -> Self {
        match column {
            Column::Boolean(v) => SortColumn::Boolean(&v.values, v.validity.as_ref()),
            Column::Int32(v) => SortColumn::Int32(&v.values, v.validity.as_ref()),
            Column::Int64(v) | Column::Timestamp(v) => {
                SortColumn::Int64(&v.values, v.validity.as_ref())
            }
            Column::Float64(v) => SortColumn::Float64(&v.values, v.validity.as_ref()),
            Column::Utf8(v) => SortColumn::Utf8(v),
        }
    }

    /// Rows `a` and `b` in ascending order, NULL first.
    #[inline]
    fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        fn by<T>(
            values: &[T],
            validity: Option<&Bitmap>,
            a: usize,
            b: usize,
            cmp: impl Fn(&T, &T) -> Ordering,
        ) -> Ordering {
            if let Some(bits) = validity {
                match (bits.get(a), bits.get(b)) {
                    (true, true) => {}
                    (va, vb) => return va.cmp(&vb),
                }
            }
            match (values.get(a), values.get(b)) {
                (Some(x), Some(y)) => cmp(x, y),
                (x, y) => x.is_some().cmp(&y.is_some()),
            }
        }
        match self {
            SortColumn::Boolean(v, n) => by(v, *n, a, b, Ord::cmp),
            SortColumn::Int32(v, n) => by(v, *n, a, b, Ord::cmp),
            SortColumn::Int64(v, n) => by(v, *n, a, b, Ord::cmp),
            SortColumn::Float64(v, n) => by(v, *n, a, b, f64::total_cmp),
            SortColumn::Utf8(v) => match (v.is_valid(a), v.is_valid(b)) {
                (true, true) => v.bytes_at(a).cmp(v.bytes_at(b)),
                (va, vb) => va.cmp(&vb),
            },
        }
    }
}

/// Order `indices` by `keys` (each with its ASC flag), ties broken by row
/// index, so the result is the stable sort's. With `fetch`, only the first
/// `fetch` rows are kept: they are selected first and only they are
/// sorted.
fn sort_indices(keys: &[(SortColumn<'_>, bool)], indices: &mut Vec<u32>, fetch: Option<usize>) {
    let cmp = |a: &u32, b: &u32| {
        for (col, ascending) in keys {
            let ord = col.cmp_rows(*a as usize, *b as usize);
            let ord = if *ascending { ord } else { ord.reverse() };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        a.cmp(b)
    };
    match fetch {
        Some(0) => indices.clear(),
        Some(k) if k < indices.len() => {
            indices.select_nth_unstable_by(k - 1, cmp);
            indices.truncate(k);
            indices.sort_unstable_by(cmp);
        }
        _ => indices.sort_unstable_by(cmp),
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

    /// The typed sort against the `Value`-ordered stable sort it replaced:
    /// every column type, NULLs, many ties, ASC and DESC, with and without
    /// `fetch` (including 0 and past the end).
    #[test]
    fn typed_sort_matches_the_value_ordered_stable_sort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let schema: SchemaRef = Arc::new(Schema::new(vec![
            Field::new("b", DataType::Boolean),
            Field::new("i", DataType::Int32),
            Field::new("l", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
            Field::new("t", DataType::Timestamp),
        ]));
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(0x5047_0000 + seed);
            let value = |rng: &mut StdRng, dt: DataType| {
                if rng.gen_bool(0.2) {
                    return Value::Null;
                }
                let v = rng.gen_range(-3i64..4);
                match dt {
                    DataType::Boolean => Value::Boolean(v > 0),
                    DataType::Int32 => Value::Int32(v as i32),
                    DataType::Int64 => Value::Int64(v),
                    DataType::Float64 => Value::Float64(v as f64 / 2.0),
                    DataType::Utf8 => Value::Utf8(
                        ["", "a", "ab", "b", "é", "Z"][v.unsigned_abs() as usize % 6].into(),
                    ),
                    DataType::Timestamp => Value::Timestamp(v * 1000),
                }
            };
            let rows: Vec<Vec<Value>> = (0..rng.gen_range(0..60usize))
                .map(|_| {
                    schema
                        .fields
                        .iter()
                        .map(|f| value(&mut rng, f.data_type))
                        .collect()
                })
                .collect();
            let keys: Vec<(usize, bool)> = (0..rng.gen_range(1..4usize))
                .map(|_| (rng.gen_range(0..schema.len()), rng.gen_bool(0.5)))
                .collect();
            let fetch = rng.gen_bool(0.5).then(|| rng.gen_range(0..rows.len() + 3));

            // The old comparator: a `Value` per row per key, stable sort.
            let mut oracle: Vec<u32> = (0..rows.len() as u32).collect();
            oracle.sort_by(|&a, &b| {
                for &(c, asc) in &keys {
                    let ord = rows[a as usize][c].cmp(&rows[b as usize][c]);
                    let ord = if asc { ord } else { ord.reverse() };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            if let Some(n) = fetch {
                oracle.truncate(n);
            }
            let want: Vec<Vec<Value>> = oracle.iter().map(|&i| rows[i as usize].clone()).collect();

            let plan: ExecPlanRef = Arc::new(SortExec {
                input: Arc::new(ValuesExec {
                    schema: Arc::clone(&schema),
                    rows: rows.clone(),
                }),
                keys: keys
                    .iter()
                    .map(|&(c, asc)| key(&schema, &schema.field(c).name, asc))
                    .collect(),
                fetch,
            });
            let out = execute_collect(&plan, &TaskContext::default()).unwrap();
            assert_eq!(
                out.to_rows(),
                want,
                "seed {seed}, keys {keys:?}, fetch {fetch:?}"
            );
        }
    }
}
