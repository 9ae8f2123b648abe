//! Physical (executable) expressions with vectorized kernels.
//!
//! Logical expressions are compiled once per operator into a tree of
//! [`PhysicalExpr`]s; evaluation is column-at-a-time over [`Chunk`]s.
//! Null semantics follow SQL: comparisons and arithmetic propagate null,
//! `AND`/`OR` use Kleene three-valued logic, and division by zero yields
//! null (as Spark does).

use std::fmt;
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::chunk::Chunk;
use crate::column::{Column, ColumnRef, PrimVec, StrVec};
use crate::error::{EngineError, Result};
use crate::expr::{BinaryOp, Expr, ScalarFunc};
use crate::schema::Schema;
use crate::types::{DataType, Value};

/// An executable expression.
pub trait PhysicalExpr: Send + Sync + fmt::Debug {
    /// The output type.
    fn data_type(&self) -> DataType;
    /// Evaluate over a chunk, producing one column of `chunk.len()` rows.
    fn evaluate(&self, chunk: &Chunk) -> Result<ColumnRef>;
}

/// Shared physical expression handle.
pub type PhysicalExprRef = Arc<dyn PhysicalExpr>;

/// Compile a bound logical expression against its input schema.
pub fn create_physical_expr(expr: &Expr, schema: &Schema) -> Result<PhysicalExprRef> {
    Ok(match expr {
        Expr::Column(c) => {
            let index = c.index.ok_or_else(|| {
                EngineError::internal(format!(
                    "cannot compile unresolved column {}",
                    c.display_name()
                ))
            })?;
            Arc::new(ColumnExpr {
                index,
                dt: schema.field(index).data_type,
            })
        }
        Expr::Literal(v) => Arc::new(LiteralExpr { value: v.clone() }),
        Expr::Param { slot, .. } => {
            return Err(EngineError::internal(format!(
                "cannot compile unbound parameter ?{slot}"
            )))
        }
        Expr::Binary { left, op, right } => {
            let l = create_physical_expr(left, schema)?;
            let r = create_physical_expr(right, schema)?;
            let dt = if op.is_comparison() || op.is_logic() {
                DataType::Boolean
            } else if l.data_type().numeric_rank() >= r.data_type().numeric_rank() {
                l.data_type()
            } else {
                r.data_type()
            };
            Arc::new(BinaryExpr {
                left: l,
                op: *op,
                right: r,
                dt,
            })
        }
        Expr::Not(e) => Arc::new(NotExpr {
            input: create_physical_expr(e, schema)?,
        }),
        Expr::IsNull(e) => Arc::new(IsNullExpr {
            input: create_physical_expr(e, schema)?,
            negated: false,
        }),
        Expr::IsNotNull(e) => Arc::new(IsNullExpr {
            input: create_physical_expr(e, schema)?,
            negated: true,
        }),
        Expr::Cast { expr, to } => Arc::new(CastExpr {
            input: create_physical_expr(expr, schema)?,
            to: *to,
        }),
        Expr::Alias(e, _) => create_physical_expr(e, schema)?,
        Expr::Aggregate { .. } => {
            return Err(EngineError::plan(
                "aggregate expression outside an Aggregate operator".to_string(),
            ))
        }
        Expr::Scalar { func, args } => {
            let args = args
                .iter()
                .map(|a| create_physical_expr(a, schema))
                .collect::<Result<Vec<_>>>()?;
            let dt = match func {
                ScalarFunc::Upper | ScalarFunc::Lower => DataType::Utf8,
                ScalarFunc::Length => DataType::Int64,
                ScalarFunc::Abs | ScalarFunc::Coalesce => args[0].data_type(),
            };
            Arc::new(ScalarFuncExpr {
                func: *func,
                args,
                dt,
            })
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let tested = create_physical_expr(expr, schema)?;
            // The analyzer guarantees list entries are literal-typed
            // expressions of the tested type; evaluate constants eagerly
            // when possible, falling back to runtime evaluation.
            let entries = list
                .iter()
                .map(|e| create_physical_expr(e, schema))
                .collect::<Result<Vec<_>>>()?;
            Arc::new(InListExpr {
                tested,
                entries,
                negated: *negated,
            })
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Arc::new(LikeExpr {
            input: create_physical_expr(expr, schema)?,
            pattern: pattern.clone(),
            negated: *negated,
        }),
    })
}

/// Build a bare column-extraction expression (used by the planner for
/// column-reordering projections).
pub fn column_expr(index: usize, dt: DataType) -> PhysicalExprRef {
    Arc::new(ColumnExpr { index, dt })
}

/// Column extraction by index.
#[derive(Debug)]
struct ColumnExpr {
    index: usize,
    dt: DataType,
}

impl PhysicalExpr for ColumnExpr {
    fn data_type(&self) -> DataType {
        self.dt
    }

    fn evaluate(&self, chunk: &Chunk) -> Result<ColumnRef> {
        Ok(Arc::clone(chunk.column(self.index)))
    }
}

/// Constant column.
#[derive(Debug)]
struct LiteralExpr {
    value: Value,
}

impl PhysicalExpr for LiteralExpr {
    fn data_type(&self) -> DataType {
        self.value.data_type().unwrap_or(DataType::Boolean)
    }

    fn evaluate(&self, chunk: &Chunk) -> Result<ColumnRef> {
        Ok(Arc::new(Column::repeat(
            self.data_type(),
            &self.value,
            chunk.len(),
        )?))
    }
}

#[derive(Debug)]
struct BinaryExpr {
    left: PhysicalExprRef,
    op: BinaryOp,
    right: PhysicalExprRef,
    dt: DataType,
}

impl PhysicalExpr for BinaryExpr {
    fn data_type(&self) -> DataType {
        self.dt
    }

    fn evaluate(&self, chunk: &Chunk) -> Result<ColumnRef> {
        let l = self.left.evaluate(chunk)?;
        let r = self.right.evaluate(chunk)?;
        if self.op.is_logic() {
            return kernels::logic(&l, self.op, &r);
        }
        if self.op.is_comparison() {
            return kernels::compare(&l, self.op, &r);
        }
        kernels::arithmetic(&l, self.op, &r)
    }
}

#[derive(Debug)]
struct NotExpr {
    input: PhysicalExprRef,
}

impl PhysicalExpr for NotExpr {
    fn data_type(&self) -> DataType {
        DataType::Boolean
    }

    fn evaluate(&self, chunk: &Chunk) -> Result<ColumnRef> {
        let c = self.input.evaluate(chunk)?;
        let Column::Boolean(v) = c.as_ref() else {
            return Err(EngineError::type_err("NOT over non-boolean column"));
        };
        let values: Vec<bool> = v.values.iter().map(|b| !b).collect();
        Ok(Arc::new(Column::Boolean(PrimVec {
            values,
            validity: v.validity.clone(),
        })))
    }
}

#[derive(Debug)]
struct IsNullExpr {
    input: PhysicalExprRef,
    negated: bool,
}

impl PhysicalExpr for IsNullExpr {
    fn data_type(&self) -> DataType {
        DataType::Boolean
    }

    fn evaluate(&self, chunk: &Chunk) -> Result<ColumnRef> {
        let c = self.input.evaluate(chunk)?;
        let values: Vec<bool> = (0..c.len())
            .map(|i| c.is_valid(i) == self.negated)
            .collect();
        Ok(Arc::new(Column::Boolean(PrimVec::from_values(values))))
    }
}

#[derive(Debug)]
struct CastExpr {
    input: PhysicalExprRef,
    to: DataType,
}

impl PhysicalExpr for CastExpr {
    fn data_type(&self) -> DataType {
        self.to
    }

    fn evaluate(&self, chunk: &Chunk) -> Result<ColumnRef> {
        let c = self.input.evaluate(chunk)?;
        kernels::cast(&c, self.to)
    }
}

#[derive(Debug)]
struct ScalarFuncExpr {
    func: ScalarFunc,
    args: Vec<PhysicalExprRef>,
    dt: DataType,
}

impl PhysicalExpr for ScalarFuncExpr {
    fn data_type(&self) -> DataType {
        self.dt
    }

    fn evaluate(&self, chunk: &Chunk) -> Result<ColumnRef> {
        let cols = self
            .args
            .iter()
            .map(|a| a.evaluate(chunk))
            .collect::<Result<Vec<_>>>()?;
        match self.func {
            ScalarFunc::Upper | ScalarFunc::Lower => {
                let Column::Utf8(v) = cols[0].as_ref() else {
                    return Err(EngineError::type_err("upper/lower over non-string"));
                };
                let mut out = StrVec::new();
                for i in 0..v.len() {
                    match v.get(i) {
                        Some(s) if self.func == ScalarFunc::Upper => {
                            out.push(Some(&s.to_uppercase()))
                        }
                        Some(s) => out.push(Some(&s.to_lowercase())),
                        None => out.push(None),
                    }
                }
                Ok(Arc::new(Column::Utf8(out)))
            }
            ScalarFunc::Length => {
                let Column::Utf8(v) = cols[0].as_ref() else {
                    return Err(EngineError::type_err("length over non-string"));
                };
                let values: Vec<i64> = (0..v.len())
                    .map(|i| v.get(i).map_or(0, |s| s.len() as i64))
                    .collect();
                Ok(Arc::new(Column::Int64(PrimVec {
                    values,
                    validity: v.validity.clone(),
                })))
            }
            ScalarFunc::Abs => match cols[0].as_ref() {
                Column::Int32(v) => Ok(Arc::new(Column::Int32(PrimVec {
                    values: v.values.iter().map(|x| x.wrapping_abs()).collect(),
                    validity: v.validity.clone(),
                }))),
                Column::Int64(v) => Ok(Arc::new(Column::Int64(PrimVec {
                    values: v.values.iter().map(|x| x.wrapping_abs()).collect(),
                    validity: v.validity.clone(),
                }))),
                Column::Float64(v) => Ok(Arc::new(Column::Float64(PrimVec {
                    values: v.values.iter().map(|x| x.abs()).collect(),
                    validity: v.validity.clone(),
                }))),
                other => Err(EngineError::type_err(format!(
                    "abs over {} column",
                    other.data_type()
                ))),
            },
            ScalarFunc::Coalesce => {
                // Row-wise first non-null across the argument columns.
                let len = chunk.len();
                let mut b = crate::column::ColumnBuilder::new(self.dt);
                for row in 0..len {
                    let mut out = Value::Null;
                    for c in &cols {
                        if c.is_valid(row) {
                            out = c.value_at(row);
                            break;
                        }
                    }
                    b.push(&out)?;
                }
                Ok(Arc::new(b.finish()))
            }
        }
    }
}

#[derive(Debug)]
struct InListExpr {
    tested: PhysicalExprRef,
    entries: Vec<PhysicalExprRef>,
    negated: bool,
}

impl PhysicalExpr for InListExpr {
    fn data_type(&self) -> DataType {
        DataType::Boolean
    }

    fn evaluate(&self, chunk: &Chunk) -> Result<ColumnRef> {
        let tested = self.tested.evaluate(chunk)?;
        let entry_cols = self
            .entries
            .iter()
            .map(|e| e.evaluate(chunk))
            .collect::<Result<Vec<_>>>()?;
        let len = chunk.len();
        let mut values = Vec::with_capacity(len);
        let mut validity = Bitmap::ones(len);
        let mut any_null = false;
        for row in 0..len {
            let v = tested.value_at(row);
            if v.is_null() {
                // NULL IN (...) is NULL.
                values.push(false);
                validity.set(row, false);
                any_null = true;
                continue;
            }
            let mut found = false;
            let mut saw_null_entry = false;
            for c in &entry_cols {
                let e = c.value_at(row);
                if e.is_null() {
                    saw_null_entry = true;
                } else if e == v {
                    found = true;
                    break;
                }
            }
            // SQL three-valued IN: no match but a NULL entry → NULL.
            if !found && saw_null_entry {
                values.push(false);
                validity.set(row, false);
                any_null = true;
            } else {
                values.push(found != self.negated);
            }
        }
        Ok(Arc::new(Column::Boolean(PrimVec {
            values,
            validity: any_null.then_some(validity),
        })))
    }
}

#[derive(Debug)]
struct LikeExpr {
    input: PhysicalExprRef,
    pattern: String,
    negated: bool,
}

/// SQL LIKE matching: `%` matches any run, `_` any single character.
/// Iterative two-pointer algorithm with backtracking over the last `%`.
pub(crate) fn like_match(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut ti, mut pi) = (0usize, 0usize);
    let (mut star, mut star_t) = (None::<usize>, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            ti += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some(pi);
            star_t = ti;
            pi += 1;
        } else if let Some(s) = star {
            pi = s + 1;
            star_t += 1;
            ti = star_t;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

impl PhysicalExpr for LikeExpr {
    fn data_type(&self) -> DataType {
        DataType::Boolean
    }

    fn evaluate(&self, chunk: &Chunk) -> Result<ColumnRef> {
        let c = self.input.evaluate(chunk)?;
        let Column::Utf8(v) = c.as_ref() else {
            return Err(EngineError::type_err("LIKE over non-string column"));
        };
        let values: Vec<bool> = (0..v.len())
            .map(|i| {
                v.get(i)
                    .is_some_and(|s| like_match(s, &self.pattern) != self.negated)
            })
            .collect();
        Ok(Arc::new(Column::Boolean(PrimVec {
            values,
            validity: v.validity.clone(),
        })))
    }
}

/// Evaluate a boolean predicate over a chunk into a selection bitmap
/// (nulls select nothing, per SQL filter semantics).
pub fn evaluate_predicate(expr: &dyn PhysicalExpr, chunk: &Chunk) -> Result<Bitmap> {
    let c = expr.evaluate(chunk)?;
    let Column::Boolean(v) = c.as_ref() else {
        return Err(EngineError::type_err(format!(
            "filter predicate must be BOOLEAN, got {}",
            c.data_type()
        )));
    };
    let mut mask = Bitmap::zeros(v.len());
    for i in 0..v.len() {
        if v.is_valid(i) && v.values[i] {
            mask.set(i, true);
        }
    }
    Ok(mask)
}

/// Vectorized kernels.
pub(crate) mod kernels {
    use super::*;

    fn merged_validity(l: &Option<Bitmap>, r: &Option<Bitmap>, len: usize) -> Option<Bitmap> {
        match (l, r) {
            (None, None) => None,
            (Some(a), None) => Some(a.clone()),
            (None, Some(b)) => Some(b.clone()),
            (Some(a), Some(b)) => Some(a.and(b)),
        }
        .inspect(|b| {
            debug_assert_eq!(b.len(), len);
        })
    }

    /// Kleene AND/OR over boolean columns.
    pub fn logic(l: &Column, op: BinaryOp, r: &Column) -> Result<ColumnRef> {
        let (Column::Boolean(a), Column::Boolean(b)) = (l, r) else {
            return Err(EngineError::type_err("logic over non-boolean columns"));
        };
        let len = a.len();
        let mut values = Vec::with_capacity(len);
        let mut validity = Bitmap::zeros(len);
        let mut all_valid = true;
        for i in 0..len {
            let av = a.get(i);
            let bv = b.get(i);
            let out = match op {
                BinaryOp::And => match (av, bv) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                },
                BinaryOp::Or => match (av, bv) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                },
                _ => return Err(EngineError::internal("logic kernel on non-logic op")),
            };
            match out {
                Some(v) => {
                    values.push(v);
                    validity.set(i, true);
                }
                None => {
                    values.push(false);
                    all_valid = false;
                }
            }
        }
        Ok(Arc::new(Column::Boolean(PrimVec {
            values,
            validity: if all_valid { None } else { Some(validity) },
        })))
    }

    fn cmp_outcome<T: PartialOrd>(a: T, op: BinaryOp, b: T) -> bool {
        match op {
            BinaryOp::Eq => a == b,
            BinaryOp::NotEq => a != b,
            BinaryOp::Lt => a < b,
            BinaryOp::LtEq => a <= b,
            BinaryOp::Gt => a > b,
            BinaryOp::GtEq => a >= b,
            // idf-lint: allow(hot-path-panic) -- comparison() dispatches only comparison ops here
            _ => unreachable!("comparison kernel on non-comparison op"),
        }
    }

    fn compare_prim<T: Copy + PartialOrd + Default>(
        a: &PrimVec<T>,
        op: BinaryOp,
        b: &PrimVec<T>,
    ) -> Column {
        let len = a.len();
        let values: Vec<bool> = (0..len)
            .map(|i| cmp_outcome(a.values[i], op, b.values[i]))
            .collect();
        Column::Boolean(PrimVec {
            values,
            validity: merged_validity(&a.validity, &b.validity, len),
        })
    }

    /// Comparison over same-typed columns; null if either side is null.
    pub fn compare(l: &Column, op: BinaryOp, r: &Column) -> Result<ColumnRef> {
        if l.len() != r.len() {
            return Err(EngineError::internal("comparison over mismatched lengths"));
        }
        let out = match (l, r) {
            (Column::Int32(a), Column::Int32(b)) => compare_prim(a, op, b),
            (Column::Int64(a), Column::Int64(b)) => compare_prim(a, op, b),
            (Column::Timestamp(a), Column::Timestamp(b)) => compare_prim(a, op, b),
            (Column::Float64(a), Column::Float64(b)) => compare_prim(a, op, b),
            (Column::Boolean(a), Column::Boolean(b)) => {
                let len = a.len();
                let values: Vec<bool> = (0..len)
                    .map(|i| cmp_outcome(a.values[i], op, b.values[i]))
                    .collect();
                Column::Boolean(PrimVec {
                    values,
                    validity: merged_validity(&a.validity, &b.validity, len),
                })
            }
            (Column::Utf8(a), Column::Utf8(b)) => {
                let len = a.len();
                let mut values = Vec::with_capacity(len);
                for i in 0..len {
                    let (x, y) = (a.get(i).unwrap_or(""), b.get(i).unwrap_or(""));
                    values.push(cmp_outcome(x, op, y));
                }
                let av = a.validity.clone();
                let bv = b.validity.clone();
                Column::Boolean(PrimVec {
                    values,
                    validity: merged_validity(&av, &bv, len),
                })
            }
            (a, b) => {
                return Err(EngineError::type_err(format!(
                    "cannot compare {} with {}",
                    a.data_type(),
                    b.data_type()
                )))
            }
        };
        Ok(Arc::new(out))
    }

    macro_rules! arith_int {
        ($a:expr, $op:expr, $b:expr, $variant:ident) => {{
            let len = $a.len();
            let mut values = Vec::with_capacity(len);
            let mut validity = match merged_validity(&$a.validity, &$b.validity, len) {
                Some(v) => v,
                None => Bitmap::ones(len),
            };
            for i in 0..len {
                let (x, y) = ($a.values[i], $b.values[i]);
                let out = match $op {
                    BinaryOp::Plus => x.checked_add(y),
                    BinaryOp::Minus => x.checked_sub(y),
                    BinaryOp::Multiply => x.checked_mul(y),
                    BinaryOp::Divide => x.checked_div(y),
                    BinaryOp::Modulo => x.checked_rem(y),
                    // idf-lint: allow(hot-path-panic) -- arithmetic() dispatches only arithmetic ops here
                    _ => unreachable!("arithmetic kernel on non-arithmetic op"),
                };
                match out {
                    Some(v) => values.push(v),
                    None => {
                        values.push(Default::default());
                        validity.set(i, false);
                    }
                }
            }
            Column::$variant(PrimVec {
                values,
                validity: Some(validity),
            })
        }};
    }

    /// Arithmetic over same-typed numeric columns.
    pub fn arithmetic(l: &Column, op: BinaryOp, r: &Column) -> Result<ColumnRef> {
        if l.len() != r.len() {
            return Err(EngineError::internal("arithmetic over mismatched lengths"));
        }
        let out = match (l, r) {
            (Column::Int32(a), Column::Int32(b)) => arith_int!(a, op, b, Int32),
            (Column::Int64(a), Column::Int64(b)) => arith_int!(a, op, b, Int64),
            (Column::Float64(a), Column::Float64(b)) => {
                let len = a.len();
                let values: Vec<f64> = (0..len)
                    .map(|i| {
                        let (x, y) = (a.values[i], b.values[i]);
                        match op {
                            BinaryOp::Plus => x + y,
                            BinaryOp::Minus => x - y,
                            BinaryOp::Multiply => x * y,
                            BinaryOp::Divide => x / y,
                            BinaryOp::Modulo => x % y,
                            // idf-lint: allow(hot-path-panic) -- arithmetic() dispatches only arithmetic ops here
                            _ => unreachable!("arithmetic kernel on non-arithmetic op"),
                        }
                    })
                    .collect();
                Column::Float64(PrimVec {
                    values,
                    validity: merged_validity(&a.validity, &b.validity, len),
                })
            }
            (a, b) => {
                return Err(EngineError::type_err(format!(
                    "cannot apply {op} to {} and {}",
                    a.data_type(),
                    b.data_type()
                )))
            }
        };
        Ok(Arc::new(out))
    }

    /// Cast a column to `to`; uncastable cells become null.
    pub fn cast(c: &Column, to: DataType) -> Result<ColumnRef> {
        if c.data_type() == to {
            return Ok(Arc::new(c.clone()));
        }
        // Fast paths for the common numeric widenings.
        match (c, to) {
            (Column::Int32(v), DataType::Int64) => {
                let values = v.values.iter().map(|&x| i64::from(x)).collect();
                return Ok(Arc::new(Column::Int64(PrimVec {
                    values,
                    validity: v.validity.clone(),
                })));
            }
            (Column::Int32(v), DataType::Float64) => {
                let values = v.values.iter().map(|&x| f64::from(x)).collect();
                return Ok(Arc::new(Column::Float64(PrimVec {
                    values,
                    validity: v.validity.clone(),
                })));
            }
            (Column::Int64(v), DataType::Float64) => {
                let values = v.values.iter().map(|&x| x as f64).collect();
                return Ok(Arc::new(Column::Float64(PrimVec {
                    values,
                    validity: v.validity.clone(),
                })));
            }
            (Column::Timestamp(v), DataType::Int64) => {
                return Ok(Arc::new(Column::Int64(v.clone())));
            }
            (Column::Int64(v), DataType::Timestamp) => {
                return Ok(Arc::new(Column::Timestamp(v.clone())));
            }
            _ => {}
        }
        // Generic scalar path.
        let mut b = crate::column::ColumnBuilder::new(to);
        for i in 0..c.len() {
            match c.value_at(i).cast(to) {
                Some(v) => b.push(&v)?,
                None => b.push(&Value::Null)?,
            }
        }
        Ok(Arc::new(b.finish()))
    }

    /// Cast helper used by string casts in the generic path.
    #[allow(dead_code)]
    fn utf8_from_iter<'a>(it: impl Iterator<Item = Option<&'a str>>) -> Column {
        let mut v = StrVec::new();
        for s in it {
            v.push(s);
        }
        Column::Utf8(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::resolve_expr;
    use crate::expr::{col, lit};
    use crate::schema::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("s", DataType::Utf8),
            Field::new("f", DataType::Float64),
        ])
    }

    fn chunk() -> Chunk {
        let s = Arc::new(schema());
        Chunk::from_rows(
            &s,
            &[
                vec![
                    Value::Int64(1),
                    Value::Int64(10),
                    Value::Utf8("x".into()),
                    Value::Float64(0.5),
                ],
                vec![
                    Value::Int64(2),
                    Value::Null,
                    Value::Utf8("y".into()),
                    Value::Float64(1.5),
                ],
                vec![
                    Value::Int64(3),
                    Value::Int64(30),
                    Value::Null,
                    Value::Float64(2.5),
                ],
            ],
        )
        .unwrap()
    }

    fn compile(e: &Expr) -> PhysicalExprRef {
        let s = schema();
        let bound = resolve_expr(e, &s).unwrap();
        create_physical_expr(&bound, &s).unwrap()
    }

    #[test]
    fn column_and_literal() {
        let c = chunk();
        let e = compile(&col("a"));
        assert_eq!(e.evaluate(&c).unwrap().value_at(2), Value::Int64(3));
        let l = compile(&lit(7i64));
        let out = l.evaluate(&c).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.value_at(1), Value::Int64(7));
    }

    #[test]
    fn comparison_propagates_null() {
        let c = chunk();
        let e = compile(&col("b").gt(lit(5i64)));
        let out = e.evaluate(&c).unwrap();
        assert_eq!(out.value_at(0), Value::Boolean(true));
        assert_eq!(out.value_at(1), Value::Null);
        assert_eq!(out.value_at(2), Value::Boolean(true));
    }

    #[test]
    fn arithmetic_and_div_by_zero() {
        let c = chunk();
        let e = compile(&col("a").add(lit(100i64)));
        assert_eq!(e.evaluate(&c).unwrap().value_at(0), Value::Int64(101));
        let d = compile(&col("a").div(lit(0i64)));
        assert_eq!(d.evaluate(&c).unwrap().value_at(0), Value::Null);
    }

    #[test]
    fn kleene_logic() {
        let c = chunk();
        // b IS NULL at row 1; (b > 5) is NULL there.
        let e = compile(&col("b").gt(lit(5i64)).or(col("a").eq(lit(2i64))));
        let out = e.evaluate(&c).unwrap();
        assert_eq!(out.value_at(1), Value::Boolean(true), "NULL OR true = true");
        let e2 = compile(&col("b").gt(lit(5i64)).and(col("a").eq(lit(2i64))));
        let out2 = e2.evaluate(&c).unwrap();
        assert_eq!(out2.value_at(1), Value::Null, "NULL AND true = NULL");
        assert_eq!(out2.value_at(0), Value::Boolean(false));
    }

    #[test]
    fn string_compare() {
        let c = chunk();
        let e = compile(&col("s").eq(lit("y")));
        let out = e.evaluate(&c).unwrap();
        assert_eq!(out.value_at(0), Value::Boolean(false));
        assert_eq!(out.value_at(1), Value::Boolean(true));
        assert_eq!(out.value_at(2), Value::Null);
    }

    #[test]
    fn predicate_mask_treats_null_as_false() {
        let c = chunk();
        let e = compile(&col("b").gt(lit(5i64)));
        let mask = evaluate_predicate(e.as_ref(), &c).unwrap();
        assert_eq!(mask.set_indices(), vec![0, 2]);
    }

    #[test]
    fn mixed_type_plan_inserts_casts() {
        let c = chunk();
        // f (float) vs a (int64): analyzer inserts casts; result boolean.
        let e = compile(&col("f").lt(col("a")));
        let out = e.evaluate(&c).unwrap();
        assert_eq!(out.value_at(0), Value::Boolean(true)); // 0.5 < 1
        assert_eq!(out.value_at(1), Value::Boolean(true)); // 1.5 < 2
        assert_eq!(out.value_at(2), Value::Boolean(true)); // 2.5 < 3
    }

    #[test]
    fn is_null_kernels() {
        let c = chunk();
        let e = compile(&col("b").is_null());
        let out = e.evaluate(&c).unwrap();
        assert_eq!(out.value_at(1), Value::Boolean(true));
        assert_eq!(out.value_at(0), Value::Boolean(false));
        let e2 = compile(&col("b").is_not_null());
        assert_eq!(e2.evaluate(&c).unwrap().value_at(1), Value::Boolean(false));
    }

    #[test]
    fn not_kernel() {
        let c = chunk();
        let e = compile(&col("a").eq(lit(1i64)).not());
        let out = e.evaluate(&c).unwrap();
        assert_eq!(out.value_at(0), Value::Boolean(false));
        assert_eq!(out.value_at(1), Value::Boolean(true));
    }

    #[test]
    fn int_overflow_becomes_null() {
        let s = Arc::new(Schema::new(vec![Field::new("a", DataType::Int64)]));
        let c = Chunk::from_rows(&s, &[vec![Value::Int64(i64::MAX)]]).unwrap();
        let e = resolve_expr(&col("a").add(lit(1i64)), &s).unwrap();
        let pe = create_physical_expr(&e, &s).unwrap();
        assert_eq!(pe.evaluate(&c).unwrap().value_at(0), Value::Null);
    }
}
