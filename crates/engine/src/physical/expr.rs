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

    /// The value of a constant expression (a literal, or a plan-cache
    /// parameter once bound): binary kernels take it as a scalar operand
    /// instead of evaluating it into a `chunk.len()`-row column.
    fn literal(&self) -> Option<&Value> {
        None
    }

    /// The input column a bare column reference reads: the planner matches
    /// these against [`Partitioning`](crate::physical::Partitioning)
    /// columns, and only these — a computed key hashes differently.
    fn column_index(&self) -> Option<usize> {
        None
    }

    /// Evaluate a boolean expression straight into a selection mask: bit
    /// `i` is set when row `i` is TRUE (NULL and FALSE both clear it, per
    /// SQL filter semantics).
    fn evaluate_mask(&self, chunk: &Chunk) -> Result<Bitmap> {
        let c = self.evaluate(chunk)?;
        let Column::Boolean(v) = c.as_ref() else {
            return Err(EngineError::type_err(format!(
                "filter predicate must be BOOLEAN, got {}",
                c.data_type()
            )));
        };
        let truth = Bitmap::from_bools(&v.values);
        Ok(match &v.validity {
            Some(valid) => truth.and(valid),
            None => truth,
        })
    }
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

    fn column_index(&self) -> Option<usize> {
        Some(self.index)
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

    fn literal(&self) -> Option<&Value> {
        Some(&self.value)
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
        if self.op.is_logic() {
            let l = self.left.evaluate(chunk)?;
            let r = self.right.evaluate(chunk)?;
            return kernels::logic(&l, self.op, &r);
        }
        let (l, r) = self.operands(chunk)?;
        if self.op.is_comparison() {
            let (truth, validity) = kernels::compare(l.operand(), self.op, r.operand())?;
            return Ok(Arc::new(Column::Boolean(PrimVec {
                values: truth.to_bools(),
                validity,
            })));
        }
        kernels::arithmetic(l.operand(), self.op, r.operand())
    }

    fn evaluate_mask(&self, chunk: &Chunk) -> Result<Bitmap> {
        match self.op {
            // A conjunction is TRUE exactly where both sides are, a
            // disjunction where either is: Kleene logic on the masks.
            BinaryOp::And => Ok(self
                .left
                .evaluate_mask(chunk)?
                .and(&self.right.evaluate_mask(chunk)?)),
            BinaryOp::Or => Ok(self
                .left
                .evaluate_mask(chunk)?
                .or(&self.right.evaluate_mask(chunk)?)),
            op if op.is_comparison() => {
                let (l, r) = self.operands(chunk)?;
                let (truth, validity) = kernels::compare(l.operand(), op, r.operand())?;
                Ok(match validity {
                    Some(valid) => truth.and(&valid),
                    None => truth,
                })
            }
            _ => Err(EngineError::type_err(format!(
                "filter predicate must be BOOLEAN, got {}",
                self.dt
            ))),
        }
    }
}

/// One evaluated side of a comparison or arithmetic expression.
enum Evaluated<'e> {
    Column(ColumnRef),
    Scalar(&'e Value),
}

impl Evaluated<'_> {
    fn operand(&self) -> kernels::Operand<'_> {
        match self {
            Evaluated::Column(c) => kernels::Operand::Column(c),
            Evaluated::Scalar(v) => kernels::Operand::Scalar(v),
        }
    }
}

impl BinaryExpr {
    /// Both sides evaluated, constants left as scalars. The kernels size
    /// their result from a column, so of two constants (which the
    /// optimizer normally folds away) the left one is expanded.
    fn operands(&self, chunk: &Chunk) -> Result<(Evaluated<'_>, Evaluated<'_>)> {
        let side = |e: &PhysicalExprRef| e.evaluate(chunk).map(Evaluated::Column);
        Ok(match (self.left.literal(), self.right.literal()) {
            (None, None) => (side(&self.left)?, side(&self.right)?),
            (None, Some(r)) => (side(&self.left)?, Evaluated::Scalar(r)),
            (Some(l), None) => (Evaluated::Scalar(l), side(&self.right)?),
            (Some(_), Some(r)) => (side(&self.left)?, Evaluated::Scalar(r)),
        })
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
    expr.evaluate_mask(chunk)
}

/// Vectorized kernels.
pub(crate) mod kernels {
    use super::*;

    fn merged_validity(l: Option<&Bitmap>, r: Option<&Bitmap>, len: usize) -> Option<Bitmap> {
        match (l, r) {
            (None, None) => None,
            (Some(a), None) | (None, Some(a)) => Some(a.clone()),
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

    /// One operand of a binary kernel: a column, or one value standing
    /// for every row (a literal is never expanded into a column).
    #[derive(Debug, Clone, Copy)]
    pub enum Operand<'a> {
        /// A value per row.
        Column(&'a Column),
        /// The same value on every row.
        Scalar(&'a Value),
    }

    impl Operand<'_> {
        fn type_name(&self) -> String {
            match self {
                Operand::Column(c) => c.data_type().to_string(),
                Operand::Scalar(v) => v
                    .data_type()
                    .map_or_else(|| "NULL".to_string(), |dt| dt.to_string()),
            }
        }

        fn is_null_scalar(&self) -> bool {
            matches!(self, Operand::Scalar(Value::Null))
        }
    }

    /// Rows of the result (the length of whichever operand is a column)
    /// and its validity: null where either side is, all null beside a
    /// NULL scalar.
    fn shape(l: Operand<'_>, r: Operand<'_>) -> Result<(usize, Option<Bitmap>)> {
        let (len, validity) = match (l, r) {
            (Operand::Column(a), Operand::Column(b)) => {
                if a.len() != b.len() {
                    return Err(EngineError::internal(
                        "binary kernel over mismatched lengths",
                    ));
                }
                (
                    a.len(),
                    merged_validity(a.validity(), b.validity(), a.len()),
                )
            }
            (Operand::Column(c), Operand::Scalar(_)) | (Operand::Scalar(_), Operand::Column(c)) => {
                (c.len(), c.validity().cloned())
            }
            (Operand::Scalar(_), Operand::Scalar(_)) => {
                return Err(EngineError::internal(
                    "binary kernel needs a column operand to size its result",
                ))
            }
        };
        if l.is_null_scalar() || r.is_null_scalar() {
            return Ok((len, Some(Bitmap::zeros(len))));
        }
        Ok((len, validity))
    }

    /// The two operands of a typed kernel, at least one a column.
    enum Sides<'a, T> {
        Columns(&'a [T], &'a [T]),
        ScalarRight(&'a [T], T),
        ScalarLeft(T, &'a [T]),
    }

    impl<T: Copy> Sides<'_, T> {
        /// `f(left, right)` of every row, collected. Each operand shape
        /// gets its own loop; a scalar stays in a register.
        fn zip_with<R, C: FromIterator<R>>(self, f: impl Fn(T, T) -> R) -> C {
            match self {
                Sides::Columns(a, b) => a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect(),
                Sides::ScalarRight(a, y) => a.iter().map(|&x| f(x, y)).collect(),
                Sides::ScalarLeft(x, b) => b.iter().map(|&y| f(x, y)).collect(),
            }
        }
    }

    /// The operands as [`Sides`] of one column/value variant, if both are.
    macro_rules! sides {
        ($l:expr, $r:expr, $variant:ident) => {
            match ($l, $r) {
                (Operand::Column(Column::$variant(a)), Operand::Column(Column::$variant(b))) => {
                    Some(Sides::Columns(a.values.as_slice(), b.values.as_slice()))
                }
                (Operand::Column(Column::$variant(a)), Operand::Scalar(Value::$variant(y))) => {
                    Some(Sides::ScalarRight(a.values.as_slice(), *y))
                }
                (Operand::Scalar(Value::$variant(x)), Operand::Column(Column::$variant(b))) => {
                    Some(Sides::ScalarLeft(*x, b.values.as_slice()))
                }
                _ => None,
            }
        };
    }

    /// Comparison outcomes packed straight into mask words.
    fn compare_sides<T: Copy + PartialOrd>(sides: Sides<'_, T>, op: BinaryOp) -> Bitmap {
        match op {
            BinaryOp::Eq => sides.zip_with(|x, y| x == y),
            BinaryOp::NotEq => sides.zip_with(|x, y| x != y),
            BinaryOp::Lt => sides.zip_with(|x, y| x < y),
            BinaryOp::LtEq => sides.zip_with(|x, y| x <= y),
            BinaryOp::Gt => sides.zip_with(|x, y| x > y),
            BinaryOp::GtEq => sides.zip_with(|x, y| x >= y),
            #[allow(clippy::unreachable)] // callers dispatch only comparison ops here
            _ => unreachable!("comparison kernel on non-comparison op"),
        }
    }

    /// Every value of a string column (NULL slots read as empty).
    fn strs(v: &StrVec) -> Vec<&str> {
        (0..v.len()).map(|i| v.get(i).unwrap_or("")).collect()
    }

    /// Comparison over same-typed operands: the truth bit of every row
    /// plus the result's validity (null where either side is null).
    pub fn compare(
        l: Operand<'_>,
        op: BinaryOp,
        r: Operand<'_>,
    ) -> Result<(Bitmap, Option<Bitmap>)> {
        let (len, validity) = shape(l, r)?;
        if l.is_null_scalar() || r.is_null_scalar() {
            return Ok((Bitmap::zeros(len), validity));
        }
        let truth = if let Some(s) = sides!(l, r, Int32) {
            compare_sides(s, op)
        } else if let Some(s) = sides!(l, r, Int64) {
            compare_sides(s, op)
        } else if let Some(s) = sides!(l, r, Timestamp) {
            compare_sides(s, op)
        } else if let Some(s) = sides!(l, r, Float64) {
            compare_sides(s, op)
        } else if let Some(s) = sides!(l, r, Boolean) {
            compare_sides(s, op)
        } else {
            match (l, r) {
                (Operand::Column(Column::Utf8(a)), Operand::Column(Column::Utf8(b))) => {
                    compare_sides(Sides::Columns(&strs(a), &strs(b)), op)
                }
                (Operand::Column(Column::Utf8(a)), Operand::Scalar(Value::Utf8(y))) => {
                    compare_sides(Sides::ScalarRight(&strs(a), y.as_str()), op)
                }
                (Operand::Scalar(Value::Utf8(x)), Operand::Column(Column::Utf8(b))) => {
                    compare_sides(Sides::ScalarLeft(x.as_str(), &strs(b)), op)
                }
                _ => {
                    return Err(EngineError::type_err(format!(
                        "cannot compare {} with {}",
                        l.type_name(),
                        r.type_name()
                    )))
                }
            }
        };
        Ok((truth, validity))
    }

    /// The integer widths of checked arithmetic: overflow and division by
    /// zero are `None`.
    trait CheckedInt: Copy + Default {
        fn checked_add(self, rhs: Self) -> Option<Self>;
        fn checked_sub(self, rhs: Self) -> Option<Self>;
        fn checked_mul(self, rhs: Self) -> Option<Self>;
        fn checked_div(self, rhs: Self) -> Option<Self>;
        fn checked_rem(self, rhs: Self) -> Option<Self>;
    }

    impl CheckedInt for i32 {
        fn checked_add(self, rhs: Self) -> Option<Self> {
            i32::checked_add(self, rhs)
        }
        fn checked_sub(self, rhs: Self) -> Option<Self> {
            i32::checked_sub(self, rhs)
        }
        fn checked_mul(self, rhs: Self) -> Option<Self> {
            i32::checked_mul(self, rhs)
        }
        fn checked_div(self, rhs: Self) -> Option<Self> {
            i32::checked_div(self, rhs)
        }
        fn checked_rem(self, rhs: Self) -> Option<Self> {
            i32::checked_rem(self, rhs)
        }
    }

    impl CheckedInt for i64 {
        fn checked_add(self, rhs: Self) -> Option<Self> {
            i64::checked_add(self, rhs)
        }
        fn checked_sub(self, rhs: Self) -> Option<Self> {
            i64::checked_sub(self, rhs)
        }
        fn checked_mul(self, rhs: Self) -> Option<Self> {
            i64::checked_mul(self, rhs)
        }
        fn checked_div(self, rhs: Self) -> Option<Self> {
            i64::checked_div(self, rhs)
        }
        fn checked_rem(self, rhs: Self) -> Option<Self> {
            i64::checked_rem(self, rhs)
        }
    }

    /// The error for an op the arithmetic kernels do not implement.
    fn not_arithmetic(op: BinaryOp) -> EngineError {
        EngineError::internal(format!("arithmetic kernel on non-arithmetic op {op}"))
    }

    /// Checked integer arithmetic: overflow and division by zero are null.
    fn arith_int<T: CheckedInt>(
        sides: Sides<'_, T>,
        op: BinaryOp,
        validity: Option<Bitmap>,
        len: usize,
    ) -> Result<PrimVec<T>> {
        let out: PrimVec<T> = match op {
            BinaryOp::Plus => sides.zip_with(T::checked_add),
            BinaryOp::Minus => sides.zip_with(T::checked_sub),
            BinaryOp::Multiply => sides.zip_with(T::checked_mul),
            BinaryOp::Divide => sides.zip_with(T::checked_div),
            BinaryOp::Modulo => sides.zip_with(T::checked_rem),
            _ => return Err(not_arithmetic(op)),
        };
        Ok(PrimVec {
            values: out.values,
            validity: merged_validity(out.validity.as_ref(), validity.as_ref(), len),
        })
    }

    /// Arithmetic over same-typed numeric operands.
    pub fn arithmetic(l: Operand<'_>, op: BinaryOp, r: Operand<'_>) -> Result<ColumnRef> {
        let (len, validity) = shape(l, r)?;
        if let (Operand::Column(c), Operand::Scalar(Value::Null))
        | (Operand::Scalar(Value::Null), Operand::Column(c)) = (l, r)
        {
            return Ok(Arc::new(Column::repeat(c.data_type(), &Value::Null, len)?));
        }
        let out = if let Some(s) = sides!(l, r, Int32) {
            Column::Int32(arith_int(s, op, validity, len)?)
        } else if let Some(s) = sides!(l, r, Int64) {
            Column::Int64(arith_int(s, op, validity, len)?)
        } else if let Some(s) = sides!(l, r, Float64) {
            let values: Vec<f64> = match op {
                BinaryOp::Plus => s.zip_with(|x, y| x + y),
                BinaryOp::Minus => s.zip_with(|x, y| x - y),
                BinaryOp::Multiply => s.zip_with(|x, y| x * y),
                BinaryOp::Divide => s.zip_with(|x, y| x / y),
                BinaryOp::Modulo => s.zip_with(|x, y| x % y),
                _ => return Err(not_arithmetic(op)),
            };
            Column::Float64(PrimVec { values, validity })
        } else {
            return Err(EngineError::type_err(format!(
                "cannot apply {op} to {} and {}",
                l.type_name(),
                r.type_name()
            )));
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

    /// Columns of every kernel type holding NULLs and the values where
    /// comparison and checked arithmetic change behaviour.
    fn edge_columns() -> Vec<Column> {
        let opt = |vals: &[Option<i64>]| -> PrimVec<i64> { vals.iter().copied().collect() };
        let ints = [
            Some(i64::MIN),
            Some(-1),
            None,
            Some(0),
            Some(1),
            Some(i64::MAX),
        ];
        vec![
            Column::Int64(opt(&ints)),
            Column::Timestamp(opt(&ints)),
            Column::Int32(
                [
                    Some(i32::MIN),
                    Some(-1),
                    None,
                    Some(0),
                    Some(1),
                    Some(i32::MAX),
                ]
                .into_iter()
                .collect(),
            ),
            Column::Float64(
                [
                    Some(f64::NEG_INFINITY),
                    Some(-0.0),
                    None,
                    Some(f64::NAN),
                    Some(1.5),
                    Some(f64::MAX),
                ]
                .into_iter()
                .collect(),
            ),
            Column::Boolean([Some(true), None, Some(false)].into_iter().collect()),
            Column::Utf8(StrVec::from_options(&[
                Some(""),
                None,
                Some("a"),
                Some("é"),
                Some("ab"),
            ])),
        ]
    }

    /// Scalars to hold against a column: each of its own values, and NULL.
    fn edge_scalars(c: &Column) -> Vec<Value> {
        let mut scalars: Vec<Value> = (0..c.len()).map(|i| c.value_at(i)).collect();
        scalars.push(Value::Null);
        scalars
    }

    fn rows(c: &Column) -> Vec<Value> {
        (0..c.len()).map(|i| c.value_at(i)).collect()
    }

    #[test]
    fn scalar_operands_equal_the_expanded_column() {
        use kernels::Operand::{Column as Col, Scalar};
        let comparisons = [
            BinaryOp::Eq,
            BinaryOp::NotEq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
        ];
        let arithmetic = [
            BinaryOp::Plus,
            BinaryOp::Minus,
            BinaryOp::Multiply,
            BinaryOp::Divide,
            BinaryOp::Modulo,
        ];
        for c in edge_columns() {
            for v in edge_scalars(&c) {
                // What the kernels saw before literals stayed scalars.
                let expanded = Column::repeat(c.data_type(), &v, c.len()).unwrap();
                for op in comparisons {
                    let what = format!("{} {op} {v:?}", c.data_type());
                    let column = |(truth, validity): (Bitmap, Option<Bitmap>)| {
                        rows(&Column::Boolean(PrimVec {
                            values: truth.to_bools(),
                            validity,
                        }))
                    };
                    assert_eq!(
                        column(kernels::compare(Col(&c), op, Scalar(&v)).unwrap()),
                        column(kernels::compare(Col(&c), op, Col(&expanded)).unwrap()),
                        "col {what}"
                    );
                    assert_eq!(
                        column(kernels::compare(Scalar(&v), op, Col(&c)).unwrap()),
                        column(kernels::compare(Col(&expanded), op, Col(&c)).unwrap()),
                        "lit-first {what}"
                    );
                }
                if c.data_type().numeric_rank().is_none() {
                    continue;
                }
                for op in arithmetic {
                    let what = format!("{} {op} {v:?}", c.data_type());
                    // Debug text: NaN results must compare equal to themselves.
                    let text = |c: ColumnRef| format!("{:?}", rows(&c));
                    assert_eq!(
                        text(kernels::arithmetic(Col(&c), op, Scalar(&v)).unwrap()),
                        text(kernels::arithmetic(Col(&c), op, Col(&expanded)).unwrap()),
                        "col {what}"
                    );
                    assert_eq!(
                        text(kernels::arithmetic(Scalar(&v), op, Col(&c)).unwrap()),
                        text(kernels::arithmetic(Col(&expanded), op, Col(&c)).unwrap()),
                        "lit-first {what}"
                    );
                }
            }
        }
        // Two scalars leave the kernels nothing to size the result by.
        let one = Value::Int64(1);
        assert!(kernels::compare(Scalar(&one), BinaryOp::Eq, Scalar(&one)).is_err());
    }

    /// A comparison op handed to the arithmetic kernel is a typed internal
    /// error in both the integer and the float arm, not a panic.
    #[test]
    fn arithmetic_kernel_rejects_non_arithmetic_ops() {
        use kernels::Operand::{Column as Col, Scalar};
        for (c, v) in [
            (
                Column::Int32(vec![Some(1)].into_iter().collect()),
                Value::Int32(2),
            ),
            (
                Column::Int64(vec![Some(1)].into_iter().collect()),
                Value::Int64(2),
            ),
            (
                Column::Float64(vec![Some(1.0)].into_iter().collect()),
                Value::Float64(2.0),
            ),
        ] {
            let err = kernels::arithmetic(Col(&c), BinaryOp::Lt, Scalar(&v)).unwrap_err();
            assert!(matches!(err, EngineError::Internal(_)), "{err:?}");
            assert!(err.to_string().contains("non-arithmetic op"), "{err}");
        }
    }

    /// The selection mask, built one bit at a time from the evaluated
    /// boolean column — what `evaluate_predicate` used to do.
    fn bit_by_bit_mask(e: &dyn PhysicalExpr, chunk: &Chunk) -> Bitmap {
        let c = e.evaluate(chunk).unwrap();
        let mut mask = Bitmap::zeros(c.len());
        for i in 0..c.len() {
            if c.value_at(i) == Value::Boolean(true) {
                mask.set(i, true);
            }
        }
        mask
    }

    #[test]
    fn direct_masks_equal_the_bit_by_bit_mask() {
        // A deterministic scatter of values and NULLs over more than one
        // mask word, so word boundaries and the tail are both crossed.
        let s = Arc::new(schema());
        let rows: Vec<Vec<Value>> = (0..150i64)
            .map(|i| {
                let null = |k: i64| (i * 7 + k) % 5 == 0;
                vec![
                    if null(0) {
                        Value::Null
                    } else {
                        Value::Int64(i % 9 - 4)
                    },
                    if null(1) {
                        Value::Null
                    } else {
                        Value::Int64(i % 4)
                    },
                    if null(2) {
                        Value::Null
                    } else {
                        Value::Utf8(format!("s{}", i % 3))
                    },
                    if null(3) {
                        Value::Null
                    } else {
                        Value::Float64(i as f64 / 2.0)
                    },
                ]
            })
            .collect();
        let c = Chunk::from_rows(&s, &rows).unwrap();
        let predicates = [
            col("a").gt(lit(0i64)),
            lit(0i64).gt(col("a")),
            col("a").lt_eq(col("b")),
            col("s").eq(lit("s1")),
            col("f").gt_eq(lit(30.0)),
            col("a").gt(lit(0i64)).and(col("b").not_eq(lit(2i64))),
            col("a").gt(lit(0i64)).or(col("s").lt(lit("s1"))),
            col("a").gt(lit(0i64)).or(col("b").lt(lit(1i64))).not(),
            col("b").is_null().or(col("a").add(lit(1i64)).eq(col("b"))),
        ];
        for p in predicates {
            let e = compile(&p);
            assert_eq!(
                evaluate_predicate(e.as_ref(), &c).unwrap(),
                bit_by_bit_mask(e.as_ref(), &c),
                "{p}"
            );
        }
        // A non-boolean predicate is a typed error on both mask paths.
        assert!(evaluate_predicate(compile(&col("a")).as_ref(), &c).is_err());
        assert!(evaluate_predicate(compile(&col("a").add(lit(1i64))).as_ref(), &c).is_err());
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
