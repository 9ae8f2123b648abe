//! Name resolution and type coercion — the engine's analysis layer
//! (the analogue of Catalyst's analyzer).
//!
//! The DataFrame API and the SQL binder both resolve expressions eagerly
//! against their input schema (as Spark does), so every plan the optimizer
//! sees has bound column indices and coherent types.

use crate::error::{EngineError, Result};
use crate::expr::{AggFunc, BinaryOp, ColumnRefExpr, Expr, ScalarFunc};
use crate::schema::{Field, Schema};
use crate::types::DataType;

/// Resolve column references in `expr` against `schema` (filling indices)
/// and insert casts so both sides of every binary operator agree.
pub fn resolve_expr(expr: &Expr, schema: &Schema) -> Result<Expr> {
    let resolved = bind_columns(expr, schema)?;
    coerce(&resolved, schema)
}

fn bind_columns(expr: &Expr, schema: &Schema) -> Result<Expr> {
    Ok(match expr {
        Expr::Column(c) => {
            let index = schema.index_of(c.qualifier.as_deref(), &c.name)?;
            Expr::Column(ColumnRefExpr {
                qualifier: c.qualifier.clone(),
                name: c.name.clone(),
                index: Some(index),
            })
        }
        Expr::Literal(_) | Expr::Param { .. } => expr.clone(),
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(bind_columns(left, schema)?),
            op: *op,
            right: Box::new(bind_columns(right, schema)?),
        },
        Expr::Not(e) => Expr::Not(Box::new(bind_columns(e, schema)?)),
        Expr::IsNull(e) => Expr::IsNull(Box::new(bind_columns(e, schema)?)),
        Expr::IsNotNull(e) => Expr::IsNotNull(Box::new(bind_columns(e, schema)?)),
        Expr::Cast { expr, to } => Expr::Cast {
            expr: Box::new(bind_columns(expr, schema)?),
            to: *to,
        },
        Expr::Alias(e, n) => Expr::Alias(Box::new(bind_columns(e, schema)?), n.clone()),
        Expr::Aggregate { func, arg } => Expr::Aggregate {
            func: *func,
            arg: match arg {
                Some(a) => Some(Box::new(bind_columns(a, schema)?)),
                None => None,
            },
        },
        Expr::Scalar { func, args } => Expr::Scalar {
            func: *func,
            args: args
                .iter()
                .map(|a| bind_columns(a, schema))
                .collect::<Result<_>>()?,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(bind_columns(expr, schema)?),
            list: list
                .iter()
                .map(|e| bind_columns(e, schema))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(bind_columns(expr, schema)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
    })
}

/// Insert casts so binary operands share a type; verify logic/arithmetic
/// typing.
fn coerce(expr: &Expr, schema: &Schema) -> Result<Expr> {
    Ok(match expr {
        Expr::Binary { left, op, right } => {
            let l = coerce(left, schema)?;
            let r = coerce(right, schema)?;
            let lt = expr_type(&l, schema)?;
            let rt = expr_type(&r, schema)?;
            if op.is_logic() {
                for (side, t) in [("left", lt), ("right", rt)] {
                    if t != DataType::Boolean {
                        return Err(EngineError::type_err(format!(
                            "{side} operand of {op} must be BOOLEAN, got {t}"
                        )));
                    }
                }
                return Ok(Expr::Binary {
                    left: Box::new(l),
                    op: *op,
                    right: Box::new(r),
                });
            }
            let (l, r) = unify_operands(l, lt, r, rt, *op)?;
            Expr::Binary {
                left: Box::new(l),
                op: *op,
                right: Box::new(r),
            }
        }
        Expr::Not(e) => {
            let e = coerce(e, schema)?;
            if expr_type(&e, schema)? != DataType::Boolean {
                return Err(EngineError::type_err("NOT requires a BOOLEAN operand"));
            }
            Expr::Not(Box::new(e))
        }
        Expr::IsNull(e) => Expr::IsNull(Box::new(coerce(e, schema)?)),
        Expr::IsNotNull(e) => Expr::IsNotNull(Box::new(coerce(e, schema)?)),
        Expr::Cast { expr, to } => Expr::Cast {
            expr: Box::new(coerce(expr, schema)?),
            to: *to,
        },
        Expr::Alias(e, n) => Expr::Alias(Box::new(coerce(e, schema)?), n.clone()),
        Expr::Aggregate { func, arg } => {
            let arg = match arg {
                Some(a) => {
                    let a = coerce(a, schema)?;
                    let t = expr_type(&a, schema)?;
                    match func {
                        AggFunc::Sum | AggFunc::Avg if !t.is_numeric() => {
                            return Err(EngineError::type_err(format!(
                                "{func} requires a numeric argument, got {t}"
                            )))
                        }
                        _ => {}
                    }
                    Some(Box::new(a))
                }
                None => None,
            };
            Expr::Aggregate { func: *func, arg }
        }
        Expr::Scalar { func, args } => {
            let args: Vec<Expr> = args
                .iter()
                .map(|a| coerce(a, schema))
                .collect::<Result<_>>()?;
            check_scalar_args(*func, &args, schema)?;
            Expr::Scalar { func: *func, args }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let tested = coerce(expr, schema)?;
            let tt = expr_type(&tested, schema)?;
            let list = list
                .iter()
                .map(|e| {
                    let e = coerce(e, schema)?;
                    // A NULL entry is valid against any tested type —
                    // under three-valued logic it can only ever yield
                    // NULL, never a type error.
                    if matches!(&e, Expr::Literal(crate::types::Value::Null)) {
                        return Ok(e);
                    }
                    let et = expr_type(&e, schema)?;
                    if et == tt {
                        return Ok(e);
                    }
                    // Numeric widening toward the tested type.
                    if et.numeric_rank().is_some() && tt.numeric_rank().is_some() {
                        return Ok(e.cast(tt));
                    }
                    Err(EngineError::type_err(format!(
                        "IN list entry type {et} does not match tested type {tt}"
                    )))
                })
                .collect::<Result<_>>()?;
            Expr::InList {
                expr: Box::new(tested),
                list,
                negated: *negated,
            }
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let tested = coerce(expr, schema)?;
            if expr_type(&tested, schema)? != DataType::Utf8 {
                return Err(EngineError::type_err("LIKE requires a UTF8 operand"));
            }
            Expr::Like {
                expr: Box::new(tested),
                pattern: pattern.clone(),
                negated: *negated,
            }
        }
        other => other.clone(),
    })
}

/// Argument checking for scalar functions.
fn check_scalar_args(func: ScalarFunc, args: &[Expr], schema: &Schema) -> Result<()> {
    let arity_ok = match func {
        ScalarFunc::Coalesce => !args.is_empty(),
        _ => args.len() == 1,
    };
    if !arity_ok {
        return Err(EngineError::type_err(format!(
            "wrong number of arguments to {func}"
        )));
    }
    match func {
        ScalarFunc::Upper | ScalarFunc::Lower | ScalarFunc::Length => {
            let t = expr_type(&args[0], schema)?;
            if t != DataType::Utf8 {
                return Err(EngineError::type_err(format!(
                    "{func} requires UTF8, got {t}"
                )));
            }
        }
        ScalarFunc::Abs => {
            let t = expr_type(&args[0], schema)?;
            if !t.is_numeric() {
                return Err(EngineError::type_err(format!(
                    "{func} requires a numeric argument, got {t}"
                )));
            }
        }
        ScalarFunc::Coalesce => {
            let t0 = expr_type(&args[0], schema)?;
            for a in &args[1..] {
                if expr_type(a, schema)? != t0 {
                    return Err(EngineError::type_err(
                        "coalesce arguments must share one type",
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Make two operand types agree, inserting casts as needed.
fn unify_operands(
    l: Expr,
    lt: DataType,
    r: Expr,
    rt: DataType,
    op: BinaryOp,
) -> Result<(Expr, Expr)> {
    if lt == rt {
        if op.is_arithmetic() && !lt.is_numeric() {
            return Err(EngineError::type_err(format!("cannot apply {op} to {lt}")));
        }
        return Ok((l, r));
    }
    // Numeric widening.
    if let (Some(lr), Some(rr)) = (lt.numeric_rank(), rt.numeric_rank()) {
        let target = if lr >= rr { lt } else { rt };
        let l = if lt == target { l } else { l.cast(target) };
        let r = if rt == target { r } else { r.cast(target) };
        return Ok((l, r));
    }
    // Timestamps compare/compute with integers via Int64.
    let ts_pair = matches!(
        (lt, rt),
        (DataType::Timestamp, DataType::Int64)
            | (DataType::Int64, DataType::Timestamp)
            | (DataType::Timestamp, DataType::Int32)
            | (DataType::Int32, DataType::Timestamp)
    );
    if ts_pair {
        return Ok((l.cast(DataType::Int64), r.cast(DataType::Int64)));
    }
    Err(EngineError::type_err(format!(
        "cannot apply {op} to {lt} and {rt}"
    )))
}

/// The data type `expr` evaluates to over `schema`. Requires bound columns.
pub fn expr_type(expr: &Expr, schema: &Schema) -> Result<DataType> {
    Ok(match expr {
        Expr::Column(c) => {
            let idx = c.index.ok_or_else(|| {
                EngineError::internal(format!("unresolved column {}", c.display_name()))
            })?;
            schema.field(idx).data_type
        }
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Boolean),
        Expr::Param { data_type, .. } => *data_type,
        Expr::Binary { left, op, right } => {
            if op.is_comparison() || op.is_logic() {
                DataType::Boolean
            } else {
                // Arithmetic: operands are unified post-coercion.
                let lt = expr_type(left, schema)?;
                let rt = expr_type(right, schema)?;
                if lt.numeric_rank() >= rt.numeric_rank() {
                    lt
                } else {
                    rt
                }
            }
        }
        Expr::Not(_) | Expr::IsNull(_) | Expr::IsNotNull(_) => DataType::Boolean,
        Expr::Cast { to, .. } => *to,
        Expr::Alias(e, _) => expr_type(e, schema)?,
        Expr::Aggregate { func, arg } => match func {
            AggFunc::Count => DataType::Int64,
            AggFunc::Avg => DataType::Float64,
            AggFunc::Sum => match arg {
                Some(a) => match expr_type(a, schema)? {
                    DataType::Float64 => DataType::Float64,
                    _ => DataType::Int64,
                },
                None => DataType::Int64,
            },
            AggFunc::Min | AggFunc::Max => match arg {
                Some(a) => expr_type(a, schema)?,
                None => {
                    return Err(EngineError::type_err(format!(
                        "{func} requires an argument"
                    )))
                }
            },
        },
        Expr::Scalar { func, args } => match func {
            ScalarFunc::Upper | ScalarFunc::Lower => DataType::Utf8,
            ScalarFunc::Length => DataType::Int64,
            ScalarFunc::Abs => expr_type(&args[0], schema)?,
            ScalarFunc::Coalesce => expr_type(&args[0], schema)?,
        },
        Expr::InList { .. } | Expr::Like { .. } => DataType::Boolean,
    })
}

/// Whether `expr` may evaluate to null over `schema`.
pub fn expr_nullable(expr: &Expr, schema: &Schema) -> bool {
    match expr {
        Expr::Column(c) => c.index.is_none_or(|i| schema.field(i).nullable),
        Expr::Literal(v) => v.is_null(),
        // NULL literals are never parameterized.
        Expr::Param { .. } => false,
        Expr::Binary { left, right, .. } => {
            expr_nullable(left, schema) || expr_nullable(right, schema)
        }
        Expr::Not(e) => expr_nullable(e, schema),
        Expr::IsNull(_) | Expr::IsNotNull(_) => false,
        Expr::Cast { expr, .. } => expr_nullable(expr, schema),
        Expr::Alias(e, _) => expr_nullable(e, schema),
        Expr::Aggregate { func, .. } => !matches!(func, AggFunc::Count),
        Expr::Scalar { args, .. } => args.iter().any(|a| expr_nullable(a, schema)),
        Expr::InList { expr, list, .. } => {
            expr_nullable(expr, schema) || list.iter().any(|e| expr_nullable(e, schema))
        }
        Expr::Like { expr, .. } => expr_nullable(expr, schema),
    }
}

/// Build the output field for a projected expression.
pub fn expr_to_field(expr: &Expr, schema: &Schema) -> Result<Field> {
    let dt = expr_type(expr, schema)?;
    let nullable = expr_nullable(expr, schema);
    let qualifier = match expr {
        Expr::Column(c) => c
            .index
            .and_then(|i| schema.field(i).qualifier.clone())
            .or_else(|| c.qualifier.clone()),
        _ => None,
    };
    Ok(Field {
        name: expr.output_name(),
        data_type: dt,
        nullable,
        qualifier,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, count_star, lit, sum};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int32),
            Field::new("b", DataType::Int64),
            Field::required("s", DataType::Utf8),
            Field::new("t", DataType::Timestamp),
            Field::new("f", DataType::Float64),
        ])
    }

    #[test]
    fn in_list_accepts_null_entries_and_rejects_type_mismatches() {
        let s = schema();
        // NULL entries type-check against any tested type (3VL).
        let e = resolve_expr(
            &col("b").in_list(vec![lit(5i64), Expr::Literal(crate::types::Value::Null)]),
            &s,
        );
        assert!(e.is_ok(), "NULL IN-list entry must be accepted: {e:?}");
        // Genuine mismatches still error.
        assert!(resolve_expr(&col("b").in_list(vec![lit("x")]), &s).is_err());
    }

    #[test]
    fn binds_column_indices() {
        let s = schema();
        let e = resolve_expr(&col("b").eq(lit(5i64)), &s).unwrap();
        let mut idx = Vec::new();
        e.referenced_indices(&mut idx);
        assert_eq!(idx, vec![1]);
    }

    #[test]
    fn widens_int32_to_int64() {
        let s = schema();
        let e = resolve_expr(&col("a").eq(lit(5i64)), &s).unwrap();
        // the Int32 column must be cast up
        assert!(e.to_string().contains("CAST(a AS INT64)"), "{e}");
    }

    #[test]
    fn widens_to_float() {
        let s = schema();
        let e = resolve_expr(&col("b").add(col("f")), &s).unwrap();
        assert_eq!(expr_type(&e, &s).unwrap(), DataType::Float64);
    }

    #[test]
    fn timestamp_vs_int_comparison() {
        let s = schema();
        let e = resolve_expr(&col("t").gt(lit(100i64)), &s).unwrap();
        assert_eq!(expr_type(&e, &s).unwrap(), DataType::Boolean);
        assert!(e.to_string().contains("CAST(t AS INT64)"));
    }

    #[test]
    fn rejects_string_arithmetic() {
        let s = schema();
        assert!(resolve_expr(&col("s").add(lit(1i64)), &s).is_err());
        assert!(resolve_expr(&col("s").add(col("s")), &s).is_err());
    }

    #[test]
    fn rejects_non_boolean_logic() {
        let s = schema();
        assert!(resolve_expr(&col("a").and(col("b")), &s).is_err());
        assert!(resolve_expr(&col("a").eq(lit(1i64)).and(col("b").gt(lit(0i64))), &s).is_ok());
    }

    #[test]
    fn unknown_column_errors() {
        let s = schema();
        assert!(matches!(
            resolve_expr(&col("zzz"), &s),
            Err(EngineError::ColumnNotFound(_))
        ));
    }

    #[test]
    fn aggregate_types() {
        let s = schema();
        assert_eq!(expr_type(&count_star(), &s).unwrap(), DataType::Int64);
        let e = resolve_expr(&sum(col("a")), &s).unwrap();
        assert_eq!(expr_type(&e, &s).unwrap(), DataType::Int64);
        assert!(resolve_expr(&sum(col("s")), &s).is_err());
    }

    #[test]
    fn field_inherits_nullability() {
        let s = schema();
        let e = resolve_expr(&col("s"), &s).unwrap();
        let f = expr_to_field(&e, &s).unwrap();
        assert!(!f.nullable);
        assert_eq!(f.data_type, DataType::Utf8);
        let g = expr_to_field(&resolve_expr(&col("a"), &s).unwrap(), &s).unwrap();
        assert!(g.nullable);
    }
}
