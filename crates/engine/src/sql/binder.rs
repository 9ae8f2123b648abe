//! Binds a parsed SQL AST against the session catalog, producing a
//! [`DataFrame`] (and thereby an analyzed logical plan).

use crate::analyzer::resolve_expr;
use crate::dataframe::DataFrame;
use crate::error::{EngineError, Result};
use crate::expr::{col, AggFunc, BinaryOp, Expr, SortExpr};
use crate::session::Session;
use crate::sql::parser::{JoinClause, SelectItem, SelectStmt, SqlExpr, TableRef};
use crate::types::{DataType, Value};

/// Bind `stmt` into a DataFrame.
pub fn bind(session: &Session, stmt: &SelectStmt) -> Result<DataFrame> {
    // FROM + JOINs.
    let mut df = bind_table_ref(session, &stmt.from)?;
    for j in &stmt.joins {
        df = bind_join(session, df, j)?;
    }
    // WHERE.
    if let Some(sel) = &stmt.selection {
        let e = to_expr(sel)?;
        if e.has_aggregate() {
            return Err(EngineError::Sql(
                "aggregates are not allowed in WHERE; use HAVING".to_string(),
            ));
        }
        df = df.filter(e)?;
    }
    // Select list (expand wildcard).
    let mut select_exprs: Vec<Expr> = Vec::new();
    for item in &stmt.projection {
        match item {
            SelectItem::Wildcard => {
                for f in &df.schema().fields {
                    select_exprs.push(col(&f.qualified_name()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let e = to_expr(expr)?;
                select_exprs.push(match alias {
                    Some(a) => e.alias(a),
                    None => e,
                });
            }
        }
    }
    let group_exprs: Vec<Expr> = stmt.group_by.iter().map(to_expr).collect::<Result<_>>()?;
    let having = stmt.having.as_ref().map(to_expr).transpose()?;
    let is_aggregate = !group_exprs.is_empty()
        || select_exprs.iter().any(Expr::has_aggregate)
        || having.as_ref().is_some_and(Expr::has_aggregate);

    let projected = if is_aggregate {
        // Collect every distinct aggregate call used anywhere.
        let mut agg_calls: Vec<Expr> = Vec::new();
        for e in select_exprs.iter().chain(having.iter()) {
            collect_aggregates(e, &mut agg_calls);
        }
        for (e, _) in &stmt.order_by {
            let e = to_expr(e)?;
            collect_aggregates(&e, &mut agg_calls);
        }
        if agg_calls.is_empty() {
            return Err(EngineError::Sql(
                "GROUP BY without any aggregate in the select list".to_string(),
            ));
        }
        let agg_df = df.aggregate(group_exprs.clone(), agg_calls.clone())?;
        let agg_schema = agg_df.schema();
        // HAVING runs over the aggregate output.
        let agg_df = match &having {
            Some(h) => {
                let rebased = rebase(h, &group_exprs, &agg_calls, &agg_schema)?;
                agg_df.filter(rebased)?
            }
            None => agg_df,
        };
        // Final projection in select-list order.
        let rebased: Vec<Expr> = select_exprs
            .iter()
            .map(|e| rebase(e, &group_exprs, &agg_calls, &agg_schema))
            .collect::<Result<_>>()?;
        agg_df.select(rebased)?
    } else if stmt.projection.len() == 1 && stmt.projection[0] == SelectItem::Wildcard {
        df // SELECT * — no projection needed
    } else {
        df.select(select_exprs.clone())?
    };

    // DISTINCT: deduplicate the projected rows.
    let projected = if stmt.distinct {
        projected.distinct()?
    } else {
        projected
    };

    // ORDER BY over the projected output.
    let sorted = if stmt.order_by.is_empty() {
        projected
    } else {
        let out_schema = projected.schema();
        let mut keys = Vec::new();
        for (e, asc) in &stmt.order_by {
            let e = to_expr(e)?;
            // Prefer matching a select item (pre-alias), falling back to a
            // direct resolution against the output schema.
            let key = match position_of(&e, &select_exprs) {
                Some(i) => col(&out_schema.field(i).qualified_name()),
                None => {
                    if resolve_expr(&e, &out_schema).is_ok() {
                        e
                    } else {
                        return Err(EngineError::Sql(format!(
                            "ORDER BY expression {e} must appear in the select list"
                        )));
                    }
                }
            };
            keys.push(SortExpr {
                expr: key,
                ascending: *asc,
            });
        }
        projected.sort(keys)?
    };

    Ok(match stmt.limit {
        Some(n) => sorted.limit(n),
        None => sorted,
    })
}

fn bind_table_ref(session: &Session, t: &TableRef) -> Result<DataFrame> {
    match t {
        TableRef::Named { name, alias } => {
            let df = session.table(name)?;
            Ok(match alias {
                Some(a) => df.alias(a),
                None => df,
            })
        }
        TableRef::Subquery { query, alias } => Ok(bind(session, query)?.alias(alias)),
    }
}

fn bind_join(session: &Session, left: DataFrame, j: &JoinClause) -> Result<DataFrame> {
    let right = bind_table_ref(session, &j.table)?;
    let on = to_expr(&j.on)?;
    let ls = left.schema();
    let rs = right.schema();
    let mut pairs = Vec::new();
    for c in on.split_conjunction() {
        let Expr::Binary {
            left: a,
            op: BinaryOp::Eq,
            right: b,
        } = c
        else {
            return Err(EngineError::Unsupported(format!(
                "JOIN ON supports conjunctions of equalities, got {c}"
            )));
        };
        let a_in_left = resolve_expr(a, &ls).is_ok();
        let b_in_right = resolve_expr(b, &rs).is_ok();
        if a_in_left && b_in_right {
            pairs.push((a.as_ref().clone(), b.as_ref().clone()));
            continue;
        }
        let b_in_left = resolve_expr(b, &ls).is_ok();
        let a_in_right = resolve_expr(a, &rs).is_ok();
        if b_in_left && a_in_right {
            pairs.push((b.as_ref().clone(), a.as_ref().clone()));
            continue;
        }
        return Err(EngineError::Sql(format!(
            "cannot orient join condition {c}: each side must come from one input"
        )));
    }
    left.join_on(&right, pairs, j.join_type)
}

/// Convert the SQL AST expression into an (unresolved) engine expression.
pub fn to_expr(e: &SqlExpr) -> Result<Expr> {
    Ok(match e {
        SqlExpr::Column { qualifier, name } => Expr::Column(crate::expr::ColumnRefExpr {
            qualifier: qualifier.clone(),
            name: name.clone(),
            index: None,
        }),
        SqlExpr::Int(v) => Expr::Literal(Value::Int64(*v)),
        SqlExpr::Float(v) => Expr::Literal(Value::Float64(*v)),
        SqlExpr::Str(s) => Expr::Literal(Value::Utf8(s.clone())),
        SqlExpr::Bool(b) => Expr::Literal(Value::Boolean(*b)),
        SqlExpr::Null => Expr::Literal(Value::Null),
        SqlExpr::Param { slot, data_type } => Expr::Param {
            slot: *slot,
            data_type: *data_type,
        },
        SqlExpr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(to_expr(left)?),
            op: *op,
            right: Box::new(to_expr(right)?),
        },
        SqlExpr::Not(inner) => Expr::Not(Box::new(to_expr(inner)?)),
        SqlExpr::IsNull { expr, negated } => {
            let inner = Box::new(to_expr(expr)?);
            if *negated {
                Expr::IsNotNull(inner)
            } else {
                Expr::IsNull(inner)
            }
        }
        SqlExpr::Cast { expr, ty } => Expr::Cast {
            expr: Box::new(to_expr(expr)?),
            to: type_from_name(ty)?,
        },
        SqlExpr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(to_expr(expr)?),
            list: list.iter().map(to_expr).collect::<Result<_>>()?,
            negated: *negated,
        },
        SqlExpr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(to_expr(expr)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        SqlExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let e = to_expr(expr)?;
            let b = e.between(to_expr(low)?, to_expr(high)?);
            if *negated {
                b.not()
            } else {
                b
            }
        }
        SqlExpr::Func { name, args, star } => {
            // Scalar functions first.
            let scalar = match name.as_str() {
                "upper" => Some(crate::expr::ScalarFunc::Upper),
                "lower" => Some(crate::expr::ScalarFunc::Lower),
                "length" => Some(crate::expr::ScalarFunc::Length),
                "abs" => Some(crate::expr::ScalarFunc::Abs),
                "coalesce" => Some(crate::expr::ScalarFunc::Coalesce),
                _ => None,
            };
            if let Some(func) = scalar {
                if *star {
                    return Err(EngineError::Sql(format!("{name}(*) is not valid")));
                }
                return Ok(Expr::Scalar {
                    func,
                    args: args.iter().map(to_expr).collect::<Result<_>>()?,
                });
            }
            let func = match name.as_str() {
                "count" => AggFunc::Count,
                "sum" => AggFunc::Sum,
                "min" => AggFunc::Min,
                "max" => AggFunc::Max,
                "avg" => AggFunc::Avg,
                other => return Err(EngineError::Unsupported(format!("function {other}()"))),
            };
            if *star {
                if func != AggFunc::Count {
                    return Err(EngineError::Sql(format!("{name}(*) is not valid")));
                }
                Expr::Aggregate { func, arg: None }
            } else {
                let [arg] = args.as_slice() else {
                    return Err(EngineError::Sql(format!(
                        "{name}() takes exactly one argument"
                    )));
                };
                Expr::Aggregate {
                    func,
                    arg: Some(Box::new(to_expr(arg)?)),
                }
            }
        }
    })
}

/// Resolve a SQL type name (as written in `CAST` or `CREATE TABLE`) to a
/// [`DataType`].
pub fn type_from_name(ty: &str) -> Result<DataType> {
    Ok(match ty.to_ascii_uppercase().as_str() {
        "INT" | "INTEGER" => DataType::Int32,
        "BIGINT" | "LONG" => DataType::Int64,
        "DOUBLE" | "FLOAT" | "REAL" => DataType::Float64,
        "VARCHAR" | "STRING" | "TEXT" => DataType::Utf8,
        "TIMESTAMP" | "DATETIME" => DataType::Timestamp,
        "BOOLEAN" | "BOOL" => DataType::Boolean,
        other => return Err(EngineError::Sql(format!("unknown type {other}"))),
    })
}

/// Collect distinct aggregate subtrees.
fn collect_aggregates(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Aggregate { .. } => {
            if !out.contains(e) {
                out.push(e.clone());
            }
        }
        Expr::Binary { left, right, .. } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        Expr::Not(i) | Expr::IsNull(i) | Expr::IsNotNull(i) => collect_aggregates(i, out),
        Expr::Cast { expr, .. } => collect_aggregates(expr, out),
        Expr::Alias(i, _) => collect_aggregates(i, out),
        Expr::Scalar { args, .. } => {
            for a in args {
                collect_aggregates(a, out);
            }
        }
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            for e in list {
                collect_aggregates(e, out);
            }
        }
        Expr::Like { expr, .. } => collect_aggregates(expr, out),
        Expr::Column(_) | Expr::Literal(_) | Expr::Param { .. } => {}
    }
}

/// Find the select item equal to `e` (ignoring aliases).
fn position_of(e: &Expr, items: &[Expr]) -> Option<usize> {
    items.iter().position(|i| unalias(i) == e || i == e)
}

fn unalias(e: &Expr) -> &Expr {
    match e {
        Expr::Alias(i, _) => unalias(i),
        other => other,
    }
}

/// Rewrite `e` (an unresolved select/having expression) in terms of the
/// aggregate output schema: group expressions and aggregate calls become
/// column references; anything else must be composed of those.
fn rebase(
    e: &Expr,
    group_exprs: &[Expr],
    agg_calls: &[Expr],
    agg_schema: &crate::schema::SchemaRef,
) -> Result<Expr> {
    let inner = match e {
        Expr::Alias(i, name) => {
            return Ok(Expr::Alias(
                Box::new(rebase(i, group_exprs, agg_calls, agg_schema)?),
                name.clone(),
            ))
        }
        other => other,
    };
    if let Some(i) = group_exprs.iter().position(|g| unalias(g) == inner) {
        return Ok(col(&agg_schema.field(i).qualified_name()));
    }
    if let Some(j) = agg_calls.iter().position(|a| a == inner) {
        return Ok(col(&agg_schema
            .field(group_exprs.len() + j)
            .qualified_name()));
    }
    Ok(match inner {
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(rebase(left, group_exprs, agg_calls, agg_schema)?),
            op: *op,
            right: Box::new(rebase(right, group_exprs, agg_calls, agg_schema)?),
        },
        Expr::Not(i) => Expr::Not(Box::new(rebase(i, group_exprs, agg_calls, agg_schema)?)),
        Expr::IsNull(i) => Expr::IsNull(Box::new(rebase(i, group_exprs, agg_calls, agg_schema)?)),
        Expr::IsNotNull(i) => {
            Expr::IsNotNull(Box::new(rebase(i, group_exprs, agg_calls, agg_schema)?))
        }
        Expr::Cast { expr, to } => Expr::Cast {
            expr: Box::new(rebase(expr, group_exprs, agg_calls, agg_schema)?),
            to: *to,
        },
        Expr::Scalar { func, args } => Expr::Scalar {
            func: *func,
            args: args
                .iter()
                .map(|a| rebase(a, group_exprs, agg_calls, agg_schema))
                .collect::<Result<_>>()?,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(rebase(expr, group_exprs, agg_calls, agg_schema)?),
            list: list
                .iter()
                .map(|e| rebase(e, group_exprs, agg_calls, agg_schema))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(rebase(expr, group_exprs, agg_calls, agg_schema)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::Column(c) => {
            return Err(EngineError::Sql(format!(
                "column {} must appear in GROUP BY or inside an aggregate",
                c.display_name()
            )))
        }
        other => {
            return Err(EngineError::internal(format!(
                "unexpected expression in aggregate rebase: {other}"
            )))
        }
    })
}
