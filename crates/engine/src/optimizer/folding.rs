//! Constant folding and predicate simplification.

use crate::chunk::Chunk;
use crate::error::Result;
use crate::expr::{BinaryOp, Expr};
use crate::logical::LogicalPlan;
use crate::optimizer::{map_children, OptimizerRule};
use crate::physical::create_physical_expr;
use crate::schema::Schema;
use crate::types::{DataType, Value};

/// Evaluates literal-only subtrees at plan time.
pub struct ConstantFolding;

impl OptimizerRule for ConstantFolding {
    fn name(&self) -> &str {
        "constant_folding"
    }

    fn optimize(&self, plan: &LogicalPlan) -> Result<LogicalPlan> {
        rewrite_exprs(plan, &|e, schema| fold_typed(e, Some(schema)))
    }
}

/// Drops always-true filters; collapses always-false filters into empty
/// `Values` relations.
pub struct SimplifyPredicates;

impl OptimizerRule for SimplifyPredicates {
    fn name(&self) -> &str {
        "simplify_predicates"
    }

    fn optimize(&self, plan: &LogicalPlan) -> Result<LogicalPlan> {
        let plan = map_children(plan, &mut |c| self.optimize(c))?;
        if let LogicalPlan::Filter { input, predicate } = &plan {
            match predicate {
                Expr::Literal(Value::Boolean(true)) => return Ok(input.as_ref().clone()),
                Expr::Literal(Value::Boolean(false)) | Expr::Literal(Value::Null) => {
                    return Ok(LogicalPlan::Values {
                        schema: input.schema(),
                        rows: vec![],
                    })
                }
                _ => {}
            }
        }
        Ok(plan)
    }
}

/// Apply `f` to every expression in the plan, bottom-up through children,
/// with the schema the expression is evaluated against.
fn rewrite_exprs(plan: &LogicalPlan, f: &impl Fn(&Expr, &Schema) -> Expr) -> Result<LogicalPlan> {
    let plan = map_children(plan, &mut |c| rewrite_exprs(c, f))?;
    Ok(match plan {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            predicate: f(&predicate, &input.schema()),
            input,
        },
        LogicalPlan::Projection {
            input,
            exprs,
            schema,
        } => {
            let input_schema = input.schema();
            LogicalPlan::Projection {
                exprs: exprs.iter().map(|e| f(e, &input_schema)).collect(),
                input,
                schema,
            }
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
            schema,
        } => {
            let (ls, rs) = (left.schema(), right.schema());
            LogicalPlan::Join {
                on: on.iter().map(|(l, r)| (f(l, &ls), f(r, &rs))).collect(),
                left,
                right,
                join_type,
                schema,
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            agg_exprs,
            schema,
        } => {
            let input_schema = input.schema();
            LogicalPlan::Aggregate {
                group_exprs: group_exprs.iter().map(|e| f(e, &input_schema)).collect(),
                agg_exprs: agg_exprs.iter().map(|e| f(e, &input_schema)).collect(),
                input,
                schema,
            }
        }
        other => other,
    })
}

/// Fold literal subtrees of one expression.
pub(crate) fn fold_expr(expr: &Expr) -> Expr {
    fold_typed(expr, None)
}

/// The type `e` is known to have without evaluating it: a literal's, a
/// parameter's, a cast's target, or — given the schema it is evaluated
/// against — a bound column's.
fn known_type(e: &Expr, schema: Option<&Schema>) -> Option<DataType> {
    match e {
        Expr::Literal(v) => v.data_type(),
        Expr::Param { data_type, .. } => Some(*data_type),
        Expr::Cast { to, .. } => Some(*to),
        Expr::Column(c) => Some(schema?.fields.get(c.index?)?.data_type),
        _ => None,
    }
}

/// [`fold_expr`], also dropping casts of columns to their own type when
/// `schema` is the one `expr` is evaluated against.
fn fold_typed(expr: &Expr, schema: Option<&Schema>) -> Expr {
    let fold_expr = |e: &Expr| fold_typed(e, schema);
    match expr {
        Expr::Binary { left, op, right } => {
            let l = fold_expr(left);
            let r = fold_expr(right);
            if let (Expr::Literal(lv), Expr::Literal(rv)) = (&l, &r) {
                // A comparison or arithmetic with a NULL operand is NULL.
                if !op.is_logic() && (lv.is_null() || rv.is_null()) {
                    return Expr::Literal(Value::Null);
                }
                let node = Expr::Binary {
                    left: Box::new(l),
                    op: *op,
                    right: Box::new(r),
                };
                return evaluate_literal_node(&node).map_or(node, Expr::Literal);
            }
            // Boolean identities.
            match op {
                BinaryOp::And => {
                    if matches!(l, Expr::Literal(Value::Boolean(true))) {
                        return r;
                    }
                    if matches!(r, Expr::Literal(Value::Boolean(true))) {
                        return l;
                    }
                    if matches!(l, Expr::Literal(Value::Boolean(false)))
                        || matches!(r, Expr::Literal(Value::Boolean(false)))
                    {
                        return Expr::Literal(Value::Boolean(false));
                    }
                }
                BinaryOp::Or => {
                    if matches!(l, Expr::Literal(Value::Boolean(false))) {
                        return r;
                    }
                    if matches!(r, Expr::Literal(Value::Boolean(false))) {
                        return l;
                    }
                    if matches!(l, Expr::Literal(Value::Boolean(true)))
                        || matches!(r, Expr::Literal(Value::Boolean(true)))
                    {
                        return Expr::Literal(Value::Boolean(true));
                    }
                }
                _ => {}
            }
            Expr::Binary {
                left: Box::new(l),
                op: *op,
                right: Box::new(r),
            }
        }
        Expr::Not(e) => {
            let e = fold_expr(e);
            if let Expr::Literal(Value::Boolean(b)) = e {
                return Expr::Literal(Value::Boolean(!b));
            }
            Expr::Not(Box::new(e))
        }
        Expr::Cast { expr: inner, to } => {
            let e = fold_expr(inner);
            // A cast to the type the operand already has is the operand:
            // this is what lets `CAST(?0 AS BIGINT)` of a BIGINT parameter
            // reach pushdown as the bare parameter.
            if known_type(&e, schema) == Some(*to) {
                return e;
            }
            if let Expr::Literal(v) = &e {
                if let Some(c) = v.cast(*to) {
                    return Expr::Literal(c);
                }
            }
            Expr::Cast {
                expr: Box::new(e),
                to: *to,
            }
        }
        Expr::IsNull(e) => {
            let e = fold_expr(e);
            if let Expr::Literal(v) = &e {
                return Expr::Literal(Value::Boolean(v.is_null()));
            }
            Expr::IsNull(Box::new(e))
        }
        Expr::IsNotNull(e) => {
            let e = fold_expr(e);
            if let Expr::Literal(v) = &e {
                return Expr::Literal(Value::Boolean(!v.is_null()));
            }
            Expr::IsNotNull(Box::new(e))
        }
        Expr::Alias(e, n) => Expr::Alias(Box::new(fold_expr(e)), n.clone()),
        Expr::Aggregate { func, arg } => Expr::Aggregate {
            func: *func,
            arg: arg.as_ref().map(|a| Box::new(fold_expr(a))),
        },
        Expr::Scalar { func, args } => Expr::Scalar {
            func: *func,
            args: args.iter().map(fold_expr).collect(),
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let tested = fold_expr(expr);
            let mut entries: Vec<Expr> = Vec::with_capacity(list.len());
            for e in list {
                let e = fold_expr(e);
                // Exact duplicate literals contribute nothing (NULLs
                // included: one NULL entry already forces the miss → NULL
                // outcome, extra copies are noise).
                if matches!(e, Expr::Literal(_)) && entries.contains(&e) {
                    continue;
                }
                entries.push(e);
            }
            // NULL IN (…) is NULL, whatever the entries.
            if matches!(tested, Expr::Literal(Value::Null)) {
                return Expr::Literal(Value::Null);
            }
            if matches!(tested, Expr::Literal(_))
                && entries.iter().all(|e| matches!(e, Expr::Literal(_)))
            {
                let node = Expr::InList {
                    expr: Box::new(tested),
                    list: entries,
                    negated: *negated,
                };
                return evaluate_literal_node(&node).map_or(node, Expr::Literal);
            }
            // `x IN (a)` ⇔ `x = a`, `x NOT IN (a)` ⇔ `x <> a` — exact
            // under three-valued logic, and it exposes the single-key
            // equality shape to index pushdown.
            if entries.len() == 1 {
                let op = if *negated {
                    BinaryOp::NotEq
                } else {
                    BinaryOp::Eq
                };
                return fold_expr(&Expr::Binary {
                    left: Box::new(tested),
                    op,
                    right: Box::new(entries.remove(0)),
                });
            }
            Expr::InList {
                expr: Box::new(tested),
                list: entries,
                negated: *negated,
            }
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(fold_expr(expr)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        other => other.clone(),
    }
}

/// The value of `node`, whose operands are all literals, as execution
/// computes it: compiled by the physical planner and evaluated over one
/// row, so a folded comparison, IN-list or arithmetic answers exactly as
/// the kernels do per row. `None` when a kernel rejects the operands: the
/// node then stays as written.
fn evaluate_literal_node(node: &Expr) -> Option<Value> {
    let compiled = create_physical_expr(node, &Schema::new(Vec::new())).ok()?;
    let out = compiled.evaluate(&Chunk::new_empty_columns(1)).ok()?;
    Some(out.value_at(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    #[test]
    fn folds_arithmetic() {
        let e = fold_expr(&lit(2i64).add(lit(3i64)).mul(lit(4i64)));
        assert_eq!(e, lit(20i64));
    }

    #[test]
    fn folds_comparisons_and_logic() {
        let e = fold_expr(&lit(2i64).lt(lit(3i64)).and(lit(true)));
        assert_eq!(e, lit(true));
        let e2 = fold_expr(&col("x").gt(lit(1i64)).and(lit(true)));
        assert_eq!(e2, col("x").gt(lit(1i64)));
        let e3 = fold_expr(&col("x").gt(lit(1i64)).or(lit(true)));
        assert_eq!(e3, lit(true));
    }

    #[test]
    fn folds_casts_and_null_checks() {
        let e = fold_expr(&lit(5i32).cast(crate::types::DataType::Int64));
        assert_eq!(e, lit(5i64));
        assert_eq!(fold_expr(&lit(5i64).is_null()), lit(false));
        assert_eq!(fold_expr(&Expr::Literal(Value::Null).is_null()), lit(true));
    }

    #[test]
    fn folds_a_cast_to_the_operands_own_type() {
        let param = |dt| Expr::Param {
            slot: 0,
            data_type: dt,
        };
        // A cached range filter: `CAST(ts AS BIGINT) > CAST(?0 AS BIGINT)`
        // with a BIGINT parameter keeps only the cast that converts.
        let ts = || col("ts").cast(DataType::Int64);
        let cached = ts().gt(param(DataType::Int64).cast(DataType::Int64));
        assert_eq!(fold_expr(&cached), ts().gt(param(DataType::Int64)));
        // A cast that converts stays, and nested same-type casts collapse.
        let widened = param(DataType::Int32).cast(DataType::Int64);
        assert_eq!(fold_expr(&widened), widened);
        assert_eq!(fold_expr(&ts().cast(DataType::Int64)), ts());
        // A column needs its schema to be known: the rule supplies it.
        let schema = Schema::new(vec![
            crate::schema::Field::new("a", DataType::Int64),
            crate::schema::Field::new("ts", DataType::Timestamp),
        ]);
        let bound = |name: &str, index| {
            let mut c = col(name);
            if let Expr::Column(cr) = &mut c {
                cr.index = Some(index);
            }
            c
        };
        let same = bound("a", 0).cast(DataType::Int64);
        assert_eq!(fold_expr(&same), same, "no schema, no column type");
        assert_eq!(fold_typed(&same, Some(&schema)), bound("a", 0));
        let converting = bound("ts", 1).cast(DataType::Int64);
        assert_eq!(fold_typed(&converting, Some(&schema)), converting);
    }

    #[test]
    fn does_not_fold_columns() {
        let e = col("x").add(lit(1i64));
        assert_eq!(fold_expr(&e), e);
    }

    #[test]
    fn div_by_zero_folds_to_null() {
        assert_eq!(
            fold_expr(&lit(1i64).div(lit(0i64))),
            Expr::Literal(Value::Null)
        );
    }

    #[test]
    fn in_list_dedupes_literal_entries() {
        let e = fold_expr(&col("x").in_list(vec![lit(1i64), lit(2i64), lit(1i64)]));
        assert_eq!(e, col("x").in_list(vec![lit(1i64), lit(2i64)]));
        // Dedup can leave a single entry, which then rewrites to equality.
        let e = fold_expr(&col("x").in_list(vec![lit(5i64), lit(5i64)]));
        assert_eq!(e, col("x").eq(lit(5i64)));
    }

    #[test]
    fn single_entry_in_list_becomes_equality() {
        assert_eq!(
            fold_expr(&col("x").in_list(vec![lit(3i64)])),
            col("x").eq(lit(3i64))
        );
        assert_eq!(
            fold_expr(&col("x").not_in_list(vec![lit(3i64)])),
            col("x").not_eq(lit(3i64))
        );
        // Folds inside entries happen first: x IN (1 + 2) → x = 3.
        assert_eq!(
            fold_expr(&col("x").in_list(vec![lit(1i64).add(lit(2i64))])),
            col("x").eq(lit(3i64))
        );
    }

    #[test]
    fn all_literal_in_list_folds_with_three_valued_logic() {
        let null = || Expr::Literal(Value::Null);
        // Plain hit and miss.
        assert_eq!(
            fold_expr(&lit(2i64).in_list(vec![lit(1i64), lit(2i64)])),
            lit(true)
        );
        assert_eq!(
            fold_expr(&lit(9i64).in_list(vec![lit(1i64), lit(2i64)])),
            lit(false)
        );
        assert_eq!(
            fold_expr(&lit(9i64).not_in_list(vec![lit(1i64), lit(2i64)])),
            lit(true)
        );
        // Miss with a NULL entry is NULL, not false; a hit still wins.
        assert_eq!(
            fold_expr(&lit(9i64).in_list(vec![lit(1i64), null()])),
            Expr::Literal(Value::Null)
        );
        assert_eq!(
            fold_expr(&lit(1i64).in_list(vec![lit(1i64), null()])),
            lit(true)
        );
        // NULL tested is NULL even over an empty list.
        assert_eq!(
            fold_expr(&null().in_list(vec![])),
            Expr::Literal(Value::Null)
        );
        // Non-literal entries block complete folding but keep the list.
        let kept = fold_expr(&lit(1i64).in_list(vec![lit(2i64), col("x")]));
        assert_eq!(kept, lit(1i64).in_list(vec![lit(2i64), col("x")]));
    }
}
