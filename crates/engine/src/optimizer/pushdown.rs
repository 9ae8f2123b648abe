//! Predicate pushdown.
//!
//! Filters move toward the data: through projections (when they only touch
//! pass-through columns), through sorts, into both sides of joins, into
//! union branches, through aggregates (on group keys), and finally *into*
//! table sources that support native filter evaluation — which is how an
//! equality predicate over an Indexed DataFrame column becomes a cTrie
//! lookup instead of a scan.
//!
//! An inner equi-join also carries a key equality across: with
//! `ON a.k = b.k`, a filter `a.k = c` means every joined `b` row has
//! `b.k = c`, so that conjunct is pushed into `b`'s side as well.

use std::sync::Arc;

use crate::error::Result;
use crate::expr::{BinaryOp, Expr};
use crate::logical::{JoinType, LogicalPlan};
use crate::optimizer::{map_children, OptimizerRule};
use crate::schema::Schema;
use crate::types::DataType;

/// The pushdown rule.
pub struct PredicatePushdown;

impl OptimizerRule for PredicatePushdown {
    fn name(&self) -> &str {
        "predicate_pushdown"
    }

    fn optimize(&self, plan: &LogicalPlan) -> Result<LogicalPlan> {
        let plan = map_children(plan, &mut |c| self.optimize(c))?;
        if let LogicalPlan::Filter { input, predicate } = &plan {
            let conjuncts: Vec<Expr> = predicate.split_conjunction().into_iter().cloned().collect();
            return Ok(push_into(input.as_ref().clone(), conjuncts));
        }
        Ok(plan)
    }
}

/// Wrap `plan` in a filter for `conjuncts` (no-op when empty).
fn attach(plan: LogicalPlan, conjuncts: Vec<Expr>) -> LogicalPlan {
    match Expr::conjunction(conjuncts) {
        Some(p) => LogicalPlan::Filter {
            input: Arc::new(plan),
            predicate: p,
        },
        None => plan,
    }
}

/// Push `conjuncts` as deep into `plan` as legality allows.
fn push_into(plan: LogicalPlan, conjuncts: Vec<Expr>) -> LogicalPlan {
    let (plan, rest) = try_push(plan, conjuncts);
    attach(plan, rest)
}

/// Attempt to absorb `conjuncts` into `plan`; returns the rewritten plan and
/// the conjuncts that must stay above it.
fn try_push(plan: LogicalPlan, conjuncts: Vec<Expr>) -> (LogicalPlan, Vec<Expr>) {
    match plan {
        LogicalPlan::Scan {
            table,
            source,
            schema,
            projection,
            mut filters,
        } => {
            let mut rest = Vec::new();
            for c in conjuncts {
                // Scan filters are expressed against the full source
                // schema; remap through the scan projection if present.
                let remapped = match &projection {
                    Some(p) => c.map_column_indices(&|i| p[i]),
                    None => c.clone(),
                };
                if source.supports_filter_pushdown(&remapped) {
                    filters.push(remapped);
                } else {
                    rest.push(c);
                }
            }
            (
                LogicalPlan::Scan {
                    table,
                    source,
                    schema,
                    projection,
                    filters,
                },
                rest,
            )
        }
        LogicalPlan::Filter { input, predicate } => {
            // Merge with the lower filter and keep pushing.
            let mut all: Vec<Expr> = predicate.split_conjunction().into_iter().cloned().collect();
            all.extend(conjuncts);
            let (new_input, rest) = try_push(input.as_ref().clone(), all);
            (new_input, rest)
        }
        LogicalPlan::Projection {
            input,
            exprs,
            schema,
        } => {
            // Output column -> input column, when the projection is a pure
            // pass-through for that column.
            let mapping: Vec<Option<usize>> = exprs
                .iter()
                .map(|e| match unalias(e) {
                    Expr::Column(c) => c.index,
                    _ => None,
                })
                .collect();
            let mut below = Vec::new();
            let mut rest = Vec::new();
            for c in conjuncts {
                let mut refs = Vec::new();
                c.referenced_indices(&mut refs);
                if refs
                    .iter()
                    .all(|&i| mapping.get(i).copied().flatten().is_some())
                {
                    below.push(c.map_column_indices(&|i| mapping[i].expect("checked above")));
                } else {
                    rest.push(c);
                }
            }
            let new_input = push_into(input.as_ref().clone(), below);
            (
                LogicalPlan::Projection {
                    input: Arc::new(new_input),
                    exprs,
                    schema,
                },
                rest,
            )
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
            schema,
        } => {
            let left_width = left.schema().len();
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut rest = Vec::new();
            for c in conjuncts {
                let mut refs = Vec::new();
                c.referenced_indices(&mut refs);
                let all_left = refs.iter().all(|&i| i < left_width);
                let all_right = refs.iter().all(|&i| i >= left_width);
                if all_left {
                    to_left.push(c);
                } else if all_right && matches!(join_type, JoinType::Inner) {
                    to_right.push(c.map_column_indices(&|i| i - left_width));
                } else {
                    rest.push(c);
                }
            }
            if matches!(join_type, JoinType::Inner) {
                let (left_schema, right_schema) = (left.schema(), right.schema());
                let flipped: Vec<(Expr, Expr)> =
                    on.iter().map(|(l, r)| (r.clone(), l.clone())).collect();
                let to_right_extra = across_keys(&to_left, &on, &left_schema, &right_schema);
                let to_left_extra = across_keys(&to_right, &flipped, &right_schema, &left_schema);
                add_new(&mut to_right, to_right_extra);
                add_new(&mut to_left, to_left_extra);
            }
            let new_left = push_into(left.as_ref().clone(), to_left);
            let new_right = push_into(right.as_ref().clone(), to_right);
            (
                LogicalPlan::Join {
                    left: Arc::new(new_left),
                    right: Arc::new(new_right),
                    on,
                    join_type,
                    schema,
                },
                rest,
            )
        }
        LogicalPlan::Sort { input, exprs } => {
            let new_input = push_into(input.as_ref().clone(), conjuncts);
            (
                LogicalPlan::Sort {
                    input: Arc::new(new_input),
                    exprs,
                },
                Vec::new(),
            )
        }
        LogicalPlan::Union { inputs, schema } => {
            let new_inputs = inputs
                .iter()
                .map(|i| Arc::new(push_into(i.as_ref().clone(), conjuncts.clone())))
                .collect();
            (
                LogicalPlan::Union {
                    inputs: new_inputs,
                    schema,
                },
                Vec::new(),
            )
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            agg_exprs,
            schema,
        } => {
            // A conjunct referencing only pass-through group keys can run
            // before the aggregation.
            let n_groups = group_exprs.len();
            let mapping: Vec<Option<usize>> = group_exprs
                .iter()
                .map(|e| match unalias(e) {
                    Expr::Column(c) => c.index,
                    _ => None,
                })
                .collect();
            let mut below = Vec::new();
            let mut rest = Vec::new();
            for c in conjuncts {
                let mut refs = Vec::new();
                c.referenced_indices(&mut refs);
                let pushable = refs.iter().all(|&i| i < n_groups && mapping[i].is_some());
                if pushable {
                    below.push(c.map_column_indices(&|i| mapping[i].expect("checked above")));
                } else {
                    rest.push(c);
                }
            }
            let new_input = push_into(input.as_ref().clone(), below);
            (
                LogicalPlan::Aggregate {
                    input: Arc::new(new_input),
                    group_exprs,
                    agg_exprs,
                    schema,
                },
                rest,
            )
        }
        // Limit and Values are barriers.
        other => (other, conjuncts),
    }
}

/// What `conjuncts` on one side of an inner equi-join say about the other
/// side: `a = c` on a key column `a` whose partner key `b` (a bare column
/// of the same type) must then equal `a`, gives `b = c`. Only a non-null
/// literal or a parameter `c` of that type carries over. Floats do not:
/// their join and their `=` disagree on what equals `-0.0` and NaN.
fn across_keys(conjuncts: &[Expr], on: &[(Expr, Expr)], from: &Schema, to: &Schema) -> Vec<Expr> {
    let mut out = Vec::new();
    for c in conjuncts {
        let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = c
        else {
            continue;
        };
        let (key, constant) = match (left.as_ref(), right.as_ref()) {
            (Expr::Column(k), v) | (v, Expr::Column(k)) if is_constant(v) => (k, v),
            _ => continue,
        };
        for (a, b) in on {
            let (Expr::Column(a), Expr::Column(b)) = (a, b) else {
                continue;
            };
            let (Some(ai), Some(bi)) = (a.index, b.index) else {
                continue;
            };
            let dt = from.field(ai).data_type;
            if a.index != key.index
                || to.field(bi).data_type != dt
                || dt == DataType::Float64
                || constant_type(constant) != Some(dt)
            {
                continue;
            }
            out.push(Expr::Column(b.clone()).eq(constant.clone()));
        }
    }
    out
}

fn is_constant(e: &Expr) -> bool {
    matches!(e, Expr::Param { .. }) || matches!(e, Expr::Literal(v) if !v.is_null())
}

fn constant_type(e: &Expr) -> Option<DataType> {
    match e {
        Expr::Literal(v) => v.data_type(),
        Expr::Param { data_type, .. } => Some(*data_type),
        _ => None,
    }
}

/// Append the equalities of `extra` that `conjuncts` does not hold yet,
/// in either operand order.
fn add_new(conjuncts: &mut Vec<Expr>, extra: Vec<Expr>) {
    for c in extra {
        let Expr::Binary { left, op, right } = &c else {
            continue;
        };
        let mirrored = Expr::Binary {
            left: right.clone(),
            op: *op,
            right: left.clone(),
        };
        if !conjuncts.contains(&c) && !conjuncts.contains(&mirrored) {
            conjuncts.push(c);
        }
    }
}

fn unalias(e: &Expr) -> &Expr {
    match e {
        Expr::Alias(inner, _) => unalias(inner),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::resolve_expr;
    use crate::catalog::MemTable;
    use crate::chunk::Chunk;
    use crate::expr::{col, lit};
    use crate::schema::{Field, Schema};
    use crate::types::{DataType, Value};

    fn scan() -> LogicalPlan {
        let schema = Arc::new(Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ]));
        let source = Arc::new(MemTable::from_chunk(
            Arc::clone(&schema),
            Chunk::empty(&schema),
        ));
        LogicalPlan::Scan {
            table: "t".into(),
            source,
            schema,
            projection: None,
            filters: vec![],
        }
    }

    fn bound(e: &Expr, plan: &LogicalPlan) -> Expr {
        resolve_expr(e, &plan.schema()).unwrap()
    }

    #[test]
    fn pushes_through_sort() {
        let s = scan();
        let pred = bound(&col("a").eq(lit(1i64)), &s);
        let plan = LogicalPlan::Filter {
            input: Arc::new(LogicalPlan::Sort {
                input: Arc::new(s),
                exprs: vec![],
            }),
            predicate: pred,
        };
        let out = PredicatePushdown.optimize(&plan).unwrap();
        // Filter must now be below the sort.
        let LogicalPlan::Sort { input, .. } = &out else {
            panic!("expected Sort on top, got {out:?}")
        };
        assert!(matches!(input.as_ref(), LogicalPlan::Filter { .. }));
    }

    #[test]
    fn does_not_push_through_limit() {
        let s = scan();
        let pred = bound(&col("a").eq(lit(1i64)), &s);
        let plan = LogicalPlan::Filter {
            input: Arc::new(LogicalPlan::Limit {
                input: Arc::new(s),
                n: 5,
            }),
            predicate: pred,
        };
        let out = PredicatePushdown.optimize(&plan).unwrap();
        assert!(matches!(out, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn splits_conjuncts_across_inner_join() {
        let l = scan();
        let r = scan();
        let join_schema = Arc::new(l.schema().join(&r.schema()));
        let join = LogicalPlan::Join {
            left: Arc::new(l),
            right: Arc::new(r),
            on: vec![],
            join_type: JoinType::Inner,
            schema: Arc::clone(&join_schema),
        };
        // a (index 0) on left; index 2 is right's a.
        let p_left = resolve_expr(&col("a").eq(lit(1i64)), &join_schema);
        // ambiguous name; build bound refs manually instead
        drop(p_left);
        let mut left_ref = col("a");
        if let Expr::Column(c) = &mut left_ref {
            c.index = Some(0);
        }
        let mut right_ref = col("a");
        if let Expr::Column(c) = &mut right_ref {
            c.index = Some(2);
        }
        let pred = left_ref.eq(lit(1i64)).and(right_ref.eq(lit(2i64)));
        let plan = LogicalPlan::Filter {
            input: Arc::new(join),
            predicate: pred,
        };
        let out = PredicatePushdown.optimize(&plan).unwrap();
        let LogicalPlan::Join { left, right, .. } = &out else {
            panic!("expected bare Join, got {out:?}")
        };
        assert!(matches!(left.as_ref(), LogicalPlan::Filter { .. }));
        let LogicalPlan::Filter { predicate, .. } = right.as_ref() else {
            panic!("right side must have filter")
        };
        let mut refs = Vec::new();
        predicate.referenced_indices(&mut refs);
        assert_eq!(refs, vec![0], "right-side predicate must be remapped");
    }

    #[test]
    fn left_join_keeps_right_conjuncts_above() {
        let l = scan();
        let r = scan();
        let join_schema = Arc::new(l.schema().join(&r.schema()));
        let join = LogicalPlan::Join {
            left: Arc::new(l),
            right: Arc::new(r),
            on: vec![],
            join_type: JoinType::Left,
            schema: join_schema,
        };
        let mut right_ref = col("a");
        if let Expr::Column(c) = &mut right_ref {
            c.index = Some(2);
        }
        let plan = LogicalPlan::Filter {
            input: Arc::new(join),
            predicate: right_ref.eq(lit(2i64)),
        };
        let out = PredicatePushdown.optimize(&plan).unwrap();
        assert!(
            matches!(out, LogicalPlan::Filter { .. }),
            "must stay above left join"
        );
    }

    fn bound_at(name: &str, index: usize) -> Expr {
        let mut c = col(name);
        if let Expr::Column(cr) = &mut c {
            cr.index = Some(index);
        }
        c
    }

    /// The conjuncts the optimized join leaves on its (left, right) inputs.
    fn side_filters(out: &LogicalPlan) -> (Vec<Expr>, Vec<Expr>) {
        let LogicalPlan::Join { left, right, .. } = out else {
            panic!("expected bare Join, got {out:?}")
        };
        let conjuncts = |p: &LogicalPlan| match p {
            LogicalPlan::Filter { predicate, .. } => {
                predicate.split_conjunction().into_iter().cloned().collect()
            }
            _ => Vec::new(),
        };
        (conjuncts(left), conjuncts(right))
    }

    /// `t1 ⋈ t2 ON t1.a = t2.b` (inner unless told otherwise) under
    /// `predicate`, over the join's output columns a, b, a', b'.
    fn filtered_join(join_type: JoinType, predicate: Expr) -> LogicalPlan {
        let (l, r) = (scan(), scan());
        let schema = Arc::new(l.schema().join(&r.schema()));
        LogicalPlan::Filter {
            input: Arc::new(LogicalPlan::Join {
                left: Arc::new(l),
                right: Arc::new(r),
                on: vec![(bound_at("a", 0), bound_at("b", 1))],
                join_type,
                schema,
            }),
            predicate,
        }
    }

    #[test]
    fn a_key_equality_crosses_an_inner_join() {
        let param = Expr::Param {
            slot: 0,
            data_type: DataType::Int64,
        };
        // Left key to right key, a parameter as well as a literal, and the
        // constant on either side of `=`.
        let out = PredicatePushdown
            .optimize(&filtered_join(
                JoinType::Inner,
                bound_at("a", 0).eq(param.clone()),
            ))
            .unwrap();
        let (left, right) = side_filters(&out);
        assert_eq!(left, vec![bound_at("a", 0).eq(param)]);
        assert_eq!(
            right,
            vec![bound_at("b", 1).eq(Expr::Param {
                slot: 0,
                data_type: DataType::Int64,
            })]
        );
        // Right key to left key; a conjunct already there is not repeated.
        let predicate = lit(7i64)
            .eq(bound_at("b", 3))
            .and(bound_at("a", 0).eq(lit(7i64)));
        let out = PredicatePushdown
            .optimize(&filtered_join(JoinType::Inner, predicate))
            .unwrap();
        let (left, right) = side_filters(&out);
        assert_eq!(left, vec![bound_at("a", 0).eq(lit(7i64))]);
        assert_eq!(right, vec![lit(7i64).eq(bound_at("b", 1))]);
    }

    #[test]
    fn only_constant_equalities_on_keys_of_inner_joins_cross() {
        for (join_type, predicate) in [
            // An outer join: the other side's rows may be unmatched.
            (JoinType::Left, bound_at("a", 0).eq(lit(7i64))),
            // Not a key, not an equality, not a constant, a NULL.
            (JoinType::Inner, bound_at("b", 1).eq(lit(7i64))),
            (JoinType::Inner, bound_at("a", 0).gt(lit(7i64))),
            (JoinType::Inner, bound_at("a", 0).eq(bound_at("b", 1))),
            (
                JoinType::Inner,
                bound_at("a", 0).eq(Expr::Literal(Value::Null)),
            ),
        ] {
            let out = PredicatePushdown
                .optimize(&filtered_join(join_type, predicate.clone()))
                .unwrap();
            if let LogicalPlan::Join { right, .. } = &out {
                assert!(
                    !matches!(right.as_ref(), LogicalPlan::Filter { .. }),
                    "{predicate} crossed: {out:?}"
                );
            }
        }
        // Float keys do not carry equality across: the join and `=` differ
        // on -0.0 and NaN.
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Float64)]));
        let float_scan = || LogicalPlan::Values {
            schema: Arc::clone(&schema),
            rows: vec![],
        };
        let plan = LogicalPlan::Filter {
            input: Arc::new(LogicalPlan::Join {
                left: Arc::new(float_scan()),
                right: Arc::new(float_scan()),
                on: vec![(bound_at("x", 0), bound_at("x", 0))],
                join_type: JoinType::Inner,
                schema: Arc::new(schema.join(&schema)),
            }),
            predicate: bound_at("x", 0).eq(lit(0.0)),
        };
        let out = PredicatePushdown.optimize(&plan).unwrap();
        let (_, right) = side_filters(&out);
        assert!(right.is_empty(), "{out:?}");
    }

    #[test]
    fn pushes_through_passthrough_projection() {
        let s = scan();
        let in_schema = s.schema();
        let exprs = vec![
            resolve_expr(&col("b"), &in_schema).unwrap(),
            resolve_expr(&col("a").add(col("b")).alias("ab"), &in_schema).unwrap(),
        ];
        let out_schema = Arc::new(Schema::new(vec![
            Field::new("b", DataType::Int64),
            Field::new("ab", DataType::Int64),
        ]));
        let proj = LogicalPlan::Projection {
            input: Arc::new(s),
            exprs,
            schema: Arc::clone(&out_schema),
        };
        // Predicate on output col 0 ("b") — pass-through, pushable.
        let mut b_ref = col("b");
        if let Expr::Column(c) = &mut b_ref {
            c.index = Some(0);
        }
        // Predicate on output col 1 ("ab") — computed, not pushable.
        let mut ab_ref = col("ab");
        if let Expr::Column(c) = &mut ab_ref {
            c.index = Some(1);
        }
        let plan = LogicalPlan::Filter {
            input: Arc::new(proj),
            predicate: b_ref.eq(lit(1i64)).and(ab_ref.gt(lit(0i64))),
        };
        let out = PredicatePushdown.optimize(&plan).unwrap();
        let LogicalPlan::Filter { input, predicate } = &out else {
            panic!("computed-column filter must remain, got {out:?}")
        };
        assert!(predicate.to_string().contains("ab"));
        let LogicalPlan::Projection { input: pin, .. } = input.as_ref() else {
            panic!("projection expected")
        };
        let LogicalPlan::Filter {
            predicate: below, ..
        } = pin.as_ref()
        else {
            panic!("pushed filter expected below projection")
        };
        let mut refs = Vec::new();
        below.referenced_indices(&mut refs);
        assert_eq!(refs, vec![1], "b is column 1 of the scan");
    }
}
