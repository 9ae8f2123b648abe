//! Projection pruning: narrow scans to the columns a query actually uses.
//!
//! With a columnar cache this is what makes projections and aggregations
//! cheap for the vanilla engine — only the referenced column vectors are
//! touched. (The Indexed DataFrame's row-major cache cannot benefit, which
//! reproduces the projection slowdown the paper reports in Figure 2.)
//!
//! The rule handles the plan shapes the DataFrame API and SQL binder emit:
//! a consumer (`Projection` or `Aggregate`) above a chain of `Filter`s over
//! a `Scan`, including both sides of a `Join` directly under a projection.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::error::Result;
use crate::expr::Expr;
use crate::logical::LogicalPlan;
use crate::optimizer::{map_children, OptimizerRule};

/// The pruning rule.
pub struct ProjectionPruning;

impl OptimizerRule for ProjectionPruning {
    fn name(&self) -> &str {
        "projection_pruning"
    }

    fn optimize(&self, plan: &LogicalPlan) -> Result<LogicalPlan> {
        let plan = map_children(plan, &mut |c| self.optimize(c))?;
        Ok(match &plan {
            LogicalPlan::Projection {
                input,
                exprs,
                schema,
            } => match input.as_ref() {
                LogicalPlan::Join { .. } => {
                    prune_join_under_projection(input, exprs, schema).unwrap_or(plan)
                }
                _ => {
                    let required = exprs_refs(exprs);
                    let plan = match narrow(input, &required) {
                        Some((new_input, mapping)) => {
                            let exprs = exprs
                                .iter()
                                .map(|e| e.map_column_indices(&|i| mapping[&i]))
                                .collect();
                            LogicalPlan::Projection {
                                input: Arc::new(new_input),
                                exprs,
                                schema: Arc::clone(schema),
                            }
                        }
                        None => plan,
                    };
                    collapse_column_projection(&plan).unwrap_or(plan)
                }
            },
            LogicalPlan::Aggregate {
                input,
                group_exprs,
                agg_exprs,
                schema,
            } => {
                let mut required = exprs_refs(group_exprs);
                required.extend(exprs_refs(agg_exprs));
                let narrowed = match input.as_ref() {
                    LogicalPlan::Join { .. } => prune_join_sides(input, &required),
                    _ => narrow(input, &required),
                };
                match narrowed {
                    Some((new_input, mapping)) => {
                        let remap = |es: &Vec<Expr>| -> Vec<Expr> {
                            es.iter()
                                .map(|e| e.map_column_indices(&|i| mapping[&i]))
                                .collect()
                        };
                        LogicalPlan::Aggregate {
                            input: Arc::new(new_input),
                            group_exprs: remap(group_exprs),
                            agg_exprs: remap(agg_exprs),
                            schema: Arc::clone(schema),
                        }
                    }
                    None => plan,
                }
            }
            _ => plan,
        })
    }
}

/// Merge a bare-column projection into the scan underneath it, through any
/// filters in between: `Projection[cols](Filter*(Scan))` becomes
/// `Filter*(Scan[projection=cols])` carrying the projection's (possibly
/// re-qualified) schema. A table alias is such a projection — the
/// DataFrame/SQL `alias` wraps the scan in an identity one — so this keeps
/// aliased scans recognizable to custom planning strategies such as the
/// Indexed DataFrame's, lets the consumer above narrow an aliased, filtered
/// scan like an un-aliased one, and removes one operator from the pipeline.
fn collapse_column_projection(plan: &LogicalPlan) -> Option<LogicalPlan> {
    let LogicalPlan::Projection {
        input,
        exprs,
        schema,
    } = plan
    else {
        return None;
    };
    // Only bare columns (an alias changes the output name, which the
    // provided schema already reflects, so it is fine to unwrap).
    let cols: Vec<usize> = exprs
        .iter()
        .map(|e| match e {
            Expr::Alias(inner, _) => inner.as_ref(),
            other => other,
        })
        .map(|e| match e {
            Expr::Column(c) => c.index,
            _ => None,
        })
        .collect::<Option<_>>()?;
    sink_columns(input, &cols, schema)
}

/// `plan` (a Filter* chain over a Scan) emitting its columns `cols`, in
/// that order, under `schema`. `None` when a filter reads a column the
/// projection drops.
fn sink_columns(
    plan: &LogicalPlan,
    cols: &[usize],
    schema: &crate::schema::SchemaRef,
) -> Option<LogicalPlan> {
    match plan {
        LogicalPlan::Scan {
            table,
            source,
            projection,
            filters,
            ..
        } => Some(LogicalPlan::Scan {
            table: table.clone(),
            source: Arc::clone(source),
            schema: Arc::clone(schema),
            projection: Some(
                cols.iter()
                    .map(|&c| match projection {
                        Some(p) => p.get(c).copied(),
                        None => Some(c),
                    })
                    .collect::<Option<_>>()?,
            ),
            filters: filters.clone(),
        }),
        LogicalPlan::Filter { input, predicate } => {
            let mut refs = Vec::new();
            predicate.referenced_indices(&mut refs);
            let position = |i: usize| cols.iter().position(|&c| c == i);
            if refs.iter().any(|&i| position(i).is_none()) {
                return None;
            }
            Some(LogicalPlan::Filter {
                input: Arc::new(sink_columns(input, cols, schema)?),
                predicate: predicate.map_column_indices(&|i| position(i).unwrap_or(i)),
            })
        }
        _ => None,
    }
}

fn exprs_refs(exprs: &[Expr]) -> BTreeSet<usize> {
    let mut v = Vec::new();
    for e in exprs {
        e.referenced_indices(&mut v);
    }
    v.into_iter().collect()
}

/// Narrow `plan` (a Filter* chain over a Scan) to the `required` output
/// columns plus whatever its own predicates need. Returns the rewritten
/// plan and the old→new index mapping for the columns that survive.
type Mapping = std::collections::HashMap<usize, usize>;

fn narrow(plan: &LogicalPlan, required: &BTreeSet<usize>) -> Option<(LogicalPlan, Mapping)> {
    match plan {
        LogicalPlan::Scan {
            table,
            source,
            schema,
            projection,
            filters,
        } => {
            if required.len() == schema.len() {
                return None; // nothing to prune
            }
            let req: Vec<usize> = required.iter().copied().collect();
            let new_projection: Vec<usize> = match projection {
                Some(p) => req.iter().map(|&i| p[i]).collect(),
                None => req.clone(),
            };
            let new_schema = Arc::new(schema.project(&req));
            let mapping: Mapping = req
                .iter()
                .enumerate()
                .map(|(new, &old)| (old, new))
                .collect();
            Some((
                LogicalPlan::Scan {
                    table: table.clone(),
                    source: Arc::clone(source),
                    schema: new_schema,
                    projection: Some(new_projection),
                    filters: filters.clone(),
                },
                mapping,
            ))
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut need = required.clone();
            let mut refs = Vec::new();
            predicate.referenced_indices(&mut refs);
            need.extend(refs);
            let (new_input, mapping) = narrow(input, &need)?;
            let predicate = predicate.map_column_indices(&|i| mapping[&i]);
            Some((
                LogicalPlan::Filter {
                    input: Arc::new(new_input),
                    predicate,
                },
                mapping,
            ))
        }
        _ => None,
    }
}

/// Prune both inputs of `join` so only the `required` output columns (plus
/// the join keys) survive; returns the rewritten join and the old→new
/// output-index mapping for the surviving columns.
fn prune_join_sides(
    join: &LogicalPlan,
    required: &BTreeSet<usize>,
) -> Option<(LogicalPlan, Mapping)> {
    let LogicalPlan::Join {
        left,
        right,
        on,
        join_type,
        ..
    } = join
    else {
        return None;
    };
    let left_width = left.schema().len();
    let mut required = required.clone();
    for (l, r) in on {
        let mut refs = Vec::new();
        l.referenced_indices(&mut refs);
        required.extend(refs.iter().copied());
        let mut refs = Vec::new();
        r.referenced_indices(&mut refs);
        required.extend(refs.iter().map(|&i| i + left_width));
    }
    let left_req: BTreeSet<usize> = required
        .iter()
        .copied()
        .filter(|&i| i < left_width)
        .collect();
    let right_req: BTreeSet<usize> = required
        .iter()
        .copied()
        .filter(|&i| i >= left_width)
        .map(|i| i - left_width)
        .collect();
    // Narrow each side (tolerate one side not narrowing).
    let narrowed_left = narrow(left, &left_req);
    let narrowed_right = narrow(right, &right_req);
    if narrowed_left.is_none() && narrowed_right.is_none() {
        return None;
    }
    let (new_left, left_map) = narrowed_left.unwrap_or_else(|| {
        (
            left.as_ref().clone(),
            (0..left_width).map(|i| (i, i)).collect(),
        )
    });
    let (new_right, right_map) = narrowed_right.unwrap_or_else(|| {
        (
            (*right).as_ref().clone(),
            (0..right.schema().len()).map(|i| (i, i)).collect(),
        )
    });
    let new_left_width = new_left.schema().len();
    let new_on: Vec<(Expr, Expr)> = on
        .iter()
        .map(|(l, r)| {
            (
                l.map_column_indices(&|i| left_map[&i]),
                r.map_column_indices(&|i| right_map[&i]),
            )
        })
        .collect();
    let new_join_schema = Arc::new(new_left.schema().join(&new_right.schema()));
    let mut mapping: Mapping = Mapping::new();
    for (&old, &new) in &left_map {
        mapping.insert(old, new);
    }
    for (&old, &new) in &right_map {
        mapping.insert(old + left_width, new + new_left_width);
    }
    Some((
        LogicalPlan::Join {
            left: Arc::new(new_left),
            right: Arc::new(new_right),
            on: new_on,
            join_type: *join_type,
            schema: new_join_schema,
        },
        mapping,
    ))
}

/// `Projection` directly over `Join`: prune both join inputs to the columns
/// used by the projection and the join keys.
fn prune_join_under_projection(
    join: &LogicalPlan,
    exprs: &[Expr],
    out_schema: &crate::schema::SchemaRef,
) -> Option<LogicalPlan> {
    let (new_join, mapping) = prune_join_sides(join, &exprs_refs(exprs))?;
    let new_exprs: Vec<Expr> = exprs
        .iter()
        .map(|e| e.map_column_indices(&|i| mapping[&i]))
        .collect();
    Some(LogicalPlan::Projection {
        input: Arc::new(new_join),
        exprs: new_exprs,
        schema: Arc::clone(out_schema),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::{expr_to_field, resolve_expr};
    use crate::catalog::MemTable;
    use crate::chunk::Chunk;
    use crate::expr::{col, count_star, lit};
    use crate::schema::{Field, Schema};
    use crate::types::DataType;

    fn scan3() -> LogicalPlan {
        let schema = Arc::new(Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("c", DataType::Utf8),
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

    fn projection_of(plan: LogicalPlan, names: &[&str]) -> LogicalPlan {
        let in_schema = plan.schema();
        let exprs: Vec<Expr> = names
            .iter()
            .map(|n| resolve_expr(&col(n), &in_schema).unwrap())
            .collect();
        let schema = Arc::new(Schema::new(
            exprs
                .iter()
                .map(|e| expr_to_field(e, &in_schema).unwrap())
                .collect(),
        ));
        LogicalPlan::Projection {
            input: Arc::new(plan),
            exprs,
            schema,
        }
    }

    #[test]
    fn narrows_scan_under_projection() {
        let plan = projection_of(scan3(), &["c"]);
        let out = ProjectionPruning.optimize(&plan).unwrap();
        // A bare-column projection collapses straight into the scan.
        let LogicalPlan::Scan {
            projection, schema, ..
        } = &out
        else {
            panic!("collapsed scan expected, got {out:?}")
        };
        assert_eq!(projection.as_deref(), Some(&[2usize][..]));
        assert_eq!(schema.len(), 1);
        assert_eq!(schema.field(0).name, "c");
    }

    #[test]
    fn computed_projection_is_not_collapsed() {
        let s = scan3();
        let in_schema = s.schema();
        let exprs = vec![resolve_expr(&col("a").add(col("b")).alias("ab"), &in_schema).unwrap()];
        let schema = Arc::new(Schema::new(vec![Field::new("ab", DataType::Int64)]));
        let plan = LogicalPlan::Projection {
            input: Arc::new(s),
            exprs,
            schema,
        };
        let out = ProjectionPruning.optimize(&plan).unwrap();
        let LogicalPlan::Projection { input, .. } = &out else {
            panic!("computed projection must remain")
        };
        let LogicalPlan::Scan { projection, .. } = input.as_ref() else {
            panic!()
        };
        assert_eq!(
            projection.as_deref(),
            Some(&[0usize, 1][..]),
            "c pruned away"
        );
    }

    #[test]
    fn narrows_through_filter_keeping_predicate_columns() {
        let s = scan3();
        let pred = resolve_expr(&col("b").gt(lit(1i64)), &s.schema()).unwrap();
        let filtered = LogicalPlan::Filter {
            input: Arc::new(s),
            predicate: pred,
        };
        let plan = projection_of(filtered, &["a"]);
        let out = ProjectionPruning.optimize(&plan).unwrap();
        let LogicalPlan::Projection { input, .. } = &out else {
            panic!()
        };
        let LogicalPlan::Filter {
            input: scan,
            predicate,
        } = input.as_ref()
        else {
            panic!("filter expected")
        };
        let LogicalPlan::Scan { projection, .. } = scan.as_ref() else {
            panic!()
        };
        assert_eq!(projection.as_deref(), Some(&[0usize, 1][..]), "a + b kept");
        let mut refs = Vec::new();
        predicate.referenced_indices(&mut refs);
        assert_eq!(refs, vec![1], "b remapped to position 1");
    }

    #[test]
    fn narrows_under_aggregate() {
        let s = scan3();
        let in_schema = s.schema();
        let group = vec![resolve_expr(&col("a"), &in_schema).unwrap()];
        let aggs = vec![count_star()];
        let schema = Arc::new(Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("count(*)", DataType::Int64),
        ]));
        let plan = LogicalPlan::Aggregate {
            input: Arc::new(s),
            group_exprs: group,
            agg_exprs: aggs,
            schema,
        };
        let out = ProjectionPruning.optimize(&plan).unwrap();
        let LogicalPlan::Aggregate { input, .. } = &out else {
            panic!()
        };
        let LogicalPlan::Scan { projection, .. } = input.as_ref() else {
            panic!()
        };
        assert_eq!(projection.as_deref(), Some(&[0usize][..]));
    }

    #[test]
    fn identity_projection_collapses_into_scan() {
        let plan = projection_of(scan3(), &["a", "b", "c"]);
        let out = ProjectionPruning.optimize(&plan).unwrap();
        let LogicalPlan::Scan {
            projection, schema, ..
        } = &out
        else {
            panic!("collapsed scan expected, got {out:?}")
        };
        assert_eq!(projection.as_deref(), Some(&[0usize, 1, 2][..]));
        assert_eq!(schema.len(), 3);
    }

    #[test]
    fn prunes_both_join_sides() {
        let l = scan3();
        let r = scan3();
        let join_schema = Arc::new(l.schema().join(&r.schema()));
        let mut lk = col("a");
        if let Expr::Column(c) = &mut lk {
            c.index = Some(0);
        }
        let mut rk = col("a");
        if let Expr::Column(c) = &mut rk {
            c.index = Some(0);
        }
        let join = LogicalPlan::Join {
            left: Arc::new(l),
            right: Arc::new(r),
            on: vec![(lk, rk)],
            join_type: crate::logical::JoinType::Inner,
            schema: Arc::clone(&join_schema),
        };
        // Project right side's c (global index 5).
        let mut ce = col("c");
        if let Expr::Column(cc) = &mut ce {
            cc.index = Some(5);
        }
        let out_schema = Arc::new(Schema::new(vec![Field::new("c", DataType::Utf8)]));
        let plan = LogicalPlan::Projection {
            input: Arc::new(join),
            exprs: vec![ce],
            schema: out_schema,
        };
        let out = ProjectionPruning.optimize(&plan).unwrap();
        let LogicalPlan::Projection { input, exprs, .. } = &out else {
            panic!()
        };
        let LogicalPlan::Join {
            left, right, on, ..
        } = input.as_ref()
        else {
            panic!()
        };
        let LogicalPlan::Scan { projection: lp, .. } = left.as_ref() else {
            panic!()
        };
        let LogicalPlan::Scan { projection: rp, .. } = right.as_ref() else {
            panic!()
        };
        assert_eq!(
            lp.as_deref(),
            Some(&[0usize][..]),
            "left keeps only the key"
        );
        assert_eq!(rp.as_deref(), Some(&[0usize, 2][..]), "right keeps key + c");
        let mut refs = Vec::new();
        exprs[0].referenced_indices(&mut refs);
        assert_eq!(refs, vec![2], "c remapped: left width 1 + right-local 1");
        let mut kref = Vec::new();
        on[0].1.referenced_indices(&mut kref);
        assert_eq!(kref, vec![0]);
    }
}
