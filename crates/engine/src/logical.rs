//! Logical query plans — the engine's analogue of Catalyst's logical
//! operator trees.

use std::fmt;
use std::sync::Arc;

use crate::catalog::TableSource;
use crate::expr::{Expr, SortExpr};
use crate::optimizer::fold_expr;
use crate::schema::SchemaRef;
use crate::types::Value;

/// Join types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Inner equi-join.
    Inner,
    /// Left outer equi-join.
    Left,
    /// Left semi-join (rows of the left side with at least one match).
    Semi,
    /// Left anti-join (rows of the left side with no match).
    Anti,
}

impl fmt::Display for JoinType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinType::Inner => "INNER",
            JoinType::Left => "LEFT",
            JoinType::Semi => "SEMI",
            JoinType::Anti => "ANTI",
        };
        f.write_str(s)
    }
}

/// A logical plan node. Schemas are attached at construction (by the
/// DataFrame API or the analyzer) so every node can report its output
/// schema without re-derivation.
#[derive(Clone)]
pub enum LogicalPlan {
    /// Scan of a registered table source.
    Scan {
        /// Display/catalog name of the table.
        table: String,
        /// The source to scan.
        source: Arc<dyn TableSource>,
        /// Output schema (qualified, post-projection).
        schema: SchemaRef,
        /// Optional column projection (indices into the source schema).
        projection: Option<Vec<usize>>,
        /// Filters pushed into the source (each supported natively by it).
        filters: Vec<Expr>,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// Boolean predicate.
        predicate: Expr,
    },
    /// Column projection/computation.
    Projection {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// Output expressions.
        exprs: Vec<Expr>,
        /// Output schema.
        schema: SchemaRef,
    },
    /// Equi-join.
    Join {
        /// Left input (paper: the *indexed* side when present, i.e. build).
        left: Arc<LogicalPlan>,
        /// Right input (probe).
        right: Arc<LogicalPlan>,
        /// Equi-join key pairs `(left_key, right_key)`.
        on: Vec<(Expr, Expr)>,
        /// Join type.
        join_type: JoinType,
        /// Output schema (left ++ right for inner/left).
        schema: SchemaRef,
    },
    /// Grouped aggregation.
    Aggregate {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// Group-by expressions.
        group_exprs: Vec<Expr>,
        /// Aggregate expressions.
        agg_exprs: Vec<Expr>,
        /// Output schema: group columns then aggregate columns.
        schema: SchemaRef,
    },
    /// Sort.
    Sort {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// Sort keys.
        exprs: Vec<SortExpr>,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Arc<LogicalPlan>,
        /// Maximum number of rows.
        n: usize,
    },
    /// Concatenation of plans with identical schemas.
    Union {
        /// The inputs.
        inputs: Vec<Arc<LogicalPlan>>,
        /// Shared schema.
        schema: SchemaRef,
    },
    /// Literal rows.
    Values {
        /// Output schema.
        schema: SchemaRef,
        /// Row-major literal values.
        rows: Vec<Vec<Value>>,
    },
}

/// `input` with parameters bound, or `None` if it holds none.
fn changed(input: &Arc<LogicalPlan>, params: &[Value]) -> Option<Arc<LogicalPlan>> {
    let bound = input.bind_params(params);
    (!Arc::ptr_eq(&bound, input)).then_some(bound)
}

impl LogicalPlan {
    /// The node's output schema.
    pub fn schema(&self) -> SchemaRef {
        match self {
            LogicalPlan::Scan { schema, .. } => Arc::clone(schema),
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Projection { schema, .. } => Arc::clone(schema),
            LogicalPlan::Join { schema, .. } => Arc::clone(schema),
            LogicalPlan::Aggregate { schema, .. } => Arc::clone(schema),
            LogicalPlan::Sort { input, .. } => input.schema(),
            LogicalPlan::Limit { input, .. } => input.schema(),
            LogicalPlan::Union { schema, .. } => Arc::clone(schema),
            LogicalPlan::Values { schema, .. } => Arc::clone(schema),
        }
    }

    /// Direct children.
    pub fn children(&self) -> Vec<&Arc<LogicalPlan>> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Projection { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::Union { inputs, .. } => inputs.iter().collect(),
        }
    }

    /// Replace the [`Expr::Param`] placeholders of a cached plan with the
    /// literals in `params`. Parameters only ever sit in filter
    /// predicates, join keys and pushed scan filters
    /// ([`LogicalPlan::params_confined`]); subtrees without any are shared,
    /// not copied. Each bound expression is constant-folded, so what a
    /// parameter kept the optimizer from folding (`CAST(?0 AS BIGINT)`)
    /// is not left to be evaluated per chunk.
    pub fn bind_params(self: &Arc<Self>, params: &[Value]) -> Arc<LogicalPlan> {
        if params.is_empty() {
            return Arc::clone(self);
        }
        let bind = |e: &Expr| fold_expr(&e.bind_params(params));
        let rebuilt = match self.as_ref() {
            LogicalPlan::Values { .. } => return Arc::clone(self),
            LogicalPlan::Scan {
                table,
                source,
                schema,
                projection,
                filters,
            } => {
                if !filters.iter().any(Expr::has_param) {
                    return Arc::clone(self);
                }
                LogicalPlan::Scan {
                    table: table.clone(),
                    source: Arc::clone(source),
                    schema: Arc::clone(schema),
                    projection: projection.clone(),
                    filters: filters.iter().map(bind).collect(),
                }
            }
            LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
                input: input.bind_params(params),
                predicate: bind(predicate),
            },
            LogicalPlan::Join {
                left,
                right,
                on,
                join_type,
                schema,
            } => LogicalPlan::Join {
                left: left.bind_params(params),
                right: right.bind_params(params),
                on: on.iter().map(|(l, r)| (bind(l), bind(r))).collect(),
                join_type: *join_type,
                schema: Arc::clone(schema),
            },
            // The remaining operators hold no parameters of their own:
            // rebuild only when an input changed.
            LogicalPlan::Projection {
                input,
                exprs,
                schema,
            } => match changed(input, params) {
                None => return Arc::clone(self),
                Some(input) => LogicalPlan::Projection {
                    input,
                    exprs: exprs.clone(),
                    schema: Arc::clone(schema),
                },
            },
            LogicalPlan::Aggregate {
                input,
                group_exprs,
                agg_exprs,
                schema,
            } => match changed(input, params) {
                None => return Arc::clone(self),
                Some(input) => LogicalPlan::Aggregate {
                    input,
                    group_exprs: group_exprs.clone(),
                    agg_exprs: agg_exprs.clone(),
                    schema: Arc::clone(schema),
                },
            },
            LogicalPlan::Sort { input, exprs } => match changed(input, params) {
                None => return Arc::clone(self),
                Some(input) => LogicalPlan::Sort {
                    input,
                    exprs: exprs.clone(),
                },
            },
            LogicalPlan::Limit { input, n } => match changed(input, params) {
                None => return Arc::clone(self),
                Some(input) => LogicalPlan::Limit { input, n: *n },
            },
            LogicalPlan::Union { inputs, schema } => {
                let bound: Vec<_> = inputs.iter().map(|i| i.bind_params(params)).collect();
                if bound
                    .iter()
                    .zip(inputs)
                    .all(|(new, old)| Arc::ptr_eq(new, old))
                {
                    return Arc::clone(self);
                }
                LogicalPlan::Union {
                    inputs: bound,
                    schema: Arc::clone(schema),
                }
            }
        };
        Arc::new(rebuilt)
    }

    /// Whether every [`Expr::Param`] of the plan sits where its value
    /// cannot change a schema: in a filter predicate, a join key or a
    /// pushed scan filter — never in a projected, grouped, aggregated or
    /// sort expression (whose *text* names output columns). Plans that
    /// fail this are not cached.
    pub fn params_confined(&self) -> bool {
        let clean = |exprs: &[Expr]| !exprs.iter().any(Expr::has_param);
        let here = match self {
            LogicalPlan::Projection { exprs, .. } => clean(exprs),
            LogicalPlan::Aggregate {
                group_exprs,
                agg_exprs,
                ..
            } => clean(group_exprs) && clean(agg_exprs),
            LogicalPlan::Sort { exprs, .. } => !exprs.iter().any(|s| s.expr.has_param()),
            _ => true,
        };
        here && self.children().iter().all(|c| c.params_confined())
    }

    /// Operator name for display.
    pub fn name(&self) -> &'static str {
        match self {
            LogicalPlan::Scan { .. } => "Scan",
            LogicalPlan::Filter { .. } => "Filter",
            LogicalPlan::Projection { .. } => "Projection",
            LogicalPlan::Join { .. } => "Join",
            LogicalPlan::Aggregate { .. } => "Aggregate",
            LogicalPlan::Sort { .. } => "Sort",
            LogicalPlan::Limit { .. } => "Limit",
            LogicalPlan::Union { .. } => "Union",
            LogicalPlan::Values { .. } => "Values",
        }
    }

    /// Multi-line indented plan display (like `EXPLAIN`).
    pub fn display_indent(&self) -> String {
        let mut out = String::new();
        self.fmt_indent(&mut out, 0);
        out
    }

    fn fmt_indent(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let line = match self {
            LogicalPlan::Scan {
                table,
                projection,
                filters,
                ..
            } => {
                let mut s = format!("Scan: {table}");
                if let Some(p) = projection {
                    s.push_str(&format!(" projection={p:?}"));
                }
                if !filters.is_empty() {
                    let fs: Vec<String> = filters.iter().map(|f| f.to_string()).collect();
                    s.push_str(&format!(" filters=[{}]", fs.join(", ")));
                }
                s
            }
            LogicalPlan::Filter { predicate, .. } => format!("Filter: {predicate}"),
            LogicalPlan::Projection { exprs, .. } => {
                let es: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
                format!("Projection: {}", es.join(", "))
            }
            LogicalPlan::Join { on, join_type, .. } => {
                let keys: Vec<String> = on.iter().map(|(l, r)| format!("{l} = {r}")).collect();
                format!("Join({join_type}): {}", keys.join(", "))
            }
            LogicalPlan::Aggregate {
                group_exprs,
                agg_exprs,
                ..
            } => {
                let gs: Vec<String> = group_exprs.iter().map(|e| e.to_string()).collect();
                let as_: Vec<String> = agg_exprs.iter().map(|e| e.to_string()).collect();
                format!(
                    "Aggregate: group=[{}] aggs=[{}]",
                    gs.join(", "),
                    as_.join(", ")
                )
            }
            LogicalPlan::Sort { exprs, .. } => {
                let es: Vec<String> = exprs
                    .iter()
                    .map(|s| format!("{} {}", s.expr, if s.ascending { "ASC" } else { "DESC" }))
                    .collect();
                format!("Sort: {}", es.join(", "))
            }
            LogicalPlan::Limit { n, .. } => format!("Limit: {n}"),
            LogicalPlan::Union { inputs, .. } => format!("Union: {} inputs", inputs.len()),
            LogicalPlan::Values { rows, .. } => format!("Values: {} rows", rows.len()),
        };
        out.push_str(&pad);
        out.push_str(&line);
        out.push('\n');
        for child in self.children() {
            child.fmt_indent(out, indent + 1);
        }
    }
}

impl fmt::Debug for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_indent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MemTable;
    use crate::chunk::Chunk;
    use crate::expr::{col, lit};
    use crate::schema::{Field, Schema};
    use crate::types::DataType;

    fn scan() -> LogicalPlan {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
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

    #[test]
    fn display_tree() {
        let plan = LogicalPlan::Filter {
            input: Arc::new(scan()),
            predicate: col("x").eq(lit(1i64)),
        };
        let shown = plan.display_indent();
        assert!(shown.starts_with("Filter: (x = 1)\n"));
        assert!(shown.contains("  Scan: t"));
    }

    #[test]
    fn schema_propagates_through_filter_sort_limit() {
        let s = Arc::new(scan());
        let f = LogicalPlan::Filter {
            input: Arc::clone(&s),
            predicate: lit(true),
        };
        assert_eq!(f.schema(), s.schema());
        let l = LogicalPlan::Limit {
            input: Arc::new(f),
            n: 1,
        };
        assert_eq!(l.schema().fields[0].name, "x");
    }

    #[test]
    fn children_counts() {
        let s = Arc::new(scan());
        assert_eq!(s.children().len(), 0);
        let u = LogicalPlan::Union {
            inputs: vec![Arc::clone(&s), Arc::clone(&s)],
            schema: s.schema(),
        };
        assert_eq!(u.children().len(), 2);
    }
}
