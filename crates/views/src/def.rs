//! View classification: which defining queries the incremental
//! maintenance engine supports, and the per-operator delta rules each
//! class uses (DESIGN.md §13).
//!
//! Three classes are maintainable from an append-only stream:
//!
//! * **Filter/project** — ΔV = π(σ(ΔT)): the delta chunk runs through
//!   the defining query and the output appends to the view.
//! * **Aggregate** — Δ-partials of the delta chunk merge into persistent
//!   per-group accumulators (count/sum/min/max are monotone under
//!   append-only input; avg maintains sum+count).
//! * **Two-table inner equi-join** — ΔA ⋈ B ∪ A ⋈ ΔB: each side's delta
//!   probes the *other* side's arrangement (an [`IndexedTable`] keyed on
//!   the join column), then joins the arrangement of its own side.
//!
//! Everything else (DISTINCT, ORDER BY/LIMIT, HAVING, subqueries, outer
//! joins, self-joins, >2-way joins) is rejected at `CREATE` with a typed
//! `Unsupported` error — the monotone classes above are exactly the ones
//! whose delta application commutes with append order, which is what
//! makes exactly-once maintenance possible without retractions.

use std::sync::Arc;

use idf_core::source::IndexedSource;
use idf_core::table::IndexedTable;
use idf_engine::error::{EngineError, Result};
use idf_engine::expr::BinaryOp;
use idf_engine::logical::JoinType;
use idf_engine::schema::SchemaRef;
use idf_engine::session::Session;
use idf_engine::sql::parser::{SelectItem, SqlExpr, TableRef};
use idf_engine::sql::SelectStmt;

/// One resolved base table of a view.
pub(crate) struct BaseInfo {
    /// Catalog name the base is registered under.
    pub name: String,
    /// Alias in the defining query, if any.
    pub alias: Option<String>,
    /// The live indexed table behind the catalog source.
    pub table: Arc<IndexedTable>,
    /// Unqualified base schema.
    pub schema: SchemaRef,
}

/// Which accumulator one aggregate select-item maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccKind {
    /// `count(*)` / `count(e)` — one partial column.
    Count,
    /// `sum(e)` — one partial column.
    Sum,
    /// `min(e)` — one partial column.
    Min,
    /// `max(e)` — one partial column.
    Max,
    /// `avg(e)` — maintained as sum+count, two partial columns.
    Avg,
}

/// One output column of an aggregate view.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OutCol {
    /// The i-th GROUP BY expression.
    Group(usize),
    /// The j-th aggregate accumulator.
    Agg(usize),
}

/// Delta-rule plan for an aggregate view.
pub(crate) struct AggDef {
    /// `SELECT g…, partial-aggs… FROM base [WHERE …] GROUP BY g…` — run
    /// over a delta chunk to produce partials, merged into the group map.
    pub partial_stmt: SelectStmt,
    /// Number of group columns at the head of a partial row.
    pub n_groups: usize,
    /// Accumulator kinds, in select-list order.
    pub accs: Vec<AccKind>,
    /// How to rebuild one output row from group values + accumulators.
    pub template: Vec<OutCol>,
}

/// A classified view definition.
pub(crate) enum ViewKind {
    /// π(σ(T)) over one base table.
    FilterProject {
        /// The base table.
        base: BaseInfo,
    },
    /// γ(σ(T)) over one base table.
    Aggregate {
        /// The base table.
        base: BaseInfo,
        /// The delta-rule plan (boxed: much larger than the other variants).
        agg: Box<AggDef>,
    },
    /// A ⋈ B on one equality, with optional filter/projection on top.
    Join {
        /// FROM side.
        left: BaseInfo,
        /// JOIN side.
        right: BaseInfo,
        /// Join column index into `left.schema`.
        left_key: usize,
        /// Join column index into `right.schema`.
        right_key: usize,
    },
}

impl ViewKind {
    /// Catalog names of every base table, FROM side first.
    pub fn base_names(&self) -> Vec<String> {
        match self {
            ViewKind::FilterProject { base } | ViewKind::Aggregate { base, .. } => {
                vec![base.name.clone()]
            }
            ViewKind::Join { left, right, .. } => vec![left.name.clone(), right.name.clone()],
        }
    }
}

fn unsupported(msg: impl Into<String>) -> EngineError {
    EngineError::Unsupported(format!("materialized view: {}", msg.into()))
}

/// Resolve a named FROM/JOIN relation to its live indexed base table.
fn resolve_base(session: &Session, table_ref: &TableRef) -> Result<BaseInfo> {
    let (name, alias) = match table_ref {
        TableRef::Named { name, alias } => (name.clone(), alias.clone()),
        TableRef::Subquery { .. } => {
            return Err(unsupported("subqueries in FROM are not supported"))
        }
    };
    let source = session.catalog().get(&name)?;
    let indexed = source
        .as_any()
        .downcast_ref::<IndexedSource>()
        .filter(|s| !s.is_frozen())
        .ok_or_else(|| {
            unsupported(format!(
                "base table '{name}' must be a live indexed table (register it through the \
                 Indexed DataFrame API or indexed DDL)"
            ))
        })?;
    let table = Arc::clone(indexed.table());
    let schema = table.schema();
    Ok(BaseInfo {
        name,
        alias,
        table,
        schema,
    })
}

/// Does `expr` contain any function call? The grammar's only functions
/// are aggregates, so this doubles as an aggregate detector.
fn contains_func(expr: &SqlExpr) -> bool {
    match expr {
        SqlExpr::Func { .. } => true,
        SqlExpr::Column { .. }
        | SqlExpr::Int(_)
        | SqlExpr::Float(_)
        | SqlExpr::Str(_)
        | SqlExpr::Bool(_)
        | SqlExpr::Null
        | SqlExpr::Param { .. } => false,
        SqlExpr::Binary { left, right, .. } => contains_func(left) || contains_func(right),
        SqlExpr::Not(e) | SqlExpr::IsNull { expr: e, .. } | SqlExpr::Cast { expr: e, .. } => {
            contains_func(e)
        }
        SqlExpr::InList { expr, list, .. } => contains_func(expr) || list.iter().any(contains_func),
        SqlExpr::Like { expr, .. } => contains_func(expr),
        SqlExpr::Between {
            expr, low, high, ..
        } => contains_func(expr) || contains_func(low) || contains_func(high),
    }
}

/// Classify `stmt` into a maintainable view kind, or reject with a typed
/// `Unsupported` error naming the offending construct.
pub(crate) fn classify(session: &Session, stmt: &SelectStmt) -> Result<ViewKind> {
    if stmt.distinct {
        return Err(unsupported("SELECT DISTINCT is not supported"));
    }
    if !stmt.order_by.is_empty() || stmt.limit.is_some() {
        return Err(unsupported(
            "ORDER BY / LIMIT are not supported (order at query time instead)",
        ));
    }
    if stmt.having.is_some() {
        return Err(unsupported("HAVING is not supported"));
    }
    if let Some(sel) = &stmt.selection {
        if contains_func(sel) {
            return Err(unsupported("aggregates in WHERE are not supported"));
        }
    }
    if stmt.joins.len() > 1 {
        return Err(unsupported("at most one JOIN is supported"));
    }

    let base = resolve_base(session, &stmt.from)?;

    if let Some(join) = stmt.joins.first() {
        return classify_join(session, stmt, base, join);
    }

    let has_agg = !stmt.group_by.is_empty()
        || stmt.projection.iter().any(|item| match item {
            SelectItem::Wildcard => false,
            SelectItem::Expr { expr, .. } => contains_func(expr),
        });
    if has_agg {
        let agg = Box::new(plan_aggregate(stmt)?);
        Ok(ViewKind::Aggregate { base, agg })
    } else {
        Ok(ViewKind::FilterProject { base })
    }
}

fn classify_join(
    session: &Session,
    stmt: &SelectStmt,
    left: BaseInfo,
    join: &idf_engine::sql::parser::JoinClause,
) -> Result<ViewKind> {
    if join.join_type != JoinType::Inner {
        return Err(unsupported("only INNER JOIN is supported"));
    }
    if !stmt.group_by.is_empty() {
        return Err(unsupported("GROUP BY over a join is not supported"));
    }
    for item in &stmt.projection {
        if let SelectItem::Expr { expr, .. } = item {
            if contains_func(expr) {
                return Err(unsupported("aggregates over a join are not supported"));
            }
        }
    }
    let right = resolve_base(session, &join.table)?;
    if left.name == right.name {
        return Err(unsupported("self-joins are not supported"));
    }
    let SqlExpr::Binary {
        left: on_l,
        op: BinaryOp::Eq,
        right: on_r,
    } = &join.on
    else {
        return Err(unsupported(
            "the join condition must be a single column equality (a.x = b.y)",
        ));
    };
    let (
        SqlExpr::Column {
            qualifier: ql,
            name: nl,
        },
        SqlExpr::Column {
            qualifier: qr,
            name: nr,
        },
    ) = (on_l.as_ref(), on_r.as_ref())
    else {
        return Err(unsupported(
            "the join condition must be a single column equality (a.x = b.y)",
        ));
    };
    let a = resolve_join_col(&left, &right, ql.as_deref(), nl)?;
    let b = resolve_join_col(&left, &right, qr.as_deref(), nr)?;
    let (left_key, right_key) = match (a, b) {
        ((Side::Left, lk), (Side::Right, rk)) | ((Side::Right, rk), (Side::Left, lk)) => (lk, rk),
        _ => {
            return Err(unsupported(
                "the join condition must compare one column from each side",
            ))
        }
    };
    let _ = session;
    Ok(ViewKind::Join {
        left,
        right,
        left_key,
        right_key,
    })
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum Side {
    Left,
    Right,
}

/// Resolve one ON-clause column to (side, column index).
fn resolve_join_col(
    left: &BaseInfo,
    right: &BaseInfo,
    qualifier: Option<&str>,
    name: &str,
) -> Result<(Side, usize)> {
    let matches_side = |b: &BaseInfo, q: &str| q == b.alias.as_deref().unwrap_or(&b.name);
    match qualifier {
        Some(q) if matches_side(left, q) => Ok((Side::Left, left.schema.index_of(None, name)?)),
        Some(q) if matches_side(right, q) => Ok((Side::Right, right.schema.index_of(None, name)?)),
        Some(q) => Err(EngineError::ColumnNotFound(format!("{q}.{name}"))),
        None => {
            let l = left.schema.index_of(None, name).ok();
            let r = right.schema.index_of(None, name).ok();
            match (l, r) {
                (Some(i), None) => Ok((Side::Left, i)),
                (None, Some(i)) => Ok((Side::Right, i)),
                (Some(_), Some(_)) => Err(EngineError::ColumnNotFound(format!(
                    "join column '{name}' is ambiguous; qualify it"
                ))),
                (None, None) => Err(EngineError::ColumnNotFound(name.to_string())),
            }
        }
    }
}

/// Build the delta-rule plan for an aggregate view: the partial query,
/// the accumulator list, and the output-row template.
fn plan_aggregate(stmt: &SelectStmt) -> Result<AggDef> {
    let n_groups = stmt.group_by.len();
    let mut partial_projection: Vec<SelectItem> = stmt
        .group_by
        .iter()
        .enumerate()
        .map(|(i, g)| SelectItem::Expr {
            expr: g.clone(),
            alias: Some(format!("g{i}")),
        })
        .collect();
    let mut accs = Vec::new();
    let mut template = Vec::new();
    for item in &stmt.projection {
        let SelectItem::Expr { expr, .. } = item else {
            return Err(unsupported("SELECT * with aggregation is not supported"));
        };
        if let SqlExpr::Func { name, args, star } = expr {
            let j = accs.len();
            let kind = match name.as_str() {
                "count" => AccKind::Count,
                "sum" => AccKind::Sum,
                "min" => AccKind::Min,
                "max" => AccKind::Max,
                "avg" => AccKind::Avg,
                other => return Err(unsupported(format!("aggregate '{other}' is not supported"))),
            };
            if !star {
                let arg = args
                    .first()
                    .ok_or_else(|| unsupported(format!("{name} needs an argument")))?;
                if contains_func(arg) {
                    return Err(unsupported("nested aggregates are not supported"));
                }
            }
            match kind {
                AccKind::Avg => {
                    // avg is maintained as sum+count: two partial columns.
                    partial_projection.push(SelectItem::Expr {
                        expr: SqlExpr::Func {
                            name: "sum".to_string(),
                            args: args.clone(),
                            star: false,
                        },
                        alias: Some(format!("a{j}s")),
                    });
                    partial_projection.push(SelectItem::Expr {
                        expr: SqlExpr::Func {
                            name: "count".to_string(),
                            args: args.clone(),
                            star: false,
                        },
                        alias: Some(format!("a{j}c")),
                    });
                }
                _ => partial_projection.push(SelectItem::Expr {
                    expr: expr.clone(),
                    alias: Some(format!("a{j}")),
                }),
            }
            accs.push(kind);
            template.push(OutCol::Agg(j));
        } else {
            if contains_func(expr) {
                return Err(unsupported(
                    "expressions over aggregates are not supported; select the aggregate directly",
                ));
            }
            let i = stmt
                .group_by
                .iter()
                .position(|g| g == expr)
                .ok_or_else(|| unsupported("non-aggregate select items must appear in GROUP BY"))?;
            template.push(OutCol::Group(i));
        }
    }
    let partial_stmt = SelectStmt {
        distinct: false,
        projection: partial_projection,
        from: stmt.from.clone(),
        joins: Vec::new(),
        selection: stmt.selection.clone(),
        group_by: stmt.group_by.clone(),
        having: None,
        order_by: Vec::new(),
        limit: None,
    };
    Ok(AggDef {
        partial_stmt,
        n_groups,
        accs,
        template,
    })
}
