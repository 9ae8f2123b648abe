//! SQL front end: lexer, parser, and binder.
//!
//! Users can address registered tables (including Indexed DataFrames —
//! "users write SQL queries or use the Dataframe API", paper Figure 1)
//! with a practical SQL subset: SELECT/FROM/JOIN/WHERE/GROUP BY/HAVING/
//! ORDER BY/LIMIT, subqueries in FROM, aggregates, CAST, and three-valued
//! boolean logic.

pub mod binder;
pub mod lexer;
pub mod parser;
pub mod plan_cache;

pub use binder::to_expr;
pub use parser::{parse, parse_statement, SelectStmt, Statement};
pub use plan_cache::PLAN_CACHE_CAPACITY;

use std::sync::Arc;

use crate::dataframe::DataFrame;
use crate::error::{EngineError, Result};
use crate::schema::{Field, Schema};
use crate::session::Session;
use crate::sql::lexer::Token;
use crate::sql::parser::SqlExpr;
use crate::sql::plan_cache::{CachedPlan, Normalized};
use crate::types::{DataType, Value};

/// A `SELECT` through the session's plan cache: the frame for `tokens`
/// and whether its plan was already cached.
///
/// A miss runs the ordinary pipeline — parse, bind, optimize — over the
/// statement with its literals lifted into parameters, and (when `fill`)
/// caches the result; hit or miss, the literals are then bound back into
/// both plans. `None` when the parameterized statement does not parse or
/// bind, or a parameter landed where its value matters to a schema: the
/// caller then plans the statement as written, which also produces the
/// error message for the statement as written.
fn cached_select(
    session: &Session,
    tokens: &[Token],
    normalized: Normalized,
    fill: bool,
) -> Option<(DataFrame, bool)> {
    // Read before binding: a plan bound under generation `g` is only
    // ever served while the catalog still reads `g`.
    let generation = session.catalog().generation();
    let cache = session.plan_cache();
    let found = if fill {
        cache.get(&normalized.key, generation)
    } else {
        cache.peek(&normalized.key, generation)
    };
    let hit = found.is_some();
    let entry = match found {
        Some(entry) => entry,
        None => {
            let statement = parser::parse_tokens(&normalized.parameterized(tokens)).ok()?;
            let Statement::Select(stmt) = statement else {
                return None;
            };
            let frame = binder::bind(session, &stmt).ok()?;
            let optimized = frame.optimized_plan().ok()?;
            if !(frame.logical_plan().params_confined() && optimized.params_confined()) {
                return None;
            }
            let entry = Arc::new(CachedPlan {
                analyzed: Arc::clone(frame.shared_plan()),
                optimized: Arc::new(optimized),
            });
            if fill {
                cache.insert(normalized.key, generation, Arc::clone(&entry));
            }
            entry
        }
    };
    let params = &normalized.params;
    let frame = DataFrame::prepared(
        session.clone(),
        entry.analyzed.bind_params(params),
        entry.optimized.bind_params(params),
    );
    Some((frame, hit))
}

/// Parse `query` and bind it against `session`'s catalog.
///
/// A `SELECT` goes through the session's plan cache (see
/// [`plan_cache`]); every other statement, and a `SELECT` the cache
/// cannot take, is planned as written.
///
/// `EXPLAIN <select>` returns a frame of plan text (one `plan` column,
/// one row per line: logical → optimized → physical, then whether the
/// plan cache already held the statement's shape). `EXPLAIN ANALYZE
/// <select>` *executes the query at planning time* and returns the
/// physical tree annotated with actual per-operator rows/chunks/bytes/
/// time.
pub fn plan_sql(session: &Session, query: &str) -> Result<DataFrame> {
    let tokens = lexer::lex(query)?;
    if let Some(normalized) = plan_cache::normalize(&tokens) {
        if let Some((frame, _)) = cached_select(session, &tokens, normalized, true) {
            return Ok(frame.with_sql_text(query));
        }
    }
    match parser::parse_tokens(&tokens)? {
        Statement::Select(stmt) => Ok(binder::bind(session, &stmt)?.with_sql_text(query)),
        Statement::Explain {
            analyze,
            query: stmt,
        } => {
            // Explain the plan `sql()` would run — the cached one when
            // there is one — without filling the cache.
            let select = &tokens[1 + usize::from(analyze)..];
            let cached = plan_cache::normalize(select)
                .and_then(|normalized| cached_select(session, select, normalized, false));
            let (df, cache_status) = match cached {
                Some((df, true)) => (df, "hit"),
                Some((df, false)) => (df, "miss"),
                None => (binder::bind(session, &stmt)?, "bypass"),
            };
            let mut text = if analyze {
                df.explain_analyze()?
            } else {
                df.explain()?
            };
            text.push_str(&format!("plan cache: {cache_status}\n"));
            let schema = Arc::new(Schema::new(vec![Field::new("plan", DataType::Utf8)]));
            let rows: Vec<Vec<Value>> = text
                .lines()
                .map(|line| vec![Value::Utf8(line.to_string())])
                .collect();
            Ok(session.create_dataframe(schema, rows))
        }
        Statement::Checkpoint { table } => {
            let tables = session.checkpoint(table.as_deref())?;
            let schema = Arc::new(Schema::new(vec![Field::new("table", DataType::Utf8)]));
            let rows: Vec<Vec<Value>> = tables.into_iter().map(|t| vec![Value::Utf8(t)]).collect();
            Ok(session.create_dataframe(schema, rows))
        }
        Statement::Scrub { table } => {
            let findings = session.scrub(table.as_deref())?;
            let schema = Arc::new(Schema::new(vec![
                Field::new("table", DataType::Utf8),
                Field::new("target", DataType::Utf8),
                Field::new("status", DataType::Utf8),
                Field::new("detail", DataType::Utf8),
            ]));
            let rows: Vec<Vec<Value>> = findings
                .into_iter()
                .map(|r| {
                    vec![
                        Value::Utf8(r.table),
                        Value::Utf8(r.target),
                        Value::Utf8(r.status),
                        Value::Utf8(r.detail),
                    ]
                })
                .collect();
            Ok(session.create_dataframe(schema, rows))
        }
        Statement::CreateTable { name, columns } => {
            let fields = columns
                .iter()
                .map(|(col, ty)| Ok(Field::new(col, binder::type_from_name(ty)?)))
                .collect::<Result<Vec<_>>>()?;
            session.create_table(&name, Arc::new(Schema::new(fields)))?;
            Ok(status_frame(session, "table", name))
        }
        Statement::DropTable { name } => {
            session.drop_table(&name)?;
            Ok(status_frame(session, "table", name))
        }
        Statement::Insert { table, rows } => {
            let source = session.catalog().get(&table)?;
            let schema = source.schema();
            let rows: Vec<Vec<Value>> = rows
                .iter()
                .map(|row| {
                    row.iter()
                        .enumerate()
                        .map(|(i, e)| {
                            let v = literal_value(e)?;
                            Ok(match schema.fields.get(i) {
                                Some(f) => coerce_literal(v, f.data_type),
                                None => v,
                            })
                        })
                        .collect::<Result<Vec<_>>>()
                })
                .collect::<Result<Vec<_>>>()?;
            let appended = source.append_rows(&rows)?;
            let schema = Arc::new(Schema::new(vec![Field::new("rows", DataType::Int64)]));
            Ok(session.create_dataframe(schema, vec![vec![Value::Int64(appended as i64)]]))
        }
        Statement::Update {
            table,
            assignments,
            selection,
        } => {
            let affected = exec_update(session, &table, &assignments, selection.as_ref())?;
            Ok(rows_frame(session, affected))
        }
        Statement::Delete { table, selection } => {
            let affected = exec_delete(session, &table, selection.as_ref())?;
            Ok(rows_frame(session, affected))
        }
        Statement::Compact { table } => {
            let results = session.compact(table.as_deref())?;
            let schema = Arc::new(Schema::new(vec![
                Field::new("table", DataType::Utf8),
                Field::new("rows_reclaimed", DataType::Int64),
                Field::new("bytes_reclaimed", DataType::Int64),
            ]));
            let rows: Vec<Vec<Value>> = results
                .into_iter()
                .map(|r| {
                    vec![
                        Value::Utf8(r.table),
                        Value::Int64(r.rows_reclaimed as i64),
                        Value::Int64(r.bytes_reclaimed as i64),
                    ]
                })
                .collect();
            Ok(session.create_dataframe(schema, rows))
        }
        Statement::CreateMaterializedView { name, query } => {
            session.create_materialized_view(&name, &query)?;
            Ok(status_frame(session, "view", name))
        }
        Statement::DropMaterializedView { name } => {
            session.drop_materialized_view(&name)?;
            Ok(status_frame(session, "view", name))
        }
        Statement::RefreshMaterializedView { name } => {
            session.refresh_materialized_view(&name)?;
            Ok(status_frame(session, "view", name))
        }
    }
}

/// Execute `DELETE FROM table [WHERE ...]`: run the equivalent bound
/// SELECT to materialize the matched rows, then hand them to the source
/// as one atomic DML statement. Returns rows-affected.
fn exec_delete(session: &Session, table: &str, selection: Option<&SqlExpr>) -> Result<usize> {
    let source = session.catalog().get(table)?;
    let schema = source.schema();
    let stmt = dml_select(table, &schema, &[], selection);
    let matched = binder::bind(session, &stmt)?.collect()?;
    let deletes: Vec<Vec<Value>> = (0..matched.len()).map(|r| matched.row_values(r)).collect();
    let affected = source.apply_dml(&deletes, &[])?;
    let m = idf_obs::global();
    m.dml_deletes.inc();
    m.dml_rows_affected.add(affected as u64);
    m.superseded_versions.add(affected as u64);
    Ok(affected)
}

/// Execute `UPDATE table SET ... [WHERE ...]`: one bound SELECT produces,
/// per matched row, the full old image plus every SET expression evaluated
/// against it; the old images become deletes and the patched rows become
/// inserts of one atomic DML statement. Returns rows-affected.
fn exec_update(
    session: &Session,
    table: &str,
    assignments: &[(String, SqlExpr)],
    selection: Option<&SqlExpr>,
) -> Result<usize> {
    let source = session.catalog().get(table)?;
    let schema = source.schema();
    let mut targets: Vec<usize> = Vec::with_capacity(assignments.len());
    for (col, _) in assignments {
        let i = schema
            .fields
            .iter()
            .position(|f| f.name == *col)
            .ok_or_else(|| EngineError::Sql(format!("UPDATE SET targets unknown column {col}")))?;
        if targets.contains(&i) {
            return Err(EngineError::Sql(format!(
                "UPDATE SET assigns column {col} more than once"
            )));
        }
        targets.push(i);
    }
    let set_exprs: Vec<SqlExpr> = assignments.iter().map(|(_, e)| e.clone()).collect();
    let stmt = dml_select(table, &schema, &set_exprs, selection);
    let matched = binder::bind(session, &stmt)?.collect()?;
    let width = schema.len();
    let mut deletes: Vec<Vec<Value>> = Vec::with_capacity(matched.len());
    let mut inserts: Vec<Vec<Value>> = Vec::with_capacity(matched.len());
    for r in 0..matched.len() {
        let row = matched.row_values(r);
        let (old, set_vals) = row.split_at(width);
        let mut new = old.to_vec();
        for (&i, v) in targets.iter().zip(set_vals) {
            new[i] = coerce_literal(v.clone(), schema.field(i).data_type);
        }
        deletes.push(old.to_vec());
        inserts.push(new);
    }
    let affected = source.apply_dml(&deletes, &inserts)?;
    let m = idf_obs::global();
    m.dml_updates.inc();
    m.dml_rows_affected.add(affected as u64);
    m.superseded_versions.add(affected as u64);
    Ok(affected)
}

/// The SELECT equivalent of a DML statement's row-matching phase: every
/// schema column (by name, so the old image round-trips exactly), then
/// `extra` expressions (an UPDATE's SET values, aliased out of the way),
/// with the statement's WHERE.
fn dml_select(
    table: &str,
    schema: &crate::schema::SchemaRef,
    extra: &[SqlExpr],
    selection: Option<&SqlExpr>,
) -> parser::SelectStmt {
    use parser::{SelectItem, TableRef};
    let mut projection: Vec<SelectItem> = schema
        .fields
        .iter()
        .map(|f| SelectItem::Expr {
            expr: SqlExpr::Column {
                qualifier: None,
                name: f.name.clone(),
            },
            alias: None,
        })
        .collect();
    for (i, e) in extra.iter().enumerate() {
        projection.push(SelectItem::Expr {
            expr: e.clone(),
            alias: Some(format!("__dml_set_{i}")),
        });
    }
    parser::SelectStmt {
        distinct: false,
        projection,
        from: TableRef::Named {
            name: table.to_string(),
            alias: None,
        },
        joins: Vec::new(),
        selection: selection.cloned(),
        group_by: Vec::new(),
        having: None,
        order_by: Vec::new(),
        limit: None,
    }
}

/// One-row rows-affected acknowledgement frame for DML statements.
fn rows_frame(session: &Session, affected: usize) -> DataFrame {
    let schema = Arc::new(Schema::new(vec![Field::new("rows", DataType::Int64)]));
    session.create_dataframe(schema, vec![vec![Value::Int64(affected as i64)]])
}

/// One-row, one-column acknowledgement frame for DDL statements.
fn status_frame(session: &Session, column: &str, value: String) -> DataFrame {
    let schema = Arc::new(Schema::new(vec![Field::new(column, DataType::Utf8)]));
    session.create_dataframe(schema, vec![vec![Value::Utf8(value)]])
}

/// Evaluate an `INSERT ... VALUES` entry, which must be a literal.
fn literal_value(e: &SqlExpr) -> Result<Value> {
    Ok(match e {
        SqlExpr::Int(v) => Value::Int64(*v),
        SqlExpr::Float(v) => Value::Float64(*v),
        SqlExpr::Str(s) => Value::Utf8(s.clone()),
        SqlExpr::Bool(b) => Value::Boolean(*b),
        SqlExpr::Null => Value::Null,
        other => {
            return Err(EngineError::Sql(format!(
                "INSERT VALUES entries must be literals, found {other:?}"
            )))
        }
    })
}

/// Widen an INSERT literal to the target column type where lossless
/// (integer literals into INT32/DOUBLE/TIMESTAMP columns); anything else
/// is left as-is for `check_append_rows` to reject with a typed error.
fn coerce_literal(v: Value, ty: DataType) -> Value {
    match (v, ty) {
        (Value::Int64(x), DataType::Int32) if i32::try_from(x).is_ok() => Value::Int32(x as i32),
        (Value::Int64(x), DataType::Float64) => Value::Float64(x as f64),
        (Value::Int64(x), DataType::Timestamp) => Value::Timestamp(x),
        (v, _) => v,
    }
}
