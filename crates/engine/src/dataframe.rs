//! The lazy DataFrame API.
//!
//! Mirrors Spark's DataFrame: transformations build a logical plan eagerly
//! *analyzed* (columns resolved, types coerced) but lazily *executed* —
//! `collect`/`count`/`show` trigger optimization, physical planning, and
//! parallel execution.

use std::sync::Arc;

use crate::analyzer::{expr_to_field, expr_type, resolve_expr};
use crate::catalog::MemTable;
use crate::chunk::Chunk;
use crate::error::{EngineError, Result};
use crate::expr::{Expr, SortExpr};
use crate::logical::{JoinType, LogicalPlan};
use crate::physical::{
    display_exec, execute_collect, execute_collect_partitions, ExecPlanRef, MetricsRegistry,
    TaskContext,
};
use crate::schema::{Schema, SchemaRef};
use crate::session::Session;
use crate::types::DataType;

/// A lazily evaluated, schema-checked relational query.
#[derive(Clone)]
pub struct DataFrame {
    session: Session,
    plan: Arc<LogicalPlan>,
    /// Original SQL text when the frame came from `Session::sql` — used
    /// to label the slow-query log.
    sql: Option<Arc<str>>,
    /// `plan` already optimized, when the SQL front end took it from the
    /// session's plan cache.
    optimized: Option<Arc<LogicalPlan>>,
}

impl DataFrame {
    /// Wrap a logical plan (used by [`Session`] and library extensions).
    pub fn new(session: Session, plan: LogicalPlan) -> Self {
        DataFrame {
            session,
            plan: Arc::new(plan),
            sql: None,
            optimized: None,
        }
    }

    /// A frame over `plan` whose optimized form is already known (the
    /// plan cache's hit path: collecting it skips the optimizer).
    pub(crate) fn prepared(
        session: Session,
        plan: Arc<LogicalPlan>,
        optimized: Arc<LogicalPlan>,
    ) -> Self {
        DataFrame {
            session,
            plan,
            sql: None,
            optimized: Some(optimized),
        }
    }

    /// The analyzed plan, shared.
    pub(crate) fn shared_plan(&self) -> &Arc<LogicalPlan> {
        &self.plan
    }

    /// Attach the originating SQL text (used by the SQL front end so the
    /// slow-query log shows queries as written).
    pub fn with_sql_text(mut self, sql: &str) -> Self {
        self.sql = Some(Arc::from(sql));
        self
    }

    /// The SQL text this frame was planned from, if it came from
    /// `Session::sql`.
    pub fn sql_text(&self) -> Option<&str> {
        self.sql.as_deref()
    }

    /// Label identifying this query in the slow-query log: the SQL text
    /// when known, else the root line of the logical plan.
    fn query_label(&self) -> String {
        match &self.sql {
            Some(sql) => sql.to_string(),
            None => self
                .plan
                .display_indent()
                .lines()
                .next()
                .unwrap_or("<empty plan>")
                .trim()
                .to_string(),
        }
    }

    /// The output schema.
    pub fn schema(&self) -> SchemaRef {
        self.plan.schema()
    }

    /// The underlying (analyzed, unoptimized) logical plan.
    pub fn logical_plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// The session this frame belongs to.
    pub fn session(&self) -> &Session {
        &self.session
    }

    // ------------------------------------------------------------------
    // Transformations
    // ------------------------------------------------------------------

    /// Keep rows satisfying `predicate`.
    pub fn filter(&self, predicate: Expr) -> Result<DataFrame> {
        let schema = self.schema();
        let predicate = resolve_expr(&predicate, &schema)?;
        if expr_type(&predicate, &schema)? != DataType::Boolean {
            return Err(EngineError::type_err("filter predicate must be BOOLEAN"));
        }
        Ok(self.with_plan(LogicalPlan::Filter {
            input: Arc::clone(&self.plan),
            predicate,
        }))
    }

    /// Project/compute columns.
    pub fn select(&self, exprs: Vec<Expr>) -> Result<DataFrame> {
        let in_schema = self.schema();
        let exprs = exprs
            .iter()
            .map(|e| resolve_expr(e, &in_schema))
            .collect::<Result<Vec<_>>>()?;
        if let Some(agg) = exprs.iter().find(|e| e.has_aggregate()) {
            return Err(EngineError::plan(format!(
                "aggregate {agg} in select; use aggregate() / GROUP BY"
            )));
        }
        let fields = exprs
            .iter()
            .map(|e| expr_to_field(e, &in_schema))
            .collect::<Result<Vec<_>>>()?;
        let schema = Arc::new(Schema::new(fields));
        Ok(self.with_plan(LogicalPlan::Projection {
            input: Arc::clone(&self.plan),
            exprs,
            schema,
        }))
    }

    /// Project columns by name.
    pub fn select_columns(&self, names: &[&str]) -> Result<DataFrame> {
        self.select(names.iter().map(|n| crate::expr::col(n)).collect())
    }

    /// Append a computed column.
    pub fn with_column(&self, name: &str, expr: Expr) -> Result<DataFrame> {
        let mut exprs: Vec<Expr> = self
            .schema()
            .fields
            .iter()
            .map(|f| crate::expr::col(&f.qualified_name()))
            .collect();
        exprs.push(expr.alias(name));
        self.select(exprs)
    }

    /// Equi-join with `right` on `(left_col, right_col)` name pairs.
    pub fn join(
        &self,
        right: &DataFrame,
        on: Vec<(&str, &str)>,
        join_type: JoinType,
    ) -> Result<DataFrame> {
        let pairs = on
            .into_iter()
            .map(|(l, r)| (crate::expr::col(l), crate::expr::col(r)))
            .collect();
        self.join_on(right, pairs, join_type)
    }

    /// Equi-join with `right` on expression pairs.
    pub fn join_on(
        &self,
        right: &DataFrame,
        on: Vec<(Expr, Expr)>,
        join_type: JoinType,
    ) -> Result<DataFrame> {
        let ls = self.schema();
        let rs = right.schema();
        let on = on
            .into_iter()
            .map(|(l, r)| {
                let l = resolve_expr(&l, &ls)?;
                let r = resolve_expr(&r, &rs)?;
                let lt = expr_type(&l, &ls)?;
                let rt = expr_type(&r, &rs)?;
                if lt != rt {
                    return Err(EngineError::type_err(format!(
                        "join key type mismatch: {lt} vs {rt}"
                    )));
                }
                Ok((l, r))
            })
            .collect::<Result<Vec<_>>>()?;
        let schema = match join_type {
            JoinType::Inner | JoinType::Left => Arc::new(ls.join(&rs)),
            JoinType::Semi | JoinType::Anti => ls,
        };
        Ok(self.with_plan(LogicalPlan::Join {
            left: Arc::clone(&self.plan),
            right: Arc::clone(&right.plan),
            on,
            join_type,
            schema,
        }))
    }

    /// Grouped aggregation: output columns are the group keys then the
    /// aggregates.
    pub fn aggregate(&self, group: Vec<Expr>, aggs: Vec<Expr>) -> Result<DataFrame> {
        let in_schema = self.schema();
        let group = group
            .iter()
            .map(|e| resolve_expr(e, &in_schema))
            .collect::<Result<Vec<_>>>()?;
        let aggs = aggs
            .iter()
            .map(|e| resolve_expr(e, &in_schema))
            .collect::<Result<Vec<_>>>()?;
        for a in &aggs {
            if !a.has_aggregate() {
                return Err(EngineError::plan(format!(
                    "aggregate list entry {a} is not an aggregate call"
                )));
            }
        }
        let mut fields = Vec::with_capacity(group.len() + aggs.len());
        for e in group.iter().chain(&aggs) {
            fields.push(expr_to_field(e, &in_schema)?);
        }
        let schema = Arc::new(Schema::new(fields));
        Ok(self.with_plan(LogicalPlan::Aggregate {
            input: Arc::clone(&self.plan),
            group_exprs: group,
            agg_exprs: aggs,
            schema,
        }))
    }

    /// Sort by `keys`.
    pub fn sort(&self, keys: Vec<SortExpr>) -> Result<DataFrame> {
        let in_schema = self.schema();
        let exprs = keys
            .into_iter()
            .map(|k| {
                Ok(SortExpr {
                    expr: resolve_expr(&k.expr, &in_schema)?,
                    ascending: k.ascending,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(self.with_plan(LogicalPlan::Sort {
            input: Arc::clone(&self.plan),
            exprs,
        }))
    }

    /// Deduplicate rows (SELECT DISTINCT): a grouped aggregation on every
    /// column with no aggregate outputs.
    pub fn distinct(&self) -> Result<DataFrame> {
        let schema = self.schema();
        let group: Vec<Expr> = schema
            .fields
            .iter()
            .map(|f| crate::expr::col(&f.qualified_name()))
            .collect();
        let group = group
            .iter()
            .map(|e| resolve_expr(e, &schema))
            .collect::<Result<Vec<_>>>()?;
        Ok(self.with_plan(LogicalPlan::Aggregate {
            input: Arc::clone(&self.plan),
            group_exprs: group,
            agg_exprs: vec![],
            schema,
        }))
    }

    /// Keep at most `n` rows.
    pub fn limit(&self, n: usize) -> DataFrame {
        self.with_plan(LogicalPlan::Limit {
            input: Arc::clone(&self.plan),
            n,
        })
    }

    /// Bag union with another frame of identical column types.
    pub fn union(&self, other: &DataFrame) -> Result<DataFrame> {
        let a = self.schema();
        let b = other.schema();
        if a.fields.len() != b.fields.len()
            || a.fields
                .iter()
                .zip(&b.fields)
                .any(|(x, y)| x.data_type != y.data_type)
        {
            return Err(EngineError::type_err(format!(
                "union requires matching column types: {a} vs {b}"
            )));
        }
        Ok(self.with_plan(LogicalPlan::Union {
            inputs: vec![Arc::clone(&self.plan), Arc::clone(&other.plan)],
            schema: a,
        }))
    }

    /// Re-qualify every output column as `alias` (enables self-joins:
    /// `df.alias("k1").join(df.alias("k2"), ...)`).
    pub fn alias(&self, alias: &str) -> DataFrame {
        let old = self.schema();
        let schema = Arc::new(old.qualified(alias));
        // Identity projection carrying the new qualifiers.
        let exprs = (0..old.len())
            .map(|i| {
                Expr::Column(crate::expr::ColumnRefExpr {
                    qualifier: old.field(i).qualifier.clone(),
                    name: old.field(i).name.clone(),
                    index: Some(i),
                })
            })
            .collect();
        self.with_plan(LogicalPlan::Projection {
            input: Arc::clone(&self.plan),
            exprs,
            schema,
        })
    }

    // ------------------------------------------------------------------
    // Actions
    // ------------------------------------------------------------------

    /// Optimize + plan + execute, concatenating all partitions. Runs
    /// under a fresh query context carrying the session's configured
    /// memory limits (no deadline).
    pub fn collect(&self) -> Result<Chunk> {
        self.collect_ctx(&self.session.new_query())
    }

    /// Like [`DataFrame::collect`], but under an explicit query lifecycle
    /// token: cancel it from another thread (`query.cancel()`) to stop
    /// the query with `EngineError::Cancelled` within a bounded latency.
    pub fn collect_ctx(&self, query: &Arc<crate::query::QueryContext>) -> Result<Chunk> {
        let exec = self.physical_plan()?;
        // Anchor any timeout now that planning is done: the client's
        // timeout buys execution time (see `QueryContext` deadline
        // contract), not optimizer time.
        query.arm_deadline();
        let ctx = TaskContext::with_query(self.session.shared_config(), Arc::clone(query));
        self.track_query(query, || execute_collect(&exec, &ctx))
    }

    /// Like [`DataFrame::collect`], but stops with
    /// `EngineError::DeadlineExceeded` if execution runs past `timeout`.
    pub fn collect_timeout(&self, timeout: std::time::Duration) -> Result<Chunk> {
        self.collect_ctx(&self.session.new_query_with_timeout(timeout))
    }

    /// Optimize + plan + execute, keeping partition boundaries.
    pub fn collect_partitions(&self) -> Result<Vec<Vec<Chunk>>> {
        self.collect_partitions_ctx(&self.session.new_query())
    }

    /// Like [`DataFrame::collect_partitions`], under an explicit query
    /// lifecycle token.
    pub fn collect_partitions_ctx(
        &self,
        query: &Arc<crate::query::QueryContext>,
    ) -> Result<Vec<Vec<Chunk>>> {
        let exec = self.physical_plan()?;
        query.arm_deadline();
        let ctx = TaskContext::with_query(self.session.shared_config(), Arc::clone(query));
        self.track_query(query, || execute_collect_partitions(&exec, &ctx))
    }

    /// Run `run` with query-lifecycle accounting: started/finished/
    /// cancelled/failed counters, the end-to-end latency histogram, the
    /// peak-memory high-water mark, and — past the configured threshold —
    /// a slow-query log entry. Compiles to a plain `run()` call when the
    /// `obs` feature is off.
    fn track_query<T>(
        &self,
        query: &Arc<crate::query::QueryContext>,
        run: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        if !idf_obs::enabled() {
            return run();
        }
        let m = idf_obs::global();
        m.queries_started.inc();
        m.queries_in_flight.add(1);
        let start = std::time::Instant::now();
        let result = run();
        let elapsed = start.elapsed();
        m.queries_in_flight.sub(1);
        m.query_latency_ns.record(elapsed.as_nanos() as u64);
        m.query_peak_memory_bytes
            .set_max(query.memory_peak() as i64);
        let outcome = match &result {
            Ok(_) => idf_obs::QueryOutcome::Finished,
            Err(e) if e.is_cancellation() => idf_obs::QueryOutcome::Cancelled,
            Err(_) => idf_obs::QueryOutcome::Failed,
        };
        match outcome {
            idf_obs::QueryOutcome::Finished => m.queries_finished.inc(),
            idf_obs::QueryOutcome::Cancelled => m.queries_cancelled.inc(),
            idf_obs::QueryOutcome::Failed => m.queries_failed.inc(),
        }
        if let Some(threshold) = self.session.config().slow_query_threshold {
            if elapsed >= threshold {
                m.slow_queries
                    .push(self.query_label(), elapsed.as_nanos() as u64, outcome);
            }
        }
        result
    }

    /// Number of rows the query produces.
    pub fn count(&self) -> Result<usize> {
        let parts = self.collect_partitions()?;
        Ok(parts.iter().flatten().map(Chunk::len).sum())
    }

    /// Render the first `n` rows as an ASCII table.
    pub fn show(&self, n: usize) -> Result<String> {
        let chunk = self.limit(n).collect()?;
        Ok(crate::pretty::format_chunk(&self.schema(), &chunk))
    }

    /// The optimized logical plan.
    pub fn optimized_plan(&self) -> Result<LogicalPlan> {
        match &self.optimized {
            Some(optimized) => Ok(optimized.as_ref().clone()),
            None => self.session.optimizer().optimize(&self.plan),
        }
    }

    /// The physical plan.
    pub fn physical_plan(&self) -> Result<crate::physical::ExecPlanRef> {
        let planner = self.session.planner();
        match &self.optimized {
            Some(optimized) => planner.create_plan(optimized),
            None => planner.create_plan(&self.optimized_plan()?),
        }
    }

    /// Execute the query with per-operator instrumentation under a fresh
    /// query context; returns the collected result, the executed physical
    /// plan, and the per-operator metrics. This is the programmatic form
    /// of `EXPLAIN ANALYZE`.
    pub fn collect_instrumented(
        &self,
        query: &Arc<crate::query::QueryContext>,
    ) -> Result<(Chunk, ExecPlanRef, Arc<MetricsRegistry>)> {
        let exec = self.physical_plan()?;
        query.arm_deadline();
        let registry = Arc::new(MetricsRegistry::new());
        let ctx = TaskContext::with_query_metrics(
            self.session.shared_config(),
            Arc::clone(query),
            Arc::clone(&registry),
        );
        let out = self.track_query(query, || execute_collect(&exec, &ctx))?;
        Ok((out, exec, registry))
    }

    /// Execute the query with per-operator instrumentation and return the
    /// physical plan tree annotated with each operator's actual rows,
    /// chunks, bytes, and time, followed by the aggregate metrics table
    /// (`EXPLAIN ANALYZE`).
    pub fn explain_analyze(&self) -> Result<String> {
        let query = self.session.new_query();
        let plan_start = std::time::Instant::now();
        let exec = self.physical_plan()?;
        let plan_time = plan_start.elapsed();
        // Same anchor the ordinary collect path uses: the timeout starts
        // when execution starts, and the plan/exec split below shows the
        // two phases the contract separates.
        query.arm_deadline();
        let registry = Arc::new(MetricsRegistry::new());
        let ctx = TaskContext::with_query_metrics(
            self.session.shared_config(),
            Arc::clone(&query),
            Arc::clone(&registry),
        );
        let exec_start = std::time::Instant::now();
        let out = self.track_query(&query, || execute_collect(&exec, &ctx))?;
        let exec_time = exec_start.elapsed();
        Ok(format!(
            "== Physical (analyzed) ==\n{}== Metrics ({} result rows, peak memory {} bytes, \
             plan {plan_time:?}, exec {exec_time:?}) ==\n{}",
            registry.render_annotated(exec.as_ref()),
            out.len(),
            query.memory_peak(),
            registry.render(),
        ))
    }

    /// Logical, optimized, and physical plans as text.
    pub fn explain(&self) -> Result<String> {
        let optimized = self.optimized_plan()?;
        let physical = self.session.planner().create_plan(&optimized)?;
        Ok(format!(
            "== Logical ==\n{}== Optimized ==\n{}== Physical ==\n{}",
            self.plan.display_indent(),
            optimized.display_indent(),
            display_exec(physical.as_ref()),
        ))
    }

    /// Materialize the result into an in-memory (columnar) table and return
    /// a frame scanning it — the analogue of `df.cache()` for the vanilla
    /// engine. The cache is partitioned round-robin across
    /// `target_partitions`.
    pub fn cache(&self) -> Result<DataFrame> {
        let chunk = self.collect()?;
        let schema = self.schema();
        let parts = self.session.config().target_partitions;
        let table = Arc::new(MemTable::from_chunk_partitioned(
            Arc::clone(&schema),
            chunk,
            parts,
        )?);
        Ok(self.with_plan(LogicalPlan::Scan {
            table: "cached".to_string(),
            source: table,
            schema,
            projection: None,
            filters: vec![],
        }))
    }

    fn with_plan(&self, plan: LogicalPlan) -> DataFrame {
        DataFrame {
            session: self.session.clone(),
            plan: Arc::new(plan),
            // A derived frame is no longer the query the SQL text named.
            sql: None,
            optimized: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MemTable;
    use crate::expr::{avg, col, count_star, lit, max, sum};
    use crate::schema::Field;
    use crate::types::Value;

    fn session() -> Session {
        let s = Session::new();
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("city", DataType::Utf8),
            Field::new("age", DataType::Int64),
        ]));
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                vec![
                    Value::Int64(i),
                    Value::Utf8(if i % 2 == 0 { "ams" } else { "sfo" }.into()),
                    Value::Int64(20 + i % 50),
                ]
            })
            .collect();
        let chunk = Chunk::from_rows(&schema, &rows).unwrap();
        s.register_table("people", Arc::new(MemTable::from_chunk(schema, chunk)));
        s
    }

    #[test]
    fn select_filter_pipeline() {
        let s = session();
        let out = s
            .table("people")
            .unwrap()
            .filter(col("city").eq(lit("ams")))
            .unwrap()
            .select(vec![col("id"), col("age").add(lit(1i64)).alias("age1")])
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(out.len(), 50);
        assert_eq!(out.num_columns(), 2);
    }

    #[test]
    fn aggregate_group_by() {
        let s = session();
        let out = s
            .table("people")
            .unwrap()
            .aggregate(
                vec![col("city")],
                vec![
                    count_star(),
                    sum(col("age")),
                    avg(col("age")),
                    max(col("id")),
                ],
            )
            .unwrap()
            .sort(vec![SortExpr::asc(col("city"))])
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.value_at(0, 0), Value::Utf8("ams".into()));
        assert_eq!(out.value_at(1, 0), Value::Int64(50));
    }

    #[test]
    fn self_join_with_alias() {
        let s = session();
        let people = s.table("people").unwrap();
        let a = people.alias("a");
        let b = people.alias("b");
        let joined = a
            .join(&b, vec![("a.id", "b.id")], JoinType::Inner)
            .unwrap()
            .select(vec![col("a.id")])
            .unwrap();
        assert_eq!(joined.count().unwrap(), 100);
    }

    #[test]
    fn sort_limit_topk() {
        let s = session();
        let out = s
            .table("people")
            .unwrap()
            .sort(vec![SortExpr::desc(col("id"))])
            .unwrap()
            .limit(3)
            .collect()
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.value_at(0, 0), Value::Int64(99));
    }

    #[test]
    fn count_and_union() {
        let s = session();
        let t = s.table("people").unwrap();
        assert_eq!(t.count().unwrap(), 100);
        let u = t.union(&t).unwrap();
        assert_eq!(u.count().unwrap(), 200);
    }

    #[test]
    fn with_column_appends() {
        let s = session();
        let df = s
            .table("people")
            .unwrap()
            .with_column("age2", col("age").mul(lit(2i64)))
            .unwrap();
        assert_eq!(df.schema().len(), 4);
        let out = df.limit(1).collect().unwrap();
        let age = out.value_at(2, 0);
        let age2 = out.value_at(3, 0);
        assert_eq!(age2, Value::Int64(age.as_i64().unwrap() * 2));
    }

    #[test]
    fn cache_roundtrip() {
        let s = session();
        let cached = s.table("people").unwrap().cache().unwrap();
        assert_eq!(cached.count().unwrap(), 100);
        let filtered = cached
            .filter(col("id").lt(lit(10i64)))
            .unwrap()
            .count()
            .unwrap();
        assert_eq!(filtered, 10);
    }

    #[test]
    fn bad_filter_type_rejected() {
        let s = session();
        assert!(s
            .table("people")
            .unwrap()
            .filter(col("id").add(lit(1i64)))
            .is_err());
    }

    #[test]
    fn explain_analyze_reports_plan_and_exec_time() {
        let s = session();
        let df = s
            .table("people")
            .unwrap()
            .filter(col("id").lt(lit(10i64)))
            .unwrap();
        let text = df.explain_analyze().unwrap();
        assert!(text.contains("plan "), "missing plan time: {text}");
        assert!(text.contains("exec "), "missing exec time: {text}");
    }

    #[test]
    fn explain_shows_phases() {
        let s = session();
        let df = s
            .table("people")
            .unwrap()
            .filter(col("id").eq(lit(5i64)))
            .unwrap()
            .select(vec![col("city")])
            .unwrap();
        let text = df.explain().unwrap();
        assert!(text.contains("== Logical =="));
        assert!(text.contains("== Optimized =="));
        assert!(text.contains("== Physical =="));
    }
}
