//! The session: catalog + configuration + optimizer/planner extension
//! registries. The analogue of Spark's `SparkSession`.

use std::sync::Arc;

use parking_lot::RwLock;

use crate::catalog::{Catalog, MemTable, TableSource};
use crate::chunk::Chunk;
use crate::config::EngineConfig;
use crate::dataframe::DataFrame;
use crate::error::Result;
use crate::logical::LogicalPlan;
use crate::optimizer::{Optimizer, OptimizerRule};
use crate::planner::{PhysicalStrategy, Planner};
use crate::query::{MemoryGovernor, QueryContext, QueryContextBuilder};
use crate::schema::SchemaRef;
use crate::sql::plan_cache::PlanCache;
use crate::types::Value;

/// Extension point a durability layer installs on a session so the engine
/// can dispatch `CHECKPOINT` statements (and `Session::checkpoint`) without
/// depending on the layer itself — the storage crates sit *above* the
/// engine in the dependency graph, so the engine only sees this trait.
pub trait DurabilityHook: Send + Sync {
    /// Checkpoint `table` (or every durable table when `None`); returns the
    /// names of the tables checkpointed.
    fn checkpoint(&self, table: Option<&str>) -> Result<Vec<String>>;

    /// Verify the on-disk state of `table` (or every durable table when
    /// `None`): re-walk checkpoint snapshots and WAL segments checking
    /// CRCs, quarantine a corrupt snapshot and fall back to the previous
    /// valid generation. Returns one row per verified target.
    fn scrub(&self, table: Option<&str>) -> Result<Vec<ScrubRow>> {
        let _ = table;
        Err(crate::error::EngineError::Unsupported(
            "this durability layer does not support SCRUB".to_string(),
        ))
    }

    /// Re-arm the write path of `table` (or every durable table when
    /// `None`) after a read-only degradation: take a fresh checkpoint and
    /// rotate to a new WAL segment so appends are accepted again. Returns
    /// the names of the tables resumed.
    fn resume_writes(&self, table: Option<&str>) -> Result<Vec<String>> {
        let _ = table;
        Err(crate::error::EngineError::Unsupported(
            "this durability layer does not support resume_writes".to_string(),
        ))
    }
}

/// One scrub finding/verification row, as returned by
/// [`DurabilityHook::scrub`] and surfaced by SQL `SCRUB [table]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubRow {
    /// The durable table the target belongs to.
    pub table: String,
    /// The verified target (manifest, snapshot or segment file name).
    pub target: String,
    /// Outcome: `ok`, `corrupt`, `quarantined`, `fell-back`, `stale`, …
    pub status: String,
    /// Human-readable detail — for corruption, includes byte offsets.
    pub detail: String,
}

/// Extension point a storage layer installs so SQL `CREATE TABLE` (and
/// [`Session::create_table`]) can mint that layer's table sources instead
/// of the engine's plain [`crate::catalog::AppendTable`]. Same inversion
/// as [`DurabilityHook`]: the Indexed DataFrame crates sit above the
/// engine, so the engine only sees this trait.
pub trait TableFactory: Send + Sync {
    /// Build an empty, appendable table source with `schema` for a table
    /// that will be registered under `name`.
    fn create(&self, name: &str, schema: SchemaRef) -> Result<Arc<dyn TableSource>>;
}

/// Extension point the materialized-view subsystem (`idf-views`) installs
/// so SQL `CREATE/DROP/REFRESH MATERIALIZED VIEW` can dispatch to it. Same
/// inversion as [`DurabilityHook`]: the views crate sits above the engine,
/// so the engine only sees this trait.
///
/// Methods take the session by reference rather than the hook holding one:
/// a hook that captured a `Session` clone would form an `Arc` cycle
/// (session → hook → session) and never be dropped.
pub trait ViewsHook: Send + Sync {
    /// Register a materialized view `name` defined by `query`, seed its
    /// state at a consistent snapshot, and start incremental maintenance.
    fn create_view(
        &self,
        session: &Session,
        name: &str,
        query: &crate::sql::SelectStmt,
    ) -> Result<()>;

    /// Deregister view `name` and discard its materialized state.
    fn drop_view(&self, session: &Session, name: &str) -> Result<()>;

    /// Recompute view `name` from scratch at a consistent snapshot of its
    /// base tables.
    fn refresh_view(&self, session: &Session, name: &str) -> Result<()>;
}

/// Extension point the compaction subsystem (`idf-compact`) installs so
/// SQL `COMPACT [table]` (and [`Session::compact`]) can dispatch to it.
/// Same inversion as [`DurabilityHook`]: the compaction crate sits above
/// the engine, so the engine only sees this trait.
///
/// Methods take the session by reference rather than the hook holding one
/// — a hook that captured a `Session` clone would form an `Arc` cycle
/// (session → hook → session) and never be dropped.
pub trait CompactHook: Send + Sync {
    /// Synchronously compact `table` (or every managed table when `None`):
    /// drop row versions hidden below tombstones, shorten MVCC chains,
    /// release the memory. Returns one row per compacted table.
    fn compact(&self, session: &Session, table: Option<&str>) -> Result<Vec<CompactRow>>;
}

/// One table's compaction outcome, as returned by [`CompactHook::compact`]
/// and surfaced by SQL `COMPACT [table]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactRow {
    /// The compacted table.
    pub table: String,
    /// Dead row versions (superseded + tombstoned) dropped.
    pub rows_reclaimed: usize,
    /// Stored bytes released.
    pub bytes_reclaimed: usize,
}

struct SessionState {
    catalog: Catalog,
    config: Arc<EngineConfig>,
    /// Optimized plans of recent `SELECT` shapes (see
    /// [`crate::sql::plan_cache`]).
    plan_cache: PlanCache,
    rules: RwLock<Vec<Arc<dyn OptimizerRule>>>,
    strategies: RwLock<Vec<Arc<dyn PhysicalStrategy>>>,
    /// Session-wide memory budget, present when
    /// `EngineConfig::total_memory_limit` is set; shared by every query.
    governor: Option<Arc<MemoryGovernor>>,
    /// Installed durability layer, if any (see [`DurabilityHook`]).
    durability: RwLock<Option<Arc<dyn DurabilityHook>>>,
    /// Installed DDL table factory, if any (see [`TableFactory`]).
    table_factory: RwLock<Option<Arc<dyn TableFactory>>>,
    /// Installed materialized-view subsystem, if any (see [`ViewsHook`]).
    views: RwLock<Option<Arc<dyn ViewsHook>>>,
    /// Installed compaction subsystem, if any (see [`CompactHook`]).
    compact: RwLock<Option<Arc<dyn CompactHook>>>,
}

/// A query session. Cheap to clone (shared state).
#[derive(Clone)]
pub struct Session {
    state: Arc<SessionState>,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// Session with default configuration.
    pub fn new() -> Self {
        Self::with_config(EngineConfig::default())
    }

    /// Session with explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        let governor = config.total_memory_limit.map(MemoryGovernor::new);
        Session {
            state: Arc::new(SessionState {
                catalog: Catalog::new(),
                config: Arc::new(config),
                plan_cache: PlanCache::default(),
                rules: RwLock::new(Vec::new()),
                strategies: RwLock::new(Vec::new()),
                governor,
                durability: RwLock::new(None),
                table_factory: RwLock::new(None),
                views: RwLock::new(None),
                compact: RwLock::new(None),
            }),
        }
    }

    /// The session-wide memory governor, if `total_memory_limit` is set.
    pub fn memory_governor(&self) -> Option<Arc<MemoryGovernor>> {
        self.state.governor.clone()
    }

    /// A fresh [`QueryContext`] carrying the session's configured limits
    /// (per-query memory cap, global governor; no deadline). Hold a clone
    /// to cancel the query from another thread while it runs via
    /// `DataFrame::collect_ctx`.
    pub fn new_query(&self) -> Arc<QueryContext> {
        self.query_builder().build()
    }

    /// A fresh [`QueryContext`] with the session's limits plus a deadline
    /// of `timeout` from now.
    pub fn new_query_with_timeout(&self, timeout: std::time::Duration) -> Arc<QueryContext> {
        self.query_builder().timeout(timeout).build()
    }

    fn query_builder(&self) -> QueryContextBuilder {
        let mut builder = QueryContext::builder();
        if let Some(limit) = self.state.config.query_memory_limit {
            builder = builder.memory_limit(limit);
        }
        if let Some(governor) = &self.state.governor {
            builder = builder.governor(Arc::clone(governor));
        }
        builder
    }

    /// The session configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.state.config
    }

    /// The session configuration, shared (what per-query contexts hold).
    pub(crate) fn shared_config(&self) -> Arc<EngineConfig> {
        Arc::clone(&self.state.config)
    }

    pub(crate) fn plan_cache(&self) -> &PlanCache {
        &self.state.plan_cache
    }

    /// Plans resident in the session's plan cache (at most
    /// [`crate::sql::PLAN_CACHE_CAPACITY`]).
    pub fn plan_cache_len(&self) -> usize {
        self.state.plan_cache.len()
    }

    /// The table catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.state.catalog
    }

    /// Register a table source under `name`, replacing any existing
    /// registration. Library code re-registering a known table uses this;
    /// DDL must use [`Session::register_table_new`] so racing creates
    /// cannot silently overwrite each other.
    pub fn register_table(&self, name: impl Into<String>, table: Arc<dyn TableSource>) {
        self.state.catalog.register(name, table);
    }

    /// Atomically register a table source under `name` only if the name is
    /// free. The vacancy check and the insert happen under one catalog
    /// write lock: of two racing registrations exactly one wins and the
    /// loser gets [`crate::error::EngineError::TableAlreadyExists`].
    pub fn register_table_new(
        &self,
        name: impl Into<String>,
        table: Arc<dyn TableSource>,
    ) -> Result<()> {
        self.state.catalog.register_new(name, table)
    }

    /// Install the factory SQL `CREATE TABLE` mints table sources with
    /// (e.g. `idf-core`'s indexed tables); replaces any previous factory.
    pub fn set_table_factory(&self, factory: Arc<dyn TableFactory>) {
        *self.state.table_factory.write() = Some(factory);
    }

    /// Create and atomically register an empty appendable table — the SQL
    /// `CREATE TABLE` path. The source comes from the installed
    /// [`TableFactory`], or the engine's [`crate::catalog::AppendTable`]
    /// when none is installed. Errors with
    /// [`crate::error::EngineError::TableAlreadyExists`] if `name` is
    /// taken; a racing duplicate create never overwrites the winner.
    pub fn create_table(&self, name: &str, schema: SchemaRef) -> Result<()> {
        let factory = self.state.table_factory.read().clone();
        let source: Arc<dyn TableSource> = match factory {
            Some(f) => f.create(name, Arc::clone(&schema))?,
            None => Arc::new(crate::catalog::AppendTable::new(schema)),
        };
        self.state.catalog.register_new(name, source)
    }

    /// Drop the table registered under `name` — the SQL `DROP TABLE` path.
    /// Errors with [`crate::error::EngineError::TableNotFound`] when no
    /// such table exists. In-flight scans keep the source alive via their
    /// `Arc` and finish with the rows they saw.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        match self.state.catalog.deregister(name) {
            Some(_) => Ok(()),
            None => Err(crate::error::EngineError::TableNotFound(name.to_string())),
        }
    }

    /// Register an extra logical optimizer rule (runs after the built-ins).
    ///
    /// This is the extension point libraries use — the analogue of
    /// injecting rules into Catalyst's `extraOptimizations`.
    ///
    /// Rules see the plans the plan cache keeps, in which a literal may
    /// be an [`crate::expr::Expr::Param`]: treat it as an opaque non-null
    /// constant of its `data_type` (see DESIGN.md, "Served read fast
    /// path"). Registering a rule discards every cached plan.
    pub fn register_rule(&self, rule: Arc<dyn OptimizerRule>) {
        self.state.rules.write().push(rule);
        self.state.catalog.bump_generation();
    }

    /// Register a physical planning strategy (consulted before built-ins).
    ///
    /// The analogue of Catalyst's `extraStrategies` — this is how the
    /// Indexed DataFrame injects its indexed join/lookup operators.
    /// Registering a strategy with a name that is already present is a
    /// no-op, so libraries can register idempotently.
    pub fn register_strategy(&self, strategy: Arc<dyn PhysicalStrategy>) {
        let mut strategies = self.state.strategies.write();
        if strategies.iter().any(|s| s.name() == strategy.name()) {
            return;
        }
        strategies.push(strategy);
        self.state.catalog.bump_generation();
    }

    /// Names of the registered strategies, in consultation order.
    pub fn strategy_names(&self) -> Vec<String> {
        self.state
            .strategies
            .read()
            .iter()
            .map(|s| s.name().to_string())
            .collect()
    }

    /// A DataFrame scanning a registered table.
    pub fn table(&self, name: &str) -> Result<DataFrame> {
        let source = self.state.catalog.get(name)?;
        let schema = Arc::new(source.schema().qualified(name));
        Ok(DataFrame::new(
            self.clone(),
            LogicalPlan::Scan {
                table: name.to_string(),
                source,
                schema,
                projection: None,
                filters: vec![],
            },
        ))
    }

    /// A DataFrame over literal rows.
    pub fn create_dataframe(&self, schema: SchemaRef, rows: Vec<Vec<Value>>) -> DataFrame {
        DataFrame::new(self.clone(), LogicalPlan::Values { schema, rows })
    }

    /// A DataFrame over an existing chunk (single partition).
    pub fn dataframe_from_chunk(&self, schema: SchemaRef, chunk: Chunk) -> DataFrame {
        let source = Arc::new(MemTable::from_chunk(Arc::clone(&schema), chunk));
        DataFrame::new(
            self.clone(),
            LogicalPlan::Scan {
                table: "inline".to_string(),
                source,
                schema,
                projection: None,
                filters: vec![],
            },
        )
    }

    /// Parse and bind a SQL query into a DataFrame.
    pub fn sql(&self, query: &str) -> Result<DataFrame> {
        crate::sql::plan_sql(self, query)
    }

    /// Install the durability layer that `CHECKPOINT` dispatches to.
    /// Called by `idf-durable` when a session is opened with a data
    /// directory; replaces any previously installed hook.
    pub fn set_durability_hook(&self, hook: Arc<dyn DurabilityHook>) {
        *self.state.durability.write() = Some(hook);
    }

    /// Checkpoint `table` (or every durable table when `None`) through the
    /// installed [`DurabilityHook`]; returns the names of the tables
    /// checkpointed. Errors with `Unsupported` when the session has no
    /// durability layer attached.
    pub fn checkpoint(&self, table: Option<&str>) -> Result<Vec<String>> {
        let hook = self.state.durability.read().clone();
        match hook {
            Some(hook) => hook.checkpoint(table),
            None => Err(crate::error::EngineError::Unsupported(
                "CHECKPOINT requires a durable session (no data_dir is configured)".to_string(),
            )),
        }
    }

    /// Scrub `table` (or every durable table when `None`) through the
    /// installed [`DurabilityHook`]; returns one [`ScrubRow`] per
    /// verified target. Errors with `Unsupported` when the session has no
    /// durability layer attached.
    pub fn scrub(&self, table: Option<&str>) -> Result<Vec<ScrubRow>> {
        let hook = self.state.durability.read().clone();
        match hook {
            Some(hook) => hook.scrub(table),
            None => Err(crate::error::EngineError::Unsupported(
                "SCRUB requires a durable session (no data_dir is configured)".to_string(),
            )),
        }
    }

    /// Re-arm writes on `table` (or every durable table when `None`)
    /// through the installed [`DurabilityHook`] after a read-only
    /// degradation; returns the names of the tables resumed. Errors with
    /// `Unsupported` when the session has no durability layer attached.
    pub fn resume_writes(&self, table: Option<&str>) -> Result<Vec<String>> {
        let hook = self.state.durability.read().clone();
        match hook {
            Some(hook) => hook.resume_writes(table),
            None => Err(crate::error::EngineError::Unsupported(
                "resume_writes requires a durable session (no data_dir is configured)".to_string(),
            )),
        }
    }

    /// Install the materialized-view subsystem that
    /// `CREATE/DROP/REFRESH MATERIALIZED VIEW` dispatch to. Called by
    /// `idf-views`; replaces any previously installed hook.
    pub fn set_views_hook(&self, hook: Arc<dyn ViewsHook>) {
        *self.state.views.write() = Some(hook);
    }

    /// Register a materialized view through the installed [`ViewsHook`].
    /// Errors with `Unsupported` when no views subsystem is attached.
    pub fn create_materialized_view(
        &self,
        name: &str,
        query: &crate::sql::SelectStmt,
    ) -> Result<()> {
        let hook = self.state.views.read().clone();
        match hook {
            Some(hook) => hook.create_view(self, name, query),
            None => Err(crate::error::EngineError::Unsupported(
                "CREATE MATERIALIZED VIEW requires the views subsystem (idf-views)".to_string(),
            )),
        }
    }

    /// Drop a materialized view through the installed [`ViewsHook`].
    /// Errors with `Unsupported` when no views subsystem is attached.
    pub fn drop_materialized_view(&self, name: &str) -> Result<()> {
        let hook = self.state.views.read().clone();
        match hook {
            Some(hook) => hook.drop_view(self, name),
            None => Err(crate::error::EngineError::Unsupported(
                "DROP MATERIALIZED VIEW requires the views subsystem (idf-views)".to_string(),
            )),
        }
    }

    /// Recompute a materialized view through the installed [`ViewsHook`].
    /// Errors with `Unsupported` when no views subsystem is attached.
    pub fn refresh_materialized_view(&self, name: &str) -> Result<()> {
        let hook = self.state.views.read().clone();
        match hook {
            Some(hook) => hook.refresh_view(self, name),
            None => Err(crate::error::EngineError::Unsupported(
                "REFRESH MATERIALIZED VIEW requires the views subsystem (idf-views)".to_string(),
            )),
        }
    }

    /// Install the compaction subsystem that `COMPACT` dispatches to.
    /// Called by `idf-compact`; replaces any previously installed hook.
    pub fn set_compact_hook(&self, hook: Arc<dyn CompactHook>) {
        *self.state.compact.write() = Some(hook);
    }

    /// Compact `table` (or every managed table when `None`) through the
    /// installed [`CompactHook`]; returns one [`CompactRow`] per compacted
    /// table. Errors with `Unsupported` when no compaction subsystem is
    /// attached.
    pub fn compact(&self, table: Option<&str>) -> Result<Vec<CompactRow>> {
        let hook = self.state.compact.read().clone();
        match hook {
            Some(hook) => hook.compact(self, table),
            None => Err(crate::error::EngineError::Unsupported(
                "COMPACT requires the compaction subsystem (idf-compact)".to_string(),
            )),
        }
    }

    /// The process-global metrics in Prometheus text exposition format:
    /// storage counters (appends, probes, chain walks), query lifecycle
    /// counters, and latency histograms. Empty string when the `obs`
    /// feature is compiled out.
    pub fn metrics_text(&self) -> String {
        idf_obs::global().prometheus()
    }

    /// Entries currently retained in the global slow-query log (queries
    /// slower than `EngineConfig::slow_query_threshold`), oldest first.
    pub fn slow_queries(&self) -> Vec<idf_obs::SlowQueryEntry> {
        idf_obs::global().slow_queries.entries()
    }

    /// The optimizer for this session (built-ins + registered rules).
    pub fn optimizer(&self) -> Optimizer {
        Optimizer::with_rules(self.state.rules.read().clone())
    }

    /// The planner for this session (registered strategies first).
    pub fn planner(&self) -> Planner {
        Planner::new(self.shared_config(), self.state.strategies.read().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::schema::{Field, Schema};
    use crate::types::DataType;

    fn session_with_table() -> Session {
        let s = Session::new();
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]));
        let chunk = Chunk::from_rows(
            &schema,
            &[
                vec![Value::Int64(1), Value::Utf8("a".into())],
                vec![Value::Int64(2), Value::Utf8("b".into())],
            ],
        )
        .unwrap();
        s.register_table("t", Arc::new(MemTable::from_chunk(schema, chunk)));
        s
    }

    #[test]
    fn table_scan_collects() {
        let s = session_with_table();
        let out = s.table("t").unwrap().collect().unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn table_schema_is_qualified() {
        let s = session_with_table();
        let df = s.table("t").unwrap();
        assert_eq!(df.schema().field(0).qualifier.as_deref(), Some("t"));
    }

    #[test]
    fn missing_table_errors() {
        let s = Session::new();
        assert!(s.table("nope").is_err());
    }

    #[test]
    fn filter_end_to_end() {
        let s = session_with_table();
        let out = s
            .table("t")
            .unwrap()
            .filter(col("id").eq(lit(2i64)))
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.value_at(1, 0), Value::Utf8("b".into()));
    }

    #[test]
    fn checkpoint_without_hook_is_unsupported() {
        let s = Session::new();
        let err = s.checkpoint(None).unwrap_err();
        assert!(matches!(err, crate::error::EngineError::Unsupported(_)));
    }

    #[test]
    fn checkpoint_dispatches_to_installed_hook() {
        struct Recorder;
        impl DurabilityHook for Recorder {
            fn checkpoint(&self, table: Option<&str>) -> Result<Vec<String>> {
                Ok(vec![table.unwrap_or("all").to_string()])
            }
        }
        let s = Session::new();
        s.set_durability_hook(Arc::new(Recorder));
        assert_eq!(s.checkpoint(Some("t")).unwrap(), vec!["t".to_string()]);
        assert_eq!(s.checkpoint(None).unwrap(), vec!["all".to_string()]);
    }

    #[test]
    fn create_and_drop_table() {
        let s = Session::new();
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        s.create_table("t", Arc::clone(&schema)).unwrap();
        assert_eq!(s.table("t").unwrap().collect().unwrap().len(), 0);
        let err = s.create_table("t", Arc::clone(&schema)).unwrap_err();
        assert!(
            matches!(err, crate::error::EngineError::TableAlreadyExists(_)),
            "got {err:?}"
        );
        s.drop_table("t").unwrap();
        assert!(s.table("t").is_err());
        let err = s.drop_table("t").unwrap_err();
        assert!(matches!(err, crate::error::EngineError::TableNotFound(_)));
    }

    #[test]
    fn create_table_dispatches_to_installed_factory() {
        struct Counting(std::sync::atomic::AtomicUsize);
        impl TableFactory for Counting {
            fn create(&self, _name: &str, schema: SchemaRef) -> Result<Arc<dyn TableSource>> {
                self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                Ok(Arc::new(crate::catalog::AppendTable::new(schema)))
            }
        }
        let s = Session::new();
        let factory = Arc::new(Counting(std::sync::atomic::AtomicUsize::new(0)));
        s.set_table_factory(Arc::clone(&factory) as Arc<dyn TableFactory>);
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        s.create_table("t", schema).unwrap();
        assert_eq!(factory.0.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    /// Regression: concurrent `CREATE TABLE` of the same name used to be
    /// check-then-insert with no lock held across the check — both racing
    /// creates could "succeed", one silently overwriting the other's
    /// source. Now exactly one create wins per round and every loser gets
    /// the typed `TableAlreadyExists` error.
    #[test]
    fn concurrent_create_table_has_one_winner() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let s = Session::new();
        for round in 0..16 {
            let name = format!("race_{round}");
            let wins = AtomicUsize::new(0);
            let dupes = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..8 {
                    scope.spawn(|| {
                        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
                        match s.create_table(&name, schema) {
                            Ok(()) => {
                                wins.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(crate::error::EngineError::TableAlreadyExists(t)) => {
                                assert_eq!(t, name);
                                dupes.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(other) => panic!("unexpected error: {other:?}"),
                        }
                    });
                }
            });
            assert_eq!(wins.load(Ordering::SeqCst), 1);
            assert_eq!(dupes.load(Ordering::SeqCst), 7);
        }
    }

    #[test]
    fn create_dataframe_literal_rows() {
        let s = Session::new();
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let df = s.create_dataframe(schema, vec![vec![Value::Int64(9)]]);
        let out = df.collect().unwrap();
        assert_eq!(out.value_at(0, 0), Value::Int64(9));
    }
}
