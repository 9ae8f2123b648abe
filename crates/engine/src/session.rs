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

/// The one seam through which the layers above the engine (which sit
/// *above* it in the dependency graph, so the engine sees only this
/// trait) execute the statements the engine does not own: `CHECKPOINT` /
/// `SCRUB` / `resume_writes` (`idf-durable`), minting `CREATE TABLE`
/// sources (`idf-core`), `CREATE/DROP/REFRESH MATERIALIZED VIEW`
/// (`idf-views`) and `COMPACT` (`idf-compact`).
///
/// Every operation defaults to `Ok(None)` — "not mine". An extension
/// overrides the ones it executes and returns `Ok(Some(answer))` or its
/// error; the session asks its extensions in installation order and the
/// first that does not pass answers the statement. Install with
/// [`Session::install_extension`].
///
/// Methods that need the session take it by reference rather than the
/// extension holding one: an extension that captured a `Session` clone
/// would form an `Arc` cycle (session → extension → session) and never
/// be dropped.
pub trait SessionExtension: Send + Sync {
    /// Stable identity: installing an extension whose name is already
    /// present replaces the earlier one.
    fn name(&self) -> &str;

    /// Checkpoint `table` (or every durable table when `None`); returns
    /// the names of the tables checkpointed.
    fn checkpoint(&self, table: Option<&str>) -> Result<Option<Vec<String>>> {
        let _ = table;
        Ok(None)
    }

    /// Verify the on-disk state of `table` (or every durable table when
    /// `None`): re-walk checkpoint snapshots and WAL segments checking
    /// CRCs, quarantine a corrupt snapshot and fall back to the previous
    /// valid generation. Returns one row per verified target.
    fn scrub(&self, table: Option<&str>) -> Result<Option<Vec<ScrubRow>>> {
        let _ = table;
        Ok(None)
    }

    /// Re-arm the write path of `table` (or every durable table when
    /// `None`) after a read-only degradation: take a fresh checkpoint and
    /// rotate to a new WAL segment so appends are accepted again. Returns
    /// the names of the tables resumed.
    fn resume_writes(&self, table: Option<&str>) -> Result<Option<Vec<String>>> {
        let _ = table;
        Ok(None)
    }

    /// Build an empty, appendable table source with `schema` for a table
    /// that will be registered under `name` (SQL `CREATE TABLE`).
    fn create_table(&self, name: &str, schema: SchemaRef) -> Result<Option<Arc<dyn TableSource>>> {
        let _ = (name, schema);
        Ok(None)
    }

    /// Register a materialized view `name` defined by `query`, seed its
    /// state at a consistent snapshot, and start incremental maintenance.
    fn create_view(
        &self,
        session: &Session,
        name: &str,
        query: &crate::sql::SelectStmt,
    ) -> Result<Option<()>> {
        let _ = (session, name, query);
        Ok(None)
    }

    /// Deregister view `name` and discard its materialized state.
    fn drop_view(&self, session: &Session, name: &str) -> Result<Option<()>> {
        let _ = (session, name);
        Ok(None)
    }

    /// Recompute view `name` from scratch at a consistent snapshot of its
    /// base tables.
    fn refresh_view(&self, session: &Session, name: &str) -> Result<Option<()>> {
        let _ = (session, name);
        Ok(None)
    }

    /// Synchronously compact `table` (or every managed table when `None`):
    /// drop row versions hidden below tombstones, shorten MVCC chains,
    /// release the memory. Returns one row per compacted table.
    fn compact(&self, session: &Session, table: Option<&str>) -> Result<Option<Vec<CompactRow>>> {
        let _ = (session, table);
        Ok(None)
    }
}

/// One scrub finding/verification row, as returned by
/// [`SessionExtension::scrub`] and surfaced by SQL `SCRUB [table]`.
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

/// One table's compaction outcome, as returned by
/// [`SessionExtension::compact`] and surfaced by SQL `COMPACT [table]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactRow {
    /// The compacted table.
    pub table: String,
    /// Dead row versions (superseded + tombstoned) dropped.
    pub rows_reclaimed: usize,
    /// Stored bytes released.
    pub bytes_reclaimed: usize,
}

/// What an unclaimed statement's `Unsupported` error says it requires.
const NEEDS_DURABLE: &str = "a durable session (no data_dir is configured)";
const NEEDS_VIEWS: &str = "the views subsystem (idf-views)";
const NEEDS_COMPACT: &str = "the compaction subsystem (idf-compact)";

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
    /// Installed extensions, in installation order (see
    /// [`SessionExtension`]).
    extensions: RwLock<Vec<Arc<dyn SessionExtension>>>,
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
                extensions: RwLock::new(Vec::new()),
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

    /// Create and atomically register an empty appendable table — the SQL
    /// `CREATE TABLE` path. The source comes from the first installed
    /// extension that mints one ([`SessionExtension::create_table`]), or
    /// is the engine's [`crate::catalog::AppendTable`] when none does.
    /// Errors with [`crate::error::EngineError::TableAlreadyExists`] if
    /// `name` is taken; a racing duplicate create never overwrites the
    /// winner.
    pub fn create_table(&self, name: &str, schema: SchemaRef) -> Result<()> {
        let source = match self.ask(|e| e.create_table(name, Arc::clone(&schema)))? {
            Some(minted) => minted,
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

    /// Install `extension`: from then on the statements it claims
    /// dispatch to it. Installing an extension whose
    /// [`SessionExtension::name`] is already present replaces the earlier
    /// one in place (so a layer can be re-installed with new settings);
    /// otherwise it is consulted after those already installed.
    pub fn install_extension(&self, extension: Arc<dyn SessionExtension>) {
        let mut extensions = self.state.extensions.write();
        match extensions.iter_mut().find(|e| e.name() == extension.name()) {
            Some(slot) => *slot = extension,
            None => extensions.push(extension),
        }
    }

    /// Ask the installed extensions, in order, until one claims the
    /// operation (or fails it). The slot is cloned out first so no session
    /// lock is held while an extension runs (it may call back into the
    /// session).
    fn ask<T>(&self, op: impl Fn(&dyn SessionExtension) -> Result<Option<T>>) -> Result<Option<T>> {
        let extensions = self.state.extensions.read().clone();
        for extension in &extensions {
            if let Some(answer) = op(extension.as_ref())? {
                return Ok(Some(answer));
            }
        }
        Ok(None)
    }

    /// [`Session::ask`] for a statement only an extension can execute:
    /// unclaimed, it is a typed `Unsupported` naming the statement and
    /// the layer (`needs`) that would execute it.
    fn dispatch<T>(
        &self,
        statement: &str,
        needs: &str,
        op: impl Fn(&dyn SessionExtension) -> Result<Option<T>>,
    ) -> Result<T> {
        self.ask(op)?.ok_or_else(|| {
            crate::error::EngineError::Unsupported(format!("{statement} requires {needs}"))
        })
    }

    /// Checkpoint `table` (or every durable table when `None`); returns
    /// the names of the tables checkpointed. `Unsupported` when the
    /// session has no durability layer attached.
    pub fn checkpoint(&self, table: Option<&str>) -> Result<Vec<String>> {
        self.dispatch("CHECKPOINT", NEEDS_DURABLE, |e| e.checkpoint(table))
    }

    /// Scrub `table` (or every durable table when `None`); returns one
    /// [`ScrubRow`] per verified target. `Unsupported` when the session
    /// has no durability layer attached.
    pub fn scrub(&self, table: Option<&str>) -> Result<Vec<ScrubRow>> {
        self.dispatch("SCRUB", NEEDS_DURABLE, |e| e.scrub(table))
    }

    /// Re-arm writes on `table` (or every durable table when `None`)
    /// after a read-only degradation; returns the names of the tables
    /// resumed. `Unsupported` when the session has no durability layer
    /// attached.
    pub fn resume_writes(&self, table: Option<&str>) -> Result<Vec<String>> {
        self.dispatch("resume_writes", NEEDS_DURABLE, |e| e.resume_writes(table))
    }

    /// Register a materialized view. `Unsupported` when no views
    /// subsystem is attached.
    pub fn create_materialized_view(
        &self,
        name: &str,
        query: &crate::sql::SelectStmt,
    ) -> Result<()> {
        self.dispatch("CREATE MATERIALIZED VIEW", NEEDS_VIEWS, |e| {
            e.create_view(self, name, query)
        })
    }

    /// Drop a materialized view. `Unsupported` when no views subsystem is
    /// attached.
    pub fn drop_materialized_view(&self, name: &str) -> Result<()> {
        self.dispatch("DROP MATERIALIZED VIEW", NEEDS_VIEWS, |e| {
            e.drop_view(self, name)
        })
    }

    /// Recompute a materialized view. `Unsupported` when no views
    /// subsystem is attached.
    pub fn refresh_materialized_view(&self, name: &str) -> Result<()> {
        self.dispatch("REFRESH MATERIALIZED VIEW", NEEDS_VIEWS, |e| {
            e.refresh_view(self, name)
        })
    }

    /// Compact `table` (or every managed table when `None`); returns one
    /// [`CompactRow`] per compacted table. `Unsupported` when no
    /// compaction subsystem is attached.
    pub fn compact(&self, table: Option<&str>) -> Result<Vec<CompactRow>> {
        self.dispatch("COMPACT", NEEDS_COMPACT, |e| e.compact(self, table))
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

    /// Every statement only an extension can execute is, on a bare
    /// session, a typed `Unsupported` that names the statement.
    #[test]
    fn bare_session_rejects_extension_statements_by_name() {
        let s = Session::new();
        let query = match crate::sql::parse_statement("SELECT x FROM t").unwrap() {
            crate::sql::Statement::Select(q) => q,
            other => panic!("expected a SELECT, got {other:?}"),
        };
        let rejected = [
            ("CHECKPOINT", s.checkpoint(None).err()),
            ("SCRUB", s.scrub(None).err()),
            ("resume_writes", s.resume_writes(Some("t")).err()),
            (
                "CREATE MATERIALIZED VIEW",
                s.create_materialized_view("v", &query).err(),
            ),
            (
                "DROP MATERIALIZED VIEW",
                s.drop_materialized_view("v").err(),
            ),
            (
                "REFRESH MATERIALIZED VIEW",
                s.refresh_materialized_view("v").err(),
            ),
            ("COMPACT", s.compact(None).err()),
        ];
        for (statement, err) in rejected {
            match err {
                Some(crate::error::EngineError::Unsupported(msg)) => {
                    assert!(msg.starts_with(statement), "{statement}: {msg}")
                }
                other => panic!("{statement}: expected Unsupported, got {other:?}"),
            }
        }
        // The eighth operation has an engine-owned fallback instead:
        // `create_table` without a minting extension is a plain table.
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        s.create_table("plain", schema).unwrap();
        assert!(s.table("plain").is_ok());
    }

    /// Claims `CHECKPOINT` only, answering with its own tag.
    struct Checkpointer(&'static str, &'static str);
    impl SessionExtension for Checkpointer {
        fn name(&self) -> &str {
            self.0
        }
        fn checkpoint(&self, table: Option<&str>) -> Result<Option<Vec<String>>> {
            Ok(Some(vec![format!("{}:{}", self.1, table.unwrap_or("all"))]))
        }
    }

    /// Claims `CREATE TABLE` and `COMPACT`, counting the tables it mints.
    struct Minter(std::sync::atomic::AtomicUsize);
    impl SessionExtension for Minter {
        fn name(&self) -> &str {
            "minter"
        }
        fn create_table(
            &self,
            _name: &str,
            schema: SchemaRef,
        ) -> Result<Option<Arc<dyn TableSource>>> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(Some(Arc::new(crate::catalog::AppendTable::new(schema))))
        }
        fn compact(&self, _s: &Session, table: Option<&str>) -> Result<Option<Vec<CompactRow>>> {
            Ok(Some(vec![CompactRow {
                table: table.unwrap_or("all").to_string(),
                rows_reclaimed: 0,
                bytes_reclaimed: 0,
            }]))
        }
    }

    #[test]
    fn each_statement_reaches_the_extension_that_claims_it() {
        let s = Session::new();
        let minter = Arc::new(Minter(std::sync::atomic::AtomicUsize::new(0)));
        s.install_extension(Arc::clone(&minter) as Arc<dyn SessionExtension>);
        s.install_extension(Arc::new(Checkpointer("durable", "a")));

        assert_eq!(s.checkpoint(Some("t")).unwrap(), ["a:t"]);
        assert_eq!(s.checkpoint(None).unwrap(), ["a:all"]);
        assert_eq!(s.compact(Some("t")).unwrap()[0].table, "t");
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        s.create_table("t", schema).unwrap();
        assert_eq!(minter.0.load(std::sync::atomic::Ordering::SeqCst), 1);
        // Neither claims SCRUB: still the typed rejection.
        assert!(matches!(
            s.scrub(None),
            Err(crate::error::EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn reinstalling_a_name_replaces_instead_of_stacking() {
        let s = Session::new();
        s.install_extension(Arc::new(Checkpointer("durable", "first")));
        s.install_extension(Arc::new(Checkpointer("other", "other")));
        // The first-installed extension answers…
        assert_eq!(s.checkpoint(None).unwrap(), ["first:all"]);
        // …and installing its name again takes over that slot, rather than
        // queueing behind the two already installed.
        s.install_extension(Arc::new(Checkpointer("durable", "second")));
        assert_eq!(s.checkpoint(None).unwrap(), ["second:all"]);
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
