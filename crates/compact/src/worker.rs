//! The compaction subsystem: registry, policy survey, bounded
//! background worker, and the SQL `COMPACT` session extension. See the
//! crate docs for the design.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use idf_core::partition::PartitionMemory;
use idf_core::source::IndexedSource;
use idf_core::table::IndexedTable;
use idf_engine::error::{catch_panics, EngineError, Result};
use idf_engine::session::{CompactRow, Session, SessionExtension};

use crate::failpoints;
use crate::CompactConfig;

/// Poison-tolerant lock: compaction state stays usable after a panicked
/// holder (the worker contains the panic and counts it as a failed
/// cycle, see [`worker_entry`]).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The background compactor. Holds its own registry of table handles
/// (the background worker has no session to discover tables through);
/// the SQL `COMPACT` path additionally discovers indexed tables from
/// the session catalog, so DDL-created tables need no registration.
pub struct Compactor {
    config: CompactConfig,
    /// Registered tables the background policy surveys.
    tables: Mutex<HashMap<String, Arc<IndexedTable>>>,
    /// The background worker handle, present while started.
    worker: Mutex<Option<JoinHandle<()>>>,
    /// Start/stop idempotency latch: `start` wins it by compare-exchange
    /// (so the spawn happens with no lock held), `stop` releases it after
    /// joining.
    running: AtomicBool,
    /// Pairs with `wake_cv` for the worker's interruptible interval wait.
    wake: Mutex<()>,
    wake_cv: Condvar,
    shutdown: AtomicBool,
    /// Completed survey cycles (tests wait on this for progress).
    cycles_done: AtomicU64,
}

impl Compactor {
    /// New compactor with `config` (bounds normalized), worker not yet
    /// started.
    pub fn new(config: CompactConfig) -> Arc<Compactor> {
        let mut config = config;
        config.max_tables_per_cycle = config.max_tables_per_cycle.max(1);
        config.interval = config.interval.max(std::time::Duration::from_millis(1));
        Arc::new(Compactor {
            config,
            tables: Mutex::new(HashMap::new()),
            worker: Mutex::new(None),
            running: AtomicBool::new(false),
            wake: Mutex::new(()),
            wake_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cycles_done: AtomicU64::new(0),
        })
    }

    /// Put `table` under background management as `name` (replacing any
    /// previous handle under that name).
    pub fn register(&self, name: &str, table: Arc<IndexedTable>) {
        lock(&self.tables).insert(name.to_string(), table);
    }

    /// Remove `name` from background management. In-flight rewrites of
    /// the table finish normally.
    pub fn deregister(&self, name: &str) {
        lock(&self.tables).remove(name);
    }

    /// Names currently under background management, sorted.
    pub fn registered(&self) -> Vec<String> {
        let mut names: Vec<String> = lock(&self.tables).keys().cloned().collect();
        names.sort();
        names
    }

    /// Completed background survey cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles_done.load(Ordering::SeqCst)
    }

    /// Start the bounded background worker (idempotent while running):
    /// every [`CompactConfig::interval`] it surveys the registry and
    /// rewrites at most [`CompactConfig::max_tables_per_cycle`] eligible
    /// tables. The worker holds the compactor only weakly, so dropping
    /// every external handle also winds the thread down.
    pub fn start(self: &Arc<Self>) {
        if self
            .running
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        self.shutdown.store(false, Ordering::SeqCst);
        let me = Arc::downgrade(self);
        let handle = std::thread::Builder::new()
            .name("idf-compact".to_string())
            .spawn(move || worker_entry(me))
            .expect("spawn compaction worker");
        *lock(&self.worker) = Some(handle);
    }

    /// Stop the background worker and wait for it to exit. Idempotent;
    /// [`Compactor::start`] re-arms after a stop.
    pub fn stop(&self) {
        {
            let _wake = lock(&self.wake);
            self.shutdown.store(true, Ordering::SeqCst);
            self.wake_cv.notify_all();
        }
        let handle = lock(&self.worker).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        self.running.store(false, Ordering::SeqCst);
    }

    /// One policy-driven survey cycle over the registered tables: update
    /// the tombstone/dead-row gauges, pick up to
    /// [`CompactConfig::max_tables_per_cycle`] eligible tables (most
    /// dead versions first), rewrite them. Returns one row per rewrite;
    /// an ineligible registry yields an empty report.
    pub fn run_once(&self) -> Result<Vec<CompactRow>> {
        if let Err(e) = failpoints::check(failpoints::COMPACT_SELECT) {
            idf_obs::global().compaction_failures.inc();
            return Err(e);
        }
        let targets = self.survey_targets();
        let chain_p99 = idf_obs::global().chain_walk.percentile(99.0);
        let mut eligible: Vec<(usize, String, Arc<IndexedTable>)> = Vec::new();
        let (mut tombstones, mut dead_rows) = (0i64, 0i64);
        for (name, table) in targets {
            let mem = table.memory_stats();
            tombstones += mem.tombstones as i64;
            dead_rows += mem.dead_rows as i64;
            if self.eligible(&mem, chain_p99) {
                eligible.push((mem.tombstones + mem.dead_rows, name, table));
            }
        }
        let m = idf_obs::global();
        m.tombstones_live.set(tombstones);
        m.dead_rows_live.set(dead_rows);
        eligible.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        eligible.truncate(self.config.max_tables_per_cycle);
        let mut rows = Vec::with_capacity(eligible.len());
        for (_, name, table) in eligible {
            rows.push(self.rewrite(&name, &table)?);
        }
        Ok(rows)
    }

    /// Snapshot of the registry, sorted by name; the guard is released
    /// before any rewrite work starts.
    fn survey_targets(&self) -> Vec<(String, Arc<IndexedTable>)> {
        let mut out: Vec<(String, Arc<IndexedTable>)> = lock(&self.tables)
            .iter()
            .map(|(n, t)| (n.clone(), Arc::clone(t)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Background eligibility policy. `dead_rows == 0` is never eligible
    /// — a table of bare delete sentinels has nothing a rewrite could
    /// reclaim, and rewriting it every cycle would burn CPU for nothing.
    fn eligible(&self, mem: &PartitionMemory, chain_p99: u64) -> bool {
        if mem.dead_rows == 0 {
            return false;
        }
        let dead = mem.tombstones + mem.dead_rows;
        if dead < self.config.min_dead_rows {
            return false;
        }
        let ratio = dead as f64 / mem.rows.max(1) as f64;
        ratio >= self.config.min_dead_ratio || chain_p99 >= self.config.chain_walk_p99_trigger
    }

    /// Rewrite one table, recording the compaction metrics. The swap
    /// failpoint is injected through `compact_with`'s pre-swap hook, so
    /// a fault there exercises the abandon-rebuilt-state path.
    fn rewrite(&self, name: &str, table: &IndexedTable) -> Result<CompactRow> {
        if let Err(e) = failpoints::check(failpoints::COMPACT_REWRITE) {
            idf_obs::global().compaction_failures.inc();
            return Err(e);
        }
        let start = Instant::now();
        let stats = match table.compact_with(&|| failpoints::check(failpoints::COMPACT_SWAP)) {
            Ok(stats) => stats,
            Err(e) => {
                idf_obs::global().compaction_failures.inc();
                return Err(e);
            }
        };
        let m = idf_obs::global();
        m.compaction_runs.inc();
        m.compaction_batches_rewritten
            .add(stats.batches_before as u64);
        m.compaction_rows_reclaimed
            .add(stats.rows_reclaimed() as u64);
        m.compaction_bytes_reclaimed
            .add(stats.bytes_reclaimed() as u64);
        m.compaction_duration_ns
            .record(start.elapsed().as_nanos() as u64);
        let mem = table.memory_stats();
        m.post_compaction_chain_walk
            .record((mem.rows / mem.index_entries.max(1)) as u64);
        Ok(CompactRow {
            table: name.to_string(),
            rows_reclaimed: stats.rows_reclaimed(),
            bytes_reclaimed: stats.bytes_reclaimed(),
        })
    }

    /// Resolve the tables SQL `COMPACT [table]` addresses: catalog
    /// sources that are live indexed tables (by downcast), plus
    /// registered handles the catalog does not know. A named target
    /// that resolves to nothing is an error.
    fn resolve(
        &self,
        session: &Session,
        filter: Option<&str>,
    ) -> Result<Vec<(String, Arc<IndexedTable>)>> {
        match filter {
            Some(name) => {
                if let Some(table) = catalog_indexed(session, name) {
                    return Ok(vec![(name.to_string(), table)]);
                }
                if let Some(table) = lock(&self.tables).get(name).map(Arc::clone) {
                    return Ok(vec![(name.to_string(), table)]);
                }
                Err(EngineError::Unsupported(format!(
                    "COMPACT {name}: not a live indexed table"
                )))
            }
            None => {
                let mut out: Vec<(String, Arc<IndexedTable>)> = Vec::new();
                for name in session.catalog().table_names() {
                    if let Some(table) = catalog_indexed(session, &name) {
                        out.push((name, table));
                    }
                }
                for (name, table) in lock(&self.tables).iter() {
                    if !out.iter().any(|(n, _)| n == name) {
                        out.push((name.clone(), Arc::clone(table)));
                    }
                }
                out.sort_by(|a, b| a.0.cmp(&b.0));
                Ok(out)
            }
        }
    }
}

impl SessionExtension for Compactor {
    fn name(&self) -> &str {
        "compact"
    }

    /// Manual trigger: rewrite unconditionally (no eligibility policy —
    /// the user asked), then refresh the survey gauges.
    fn compact(&self, session: &Session, table: Option<&str>) -> Result<Option<Vec<CompactRow>>> {
        let targets = self.resolve(session, table)?;
        let mut rows = Vec::with_capacity(targets.len());
        for (name, table) in &targets {
            rows.push(self.rewrite(name, table)?);
        }
        let m = idf_obs::global();
        let (mut tombstones, mut dead_rows) = (0i64, 0i64);
        for (_, table) in &targets {
            let mem = table.memory_stats();
            tombstones += mem.tombstones as i64;
            dead_rows += mem.dead_rows as i64;
        }
        m.tombstones_live.set(tombstones);
        m.dead_rows_live.set(dead_rows);
        Ok(Some(rows))
    }
}

/// `name` in the session catalog, when it is a live (non-frozen)
/// indexed source.
fn catalog_indexed(session: &Session, name: &str) -> Option<Arc<IndexedTable>> {
    let source = session.catalog().get(name).ok()?;
    let indexed = source.as_any().downcast_ref::<IndexedSource>()?;
    if indexed.is_frozen() {
        return None;
    }
    Some(Arc::clone(indexed.table()))
}

/// Background worker: interruptible interval wait, then one survey
/// cycle. Holds the compactor weakly so dropping every external handle
/// winds the thread down at the next tick. Neither an injected fault
/// nor a panic inside the cycle kills the worker: both fail that cycle
/// (counted in `compaction_failures`) and the loop goes on — a dead
/// worker would leave `running` set, so `start()` could never revive it.
fn worker_entry(me: Weak<Compactor>) {
    loop {
        let Some(compactor) = me.upgrade() else {
            return;
        };
        if compactor.shutdown.load(Ordering::SeqCst) {
            return;
        }
        {
            let guard = lock(&compactor.wake);
            let _unused = compactor
                .wake_cv
                .wait_timeout(guard, compactor.config.interval)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if compactor.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let contained = catch_panics(|| {
            // `run_once` counts the failures it returns.
            let _ = compactor.run_once();
            Ok(())
        });
        if contained.is_err() {
            // A panic unwound past that accounting.
            idf_obs::global().compaction_failures.inc();
        }
        compactor.cycles_done.fetch_add(1, Ordering::SeqCst);
    }
}
