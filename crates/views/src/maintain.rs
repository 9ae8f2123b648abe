//! Incremental maintenance: delta capture at the commit point, the
//! bounded maintenance queue, the gate/quiesce protocol that makes view
//! creation and refresh snapshot-consistent, and the per-operator delta
//! application rules (DESIGN.md §13).
//!
//! # Delta capture
//!
//! Each base table gets one [`TapState`] whose [`DeltaTap`] is composed
//! onto the table's append sink (after the WAL, so a rejected commit is
//! never observed). The tap captures the committed row payloads at the
//! commit point and, when the append publishes to memory, enqueues them
//! as one [`Delta`] on a bounded queue — a full queue blocks the append
//! path, which is the backpressure policy. One tap serves every view
//! over the table: a single delta pass fans out to all maintainers.
//!
//! # Consistent seeding (gates + quiesce)
//!
//! `CREATE`/`REFRESH` must compute a base snapshot that lines up exactly
//! with the delta stream: every commit is either in the snapshot or will
//! arrive as a delta, never both, never neither. The protocol:
//!
//! 1. close the gates of every base table (new commits park at the gate);
//! 2. quiesce: drain the queue and wait until each gate shows
//!    `inflight == 0` (every tap-captured commit has enqueued) and
//!    `commit_window() == waiting` (every append inside the table's
//!    commit window is one parked at our gate — this waits out commits
//!    that raced the tap install and would otherwise publish unseen);
//! 3. seed from the now-stable base, register the view, reopen.
//!
//! Gates close in sorted name order, and all DDL serializes on the
//! apply lock, so two concurrent creates cannot deadlock.
//!
//! # Exactly-once application
//!
//! The failpoint check and the delta-output computation run *before* any
//! view state is mutated, so a fault there is retried without
//! double-applying. Mutations themselves are infallible in-memory swaps
//! (`ViewSource::append_chunk`/`replace`, group-map replacement) — the
//! only fallible mutation is an arrangement append, whose failure marks
//! the arrangement (and its dependent views) stale rather than retrying;
//! `REFRESH` rebuilds stale state from the base.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError, Weak};
use std::time::Instant;

use idf_core::config::IndexConfig;
use idf_core::layout::RowLayout;
use idf_core::sink::{AppendSink, CommitGuard, NoopCommitGuard, RowKind};
use idf_core::source::IndexedSource;
use idf_core::strategy::IndexedJoinStrategy;
use idf_core::table::IndexedTable;
use idf_engine::catalog::{MemTable, TableSource};
use idf_engine::chunk::Chunk;
use idf_engine::error::{catch_panics, EngineError, Result};
use idf_engine::schema::{Field, Schema, SchemaRef};
use idf_engine::session::Session;
use idf_engine::sql::{binder, SelectStmt};
use idf_engine::types::{DataType, Value};

use crate::def::{classify, AccKind, AggDef, OutCol, ViewKind};
use crate::state::ViewSource;
use crate::{failpoints, MaintenanceMode, ViewsConfig};

/// Retry budget for retryable (pre-mutation) apply faults before the
/// view is declared stale. High enough to ride out any seeded fault
/// storm the chaos suite configures.
const MAX_APPLY_RETRIES: usize = 10_000;

/// Deltas the queue holds before an append blocks on it (backpressure).
const QUEUE_CAPACITY: usize = 64;

/// Lock a std mutex, recovering the guard if a panicking holder poisoned
/// it (injected panics unwind through these locks under chaos).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One committed append, captured at the commit point.
struct Delta {
    /// Catalog name of the base table the commit landed on.
    table: String,
    /// Encoded row payloads, in publish order. Empty for DML barriers.
    payloads: Vec<Vec<u8>>,
    /// Commit time, for the maintenance-lag histogram (`Some` only when
    /// the `obs` feature is compiled in).
    created: Option<Instant>,
    /// A tombstone-carrying DML statement committed on the table. Its
    /// effect cannot be replayed as an append-only delta, so instead of
    /// payloads to apply this delta is a barrier: every dependent view
    /// (and every arrangement over the table) goes stale, and `REFRESH`
    /// rebuilds from the post-DML base. Riding the ordinary queue keeps
    /// the gate/quiesce accounting exact — a seed either predates the
    /// DML commit or sees its staleness, never a half-applied mix.
    dml: bool,
}

/// Gate state of one base table's tap.
struct Gate {
    /// Closed while a CREATE/REFRESH over this table seeds; new commits
    /// park at the gate until it reopens.
    closed: bool,
    /// Commits the tap has captured whose append has not yet published
    /// (their deltas may not be enqueued yet).
    inflight: usize,
    /// Appends currently parked at the closed gate. Each holds the
    /// table's commit window, so quiesce compares `commit_window()`
    /// against this count.
    waiting: usize,
}

/// Per-base-table delta-capture state, shared by every view over the
/// table.
struct TapState {
    /// Catalog name of the base table.
    name: String,
    /// The base table itself (payload decode, commit-window polling).
    table: Arc<IndexedTable>,
    /// Gate state.
    gate: Mutex<Gate>,
    /// Signals gate reopen (parked appenders) and inflight changes
    /// (quiesce pollers).
    cv: Condvar,
    /// Number of registered views over this table. Zero means the tap
    /// fast-paths to a no-op guard and captures nothing.
    active_views: AtomicUsize,
}

/// The append-sink tap installed on a base table. Holds the shared state
/// weakly so a dropped views subsystem degrades to a no-op tap instead
/// of keeping the whole machinery alive.
struct DeltaTap {
    tap: Arc<TapState>,
    shared: Weak<Shared>,
}

impl AppendSink for DeltaTap {
    /// An all-`Data` statement is an ordinary append delta; a
    /// tombstone-carrying UPDATE/DELETE commit is captured as a DML
    /// barrier instead (see [`Delta::dml`]) — append-only delta rules
    /// cannot retract rows, so dependent views go stale rather than
    /// silently double-applying survivor re-appends.
    fn begin_commit(&self, rows: &[&[u8]], kinds: &[RowKind]) -> Result<Box<dyn CommitGuard>> {
        self.capture(rows, kinds.contains(&RowKind::Tombstone))
    }
}

impl DeltaTap {
    /// Shared capture path: park at the gate, count the commit in-flight,
    /// and hand back the guard whose drop enqueues the delta.
    fn capture(&self, rows: &[&[u8]], dml: bool) -> Result<Box<dyn CommitGuard>> {
        let Some(shared) = self.shared.upgrade() else {
            return Ok(Box::new(NoopCommitGuard));
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(Box::new(NoopCommitGuard));
        }
        let mut gate = lock(&self.tap.gate);
        while gate.closed {
            gate.waiting += 1;
            gate = self
                .tap
                .cv
                .wait(gate)
                .unwrap_or_else(PoisonError::into_inner);
            gate.waiting -= 1;
            if shared.shutdown.load(Ordering::SeqCst) {
                return Ok(Box::new(NoopCommitGuard));
            }
        }
        // Checked under the gate lock so it serializes against a CREATE
        // (which closes the gate before registering): either this commit
        // sees the view and captures a delta, or it predates the gate
        // close and the seed waits it out via the commit window.
        if self.tap.active_views.load(Ordering::SeqCst) == 0 {
            return Ok(Box::new(NoopCommitGuard));
        }
        gate.inflight += 1;
        drop(gate);
        let created = idf_obs::enabled().then(Instant::now);
        Ok(Box::new(TapGuard {
            tap: Arc::clone(&self.tap),
            shared,
            // A DML barrier carries no payloads — nothing is applied,
            // only staleness is propagated.
            payloads: if dml {
                Vec::new()
            } else {
                rows.iter().map(|r| r.to_vec()).collect()
            },
            created,
            dml,
        }))
    }
}

/// In-flight commit marker: dropped by the append path once the rows are
/// published to memory, at which point the delta is enqueued (so a
/// quiesced seed never misses a published commit).
struct TapGuard {
    tap: Arc<TapState>,
    shared: Arc<Shared>,
    payloads: Vec<Vec<u8>>,
    created: Option<Instant>,
    /// Tombstone-carrying commit: enqueue a staleness barrier, not rows.
    dml: bool,
}

impl CommitGuard for TapGuard {}

impl Drop for TapGuard {
    fn drop(&mut self) {
        // Enqueue BEFORE decrementing inflight: once a quiescer observes
        // `inflight == 0`, every captured commit's delta is in the queue.
        self.shared.enqueue(Delta {
            table: self.tap.name.clone(),
            payloads: std::mem::take(&mut self.payloads),
            created: self.created.take(),
            dml: self.dml,
        });
        {
            let mut gate = lock(&self.tap.gate);
            gate.inflight -= 1;
        }
        // Notify after unlock: `inflight` was decremented under `gate` above.
        self.tap.cv.notify_all();
        if self.shared.config.mode == MaintenanceMode::Sync {
            // Non-blocking drain: if DDL (or another drainer) holds the
            // apply lock it will drain the whole queue itself before
            // releasing, and every drainer re-checks the queue after
            // releasing, so no delta is ever stranded.
            self.shared.drain_pending(false);
        }
    }
}

/// A keyed copy of one base table, shared by every join view that probes
/// the table on the same key (one arrangement per `(table, key)`).
struct Arrangement {
    /// The indexed copy, keyed on the join column.
    table: Arc<IndexedTable>,
    /// Set when a delta append into the arrangement failed partway — its
    /// contents can no longer be trusted and dependent views go stale.
    stale: AtomicBool,
}

/// Per-view maintenance state, guarded by the view's `maint` mutex.
enum Maint {
    /// π(σ(T)): a private session the delta chunk is bound in.
    FilterProject {
        /// Private binding session (base name → delta chunk).
        sess: Session,
    },
    /// γ(σ(T)): persistent per-group accumulators.
    Aggregate {
        /// Private binding session for the partial query over a delta.
        sess: Session,
        /// Group key → accumulators. A `BTreeMap` so rebuilds are
        /// deterministic.
        groups: BTreeMap<Vec<Value>, Vec<Acc>>,
    },
    /// A ⋈ B: private session with the indexed-join strategy, probing
    /// the other side's arrangement with each delta.
    Join {
        /// Private binding session (delta side → chunk, probe side →
        /// arrangement).
        sess: Session,
        /// Arrangement of the FROM side.
        left: Arc<Arrangement>,
        /// Arrangement of the JOIN side.
        right: Arc<Arrangement>,
    },
}

/// One accumulator of one group of an aggregate view.
#[derive(Clone)]
enum Acc {
    /// Running count.
    Count(i64),
    /// Running sum (`Null` until the first non-null input).
    Sum(Value),
    /// Running minimum (nulls skipped).
    Min(Value),
    /// Running maximum (nulls skipped).
    Max(Value),
    /// avg as sum + count.
    Avg {
        /// Running sum.
        sum: Value,
        /// Count of non-null inputs.
        count: i64,
    },
}

/// One registered materialized view.
struct ViewEntry {
    /// View name (catalog registration).
    name: String,
    /// The defining query.
    stmt: SelectStmt,
    /// Classification + delta plan.
    kind: ViewKind,
    /// Output schema (qualifiers stripped).
    out_schema: SchemaRef,
    /// The materialized state registered in the catalog.
    source: Arc<ViewSource>,
    /// Maintenance state.
    maint: Mutex<Maint>,
    /// Set when maintenance can no longer keep the view consistent
    /// (exhausted retries, poisoned arrangement). The view still serves
    /// its last good state; `REFRESH` clears the flag.
    stale: AtomicBool,
}

/// State shared by the session extension, the taps, and the maintenance
/// worker.
///
/// Lock order: `apply_lock` → `views` → `maint` → `queue` → `taps` →
/// `gate` → `arrangements`.
pub(crate) struct Shared {
    config: ViewsConfig,
    /// Handed to taps so they can reach the queue without a cycle.
    self_weak: Weak<Shared>,
    /// Serializes all delta application and all view DDL. Sync-mode
    /// drains take it with `try_lock` (never block the append path);
    /// the worker and DDL take it blocking.
    apply_lock: Mutex<()>,
    /// Bounded delta queue; a full queue blocks the append path
    /// (backpressure).
    queue: Mutex<VecDeque<Delta>>,
    /// Signals consumers (the async worker) that a delta arrived.
    queue_cv: Condvar,
    /// Signals producers that queue space freed up.
    space_cv: Condvar,
    /// Registered views by name.
    views: parking_lot::RwLock<HashMap<String, Arc<ViewEntry>>>,
    /// One tap per base table.
    taps: Mutex<HashMap<String, Arc<TapState>>>,
    /// Shared join arrangements by `(table, key column)`.
    arrangements: Mutex<HashMap<(String, usize), Arc<Arrangement>>>,
    /// Set on drop of the owning system; taps degrade to no-ops.
    pub(crate) shutdown: AtomicBool,
}

impl Shared {
    /// Build the shared state (cyclically, so taps can hold it weakly).
    pub(crate) fn new(config: ViewsConfig) -> Arc<Shared> {
        Arc::new_cyclic(|w| Shared {
            config,
            self_weak: w.clone(),
            apply_lock: Mutex::new(()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            space_cv: Condvar::new(),
            views: parking_lot::RwLock::new(HashMap::new()),
            taps: Mutex::new(HashMap::new()),
            arrangements: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Wake every parked thread so shutdown can proceed.
    pub(crate) fn notify_shutdown(&self) {
        // No lock needed: `shutdown` is a SeqCst flag that every waiter
        // re-checks inside its wait loop.
        self.queue_cv.notify_all();
        self.space_cv.notify_all();
        for tap in lock(&self.taps).values() {
            tap.cv.notify_all();
        }
    }

    /// Names of views currently flagged stale.
    pub(crate) fn stale_views(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .views
            .read()
            .values()
            .filter(|e| e.stale.load(Ordering::SeqCst))
            .map(|e| e.name.clone())
            .collect();
        names.sort();
        names
    }

    /// Enqueue a delta, blocking while the queue is at capacity — this is
    /// the backpressure into the append path.
    fn enqueue(&self, delta: Delta) {
        let mut q = lock(&self.queue);
        while q.len() >= QUEUE_CAPACITY {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            q = self
                .space_cv
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
        q.push_back(delta);
        drop(q);
        self.queue_cv.notify_all();
    }

    /// Pop one delta, signalling producers that space freed up.
    fn pop(&self) -> Option<Delta> {
        let delta = lock(&self.queue).pop_front();
        if delta.is_some() {
            self.space_cv.notify_all();
        }
        delta
    }

    /// Drain and apply every queued delta. `block` controls how the
    /// apply lock is taken: the worker blocks; sync-mode append-path
    /// drains use `try_lock` and bail if contended (the current holder
    /// drains the queue itself, and the post-release re-check below
    /// closes the race where a delta lands between its final pop and the
    /// lock release).
    pub(crate) fn drain_pending(&self, block: bool) {
        loop {
            {
                let _apply = if block {
                    lock(&self.apply_lock)
                } else {
                    match self.apply_lock.try_lock() {
                        Ok(g) => g,
                        Err(TryLockError::Poisoned(e)) => e.into_inner(),
                        Err(TryLockError::WouldBlock) => return,
                    }
                };
                while let Some(delta) = self.pop() {
                    self.apply_delta(&delta);
                }
            }
            if lock(&self.queue).is_empty() {
                return;
            }
        }
    }

    /// Async maintenance worker: sleep until deltas arrive, drain, repeat
    /// until shutdown with an empty queue.
    pub(crate) fn worker_loop(&self) {
        loop {
            {
                let mut q = lock(&self.queue);
                while q.is_empty() && !self.shutdown.load(Ordering::SeqCst) {
                    q = self
                        .queue_cv
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                if q.is_empty() {
                    return; // shutdown with nothing left to do
                }
            }
            self.drain_pending(true);
        }
    }

    // ------------------------------------------------------------------
    // Delta application (caller holds the apply lock).
    // ------------------------------------------------------------------

    /// Apply one delta: decode once, maintain every arrangement keyed on
    /// the table, then fan the delta out to every dependent view.
    fn apply_delta(&self, delta: &Delta) {
        let mut dependents: Vec<Arc<ViewEntry>> = self
            .views
            .read()
            .values()
            .filter(|e| e.kind.base_names().contains(&delta.table))
            .cloned()
            .collect();
        if dependents.is_empty() {
            return;
        }
        dependents.sort_by(|a, b| a.name.cmp(&b.name));
        if delta.dml {
            // A DML barrier: the statement's tombstones cannot be applied
            // as appends. Poison every arrangement over the table (its
            // mirror of the base has diverged) and flag each dependent
            // stale; REFRESH rebuilds both from the post-DML base.
            for ((table, _), arr) in lock(&self.arrangements).iter() {
                if *table == delta.table {
                    arr.stale.store(true, Ordering::SeqCst);
                }
            }
            for entry in &dependents {
                entry.stale.store(true, Ordering::SeqCst);
            }
            return;
        }
        let Some(tap) = lock(&self.taps).get(&delta.table).cloned() else {
            return;
        };
        let chunk = match decode_delta(&tap.table, &delta.payloads) {
            Ok(c) => c,
            Err(_) => {
                // A payload the base table itself produced failed to
                // decode — nothing sane can be applied; views over this
                // table must be rebuilt.
                for entry in &dependents {
                    entry.stale.store(true, Ordering::SeqCst);
                }
                return;
            }
        };
        if chunk.is_empty() {
            return;
        }
        // Maintain each shared arrangement exactly once per delta,
        // before any view output is computed (a view's delta output
        // probes the *other* side's arrangement, so this ordering cannot
        // double-count).
        for ((table, _), arr) in lock(&self.arrangements).iter() {
            if *table == delta.table
                && !arr.stale.load(Ordering::SeqCst)
                && arr.table.append_chunk(&chunk).is_err()
            {
                // A partial arrangement publish cannot be retried
                // without double-appending; poison it instead.
                arr.stale.store(true, Ordering::SeqCst);
            }
        }
        for entry in &dependents {
            if entry.stale.load(Ordering::SeqCst) {
                continue;
            }
            self.apply_to_view(entry, &delta.table, &chunk, delta.created);
        }
    }

    /// Apply one delta chunk to one view, retrying retryable faults and
    /// flagging the view stale on poison or retry exhaustion.
    fn apply_to_view(
        &self,
        entry: &Arc<ViewEntry>,
        table: &str,
        chunk: &Chunk,
        created: Option<Instant>,
    ) {
        let mut maint = lock(&entry.maint);
        for _ in 0..MAX_APPLY_RETRIES {
            match self.try_apply(entry, &mut maint, table, chunk) {
                Ok(()) => {
                    let metrics = idf_obs::global();
                    metrics.view_deltas_applied.inc();
                    if let Some(created) = created {
                        metrics
                            .view_maintenance_lag_ns
                            .record(created.elapsed().as_nanos() as u64);
                    }
                    return;
                }
                Err(ApplyError::Retryable(_)) => continue,
                Err(ApplyError::Poisoned(_)) => break,
            }
        }
        entry.stale.store(true, Ordering::SeqCst);
    }

    /// One application attempt. Everything fallible (the failpoint, the
    /// delta-output computation) runs before any mutation; the mutations
    /// themselves are infallible atomic swaps, so a `Retryable` error
    /// means no state changed and the attempt can simply run again.
    fn try_apply(
        &self,
        entry: &Arc<ViewEntry>,
        maint: &mut Maint,
        table: &str,
        chunk: &Chunk,
    ) -> std::result::Result<(), ApplyError> {
        catch_panics(|| failpoints::check(failpoints::MAINTAIN_APPLY))
            .map_err(ApplyError::Retryable)?;
        match maint {
            Maint::FilterProject { sess } => {
                let ViewKind::FilterProject { base } = &entry.kind else {
                    return Err(ApplyError::Poisoned(state_mismatch()));
                };
                let out = catch_panics(|| {
                    register_delta(sess, &base.name, &base.schema, chunk);
                    binder::bind(sess, &entry.stmt)?.collect()
                })
                .map_err(ApplyError::Retryable)?;
                entry.source.append_chunk(out);
                Ok(())
            }
            Maint::Aggregate { sess, groups } => {
                let ViewKind::Aggregate { base, agg } = &entry.kind else {
                    return Err(ApplyError::Poisoned(state_mismatch()));
                };
                // Merge into a CLONE of the group map and build the
                // output chunk from it; only then commit both. A failure
                // anywhere above the commit leaves the live map (and the
                // view) untouched, so retries cannot double-merge.
                let groups_ref: &BTreeMap<Vec<Value>, Vec<Acc>> = groups;
                let (merged, out) = catch_panics(|| {
                    register_delta(sess, &base.name, &base.schema, chunk);
                    let partial = binder::bind(sess, &agg.partial_stmt)?.collect()?;
                    let mut merged = groups_ref.clone();
                    merge_partials(&mut merged, &partial, agg.as_ref())?;
                    let rows = rebuild_rows(&merged, agg.as_ref(), &entry.out_schema)?;
                    let out = if rows.is_empty() {
                        None
                    } else {
                        Some(Chunk::from_rows(&entry.out_schema, &rows)?)
                    };
                    Ok((merged, out))
                })
                .map_err(ApplyError::Retryable)?;
                *groups = merged;
                entry.source.replace(out.into_iter().collect());
                Ok(())
            }
            Maint::Join { sess, left, right } => {
                let ViewKind::Join {
                    left: left_base,
                    right: right_base,
                    ..
                } = &entry.kind
                else {
                    return Err(ApplyError::Poisoned(state_mismatch()));
                };
                if left.stale.load(Ordering::SeqCst) || right.stale.load(Ordering::SeqCst) {
                    return Err(ApplyError::Poisoned(EngineError::exec(
                        "join arrangement poisoned",
                    )));
                }
                // ΔA ⋈ B ∪ A ⋈ ΔB, one side per delta: bind the delta
                // chunk under its own table name and the *other* side's
                // arrangement under its name, then run the defining
                // query — the indexed-join strategy probes the
                // arrangement with the delta rows.
                let (delta_base, probe_base, probe_arr) = if table == left_base.name {
                    (left_base, right_base, &*right)
                } else {
                    (right_base, left_base, &*left)
                };
                let out = catch_panics(|| {
                    register_delta(sess, &delta_base.name, &delta_base.schema, chunk);
                    sess.register_table(
                        &probe_base.name,
                        Arc::new(IndexedSource::live(Arc::clone(&probe_arr.table))),
                    );
                    binder::bind(sess, &entry.stmt)?.collect()
                })
                .map_err(ApplyError::Retryable)?;
                entry.source.append_chunk(out);
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Gates and quiesce.
    // ------------------------------------------------------------------

    /// Get or install the tap of every base, sorted by table name.
    fn ensure_taps(&self, bases: &[(String, Arc<IndexedTable>)]) -> Vec<Arc<TapState>> {
        let mut taps = lock(&self.taps);
        let mut out: Vec<Arc<TapState>> = bases
            .iter()
            .map(|(name, table)| {
                Arc::clone(taps.entry(name.clone()).or_insert_with(|| {
                    let tap = Arc::new(TapState {
                        name: name.clone(),
                        table: Arc::clone(table),
                        gate: Mutex::new(Gate {
                            closed: false,
                            inflight: 0,
                            waiting: 0,
                        }),
                        cv: Condvar::new(),
                        active_views: AtomicUsize::new(0),
                    });
                    table.add_append_sink(Arc::new(DeltaTap {
                        tap: Arc::clone(&tap),
                        shared: self.self_weak.clone(),
                    }));
                    tap
                }))
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Wait (holding the apply lock) until every gated table is stable:
    /// the queue holds no gated delta, no captured commit is unpublished,
    /// and every append inside a gated table's commit window is parked at
    /// the gate itself. After this returns, a base read is an exact seed
    /// point for the delta stream.
    fn quiesce(&self, taps: &[Arc<TapState>]) {
        loop {
            // Drain unconditionally each round — a producer blocked on a
            // full queue may be holding `inflight`, so space must keep
            // freeing up for the gate counters to settle.
            while let Some(delta) = self.pop() {
                self.apply_delta(&delta);
            }
            let gates_ok = taps.iter().all(|t| {
                let gate = lock(&t.gate);
                gate.inflight == 0 && t.table.commit_window() == gate.waiting
            });
            if gates_ok {
                // With gates closed and inflight at zero no NEW gated
                // delta can ever be enqueued, so this check is stable.
                let queue = lock(&self.queue);
                let pending_gated = queue.iter().any(|d| taps.iter().any(|t| t.name == d.table));
                if !pending_gated {
                    return;
                }
            }
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    }

    /// Drop arrangements no longer referenced by any view (the registry
    /// holds the only remaining `Arc`).
    fn sweep_arrangements(&self) {
        lock(&self.arrangements).retain(|_, arr| Arc::strong_count(arr) > 1);
    }

    // ------------------------------------------------------------------
    // DDL.
    // ------------------------------------------------------------------

    /// `CREATE MATERIALIZED VIEW`: classify, gate, quiesce, seed from the
    /// stable base, register atomically, reopen.
    pub(crate) fn create_view(
        &self,
        session: &Session,
        name: &str,
        stmt: &SelectStmt,
    ) -> Result<()> {
        let kind = classify(session, stmt)?;
        let out_schema = strip_qualifiers(&binder::bind(session, stmt)?.schema());
        let apply = lock(&self.apply_lock);
        if self.views.read().contains_key(name) {
            return Err(EngineError::ViewAlreadyExists(name.to_string()));
        }
        if session.catalog().get(name).is_ok() {
            return Err(EngineError::TableAlreadyExists(name.to_string()));
        }
        let bases = kind_bases(&kind);
        let taps = self.ensure_taps(&bases);
        let closer = GateCloser::close(&taps);
        // Quiesce under `apply_lock`: DDL must stay serialized, and with the gates closed the
        // drain spin is short and bounded.
        self.quiesce(&taps);
        let (source, maint) = match self.seed(session, stmt, &kind, &out_schema) {
            Ok(seeded) => seeded,
            Err(e) => {
                self.sweep_arrangements();
                return Err(e);
            }
        };
        let entry = Arc::new(ViewEntry {
            name: name.to_string(),
            stmt: stmt.clone(),
            kind,
            out_schema,
            source: Arc::clone(&source),
            maint: Mutex::new(maint),
            stale: AtomicBool::new(false),
        });
        if let Err(e) = session.register_table_new(name, source as Arc<dyn TableSource>) {
            drop(entry);
            self.sweep_arrangements();
            return Err(e);
        }
        self.views.write().insert(name.to_string(), entry);
        for tap in &taps {
            tap.active_views.fetch_add(1, Ordering::SeqCst);
        }
        idf_obs::global().views_registered.add(1);
        drop(closer);
        // Apply anything that queued for other tables while we held the
        // lock, then release and re-check (drain_pending's contract).
        while let Some(delta) = self.pop() {
            self.apply_delta(&delta);
        }
        drop(apply);
        self.drain_pending(false);
        Ok(())
    }

    /// `DROP MATERIALIZED VIEW`: unregister the view and the catalog
    /// entry (only if it is still ours), release shared state.
    pub(crate) fn drop_view(&self, session: &Session, name: &str) -> Result<()> {
        let _apply = lock(&self.apply_lock);
        let entry = self
            .views
            .write()
            .remove(name)
            .ok_or_else(|| EngineError::ViewNotFound(name.to_string()))?;
        if let Ok(src) = session.catalog().get(name) {
            let ours = src
                .as_any()
                .downcast_ref::<ViewSource>()
                .is_some_and(|v| std::ptr::eq(v, Arc::as_ptr(&entry.source)));
            if ours {
                session.catalog().deregister(name);
            }
        }
        {
            let taps = lock(&self.taps);
            for base in entry.kind.base_names() {
                if let Some(tap) = taps.get(&base) {
                    tap.active_views.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
        drop(entry);
        self.sweep_arrangements();
        idf_obs::global().views_registered.add(-1);
        Ok(())
    }

    /// `REFRESH MATERIALIZED VIEW`: gate, quiesce, recompute the whole
    /// view from the stable base, swap atomically, clear the stale flag.
    /// A fault at the refresh failpoint fails the statement and leaves
    /// the previous state untouched (gates reopen via RAII).
    pub(crate) fn refresh_view(&self, session: &Session, name: &str) -> Result<()> {
        let apply = lock(&self.apply_lock);
        let entry = self
            .views
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::ViewNotFound(name.to_string()))?;
        let bases = kind_bases(&entry.kind);
        let taps = self.ensure_taps(&bases);
        let closer = GateCloser::close(&taps);
        // Quiesce under `apply_lock`: DDL must stay serialized, and with the gates closed the
        // drain spin is short and bounded.
        self.quiesce(&taps);
        let started = idf_obs::enabled().then(Instant::now);
        failpoints::check(failpoints::REFRESH)?;
        self.recompute(session, &entry)?;
        entry.stale.store(false, Ordering::SeqCst);
        if let Some(started) = started {
            idf_obs::global()
                .view_refresh_ns
                .record(started.elapsed().as_nanos() as u64);
        }
        drop(closer);
        while let Some(delta) = self.pop() {
            self.apply_delta(&delta);
        }
        drop(apply);
        self.drain_pending(false);
        Ok(())
    }

    /// Seed a new view from the quiesced base: run the defining query
    /// (through the normal binder/optimizer/physical layer) and install
    /// the per-kind maintenance state.
    fn seed(
        &self,
        session: &Session,
        stmt: &SelectStmt,
        kind: &ViewKind,
        out_schema: &SchemaRef,
    ) -> Result<(Arc<ViewSource>, Maint)> {
        let source = Arc::new(ViewSource::new(Arc::clone(out_schema)));
        let maint = match kind {
            ViewKind::FilterProject { .. } => {
                let chunk = binder::bind(session, stmt)?.collect()?;
                source.replace(vec![chunk]);
                Maint::FilterProject {
                    sess: Session::new(),
                }
            }
            ViewKind::Aggregate { agg, .. } => {
                let partial = binder::bind(session, &agg.partial_stmt)?.collect()?;
                let mut groups = BTreeMap::new();
                merge_partials(&mut groups, &partial, agg.as_ref())?;
                let rows = rebuild_rows(&groups, agg.as_ref(), out_schema)?;
                source.replace(if rows.is_empty() {
                    Vec::new()
                } else {
                    vec![Chunk::from_rows(out_schema, &rows)?]
                });
                Maint::Aggregate {
                    sess: Session::new(),
                    groups,
                }
            }
            ViewKind::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                let arr_left = self.arrangement(session, &left.name, &left.schema, *left_key)?;
                let arr_right =
                    self.arrangement(session, &right.name, &right.schema, *right_key)?;
                let sess = Session::new();
                sess.register_strategy(Arc::new(IndexedJoinStrategy));
                sess.register_table(
                    &left.name,
                    Arc::new(IndexedSource::live(Arc::clone(&arr_left.table))),
                );
                sess.register_table(
                    &right.name,
                    Arc::new(IndexedSource::live(Arc::clone(&arr_right.table))),
                );
                let chunk = binder::bind(&sess, stmt)?.collect()?;
                source.replace(vec![chunk]);
                Maint::Join {
                    sess,
                    left: arr_left,
                    right: arr_right,
                }
            }
        };
        Ok((source, maint))
    }

    /// Full recompute of one view from the quiesced base (REFRESH).
    fn recompute(&self, session: &Session, entry: &Arc<ViewEntry>) -> Result<()> {
        let mut maint = lock(&entry.maint);
        match (&entry.kind, &mut *maint) {
            (ViewKind::FilterProject { .. }, Maint::FilterProject { .. }) => {
                let chunk = binder::bind(session, &entry.stmt)?.collect()?;
                entry.source.replace(vec![chunk]);
            }
            (ViewKind::Aggregate { agg, .. }, Maint::Aggregate { groups, .. }) => {
                let partial = binder::bind(session, &agg.partial_stmt)?.collect()?;
                let mut rebuilt = BTreeMap::new();
                merge_partials(&mut rebuilt, &partial, agg.as_ref())?;
                let rows = rebuild_rows(&rebuilt, agg.as_ref(), &entry.out_schema)?;
                let chunks = if rows.is_empty() {
                    Vec::new()
                } else {
                    vec![Chunk::from_rows(&entry.out_schema, &rows)?]
                };
                *groups = rebuilt;
                entry.source.replace(chunks);
            }
            (
                ViewKind::Join {
                    left: left_base,
                    right: right_base,
                    left_key,
                    right_key,
                },
                Maint::Join { sess, left, right },
            ) => {
                // A healthy arrangement already mirrors the quiesced base
                // exactly (every delta appends to it), so `arrangement`
                // reuses it; a stale one is rebuilt from the base and
                // replaces the registry entry.
                let arr_left =
                    self.arrangement(session, &left_base.name, &left_base.schema, *left_key)?;
                let arr_right =
                    self.arrangement(session, &right_base.name, &right_base.schema, *right_key)?;
                sess.register_table(
                    &left_base.name,
                    Arc::new(IndexedSource::live(Arc::clone(&arr_left.table))),
                );
                sess.register_table(
                    &right_base.name,
                    Arc::new(IndexedSource::live(Arc::clone(&arr_right.table))),
                );
                let chunk = binder::bind(sess, &entry.stmt)?.collect()?;
                *left = arr_left;
                *right = arr_right;
                entry.source.replace(vec![chunk]);
            }
            _ => return Err(state_mismatch()),
        }
        drop(maint);
        self.sweep_arrangements();
        Ok(())
    }

    /// Get the shared arrangement for `(table, key)`, or build one from
    /// the (quiesced) base if none exists or the existing one is stale.
    fn arrangement(
        &self,
        session: &Session,
        table: &str,
        schema: &SchemaRef,
        key: usize,
    ) -> Result<Arc<Arrangement>> {
        let slot = (table.to_string(), key);
        if let Some(arr) = lock(&self.arrangements).get(&slot).cloned() {
            if !arr.stale.load(Ordering::SeqCst) {
                return Ok(arr);
            }
        }
        let data = session.table(table)?.collect()?;
        let built = IndexedTable::new(Arc::clone(schema), key, IndexConfig::default())?;
        if !data.is_empty() {
            built.append_chunk(&data)?;
        }
        let arr = Arc::new(Arrangement {
            table: Arc::new(built),
            stale: AtomicBool::new(false),
        });
        lock(&self.arrangements).insert(slot, Arc::clone(&arr));
        Ok(arr)
    }
}

/// Why one apply attempt failed. The carried error is kept for debugger
/// visibility; the maintenance loop branches only on the variant.
enum ApplyError {
    /// No state was mutated — run the attempt again.
    Retryable(#[allow(dead_code)] EngineError),
    /// State may be inconsistent — stop and flag the view stale.
    Poisoned(#[allow(dead_code)] EngineError),
}

fn state_mismatch() -> EngineError {
    EngineError::internal("view maintenance state does not match its classification")
}

/// RAII gate closer: closes every gate on construction, reopens and
/// wakes parked appenders on drop (including the error paths).
struct GateCloser<'a> {
    taps: &'a [Arc<TapState>],
}

impl<'a> GateCloser<'a> {
    fn close(taps: &'a [Arc<TapState>]) -> Self {
        for tap in taps {
            lock(&tap.gate).closed = true;
        }
        GateCloser { taps }
    }
}

impl Drop for GateCloser<'_> {
    fn drop(&mut self) {
        for tap in self.taps {
            lock(&tap.gate).closed = false;
            tap.cv.notify_all();
        }
    }
}

/// Base tables of a view as owned `(name, table)` pairs.
fn kind_bases(kind: &ViewKind) -> Vec<(String, Arc<IndexedTable>)> {
    match kind {
        ViewKind::FilterProject { base } | ViewKind::Aggregate { base, .. } => {
            vec![(base.name.clone(), Arc::clone(&base.table))]
        }
        ViewKind::Join { left, right, .. } => vec![
            (left.name.clone(), Arc::clone(&left.table)),
            (right.name.clone(), Arc::clone(&right.table)),
        ],
    }
}

/// Decode a delta's payloads into a chunk with the base schema, a column
/// at a time.
fn decode_delta(table: &IndexedTable, payloads: &[Vec<u8>]) -> Result<Chunk> {
    let layout = RowLayout::new(table.schema());
    let payloads: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    let cols: Vec<usize> = (0..layout.schema().len()).collect();
    layout.decode_chunk(&payloads, &cols)
}

/// (Re-)register the delta chunk in a private session under the base
/// table's name, so the defining query binds against the delta.
fn register_delta(sess: &Session, name: &str, schema: &SchemaRef, chunk: &Chunk) {
    sess.register_table(
        name,
        Arc::new(MemTable::from_chunk(Arc::clone(schema), chunk.clone())),
    );
}

/// Same schema with every field's qualifier stripped, so the view's
/// columns bind unqualified like any base table's.
fn strip_qualifiers(schema: &SchemaRef) -> SchemaRef {
    Arc::new(Schema::new(
        schema
            .fields
            .iter()
            .map(|f| Field {
                qualifier: None,
                ..f.clone()
            })
            .collect(),
    ))
}

// ----------------------------------------------------------------------
// Accumulator arithmetic.
// ----------------------------------------------------------------------

/// Fresh (identity) accumulators for a new group.
fn fresh_accs(kinds: &[AccKind]) -> Vec<Acc> {
    kinds
        .iter()
        .map(|k| match k {
            AccKind::Count => Acc::Count(0),
            AccKind::Sum => Acc::Sum(Value::Null),
            AccKind::Min => Acc::Min(Value::Null),
            AccKind::Max => Acc::Max(Value::Null),
            AccKind::Avg => Acc::Avg {
                sum: Value::Null,
                count: 0,
            },
        })
        .collect()
}

/// Merge the partial-aggregate chunk of one delta into the group map.
fn merge_partials(
    groups: &mut BTreeMap<Vec<Value>, Vec<Acc>>,
    partial: &Chunk,
    agg: &AggDef,
) -> Result<()> {
    for row in 0..partial.len() {
        let values = partial.row_values(row);
        let key: Vec<Value> = values[..agg.n_groups].to_vec();
        let accs = groups.entry(key).or_insert_with(|| fresh_accs(&agg.accs));
        let mut col = agg.n_groups;
        for (j, kind) in agg.accs.iter().enumerate() {
            match (kind, &mut accs[j]) {
                (AccKind::Count, Acc::Count(n)) => {
                    *n += as_i64(&values[col])?;
                    col += 1;
                }
                (AccKind::Sum, Acc::Sum(sum)) => {
                    *sum = add_values(sum, &values[col])?;
                    col += 1;
                }
                (AccKind::Min, Acc::Min(min)) => {
                    if !values[col].is_null() && (min.is_null() || values[col] < *min) {
                        *min = values[col].clone();
                    }
                    col += 1;
                }
                (AccKind::Max, Acc::Max(max)) => {
                    if !values[col].is_null() && (max.is_null() || values[col] > *max) {
                        *max = values[col].clone();
                    }
                    col += 1;
                }
                (AccKind::Avg, Acc::Avg { sum, count }) => {
                    *sum = add_values(sum, &values[col])?;
                    *count += as_i64(&values[col + 1])?;
                    col += 2;
                }
                _ => return Err(state_mismatch()),
            }
        }
    }
    Ok(())
}

/// Rebuild the full output row set from the group map (deterministic:
/// the map is ordered by group key).
fn rebuild_rows(
    groups: &BTreeMap<Vec<Value>, Vec<Acc>>,
    agg: &AggDef,
    out_schema: &SchemaRef,
) -> Result<Vec<Vec<Value>>> {
    let mut rows = Vec::with_capacity(groups.len());
    for (key, accs) in groups {
        let mut row = Vec::with_capacity(agg.template.len());
        for (c, out) in agg.template.iter().enumerate() {
            row.push(match out {
                OutCol::Group(i) => key[*i].clone(),
                OutCol::Agg(j) => finalize(&accs[*j], out_schema.field(c).data_type)?,
            });
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Finalize one accumulator into an output value of column type `ty`.
fn finalize(acc: &Acc, ty: DataType) -> Result<Value> {
    Ok(match acc {
        Acc::Count(n) => Value::Int64(*n),
        Acc::Sum(v) | Acc::Min(v) | Acc::Max(v) => v.clone(),
        Acc::Avg { sum, count } => {
            if *count == 0 || sum.is_null() {
                Value::Null
            } else {
                let s = num_as_f64(sum)
                    .ok_or_else(|| EngineError::type_err("avg over a non-numeric partial sum"))?;
                Value::Float64(s / *count as f64).cast(ty).ok_or_else(|| {
                    EngineError::type_err("avg result does not cast to its column")
                })?
            }
        }
    })
}

/// Add two partial values, treating `Null` as the additive identity.
fn add_values(a: &Value, b: &Value) -> Result<Value> {
    Ok(match (a, b) {
        (Value::Null, other) | (other, Value::Null) => other.clone(),
        (Value::Int64(x), Value::Int64(y)) => Value::Int64(x + y),
        (Value::Int32(x), Value::Int32(y)) => Value::Int64(i64::from(*x) + i64::from(*y)),
        (Value::Float64(x), Value::Float64(y)) => Value::Float64(x + y),
        (x, y) => match (num_as_f64(x), num_as_f64(y)) {
            (Some(xf), Some(yf)) => Value::Float64(xf + yf),
            _ => {
                return Err(EngineError::type_err(
                    "mismatched partial aggregate value types",
                ))
            }
        },
    })
}

/// A partial count as `i64` (`Null` counts zero rows).
fn as_i64(v: &Value) -> Result<i64> {
    match v {
        Value::Null => Ok(0),
        Value::Int64(n) => Ok(*n),
        Value::Int32(n) => Ok(i64::from(*n)),
        _ => Err(EngineError::type_err("partial count is not an integer")),
    }
}

/// Numeric value as `f64`, `None` for non-numerics.
fn num_as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int32(n) => Some(f64::from(*n)),
        Value::Int64(n) => Some(*n as f64),
        Value::Float64(f) => Some(*f),
        _ => None,
    }
}
