//! Incremental materialized views over the update stream (`idf-views`).
//!
//! The paper's premise is low-latency queries over *updatable* data:
//! appends stream in continuously and queries read an indexed,
//! snapshot-consistent state. This crate closes the loop for repeated
//! queries — `CREATE MATERIALIZED VIEW <name> AS <select>` materializes
//! a defining query once and then maintains it **incrementally** from
//! the append path, so reading the view is a scan of pre-computed state
//! instead of a re-execution:
//!
//! * **Delta capture** hooks the two-phase commit seam
//!   ([`idf_core::sink::AppendSink`]): each committed chunk becomes a
//!   delta on a bounded queue (backpressure into the append path).
//! * **Delta rules**: filter/project views append π(σ(Δ)); aggregate
//!   views merge Δ-partials into persistent per-group accumulators;
//!   join views probe the other side's shared arrangement
//!   (ΔA ⋈ B ∪ A ⋈ ΔB). All three are monotone under append-only
//!   input, which is what makes exactly-once maintenance possible
//!   without retractions.
//! * **Consistency**: every state change is an atomic epoch-bumped swap
//!   ([`state::ViewSource`]); a reader observes all of a delta or none
//!   of it. Creation and refresh gate the base tables and quiesce
//!   in-flight commits so the seed snapshot lines up exactly with the
//!   delta stream.
//! * **Planning**: the view registers in the session catalog, so
//!   `SELECT … FROM <view>` plans through the normal physical layer —
//!   EXPLAIN, the memory governor, cancellation and the service layer
//!   all work unchanged.
//!
//! Maintenance runs [`MaintenanceMode::Sync`] (applied before the append
//! returns) or [`MaintenanceMode::Async`] (a bounded background worker),
//! mirroring the durability layer's sync/async split.
//!
//! ```
//! use idf_engine::session::Session;
//! use idf_core::prelude::*;
//!
//! let session = Session::new();
//! install_indexed_ddl(&session, IndexConfig::default());
//! let _views = idf_views::install(&session, idf_views::ViewsConfig::default());
//!
//! session.sql("CREATE TABLE t (k BIGINT, v BIGINT)").unwrap().collect().unwrap();
//! session.sql("CREATE MATERIALIZED VIEW big AS SELECT k, v FROM t WHERE v > 10")
//!     .unwrap().collect().unwrap();
//! session.sql("INSERT INTO t VALUES (1, 5), (2, 50)").unwrap().collect().unwrap();
//! let rows = session.sql("SELECT k FROM big").unwrap().collect().unwrap();
//! assert_eq!(rows.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod failpoints;
pub mod state;

mod def;
mod maintain;

pub use maintain::LOCK_ORDER;

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

use idf_engine::error::Result;
use idf_engine::session::{Session, SessionExtension};
use idf_engine::sql::SelectStmt;

/// When delta application runs relative to the append that produced it
/// (mirrors the durability layer's `DurabilityLevel` split).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceMode {
    /// Apply the delta on the appending thread before the append call
    /// returns: a subsequent view read on the same thread always sees
    /// the append.
    Sync,
    /// Queue the delta for a bounded background worker: appends return
    /// sooner, view reads may lag by the queue depth (the lag is
    /// recorded in the `idf_views_maintenance_lag_ns` histogram).
    Async,
}

/// Configuration for [`install`].
#[derive(Debug, Clone)]
pub struct ViewsConfig {
    /// Sync or async maintenance (default sync).
    pub mode: MaintenanceMode,
    /// Bounded delta-queue capacity; a full queue blocks the append path
    /// (backpressure). Default 64.
    pub queue_capacity: usize,
}

impl Default for ViewsConfig {
    fn default() -> Self {
        ViewsConfig {
            mode: MaintenanceMode::Sync,
            queue_capacity: 64,
        }
    }
}

/// The installed views subsystem. Returned by [`install`]; the session
/// holds it as an installed extension, so it lives as long as the session
/// (or any user clone). Dropping the last handle shuts the maintenance
/// worker down and degrades the append-path taps to no-ops.
pub struct ViewsSystem {
    shared: Arc<maintain::Shared>,
    worker: Option<JoinHandle<()>>,
}

impl ViewsSystem {
    fn start(config: ViewsConfig) -> Arc<ViewsSystem> {
        let mut config = config;
        config.queue_capacity = config.queue_capacity.max(1);
        let mode = config.mode;
        let shared = maintain::Shared::new(config);
        let worker = (mode == MaintenanceMode::Async).then(|| {
            let worker_shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("idf-views-maint".to_string())
                .spawn(move || worker_shared.worker_loop())
                .expect("spawn view-maintenance worker")
        });
        Arc::new(ViewsSystem { shared, worker })
    }

    /// Block until every queued delta is applied. Async-mode callers use
    /// this to observe a maintenance-quiescent state (tests, benches);
    /// in sync mode it returns immediately once the queue is empty.
    pub fn wait_idle(&self) {
        self.shared.drain_pending(true);
    }

    /// Names of views whose maintenance was poisoned and now serve their
    /// last consistent state until a `REFRESH MATERIALIZED VIEW`.
    pub fn stale_views(&self) -> Vec<String> {
        self.shared.stale_views()
    }
}

impl Drop for ViewsSystem {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.notify_shutdown();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl SessionExtension for ViewsSystem {
    fn name(&self) -> &str {
        "views"
    }

    fn create_view(&self, session: &Session, name: &str, query: &SelectStmt) -> Result<Option<()>> {
        self.shared.create_view(session, name, query).map(Some)
    }

    fn drop_view(&self, session: &Session, name: &str) -> Result<Option<()>> {
        self.shared.drop_view(session, name).map(Some)
    }

    fn refresh_view(&self, session: &Session, name: &str) -> Result<Option<()>> {
        self.shared.refresh_view(session, name).map(Some)
    }
}

/// Install the materialized-view subsystem on `session`: from then on
/// `CREATE/DROP/REFRESH MATERIALIZED VIEW` dispatch here, and committed
/// appends to base tables with views are captured as maintenance deltas.
pub fn install(session: &Session, config: ViewsConfig) -> Arc<ViewsSystem> {
    let system = ViewsSystem::start(config);
    session.install_extension(Arc::clone(&system) as Arc<dyn SessionExtension>);
    system
}
