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
//!   delta that the committing thread applies before its append returns,
//!   so a view read after an append always sees it (read-your-writes).
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

use std::sync::Arc;

use idf_engine::error::Result;
use idf_engine::session::{Session, SessionExtension};
use idf_engine::sql::SelectStmt;

/// Configuration for [`install`]. It has no fields: maintenance has one
/// mode, applied by the commit that made the delta. The type stays only
/// so that `install`'s signature, which callers outside this crate use,
/// does not change.
#[derive(Debug, Clone, Copy, Default)]
pub struct ViewsConfig {}

/// The installed views subsystem. Returned by [`install`]; the session
/// holds it as an installed extension, so it lives as long as the session
/// (or any user clone). Once the last handle drops, the append-path taps
/// (which hold the subsystem weakly) degrade to no-ops.
pub struct ViewsSystem {
    shared: Arc<maintain::Shared>,
}

impl ViewsSystem {
    /// Block until no commit on a table with views is still applying its
    /// delta. Every append applies its own delta before it returns, so
    /// this waits only for applies that other threads are still running
    /// (tests and benches use it to observe a quiet state).
    pub fn wait_idle(&self) {
        self.shared.wait_idle();
    }

    /// Names of views whose maintenance was poisoned and now serve their
    /// last consistent state until a `REFRESH MATERIALIZED VIEW`.
    pub fn stale_views(&self) -> Vec<String> {
        self.shared.stale_views()
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
pub fn install(session: &Session, _config: ViewsConfig) -> Arc<ViewsSystem> {
    let system = Arc::new(ViewsSystem {
        shared: maintain::Shared::new(),
    });
    session.install_extension(Arc::clone(&system) as Arc<dyn SessionExtension>);
    system
}
