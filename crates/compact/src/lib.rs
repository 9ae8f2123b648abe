//! Background compaction for the Indexed DataFrame (`idf-compact`).
//!
//! UPDATE/DELETE in this system never mutate in place: an UPDATE appends
//! a new row image, a DELETE appends a tombstone, and MVCC readers
//! resolve the newest visible version by walking the backward-pointer
//! chain. Under a sustained update-heavy workload that design trades
//! write latency for two slow leaks: resident memory grows with every
//! superseded version, and point-lookup latency grows with the chain
//! length each probe must walk. This crate closes the loop:
//!
//! * **Policy**: a bounded background worker surveys registered tables'
//!   [`idf_core::partition::PartitionMemory`] accounting (tombstones +
//!   dead rows) and picks the coldest candidates — tables whose dead
//!   fraction crossed [`CompactConfig::min_dead_ratio`], or any table
//!   with dead versions once the process-global chain-walk p99 (from
//!   `idf-obs`) crosses [`CompactConfig::chain_walk_p99_trigger`].
//! * **Rewrite**: [`idf_core::table::IndexedTable::compact_with`]
//!   rebuilds the partition's batches without dead versions and swaps
//!   them in snapshot-consistently — readers in flight keep their
//!   pinned snapshots, and a reader that raced the swap observes
//!   exactly the same visible rows either way.
//! * **Manual trigger**: the [`Compactor`] installs as an
//!   [`idf_engine::session::SessionExtension`], so SQL `COMPACT [table]`
//!   (and [`idf_engine::session::Session::compact`]) rewrites
//!   unconditionally, discovering indexed tables through the session
//!   catalog.
//!
//! Nothing runs unless asked for: a session that never calls [`install`]
//! has no `COMPACT`, and a compactor that is never
//! [`Compactor::start`]-ed has no background thread.
//!
//! ```
//! use idf_core::prelude::*;
//! use idf_engine::session::Session;
//!
//! let session = Session::new();
//! install_indexed_ddl(&session, IndexConfig::default());
//! let _compactor = idf_compact::install(&session, idf_compact::CompactConfig::default());
//!
//! session.sql("CREATE TABLE t (k BIGINT, v BIGINT)").unwrap().collect().unwrap();
//! session.sql("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap().collect().unwrap();
//! session.sql("UPDATE t SET v = 11 WHERE k = 1").unwrap().collect().unwrap();
//! // Manual trigger: drops the superseded version of key 1.
//! let report = session.sql("COMPACT t").unwrap().collect().unwrap();
//! assert_eq!(report.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod failpoints;

mod worker;
pub use worker::Compactor;

use std::sync::Arc;
use std::time::Duration;

use idf_engine::session::{Session, SessionExtension};

/// Tuning for the background compaction policy (see [`install`]).
#[derive(Debug, Clone)]
pub struct CompactConfig {
    /// Period between background survey cycles. Default 200ms.
    pub interval: Duration,
    /// A table is never rewritten while it holds fewer dead versions
    /// (tombstones + rows hidden below them) than this — small tables
    /// are not worth the rewrite. Default 256.
    pub min_dead_rows: usize,
    /// Dead fraction (dead versions / stored rows) above which a table
    /// is eligible for rewrite. Default 0.2.
    pub min_dead_ratio: f64,
    /// Escalation: once the process-global chain-walk p99 histogram
    /// (`idf-obs`) reports at least this many rows walked per probe,
    /// any surveyed table holding `min_dead_rows` dead versions is
    /// eligible regardless of its dead fraction. Default 8.
    pub chain_walk_p99_trigger: u64,
    /// Upper bound on tables rewritten per survey cycle, so one cycle's
    /// work stays bounded. Default 4.
    pub max_tables_per_cycle: usize,
}

impl Default for CompactConfig {
    fn default() -> Self {
        CompactConfig {
            interval: Duration::from_millis(200),
            min_dead_rows: 256,
            min_dead_ratio: 0.2,
            chain_walk_p99_trigger: 8,
            max_tables_per_cycle: 4,
        }
    }
}

/// Install the compaction subsystem on `session`: from then on SQL
/// `COMPACT [table]` dispatches to the returned [`Compactor`]. The
/// background worker is *not* started — call [`Compactor::start`] to
/// begin policy-driven cycles over explicitly
/// [`Compactor::register`]-ed tables.
pub fn install(session: &Session, config: CompactConfig) -> Arc<Compactor> {
    let compactor = Compactor::new(config);
    session.install_extension(Arc::clone(&compactor) as Arc<dyn SessionExtension>);
    compactor
}
