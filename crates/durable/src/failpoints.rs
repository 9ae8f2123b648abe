//! Named fault-injection sites in the durability layer.
//!
//! Same contract as the storage-layer registry
//! (`crates/core/src/failpoints.rs`): each constant names an
//! `idf_fail::eval` site, every constant is registered exactly once in
//! [`SITES`], and the crash-consistency chaos suite iterates the table
//! asserting that a fault at any site leaves a reopened table equal to a
//! prefix of the committed appends.

use idf_engine::error::{EngineError, Result};

idf_fail::sites! {
    /// Head of a WAL commit (`TableWal::begin_commit`), before the record is
    /// staged: a fault here fails the append with nothing logged and nothing
    /// published.
    WAL_APPEND = "durable::wal::append",

    /// The group-commit writer's flush, before bytes reach the file: a fault
    /// here poisons the WAL — `Sync` commits in the batch fail, and the
    /// error is sticky until the WAL is reopened.
    WAL_FSYNC = "durable::wal::fsync",

    /// Checkpoint serialization, before the snapshot file is renamed into
    /// place: a fault here must leave the previous checkpoint (and the
    /// untruncated WAL) fully authoritative.
    CHECKPOINT_WRITE = "durable::checkpoint::write",

    /// Per-record WAL replay during recovery: a fault here must fail the
    /// open with a typed error, and a later clean open must succeed.
    RECOVERY_REPLAY = "durable::recovery::replay",

    /// Per-target scrub verification (`DurableSession::scrub`): a fault here
    /// must fail the scrub with a typed error without quarantining anything,
    /// and a later clean scrub must succeed.
    SCRUB_VERIFY = "durable::scrub::verify",

    /// Head of `resume_writes` re-arming a degraded WAL: a fault here must
    /// leave the table degraded (still read-only, still serving reads) and a
    /// later clean resume must succeed.
    WAL_RESUME = "durable::wal::resume",

    /// Head of a DML WAL commit (`TableWal::begin_commit_kinds` on a record
    /// that carries tombstones), before the record is staged: a fault here
    /// fails the statement with nothing logged and nothing published — the
    /// table keeps serving its pre-statement contents.
    WAL_DML_FRAME = "durable::wal::dml_frame",
}

/// Evaluate the failpoint at `site`, mapping an injected fault into a
/// typed durability error that names the site.
#[inline]
pub fn check(site: &str) -> Result<()> {
    idf_fail::eval(site)
        .map_err(|msg| EngineError::durability(format!("injected failure at {site}: {msg}")))
}
