//! Fault-injection sites of the durability layer (see `idf_fail::sites!`).
//! The crash-consistency chaos suite asserts that a fault at any of them
//! leaves a reopened table equal to a prefix of the committed appends.

use idf_engine::error::{EngineError, Result};

idf_fail::sites! {
    /// Head of a WAL commit (`TableWal::begin_commit`), before the record is
    /// staged: a fault here fails the append with nothing logged and nothing
    /// published.
    WAL_APPEND,

    /// The group-commit writer's flush, before bytes reach the file: a fault
    /// here poisons the WAL — `Sync` commits in the batch fail, and the
    /// error is sticky until the WAL is reopened.
    WAL_FSYNC,

    /// Checkpoint serialization, before the snapshot file is renamed into
    /// place: a fault here must leave the previous checkpoint (and the
    /// untruncated WAL) fully authoritative.
    CHECKPOINT_WRITE,

    /// Per-record WAL replay during recovery: a fault here must fail the
    /// open with a typed error, and a later clean open must succeed.
    RECOVERY_REPLAY,

    /// Per-target scrub verification (`DurableSession::scrub`): a fault here
    /// must fail the scrub with a typed error without quarantining anything,
    /// and a later clean scrub must succeed.
    SCRUB_VERIFY,

    /// Head of `resume_writes` re-arming a degraded WAL: a fault here must
    /// leave the table degraded (still read-only, still serving reads) and a
    /// later clean resume must succeed.
    WAL_RESUME,

    /// Head of a DML WAL commit (`TableWal::begin_commit_kinds` on a record
    /// that carries tombstones), before the record is staged: a fault here
    /// fails the statement with nothing logged and nothing published — the
    /// table keeps serving its pre-statement contents.
    WAL_DML_FRAME,
}

/// Evaluate the failpoint at `site`, mapping an injected fault into a
/// typed durability error that names the site.
#[inline]
pub fn check(site: idf_fail::Site) -> Result<()> {
    idf_fail::eval(site)
        .map_err(|msg| EngineError::durability(format!("injected failure at {site}: {msg}")))
}
