//! The append-sink seam between the in-memory table and a durability
//! layer.
//!
//! `idf-core` sits *below* `idf-durable` in the dependency graph, so the
//! table cannot call the WAL directly; instead the durable session
//! installs an [`AppendSink`] on the table and the append path calls it
//! at the commit point. Ordering contract (see
//! [`crate::table::IndexedTable::append_chunk`]):
//!
//! 1. phase 1 validates every row without touching shared state;
//! 2. the commit-point failpoint fires — an injected abort here leaves
//!    **neither** memory nor WAL touched, so a failed append can never be
//!    resurrected by recovery;
//! 3. [`AppendSink::begin_commit`] logs the encoded rows (honouring the
//!    configured durability level: `Sync` waits for the group-commit
//!    fsync, `Async` returns once staged);
//! 4. phase 2 publishes to memory; once every row is published the
//!    returned [`CommitGuard`] is told so ([`CommitGuard::published`]),
//!    and it is dropped only after publish ends, which is what lets a
//!    checkpoint quiesce the WAL: it waits for every guard to drop before
//!    snapshotting, so the snapshot covers every logged-and-acknowledged
//!    commit and the covered WAL segment can be retired safely.
//!
//! A crash between 3 and 4 means an *unacknowledged* append may still be
//! replayed on recovery — the classic "unknown outcome" window every
//! write-ahead-logged store has — but an acknowledged append is always
//! recovered and a failed append never is.

use idf_engine::error::Result;

/// The kind of a stored row: a live data version or a tombstone that
/// terminates the visible part of its key's backward-pointer chain.
///
/// The kind travels *beside* the encoded payload — through the sink seam
/// to the WAL and back through recovery — and is persisted in the stored
/// row header (bit 15 of `stored_len`, see [`crate::batch`]), so
/// checkpoints round-trip it bit-for-bit without a separate side table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    /// A regular row version.
    Data,
    /// A deletion marker: the chain walk stops here, hiding every older
    /// version of the key. Its payload is an encoded row carrying the key
    /// (all other columns NULL) so recovery can route it to a partition.
    Tombstone,
}

impl RowKind {
    /// Wire encoding (one byte) for WAL records.
    pub fn to_u8(self) -> u8 {
        match self {
            RowKind::Data => 0,
            RowKind::Tombstone => 1,
        }
    }

    /// Decode the wire byte; unknown values are `None` (corrupt record).
    pub fn from_u8(b: u8) -> Option<RowKind> {
        match b {
            0 => Some(RowKind::Data),
            1 => Some(RowKind::Tombstone),
            _ => None,
        }
    }
}

/// Whether a sink is accepting commits (see [`AppendSink::status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkStatus {
    /// Commits are accepted.
    Writable,
    /// The sink is degraded read-only; appends fail fast with
    /// `EngineError::ReadOnly`. Carries the degradation cause.
    ReadOnly(String),
}

/// Receiver for committed append payloads (the WAL, in practice).
pub trait AppendSink: Send + Sync {
    /// Log one committed statement: `rows` are the encoded row payloads,
    /// in publish order, and `kinds[i]` is the [`RowKind`] of `rows[i]` —
    /// or `kinds` is empty, and every row is data (an append). The whole
    /// slice is one atomic statement (a single WAL record), which is what
    /// bounds a crash to at most one ambiguous in-flight commit. Blocks
    /// according to the sink's durability level and returns a guard the
    /// caller holds until the rows are published to memory.
    fn begin_commit(&self, rows: &[&[u8]], kinds: &[RowKind]) -> Result<Box<dyn CommitGuard>>;

    /// Current write status. Degradation (sticky fsync failure, ENOSPC)
    /// flips the sink to [`SinkStatus::ReadOnly`]; reads are unaffected.
    fn status(&self) -> SinkStatus {
        SinkStatus::Writable
    }
}

/// An in-flight commit; dropping it tells the sink the statement is over
/// (see module docs for why checkpoints need this).
pub trait CommitGuard: Send {
    /// The statement's rows are all published to memory. The append path
    /// calls this once, after its last publish and before the guard
    /// drops; a guard dropped without it belongs to a statement whose
    /// publish failed, possibly partway, so an observer must not treat
    /// the logged rows as the rows the table now holds.
    fn published(&mut self) {}
}

/// Guard for sinks with no quiesce bookkeeping (tests, no-op sinks).
pub struct NoopCommitGuard;

impl CommitGuard for NoopCommitGuard {}

/// Fan a commit out to several sinks in order (WAL first, then taps such
/// as the materialized-view delta capture).
///
/// Ordering matters for failure atomicity: `begin_commit` consults the
/// sinks front-to-back and aborts on the first error, so a *fallible*
/// sink (the WAL) must come before infallible observers — if the WAL
/// rejects the commit, no tap ever sees it, and a tap that has no failure
/// modes of its own can never strand a WAL record. The composite guard
/// holds every inner guard and releases them together when the rows are
/// published.
pub struct FanoutSink {
    sinks: Vec<std::sync::Arc<dyn AppendSink>>,
}

impl FanoutSink {
    /// Compose `sinks`; commits visit them front-to-back.
    pub fn new(sinks: Vec<std::sync::Arc<dyn AppendSink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl AppendSink for FanoutSink {
    fn begin_commit(&self, rows: &[&[u8]], kinds: &[RowKind]) -> Result<Box<dyn CommitGuard>> {
        let mut guards = Vec::with_capacity(self.sinks.len());
        for sink in &self.sinks {
            guards.push(sink.begin_commit(rows, kinds)?);
        }
        Ok(Box::new(FanoutCommitGuard { guards }))
    }

    fn status(&self) -> SinkStatus {
        for sink in &self.sinks {
            if let SinkStatus::ReadOnly(cause) = sink.status() {
                return SinkStatus::ReadOnly(cause);
            }
        }
        SinkStatus::Writable
    }
}

/// Composite guard: `published` reaches every inner guard, and dropping
/// it drops them all (front-to-back), signalling every fanned-out sink
/// that the statement is over.
struct FanoutCommitGuard {
    guards: Vec<Box<dyn CommitGuard>>,
}

impl CommitGuard for FanoutCommitGuard {
    fn published(&mut self) {
        for guard in &mut self.guards {
            guard.published();
        }
    }
}
