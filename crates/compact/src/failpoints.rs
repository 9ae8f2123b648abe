//! Fault-injection sites of the compaction subsystem (see
//! `idf_fail::sites!`). The compaction chaos suite asserts that a fault
//! at any of them never changes a query answer: compaction is pure
//! reorganization, so the worst legal outcome of a fault is that dead
//! versions survive a little longer.

pub use idf_engine::failpoints::check;

idf_fail::sites! {
    /// Head of one policy survey cycle, before any table is examined: a
    /// fault here skips the whole cycle and the worker retries on the next
    /// tick.
    COMPACT_SELECT,

    /// Head of one table rewrite, before any batch is rebuilt: a fault here
    /// leaves the table byte-for-byte untouched.
    COMPACT_REWRITE,

    /// Inside the rewrite, just before a partition's rebuilt batches are
    /// swapped in: a fault here must abandon the rebuilt state and leave
    /// the previous batches fully authoritative (readers never observe a
    /// half-swapped table).
    COMPACT_SWAP,
}
