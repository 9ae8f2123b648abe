//! Named fault-injection sites in the compaction subsystem.
//!
//! Same contract as the storage-, durability-, engine-, service- and
//! view-layer registries (`crates/core/src/failpoints.rs`, …): each
//! constant names an `idf_fail::eval` site, every constant is registered
//! exactly once in [`SITES`], and the compaction chaos suite iterates
//! the table asserting that a fault at any site never changes any query
//! answer — compaction is pure reorganization, so the worst legal
//! outcome of a fault is that dead versions survive a little longer.

pub use idf_engine::failpoints::check;

idf_fail::sites! {
    /// Head of one policy survey cycle, before any table is examined: a
    /// fault here skips the whole cycle and the worker retries on the next
    /// tick.
    COMPACT_SELECT = "compact::select",

    /// Head of one table rewrite, before any batch is rebuilt: a fault here
    /// leaves the table byte-for-byte untouched.
    COMPACT_REWRITE = "compact::rewrite",

    /// Inside the rewrite, just before a partition's rebuilt batches are
    /// swapped in: a fault here must abandon the rebuilt state and leave
    /// the previous batches fully authoritative (readers never observe a
    /// half-swapped table).
    COMPACT_SWAP = "compact::swap",
}
