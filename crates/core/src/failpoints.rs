//! Named fault-injection sites in the Indexed DataFrame's storage layer.
//!
//! Each constant names a site where `idf_fail::eval` is called; tests
//! configure sites via `idf_fail::FailGuard` to return errors, panic, or
//! delay, exercising read/append failure paths. The chaos suite
//! (`tests/chaos.rs`) iterates [`SITES`] and asserts the snapshot
//! consistency invariants hold with a fault at every one of them.

pub use idf_engine::failpoints::check;

idf_fail::sites! {
    /// A read of committed rows from a row batch: hit once per row on
    /// chain walks (`RowBatch::row_at_full`, every point lookup) and once
    /// per opened walk on scans (`RowBatch::iter_rows_from`: one per batch
    /// per produced chunk).
    BATCH_READ = "core::batch::read",

    /// Entry of a partition probe (`PartitionSnapshot::lookup_chunk` /
    /// `lookup_chunk_multi`): hit once per probed partition.
    PARTITION_PROBE = "core::probe::partition",

    /// Row encoding/validation, before any shared state is touched: phase 1
    /// of a chunk append and the start of a single-row append.
    APPEND_ENCODE = "core::append::encode",

    /// The append commit point: after every row of a chunk append has been
    /// validated and before the first row becomes visible (also checked at
    /// the head of a single-row append). A fault here must leave the table
    /// exactly as it was.
    APPEND_PUBLISH = "core::append::publish",
}
