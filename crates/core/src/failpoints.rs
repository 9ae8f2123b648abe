//! Fault-injection sites of the storage layer (see `idf_fail::sites!`).
//! The chaos suite (`tests/chaos.rs`) asserts the snapshot consistency
//! invariants with a fault at every one of them.

pub use idf_engine::failpoints::check;

idf_fail::sites! {
    /// A read of committed rows from a row batch: hit once per batch a
    /// chain walk enters (`RowBatch::chain_batch`, every point lookup),
    /// once per opened walk on scans (`RowBatch::iter_rows_from`: one per
    /// batch per produced chunk), and once per row on random-access reads
    /// (`RowBatch::row_at_full`: DML survivors, compaction, the rows
    /// tombstones hide).
    BATCH_READ,

    /// Entry of a partition probe (`PartitionSnapshot::lookup_chunk` /
    /// `lookup_chunk_multi`): hit once per probed partition.
    PARTITION_PROBE,

    /// Row encoding/validation, before any shared state is touched: hit
    /// once per partition in phase 1 of a chunk append (before it encodes
    /// that partition's rows), and once per row encoded on its own (the
    /// start of a single-row append, each tombstone and new image a DML
    /// statement encodes). Nothing that keeps stored bytes hits it: a
    /// DML statement's survivors, a compaction, a WAL replay.
    APPEND_ENCODE,

    /// The append commit point: after every row of a chunk append has been
    /// validated and before the first row becomes visible (also checked at
    /// the head of a single-row append). A fault here must leave the table
    /// exactly as it was. Also hit before each row an append publishes; a
    /// compaction's rewrite does not cross it.
    APPEND_PUBLISH,
}
