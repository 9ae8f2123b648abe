//! # idf-core — the Indexed DataFrame
//!
//! A Rust reproduction of the system demonstrated in *"Low-latency Spark
//! Queries on Updatable Data"* (Uta, Ghit, Dave, Boncz — SIGMOD 2019): a
//! cached DataFrame that stays cached **while data is appended**, with a
//! built-in concurrent cTrie index powering sub-linear point lookups,
//! equality filters, and equi-joins, under multi-version concurrency.
//!
//! ## Anatomy (paper §2)
//!
//! * [`table::IndexedTable`] — hash-partitioned on the indexed column with
//!   the engine's shuffle hash, so probe sides co-partition.
//! * [`partition::IndexedPartition`] — per partition: a
//!   [`idf_ctrie::CTrie`] index mapping each key to a packed pointer to the
//!   *latest* row with that key, append-only binary [`batch::RowBatch`]es
//!   (default 4 MiB), and backward pointers threading all rows that share a
//!   key (the per-key linked lists).
//! * [`pointer::RowPtr`] — packed, dense 64-bit pointers: batch number,
//!   in-batch offset, and the pointed-to row's size.
//! * [`source::IndexedSource`] + [`strategy::IndexedJoinStrategy`] — the
//!   Catalyst integration: equality filters on the indexed column push into
//!   the scan as cTrie lookups; single-key inner equi-joins become
//!   [`join_exec::IndexedJoinExec`] with the index as a pre-built build
//!   side; everything else transparently falls back to vanilla execution.
//! * [`api::IndexedDataFrame`] — the Listing-1 API: `create_index`,
//!   `cache`, `get_rows`, `append_rows`, `join`.
//!
//! ```
//! use idf_engine::prelude::*;
//! use idf_core::prelude::*;
//! use std::sync::Arc;
//!
//! let session = Session::new();
//! let schema = Arc::new(Schema::new(vec![
//!     Field::new("id", DataType::Int64),
//!     Field::new("name", DataType::Utf8),
//! ]));
//! let df = session.create_dataframe(schema.clone(), vec![
//!     vec![Value::Int64(1), Value::Utf8("ada".into())],
//! ]);
//! let indexed = df.create_index("id").unwrap();
//! indexed.cache();
//!
//! // fine-grained append + point lookup
//! indexed.append_row(&[Value::Int64(1), Value::Utf8("ada v2".into())]).unwrap();
//! let rows = indexed.get_rows_chunk(1i64).unwrap();
//! assert_eq!(rows.len(), 2);
//! assert_eq!(rows.value_at(1, 0), Value::Utf8("ada v2".into())); // latest first
//! ```

#![deny(missing_docs)]

pub mod api;
pub mod batch;
pub mod config;
pub mod failpoints;
pub mod join_exec;
pub mod layout;
pub mod partition;
pub mod pointer;
pub mod sink;
pub mod source;
pub mod strategy;
pub mod table;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::api::{
        install_indexed_ddl, CreateIndexExt, IndexedDataFrame, IndexedTableFactory,
    };
    pub use crate::config::IndexConfig;
    pub use crate::source::IndexedSource;
    pub use crate::strategy::IndexedJoinStrategy;
    pub use crate::table::IndexedTable;
}
