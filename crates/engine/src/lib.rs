//! # idf-engine — a partitioned DataFrame/SQL engine with an extensible,
//! Catalyst-style optimizer
//!
//! This crate is the "Apache Spark" substrate of the Indexed DataFrame
//! reproduction: a from-scratch, single-process, multi-threaded analytical
//! query engine with
//!
//! * typed **columnar** storage ([`mod@column`], [`chunk`]) — the analogue of
//!   Spark's columnar DataFrame cache;
//! * a lazy **DataFrame API** ([`dataframe`]) and a **SQL** front end
//!   ([`sql`]);
//! * an **analyzer** (name resolution + type coercion), a rule-based
//!   **optimizer** with user-registrable rules, and a physical **planner**
//!   with user-registrable strategies — the three Catalyst phases the
//!   paper's Figure 1 shows, including the extension seam the Indexed
//!   DataFrame plugs into;
//! * partition-parallel execution with hash **shuffles** and **broadcast**
//!   joins ([`physical`]), each query on its share of the cores
//!   ([`fanout`]).
//!
//! ```
//! use idf_engine::prelude::*;
//! use std::sync::Arc;
//!
//! let session = Session::new();
//! let schema = Arc::new(Schema::new(vec![
//!     Field::new("id", DataType::Int64),
//!     Field::new("name", DataType::Utf8),
//! ]));
//! let chunk = Chunk::from_rows(&schema, &[
//!     vec![Value::Int64(1), Value::Utf8("ada".into())],
//!     vec![Value::Int64(2), Value::Utf8("bob".into())],
//! ]).unwrap();
//! session.register_table("people", Arc::new(MemTable::from_chunk(schema, chunk)));
//!
//! let df = session.table("people").unwrap()
//!     .filter(col("id").eq(lit(2i64))).unwrap();
//! let out = df.collect().unwrap();
//! assert_eq!(out.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analyzer;
pub mod bitmap;
pub mod catalog;
pub mod chunk;
pub mod column;
pub mod config;
pub mod csv;
pub mod dataframe;
pub mod error;
pub mod expr;
pub mod failpoints;
pub mod fanout;
pub mod logical;
pub mod optimizer;
pub mod physical;
pub mod planner;
pub mod pretty;
pub mod query;
pub mod schema;
pub mod session;
pub mod sql;
pub mod types;

/// Convenience re-exports for typical use.
pub mod prelude {
    pub use crate::catalog::{MemTable, TableSource};
    pub use crate::chunk::Chunk;
    pub use crate::config::{DurabilityLevel, EngineConfig};
    pub use crate::dataframe::DataFrame;
    pub use crate::error::{EngineError, Result};
    pub use crate::expr::{avg, col, count, count_star, lit, max, min, sum, Expr, SortExpr};
    pub use crate::logical::JoinType;
    pub use crate::query::{MemoryGovernor, QueryContext};
    pub use crate::schema::{Field, Schema, SchemaRef};
    pub use crate::session::Session;
    pub use crate::types::{DataType, Value};
}
