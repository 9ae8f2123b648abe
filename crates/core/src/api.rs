//! The user-facing Indexed DataFrame API.
//!
//! Mirrors the paper's Listing 1 as closely as Rust allows — Scala implicit
//! conversions become an extension trait on the engine's [`DataFrame`]:
//!
//! ```text
//! // Scala (paper)                          // Rust (this crate)
//! regularDF.createIndex(colNo)              regular_df.create_index("col")?
//! indexedDF.cache()                         indexed_df.cache()
//! indexedDF.getRows(lookupKey)              indexed_df.get_rows(key)?
//! indexedDF.appendRows(aRegularDF)          indexed_df.append_rows(&a_regular_df)?
//! indexedDF.join(regularDF, l === r)        indexed_df.join(&regular_df, "l", "r")?
//! ```

use std::sync::Arc;

use idf_engine::catalog::TableSource;
use idf_engine::chunk::Chunk;
use idf_engine::dataframe::DataFrame;
use idf_engine::error::{EngineError, Result};
use idf_engine::logical::{JoinType, LogicalPlan};
use idf_engine::schema::{Schema, SchemaRef};
use idf_engine::session::{Session, SessionExtension};
use idf_engine::types::Value;

use crate::config::IndexConfig;
use crate::partition::PartitionMemory;
use crate::source::IndexedSource;
use crate::strategy::IndexedJoinStrategy;
use crate::table::IndexedTable;

/// A cached, updatable DataFrame with a built-in cTrie index.
///
/// Cheap to clone: clones share the same underlying [`IndexedTable`], so an
/// `append_rows` through any handle is visible to all (readers in flight
/// keep their consistent snapshots — multi-version concurrency). A table
/// built with more than one index hands out one frame per index
/// ([`Self::index`]): the same rows, probed through that index.
#[derive(Clone)]
pub struct IndexedDataFrame {
    session: Session,
    table: Arc<IndexedTable>,
}

/// `createIndex` for regular DataFrames — the paper's implicit conversion.
pub trait CreateIndexExt {
    /// Index this DataFrame on `column`, materializing it into the
    /// hash-partitioned indexed representation.
    fn create_index(&self, column: &str) -> Result<IndexedDataFrame>;

    /// Like [`CreateIndexExt::create_index`] with explicit tuning.
    fn create_index_with(&self, column: &str, config: IndexConfig) -> Result<IndexedDataFrame>;
}

impl CreateIndexExt for DataFrame {
    fn create_index(&self, column: &str) -> Result<IndexedDataFrame> {
        self.create_index_with(column, IndexConfig::default())
    }

    fn create_index_with(&self, column: &str, config: IndexConfig) -> Result<IndexedDataFrame> {
        let in_schema = self.schema();
        let (qualifier, name) = match column.split_once('.') {
            Some((q, n)) => (Some(q), n),
            None => (None, column),
        };
        let key_col = in_schema.index_of(qualifier, name)?;
        // The indexed table is a base table: strip qualifiers.
        let schema = Arc::new(Schema::new(
            in_schema
                .fields
                .iter()
                .map(|f| idf_engine::schema::Field {
                    qualifier: None,
                    ..f.clone()
                })
                .collect(),
        ));
        let chunk = self.collect()?;
        let table = Arc::new(IndexedTable::from_chunk(schema, key_col, config, &chunk)?);
        let session = self.session().clone();
        // Inject the index-aware planning strategy (idempotent) — the
        // paper's "integration with Catalyst".
        session.register_strategy(Arc::new(IndexedJoinStrategy));
        Ok(IndexedDataFrame { session, table })
    }
}

impl IndexedDataFrame {
    /// Wrap an existing table (used by the benchmark harness).
    pub fn from_table(session: Session, table: Arc<IndexedTable>) -> Self {
        session.register_strategy(Arc::new(IndexedJoinStrategy));
        IndexedDataFrame { session, table }
    }

    /// The underlying table.
    pub fn table(&self) -> &Arc<IndexedTable> {
        &self.table
    }

    /// The frame over the same rows probed through the table's index on
    /// `column` (see [`IndexedTable::index`]).
    ///
    /// # Errors
    /// Fails when the table has no such column or no index on it.
    pub fn index(&self, column: &str) -> Result<IndexedDataFrame> {
        let col = self.table.schema().index_of(None, column)?;
        Ok(IndexedDataFrame {
            session: self.session.clone(),
            table: Arc::new(self.table.index(col)?),
        })
    }

    /// The session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The schema.
    pub fn schema(&self) -> SchemaRef {
        self.table.schema()
    }

    /// Paper fidelity: `indexedDF.cache()`. The indexed representation is
    /// always memory-resident in this implementation, so this is the
    /// identity — it exists so paper code ports verbatim.
    pub fn cache(&self) -> &Self {
        self
    }

    /// Register under `name` so SQL queries can address the indexed table;
    /// indexed execution is then triggered transparently.
    pub fn register(&self, name: &str) {
        self.session
            .register_table(name, Arc::new(IndexedSource::live(Arc::clone(&self.table))));
    }

    /// A DataFrame scanning the live indexed table.
    pub fn df(&self) -> DataFrame {
        self.df_named("indexed")
    }

    /// A DataFrame scanning the live indexed table, qualified as `name`.
    pub fn df_named(&self, name: &str) -> DataFrame {
        let source = Arc::new(IndexedSource::live(Arc::clone(&self.table)));
        let schema = Arc::new(source.schema().qualified(name));
        DataFrame::new(
            self.session.clone(),
            LogicalPlan::Scan {
                table: name.to_string(),
                source,
                schema,
                projection: None,
                filters: vec![],
            },
        )
    }

    /// A DataFrame pinned to a consistent snapshot of the table (reads are
    /// repeatable even while appends stream in).
    pub fn snapshot_df(&self) -> DataFrame {
        let source = Arc::new(IndexedSource::frozen(Arc::clone(&self.table)));
        let schema = Arc::new(source.schema().qualified("indexed"));
        DataFrame::new(
            self.session.clone(),
            LogicalPlan::Scan {
                table: "indexed".to_string(),
                source,
                schema,
                projection: None,
                filters: vec![],
            },
        )
    }

    /// `getRows`: all rows bound to `key`, latest append first, as a
    /// DataFrame (paper: *"our library returns a (smaller) Dataframe
    /// containing the required rows"*).
    pub fn get_rows(&self, key: impl Into<Value>) -> Result<DataFrame> {
        let chunk = self.get_rows_chunk(key)?;
        Ok(self
            .session
            .dataframe_from_chunk(self.table.schema(), chunk))
    }

    /// `getRows` without the DataFrame wrapper.
    pub fn get_rows_chunk(&self, key: impl Into<Value>) -> Result<Chunk> {
        self.table.lookup_chunk(&key.into(), None)
    }

    /// Batched `getRows`: all rows bound to *any* of `keys` as one
    /// DataFrame. Every key is probed against a single table snapshot, the
    /// key set is deduplicated, and each involved hash partition is probed
    /// once, on the calling thread, for all of its keys — cheaper than
    /// looping [`Self::get_rows`], which takes a snapshot per key.
    pub fn get_rows_batch(&self, keys: &[Value]) -> Result<DataFrame> {
        let chunk = self.get_rows_chunk_batch(keys)?;
        Ok(self
            .session
            .dataframe_from_chunk(self.table.schema(), chunk))
    }

    /// Batched `getRows` without the DataFrame wrapper.
    pub fn get_rows_chunk_batch(&self, keys: &[Value]) -> Result<Chunk> {
        self.table.lookup_chunk_batch(keys, None)
    }

    /// `appendRows`: append every row of a regular DataFrame. Both
    /// fine-grained (single-row frames) and batched appends go through
    /// here, exactly as in the paper. Returns a handle to the same
    /// (now longer) indexed table.
    pub fn append_rows(&self, df: &DataFrame) -> Result<IndexedDataFrame> {
        let in_schema = df.schema();
        let my_schema = self.table.schema();
        if in_schema.len() != my_schema.len()
            || in_schema
                .fields
                .iter()
                .zip(&my_schema.fields)
                .any(|(a, b)| a.data_type != b.data_type)
        {
            return Err(EngineError::type_err(format!(
                "appendRows schema mismatch: {in_schema} vs {my_schema}"
            )));
        }
        let chunk = df.collect()?;
        self.table.append_chunk(&chunk)?;
        Ok(self.clone())
    }

    /// Append one row of scalars (the finest-grained update).
    pub fn append_row(&self, values: &[Value]) -> Result<()> {
        self.table.append_row(values)
    }

    /// Index-powered equi-join with a regular DataFrame: the indexed
    /// relation is the build side, `other` is the probe side (shuffled to
    /// the index partitioning, or broadcast when small). The result is a
    /// regular DataFrame.
    pub fn join(&self, other: &DataFrame, indexed_col: &str, other_col: &str) -> Result<DataFrame> {
        let left = self.df();
        left.join(other, vec![(indexed_col, other_col)], JoinType::Inner)
    }

    /// Rows currently stored (all versions).
    pub fn row_count(&self) -> usize {
        self.table.row_count()
    }

    /// Memory accounting of this frame's index (see
    /// [`IndexedTable::memory_stats`]).
    pub fn memory_stats(&self) -> PartitionMemory {
        self.table.memory_stats()
    }
}

impl std::fmt::Debug for IndexedDataFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IndexedDataFrame({:?})", self.table)
    }
}

/// [`SessionExtension`] minting indexed tables for SQL `CREATE TABLE`: each
/// created table is an empty [`IndexedTable`] indexed on its first column,
/// registered as a live [`IndexedSource`] so SQL `INSERT`s become indexed
/// appends and key-equality lookups use the cTrie. Install with
/// [`install_indexed_ddl`].
pub struct IndexedTableFactory {
    config: IndexConfig,
}

impl IndexedTableFactory {
    /// Factory with explicit index tuning for every created table.
    pub fn new(config: IndexConfig) -> Self {
        IndexedTableFactory { config }
    }
}

impl Default for IndexedTableFactory {
    fn default() -> Self {
        Self::new(IndexConfig::default())
    }
}

impl SessionExtension for IndexedTableFactory {
    fn name(&self) -> &str {
        "indexed-ddl"
    }

    fn create_table(&self, _name: &str, schema: SchemaRef) -> Result<Option<Arc<dyn TableSource>>> {
        let table = Arc::new(IndexedTable::new(schema, 0, self.config.clone())?);
        Ok(Some(Arc::new(IndexedSource::live(table))))
    }
}

/// Make `session`'s SQL DDL produce indexed tables: installs an
/// [`IndexedTableFactory`] and the index-aware planning strategy
/// (idempotent), so `CREATE TABLE` + `INSERT` + key-equality `SELECT`s
/// run the paper's indexed path end to end.
pub fn install_indexed_ddl(session: &Session, config: IndexConfig) {
    session.register_strategy(Arc::new(IndexedJoinStrategy));
    session.install_extension(Arc::new(IndexedTableFactory::new(config)));
}
