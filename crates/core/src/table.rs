//! The hash-partitioned indexed table.
//!
//! Paper, §2 (*Index Creation*): *"The Indexed DataFrame is hash
//! partitioned on the indexed column … when an index is created on a
//! regular Dataframe, its rows are shuffled based on the hash partitioning
//! scheme to their respective Indexed DataFrame partitions."*
//!
//! Partition routing uses the engine's shuffle hash
//! ([`idf_engine::physical::hash_values`]), which is what co-partitions a
//! shuffled probe side with the index during indexed joins.

use std::sync::Arc;

use idf_engine::chunk::Chunk;
use idf_engine::error::{catch_panics, panic_message, EngineError, Result};
use idf_engine::physical::hash_values;
use idf_engine::query::QueryContext;
use idf_engine::schema::SchemaRef;
use idf_engine::types::Value;

use parking_lot::{Mutex, RwLock};

use crate::config::IndexConfig;
use crate::partition::{
    CompactStats, IndexedPartition, PartitionMemory, PartitionSnapshot, MAX_INDEXES,
};
use crate::sink::{AppendSink, RowKind, SinkStatus};

/// A partitioned, updatable, indexed, in-memory table — as a *handle*: one
/// store of rows (hash-partitioned by the primary index's column) plus
/// which of the store's indexes this handle probes. Every handle of a
/// store appends, deletes and compacts the same rows; only lookups, key
/// pushdown and per-index accounting depend on the handle.
pub struct IndexedTable {
    store: Arc<Store>,
    /// The index this handle probes (0 = primary).
    index: usize,
}

/// The rows and indexes every handle of one table shares.
struct Store {
    schema: SchemaRef,
    /// The indexed columns, primary first.
    key_cols: Vec<usize>,
    config: IndexConfig,
    partitions: Vec<Arc<IndexedPartition>>,
    /// Durability hook; appends log through it when present (see
    /// [`crate::sink`] for the ordering contract).
    sink: RwLock<Option<Arc<dyn AppendSink>>>,
    /// Appends currently between the commit point and publish completion
    /// (see [`IndexedTable::commit_window`]).
    commit_window: std::sync::atomic::AtomicUsize,
    /// Serializes DML statements ([`IndexedTable::apply_dml`]): a DML
    /// commit reads chains, computes survivors, and republishes — two
    /// interleaved statements could otherwise both re-append the same
    /// survivor. Plain appends and the compactor do not take this lock.
    dml_lock: Mutex<()>,
}

/// RAII scope for one append's commit window: entered at the commit
/// point (just before the sink is consulted), left once the rows are
/// published to memory — on every path, including commit-point aborts.
struct CommitWindowScope<'a>(&'a Store);

impl<'a> CommitWindowScope<'a> {
    fn enter(store: &'a Store) -> Self {
        store
            .commit_window
            // idf-lint: allow(atomics-audit) -- SeqCst pairs the window counter with the tap-gate flag across two atomics; a closed gate must observe every in-window append
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        CommitWindowScope(store)
    }
}

impl Drop for CommitWindowScope<'_> {
    fn drop(&mut self) {
        self.0
            .commit_window
            // idf-lint: allow(atomics-audit) -- SeqCst exit pairs with the SeqCst enter; see commit_window()
            .fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
    }
}

impl IndexedTable {
    /// The primary handle of a new store over `partitions`.
    fn over(
        schema: SchemaRef,
        key_cols: Vec<usize>,
        config: IndexConfig,
        partitions: Vec<Arc<IndexedPartition>>,
    ) -> Self {
        IndexedTable {
            store: Arc::new(Store {
                schema,
                key_cols,
                config,
                partitions,
                sink: RwLock::new(None),
                commit_window: std::sync::atomic::AtomicUsize::new(0),
                dml_lock: Mutex::new(()),
            }),
            index: 0,
        }
    }

    /// An empty table indexing `schema[key_col]`.
    pub fn new(schema: SchemaRef, key_col: usize, config: IndexConfig) -> Result<Self> {
        Self::with_indexes(schema, key_col, &[], config)
    }

    /// An empty table whose rows are hash-partitioned by, and indexed on,
    /// `schema[primary_col]`, with one more index per column of
    /// `secondary_cols` over the same rows. The returned handle probes the
    /// primary index; [`Self::index`] hands out the others. A row is stored
    /// once whatever the number of indexes; each index after the first
    /// adds one 8-byte backward pointer to every row.
    pub fn with_indexes(
        schema: SchemaRef,
        primary_col: usize,
        secondary_cols: &[usize],
        config: IndexConfig,
    ) -> Result<Self> {
        config.validate().map_err(EngineError::Plan)?;
        let key_cols: Vec<usize> = std::iter::once(primary_col)
            .chain(secondary_cols.iter().copied())
            .collect();
        if let Some(&c) = key_cols.iter().find(|&&c| c >= schema.len()) {
            return Err(EngineError::plan(format!(
                "index column {c} out of range for schema of width {}",
                schema.len()
            )));
        }
        if key_cols.len() > MAX_INDEXES {
            return Err(EngineError::plan(format!(
                "{} indexes requested; a table carries at most {MAX_INDEXES}",
                key_cols.len()
            )));
        }
        if (1..key_cols.len()).any(|i| key_cols[..i].contains(&key_cols[i])) {
            return Err(EngineError::plan(format!(
                "a column is indexed twice in {key_cols:?}"
            )));
        }
        let partitions = (0..config.num_partitions)
            .map(|_| {
                Arc::new(IndexedPartition::with_indexes(
                    Arc::clone(&schema),
                    &key_cols,
                    config.clone(),
                ))
            })
            .collect();
        Ok(Self::over(schema, key_cols, config, partitions))
    }

    /// Rebuild a single-index table around partitions restored from a
    /// checkpoint (see [`IndexedPartition::restore`]). The partition count
    /// must match the configured hash fan-out — keys would otherwise route
    /// to the wrong partition and every probe after recovery would
    /// silently miss.
    pub fn from_restored_partitions(
        schema: SchemaRef,
        key_col: usize,
        config: IndexConfig,
        partitions: Vec<Arc<IndexedPartition>>,
    ) -> Result<Self> {
        config.validate().map_err(EngineError::Plan)?;
        if key_col >= schema.len() {
            return Err(EngineError::plan(format!(
                "index column {key_col} out of range for schema of width {}",
                schema.len()
            )));
        }
        if partitions.len() != config.num_partitions {
            return Err(EngineError::corrupt(format!(
                "restored {} partitions for a table configured with {}",
                partitions.len(),
                config.num_partitions
            )));
        }
        Ok(Self::over(schema, vec![key_col], config, partitions))
    }

    /// The handle of this table's index on column `col`: the same rows,
    /// probed through that index.
    ///
    /// # Errors
    /// Fails when the table carries no index on `col`.
    pub fn index(&self, col: usize) -> Result<IndexedTable> {
        let index = self
            .store
            .key_cols
            .iter()
            .position(|&c| c == col)
            .ok_or_else(|| {
                EngineError::plan(format!(
                    "no index on column {col}; indexed columns are {:?}",
                    self.store.key_cols
                ))
            })?;
        Ok(IndexedTable {
            store: Arc::clone(&self.store),
            index,
        })
    }

    /// The indexed columns, primary first.
    pub fn index_cols(&self) -> &[usize] {
        &self.store.key_cols
    }

    /// Whether this handle probes the primary index — the one rows are
    /// hash-partitioned by, so a key lives in exactly one partition.
    pub fn is_primary(&self) -> bool {
        self.index == 0
    }

    /// The column rows are hash-partitioned by (the primary index's).
    pub fn primary_col(&self) -> usize {
        self.store.key_cols[0]
    }

    /// Install (or replace) the append sink all later appends log through.
    /// The durable session installs it *after* WAL replay, so replayed
    /// appends are not re-logged.
    pub fn set_append_sink(&self, sink: Arc<dyn AppendSink>) {
        *self.store.sink.write() = Some(sink);
    }

    /// Add `sink` *alongside* any already-installed sink instead of
    /// replacing it, composing through [`crate::sink::FanoutSink`]. The
    /// existing sink (the WAL, when the table is durable) keeps first
    /// position so its commit decision still gates the added tap — see
    /// the ordering contract on [`FanoutSink`](crate::sink::FanoutSink).
    /// The views subsystem uses this to tap committed chunks for
    /// incremental maintenance without disturbing durability.
    pub fn add_append_sink(&self, sink: Arc<dyn AppendSink>) {
        let mut slot = self.store.sink.write();
        *slot = Some(match slot.take() {
            None => sink,
            Some(existing) => Arc::new(crate::sink::FanoutSink::new(vec![existing, sink])),
        });
    }

    /// Whether appends are currently accepted. A table whose sink has
    /// degraded (sticky fsync failure, ENOSPC) reports
    /// [`SinkStatus::ReadOnly`] with the cause; reads, snapshots and
    /// checkpoints are unaffected. A table with no sink is writable.
    pub fn write_status(&self) -> SinkStatus {
        match self.store.sink.read().as_ref() {
            Some(sink) => sink.status(),
            None => SinkStatus::Writable,
        }
    }

    /// Decode an encoded row payload (as handed to the append sink) back
    /// into scalars — the recovery path uses this to replay WAL records
    /// through the regular typed append protocol.
    ///
    /// # Errors
    /// Fails on a payload that does not match the table's row layout.
    pub fn decode_payload(&self, payload: &[u8]) -> Result<Vec<Value>> {
        match self.store.partitions.first() {
            Some(p) => p.decode_payload(payload),
            None => Err(EngineError::internal("table has no partitions")),
        }
    }

    /// Build from an existing chunk (index creation): rows are routed to
    /// their hash partitions and inserted in parallel, one task per
    /// partition (appends within a partition stay sequential).
    pub fn from_chunk(
        schema: SchemaRef,
        key_col: usize,
        config: IndexConfig,
        chunk: &Chunk,
    ) -> Result<Self> {
        let table = Self::new(schema, key_col, config)?;
        table.append_chunk(chunk)?;
        Ok(table)
    }

    /// The table schema.
    pub fn schema(&self) -> SchemaRef {
        Arc::clone(&self.store.schema)
    }

    /// The column this handle's index keys.
    pub fn key_col(&self) -> usize {
        self.store.key_cols[self.index]
    }

    /// The configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.store.config
    }

    /// Number of hash partitions.
    pub fn num_partitions(&self) -> usize {
        self.store.partitions.len()
    }

    /// The partition a primary key routes to.
    pub fn partition_of(&self, key: &Value) -> usize {
        (hash_values(std::slice::from_ref(key)) % self.store.partitions.len() as u64) as usize
    }

    /// Partition handle.
    pub fn partition(&self, i: usize) -> &Arc<IndexedPartition> {
        &self.store.partitions[i]
    }

    /// A snapshot of partition `i` whose lookups probe this handle's index
    /// (for the scan source and joins).
    pub fn partition_snapshot(&self, i: usize) -> PartitionSnapshot {
        self.store.partitions[i].snapshot_for(self.index)
    }

    /// Append one row.
    pub fn append_row(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.store.schema.len() {
            return Err(EngineError::internal(format!(
                "row width {} vs schema width {}",
                values.len(),
                self.store.schema.len()
            )));
        }
        let p = self.partition_of(&values[self.primary_col()]);
        let _window = CommitWindowScope::enter(&self.store);
        let sink = self.store.sink.read().clone();
        match sink {
            // No durability attached: the original zero-extra-work path.
            None => self.store.partitions[p].append_row(values),
            // Durable path: validate/encode first, log, then publish —
            // same ordering contract as `append_chunk`.
            Some(sink) => {
                let payload = self.store.partitions[p].encode_row(values)?;
                let _guard = sink.begin_commit(&[payload.as_slice()])?;
                self.store.partitions[p].append_encoded(&values[self.primary_col()], &payload)
            }
        }
    }

    /// Number of appends currently inside the commit window: past phase-1
    /// validation (about to consult the sink) but not yet fully published
    /// to memory. The views subsystem polls this while its delta-capture
    /// gate is closed to wait out appends that raced a tap install — once
    /// it reads the number of appends parked at the gate itself, every
    /// earlier commit has published and a base-table read is a consistent
    /// seed point.
    pub fn commit_window(&self) -> usize {
        self.store
            .commit_window
            // idf-lint: allow(atomics-audit) -- SeqCst read pairs with enter/exit so a closed gate never misses a parked append
            .load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Append every row of `chunk`, routing by key hash. Rows for distinct
    /// partitions are inserted in parallel.
    ///
    /// The append is two-phase so a failure never publishes a partial
    /// batch: phase 1 encodes and validates every row (oversized rows,
    /// encoding faults) without touching any shared state; only once every
    /// partition's rows have validated does phase 2 publish them. A worker
    /// that errors or panics in phase 1 therefore leaves the table exactly
    /// as it was. Phase 2 publish failures are partition-local by design —
    /// the same per-partition atomicity the snapshot contract documents.
    pub fn append_chunk(&self, chunk: &Chunk) -> Result<()> {
        if chunk.num_columns() != self.store.schema.len() {
            return Err(EngineError::type_err(format!(
                "appended data has {} columns, table has {}",
                chunk.num_columns(),
                self.store.schema.len()
            )));
        }
        let n = self.store.partitions.len();
        // Route rows.
        let key_col = chunk.column(self.primary_col());
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n];
        for row in 0..chunk.len() {
            let key = key_col.value_at(row);
            let p = (hash_values(std::slice::from_ref(&key)) % n as u64) as usize;
            buckets[p].push(row as u32);
        }
        let involved: Vec<(usize, &Vec<u32>)> = buckets
            .iter()
            .enumerate()
            .filter(|(_, rows)| !rows.is_empty())
            .collect();
        if involved.is_empty() {
            return Ok(());
        }
        // Phase 1: encode + validate every partition's rows in parallel,
        // touching no shared state.
        type Encoded = Vec<(Value, Vec<u8>)>;
        let key_col_idx = self.primary_col();
        let encode_bucket = |p: usize, rows: &[u32]| -> Result<(usize, Encoded)> {
            catch_panics(|| {
                let partition = &self.store.partitions[p];
                let sub = chunk.take(rows)?;
                let mut encoded = Vec::with_capacity(sub.len());
                for r in 0..sub.len() {
                    let values = sub.row_values(r);
                    let payload = partition.encode_row(&values)?;
                    encoded.push((values[key_col_idx].clone(), payload));
                }
                Ok((p, encoded))
            })
        };
        let encoded: Vec<(usize, Encoded)> = if involved.len() == 1 {
            let (p, rows) = involved[0];
            vec![encode_bucket(p, rows)?]
        } else {
            let results: Vec<Result<(usize, Encoded)>> = std::thread::scope(|s| {
                let encode = &encode_bucket;
                let handles: Vec<_> = involved
                    .iter()
                    .map(|&(p, rows)| s.spawn(move || encode(p, rows)))
                    .collect();
                handles.into_iter().map(join_isolated).collect()
            });
            results.into_iter().collect::<Result<_>>()?
        };
        // Commit point: past here rows start becoming visible.
        let _window = CommitWindowScope::enter(&self.store);
        crate::failpoints::check(crate::failpoints::APPEND_PUBLISH)?;
        // Log the whole validated chunk before anything becomes visible;
        // an abort at the commit point above leaves the WAL untouched, so
        // a failed append is never resurrected by recovery. The guard is
        // held through phase 2 so a checkpoint cannot truncate the WAL
        // under a commit that is logged but not yet published.
        let sink = self.store.sink.read().clone();
        let _guard = match &sink {
            Some(sink) => {
                let rows: Vec<&[u8]> = encoded
                    .iter()
                    .flat_map(|(_, rows)| rows.iter().map(|(_, payload)| payload.as_slice()))
                    .collect();
                Some(sink.begin_commit(&rows)?)
            }
            None => None,
        };
        // Phase 2: publish per-partition, in parallel.
        let publish_bucket = |p: usize, encoded: &[(Value, Vec<u8>)]| -> Result<()> {
            catch_panics(|| {
                let partition = &self.store.partitions[p];
                for (key, payload) in encoded {
                    partition.append_encoded(key, payload)?;
                }
                Ok(())
            })
        };
        if encoded.len() == 1 {
            let (p, rows) = &encoded[0];
            return publish_bucket(*p, rows);
        }
        let results: Vec<Result<()>> = std::thread::scope(|s| {
            let publish = &publish_bucket;
            let handles: Vec<_> = encoded
                .iter()
                .map(|(p, rows)| {
                    let p = *p;
                    s.spawn(move || publish(p, rows))
                })
                .collect();
            handles.into_iter().map(join_isolated).collect()
        });
        results.into_iter().collect::<Result<Vec<()>>>()?;
        Ok(())
    }

    /// Point lookup across the table: one partition through the primary
    /// index (hash routing), every partition through any other.
    pub fn lookup_chunk(&self, key: &Value, projection: Option<&[usize]>) -> Result<Chunk> {
        if key.is_null() {
            let cols = projection.map_or(self.store.schema.len(), <[usize]>::len);
            let proj: Vec<usize> =
                projection.map_or_else(|| (0..cols).collect(), <[usize]>::to_vec);
            return Ok(Chunk::empty(&Arc::new(self.store.schema.project(&proj))));
        }
        if !self.is_primary() {
            return self.snapshot().lookup_chunk(key, projection);
        }
        let p = self.partition_of(key);
        self.store.partitions[p]
            .snapshot()
            .lookup_chunk(key, projection)
    }

    /// Batched point lookup: every key probed against **one** table-wide
    /// snapshot (see [`TableSnapshot::lookup_batch`]), so all results
    /// reflect the same point in time even while appends are in flight.
    pub fn lookup_chunk_batch(
        &self,
        keys: &[Value],
        projection: Option<&[usize]>,
    ) -> Result<Chunk> {
        self.snapshot().lookup_batch(keys, projection)
    }

    /// Total rows.
    pub fn row_count(&self) -> usize {
        self.store.partitions.iter().map(|p| p.row_count()).sum()
    }

    /// Consistent snapshot of every partition, probing this handle's
    /// index.
    pub fn snapshot(&self) -> TableSnapshot {
        TableSnapshot {
            schema: Arc::clone(&self.store.schema),
            key_col: self.key_col(),
            primary: self.is_primary(),
            partitions: (0..self.num_partitions())
                .map(|p| self.partition_snapshot(p))
                .collect(),
        }
    }

    /// Aggregated memory accounting of this handle: the primary handle
    /// reports every committed row byte (every index's backward pointers
    /// included), any other handle none — the rows are counted once per
    /// table — and each handle its own index's entries. Row, tombstone and
    /// dead-row counts describe the shared rows on every handle.
    pub fn memory_stats(&self) -> PartitionMemory {
        let mut total = self.store_stats();
        if !self.is_primary() {
            total.data_bytes = 0;
            total.reserved_bytes = 0;
        }
        total
    }

    /// [`Self::memory_stats`] with the store's bytes on every handle.
    pub(crate) fn store_stats(&self) -> PartitionMemory {
        let mut total = PartitionMemory::default();
        for p in &self.store.partitions {
            let m = p.memory_stats();
            total.data_bytes += m.data_bytes;
            total.reserved_bytes += m.reserved_bytes;
            total.index_entries += p.key_count(self.index);
            total.rows += m.rows;
            total.tombstones += m.tombstones;
            total.dead_rows += m.dead_rows;
        }
        total
    }

    /// Apply one DML statement: delete the rows in `deletes` (by value
    /// identity — the executor hands back the exact rows its bound scan
    /// matched) and insert the rows in `inserts` (an `UPDATE`'s new
    /// images; empty for a plain `DELETE`). Returns the number of rows
    /// that actually matched, which is the statement's rows-affected.
    ///
    /// # Protocol
    ///
    /// For every key touched by a delete, the commit appends — in one
    /// atomic statement per the [`AppendSink::begin_commit_kinds`]
    /// contract — a tombstone (hiding every existing version of the key),
    /// then re-appends the *survivors* (visible versions that did not
    /// match a delete row, oldest-first so chain order is preserved), then
    /// the new images. Readers keep the plain MVCC contract: a snapshot
    /// taken before the commit point never sees any of it; one taken after
    /// sees all of it (per partition).
    ///
    /// Rows whose key is NULL are not reachable through the index and are
    /// therefore not DML-addressable: a delete naming one is a typed
    /// error. A delete row that no longer exists in the live chain (a
    /// concurrent statement got there first) is skipped, not an error —
    /// it simply does not count toward rows-affected.
    pub fn apply_dml(&self, deletes: &[Vec<Value>], inserts: &[Vec<Value>]) -> Result<usize> {
        for row in deletes.iter().chain(inserts.iter()) {
            if row.len() != self.store.schema.len() {
                return Err(EngineError::internal(format!(
                    "DML row width {} vs schema width {}",
                    row.len(),
                    self.store.schema.len()
                )));
            }
        }
        for row in deletes {
            if row[self.primary_col()].is_null() {
                return Err(EngineError::exec(
                    "DML cannot address rows whose index key is NULL",
                ));
            }
        }
        if deletes.is_empty() && inserts.is_empty() {
            return Ok(0);
        }
        let n = self.store.partitions.len();
        // Group deletes per partition, per key (first-occurrence order so
        // the commit is deterministic for a given statement).
        let mut del_groups: Vec<Vec<(Value, Vec<Vec<Value>>)>> = vec![Vec::new(); n];
        for row in deletes {
            let key = &row[self.primary_col()];
            let p = self.partition_of(key);
            match del_groups[p].iter_mut().find(|(k, _)| k == key) {
                Some((_, rows)) => rows.push(row.clone()),
                None => del_groups[p].push((key.clone(), vec![row.clone()])),
            }
        }
        let mut ins_groups: Vec<Vec<&Vec<Value>>> = vec![Vec::new(); n];
        for row in inserts {
            ins_groups[self.partition_of(&row[self.primary_col()])].push(row);
        }
        // One statement at a time; see the field doc on `dml_lock`.
        let _stmt = self.store.dml_lock.lock();
        // Block writers on every touched partition for the whole
        // read-compute-publish cycle so the survivor set cannot go stale
        // between computing it and republishing it. Readers are never
        // blocked. Locks are taken in ascending partition order.
        let touched: Vec<usize> = (0..n)
            .filter(|&p| !del_groups[p].is_empty() || !ins_groups[p].is_empty())
            .collect();
        let _locks: Vec<_> = touched
            .iter()
            .map(|&p| self.store.partitions[p].lock_appends())
            .collect();
        // Phase 1: with the chains frozen, compute survivors and encode
        // every payload. Nothing shared is touched; an error here leaves
        // the table exactly as it was.
        let mut rows_affected = 0usize;
        let mut ops: Vec<Vec<(Value, Vec<u8>, RowKind)>> = vec![Vec::new(); n];
        for &p in &touched {
            let partition = &self.store.partitions[p];
            for (key, rows) in &del_groups[p] {
                let visible = partition.visible_rows_locked(key)?;
                let mut pending: Vec<&Vec<Value>> = rows.iter().collect();
                // `visible` is latest-first; survivors keep that order
                // here and are re-appended oldest-first below.
                let mut survivors: Vec<&Vec<Value>> = Vec::new();
                let mut matched = 0usize;
                for v in &visible {
                    if let Some(i) = pending.iter().position(|r| *r == v) {
                        pending.swap_remove(i);
                        matched += 1;
                    } else {
                        survivors.push(v);
                    }
                }
                if matched == 0 {
                    // Nothing to hide for this key (raced away or never
                    // there) — emitting a tombstone would only churn.
                    continue;
                }
                rows_affected += matched;
                let mut tomb_vals = vec![Value::Null; self.store.schema.len()];
                tomb_vals[self.primary_col()] = key.clone();
                let tomb = partition.encode_row(&tomb_vals)?;
                ops[p].push((key.clone(), tomb, RowKind::Tombstone));
                for v in survivors.iter().rev() {
                    ops[p].push((key.clone(), partition.encode_row(v)?, RowKind::Data));
                }
            }
            for row in &ins_groups[p] {
                let payload = partition.encode_row(row)?;
                ops[p].push((row[self.primary_col()].clone(), payload, RowKind::Data));
            }
        }
        if ops.iter().all(Vec::is_empty) {
            return Ok(rows_affected);
        }
        // Commit point: log the whole statement as ONE kind-tagged record,
        // then publish under the already-held append locks. An abort at
        // the failpoint leaves neither memory nor WAL touched.
        let _window = CommitWindowScope::enter(&self.store);
        crate::failpoints::check(crate::failpoints::APPEND_PUBLISH)?;
        let sink = self.store.sink.read().clone();
        let _guard = match &sink {
            Some(sink) => {
                let mut rows: Vec<&[u8]> = Vec::new();
                let mut kinds: Vec<RowKind> = Vec::new();
                for &p in &touched {
                    for (_, payload, kind) in &ops[p] {
                        rows.push(payload.as_slice());
                        kinds.push(*kind);
                    }
                }
                Some(sink.begin_commit_kinds(&rows, &kinds)?)
            }
            None => None,
        };
        // Phase 2: publish, partitions in ascending order, each
        // partition's ops in statement order.
        for &p in &touched {
            let partition = &self.store.partitions[p];
            for (key, payload, kind) in &ops[p] {
                partition.publish_locked_kind(key, payload, *kind)?;
            }
        }
        Ok(rows_affected)
    }

    /// Replay one DML statement's kind-tagged payloads from the WAL:
    /// append each payload with its recorded kind, routed by its decoded
    /// key. Replay happens before any sink is installed and before
    /// concurrent writers exist, so the plain per-row append path
    /// reproduces the original commit exactly.
    pub fn replay_dml(&self, payloads: &[Vec<u8>], kinds: &[RowKind]) -> Result<()> {
        if payloads.len() != kinds.len() {
            return Err(EngineError::corrupt(format!(
                "DML record has {} payloads but {} kinds",
                payloads.len(),
                kinds.len()
            )));
        }
        for (payload, kind) in payloads.iter().zip(kinds) {
            let values = self.decode_payload(payload)?;
            let key = &values[self.primary_col()];
            let p = self.partition_of(key);
            self.store.partitions[p].append_encoded_kind(key, payload, *kind)?;
        }
        Ok(())
    }

    /// Compact every partition in turn (see [`IndexedPartition::compact`]):
    /// drop versions hidden below tombstones, shorten chains, release the
    /// memory. Readers are never blocked; writers wait per partition.
    /// Returns the merged stats; partitions with no tombstones are no-ops.
    pub fn compact(&self) -> Result<CompactStats> {
        self.compact_with(&|| Ok(()))
    }

    /// [`compact`](Self::compact) with a caller hook invoked on each
    /// partition just before its rewritten state is swapped in — the
    /// compaction subsystem injects its swap failpoint here. An error from
    /// the hook aborts that partition's rewrite with no state change and
    /// propagates; already-compacted partitions stay compacted (each
    /// partition swap is individually atomic).
    pub fn compact_with(&self, pre_swap: &dyn Fn() -> Result<()>) -> Result<CompactStats> {
        let mut total = CompactStats::default();
        for p in &self.store.partitions {
            total.merge(&p.compact(pre_swap)?);
        }
        Ok(total)
    }
}

/// Join a scoped worker, converting a panic that escaped `catch_panics`
/// (or tore down the unwind machinery) into an engine error instead of
/// propagating it into the caller.
fn join_isolated<'scope, T>(h: std::thread::ScopedJoinHandle<'scope, Result<T>>) -> Result<T> {
    h.join().unwrap_or_else(|payload| {
        Err(EngineError::internal(format!(
            "storage task panicked: {}",
            panic_message(payload.as_ref())
        )))
    })
}

impl std::fmt::Debug for IndexedTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "IndexedTable(key={}, partitions={}, rows={})",
            self.store.schema.field(self.key_col()).name,
            self.store.partitions.len(),
            self.row_count()
        )
    }
}

/// A frozen view of every partition.
///
/// # Consistency contract
///
/// Each [`PartitionSnapshot`] is individually consistent: it is an atomic
/// point-in-time view of its partition (index and row bytes agree, chains
/// never dangle, later appends to that partition are invisible). The
/// *table* snapshot, however, is assembled by snapshotting partitions one
/// after another **without pausing writers**, so it is per-partition
/// consistent, not globally serializable: a multi-row append racing with
/// `snapshot()` may be visible in a later-snapshotted partition while its
/// sibling rows in an earlier-snapshotted partition are not. This mirrors
/// the paper's Spark semantics, where each partition is an independently
/// versioned RDD block. Appends routed to a single partition (every row of
/// one key, since routing hashes the key) are therefore always observed
/// atomically; only *cross-partition* batches can be observed partially.
///
/// Lookups probe the index of the handle that took the snapshot: one
/// partition per key through the primary index, every partition through
/// any other (its keys are not routed).
pub struct TableSnapshot {
    schema: SchemaRef,
    key_col: usize,
    /// Whether lookups probe the primary index.
    primary: bool,
    partitions: Vec<PartitionSnapshot>,
}

impl TableSnapshot {
    /// The table schema.
    pub fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    /// The probed index's column position.
    pub fn key_col(&self) -> usize {
        self.key_col
    }

    /// Partition views.
    pub fn partitions(&self) -> &[PartitionSnapshot] {
        &self.partitions
    }

    /// Point lookup within the snapshot.
    pub fn lookup_chunk(&self, key: &Value, projection: Option<&[usize]>) -> Result<Chunk> {
        if !self.primary {
            let chunks = self
                .partitions
                .iter()
                .map(|p| p.lookup_chunk(key, projection))
                .collect::<Result<Vec<_>>>()?;
            return Chunk::concat(&chunks);
        }
        let p = (hash_values(std::slice::from_ref(key)) % self.partitions.len() as u64) as usize;
        self.partitions[p].lookup_chunk(key, projection)
    }

    /// Batched point lookup: probe many keys against this one snapshot and
    /// return all matching rows as a single chunk.
    ///
    /// Keys are deduplicated (and NULLs dropped — a NULL never equals any
    /// indexed key), grouped by their hash partition (every partition
    /// takes every key through an index other than the primary), and the
    /// involved partitions are probed **in parallel**, each sharing one set of
    /// column builders across all of its keys. Row order: grouped by
    /// partition in partition order; within a partition, keys in
    /// first-occurrence order, each key's chain latest-first. Callers that
    /// need a specific order sort the resulting chunk.
    pub fn lookup_batch(&self, keys: &[Value], projection: Option<&[usize]>) -> Result<Chunk> {
        self.lookup_batch_ctx(keys, projection, None)
    }

    /// [`lookup_batch`](Self::lookup_batch) with query lifecycle hooks:
    /// per-key cancellation/deadline checks and result-memory charging
    /// against `query` when one is supplied. Partition probes are
    /// panic-isolated — a worker that dies surfaces as an engine error.
    pub fn lookup_batch_ctx(
        &self,
        keys: &[Value],
        projection: Option<&[usize]>,
        query: Option<&QueryContext>,
    ) -> Result<Chunk> {
        let n = self.partitions.len();
        // Route distinct non-null keys to their partitions.
        let mut buckets: Vec<Vec<&Value>> = vec![Vec::new(); n];
        let mut seen: std::collections::HashSet<&Value> = std::collections::HashSet::new();
        for key in keys {
            if key.is_null() || !seen.insert(key) {
                continue;
            }
            if self.primary {
                let p = (hash_values(std::slice::from_ref(key)) % n as u64) as usize;
                buckets[p].push(key);
            } else {
                buckets.iter_mut().for_each(|b| b.push(key));
            }
        }
        let involved: Vec<(usize, Vec<Value>)> = buckets
            .into_iter()
            .enumerate()
            .filter(|(_, keys)| !keys.is_empty())
            .map(|(p, keys)| (p, keys.into_iter().cloned().collect()))
            .collect();
        let probe = |p: usize, keys: &[Value]| -> Result<Chunk> {
            catch_panics(|| self.partitions[p].lookup_chunk_multi_ctx(keys, projection, query))
        };
        let chunks: Vec<Chunk> = match involved.len() {
            0 => {
                let proj: Vec<usize> =
                    projection.map_or_else(|| (0..self.schema.len()).collect(), <[usize]>::to_vec);
                return Ok(Chunk::empty(&Arc::new(self.schema.project(&proj))));
            }
            // One partition involved: probe inline, no thread overhead.
            1 => {
                let (p, keys) = &involved[0];
                vec![probe(*p, keys)?]
            }
            _ => {
                let results: Vec<Result<Chunk>> = std::thread::scope(|s| {
                    let probe = &probe;
                    let handles: Vec<_> = involved
                        .iter()
                        .map(|(p, keys)| s.spawn(move || probe(*p, keys)))
                        .collect();
                    handles.into_iter().map(join_isolated).collect()
                });
                results.into_iter().collect::<Result<_>>()?
            }
        };
        Chunk::concat(&chunks)
    }

    /// Total rows visible.
    pub fn row_count(&self) -> usize {
        self.partitions
            .iter()
            .map(PartitionSnapshot::row_count)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idf_engine::schema::{Field, Schema};
    use idf_engine::types::DataType;

    fn schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]))
    }

    fn cfg(n: usize) -> IndexConfig {
        IndexConfig {
            num_partitions: n,
            ..Default::default()
        }
    }

    fn chunk(rows: impl Iterator<Item = (i64, i64)>) -> Chunk {
        let rows: Vec<Vec<Value>> = rows
            .map(|(k, v)| vec![Value::Int64(k), Value::Int64(v)])
            .collect();
        Chunk::from_rows(&schema(), &rows).unwrap()
    }

    #[test]
    fn build_from_chunk_and_lookup() {
        let data = chunk((0..1000).map(|i| (i % 100, i)));
        let t = IndexedTable::from_chunk(schema(), 0, cfg(4), &data).unwrap();
        assert_eq!(t.row_count(), 1000);
        for k in 0..100 {
            let c = t.lookup_chunk(&Value::Int64(k), None).unwrap();
            assert_eq!(c.len(), 10, "key {k}");
            for r in 0..c.len() {
                assert_eq!(c.value_at(0, r), Value::Int64(k));
            }
        }
        assert_eq!(t.lookup_chunk(&Value::Int64(1234), None).unwrap().len(), 0);
    }

    #[test]
    fn routing_is_stable() {
        let t = IndexedTable::new(schema(), 0, cfg(7)).unwrap();
        for k in 0..100 {
            let v = Value::Int64(k);
            assert_eq!(t.partition_of(&v), t.partition_of(&v));
            assert!(t.partition_of(&v) < 7);
        }
    }

    #[test]
    fn append_after_build() {
        let data = chunk((0..10).map(|i| (i, i)));
        let t = IndexedTable::from_chunk(schema(), 0, cfg(2), &data).unwrap();
        t.append_row(&[Value::Int64(3), Value::Int64(999)]).unwrap();
        let c = t.lookup_chunk(&Value::Int64(3), None).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.value_at(1, 0), Value::Int64(999), "latest first");
    }

    #[test]
    fn table_snapshot_consistency() {
        let data = chunk((0..100).map(|i| (i, i)));
        let t = IndexedTable::from_chunk(schema(), 0, cfg(3), &data).unwrap();
        let snap = t.snapshot();
        t.append_chunk(&chunk((100..200).map(|i| (i, i)))).unwrap();
        assert_eq!(snap.row_count(), 100);
        assert_eq!(t.row_count(), 200);
        assert_eq!(
            snap.lookup_chunk(&Value::Int64(150), None).unwrap().len(),
            0
        );
        assert_eq!(t.lookup_chunk(&Value::Int64(150), None).unwrap().len(), 1);
    }

    #[test]
    fn batched_lookup_matches_singles() {
        let data = chunk((0..1000).map(|i| (i % 100, i)));
        let t = IndexedTable::from_chunk(schema(), 0, cfg(4), &data).unwrap();
        // Duplicates and NULLs in the request collapse / drop.
        let keys: Vec<Value> = [3i64, 17, 3, 99, 1234]
            .iter()
            .map(|&k| Value::Int64(k))
            .chain([Value::Null])
            .collect();
        let batch = t.lookup_chunk_batch(&keys, None).unwrap();
        assert_eq!(
            batch.len(),
            30,
            "3 present keys x 10 rows, misses and nulls empty"
        );
        // Same multiset of rows as looping the single-key path.
        let mut batched: Vec<(Value, Value)> = (0..batch.len())
            .map(|r| (batch.value_at(0, r), batch.value_at(1, r)))
            .collect();
        let mut single = Vec::new();
        for k in [3i64, 17, 99] {
            let c = t.lookup_chunk(&Value::Int64(k), None).unwrap();
            for r in 0..c.len() {
                single.push((c.value_at(0, r), c.value_at(1, r)));
            }
        }
        batched.sort();
        single.sort();
        assert_eq!(batched, single);
        // Projection applies to the whole batch.
        let proj = t.lookup_chunk_batch(&keys, Some(&[1])).unwrap();
        assert_eq!(proj.num_columns(), 1);
        assert_eq!(proj.len(), 30);
        // All-miss and empty requests produce a projected empty chunk.
        let empty = t
            .lookup_chunk_batch(&[Value::Int64(7777)], Some(&[1]))
            .unwrap();
        assert_eq!((empty.len(), empty.num_columns()), (0, 1));
        let none = t.lookup_chunk_batch(&[], None).unwrap();
        assert_eq!((none.len(), none.num_columns()), (0, 2));
    }

    #[test]
    fn batched_lookup_sees_one_snapshot_under_appends() {
        // A batch probe taken mid-append-storm must answer every key from
        // the same point in time *per partition*: for any single key, the
        // observed chain is a prefix of the final chain, and the batched
        // result equals re-probing the same snapshot key by key.
        let data = chunk((0..100).map(|i| (i % 10, i)));
        let t = Arc::new(IndexedTable::from_chunk(schema(), 0, cfg(4), &data).unwrap());
        let keys: Vec<Value> = (0..10).map(Value::Int64).collect();
        std::thread::scope(|s| {
            let writer = {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 100..2000 {
                        t.append_row(&[Value::Int64(i % 10), Value::Int64(i)])
                            .unwrap();
                    }
                })
            };
            for _ in 0..20 {
                let snap = t.snapshot();
                let batch = snap.lookup_batch(&keys, None).unwrap();
                let singles: usize = keys
                    .iter()
                    .map(|k| snap.lookup_chunk(k, None).unwrap().len())
                    .sum();
                assert_eq!(batch.len(), singles, "batch equals singles on one snapshot");
            }
            writer.join().unwrap();
        });
        assert_eq!(t.snapshot().lookup_batch(&keys, None).unwrap().len(), 2000);
    }

    #[test]
    fn snapshot_is_per_partition_consistent() {
        // The documented contract: all rows of ONE key live in one
        // partition, so a key's chain can never be observed torn — even
        // though a cross-partition append may be observed partially.
        let t = Arc::new(IndexedTable::new(schema(), 0, cfg(4)).unwrap());
        std::thread::scope(|s| {
            let writer = {
                let t = Arc::clone(&t);
                // Each round appends one row per key; a key's chain length
                // counts completed rounds.
                s.spawn(move || {
                    for round in 0..300 {
                        for k in 0..8 {
                            t.append_row(&[Value::Int64(k), Value::Int64(round)])
                                .unwrap();
                        }
                    }
                })
            };
            for _ in 0..30 {
                let snap = t.snapshot();
                for k in 0..8 {
                    let c = snap.lookup_chunk(&Value::Int64(k), None).unwrap();
                    if !c.is_empty() {
                        // Chain is latest-first and contiguous: rounds
                        // len-1, len-2, ..., 0 with nothing missing.
                        assert_eq!(c.value_at(1, 0), Value::Int64(c.len() as i64 - 1));
                        assert_eq!(c.value_at(1, c.len() - 1), Value::Int64(0));
                    }
                }
            }
            writer.join().unwrap();
        });
        assert_eq!(t.row_count(), 2400);
    }

    #[test]
    fn null_key_lookup_is_empty() {
        let data = chunk((0..10).map(|i| (i, i)));
        let t = IndexedTable::from_chunk(schema(), 0, cfg(2), &data).unwrap();
        assert_eq!(t.lookup_chunk(&Value::Null, None).unwrap().len(), 0);
    }

    #[test]
    fn rejects_bad_construction() {
        assert!(IndexedTable::new(schema(), 5, cfg(2)).is_err());
        let mut bad = cfg(2);
        bad.batch_size = 1 << 30;
        assert!(IndexedTable::new(schema(), 0, bad).is_err());
    }

    #[test]
    fn wrong_width_append_rejected() {
        let t = IndexedTable::new(schema(), 0, cfg(2)).unwrap();
        assert!(t.append_row(&[Value::Int64(1)]).is_err());
        let narrow = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let c = Chunk::from_rows(&narrow, &[vec![Value::Int64(1)]]).unwrap();
        assert!(t.append_chunk(&c).is_err());
    }

    #[test]
    fn memory_stats_aggregate() {
        let data = chunk((0..500).map(|i| (i, i)));
        let t = IndexedTable::from_chunk(schema(), 0, cfg(4), &data).unwrap();
        let m = t.memory_stats();
        assert_eq!(m.rows, 500);
        assert_eq!(m.index_entries, 500);
        assert!(m.data_bytes > 0);
        assert_eq!((m.tombstones, m.dead_rows), (0, 0));
    }

    fn row(k: i64, v: i64) -> Vec<Value> {
        vec![Value::Int64(k), Value::Int64(v)]
    }

    #[test]
    fn delete_hides_rows_and_reports_affected() {
        let data = chunk((0..100).map(|i| (i % 10, i)));
        let t = IndexedTable::from_chunk(schema(), 0, cfg(4), &data).unwrap();
        let pre = t.snapshot();
        // Delete every version of key 3 (10 rows) and one version of 7.
        let mut deletes: Vec<Vec<Value>> = (0..10).map(|r| row(3, 3 + 10 * r)).collect();
        deletes.push(row(7, 7));
        let affected = t.apply_dml(&deletes, &[]).unwrap();
        assert_eq!(affected, 11);
        assert_eq!(t.lookup_chunk(&Value::Int64(3), None).unwrap().len(), 0);
        let k7 = t.lookup_chunk(&Value::Int64(7), None).unwrap();
        assert_eq!(k7.len(), 9, "one version of key 7 gone");
        for r in 0..k7.len() {
            assert_ne!(k7.value_at(1, r), Value::Int64(7));
        }
        // Untouched keys unaffected; pre-DML snapshot still sees it all.
        assert_eq!(t.lookup_chunk(&Value::Int64(4), None).unwrap().len(), 10);
        assert_eq!(pre.lookup_chunk(&Value::Int64(3), None).unwrap().len(), 10);
        assert_eq!(pre.row_count(), 100);
        assert_eq!(t.snapshot().row_count(), 89);
        // Deleting something that is not there matches nothing.
        assert_eq!(t.apply_dml(&[row(3, 3)], &[]).unwrap(), 0);
        assert_eq!(t.apply_dml(&[row(999, 0)], &[]).unwrap(), 0);
    }

    #[test]
    fn update_replaces_versions() {
        let data = chunk((0..10).map(|i| (i, i)));
        let t = IndexedTable::from_chunk(schema(), 0, cfg(2), &data).unwrap();
        // UPDATE t SET v = v + 100 WHERE k < 3: executor hands back the
        // matched old rows as deletes and the new images as inserts.
        let deletes: Vec<Vec<Value>> = (0..3).map(|k| row(k, k)).collect();
        let inserts: Vec<Vec<Value>> = (0..3).map(|k| row(k, k + 100)).collect();
        assert_eq!(t.apply_dml(&deletes, &inserts).unwrap(), 3);
        for k in 0..3 {
            let c = t.lookup_chunk(&Value::Int64(k), None).unwrap();
            assert_eq!(c.len(), 1, "old version hidden");
            assert_eq!(c.value_at(1, 0), Value::Int64(k + 100));
        }
        assert_eq!(t.snapshot().row_count(), 10);
        // An update can also move a row to a new key (delete old key's
        // row, insert under the new key).
        assert_eq!(
            t.apply_dml(&[row(5, 5)], &[row(50, 5)]).unwrap(),
            1,
            "cross-key update"
        );
        assert_eq!(t.lookup_chunk(&Value::Int64(5), None).unwrap().len(), 0);
        assert_eq!(t.lookup_chunk(&Value::Int64(50), None).unwrap().len(), 1);
    }

    #[test]
    fn dml_survivors_keep_chain_order() {
        let t = IndexedTable::new(schema(), 0, cfg(2)).unwrap();
        for v in 0..5 {
            t.append_row(&row(1, v)).unwrap();
        }
        // Delete the middle version; the other four survive in order.
        assert_eq!(t.apply_dml(&[row(1, 2)], &[]).unwrap(), 1);
        let c = t.lookup_chunk(&Value::Int64(1), None).unwrap();
        let got: Vec<Value> = (0..c.len()).map(|r| c.value_at(1, r)).collect();
        let want: Vec<Value> = [4i64, 3, 1, 0].iter().map(|&v| Value::Int64(v)).collect();
        assert_eq!(got, want, "latest-first, gap where v=2 was");
    }

    #[test]
    fn dml_rejects_null_key_deletes_and_bad_widths() {
        let t = IndexedTable::new(schema(), 0, cfg(2)).unwrap();
        t.append_row(&[Value::Null, Value::Int64(1)]).unwrap();
        let err = t
            .apply_dml(&[vec![Value::Null, Value::Int64(1)]], &[])
            .unwrap_err();
        assert!(err.to_string().contains("NULL"), "{err}");
        assert!(t.apply_dml(&[vec![Value::Int64(1)]], &[]).is_err());
        assert!(t.apply_dml(&[], &[vec![Value::Int64(1)]]).is_err());
        // NULL-key *inserts* are fine (they are plain unindexed rows).
        assert_eq!(
            t.apply_dml(&[], &[vec![Value::Null, Value::Int64(2)]])
                .unwrap(),
            0
        );
        assert_eq!(t.snapshot().row_count(), 2);
    }

    #[test]
    fn dml_roundtrips_through_replay() {
        // Capture a DML statement through a recording sink, then replay
        // the payload/kind stream into a fresh table: same answers.
        struct Recorder(Mutex<Vec<(Vec<u8>, RowKind)>>);
        impl AppendSink for Recorder {
            fn begin_commit(&self, rows: &[&[u8]]) -> Result<Box<dyn crate::sink::CommitGuard>> {
                self.begin_commit_kinds(rows, &vec![RowKind::Data; rows.len()])
            }
            fn begin_commit_kinds(
                &self,
                rows: &[&[u8]],
                kinds: &[RowKind],
            ) -> Result<Box<dyn crate::sink::CommitGuard>> {
                let mut log = self.0.lock();
                for (row, kind) in rows.iter().zip(kinds) {
                    log.push((row.to_vec(), *kind));
                }
                Ok(Box::new(crate::sink::NoopCommitGuard))
            }
        }
        let recorder = Arc::new(Recorder(Mutex::new(Vec::new())));
        let t = IndexedTable::new(schema(), 0, cfg(4)).unwrap();
        t.set_append_sink(Arc::clone(&recorder) as Arc<dyn AppendSink>);
        t.append_chunk(&chunk((0..20).map(|i| (i % 5, i)))).unwrap();
        assert_eq!(
            t.apply_dml(&[row(2, 2), row(2, 7)], &[row(2, 777)])
                .unwrap(),
            2
        );
        assert_eq!(
            t.apply_dml(&(0..4).map(|v| row(4, 4 + 5 * v)).collect::<Vec<_>>(), &[])
                .unwrap(),
            4
        );
        // Replay the whole log into a fresh table.
        let replayed = IndexedTable::new(schema(), 0, cfg(4)).unwrap();
        let log = recorder.0.lock();
        let payloads: Vec<Vec<u8>> = log.iter().map(|(p, _)| p.clone()).collect();
        let kinds: Vec<RowKind> = log.iter().map(|(_, k)| *k).collect();
        replayed.replay_dml(&payloads, &kinds).unwrap();
        assert_eq!(replayed.snapshot().row_count(), t.snapshot().row_count());
        for k in 0..6 {
            let a = t.lookup_chunk(&Value::Int64(k), None).unwrap();
            let b = replayed.lookup_chunk(&Value::Int64(k), None).unwrap();
            assert_eq!(a.len(), b.len(), "key {k}");
            for r in 0..a.len() {
                assert_eq!(a.value_at(1, r), b.value_at(1, r), "key {k} row {r}");
            }
        }
        assert!(replayed
            .replay_dml(&payloads, &kinds[..1.min(kinds.len())])
            .is_err());
    }

    #[test]
    fn table_compact_reclaims_after_churn() {
        let t =
            IndexedTable::from_chunk(schema(), 0, cfg(4), &chunk((0..50).map(|i| (i, i)))).unwrap();
        for round in 1..=10 {
            let deletes: Vec<Vec<Value>> =
                (0..50).map(|k| row(k, k + (round - 1) * 1000)).collect();
            let inserts: Vec<Vec<Value>> = (0..50).map(|k| row(k, k + round * 1000)).collect();
            assert_eq!(t.apply_dml(&deletes, &inserts).unwrap(), 50);
        }
        let before = t.memory_stats();
        assert!(before.dead_rows > 0 && before.tombstones > 0);
        let stats = t.compact().unwrap();
        assert!(stats.rows_reclaimed() > 0);
        assert!(stats.bytes_reclaimed() > 0);
        let after = t.memory_stats();
        assert_eq!((after.tombstones, after.dead_rows), (0, 0));
        assert!(after.data_bytes < before.data_bytes);
        assert_eq!(t.snapshot().row_count(), 50);
        for k in 0..50 {
            let c = t.lookup_chunk(&Value::Int64(k), None).unwrap();
            assert_eq!(c.len(), 1);
            assert_eq!(c.value_at(1, 0), Value::Int64(k + 10_000));
        }
        // Second pass is a no-op.
        assert_eq!(t.compact().unwrap().rows_reclaimed(), 0);
    }
}
