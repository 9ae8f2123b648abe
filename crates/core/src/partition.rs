//! One indexed partition: cTrie index + row batches + backward pointers.
//!
//! Paper, §2: *"Each RDD partition is composed of three data structures:
//! (1) a cTrie, which represents the index, (2) a set of row batches, which
//! stores the tabular data, and (3) a set of backward pointers, which are
//! used to crawl the partition for rows that are indexed on the same key."*
//!
//! Append protocol (single writer per partition, concurrent readers). One
//! publish call takes a slice of rows in which each key's rows are
//! adjacent — a *run*; a chunk append sorts a partition's rows by key to
//! make them so, and a single-row append is a run of one:
//!
//! 1. read the run's key's current head pointer from the cTrie, once;
//! 2. write the run's rows into a batch, each with the row before it as
//!    its backward link and the first with the head from step 1
//!    (publishing each via the batch watermark);
//! 3. once every run is written, point the cTrie at each run's last row.
//!
//! A reader that snapshots the cTrie (O(1), non-blocking) therefore sees a
//! consistent prefix: every pointer in the snapshot refers to fully
//! published bytes, and chains never dangle. This is the paper's
//! "multi-version concurrency". A run is one stretch of consecutive rows,
//! so a later probe of its key reads neighbouring bytes, not one row per
//! cache miss.
//!
//! A partition may carry more than one index over the same rows: one cTrie
//! per index, and one backward pointer per index in every row header (see
//! [`crate::batch`]). Index 0 is the *primary*: rows are routed by its
//! column, and tombstones and DML live on its chains only. A row is written
//! once; another index links it to the call's previous row with the same
//! key in that column (found through a call-local map), and step 3 points
//! every index at its heads inside one odd/even `generation` window, so a
//! snapshot finds a row through all of its indexes or through none. A walk
//! of another index follows that index's own link and, while
//! the snapshot hides dead versions, keeps only the rows still visible on
//! their primary chain.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use idf_ctrie::CTrie;
use idf_engine::chunk::Chunk;
use idf_engine::error::{EngineError, Result};
use idf_engine::query::QueryContext;
use idf_engine::schema::SchemaRef;
use idf_engine::types::Value;
use parking_lot::{Mutex, RwLock};

use crate::batch::{row_header, RowBatch};
use crate::config::IndexConfig;
use crate::layout::{
    block_mask, compact_block, ColumnDecoder, RowLayout, SlotPredicate, MASK_ROWS,
};
use crate::pointer::RowPtr;
use crate::sink::RowKind;

/// Most indexes one table can carry (each costs every row 8 header bytes).
pub const MAX_INDEXES: usize = 8;

/// One index of a partition.
struct PartitionIndex {
    /// The indexed column.
    col: usize,
    /// key → packed pointer to the *latest* row with that key.
    trie: CTrie<Value, u64>,
    /// Distinct keys in `trie`. Maintained here because `CTrie::len()` is
    /// an O(n) traversal, and this count feeds planner statistics on every
    /// query: a single writer appends (under `append_lock`) and only
    /// compaction removes keys, so a counter bumped on first-insert and
    /// reset by compaction stays exact.
    keys: AtomicUsize,
}

impl PartitionIndex {
    fn new(col: usize) -> Self {
        PartitionIndex {
            col,
            trie: CTrie::new(),
            keys: AtomicUsize::new(0),
        }
    }
}

/// A single hash partition of an Indexed DataFrame.
pub struct IndexedPartition {
    layout: RowLayout,
    config: IndexConfig,
    /// The partition's indexes, primary first.
    indexes: Vec<PartitionIndex>,
    /// Framing bytes per stored row: one link per index.
    header: usize,
    batches: RwLock<Vec<Arc<RowBatch>>>,
    /// Serializes writers ("Spark transformations within a partition are
    /// sequentially executed on a single core" — paper, §2). Guards the
    /// row-encode scratch buffer, which is reused across appends so the
    /// steady-state append path performs no allocation.
    append_lock: Mutex<Vec<u8>>,
    row_count: AtomicUsize,
    /// Tombstone rows currently stored in the batches. Written only under
    /// `append_lock`; compaction recomputes it.
    tombstones: AtomicUsize,
    /// Rows hidden below a tombstone (dead versions a compaction can
    /// reclaim). Written only under `append_lock`, reset to zero by
    /// compaction; while it is zero a scan has nothing to hide and skips
    /// building its kill set.
    dead_rows: AtomicUsize,
    /// Swap epoch for the compaction gate protocol: even = stable, odd =
    /// a batch/index swap is in progress. [`Self::snapshot`] retries until
    /// it reads the same even value on both sides of its two reads, so a
    /// snapshot can never pair a pre-swap index with post-swap batches.
    /// With more than one index, every append publishes inside such a
    /// window too.
    generation: AtomicU64,
}

impl IndexedPartition {
    /// An empty partition indexing `schema[key_col]`.
    pub fn new(schema: SchemaRef, key_col: usize, config: IndexConfig) -> Self {
        Self::with_indexes(schema, &[key_col], config)
    }

    /// An empty partition indexing each of `key_cols` (primary first, at
    /// most [`MAX_INDEXES`], checked by the table).
    pub fn with_indexes(schema: SchemaRef, key_cols: &[usize], config: IndexConfig) -> Self {
        debug_assert!(config.validate().is_ok());
        debug_assert!((1..=MAX_INDEXES).contains(&key_cols.len()));
        IndexedPartition {
            layout: RowLayout::new(schema),
            config,
            indexes: key_cols.iter().map(|&c| PartitionIndex::new(c)).collect(),
            header: row_header(key_cols.len()),
            batches: RwLock::new(Vec::new()),
            append_lock: Mutex::new(Vec::new()),
            row_count: AtomicUsize::new(0),
            tombstones: AtomicUsize::new(0),
            dead_rows: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
        }
    }

    fn primary(&self) -> &PartitionIndex {
        // `with_indexes`/`restore` always build at least the primary.
        &self.indexes[0]
    }

    /// Rebuild a single-index partition from checkpointed state: restored row batches
    /// plus the dumped `key → packed pointer` index entries, bulk-loaded
    /// into a fresh cTrie (one epoch pin for the whole load — far cheaper
    /// than replaying every append). The partition is immediately
    /// writable; new rows continue into the last restored batch.
    ///
    /// # Errors
    /// Fails with a corrupt-state error when an index entry's pointer does
    /// not resolve to a committed row in the restored batches.
    pub fn restore(
        schema: SchemaRef,
        key_col: usize,
        config: IndexConfig,
        batches: Vec<Arc<RowBatch>>,
        index_entries: Vec<(Value, u64)>,
        row_count: usize,
    ) -> Result<Self> {
        for (key, raw) in &index_entries {
            let ptr = RowPtr::from_raw(*raw);
            let committed = batches.get(ptr.batch()).map(|b| b.len()).ok_or_else(|| {
                EngineError::corrupt(format!(
                    "restored index entry for key {key:?} names batch {} of {}",
                    ptr.batch(),
                    batches.len()
                ))
            })?;
            let end = ptr.offset().saturating_add(ptr.size());
            if end > committed {
                return Err(EngineError::corrupt(format!(
                    "restored index entry for key {key:?} points at [{}, {end}) \
                     beyond committed {committed}",
                    ptr.offset()
                )));
            }
        }
        let layout = RowLayout::new(schema);
        // Recount from the restored bytes: the kind flag lives in the
        // stored headers (checkpoints round-trip it bit-for-bit), so the
        // counters need no checkpoint-format extension.
        let watermarks: Vec<usize> = batches.iter().map(|b| b.len()).collect();
        let hidden = HiddenRows::find(&batches, &watermarks)?;
        let (tombstones, dead_rows) = (hidden.tombstones, hidden.kill.keys.len());
        let index = PartitionIndex::new(key_col);
        index.keys.store(index_entries.len(), Ordering::Release);
        index.trie.from_entries(index_entries);
        Ok(IndexedPartition {
            layout,
            config,
            indexes: vec![index],
            header: row_header(1),
            batches: RwLock::new(batches),
            append_lock: Mutex::new(Vec::new()),
            row_count: AtomicUsize::new(row_count),
            tombstones: AtomicUsize::new(tombstones),
            dead_rows: AtomicUsize::new(dead_rows),
            generation: AtomicU64::new(0),
        })
    }

    /// The row schema.
    pub fn schema(&self) -> &SchemaRef {
        self.layout.schema()
    }

    /// Primary index column position.
    pub fn key_col(&self) -> usize {
        self.primary().col
    }

    /// Distinct keys of index `index` (0 = primary) — the maintained
    /// counter, not an O(n) trie walk.
    pub fn key_count(&self, index: usize) -> usize {
        self.indexes
            .get(index)
            .map_or(0, |ix| ix.keys.load(Ordering::Acquire))
    }

    /// Rows appended so far.
    pub fn row_count(&self) -> usize {
        self.row_count.load(Ordering::Acquire)
    }

    /// Append one row. Rows with a NULL key are stored (visible to scans)
    /// but not indexed, matching SQL equality semantics.
    ///
    /// All fallible work (encoding, the size check, both failpoints)
    /// happens before any shared state is touched, so a failed append is
    /// never partially visible.
    pub fn append_row(&self, values: &[Value]) -> Result<()> {
        crate::failpoints::check(crate::failpoints::APPEND_ENCODE)?;
        let mut payload = self.append_lock.lock();
        payload.clear();
        self.layout.encode(values, &mut payload)?;
        self.check_row_size(&payload)?;
        self.publish_locked(&[(&values[self.key_col()], payload.as_slice(), RowKind::Data)])
    }

    /// Encode + validate one row without touching any shared state,
    /// returning the payload bytes for a later publish. This is phase 1 of
    /// the two-phase (validate-all-then-publish) chunk-append protocol in
    /// [`crate::table::IndexedTable`].
    pub fn encode_row(&self, values: &[Value]) -> Result<Vec<u8>> {
        crate::failpoints::check(crate::failpoints::APPEND_ENCODE)?;
        let mut payload = Vec::new();
        self.layout.encode(values, &mut payload)?;
        self.check_row_size(&payload)?;
        Ok(payload)
    }

    fn check_row_size(&self, payload: &[u8]) -> Result<()> {
        let stored = self.header + payload.len();
        if stored > self.config.max_row_size {
            return Err(EngineError::RowTooLarge {
                size: stored,
                max: self.config.max_row_size,
            });
        }
        Ok(())
    }

    /// Decode one encoded payload (as produced by [`Self::encode_row`])
    /// back into scalars — the WAL replay path re-derives the typed rows
    /// it feeds through the regular append protocol.
    ///
    /// # Errors
    /// Fails on a payload that does not match the partition's layout.
    pub fn decode_payload(&self, payload: &[u8]) -> Result<Vec<Value>> {
        self.layout.decode_row(payload)
    }

    /// Append rows pre-encoded by [`Self::encode_row`], in order, under one
    /// hold of the writer lock: phase 2 of a chunk append (a partition's
    /// rows sorted by key), and a single-row append through a sink or a
    /// DML replay (one row each). Each row is `(primary key, payload,
    /// kind)`, and rows sharing a primary key must be adjacent: each key's
    /// rows form one run (see the module docs). The bytes written are those a row-at-a-time
    /// append of the same rows in the same order writes.
    ///
    /// # Errors
    /// [`crate::failpoints::APPEND_PUBLISH`] is checked before each row; a
    /// NULL-key tombstone, an oversized row or a full partition fail that
    /// row. On any error, and on a panic before it unwinds on, the rows
    /// already written are still linked into every index, so the
    /// partition holds a fully indexed prefix of `rows`.
    pub(crate) fn append_encoded<K: Borrow<Value>, P: AsRef<[u8]>>(
        &self,
        rows: &[(K, P, RowKind)],
    ) -> Result<()> {
        let _writer = self.append_lock.lock();
        self.publish_locked(rows)
    }

    /// Take this partition's writer lock. The DML commit protocol holds
    /// the locks of every touched partition from survivor computation
    /// through publish, so the chains it read cannot shift under it.
    pub(crate) fn lock_appends(&self) -> parking_lot::MutexGuard<'_, Vec<u8>> {
        self.append_lock.lock()
    }

    /// Decode the visible rows of `key`'s primary chain, latest first,
    /// against the live partition. The caller holds the append lock (via
    /// [`Self::lock_appends`]), so the view is stable.
    pub(crate) fn visible_rows_locked(&self, key: &Value) -> Result<Vec<Vec<Value>>> {
        let head = self
            .primary()
            .trie
            .lookup(key)
            .map(RowPtr::from_raw)
            .unwrap_or(RowPtr::NULL);
        let batches = self.batches.read();
        let mut out = Vec::new();
        let mut next = head;
        while !next.is_null() {
            let (_, prev, kind, payload) = chain_row(&batches, next)?;
            if kind == RowKind::Tombstone {
                break;
            }
            out.push(self.layout.decode_row(payload)?);
            next = prev;
        }
        Ok(out)
    }

    /// [`Self::append_encoded`] for a caller that already holds
    /// `append_lock` (single writer per partition): steps 1–3 of the
    /// append protocol. A row's primary link is the row before it when
    /// that row has the same key, and the trie's head only when the key
    /// starts a run. Another index links a row to the call's previous row
    /// with the same key in its column through a call-local map, which
    /// allocates only at its first key. Step 3 then inserts each key's
    /// last row once per index — one trie lookup and one insert per
    /// distinct key.
    ///
    /// Publishing a tombstone makes every older row of its key's chain
    /// invisible: the tombstone becomes the chain head and readers stop
    /// there. The tombstone and dead-version counters grow as soon as it
    /// is written, before any later row, so a snapshot whose watermarks
    /// cover a row after it also sees the rows it hides counted (see
    /// [`Self::snapshot_for`]). A tombstone joins no other index's chain;
    /// a data row joins every index whose column it holds a non-NULL value
    /// in.
    ///
    /// # Errors
    /// As [`Self::append_encoded`].
    pub(crate) fn publish_locked<K: Borrow<Value>, P: AsRef<[u8]>>(
        &self,
        rows: &[(K, P, RowKind)],
    ) -> Result<()> {
        debug_assert!(keys_adjacent(rows), "a publish call's keys must form runs");
        let mut heads = Heads::new(self.indexes.len());
        // Rows already written are linked before an error returns and
        // before a panic (a failpoint, a bug) unwinds on, so no published
        // row is left outside its indexes.
        let written = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rows.iter().try_for_each(|(key, payload, kind)| {
                self.write_linked(&mut heads, key.borrow(), payload.as_ref(), *kind)
            })
        }));
        self.link(heads);
        written.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    /// Steps 1 and 2 for one row: its prev on every index, then its bytes.
    fn write_linked<'r>(
        &self,
        heads: &mut Heads<'r>,
        key: &'r Value,
        payload: &[u8],
        kind: RowKind,
    ) -> Result<()> {
        crate::failpoints::check(crate::failpoints::APPEND_PUBLISH)?;
        if kind == RowKind::Tombstone && key.is_null() {
            return Err(EngineError::exec(
                "tombstones require a non-NULL key (NULL-key rows are not DML-addressable)",
            ));
        }
        // 1. Each chain's prev: the call's previous row with the same key,
        // else the trie's head (`was`, remembered for step 3).
        let mut prevs = [RowPtr::NULL; MAX_INDEXES];
        let mut was = [RowPtr::NULL; MAX_INDEXES];
        let run_head = heads
            .run
            .filter(|(k, _)| *k == key && !key.is_null())
            .map(|(_, head)| head.ptr);
        match run_head {
            Some(ptr) => prevs[0] = ptr,
            None if !key.is_null() => {
                was[0] = self.head_in(0, key);
                prevs[0] = was[0];
            }
            None => {}
        }
        let secondary = self.secondary_keys(payload, kind)?;
        for (link, k) in &secondary {
            prevs[*link] = match heads.latest(*link, k) {
                Some(ptr) => ptr,
                None => {
                    was[*link] = self.head_in(*link, k);
                    was[*link]
                }
            };
        }
        // 2. Write + publish the row bytes.
        let stored = self.header + payload.len();
        let (batch_idx, offset) =
            self.write_row_kind(&prevs[..self.indexes.len()], payload, kind)?;
        let ptr = RowPtr::new(batch_idx, offset, stored);
        if kind == RowKind::Tombstone {
            // The rows it hides, stopping at any older tombstone: those
            // below it were already counted dead.
            let hidden = visible_chain_len(&self.batches.read(), prevs[0]);
            self.tombstones.fetch_add(1, Ordering::AcqRel);
            self.dead_rows.fetch_add(hidden, Ordering::AcqRel);
        }
        heads.rows += 1;
        heads.bytes += stored;
        if run_head.is_some() {
            if let Some((_, head)) = &mut heads.run {
                head.ptr = ptr;
            }
        } else if !key.is_null() {
            if let Some(done) = heads.run.replace((key, Head { ptr, was: was[0] })) {
                heads.runs.push(done);
            }
        }
        for (link, k) in secondary {
            heads.advance(link, k, ptr, was[link]);
        }
        Ok(())
    }

    /// `key`'s head pointer in index `link` (NULL when absent).
    fn head_in(&self, link: usize, key: &Value) -> RowPtr {
        self.indexes[link]
            .trie
            .lookup(key)
            .map_or(RowPtr::NULL, RowPtr::from_raw)
    }

    /// Step 3: point every index at the heads one call wrote, and count its
    /// rows. With more than one index the inserts go inside one odd/even
    /// generation window, so a snapshot sees the call's rows in all of
    /// their indexes or in none.
    fn link(&self, heads: Heads<'_>) {
        if heads.rows == 0 {
            return;
        }
        let window = self.indexes.len() > 1;
        if window {
            self.generation.fetch_add(1, Ordering::AcqRel);
        }
        for (key, head) in heads.runs.into_iter().chain(heads.run) {
            self.link_key(0, key.clone(), head);
        }
        for (i, map) in heads.secondary.into_iter().enumerate() {
            for (key, head) in map {
                self.link_key(i + 1, key, head);
            }
        }
        self.row_count.fetch_add(heads.rows, Ordering::AcqRel);
        if window {
            self.generation.fetch_add(1, Ordering::AcqRel);
        }
        let m = idf_obs::global();
        m.append_rows.add(heads.rows as u64);
        m.append_bytes.add(heads.bytes as u64);
    }

    fn link_key(&self, link: usize, key: Value, head: Head) {
        let ix = &self.indexes[link];
        let old = ix.trie.insert(key, head.ptr.raw());
        debug_assert_eq!(
            old.map_or(RowPtr::NULL, RowPtr::from_raw),
            head.was,
            "single-writer invariant violated"
        );
        if head.was.is_null() {
            ix.keys.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Write into the open batch, rolling over to a fresh batch when full.
    fn write_row_kind(
        &self,
        prevs: &[RowPtr],
        payload: &[u8],
        kind: RowKind,
    ) -> Result<(usize, usize)> {
        // Fast path: room in the last batch.
        {
            let batches = self.batches.read();
            if let Some(last) = batches.last() {
                if let Some(offset) = last.append_row_kind(prevs, payload, kind) {
                    return Ok((batches.len() - 1, offset));
                }
            }
        }
        // Roll over.
        let mut batches = self.batches.write();
        if batches.len() >= crate::pointer::MAX_BATCHES {
            return Err(EngineError::exec("partition exceeded 2^31 row batches"));
        }
        let batch = Arc::new(self.new_batch());
        let offset = batch.append_row_kind(prevs, payload, kind).ok_or(
            // Only reachable if a row outgrows a whole batch, which
            // `IndexConfig::validate` (max_row_size <= batch_size) rules
            // out for vetted configs.
            EngineError::RowTooLarge {
                size: self.header + payload.len(),
                max: self.config.batch_size,
            },
        )?;
        batches.push(batch);
        idf_obs::global().batch_seals.inc();
        Ok((batches.len() - 1, offset))
    }

    /// The keys a stored row joins the indexes after the primary with:
    /// `(link, key)` per non-NULL key of a data row. A tombstone joins
    /// none; with one index there are none (and nothing is allocated).
    fn secondary_keys(&self, payload: &[u8], kind: RowKind) -> Result<Vec<(usize, Value)>> {
        if kind == RowKind::Tombstone {
            return Ok(Vec::new());
        }
        let mut keys = Vec::new();
        for (link, ix) in self.indexes.iter().enumerate().skip(1) {
            let key = self.layout.decode_column(payload, ix.col)?;
            if !key.is_null() {
                keys.push((link, key));
            }
        }
        Ok(keys)
    }

    fn new_batch(&self) -> RowBatch {
        RowBatch::with_links(self.config.batch_size, self.indexes.len())
    }

    /// Take a consistent point-in-time read view (O(1), non-blocking on
    /// the append path; spins only while a compaction swap — a handful of
    /// pointer writes — or a multi-index publish is mid-flight). Its
    /// lookups probe the primary index.
    pub fn snapshot(&self) -> PartitionSnapshot {
        self.snapshot_of(0, false)
    }

    /// [`Self::snapshot`] whose lookups probe index `index` (0 = primary).
    /// The view holds the primary index and the probed one.
    pub fn snapshot_for(&self, index: usize) -> PartitionSnapshot {
        self.snapshot_of(index, false)
    }

    /// [`Self::snapshot`] holding every index of the partition, for a
    /// reader that probes more than one through the same view
    /// ([`PartitionSnapshot::lookup_payloads_in`]).
    pub fn snapshot_all(&self) -> PartitionSnapshot {
        self.snapshot_of(0, true)
    }

    fn snapshot_of(&self, probe: usize, all: bool) -> PartitionSnapshot {
        debug_assert!(probe < self.indexes.len(), "no index {probe}");
        // Order matters twice over: within one attempt the indexes are
        // snapshotted first, then the watermarks, so every pointer in the
        // index views lands below its watermark; and the generation is read
        // on both sides so an attempt that interleaved with a compaction
        // swap (which replaces batches AND republishes the indexes) or a
        // multi-index publish is thrown away instead of pairing old
        // pointers with new batches or one index's state with another's.
        // Each trie snapshot costs a root CAS and a few allocations, so a
        // view takes only the tries it may read.
        let (primary, secondary, batches, watermarks, dead_rows) = loop {
            let g1 = self.generation.load(Ordering::Acquire);
            if g1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let primary = self.primary().trie.read_only_snapshot();
            let secondary: Vec<(usize, CTrie<Value, u64>)> = self
                .indexes
                .iter()
                .enumerate()
                .skip(1)
                .filter(|&(i, _)| all || i == probe)
                .map(|(i, ix)| (i, ix.trie.read_only_snapshot()))
                .collect();
            let batches: Vec<Arc<RowBatch>> = self.batches.read().clone();
            let watermarks: Vec<usize> = batches.iter().map(|b| b.len()).collect();
            // Read after the watermarks: a watermark that covers anything
            // written after a tombstone also covers that tombstone's bump
            // of this counter (same writer, Release/Acquire on the batch
            // length), so zero here means the view hides nothing.
            let dead_rows = self.dead_rows.load(Ordering::Acquire);
            if self.generation.load(Ordering::Acquire) == g1 {
                break (primary, secondary, batches, watermarks, dead_rows);
            }
        };
        let m = idf_obs::global();
        m.snapshots_taken.inc();
        PartitionSnapshot {
            layout: self.layout.clone(),
            primary_col: self.key_col(),
            probe,
            key_col: self.indexes.get(probe).map_or(self.key_col(), |ix| ix.col),
            header: self.header,
            primary,
            secondary,
            batches,
            watermarks,
            dead_rows,
            // The clock read is the expensive part of snapshot telemetry,
            // so only sampled snapshots carry a timestamp; the rest skip
            // both `Instant::now()` here and `elapsed()` at probe time.
            #[cfg(feature = "obs")]
            #[allow(clippy::disallowed_methods)] // gated by tick
            created_at: m.probe_sampler.tick().then(std::time::Instant::now),
        }
    }

    /// Tombstone rows currently stored (compaction-policy signal).
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.load(Ordering::Acquire)
    }

    /// Rows hidden below tombstones (dead versions a compaction would
    /// reclaim; approximate only in that it excludes superseded
    /// tombstones themselves).
    pub fn dead_row_count(&self) -> usize {
        self.dead_rows.load(Ordering::Acquire)
    }

    /// Rewrite this partition's batches, dropping every dead version
    /// (rows below a tombstone, superseded tombstones) and re-linking each
    /// surviving primary chain contiguously — the chain shortens to its
    /// visible length. Fully deleted keys keep a single tombstone
    /// *sentinel* so the key count and restore-time pointer validation stay
    /// exact. Every other index is re-threaded over the rewritten rows in
    /// the order they land (so its chains stay latest-first within each
    /// primary key), and loses the keys no surviving row holds.
    ///
    /// Runs under the append lock (writers block, readers do not): the
    /// rewrite builds fresh batches and a fresh pointer set on the side,
    /// `pre_swap` runs (the compactor's swap failpoint), and then the swap
    /// publishes everything inside one odd/even generation window —
    /// in-flight snapshots keep reading the old `Arc`ed batches, new
    /// snapshots retry across the window and see only the compacted state.
    ///
    /// Not WAL-logged: recovery replays the original appends and DML
    /// records, which is logically equivalent; the next checkpoint
    /// persists (and shrinks to) the compacted bytes.
    ///
    /// # Errors
    /// Any error (corrupt chain, injected fault, `pre_swap` veto) aborts
    /// before the swap with the partition untouched.
    pub fn compact(&self, pre_swap: &dyn Fn() -> Result<()>) -> Result<CompactStats> {
        let _writer = self.append_lock.lock();
        let batches_before: Vec<Arc<RowBatch>> = self.batches.read().clone();
        let bytes_before: usize = batches_before.iter().map(|b| b.len()).sum();
        let rows_before = self.row_count.load(Ordering::Acquire);
        let stats_noop = CompactStats {
            rows_before,
            rows_after: rows_before,
            bytes_before,
            bytes_after: bytes_before,
            batches_before: batches_before.len(),
            batches_after: batches_before.len(),
        };
        // Without tombstones every stored row is visible and every chain
        // is already minimal: nothing to reclaim.
        if self.tombstones.load(Ordering::Acquire) == 0 {
            return Ok(stats_noop);
        }
        let old_index = self.primary().trie.read_only_snapshot();
        let mut rewrite = Rewrite {
            partition: self,
            batches: Vec::new(),
            heads: vec![HashMap::new(); self.indexes.len() - 1],
        };
        let mut new_entries: Vec<(Value, u64)> = Vec::new();
        let mut rows_after = 0usize;
        let mut tombstones_after = 0usize;
        for (key, raw) in old_index.iter() {
            // Collect the visible chain (latest first); a head tombstone
            // means the key is fully deleted and keeps a sentinel.
            let mut visible: Vec<&[u8]> = Vec::new();
            let mut sentinel: Option<&[u8]> = None;
            let mut next = RowPtr::from_raw(raw);
            while !next.is_null() {
                let (_, prev, kind, payload) = chain_row(&batches_before, next)?;
                if kind == RowKind::Tombstone {
                    if visible.is_empty() {
                        sentinel = Some(payload);
                    }
                    break;
                }
                visible.push(payload);
                next = prev;
            }
            // Re-link contiguously, oldest first, so the rebuilt chain
            // reads back in the same latest-first order.
            let mut head = RowPtr::NULL;
            for payload in visible.iter().rev() {
                head = rewrite.append(head, payload, RowKind::Data)?;
                rows_after += 1;
            }
            if let Some(payload) = sentinel {
                head = rewrite.append(RowPtr::NULL, payload, RowKind::Tombstone)?;
                rows_after += 1;
                tombstones_after += 1;
            }
            debug_assert!(!head.is_null(), "indexed key lost its chain in compaction");
            new_entries.push((key, head.raw()));
        }
        // NULL-key rows live outside every primary chain and are never
        // deleted; carry them over with a physical pass.
        for b in &batches_before {
            for row in b.iter_rows(b.len())? {
                let (_, _, kind, payload) = row?;
                if kind == RowKind::Data
                    && self
                        .layout
                        .decode_column(payload, self.key_col())?
                        .is_null()
                {
                    rewrite.append(RowPtr::NULL, payload, RowKind::Data)?;
                    rows_after += 1;
                }
            }
        }
        // Keys of the other indexes that no surviving row holds any more.
        let stale: Vec<Vec<Value>> = self.indexes[1..]
            .iter()
            .zip(&rewrite.heads)
            .map(|(ix, heads)| {
                ix.trie
                    .read_only_snapshot()
                    .iter()
                    .filter(|(k, _)| !heads.contains_key(k))
                    .map(|(k, _)| k)
                    .collect()
            })
            .collect();
        pre_swap()?;
        // Swap inside the generation gate: an odd value parks snapshot
        // attempts, and an attempt that straddled the window retries.
        // Everything in here is infallible, so the gate always closes.
        self.generation.fetch_add(1, Ordering::AcqRel);
        let bytes_after: usize = rewrite.batches.iter().map(|b| b.len()).sum();
        let batches_after = rewrite.batches.len();
        *self.batches.write() = rewrite.batches;
        for (key, raw) in new_entries {
            self.primary().trie.insert(key, raw);
        }
        for ((ix, heads), stale) in self.indexes[1..].iter().zip(rewrite.heads).zip(stale) {
            for key in &stale {
                ix.trie.remove(key);
            }
            ix.keys.store(heads.len(), Ordering::Release);
            for (key, ptr) in heads {
                ix.trie.insert(key, ptr.raw());
            }
        }
        self.row_count.store(rows_after, Ordering::Release);
        self.tombstones.store(tombstones_after, Ordering::Release);
        self.dead_rows.store(0, Ordering::Release);
        self.generation.fetch_add(1, Ordering::AcqRel);
        Ok(CompactStats {
            rows_before,
            rows_after,
            bytes_before,
            bytes_after,
            batches_before: batches_before.len(),
            batches_after,
        })
    }

    /// Memory accounting for the paper's "low memory overhead" claim;
    /// `index_entries` counts the primary index.
    pub fn memory_stats(&self) -> PartitionMemory {
        let batches = self.batches.read();
        let data_bytes = batches.iter().map(|b| b.len()).sum();
        let reserved_bytes = batches.iter().map(|b| b.capacity()).sum();
        PartitionMemory {
            data_bytes,
            reserved_bytes,
            // The maintained counter, NOT `trie.len()`: these stats feed
            // planner row estimates on every query, and the trie's own
            // `len()` is a full O(n) traversal.
            index_entries: self.key_count(0),
            rows: self.row_count(),
            tombstones: self.tombstones.load(Ordering::Acquire),
            dead_rows: self.dead_rows.load(Ordering::Acquire),
        }
    }
}

/// The side batches a compaction writes, with every chain after the
/// primary re-threaded as the surviving rows land.
struct Rewrite<'a> {
    partition: &'a IndexedPartition,
    batches: Vec<Arc<RowBatch>>,
    /// Per index after the primary: each key's latest rewritten row.
    heads: Vec<HashMap<Value, RowPtr>>,
}

impl Rewrite<'_> {
    /// Append one surviving row whose primary link is `prev`; a data row
    /// also joins the chain of every other index it holds a key for.
    fn append(&mut self, prev: RowPtr, payload: &[u8], kind: RowKind) -> Result<RowPtr> {
        let p = self.partition;
        let mut prevs = [RowPtr::NULL; MAX_INDEXES];
        prevs[0] = prev;
        let keys = p.secondary_keys(payload, kind)?;
        for (link, key) in &keys {
            prevs[*link] = self.heads[link - 1]
                .get(key)
                .copied()
                .unwrap_or(RowPtr::NULL);
        }
        let prevs = &prevs[..p.indexes.len()];
        let stored = p.header + payload.len();
        let ptr = match self
            .batches
            .last()
            .and_then(|b| b.append_row_kind(prevs, payload, kind))
        {
            Some(off) => RowPtr::new(self.batches.len() - 1, off, stored),
            None => {
                let batch = Arc::new(p.new_batch());
                let off = batch.append_row_kind(prevs, payload, kind).ok_or(
                    EngineError::RowTooLarge {
                        size: stored,
                        max: p.config.batch_size,
                    },
                )?;
                self.batches.push(batch);
                RowPtr::new(self.batches.len() - 1, off, stored)
            }
        };
        for (link, key) in keys {
            self.heads[link - 1].insert(key, ptr);
        }
        Ok(ptr)
    }
}

/// Where one publish call has taken a key's chain on one index.
#[derive(Clone, Copy)]
struct Head {
    /// The call's latest row with the key.
    ptr: RowPtr,
    /// The trie's head for the key before the call (NULL for a new key).
    was: RowPtr,
}

/// The heads one publish call has written, waiting for step 3.
struct Heads<'r> {
    /// The primary key of the run being written.
    run: Option<(&'r Value, Head)>,
    /// Runs already written.
    runs: Vec<(&'r Value, Head)>,
    /// Per index after the primary, each key's head: that index's keys
    /// need not come in runs. Empty with one index, and a map allocates
    /// only at its first key.
    secondary: Vec<HashMap<Value, Head>>,
    /// Rows and stored bytes written.
    rows: usize,
    bytes: usize,
}

impl Heads<'_> {
    fn new(indexes: usize) -> Self {
        Heads {
            run: None,
            runs: Vec::new(),
            secondary: (1..indexes).map(|_| HashMap::new()).collect(),
            rows: 0,
            bytes: 0,
        }
    }

    /// The call's latest row with `key` on index `link` (> 0), if any.
    fn latest(&self, link: usize, key: &Value) -> Option<RowPtr> {
        self.secondary.get(link - 1)?.get(key).map(|h| h.ptr)
    }

    /// Make `ptr` the call's latest row with `key` on index `link` (> 0);
    /// `was` is the trie's head, read for the key's first row.
    fn advance(&mut self, link: usize, key: Value, ptr: RowPtr, was: RowPtr) {
        if let Some(map) = self.secondary.get_mut(link - 1) {
            map.entry(key)
                .and_modify(|h| h.ptr = ptr)
                .or_insert(Head { ptr, was });
        }
    }
}

/// Whether the non-NULL primary keys of `rows` form runs: no key comes
/// back after another has followed it.
fn keys_adjacent<K: Borrow<Value>, P>(rows: &[(K, P, RowKind)]) -> bool {
    let mut done: std::collections::HashSet<&Value> = std::collections::HashSet::new();
    let mut run: Option<&Value> = None;
    for key in rows.iter().map(|r| r.0.borrow()).filter(|k| !k.is_null()) {
        if run != Some(key) {
            if !done.insert(key) {
                return false;
            }
            run = Some(key);
        }
    }
    true
}

impl std::fmt::Debug for IndexedPartition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "IndexedPartition(rows={}, batches={})",
            self.row_count(),
            self.batches.read().len()
        )
    }
}

/// Memory accounting numbers for one partition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionMemory {
    /// Committed row bytes.
    pub data_bytes: usize,
    /// Allocated batch bytes (committed + slack in open batches).
    pub reserved_bytes: usize,
    /// Number of distinct indexed keys.
    pub index_entries: usize,
    /// Number of stored rows (including tombstones and dead versions).
    pub rows: usize,
    /// Stored tombstone rows.
    pub tombstones: usize,
    /// Rows hidden below tombstones (reclaimable by compaction).
    pub dead_rows: usize,
}

impl PartitionMemory {
    /// Rows a scan returns: stored rows less tombstones and the versions
    /// they hide.
    pub fn visible_rows(&self) -> usize {
        self.rows
            .saturating_sub(self.tombstones)
            .saturating_sub(self.dead_rows)
    }
}

/// What one partition compaction did (see [`IndexedPartition::compact`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Stored rows before the rewrite.
    pub rows_before: usize,
    /// Stored rows after (visible rows + delete sentinels).
    pub rows_after: usize,
    /// Committed batch bytes before.
    pub bytes_before: usize,
    /// Committed batch bytes after.
    pub bytes_after: usize,
    /// Row batches before.
    pub batches_before: usize,
    /// Row batches after.
    pub batches_after: usize,
}

impl CompactStats {
    /// Rows the rewrite dropped.
    pub fn rows_reclaimed(&self) -> usize {
        self.rows_before.saturating_sub(self.rows_after)
    }

    /// Bytes the rewrite dropped.
    pub fn bytes_reclaimed(&self) -> usize {
        self.bytes_before.saturating_sub(self.bytes_after)
    }

    /// Merge per-partition stats into a per-table total.
    pub fn merge(&mut self, other: &CompactStats) {
        self.rows_before += other.rows_before;
        self.rows_after += other.rows_after;
        self.bytes_before += other.bytes_before;
        self.bytes_after += other.bytes_after;
        self.batches_before += other.batches_before;
        self.batches_after += other.batches_after;
    }
}

/// Walk the chain from `head`, counting rows until the first tombstone,
/// a corrupt pointer, or the end of the chain — the *visible* length.
fn visible_chain_len(batches: &[Arc<RowBatch>], head: RowPtr) -> usize {
    let mut n = 0usize;
    let mut next = head;
    while !next.is_null() {
        match chain_row(batches, next) {
            Ok((_, prev, RowKind::Data, _)) => {
                n += 1;
                next = prev;
            }
            _ => break,
        }
    }
    n
}

/// A frozen, consistent view of a partition and every one of its indexes;
/// its lookups probe one of them (see [`IndexedPartition::snapshot_for`]).
pub struct PartitionSnapshot {
    layout: RowLayout,
    primary_col: usize,
    /// The index lookups probe (0 = primary) and its column.
    probe: usize,
    key_col: usize,
    /// Framing bytes per stored row.
    header: usize,
    primary: CTrie<Value, u64>,
    /// The indexes after the primary this view holds, by position.
    secondary: Vec<(usize, CTrie<Value, u64>)>,
    batches: Vec<Arc<RowBatch>>,
    watermarks: Vec<usize>,
    /// Rows hidden below tombstones at snapshot time. While zero, scans
    /// skip building their kill set (see [`HiddenRows`]).
    dead_rows: usize,
    /// When the snapshot was taken, feeding the snapshot-age histogram at
    /// probe time. `Some` only for 1-in-`idf_obs::SAMPLE_PERIOD` snapshots
    /// (and absent entirely in compiled-out builds), so the steady-state
    /// probe path pays no clock reads.
    #[cfg(feature = "obs")]
    created_at: Option<std::time::Instant>,
}

impl PartitionSnapshot {
    /// Whether the probe sampler picked this snapshot to carry detailed
    /// telemetry (snapshot age, chain-walk length).
    #[cfg(feature = "obs")]
    #[inline]
    fn sampled(&self) -> bool {
        self.created_at.is_some()
    }

    /// The row schema.
    pub fn schema(&self) -> &SchemaRef {
        self.layout.schema()
    }

    /// Number of rows visible in this snapshot (tombstones and the
    /// versions they hide are not visible): a zero-column scan, counted.
    ///
    /// A malformed row (which only a storage bug could produce) ends the
    /// count at the last chunk before it rather than failing it.
    pub fn row_count(&self) -> usize {
        let Ok(chunks) = self.scan(Some(&[]), COUNT_CHUNK_ROWS, None) else {
            return 0;
        };
        chunks.map_while(|c| c.ok()).map(|c| c.len()).sum()
    }

    /// Follow the backward-pointer chain for `key` in the probed index,
    /// latest row first, yielding decoded payload slices.
    ///
    /// The probe goes through the cTrie's borrowed-key entry point: no
    /// `Value` is cloned and no heap allocation happens on this path.
    pub fn lookup_payloads(&self, key: &Value) -> ChainIter<'_> {
        self.lookup_payloads_in(self.probe, key)
    }

    /// [`Self::lookup_payloads`] through index `index` (0 = primary) of
    /// this same view; an index the view does not hold (see
    /// [`IndexedPartition::snapshot_all`]) finds nothing.
    pub fn lookup_payloads_in(&self, index: usize, key: &Value) -> ChainIter<'_> {
        let head = match self.trie(index) {
            Some(trie) if !key.is_null() => trie
                .lookup_with_borrowed(key, |raw| RowPtr::from_raw(*raw))
                .unwrap_or(RowPtr::NULL),
            _ => RowPtr::NULL,
        };
        if idf_obs::enabled() && !key.is_null() {
            let m = idf_obs::global();
            if head.is_null() {
                m.probe_misses.inc();
            } else {
                m.probe_hits.inc();
            }
            self.record_probe_age();
        }
        ChainIter {
            snapshot: self,
            next: head,
            link: index,
            hit: !head.is_null(),
            walked: 0,
        }
    }

    /// Whether the row at `ptr` with `payload` is still visible on its
    /// primary chain: no tombstone lies between the chain head and it.
    /// Only rows a secondary walk reaches while the view hides dead
    /// versions are asked.
    fn visible_on_primary(&self, ptr: RowPtr, payload: &[u8]) -> Result<bool> {
        let key = self.layout.decode_column(payload, self.primary_col)?;
        if key.is_null() {
            // Outside every primary chain, so never deleted.
            return Ok(true);
        }
        let mut next = self
            .primary
            .lookup_with_borrowed(&key, |raw| RowPtr::from_raw(*raw))
            .unwrap_or(RowPtr::NULL);
        while !next.is_null() && next != ptr {
            let (_, prev, kind, _) = chain_row(&self.batches, next)?;
            if kind == RowKind::Tombstone {
                return Ok(false);
            }
            next = prev;
        }
        Ok(next == ptr)
    }

    /// Record how stale the probed snapshot is. Only snapshots the
    /// sampler stamped carry a timestamp, so most probes skip the
    /// `elapsed()` clock read; compiled-out builds skip it entirely.
    #[cfg(feature = "obs")]
    fn record_probe_age(&self) {
        if let Some(t) = self.created_at {
            idf_obs::global()
                .snapshot_age_ns
                .record(t.elapsed().as_nanos() as u64);
        }
    }

    #[cfg(not(feature = "obs"))]
    fn record_probe_age(&self) {}

    /// All rows bound to `key` as a chunk (latest first), with optional
    /// column projection. This is the paper's `getRows` on one partition.
    pub fn lookup_chunk(&self, key: &Value, projection: Option<&[usize]>) -> Result<Chunk> {
        crate::failpoints::check(crate::failpoints::PARTITION_PROBE)?;
        let payloads: Vec<&[u8]> = self.lookup_payloads(key).collect::<Result<_>>()?;
        self.decode_chunk(&payloads, projection)
    }

    /// All rows bound to *any* of `keys` as one chunk. Rows are grouped by
    /// key in the order given, each key's chain latest-first. Callers pass
    /// the partition-local slice of a batched `getRows` — see
    /// [`crate::table::TableSnapshot::lookup_batch`].
    pub fn lookup_chunk_multi(
        &self,
        keys: &[Value],
        projection: Option<&[usize]>,
    ) -> Result<Chunk> {
        self.lookup_chunk_multi_ctx(keys, projection, &[], None)
    }

    /// [`Self::lookup_chunk_multi`] under a query lifecycle token:
    /// cancellation/deadline is checked between key probes and the result
    /// chunk is billed to the query's memory budget. Only the chain rows
    /// that pass every one of `preds` are decoded (see
    /// [`Self::scan_where`]).
    pub fn lookup_chunk_multi_ctx(
        &self,
        keys: &[Value],
        projection: Option<&[usize]>,
        preds: &[SlotPredicate],
        query: Option<&QueryContext>,
    ) -> Result<Chunk> {
        crate::failpoints::check(crate::failpoints::PARTITION_PROBE)?;
        let mut payloads: Vec<&[u8]> = Vec::new();
        let mut block: Vec<&[u8]> = Vec::with_capacity(MASK_ROWS);
        for key in keys {
            if let Some(q) = query {
                q.check()?;
            }
            for payload in self.lookup_payloads(key) {
                block.push(payload?);
                if block.len() == MASK_ROWS {
                    keep_passing(preds, &mut block, &mut payloads)?;
                }
            }
        }
        keep_passing(preds, &mut block, &mut payloads)?;
        let chunk = self.decode_chunk(&payloads, projection)?;
        if let Some(q) = query {
            q.charge_memory(chunk.byte_size())?;
        }
        Ok(chunk)
    }

    fn projected_cols(&self, projection: Option<&[usize]>) -> Result<Vec<usize>> {
        let width = self.layout.schema().len();
        match projection {
            Some(p) => match p.iter().find(|&&c| c >= width) {
                Some(c) => Err(EngineError::internal(format!(
                    "projected column {c} of a {width}-column table"
                ))),
                None => Ok(p.to_vec()),
            },
            None => Ok((0..width).collect()),
        }
    }

    /// Gather the projected columns of `payloads` into one chunk.
    fn decode_chunk(&self, payloads: &[&[u8]], projection: Option<&[usize]>) -> Result<Chunk> {
        let cols = self.projected_cols(projection)?;
        if cols.is_empty() {
            return Ok(Chunk::new_empty_columns(payloads.len()));
        }
        let columns = cols
            .iter()
            .map(|&c| Ok(Arc::new(self.layout.decode_column_batch(payloads, c)?)))
            .collect::<Result<_>>()?;
        Chunk::new(columns)
    }

    /// Number of rows bound to `key`.
    pub fn lookup_count(&self, key: &Value) -> Result<usize> {
        let mut n = 0usize;
        for payload in self.lookup_payloads(key) {
            payload?;
            n += 1;
        }
        Ok(n)
    }

    /// Full scan into chunks of at most `chunk_rows` rows, collected — see
    /// [`Self::scan`] for the lazy form the query path uses.
    pub fn scan_chunks(
        &self,
        projection: Option<&[usize]>,
        chunk_rows: usize,
    ) -> Result<Vec<Chunk>> {
        self.scan(projection, chunk_rows, None)?.collect()
    }

    /// Full scan, yielding chunks of at most `chunk_rows` rows lazily — the
    /// paper's `transformToRowRDD` fallback that lets regular operators run
    /// over the indexed representation. Rows come in physical batch order;
    /// tombstones and the versions they hide are skipped. An empty
    /// partition yields one empty chunk.
    ///
    /// Under a query lifecycle token, cancellation/deadline is checked at
    /// every chunk boundary and the chunk in flight is billed to the
    /// query's memory budget: charged when produced, returned when the next
    /// is asked for. A consumer that keeps chunks (an exchange, a sort, a
    /// join build) bills what it keeps.
    ///
    /// # Errors
    /// Fails up front when the rows hidden below tombstones cannot be
    /// resolved (a corrupt chain); decode errors surface from the iterator.
    pub fn scan(
        &self,
        projection: Option<&[usize]>,
        chunk_rows: usize,
        query: Option<Arc<QueryContext>>,
    ) -> Result<ScanIter> {
        self.scan_where(projection, &[], chunk_rows, query)
    }

    /// [`Self::scan`] of only the rows that pass every one of `preds`.
    ///
    /// The walk gathers the visible rows [`MASK_ROWS`] at a time, builds
    /// one bit mask per predicate from the rows' own slots, and hands just
    /// the rows that pass to the column decoders; a scan with no projected
    /// column decodes nothing. Chunks still hold at most `chunk_rows` rows,
    /// and because a selective predicate may walk far between two chunks,
    /// the query is also checked every `COUNT_CHUNK_ROWS` walked rows.
    ///
    /// # Errors
    /// As [`Self::scan`]; a payload too short for a predicate's slot fails
    /// from the iterator with the layout's typed error.
    pub fn scan_where(
        &self,
        projection: Option<&[usize]>,
        preds: &[SlotPredicate],
        chunk_rows: usize,
        query: Option<Arc<QueryContext>>,
    ) -> Result<ScanIter> {
        let kill = if self.dead_rows == 0 {
            KillSet::default()
        } else {
            HiddenRows::find(&self.batches, &self.watermarks)?.kill
        };
        Ok(ScanIter {
            layout: self.layout.clone(),
            batches: self.batches.clone(),
            watermarks: self.watermarks.clone(),
            cols: self.projected_cols(projection)?,
            preds: preds.to_vec(),
            header: self.header,
            chunk_rows: chunk_rows.max(1),
            query,
            billed: 0,
            kill,
            batch: 0,
            offset: 0,
            state: ScanState::Fresh,
        })
    }

    /// Decode one payload into scalars.
    ///
    /// # Errors
    /// Fails on a payload that does not match the partition's layout.
    pub fn decode_row(&self, payload: &[u8]) -> Result<Vec<Value>> {
        self.layout.decode_row(payload)
    }

    /// Decode the projected columns of one payload.
    ///
    /// # Errors
    /// Fails on a payload that does not match the partition's layout.
    pub fn decode_projected(&self, payload: &[u8], cols: &[usize]) -> Result<Vec<Value>> {
        cols.iter()
            .map(|&c| self.layout.decode_column(payload, c))
            .collect()
    }

    /// Decode a single column of one payload without allocation overhead.
    ///
    /// # Errors
    /// Fails on a payload that does not match the partition's layout.
    pub fn decode_value(&self, payload: &[u8], col: usize) -> Result<Value> {
        self.layout.decode_column(payload, col)
    }

    /// Vectorized gather: decode one column across many payloads.
    ///
    /// # Errors
    /// Fails on a payload that does not match the partition's layout.
    pub fn decode_column_batch(
        &self,
        payloads: &[&[u8]],
        col: usize,
    ) -> Result<idf_engine::column::Column> {
        self.layout.decode_column_batch(payloads, col)
    }

    /// The probed index's column position.
    pub fn key_col(&self) -> usize {
        self.key_col
    }

    /// Distinct keys in the probed index (an O(n) walk of its trie).
    pub fn key_count(&self) -> usize {
        self.key_count_in(self.probe)
    }

    /// Distinct keys in index `index` (0 = primary) of this view (an O(n)
    /// walk of its trie; 0 for an index the view does not hold).
    pub fn key_count_in(&self, index: usize) -> usize {
        self.trie(index).map_or(0, CTrie::len)
    }

    fn trie(&self, index: usize) -> Option<&CTrie<Value, u64>> {
        match index {
            0 => Some(&self.primary),
            i => self
                .secondary
                .iter()
                .find_map(|(j, trie)| (*j == i).then_some(trie)),
        }
    }

    /// The snapshot's row batches as `(capacity, committed_prefix)` pairs
    /// for checkpoint serialization. The prefix is cut at the snapshot
    /// watermark, so bytes appended after the snapshot never leak into a
    /// checkpoint.
    pub fn export_batches(&self) -> Vec<(usize, &[u8])> {
        self.batches
            .iter()
            .zip(&self.watermarks)
            .map(|(b, &w)| (b.capacity(), &b.committed_bytes()[..w]))
            .collect()
    }

    /// The snapshot's primary index as `(key, packed pointer)` pairs for
    /// checkpoint serialization; restored via [`IndexedPartition::restore`].
    pub fn export_index(&self) -> Vec<(Value, u64)> {
        self.primary.iter().collect()
    }
}

/// Rows per chunk of the zero-column scan behind
/// [`PartitionSnapshot::row_count`]: small enough that a malformed row
/// costs the count one chunk, not the partition.
const COUNT_CHUNK_ROWS: usize = 8192;

/// Payloads gathered between two runs of the column decoders. Measured,
/// not derived (233 716 `knows` rows of 35 B, 91 498 `message` rows of
/// ≈190 B, single thread): the typed per-column loops need a few rows to
/// amortise their dispatch — one row at a time scans all of `knows` in
/// 4.5 ms, 8 rows in 2.6 ms, 512 rows in 2.4 ms — but on wide rows they
/// must run while the walk is still within a few cache lines of the rows
/// they read: one `message` column takes 1.3–1.7 ms at 8 rows and
/// 1.9–2.5 ms from 16 rows up, where the column reads arrive as a second
/// pass over memory the walk has already left.
const DECODE_BLOCK_ROWS: usize = 8;

// A decode block is also the block one predicate mask covers.
const _: () = assert!(DECODE_BLOCK_ROWS <= MASK_ROWS);

/// Count `rows` more walked rows, and check `query` once every
/// [`COUNT_CHUNK_ROWS`] of them: a walk that keeps few rows can go far
/// between two chunk boundaries. Visible rows are counted a block at a
/// time, so the hot path pays one compare per block.
#[inline]
fn count_walked(unchecked: &mut usize, rows: usize, query: Option<&QueryContext>) -> Result<()> {
    *unchecked += rows;
    if *unchecked >= COUNT_CHUNK_ROWS {
        *unchecked = 0;
        if let Some(q) = query {
            q.check()?;
        }
    }
    Ok(())
}

/// Run `block`'s rows that pass every one of `preds` through `decoders`,
/// leaving `block` empty; returns how many passed. Without a decoder (a
/// zero-column scan) the passing rows are only counted.
#[inline]
fn decode_passing(
    preds: &[SlotPredicate],
    block: &mut Vec<&[u8]>,
    decoders: &mut [ColumnDecoder],
) -> Result<usize> {
    if !preds.is_empty() {
        let mask = block_mask(preds, block)?;
        if decoders.is_empty() {
            block.clear();
            return Ok(mask.count_ones() as usize);
        }
        compact_block(block, mask);
    }
    for d in decoders.iter_mut() {
        d.extend(block)?;
    }
    let rows = block.len();
    block.clear();
    Ok(rows)
}

/// Move `block`'s rows that pass every one of `preds` to `out`, leaving
/// `block` empty.
fn keep_passing<'a>(
    preds: &[SlotPredicate],
    block: &mut Vec<&'a [u8]>,
    out: &mut Vec<&'a [u8]>,
) -> Result<()> {
    if !preds.is_empty() {
        let mask = block_mask(preds, block)?;
        compact_block(block, mask);
    }
    out.append(block);
    Ok(())
}

/// Position of a row inside a snapshot, ordered as the scan walks.
fn physical_key(batch: usize, offset: usize) -> u64 {
    ((batch as u64) << 32) | offset as u64
}

/// What the tombstones of a view hide: found by one header walk for the
/// tombstones themselves, then by following each tombstone's `prev` chain
/// down to the next tombstone — work proportional to the dead rows.
struct HiddenRows {
    /// [`physical_key`]s of the hidden data rows, ascending.
    kill: KillSet,
    /// Tombstones below the watermarks.
    tombstones: usize,
}

impl HiddenRows {
    fn find(batches: &[Arc<RowBatch>], watermarks: &[usize]) -> Result<HiddenRows> {
        let mut kill = Vec::new();
        let mut tombstones = 0usize;
        for (b, &w) in batches.iter().zip(watermarks) {
            for row in b.iter_rows(w)? {
                let (_, prev, kind, _) = row?;
                if kind != RowKind::Tombstone {
                    continue;
                }
                tombstones += 1;
                // Rows below an older tombstone are that tombstone's.
                let mut next = prev;
                while !next.is_null() {
                    let (_, prev, kind, _) = chain_row(batches, next)?;
                    if kind == RowKind::Tombstone {
                        break;
                    }
                    kill.push(physical_key(next.batch(), next.offset()));
                    next = prev;
                }
            }
        }
        kill.sort_unstable();
        Ok(HiddenRows {
            kill: KillSet { keys: kill, pos: 0 },
            tombstones,
        })
    }
}

/// The hidden rows of a view with a cursor that trails the scan's walk.
#[derive(Default)]
struct KillSet {
    keys: Vec<u64>,
    pos: usize,
}

impl KillSet {
    /// Whether the row at `key` is hidden. The walk asks in ascending key
    /// order, so one cursor over the sorted keys answers every row; an
    /// empty set costs one compare.
    #[inline]
    fn hides(&mut self, key: u64) -> bool {
        while let Some(&k) = self.keys.get(self.pos) {
            if k > key {
                return false;
            }
            self.pos += 1;
            if k == key {
                return true;
            }
        }
        false
    }
}

/// The batch a chain pointer names.
fn batch_of(batches: &[Arc<RowBatch>], ptr: RowPtr) -> Result<&RowBatch> {
    batches.get(ptr.batch()).map(|b| &**b).ok_or_else(|| {
        EngineError::internal(format!(
            "chain pointer names batch {} of {}",
            ptr.batch(),
            batches.len()
        ))
    })
}

/// The stored row a chain pointer names.
fn chain_row(batches: &[Arc<RowBatch>], ptr: RowPtr) -> Result<crate::batch::StoredRow<'_>> {
    batch_of(batches, ptr)?.row_at_full(ptr.offset())
}

/// The stored row a chain pointer names, as a walk along `link` reads it:
/// `(that link's prev, payload)`.
fn chain_link(batches: &[Arc<RowBatch>], ptr: RowPtr, link: usize) -> Result<(RowPtr, &[u8])> {
    batch_of(batches, ptr)?.row_at_link(ptr.offset(), link)
}

enum ScanState {
    /// No chunk produced yet (an empty partition still owes one).
    Fresh,
    Running,
    Done,
}

/// Lazy full scan of one partition view (see [`PartitionSnapshot::scan`]).
/// Owns its share of the snapshot (batch handles and watermarks), so it
/// outlives the snapshot it was taken from.
pub struct ScanIter {
    layout: RowLayout,
    batches: Vec<Arc<RowBatch>>,
    watermarks: Vec<usize>,
    cols: Vec<usize>,
    /// Only rows that pass all of these are returned.
    preds: Vec<SlotPredicate>,
    /// Framing bytes per stored row.
    header: usize,
    chunk_rows: usize,
    query: Option<Arc<QueryContext>>,
    /// Bytes of the last chunk handed out, still charged to `query`.
    billed: usize,
    kill: KillSet,
    /// Where the walk resumes.
    batch: usize,
    offset: usize,
    state: ScanState,
}

impl ScanIter {
    /// Upper bound on the rows left to scan, from the bytes left and the
    /// smallest row the layout can store — exact for fixed-width schemas.
    fn rows_left_at_most(&self) -> usize {
        let bytes: usize = self
            .watermarks
            .iter()
            .skip(self.batch)
            .sum::<usize>()
            .saturating_sub(self.offset);
        bytes / (self.header + self.layout.min_payload_len())
    }

    /// The next chunk. `SINGLE_LINK` is whether the partition's rows carry
    /// one link: the walk then parses them with that header fixed at
    /// compile time (see [`RowBatchIter::step`]).
    fn next_chunk<const SINGLE_LINK: bool>(&mut self) -> Result<Option<Chunk>> {
        if let Some(q) = &self.query {
            q.check()?;
            q.release_memory(std::mem::take(&mut self.billed));
        }
        let capacity = self.chunk_rows.min(self.rows_left_at_most());
        let mut decoders: Vec<ColumnDecoder> = self
            .cols
            .iter()
            .map(|&c| self.layout.column_decoder(c, capacity))
            .collect();
        // Visible rows waiting for the predicates. Never more than the
        // chunk still has room for, so every row of a block that passes
        // fits, and the walk resumes right after the last row gathered.
        let mut block: Vec<&[u8]> = Vec::with_capacity(DECODE_BLOCK_ROWS);
        let mut room = DECODE_BLOCK_ROWS.min(self.chunk_rows);
        let mut rows = 0usize;
        let mut unchecked = 0usize;
        while rows < self.chunk_rows && self.batch < self.batches.len() {
            let (Some(batch), Some(&watermark)) = (
                self.batches.get(self.batch),
                self.watermarks.get(self.batch),
            ) else {
                break;
            };
            let mut walk = batch.iter_rows_from(self.offset, watermark)?;
            while let Some(row) = walk.step::<SINGLE_LINK>() {
                let (offset, _, kind, payload) = row?;
                if kind == RowKind::Tombstone || self.kill.hides(physical_key(self.batch, offset)) {
                    count_walked(&mut unchecked, 1, self.query.as_deref())?;
                    continue;
                }
                block.push(payload);
                if block.len() == room {
                    count_walked(&mut unchecked, room, self.query.as_deref())?;
                    rows += decode_passing(&self.preds, &mut block, &mut decoders)?;
                    room = DECODE_BLOCK_ROWS.min(self.chunk_rows - rows);
                    if rows == self.chunk_rows {
                        break;
                    }
                }
            }
            self.offset = walk.offset();
            if self.offset >= watermark {
                self.batch += 1;
                self.offset = 0;
            }
        }
        rows += decode_passing(&self.preds, &mut block, &mut decoders)?;
        if rows == 0 && !matches!(self.state, ScanState::Fresh) {
            return Ok(None);
        }
        let chunk = if decoders.is_empty() {
            Chunk::new_empty_columns(rows)
        } else {
            Chunk::new(decoders.into_iter().map(|d| Arc::new(d.finish())).collect())?
        };
        if let Some(q) = &self.query {
            q.charge_memory(chunk.byte_size())?;
            self.billed = chunk.byte_size();
        }
        Ok(Some(chunk))
    }
}

impl Drop for ScanIter {
    fn drop(&mut self) {
        if let Some(q) = &self.query {
            q.release_memory(self.billed);
        }
    }
}

impl Iterator for ScanIter {
    type Item = Result<Chunk>;

    fn next(&mut self) -> Option<Result<Chunk>> {
        if matches!(self.state, ScanState::Done) {
            return None;
        }
        let chunk = if self.header == crate::batch::ROW_HEADER {
            self.next_chunk::<true>()
        } else {
            self.next_chunk::<false>()
        };
        self.state = match &chunk {
            Ok(Some(_)) => ScanState::Running,
            // Fused: after an error every later position is suspect.
            Ok(None) | Err(_) => ScanState::Done,
        };
        chunk.transpose()
    }
}

/// Iterator over a key's backward-pointer chain (latest row first).
/// Fused: a corrupt pointer yields one `Err` and then terminates.
///
/// On drop, a chain that started from a successful probe records how many
/// rows it walked into the global chain-walk-length histogram.
pub struct ChainIter<'a> {
    snapshot: &'a PartitionSnapshot,
    next: RowPtr,
    /// The index whose link the walk follows (0 = primary).
    link: usize,
    /// Whether the probe found a head (misses are not chain walks).
    hit: bool,
    /// Rows yielded so far.
    walked: u32,
}

impl<'a> Iterator for ChainIter<'a> {
    type Item = Result<&'a [u8]>;

    fn next(&mut self) -> Option<Result<&'a [u8]>> {
        if self.link != 0 {
            return self.next_secondary();
        }
        if self.next.is_null() {
            return None;
        }
        let ptr = self.next;
        match chain_row(&self.snapshot.batches, ptr) {
            Ok((stored, prev, kind, payload)) => {
                debug_assert_eq!(stored, ptr.size(), "pointer size must match stored row");
                if kind == RowKind::Tombstone {
                    // The visible chain ends here: every older version of
                    // this key is deleted. Decoding the tombstone was
                    // still a physical row read, so it counts toward the
                    // walk length — this is exactly the hop a compaction
                    // rewrite removes from every surviving key's probe.
                    self.walked += 1;
                    self.next = RowPtr::NULL;
                    return None;
                }
                self.next = prev;
                self.walked += 1;
                Some(Ok(payload))
            }
            Err(e) => {
                self.next = RowPtr::NULL;
                Some(Err(e))
            }
        }
    }
}

impl<'a> ChainIter<'a> {
    /// One step of a walk along a secondary link. Tombstones never join
    /// these chains; while the view hides dead versions, a row counts only
    /// if its primary chain still shows it.
    fn next_secondary(&mut self) -> Option<Result<&'a [u8]>> {
        let snapshot = self.snapshot;
        while !self.next.is_null() {
            let ptr = self.next;
            let step = chain_link(&snapshot.batches, ptr, self.link).and_then(|(prev, payload)| {
                self.next = prev;
                self.walked += 1;
                let visible =
                    snapshot.dead_rows == 0 || snapshot.visible_on_primary(ptr, payload)?;
                Ok(visible.then_some(payload))
            });
            match step {
                Ok(Some(payload)) => return Some(Ok(payload)),
                Ok(None) => {}
                Err(e) => {
                    self.next = RowPtr::NULL;
                    return Some(Err(e));
                }
            }
        }
        None
    }
}

impl Drop for ChainIter<'_> {
    fn drop(&mut self) {
        // Chain-walk length is a distribution, not an exact count, so it
        // rides the same 1-in-N probe sample as the snapshot-age clock —
        // unsampled probes pay only this flag check.
        #[cfg(feature = "obs")]
        if self.hit && self.snapshot.sampled() {
            idf_obs::global().chain_walk.record(u64::from(self.walked));
        }
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
            Field::new("v", DataType::Utf8),
        ]))
    }

    fn partition() -> IndexedPartition {
        IndexedPartition::new(schema(), 0, IndexConfig::default())
    }

    fn row(k: i64, v: &str) -> Vec<Value> {
        vec![Value::Int64(k), Value::Utf8(v.into())]
    }

    #[test]
    fn append_and_point_lookup() {
        let p = partition();
        p.append_row(&row(1, "a")).unwrap();
        p.append_row(&row(2, "b")).unwrap();
        p.append_row(&row(1, "c")).unwrap();
        let s = p.snapshot();
        let chunk = s.lookup_chunk(&Value::Int64(1), None).unwrap();
        assert_eq!(chunk.len(), 2);
        // Latest first.
        assert_eq!(chunk.value_at(1, 0), Value::Utf8("c".into()));
        assert_eq!(chunk.value_at(1, 1), Value::Utf8("a".into()));
        assert_eq!(s.lookup_count(&Value::Int64(2)).unwrap(), 1);
        assert_eq!(s.lookup_count(&Value::Int64(99)).unwrap(), 0);
    }

    /// The maintained key counter must agree with the trie's O(n) count
    /// through duplicate keys, NULL keys, and checkpoint restore — it is
    /// what planner statistics report as `index_entries`.
    #[test]
    fn key_count_tracks_the_index_exactly() {
        let p = partition();
        for i in 0..50 {
            p.append_row(&row(i, "first")).unwrap();
            p.append_row(&row(i, "dup")).unwrap();
        }
        p.append_row(&[Value::Null, Value::Utf8("unindexed".into())])
            .unwrap();
        let m = p.memory_stats();
        assert_eq!(m.index_entries, 50);
        assert_eq!(
            m.index_entries,
            p.primary().trie.len(),
            "counter drifted from trie"
        );
        assert_eq!(m.rows, 101);

        // Restore seeds the counter from the dumped entries (the same
        // export/rebuild path the checkpoint reader uses).
        let s = p.snapshot();
        let batches: Vec<Arc<RowBatch>> = s
            .export_batches()
            .into_iter()
            .map(|(cap, bytes)| Arc::new(RowBatch::from_committed_bytes(cap, bytes).unwrap()))
            .collect();
        let restored = IndexedPartition::restore(
            schema(),
            0,
            IndexConfig::default(),
            batches,
            s.export_index(),
            101,
        )
        .unwrap();
        assert_eq!(restored.memory_stats().index_entries, 50);
        restored.append_row(&row(999, "new")).unwrap();
        restored.append_row(&row(0, "dup-after-restore")).unwrap();
        assert_eq!(restored.memory_stats().index_entries, 51);
    }

    #[test]
    fn long_chains_across_batches() {
        let cfg = IndexConfig {
            batch_size: 256, // force many tiny batches
            max_row_size: 200,
            ..Default::default()
        };
        let p = IndexedPartition::new(schema(), 0, cfg);
        for i in 0..500 {
            p.append_row(&row(7, &format!("v{i}"))).unwrap();
        }
        let s = p.snapshot();
        assert_eq!(s.lookup_count(&Value::Int64(7)).unwrap(), 500);
        let payloads: Vec<_> = s
            .lookup_payloads(&Value::Int64(7))
            .collect::<Result<_>>()
            .unwrap();
        let first = s.decode_row(payloads[0]).unwrap();
        assert_eq!(first[1], Value::Utf8("v499".into()));
        let last = s.decode_row(payloads[499]).unwrap();
        assert_eq!(last[1], Value::Utf8("v0".into()));
    }

    #[test]
    fn scan_sees_all_rows_in_order() {
        let p = partition();
        for i in 0..100 {
            p.append_row(&row(i % 10, &format!("r{i}"))).unwrap();
        }
        let s = p.snapshot();
        assert_eq!(s.row_count(), 100);
        let chunks = s.scan_chunks(None, 32).unwrap();
        let total: usize = chunks.iter().map(Chunk::len).sum();
        assert_eq!(total, 100);
        assert_eq!(chunks[0].value_at(1, 0), Value::Utf8("r0".into()));
    }

    #[test]
    fn scan_with_projection() {
        let p = partition();
        p.append_row(&row(1, "abc")).unwrap();
        let s = p.snapshot();
        let chunks = s.scan_chunks(Some(&[1]), 10).unwrap();
        assert_eq!(chunks[0].num_columns(), 1);
        assert_eq!(chunks[0].value_at(0, 0), Value::Utf8("abc".into()));
    }

    #[test]
    fn null_keys_scanned_not_indexed() {
        let p = partition();
        p.append_row(&[Value::Null, Value::Utf8("ghost".into())])
            .unwrap();
        p.append_row(&row(1, "real")).unwrap();
        let s = p.snapshot();
        assert_eq!(s.row_count(), 2);
        assert_eq!(s.lookup_count(&Value::Null).unwrap(), 0);
        assert_eq!(s.key_count(), 1);
    }

    #[test]
    fn snapshot_isolation_from_later_appends() {
        let p = partition();
        p.append_row(&row(1, "a")).unwrap();
        let s = p.snapshot();
        p.append_row(&row(1, "b")).unwrap();
        p.append_row(&row(2, "c")).unwrap();
        assert_eq!(s.lookup_count(&Value::Int64(1)).unwrap(), 1);
        assert_eq!(s.lookup_count(&Value::Int64(2)).unwrap(), 0);
        assert_eq!(s.row_count(), 1);
        let s2 = p.snapshot();
        assert_eq!(s2.lookup_count(&Value::Int64(1)).unwrap(), 2);
        assert_eq!(s2.row_count(), 3);
    }

    #[test]
    fn oversized_row_rejected() {
        let p = partition();
        let big = "x".repeat(2000);
        let err = p.append_row(&row(1, &big)).unwrap_err();
        assert!(err.to_string().contains("at most"));
        assert_eq!(p.row_count(), 0);
    }

    #[test]
    fn concurrent_readers_while_appending() {
        let p = Arc::new(partition());
        let writer = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                for i in 0..5_000 {
                    p.append_row(&[Value::Int64(i % 50), Value::Utf8(format!("v{i}"))])
                        .unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    let mut last_total = 0;
                    for _ in 0..50 {
                        let s = p.snapshot();
                        let mut total = 0;
                        for k in 0..50 {
                            total += s.lookup_count(&Value::Int64(k)).unwrap();
                        }
                        assert!(total >= last_total, "chains must only grow");
                        last_total = total;
                        // every chain is readable end-to-end
                        for payload in s.lookup_payloads(&Value::Int64(0)) {
                            let vals = s.decode_row(payload.unwrap()).unwrap();
                            assert_eq!(vals[0], Value::Int64(0));
                        }
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        let s = p.snapshot();
        assert_eq!(s.row_count(), 5_000);
        assert_eq!(s.lookup_count(&Value::Int64(5)).unwrap(), 100);
    }

    fn tombstone_payload(p: &IndexedPartition, k: i64) -> Vec<u8> {
        p.encode_row(&[Value::Int64(k), Value::Null]).unwrap()
    }

    #[test]
    fn tombstone_ends_the_visible_chain() {
        let p = partition();
        p.append_row(&row(1, "a")).unwrap();
        p.append_row(&row(1, "b")).unwrap();
        p.append_row(&row(2, "other")).unwrap();
        let before = p.snapshot();
        let tomb = tombstone_payload(&p, 1);
        p.append_encoded(&[(Value::Int64(1), &tomb, RowKind::Tombstone)])
            .unwrap();
        // A snapshot taken before the delete still sees both versions.
        assert_eq!(before.lookup_count(&Value::Int64(1)).unwrap(), 2);
        assert_eq!(before.row_count(), 3);
        let after = p.snapshot();
        assert_eq!(after.lookup_count(&Value::Int64(1)).unwrap(), 0);
        assert_eq!(after.row_count(), 1, "only k=2 stays visible");
        let chunks = after.scan_chunks(None, 16).unwrap();
        let total: usize = chunks.iter().map(Chunk::len).sum();
        assert_eq!(total, 1, "scan hides deleted rows and the tombstone");
        // Re-insert above the tombstone: only the new version is visible.
        p.append_row(&row(1, "reborn")).unwrap();
        let s3 = p.snapshot();
        assert_eq!(s3.lookup_count(&Value::Int64(1)).unwrap(), 1);
        let chunk = s3.lookup_chunk(&Value::Int64(1), None).unwrap();
        assert_eq!(chunk.value_at(1, 0), Value::Utf8("reborn".into()));
        let m = p.memory_stats();
        assert_eq!(m.tombstones, 1);
        assert_eq!(m.dead_rows, 2);
        assert_eq!(m.rows, 5, "physical rows include the dead chain");
    }

    #[test]
    fn tombstones_reject_null_keys() {
        let p = partition();
        let payload = p
            .encode_row(&[Value::Null, Value::Utf8("x".into())])
            .unwrap();
        let err = p
            .append_encoded(&[(Value::Null, &payload, RowKind::Tombstone)])
            .unwrap_err();
        assert!(err.to_string().contains("NULL"), "got: {err}");
        assert_eq!(p.row_count(), 0);
    }

    #[test]
    fn compact_drops_dead_versions_and_keeps_answers() {
        let cfg = IndexConfig {
            batch_size: 512,
            max_row_size: 200,
            ..Default::default()
        };
        let p = IndexedPartition::new(schema(), 0, cfg.clone());
        for i in 0..20 {
            p.append_row(&row(i, "v0")).unwrap();
        }
        p.append_row(&[Value::Null, Value::Utf8("nullkey".into())])
            .unwrap();
        // Churn keys 0..10 (delete + re-insert, five rounds) …
        for round in 0..5 {
            for k in 0..10 {
                let tomb = tombstone_payload(&p, k);
                p.append_encoded(&[(Value::Int64(k), &tomb, RowKind::Tombstone)])
                    .unwrap();
                p.append_row(&row(k, &format!("r{round}"))).unwrap();
            }
        }
        // … and fully delete keys 15..20.
        for k in 15..20 {
            let tomb = tombstone_payload(&p, k);
            p.append_encoded(&[(Value::Int64(k), &tomb, RowKind::Tombstone)])
                .unwrap();
        }
        let before = p.snapshot();
        let stats = p.compact(&|| Ok(())).unwrap();
        assert!(stats.rows_after < stats.rows_before, "{stats:?}");
        assert!(stats.bytes_after < stats.bytes_before, "{stats:?}");
        assert!(stats.batches_after < stats.batches_before, "{stats:?}");
        // The pre-compaction snapshot is untouched (old Arc'ed batches).
        assert_eq!(before.lookup_count(&Value::Int64(0)).unwrap(), 1);
        assert_eq!(before.row_count(), 16);
        let after = p.snapshot();
        for k in 0..10 {
            let c = after.lookup_chunk(&Value::Int64(k), None).unwrap();
            assert_eq!(c.len(), 1);
            assert_eq!(c.value_at(1, 0), Value::Utf8("r4".into()));
        }
        for k in 10..15 {
            assert_eq!(after.lookup_count(&Value::Int64(k)).unwrap(), 1);
        }
        for k in 15..20 {
            assert_eq!(after.lookup_count(&Value::Int64(k)).unwrap(), 0);
        }
        assert_eq!(after.row_count(), before.row_count());
        let m = p.memory_stats();
        assert_eq!(m.index_entries, 20, "sentinels keep deleted keys");
        assert_eq!(m.dead_rows, 0);
        assert_eq!(m.tombstones, 5);
        // Appends keep working after the swap.
        p.append_row(&row(0, "post")).unwrap();
        assert_eq!(p.snapshot().lookup_count(&Value::Int64(0)).unwrap(), 2);
        // Deleted keys resurrect cleanly above their sentinel.
        p.append_row(&row(15, "back")).unwrap();
        assert_eq!(p.snapshot().lookup_count(&Value::Int64(15)).unwrap(), 1);
        // The compacted bytes round-trip through the checkpoint path.
        let s = p.snapshot();
        let batches: Vec<Arc<RowBatch>> = s
            .export_batches()
            .into_iter()
            .map(|(cap, bytes)| Arc::new(RowBatch::from_committed_bytes(cap, bytes).unwrap()))
            .collect();
        let restored =
            IndexedPartition::restore(schema(), 0, cfg, batches, s.export_index(), p.row_count())
                .unwrap();
        // All five sentinels are still physically present (key 15's new
        // row sits above its sentinel, it does not remove it).
        assert_eq!(restored.tombstone_count(), 5);
        let rs = restored.snapshot();
        assert_eq!(rs.lookup_count(&Value::Int64(0)).unwrap(), 2);
        assert_eq!(rs.lookup_count(&Value::Int64(16)).unwrap(), 0);
        assert_eq!(rs.row_count(), s.row_count());
    }

    #[test]
    fn compact_is_a_noop_without_tombstones() {
        let p = partition();
        for i in 0..50 {
            p.append_row(&row(i % 5, "v")).unwrap();
        }
        let stats = p.compact(&|| Ok(())).unwrap();
        assert_eq!(stats.rows_before, stats.rows_after);
        assert_eq!(stats.rows_reclaimed(), 0);
        assert_eq!(p.snapshot().row_count(), 50);
    }

    #[test]
    fn compact_aborts_cleanly_when_pre_swap_fails() {
        let p = partition();
        p.append_row(&row(1, "a")).unwrap();
        let tomb = tombstone_payload(&p, 1);
        p.append_encoded(&[(Value::Int64(1), &tomb, RowKind::Tombstone)])
            .unwrap();
        let err = p
            .compact(&|| Err(EngineError::exec("injected swap fault")))
            .unwrap_err();
        assert!(err.to_string().contains("injected swap fault"));
        // Nothing swapped: the dead version is still reclaimable.
        let m = p.memory_stats();
        assert_eq!(m.rows, 2);
        assert_eq!(m.tombstones, 1);
        assert_eq!(m.dead_rows, 1);
        let stats = p.compact(&|| Ok(())).unwrap();
        assert_eq!(stats.rows_after, 1, "retry succeeds");
    }

    #[test]
    fn snapshots_stay_consistent_across_concurrent_compaction() {
        let p = Arc::new(partition());
        for k in 0..100 {
            p.append_row(&row(k, "v")).unwrap();
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&p);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let s = p.snapshot();
                        // One churned key may be mid delete+reinsert.
                        let n = s.row_count();
                        assert!((99..=100).contains(&n), "visible rows {n}");
                        for k in [75i64, 99] {
                            assert_eq!(s.lookup_count(&Value::Int64(k)).unwrap(), 1);
                        }
                    }
                })
            })
            .collect();
        for round in 0..10 {
            for k in 0..50 {
                let tomb = tombstone_payload(&p, k);
                p.append_encoded(&[(Value::Int64(k), &tomb, RowKind::Tombstone)])
                    .unwrap();
                p.append_row(&row(k, &format!("r{round}"))).unwrap();
            }
            p.compact(&|| Ok(())).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        let s = p.snapshot();
        assert_eq!(s.row_count(), 100);
        assert_eq!(p.memory_stats().dead_rows, 0);
    }

    /// A chunk append stores each key's rows as one run: walking a
    /// partition's bytes in order, every row's primary prev is the row
    /// just before it — in the same batch, or the previous batch's last
    /// row after a rollover — unless it starts its key's run, which on a
    /// fresh table links to nothing. Keys ascend, and each key's chain
    /// reads back in input order, latest first.
    #[test]
    fn a_chunk_append_links_each_key_as_one_run() {
        use idf_engine::chunk::Chunk;
        let cfg = IndexConfig {
            batch_size: 512,
            max_row_size: 200,
            num_partitions: 2,
            ..Default::default()
        };
        // Interleaved keys, as in any input not already sorted.
        let rows: Vec<Vec<Value>> = (0..600).map(|i| row(i % 37, &format!("v{i}"))).collect();
        let chunk = Chunk::from_rows(&schema(), &rows).unwrap();
        let table = crate::table::IndexedTable::from_chunk(schema(), 0, cfg, &chunk).unwrap();
        let (mut rollovers, mut linked) = (0, 0);
        for i in 0..table.num_partitions() {
            let s = table.partition(i).snapshot();
            let mut before: Option<(RowPtr, Value)> = None;
            for (b, batch) in s.batches.iter().enumerate() {
                for walked in batch.iter_rows(s.watermarks[b]).unwrap() {
                    let (offset, prev, _, payload) = walked.unwrap();
                    let key = s.decode_value(payload, 0).unwrap();
                    let here = RowPtr::new(b, offset, crate::batch::ROW_HEADER + payload.len());
                    match &before {
                        Some((ptr, k)) if *k == key => {
                            assert_eq!(prev, *ptr, "row {here:?} of key {key:?}");
                            linked += 1;
                            rollovers += usize::from(ptr.batch() != b);
                        }
                        other => {
                            assert!(prev.is_null(), "run start {here:?} links to {prev:?}");
                            if let Some((_, k)) = other {
                                assert!(*k < key, "keys ascend: {k:?} then {key:?}");
                            }
                        }
                    }
                    before = Some((here, key));
                }
            }
        }
        assert_eq!(linked, 600 - 37, "every row but a run's first links back");
        assert!(rollovers > 0, "a run crossed a batch rollover");
        for k in [0i64, 18, 36] {
            let c = table.lookup_chunk(&Value::Int64(k), None).unwrap();
            let got: Vec<Value> = (0..c.len()).map(|r| c.value_at(1, r)).collect();
            let want: Vec<Value> = (0..600)
                .rev()
                .filter(|i| i % 37 == k)
                .map(|i| Value::Utf8(format!("v{i}")))
                .collect();
            assert_eq!(got, want, "key {k}: input order, latest first");
        }
    }

    #[test]
    fn memory_stats_track_data() {
        let p = partition();
        for i in 0..100 {
            p.append_row(&row(i, "some value here")).unwrap();
        }
        let m = p.memory_stats();
        assert_eq!(m.rows, 100);
        assert_eq!(m.index_entries, 100);
        assert!(m.data_bytes > 100 * crate::batch::ROW_HEADER);
        assert!(m.reserved_bytes >= m.data_bytes);
    }
}
