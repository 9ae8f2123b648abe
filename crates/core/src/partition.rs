//! One indexed partition: cTrie index + row batches + backward pointers.
//!
//! Paper, §2: *"Each RDD partition is composed of three data structures:
//! (1) a cTrie, which represents the index, (2) a set of row batches, which
//! stores the tabular data, and (3) a set of backward pointers, which are
//! used to crawl the partition for rows that are indexed on the same key."*
//!
//! Append protocol (single writer per partition, concurrent readers). One
//! publish call takes a slice of rows in which each key's rows are
//! adjacent — a *run*. A chunk append sorts a partition's rows by key to
//! make them so, a DML statement puts each key's tombstone, survivors and
//! new images together, and a single-row append is a run of one:
//!
//! 1. read the run's key's current head pointer from the cTrie, once;
//! 2. write the run's rows into a batch, each with the row before it as
//!    its backward link and the first with the head from step 1;
//! 3. once every run is written, point the cTrie at each run's last row,
//!    and then store the partition's *commit cursor*: the position just
//!    past the call's last row.
//!
//! A view ([`PartitionSnapshot`]) is the partition's current version — its
//! batches and every index's trie — plus the cursor, read once. Its
//! lookups probe the live tries and skip the chain rows at or above its
//! cursor, which sit at the front of a newest-first chain; its scans stop
//! at the cursor. So a view sees every row of a publish call or none of
//! them, through every index and through scans alike, and taking one
//! writes nothing a writer reads: the paper's "multi-version concurrency"
//! with no trie snapshot. A run is one stretch of consecutive rows, so a
//! later probe of its key reads neighbouring bytes, not one row per cache
//! miss.
//!
//! A partition may carry more than one index over the same rows: one cTrie
//! per index, and one backward pointer per index in every row header (see
//! [`crate::batch`]). Index 0 is the *primary*: rows are routed by its
//! column, and tombstones and DML live on its chains only. A row is written
//! once; another index links it to the call's previous row with the same
//! key in that column (found through a call-local map). A walk of another
//! index follows that index's own link and, while the view hides dead
//! versions, keeps only the rows still visible on their primary chain.
//!
//! A compaction publishes the surviving rows, as their stored bytes, into
//! a new empty version by the same write and link steps, and swaps it in.
//! A view of the old version keeps reading it, and nothing writes to the
//! old version again.

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
use std::cmp::Ordering as Cmp;
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

use crate::batch::{row_header, BatchList, RowBatch, RowStep};
use crate::config::IndexConfig;
use crate::layout::{ColumnDecoder, Payloads, RowLayout, SlotPredicate};
use crate::pointer::RowPtr;
use crate::sink::RowKind;

/// Most indexes one table can carry (each costs every row 8 header bytes).
pub const MAX_INDEXES: usize = 8;

/// One index of a partition version.
struct PartitionIndex {
    /// The indexed column.
    col: usize,
    /// key → packed pointer to the *latest* row with that key.
    trie: CTrie<Value, u64>,
    /// Distinct keys in `trie`. Maintained here because `CTrie::len()` is
    /// an O(n) traversal, and this count feeds planner statistics on every
    /// query: a single writer appends (under `append_lock`) and only a
    /// compaction builds a new trie, so a counter bumped on first-insert
    /// stays exact.
    keys: AtomicUsize,
}

impl PartitionIndex {
    /// An index over `entries` (distinct keys): a fresh trie, built
    /// bottom-up by [`CTrie::from_entries`].
    fn over(col: usize, entries: Vec<(Value, u64)>) -> Self {
        let index = PartitionIndex {
            col,
            trie: CTrie::new(),
            keys: AtomicUsize::new(entries.len()),
        };
        index.trie.from_entries(entries);
        index
    }
}

/// One version of a partition's rows and indexes. Appends grow it in
/// place — rows, trie entries, the cursor — and only a compaction replaces
/// it; a view holds the version it was taken from.
///
/// Every view updates the `Arc`'s reference count, so the version is
/// aligned past it: the fields readers load on every row never share a
/// cache line (or its adjacent-line prefetch pair) with the count,
/// wherever the allocator puts the version.
#[repr(align(128))]
struct Version {
    layout: RowLayout,
    /// Framing bytes per stored row: one link per index.
    header: usize,
    batches: BatchList,
    /// The indexes, primary first.
    indexes: Vec<PartitionIndex>,
    /// The [`Cursor`] of the last publish call: every row below it is
    /// linked into every index. The call stores it once, after its links
    /// (Release); a view loads it before anything else (Acquire).
    cursor: AtomicU64,
    /// Stored rows, tombstones included. Written only under `append_lock`.
    rows: AtomicUsize,
    /// Tombstone rows stored. Written only under `append_lock`.
    tombstones: AtomicUsize,
    /// Rows hidden below a tombstone (dead versions a compaction can
    /// reclaim). Written only under `append_lock`; while it is zero a scan
    /// has nothing to hide and skips building its kill set.
    dead_rows: AtomicUsize,
}

impl Version {
    /// A version over `batches`, its cursor past their last row.
    fn new(layout: RowLayout, batches: BatchList, indexes: Vec<PartitionIndex>) -> Self {
        let version = Version {
            layout,
            header: row_header(indexes.len()),
            batches,
            indexes,
            cursor: AtomicU64::new(0),
            rows: AtomicUsize::new(0),
            tombstones: AtomicUsize::new(0),
            dead_rows: AtomicUsize::new(0),
        };
        version.cursor.store(version.end().0, Ordering::Release);
        version
    }

    /// A version with no rows, indexing each of `key_cols` (primary
    /// first).
    fn empty(layout: RowLayout, key_cols: impl Iterator<Item = usize>) -> Self {
        let indexes = key_cols.map(|c| PartitionIndex::over(c, Vec::new()));
        Version::new(layout, BatchList::new(), indexes.collect())
    }

    /// Just past the last row written. Only the writer moves it.
    fn end(&self) -> Cursor {
        self.batches
            .last()
            .map_or(Cursor(0), |(b, batch)| Cursor::past(b, batch.len()))
    }

    fn primary(&self) -> &PartitionIndex {
        // Every version is built with at least the primary.
        &self.indexes[0]
    }

    /// `key`'s head pointer in index `link` (NULL when absent).
    fn head_in(&self, link: usize, key: &Value) -> RowPtr {
        self.indexes
            .get(link)
            .and_then(|ix| ix.trie.lookup(key))
            .map_or(RowPtr::NULL, RowPtr::from_raw)
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

    /// Step 3: point every index at the heads one call wrote, count its
    /// rows, and then move the cursor past them, which makes them visible
    /// to new views through every index at once. Each index takes the
    /// call's heads in one [`CTrie::from_entries`]: an empty trie (a first
    /// load, a compaction) is built bottom-up, a populated one takes an
    /// insert per key.
    fn link(&self, heads: Heads<'_>) {
        if heads.rows == 0 {
            return;
        }
        let runs = heads.runs.into_iter().chain(heads.run);
        self.link_index(0, runs.map(|(key, head)| (key.clone(), head)));
        for (i, map) in heads.secondary.into_iter().enumerate() {
            self.link_index(i + 1, map.into_iter());
        }
        self.rows.fetch_add(heads.rows, Ordering::AcqRel);
        self.cursor.store(self.end().0, Ordering::Release);
    }

    /// Point index `link` at each `(key, head)` (distinct keys).
    fn link_index(&self, link: usize, heads: impl Iterator<Item = (Value, Head)>) {
        let ix = &self.indexes[link];
        let mut new_keys = 0;
        ix.trie.from_entries(heads.map(|(key, head)| {
            debug_assert_eq!(
                ix.trie.lookup(&key).map_or(RowPtr::NULL, RowPtr::from_raw),
                head.was,
                "single-writer invariant violated"
            );
            new_keys += usize::from(head.was.is_null());
            (key, head.ptr.raw())
        }));
        // Only a new key writes the counter: it shares a cache line with
        // the trie root every probe loads.
        if new_keys > 0 {
            ix.keys.fetch_add(new_keys, Ordering::AcqRel);
        }
    }
}

/// How far a view reads: the position just past the last row of the last
/// publish call before the view was taken, as
/// [`physical_key`]`(batch, end offset)`. Rows are written in position
/// order, so the rows below the cursor are exactly those of completed
/// calls.
#[derive(Clone, Copy)]
struct Cursor(u64);

impl Cursor {
    fn past(batch: usize, end: usize) -> Cursor {
        Cursor(physical_key(batch, end))
    }

    /// Whether the row at `ptr` lies below the cursor.
    #[inline]
    fn sees(self, ptr: RowPtr) -> bool {
        physical_key(ptr.batch(), ptr.offset()) < self.0
    }

    fn batch(self) -> usize {
        (self.0 >> 32) as usize
    }

    /// Committed bytes of batch `b` below the cursor: all of a batch before
    /// the cursor's (no row is written to one once a later batch exists),
    /// the cursor's offset in its own, none after it.
    fn watermark(self, b: usize, batch: &RowBatch) -> usize {
        match b.cmp(&self.batch()) {
            Cmp::Less => batch.len(),
            Cmp::Equal => (self.0 & u64::from(u32::MAX)) as usize,
            Cmp::Greater => 0,
        }
    }

    /// `(index, batch, watermark)` of every batch of `batches` the cursor
    /// reaches, from batch `from` on.
    fn batches(
        self,
        batches: &BatchList,
        from: usize,
    ) -> impl Iterator<Item = (usize, &RowBatch, usize)> {
        (from..=self.batch()).map_while(move |b| {
            batches
                .get(b)
                .map(|batch| (b, batch, self.watermark(b, batch)))
        })
    }
}

/// A single hash partition of an Indexed DataFrame.
pub struct IndexedPartition {
    config: IndexConfig,
    /// The current version, which also holds the row layout and the
    /// indexed columns. A view holds the read lock for one `Arc` clone;
    /// only a compaction swap writes it.
    current: RwLock<Arc<Version>>,
    /// Serializes writers ("Spark transformations within a partition are
    /// sequentially executed on a single core" — paper, §2). Guards the
    /// row-encode scratch buffer, which is reused across appends so the
    /// steady-state append path performs no allocation.
    append_lock: Mutex<Vec<u8>>,
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
        let version = Version::empty(RowLayout::new(schema), key_cols.iter().copied());
        Self::over(config, version)
    }

    fn over(config: IndexConfig, version: Version) -> Self {
        IndexedPartition {
            config,
            current: RwLock::new(Arc::new(version)),
            append_lock: Mutex::new(Vec::new()),
        }
    }

    /// The current version, for a caller that keeps it. A caller that
    /// reads a counter reads it through the lock instead, which saves the
    /// two shared reference-count updates.
    fn version(&self) -> Arc<Version> {
        Arc::clone(&self.current.read())
    }

    /// Rebuild a single-index partition from checkpointed state: restored row batches
    /// plus the dumped `key → packed pointer` index entries, built into a
    /// fresh cTrie bottom-up by [`CTrie::from_entries`] (far cheaper than
    /// replaying every append). The partition is immediately writable;
    /// new rows continue into the last restored batch.
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
        let index = PartitionIndex::over(key_col, index_entries);
        let version = Version::new(
            RowLayout::new(schema),
            BatchList::from(batches),
            vec![index],
        );
        // Recount from the restored bytes: the kind flag lives in the
        // stored headers (checkpoints round-trip it bit-for-bit), so the
        // counters need no checkpoint-format extension.
        let hidden = HiddenRows::find(&version.batches, version.end())?;
        version.rows.store(row_count, Ordering::Release);
        version
            .tombstones
            .store(hidden.tombstones, Ordering::Release);
        version
            .dead_rows
            .store(hidden.kill.keys.len(), Ordering::Release);
        Ok(Self::over(config, version))
    }

    /// The row schema.
    pub fn schema(&self) -> SchemaRef {
        self.current.read().layout.schema().clone()
    }

    /// Primary index column position.
    pub fn key_col(&self) -> usize {
        self.current.read().primary().col
    }

    /// Distinct keys of index `index` (0 = primary) — the maintained
    /// counter, not an O(n) trie walk.
    pub fn key_count(&self, index: usize) -> usize {
        self.current
            .read()
            .indexes
            .get(index)
            .map_or(0, |ix| ix.keys.load(Ordering::Acquire))
    }

    /// Rows appended so far.
    pub fn row_count(&self) -> usize {
        self.current.read().rows.load(Ordering::Acquire)
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
        let v = self.version();
        payload.clear();
        v.layout.encode(values, &mut payload)?;
        self.check_row_size(&v, payload.len())?;
        let key = &values[v.primary().col];
        self.publish_in(&v, &[(key, payload.as_slice(), RowKind::Data)], true)
    }

    /// Encode + validate one row without touching any shared state,
    /// returning the payload bytes for a later publish.
    pub fn encode_row(&self, values: &[Value]) -> Result<Vec<u8>> {
        crate::failpoints::check(crate::failpoints::APPEND_ENCODE)?;
        let mut payload = Vec::new();
        let v = self.current.read();
        v.layout.encode(values, &mut payload)?;
        self.check_row_size(&v, payload.len())?;
        Ok(payload)
    }

    /// Encode + validate rows `rows` of `chunk`, in that order, without
    /// touching any shared state: phase 1 of the two-phase
    /// (validate-all-then-publish) chunk append in
    /// [`crate::table::IndexedTable`]. The payloads go back to back onto
    /// `out`, each one's end onto `ends` (see [`RowLayout::encode_rows`]).
    ///
    /// # Errors
    /// A column that does not fit its field, or the first row (in `rows`
    /// order) whose stored size exceeds the configured maximum.
    pub(crate) fn encode_rows(
        &self,
        chunk: &Chunk,
        rows: &[u32],
        out: &mut Vec<u8>,
        ends: &mut Vec<usize>,
    ) -> Result<()> {
        crate::failpoints::check(crate::failpoints::APPEND_ENCODE)?;
        let v = self.version();
        let first = ends.len();
        let mut start = out.len();
        v.layout.encode_rows(chunk.columns(), rows, out, ends)?;
        for &end in ends.get(first..).unwrap_or_default() {
            self.check_row_size(&v, end - start)?;
            start = end;
        }
        Ok(())
    }

    fn check_row_size(&self, v: &Version, payload_len: usize) -> Result<()> {
        let stored = v.header + payload_len;
        if stored > self.config.max_row_size {
            return Err(EngineError::RowTooLarge {
                size: stored,
                max: self.config.max_row_size,
            });
        }
        Ok(())
    }

    /// Check a logged payload before replay stores it: one the layout
    /// encodes ([`RowLayout::validate`], else `Corrupt`) within the row-size
    /// limit (else `RowTooLarge`). Returns its primary key.
    pub(crate) fn check_logged(&self, payload: &[u8]) -> Result<Value> {
        let v = self.current.read();
        v.layout
            .validate(payload)
            .map_err(|e| EngineError::corrupt(format!("logged row: {e}")))?;
        self.check_row_size(&v, payload.len())?;
        v.layout.decode_column(payload, v.primary().col)
    }

    /// Append rows pre-encoded by [`Self::encode_row`] or
    /// [`Self::encode_rows`], in order, under one
    /// hold of the writer lock: phase 2 of a chunk append (a partition's
    /// rows sorted by key), a single-row append through a sink, and a
    /// partition's share of a replayed WAL record. Each row is `(primary
    /// key, payload, kind)`, and rows sharing a primary key must be
    /// adjacent: each key's rows form one run (see the module docs). The
    /// bytes written are those a row-at-a-time append of the same rows in
    /// the same order writes.
    ///
    /// # Errors
    /// [`crate::failpoints::APPEND_PUBLISH`] is checked before each row; a
    /// NULL-key tombstone, an oversized row or a full partition fail that
    /// row. On any error, and on a panic before it unwinds on, the rows
    /// already written are still linked into every index and published, so
    /// the partition holds a fully indexed prefix of `rows`.
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

    /// Match `deletes` against `key`'s visible primary chain, one chain
    /// row per delete row, by bytes: each delete row is encoded once, and
    /// [`RowLayout::encode`] writes one payload per row (a row that does
    /// not encode matches nothing). Returns the number matched and the
    /// stored bytes of the rest, oldest first. The caller holds the append
    /// lock (via [`Self::lock_appends`]), so the chain is stable.
    pub(crate) fn survivors_locked(
        &self,
        key: &Value,
        deletes: &[Vec<Value>],
    ) -> Result<(usize, Vec<Vec<u8>>)> {
        let v = self.version();
        let mut pending: Vec<Vec<u8>> = deletes
            .iter()
            .filter_map(|row| {
                let mut payload = Vec::new();
                v.layout.encode(row, &mut payload).ok().map(|()| payload)
            })
            .collect();
        let (mut matched, mut survivors) = (0, Vec::new());
        let mut next = v.head_in(0, key);
        while !next.is_null() {
            let (_, prev, kind, payload) = chain_row(&v.batches, next)?;
            if kind == RowKind::Tombstone {
                break;
            }
            match pending.iter().position(|d| d.as_slice() == payload) {
                Some(i) => {
                    pending.swap_remove(i);
                    matched += 1;
                }
                None => survivors.push(payload.to_vec()),
            }
            next = prev;
        }
        survivors.reverse();
        Ok((matched, survivors))
    }

    /// [`Self::append_encoded`] for a caller that already holds
    /// `append_lock` (single writer per partition): steps 1–3 of the
    /// append protocol. A row's primary link is the row before it when
    /// that row has the same key, and the trie's head only when the key
    /// starts a run. Another index links a row to the call's previous row
    /// with the same key in its column through a call-local map, which
    /// allocates only at its first key. Step 3 then inserts each key's
    /// last row once per index — one trie lookup and one insert per
    /// distinct key — and stores the cursor once.
    ///
    /// Publishing a tombstone makes every older row of its key's chain
    /// invisible: the tombstone becomes the chain head and readers stop
    /// there. The tombstone and dead-version counters grow as soon as it
    /// is written, before the cursor moves past it, so a view whose cursor
    /// covers it also sees the rows it hides counted. A tombstone joins no
    /// other index's chain; a data row joins every index whose column it
    /// holds a non-NULL value in.
    ///
    /// # Errors
    /// As [`Self::append_encoded`].
    pub(crate) fn publish_locked<K: Borrow<Value>, P: AsRef<[u8]>>(
        &self,
        rows: &[(K, P, RowKind)],
    ) -> Result<()> {
        self.publish_in(&self.version(), rows, true)
    }

    /// [`Self::publish_locked`] into `v`: the current version for an
    /// append, which checks [`crate::failpoints::APPEND_PUBLISH`] before
    /// each row and counts what it wrote in the append metrics; a
    /// compaction's new version otherwise.
    fn publish_in<K: Borrow<Value>, P: AsRef<[u8]>>(
        &self,
        v: &Version,
        rows: &[(K, P, RowKind)],
        append: bool,
    ) -> Result<()> {
        debug_assert!(keys_adjacent(rows), "a publish call's keys must form runs");
        let mut heads = Heads::new(v.indexes.len());
        // Rows already written are linked before an error returns and
        // before a panic (a failpoint, a bug) unwinds on, so no published
        // row is left outside its indexes.
        let written = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rows.iter().try_for_each(|(key, payload, kind)| {
                if append {
                    crate::failpoints::check(crate::failpoints::APPEND_PUBLISH)?;
                }
                self.write_linked(v, &mut heads, key.borrow(), payload.as_ref(), *kind)
            })
        }));
        let (count, bytes) = (heads.rows, heads.bytes);
        v.link(heads);
        if append {
            let m = idf_obs::global();
            m.append_rows.add(count as u64);
            m.append_bytes.add(bytes as u64);
        }
        written.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    /// Steps 1 and 2 for one row: its prev on every index, then its bytes.
    fn write_linked<'r>(
        &self,
        v: &Version,
        heads: &mut Heads<'r>,
        key: &'r Value,
        payload: &[u8],
        kind: RowKind,
    ) -> Result<()> {
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
                was[0] = v.head_in(0, key);
                prevs[0] = was[0];
            }
            None => {}
        }
        let secondary = v.secondary_keys(payload, kind)?;
        for (link, k) in &secondary {
            prevs[*link] = match heads.latest(*link, k) {
                Some(ptr) => ptr,
                None => {
                    was[*link] = v.head_in(*link, k);
                    was[*link]
                }
            };
        }
        // 2. Write the row bytes.
        let stored = v.header + payload.len();
        let prevs = &prevs[..v.indexes.len()];
        let (batch_idx, offset) =
            append_to(&v.batches, self.config.batch_size, prevs, payload, kind)?;
        let ptr = RowPtr::new(batch_idx, offset, stored);
        if kind == RowKind::Tombstone {
            // The rows it hides, stopping at any older tombstone: those
            // below it were already counted dead.
            let hidden = visible_chain_len(&v.batches, prevs[0]);
            v.tombstones.fetch_add(1, Ordering::AcqRel);
            v.dead_rows.fetch_add(hidden, Ordering::AcqRel);
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

    /// Take a consistent point-in-time read view: the current version and
    /// its cursor. O(1), lock-free against the append path, and it writes
    /// no trie. Its lookups probe the primary index (see
    /// [`PartitionSnapshot::probing`]).
    pub fn snapshot(&self) -> PartitionSnapshot {
        let version = self.version();
        let cursor = Cursor(version.cursor.load(Ordering::Acquire));
        // Read after the cursor: a tombstone's bump of this counter comes
        // before the cursor moves past the tombstone, so zero here means
        // the view hides nothing.
        let dead_rows = version.dead_rows.load(Ordering::Acquire);
        let m = idf_obs::global();
        m.snapshots_taken.inc();
        PartitionSnapshot {
            version,
            cursor,
            probe: 0,
            dead_rows,
            // The clock read is the expensive part of snapshot telemetry,
            // so only sampled snapshots carry a timestamp; the rest skip
            // both `Instant::now()` here and `elapsed()` at probe time.
            #[cfg(feature = "obs")]
            #[allow(clippy::disallowed_methods)] // gated by tick
            created_at: m.probe_sampler.tick().then(std::time::Instant::now),
        }
    }

    /// The root generation of each index's trie, primary first. A trie
    /// snapshot changes its trie's; nothing on the read path may.
    #[doc(hidden)]
    pub fn trie_generations(&self) -> Vec<u64> {
        self.current
            .read()
            .indexes
            .iter()
            .map(|ix| ix.trie.root_generation())
            .collect()
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
    /// The surviving rows are published, as their stored bytes, into a new
    /// empty version by one call of the append protocol's write and link
    /// steps (see the module docs): each key's survivors are one run,
    /// oldest first, and every index's trie is built bottom-up once at the
    /// end. It is not an append: no append failpoint or metric sees it.
    ///
    /// Runs under the append lock (writers block, readers do not).
    /// `pre_swap` runs (the compactor's swap failpoint), then one pointer
    /// swap makes the new version current. Views taken before it keep
    /// reading the old version, which no writer touches again; views taken
    /// after see only the compacted one.
    ///
    /// Not WAL-logged: recovery replays the original appends and DML
    /// records, which is logically equivalent; the next checkpoint
    /// persists (and shrinks to) the compacted bytes.
    ///
    /// # Errors
    /// Any error (corrupt chain, injected fault, `pre_swap` veto) aborts
    /// before the swap with the partition untouched.
    pub fn compact(&self, pre_swap: &dyn Fn() -> Result<()>) -> Result<CompactStats> {
        let writer = self.append_lock.lock();
        let old = self.version();
        let bytes_before: usize = old.batches.iter().map(RowBatch::len).sum();
        let batches_before = old.batches.len();
        let rows_before = old.rows.load(Ordering::Acquire);
        // Without tombstones every stored row is visible and every chain
        // is already minimal: nothing to reclaim.
        if old.tombstones.load(Ordering::Acquire) == 0 {
            return Ok(CompactStats {
                rows_before,
                rows_after: rows_before,
                bytes_before,
                bytes_after: bytes_before,
                batches_before,
                batches_after: batches_before,
            });
        }
        // The key walk: a read-only snapshot of the primary trie, which no
        // writer changes while the append lock is held.
        let keys: Vec<(Value, u64)> = old.primary().trie.read_only_snapshot().iter().collect();
        let null = Value::Null;
        let mut rows: Vec<(&Value, &[u8], RowKind)> = Vec::new();
        for (key, raw) in &keys {
            // The visible chain, latest first; a head tombstone means the
            // key is fully deleted and stays as its sentinel.
            let run = rows.len();
            let mut next = RowPtr::from_raw(*raw);
            while !next.is_null() {
                let (_, prev, kind, payload) = chain_row(&old.batches, next)?;
                if kind == RowKind::Tombstone {
                    if rows.len() == run {
                        rows.push((key, payload, kind));
                    }
                    break;
                }
                rows.push((key, payload, kind));
                next = prev;
            }
            // Oldest first, so the new chain reads back latest first.
            rows[run..].reverse();
        }
        // NULL-key rows live outside every primary chain and are never
        // deleted; carry them over with a physical pass.
        for b in old.batches.iter() {
            for row in b.iter_rows(b.len())? {
                let (_, _, kind, payload) = row?;
                if kind == RowKind::Data
                    && old
                        .layout
                        .decode_column(payload, old.primary().col)?
                        .is_null()
                {
                    rows.push((&null, payload, kind));
                }
            }
        }
        let cols = old.indexes.iter().map(|ix| ix.col);
        let compacted = Version::empty(old.layout.clone(), cols);
        self.publish_in(&compacted, &rows, false)?;
        pre_swap()?;
        let stats = CompactStats {
            rows_before,
            rows_after: rows.len(),
            bytes_before,
            bytes_after: compacted.batches.iter().map(RowBatch::len).sum(),
            batches_before,
            batches_after: compacted.batches.len(),
        };
        *self.current.write() = Arc::new(compacted);
        // `old` still holds the old version, so neither lock is held while
        // it is freed: here, or by the last view that holds it.
        drop(writer);
        Ok(stats)
    }

    /// Memory accounting for the paper's "low memory overhead" claim;
    /// `index_entries` counts the primary index.
    pub fn memory_stats(&self) -> PartitionMemory {
        let v = self.current.read();
        PartitionMemory {
            data_bytes: v.batches.iter().map(RowBatch::len).sum(),
            reserved_bytes: v.batches.iter().map(RowBatch::capacity).sum(),
            // The maintained counter, NOT `trie.len()`: these stats feed
            // planner row estimates on every query, and the trie's own
            // `len()` is a full O(n) traversal.
            index_entries: v.primary().keys.load(Ordering::Acquire),
            rows: v.rows.load(Ordering::Acquire),
            tombstones: v.tombstones.load(Ordering::Acquire),
            dead_rows: v.dead_rows.load(Ordering::Acquire),
        }
    }
}

/// Write a row linked to `prevs` (one per index) into the last of
/// `batches`, rolling over to a fresh batch of `batch_size` bytes when it
/// is full. Returns the row's batch and offset.
fn append_to(
    batches: &BatchList,
    batch_size: usize,
    prevs: &[RowPtr],
    payload: &[u8],
    kind: RowKind,
) -> Result<(usize, usize)> {
    if let Some((last, batch)) = batches.last() {
        if let Some(offset) = batch.append_row_kind(prevs, payload, kind) {
            return Ok((last, offset));
        }
    }
    if batches.len() >= crate::pointer::MAX_BATCHES {
        return Err(EngineError::exec("partition exceeded 2^31 row batches"));
    }
    let batch = Arc::new(RowBatch::with_links(batch_size, prevs.len()));
    let offset = batch.append_row_kind(prevs, payload, kind).ok_or(
        // Only reachable if a row outgrows a whole batch, which
        // `IndexConfig::validate` (max_row_size <= batch_size) rules out
        // for vetted configs.
        EngineError::RowTooLarge {
            size: row_header(prevs.len()) + payload.len(),
            max: batch_size,
        },
    )?;
    idf_obs::global().batch_seals.inc();
    Ok((batches.push(batch), offset))
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
pub(crate) fn keys_adjacent<K: Borrow<Value>, P>(rows: &[(K, P, RowKind)]) -> bool {
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
        let v = self.current.read();
        write!(
            f,
            "IndexedPartition(rows={}, batches={})",
            v.rows.load(Ordering::Acquire),
            v.batches.len()
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
fn visible_chain_len(batches: &BatchList, head: RowPtr) -> usize {
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

/// A consistent view of a partition: one version and a cursor into it
/// (see [`IndexedPartition::snapshot`]). It reaches every index of the
/// partition; its lookups probe one of them.
///
/// Lookups probe the live tries, so a probe reads, and skips, every row
/// of its key published after the view was taken (see [`ChainIter`]): the
/// longer a view is held while its keys grow, the more each probe reads.
pub struct PartitionSnapshot {
    version: Arc<Version>,
    cursor: Cursor,
    /// The index lookups probe (0 = primary).
    probe: usize,
    /// Rows hidden below tombstones when the view was taken. While zero,
    /// scans skip building their kill set (see [`HiddenRows`]).
    dead_rows: usize,
    /// When the snapshot was taken, feeding the snapshot-age histogram at
    /// probe time. `Some` only for 1-in-`idf_obs::SAMPLE_PERIOD` snapshots
    /// (and absent entirely in compiled-out builds), so the steady-state
    /// probe path pays no clock reads.
    #[cfg(feature = "obs")]
    created_at: Option<std::time::Instant>,
}

impl PartitionSnapshot {
    /// This view with its lookups probing index `index` (0 = primary).
    pub fn probing(mut self, index: usize) -> Self {
        debug_assert!(index < self.version.indexes.len(), "no index {index}");
        self.probe = index;
        self
    }

    /// Whether the probe sampler picked this snapshot to carry detailed
    /// telemetry (snapshot age, chain-walk length).
    #[cfg(feature = "obs")]
    #[inline]
    fn sampled(&self) -> bool {
        self.created_at.is_some()
    }

    fn layout(&self) -> &RowLayout {
        &self.version.layout
    }

    /// The row schema.
    pub fn schema(&self) -> &SchemaRef {
        self.layout().schema()
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
    /// this same view; an index the partition does not carry finds
    /// nothing.
    pub fn lookup_payloads_in(&self, index: usize, key: &Value) -> ChainIter<'_> {
        let head = match self.version.indexes.get(index) {
            Some(ix) if !key.is_null() => ix
                .trie
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
            #[cfg(feature = "obs")]
            hit: !head.is_null(),
            walked: 0,
            batch: None,
        }
    }

    /// Whether the row at `ptr` with `payload` is still visible on its
    /// primary chain: no tombstone below the cursor lies between the chain
    /// head and it. Only rows a secondary walk reaches while the view
    /// hides dead versions are asked.
    fn visible_on_primary(&self, ptr: RowPtr, payload: &[u8]) -> Result<bool> {
        let v = &self.version;
        let key = v.layout.decode_column(payload, v.primary().col)?;
        if key.is_null() {
            // Outside every primary chain, so never deleted.
            return Ok(true);
        }
        let mut next = v.head_in(0, &key);
        while !next.is_null() && next != ptr {
            let (_, prev, kind, _) = chain_row(&v.batches, next)?;
            if kind == RowKind::Tombstone && self.cursor.sees(next) {
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
        self.layout()
            .decode_chunk(&payloads, &self.projected_cols(projection)?)
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
        for key in keys {
            if let Some(q) = query {
                q.check()?;
            }
            for payload in self.lookup_payloads(key) {
                payloads.push(payload?);
            }
        }
        for p in preds {
            p.retain(&Payloads, &mut payloads)?;
        }
        let chunk = self
            .layout()
            .decode_chunk(&payloads, &self.projected_cols(projection)?)?;
        if let Some(q) = query {
            q.charge_memory(chunk.byte_size())?;
        }
        Ok(chunk)
    }

    fn projected_cols(&self, projection: Option<&[usize]>) -> Result<Vec<usize>> {
        let width = self.layout().schema().len();
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
    /// over the indexed representation. Rows come in physical batch order
    /// up to the view's cursor; tombstones and the versions they hide are
    /// skipped. An empty partition yields one empty chunk.
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
    /// The walk runs three passes over each segment of a batch (see
    /// [`ScanIter`]): a header pass lists the starts of the visible rows,
    /// each predicate narrows the list from the rows' own slots, and each
    /// column decoder reads its slot at every start left; a scan with no
    /// projected column decodes nothing. Chunks still hold at most
    /// `chunk_rows` rows, and because a selective predicate may walk far
    /// between two chunks, the query is also checked every
    /// `COUNT_CHUNK_ROWS` walked rows.
    ///
    /// # Errors
    /// As [`Self::scan`]; a stored length the layout cannot have, or a
    /// payload too short for a predicate's slot, fails from the iterator
    /// with a typed error.
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
            HiddenRows::find(&self.version.batches, self.cursor)?.kill
        };
        let v = &self.version;
        let step = match v.layout.fixed_width() {
            Some(payload) => RowStep::Stride(v.header + payload),
            None => RowStep::AtLeast(v.header + v.layout.min_payload_len()),
        };
        Ok(ScanIter {
            version: Arc::clone(&self.version),
            cursor: self.cursor,
            cols: self.projected_cols(projection)?,
            preds: preds.to_vec(),
            chunk_rows: chunk_rows.max(1),
            query,
            billed: 0,
            kill,
            step,
            starts: Vec::new(),
            batch: 0,
            offset: 0,
            state: ScanState::Fresh,
        })
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
        self.layout().decode_column_batch(payloads, col)
    }

    /// The probed index's column position.
    pub fn key_col(&self) -> usize {
        self.version
            .indexes
            .get(self.probe)
            .map_or(self.version.primary().col, |ix| ix.col)
    }

    /// The view's row batches as `(capacity, committed_prefix)` pairs for
    /// checkpoint serialization. Each prefix is cut at the view's cursor,
    /// so bytes appended after the view never leak into a checkpoint.
    pub fn export_batches(&self) -> Vec<(usize, &[u8])> {
        self.cursor
            .batches(&self.version.batches, 0)
            .map(|(_, b, w)| (b.capacity(), &b.committed_bytes()[..w]))
            .collect()
    }

    /// The view's primary index as `(key, packed pointer)` pairs for
    /// checkpoint serialization; restored via [`IndexedPartition::restore`].
    /// It iterates a read-only snapshot of the live trie, and walks a head
    /// at or above the cursor down to the first row below it; a key with
    /// no row below the cursor is left out.
    ///
    /// # Errors
    /// Fails on a chain pointer that does not resolve (a corrupt chain).
    pub fn export_index(&self) -> Result<Vec<(Value, u64)>> {
        let v = &self.version;
        let mut entries = Vec::new();
        for (key, raw) in v.primary().trie.read_only_snapshot().iter() {
            let mut ptr = RowPtr::from_raw(raw);
            while !ptr.is_null() && !self.cursor.sees(ptr) {
                ptr = chain_row(&v.batches, ptr)?.1;
            }
            if !ptr.is_null() {
                entries.push((key, ptr.raw()));
            }
        }
        Ok(entries)
    }
}

/// Rows per chunk of the zero-column scan behind
/// [`PartitionSnapshot::row_count`]: small enough that a malformed row
/// costs the count one chunk, not the partition.
const COUNT_CHUNK_ROWS: usize = 8192;

/// Rows one header pass walks before the predicates and the column
/// decoders run over the starts it found, when the stride finds each row:
/// enough that each pass's typed loop amortises its dispatch, few enough
/// that the later passes find the segment (35 KiB of `knows` rows) still
/// in the L1 cache. Measured on 119 089 `knows` rows on a 2-vCPU VM: a
/// zero-column walk costs 2.09 ns/row at 1 024 rows, 2.11 at 256 and
/// 2.27 at 64.
const SEGMENT_ROWS: usize = 1024;

/// [`SEGMENT_ROWS`] when each row's stored length finds the next. That
/// walk waits on one load per row, and the later passes only hide in its
/// shadow while they run within a few rows of it: over 45 854 `message`
/// rows of ≈190 B on the same VM, `forum_id = x` costs 12.4 ns/row at 8
/// rows and 16–17 ns/row at 16–128.
const VARIABLE_SEGMENT_ROWS: usize = 8;

/// Count `rows` more walked rows, and check `query` once every
/// [`COUNT_CHUNK_ROWS`] of them: a walk that keeps few rows can go far
/// between two chunk boundaries. Rows are counted a segment at a time, so
/// the hot path pays one compare per segment.
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
    /// Tombstones below the cursor.
    tombstones: usize,
}

impl HiddenRows {
    fn find(batches: &BatchList, cursor: Cursor) -> Result<HiddenRows> {
        let mut kill = Vec::new();
        let mut tombstones = 0usize;
        for (_, b, w) in cursor.batches(batches, 0) {
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
    /// The offset in batch `batch` of the first hidden row at or after
    /// `offset`, or `usize::MAX` when none is left in that batch. The walk
    /// asks in ascending position order, so one cursor over the sorted
    /// keys answers every ask; an empty set costs one compare.
    #[inline]
    fn next_in(&mut self, batch: usize, offset: usize) -> usize {
        let at = physical_key(batch, offset);
        while self.keys.get(self.pos).is_some_and(|&k| k < at) {
            self.pos += 1;
        }
        match self.keys.get(self.pos) {
            Some(&k) if k >> 32 == batch as u64 => (k & u64::from(u32::MAX)) as usize,
            _ => usize::MAX,
        }
    }
}

/// The batch a chain pointer names.
#[inline]
fn batch_of(batches: &BatchList, ptr: RowPtr) -> Result<&RowBatch> {
    batches.get(ptr.batch()).ok_or_else(|| {
        EngineError::internal(format!(
            "chain pointer names batch {} of {}",
            ptr.batch(),
            batches.len()
        ))
    })
}

/// The stored row a chain pointer names.
fn chain_row(batches: &BatchList, ptr: RowPtr) -> Result<crate::batch::StoredRow<'_>> {
    batch_of(batches, ptr)?.row_at_full(ptr.offset())
}

enum ScanState {
    /// No chunk produced yet (an empty partition still owes one).
    Fresh,
    Running,
    Done,
}

/// Lazy full scan of one partition view (see [`PartitionSnapshot::scan`]).
/// Holds the view's version and cursor, so it outlives the view it was
/// taken from.
///
/// Each chunk is built a segment of at most `SEGMENT_ROWS` (or
/// `VARIABLE_SEGMENT_ROWS`) walked rows at a time, in three passes over
/// the batch's bytes: the header pass lists the payload starts of the
/// segment's data rows, leaving out tombstones and the rows they hide;
/// each predicate narrows the list; each column decoder reads its slot at
/// every start left.
pub struct ScanIter {
    version: Arc<Version>,
    cursor: Cursor,
    cols: Vec<usize>,
    /// Only rows that pass all of these are returned.
    preds: Vec<SlotPredicate>,
    chunk_rows: usize,
    query: Option<Arc<QueryContext>>,
    /// Bytes of the last chunk handed out, still charged to `query`.
    billed: usize,
    kill: KillSet,
    /// How the header pass finds the next row: by the layout's stride
    /// when it has no variable-width column.
    step: RowStep,
    /// The current segment's payload starts (kept to reuse its buffer).
    starts: Vec<u32>,
    /// Where the walk resumes.
    batch: usize,
    offset: usize,
    state: ScanState,
}

impl ScanIter {
    /// Upper bound on the rows left to scan, from the bytes left and the
    /// smallest row the layout can store — exact for fixed-width schemas.
    fn rows_left_at_most(&self) -> usize {
        let v = &self.version;
        let bytes: usize = self
            .cursor
            .batches(&v.batches, self.batch)
            .map(|(_, _, w)| w)
            .sum::<usize>()
            .saturating_sub(self.offset);
        bytes / (v.header + v.layout.min_payload_len())
    }

    /// How this scan's header pass finds rows: by the layout's stride, or
    /// by each row's stored length.
    pub fn row_step(&self) -> RowStep {
        self.step
    }

    /// The next chunk.
    fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        if let Some(q) = &self.query {
            q.check()?;
            q.release_memory(std::mem::take(&mut self.billed));
        }
        let capacity = self.chunk_rows.min(self.rows_left_at_most());
        let version = &self.version;
        let mut decoders: Vec<ColumnDecoder> = self
            .cols
            .iter()
            .map(|&c| version.layout.column_decoder(c, capacity))
            .collect();
        let starts = &mut self.starts;
        let segment_rows = match self.step {
            RowStep::Stride(_) => SEGMENT_ROWS,
            RowStep::AtLeast(_) => VARIABLE_SEGMENT_ROWS,
        };
        let mut rows = 0usize;
        let mut unchecked = 0usize;
        while rows < self.chunk_rows && self.batch <= self.cursor.batch() {
            let Some(batch) = version.batches.get(self.batch) else {
                break;
            };
            let watermark = self.cursor.watermark(self.batch, batch);
            let mut walk = batch.iter_rows_from(self.offset, watermark)?;
            while rows < self.chunk_rows && !walk.at_end() {
                // A segment never walks more rows than the chunk has room
                // for, so every row that passes fits, and the walk resumes
                // right after the segment.
                let hidden = self.kill.next_in(self.batch, walk.offset());
                let room = segment_rows.min(self.chunk_rows - rows);
                starts.clear();
                let walked = walk.gather(self.step, hidden, room, starts)?;
                count_walked(&mut unchecked, walked, self.query.as_deref())?;
                let segment = walk.rows(self.step);
                for p in &self.preds {
                    p.retain(&segment, starts)?;
                }
                for d in &mut decoders {
                    d.extend_rows(&segment, starts)?;
                }
                rows += starts.len();
            }
            self.offset = walk.offset();
            if walk.at_end() {
                self.batch += 1;
                self.offset = 0;
            }
        }
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
        let chunk = self.next_chunk();
        self.state = match &chunk {
            Ok(Some(_)) => ScanState::Running,
            // Fused: after an error every later position is suspect.
            Ok(None) | Err(_) => ScanState::Done,
        };
        chunk.transpose()
    }
}

/// Iterator over a key's backward-pointer chain (latest row first), from
/// the first row below the view's cursor. Fused: a corrupt pointer yields
/// one `Err` and then terminates.
///
/// The walk starts at the live trie's head, so it first reads the key's
/// rows published after the view was taken, each decoded and skipped: its
/// cost grows with the key's appends since then, not only with the rows
/// it yields.
///
/// On drop, a chain that started from a successful probe records how many
/// rows it walked into the global chain-walk-length histogram.
pub struct ChainIter<'a> {
    snapshot: &'a PartitionSnapshot,
    next: RowPtr,
    /// The index whose link the walk follows (0 = primary).
    link: usize,
    /// Whether the probe found a head (misses are not chain walks).
    #[cfg(feature = "obs")]
    hit: bool,
    /// Rows read so far, those skipped above the cursor included.
    walked: u32,
    /// The batch of the last row read, by index: a chain's rows mostly
    /// share one, so a hop rarely looks a batch up.
    batch: Option<(usize, &'a RowBatch)>,
}

impl<'a> Iterator for ChainIter<'a> {
    type Item = Result<&'a [u8]>;

    fn next(&mut self) -> Option<Result<&'a [u8]>> {
        if self.link != 0 {
            return self.next_secondary();
        }
        let snapshot = self.snapshot;
        while !self.next.is_null() {
            let ptr = self.next;
            match self.batch(ptr).and_then(|b| b.row_at_full(ptr.offset())) {
                Ok((stored, prev, kind, payload)) => {
                    debug_assert_eq!(stored, ptr.size(), "pointer size must match stored row");
                    self.walked += 1;
                    if !snapshot.cursor.sees(ptr) {
                        // Published after the view was taken.
                        self.next = prev;
                        continue;
                    }
                    if kind == RowKind::Tombstone {
                        // The visible chain ends here: every older version
                        // of this key is deleted. Decoding the tombstone
                        // was still a physical row read, so it counts
                        // toward the walk length — this is exactly the hop
                        // a compaction rewrite removes from every surviving
                        // key's probe.
                        self.next = RowPtr::NULL;
                        return None;
                    }
                    self.next = prev;
                    return Some(Ok(payload));
                }
                Err(e) => {
                    self.next = RowPtr::NULL;
                    return Some(Err(e));
                }
            }
        }
        None
    }
}

impl<'a> ChainIter<'a> {
    /// The batch `ptr` names.
    #[inline]
    fn batch(&mut self, ptr: RowPtr) -> Result<&'a RowBatch> {
        match self.batch {
            Some((i, batch)) if i == ptr.batch() => Ok(batch),
            _ => {
                let batch = batch_of(&self.snapshot.version.batches, ptr)?;
                self.batch = Some((ptr.batch(), batch));
                Ok(batch)
            }
        }
    }

    /// One step of a walk along a secondary link. Tombstones never join
    /// these chains; a row counts only if it lies below the cursor and,
    /// while the view hides dead versions, its primary chain still shows
    /// it.
    fn next_secondary(&mut self) -> Option<Result<&'a [u8]>> {
        let snapshot = self.snapshot;
        while !self.next.is_null() {
            let ptr = self.next;
            let link = self.link;
            let step = self
                .batch(ptr)
                .and_then(|b| b.row_at_link(ptr.offset(), link))
                .and_then(|(prev, payload)| {
                    self.next = prev;
                    self.walked += 1;
                    let visible = snapshot.cursor.sees(ptr)
                        && (snapshot.dead_rows == 0
                            || snapshot.visible_on_primary(ptr, payload)?);
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
            p.version().primary().trie.len(),
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
            s.export_index().unwrap(),
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
        let first = s.layout().decode_row(payloads[0]).unwrap();
        assert_eq!(first[1], Value::Utf8("v499".into()));
        let last = s.layout().decode_row(payloads[499]).unwrap();
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
        assert_eq!(p.key_count(0), 1);
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
                            let vals = s.layout().decode_row(payload.unwrap()).unwrap();
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
        let restored = IndexedPartition::restore(
            schema(),
            0,
            cfg,
            batches,
            s.export_index().unwrap(),
            p.row_count(),
        )
        .unwrap();
        // All five sentinels are still physically present (key 15's new
        // row sits above its sentinel, it does not remove it).
        assert_eq!(restored.memory_stats().tombstones, 5);
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
            for (b, batch, watermark) in s.cursor.batches(&s.version.batches, 0) {
                for walked in batch.iter_rows(watermark).unwrap() {
                    let (offset, prev, _, payload) = walked.unwrap();
                    let key = s.layout().decode_column(payload, 0).unwrap();
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
