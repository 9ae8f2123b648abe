//! Row batches: fixed-capacity, append-only binary buffers.
//!
//! Paper, §2: *"a set of row batches, which stores the tabular data …
//! collections of binary, unsafe arrays (e.g., of 4 MB in size)"*.
//!
//! A batch is allocated at full capacity up front and **never reallocates**,
//! so a published row's bytes are stable for the batch's lifetime. A single
//! writer (appends within a partition are sequential, as in Spark) bumps a
//! committed-length watermark with `Release` ordering after writing row
//! bytes; readers load it with `Acquire` and only ever dereference below
//! it. This gives lock-free, wait-free reads concurrent with appends — the
//! storage half of the paper's multi-version concurrency (the other half is
//! the partition's commit cursor, see [`crate::partition`]).
//!
//! Stored row format:
//!
//! ```text
//! | stored_len: u16 | prev₀: u64 | prev₁: u64 … | payload ... |
//! ```
//!
//! `prev₀` is the backward pointer: a packed [`RowPtr`] to the previous
//! row with the same key (the per-key linked list of the paper), carrying
//! that row's stored size. A table with more than one index threads one
//! more chain per extra index, each through its own `prev` word (its
//! *link*); a batch knows how many links its rows carry, and a
//! single-index table's rows are exactly `| stored_len | prev | payload |`.
//! `stored_len` makes full scans self-delimiting.
//!
//! The top bit of `stored_len` is the **row-kind flag**: set for a
//! tombstone ([`RowKind::Tombstone`]), clear for a data row. A stored row
//! is at most `MAX_ROW_SIZE` (1023) bytes, so the true length always fits
//! in the low bits and the flag costs no extra framing — which is what
//! lets checkpoints (raw committed bytes) round-trip row kinds
//! bit-for-bit with no format change.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use idf_engine::error::{EngineError, Result};

use crate::layout::{corrupt, fixed, RowAccess};
use crate::pointer::RowPtr;
use crate::sink::RowKind;

/// Bytes of per-row framing for a row carrying `links` backward pointers:
/// the u16 stored length plus one u64 per link.
pub const fn row_header(links: usize) -> usize {
    2 + 8 * links
}

/// Bytes of per-row framing of a single-index table: u16 stored length +
/// u64 backward pointer.
pub const ROW_HEADER: usize = row_header(1);

/// Bit 15 of `stored_len`: set when the stored row is a tombstone.
const KIND_TOMBSTONE_BIT: u16 = 0x8000;

/// Low bits of `stored_len`: the true stored byte count.
const STORED_LEN_MASK: u16 = 0x7FFF;

/// One stored row as a read sees it: `(stored_size, prev, kind, payload)`.
pub type StoredRow<'a> = (usize, RowPtr, RowKind, &'a [u8]);

/// One row as a sequential walk yields it: `(offset, prev, kind, payload)`.
pub type WalkedRow<'a> = (usize, RowPtr, RowKind, &'a [u8]);

/// Decode the stored row that starts at `offset` of `committed` (a
/// committed prefix, possibly cut at a snapshot watermark) whose rows carry
/// `header` bytes of framing: length word → kind bit → payload range, with
/// one bounds validation covering header and payload. A corrupt or
/// truncated row surfaces as a typed error, never a slice panic. The
/// returned pointer is the row's first link.
#[inline]
fn parse_row(committed: &[u8], offset: usize, header: usize) -> Result<StoredRow<'_>> {
    let rest = committed.get(offset..).unwrap_or_default();
    let Some((head, _)) = rest.split_first_chunk::<ROW_HEADER>() else {
        return Err(bad_row(offset, header, header, committed.len()));
    };
    let [len_lo, len_hi, prev @ ..] = *head;
    let len_word = u16::from_le_bytes([len_lo, len_hi]);
    let stored = usize::from(len_word & STORED_LEN_MASK);
    // `None` both when the row runs past the committed bytes and when it
    // declares fewer bytes than its own header (an empty range start > end).
    let Some(payload) = rest.get(header..stored) else {
        return Err(bad_row(offset, stored, header, committed.len()));
    };
    let kind = if len_word & KIND_TOMBSTONE_BIT != 0 {
        RowKind::Tombstone
    } else {
        RowKind::Data
    };
    let prev = RowPtr::from_raw(u64::from_le_bytes(prev));
    Ok((stored, prev, kind, payload))
}

#[cold]
fn bad_row(offset: usize, stored: usize, header: usize, committed: usize) -> EngineError {
    if stored < header {
        return EngineError::internal(format!(
            "row at {offset} declares {stored} stored bytes, below the {header}-byte header"
        ));
    }
    EngineError::internal(format!(
        "read [{offset}, +{stored}) beyond committed {committed}"
    ))
}

/// One append-only binary row batch.
pub struct RowBatch {
    buf: Box<[UnsafeCell<u8>]>,
    /// Committed byte count; bytes below this are immutable.
    len: AtomicUsize,
    /// Framing bytes of every row in this batch: [`row_header`] of the
    /// number of links its rows carry.
    header: usize,
}

// SAFETY: sending a batch moves the whole buffer; bytes below `len` are
// immutable once published (Release store after the writes, Acquire load
// before the reads) and bytes above `len` are touched only by the
// partition's single writer.
unsafe impl Send for RowBatch {}
// SAFETY: shared readers only dereference bytes below the Acquire-loaded
// watermark, which the single writer froze with its Release store.
unsafe impl Sync for RowBatch {}

impl RowBatch {
    /// Allocate a batch of fixed `capacity` bytes for single-link rows.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_links(capacity, 1)
    }

    /// Allocate a batch of fixed `capacity` bytes whose rows carry `links`
    /// backward pointers (one per index of the table).
    pub fn with_links(capacity: usize, links: usize) -> Self {
        debug_assert!(links >= 1, "a row carries at least its primary link");
        let mut v = Vec::with_capacity(capacity);
        v.resize_with(capacity, || UnsafeCell::new(0));
        RowBatch {
            buf: v.into_boxed_slice(),
            len: AtomicUsize::new(0),
            header: row_header(links.max(1)),
        }
    }

    /// Rebuild a single-link batch from `data`, the committed bytes of a
    /// checkpointed batch, inside a fresh `capacity`-byte allocation. The restored
    /// committed prefix is immutable exactly as if the rows had been
    /// appended live, so the partition's single writer may keep appending
    /// after `data.len()`.
    ///
    /// # Errors
    /// Fails when `data` does not fit in `capacity` — a checkpoint that
    /// claims more committed bytes than the batch can hold is corrupt.
    pub fn from_committed_bytes(capacity: usize, data: &[u8]) -> Result<Self> {
        if data.len() > capacity {
            return Err(EngineError::corrupt(format!(
                "restored batch claims {} committed bytes in a {capacity}-byte batch",
                data.len()
            )));
        }
        let mut v: Vec<UnsafeCell<u8>> = Vec::with_capacity(capacity);
        v.extend(data.iter().map(|&b| UnsafeCell::new(b)));
        v.resize_with(capacity, || UnsafeCell::new(0));
        Ok(RowBatch {
            buf: v.into_boxed_slice(),
            len: AtomicUsize::new(data.len()),
            header: ROW_HEADER,
        })
    }

    /// Framing bytes of every row in this batch.
    pub fn header(&self) -> usize {
        self.header
    }

    /// The committed prefix as a byte slice (checkpoint serialization).
    pub fn committed_bytes(&self) -> &[u8] {
        let committed = self.len();
        // SAFETY: the committed prefix is immutable.
        unsafe { std::slice::from_raw_parts(self.buf.as_ptr() as *const u8, committed) }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Committed (readable) bytes.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether no rows have been committed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free bytes.
    pub fn remaining(&self) -> usize {
        self.capacity() - self.len()
    }

    /// Append one stored data row; returns its byte offset, or `None` if
    /// the batch is full.
    ///
    /// Must only be called by the partition's single writer (enforced by
    /// the partition's append lock).
    #[cfg_attr(not(test), allow(dead_code))] // the kind-aware sibling took over production use
    pub(crate) fn append_row(&self, prev: RowPtr, payload: &[u8]) -> Option<usize> {
        self.append_row_kind(&[prev], payload, RowKind::Data)
    }

    /// Append one stored row of the given [`RowKind`] whose links are
    /// `prevs` (primary first; a link `prevs` does not name is null);
    /// returns its byte offset, or `None` if the batch is full. See
    /// [`RowBatch::append_row`] for the single-writer contract.
    pub(crate) fn append_row_kind(
        &self,
        prevs: &[RowPtr],
        payload: &[u8],
        kind: RowKind,
    ) -> Option<usize> {
        let links = (self.header - 2) / 8;
        debug_assert_eq!(prevs.len(), links, "one backward pointer per link");
        let stored = self.header + payload.len();
        debug_assert!(
            stored <= STORED_LEN_MASK as usize,
            "stored row of {stored} bytes collides with the kind flag"
        );
        // Relaxed: the single writer re-reads its own store (append lock held); readers see it
        // via the Release publish below.
        let offset = self.len.load(Ordering::Relaxed);
        if offset + stored > self.capacity() {
            return None;
        }
        let mut len_word = stored as u16;
        if kind == RowKind::Tombstone {
            len_word |= KIND_TOMBSTONE_BIT;
        }
        // SAFETY: single writer; the region [offset, offset+stored) is
        // above the committed watermark, so no reader can observe it yet.
        unsafe {
            let base = self.buf.as_ptr() as *mut u8;
            let dst = base.add(offset);
            let len_bytes = len_word.to_le_bytes();
            std::ptr::copy_nonoverlapping(len_bytes.as_ptr(), dst, 2);
            for link in 0..links {
                let prev = prevs.get(link).copied().unwrap_or(RowPtr::NULL);
                let prev_bytes = prev.raw().to_le_bytes();
                std::ptr::copy_nonoverlapping(prev_bytes.as_ptr(), dst.add(2 + 8 * link), 8);
            }
            std::ptr::copy_nonoverlapping(payload.as_ptr(), dst.add(self.header), payload.len());
        }
        // Publish: readers that see the new watermark also see the bytes.
        self.len.store(offset + stored, Ordering::Release);
        Some(offset)
    }

    /// Decode the stored row at `offset`: `(stored_size, prev, payload)`.
    ///
    /// # Errors
    /// Fails when `offset` does not point at a committed, well-formed row.
    pub fn row_at(&self, offset: usize) -> Result<(usize, RowPtr, &[u8])> {
        let (stored, prev, _, payload) = self.row_at_full(offset)?;
        Ok((stored, prev, payload))
    }

    /// Decode the stored row at `offset` with its kind:
    /// `(stored_size, prev, kind, payload)` — a random-access read, which
    /// checks the fault site and loads the committed length for this one
    /// row (a chain walk reads through [`RowBatch::chain_batch`]).
    ///
    /// # Errors
    /// Fails when `offset` does not point at a committed, well-formed row —
    /// a corrupt pointer must surface as a query error, not a panic that
    /// poisons the whole process.
    pub fn row_at_full(&self, offset: usize) -> Result<StoredRow<'_>> {
        crate::failpoints::check(crate::failpoints::BATCH_READ)?;
        parse_row(self.committed_bytes(), offset, self.header)
    }

    /// This batch's committed rows as a chain walk that enters it reads
    /// them: the `BATCH_READ` check and the committed-length load are paid
    /// here, once per batch a walk enters, not once per row. A walk only
    /// moves to older rows, so every row it reaches in this batch after
    /// entering it lies below the length read here.
    ///
    /// # Errors
    /// Fails only at an injected fault.
    #[inline]
    pub fn chain_batch(&self) -> Result<ChainBatch<'_>> {
        crate::failpoints::check(crate::failpoints::BATCH_READ)?;
        Ok(ChainBatch {
            committed: self.committed_bytes(),
            header: self.header,
        })
    }

    /// Ask the CPU to start loading the row at `offset` into the cache.
    /// Only a hint: any offset is harmless, a wrong one wastes a load.
    #[inline]
    pub fn prefetch_row(&self, offset: usize) {
        prefetch(self.buf.as_ptr().cast::<u8>().wrapping_add(offset));
    }

    /// Iterate rows sequentially up to `watermark` committed bytes (a
    /// snapshot boundary): yields `(offset, prev, kind, payload)` for data
    /// rows **and** tombstones alike.
    ///
    /// # Errors
    /// Fails when `watermark` lies beyond the committed bytes.
    pub fn iter_rows(&self, watermark: usize) -> Result<RowBatchIter<'_>> {
        self.iter_rows_from(0, watermark)
    }

    /// [`RowBatch::iter_rows`] resumed at `offset`, which must be a row
    /// boundary an earlier walk of this batch stopped at (see
    /// [`RowBatchIter::offset`]). The committed slice is taken once here;
    /// the walk itself touches no atomics.
    ///
    /// # Errors
    /// Fails when `watermark` lies beyond the committed bytes.
    pub fn iter_rows_from(&self, offset: usize, watermark: usize) -> Result<RowBatchIter<'_>> {
        crate::failpoints::check(crate::failpoints::BATCH_READ)?;
        let committed = self.committed_bytes();
        let visible = committed.get(..watermark).ok_or_else(|| {
            EngineError::internal(format!(
                "watermark {watermark} beyond committed {}",
                committed.len()
            ))
        })?;
        Ok(RowBatchIter {
            visible,
            offset,
            header: self.header,
        })
    }
}

impl std::fmt::Debug for RowBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RowBatch({} / {} bytes)", self.len(), self.capacity())
    }
}

/// The committed rows of one batch as a chain walk reads them (see
/// [`RowBatch::chain_batch`]): each hop parses one row of a slice taken
/// when the walk entered the batch.
#[derive(Clone, Copy)]
pub struct ChainBatch<'a> {
    committed: &'a [u8],
    header: usize,
}

impl<'a> ChainBatch<'a> {
    /// The stored row at `offset`: `(stored_size, prev, kind, payload)`.
    ///
    /// # Errors
    /// Fails when `offset` does not point at a well-formed row below the
    /// length read when the walk entered the batch — a corrupt pointer
    /// must surface as a query error, not a panic.
    #[inline]
    pub fn row(&self, offset: usize) -> Result<StoredRow<'a>> {
        parse_row(self.committed, offset, self.header)
    }

    /// The stored row at `offset` as a walk along link `link` sees it:
    /// `(that link's prev, payload)` — the read of a secondary-index chain
    /// walk.
    ///
    /// # Errors
    /// As [`ChainBatch::row`], and when the batch's rows carry no such
    /// link.
    pub fn row_link(&self, offset: usize, link: usize) -> Result<(RowPtr, &'a [u8])> {
        let (_, _, _, payload) = self.row(offset)?;
        let at = 2 + 8 * link;
        // The parse validated the whole header, so only a link the rows do
        // not carry can miss here.
        let word = self
            .committed
            .get(offset + at..offset + at + 8)
            .filter(|_| at < self.header)
            .and_then(|w| <[u8; 8]>::try_from(w).ok())
            .ok_or_else(|| {
                EngineError::internal(format!(
                    "link {link} of a row with a {}-byte header",
                    self.header
                ))
            })?;
        Ok((RowPtr::from_raw(u64::from_le_bytes(word)), payload))
    }

    /// [`RowBatch::prefetch_row`] of this batch.
    #[inline]
    pub fn prefetch_row(&self, offset: usize) {
        prefetch(self.committed.as_ptr().wrapping_add(offset));
    }
}

/// A software prefetch of the cache line at `addr` into every cache level;
/// nothing on targets other than x86_64.
#[inline(always)]
fn prefetch(addr: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint that reads nothing the program observes
    // and never faults, whatever the address, and SSE (which provides it)
    // is part of the x86_64 baseline.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(addr.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = addr;
}

/// Segments of a [`BatchList`]: segment `s` holds `2^s` slots, so 32 of
/// them hold more batches than a [`RowPtr`] can name.
const SEGMENTS: usize = 32;

/// One segment's slots, each set once.
type Segment = Box<[OnceLock<Arc<RowBatch>>]>;

/// The row batches of one partition version, in order: append-only, and
/// read without a lock while the partition's single writer appends. Batch
/// `i` sits in segment `log2(i + 1)`, allocated when its first batch
/// arrives, so a listed batch never moves and finding one costs two
/// acquire loads. A reader can thus resolve any pointer the live tries
/// hold, including one into a batch opened after it started.
pub(crate) struct BatchList {
    segments: [OnceLock<Segment>; SEGMENTS],
    /// Batches listed. Raised only by [`BatchList::push`], after the slot
    /// is set (Release); readers load it with Acquire.
    len: AtomicUsize,
}

impl BatchList {
    pub(crate) fn new() -> Self {
        BatchList {
            segments: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// `(segment, slot)` of batch `i`.
    fn slot(i: usize) -> (usize, usize) {
        let n = i + 1;
        let segment = (usize::BITS - 1 - n.leading_zeros()) as usize;
        (segment, n - (1 << segment))
    }

    /// Batch `i`, if listed.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&RowBatch> {
        let (segment, slot) = Self::slot(i);
        self.segments
            .get(segment)?
            .get()?
            .get(slot)?
            .get()
            .map(|b| &**b)
    }

    /// Batches listed.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// The last batch and its index.
    pub(crate) fn last(&self) -> Option<(usize, &RowBatch)> {
        let i = self.len().checked_sub(1)?;
        Some((i, self.get(i)?))
    }

    /// The batches in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &RowBatch> {
        (0..self.len()).map_while(|i| self.get(i))
    }

    /// List `batch` after the others and return its index. Only the
    /// partition's single writer calls this (append lock held), and the
    /// partition keeps the count below [`crate::pointer::MAX_BATCHES`].
    pub(crate) fn push(&self, batch: Arc<RowBatch>) -> usize {
        // Relaxed: only this writer stores `len`.
        let i = self.len.load(Ordering::Relaxed);
        let (segment, slot) = Self::slot(i);
        if let Some(cell) = self
            .segments
            .get(segment)
            .map(|s| s.get_or_init(|| (0..1usize << segment).map(|_| OnceLock::new()).collect()))
            .and_then(|s| s.get(slot))
        {
            // A fresh slot: `i` is one past every slot set so far.
            let _ = cell.set(batch);
        }
        self.len.store(i + 1, Ordering::Release);
        i
    }
}

impl From<Vec<Arc<RowBatch>>> for BatchList {
    fn from(batches: Vec<Arc<RowBatch>>) -> Self {
        let list = BatchList::new();
        for b in batches {
            list.push(b);
        }
        list
    }
}

/// Sequential row iterator over one batch (see [`RowBatch::iter_rows`]):
/// one tight header walk over the committed slice. A scan drives the same
/// walk a segment at a time (`RowBatchIter::gather`).
pub struct RowBatchIter<'a> {
    /// The committed bytes below the snapshot watermark.
    visible: &'a [u8],
    offset: usize,
    /// Framing bytes per row (see [`RowBatch::header`]).
    header: usize,
}

/// How a scan's header pass finds the next row (DESIGN.md §16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowStep {
    /// Every stored row, tombstones included, is exactly this many bytes
    /// (a layout with no variable-width column): the pass advances by the
    /// stride and only checks each row's stored length against it, so no
    /// row's position waits on the load of the row before it.
    Stride(usize),
    /// Rows vary in length: the pass advances by each row's stored
    /// length, which must be at least this many bytes (the header plus the
    /// layout's fixed section).
    AtLeast(usize),
}

impl<'a> RowBatchIter<'a> {
    /// Byte offset of the next row — where [`RowBatch::iter_rows_from`]
    /// resumes a walk that stopped early.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Whether the walk has passed every visible row.
    pub(crate) fn at_end(&self) -> bool {
        self.offset >= self.visible.len()
    }

    /// The walk's visible bytes, addressed by the payload starts
    /// [`Self::gather`] finds under `step`.
    pub(crate) fn rows(&self, step: RowStep) -> BatchRows<'a> {
        let (RowStep::Stride(row) | RowStep::AtLeast(row)) = step;
        BatchRows {
            bytes: self.visible,
            header: self.header,
            fixed_len: row.saturating_sub(self.header),
        }
    }

    /// The header pass of a scan segment: walk at most `walk` rows on from
    /// [`Self::offset`] and push the payload start of every data row to
    /// `starts`. Tombstones are walked, not pushed, and so is the row at
    /// `hidden` (a row a tombstone hides; `usize::MAX` for none), after
    /// which the pass stops so its caller can name the next hidden row.
    /// Every start pushed belongs to a row whose stored length covers the
    /// layout's fixed section, which is what lets the kernels read slots
    /// through [`BatchRows`] without a per-row payload bound. Returns the
    /// rows walked.
    ///
    /// # Errors
    /// A stored length that breaks `step`, or a row running past the
    /// visible bytes, is a typed error; the walk is fused after it.
    #[inline]
    pub(crate) fn gather(
        &mut self,
        step: RowStep,
        hidden: usize,
        walk: usize,
        starts: &mut Vec<u32>,
    ) -> Result<usize> {
        let walked = match step {
            RowStep::Stride(stride) => self.gather_strided(stride, hidden, walk, starts),
            RowStep::AtLeast(min) => self.gather_stored(min, hidden, walk, starts),
        };
        if walked.is_err() {
            // Fuse: a malformed row makes every later offset suspect.
            self.offset = self.visible.len();
        }
        walked
    }

    /// [`Self::gather`] by the stride rule. The rows in reach are counted
    /// up front, so the loop has no exit but its count: each row's start is
    /// written unconditionally and kept by advancing past it, and a stored
    /// length off the stride is noted and reported after the loop.
    #[inline]
    fn gather_strided(
        &mut self,
        stride: usize,
        hidden: usize,
        walk: usize,
        starts: &mut Vec<u32>,
    ) -> Result<usize> {
        let (visible, header, offset) = (self.visible, self.header, self.offset);
        let rest = visible.get(offset..).unwrap_or_default();
        let mut rows = (rest.len() / stride).min(walk);
        if let Some(before) = hidden.checked_sub(offset) {
            // Stop right after the hidden row.
            rows = rows.min(before / stride + 1);
        }
        if rows == 0 && walk > 0 && !rest.is_empty() {
            // What is left cannot hold a row.
            return Err(bad_row(offset, stride, header, visible.len()));
        }
        let base = starts.len();
        starts.resize(base + rows, 0);
        let out = starts.get_mut(base..).unwrap_or_default();
        let (mut kept, mut wrong) = (0usize, false);
        let mut row_at = offset;
        for row in rest.chunks_exact(stride).take(rows) {
            let word = row.first_chunk().map_or(0, |&w| u16::from_le_bytes(w));
            wrong |= stored_len(row) != stride;
            // `kept` trails the row index, so the write is in bounds.
            if let Some(start) = out.get_mut(kept) {
                // Below the 8 MiB a packed pointer can address.
                *start = (row_at + header) as u32;
            }
            kept += usize::from((word & KIND_TOMBSTONE_BIT == 0) & (row_at != hidden));
            row_at += stride;
        }
        if wrong {
            let rows = rest.chunks_exact(stride).map(stored_len);
            let (i, len) = rows
                .enumerate()
                .find(|&(_, len)| len != stride)
                .unwrap_or_default();
            return Err(wrong_length(offset + i * stride, len, stride, true));
        }
        starts.truncate(base + kept);
        self.offset = row_at;
        Ok(rows)
    }

    /// [`Self::gather`] by each row's stored length.
    #[inline]
    fn gather_stored(
        &mut self,
        min: usize,
        hidden: usize,
        walk: usize,
        starts: &mut Vec<u32>,
    ) -> Result<usize> {
        let (visible, header) = (self.visible, self.header);
        let mut offset = self.offset;
        let mut walked = 0usize;
        starts.reserve(walk);
        while walked < walk && offset < visible.len() {
            let Some(&[lo, hi]) = visible.get(offset..).and_then(<[u8]>::first_chunk) else {
                return Err(bad_row(offset, header, header, visible.len()));
            };
            let word = u16::from_le_bytes([lo, hi]);
            let stored = usize::from(word & STORED_LEN_MASK);
            if stored < min {
                return Err(wrong_length(offset, stored, min, false));
            }
            if offset + stored > visible.len() {
                return Err(bad_row(offset, stored, header, visible.len()));
            }
            if word & KIND_TOMBSTONE_BIT == 0 && offset != hidden {
                // Below the 8 MiB a packed pointer can address.
                starts.push((offset + header) as u32);
            }
            walked += 1;
            let row = offset;
            offset += stored;
            if row == hidden {
                break;
            }
        }
        self.offset = offset;
        Ok(walked)
    }
}

/// The stored length in a row's length word (0 for a row too short to
/// hold one).
#[inline]
fn stored_len(row: &[u8]) -> usize {
    row.first_chunk()
        .map_or(0, |&w| usize::from(u16::from_le_bytes(w) & STORED_LEN_MASK))
}

#[cold]
fn wrong_length(offset: usize, len: usize, size: usize, strided: bool) -> EngineError {
    let rule = if strided { "exactly" } else { "at least" };
    EngineError::internal(format!(
        "row at {offset} declares {len} stored bytes; its layout stores {rule} {size}"
    ))
}

impl<'a> Iterator for RowBatchIter<'a> {
    type Item = Result<WalkedRow<'a>>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.offset >= self.visible.len() {
            return None;
        }
        match parse_row(self.visible, self.offset, self.header) {
            Ok((stored, prev, kind, payload)) => {
                let offset = self.offset;
                self.offset += stored;
                Some(Ok((offset, prev, kind, payload)))
            }
            Err(e) => {
                // Fuse: a malformed row makes every later offset suspect.
                self.offset = self.visible.len();
                Some(Err(e))
            }
        }
    }
}

/// The rows of one batch walk, named by the payload starts its header
/// pass found (see [`RowBatchIter::gather`]). The pass proved each row's
/// stored length covers the layout's fixed section, so a row's fixed
/// section is the same-length window at its start. The var section is
/// bounded by the row's stored length, read back from its header.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchRows<'a> {
    bytes: &'a [u8],
    header: usize,
    /// Payload bytes every gathered row holds at least: the layout's null
    /// bitmap and fixed section, as the walk's [`RowStep`] checked.
    fixed_len: usize,
}

impl<'a> RowAccess<'a> for BatchRows<'a> {
    type Row = u32;

    #[inline]
    fn fixed_section(&self, start: u32) -> Option<&'a [u8]> {
        let start = start as usize;
        self.bytes.get(start..start + self.fixed_len)
    }

    #[inline]
    fn payload(&self, start: u32) -> Result<&'a [u8]> {
        let start = start as usize;
        let row = start
            .checked_sub(self.header)
            .ok_or_else(|| corrupt("payload start inside the header"))?;
        let [lo, hi] = fixed(self.bytes, row)?;
        let end = row + usize::from(u16::from_le_bytes([lo, hi]) & STORED_LEN_MASK);
        self.bytes
            .get(start..end)
            .ok_or_else(|| corrupt("payload past its row"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read_back() {
        let b = RowBatch::with_capacity(1024);
        let off1 = b.append_row(RowPtr::NULL, b"hello").unwrap();
        let off2 = b
            .append_row(RowPtr::new(0, off1, ROW_HEADER + 5), b"world!")
            .unwrap();
        assert_eq!(off1, 0);
        assert_eq!(off2, ROW_HEADER + 5);
        let (s1, p1, pay1) = b.row_at(off1).unwrap();
        assert_eq!(
            (s1, p1, pay1),
            (ROW_HEADER + 5, RowPtr::NULL, &b"hello"[..])
        );
        let (_, p2, pay2) = b.row_at(off2).unwrap();
        assert_eq!(pay2, b"world!");
        assert_eq!(p2.offset(), off1);
        assert_eq!(p2.size(), ROW_HEADER + 5);
    }

    #[test]
    fn restore_roundtrip_and_continue_appending() {
        let b = RowBatch::with_capacity(1024);
        let off1 = b.append_row(RowPtr::NULL, b"hello").unwrap();
        b.append_row(RowPtr::new(0, off1, ROW_HEADER + 5), b"world!")
            .unwrap();
        let restored = RowBatch::from_committed_bytes(1024, b.committed_bytes()).unwrap();
        assert_eq!(restored.len(), b.len());
        assert_eq!(restored.capacity(), 1024);
        let (_, _, pay) = restored.row_at(off1).unwrap();
        assert_eq!(pay, b"hello");
        // The restored batch keeps accepting appends after the prefix.
        let off3 = restored.append_row(RowPtr::NULL, b"more").unwrap();
        assert_eq!(off3, b.len());
        assert_eq!(restored.row_at(off3).unwrap().2, b"more");
        // Oversized committed prefixes are corrupt, not a panic.
        assert!(RowBatch::from_committed_bytes(4, b.committed_bytes()).is_err());
    }

    #[test]
    fn fills_up_exactly() {
        let b = RowBatch::with_capacity(2 * (ROW_HEADER + 4));
        assert!(b.append_row(RowPtr::NULL, b"aaaa").is_some());
        assert!(b.append_row(RowPtr::NULL, b"bbbb").is_some());
        assert!(
            b.append_row(RowPtr::NULL, b"").is_none(),
            "full batch rejects appends"
        );
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn sequential_iteration() {
        let b = RowBatch::with_capacity(4096);
        for i in 0..10u8 {
            b.append_row(RowPtr::NULL, &[i; 3]).unwrap();
        }
        let watermark = b.len();
        b.append_row(RowPtr::NULL, &[99; 3]).unwrap();
        let mut it = b.iter_rows(watermark).unwrap();
        let rows: Vec<_> = it.by_ref().take(4).collect::<Result<_>>().unwrap();
        // A walk that stopped early resumes at the offset it reports.
        let rest: Vec<_> = b
            .iter_rows_from(it.offset(), watermark)
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(rest.len(), 6, "row past the watermark is invisible");
        for (i, (_, _, kind, payload)) in rows.iter().chain(&rest).enumerate() {
            assert_eq!((*kind, *payload), (RowKind::Data, &[i as u8; 3][..]));
        }
        assert!(b.iter_rows(b.capacity()).is_err(), "watermark is checked");
    }

    #[test]
    fn read_past_watermark_is_an_error_not_a_panic() {
        let b = RowBatch::with_capacity(64);
        b.append_row(RowPtr::NULL, b"x").unwrap();
        let err = b.row_at(48).unwrap_err();
        assert!(err.to_string().contains("beyond committed"), "got: {err}");
        // A header that straddles the committed boundary.
        let err = b.row_at(2).unwrap_err();
        assert!(err.to_string().contains("beyond committed"), "got: {err}");
        // Offsets near usize::MAX must not wrap around the bounds check.
        assert!(b.row_at(usize::MAX).is_err());
        // Committed reads still succeed afterwards.
        assert_eq!(b.row_at(0).unwrap().2, b"x");
    }

    #[test]
    fn malformed_row_fuses_the_iterator() {
        let b = RowBatch::with_capacity(64);
        // A stored_len below ROW_HEADER would loop forever in a scan;
        // forge one via a raw header-only write.
        let bad_stored = 3u16;
        b.append_row(RowPtr::NULL, b"ok").unwrap();
        let off = b.len();
        // SAFETY: the forged bytes land past the committed watermark in a
        // buffer allocated at full capacity; no reader observes them until
        // the Release store below publishes the new length.
        unsafe {
            let base = b.buf.as_ptr() as *mut u8;
            let dst = base.add(off);
            std::ptr::copy_nonoverlapping(bad_stored.to_le_bytes().as_ptr(), dst, 2);
            std::ptr::copy_nonoverlapping(RowPtr::NULL.raw().to_le_bytes().as_ptr(), dst.add(2), 8);
        }
        b.len.store(off + ROW_HEADER, Ordering::Release);
        let mut it = b.iter_rows(b.len()).unwrap();
        assert!(it.next().unwrap().is_ok(), "first row is fine");
        assert!(it.next().unwrap().is_err(), "forged row surfaces an error");
        assert!(it.next().is_none(), "iterator is fused after the error");
    }

    #[test]
    fn tombstone_kind_roundtrips_through_header_and_restore() {
        let b = RowBatch::with_capacity(1024);
        let off1 = b.append_row(RowPtr::NULL, b"live").unwrap();
        let off2 = b
            .append_row_kind(
                &[RowPtr::new(0, off1, ROW_HEADER + 4)],
                b"dead",
                RowKind::Tombstone,
            )
            .unwrap();
        let (s1, _, k1, p1) = b.row_at_full(off1).unwrap();
        assert_eq!((s1, k1, p1), (ROW_HEADER + 4, RowKind::Data, &b"live"[..]));
        let (s2, prev, k2, p2) = b.row_at_full(off2).unwrap();
        assert_eq!(
            (s2, k2, p2),
            (ROW_HEADER + 4, RowKind::Tombstone, &b"dead"[..])
        );
        assert_eq!(prev.offset(), off1);
        // The kind flag must not leak into the plain decode path: stored
        // sizes and backward pointers are unchanged.
        let (s2b, prevb, p2b) = b.row_at(off2).unwrap();
        assert_eq!((s2b, prevb, p2b), (s2, prev, p2));
        // Checkpoint (raw committed bytes) round-trips the kind bit.
        let restored = RowBatch::from_committed_bytes(1024, b.committed_bytes()).unwrap();
        assert_eq!(restored.row_at_full(off2).unwrap().2, RowKind::Tombstone);
        // Kind-aware iteration sees both rows with their kinds.
        let kinds: Vec<RowKind> = restored
            .iter_rows(restored.len())
            .unwrap()
            .map(|r| r.unwrap().2)
            .collect();
        assert_eq!(kinds, vec![RowKind::Data, RowKind::Tombstone]);
    }

    #[test]
    fn multi_link_rows_carry_one_prev_per_link() {
        let b = RowBatch::with_links(1024, 3);
        assert_eq!(b.header(), row_header(3));
        let first = b
            .append_row_kind(&[RowPtr::NULL; 3], b"one", RowKind::Data)
            .unwrap();
        let p = RowPtr::new(0, first, b.header() + 3);
        let q = RowPtr::new(5, 64, 40);
        let off = b
            .append_row_kind(&[p, RowPtr::NULL, q], b"two!", RowKind::Data)
            .unwrap();
        let (stored, prev, kind, payload) = b.row_at_full(off).unwrap();
        assert_eq!(
            (stored, prev, kind, payload),
            (row_header(3) + 4, p, RowKind::Data, &b"two!"[..])
        );
        let walk = b.chain_batch().unwrap();
        assert_eq!(walk.row(off).unwrap(), (stored, prev, kind, payload));
        assert_eq!(walk.row_link(off, 0).unwrap(), (p, &b"two!"[..]));
        assert_eq!(walk.row_link(off, 1).unwrap(), (RowPtr::NULL, &b"two!"[..]));
        assert_eq!(walk.row_link(off, 2).unwrap(), (q, &b"two!"[..]));
        let err = walk.row_link(off, 3).unwrap_err();
        assert!(err.to_string().contains("link 3"), "got: {err}");
        let payloads: Vec<&[u8]> = b
            .iter_rows(b.len())
            .unwrap()
            .map(|r| r.unwrap().3)
            .collect();
        assert_eq!(payloads, vec![&b"one"[..], &b"two!"[..]]);
        // A single-link batch has exactly the historical framing.
        assert_eq!(RowBatch::with_capacity(64).header(), ROW_HEADER);
        assert_eq!(ROW_HEADER, 10);
    }

    /// Batches keep their index across segment boundaries, and a slot
    /// past the last batch is empty.
    #[test]
    fn batch_list_keeps_every_batch_in_place() {
        let list = BatchList::new();
        assert!(list.last().is_none());
        for i in 0..40usize {
            let batch = Arc::new(RowBatch::with_capacity(64 + i));
            assert_eq!(list.push(batch), i);
        }
        assert_eq!(list.len(), 40);
        for i in 0..40usize {
            assert_eq!(
                list.get(i).map(RowBatch::capacity),
                Some(64 + i),
                "batch {i}"
            );
        }
        assert!(list.get(40).is_none());
        assert_eq!(list.last().map(|(i, b)| (i, b.capacity())), Some((39, 103)));
        let capacities: Vec<usize> = list.iter().map(RowBatch::capacity).collect();
        assert_eq!(capacities, (64..104).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_readers_during_appends() {
        use std::sync::Arc;
        let b = Arc::new(RowBatch::with_capacity(1 << 20));
        // Seed some rows so the reader always observes progress.
        for i in 0..100u64 {
            b.append_row(RowPtr::NULL, &i.to_le_bytes()).unwrap();
        }
        let reader = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                let mut max_seen = 0;
                for _ in 0..300 {
                    let n = b.iter_rows(b.len()).unwrap().count();
                    assert!(n >= max_seen, "committed rows must not vanish");
                    max_seen = n;
                    for row in b.iter_rows(b.len()).unwrap() {
                        let (_, _, _, payload) = row.unwrap();
                        assert_eq!(payload.len(), 8);
                        let v = u64::from_le_bytes(payload.try_into().unwrap());
                        assert!(v < 20_000);
                    }
                }
                max_seen
            })
        };
        for i in 100..20_000u64 {
            if b.append_row(RowPtr::NULL, &i.to_le_bytes()).is_none() {
                break;
            }
        }
        let seen = reader.join().unwrap();
        assert!(seen >= 100);
    }
}
