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
//! storage half of the paper's multi-version concurrency (the index half is
//! the cTrie snapshot).
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

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

use idf_engine::error::{EngineError, Result};

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
        // idf-lint: allow(atomics-audit) -- single writer re-reads its own store (append lock held); readers see it via the Release publish below
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
    /// `(stored_size, prev, kind, payload)` — the random-access read of a
    /// chain walk.
    ///
    /// # Errors
    /// Fails when `offset` does not point at a committed, well-formed row —
    /// a corrupt pointer must surface as a query error, not a panic that
    /// poisons the whole process.
    pub fn row_at_full(&self, offset: usize) -> Result<StoredRow<'_>> {
        crate::failpoints::check(crate::failpoints::BATCH_READ)?;
        parse_row(self.committed_bytes(), offset, self.header)
    }

    /// Decode the stored row at `offset` as a walk along link `link` sees
    /// it: `(that link's prev, payload)` — the random-access read of a
    /// secondary-index chain walk.
    ///
    /// # Errors
    /// Fails when `offset` does not point at a committed, well-formed row
    /// or the batch's rows carry no such link.
    pub fn row_at_link(&self, offset: usize, link: usize) -> Result<(RowPtr, &[u8])> {
        crate::failpoints::check(crate::failpoints::BATCH_READ)?;
        let committed = self.committed_bytes();
        let (_, _, _, payload) = parse_row(committed, offset, self.header)?;
        let at = 2 + 8 * link;
        // The parse validated the whole header, so only a link the rows do
        // not carry can miss here.
        let word = committed
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

/// Sequential row iterator over one batch (see [`RowBatch::iter_rows`]):
/// one tight header walk over the committed slice.
pub struct RowBatchIter<'a> {
    /// The committed bytes below the snapshot watermark.
    visible: &'a [u8],
    offset: usize,
    /// Framing bytes per row (see [`RowBatch::header`]).
    header: usize,
}

impl<'a> RowBatchIter<'a> {
    /// Byte offset of the next row — where [`RowBatch::iter_rows_from`]
    /// resumes a walk that stopped early.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The next row. `SINGLE_LINK` parses with the one-link header fixed at
    /// compile time — the scan of a single-index table then runs the loop
    /// it ran before rows could carry more links, which a header read from
    /// the iterator measurably slows (a zero-column scan of 233 716 `knows`
    /// rows took 1.40 ms instead of 0.90 ms on a 2-vCPU VM). Only valid
    /// when the batch's rows carry one link.
    #[inline]
    pub(crate) fn step<const SINGLE_LINK: bool>(&mut self) -> Option<Result<WalkedRow<'a>>> {
        if self.offset >= self.visible.len() {
            return None;
        }
        let header = if SINGLE_LINK { ROW_HEADER } else { self.header };
        match parse_row(self.visible, self.offset, header) {
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

impl<'a> Iterator for RowBatchIter<'a> {
    type Item = Result<WalkedRow<'a>>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.step::<false>()
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
        assert_eq!(b.row_at_link(off, 0).unwrap(), (p, &b"two!"[..]));
        assert_eq!(b.row_at_link(off, 1).unwrap(), (RowPtr::NULL, &b"two!"[..]));
        assert_eq!(b.row_at_link(off, 2).unwrap(), (q, &b"two!"[..]));
        let err = b.row_at_link(off, 3).unwrap_err();
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
