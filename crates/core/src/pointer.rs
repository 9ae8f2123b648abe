//! Packed 64-bit row pointers.
//!
//! Paper, §2: *"The pointers stored both in the cTrie and in the backward
//! pointer data structure are packed, dense 64-bit numbers, each containing
//! the row batch number, the offset within a row batch, and the size of the
//! previous row indexed on the given key."*
//!
//! Layout (most-significant first):
//!
//! ```text
//! | batch: 31 bits | offset: 23 bits | size: 10 bits |
//! ```
//!
//! * `batch` — row-batch number, up to 2³¹ batches (paper: "2³¹ row
//!   batches").
//! * `offset` — byte offset inside the batch, up to 8 MiB (covers the 4 MiB
//!   default batch with headroom).
//! * `size` — the stored byte size of the row this pointer *points to*
//!   (paper: rows "may have up to 1 KB"), so a reader can slice the row
//!   without a dependent length lookup.
//!
//! The all-zero word is the null pointer: no real row has size 0 (every
//! stored row carries at least its header).

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

/// Bits for the batch number.
pub const BATCH_BITS: u32 = 31;
/// Bits for the in-batch offset.
pub const OFFSET_BITS: u32 = 23;
/// Bits for the row size.
pub const SIZE_BITS: u32 = 10;

/// Maximum addressable batch count.
pub const MAX_BATCHES: usize = 1usize << BATCH_BITS;
/// Maximum batch capacity in bytes (offset range).
pub const MAX_BATCH_SIZE: usize = 1usize << OFFSET_BITS;
/// Maximum stored row size in bytes (size range; 0 is reserved for null).
pub const MAX_ROW_SIZE: usize = (1usize << SIZE_BITS) - 1;

/// A packed (batch, offset, size) row pointer. `RowPtr::NULL` is "no row".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowPtr(u64);

impl RowPtr {
    /// The null pointer (end of a backward-pointer chain).
    pub const NULL: RowPtr = RowPtr(0);

    /// Pack a pointer. Panics (debug) on out-of-range fields; callers
    /// validate via [`crate::config::IndexConfig`].
    #[inline]
    pub fn new(batch: usize, offset: usize, size: usize) -> RowPtr {
        debug_assert!(batch < MAX_BATCHES, "batch {batch} out of range");
        debug_assert!(offset < MAX_BATCH_SIZE, "offset {offset} out of range");
        debug_assert!(size > 0 && size <= MAX_ROW_SIZE, "size {size} out of range");
        RowPtr(
            ((batch as u64) << (OFFSET_BITS + SIZE_BITS))
                | ((offset as u64) << SIZE_BITS)
                | size as u64,
        )
    }

    /// Rebuild from the raw word (e.g. out of a row header).
    #[inline]
    pub fn from_raw(raw: u64) -> RowPtr {
        RowPtr(raw)
    }

    /// The raw 64-bit word.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Whether this is the null pointer.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Row-batch number.
    #[inline]
    pub fn batch(self) -> usize {
        (self.0 >> (OFFSET_BITS + SIZE_BITS)) as usize
    }

    /// Byte offset within the batch.
    #[inline]
    pub fn offset(self) -> usize {
        ((self.0 >> SIZE_BITS) & ((1 << OFFSET_BITS) - 1)) as usize
    }

    /// Stored byte size of the row pointed to.
    #[inline]
    pub fn size(self) -> usize {
        (self.0 & ((1 << SIZE_BITS) - 1)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let p = RowPtr::new(12345, 1 << 20, 777);
        assert_eq!(p.batch(), 12345);
        assert_eq!(p.offset(), 1 << 20);
        assert_eq!(p.size(), 777);
        assert!(!p.is_null());
    }

    #[test]
    fn extremes() {
        let p = RowPtr::new(MAX_BATCHES - 1, MAX_BATCH_SIZE - 1, MAX_ROW_SIZE);
        assert_eq!(p.batch(), MAX_BATCHES - 1);
        assert_eq!(p.offset(), MAX_BATCH_SIZE - 1);
        assert_eq!(p.size(), MAX_ROW_SIZE);
    }

    #[test]
    fn null_pointer() {
        assert!(RowPtr::NULL.is_null());
        assert!(!RowPtr::new(0, 0, 9).is_null());
        assert_eq!(RowPtr::from_raw(0), RowPtr::NULL);
    }

    #[test]
    fn raw_roundtrip() {
        let p = RowPtr::new(7, 42, 100);
        assert_eq!(RowPtr::from_raw(p.raw()), p);
    }

    #[test]
    fn fields_do_not_interfere() {
        // Exhaustive-ish sweep over field boundaries.
        for &batch in &[0usize, 1, MAX_BATCHES - 1] {
            for &offset in &[0usize, 1, 4 << 20, MAX_BATCH_SIZE - 1] {
                for &size in &[1usize, 9, 512, MAX_ROW_SIZE] {
                    let p = RowPtr::new(batch, offset, size);
                    assert_eq!((p.batch(), p.offset(), p.size()), (batch, offset, size));
                }
            }
        }
    }
}
