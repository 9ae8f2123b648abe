//! A packed bitmap used for column validity (null tracking) and filter
//! selection vectors.

/// A fixed-length bitmap backed by 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zeros bitmap of length `len`.
    pub fn zeros(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-ones bitmap of length `len`.
    pub fn ones(len: usize) -> Self {
        let mut b = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.clear_trailing();
        b
    }

    /// Build from a boolean slice.
    pub fn from_bools(bools: &[bool]) -> Self {
        bools.iter().copied().collect()
    }

    /// The bits as booleans, in order.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    fn clear_trailing(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Get bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        let w = &mut self.words[i / 64];
        if v {
            *w |= 1 << (i % 64);
        } else {
            *w &= !(1 << (i % 64));
        }
    }

    /// Append a bit.
    pub fn push(&mut self, v: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        if v {
            self.set(self.len - 1, true);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of set bits, ascending.
    pub fn set_indices(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (wi, &w) in self.words.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                out.push((wi * 64 + bit) as u32);
                w &= w - 1;
            }
        }
        out
    }

    /// Bitwise AND with another bitmap of the same length.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// Bitwise OR with another bitmap of the same length.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a | b)
            .collect();
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Bitmap {
        let mut b = Bitmap {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        b.clear_trailing();
        b
    }

    /// Gather bits at `indices` into a new bitmap.
    pub fn take(&self, indices: &[u32]) -> Bitmap {
        let mut b = Bitmap::zeros(indices.len());
        for (out, &i) in indices.iter().enumerate() {
            if self.get(i as usize) {
                b.set(out, true);
            }
        }
        b
    }
}

/// Packs the bits a word at a time — how comparison kernels produce
/// their result without an intermediate `Vec<bool>`.
impl FromIterator<bool> for Bitmap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut words = Vec::with_capacity(iter.size_hint().0.div_ceil(64));
        let (mut word, mut filled, mut len) = (0u64, 0u32, 0usize);
        for bit in iter {
            word |= u64::from(bit) << filled;
            filled += 1;
            if filled == 64 {
                words.push(word);
                len += 64;
                (word, filled) = (0, 0);
            }
        }
        if filled > 0 {
            words.push(word);
            len += filled as usize;
        }
        Bitmap { words, len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bitmap::zeros(130);
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(63) && !b.get(128));
        assert_eq!(b.count_ones(), 3);
        b.set(64, false);
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn ones_has_clean_tail() {
        let b = Bitmap::ones(70);
        assert_eq!(b.count_ones(), 70);
        assert_eq!(b.not().count_ones(), 0);
    }

    #[test]
    fn push_grows() {
        let mut b = Bitmap::zeros(0);
        for i in 0..200 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 200);
        assert_eq!(b.count_ones(), (0..200).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn collects_bits_across_word_boundaries() {
        for len in [0usize, 1, 63, 64, 65, 128, 200] {
            let bools: Vec<bool> = (0..len).map(|i| i % 3 == 0 || i % 7 == 0).collect();
            let b = Bitmap::from_bools(&bools);
            assert_eq!(b.len(), len);
            assert_eq!(b.to_bools(), bools);
            assert_eq!(b.count_ones(), bools.iter().filter(|&&v| v).count());
            // The tail stays clean, so `not` and `count_ones` stay exact.
            assert_eq!(b.not().count_ones(), len - b.count_ones());
        }
    }

    #[test]
    fn set_indices_ascending() {
        let b = Bitmap::from_bools(&[true, false, false, true, true]);
        assert_eq!(b.set_indices(), vec![0, 3, 4]);
    }

    #[test]
    fn and_or_not() {
        let a = Bitmap::from_bools(&[true, true, false, false]);
        let b = Bitmap::from_bools(&[true, false, true, false]);
        assert_eq!(a.and(&b).set_indices(), vec![0]);
        assert_eq!(a.or(&b).set_indices(), vec![0, 1, 2]);
        assert_eq!(a.not().set_indices(), vec![2, 3]);
    }

    #[test]
    fn take_gathers_bits() {
        let a = Bitmap::from_bools(&[true, false, true]);
        assert_eq!(a.take(&[2, 1]).set_indices(), vec![0]);
    }
}
