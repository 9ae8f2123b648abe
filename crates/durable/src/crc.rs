//! Hand-rolled CRC-32 (IEEE 802.3 polynomial, the zlib/gzip variant) —
//! the workspace builds fully offline, so no checksum crate is pulled in.
//!
//! Two kernels compute the same function, so WAL, snapshot and wire bytes
//! do not depend on which one ran:
//!
//! - **Carry-less multiply folding** (x86_64 with PCLMULQDQ, checked at
//!   run time; std caches the CPUID probe, so the choice is made once).
//!   Four 128-bit lanes each fold 16 input bytes per step, the lanes fold
//!   into one, and a Barrett reduction takes the last 64 bits to the
//!   32-bit remainder — Gopal et al., *Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ* (Intel, 2009). It takes inputs of
//!   [`FOLD_MIN`] bytes or more; the tail under 16 bytes goes to the
//!   sliced kernel.
//! - **Slicing-by-8**: eight tables, built at compile time, fold eight
//!   input bytes per step with eight independent lookups instead of a
//!   chain of eight dependent ones. It serves short inputs (most wire
//!   frames and WAL records of a few rows), every tail, and every other
//!   architecture.
//!
//! Over 37 MB on a 2-vCPU x86_64 VM the folding kernel ran at 5.3–5.9
//! GB/s and slicing-by-8 at 1.1 GB/s; a checkpoint checksums every sealed
//! batch it writes, so that difference is most of a checkpoint's CRC
//! time. [`crc32_update`] continues a CRC over the next piece, which is
//! how a snapshot checksums its body straight from the batches' bytes.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Inputs at least this long take the folding kernel where the CPU has
/// one: one full round of its four 16-byte lanes. It wins from there on;
/// per call on a 2-vCPU VM it took 13 ns at 64 bytes and 18 ns at 128
/// against 43 and 89 ns sliced.
pub const FOLD_MIN: usize = 64;

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// The CRC32 of `a ++ data`, given `crc == crc32(a)`: a CRC built up over
/// several pieces equals the CRC of their concatenation.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    !update(!crc, data)
}

/// Advance the raw (uninverted) register `state` over `data`.
fn update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN && clmul::available() {
        // SAFETY: `available` saw PCLMULQDQ on this CPU.
        return unsafe { clmul::update(state, data) };
    }
    sliced(state, data)
}

/// The slicing-by-8 kernel over the raw register.
fn sliced(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in tail {
        state = (state >> 8) ^ t[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

/// The carry-less multiply folding kernel (see the module docs).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    // Bit-reflected constants for the IEEE polynomial P(x), from the
    // paper's appendix. K1/K2 fold a lane across 64 bytes (x^(512±32) mod
    // P), K3/K4 across 16 bytes (x^(128±32) mod P), K5 folds 96 bits into
    // 64 (x^64 mod P); P is P(x) itself and MU is floor(x^64 / P(x)).
    const K1: i64 = 0x01_5444_2BD4;
    const K2: i64 = 0x01_C6E4_1596;
    const K3: i64 = 0x01_7519_97D0;
    const K4: i64 = 0x00_CCAA_009E;
    const K5: i64 = 0x01_63CD_6124;
    const P: i64 = 0x01_DB71_0641;
    const MU: i64 = 0x01_F701_1641;

    /// Whether this CPU can run [`update`]. The first call runs CPUID;
    /// std caches the answer, so later calls are one relaxed load.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
    }

    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and an unaligned load
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `x` carried 128 bits forward (`k` holds the two constants for
    /// that distance), plus the next block.
    ///
    /// # Safety
    /// The CPU must have PCLMULQDQ (see [`available`]).
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advance the raw register `state` over `data`. Inputs under 64
    /// bytes have no full round of lanes and go to the sliced kernel, as
    /// does every tail under 16 bytes.
    ///
    /// # Safety
    /// The CPU must have PCLMULQDQ (see [`available`]).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(state: u32, data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<16>();
        let (rounds, singles) = blocks.as_chunks::<4>();
        let Some((first, rounds)) = rounds.split_first() else {
            return super::sliced(state, data);
        };
        let mut lanes = first.map(|b| load(&b));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for round in rounds {
            for (lane, block) in lanes.iter_mut().zip(round) {
                *lane = fold(*lane, k1k2, load(block));
            }
        }
        // Four lanes into one, then the 16-byte blocks left over.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(lanes[0], k3k4, lanes[1]);
        x = fold(x, k3k4, lanes[2]);
        x = fold(x, k3k4, lanes[3]);
        for block in singles {
            x = fold(x, k3k4, load(block));
        }
        // 128 bits to 64, then 64 to 32 by Barrett reduction.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
        let k5 = _mm_set_epi64x(0, K5);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
            _mm_srli_si128(x, 4),
        );
        let pmu = _mm_set_epi64x(MU, P);
        let mut t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), pmu, 0x00);
        x = _mm_xor_si128(x, t);
        let folded = _mm_cvtsi128_si32(_mm_srli_si128(x, 4)) as u32;
        super::sliced(folded, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise loop both kernels replace.
    fn bytewise(data: &[u8]) -> u32 {
        let t = &TABLES[0];
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ t[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// A fixed xorshift stream: the tests need varied bytes, not a crate.
    fn noise(n: usize, mut state: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect()
    }

    /// A named CRC32 of a whole input.
    type Kernel = (&'static str, fn(&[u8]) -> u32);

    /// Every kernel this host can run, called directly (not through the
    /// length dispatch), each as a finished CRC.
    fn kernels() -> Vec<Kernel> {
        let mut out: Vec<Kernel> = vec![("sliced", |d| !sliced(!0, d)), ("dispatch", crc32)];
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            // SAFETY: `available` saw PCLMULQDQ on this CPU.
            out.push(("clmul", |d| !unsafe { clmul::update(!0, d) }));
        }
        out
    }

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE CRC32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
        // Long enough for the folding kernel where the CPU has it.
        assert_eq!(crc32(&[0u8; 4096]), bytewise(&[0u8; 4096]));
    }

    /// On an x86_64 host both kernels must run, or the differential
    /// below checks only one of them.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_64_hosts_run_the_folding_kernel() {
        assert!(clmul::available(), "CPU without PCLMULQDQ");
        assert_eq!(kernels().len(), 3);
    }

    /// Every length 0–1024 at every start offset 0–15, then random longer
    /// lengths: every kernel equals the bytewise loop, so the lane rounds,
    /// the 16-byte blocks and the sliced tail each meet every alignment
    /// and remainder.
    #[test]
    fn kernels_match_bytewise() {
        let buf = noise(70_000, 0x9E37_79B9_7F4A_7C15);
        let mut cases: Vec<(usize, usize)> = (0..=1024)
            .flat_map(|len| (0..16).map(move |start| (start, len)))
            .collect();
        let picks = noise(64 * 3, 0x0123_4567_89AB_CDEF);
        for p in picks.chunks_exact(3) {
            let len = 1025 + (usize::from(p[0]) << 8 | usize::from(p[1])) % 65_000;
            cases.push((usize::from(p[2]) % 16, len));
        }
        for (name, kernel) in kernels() {
            for &(start, len) in &cases {
                let data = &buf[start..start + len];
                assert_eq!(kernel(data), bytewise(data), "{name}: len {len} at {start}");
            }
        }
    }

    /// A CRC continued over the rest of the input, split at every point,
    /// equals the CRC of the whole; so does one built over three pieces.
    #[test]
    fn update_continues_across_every_split() {
        let data = noise(700, 0xDEAD_BEEF_CAFE_F00D);
        let whole = bytewise(&data);
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_update(crc32(a), b), whole, "split at {cut}");
            let (b1, b2) = b.split_at(b.len() / 2);
            let three = crc32_update(crc32_update(crc32(a), b1), b2);
            assert_eq!(three, whole, "split at {cut} and halfway after it");
        }
        assert_eq!(crc32_update(0, &data), whole);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = noise(300, 7);
        for (name, kernel) in kernels() {
            let base = kernel(&data);
            for byte in 0..data.len() {
                for bit in 0..8 {
                    let mut flipped = data.clone();
                    flipped[byte] ^= 1 << bit;
                    assert_ne!(kernel(&flipped), base, "{name}: flip at {byte}:{bit}");
                }
            }
        }
    }
}
