//! Generation tokens for snapshot-aware copy-on-write.
//!
//! Every I-node is stamped with the generation of the trie root that created
//! it. A snapshot installs a *fresh* generation at the root of both the
//! original and the snapshot; any writer that descends into an I-node whose
//! generation differs from the current root generation must first copy that
//! path into its own generation (lazy copy-on-write), and a GCAS on a
//! stale-generation I-node aborts. Tokens are never reused, so plain integer
//! equality is the analogue of the Scala implementation's reference equality
//! on `Gen` objects.

use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_GEN: AtomicU64 = AtomicU64::new(1);

/// A unique generation token.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Gen(u64);

impl Gen {
    /// Mint a fresh, never-before-seen generation.
    pub(crate) fn fresh() -> Self {
        Gen(NEXT_GEN.fetch_add(1, Ordering::Relaxed))
    }

    /// The token's number.
    pub(crate) fn id(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_are_unique() {
        let a = Gen::fresh();
        let b = Gen::fresh();
        assert_ne!(a, b);
        assert_eq!(a, a);
    }

    #[test]
    #[cfg_attr(miri, ignore = "loop/thread count too heavy for the interpreter")]
    fn generations_are_unique_across_threads() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| (0..1000).map(|_| Gen::fresh().0).collect::<Vec<_>>()))
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
