//! Sharded monotone counters and signed gauges.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Number of counter shards. Power of two so the thread slot maps with a
/// mask. 16 covers the worker-thread counts this engine spawns (one per
/// partition, default ≤ CPUs) without making `get()` scans expensive.
const SHARDS: usize = 16;

/// One cache line per shard so writers on different cores never
/// false-share.
#[repr(align(64))]
struct Shard(AtomicU64);

/// Index of the calling thread's shard: threads are assigned slots
/// round-robin on first use, so concurrent writers spread across shards
/// instead of contending on one line.
#[inline]
fn shard_index() -> usize {
    use std::cell::Cell;
    thread_local! {
        static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SLOT.with(|slot| {
        let mut s = slot.get();
        if s == usize::MAX {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            s = NEXT.fetch_add(1, Ordering::Relaxed);
            slot.set(s);
        }
        s & (SHARDS - 1)
    })
}

/// Monotonically increasing counter, sharded across cache-padded atomics
/// so hot-path increments from many threads stay uncontended. Totals are
/// exact: `get()` sums all shards. Zero-sized with `obs` off.
pub struct Counter {
    #[cfg(feature = "obs")]
    shards: [Shard; SHARDS],
}

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Self {
        Counter {
            #[cfg(feature = "obs")]
            shards: [const { Shard(AtomicU64::new(0)) }; SHARDS],
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(feature = "obs")]
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Exact total across all shards.
    pub fn get(&self) -> u64 {
        #[cfg(feature = "obs")]
        {
            self.shards
                .iter()
                .map(|s| s.0.load(Ordering::Relaxed))
                .sum()
        }
        #[cfg(not(feature = "obs"))]
        {
            0
        }
    }

    /// Reset to zero (test support; racing writers may land on either
    /// side of the reset).
    pub fn reset(&self) {
        #[cfg(feature = "obs")]
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// Signed level gauge (single atomic — gauges are not hot-path).
/// Zero-sized with `obs` off.
pub struct Gauge {
    #[cfg(feature = "obs")]
    value: AtomicI64,
}

impl Gauge {
    /// New gauge at zero.
    pub const fn new() -> Self {
        Gauge {
            #[cfg(feature = "obs")]
            value: AtomicI64::new(0),
        }
    }

    /// Set the current level.
    #[inline]
    pub fn set(&self, v: i64) {
        #[cfg(feature = "obs")]
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n` to the level.
    #[inline]
    pub fn add(&self, n: i64) {
        #[cfg(feature = "obs")]
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n` from the level.
    #[inline]
    pub fn sub(&self, n: i64) {
        #[cfg(feature = "obs")]
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raise the level to `v` if `v` is higher (high-water mark).
    #[inline]
    pub fn set_max(&self, v: i64) {
        #[cfg(feature = "obs")]
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        #[cfg(feature = "obs")]
        {
            self.value.load(Ordering::Relaxed)
        }
        #[cfg(not(feature = "obs"))]
        {
            0
        }
    }

    /// Reset to zero (test support).
    pub fn reset(&self) {
        self.set(0);
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;

    #[test]
    fn counter_totals_are_exact() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_levels_and_high_water() {
        let g = Gauge::new();
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.set_max(5);
        assert_eq!(g.get(), 7);
        g.set_max(9);
        assert_eq!(g.get(), 9);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }
}
