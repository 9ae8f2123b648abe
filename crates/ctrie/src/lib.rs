//! # idf-ctrie — concurrent hash tries with efficient non-blocking snapshots
//!
//! A Rust implementation of the **cTrie** of Prokopec et al. (*Concurrent
//! Tries with Efficient Non-Blocking Snapshots*, PPoPP 2012) — the index
//! structure used by the Indexed DataFrame (Uta et al., SIGMOD 2019).
//!
//! The trie is a lock-free hash array mapped trie:
//!
//! * **Lock-free reads and writes.** All mutation is CAS-based on
//!   indirection nodes (I-nodes); failed operations retry from the
//!   root. Memory reclamation combines `Arc` reference counting for
//!   structural sharing with [`crossbeam_epoch`] deferral so that readers
//!   can traverse without touching reference counts.
//! * **O(1) snapshots.** [`CTrie::snapshot`] and
//!   [`CTrie::read_only_snapshot`] swap the root via an RDCSS
//!   (restricted double-compare single-swap) descriptor and stamp a fresh
//!   *generation*; both tries then lazily copy-on-write any path a writer
//!   touches. Generation-compare-and-swap (GCAS) guarantees that an update
//!   racing with a snapshot either commits entirely before it or aborts and
//!   retries on the new generation — readers of a snapshot always observe a
//!   point-in-time view.
//! * **Linked values under one key are the caller's business.** The Indexed
//!   DataFrame stores *packed row pointers* as values and threads its own
//!   backward-pointer lists through the row batches; [`CTrie::insert`]
//!   returns the previous value so the caller can link it.
//!
//! Two sibling implementations live here for differential testing and
//! ablation benchmarks:
//!
//! * [`CTrie`] — the lock-free trie with non-blocking snapshots (primary).
//! * [`hamt::Hamt`] — a persistent hash array mapped trie with `Arc`
//!   structural sharing behind a lock; identical observable semantics,
//!   used as the reference model.
//!
//! Both implement the [`SnapshotMap`] trait so the Indexed DataFrame can be
//! instantiated over either.
//!
//! ```
//! use idf_ctrie::CTrie;
//!
//! let trie: CTrie<u64, u64> = CTrie::new();
//! assert_eq!(trie.insert(1, 100), None);
//! assert_eq!(trie.insert(1, 200), Some(100)); // previous value returned
//! let snap = trie.read_only_snapshot();
//! trie.insert(2, 300);
//! assert_eq!(snap.lookup(&2), None); // snapshot is a point-in-time view
//! assert_eq!(trie.lookup(&2), Some(300));
//! ```

#![deny(missing_docs)]
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

mod gen;
pub mod hamt;
pub mod hash;
mod iter;
mod node;
mod trie;

pub use hamt::Hamt;
pub use hash::{FxBuildHasher, FxHasher};
pub use iter::Iter;
pub use trie::CTrie;

/// A concurrent map with point-in-time snapshots.
///
/// Abstracts over the two index implementations ([`CTrie`], [`Hamt`]) so the
/// Indexed DataFrame partition can be instantiated over either; the paper's
/// system uses the cTrie, and the HAMT serves as the differential-testing
/// reference and an ablation baseline.
pub trait SnapshotMap<K, V>: Send + Sync {
    /// Insert `key → value`, returning the previously bound value if any.
    fn insert(&self, key: K, value: V) -> Option<V>;
    /// Look up the value bound to `key`.
    fn lookup(&self, key: &K) -> Option<V>;
    /// Remove the binding for `key`, returning the removed value if any.
    fn remove(&self, key: &K) -> Option<V>;
    /// Take a read-only point-in-time snapshot.
    fn snapshot_reader(&self) -> Box<dyn SnapshotReader<K, V>>;
    /// Exact number of bindings (O(n)).
    fn count(&self) -> usize;
}

/// A read-only point-in-time view produced by [`SnapshotMap::snapshot_reader`].
pub trait SnapshotReader<K, V>: Send + Sync {
    /// Look up the value bound to `key` in the snapshot.
    fn lookup(&self, key: &K) -> Option<V>;
    /// Exact number of bindings in the snapshot (O(n)).
    fn count(&self) -> usize;
    /// All key/value pairs in the snapshot (unordered).
    fn entries(&self) -> Vec<(K, V)>;
}
