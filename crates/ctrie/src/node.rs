//! Node types of the concurrent trie and the ownership protocol that makes
//! lock-free reclamation safe without a tracing garbage collector.
//!
//! # Ownership protocol
//!
//! The Scala cTrie leans on the JVM garbage collector: nodes are shared
//! arbitrarily between a trie and its snapshots, and replaced nodes simply
//! become unreachable. Here we combine two mechanisms:
//!
//! * **`Arc` reference counting** for *structural sharing*: C-node branch
//!   arrays hold `Arc<INode>` / `Arc<SNode>`, so a snapshot and its parent
//!   can share arbitrary subtrees.
//! * **Epoch-based deferral** (`crossbeam_epoch`) for *safe publication*:
//!   atomic cells (`INode::main`, `MainNode::prev`, the trie root) store
//!   raw pointers obtained from [`Arc::into_raw`]. Each non-null cell owns
//!   exactly **one** strong count of its pointee. Readers traverse inside an
//!   epoch guard and never touch reference counts. When a CAS disconnects a
//!   pointer, the count it carried is released with [`Guard::defer`], i.e.
//!   only after every reader that could still observe it has unpinned.
//!
//! The invariant to keep in mind when reading the CAS code in
//! [`crate::trie`]: *a strong count is owned by whichever cell or local
//! variable currently holds the pointer; transferring a pointer transfers
//! the count; duplicating a pointer requires [`Arc::increment_strong_count`];
//! abandoning a published pointer requires a deferred decrement.*

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crossbeam_epoch::{Atomic, Guard, Shared};

use crate::gen::Gen;

/// Bits consumed per trie level.
pub(crate) const W: u32 = 5;
/// Fan-out of a C-node (2^W).
pub(crate) const BRANCH_FACTOR: usize = 1 << W;
/// Mask extracting one level's worth of hash bits.
pub(crate) const LEVEL_MASK: u64 = (BRANCH_FACTOR - 1) as u64;
/// Total hash bits; beyond this depth, collisions go to L-nodes.
pub(crate) const HASH_BITS: u32 = 64;

/// `MainNode::prev` tag: proposed update, not yet committed.
pub(crate) const PREV_PENDING: usize = 0;
/// `MainNode::prev` tag: update lost the generation race; must roll back.
pub(crate) const PREV_FAILED: usize = 1;

/// Root-cell tag: the root points at an `INode`.
pub(crate) const ROOT_INODE: usize = 0;
/// Root-cell tag: the root points at an RDCSS `Descriptor`.
pub(crate) const ROOT_DESC: usize = 1;

/// A raw pointer that may be sent to another thread for deferred dropping.
pub(crate) struct SendPtr<T>(*const T);
// SAFETY: the pointee is only ever dropped through `Arc::from_raw`, and the
// callers bound their `T: Send + Sync`.
unsafe impl<T> Send for SendPtr<T> {}

impl<T> SendPtr<T> {
    pub(crate) fn new(p: *const T) -> Self {
        SendPtr(p)
    }

    /// Consume the wrapper (method call, so closures capture the whole
    /// struct rather than the non-`Send` field).
    pub(crate) fn into_raw(self) -> *const T {
        self.0
    }
}

/// Move an `Arc` into a raw `Shared` pointer, transferring its strong count
/// to the caller's chosen cell.
pub(crate) fn arc_into_shared<'g, T>(a: Arc<T>) -> Shared<'g, T> {
    Shared::from(Arc::into_raw(a))
}

/// Take back ownership of the strong count carried by `s`.
///
/// # Safety
/// `s` must carry exactly one strong count that the caller owns, and must
/// have originated from [`arc_into_shared`] (possibly with a tag).
pub(crate) unsafe fn arc_from_shared<T>(s: Shared<'_, T>) -> Arc<T> {
    Arc::from_raw(s.with_tag(0).as_raw())
}

/// Clone a new `Arc` out of a borrowed pointer without consuming its count.
///
/// # Safety
/// `s` must point at a live `Arc`-managed allocation (guaranteed while the
/// caller holds the epoch guard under which `s` was loaded).
pub(crate) unsafe fn arc_clone_from_shared<T>(s: Shared<'_, T>) -> Arc<T> {
    let raw = s.with_tag(0).as_raw();
    Arc::increment_strong_count(raw);
    Arc::from_raw(raw)
}

/// Release one strong count of `s` once all current readers have unpinned.
///
/// # Safety
/// The caller must own the count being released, and no new readers may be
/// able to acquire the pointer (it must already be disconnected).
pub(crate) unsafe fn defer_drop_arc<T: Send + Sync + 'static>(g: &Guard, s: Shared<'_, T>) {
    let p = SendPtr::new(s.with_tag(0).as_raw());
    g.defer(move || drop(Arc::from_raw(p.into_raw())));
}

/// A singleton node: one key/value binding plus its cached hash.
pub(crate) struct SNode<K, V> {
    pub(crate) hash: u64,
    pub(crate) key: K,
    pub(crate) value: V,
}

impl<K, V> SNode<K, V> {
    pub(crate) fn new(hash: u64, key: K, value: V) -> Self {
        SNode { hash, key, value }
    }
}

/// A branch of a C-node: either another level of the trie behind an
/// indirection node, or a single binding.
pub(crate) enum Branch<K, V> {
    I(Arc<INode<K, V>>),
    S(Arc<SNode<K, V>>),
}

impl<K, V> Clone for Branch<K, V> {
    fn clone(&self) -> Self {
        match self {
            Branch::I(i) => Branch::I(Arc::clone(i)),
            Branch::S(s) => Branch::S(Arc::clone(s)),
        }
    }
}

/// An indirection node. I-nodes are the only mutable cells in the trie:
/// every update is a CAS (via GCAS) on `main`. The `gen` stamp is compared
/// against the root generation to implement snapshot copy-on-write.
pub(crate) struct INode<K, V> {
    pub(crate) gen: Gen,
    /// Owns one strong count of the current main node. Never null.
    pub(crate) main: Atomic<MainNode<K, V>>,
}

impl<K, V> INode<K, V> {
    /// Create an I-node whose cell takes ownership of `main`'s count.
    pub(crate) fn new(main: Arc<MainNode<K, V>>, gen: Gen) -> Self {
        let cell = Atomic::null();
        // Relaxed: the cell is unpublished here; the parent's Release CAS publishes it.
        cell.store(arc_into_shared(main), Ordering::Relaxed);
        INode { gen, main: cell }
    }
}

impl<K, V> Drop for INode<K, V> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` proves no concurrent access; the cell owns one
        // count of its pointee.
        unsafe {
            let p = self
                .main
                .load(Ordering::Relaxed, crossbeam_epoch::unprotected());
            if !p.is_null() {
                drop(Arc::from_raw(p.as_raw()));
            }
        }
    }
}

/// An array node holding up to [`BRANCH_FACTOR`] branches, compressed with a
/// bitmap. Immutable: all "updates" build a copy.
pub(crate) struct CNode<K, V> {
    pub(crate) bitmap: u32,
    pub(crate) array: Vec<Branch<K, V>>,
    pub(crate) gen: Gen,
}

impl<K, V> CNode<K, V> {
    /// Locate `hash`'s slot at `level`: returns `(flag, pos)` where `flag`
    /// is the bitmap bit and `pos` the compressed array position.
    #[inline]
    pub(crate) fn flag_pos(hash: u64, level: u32, bitmap: u32) -> (u32, usize) {
        let idx = ((hash >> level) & LEVEL_MASK) as u32;
        let flag = 1u32 << idx;
        let pos = (bitmap & flag.wrapping_sub(1)).count_ones() as usize;
        (flag, pos)
    }

    /// Copy with the branch at `pos` replaced.
    pub(crate) fn updated(&self, pos: usize, branch: Branch<K, V>, gen: Gen) -> CNode<K, V> {
        let mut array = self.array.clone();
        array[pos] = branch;
        CNode {
            bitmap: self.bitmap,
            array,
            gen,
        }
    }

    /// Copy with a new branch spliced in at `pos` under bitmap bit `flag`.
    pub(crate) fn inserted(
        &self,
        pos: usize,
        flag: u32,
        branch: Branch<K, V>,
        gen: Gen,
    ) -> CNode<K, V> {
        let mut array = Vec::with_capacity(self.array.len() + 1);
        array.extend_from_slice(&self.array[..pos]);
        array.push(branch);
        array.extend_from_slice(&self.array[pos..]);
        CNode {
            bitmap: self.bitmap | flag,
            array,
            gen,
        }
    }

    /// Copy with the branch at `pos` removed and bitmap bit `flag` cleared.
    pub(crate) fn removed(&self, pos: usize, flag: u32, gen: Gen) -> CNode<K, V> {
        let mut array = Vec::with_capacity(self.array.len() - 1);
        array.extend_from_slice(&self.array[..pos]);
        array.extend_from_slice(&self.array[pos + 1..]);
        CNode {
            bitmap: self.bitmap & !flag,
            array,
            gen,
        }
    }
}

/// A list node: bindings whose full 64-bit hashes collide. Always holds at
/// least two entries; a removal leaving one entry entombs it instead.
pub(crate) struct LNode<K, V> {
    pub(crate) entries: Vec<Arc<SNode<K, V>>>,
}

impl<K: Eq, V> LNode<K, V> {
    pub(crate) fn get<Q>(&self, key: &Q) -> Option<&Arc<SNode<K, V>>>
    where
        K: std::borrow::Borrow<Q>,
        Q: ?Sized + Eq,
    {
        self.entries.iter().find(|sn| sn.key.borrow() == key)
    }

    /// Copy with `key` bound to `sn` (replacing any existing binding).
    pub(crate) fn inserted(&self, sn: Arc<SNode<K, V>>) -> LNode<K, V> {
        let mut entries: Vec<_> = self
            .entries
            .iter()
            .filter(|e| e.key != sn.key)
            .cloned()
            .collect();
        entries.push(sn);
        LNode { entries }
    }

    /// Copy with `key` removed.
    pub(crate) fn removed(&self, key: &K) -> LNode<K, V> {
        LNode {
            entries: self
                .entries
                .iter()
                .filter(|e| e.key != *key)
                .cloned()
                .collect(),
        }
    }
}

/// The payload of a main node.
pub(crate) enum MainKind<K, V> {
    /// Branching node.
    C(CNode<K, V>),
    /// Tomb: a singleton awaiting contraction into its parent.
    T(Arc<SNode<K, V>>),
    /// Hash-collision list.
    L(LNode<K, V>),
}

/// A main node: the value of an I-node's cell, plus the GCAS `prev` field.
///
/// `prev` states:
/// * null — this main node is **committed**;
/// * tag [`PREV_PENDING`] — proposed over the pointed-to old main node;
/// * tag [`PREV_FAILED`] — the proposal lost a generation race and the
///   I-node must be rolled back to the pointed-to old main node.
///
/// When non-null, the `prev` cell owns one strong count of the old main
/// node, released by this node's `Drop`.
pub(crate) struct MainNode<K, V> {
    pub(crate) kind: MainKind<K, V>,
    pub(crate) prev: Atomic<MainNode<K, V>>,
}

impl<K, V> MainNode<K, V> {
    pub(crate) fn from_kind(kind: MainKind<K, V>) -> Arc<Self> {
        Arc::new(MainNode {
            kind,
            prev: Atomic::null(),
        })
    }

    pub(crate) fn cnode(c: CNode<K, V>) -> Arc<Self> {
        Self::from_kind(MainKind::C(c))
    }

    pub(crate) fn tomb(sn: Arc<SNode<K, V>>) -> Arc<Self> {
        Self::from_kind(MainKind::T(sn))
    }

    pub(crate) fn lnode(l: LNode<K, V>) -> Arc<Self> {
        Self::from_kind(MainKind::L(l))
    }
}

impl<K, V> Drop for MainNode<K, V> {
    fn drop(&mut self) {
        // SAFETY: `&mut self`; a non-null prev cell owns one count.
        unsafe {
            let p = self
                .prev
                .load(Ordering::Relaxed, crossbeam_epoch::unprotected());
            if !p.is_null() {
                drop(Arc::from_raw(p.with_tag(0).as_raw()));
            }
        }
    }
}

/// Build the main node for two colliding singletons below `level`.
///
/// Recursively descends while the two hashes agree on each level's bits;
/// once the hash is exhausted the pair becomes an L-node.
pub(crate) fn dual<K, V>(
    x: Arc<SNode<K, V>>,
    y: Arc<SNode<K, V>>,
    level: u32,
    gen: Gen,
) -> Arc<MainNode<K, V>> {
    if level >= HASH_BITS {
        return MainNode::lnode(LNode {
            entries: vec![x, y],
        });
    }
    let xi = (x.hash >> level) & LEVEL_MASK;
    let yi = (y.hash >> level) & LEVEL_MASK;
    if xi != yi {
        let bitmap = (1u32 << xi) | (1u32 << yi);
        let array = if xi < yi {
            vec![Branch::S(x), Branch::S(y)]
        } else {
            vec![Branch::S(y), Branch::S(x)]
        };
        MainNode::cnode(CNode { bitmap, array, gen })
    } else {
        let inner = dual(x, y, level + W, gen);
        let child = Arc::new(INode::new(inner, gen));
        MainNode::cnode(CNode {
            bitmap: 1u32 << xi,
            array: vec![Branch::I(child)],
            gen,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_pos_orders_by_bitmap_rank() {
        // bitmap with bits 1 and 7 set; a hash hitting index 4 should have
        // pos 1 (one set bit below it).
        let bitmap = (1u32 << 1) | (1u32 << 7);
        let hash = 4u64; // level 0 index = 4
        let (flag, pos) = CNode::<u64, u64>::flag_pos(hash, 0, bitmap);
        assert_eq!(flag, 1 << 4);
        assert_eq!(pos, 1);
    }

    #[test]
    fn flag_pos_uses_level_shift() {
        let hash = 0b0_00011_00001u64; // level 0 idx 1, level 5 idx 3
        let (flag0, _) = CNode::<u64, u64>::flag_pos(hash, 0, 0);
        let (flag5, _) = CNode::<u64, u64>::flag_pos(hash, 5, 0);
        assert_eq!(flag0, 1 << 1);
        assert_eq!(flag5, 1 << 3);
    }

    #[test]
    fn cnode_insert_remove_roundtrip() {
        let gen = Gen::fresh();
        let sn1 = Arc::new(SNode::new(1, 1u64, 10u64));
        let sn2 = Arc::new(SNode::new(2, 2u64, 20u64));
        let c0 = CNode {
            bitmap: 1 << 1,
            array: vec![Branch::S(sn1)],
            gen,
        };
        let c1 = c0.inserted(1, 1 << 2, Branch::S(sn2), gen);
        assert_eq!(c1.array.len(), 2);
        assert_eq!(c1.bitmap, (1 << 1) | (1 << 2));
        let c2 = c1.removed(0, 1 << 1, gen);
        assert_eq!(c2.array.len(), 1);
        assert_eq!(c2.bitmap, 1 << 2);
        match &c2.array[0] {
            Branch::S(s) => assert_eq!(s.value, 20),
            Branch::I(_) => panic!("expected singleton"),
        }
    }

    #[test]
    fn dual_splits_on_first_differing_level() {
        let gen = Gen::fresh();
        let a = Arc::new(SNode::new(0b00001, 1u64, 1u64));
        let b = Arc::new(SNode::new(0b00010, 2u64, 2u64));
        let m = dual(a, b, 0, gen);
        match &m.kind {
            MainKind::C(c) => assert_eq!(c.array.len(), 2),
            _ => panic!("expected cnode"),
        }
    }

    #[test]
    fn dual_descends_on_shared_prefix() {
        let gen = Gen::fresh();
        // Same low 5 bits, differ at the next level.
        let a = Arc::new(SNode::new(0b00001_00111, 1u64, 1u64));
        let b = Arc::new(SNode::new(0b00010_00111, 2u64, 2u64));
        let m = dual(a, b, 0, gen);
        match &m.kind {
            MainKind::C(c) => {
                assert_eq!(c.array.len(), 1);
                assert!(matches!(c.array[0], Branch::I(_)));
            }
            _ => panic!("expected cnode"),
        }
    }

    #[test]
    fn dual_full_collision_becomes_lnode() {
        let gen = Gen::fresh();
        let a = Arc::new(SNode::new(u64::MAX, 1u64, 1u64));
        let b = Arc::new(SNode::new(u64::MAX, 2u64, 2u64));
        let m = dual(a, b, 0, gen);
        fn find_lnode<K, V>(m: &MainNode<K, V>, depth: u32) -> bool {
            match &m.kind {
                MainKind::L(l) => l.entries.len() == 2,
                MainKind::C(c) => {
                    assert!(depth < 20, "unbounded descent");
                    match &c.array[0] {
                        Branch::I(i) => {
                            // SAFETY: this test is single-threaded, so no
                            // node can be retired concurrently; the unprotected
                            // guard and the raw deref both stay valid.
                            let g = unsafe { crossbeam_epoch::unprotected() };
                            let p = i.main.load(Ordering::Relaxed, g);
                            // SAFETY: `p` was just loaded from a live INode and
                            // nothing frees it in this single-threaded test.
                            find_lnode(unsafe { p.deref() }, depth + 1)
                        }
                        Branch::S(_) => false,
                    }
                }
                MainKind::T(_) => false,
            }
        }
        assert!(find_lnode(&m, 0));
    }

    #[test]
    fn lnode_insert_replaces_same_key() {
        let l = LNode {
            entries: vec![
                Arc::new(SNode::new(9, 1u64, 10u64)),
                Arc::new(SNode::new(9, 2u64, 20u64)),
            ],
        };
        let l2 = l.inserted(Arc::new(SNode::new(9, 1u64, 11u64)));
        assert_eq!(l2.entries.len(), 2);
        assert_eq!(l2.get(&1).unwrap().value, 11);
        let l3 = l2.removed(&2);
        assert_eq!(l3.entries.len(), 1);
    }

    #[test]
    fn arc_shared_roundtrip_preserves_count() {
        let a = MainNode::<u64, u64>::lnode(LNode { entries: vec![] });
        let inner = Arc::clone(&a);
        let s = arc_into_shared(inner);
        // SAFETY: `s` was produced by `arc_into_shared` one line up and is
        // reclaimed exactly once here.
        let back = unsafe { arc_from_shared(s) };
        assert_eq!(Arc::strong_count(&a), 2);
        drop(back);
        assert_eq!(Arc::strong_count(&a), 1);
    }
}
