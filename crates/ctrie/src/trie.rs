//! The lock-free concurrent trie with non-blocking snapshots.
//!
//! Faithful port of the algorithm of Prokopec et al. (PPoPP 2012):
//!
//! * **GCAS** (generation-compare-and-swap) replaces an I-node's main node
//!   only if the trie root's generation still matches the I-node's
//!   generation at commit time; otherwise the proposal is rolled back and
//!   the operation retries from the (renewed) root.
//! * **RDCSS** (restricted double-compare single-swap) swings the root to a
//!   new generation atomically with respect to in-flight GCAS commits — the
//!   double compare covers the root pointer *and* the root I-node's main.
//! * **Lazy copy-on-write**: after a snapshot, both tries hold fresh root
//!   generations; writers copy stale-generation I-nodes on the way down.
//!
//! See [`crate::node`] for the strong-count ownership protocol used in place
//! of the JVM garbage collector.

use std::borrow::Borrow;
use std::hash::{BuildHasher, Hash};
// SeqCst throughout: the root RDCSS protocol (the CAS, the descriptor commit flag and snapshot
// reads) needs one total order.
use std::sync::atomic::{
    AtomicBool, AtomicU64,
    Ordering::{Relaxed, SeqCst},
};
use std::sync::Arc;

use crossbeam_epoch::{self as epoch, Atomic, Guard, Shared};

use crate::gen::Gen;
use crate::hash::FxBuildHasher;
use crate::iter::Iter;
use crate::node::{
    arc_clone_from_shared, arc_from_shared, arc_into_shared, defer_drop_arc, dual, Branch, CNode,
    INode, LNode, MainKind, MainNode, SNode, SendPtr, BRANCH_FACTOR, HASH_BITS, LEVEL_MASK,
    PREV_FAILED, PREV_PENDING, ROOT_DESC, ROOT_INODE, W,
};
use crate::{SnapshotMap, SnapshotReader};

/// Outcome of a recursive operation: either a result or "retry from root".
enum Op<T> {
    Done(T),
    Restart,
}

/// Bottom-up loads that lost their root GCAS (see [`CTrie::from_entries`]).
static BULK_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// `hash` with its per-level slots as digits, level 0's most significant:
/// the order a depth-first walk of the trie visits the hashes in. Each of
/// the 64 bits keeps one place, so equal orders are equal hashes.
fn slot_order(hash: u64) -> u64 {
    let mut order = 0u64;
    let mut level = 0;
    while level < HASH_BITS {
        let bits = W.min(HASH_BITS - level);
        order = (order << bits) | ((hash >> level) & ((1 << bits) - 1));
        level += W;
    }
    order
}

/// A root I-node and its main node, read under one guard.
type RootMain<'g, K, V> = (&'g INode<K, V>, Shared<'g, MainNode<K, V>>);

/// RDCSS descriptor installed in the root cell (tagged [`ROOT_DESC`]).
struct Descriptor<K, V> {
    /// The root I-node the descriptor replaces.
    ov: Arc<INode<K, V>>,
    /// The main node `ov` must still hold for the swap to commit
    /// (compared by address).
    exp: Arc<MainNode<K, V>>,
    /// The replacement root I-node.
    nv: Arc<INode<K, V>>,
    committed: AtomicBool,
}

/// A concurrent hash trie with lock-free updates and O(1) snapshots.
///
/// See the [crate docs](crate) for an overview and examples.
pub struct CTrie<K, V, S = FxBuildHasher> {
    /// Tagged cell: [`ROOT_INODE`] → `*const INode<K, V>`,
    /// [`ROOT_DESC`] → `*const Descriptor<K, V>`. Owns one strong count.
    root: Atomic<u64>,
    read_only: bool,
    hasher: S,
    _marker: std::marker::PhantomData<(K, V)>,
}

// SAFETY: all shared mutation goes through atomic cells with the ownership
// protocol documented in `node`; `K`/`V` cross threads via `Arc`.
unsafe impl<K: Send + Sync, V: Send + Sync, S: Send + Sync> Send for CTrie<K, V, S> {}
// SAFETY: same argument as Send — concurrent readers/writers synchronize
// exclusively through the atomic root cell and GCAS, never through `&mut`.
unsafe impl<K: Send + Sync, V: Send + Sync, S: Send + Sync> Sync for CTrie<K, V, S> {}

impl<K, V> CTrie<K, V, FxBuildHasher>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Create an empty trie with the default (Fx) hasher.
    pub fn new() -> Self {
        Self::with_hasher(FxBuildHasher)
    }
}

impl<K, V> Default for CTrie<K, V, FxBuildHasher>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S> CTrie<K, V, S>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: BuildHasher + Clone + Send + Sync + 'static,
{
    /// Create an empty trie with a custom hasher.
    pub fn with_hasher(hasher: S) -> Self {
        let gen = Gen::fresh();
        let empty = MainNode::cnode(CNode {
            bitmap: 0,
            array: Vec::new(),
            gen,
        });
        let root = Arc::new(INode::new(empty, gen));
        CTrie {
            root: Self::root_cell(root, ROOT_INODE),
            read_only: false,
            hasher,
            _marker: std::marker::PhantomData,
        }
    }

    fn root_cell(inode: Arc<INode<K, V>>, tag: usize) -> Atomic<u64> {
        let cell = Atomic::null();
        let shared: Shared<'_, u64> =
            Shared::from(Arc::into_raw(inode).cast::<u64>()).with_tag(tag);
        cell.store(shared, SeqCst);
        cell
    }

    fn hash_key<Q: ?Sized + Hash>(&self, key: &Q) -> u64 {
        self.hasher.hash_one(key)
    }

    /// Whether this handle is a read-only snapshot.
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    // ------------------------------------------------------------------
    // Root access (RDCSS)
    // ------------------------------------------------------------------

    /// Read the root I-node, resolving (or aborting) any in-flight RDCSS.
    fn read_root<'g>(&self, abort: bool, g: &'g Guard) -> (Shared<'g, u64>, &'g INode<K, V>) {
        loop {
            let r = self.root.load(SeqCst, g);
            if r.tag() == ROOT_DESC {
                self.rdcss_complete(abort, g);
                continue;
            }
            // SAFETY: tag ROOT_INODE ⇒ the cell holds a live INode; the
            // guard keeps it alive for 'g.
            let inode = unsafe { &*(r.with_tag(0).as_raw() as *const INode<K, V>) };
            return (r, inode);
        }
    }

    /// Attempt the restricted double-compare single-swap of the root:
    /// `root: ov → nv` iff `ov.main == exp` still holds.
    fn rdcss_root(
        &self,
        ov: Shared<'_, u64>,
        exp: Arc<MainNode<K, V>>,
        nv: Arc<INode<K, V>>,
        g: &Guard,
    ) -> bool {
        // SAFETY: ov was read from the root cell under `g` with tag
        // ROOT_INODE.
        let ov_arc = unsafe {
            arc_clone_from_shared::<INode<K, V>>(Shared::from(
                ov.with_tag(0).as_raw() as *const INode<K, V>
            ))
        };
        let desc = Arc::new(Descriptor {
            ov: ov_arc,
            exp,
            nv,
            committed: AtomicBool::new(false),
        });
        let desc_probe = Arc::clone(&desc);
        let desc_shared: Shared<'_, u64> =
            Shared::from(Arc::into_raw(desc).cast::<u64>()).with_tag(ROOT_DESC);
        match self
            .root
            .compare_exchange(ov, desc_shared, SeqCst, SeqCst, g)
        {
            Ok(_) => {
                // SAFETY: the CAS succeeded, so the cell's former strong
                // count of `ov` is orphaned and ours to release; readers
                // pinned by older guards still hold it until the epoch
                // flips, which defer_drop_root respects.
                unsafe { Self::defer_drop_root(g, ov) };
                self.rdcss_complete(false, g);
                desc_probe.committed.load(SeqCst)
            }
            Err(_) => {
                // SAFETY: the CAS failed, so no other thread ever saw
                // `desc_shared`; the strong count minted by Arc::into_raw
                // above is exclusively ours to reclaim, immediately.
                unsafe {
                    drop(Arc::from_raw(
                        desc_shared.with_tag(0).as_raw() as *const Descriptor<K, V>
                    ));
                }
                false
            }
        }
    }

    /// Resolve a root descriptor: commit to `nv`, or roll back to `ov`
    /// (always roll back when `abort`).
    fn rdcss_complete(&self, abort: bool, g: &Guard) {
        loop {
            let r = self.root.load(SeqCst, g);
            if r.tag() != ROOT_DESC {
                return;
            }
            // SAFETY: tag ROOT_DESC ⇒ live Descriptor, pinned by `g`.
            let d = unsafe { &*(r.with_tag(0).as_raw() as *const Descriptor<K, V>) };
            let install = |target: Arc<INode<K, V>>| -> bool {
                let shared: Shared<'_, u64> =
                    Shared::from(Arc::into_raw(target).cast::<u64>()).with_tag(ROOT_INODE);
                match self.root.compare_exchange(r, shared, SeqCst, SeqCst, g) {
                    Ok(_) => {
                        // SAFETY: CAS success orphans the descriptor's
                        // strong count held by the cell; defer its drop
                        // past every pinned reader.
                        unsafe { Self::defer_drop_root(g, r) };
                        true
                    }
                    Err(_) => {
                        // SAFETY: CAS failure means `shared` was never
                        // published; the count from Arc::into_raw above
                        // is still exclusively ours.
                        unsafe {
                            drop(Arc::from_raw(
                                shared.with_tag(0).as_raw() as *const INode<K, V>
                            ));
                        }
                        false
                    }
                }
            };
            if abort {
                install(Arc::clone(&d.ov));
                continue; // re-check: another descriptor may land
            }
            let old_main = self.gcas_read(&d.ov, g);
            if std::ptr::eq(old_main.as_raw(), Arc::as_ptr(&d.exp)) {
                let nv = Arc::clone(&d.nv);
                let committed = &d.committed as *const AtomicBool;
                if install(nv) {
                    // SAFETY: `d` stays alive under `g` even though its
                    // count was deferred-dropped.
                    unsafe { (*committed).store(true, SeqCst) };
                    return;
                }
            } else if install(Arc::clone(&d.ov)) {
                return;
            }
        }
    }

    /// Defer-release the strong count carried by a root-cell pointer
    /// (either an I-node or a descriptor, per its tag).
    ///
    /// # Safety
    /// Caller must own the count and the pointer must be disconnected.
    unsafe fn defer_drop_root(g: &Guard, r: Shared<'_, u64>) {
        let raw = r.with_tag(0).as_raw();
        if r.tag() == ROOT_DESC {
            let p = SendPtr::new(raw as *const Descriptor<K, V>);
            g.defer(move || drop(Arc::from_raw(p.into_raw())));
        } else {
            let p = SendPtr::new(raw as *const INode<K, V>);
            g.defer(move || drop(Arc::from_raw(p.into_raw())));
        }
    }

    // ------------------------------------------------------------------
    // GCAS
    // ------------------------------------------------------------------

    /// Read `inode`'s committed main node, helping resolve pending GCAS.
    fn gcas_read<'g>(&self, inode: &INode<K, V>, g: &'g Guard) -> Shared<'g, MainNode<K, V>> {
        let m = inode.main.load(SeqCst, g);
        // SAFETY: main is never null and pinned by `g`.
        let prev = unsafe { m.deref() }.prev.load(SeqCst, g);
        if prev.is_null() {
            m
        } else {
            self.gcas_commit(inode, m, g)
        }
    }

    /// Drive a pending GCAS on `inode` to completion (commit or roll back)
    /// and return the resulting committed main node.
    fn gcas_commit<'g>(
        &self,
        inode: &INode<K, V>,
        mut m: Shared<'g, MainNode<K, V>>,
        g: &'g Guard,
    ) -> Shared<'g, MainNode<K, V>> {
        loop {
            // SAFETY: pinned by `g`.
            let mref = unsafe { m.deref() };
            let prev = mref.prev.load(SeqCst, g);
            if prev.is_null() {
                return m; // committed
            }
            // Reading the root both aborts competing RDCSS and fetches the
            // current generation for the validity check.
            let (_, root) = self.read_root(true, g);
            if prev.tag() == PREV_FAILED {
                // Roll back: inode.main: m → old.
                let old = prev.with_tag(0);
                // SAFETY: `old` is kept live by `m.prev`'s strong count
                // (released only by m's Drop); the cell needs its own
                // count, minted here before the CAS can publish it.
                unsafe { Arc::increment_strong_count(old.as_raw()) };
                match inode.main.compare_exchange(m, old, SeqCst, SeqCst, g) {
                    Ok(_) => {
                        // SAFETY: the CAS orphaned the cell's count of
                        // `m`; defer its release past pinned readers.
                        unsafe { defer_drop_arc(g, m) };
                        m = old;
                        continue;
                    }
                    Err(e) => {
                        // SAFETY: the CAS failed, so the speculative
                        // count minted above was never published and is
                        // exclusively ours to undo.
                        unsafe { drop(Arc::from_raw(old.as_raw())) };
                        m = e.current;
                        continue;
                    }
                }
            }
            // Pending: commit iff our generation is still current and this
            // handle may write; otherwise poison it as failed.
            if root.gen == inode.gen && !self.read_only {
                match mref
                    .prev
                    .compare_exchange(prev, Shared::null(), SeqCst, SeqCst, g)
                {
                    Ok(_) => {
                        // SAFETY: clearing `prev` orphans its strong
                        // count of the old main; defer its release past
                        // pinned readers.
                        unsafe { defer_drop_arc(g, prev) };
                        return m;
                    }
                    Err(_) => continue,
                }
            } else {
                let _ =
                    mref.prev
                        .compare_exchange(prev, prev.with_tag(PREV_FAILED), SeqCst, SeqCst, g);
                continue;
            }
        }
    }

    /// Propose replacing `inode`'s main node `old` with `new`.
    /// Returns true iff the proposal committed.
    fn gcas(
        &self,
        inode: &INode<K, V>,
        old: Shared<'_, MainNode<K, V>>,
        new: Arc<MainNode<K, V>>,
        g: &Guard,
    ) -> bool {
        // Point new.prev at old (pending), giving the prev cell its count.
        // SAFETY: `old` is live — it is the current main node of `inode`,
        // held by the cell's own strong count while we are pinned.
        unsafe { Arc::increment_strong_count(old.as_raw()) };
        new.prev.store(old.with_tag(PREV_PENDING), SeqCst);
        let new_shared = arc_into_shared(new);
        match inode
            .main
            .compare_exchange(old, new_shared, SeqCst, SeqCst, g)
        {
            Ok(_) => {
                // SAFETY: the CAS orphaned the cell's count of `old`
                // (rollback takes a fresh count if needed); defer its
                // release past pinned readers.
                unsafe { defer_drop_arc(g, old) };
                self.gcas_commit(inode, new_shared, g);
                // Committed iff the proposal survived with prev cleared.
                // SAFETY: `new_shared` is the cell's current-or-recent
                // main node, pinned by `g`.
                unsafe { new_shared.deref() }.prev.load(SeqCst, g).is_null()
            }
            Err(_) => {
                // SAFETY: the CAS failed, so `new` was never published;
                // the count from arc_into_shared is exclusively ours to
                // reclaim (its Drop releases prev's count of `old`).
                unsafe { drop(arc_from_shared(new_shared)) };
                false
            }
        }
    }

    // ------------------------------------------------------------------
    // Generation renewal (copy-on-write after snapshots)
    // ------------------------------------------------------------------

    /// Copy an I-node into generation `gen`, sharing its main node.
    fn copy_to_gen(&self, inode: &INode<K, V>, gen: Gen, g: &Guard) -> Arc<INode<K, V>> {
        let main = self.gcas_read(inode, g);
        // SAFETY: main is live under `g`.
        let main_arc = unsafe { arc_clone_from_shared(main) };
        Arc::new(INode::new(main_arc, gen))
    }

    /// Copy a C-node into generation `gen`, copying child I-nodes.
    fn renewed(&self, cn: &CNode<K, V>, gen: Gen, g: &Guard) -> CNode<K, V> {
        let array = cn
            .array
            .iter()
            .map(|b| match b {
                Branch::I(i) => Branch::I(self.copy_to_gen(i, gen, g)),
                Branch::S(s) => Branch::S(Arc::clone(s)),
            })
            .collect();
        CNode {
            bitmap: cn.bitmap,
            array,
            gen,
        }
    }

    /// Contract a single-singleton C-node into a tomb (if below the root).
    fn contracted(cn: CNode<K, V>, level: u32) -> Arc<MainNode<K, V>> {
        if level > 0 && cn.array.len() == 1 {
            if let Branch::S(sn) = &cn.array[0] {
                return MainNode::tomb(Arc::clone(sn));
            }
        }
        MainNode::cnode(cn)
    }

    /// Compress: resurrect tombed children and contract.
    fn compressed(&self, cn: &CNode<K, V>, level: u32, gen: Gen, g: &Guard) -> Arc<MainNode<K, V>> {
        let array = cn
            .array
            .iter()
            .map(|b| match b {
                Branch::I(i) => {
                    let m = self.gcas_read(i, g);
                    // SAFETY: pinned by `g`.
                    match &unsafe { m.deref() }.kind {
                        MainKind::T(sn) => Branch::S(Arc::clone(sn)),
                        _ => Branch::I(Arc::clone(i)),
                    }
                }
                Branch::S(s) => Branch::S(Arc::clone(s)),
            })
            .collect();
        Self::contracted(
            CNode {
                bitmap: cn.bitmap,
                array,
                gen,
            },
            level,
        )
    }

    /// Replace `inode`'s C-node main with its compression.
    fn clean(&self, inode: &INode<K, V>, level: u32, g: &Guard) {
        let m = self.gcas_read(inode, g);
        // SAFETY: pinned by `g`.
        if let MainKind::C(cn) = &unsafe { m.deref() }.kind {
            let comp = self.compressed(cn, level, inode.gen, g);
            let _ = self.gcas(inode, m, comp, g);
        }
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    /// Insert `key → value`; returns the previously bound value if any.
    ///
    /// The Indexed DataFrame relies on the returned value to thread its
    /// backward-pointer list: the previous packed row pointer becomes the
    /// new row's back link.
    ///
    /// # Panics
    /// Panics if called on a read-only snapshot.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        assert!(!self.read_only, "insert on a read-only cTrie snapshot");
        self.insert_pinned(&key, &value, &epoch::pin())
    }

    /// [`CTrie::insert`] under the caller's guard.
    fn insert_pinned(&self, key: &K, value: &V, g: &Guard) -> Option<V> {
        let hash = self.hash_key(key);
        loop {
            let (_, root) = self.read_root(false, g);
            match self.rec_insert(root, hash, key, value, 0, None, root.gen, g) {
                Op::Done(old) => return old,
                Op::Restart => continue,
            }
        }
    }

    /// Bulk-load `entries`, with the semantics of calling
    /// [`CTrie::insert`] once per entry: later duplicates of a key
    /// overwrite earlier ones.
    ///
    /// Into an empty trie the load builds the trie bottom-up instead: it
    /// hashes each key once, orders the entries by their per-level slots
    /// (the trie's own order, level 0 first), allocates each node once at
    /// its final width, and installs the root C-node with one GCAS, so a
    /// reader sees all of the entries or none. Into a non-empty trie, or
    /// when that GCAS loses to a concurrent snapshot or writer, it calls
    /// [`CTrie::insert`] per entry. The build itself runs unpinned: a
    /// guard held across a load would keep other threads' replaced nodes
    /// from being reclaimed until the load ends.
    ///
    /// # Panics
    /// Panics if called on a read-only snapshot.
    pub fn from_entries<I>(&self, entries: I)
    where
        I: IntoIterator<Item = (K, V)>,
    {
        assert!(
            !self.read_only,
            "from_entries on a read-only cTrie snapshot"
        );
        let mut entries = entries.into_iter();
        let Some((key, value)) = entries.next() else {
            return;
        };
        let g = epoch::pin();
        let Some((root, _)) = self.empty_root(&g) else {
            // Populated: the first insert takes the pin the check took, so
            // a one-key load costs what one insert does.
            self.insert_pinned(&key, &value, &g);
            drop(g);
            return self.insert_each(entries);
        };
        let gen = root.gen;
        drop(g);
        let all = std::iter::once((key, value)).chain(entries).collect();
        if let Err(built) = self.install_built(gen, all) {
            BULK_FALLBACKS.fetch_add(1, Relaxed);
            let mut bindings = Vec::new();
            Self::bindings(&built, &mut bindings, &epoch::pin());
            self.insert_each(bindings);
        }
    }

    /// Loads into an empty trie whose bottom-up build lost its root GCAS
    /// and fell back to per-entry inserts, process-wide. A test hook.
    #[doc(hidden)]
    pub fn bulk_fallbacks() -> u64 {
        BULK_FALLBACKS.load(Relaxed)
    }

    /// [`CTrie::insert`] of each entry, each under its own pin: an unpin
    /// is where this thread advances the epoch and reclaims what it
    /// replaced, so the nodes an insert copies are freed while still warm
    /// in cache.
    fn insert_each(&self, entries: impl IntoIterator<Item = (K, V)>) {
        for (key, value) in entries {
            self.insert(key, value);
        }
    }

    /// The root I-node and its main node, when the trie holds no binding.
    fn empty_root<'g>(&self, g: &'g Guard) -> Option<RootMain<'g, K, V>> {
        let (_, root) = self.read_root(false, g);
        let m = self.gcas_read(root, g);
        // SAFETY: pinned by `g`.
        let empty = matches!(&unsafe { m.deref() }.kind, MainKind::C(cn) if cn.bitmap == 0);
        empty.then_some((root, m))
    }

    /// Build the trie of `entries` bottom-up in generation `gen` and
    /// install its root C-node over the empty one with one GCAS. Returns
    /// the built root main node when the trie is no longer empty, the root
    /// generation moved on, or the GCAS lost.
    fn install_built(&self, gen: Gen, entries: Vec<(K, V)>) -> Result<(), Arc<MainNode<K, V>>> {
        let hashes: Vec<u64> = entries.iter().map(|(k, _)| self.hash_key(k)).collect();
        let mut order: Vec<(u64, u32)> = hashes
            .iter()
            .enumerate()
            .map(|(i, &h)| (slot_order(h), i as u32))
            .collect();
        // Equal slot orders are equal hashes; the index keeps duplicates
        // in input order, so the last one wins below.
        order.sort_unstable();
        let mut entries: Vec<Option<(K, V)>> = entries.into_iter().map(Some).collect();
        let mut sorted = Vec::with_capacity(order.len());
        let mut nodes: Vec<Arc<SNode<K, V>>> = Vec::with_capacity(order.len());
        // Start of the run of nodes whose full hash equals the last one.
        let mut run = 0;
        for &(_, i) in &order {
            let hash = hashes[i as usize];
            let Some((key, value)) = entries[i as usize].take() else {
                continue;
            };
            let sn = Arc::new(SNode::new(hash, key, value));
            if sorted.last() == Some(&hash) {
                if let Some(same) = nodes[run..].iter_mut().find(|n| n.key == sn.key) {
                    *same = sn;
                    continue;
                }
            } else {
                run = nodes.len();
            }
            sorted.push(hash);
            nodes.push(sn);
        }
        drop(entries);
        let built = MainNode::cnode(Self::build_cnode(&sorted, &mut nodes.into_iter(), 0, gen));
        let g = &epoch::pin();
        match self.empty_root(g) {
            Some((root, m)) if root.gen == gen && self.gcas(root, m, Arc::clone(&built), g) => {
                Ok(())
            }
            _ => Err(built),
        }
    }

    /// The C-node at `level` over `hashes` (sorted in slot order, distinct
    /// keys), taking one S-node per hash from `nodes` in that order. A
    /// slot with one node holds it; a slot with more holds an I-node over
    /// the next level, down to an L-node once the hash bits run out — the
    /// shapes [`dual`] makes.
    fn build_cnode(
        hashes: &[u64],
        nodes: &mut std::vec::IntoIter<Arc<SNode<K, V>>>,
        level: u32,
        gen: Gen,
    ) -> CNode<K, V> {
        // Each slot's run ends where the next slot's starts.
        let mut runs = [(0u32, 0usize); BRANCH_FACTOR];
        let mut width = 0;
        let mut start = 0;
        while let Some(&h) = hashes.get(start) {
            let slot = (h >> level) & LEVEL_MASK;
            let end = start
                + hashes[start..]
                    .iter()
                    .take_while(|&&x| (x >> level) & LEVEL_MASK == slot)
                    .count();
            runs[width] = (slot as u32, end);
            width += 1;
            start = end;
        }
        let mut bitmap = 0u32;
        let mut array = Vec::with_capacity(width);
        let mut start = 0;
        for &(slot, end) in &runs[..width] {
            bitmap |= 1 << slot;
            let run = &hashes[start..end];
            array.push(if run.len() == 1 {
                // The runs partition `hashes`, one node per hash.
                #[allow(clippy::expect_used)]
                Branch::S(nodes.next().expect("one node per hash"))
            } else if level + W >= HASH_BITS {
                let entries = nodes.by_ref().take(run.len()).collect();
                let main = MainNode::lnode(LNode { entries });
                Branch::I(Arc::new(INode::new(main, gen)))
            } else {
                let main = MainNode::cnode(Self::build_cnode(run, nodes, level + W, gen));
                Branch::I(Arc::new(INode::new(main, gen)))
            });
            start = end;
        }
        CNode { bitmap, array, gen }
    }

    /// Clone every binding below `main` into `out`.
    fn bindings(main: &MainNode<K, V>, out: &mut Vec<(K, V)>, g: &Guard) {
        match &main.kind {
            MainKind::C(cn) => {
                for b in &cn.array {
                    match b {
                        Branch::S(sn) => out.push((sn.key.clone(), sn.value.clone())),
                        Branch::I(i) => {
                            let m = i.main.load(SeqCst, g);
                            // SAFETY: a main cell is never null, and `g` pins it.
                            Self::bindings(unsafe { m.deref() }, out, g);
                        }
                    }
                }
            }
            MainKind::T(sn) => out.push((sn.key.clone(), sn.value.clone())),
            MainKind::L(ln) => {
                out.extend(
                    ln.entries
                        .iter()
                        .map(|sn| (sn.key.clone(), sn.value.clone())),
                );
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn rec_insert(
        &self,
        inode: &INode<K, V>,
        hash: u64,
        key: &K,
        value: &V,
        level: u32,
        parent: Option<&INode<K, V>>,
        startgen: Gen,
        g: &Guard,
    ) -> Op<Option<V>> {
        loop {
            let m = self.gcas_read(inode, g);
            // SAFETY: pinned by `g`.
            let mref = unsafe { m.deref() };
            match &mref.kind {
                MainKind::C(cn) => {
                    let (flag, pos) = CNode::<K, V>::flag_pos(hash, level, cn.bitmap);
                    if cn.bitmap & flag == 0 {
                        // Slot empty: splice in a singleton (renewing the
                        // C-node into our generation first if stale).
                        let sn = Arc::new(SNode::new(hash, key.clone(), value.clone()));
                        let base = if cn.gen == inode.gen {
                            cn.inserted(pos, flag, Branch::S(sn), inode.gen)
                        } else {
                            self.renewed(cn, inode.gen, g).inserted(
                                pos,
                                flag,
                                Branch::S(sn),
                                inode.gen,
                            )
                        };
                        if self.gcas(inode, m, MainNode::cnode(base), g) {
                            return Op::Done(None);
                        }
                        return Op::Restart;
                    }
                    match &cn.array[pos] {
                        Branch::I(child) => {
                            if child.gen == startgen {
                                let child = Arc::clone(child);
                                return self.rec_insert(
                                    &child,
                                    hash,
                                    key,
                                    value,
                                    level + W,
                                    Some(inode),
                                    startgen,
                                    g,
                                );
                            }
                            // Stale child: renew this level, then retry it.
                            let rn = self.renewed(cn, startgen, g);
                            if self.gcas(inode, m, MainNode::cnode(rn), g) {
                                continue;
                            }
                            return Op::Restart;
                        }
                        Branch::S(sn) => {
                            if sn.hash == hash && sn.key == *key {
                                // Same key: replace the binding.
                                let nsn = Arc::new(SNode::new(hash, key.clone(), value.clone()));
                                let base = if cn.gen == inode.gen {
                                    cn.updated(pos, Branch::S(nsn), inode.gen)
                                } else {
                                    self.renewed(cn, inode.gen, g).updated(
                                        pos,
                                        Branch::S(nsn),
                                        inode.gen,
                                    )
                                };
                                let old = sn.value.clone();
                                if self.gcas(inode, m, MainNode::cnode(base), g) {
                                    return Op::Done(Some(old));
                                }
                                return Op::Restart;
                            }
                            // Different key in this slot: grow a subtree.
                            let nsn = Arc::new(SNode::new(hash, key.clone(), value.clone()));
                            let sub = dual(Arc::clone(sn), nsn, level + W, inode.gen);
                            let child = Arc::new(INode::new(sub, inode.gen));
                            let base = if cn.gen == inode.gen {
                                cn.updated(pos, Branch::I(child), inode.gen)
                            } else {
                                self.renewed(cn, inode.gen, g).updated(
                                    pos,
                                    Branch::I(child),
                                    inode.gen,
                                )
                            };
                            if self.gcas(inode, m, MainNode::cnode(base), g) {
                                return Op::Done(None);
                            }
                            return Op::Restart;
                        }
                    }
                }
                MainKind::T(_) => {
                    if let Some(p) = parent {
                        self.clean(p, level - W, g);
                    }
                    return Op::Restart;
                }
                MainKind::L(ln) => {
                    let old = ln.get(key).map(|sn| sn.value.clone());
                    let nln = ln.inserted(Arc::new(SNode::new(hash, key.clone(), value.clone())));
                    if self.gcas(inode, m, MainNode::lnode(nln), g) {
                        return Op::Done(old);
                    }
                    return Op::Restart;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// Look up the value bound to `key`.
    pub fn lookup(&self, key: &K) -> Option<V> {
        self.lookup_with(key, V::clone)
    }

    /// Look up `key` and project the bound value through `f` without
    /// cloning it first.
    pub fn lookup_with<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.lookup_with_borrowed(key, f)
    }

    /// Look up through any borrowed form of the key type, so callers can
    /// probe without materialising an owned `K` (e.g. a `CTrie<String, _>`
    /// probed with a `&str`). Mirrors `HashMap::get`'s `Borrow` contract:
    /// `Q`'s `Hash` and `Eq` must agree with `K`'s.
    pub fn lookup_borrowed<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: ?Sized + Hash + Eq,
    {
        self.lookup_with_borrowed(key, V::clone)
    }

    /// [`Self::lookup_borrowed`] with a projection applied in place of the
    /// final clone — the zero-allocation probe entry point.
    pub fn lookup_with_borrowed<Q, R>(&self, key: &Q, f: impl FnOnce(&V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: ?Sized + Hash + Eq,
    {
        let hash = self.hash_key(key);
        let g = &epoch::pin();
        let mut f = Some(f);
        loop {
            let (_, root) = self.read_root(false, g);
            match self.rec_lookup(root, hash, key, 0, None, root.gen, &mut f, g) {
                Op::Done(r) => return r,
                Op::Restart => continue,
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn rec_lookup<Q, R>(
        &self,
        inode: &INode<K, V>,
        hash: u64,
        key: &Q,
        level: u32,
        parent: Option<&INode<K, V>>,
        startgen: Gen,
        f: &mut Option<impl FnOnce(&V) -> R>,
        g: &Guard,
    ) -> Op<Option<R>>
    where
        K: Borrow<Q>,
        Q: ?Sized + Hash + Eq,
    {
        loop {
            let m = self.gcas_read(inode, g);
            // SAFETY: pinned by `g`.
            let mref = unsafe { m.deref() };
            match &mref.kind {
                MainKind::C(cn) => {
                    let (flag, pos) = CNode::<K, V>::flag_pos(hash, level, cn.bitmap);
                    if cn.bitmap & flag == 0 {
                        return Op::Done(None);
                    }
                    match &cn.array[pos] {
                        Branch::I(child) => {
                            if self.read_only || child.gen == startgen {
                                let child = Arc::clone(child);
                                return self.rec_lookup(
                                    &child,
                                    hash,
                                    key,
                                    level + W,
                                    Some(inode),
                                    startgen,
                                    f,
                                    g,
                                );
                            }
                            let rn = self.renewed(cn, startgen, g);
                            if self.gcas(inode, m, MainNode::cnode(rn), g) {
                                continue;
                            }
                            return Op::Restart;
                        }
                        Branch::S(sn) => {
                            if sn.hash == hash && sn.key.borrow() == key {
                                // lookup_with invariant: the projection is taken once per call
                                #[allow(clippy::expect_used)]
                                let func = f.take().expect("projection applied twice");
                                return Op::Done(Some(func(&sn.value)));
                            }
                            return Op::Done(None);
                        }
                    }
                }
                MainKind::T(sn) => {
                    if self.read_only {
                        // Snapshots never clean; answer straight from the tomb.
                        if sn.hash == hash && sn.key.borrow() == key {
                            // lookup_with invariant: the projection is taken once per call
                            #[allow(clippy::expect_used)]
                            let func = f.take().expect("projection applied twice");
                            return Op::Done(Some(func(&sn.value)));
                        }
                        return Op::Done(None);
                    }
                    if let Some(p) = parent {
                        self.clean(p, level - W, g);
                    }
                    return Op::Restart;
                }
                MainKind::L(ln) => {
                    let r = ln.get(key).map(|sn| {
                        // lookup_with invariant: the projection is taken once per call
                        #[allow(clippy::expect_used)]
                        let func = f.take().expect("projection applied twice");
                        func(&sn.value)
                    });
                    return Op::Done(r);
                }
            }
        }
    }

    /// Whether `key` has a binding.
    pub fn contains_key(&self, key: &K) -> bool {
        self.lookup_with(key, |_| ()).is_some()
    }

    // ------------------------------------------------------------------
    // Remove
    // ------------------------------------------------------------------

    /// Remove the binding for `key`, returning the removed value if any.
    ///
    /// # Panics
    /// Panics if called on a read-only snapshot.
    pub fn remove(&self, key: &K) -> Option<V> {
        assert!(!self.read_only, "remove on a read-only cTrie snapshot");
        let hash = self.hash_key(key);
        let g = &epoch::pin();
        loop {
            let (_, root) = self.read_root(false, g);
            match self.rec_remove(root, hash, key, 0, None, root.gen, g) {
                Op::Done(r) => return r,
                Op::Restart => continue,
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn rec_remove(
        &self,
        inode: &INode<K, V>,
        hash: u64,
        key: &K,
        level: u32,
        parent: Option<&INode<K, V>>,
        startgen: Gen,
        g: &Guard,
    ) -> Op<Option<V>> {
        let m = self.gcas_read(inode, g);
        // SAFETY: pinned by `g`.
        let mref = unsafe { m.deref() };
        let res = match &mref.kind {
            MainKind::C(cn) => {
                let (flag, pos) = CNode::<K, V>::flag_pos(hash, level, cn.bitmap);
                if cn.bitmap & flag == 0 {
                    return Op::Done(None);
                }
                match &cn.array[pos] {
                    Branch::I(child) => {
                        if child.gen == startgen {
                            let child = Arc::clone(child);
                            self.rec_remove(&child, hash, key, level + W, Some(inode), startgen, g)
                        } else {
                            let rn = self.renewed(cn, startgen, g);
                            if self.gcas(inode, m, MainNode::cnode(rn), g) {
                                self.rec_remove(inode, hash, key, level, parent, startgen, g)
                            } else {
                                Op::Restart
                            }
                        }
                    }
                    Branch::S(sn) => {
                        if sn.hash == hash && sn.key == *key {
                            let ncn = cn.removed(pos, flag, inode.gen);
                            let cand = Self::contracted(ncn, level);
                            if self.gcas(inode, m, cand, g) {
                                Op::Done(Some(sn.value.clone()))
                            } else {
                                Op::Restart
                            }
                        } else {
                            Op::Done(None)
                        }
                    }
                }
            }
            MainKind::T(_) => {
                if let Some(p) = parent {
                    self.clean(p, level - W, g);
                }
                Op::Restart
            }
            MainKind::L(ln) => match ln.get(key) {
                None => Op::Done(None),
                Some(sn) => {
                    let old = sn.value.clone();
                    let nln = ln.removed(key);
                    let cand = if nln.entries.len() == 1 {
                        MainNode::tomb(Arc::clone(&nln.entries[0]))
                    } else {
                        MainNode::lnode(nln)
                    };
                    if self.gcas(inode, m, cand, g) {
                        Op::Done(Some(old))
                    } else {
                        Op::Restart
                    }
                }
            },
        };
        // After a successful removal, contract a tombed child into its parent.
        if let (Op::Done(Some(_)), Some(p)) = (&res, parent) {
            let now = self.gcas_read(inode, g);
            // SAFETY: pinned by `g`.
            if matches!(&unsafe { now.deref() }.kind, MainKind::T(_)) {
                self.clean_parent(inode, p, hash, level - W, startgen, g);
            }
        }
        res
    }

    /// Contract `tombed` (an I-node whose main is a tomb) into `parent`.
    fn clean_parent(
        &self,
        tombed: &INode<K, V>,
        parent: &INode<K, V>,
        hash: u64,
        parent_level: u32,
        startgen: Gen,
        g: &Guard,
    ) {
        loop {
            let pm = self.gcas_read(parent, g);
            // SAFETY: pinned by `g`.
            let MainKind::C(cn) = &unsafe { pm.deref() }.kind else {
                return;
            };
            let (flag, pos) = CNode::<K, V>::flag_pos(hash, parent_level, cn.bitmap);
            if cn.bitmap & flag == 0 {
                return;
            }
            let Branch::I(sub) = &cn.array[pos] else {
                return;
            };
            if !std::ptr::eq(Arc::as_ptr(sub), tombed as *const _) {
                return;
            }
            let tm = self.gcas_read(tombed, g);
            // SAFETY: pinned by `g`.
            if let MainKind::T(sn) = &unsafe { tm.deref() }.kind {
                let ncn = cn.updated(pos, Branch::S(Arc::clone(sn)), parent.gen);
                let cand = Self::contracted(ncn, parent_level);
                if self.gcas(parent, pm, cand, g) {
                    return;
                }
                let (_, root) = self.read_root(false, g);
                if root.gen != startgen {
                    return; // a snapshot intervened; leave it to future ops
                }
                continue;
            }
            return;
        }
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// Take a writable O(1) snapshot. Both tries copy-on-write lazily.
    pub fn snapshot(&self) -> CTrie<K, V, S> {
        let g = &epoch::pin();
        loop {
            let (root_shared, root) = self.read_root(false, g);
            let main = self.gcas_read(root, g);
            // SAFETY: pinned by `g`.
            let main_arc = unsafe { arc_clone_from_shared(main) };
            let nv = Arc::new(INode::new(Arc::clone(&main_arc), Gen::fresh()));
            if self.rdcss_root(root_shared, Arc::clone(&main_arc), nv, g) {
                let snap_root = Arc::new(INode::new(main_arc, Gen::fresh()));
                return CTrie {
                    root: Self::root_cell(snap_root, ROOT_INODE),
                    read_only: false,
                    hasher: self.hasher.clone(),
                    _marker: std::marker::PhantomData,
                };
            }
        }
    }

    /// Take a read-only O(1) snapshot. Cheaper than [`Self::snapshot`]: the
    /// frozen trie shares the old root directly and never copies.
    pub fn read_only_snapshot(&self) -> CTrie<K, V, S> {
        let g = &epoch::pin();
        if self.read_only {
            // Already frozen; share the root as-is.
            let (root_shared, _) = self.read_root(false, g);
            // SAFETY: root_shared holds a live I-node under `g`.
            let root_arc = unsafe {
                arc_clone_from_shared::<INode<K, V>>(Shared::from(
                    root_shared.with_tag(0).as_raw() as *const INode<K, V>
                ))
            };
            return CTrie {
                root: Self::root_cell(root_arc, ROOT_INODE),
                read_only: true,
                hasher: self.hasher.clone(),
                _marker: std::marker::PhantomData,
            };
        }
        loop {
            let (root_shared, root) = self.read_root(false, g);
            let main = self.gcas_read(root, g);
            // SAFETY: pinned by `g`.
            let main_arc = unsafe { arc_clone_from_shared(main) };
            let nv = Arc::new(INode::new(main_arc, Gen::fresh()));
            // SAFETY: root_shared holds a live I-node under `g`.
            let old_root = unsafe {
                arc_clone_from_shared::<INode<K, V>>(Shared::from(
                    root_shared.with_tag(0).as_raw() as *const INode<K, V>
                ))
            };
            // SAFETY: `main` is pinned by `g`; mint a fresh count for the
            // RDCSS expected value.
            let exp = unsafe { arc_clone_from_shared(main) };
            if self.rdcss_root(root_shared, exp, nv, g) {
                return CTrie {
                    root: Self::root_cell(old_root, ROOT_INODE),
                    read_only: true,
                    hasher: self.hasher.clone(),
                    _marker: std::marker::PhantomData,
                };
            }
        }
    }

    /// The root I-node's generation token. It changes when a snapshot
    /// swaps the root and at no other time, so a test can pin that an
    /// operation takes no snapshot.
    #[doc(hidden)]
    pub fn root_generation(&self) -> u64 {
        let g = &epoch::pin();
        self.read_root(false, g).1.gen.id()
    }

    /// Number of bindings. O(n): walks a read-only snapshot.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether the trie is empty.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Iterate over a point-in-time view of the bindings (unordered).
    pub fn iter(&self) -> Iter<K, V, S> {
        Iter::new(self.read_only_snapshot())
    }

    pub(crate) fn root_main_arc(&self) -> Arc<MainNode<K, V>> {
        let g = &epoch::pin();
        let (_, root) = self.read_root(false, g);
        let main = self.gcas_read(root, g);
        // SAFETY: pinned by `g`.
        unsafe { arc_clone_from_shared(main) }
    }

    /// Resolve an I-node's committed main during iteration.
    pub(crate) fn resolve_main(&self, inode: &INode<K, V>) -> Arc<MainNode<K, V>> {
        let g = &epoch::pin();
        let main = self.gcas_read(inode, g);
        // SAFETY: pinned by `g`.
        unsafe { arc_clone_from_shared(main) }
    }
}

impl<K, V, S> Drop for CTrie<K, V, S> {
    fn drop(&mut self) {
        // SAFETY: `&mut self`; release the root cell's count.
        unsafe {
            let g = epoch::unprotected();
            let r = self.root.load(SeqCst, g);
            if r.is_null() {
                return;
            }
            let raw = r.with_tag(0).as_raw();
            if r.tag() == ROOT_DESC {
                drop(Arc::from_raw(raw as *const Descriptor<K, V>));
            } else {
                drop(Arc::from_raw(raw as *const INode<K, V>));
            }
        }
    }
}

impl<K, V, S> SnapshotMap<K, V> for CTrie<K, V, S>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: BuildHasher + Clone + Send + Sync + 'static,
{
    fn insert(&self, key: K, value: V) -> Option<V> {
        CTrie::insert(self, key, value)
    }

    fn lookup(&self, key: &K) -> Option<V> {
        CTrie::lookup(self, key)
    }

    fn remove(&self, key: &K) -> Option<V> {
        CTrie::remove(self, key)
    }

    fn snapshot_reader(&self) -> Box<dyn SnapshotReader<K, V>> {
        Box::new(self.read_only_snapshot())
    }

    fn count(&self) -> usize {
        self.len()
    }
}

impl<K, V, S> SnapshotReader<K, V> for CTrie<K, V, S>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: BuildHasher + Clone + Send + Sync + 'static,
{
    fn lookup(&self, key: &K) -> Option<V> {
        CTrie::lookup(self, key)
    }

    fn count(&self) -> usize {
        self.len()
    }

    fn entries(&self) -> Vec<(K, V)> {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::Hasher;

    #[test]
    fn insert_lookup_roundtrip() {
        let t: CTrie<u64, String> = CTrie::new();
        assert_eq!(t.lookup(&1), None);
        assert_eq!(t.insert(1, "one".into()), None);
        assert_eq!(t.lookup(&1), Some("one".into()));
        assert_eq!(t.insert(1, "uno".into()), Some("one".into()));
        assert_eq!(t.lookup(&1), Some("uno".into()));
    }

    #[test]
    #[cfg_attr(miri, ignore = "loop/thread count too heavy for the interpreter")]
    fn many_keys() {
        let t: CTrie<u64, u64> = CTrie::new();
        for i in 0..10_000 {
            assert_eq!(t.insert(i, i * 2), None);
        }
        for i in 0..10_000 {
            assert_eq!(t.lookup(&i), Some(i * 2), "key {i}");
        }
        assert_eq!(t.lookup(&10_000), None);
        assert_eq!(t.len(), 10_000);
    }

    #[test]
    #[cfg_attr(miri, ignore = "loop/thread count too heavy for the interpreter")]
    fn from_entries_matches_sequential_inserts() {
        let bulk: CTrie<u64, u64> = CTrie::new();
        bulk.from_entries((0..5000).map(|i| (i, i * 3)));
        let seq: CTrie<u64, u64> = CTrie::new();
        for i in 0..5000 {
            seq.insert(i, i * 3);
        }
        assert_eq!(bulk.len(), seq.len());
        for i in 0..5000 {
            assert_eq!(bulk.lookup(&i), Some(i * 3), "key {i}");
        }
        // Later duplicates overwrite earlier ones, like repeated insert.
        bulk.from_entries([(7u64, 1u64), (7, 2)]);
        assert_eq!(bulk.lookup(&7), Some(2));
    }

    #[test]
    fn remove_returns_old_and_unbinds() {
        let t: CTrie<u64, u64> = CTrie::new();
        for i in 0..1000 {
            t.insert(i, i);
        }
        for i in 0..1000 {
            assert_eq!(t.remove(&i), Some(i));
            assert_eq!(t.lookup(&i), None);
            assert_eq!(t.remove(&i), None);
        }
        assert!(t.is_empty());
    }

    #[test]
    #[cfg_attr(miri, ignore = "loop/thread count too heavy for the interpreter")]
    fn remove_contracts_structure() {
        let t: CTrie<u64, u64> = CTrie::new();
        for i in 0..5000 {
            t.insert(i, i);
        }
        for i in 0..4999 {
            t.remove(&i);
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&4999), Some(4999));
    }

    #[test]
    #[cfg_attr(miri, ignore = "loop/thread count too heavy for the interpreter")]
    fn borrowed_lookup_never_builds_an_owned_key() {
        let t: CTrie<String, u64> = CTrie::new();
        for i in 0..1000u64 {
            t.insert(format!("key-{i}"), i);
        }
        // Probe with `&str` — no `String` is allocated on the lookup path.
        assert_eq!(t.lookup_borrowed("key-7"), Some(7));
        assert_eq!(t.lookup_borrowed("key-999"), Some(999));
        assert_eq!(t.lookup_borrowed("missing"), None);
        assert_eq!(t.lookup_with_borrowed("key-41", |v| v + 1), Some(42));
        // Snapshots answer through the same borrowed path.
        let snap = t.read_only_snapshot();
        t.insert("key-7".to_string(), 70);
        assert_eq!(snap.lookup_borrowed("key-7"), Some(7));
        assert_eq!(t.lookup_borrowed("key-7"), Some(70));
    }

    #[test]
    fn lookup_with_projects_without_clone() {
        let t: CTrie<u64, Vec<u64>> = CTrie::new();
        t.insert(7, vec![1, 2, 3]);
        assert_eq!(t.lookup_with(&7, |v| v.len()), Some(3));
        assert_eq!(t.lookup_with(&8, |v| v.len()), None);
    }

    #[test]
    fn read_only_snapshot_is_point_in_time() {
        let t: CTrie<u64, u64> = CTrie::new();
        for i in 0..100 {
            t.insert(i, i);
        }
        let snap = t.read_only_snapshot();
        for i in 100..200 {
            t.insert(i, i);
        }
        t.remove(&0);
        assert_eq!(snap.lookup(&0), Some(0));
        assert_eq!(snap.lookup(&150), None);
        assert_eq!(snap.len(), 100);
        assert_eq!(t.len(), 199);
    }

    #[test]
    fn writable_snapshot_diverges() {
        let t: CTrie<u64, u64> = CTrie::new();
        for i in 0..100 {
            t.insert(i, i);
        }
        let snap = t.snapshot();
        t.insert(1000, 1);
        snap.insert(2000, 2);
        assert_eq!(t.lookup(&1000), Some(1));
        assert_eq!(t.lookup(&2000), None);
        assert_eq!(snap.lookup(&2000), Some(2));
        assert_eq!(snap.lookup(&1000), None);
        // shared prefix still visible in both
        for i in 0..100 {
            assert_eq!(t.lookup(&i), Some(i));
            assert_eq!(snap.lookup(&i), Some(i));
        }
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn read_only_snapshot_rejects_insert() {
        let t: CTrie<u64, u64> = CTrie::new();
        t.read_only_snapshot().insert(1, 1);
    }

    #[test]
    fn chained_snapshots() {
        let t: CTrie<u64, u64> = CTrie::new();
        t.insert(1, 1);
        let s1 = t.snapshot();
        t.insert(2, 2);
        let s2 = t.snapshot();
        t.insert(3, 3);
        let s3 = t.read_only_snapshot();
        assert_eq!(s1.len(), 1);
        assert_eq!(s2.len(), 2);
        assert_eq!(s3.len(), 3);
        assert_eq!(t.len(), 3);
    }

    #[test]
    #[cfg_attr(miri, ignore = "loop/thread count too heavy for the interpreter")]
    fn string_keys() {
        let t: CTrie<String, u64> = CTrie::new();
        for i in 0..1000 {
            t.insert(format!("key-{i}"), i);
        }
        for i in 0..1000 {
            assert_eq!(t.lookup(&format!("key-{i}")), Some(i));
        }
    }

    /// A hasher that collides everything, forcing L-node paths.
    #[derive(Clone, Copy, Default)]
    struct CollideAll;
    struct CollideHasher;
    impl Hasher for CollideHasher {
        fn finish(&self) -> u64 {
            42
        }
        fn write(&mut self, _: &[u8]) {}
    }
    impl BuildHasher for CollideAll {
        type Hasher = CollideHasher;
        fn build_hasher(&self) -> CollideHasher {
            CollideHasher
        }
    }

    #[test]
    fn full_hash_collisions_use_lnodes() {
        let t: CTrie<u64, u64, CollideAll> = CTrie::with_hasher(CollideAll);
        for i in 0..64 {
            assert_eq!(t.insert(i, i * 10), None);
        }
        for i in 0..64 {
            assert_eq!(t.lookup(&i), Some(i * 10));
        }
        assert_eq!(t.insert(5, 999), Some(50));
        for i in 0..64 {
            let expect = if i == 5 { 999 } else { i * 10 };
            assert_eq!(t.remove(&i), Some(expect));
        }
        assert!(t.is_empty());
    }

    /// Hashes `k` to `(k % 5) | (k % 7) << 60`: keys share low slots by
    /// fives, split (or not) only at the last level, and collide fully
    /// when equal mod 35 — every depth of the trie, L-nodes included.
    #[derive(Clone, Copy, Default)]
    struct DeepCollide;
    #[derive(Default)]
    struct DeepHasher(u64);
    impl Hasher for DeepHasher {
        fn finish(&self) -> u64 {
            (self.0 % 5) | ((self.0 % 7) << 60)
        }
        fn write(&mut self, _: &[u8]) {}
        fn write_u64(&mut self, i: u64) {
            self.0 = i;
        }
    }
    impl BuildHasher for DeepCollide {
        type Hasher = DeepHasher;
        fn build_hasher(&self) -> DeepHasher {
            DeepHasher::default()
        }
    }

    /// Each node's bitmap and branches, depth first; L-node keys sorted.
    fn shape<S>(t: &CTrie<u64, u64, S>) -> String
    where
        S: BuildHasher + Clone + Send + Sync + 'static,
    {
        fn walk<S>(t: &CTrie<u64, u64, S>, m: &MainNode<u64, u64>, out: &mut String)
        where
            S: BuildHasher + Clone + Send + Sync + 'static,
        {
            match &m.kind {
                MainKind::C(cn) => {
                    out.push_str(&format!("C{:x}[", cn.bitmap));
                    for b in &cn.array {
                        match b {
                            Branch::S(sn) => out.push_str(&format!("{}={},", sn.key, sn.value)),
                            Branch::I(i) => walk(t, &t.resolve_main(i), out),
                        }
                    }
                    out.push(']');
                }
                MainKind::T(sn) => out.push_str(&format!("T{}", sn.key)),
                MainKind::L(ln) => {
                    let mut kv: Vec<_> = ln.entries.iter().map(|s| (s.key, s.value)).collect();
                    kv.sort_unstable();
                    out.push_str(&format!("L{kv:?}"));
                }
            }
        }
        let mut out = String::new();
        walk(t, &t.root_main_arc(), &mut out);
        out
    }

    /// `n` entries over `n / 2 + 1` keys, so most keys come twice.
    fn with_duplicates(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| ((i * 7919) % (n / 2 + 1), i)).collect()
    }

    fn built_like_inserts<S>(hasher: S, entries: &[(u64, u64)])
    where
        S: BuildHasher + Clone + Send + Sync + 'static,
    {
        let bulk = CTrie::with_hasher(hasher.clone());
        let gen = bulk.root_generation();
        let before = CTrie::<u64, u64, S>::bulk_fallbacks();
        bulk.from_entries(entries.iter().copied());
        let seq = CTrie::with_hasher(hasher);
        for &(k, v) in entries {
            seq.insert(k, v);
        }
        let n = entries.len();
        assert_eq!(shape(&bulk), shape(&seq), "{n} entries");
        assert_eq!(bulk.root_generation(), gen, "the build takes no snapshot");
        assert_eq!(CTrie::<u64, u64, S>::bulk_fallbacks(), before);
        for &(k, _) in entries {
            assert_eq!(bulk.lookup(&k), seq.lookup(&k), "key {k}");
        }
    }

    #[test]
    fn bottom_up_build_has_the_shape_of_inserts() {
        let sizes: &[u64] = if cfg!(miri) {
            &[1, 2, 40]
        } else {
            &[1, 2, 33, 40, 1000, 5000]
        };
        for &n in sizes {
            let entries = with_duplicates(n);
            built_like_inserts(FxBuildHasher, &entries);
            built_like_inserts(DeepCollide, &entries);
            built_like_inserts(CollideAll, &entries);
        }
    }

    #[test]
    fn a_built_collision_list_contracts_as_keys_leave() {
        let t: CTrie<u64, u64, CollideAll> = CTrie::with_hasher(CollideAll);
        t.from_entries(with_duplicates(24));
        let mut live: HashMap<u64, u64> = with_duplicates(24).into_iter().collect();
        assert_eq!(t.len(), live.len());
        let mut keys: Vec<u64> = live.keys().copied().collect();
        keys.sort_unstable();
        let last = keys.pop().unwrap();
        for k in keys {
            assert_eq!(t.remove(&k), live.remove(&k), "remove {k}");
            for (k, v) in &live {
                assert_eq!(t.lookup(k), Some(*v), "key {k}");
            }
        }
        // One key left: the L-node entombed it and the tomb contracted
        // up into the root as a singleton.
        assert_eq!(
            shape(&t),
            format!("C{:x}[{last}={},]", 1u32 << (42 & 31), live[&last])
        );
        assert_eq!(t.remove(&last), live.remove(&last));
        assert!(t.is_empty());
    }

    #[test]
    fn a_load_into_a_populated_trie_inserts_entry_by_entry() {
        let t: CTrie<u64, u64> = CTrie::new();
        t.insert(3, 30);
        t.from_entries([(3, 31), (4, 40), (3, 32)]);
        assert_eq!(t.lookup(&3), Some(32));
        assert_eq!(t.lookup(&4), Some(40));
        assert_eq!(t.len(), 2);
        // Emptied again, the next load builds bottom-up.
        t.remove(&3);
        t.remove(&4);
        t.from_entries([(5, 50), (6, 60)]);
        assert_eq!(t.lookup(&5), Some(50));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn collision_snapshot_isolation() {
        let t: CTrie<u64, u64, CollideAll> = CTrie::with_hasher(CollideAll);
        for i in 0..16 {
            t.insert(i, i);
        }
        let snap = t.read_only_snapshot();
        for i in 16..32 {
            t.insert(i, i);
        }
        assert_eq!(snap.len(), 16);
        assert_eq!(t.len(), 32);
    }

    #[test]
    #[cfg_attr(miri, ignore = "loop/thread count too heavy for the interpreter")]
    fn concurrent_inserts_disjoint_ranges() {
        let t = Arc::new(CTrie::<u64, u64>::new());
        let threads: Vec<_> = (0..8u64)
            .map(|tid| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..2000 {
                        let k = tid * 1_000_000 + i;
                        assert_eq!(t.insert(k, k + 1), None);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(t.len(), 16_000);
        for tid in 0..8u64 {
            for i in 0..2000 {
                let k = tid * 1_000_000 + i;
                assert_eq!(t.lookup(&k), Some(k + 1));
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "loop/thread count too heavy for the interpreter")]
    fn concurrent_inserts_same_keys_last_writer_wins() {
        let t = Arc::new(CTrie::<u64, u64>::new());
        let threads: Vec<_> = (0..4u64)
            .map(|tid| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        t.insert(i, tid);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000 {
            let v = t.lookup(&i).unwrap();
            assert!(v < 4);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "loop/thread count too heavy for the interpreter")]
    fn concurrent_snapshot_under_writes() {
        const TOTAL: u64 = 100_000;
        let t = Arc::new(CTrie::<u64, u64>::new());
        let writer = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 0..TOTAL {
                    t.insert(i, i);
                }
            })
        };
        let mut last = 0usize;
        while last < TOTAL as usize {
            let snap = t.read_only_snapshot();
            let n = snap.len();
            assert!(n >= last, "snapshot sizes must be monotone: {n} < {last}");
            // Writer inserts keys in order, so a consistent snapshot holds
            // exactly the prefix 0..n. Verify a bounded sample plus the
            // boundaries.
            for k in (0..n as u64).step_by(1 + n / 64) {
                assert_eq!(
                    snap.lookup(&k),
                    Some(k),
                    "snapshot of size {n} missing key {k}"
                );
            }
            if n > 0 {
                assert_eq!(snap.lookup(&(n as u64 - 1)), Some(n as u64 - 1));
            }
            assert_eq!(
                snap.lookup(&(n as u64)),
                None,
                "snapshot of size {n} leaked key {n}"
            );
            last = n;
        }
        writer.join().unwrap();
        assert_eq!(t.len() as u64, TOTAL);
    }

    #[test]
    #[cfg_attr(miri, ignore = "loop/thread count too heavy for the interpreter")]
    fn concurrent_removes_and_inserts() {
        let t = Arc::new(CTrie::<u64, u64>::new());
        for i in 0..10_000 {
            t.insert(i, i);
        }
        let remover = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                let mut removed = 0;
                for i in 0..10_000 {
                    if t.remove(&i).is_some() {
                        removed += 1;
                    }
                }
                removed
            })
        };
        let inserter = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 10_000..20_000u64 {
                    t.insert(i, i);
                }
            })
        };
        assert_eq!(remover.join().unwrap(), 10_000);
        inserter.join().unwrap();
        assert_eq!(t.len(), 10_000);
        for i in 10_000..20_000u64 {
            assert_eq!(t.lookup(&i), Some(i));
        }
    }
}
