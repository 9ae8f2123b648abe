//! Offline stand-in for the `crossbeam-epoch` crate.
//!
//! The build environment has no access to a crates.io mirror, so the
//! workspace vendors the API subset the cTrie uses: tagged atomic
//! pointers ([`Atomic`], [`Shared`]) and guard-scoped deferred execution
//! ([`Guard`], [`pin`], [`unprotected`]).
//!
//! # Reclamation
//!
//! Epoch based, as in crossbeam. One global epoch counts up. Each thread
//! owns a cache-padded slot, taken at its first pin and returned for reuse
//! when the thread exits.
//!
//! - [`pin`] stores `epoch | PINNED` into the thread's slot and issues a
//!   `SeqCst` fence. A nested pin only bumps a thread-local count.
//! - [`Guard::defer`] issues a `SeqCst` fence, reads the global epoch `e`
//!   and pushes `(e, closure)` onto the thread's own bag.
//! - The epoch advances from `g` to `g + 1` only if every pinned slot
//!   shows `g`. A closure tagged `e` runs once the epoch reaches `e + 2`.
//!
//! This is sound under the contract crossbeam puts on callers: a pointer
//! is deferred only after it has been unlinked, so a thread that pins
//! after the defer cannot reach it. A thread that can still hold it must
//! have pinned before the unlink, at some epoch `p`. The fence in its
//! `pin` and the fence between the unlink and the tag read in `defer`
//! make the tag at least `p`. While that thread stays pinned its slot
//! shows `p`, so the epoch can reach `p + 1` but never `p + 2`, and the
//! closure waits for the guard to drop.
//!
//! `pin`, unpin and `defer` touch only the calling thread's slot and bag.
//! Every 64 unpins, or on every unpin while its bag is long and its
//! oldest closure still waits, an unpin tries to advance the epoch. That
//! try, thread registration and thread exit are the only places that
//! lock, and the try gives up rather than wait. An unpin then runs a
//! bounded number of its own ready closures: 32 plus twice the number it
//! deferred under the guard. A thread that exits hands its unfreed bag to
//! an orphan list; the thread whose advance makes an orphaned bag ready
//! adopts it and runs it the same way.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::mem::align_of;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

type Deferred = Box<dyn FnOnce() + Send>;

/// Deferred closures with the global epoch each was tagged with, in the
/// order they were deferred.
type Bag = VecDeque<(u64, Deferred)>;

/// Unpins between two tries at advancing the epoch.
const ADVANCE_EVERY: usize = 64;

/// A bag at least this long tries to advance on every unpin until its
/// oldest closure is ready.
const BAG_LARGE: usize = 256;

/// Ready closures an unpin may run beyond twice those it deferred.
const COLLECT_STEPS: usize = 32;

/// Bit 0 of a slot's word: its thread is pinned. The epoch sits above it.
const PINNED: u64 = 1;

static EPOCH: AtomicU64 = AtomicU64::new(0);

/// Whether a closure tagged `tag` may run once the global epoch is `epoch`.
fn ready(tag: u64, epoch: u64) -> bool {
    epoch.saturating_sub(tag) >= 2
}

/// One thread's announcement of the epoch it is pinned at, on cache lines
/// of its own so that pins on different threads do not contend.
#[repr(align(128))]
struct Slot {
    /// `epoch << 1 | PINNED` while the owner is pinned, 0 while it is not.
    state: AtomicU64,
    /// How many of the owner's guards are live. Only the owner touches it.
    depth: AtomicUsize,
}

impl Slot {
    /// A free slot, or a new one when every slot has an owner.
    fn acquire() -> &'static Slot {
        let mut reg = registry();
        if let Some(slot) = reg.free.pop() {
            return slot;
        }
        let slot: &'static Slot = Box::leak(Box::new(Slot {
            state: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
        }));
        reg.slots.push(slot);
        slot
    }

    /// Hand an unpinned slot back for the next thread to take.
    fn release(&'static self) {
        registry().free.push(self);
    }

    fn enter(&self) {
        let depth = self.depth.load(Ordering::Relaxed);
        self.depth.store(depth + 1, Ordering::Relaxed);
        if depth == 0 {
            let epoch = EPOCH.load(Ordering::Relaxed);
            // Release: pairs with the Acquire load in `try_advance`, so what
            // this thread read under its previous guard happens before an
            // advance that sees this pin.
            self.state.store(epoch << 1 | PINNED, Ordering::Release);
            // Orders the store before every load made under the guard.
            fence(Ordering::SeqCst);
        }
    }

    /// Leave one guard; true when it was the outermost and the slot is now
    /// unpinned.
    fn leave(&self) -> bool {
        let depth = self.depth.load(Ordering::Relaxed) - 1;
        self.depth.store(depth, Ordering::Relaxed);
        if depth == 0 {
            // Release: pairs with the Acquire load in `try_advance`.
            self.state.store(0, Ordering::Release);
        }
        depth == 0
    }
}

struct Registry {
    /// Every slot ever made; the free ones read unpinned.
    slots: Vec<&'static Slot>,
    free: Vec<&'static Slot>,
    /// Bags of exited threads, each with the newest tag in it.
    orphans: Vec<(u64, Bag)>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    slots: Vec::new(),
    free: Vec::new(),
    orphans: Vec::new(),
});

// No closure runs under the registry lock and every update is a single
// push or pop, so a poisoned registry is still consistent.
fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Advance the global epoch if every pinned slot has seen it. On success,
/// returns the new epoch and the orphaned bags it made ready. Returns
/// `None` without waiting when another thread holds the registry.
fn try_advance() -> Option<(u64, Vec<Bag>)> {
    let mut reg = match REGISTRY.try_lock() {
        Ok(reg) => reg,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => return None,
    };
    let epoch = EPOCH.load(Ordering::Relaxed);
    // Pairs with the fence in `Slot::enter`: a pin this loop does not see
    // is ordered after this fence, so the loads made under it cannot reach
    // a pointer unlinked before it.
    fence(Ordering::SeqCst);
    for slot in &reg.slots {
        let state = slot.state.load(Ordering::Acquire);
        if state & PINNED != 0 && state >> 1 != epoch {
            return None;
        }
    }
    let next = epoch + 1;
    // Release: pairs with the Acquire load in `Local::collect`, which runs
    // a closure only after seeing the epoch that made it ready.
    EPOCH.store(next, Ordering::Release);
    let mut adopted = Vec::new();
    let mut i = 0;
    while i < reg.orphans.len() {
        if ready(reg.orphans[i].0, next) {
            adopted.push(reg.orphans.swap_remove(i).1);
        } else {
            i += 1;
        }
    }
    Some((next, adopted))
}

/// A thread's epoch state: its slot and its bag of deferred closures.
struct Local {
    slot: &'static Slot,
    bag: RefCell<Bag>,
    unpins: Cell<usize>,
    /// Closures deferred since the last outermost unpin.
    deferred: Cell<usize>,
}

thread_local! {
    static LOCAL: Local = Local {
        slot: Slot::acquire(),
        bag: RefCell::new(VecDeque::new()),
        unpins: Cell::new(0),
        deferred: Cell::new(0),
    };
}

impl Local {
    fn push(&self, tag: u64, f: Deferred) {
        self.bag.borrow_mut().push_back((tag, f));
        self.deferred.set(self.deferred.get() + 1);
    }

    /// Run after the outermost guard drops: maybe advance the epoch, then
    /// run a bounded number of ready closures. No bag borrow is held while
    /// a closure runs, so a closure may pin and defer.
    fn collect(&self) {
        let unpins = self.unpins.get().wrapping_add(1);
        self.unpins.set(unpins);
        let budget = COLLECT_STEPS + 2 * self.deferred.replace(0);
        let due = unpins.is_multiple_of(ADVANCE_EVERY);
        let (len, oldest) = {
            let bag = self.bag.borrow();
            (bag.len(), bag.front().map(|&(tag, _)| tag))
        };
        if len == 0 && !due {
            return;
        }
        let mut epoch = EPOCH.load(Ordering::Acquire);
        let waiting = oldest.is_some_and(|tag| !ready(tag, epoch));
        if due || (len >= BAG_LARGE && waiting) {
            if let Some((next, adopted)) = try_advance() {
                epoch = next;
                // Adopted closures are ready, so they go ahead of this
                // thread's own, which may not be.
                let mut bag = self.bag.borrow_mut();
                for orphan in adopted {
                    for item in orphan.into_iter().rev() {
                        bag.push_front(item);
                    }
                }
            }
        }
        for _ in 0..budget {
            let next = {
                let mut bag = self.bag.borrow_mut();
                match bag.front() {
                    Some(&(tag, _)) if ready(tag, epoch) => bag.pop_front(),
                    _ => None,
                }
            };
            match next {
                Some((_, f)) => f(),
                None => break,
            }
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        let bag = std::mem::take(self.bag.get_mut());
        let mut reg = registry();
        if let Some(newest) = bag.iter().map(|&(tag, _)| tag).max() {
            reg.orphans.push((newest, bag));
        }
        // A guard that outlives this `Local` (one kept in another thread
        // local) releases the slot itself when it drops.
        if self.slot.depth.load(Ordering::Relaxed) == 0 {
            reg.free.push(self.slot);
        }
    }
}

/// How many slots exist: at most the number of threads ever pinned at
/// once, not the number of threads ever spawned.
#[doc(hidden)]
pub fn registered_slots() -> usize {
    registry().slots.len()
}

/// A scope during which shared pointers loaded through it stay valid.
///
/// Like crossbeam's, a guard is neither `Send` nor `Sync`: it pins the
/// thread that made it.
pub struct Guard {
    /// `None` for the [`unprotected`] guard.
    slot: Option<&'static Slot>,
    _not_send: PhantomData<*mut ()>,
}

/// Pin the current thread: pointers loaded while the returned guard is
/// alive will not be reclaimed until the guard drops.
pub fn pin() -> Guard {
    // During thread-local teardown `LOCAL` may already be gone; such a
    // guard pins a slot of its own and gives it back when it drops.
    let slot = LOCAL
        .try_with(|local| local.slot)
        .unwrap_or_else(|_| Slot::acquire());
    slot.enter();
    Guard {
        slot: Some(slot),
        _not_send: PhantomData,
    }
}

/// A guard for data structures that are provably not shared (e.g. inside
/// `Drop` of the owning structure). Deferred closures run immediately.
///
/// # Safety
///
/// The caller must guarantee no other thread can concurrently access the
/// pointers loaded or deferred through this guard.
pub unsafe fn unprotected() -> &'static Guard {
    struct Unprotected(Guard);
    // SAFETY: the unprotected guard has no slot: it reads no thread state,
    // its `defer` runs the closure inline and its drop never runs, so
    // sharing it between threads shares nothing thread-bound.
    unsafe impl Sync for Unprotected {}
    static UNPROTECTED: Unprotected = Unprotected(Guard {
        slot: None,
        _not_send: PhantomData,
    });
    &UNPROTECTED.0
}

impl Guard {
    /// Defer `f` until every guard that was live when it was deferred has
    /// dropped. On the unprotected guard, runs `f` immediately.
    pub fn defer<F, R>(&self, f: F)
    where
        F: FnOnce() -> R + Send + 'static,
    {
        if self.slot.is_none() {
            f();
            return;
        }
        let mut f: Option<Deferred> = Some(Box::new(move || {
            f();
        }));
        // Orders the caller's unlink before the tag read (see the crate doc).
        fence(Ordering::SeqCst);
        let tag = EPOCH.load(Ordering::Relaxed);
        let _ = LOCAL.try_with(|local| {
            if let Some(f) = f.take() {
                local.push(tag, f);
            }
        });
        if let Some(f) = f {
            // Thread-local teardown: straight to the orphan list.
            registry().orphans.push((tag, VecDeque::from([(tag, f)])));
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(slot) = self.slot else { return };
        if !slot.leave() {
            return;
        }
        if LOCAL.try_with(Local::collect).is_err() {
            // No live `Local` owns this slot: it was pinned during
            // thread-local teardown, or it outlived its thread's `Local`.
            slot.release();
        }
    }
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Guard")
            .field("pinned", &self.slot.is_some())
            .finish()
    }
}

const fn tag_mask<T>() -> usize {
    align_of::<T>() - 1
}

/// A possibly-tagged shared pointer loaded from an [`Atomic`], valid for
/// the lifetime `'g` of the guard it was loaded under.
pub struct Shared<'g, T> {
    data: usize,
    _marker: PhantomData<(&'g (), *const T)>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Shared<'_, T> {}

impl<'g, T> Shared<'g, T> {
    /// The null pointer (tag 0).
    pub fn null() -> Self {
        Shared {
            data: 0,
            _marker: PhantomData,
        }
    }

    /// Whether the pointer (ignoring the tag) is null.
    pub fn is_null(&self) -> bool {
        self.data & !tag_mask::<T>() == 0
    }

    /// The raw pointer with the tag bits stripped.
    pub fn as_raw(&self) -> *const T {
        (self.data & !tag_mask::<T>()) as *const T
    }

    /// The tag stored in the pointer's low alignment bits.
    pub fn tag(&self) -> usize {
        self.data & tag_mask::<T>()
    }

    /// The same pointer with its tag replaced by `tag`.
    pub fn with_tag(&self, tag: usize) -> Self {
        debug_assert!(tag <= tag_mask::<T>(), "tag {tag} exceeds alignment of T");
        Shared {
            data: (self.data & !tag_mask::<T>()) | (tag & tag_mask::<T>()),
            _marker: PhantomData,
        }
    }

    /// Dereference the pointer.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null, properly aligned, and point to a
    /// live `T` for the duration of `'g`.
    pub unsafe fn deref(&self) -> &'g T {
        &*self.as_raw()
    }
}

impl<T> From<*const T> for Shared<'_, T> {
    fn from(raw: *const T) -> Self {
        debug_assert!(
            raw as usize & tag_mask::<T>() == 0,
            "pointer under-aligned for tagging"
        );
        Shared {
            data: raw as usize,
            _marker: PhantomData,
        }
    }
}

impl<T> fmt::Debug for Shared<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shared({:p}, tag={})", self.as_raw(), self.tag())
    }
}

/// The error returned by a failed [`Atomic::compare_exchange`].
pub struct CompareExchangeError<'g, T> {
    /// The value the cell actually held.
    pub current: Shared<'g, T>,
}

/// An atomic, taggable pointer cell. Does not own its pointee: like
/// crossbeam's `Atomic`, dropping the cell does not drop the target —
/// ownership is managed by the caller (here, via `Arc` strong counts).
pub struct Atomic<T> {
    data: AtomicUsize,
    _marker: PhantomData<*mut T>,
}

// SAFETY: `Atomic<T>` is just an `AtomicUsize` holding a tagged address; the
// `PhantomData<*mut T>` only exists for variance. Sending the cell moves no
// `T`, and the `T: Send + Sync` bound ensures the pointee itself may be
// reached from another thread.
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
// SAFETY: all shared access goes through the inner `AtomicUsize`; concurrent
// loads/stores are synchronized by the atomic, and `T: Send + Sync` covers
// the pointee reached through loaded `Shared` handles.
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// A cell holding the null pointer.
    pub fn null() -> Self {
        Atomic {
            data: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    /// Load the current pointer under `_guard`.
    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            data: self.data.load(ord),
            _marker: PhantomData,
        }
    }

    /// Unconditionally store `new`.
    pub fn store(&self, new: Shared<'_, T>, ord: Ordering) {
        self.data.store(new.data, ord);
    }

    /// Compare-and-swap `current` for `new`; on failure returns the
    /// observed value in [`CompareExchangeError::current`].
    pub fn compare_exchange<'g>(
        &self,
        current: Shared<'_, T>,
        new: Shared<'_, T>,
        success: Ordering,
        failure: Ordering,
        _guard: &'g Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T>> {
        match self
            .data
            .compare_exchange(current.data, new.data, success, failure)
        {
            Ok(prev) => Ok(Shared {
                data: prev,
                _marker: PhantomData,
            }),
            Err(observed) => Err(CompareExchangeError {
                current: Shared {
                    data: observed,
                    _marker: PhantomData,
                },
            }),
        }
    }
}

impl<T> fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Atomic({:#x})", self.data.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::SeqCst;
    use std::sync::atomic::{AtomicBool, AtomicUsize as Counter};
    use std::sync::{mpsc, Arc};
    use std::thread;
    use std::time::{Duration, Instant};

    /// A test that holds a guard on purpose stalls every other test's
    /// reclamation, and the slot count sees every test's threads. So the
    /// tests that pin run one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Far more unpins than two epoch advances take.
    const CYCLES: usize = 64 * ADVANCE_EVERY;

    /// Pin and unpin on this thread until `done()` holds, at most `CYCLES`
    /// times. Returns whether it held.
    fn cycle_until(done: impl Fn() -> bool) -> bool {
        for _ in 0..CYCLES {
            if done() {
                return true;
            }
            drop(pin());
        }
        done()
    }

    #[test]
    fn tag_roundtrip() {
        let b = Box::into_raw(Box::new(42u64));
        let s: Shared<'_, u64> = Shared::from(b as *const u64);
        assert_eq!(s.tag(), 0);
        let t = s.with_tag(1);
        assert_eq!(t.tag(), 1);
        assert_eq!(t.as_raw(), b as *const u64);
        assert!(!t.is_null());
        assert!(Shared::<u64>::null().is_null());
        // SAFETY: `b` came from `Box::into_raw` above and is freed once.
        unsafe { drop(Box::from_raw(b)) };
    }

    #[test]
    fn cas_success_and_failure() {
        let _serial = serial();
        let g = pin();
        let a = Box::into_raw(Box::new(1u64)) as *const u64;
        let b = Box::into_raw(Box::new(2u64)) as *const u64;
        let cell: Atomic<u64> = Atomic::null();
        cell.store(Shared::from(a), SeqCst);
        let cur = cell.load(SeqCst, &g);
        assert!(cell
            .compare_exchange(cur, Shared::from(b), SeqCst, SeqCst, &g)
            .is_ok());
        let Err(err) = cell.compare_exchange(cur, Shared::from(a), SeqCst, SeqCst, &g) else {
            panic!("stale CAS must fail")
        };
        assert_eq!(err.current.as_raw(), b);
        // SAFETY: `a` and `b` came from `Box::into_raw` above; the cell holds
        // only copies of the addresses, so each box is freed exactly once.
        unsafe {
            drop(Box::from_raw(a as *mut u64));
            drop(Box::from_raw(b as *mut u64));
        }
    }

    #[test]
    fn defer_waits_for_guards_pinned_before_it() {
        let _serial = serial();
        let ran = Arc::new(AtomicBool::new(false));
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let reader = thread::spawn(move || {
            let guard = pin();
            pinned_tx.send(()).expect("test thread waits");
            release_rx.recv().expect("test thread releases");
            drop(guard);
        });
        pinned_rx.recv().expect("reader pins");
        {
            let g = pin();
            let r = Arc::clone(&ran);
            g.defer(move || r.store(true, SeqCst));
        }
        assert!(
            !cycle_until(|| ran.load(SeqCst)),
            "ran while a guard pinned before the defer was live"
        );
        release_tx.send(()).expect("reader waits");
        reader.join().expect("reader");
        assert!(
            cycle_until(|| ran.load(SeqCst)),
            "not run once that guard dropped"
        );
    }

    /// Two readers hand a turn back and forth, and each re-pins only on its
    /// turn, so one of them is always pinned and no instant is quiescent.
    /// A writer defers for about a second meanwhile; the closures it has
    /// deferred but that have not run must stay few. Reclamation that
    /// waits for a quiescent instant fails this within milliseconds.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn backlog_stays_bounded_without_quiescence() {
        const BOUND: usize = 100_000;
        static DEFERRED: Counter = Counter::new(0);
        static RAN: Counter = Counter::new(0);
        let _serial = serial();
        let turn = Counter::new(0);
        let stop = AtomicBool::new(false);
        let pinned = std::sync::Barrier::new(3);
        let max_pending = thread::scope(|s| {
            for me in 0..2 {
                let (turn, stop, pinned) = (&turn, &stop, &pinned);
                s.spawn(move || {
                    let mut guard = pin();
                    pinned.wait();
                    while !stop.load(SeqCst) {
                        if turn.load(SeqCst) % 2 == me {
                            drop(guard);
                            guard = pin();
                            turn.fetch_add(1, SeqCst);
                        } else {
                            thread::yield_now();
                        }
                    }
                    drop(guard);
                });
            }
            pinned.wait();
            let start = Instant::now();
            let mut max_pending = 0;
            while start.elapsed() < Duration::from_secs(1) {
                let g = pin();
                for _ in 0..4 {
                    DEFERRED.fetch_add(1, SeqCst);
                    g.defer(|| RAN.fetch_add(1, SeqCst));
                }
                drop(g);
                // Leaves the readers CPU time on a small machine.
                thread::yield_now();
                let pending = DEFERRED.load(SeqCst) - RAN.load(SeqCst);
                max_pending = max_pending.max(pending);
                if pending > BOUND {
                    break;
                }
            }
            stop.store(true, SeqCst);
            max_pending
        });
        assert!(
            max_pending <= BOUND,
            "{max_pending} deferred closures pending with no quiescent instant"
        );
    }

    #[test]
    fn exiting_thread_hands_over_its_garbage() {
        static RAN: AtomicBool = AtomicBool::new(false);
        let _serial = serial();
        thread::spawn(|| pin().defer(|| RAN.store(true, SeqCst)))
            .join()
            .expect("deferring thread");
        assert!(
            cycle_until(|| RAN.load(SeqCst)),
            "an exited thread's garbage never ran"
        );
    }

    #[test]
    fn pin_during_thread_local_teardown() {
        static RAN: AtomicBool = AtomicBool::new(false);
        struct PinOnDrop;
        impl Drop for PinOnDrop {
            fn drop(&mut self) {
                pin().defer(|| RAN.store(true, SeqCst));
            }
        }
        thread_local!(static LATE: PinOnDrop = const { PinOnDrop });
        let _serial = serial();
        // `LATE` registers its destructor before `LOCAL` does, so it runs
        // after `LOCAL`'s: its pin finds no thread state.
        thread::spawn(|| {
            LATE.with(|_| {});
            drop(pin());
        })
        .join()
        .expect("a pin during thread-local teardown");
        assert!(
            cycle_until(|| RAN.load(SeqCst)),
            "garbage deferred during teardown never ran"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn short_lived_threads_reuse_slots() {
        let _serial = serial();
        for _ in 0..2_500 {
            // `join`, unlike a scope's end, waits for thread-local teardown,
            // which is where a slot goes back.
            let batch: Vec<_> = (0..4).map(|_| thread::spawn(|| drop(pin()))).collect();
            for t in batch {
                t.join().expect("short-lived thread");
            }
        }
        let slots = registered_slots();
        assert!(slots <= 16, "10 000 threads left {slots} slots");
    }

    #[test]
    fn unprotected_defers_run_inline() {
        let n = Counter::new(0);
        let n_ref: &'static Counter = Box::leak(Box::new(n));
        // SAFETY: nothing in this test dereferences retired pointers; the
        // unprotected guard is only used to observe inline defer execution.
        let g = unsafe { unprotected() };
        g.defer(move || {
            n_ref.fetch_add(1, SeqCst);
        });
        assert_eq!(n_ref.load(SeqCst), 1);
    }
}
