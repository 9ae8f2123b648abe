//! Offline stand-in for the `crossbeam-epoch` crate.
//!
//! The build environment has no access to a crates.io mirror, so the
//! workspace vendors the API subset the cTrie uses: tagged atomic
//! pointers ([`Atomic`], [`Shared`]) and guard-scoped deferred execution
//! ([`Guard`], [`pin`], [`unprotected`]).
//!
//! Reclamation is quiescent-state based rather than epoch based: a global
//! registry counts active guards and queues deferred closures; the guard
//! whose drop brings the active count to zero drains the queue. This is
//! sound under the same contract crossbeam requires of callers — a
//! pointer may only be deferred after it has been unlinked from the
//! shared structure, so a thread that pins *after* the defer can no
//! longer reach it, and any thread that could still hold the pointer
//! keeps the active count non-zero until it unpins. The count/queue pair
//! is updated under one mutex, so "count reached zero" and "snapshot the
//! queue" are a single atomic step.
//!
//! The trade-off versus real epochs is throughput under heavy churn
//! (drains happen only at full quiescence and pin/unpin serialize on a
//! mutex), which is acceptable for this workspace: guards are short-lived
//! and reads vastly outnumber reclamation events.

use std::fmt;
use std::marker::PhantomData;
use std::mem::align_of;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

type Deferred = Box<dyn FnOnce() + Send>;

struct Registry {
    active: usize,
    garbage: Vec<Deferred>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    active: 0,
    garbage: Vec::new(),
});

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A scope during which shared pointers loaded through it stay valid.
pub struct Guard {
    pinned: bool,
}

/// Pin the current thread: pointers loaded while the returned guard is
/// alive will not be reclaimed until the guard drops.
pub fn pin() -> Guard {
    registry().active += 1;
    Guard { pinned: true }
}

/// A guard for data structures that are provably not shared (e.g. inside
/// `Drop` of the owning structure). Deferred closures run immediately.
///
/// # Safety
///
/// The caller must guarantee no other thread can concurrently access the
/// pointers loaded or deferred through this guard.
pub unsafe fn unprotected() -> &'static Guard {
    static UNPROTECTED: Guard = Guard { pinned: false };
    &UNPROTECTED
}

impl Guard {
    /// Defer `f` until every pointer loaded under a currently-live guard
    /// is certain to be unreachable. On the unprotected guard, runs `f`
    /// immediately.
    pub fn defer<F, R>(&self, f: F)
    where
        F: FnOnce() -> R + Send + 'static,
    {
        if self.pinned {
            registry().garbage.push(Box::new(move || {
                f();
            }));
        } else {
            f();
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.pinned {
            return;
        }
        let drained = {
            let mut reg = registry();
            reg.active -= 1;
            if reg.active == 0 {
                std::mem::take(&mut reg.garbage)
            } else {
                Vec::new()
            }
        };
        // Run outside the lock: a drain can cascade into nested drops
        // that use the unprotected guard (which runs defers inline).
        for f in drained {
            f();
        }
    }
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Guard")
            .field("pinned", &self.pinned)
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
    use std::sync::{
        atomic::{AtomicBool, AtomicUsize as Counter},
        Arc, Mutex, MutexGuard, PoisonError,
    };

    /// The registry is process-wide, so a test that pins while another
    /// asserts on quiescence would keep the count above zero. Every test
    /// here that pins takes this lock.
    static PINNING: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        PINNING.lock().unwrap_or_else(PoisonError::into_inner)
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
    fn defer_waits_for_all_guards() {
        let _serial = serial();
        let ran = Arc::new(AtomicBool::new(false));
        let outer = pin();
        {
            let inner = pin();
            let r = Arc::clone(&ran);
            inner.defer(move || r.store(true, SeqCst));
            drop(inner);
        }
        assert!(!ran.load(SeqCst), "outer guard still active");
        drop(outer);
        assert!(ran.load(SeqCst), "drained at quiescence");
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
