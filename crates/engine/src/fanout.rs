//! The one rule for running a job's partitions on threads.
//!
//! The paper's substrate runs each partition as a task on a fixed set of
//! executor cores. Here every partition fan-out — a query's execution
//! ([`crate::physical::execute_collect_partitions`], also under each
//! exchange and broadcast build), or the encode and the publish phase of
//! a chunk append — goes through [`fan_out`], which gives it its share of
//! the machine: with `in_flight` top-level fan-outs running in the process
//! (this one included), a fan-out gets `max(1, cores / in_flight)` threads,
//! never more than it has partitions ([`share`]). The calling thread is one
//! of them; scoped helpers are spawned for the rest, and every thread pulls
//! the next partition from one shared cursor until none is left. There is
//! no pool and nothing outlives the call.
//!
//! The share is counted per top-level fan-out, not per busy thread. A
//! fan-out started by a thread that is itself running a partition (an
//! exchange or a broadcast build under a running query) is nested: it
//! takes its share of the count its top-level fan-out already holds and
//! adds nothing to it, so a partition parked on an exchange's cache while
//! a sibling builds it does not shrink the build's share. A fan-out that
//! runs inline anyway (one partition, or a plan bounded to a few rows)
//! does not count either.
//!
//! `cores` is read once per process: `available_parallelism` reads cgroup
//! files on every call, which costs as much as the fan-out saves.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::error::{catch_panics, EngineError, Result};

/// Top-level fan-outs running now, process-wide.
static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is running a partition of a counted fan-out.
    static NESTED: Cell<bool> = const { Cell::new(false) };
}

/// The machine's cores, read on first use.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(crate::config::default_parallelism)
}

/// Top-level fan-outs in flight right now (zero when the process is idle).
pub fn in_flight() -> usize {
    IN_FLIGHT.load(Ordering::Acquire)
}

/// Threads, the calling one included, that a fan-out of `partitions`
/// partitions runs on, given `cores` cores and `in_flight` top-level
/// fan-outs in flight (itself included). A `bounded` fan-out — one whose
/// work is too small to pay for a thread — runs on the caller alone.
pub fn share(cores: usize, in_flight: usize, partitions: usize, bounded: bool) -> usize {
    if partitions == 0 {
        0
    } else if bounded {
        1
    } else {
        (cores / in_flight.max(1)).clamp(1, partitions)
    }
}

/// Counts one top-level fan-out in [`IN_FLIGHT`] while alive.
struct Registration;

impl Registration {
    /// Register, returning the guard and the count including this one.
    fn enter() -> (Registration, usize) {
        (Registration, IN_FLIGHT.fetch_add(1, Ordering::AcqRel) + 1)
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        IN_FLIGHT.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Marks the calling thread as running partitions until dropped, then
/// restores what it was.
struct NestedScope(bool);

impl NestedScope {
    fn enter() -> NestedScope {
        NestedScope(NESTED.replace(true))
    }
}

impl Drop for NestedScope {
    fn drop(&mut self) {
        NESTED.set(self.0);
    }
}

/// Run `task` over every item, each inside [`catch_panics`], on this
/// fan-out's [`share`] of the cores, and return the results in item order.
/// `bounded` runs every item on the calling thread.
///
/// A task that errors or panics fails only its own item: every other item
/// still runs, and the in-flight count is released however the tasks end.
pub fn fan_out<I, T>(
    items: Vec<I>,
    bounded: bool,
    task: impl Fn(I) -> Result<T> + Sync,
) -> Vec<Result<T>>
where
    I: Send,
    T: Send,
{
    let n = items.len();
    let inline = bounded || n <= 1;
    if inline {
        if n > 0 {
            idf_obs::global().exec_inline.inc();
        }
        return items
            .into_iter()
            .map(|i| catch_panics(|| task(i)))
            .collect();
    }
    let (_registration, in_flight) = if NESTED.get() {
        (None, in_flight())
    } else {
        let (r, count) = Registration::enter();
        (Some(r), count)
    };
    let threads = share(cores(), in_flight, n, false);
    let queue = Mutex::new(items.into_iter().enumerate());
    let work = || {
        let _nested = NestedScope::enter();
        let mut done = Vec::new();
        loop {
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, item)) = next else { break };
            done.push((i, catch_panics(|| task(item))));
        }
        done
    };
    let mut slots: Vec<Option<Result<T>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        // A helper the OS refuses is not an error: the threads that did
        // start drain the cursor without it.
        let helpers: Vec<_> = (1..threads)
            .filter_map(|_| std::thread::Builder::new().spawn_scoped(s, work).ok())
            .collect();
        if helpers.is_empty() {
            idf_obs::global().exec_inline.inc();
        } else {
            idf_obs::global()
                .exec_threads_spawned
                .add(helpers.len() as u64);
        }
        let mut done = work();
        for h in helpers {
            // Every task is panic-isolated; a failed join can only mean
            // the unwind escaped `catch_panics`, and the items that helper
            // took are reported below.
            done.extend(h.join().unwrap_or_default());
        }
        for (i, result) in done {
            slots[i] = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| Err(EngineError::internal("partition task panicked"))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_divides_the_cores_among_fan_outs_in_flight() {
        // Alone on two cores: the caller and one helper.
        assert_eq!(share(2, 1, 4, false), 2);
        // Two queries on two cores: each runs on its caller.
        assert_eq!(share(2, 2, 4, false), 1);
        assert_eq!(share(2, 3, 4, false), 1);
        assert_eq!(share(8, 3, 16, false), 2);
        // Never more threads than partitions, never fewer than one.
        assert_eq!(share(16, 1, 4, false), 4);
        assert_eq!(share(1, 1, 4, false), 1);
        assert_eq!(share(4, 0, 4, false), 4);
        // A bounded plan and a single partition run on the caller.
        assert_eq!(share(8, 1, 4, true), 1);
        assert_eq!(share(8, 1, 1, false), 1);
        assert_eq!(share(8, 1, 0, false), 0);
        assert_eq!(share(8, 1, 0, true), 0);
    }

    #[test]
    fn results_keep_item_order_and_failures_stay_with_their_item() {
        let out = fan_out((0..9).collect(), false, |i: usize| match i {
            3 => Err(EngineError::internal("three")),
            5 => panic!("five"),
            _ => Ok(i * 10),
        });
        assert_eq!(out.len(), 9);
        for (i, r) in out.iter().enumerate() {
            match i {
                3 => assert!(r.as_ref().unwrap_err().to_string().contains("three")),
                5 => assert!(r.as_ref().unwrap_err().to_string().contains("five")),
                _ => assert_eq!(*r.as_ref().unwrap(), i * 10),
            }
        }
        assert!(fan_out(Vec::<usize>::new(), false, Ok).is_empty());
        assert_eq!(fan_out(vec![7], true, Ok).pop().unwrap().unwrap(), 7);
    }

    #[test]
    fn a_nested_fan_out_takes_its_share_without_a_count() {
        let seen = fan_out(vec![0, 1], false, |_| {
            let outer = in_flight();
            let inner = fan_out(vec![0, 1], false, |_| Ok(in_flight()));
            Ok((outer, NESTED.get(), inner))
        });
        for r in seen {
            let (outer, nested, inner) = r.unwrap();
            assert!(outer >= 1);
            assert!(nested);
            for count in inner {
                assert!(count.unwrap() >= 1);
            }
        }
        assert!(!NESTED.get(), "the caller's flag is restored");
    }
}
