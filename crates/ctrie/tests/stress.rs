//! Multithreaded stress tests for the lock-free cTrie: mixed workloads,
//! snapshot storms, and cross-thread visibility. These are the tests that
//! would catch reclamation and GCAS/RDCSS races.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use idf_ctrie::CTrie;

#[test]
fn mixed_insert_remove_lookup_across_threads() {
    let t = Arc::new(CTrie::<u64, u64>::new());
    const KEYS: u64 = 512;
    const OPS: u64 = 30_000;
    let threads: Vec<_> = (0..4u64)
        .map(|tid| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                // Each thread owns a disjoint key range for removals, so
                // per-key effects stay verifiable; lookups roam everywhere.
                let base = tid * KEYS;
                for i in 0..OPS {
                    let k = base + (i * 31 % KEYS);
                    match i % 4 {
                        0 | 1 => {
                            t.insert(k, i);
                        }
                        2 => {
                            t.remove(&k);
                        }
                        _ => {
                            // Any observed value must come from this range.
                            if let Some(v) = t.lookup(&k) {
                                assert!(v < OPS);
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for th in threads {
        th.join().unwrap();
    }
    // Post-quiescence sanity: structure still fully functional.
    t.insert(999_999, 1);
    assert_eq!(t.lookup(&999_999), Some(1));
    let n = t.len();
    assert_eq!(t.iter().count(), n);
}

#[test]
fn snapshot_storm_under_writes() {
    let t = Arc::new(CTrie::<u64, u64>::new());
    for i in 0..1_000 {
        t.insert(i, 0);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2u64)
        .map(|tid| {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut round = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    for k in (tid * 500)..(tid * 500 + 500) {
                        t.insert(k, round);
                    }
                    round += 1;
                }
            })
        })
        .collect();
    // Snapshot storm: every snapshot must be internally consistent — all
    // 1000 keys present (writers only overwrite, never remove).
    for _ in 0..200 {
        let snap = t.read_only_snapshot();
        let mut seen = 0;
        for k in 0..1_000 {
            if snap.lookup(&k).is_some() {
                seen += 1;
            }
        }
        assert_eq!(seen, 1_000, "snapshot lost keys");
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
}

#[test]
fn writable_snapshots_fork_under_concurrency() {
    let t = Arc::new(CTrie::<u64, u64>::new());
    for i in 0..5_000 {
        t.insert(i, i);
    }
    let forks: Vec<_> = (0..4u64)
        .map(|tid| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                let fork = t.snapshot();
                // Each fork gets private keys; the shared prefix must stay.
                for i in 0..1_000 {
                    fork.insert(1_000_000 + tid * 10_000 + i, tid);
                }
                for i in (0..5_000).step_by(97) {
                    assert_eq!(fork.lookup(&i), Some(i));
                }
                assert_eq!(fork.lookup(&(1_000_000 + tid * 10_000)), Some(tid));
                // Other forks' keys are invisible here.
                let other = 1_000_000 + ((tid + 1) % 4) * 10_000;
                assert_eq!(fork.lookup(&other), None);
                fork.len()
            })
        })
        .collect();
    for f in forks {
        assert_eq!(f.join().unwrap(), 6_000);
    }
    // The original never saw any fork's writes.
    assert_eq!(t.len(), 5_000);
}

#[test]
fn iterator_stays_consistent_during_churn() {
    let t = Arc::new(CTrie::<u64, u64>::new());
    for i in 0..10_000 {
        t.insert(i, i);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 10_000u64;
            while !stop.load(Ordering::Relaxed) {
                t.insert(i, i);
                t.remove(&(i - 10_000));
                i += 1;
            }
        })
    };
    for _ in 0..50 {
        // Inserts and removes alternate, so an atomic snapshot sees
        // either 10k or 10k+1 live keys (between the insert and the
        // paired remove) — never less, never more.
        let n = t.iter().count();
        assert!(
            n == 10_000 || n == 10_001,
            "snapshot saw inconsistent count {n}"
        );
    }
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();
}

#[test]
fn heavy_collision_chains_under_concurrency() {
    use std::hash::{BuildHasher, Hasher};
    #[derive(Clone, Copy, Default)]
    struct Mod8;
    struct Mod8Hasher(u64);
    impl Hasher for Mod8Hasher {
        fn finish(&self) -> u64 {
            self.0 % 8
        }
        fn write(&mut self, _: &[u8]) {}
        fn write_u64(&mut self, v: u64) {
            self.0 = v;
        }
    }
    impl BuildHasher for Mod8 {
        type Hasher = Mod8Hasher;
        fn build_hasher(&self) -> Mod8Hasher {
            Mod8Hasher(0)
        }
    }
    // All keys collide into 8 hash buckets → deep L-node usage.
    let t = Arc::new(CTrie::<u64, u64, Mod8>::with_hasher(Mod8));
    let threads: Vec<_> = (0..4u64)
        .map(|tid| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 0..500 {
                    let k = tid * 1000 + i;
                    t.insert(k, k);
                    assert_eq!(t.lookup(&k), Some(k));
                }
            })
        })
        .collect();
    for th in threads {
        th.join().unwrap();
    }
    assert_eq!(t.len(), 2_000);
    for tid in 0..4u64 {
        for i in 0..500 {
            let k = tid * 1000 + i;
            assert_eq!(t.lookup(&k), Some(k));
        }
    }
}

/// A bulk load into an empty trie races a thread taking read-only
/// snapshots and a thread probing the live trie. When the load's root GCAS
/// wins, every snapshot holds all of its keys or none, and a reader that
/// found one key never misses another afterwards. A snapshot that lands
/// between the empty check and the GCAS sends the load to per-entry
/// inserts; both outcomes must occur, and either way the trie ends holding
/// every key.
#[test]
fn a_bulk_load_is_all_or_nothing_against_snapshots() {
    const N: u64 = 4_000;
    let load = || (0..N).map(|k| (k, k + 1));
    // Uncontended, a load takes `alone`. Snapshots spaced up to four times
    // that apart leave most loads' windows clear.
    #[allow(clippy::disallowed_methods)] // paces a test thread, not a hot path
    let clock = std::time::Instant::now();
    CTrie::<u64, u64>::new().from_entries(load());
    let alone = clock.elapsed();
    let (mut built, mut fell_back) = (0, 0);
    for round in 0..400u64 {
        if built >= 5 && fell_back >= 5 {
            break;
        }
        let t = Arc::new(CTrie::<u64, u64>::new());
        let start = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));
        // Alternate rounds pause before each snapshot, so the load can win.
        let paced = round % 2 == 1;
        let snapshotter = {
            let (t, start, done) = (Arc::clone(&t), Arc::clone(&start), Arc::clone(&done));
            std::thread::spawn(move || {
                while !start.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                let mut sizes = Vec::new();
                let mut lcg = round;
                while !done.load(Ordering::Acquire) {
                    if paced {
                        lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        std::thread::sleep(alone * ((lcg >> 33) % 64) as u32 / 16);
                    }
                    sizes.push(t.read_only_snapshot().len());
                }
                sizes
            })
        };
        let reader = {
            let (t, start, done) = (Arc::clone(&t), Arc::clone(&start), Arc::clone(&done));
            std::thread::spawn(move || {
                while !start.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                let (mut seen, mut missed_after) = (false, false);
                let mut k = 0;
                while !done.load(Ordering::Acquire) {
                    let hit = t.lookup(&k) == Some(k + 1);
                    missed_after |= seen && !hit;
                    seen |= hit;
                    k = (k + 37) % N;
                }
                missed_after
            })
        };
        let before = CTrie::<u64, u64>::bulk_fallbacks();
        start.store(true, Ordering::Release);
        t.from_entries(load());
        done.store(true, Ordering::Release);
        let sizes = snapshotter.join().unwrap();
        let missed_after = reader.join().unwrap();
        if CTrie::<u64, u64>::bulk_fallbacks() == before {
            built += 1;
            for n in sizes {
                assert!(
                    n == 0 || n == N as usize,
                    "round {round}: a snapshot saw {n} keys"
                );
            }
            assert!(
                !missed_after,
                "round {round}: a reader lost keys it had seen"
            );
        } else {
            fell_back += 1;
        }
        assert_eq!(t.len(), N as usize, "round {round}");
        for k in (0..N).step_by(61) {
            assert_eq!(t.lookup(&k), Some(k + 1), "round {round}: key {k}");
        }
    }
    assert!(built > 0, "no load won its root GCAS");
    assert!(fell_back > 0, "no load fell back to per-entry inserts");
}
