//! **ABL-CTRIE** — why the cTrie? The paper builds on "a built-in
//! concurrent cTrie index that allows for sub-linear lookup". This
//! ablation compares the lock-free cTrie against the persistent-HAMT
//! reference and a mutex-guarded `HashMap` on the index's actual
//! operations: insert, lookup, snapshot-then-read, and concurrent
//! reader/writer mixes. `abl_ctrie_readers_writer` times every lookup of
//! one or two readers beside a writer that keeps overwriting keys, and
//! prints reader lookups per second, the per-lookup p999 and the writer's
//! inserts per second. Its `_snapshotting` case takes a read-only snapshot
//! before each lookup: every snapshot swaps the root, so the writer must
//! copy its path again before each insert.
//!
//! `abl_ctrie_build` times filling an empty trie with 4k, 45k and 200k
//! keys (a small partition index, one of SNB's `message` partitions at
//! scale 4, and the readers/writer trie): `from_entries`, which builds the
//! trie bottom-up, against an `insert` per key, beside a `HashMap` filled
//! the same way. Each time includes dropping the structure. Its elem/s
//! column is entries per second. `abl_ctrie_probe` times one lookup per
//! iteration in 200k-key tries built each way and in a `HashMap`: its mean
//! is nanoseconds per probe.
//!
//! Run: `cargo bench -p idf-bench --bench abl_ctrie`

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use idf_ctrie::{CTrie, Hamt};
use parking_lot::Mutex;

const N: u64 = 100_000;

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_ctrie_insert");
    group.sample_size(10);
    group.bench_function("ctrie", |b| {
        b.iter(|| {
            let t: CTrie<u64, u64> = CTrie::new();
            for i in 0..N {
                t.insert(i, i);
            }
            t
        })
    });
    group.bench_function("hamt", |b| {
        b.iter(|| {
            let t: Hamt<u64, u64> = Hamt::new();
            for i in 0..N {
                t.insert(i, i);
            }
            t
        })
    });
    group.bench_function("mutex_hashmap", |b| {
        b.iter(|| {
            let t: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());
            for i in 0..N {
                t.lock().insert(i, i);
            }
            t
        })
    });
    group.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let ctrie: CTrie<u64, u64> = CTrie::new();
    let hamt: Hamt<u64, u64> = Hamt::new();
    let map: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());
    for i in 0..N {
        ctrie.insert(i, i);
        hamt.insert(i, i);
        map.lock().insert(i, i);
    }
    let mut group = c.benchmark_group("abl_ctrie_lookup");
    group.sample_size(10);
    let mut k = 0u64;
    group.bench_function("ctrie", |b| {
        b.iter(|| {
            k = (k + 7919) % N;
            ctrie.lookup(&k)
        })
    });
    group.bench_function("hamt", |b| {
        b.iter(|| {
            k = (k + 7919) % N;
            hamt.lookup(&k)
        })
    });
    group.bench_function("mutex_hashmap", |b| {
        b.iter(|| {
            k = (k + 7919) % N;
            map.lock().get(&k).copied()
        })
    });
    group.finish();
}

/// Keys in a build: a small partition index, a `message` partition at
/// SNB scale 4, and the readers/writer trie.
const BUILD_SIZES: [u64; 3] = [4_000, 45_000, 200_000];

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_ctrie_build");
    group.sample_size(10);
    for n in BUILD_SIZES {
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("from_entries", n), &n, |b, &n| {
            b.iter(|| {
                let t: CTrie<u64, u64> = CTrie::new();
                t.from_entries((0..n).map(|i| (i, i)));
                t
            })
        });
        group.bench_with_input(BenchmarkId::new("insert", n), &n, |b, &n| {
            b.iter(|| {
                let t: CTrie<u64, u64> = CTrie::new();
                for i in 0..n {
                    t.insert(i, i);
                }
                t
            })
        });
        group.bench_with_input(BenchmarkId::new("hashmap", n), &n, |b, &n| {
            b.iter(|| {
                let mut m: HashMap<u64, u64> = HashMap::new();
                for i in 0..n {
                    m.insert(i, i);
                }
                m
            })
        });
    }
    group.finish();
}

fn bench_probe(c: &mut Criterion) {
    const KEYS: u64 = 200_000;
    let built: CTrie<u64, u64> = CTrie::new();
    built.from_entries((0..KEYS).map(|i| (i, i)));
    let inserted: CTrie<u64, u64> = CTrie::new();
    for i in 0..KEYS {
        inserted.insert(i, i);
    }
    let map: HashMap<u64, u64> = (0..KEYS).map(|i| (i, i)).collect();
    let mut group = c.benchmark_group("abl_ctrie_probe");
    group.sample_size(10);
    let mut k = 0u64;
    for (name, trie) in [("ctrie_from_entries", &built), ("ctrie_insert", &inserted)] {
        group.bench_with_input(BenchmarkId::new(name, KEYS), &KEYS, |b, _| {
            b.iter(|| {
                k = (k + 7919) % KEYS;
                trie.lookup(&k)
            })
        });
    }
    group.bench_with_input(BenchmarkId::new("hashmap", KEYS), &KEYS, |b, _| {
        b.iter(|| {
            k = (k + 7919) % KEYS;
            map.get(&k).copied()
        })
    });
    group.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    // Snapshot cost while the structure keeps growing: the cTrie/HAMT are
    // O(1); the mutex HashMap must deep-clone.
    let mut group = c.benchmark_group("abl_ctrie_snapshot");
    group.sample_size(10);
    let ctrie: CTrie<u64, u64> = CTrie::new();
    let hamt: Hamt<u64, u64> = Hamt::new();
    let map: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());
    for i in 0..N {
        ctrie.insert(i, i);
        hamt.insert(i, i);
        map.lock().insert(i, i);
    }
    group.bench_function("ctrie_readonly_snapshot", |b| {
        b.iter(|| ctrie.read_only_snapshot())
    });
    group.bench_function("hamt_snapshot", |b| b.iter(|| hamt.snapshot()));
    group.bench_function("hashmap_clone", |b| b.iter(|| map.lock().clone()));
    group.finish();
}

fn bench_concurrent(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_ctrie_concurrent");
    group.sample_size(10);
    for readers in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("ctrie_read_during_writes", readers),
            &readers,
            |b, &readers| {
                b.iter(|| {
                    let t = Arc::new(CTrie::<u64, u64>::new());
                    for i in 0..10_000 {
                        t.insert(i, i);
                    }
                    std::thread::scope(|s| {
                        let writer = {
                            let t = Arc::clone(&t);
                            s.spawn(move || {
                                for i in 10_000..20_000 {
                                    t.insert(i, i);
                                }
                            })
                        };
                        for _ in 0..readers {
                            let t = Arc::clone(&t);
                            s.spawn(move || {
                                let mut hits = 0u64;
                                for i in 0..10_000 {
                                    if t.lookup(&(i % 10_000)).is_some() {
                                        hits += 1;
                                    }
                                }
                                hits
                            });
                        }
                        writer.join().expect("writer");
                    });
                })
            },
        );
    }
    group.finish();
}

/// Keys in the trie the readers probe and the writer overwrites.
const RW_KEYS: u64 = 200_000;
/// Lookups per reader per iteration, each timed.
const RW_LOOKUPS: usize = 50_000;

/// One run of readers beside a writer.
struct RwRun {
    /// Reader lookups per second: all readers' lookups over the slowest
    /// reader's time.
    lookups_per_s: f64,
    /// p999 of every lookup, the snapshot included when the readers take
    /// one.
    p999: Duration,
    /// Writer inserts per second over the same time.
    inserts_per_s: f64,
}

/// `readers` threads each time `RW_LOOKUPS` lookups while one writer
/// overwrites keys until they finish. A `snapshotting` reader takes a
/// read-only snapshot before each lookup and probes it, as a per-query
/// trie snapshot would; otherwise it probes the live trie.
fn readers_beside_writer(t: &CTrie<u64, u64>, readers: usize, snapshotting: bool) -> RwRun {
    let stop = &AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = s.spawn(move || {
            let mut i = 0u64;
            let mut inserts = 0u64;
            while !stop.load(Ordering::Relaxed) {
                t.insert(i % RW_KEYS, i);
                i = i.wrapping_add(7919);
                inserts += 1;
            }
            inserts
        });
        let handles: Vec<_> = (0..readers as u64)
            .map(|r| {
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(RW_LOOKUPS);
                    let mut k = r * 104_729;
                    let start = Instant::now();
                    for _ in 0..RW_LOOKUPS {
                        k = (k + 7919) % RW_KEYS;
                        let t0 = Instant::now();
                        if snapshotting {
                            black_box(t.read_only_snapshot().lookup(&k));
                        } else {
                            black_box(t.lookup(&k));
                        }
                        lat.push(t0.elapsed());
                    }
                    (start.elapsed(), lat)
                })
            })
            .collect();
        let done: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("reader"))
            .collect();
        stop.store(true, Ordering::Relaxed);
        let inserts = writer.join().expect("writer");
        let wall = done.iter().map(|(d, _)| *d).max().unwrap_or_default();
        let mut lat: Vec<Duration> = done.into_iter().flat_map(|(_, l)| l).collect();
        lat.sort_unstable();
        let secs = wall.as_secs_f64().max(1e-9);
        RwRun {
            lookups_per_s: (readers * RW_LOOKUPS) as f64 / secs,
            p999: lat[lat.len() * 999 / 1000],
            inserts_per_s: inserts as f64 / secs,
        }
    })
}

fn bench_readers_beside_writer(c: &mut Criterion) {
    let t: CTrie<u64, u64> = CTrie::new();
    for i in 0..RW_KEYS {
        t.insert(i, i);
    }
    let mut group = c.benchmark_group("abl_ctrie_readers_writer");
    group.sample_size(10);
    for (readers, snapshotting) in [(1usize, false), (2, false), (1, true)] {
        let mut runs: Vec<RwRun> = Vec::new();
        let id = format!(
            "{readers}r1w{}",
            if snapshotting { "_snapshotting" } else { "" }
        );
        group.bench_with_input(BenchmarkId::new("ctrie", &id), &readers, |b, &readers| {
            b.iter(|| runs.push(readers_beside_writer(&t, readers, snapshotting)))
        });
        let median = |mut xs: Vec<f64>| {
            xs.sort_by(f64::total_cmp);
            xs.get(xs.len() / 2).copied()
        };
        let mut p999s: Vec<Duration> = runs.iter().map(|r| r.p999).collect();
        p999s.sort_unstable();
        if let (Some(rate), Some(inserts), Some(p999)) = (
            median(runs.iter().map(|r| r.lookups_per_s).collect()),
            median(runs.iter().map(|r| r.inserts_per_s).collect()),
            p999s.get(p999s.len() / 2),
        ) {
            println!(
                "{:<60} reader lookups/s {rate:>10.0}  lookup p999 {p999:>10?}  \
                 writer inserts/s {inserts:>10.0}  (medians of {} runs)",
                format!("abl_ctrie_readers_writer/ctrie/{id}"),
                runs.len()
            );
        }
    }
    group.finish();
}

/// Short measurement windows so `cargo bench --workspace` stays tractable
/// on small machines; raise for more precision.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_insert, bench_build, bench_lookup, bench_probe, bench_snapshot,
        bench_concurrent, bench_readers_beside_writer
}
criterion_main!(benches);
