//! Allocation accounting for the lookup hot paths.
//!
//! The paper's latency claims hinge on `getRows` staying off the
//! allocator once the table is warm: taking a partition view shares the
//! current version, the cTrie probe borrows the key, the chain walk yields
//! borrowed payload slices, and fixed-width decoding produces inline
//! `Value`s. A counting global allocator proves it: after warm-up, a storm
//! of views and of single-key probes must perform **zero** heap
//! allocations, and a many-key lookup allocates a fixed number of times,
//! however many keys it is given and rows it finds (no list per key, no
//! list that grows with the rows).
//!
//! Integration tests in one binary run concurrently, and any neighbour
//! test's allocations would race the counter, so every test here holds
//! one lock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use idf_core::config::IndexConfig;
use idf_core::partition::IndexedPartition;
use idf_engine::schema::{Field, Schema};
use idf_engine::types::{DataType, Value};

/// `System`, plus a global count of `alloc`/`realloc` calls.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to `System`; the only extra work is a relaxed
// atomic bump, which allocates nothing and upholds `GlobalAlloc`'s contract
// exactly as `System` does.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: delegates to `System.alloc` with the caller's layout unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    // SAFETY: delegates to `System.realloc`; ptr/layout/new_size come from
    // the caller under the same contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: delegates to `System.dealloc` with the caller's ptr and layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Held by every test: the counter is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn single_key_lookups_do_not_allocate() {
    let _serial = serial();
    const KEYS: i64 = 128;
    const VERSIONS: i64 = 8;

    let schema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]));
    let part = IndexedPartition::new(Arc::clone(&schema), 0, IndexConfig::default());
    for ver in 0..VERSIONS {
        for k in 0..KEYS {
            part.append_row(&[Value::Int64(k), Value::Int64(ver * KEYS + k)])
                .expect("append");
        }
    }

    // Taking a view is an `Arc` clone of the partition's current version
    // and two atomic loads: no trie snapshot, no copied batch list.
    for _ in 0..8 {
        std::hint::black_box(part.snapshot());
    }
    let before = allocations();
    for _ in 0..256 {
        std::hint::black_box(part.snapshot());
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "taking 256 partition views allocated {delta} times"
    );

    let snap = part.snapshot();

    // Warm up: first probes may lazily initialize thread-locals deep in
    // the runtime; they are not part of the steady-state claim.
    for k in 0..KEYS {
        assert_eq!(
            snap.lookup_count(&Value::Int64(k)).expect("count"),
            VERSIONS as usize
        );
    }

    let layout = idf_core::layout::RowLayout::new(snap.schema().clone());
    let before = allocations();
    let mut checksum = 0i64;
    for round in 0..4 {
        for k in 0..KEYS {
            let key = Value::Int64((k + round) % KEYS);
            // Chain length via the borrowed-key probe.
            assert_eq!(snap.lookup_count(&key).expect("count"), VERSIONS as usize);
            // Walk the version chain and decode a fixed-width column —
            // payloads are borrowed slices, values are inline.
            for payload in snap.lookup_payloads(&key) {
                let payload = payload.expect("chain");
                match layout.decode_column(payload, 1).expect("decode") {
                    Value::Int64(v) => checksum ^= v,
                    other => panic!("unexpected value {other:?}"),
                }
            }
        }
    }
    let delta = allocations() - before;

    assert_eq!(
        delta, 0,
        "single-key lookup hot path allocated {delta} times (checksum {checksum})"
    );
}

#[test]
fn many_key_lookups_allocate_a_fixed_number_of_times() {
    let _serial = serial();
    const KEYS: i64 = 512;
    const VERSIONS: i64 = 32;

    let schema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]));
    // Versions appended round-robin over the keys: each chain's rows lie
    // `KEYS` rows apart, as scattered appends leave them.
    let part = IndexedPartition::new(Arc::clone(&schema), 0, IndexConfig::default());
    for ver in 0..VERSIONS {
        for k in 0..KEYS {
            part.append_row(&[Value::Int64(k), Value::Int64(ver * KEYS + k)])
                .expect("append");
        }
    }
    let snap = part.snapshot();
    let keys = |n: i64, step: i64| -> Vec<Value> {
        (0..n).map(|i| Value::Int64((i * step) % KEYS)).collect()
    };
    // Warm up with a lookup larger than any below: the walk keeps its
    // lists for the next one on this thread.
    let all = keys(2 * KEYS, 1);
    assert_eq!(
        snap.lookup_chunk_multi(&all, None).expect("lookup").len(),
        (2 * KEYS * VERSIONS) as usize
    );

    // 4 to 512 keys, 128 to 16 384 rows; a missing key and duplicates in
    // the mix.
    let mut counts = Vec::new();
    for (n, step) in [(4, 1), (64, 3), (KEYS, 1), (200, 7)] {
        let mut ks = keys(n, step);
        ks.push(Value::Int64(KEYS + 1));
        let before = allocations();
        let chunk = snap.lookup_chunk_multi(&ks, None).expect("lookup");
        let delta = allocations() - before;
        assert_eq!(chunk.len(), n as usize * VERSIONS as usize);
        counts.push((n, delta));
    }
    assert!(
        counts.iter().all(|&(_, delta)| delta == counts[0].1),
        "allocations per many-key lookup (keys, allocations): {counts:?}"
    );
}
