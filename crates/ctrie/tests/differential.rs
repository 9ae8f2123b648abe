//! Randomized differential testing: the lock-free cTrie, the persistent
//! HAMT, and `std::collections::HashMap` must agree on every operation
//! sequence — including interleaved snapshots, which the HashMap model
//! handles by cloning. Seeded generation keeps every case reproducible:
//! a failure message names the seed that replays it.
//!
//! Bulk loads ([`CTrie::from_entries`]) land in empty tries — a seed's
//! first step, or after a `Clear` — where the trie builds bottom-up, and
//! in populated ones, where it inserts entry by entry. 64 fixed seeds run
//! by default; `IDF_CTRIE_DIFF_SEEDS=<n>` runs `n`.

use std::collections::HashMap;

use idf_ctrie::{CTrie, Hamt};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One step of a generated workload.
#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u32),
    Remove(u16),
    Lookup(u16),
    /// `from_entries` of 0–600 entries, duplicate keys included.
    BulkLoad(Vec<(u16, u32)>),
    /// Remove every key, so a later bulk load finds the trie empty.
    Clear,
    Snapshot,
    /// Check a key in the most recent snapshot.
    SnapshotLookup(u16),
    Len,
}

fn random_bulk(rng: &mut StdRng) -> Op {
    let n = rng.gen_range(0..=600usize);
    Op::BulkLoad(
        (0..n)
            .map(|_| (rng.gen_range(0..512u16), rng.gen_range(0..u32::MAX)))
            .collect(),
    )
}

fn random_op(rng: &mut StdRng) -> Op {
    // Weights: the original property test's 4/2/3/1/1/1, plus one bulk
    // load and a rarer clear.
    match rng.gen_range(0..26) {
        0..=7 => Op::Insert(rng.gen_range(0..512u16), rng.gen_range(0..u32::MAX)),
        8..=11 => Op::Remove(rng.gen_range(0..512u16)),
        12..=17 => Op::Lookup(rng.gen_range(0..512u16)),
        18 | 19 => Op::Snapshot,
        20 | 21 => Op::SnapshotLookup(rng.gen_range(0..512u16)),
        22 => Op::Len,
        23 | 24 => random_bulk(rng),
        _ => Op::Clear,
    }
}

fn seeds() -> std::ops::Range<u64> {
    let n = std::env::var("IDF_CTRIE_DIFF_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    0..n
}

#[test]
fn ctrie_hamt_hashmap_agree() {
    for seed in seeds() {
        // A panic inside the trie names its seed too.
        if let Err(panic) = std::panic::catch_unwind(|| agree(seed)) {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            panic!("seed {seed}: {msg}");
        }
    }
}

/// One seed's operation sequence, checked step by step.
fn agree(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_ops = rng.gen_range(1..400usize);
    let trie: CTrie<u16, u32> = CTrie::new();
    let hamt: Hamt<u16, u32> = Hamt::new();
    let mut model: HashMap<u16, u32> = HashMap::new();

    let mut trie_snap: Option<CTrie<u16, u32>> = None;
    let mut hamt_snap = None;
    let mut model_snap: Option<HashMap<u16, u32>> = None;

    // Half the seeds open with a bulk load into the empty trie.
    let first = rng.gen_bool(0.5).then(|| random_bulk(&mut rng));
    for step in 0..n_ops {
        let op = match (step, &first) {
            (0, Some(bulk)) => bulk.clone(),
            _ => random_op(&mut rng),
        };
        match op {
            Op::BulkLoad(entries) => {
                trie.from_entries(entries.iter().copied());
                for &(k, v) in &entries {
                    hamt.insert(k, v);
                    model.insert(k, v);
                }
                for &(k, _) in &entries {
                    assert_eq!(
                        trie.lookup(&k),
                        model.get(&k).copied(),
                        "seed {seed}, step {step}: ctrie lookup({k}) after a bulk load"
                    );
                }
            }
            Op::Clear => {
                for k in model.keys() {
                    assert!(
                        trie.remove(k).is_some(),
                        "seed {seed}, step {step}: clear {k}"
                    );
                    hamt.remove(k);
                }
                model.clear();
                assert!(trie.is_empty(), "seed {seed}, step {step}: cleared");
            }
            Op::Insert(k, v) => {
                let a = trie.insert(k, v);
                let b = hamt.insert(k, v);
                let c = model.insert(k, v);
                assert_eq!(a, c, "seed {seed}, step {step}: ctrie insert({k})");
                assert_eq!(b, c, "seed {seed}, step {step}: hamt insert({k})");
            }
            Op::Remove(k) => {
                let a = trie.remove(&k);
                let b = hamt.remove(&k);
                let c = model.remove(&k);
                assert_eq!(a, c, "seed {seed}, step {step}: ctrie remove({k})");
                assert_eq!(b, c, "seed {seed}, step {step}: hamt remove({k})");
            }
            Op::Lookup(k) => {
                let c = model.get(&k).copied();
                assert_eq!(
                    trie.lookup(&k),
                    c,
                    "seed {seed}, step {step}: ctrie lookup({k})"
                );
                assert_eq!(
                    hamt.lookup(&k),
                    c,
                    "seed {seed}, step {step}: hamt lookup({k})"
                );
            }
            Op::Snapshot => {
                trie_snap = Some(trie.read_only_snapshot());
                hamt_snap = Some(hamt.snapshot());
                model_snap = Some(model.clone());
            }
            Op::SnapshotLookup(k) => {
                if let (Some(ts), Some(hs), Some(ms)) = (&trie_snap, &hamt_snap, &model_snap) {
                    let c = ms.get(&k).copied();
                    assert_eq!(ts.lookup(&k), c, "seed {seed}: snap ctrie lookup({k})");
                    assert_eq!(hs.lookup(&k), c, "seed {seed}: snap hamt lookup({k})");
                }
            }
            Op::Len => {
                assert_eq!(
                    trie.len(),
                    model.len(),
                    "seed {seed}, step {step}: ctrie len"
                );
                assert_eq!(
                    hamt.len(),
                    model.len(),
                    "seed {seed}, step {step}: hamt len"
                );
            }
        }
    }
    // Final full-content comparison.
    let mut trie_all: Vec<(u16, u32)> = trie.iter().collect();
    trie_all.sort_unstable();
    let mut hamt_all = hamt.entries();
    hamt_all.sort_unstable();
    let mut model_all: Vec<(u16, u32)> = model.into_iter().collect();
    model_all.sort_unstable();
    assert_eq!(trie_all, model_all, "seed {seed}: ctrie final contents");
    assert_eq!(hamt_all, model_all, "seed {seed}: hamt final contents");
}

#[test]
fn writable_snapshot_fully_isolates() {
    fn pairs(rng: &mut StdRng, max: usize) -> Vec<(u16, u32)> {
        let n = rng.gen_range(1..max);
        (0..n)
            .map(|_| (rng.gen_range(0..1024u16), rng.gen_range(0..u32::MAX)))
            .collect()
    }
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x5eed_0000 + seed);
        let base = pairs(&mut rng, 200);
        let after_a = pairs(&mut rng, 100);
        let after_b = pairs(&mut rng, 100);

        let trie: CTrie<u16, u32> = CTrie::new();
        let mut model: HashMap<u16, u32> = HashMap::new();
        for (k, v) in base {
            trie.insert(k, v);
            model.insert(k, v);
        }
        let fork = trie.snapshot();
        let mut fork_model = model.clone();
        for (k, v) in after_a {
            trie.insert(k, v);
            model.insert(k, v);
        }
        for (k, v) in after_b {
            fork.insert(k, v);
            fork_model.insert(k, v);
        }
        for k in 0u16..1024 {
            assert_eq!(
                trie.lookup(&k),
                model.get(&k).copied(),
                "seed {seed}, key {k}"
            );
            assert_eq!(
                fork.lookup(&k),
                fork_model.get(&k).copied(),
                "seed {seed}, fork key {k}"
            );
        }
    }
}

#[test]
fn insert_returns_previous_value_chains() {
    // The Indexed DataFrame depends on insert returning the previous
    // binding to thread its backward pointers; verify the chain of
    // returned values reconstructs insertion order per key.
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0xc4a1_0000 + seed);
        let n = rng.gen_range(1..300usize);
        let trie: CTrie<u8, u64> = CTrie::new();
        let mut last_for_key: HashMap<u8, u64> = HashMap::new();
        for seq in 0..n {
            let k = rng.gen_range(0..256u16) as u8;
            let prev = trie.insert(k, seq as u64);
            assert_eq!(
                prev,
                last_for_key.insert(k, seq as u64),
                "seed {seed}, step {seq}, key {k}"
            );
        }
    }
}
