//! Soak test: the demo scenario end to end for thousands of operations —
//! a continuous update stream applied to the indexed tables while the
//! dashboard queries run and verify invariants the whole time.
//!
//! This is the closest automated analogue of §4's live demonstration.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use indexed_dataframe::engine::prelude::*;
use indexed_dataframe::snb::{
    generate, query, register_indexed, QueryParams, SnbConfig, UpdateEvent, UpdateStream,
};

#[test]
fn dashboard_queries_stay_correct_under_update_stream() {
    let data = generate(SnbConfig::with_scale(0.2)).unwrap();
    let session = Session::new();
    let tables = Arc::new(register_indexed(&session, &data).unwrap());

    let initial_persons = tables.person.row_count();
    let initial_messages = tables.message.row_count();

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let tables = Arc::clone(&tables);
        let stop = Arc::clone(&stop);
        let data_seed = 2024;
        let mut stream = UpdateStream::new(&data, data_seed);
        std::thread::spawn(move || {
            let mut counts = (0usize, 0usize, 0usize); // person, knows, message
            while !stop.load(Ordering::Relaxed) {
                let e = stream.next_event();
                match &e {
                    UpdateEvent::AddPerson(_) => counts.0 += 1,
                    UpdateEvent::AddKnows(..) => counts.1 += 1,
                    UpdateEvent::AddMessage(_) => counts.2 += 1,
                }
                UpdateStream::apply(&e, &tables).unwrap();
            }
            counts
        })
    };

    // The dashboard: short reads with invariant checks, repeatedly.
    for round in 0..30u64 {
        let p = QueryParams::nth(
            round,
            data.max_person_id,
            data.max_message_id,
            data.config.forums as i64,
        );
        // SQ1: the original person is always present exactly once.
        let profile = query(&session, 1, &p).unwrap().collect().unwrap();
        assert_eq!(
            profile.len(),
            1,
            "round {round}: person {} profile",
            p.person_id
        );
        // SQ3: every returned friend row references the queried person's
        // edges; result sizes only grow over time for a fixed person.
        let friends = query(&session, 3, &p).unwrap().collect().unwrap();
        for r in 0..friends.len() {
            assert!(!friends.value_at(0, r).is_null());
        }
        // SQ2: ordered, limited.
        let messages = query(&session, 2, &p).unwrap().collect().unwrap();
        assert!(messages.len() <= 10);
        for r in 1..messages.len() {
            assert!(
                messages.value_at(2, r - 1) >= messages.value_at(2, r),
                "round {round}: SQ2 ordering"
            );
        }
    }

    stop.store(true, Ordering::Relaxed);
    let (persons_added, knows_added, messages_added) = writer.join().unwrap();
    assert!(
        persons_added + knows_added + messages_added > 0,
        "stream made progress"
    );

    // Final accounting: every applied event is queryable.
    assert_eq!(tables.person.row_count(), initial_persons + persons_added);
    assert_eq!(
        tables.message.row_count(),
        initial_messages + messages_added
    );
    let count = session
        .sql("SELECT count(*) FROM person")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(
        count.value_at(0, 0),
        Value::Int64((initial_persons + persons_added) as i64)
    );
    // One store, reachable under three names: every name counts the same
    // rows, and only the primary handle holds row bytes.
    for name in ["message", "message_by_creator", "message_by_reply"] {
        let count = session
            .sql(&format!("SELECT count(*) FROM {name}"))
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(
            count.value_at(0, 0),
            Value::Int64((initial_messages + messages_added) as i64),
            "{name}"
        );
    }
    assert!(tables.message.memory_stats().data_bytes > 0);
    for secondary in [&tables.message_by_creator, &tables.message_by_reply] {
        assert_eq!(secondary.row_count(), tables.message.row_count());
        assert_eq!(secondary.memory_stats().data_bytes, 0);
    }
}

#[test]
fn repeated_snapshots_remain_stable_while_appending() {
    let data = generate(SnbConfig::with_scale(0.05)).unwrap();
    let session = Session::new();
    let tables = register_indexed(&session, &data).unwrap();
    let mut frozen_counts = Vec::new();
    let mut stream = UpdateStream::new(&data, 7);
    let mut snapshots = Vec::new();
    for _ in 0..10 {
        snapshots.push(tables.person.snapshot_df());
        frozen_counts.push(snapshots.last().unwrap().count().unwrap());
        for e in stream.take_events(50) {
            UpdateStream::apply(&e, &tables).unwrap();
        }
    }
    // Every snapshot still reports the count it had when taken.
    for (snap, expected) in snapshots.iter().zip(&frozen_counts) {
        assert_eq!(snap.count().unwrap(), *expected);
    }
    // Counts are monotone over snapshot time.
    for w in frozen_counts.windows(2) {
        assert!(w[0] <= w[1]);
    }
}
