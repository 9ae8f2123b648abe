//! Registering the SNB tables in a session, either *vanilla* (cached
//! columnar tables — the baseline the paper compares against) or *indexed*
//! (Indexed DataFrames over the access paths the short reads use).
//!
//! The same query text runs against both registrations — "transparently
//! running SNB queries both on vanilla Spark and Spark using Indexed
//! DataFrames" (paper, §5).
//!
//! ## Index deployment
//!
//! | logical name         | row store      | index probed            |
//! |----------------------|----------------|-------------------------|
//! | `person`             | person         | `id`                    |
//! | `knows`              | knows          | `person1_id`            |
//! | `message`            | message        | `id` (primary)          |
//! | `message_by_creator` | message        | `creator_id` (secondary)|
//! | `message_by_reply`   | message        | `reply_of_id` (secondary)|
//! | `forum`              | forum          | *(none)*                |
//! | `forum_hasmember`    | forum_hasmember| *(none)*                |
//!
//! `message` is stored once, hash-partitioned by `id`, with three cTries
//! over its rows; the three `message*` names are handles of that one
//! table, each probing its own index, so an append, `UPDATE` or `DELETE`
//! through any of them is seen through all three. A probe by `creator_id`
//! or `reply_of_id` visits every partition (those keys are not what the
//! rows are partitioned by). The forum tables carry no index, so SQ5/SQ6 —
//! which traverse only forum access paths — cannot use indexed execution;
//! this reproduces the paper's Figure 3 observation that those two queries
//! see no speedup. In vanilla mode the three `message*` names alias one
//! cached table, as they alias one indexed table here.

use std::sync::Arc;

use idf_core::prelude::*;
use idf_engine::catalog::MemTable;
use idf_engine::chunk::Chunk;
use idf_engine::error::Result;
use idf_engine::prelude::Session;
use idf_engine::schema::SchemaRef;

use crate::gen::SnbData;

/// Which physical representation to register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Cached columnar tables, vanilla execution.
    Vanilla,
    /// Indexed DataFrames on the short-read access paths.
    Indexed,
}

/// Handles to the indexed tables (for appends in streaming scenarios).
/// The three `message*` handles share one row store: the same rows,
/// probed through different indexes.
pub struct IndexedTables {
    /// person indexed on `id`.
    pub person: IndexedDataFrame,
    /// knows indexed on `person1_id`.
    pub knows: IndexedDataFrame,
    /// message, probed through its primary index on `id`.
    pub message: IndexedDataFrame,
    /// message, probed through its index on `creator_id`.
    pub message_by_creator: IndexedDataFrame,
    /// message, probed through its index on `reply_of_id`.
    pub message_by_reply: IndexedDataFrame,
}

impl IndexedTables {
    /// Append one freshly arrived message: stored once, it enters all
    /// three message indexes together.
    pub fn append_message_row(&self, values: &[idf_engine::types::Value]) -> Result<()> {
        self.message.append_row(values)
    }
}

fn mem_table(session: &Session, schema: SchemaRef, chunk: Chunk) -> Result<Arc<MemTable>> {
    let parts = session.config().target_partitions;
    Ok(Arc::new(MemTable::from_chunk_partitioned(
        schema, chunk, parts,
    )?))
}

/// Register everything vanilla: partitioned, cached, columnar.
pub fn register_vanilla(session: &Session, data: &SnbData) -> Result<()> {
    let person = mem_table(session, crate::gen::person_schema(), data.person.clone())?;
    session.register_table("person", person);
    let knows = mem_table(session, crate::gen::knows_schema(), data.knows.clone())?;
    session.register_table("knows", knows);
    let message = mem_table(session, crate::gen::message_schema(), data.message.clone())?;
    let message: Arc<dyn idf_engine::catalog::TableSource> = message;
    session.register_table("message", Arc::clone(&message));
    session.register_table("message_by_creator", Arc::clone(&message));
    session.register_table("message_by_reply", message);
    let forum = mem_table(session, crate::gen::forum_schema(), data.forum.clone())?;
    session.register_table("forum", forum);
    let hasmember = mem_table(
        session,
        crate::gen::forum_hasmember_schema(),
        data.forum_hasmember.clone(),
    )?;
    session.register_table("forum_hasmember", hasmember);
    Ok(())
}

/// Register with indexes on the short-read access paths; forum tables stay
/// vanilla. Returns handles for streaming appends.
pub fn register_indexed(session: &Session, data: &SnbData) -> Result<IndexedTables> {
    let cfg = IndexConfig::default();
    let mk = |schema: SchemaRef, chunk: &Chunk, key: usize| -> Result<IndexedDataFrame> {
        let table = Arc::new(IndexedTable::from_chunk(schema, key, cfg.clone(), chunk)?);
        Ok(IndexedDataFrame::from_table(session.clone(), table))
    };
    let person = mk(crate::gen::person_schema(), &data.person, 0)?;
    person.cache().register("person");
    let knows = mk(crate::gen::knows_schema(), &data.knows, 0)?;
    knows.cache().register("knows");
    let message = IndexedTable::with_indexes(crate::gen::message_schema(), 0, &[4, 6], cfg)?;
    message.append_chunk(&data.message)?;
    let message = IndexedDataFrame::from_table(session.clone(), Arc::new(message));
    message.cache().register("message");
    let message_by_creator = message.index("creator_id")?;
    message_by_creator.register("message_by_creator");
    let message_by_reply = message.index("reply_of_id")?;
    message_by_reply.register("message_by_reply");
    // Forum access paths deliberately unindexed (see module docs).
    let forum = mem_table(session, crate::gen::forum_schema(), data.forum.clone())?;
    session.register_table("forum", forum);
    let hasmember = mem_table(
        session,
        crate::gen::forum_hasmember_schema(),
        data.forum_hasmember.clone(),
    )?;
    session.register_table("forum_hasmember", hasmember);
    Ok(IndexedTables {
        person,
        knows,
        message,
        message_by_creator,
        message_by_reply,
    })
}

/// Register per `mode`; returns index handles in indexed mode.
pub fn register(session: &Session, data: &SnbData, mode: Mode) -> Result<Option<IndexedTables>> {
    match mode {
        Mode::Vanilla => {
            register_vanilla(session, data)?;
            Ok(None)
        }
        Mode::Indexed => Ok(Some(register_indexed(session, data)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, SnbConfig};

    #[test]
    fn both_modes_register_same_names() {
        let data = generate(SnbConfig::with_scale(0.05)).unwrap();
        for mode in [Mode::Vanilla, Mode::Indexed] {
            let session = Session::new();
            register(&session, &data, mode).unwrap();
            let names = session.catalog().table_names();
            assert_eq!(
                names,
                vec![
                    "forum",
                    "forum_hasmember",
                    "knows",
                    "message",
                    "message_by_creator",
                    "message_by_reply",
                    "person"
                ],
                "{mode:?}"
            );
        }
    }

    /// Summed over the five indexed handles, `memory_stats` counts each
    /// row store's committed bytes once and every trie's entries once:
    /// nothing twice, nothing dropped.
    #[test]
    fn memory_counts_each_store_once_and_every_index() {
        let data = generate(SnbConfig::with_scale(0.05)).unwrap();
        let t = register_indexed(&Session::new(), &data).unwrap();
        let handles = [
            &t.person,
            &t.knows,
            &t.message,
            &t.message_by_creator,
            &t.message_by_reply,
        ];
        let (mut bytes, mut entries) = (0, 0);
        for h in handles {
            let m = h.memory_stats();
            bytes += m.data_bytes;
            entries += m.index_entries;
        }
        let (mut store_bytes, mut trie_entries) = (0, 0);
        for store in [&t.person, &t.knows, &t.message] {
            let table = store.table();
            for p in 0..table.num_partitions() {
                let view = table.partition(p).snapshot_all();
                store_bytes += view
                    .export_batches()
                    .iter()
                    .map(|(_, b)| b.len())
                    .sum::<usize>();
                trie_entries += (0..table.index_cols().len())
                    .map(|i| view.key_count_in(i))
                    .sum::<usize>();
            }
        }
        assert_eq!(bytes, store_bytes);
        assert_eq!(entries, trie_entries);
        assert_eq!(t.message.table().index_cols(), &[0, 4, 6]);
        for secondary in [&t.message_by_creator, &t.message_by_reply] {
            assert_eq!(secondary.memory_stats().data_bytes, 0);
            assert_eq!(secondary.row_count(), t.message.row_count());
        }
    }

    #[test]
    fn row_counts_match_across_modes() {
        let data = generate(SnbConfig::with_scale(0.05)).unwrap();
        let mut counts = Vec::new();
        for mode in [Mode::Vanilla, Mode::Indexed] {
            let session = Session::new();
            register(&session, &data, mode).unwrap();
            let mut mode_counts = Vec::new();
            for t in ["person", "knows", "message", "forum", "forum_hasmember"] {
                mode_counts.push(session.table(t).unwrap().count().unwrap());
            }
            counts.push(mode_counts);
        }
        assert_eq!(counts[0], counts[1]);
    }
}
