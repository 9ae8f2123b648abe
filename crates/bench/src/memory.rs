//! **ABL-MEM** — the paper's §1 claim that the Indexed DataFrame has *"a
//! relatively low memory overhead in addition to the original data"*:
//! bytes of the indexed representation (row batches + index entries)
//! versus the vanilla columnar cache of the same rows — and, for the SNB
//! deployment's three `message` access paths, one table per index against
//! one row store carrying all three.

use idf_core::prelude::*;
use idf_engine::error::Result;
use std::sync::Arc;

/// Memory comparison for one table.
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// Table label.
    pub table: String,
    /// Row count.
    pub rows: usize,
    /// Vanilla columnar cache bytes.
    pub columnar_bytes: usize,
    /// Indexed row-batch bytes (committed).
    pub row_batch_bytes: usize,
    /// Allocated (committed + open batch slack) bytes.
    pub reserved_bytes: usize,
    /// Distinct indexed keys.
    pub index_entries: usize,
    /// Estimated index bytes (entries × per-entry cost estimate).
    pub index_bytes_estimate: usize,
}

/// Estimated heap cost of one cTrie entry: S-node (hash + key Value + value
/// u64 ≈ 56 B) + Arc header (16 B) + amortized C-node slot share (~24 B).
pub const CTRIE_ENTRY_ESTIMATE: usize = 96;

impl MemoryRow {
    /// Overhead of the indexed representation relative to the columnar
    /// cache: (batches + index) / columnar.
    pub fn overhead_factor(&self) -> f64 {
        (self.row_batch_bytes + self.index_bytes_estimate) as f64
            / self.columnar_bytes.max(1) as f64
    }
}

impl crate::json::ToJson for MemoryRow {
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("table", Json::Str(self.table.clone())),
            ("rows", Json::Int(self.rows as i64)),
            ("columnar_bytes", Json::Int(self.columnar_bytes as i64)),
            ("row_batch_bytes", Json::Int(self.row_batch_bytes as i64)),
            ("reserved_bytes", Json::Int(self.reserved_bytes as i64)),
            ("index_entries", Json::Int(self.index_entries as i64)),
            (
                "index_bytes_estimate",
                Json::Int(self.index_bytes_estimate as i64),
            ),
        ])
    }
}

/// Measure one generated dataset.
pub fn run(scale: f64) -> Result<Vec<MemoryRow>> {
    let data = idf_snb::generate(idf_snb::SnbConfig::with_scale(scale))?;
    let cases = [
        (
            "person",
            idf_snb::gen::person_schema(),
            &data.person,
            0usize,
        ),
        ("knows", idf_snb::gen::knows_schema(), &data.knows, 0),
        ("message", idf_snb::gen::message_schema(), &data.message, 0),
    ];
    let mut out = Vec::new();
    for (name, schema, chunk, key) in cases {
        let table =
            IndexedTable::from_chunk(Arc::clone(&schema), key, IndexConfig::default(), chunk)?;
        out.push(row(name, chunk, &[table]));
    }
    // The SNB deployment's three `message` access paths (`id`,
    // `creator_id`, `reply_of_id`): one table per index, against one row
    // store carrying all three indexes.
    let schema = idf_snb::gen::message_schema();
    let copies = [0, 4, 6]
        .into_iter()
        .map(|key| {
            IndexedTable::from_chunk(
                Arc::clone(&schema),
                key,
                IndexConfig::default(),
                &data.message,
            )
        })
        .collect::<Result<Vec<_>>>()?;
    out.push(row("message x3 tables", &data.message, &copies));
    let store = IndexedTable::with_indexes(schema, 0, &[4, 6], IndexConfig::default())?;
    store.append_chunk(&data.message)?;
    let handles = [store.index(0)?, store.index(4)?, store.index(6)?];
    out.push(row("message, 3 indexes", &data.message, &handles));
    Ok(out)
}

/// The memory of `tables` (summed) holding the rows of `chunk`.
fn row(name: &str, chunk: &idf_engine::chunk::Chunk, tables: &[IndexedTable]) -> MemoryRow {
    let mut m = idf_core::partition::PartitionMemory::default();
    for t in tables {
        let s = t.memory_stats();
        m.data_bytes += s.data_bytes;
        m.reserved_bytes += s.reserved_bytes;
        m.index_entries += s.index_entries;
    }
    MemoryRow {
        table: name.to_string(),
        rows: chunk.len(),
        columnar_bytes: chunk.byte_size(),
        row_batch_bytes: m.data_bytes,
        reserved_bytes: m.reserved_bytes,
        index_entries: m.index_entries,
        index_bytes_estimate: m.index_entries * CTRIE_ENTRY_ESTIMATE,
    }
}

/// Render as the harness table.
pub fn render(rows: &[MemoryRow]) -> String {
    let headers = vec![
        "table".to_string(),
        "rows".to_string(),
        "columnar [KiB]".to_string(),
        "row batches [KiB]".to_string(),
        "index est. [KiB]".to_string(),
        "overhead".to_string(),
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.table.clone(),
                r.rows.to_string(),
                format!("{}", r.columnar_bytes / 1024),
                format!("{}", r.row_batch_bytes / 1024),
                format!("{}", r.index_bytes_estimate / 1024),
                format!("{:.2}x", r.overhead_factor()),
            ]
        })
        .collect();
    format!(
        "== ABL-MEM: memory overhead of the indexed representation ==\n{}",
        idf_engine::pretty::format_table(&headers, &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_rows_populated() {
        let rows = run(0.05).unwrap();
        assert_eq!(rows.len(), 5);
        for r in &rows[..3] {
            assert!(r.rows > 0);
            assert!(r.row_batch_bytes > 0);
            assert!(r.index_entries > 0);
            // "Relatively low memory overhead": within a small factor of
            // the columnar cache.
            assert!(
                r.overhead_factor() < 4.0,
                "{}: overhead {:.2} too large",
                r.table,
                r.overhead_factor()
            );
        }
        // One store under three indexes holds the rows once.
        let (copies, shared) = (&rows[3], &rows[4]);
        assert!(
            shared.row_batch_bytes < copies.row_batch_bytes / 2,
            "{shared:?} vs {copies:?}"
        );
        assert!(shared.row_batch_bytes > rows[2].row_batch_bytes);
    }
}
