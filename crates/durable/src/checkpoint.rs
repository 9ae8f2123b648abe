//! Checkpoint snapshots and the per-table manifest.
//!
//! On-disk layout, one directory per table under the session's
//! `data_dir`:
//!
//! ```text
//! data_dir/<table>/
//!   wal-<id>.log              append segment paired with snapshot <id>
//!   ckpt-<id>.snap            full table image, the manifest's id wins
//!   ckpt-<id>.snap.quarantine a snapshot scrub found corrupt (evidence)
//!   MANIFEST                  the id of the authoritative snapshot
//! ```
//!
//! The WAL segment is *named by checkpoint id*: segment `id` holds
//! exactly the commits made after snapshot `id` was taken. Recovery
//! replays the contiguous chain of segments at-or-after the manifest's
//! id (normally just one; more when a checkpoint landed its manifest but
//! a later crash or fault interrupted cleanup), so a covered prefix can
//! never replay as duplicate rows.
//!
//! **Two-generation retention**: checkpoint GC keeps the authoritative
//! generation *and* the previous one (snapshot `N-1` plus its segment).
//! That is what lets scrub quarantine a corrupt snapshot `N` and fall
//! back: snapshot `N-1` + segment `N-1` + segment `N` together still
//! reconstruct the full acknowledged state. Generations older than one
//! are swept.
//!
//! A snapshot file is `b"IDFSNAP1"` followed by **one** CRC frame whose
//! body serializes the schema, index configuration, and every partition:
//! sealed row-batch bytes verbatim (cut at the snapshot watermark) plus a
//! compact cTrie dump of `(key, packed pointer)` pairs that recovery
//! reloads with the bulk `from_entries` path — no per-row re-encoding or
//! re-hashing on either side.
//!
//! Atomicity: snapshot and manifest are written to a temp file, fsynced,
//! renamed into place, and the directory fsynced. The manifest flips last,
//! so a crash anywhere mid-checkpoint leaves the previous
//! snapshot-plus-WAL fully authoritative; stale generations are garbage-
//! collected only after the flip.
//!
//! All file access goes through the [`StorageIo`] seam so the whole
//! layer runs identically against the real filesystem and the simulated
//! fault-injecting disk.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use idf_core::batch::RowBatch;
use idf_core::config::IndexConfig;
use idf_core::partition::IndexedPartition;
use idf_core::table::{IndexedTable, TableSnapshot};
use idf_engine::error::{EngineError, Result};
use idf_engine::schema::{Field, Schema, SchemaRef};

use crate::codec::{
    check_frame_len, frame, put_bytes, put_data_type, put_u32, put_u64, put_value, read_frame,
    Cursor, FrameRead, MAX_SNAPSHOT_FRAME,
};
use crate::io::StorageIo;

/// Magic prefix of a snapshot file.
pub const SNAP_MAGIC: &[u8; 8] = b"IDFSNAP1";

/// Magic prefix of a manifest file.
pub const MANIFEST_MAGIC: &[u8; 8] = b"IDFMANI1";

/// The WAL segment paired with checkpoint `id` of a table directory:
/// it holds the commits made after snapshot `id` was taken.
pub fn wal_path(table_dir: &Path, id: u64) -> PathBuf {
    table_dir.join(format!("wal-{id}.log"))
}

/// The manifest of a table directory.
pub fn manifest_path(table_dir: &Path) -> PathBuf {
    table_dir.join("MANIFEST")
}

/// The snapshot file for checkpoint `id`.
pub fn snap_path(table_dir: &Path, id: u64) -> PathBuf {
    table_dir.join(format!("ckpt-{id}.snap"))
}

/// Where scrub parks a corrupt snapshot: same name with a `.quarantine`
/// suffix. Kept as evidence (and so the id is never reused) until GC
/// sweeps its generation.
pub fn quarantine_path(table_dir: &Path, id: u64) -> PathBuf {
    table_dir.join(format!("ckpt-{id}.snap.quarantine"))
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> EngineError {
    EngineError::durability(format!("{what} {}: {e}", path.display()))
}

/// Parse the checkpoint id out of a table-directory file name
/// (`wal-<id>.log`, `ckpt-<id>.snap`, `ckpt-<id>.snap.quarantine`).
fn file_id(name: &str) -> Option<u64> {
    let rest = name
        .strip_prefix("ckpt-")
        .and_then(|r| {
            r.strip_suffix(".snap")
                .or_else(|| r.strip_suffix(".snap.quarantine"))
        })
        .or_else(|| {
            name.strip_prefix("wal-")
                .and_then(|r| r.strip_suffix(".log"))
        });
    rest.and_then(|id| id.parse::<u64>().ok())
}

/// Write `bytes` to `dir/name` atomically: temp file, fsync, rename,
/// directory fsync.
fn write_atomic(io: &dyn StorageIo, dir: &Path, name: &str, bytes: &[u8]) -> Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let dst = dir.join(name);
    io.write(&tmp, bytes)
        .map_err(|e| io_err("writing", &tmp, &e))?;
    io.sync_file(&tmp)
        .map_err(|e| io_err("syncing", &tmp, &e))?;
    io.rename(&tmp, &dst)
        .map_err(|e| io_err("renaming", &dst, &e))?;
    io.sync_dir(dir)
        .map_err(|e| io_err("syncing dir", dir, &e))?;
    Ok(())
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

/// Point the manifest at checkpoint `id` (atomic flip).
pub fn write_manifest(io: &dyn StorageIo, table_dir: &Path, id: u64) -> Result<()> {
    let mut body = Vec::with_capacity(8);
    put_u64(&mut body, id);
    let mut bytes = MANIFEST_MAGIC.to_vec();
    bytes.extend_from_slice(&frame(&body)?);
    write_atomic(io, table_dir, "MANIFEST", &bytes)
}

/// The authoritative checkpoint id, or `None` when no manifest exists.
/// A present-but-malformed manifest is a typed corruption error.
pub fn read_manifest(io: &dyn StorageIo, table_dir: &Path) -> Result<Option<u64>> {
    let path = manifest_path(table_dir);
    let bytes = match io.read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("reading", &path, &e)),
    };
    let corrupt = |why: &str| EngineError::corrupt(format!("manifest {}: {why}", path.display()));
    if bytes.len() < 8 || &bytes[..8] != MANIFEST_MAGIC {
        return Err(corrupt("bad magic"));
    }
    match read_frame(&bytes, 8, 16) {
        FrameRead::Ok { body, next } if next == bytes.len() => {
            let mut c = Cursor::new(body, "manifest");
            let id = c.u64()?;
            c.expect_end()?;
            Ok(Some(id))
        }
        _ => Err(corrupt("bad or torn frame")),
    }
}

/// The next checkpoint id to allocate: strictly above the manifest *and*
/// every id any on-disk file (snapshot, segment, quarantined snapshot)
/// still carries. Scanning the files — not just the manifest — means an
/// id is never reused even after a fault (a dropped manifest rename, a
/// quarantined generation) rolled the manifest backwards; reusing an id
/// would pair a fresh segment with a stale snapshot of the same name.
pub fn next_checkpoint_id(io: &dyn StorageIo, table_dir: &Path) -> Result<u64> {
    let mut max = read_manifest(io, table_dir)?.unwrap_or(0);
    let entries = io
        .read_dir(table_dir)
        .map_err(|e| io_err("listing", table_dir, &e))?;
    for entry in entries {
        if let Some(id) = file_id(&entry.name) {
            max = max.max(id);
        }
    }
    Ok(max + 1)
}

/// The ids of every WAL segment (`wal-<id>.log`) in `table_dir`,
/// ascending. Recovery replays the contiguous run of these at-or-after
/// the manifest id.
pub fn list_segment_ids(io: &dyn StorageIo, table_dir: &Path) -> Result<Vec<u64>> {
    let entries = io
        .read_dir(table_dir)
        .map_err(|e| io_err("listing", table_dir, &e))?;
    let mut ids: Vec<u64> = entries
        .iter()
        .filter_map(|e| {
            e.name
                .strip_prefix("wal-")
                .and_then(|r| r.strip_suffix(".log"))
                .and_then(|id| id.parse::<u64>().ok())
        })
        .collect();
    ids.sort_unstable();
    Ok(ids)
}

// ---------------------------------------------------------------------
// Snapshot write
// ---------------------------------------------------------------------

fn encode_table(snap: &TableSnapshot, config: &IndexConfig) -> Vec<u8> {
    let schema = snap.schema();
    let mut body = Vec::new();
    put_u32(&mut body, schema.len() as u32);
    for f in &schema.fields {
        put_bytes(&mut body, f.name.as_bytes());
        put_data_type(&mut body, f.data_type);
        body.push(u8::from(f.nullable));
        match &f.qualifier {
            Some(q) => {
                body.push(1);
                put_bytes(&mut body, q.as_bytes());
            }
            None => body.push(0),
        }
    }
    put_u32(&mut body, snap.key_col() as u32);
    put_u64(&mut body, config.batch_size as u64);
    put_u64(&mut body, config.max_row_size as u64);
    put_u64(&mut body, config.num_partitions as u64);
    put_u64(&mut body, config.scan_chunk_rows as u64);
    put_u32(&mut body, snap.partitions().len() as u32);
    for p in snap.partitions() {
        put_u64(&mut body, p.row_count() as u64);
        let batches = p.export_batches();
        put_u32(&mut body, batches.len() as u32);
        for (capacity, bytes) in batches {
            put_u64(&mut body, capacity as u64);
            put_bytes(&mut body, bytes);
        }
        let entries = p.export_index();
        put_u64(&mut body, entries.len() as u64);
        for (key, ptr) in entries {
            put_value(&mut body, &key);
            put_u64(&mut body, ptr);
        }
    }
    body
}

/// Serialize `snap` as checkpoint `id` of `table_dir` (atomic; the
/// manifest is *not* flipped — the caller does that once the snapshot is
/// durable).
pub fn write_snapshot(
    io: &dyn StorageIo,
    table_dir: &Path,
    id: u64,
    snap: &TableSnapshot,
    config: &IndexConfig,
) -> Result<()> {
    crate::failpoints::check(crate::failpoints::CHECKPOINT_WRITE)?;
    let body = encode_table(snap, config);
    // Refuse before anything durable changes: an over-cap body would
    // wrap the u32 length prefix (or be rejected by the reader), leaving
    // a checkpoint that "succeeded" but can never be loaded.
    check_frame_len(body.len(), MAX_SNAPSHOT_FRAME, "checkpoint snapshot")?;
    let mut bytes = SNAP_MAGIC.to_vec();
    bytes.extend_from_slice(&frame(&body)?);
    write_atomic(io, table_dir, &format!("ckpt-{id}.snap"), &bytes)
}

/// Best-effort sweep of generations older than the previous one: keeps
/// every file whose id is `keep_id` or the previous *real* generation —
/// the largest id below `keep_id` that still has a WAL segment (the
/// fallback generation scrub needs; a snapshot whose id was burned by a
/// failed checkpoint attempt has no segment and is useless as a fallback,
/// so it must not shadow the generation that is). Deletes the rest.
/// Failures are ignored — stale files are litter recovery never reads,
/// never a correctness problem.
pub fn remove_stale_files(io: &dyn StorageIo, table_dir: &Path, keep_id: u64) {
    let Ok(entries) = io.read_dir(table_dir) else {
        return;
    };
    let ids: Vec<(String, u64)> = entries
        .iter()
        .filter_map(|e| file_id(&e.name).map(|id| (e.name.clone(), id)))
        .collect();
    let prev = ids
        .iter()
        .filter(|(name, id)| *id < keep_id && name.starts_with("wal-"))
        .map(|&(_, id)| id)
        .max();
    for (name, id) in ids {
        if id == keep_id || Some(id) == prev {
            continue;
        }
        let _ = io.remove_file(&table_dir.join(name));
    }
}

// ---------------------------------------------------------------------
// Snapshot load
// ---------------------------------------------------------------------

/// Restore the table image of checkpoint `id`. Every structural claim in
/// the file is validated (schema shape, partition fan-out, batch bounds,
/// index pointers) — corruption is a typed error, never a panic and never
/// a silently wrong table.
pub fn load_table(io: &dyn StorageIo, table_dir: &Path, id: u64) -> Result<IndexedTable> {
    let path = snap_path(table_dir, id);
    let bytes = io
        .read(&path)
        .map_err(|e| io_err("reading snapshot", &path, &e))?;
    let corrupt = |why: &str| EngineError::corrupt(format!("snapshot {}: {why}", path.display()));
    if bytes.len() < 8 || &bytes[..8] != SNAP_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let body = match read_frame(&bytes, 8, MAX_SNAPSHOT_FRAME) {
        // Snapshots are renamed into place whole, so a torn or trailing
        // frame is corruption, not a tolerable tail.
        FrameRead::Ok { body, next } if next == bytes.len() => body,
        _ => return Err(corrupt("bad or torn frame")),
    };
    let mut c = Cursor::new(body, "snapshot");
    let nfields = c.u32()? as usize;
    let mut fields = Vec::with_capacity(nfields.min(1 << 16));
    for _ in 0..nfields {
        let name = c.string()?;
        let data_type = c.data_type()?;
        let nullable = c.u8()? != 0;
        let qualifier = match c.u8()? {
            0 => None,
            1 => Some(c.string()?),
            other => return Err(corrupt(&format!("bad qualifier flag {other}"))),
        };
        fields.push(Field {
            name,
            data_type,
            nullable,
            qualifier,
        });
    }
    let schema: SchemaRef = Arc::new(Schema::new(fields));
    let key_col = c.u32()? as usize;
    let config = IndexConfig {
        batch_size: c.u64()? as usize,
        max_row_size: c.u64()? as usize,
        num_partitions: c.u64()? as usize,
        scan_chunk_rows: c.u64()? as usize,
    };
    let nparts = c.u32()? as usize;
    if nparts != config.num_partitions {
        return Err(corrupt(&format!(
            "{} partitions serialized for a fan-out of {}",
            nparts, config.num_partitions
        )));
    }
    let mut partitions = Vec::with_capacity(nparts.min(1 << 16));
    for _ in 0..nparts {
        let row_count = c.u64()? as usize;
        let nbatches = c.u32()? as usize;
        let mut batches = Vec::with_capacity(nbatches.min(1 << 16));
        for _ in 0..nbatches {
            let capacity = c.u64()? as usize;
            let data = c.bytes()?;
            batches.push(Arc::new(RowBatch::from_committed_bytes(capacity, data)?));
        }
        let nkeys = c.u64()? as usize;
        let mut entries = Vec::with_capacity(nkeys.min(1 << 20));
        for _ in 0..nkeys {
            let key = c.value()?;
            let ptr = c.u64()?;
            entries.push((key, ptr));
        }
        partitions.push(Arc::new(IndexedPartition::restore(
            Arc::clone(&schema),
            key_col,
            config.clone(),
            batches,
            entries,
            row_count,
        )?));
    }
    c.expect_end()?;
    IndexedTable::from_restored_partitions(schema, key_col, config, partitions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::OsIo;
    use crate::TempDir;
    use idf_engine::types::{DataType, Value};

    const IO: OsIo = OsIo;

    fn sample_table() -> IndexedTable {
        let schema = Arc::new(Schema::new(vec![
            Field::required("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]));
        let config = IndexConfig {
            num_partitions: 4,
            ..IndexConfig::default()
        };
        let table = IndexedTable::new(schema, 0, config).unwrap();
        for i in 0..500i64 {
            table
                .append_row(&[Value::Int64(i % 100), Value::Utf8(format!("row-{i}"))])
                .unwrap();
        }
        table
    }

    #[test]
    fn snapshot_roundtrip_preserves_rows_and_index() {
        let dir = TempDir::new("ckpt-roundtrip");
        let table = sample_table();
        write_snapshot(&IO, dir.path(), 1, &table.snapshot(), table.config()).unwrap();
        write_manifest(&IO, dir.path(), 1).unwrap();
        assert_eq!(read_manifest(&IO, dir.path()).unwrap(), Some(1));
        let restored = load_table(&IO, dir.path(), 1).unwrap();
        assert_eq!(restored.row_count(), 500);
        assert_eq!(restored.schema(), table.schema());
        for key in [0i64, 17, 99] {
            let before = table.lookup_chunk(&Value::Int64(key), None).unwrap();
            let after = restored.lookup_chunk(&Value::Int64(key), None).unwrap();
            assert_eq!(before.len(), 5, "key {key}");
            assert_eq!(before.to_rows(), after.to_rows(), "key {key}");
        }
        // And the restored table keeps accepting appends.
        restored
            .append_row(&[Value::Int64(17), Value::Utf8("post-restore".into())])
            .unwrap();
        assert_eq!(
            restored
                .lookup_chunk(&Value::Int64(17), None)
                .unwrap()
                .len(),
            6
        );
    }

    #[test]
    fn missing_manifest_reads_as_none() {
        let dir = TempDir::new("ckpt-nomani");
        assert_eq!(read_manifest(&IO, dir.path()).unwrap(), None);
    }

    #[test]
    fn corrupt_manifest_and_snapshot_are_typed_errors() {
        let dir = TempDir::new("ckpt-corrupt");
        let table = sample_table();
        write_snapshot(&IO, dir.path(), 3, &table.snapshot(), table.config()).unwrap();
        write_manifest(&IO, dir.path(), 3).unwrap();
        // Manifest with a flipped byte.
        let mpath = manifest_path(dir.path());
        let mut m = std::fs::read(&mpath).unwrap();
        let last = m.len() - 1;
        m[last] ^= 0x01;
        std::fs::write(&mpath, &m).unwrap();
        let err = read_manifest(&IO, dir.path()).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        // Snapshot with a flipped payload byte.
        let spath = snap_path(dir.path(), 3);
        let mut s = std::fs::read(&spath).unwrap();
        let mid = s.len() / 2;
        s[mid] ^= 0x10;
        std::fs::write(&spath, &s).unwrap();
        let err = load_table(&IO, dir.path(), 3).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        // Missing snapshot is a durability error, not a panic.
        assert!(load_table(&IO, dir.path(), 99).is_err());
    }

    #[test]
    fn gc_keeps_two_generations_and_sweeps_older_ones() {
        let dir = TempDir::new("ckpt-gc");
        let table = sample_table();
        for id in 1..=3 {
            write_snapshot(&IO, dir.path(), id, &table.snapshot(), table.config()).unwrap();
            std::fs::write(wal_path(dir.path(), id), b"segment").unwrap();
        }
        write_manifest(&IO, dir.path(), 3).unwrap();
        remove_stale_files(&IO, dir.path(), 3);
        // Generation 1 is older-than-previous: swept. Generation 2 is the
        // scrub-fallback generation: retained alongside the live one.
        assert!(!snap_path(dir.path(), 1).exists());
        assert!(!wal_path(dir.path(), 1).exists());
        assert!(snap_path(dir.path(), 2).exists(), "fallback snapshot kept");
        assert!(wal_path(dir.path(), 2).exists(), "fallback segment kept");
        assert!(snap_path(dir.path(), 3).exists());
        assert!(wal_path(dir.path(), 3).exists(), "live segment kept");
        load_table(&IO, dir.path(), 3).unwrap();
        // A second sweep at the next generation retires generation 2.
        std::fs::write(wal_path(dir.path(), 4), b"segment").unwrap();
        write_snapshot(&IO, dir.path(), 4, &table.snapshot(), table.config()).unwrap();
        remove_stale_files(&IO, dir.path(), 4);
        assert!(!snap_path(dir.path(), 2).exists());
        assert!(snap_path(dir.path(), 3).exists());
        assert!(snap_path(dir.path(), 4).exists());
    }

    #[test]
    fn next_checkpoint_id_never_reuses_an_on_disk_id() {
        let dir = TempDir::new("ckpt-nextid");
        // Empty dir: first id is 1.
        assert_eq!(next_checkpoint_id(&IO, dir.path()).unwrap(), 1);
        // Manifest at 2, but a quarantined snapshot and a stray segment
        // carry higher ids (e.g. after scrub rolled the manifest back):
        // the next id must clear them all.
        write_manifest(&IO, dir.path(), 2).unwrap();
        std::fs::write(quarantine_path(dir.path(), 5), b"bad").unwrap();
        std::fs::write(wal_path(dir.path(), 4), b"seg").unwrap();
        assert_eq!(next_checkpoint_id(&IO, dir.path()).unwrap(), 6);
        // Segment listing is ascending and complete.
        std::fs::write(wal_path(dir.path(), 2), b"seg").unwrap();
        assert_eq!(list_segment_ids(&IO, dir.path()).unwrap(), vec![2, 4]);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn injected_checkpoint_fault_leaves_previous_checkpoint_authoritative() {
        let dir = TempDir::new("ckpt-fault");
        let table = sample_table();
        write_snapshot(&IO, dir.path(), 1, &table.snapshot(), table.config()).unwrap();
        write_manifest(&IO, dir.path(), 1).unwrap();
        table
            .append_row(&[Value::Int64(7), Value::Utf8("extra".into())])
            .unwrap();
        // One trigger, consumed by the very next call: the site is
        // process-global, and an open-ended fault would also fail the
        // sibling unit tests writing their own snapshots in parallel.
        let _guard = idf_fail::FailGuard::new(
            crate::failpoints::CHECKPOINT_WRITE,
            idf_fail::FailConfig::error("disk full").times(1),
        );
        let err =
            write_snapshot(&IO, dir.path(), 2, &table.snapshot(), table.config()).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(read_manifest(&IO, dir.path()).unwrap(), Some(1));
        assert_eq!(load_table(&IO, dir.path(), 1).unwrap().row_count(), 500);
    }
}
