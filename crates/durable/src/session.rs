//! The durable session: open-with-recovery, durable table creation, and
//! the session extension behind `CHECKPOINT`, `SCRUB` and `resume_writes`.
//!
//! A [`DurableSession`] wraps the regular engine [`Session`]. Opening one
//! validates (creating if absent) `EngineConfig::data_dir`, then for every
//! table directory found there: restores the authoritative checkpoint,
//! replays the contiguous WAL-segment chain at-or-after the manifest id
//! through the ordinary two-phase append path (so PR-2's
//! no-partial-visibility invariant holds during recovery too), and
//! registers the table for SQL — point lookups, indexed joins and scans
//! work on the recovered data exactly as they did before the crash.
//!
//! The append sink is installed *after* replay, so replayed records are
//! not re-logged; at [`DurabilityLevel::None`] no sink is installed at all
//! and durability is checkpoint-only.
//!
//! Every file operation goes through the [`StorageIo`] seam:
//! [`DurableSession::open`] uses the real filesystem, and
//! [`DurableSession::open_with_io`] accepts any implementation — the
//! simulation harness opens sessions against [`crate::sim::SimIo`] and
//! crash-tests the whole stack in microseconds per schedule.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use idf_core::api::IndexedDataFrame;
use idf_core::config::IndexConfig;
use idf_core::sink::{RowKind, SinkStatus};
use idf_core::table::IndexedTable;
use idf_engine::chunk::Chunk;
use idf_engine::config::{DurabilityLevel, EngineConfig};
use idf_engine::error::{EngineError, Result};
use idf_engine::schema::SchemaRef;
use idf_engine::session::{ScrubRow, Session, SessionExtension};

use parking_lot::Mutex;

use crate::checkpoint;
use crate::io::{OsIo, StorageIo};
use crate::scrub;
use crate::wal::{TableWal, WalRecord, WalSink};

/// One durable table: the live in-memory table, its WAL, and its
/// directory on disk.
struct DurableTable {
    table: Arc<IndexedTable>,
    /// Kept even at [`DurabilityLevel::None`] so checkpoints can quiesce
    /// and rotate a WAL left behind by an earlier session at a stricter
    /// level.
    wal: Arc<TableWal>,
    dir: PathBuf,
}

/// Shared durable state; installed into the engine session as a
/// [`SessionExtension`], so `CHECKPOINT` / `SCRUB` / `resume_writes` (SQL
/// or programmatic) land here.
struct DurableState {
    level: DurabilityLevel,
    io: Arc<dyn StorageIo>,
    tables: Mutex<HashMap<String, Arc<DurableTable>>>,
}

impl DurableState {
    /// Resolve `table` (or all tables, sorted) into checkpoint/scrub
    /// targets.
    fn targets(&self, table: Option<&str>, verb: &str) -> Result<Vec<(String, Arc<DurableTable>)>> {
        let tables = self.tables.lock();
        match table {
            Some(name) => {
                let t = tables.get(name).ok_or_else(|| {
                    EngineError::plan(format!("{verb}: unknown durable table '{name}'"))
                })?;
                Ok(vec![(name.to_string(), Arc::clone(t))])
            }
            None => {
                let mut all: Vec<_> = tables
                    .iter()
                    .map(|(n, t)| (n.clone(), Arc::clone(t)))
                    .collect();
                all.sort_by(|a, b| a.0.cmp(&b.0));
                Ok(all)
            }
        }
    }

    /// Run `one` over every target `table` resolves to, in name order,
    /// stopping at the first error.
    fn for_targets<T>(
        &self,
        table: Option<&str>,
        verb: &str,
        mut one: impl FnMut(&str, &DurableTable) -> Result<T>,
    ) -> Result<Vec<T>> {
        let targets = self.targets(table, verb)?;
        targets.iter().map(|(name, t)| one(name, t)).collect()
    }

    /// Snapshot phase of a checkpoint: pick the next id and write the
    /// snapshot, inside the WAL's quiesced window (which also serializes
    /// concurrent checkpointers, so the id picked here cannot race). The
    /// manifest flip is the separate publish phase, run by the WAL after
    /// it has rotated onto the new segment.
    fn prepare_checkpoint(&self, t: &DurableTable) -> Result<(u64, PathBuf)> {
        let io = self.io.as_ref();
        let id = checkpoint::next_checkpoint_id(io, &t.dir)?;
        checkpoint::write_snapshot(io, &t.dir, id, &t.table.snapshot(), t.table.config())?;
        Ok((id, checkpoint::wal_path(&t.dir, id)))
    }

    fn checkpoint_one(&self, t: &DurableTable) -> Result<()> {
        let started = Instant::now();
        // Quiesce the WAL (every logged commit flushed *and* published),
        // snapshot, rotate to the segment paired with the new id, then
        // flip the manifest. Recovery replays the contiguous segment
        // chain at-or-after the manifest id, so whichever side of the
        // flip a crash lands on, the chain from the surviving manifest
        // is complete. At `DurabilityLevel::None` the WAL is trivially
        // drained and this degrades to snapshot-plus-rotate.
        let id = t.wal.quiesce_and_rotate(
            || self.prepare_checkpoint(t),
            |id| checkpoint::write_manifest(self.io.as_ref(), &t.dir, *id),
        )?;
        checkpoint::remove_stale_files(self.io.as_ref(), &t.dir, id);
        if idf_obs::enabled() {
            idf_obs::global()
                .checkpoint_duration_ns
                .record(started.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    fn scrub_one(&self, name: &str, t: &DurableTable) -> Result<Vec<ScrubRow>> {
        // The quiesced window stops appends from landing in the live
        // segment mid-walk; a degraded WAL is trivially quiesced, which
        // is exactly when scrubbing matters most.
        let entries = t
            .wal
            .quiesce(|| scrub::scrub_table_dir(self.io.as_ref(), &t.dir, true))?;
        Ok(entries
            .into_iter()
            .map(|e| ScrubRow {
                table: name.to_string(),
                target: e.target,
                status: e.status,
                detail: e.detail,
            })
            .collect())
    }

    fn resume_one(&self, t: &DurableTable) -> Result<()> {
        crate::failpoints::check(crate::failpoints::WAL_RESUME)?;
        // Re-arming takes a *fresh checkpoint*: a degraded WAL may have
        // lost acknowledged-`Async` frames the in-memory table still
        // holds, so the only safe way back to a writable state is to
        // re-anchor disk at the current memory image and start a clean
        // segment.
        let id = t.wal.rearm(
            || self.prepare_checkpoint(t),
            |id| checkpoint::write_manifest(self.io.as_ref(), &t.dir, *id),
        )?;
        checkpoint::remove_stale_files(self.io.as_ref(), &t.dir, id);
        Ok(())
    }
}

impl SessionExtension for DurableState {
    fn name(&self) -> &str {
        "durable"
    }

    fn checkpoint(&self, table: Option<&str>) -> Result<Option<Vec<String>>> {
        let done = self.for_targets(table, "CHECKPOINT", |name, t| {
            self.checkpoint_one(t).map(|()| name.to_string())
        })?;
        Ok(Some(done))
    }

    fn scrub(&self, table: Option<&str>) -> Result<Option<Vec<ScrubRow>>> {
        let per_table = self.for_targets(table, "SCRUB", |name, t| self.scrub_one(name, t))?;
        Ok(Some(per_table.into_iter().flatten().collect()))
    }

    fn resume_writes(&self, table: Option<&str>) -> Result<Option<Vec<String>>> {
        let done = self.for_targets(table, "resume_writes", |name, t| {
            self.resume_one(t).map(|()| name.to_string())
        })?;
        Ok(Some(done))
    }
}

/// An engine session with the durability layer attached. See the module
/// docs; construct with [`DurableSession::open`].
pub struct DurableSession {
    session: Session,
    state: Arc<DurableState>,
    data_dir: PathBuf,
}

impl std::fmt::Debug for DurableSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableSession")
            .field("data_dir", &self.data_dir)
            .field("level", &self.state.level)
            .field("tables", &self.table_names())
            .finish()
    }
}

impl DurableSession {
    /// Open (or create) the durable store at `config.data_dir` on the
    /// real filesystem and recover every table found there.
    ///
    /// # Errors
    /// - `Durability` when `data_dir` is unset, collides with a
    ///   non-directory path, or is not writable;
    /// - `Corrupt` when a manifest, snapshot or segment chain fails
    ///   validation;
    /// - any replay error surfaced by the regular append path.
    pub fn open(config: EngineConfig) -> Result<Self> {
        Self::open_with_io(config, Arc::new(OsIo))
    }

    /// [`DurableSession::open`] against an explicit [`StorageIo`] — the
    /// simulation harness passes [`crate::sim::SimIo`] here and runs the
    /// entire durability stack against the deterministic in-memory disk.
    pub fn open_with_io(config: EngineConfig, io: Arc<dyn StorageIo>) -> Result<Self> {
        let Some(data_dir) = config.data_dir.clone() else {
            return Err(EngineError::durability(
                "DurableSession::open requires EngineConfig::data_dir",
            ));
        };
        validate_data_dir(io.as_ref(), &data_dir)?;
        let level = config.durability;
        let session = Session::with_config(config);
        let state = Arc::new(DurableState {
            level,
            io,
            tables: Mutex::new(HashMap::new()),
        });
        let started = Instant::now();
        let mut replayed = 0u64;
        for name in table_dirs(state.io.as_ref(), &data_dir)? {
            let dir = data_dir.join(&name);
            replayed += recover_table(&session, &state, &name, &dir)?;
        }
        if idf_obs::enabled() {
            let m = idf_obs::global();
            m.recovery_duration_ns
                .record(started.elapsed().as_nanos() as u64);
            m.recovery_replayed_records.add(replayed);
        }
        session.install_extension(Arc::clone(&state) as Arc<dyn SessionExtension>);
        Ok(DurableSession {
            session,
            state,
            data_dir,
        })
    }

    /// The wrapped engine session (SQL, catalog, metrics…).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The store's root directory.
    pub fn data_dir(&self) -> &Path {
        &self.data_dir
    }

    /// Parse and bind a SQL query — passthrough to [`Session::sql`].
    pub fn sql(&self, query: &str) -> Result<idf_engine::dataframe::DataFrame> {
        self.session.sql(query)
    }

    /// Checkpoint `table`, or every durable table when `None`; returns
    /// the names checkpointed. Equivalent to SQL `CHECKPOINT [table]`.
    pub fn checkpoint(&self, table: Option<&str>) -> Result<Vec<String>> {
        self.session.checkpoint(table)
    }

    /// Verify the on-disk state of `table` (or all durable tables):
    /// re-walk manifest, snapshots and WAL segments checking CRCs,
    /// quarantine a corrupt snapshot and fall back to the previous valid
    /// generation. Equivalent to SQL `SCRUB [table]`.
    pub fn scrub(&self, table: Option<&str>) -> Result<Vec<ScrubRow>> {
        self.session.scrub(table)
    }

    /// Re-arm writes on `table` (or all durable tables) after a
    /// read-only degradation: take a fresh checkpoint and rotate to a
    /// clean segment so appends are accepted again.
    pub fn resume_writes(&self, table: Option<&str>) -> Result<Vec<String>> {
        self.session.resume_writes(table)
    }

    /// Whether `name` currently accepts appends, with the degradation
    /// cause when it does not.
    pub fn write_status(&self, name: &str) -> Result<SinkStatus> {
        let tables = self.state.tables.lock();
        let t = tables
            .get(name)
            .ok_or_else(|| EngineError::plan(format!("unknown durable table '{name}'")))?;
        Ok(t.table.write_status())
    }

    /// Names of the durable tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.state.tables.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// The indexed handle for a recovered or created durable table.
    pub fn dataframe(&self, name: &str) -> Result<IndexedDataFrame> {
        let tables = self.state.tables.lock();
        let t = tables
            .get(name)
            .ok_or_else(|| EngineError::plan(format!("unknown durable table '{name}'")))?;
        Ok(IndexedDataFrame::from_table(
            self.session.clone(),
            Arc::clone(&t.table),
        ))
    }

    /// Create a durable indexed table: its directory, an initial (empty)
    /// checkpoint so the table survives a crash before its first append,
    /// and its WAL; then register it for SQL like any indexed table.
    pub fn create_table(
        &self,
        name: &str,
        schema: SchemaRef,
        key_col: usize,
        config: IndexConfig,
    ) -> Result<IndexedDataFrame> {
        validate_table_name(name)?;
        let io = Arc::clone(&self.state.io);
        let mut tables = self.state.tables.lock();
        if tables.contains_key(name) {
            return Err(EngineError::plan(format!(
                "durable table '{name}' already exists"
            )));
        }
        let dir = self.data_dir.join(name);
        if io.exists(&checkpoint::manifest_path(&dir)) {
            return Err(EngineError::durability(format!(
                "table directory {} already holds durable state",
                dir.display()
            )));
        }
        io.create_dir_all(&dir).map_err(|e| {
            EngineError::durability(format!("creating table directory {}: {e}", dir.display()))
        })?;
        let table = Arc::new(IndexedTable::new(schema, key_col, config)?);
        // Empty checkpoint first: a crash between now and the first
        // successful checkpoint recovers an empty table plus the WAL tail.
        checkpoint::write_snapshot(io.as_ref(), &dir, 1, &table.snapshot(), table.config())?;
        checkpoint::write_manifest(io.as_ref(), &dir, 1)?;
        // A create that failed between writing its segment and landing
        // its manifest leaves a stale `wal-1.log` behind; the missing
        // manifest makes the directory dead, so clear the leftover
        // before arming the fresh log.
        let wal_path = checkpoint::wal_path(&dir, 1);
        if io.exists(&wal_path) {
            io.remove_file(&wal_path).map_err(|e| {
                EngineError::durability(format!(
                    "clearing stale segment {}: {e}",
                    wal_path.display()
                ))
            })?;
        }
        let (wal, records) = TableWal::open(Arc::clone(&io), &wal_path, self.state.level)?;
        if !records.is_empty() {
            return Err(EngineError::corrupt(format!(
                "fresh table segment {} is unexpectedly non-empty",
                wal_path.display()
            )));
        }
        let wal = Arc::new(wal);
        if self.state.level != DurabilityLevel::None {
            table.set_append_sink(Arc::new(WalSink::new(Arc::clone(&wal))));
        }
        tables.insert(
            name.to_string(),
            Arc::new(DurableTable {
                table: Arc::clone(&table),
                wal,
                dir,
            }),
        );
        drop(tables);
        let df = IndexedDataFrame::from_table(self.session.clone(), table);
        df.register(name);
        Ok(df)
    }
}

/// Restore one table directory: checkpoint, WAL-chain replay,
/// registration. Returns the number of WAL records replayed.
fn recover_table(
    session: &Session,
    state: &Arc<DurableState>,
    name: &str,
    dir: &Path,
) -> Result<u64> {
    let io = state.io.as_ref();
    let id = checkpoint::read_manifest(io, dir)?.ok_or_else(|| {
        EngineError::corrupt(format!("table directory {} has no manifest", dir.display()))
    })?;
    let table = Arc::new(checkpoint::load_table(io, dir, id)?);
    // Replay every segment at-or-after the manifest id, ascending.
    // Normally that is just `wal-<id>.log`; after a scrub fallback (or a
    // fault that stopped a checkpoint between the manifest flip and GC)
    // there can be several, each covering the commits made while it was
    // live — together a complete continuation of the restored image. Id
    // gaps are benign, not loss: a checkpoint attempt that fails after
    // writing its snapshot burns the id without ever creating the
    // matching segment, while a segment that ever accepted a commit has
    // a durable directory entry (creation dir-fsyncs before the swap
    // completes, and a failed dir-fsync aborts the rotation), so
    // acknowledged commits cannot hide in a gap.
    let chain: Vec<u64> = checkpoint::list_segment_ids(io, dir)?
        .into_iter()
        .filter(|&s| s >= id)
        .collect();
    // All but the newest segment are closed history: read them outright.
    // The newest becomes the live WAL (torn tail truncated, writer
    // started) and contributes its surviving records the same way.
    let last = chain.last().copied().unwrap_or(id);
    let live_path = checkpoint::wal_path(dir, last);
    let (_, live_valid) = crate::wal::read_records(io, &live_path)?;
    let mut scans = Vec::with_capacity(chain.len().saturating_sub(1));
    for &seg in chain.iter().take(chain.len().saturating_sub(1)) {
        let path = checkpoint::wal_path(dir, seg);
        let (segment_records, valid_len) = crate::wal::read_records(io, &path)?;
        let total = io.file_len(&path).map_err(|e| {
            EngineError::durability(format!("sizing WAL segment {}: {e}", path.display()))
        })?;
        scans.push((path, segment_records, valid_len, total));
    }
    let mut records: Vec<WalRecord> = Vec::new();
    for k in 0..scans.len() {
        if scans[k].2 != scans[k].3 {
            // Bytes past the valid prefix of a historical segment. A
            // segment rotated into history was quiesced and trimmed to
            // its durable prefix first, so normally this is at-rest
            // corruption — with one exception: an *aborted* rotation
            // (the fresh segment was created but the swap failed) leaves
            // the old segment live, where it may gain a torn unsynced
            // tail at the next crash, while the stillborn successors
            // never receive a single commit. The two cases are told
            // apart by what follows: commits after this segment prove a
            // completed rotation (which would have trimmed it), so any
            // later data means corruption; all-empty successors mean the
            // tail is a crash artifact, healed here exactly the way the
            // live segment's tail is (truncate and flush — idempotent,
            // and only ever dropping bytes past the last decodable
            // frame, which no acknowledged commit can be in).
            let (path, _, valid, total) = &scans[k];
            let later_data = live_valid > 0 || scans[k + 1..].iter().any(|s| s.2 > 0);
            if later_data {
                return Err(EngineError::corrupt(format!(
                    "WAL segment {} is corrupt: {} readable bytes of {} (run SCRUB)",
                    path.display(),
                    valid,
                    total
                )));
            }
            io.set_len(path, *valid).map_err(|e| {
                EngineError::durability(format!(
                    "truncating aborted-rotation WAL tail of {}: {e}",
                    path.display()
                ))
            })?;
            io.sync_file(path).map_err(|e| {
                EngineError::durability(format!("flushing truncated WAL {}: {e}", path.display()))
            })?;
        }
        records.append(&mut scans[k].1);
    }
    let (wal, tail) = TableWal::open(
        Arc::clone(&state.io),
        &checkpoint::wal_path(dir, last),
        state.level,
    )?;
    records.extend(tail);
    let schema = table.schema();
    let mut replayed = 0u64;
    for record in &records {
        crate::failpoints::check(crate::failpoints::RECOVERY_REPLAY)?;
        if !record.kinds.is_empty() {
            // DML record: replay each payload with its logged kind so
            // tombstones land as tombstones and version order (the
            // record's publish order) is preserved.
            let kinds = record
                .kinds
                .iter()
                .map(|&k| {
                    RowKind::from_u8(k).ok_or_else(|| {
                        EngineError::corrupt(format!("WAL DML record carries unknown row kind {k}"))
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            table.replay_dml(&record.rows, &kinds)?;
            replayed += 1;
            continue;
        }
        let mut rows = Vec::with_capacity(record.rows.len());
        for payload in &record.rows {
            rows.push(table.decode_payload(payload)?);
        }
        let chunk = Chunk::from_rows(&schema, &rows)?;
        // Replaying through the regular append path re-runs routing,
        // validation and the two-phase publish, so recovered state obeys
        // every invariant live appends do.
        table.append_chunk(&chunk)?;
        replayed += 1;
    }
    // Sink goes in only now: replayed records must not be re-logged.
    let wal = Arc::new(wal);
    if state.level != DurabilityLevel::None {
        table.set_append_sink(Arc::new(WalSink::new(Arc::clone(&wal))));
    }
    state.tables.lock().insert(
        name.to_string(),
        Arc::new(DurableTable {
            table: Arc::clone(&table),
            wal,
            dir: dir.to_path_buf(),
        }),
    );
    let df = IndexedDataFrame::from_table(session.clone(), table);
    df.register(name);
    Ok(replayed)
}

/// Table directories under `data_dir`: immediate subdirectories holding a
/// manifest. Anything else (probe files, litter) is ignored.
fn table_dirs(io: &dyn StorageIo, data_dir: &Path) -> Result<Vec<String>> {
    let entries = io.read_dir(data_dir).map_err(|e| {
        EngineError::durability(format!("reading data_dir {}: {e}", data_dir.display()))
    })?;
    let mut names = Vec::new();
    for entry in entries {
        let path = data_dir.join(&entry.name);
        if !entry.is_dir || !io.exists(&checkpoint::manifest_path(&path)) {
            continue;
        }
        names.push(entry.name);
    }
    names.sort();
    Ok(names)
}

/// Create `data_dir` if absent and verify it is a writable directory.
fn validate_data_dir(io: &dyn StorageIo, dir: &Path) -> Result<()> {
    if io.exists(dir) && !io.is_dir(dir) {
        return Err(EngineError::durability(format!(
            "data_dir {} exists and is not a directory",
            dir.display()
        )));
    }
    io.create_dir_all(dir).map_err(|e| {
        EngineError::durability(format!("creating data_dir {}: {e}", dir.display()))
    })?;
    let probe = dir.join(".idf-write-probe");
    io.write(&probe, b"ok").map_err(|e| {
        EngineError::durability(format!("data_dir {} is not writable: {e}", dir.display()))
    })?;
    let _ = io.remove_file(&probe);
    Ok(())
}

/// Durable table names become directory names, so they are restricted to
/// a filesystem-safe alphabet.
fn validate_table_name(name: &str) -> Result<()> {
    let ok = !name.is_empty()
        && name.len() <= 128
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if ok {
        Ok(())
    } else {
        Err(EngineError::plan(format!(
            "invalid durable table name {name:?}: use up to 128 ASCII letters, digits, '_' or '-'"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;
    use idf_engine::schema::{Field, Schema};
    use idf_engine::types::{DataType, Value};

    fn cfg(dir: &Path, level: DurabilityLevel) -> EngineConfig {
        EngineConfig {
            data_dir: Some(dir.to_path_buf()),
            durability: level,
            ..EngineConfig::default()
        }
    }

    fn people_schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Field::required("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]))
    }

    fn small_index() -> IndexConfig {
        IndexConfig {
            num_partitions: 4,
            ..IndexConfig::default()
        }
    }

    #[test]
    fn open_requires_and_validates_data_dir() {
        let err = DurableSession::open(EngineConfig::default()).unwrap_err();
        assert!(err.to_string().contains("data_dir"), "{err}");
        // Colliding with a plain file is a typed error.
        let dir = TempDir::new("sess-collide");
        let file = dir.path().join("not-a-dir");
        std::fs::write(&file, b"x").unwrap();
        let err = DurableSession::open(cfg(&file, DurabilityLevel::Sync)).unwrap_err();
        assert!(err.to_string().contains("not a directory"), "{err}");
        // A missing directory is created.
        let fresh = dir.path().join("a").join("b");
        let sess = DurableSession::open(cfg(&fresh, DurabilityLevel::Sync)).unwrap();
        assert!(fresh.is_dir());
        assert!(sess.table_names().is_empty());
    }

    #[test]
    fn table_names_are_validated() {
        let dir = TempDir::new("sess-names");
        let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::Sync)).unwrap();
        for bad in ["", "a/b", "..", "a b", "naïve"] {
            let err = sess
                .create_table(bad, people_schema(), 0, small_index())
                .unwrap_err();
            assert!(err.to_string().contains("table name"), "{bad:?}: {err}");
        }
        sess.create_table("ok_name-1", people_schema(), 0, small_index())
            .unwrap();
    }

    #[test]
    fn sync_appends_survive_reopen_without_checkpoint() {
        let dir = TempDir::new("sess-reopen");
        {
            let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::Sync)).unwrap();
            let df = sess
                .create_table("people", people_schema(), 0, small_index())
                .unwrap();
            for i in 0..200i64 {
                df.append_row(&[Value::Int64(i % 40), Value::Utf8(format!("p{i}"))])
                    .unwrap();
            }
        }
        let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::Sync)).unwrap();
        assert_eq!(sess.table_names(), vec!["people".to_string()]);
        let df = sess.dataframe("people").unwrap();
        assert_eq!(df.table().row_count(), 200);
        let rows = df.get_rows(7i64).unwrap().collect().unwrap();
        assert_eq!(rows.len(), 5);
        // SQL works on the recovered table.
        let out = sess
            .sql("SELECT COUNT(*) FROM people")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(out.to_rows()[0][0], Value::Int64(200));
    }

    /// The full DML durability loop: UPDATE/DELETE through SQL, crash
    /// (drop) before any checkpoint, recover from WAL replay — deleted
    /// rows stay deleted, updated rows keep their new image. Then
    /// checkpoint and reopen again: the snapshot round-trips the row
    /// kinds bit-for-bit, so the answers do not change.
    #[test]
    fn dml_survives_reopen_with_and_without_checkpoint() {
        let dir = TempDir::new("sess-dml");
        {
            let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::Sync)).unwrap();
            let df = sess
                .create_table("people", people_schema(), 0, small_index())
                .unwrap();
            for i in 0..40i64 {
                df.append_row(&[Value::Int64(i), Value::Utf8(format!("p{i}"))])
                    .unwrap();
            }
            let out = sess
                .sql("DELETE FROM people WHERE id < 10")
                .unwrap()
                .collect()
                .unwrap();
            assert_eq!(out.to_rows()[0][0], Value::Int64(10));
            let out = sess
                .sql("UPDATE people SET name = 'renamed' WHERE id = 20")
                .unwrap()
                .collect()
                .unwrap();
            assert_eq!(out.to_rows()[0][0], Value::Int64(1));
        }
        let verify = |sess: &DurableSession| {
            let df = sess.dataframe("people").unwrap();
            for key in [0i64, 5, 9] {
                assert_eq!(
                    df.get_rows(key).unwrap().collect().unwrap().len(),
                    0,
                    "deleted key {key} resurrected"
                );
            }
            assert_eq!(df.get_rows(10i64).unwrap().collect().unwrap().len(), 1);
            let out = sess
                .sql("SELECT name FROM people WHERE id = 20")
                .unwrap()
                .collect()
                .unwrap();
            assert_eq!(out.to_rows(), vec![vec![Value::Utf8("renamed".into())]]);
            let out = sess
                .sql("SELECT COUNT(*) FROM people")
                .unwrap()
                .collect()
                .unwrap();
            assert_eq!(out.to_rows()[0][0], Value::Int64(30));
        };
        {
            let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::Sync)).unwrap();
            verify(&sess);
            sess.checkpoint(None).unwrap();
            // Post-checkpoint DML lands in the fresh segment and replays
            // on top of the snapshot.
            let out = sess
                .sql("DELETE FROM people WHERE id = 39")
                .unwrap()
                .collect()
                .unwrap();
            assert_eq!(out.to_rows()[0][0], Value::Int64(1));
        }
        let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::Sync)).unwrap();
        let df = sess.dataframe("people").unwrap();
        assert_eq!(df.get_rows(39i64).unwrap().collect().unwrap().len(), 0);
        let out = sess
            .sql("SELECT COUNT(*) FROM people")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(out.to_rows()[0][0], Value::Int64(29));
    }

    #[test]
    fn checkpoint_rotates_wal_and_reopen_restores_from_snapshot() {
        let dir = TempDir::new("sess-ckpt");
        {
            let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::Sync)).unwrap();
            let df = sess
                .create_table("people", people_schema(), 0, small_index())
                .unwrap();
            for i in 0..100i64 {
                df.append_row(&[Value::Int64(i), Value::Utf8(format!("p{i}"))])
                    .unwrap();
            }
            let done = sess.checkpoint(None).unwrap();
            assert_eq!(done, vec!["people".to_string()]);
            // Creation wrote checkpoint 1, so this checkpoint is id 2.
            // The covered segment is *retained* as the previous
            // generation (scrub's fallback needs it); the paired new one
            // starts empty.
            let tdir = dir.path().join("people");
            assert!(
                checkpoint::wal_path(&tdir, 1).exists(),
                "previous generation retained"
            );
            assert!(checkpoint::snap_path(&tdir, 1).exists());
            let wal = checkpoint::wal_path(&tdir, 2);
            assert_eq!(std::fs::metadata(&wal).unwrap().len(), 0);
            // Post-checkpoint appends land in the fresh segment.
            df.append_row(&[Value::Int64(100), Value::Utf8("tail".into())])
                .unwrap();
            assert!(std::fs::metadata(&wal).unwrap().len() > 0);
            // A further checkpoint (id 3) retires generation 1.
            sess.checkpoint(None).unwrap();
            assert!(!checkpoint::wal_path(&tdir, 1).exists());
            assert!(!checkpoint::snap_path(&tdir, 1).exists());
            assert!(checkpoint::snap_path(&tdir, 2).exists());
        }
        let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::Sync)).unwrap();
        assert_eq!(sess.dataframe("people").unwrap().table().row_count(), 101);
    }

    /// The exact crash window rotation exists for: the manifest has
    /// flipped to the new checkpoint, but the covered segment still
    /// holds the pre-checkpoint commits. Recovery must not replay it —
    /// replaying would duplicate every row the snapshot already
    /// contains.
    #[test]
    fn covered_wal_segment_left_by_crash_is_not_replayed() {
        let dir = TempDir::new("sess-crashwin");
        let tdir = dir.path().join("people");
        {
            let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::Sync)).unwrap();
            let df = sess
                .create_table("people", people_schema(), 0, small_index())
                .unwrap();
            for i in 0..50i64 {
                df.append_row(&[Value::Int64(i), Value::Utf8(format!("p{i}"))])
                    .unwrap();
            }
            sess.checkpoint(Some("people")).unwrap();
            // Two-generation retention keeps segment 1 (all 50 appends)
            // on disk — exactly what the crash window used to leave.
            assert!(std::fs::metadata(checkpoint::wal_path(&tdir, 1))
                .map(|m| m.len() > 0)
                .unwrap_or(false));
        }
        let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::Sync)).unwrap();
        let df = sess.dataframe("people").unwrap();
        assert_eq!(df.table().row_count(), 50, "covered segment replayed");
        for key in [0i64, 25, 49] {
            let rows = df.get_rows(key).unwrap().collect().unwrap();
            assert_eq!(rows.len(), 1, "key {key} duplicated");
        }
        // The checkpoint after next sweeps the stale generation.
        sess.checkpoint(Some("people")).unwrap();
        sess.checkpoint(Some("people")).unwrap();
        assert!(!checkpoint::wal_path(&tdir, 1).exists());
    }

    #[test]
    fn checkpoint_via_sql_and_unknown_table_is_typed() {
        let dir = TempDir::new("sess-sql-ckpt");
        let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::Async)).unwrap();
        sess.create_table("t1", people_schema(), 0, small_index())
            .unwrap();
        let out = sess.sql("CHECKPOINT t1").unwrap().collect().unwrap();
        assert_eq!(out.to_rows(), vec![vec![Value::Utf8("t1".into())]]);
        let err = sess.sql("CHECKPOINT nope").err().unwrap();
        assert!(err.to_string().contains("unknown durable table"), "{err}");
    }

    #[test]
    fn scrub_via_sql_reports_clean_state_and_unknown_table_is_typed() {
        let dir = TempDir::new("sess-sql-scrub");
        let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::Sync)).unwrap();
        let df = sess
            .create_table("t1", people_schema(), 0, small_index())
            .unwrap();
        df.append_row(&[Value::Int64(1), Value::Utf8("a".into())])
            .unwrap();
        let out = sess.sql("SCRUB t1").unwrap().collect().unwrap();
        let rows = out.to_rows();
        assert!(rows.len() >= 3, "manifest + snapshot + segment: {rows:?}");
        for row in &rows {
            assert_eq!(row[0], Value::Utf8("t1".into()));
            assert_eq!(row[2], Value::Utf8("ok".into()), "{row:?}");
        }
        let err = sess.sql("SCRUB nope").err().unwrap();
        assert!(err.to_string().contains("unknown durable table"), "{err}");
        // Programmatic path agrees.
        assert!(sess.scrub(None).unwrap().iter().all(|r| r.status == "ok"));
    }

    #[test]
    fn level_none_is_checkpoint_only() {
        let dir = TempDir::new("sess-none");
        {
            let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::None)).unwrap();
            let df = sess
                .create_table("t", people_schema(), 0, small_index())
                .unwrap();
            df.append_row(&[Value::Int64(1), Value::Utf8("kept".into())])
                .unwrap();
            sess.checkpoint(Some("t")).unwrap();
            df.append_row(&[Value::Int64(2), Value::Utf8("lost".into())])
                .unwrap();
            // No WAL sink at level None: the post-checkpoint row is
            // volatile and the rotated segment (checkpoint id 2) stays
            // empty.
            let wal = checkpoint::wal_path(&dir.path().join("t"), 2);
            assert_eq!(std::fs::metadata(&wal).unwrap().len(), 0);
        }
        let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::None)).unwrap();
        assert_eq!(sess.dataframe("t").unwrap().table().row_count(), 1);
    }

    /// Mixed durability histories: rows written under `Sync`, the store
    /// reopened under `Async` for more rows, then reopened under `Sync`
    /// again — every acknowledged row survives each transition (clean
    /// drops flush the Async tail; the crash variants live in the
    /// simulation suite).
    #[test]
    fn recovery_across_mixed_durability_levels() {
        let dir = TempDir::new("sess-mixed");
        {
            let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::Sync)).unwrap();
            let df = sess
                .create_table("t", people_schema(), 0, small_index())
                .unwrap();
            for i in 0..30i64 {
                df.append_row(&[Value::Int64(i), Value::Utf8(format!("sync-{i}"))])
                    .unwrap();
            }
        }
        {
            let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::Async)).unwrap();
            let df = sess.dataframe("t").unwrap();
            assert_eq!(df.table().row_count(), 30);
            for i in 30..50i64 {
                df.append_row(&[Value::Int64(i), Value::Utf8(format!("async-{i}"))])
                    .unwrap();
            }
        }
        let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::Sync)).unwrap();
        let df = sess.dataframe("t").unwrap();
        assert_eq!(df.table().row_count(), 50);
        for key in [0i64, 29, 30, 49] {
            assert_eq!(df.get_rows(key).unwrap().collect().unwrap().len(), 1);
        }
        // And the table keeps accepting Sync appends.
        df.append_row(&[Value::Int64(50), Value::Utf8("post".into())])
            .unwrap();
    }

    #[test]
    fn duplicate_create_is_rejected() {
        let dir = TempDir::new("sess-dup");
        let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::Sync)).unwrap();
        sess.create_table("t", people_schema(), 0, small_index())
            .unwrap();
        let err = sess
            .create_table("t", people_schema(), 0, small_index())
            .unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn degraded_table_serves_reads_and_resume_writes_rearms() {
        let dir = TempDir::new("sess-degrade");
        let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::Sync)).unwrap();
        let df = sess
            .create_table("t", people_schema(), 0, small_index())
            .unwrap();
        for i in 0..20i64 {
            df.append_row(&[Value::Int64(i), Value::Utf8(format!("p{i}"))])
                .unwrap();
        }
        // One injected fsync failure degrades the WAL...
        {
            let _guard = idf_fail::FailGuard::new(
                crate::failpoints::WAL_FSYNC,
                idf_fail::FailConfig::error("disk died").times(1),
            );
            let err = df
                .append_row(&[Value::Int64(20), Value::Utf8("doomed".into())])
                .unwrap_err();
            assert!(matches!(err, EngineError::ReadOnly(_)), "{err:?}");
        }
        // ...stickily: appends keep failing typed, reads keep serving.
        let err = df
            .append_row(&[Value::Int64(21), Value::Utf8("also-doomed".into())])
            .unwrap_err();
        assert!(matches!(err, EngineError::ReadOnly(_)), "{err:?}");
        assert!(matches!(
            sess.write_status("t").unwrap(),
            SinkStatus::ReadOnly(_)
        ));
        assert_eq!(df.table().row_count(), 20);
        assert_eq!(df.get_rows(7i64).unwrap().collect().unwrap().len(), 1);
        let out = sess
            .sql("SELECT COUNT(*) FROM t")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(out.to_rows()[0][0], Value::Int64(20));
        // Checkpoint refuses while degraded; resume_writes re-arms.
        let err = sess.checkpoint(Some("t")).unwrap_err();
        assert!(matches!(err, EngineError::ReadOnly(_)), "{err:?}");
        assert_eq!(
            sess.resume_writes(Some("t")).unwrap(),
            vec!["t".to_string()]
        );
        assert_eq!(sess.write_status("t").unwrap(), SinkStatus::Writable);
        df.append_row(&[Value::Int64(22), Value::Utf8("revived".into())])
            .unwrap();
        drop(df);
        drop(sess);
        // The re-anchored store recovers everything acknowledged.
        let sess = DurableSession::open(cfg(dir.path(), DurabilityLevel::Sync)).unwrap();
        let df = sess.dataframe("t").unwrap();
        assert_eq!(df.table().row_count(), 21);
        assert_eq!(df.get_rows(22i64).unwrap().collect().unwrap().len(), 1);
        assert_eq!(df.get_rows(20i64).unwrap().collect().unwrap().len(), 0);
    }
}
