//! Per-table write-ahead log with a group-commit writer thread.
//!
//! Commit path: the appender encodes its rows into one checksummed,
//! length-prefixed record per committed statement, straight after the
//! frame header's reserved slot (the body is never copied to be framed),
//! stages the frame on the writer's queue, and — at
//! `DurabilityLevel::Sync` — blocks until the writer reports the frame
//! durable. The writer drains whatever has
//! accumulated, writes it in one pass, and issues **one** `fsync` for the
//! whole batch, so N concurrent committers pay one disk flush between
//! them (the classic group commit).
//!
//! All file access goes through the [`crate::io::StorageIo`] seam, so the
//! same code runs against the real filesystem and the deterministic
//! simulated disk ([`crate::sim::SimIo`]).
//!
//! Torn tails: a crash mid-write leaves a trailing partial frame; on open
//! the segment is scanned frame by frame and truncated at the first
//! length or CRC violation, so exactly the durable prefix survives.
//!
//! Failure model: the first flush failure (I/O error, ENOSPC, injected
//! fault) **degrades** the log — frames queued behind the failed batch
//! are discarded (their commits observe the failure and report it; a
//! later flush would resurrect refused appends on recovery), the writer
//! thread exits, and every subsequent append fails fast with the typed
//! [`EngineError::ReadOnly`]. Reads never touch the WAL, so the table
//! keeps serving. [`TableWal::rearm`] (driven by
//! `DurableSession::resume_writes`) is the explicit way back: it takes a
//! fresh checkpoint and rotates to a new segment, so disk and memory
//! agree again before the first new append is accepted.
//!
//! Checkpoint coordination: [`TableWal::quiesce_and_rotate`] closes the
//! commit gate, waits until every logged commit is both flushed and
//! published to memory (the [`WalTicket`] dropped), runs the caller's
//! snapshot write, and then **rotates** to the new segment path the
//! caller returned. Segments are named by checkpoint id; recovery replays
//! the contiguous chain of segments at-or-after the manifest's snapshot
//! id, so the previous generation's segment can be *retained* (for scrub
//! fallback) without ever being replayed as duplicates.
//!
//! Shutdown ordering: drop closes the log and joins the writer, which
//! drains every staged frame first. A `Sync` committer caught mid-commit
//! waits until the writer has actually exited, so its outcome
//! deterministically matches the disk: flushed-then-acknowledged or
//! failed-and-absent, never "reported failed but durable".

use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use idf_core::sink::{AppendSink, CommitGuard, RowKind, SinkStatus};
use idf_engine::config::DurabilityLevel;
use idf_engine::error::{EngineError, Result};

use crate::codec::{
    check_frame_len, put_bytes, put_u32, read_frame, seal_frame, Cursor, FrameRead, FRAME_HEADER,
    MAX_WAL_FRAME,
};
use crate::io::{AppendFile, StorageIo};

/// Body sentinel distinguishing a DML record from a plain append. A
/// plain record starts with its row count, and `MAX_WAL_FRAME` caps any
/// real count far below this, so the value can never be a legal count —
/// legacy segments decode unchanged.
pub(crate) const DML_SENTINEL: u32 = 0xFFFF_FFFF;

/// One decoded WAL record: the encoded row payloads of one committed
/// append, in publish order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Encoded row payloads (see `IndexedPartition::encode_row`).
    pub rows: Vec<Vec<u8>>,
    /// Per-row [`RowKind`] wire bytes for a DML record; empty for a
    /// plain append (every row is data). Parallel to `rows` when
    /// non-empty.
    pub kinds: Vec<u8>,
}

/// Scan a segment file: `(valid records, valid byte length)`. Bytes past
/// the returned length are a torn tail. A missing file reads as empty.
pub fn read_records(io: &dyn StorageIo, path: &Path) -> Result<(Vec<WalRecord>, u64)> {
    let buf = match io.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => {
            return Err(EngineError::durability(format!(
                "reading WAL segment {}: {e}",
                path.display()
            )))
        }
    };
    let mut records = Vec::new();
    let mut offset = 0usize;
    // Stops at the first torn frame — expected after a crash; the caller
    // truncates the file to `offset`.
    while let FrameRead::Ok { body, next } = read_frame(&buf, offset, MAX_WAL_FRAME) {
        records.push(decode_record(body)?);
        offset = next;
    }
    Ok((records, offset as u64))
}

pub(crate) fn decode_record(body: &[u8]) -> Result<WalRecord> {
    let mut c = Cursor::new(body, "WAL record");
    let head = c.u32()?;
    if head == DML_SENTINEL {
        // DML record: count, then per row `kind byte | len | payload`.
        let n = c.u32()? as usize;
        let mut rows = Vec::with_capacity(n.min(1 << 20));
        let mut kinds = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let k = c.u8()?;
            if RowKind::from_u8(k).is_none() {
                return Err(EngineError::corrupt(format!(
                    "WAL DML record carries unknown row kind {k}"
                )));
            }
            kinds.push(k);
            rows.push(c.bytes()?.to_vec());
        }
        c.expect_end()?;
        return Ok(WalRecord { rows, kinds });
    }
    let n = head as usize;
    let mut rows = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        rows.push(c.bytes()?.to_vec());
    }
    c.expect_end()?;
    Ok(WalRecord {
        rows,
        kinds: Vec::new(),
    })
}

/// A record buffer with the frame header's slot reserved: the body is
/// encoded straight after it and [`seal_frame`] fills the slot in.
fn frame_slot(body_len: usize) -> Vec<u8> {
    let mut framed = Vec::with_capacity(FRAME_HEADER + body_len);
    framed.extend_from_slice(&[0; FRAME_HEADER]);
    framed
}

struct WalState {
    /// Frames staged for the writer, in sequence order.
    queue: Vec<(u64, Vec<u8>)>,
    /// Next commit sequence number (1-based; 0 means "nothing").
    next_seq: u64,
    /// Highest sequence number known durable.
    flushed_seq: u64,
    /// Byte length of the durable prefix of the live segment: advanced
    /// only after a successful batch fsync. Bytes past it (a batch whose
    /// write landed but whose flush failed) belong to commits that were
    /// reported failed; rotation trims to this mark so they can never be
    /// replayed.
    synced_len: u64,
    /// Commits logged (or staged) but not yet published to memory.
    in_flight: u64,
    /// Closed while a checkpoint quiesces; new commits wait.
    gate_closed: bool,
    /// Set by drop; wakes everything up to fail/exit.
    shutdown: bool,
    /// Sticky first I/O (or injected) failure: the log is read-only
    /// until explicitly re-armed. Holds the cause message.
    degraded: Option<String>,
    /// True once the writer thread has returned — either poisoned or
    /// after the shutdown drain. `Sync` waiters key off this so a drop
    /// mid-commit resolves deterministically instead of racing the
    /// drain.
    writer_exited: bool,
}

impl WalState {
    /// Mark the log degraded (first cause wins) and count the
    /// transition.
    fn poison(&mut self, cause: String) {
        if self.degraded.is_none() {
            self.degraded = Some(cause);
            idf_obs::global().wal_degraded_transitions.inc();
        }
    }

    fn read_only_error(&self) -> EngineError {
        EngineError::read_only(
            self.degraded
                .clone()
                .unwrap_or_else(|| "WAL degraded".to_string()),
        )
    }
}

struct WalInner {
    level: DurabilityLevel,
    io: Arc<dyn StorageIo>,
    file: Mutex<Box<dyn AppendFile>>,
    state: Mutex<WalState>,
    /// Signals the writer thread that the queue is non-empty (or
    /// shutdown).
    work: Condvar,
    /// Signals committers/checkpointers: flush progress, gate reopen,
    /// ticket drops, errors.
    done: Condvar,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

impl WalInner {
    fn fail(&self) -> EngineError {
        EngineError::durability("WAL is shut down")
    }
}

/// Open (creating if absent) the segment file at `path` and fsync its
/// parent directory so the entry survives a crash — a freshly created
/// segment whose directory entry is not durable could vanish along with
/// every record fsync'd into it.
fn open_segment(io: &dyn StorageIo, path: &Path) -> Result<Box<dyn AppendFile>> {
    let file = io.open_append(path).map_err(|e| {
        EngineError::durability(format!("opening WAL segment {}: {e}", path.display()))
    })?;
    if let Some(dir) = path.parent() {
        io.sync_dir(dir).map_err(|e| {
            EngineError::durability(format!("syncing WAL directory {}: {e}", dir.display()))
        })?;
    }
    Ok(file)
}

fn spawn_writer(inner: &Arc<WalInner>) -> Result<std::thread::JoinHandle<()>> {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name("idf-wal-writer".into())
        .spawn(move || writer_loop(&inner))
        .map_err(|e| EngineError::durability(format!("spawning WAL writer: {e}")))
}

/// The per-table write-ahead log. Owns the group-commit writer thread;
/// dropping the log drains the queue and joins the writer.
///
/// Lock order: `writer` → `file` → `path` → `state`.
pub struct TableWal {
    inner: Arc<WalInner>,
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Current segment path; swapped under the lock by rotation.
    path: Mutex<PathBuf>,
}

impl TableWal {
    /// Open (creating if absent) the segment at `path`: scan it, truncate
    /// any torn tail, start the writer thread, and return the log plus
    /// the records that survived — the caller replays them.
    pub fn open(
        io: Arc<dyn StorageIo>,
        path: &Path,
        level: DurabilityLevel,
    ) -> Result<(Self, Vec<WalRecord>)> {
        let (records, valid_len) = read_records(io.as_ref(), path)?;
        let file = open_segment(io.as_ref(), path)?;
        let total = io.file_len(path).map_err(|e| {
            EngineError::durability(format!("sizing WAL segment {}: {e}", path.display()))
        })?;
        if total > valid_len {
            io.set_len(path, valid_len).map_err(|e| {
                EngineError::durability(format!(
                    "truncating torn WAL tail of {}: {e}",
                    path.display()
                ))
            })?;
            // Flush the truncation now: trimmed only in the page cache,
            // the torn tail would resurrect on the next crash — and by
            // then this segment may have been rotated into history,
            // where recovery rightly reads any trailing bytes as at-rest
            // corruption rather than a crash artifact.
            io.sync_file(path).map_err(|e| {
                EngineError::durability(format!("flushing truncated WAL {}: {e}", path.display()))
            })?;
        }
        let inner = Arc::new(WalInner {
            level,
            io,
            file: Mutex::new(file),
            state: Mutex::new(WalState {
                queue: Vec::new(),
                next_seq: 1,
                flushed_seq: 0,
                synced_len: valid_len,
                in_flight: 0,
                gate_closed: false,
                shutdown: false,
                degraded: None,
                writer_exited: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let writer = spawn_writer(&inner)?;
        Ok((
            TableWal {
                inner,
                writer: Mutex::new(Some(writer)),
                path: Mutex::new(path.to_path_buf()),
            },
            records,
        ))
    }

    /// The current segment path.
    pub fn path(&self) -> PathBuf {
        lock(&self.path).clone()
    }

    /// The degraded cause, when the log is read-only.
    pub fn degraded_reason(&self) -> Option<String> {
        lock(&self.inner.state).degraded.clone()
    }

    /// Log one committed append. Blocks per the configured durability
    /// level (see module docs); the returned ticket must be held until
    /// the rows are published to memory.
    ///
    /// A degraded log fails fast with [`EngineError::ReadOnly`] carrying
    /// the original cause; nothing is staged.
    ///
    /// Commits whose encoded record exceeds [`MAX_WAL_FRAME`] are
    /// rejected here, before anything is staged or acknowledged: the
    /// read side treats an over-cap length prefix as a torn tail, so
    /// fsync'ing such a frame would silently drop it (and every record
    /// after it) on reopen. The error is the caller's — the WAL itself
    /// is not degraded.
    pub fn begin_commit(&self, rows: &[&[u8]]) -> Result<WalTicket> {
        crate::failpoints::check(crate::failpoints::WAL_APPEND)?;
        let body_len = 4 + rows.iter().map(|r| r.len() + 4).sum::<usize>();
        check_frame_len(body_len, MAX_WAL_FRAME, "WAL record")?;
        let mut framed = frame_slot(body_len);
        put_u32(&mut framed, rows.len() as u32);
        for r in rows {
            put_bytes(&mut framed, r);
        }
        seal_frame(&mut framed)?;
        self.stage(framed)
    }

    /// Log one committed DML statement: the same staging/flush contract
    /// as [`TableWal::begin_commit`], but the record carries a
    /// [`RowKind`] byte per row so recovery can replay tombstones as
    /// tombstones. A statement whose rows are all data (an empty `kinds`,
    /// or a plain append routed through the kind-aware seam) uses the
    /// append record layout — pre-DML segments and pure-insert workloads
    /// stay bit-compatible.
    pub fn begin_commit_kinds(&self, rows: &[&[u8]], kinds: &[RowKind]) -> Result<WalTicket> {
        debug_assert!(kinds.is_empty() || rows.len() == kinds.len());
        if kinds.iter().all(|&k| k == RowKind::Data) {
            return self.begin_commit(rows);
        }
        crate::failpoints::check(crate::failpoints::WAL_APPEND)?;
        crate::failpoints::check(crate::failpoints::WAL_DML_FRAME)?;
        let body_len = 8 + rows.iter().map(|r| r.len() + 5).sum::<usize>();
        check_frame_len(body_len, MAX_WAL_FRAME, "WAL DML record")?;
        let mut framed = frame_slot(body_len);
        put_u32(&mut framed, DML_SENTINEL);
        put_u32(&mut framed, rows.len() as u32);
        for (r, k) in rows.iter().zip(kinds) {
            framed.push(k.to_u8());
            put_bytes(&mut framed, r);
        }
        seal_frame(&mut framed)?;
        self.stage(framed)
    }

    /// Stage one framed record on the writer queue and block per the
    /// durability level (the tail of both commit paths).
    fn stage(&self, framed: Vec<u8>) -> Result<WalTicket> {
        let mut st = lock(&self.inner.state);
        loop {
            if st.degraded.is_some() {
                idf_obs::global().wal_readonly_rejections.inc();
                return Err(st.read_only_error());
            }
            if st.shutdown {
                return Err(self.inner.fail());
            }
            if !st.gate_closed {
                break;
            }
            st = wait(&self.inner.done, st);
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.queue.push((seq, framed));
        st.in_flight += 1;
        self.inner.work.notify_one();
        if self.inner.level == DurabilityLevel::Sync {
            // On shutdown, wait for the writer to finish its drain (it
            // flushes every staged frame before exiting), so the outcome
            // reported here always matches what is on disk.
            while st.flushed_seq < seq
                && st.degraded.is_none()
                && !(st.shutdown && st.writer_exited)
            {
                st = wait(&self.inner.done, st);
            }
            if st.flushed_seq < seq {
                // Flush failed or the WAL went away before our record hit
                // disk: the commit is not durable, so fail it. The caller
                // will not publish, keeping memory and log agreed.
                st.in_flight -= 1;
                let err = if st.degraded.is_some() {
                    st.read_only_error()
                } else {
                    self.inner.fail()
                };
                drop(st);
                self.inner.done.notify_all();
                return Err(err);
            }
        }
        drop(st);
        Ok(WalTicket {
            inner: Arc::clone(&self.inner),
        })
    }

    /// Close the commit gate and wait until the log is drained. On `Ok`
    /// the gate is closed and the caller must reopen it. A degraded log
    /// counts as drained once nothing is queued or in flight (its queue
    /// was discarded at poisoning time); `allow_degraded` decides whether
    /// that is acceptable or a [`EngineError::ReadOnly`] failure.
    fn close_gate_and_drain(&self, allow_degraded: bool) -> Result<()> {
        let mut st = lock(&self.inner.state);
        // One gate holder at a time; a second caller queues here.
        while st.gate_closed && !st.shutdown {
            st = wait(&self.inner.done, st);
        }
        if st.shutdown {
            return Err(self.inner.fail());
        }
        st.gate_closed = true;
        loop {
            if st.shutdown {
                st.gate_closed = false;
                drop(st);
                self.inner.done.notify_all();
                return Err(self.inner.fail());
            }
            let drained = if st.degraded.is_some() {
                if !allow_degraded {
                    let err = st.read_only_error();
                    st.gate_closed = false;
                    drop(st);
                    self.inner.done.notify_all();
                    return Err(err);
                }
                st.queue.is_empty() && st.in_flight == 0
            } else {
                st.queue.is_empty() && st.in_flight == 0 && st.flushed_seq + 1 == st.next_seq
            };
            if drained {
                return Ok(());
            }
            st = wait(&self.inner.done, st);
        }
    }

    fn reopen_gate(&self) {
        let mut st = lock(&self.inner.state);
        st.gate_closed = false;
        drop(st);
        self.inner.done.notify_all();
    }

    /// Quiesce the log (no new commits; every logged commit flushed *and*
    /// published), run `write_snapshot`, and — if it succeeded — rotate
    /// to the fresh segment path it returned. The gate reopens on every
    /// path. Fails with [`EngineError::ReadOnly`] on a degraded log; the
    /// explicit re-arm path is [`TableWal::rearm`].
    ///
    /// `write_snapshot` runs entirely inside the quiesced window (so it
    /// can read the manifest, pick the next checkpoint id, and flip the
    /// manifest without racing another checkpointer) and returns the new
    /// segment path, conventionally named by the checkpoint id it just
    /// committed. The old segment is *retained* as the previous
    /// generation — recovery replays only segments at-or-after the
    /// manifest id, and scrub's quarantine-and-fall-back path needs the
    /// covered segment to rebuild from snapshot N-1.
    ///
    /// The rotate-then-publish order is load-bearing: an error out of the
    /// manifest flip does NOT prove the flip won't land (a rename whose
    /// directory fsync failed may still become durable later), so by the
    /// time the flip is attempted, commits must already be going to the
    /// segment the new manifest names. Whichever manifest generation
    /// survives a crash, the chain from it is complete.
    pub fn quiesce_and_rotate<T>(
        &self,
        prepare: impl FnOnce() -> Result<(T, PathBuf)>,
        publish: impl FnOnce(&T) -> Result<()>,
    ) -> Result<T> {
        self.rotate_inner(false, prepare, publish)
    }

    /// Re-arm a degraded (or healthy) log: quiesce — a degraded log is
    /// trivially drained — run `prepare` (a *fresh checkpoint*, which is
    /// what re-synchronizes disk with memory after the WAL lost writes),
    /// rotate to the returned segment, run `publish` (the manifest flip),
    /// then clear the degraded state and restart the writer thread. On
    /// failure the log stays degraded.
    pub fn rearm<T>(
        &self,
        prepare: impl FnOnce() -> Result<(T, PathBuf)>,
        publish: impl FnOnce(&T) -> Result<()>,
    ) -> Result<T> {
        self.rotate_inner(true, prepare, publish)
    }

    fn rotate_inner<T>(
        &self,
        allow_degraded: bool,
        prepare: impl FnOnce() -> Result<(T, PathBuf)>,
        publish: impl FnOnce(&T) -> Result<()>,
    ) -> Result<T> {
        self.close_gate_and_drain(allow_degraded)?;
        // A panic out of either closure (e.g. an injected panic at the
        // checkpoint-write site) must not skip the gate reopen below —
        // committers would block forever. Contain it as an error.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(prepare))
            .unwrap_or_else(|payload| {
                Err(EngineError::durability(format!(
                    "checkpoint write panicked: {}",
                    idf_engine::error::panic_message(payload.as_ref())
                )))
            });
        let result = result.and_then(|(value, new_path)| {
            // Trim the outgoing segment to its durable prefix *before*
            // the new segment exists. A degraded log can carry bytes past
            // the last acknowledged flush (a batch whose write landed but
            // whose fsync failed — its commits were reported failed); as
            // long as the segment is the newest, reopen truncates such a
            // tail as a crash artifact, but once a successor segment is
            // durable this one is history and recovery rightly treats any
            // trailing bytes as corruption. Trimming here keeps the
            // "historical segments are exactly valid" invariant true by
            // construction — and guarantees refused commits never
            // resurrect through chain replay.
            self.trim_to_synced()?;
            // Rotate next. If this fails nothing has flipped: the old
            // segment is still the live one and stays fully recoverable.
            self.swap_segment(&new_path)?;
            // Flip the manifest only now that commits can no longer land
            // in the segment the flip would orphan. A failure here leaves
            // the durable manifest in one of two states — old (the chain
            // still starts at the retained previous segment) or, if the
            // reported-failed rename lands anyway, new (the chain starts
            // at the just-armed segment) — and both recover completely,
            // so the log stays healthy; only this checkpoint is reported
            // failed.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| publish(&value)))
                .unwrap_or_else(|payload| {
                    Err(EngineError::durability(format!(
                        "manifest publish panicked: {}",
                        idf_engine::error::panic_message(payload.as_ref())
                    )))
                })?;
            self.heal_after_rotate().map(|()| value)
        });
        self.reopen_gate();
        result
    }

    /// Swap the live segment for a fresh one at `new_path`. The old
    /// segment file stays on disk as the previous generation (recovery
    /// replays only the contiguous chain at-or-after the manifest id;
    /// checkpoint GC sweeps generations older than one). Only called with
    /// the gate closed and the queue drained, so no frame can land in
    /// either file mid-swap.
    fn swap_segment(&self, new_path: &Path) -> Result<()> {
        let new_file = open_segment(self.inner.io.as_ref(), new_path)?;
        let mut file = lock(&self.inner.file);
        let mut path = lock(&self.path);
        *file = new_file;
        *path = new_path.to_path_buf();
        // The durable-prefix mark follows the live file — even when the
        // later publish step fails and the rotation as a whole is
        // reported failed, commits continue on the new segment.
        lock(&self.inner.state).synced_len = 0;
        Ok(())
    }

    /// Truncate the live segment to its durable prefix and flush the
    /// truncation. A no-op on a healthy quiesced log (every written byte
    /// is synced); on a degraded one it removes the failed batch's
    /// remnants. Only called with the gate closed and the queue drained.
    fn trim_to_synced(&self) -> Result<()> {
        let synced = lock(&self.inner.state).synced_len;
        let path = self.path();
        let io = self.inner.io.as_ref();
        let len = io.file_len(&path).map_err(|e| {
            EngineError::durability(format!("sizing WAL segment {}: {e}", path.display()))
        })?;
        if len <= synced {
            return Ok(());
        }
        io.set_len(&path, synced).map_err(|e| {
            EngineError::durability(format!(
                "trimming unflushed WAL tail of {}: {e}",
                path.display()
            ))
        })?;
        io.sync_file(&path).map_err(|e| {
            EngineError::durability(format!("flushing trimmed WAL {}: {e}", path.display()))
        })?;
        Ok(())
    }

    /// After a successful rotation: clear the degraded state, restart the
    /// writer if it exited, and re-align the flush horizon (the queue is
    /// empty — anything it held was either flushed or discarded-and-
    /// reported-failed at poisoning time).
    fn heal_after_rotate(&self) -> Result<()> {
        let was_degraded;
        let respawn;
        {
            let mut st = lock(&self.inner.state);
            was_degraded = st.degraded.take().is_some();
            st.flushed_seq = st.next_seq - 1;
            respawn = st.writer_exited;
        }
        if respawn {
            let mut w = lock(&self.writer);
            if let Some(h) = w.take() {
                // The writer already exited (`writer_exited`): the join only reaps it, and
                // `writer` stays held to serialize the respawn.
                let _ = h.join();
            }
            match spawn_writer(&self.inner) {
                Ok(h) => {
                    *w = Some(h);
                    lock(&self.inner.state).writer_exited = false;
                }
                Err(e) => {
                    lock(&self.inner.state).poison(e.to_string());
                    return Err(e);
                }
            }
        }
        if was_degraded {
            idf_obs::global().wal_resumes.inc();
        }
        Ok(())
    }

    /// Quiesce the log and run `f` inside the quiet window without
    /// rotating — scrub uses this to scan the live segment without racing
    /// appends. Works on a degraded log too (it is trivially drained),
    /// which is exactly when scrubbing matters most.
    pub fn quiesce<T>(&self, f: impl FnOnce() -> Result<T>) -> Result<T> {
        self.close_gate_and_drain(true)?;
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
                Err(EngineError::durability(format!(
                    "quiesced task panicked: {}",
                    idf_engine::error::panic_message(payload.as_ref())
                )))
            });
        self.reopen_gate();
        result
    }
}

impl Drop for TableWal {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.inner.state);
            st.shutdown = true;
        }
        self.inner.work.notify_all();
        self.inner.done.notify_all();
        if let Some(h) = lock(&self.writer).take() {
            let _ = h.join();
        }
    }
}

/// In-flight commit marker (see [`idf_core::sink::CommitGuard`]): held
/// from WAL append until the rows are visible in memory.
pub struct WalTicket {
    inner: Arc<WalInner>,
}

impl std::fmt::Debug for WalTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WalTicket")
    }
}

impl CommitGuard for WalTicket {}

impl Drop for WalTicket {
    fn drop(&mut self) {
        let mut st = lock(&self.inner.state);
        st.in_flight -= 1;
        drop(st);
        self.inner.done.notify_all();
    }
}

/// The group-commit writer: drain everything staged, write it in one
/// pass, fsync once, publish the new flush horizon.
fn writer_loop(inner: &Arc<WalInner>) {
    loop {
        let batch = {
            let mut st = lock(&inner.state);
            loop {
                if !st.queue.is_empty() {
                    break std::mem::take(&mut st.queue);
                }
                if st.shutdown {
                    st.writer_exited = true;
                    drop(st);
                    inner.done.notify_all();
                    return;
                }
                st = wait(&inner.work, st);
            }
        };
        let max_seq = batch.last().map(|(s, _)| *s).unwrap_or(0);
        let record_count = batch.len() as u64;
        let byte_count: u64 = batch.iter().map(|(_, f)| f.len() as u64).sum();
        // Panics (e.g. an injected panic at the fsync site) must not kill
        // the writer — committers would block forever on a flush horizon
        // that never advances. They degrade the WAL like an I/O error.
        let flushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::failpoints::check(crate::failpoints::WAL_FSYNC)?;
            let mut file = lock(&inner.file);
            for (_, framed) in &batch {
                // Group commit: one write + fsync per batch under `file`; committers park on
                // `state`, never on `file`.
                file.write_all(framed)
                    .map_err(|e| EngineError::durability(format!("WAL write: {e}")))?;
            }
            file.sync_data()
                .map_err(|e| EngineError::durability(format!("WAL fsync: {e}")))
        }))
        .unwrap_or_else(|payload| {
            Err(EngineError::durability(format!(
                "WAL writer panicked: {}",
                idf_engine::error::panic_message(payload.as_ref())
            )))
        });
        let mut st = lock(&inner.state);
        match flushed {
            Ok(()) => {
                st.flushed_seq = max_seq;
                st.synced_len += byte_count;
                let m = idf_obs::global();
                m.wal_records.add(record_count);
                m.wal_bytes.add(byte_count);
                m.wal_fsyncs.inc();
                m.wal_group_commit_batch.record(record_count);
            }
            Err(e) => {
                // Degrade and stop. Frames still queued behind the failed
                // batch belong to commits that observe the degraded state
                // and report failure — writing them on a later iteration
                // (e.g. after a transient fsync error clears) would make
                // recovery resurrect appends the caller was told did not
                // happen. `begin_commit` refuses new work once degraded,
                // so exiting leaves nothing unserved.
                st.poison(e.to_string());
                st.queue.clear();
                st.writer_exited = true;
                drop(st);
                inner.done.notify_all();
                return;
            }
        }
        drop(st);
        inner.done.notify_all();
    }
}

/// The [`AppendSink`] a durable session installs on its tables: commits
/// flow into the table's WAL at the session's durability level.
pub struct WalSink {
    wal: Arc<TableWal>,
}

impl WalSink {
    /// A sink logging into `wal`.
    pub fn new(wal: Arc<TableWal>) -> Self {
        WalSink { wal }
    }
}

impl AppendSink for WalSink {
    fn begin_commit(&self, rows: &[&[u8]], kinds: &[RowKind]) -> Result<Box<dyn CommitGuard>> {
        Ok(Box::new(self.wal.begin_commit_kinds(rows, kinds)?))
    }

    fn status(&self) -> SinkStatus {
        match self.wal.degraded_reason() {
            Some(cause) => SinkStatus::ReadOnly(cause),
            None => SinkStatus::Writable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::OsIo;
    use crate::TempDir;

    fn osio() -> Arc<dyn StorageIo> {
        Arc::new(OsIo)
    }

    fn open(path: &Path, level: DurabilityLevel) -> (TableWal, Vec<WalRecord>) {
        TableWal::open(osio(), path, level).unwrap()
    }

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("row-{i}").into_bytes()).collect()
    }

    fn commit(wal: &TableWal, rows: &[Vec<u8>]) {
        let refs: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
        let _ticket = wal.begin_commit(&refs).unwrap();
    }

    #[test]
    fn sync_commits_survive_reopen() {
        let dir = TempDir::new("wal-sync");
        let path = dir.path().join("wal.log");
        {
            let (wal, records) = open(&path, DurabilityLevel::Sync);
            assert!(records.is_empty());
            commit(&wal, &payloads(3));
            commit(&wal, &payloads(1));
        }
        let (_, records) = open(&path, DurabilityLevel::Sync);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].rows, payloads(3));
        assert_eq!(records[1].rows, payloads(1));
    }

    #[test]
    fn async_commits_flush_on_drop() {
        let dir = TempDir::new("wal-async");
        let path = dir.path().join("wal.log");
        {
            let (wal, _) = open(&path, DurabilityLevel::Async);
            for _ in 0..50 {
                commit(&wal, &payloads(2));
            }
            // Drop drains the queue before joining the writer.
        }
        let (_, records) = open(&path, DurabilityLevel::Async);
        assert_eq!(records.len(), 50);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = TempDir::new("wal-torn");
        let path = dir.path().join("wal.log");
        {
            let (wal, _) = open(&path, DurabilityLevel::Sync);
            commit(&wal, &payloads(2));
            commit(&wal, &payloads(2));
        }
        // Simulate a crash mid-write: append garbage, then chop a valid
        // frame's tail off as well.
        let mut bytes = std::fs::read(&path).unwrap();
        let full = bytes.len();
        bytes.extend_from_slice(&[0xAB; 7]);
        std::fs::write(&path, &bytes).unwrap();
        let (wal, records) = open(&path, DurabilityLevel::Sync);
        assert_eq!(records.len(), 2, "garbage tail dropped");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full as u64);
        drop(wal);
        // Now tear the second record itself.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(full - 3);
        std::fs::write(&path, &bytes).unwrap();
        let (_, records) = open(&path, DurabilityLevel::Sync);
        assert_eq!(records.len(), 1, "torn second record dropped");
    }

    /// The bytes every record is pinned to: the body built on its own,
    /// then framed by [`frame`](crate::codec::frame). An append body is
    /// `count | (len | payload)*`; a DML body is `DML_SENTINEL | count |
    /// (kind | len | payload)*`.
    fn framed_reference(rows: &[&[u8]], kinds: &[RowKind]) -> Vec<u8> {
        let mut body = Vec::new();
        if kinds.iter().all(|&k| k == RowKind::Data) {
            put_u32(&mut body, rows.len() as u32);
            for r in rows {
                put_bytes(&mut body, r);
            }
        } else {
            put_u32(&mut body, DML_SENTINEL);
            put_u32(&mut body, rows.len() as u32);
            for (r, k) in rows.iter().zip(kinds) {
                body.push(k.to_u8());
                put_bytes(&mut body, r);
            }
        }
        crate::codec::frame(&body).unwrap()
    }

    /// Records encoded in place after their header slot are byte for
    /// byte the framed bodies: short records (sliced CRC), a record past
    /// the folding kernel's threshold, an empty payload, a DML record and
    /// an all-data statement through the kind-aware path.
    #[test]
    fn wal_byte_pin_records_are_framed_bodies() {
        let dir = TempDir::new("wal-pin");
        let path = dir.path().join("wal.log");
        let long = vec![0x5Au8; 3 * crate::crc::FOLD_MIN + 7];
        let rows: Vec<&[u8]> = vec![b"row-0", b"", &long, b"row-3"];
        let tomb = [
            RowKind::Tombstone,
            RowKind::Data,
            RowKind::Tombstone,
            RowKind::Data,
        ];
        let all_data = [RowKind::Data; 4];
        let statements: [(&[&[u8]], &[RowKind]); 4] = [
            (&rows, &[]),
            (&rows[..1], &[]),
            (&rows, &tomb),
            (&rows, &all_data),
        ];
        {
            let (wal, _) = open(&path, DurabilityLevel::Sync);
            for (rows, kinds) in statements {
                let _t = wal.begin_commit_kinds(rows, kinds).unwrap();
            }
        }
        let expected: Vec<u8> = statements
            .iter()
            .flat_map(|(rows, kinds)| framed_reference(rows, kinds))
            .collect();
        assert_eq!(std::fs::read(&path).unwrap(), expected);
    }

    #[test]
    fn dml_records_round_trip_kinds() {
        let dir = TempDir::new("wal-dml");
        let path = dir.path().join("wal.log");
        {
            let (wal, _) = open(&path, DurabilityLevel::Sync);
            commit(&wal, &payloads(2));
            let rows = [b"tomb".as_slice(), b"surv".as_slice(), b"new".as_slice()];
            let kinds = [RowKind::Tombstone, RowKind::Data, RowKind::Data];
            let _t = wal.begin_commit_kinds(&rows, &kinds).unwrap();
            // An all-data statement goes back to the legacy layout.
            let _t = wal
                .begin_commit_kinds(&[b"plain".as_slice()], &[RowKind::Data])
                .unwrap();
        }
        let (_, records) = open(&path, DurabilityLevel::Sync);
        assert_eq!(records.len(), 3);
        assert!(records[0].kinds.is_empty());
        assert_eq!(
            records[1].rows,
            vec![b"tomb".to_vec(), b"surv".to_vec(), b"new".to_vec()]
        );
        assert_eq!(records[1].kinds, vec![1, 0, 0]);
        assert!(
            records[2].kinds.is_empty(),
            "all-data commit must use the legacy record layout"
        );
    }

    #[test]
    fn dml_record_with_unknown_kind_is_corrupt() {
        // Hand-build a DML body carrying kind byte 7.
        let mut body = Vec::new();
        put_u32(&mut body, DML_SENTINEL);
        put_u32(&mut body, 1);
        body.push(7);
        put_bytes(&mut body, b"row");
        let err = decode_record(&body).unwrap_err();
        assert!(err.to_string().contains("unknown row kind"), "{err}");
    }

    #[test]
    fn group_commit_coalesces_concurrent_writers() {
        let dir = TempDir::new("wal-group");
        let path = dir.path().join("wal.log");
        let (wal, _) = open(&path, DurabilityLevel::Sync);
        let wal = Arc::new(wal);
        let fsyncs_before = idf_obs::global().wal_fsyncs.get();
        std::thread::scope(|s| {
            for t in 0..8 {
                let wal = Arc::clone(&wal);
                s.spawn(move || {
                    for i in 0..25 {
                        let row = format!("t{t}-i{i}").into_bytes();
                        let _ticket = wal.begin_commit(&[row.as_slice()]).unwrap();
                    }
                });
            }
        });
        let fsyncs = idf_obs::global().wal_fsyncs.get() - fsyncs_before;
        // Every commit was fsync'd before acknowledging, but batching
        // keeps fsyncs at or below the commit count (usually far below;
        // equality only if the writer never saw two queued frames).
        if idf_obs::enabled() {
            assert!(fsyncs <= 200, "fsyncs {fsyncs} exceed commits");
            assert!(fsyncs >= 1);
        }
        drop(wal);
        let (_, records) = open(&path, DurabilityLevel::Sync);
        assert_eq!(records.len(), 200);
    }

    #[test]
    fn quiesce_rotates_only_on_success_and_retains_previous_segment() {
        let dir = TempDir::new("wal-quiesce");
        let path = dir.path().join("wal-1.log");
        let next = dir.path().join("wal-2.log");
        let (wal, _) = open(&path, DurabilityLevel::Sync);
        commit(&wal, &payloads(2));
        // Failed snapshot write: old segment untouched, no new segment.
        let err = wal
            .quiesce_and_rotate::<()>(|| Err(EngineError::durability("boom")), |_| Ok(()))
            .unwrap_err();
        assert!(err.to_string().contains("boom"));
        assert!(std::fs::metadata(&path).unwrap().len() > 0);
        assert!(!next.exists());
        assert_eq!(wal.path(), path);
        // A failed publish happens *after* the rotation: the log moves to
        // the fresh segment (safe under either surviving manifest) but
        // the checkpoint is reported failed and the log stays healthy.
        let rolled = dir.path().join("wal-roll.log");
        let err = wal
            .quiesce_and_rotate(
                || Ok((0u64, rolled.clone())),
                |_| Err(EngineError::durability("flip failed")),
            )
            .unwrap_err();
        assert!(err.to_string().contains("flip failed"));
        assert_eq!(wal.path(), rolled);
        assert!(
            wal.degraded_reason().is_none(),
            "publish failure must not poison"
        );
        commit(&wal, &payloads(1));
        // Successful snapshot write: rotated to the fresh segment; the
        // old one is *retained* as the previous generation (checkpoint GC
        // sweeps older ones) and commits land in the new file.
        let id = wal
            .quiesce_and_rotate(|| Ok((2u64, next.clone())), |_| Ok(()))
            .unwrap();
        assert_eq!(id, 2);
        assert_eq!(wal.path(), next);
        assert!(
            path.exists(),
            "previous generation retained for scrub fallback"
        );
        assert_eq!(std::fs::metadata(&next).unwrap().len(), 0);
        commit(&wal, &payloads(1));
        drop(wal);
        let (_, records) = open(&next, DurabilityLevel::Sync);
        assert_eq!(records.len(), 1, "only the post-checkpoint commit");
    }

    #[test]
    fn oversized_commit_is_rejected_before_acknowledgement() {
        let dir = TempDir::new("wal-oversize");
        let path = dir.path().join("wal-1.log");
        let (wal, _) = open(&path, DurabilityLevel::Sync);
        // One row whose record body (4-byte count + 4-byte len + row)
        // lands just past the cap.
        let big = vec![0xA5u8; MAX_WAL_FRAME - 7];
        let err = wal.begin_commit(&[big.as_slice()]).unwrap_err();
        assert!(err.to_string().contains("frame cap"), "{err}");
        // A client error, not an I/O failure: nothing was staged and the
        // WAL keeps accepting normal commits.
        commit(&wal, &payloads(2));
        drop(wal);
        let (_, records) = open(&path, DurabilityLevel::Sync);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].rows, payloads(2));
    }
}
