//! `SimIo`: a seeded, deterministic, in-memory disk implementing
//! [`StorageIo`] for FoundationDB-style simulation of the durability
//! layer.
//!
//! # Disk model
//!
//! Every file carries two byte images:
//!
//! - **`live`** — what reads observe *now* (the OS page cache view);
//! - **`synced`** — what survives a [`SimIo::crash`] (the platter view),
//!   advanced only by `fsync`/`fdatasync`.
//!
//! plus an **`entry_durable`** bit: a freshly created (or
//! renamed-into-place) entry vanishes on crash until its containing
//! directory is synced, exactly the POSIX trap the real code guards
//! against with directory fsyncs. Renames move the `live` namespace
//! immediately but stay on an undo list until the destination directory
//! is synced; a crash rolls un-synced renames back (the displaced
//! destination file reappears, the source returns to its old name with
//! its last-synced content).
//!
//! [`SimIo::crash`] is the in-process power cut: un-synced bytes are
//! discarded (a seeded coin decides whether a *prefix* of the un-synced
//! tail survives — a torn write), un-synced entries and renames are
//! rolled back, and the crash **epoch** is bumped so every handle opened
//! before the crash fails with a stale-handle error — a leaked writer
//! thread from the "previous life" cannot flush acknowledged-after-death
//! data into the new one. A test then reopens the store in microseconds
//! instead of re-execing a SIGKILL child.
//!
//! # Fault injection
//!
//! [`FaultProfile`] holds per-operation fault probabilities (transient
//! write EIO, transient + sticky fsync failure, read EIO, read-side
//! bit-flips, torn tails on crash, silent rename drops) and an optional
//! byte capacity whose exhaustion surfaces as ENOSPC. Decisions are
//! **hash-derived** — seed ⊕ operation kind ⊕ path ⊕ a per-(kind, path)
//! counter fed through SplitMix64 — so a given seed yields the same
//! fault pattern regardless of thread interleaving, and any failing
//! schedule replays from its printed seed.

use std::collections::HashMap;
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::io::{AppendFile, DirEntryInfo, StorageIo};

/// Per-operation fault probabilities (0.0 disables a fault class) plus
/// the optional disk capacity. See the module docs for the model.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Probability a write/append fails with a transient EIO.
    pub write_error: f64,
    /// Probability an fsync/fdatasync fails.
    pub fsync_error: f64,
    /// Given an fsync failure, probability it is *sticky*: every later
    /// sync fails too until [`SimIo::clear_sticky_fsync`] or a crash.
    pub fsync_sticky: f64,
    /// Probability a whole-file read fails with a transient EIO.
    pub read_error: f64,
    /// Probability a read returns a copy with one bit flipped.
    pub read_bit_flip: f64,
    /// Probability a crash preserves a *prefix* of a file's un-synced
    /// tail (a torn write) instead of discarding it entirely.
    pub torn_write: f64,
    /// Probability a directory sync silently fails to commit a pending
    /// rename (a lying filesystem; the rename still rolls back on
    /// crash). Byzantine — breaks the ack contract by design.
    pub rename_drop: f64,
    /// Disk capacity in bytes; writes past it fail with ENOSPC.
    pub capacity: Option<u64>,
}

impl FaultProfile {
    /// No faults at all: a perfectly honest in-memory disk (crashes
    /// still lose un-synced data, torn tails never survive).
    pub const fn none() -> Self {
        FaultProfile {
            write_error: 0.0,
            fsync_error: 0.0,
            fsync_sticky: 0.0,
            read_error: 0.0,
            read_bit_flip: 0.0,
            torn_write: 0.0,
            rename_drop: 0.0,
            capacity: None,
        }
    }

    /// Crash-realistic faults an honest disk can produce: transient
    /// write/fsync errors (sometimes sticky) and torn tails. Under this
    /// profile the recovery invariants must hold *exactly*.
    pub const fn crash_faults() -> Self {
        FaultProfile {
            write_error: 0.02,
            fsync_error: 0.03,
            fsync_sticky: 0.25,
            read_error: 0.0,
            read_bit_flip: 0.0,
            torn_write: 0.5,
            rename_drop: 0.0,
            capacity: None,
        }
    }

    /// Everything in [`FaultProfile::crash_faults`] plus a lying read
    /// path and dropped renames. Opens may fail with typed errors and
    /// recovered prefixes may be short, but nothing may panic, hang,
    /// duplicate or reorder.
    pub const fn byzantine() -> Self {
        FaultProfile {
            read_error: 0.02,
            read_bit_flip: 0.01,
            rename_drop: 0.02,
            ..FaultProfile::crash_faults()
        }
    }
}

/// Counters of what the simulated disk has done and injected, for tests
/// asserting a schedule actually exercised faults.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Appends + whole-file writes served.
    pub writes: u64,
    /// File syncs served (including failed ones).
    pub syncs: u64,
    /// Crashes simulated.
    pub crashes: u64,
    /// Faults injected, across every class.
    pub faults_injected: u64,
    /// Torn tails preserved by crashes.
    pub torn_tails: u64,
}

#[derive(Debug, Clone, Default)]
struct SimFile {
    /// Contents reads observe now.
    live: Vec<u8>,
    /// Contents a crash reverts to (when the entry itself is durable).
    synced: Vec<u8>,
    /// False until the containing directory is synced; a crash removes
    /// non-durable entries outright.
    entry_durable: bool,
}

/// Undo record for a rename not yet covered by a directory sync.
#[derive(Debug)]
struct PendingRename {
    from: PathBuf,
    to: PathBuf,
    /// Durable state of the displaced destination, if it existed.
    displaced: Option<SimFile>,
    /// Durable state the source had at rename time (restored on crash
    /// when the source entry itself was durable).
    src_synced: Vec<u8>,
    src_entry_durable: bool,
}

/// Operation kinds feeding the hash-derived fault decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OpKind {
    Write,
    Fsync,
    Read,
    BitFlip,
    Torn,
    TornLen,
    RenameDrop,
}

struct SimState {
    epoch: u64,
    files: HashMap<PathBuf, SimFile>,
    dirs: Vec<PathBuf>,
    renames: Vec<PendingRename>,
    profile: FaultProfile,
    sticky_fsync: bool,
    seed: u64,
    counters: HashMap<(u8, PathBuf), u64>,
    stats: SimStats,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn hash_path(path: &Path) -> u64 {
    // FNV-1a over the path bytes: stable across runs and platforms.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in path.as_os_str().as_encoded_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn eio(what: &str, path: &Path) -> io::Error {
    io::Error::other(format!("injected I/O error ({what}) on {}", path.display()))
}

fn enospc(path: &Path) -> io::Error {
    io::Error::other(format!(
        "No space left on device (ENOSPC) writing {}",
        path.display()
    ))
}

fn stale(path: &Path) -> io::Error {
    io::Error::other(format!(
        "stale handle for {} (crashed since open)",
        path.display()
    ))
}

impl SimState {
    /// Seeded, interleaving-independent fault decision: the draw for the
    /// N-th operation of a given kind on a given path is a pure function
    /// of (seed, kind, path, N).
    fn draw(&mut self, kind: OpKind, path: &Path) -> u64 {
        let key = (kind as u8, path.to_path_buf());
        let n = self.counters.entry(key).or_insert(0);
        *n += 1;
        splitmix64(
            self.seed
                ^ (kind as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ hash_path(path)
                ^ n.wrapping_mul(0xD6E8_FEB8_6659_FD93),
        )
    }

    fn decide(&mut self, kind: OpKind, path: &Path, prob: f64) -> bool {
        if prob <= 0.0 {
            return false;
        }
        let hit = (self.draw(kind, path) as f64 / u64::MAX as f64) < prob;
        if hit {
            self.stats.faults_injected += 1;
        }
        hit
    }

    fn used_bytes(&self) -> u64 {
        self.files.values().map(|f| f.live.len() as u64).sum()
    }

    /// Append up to the capacity; on overflow a *prefix* lands (as a
    /// real ENOSPC leaves a partial write) and the call errors.
    fn append_capped(&mut self, path: &Path, buf: &[u8]) -> io::Result<()> {
        let room = match self.profile.capacity {
            Some(cap) => (cap.saturating_sub(self.used_bytes())) as usize,
            None => usize::MAX,
        };
        let take = buf.len().min(room);
        let file = self
            .files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(ErrorKind::NotFound, "file removed"))?;
        file.live.extend_from_slice(&buf[..take]);
        if take < buf.len() {
            self.stats.faults_injected += 1;
            return Err(enospc(path));
        }
        Ok(())
    }

    fn fsync_file(&mut self, path: &Path) -> io::Result<()> {
        self.stats.syncs += 1;
        if self.sticky_fsync {
            self.stats.faults_injected += 1;
            return Err(eio("sticky fsync", path));
        }
        let p = self.profile.fsync_error;
        let sticky_p = self.profile.fsync_sticky;
        if self.decide(OpKind::Fsync, path, p) {
            if self.decide(OpKind::Fsync, path, sticky_p) {
                self.sticky_fsync = true;
            }
            return Err(eio("fsync", path));
        }
        let file = self
            .files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(ErrorKind::NotFound, "file removed"))?;
        file.synced = file.live.clone();
        Ok(())
    }
}

fn lock(m: &Mutex<SimState>) -> MutexGuard<'_, SimState> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The deterministic simulated disk. Cheap to clone via `Arc`; all
/// handles and sessions share one disk state.
pub struct SimIo {
    state: Arc<Mutex<SimState>>,
}

impl std::fmt::Debug for SimIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock(&self.state);
        f.debug_struct("SimIo")
            .field("seed", &st.seed)
            .field("epoch", &st.epoch)
            .field("files", &st.files.len())
            .finish()
    }
}

impl SimIo {
    /// A fresh disk driven by `seed` under `profile`.
    pub fn new(seed: u64, profile: FaultProfile) -> Arc<Self> {
        Arc::new(SimIo {
            state: Arc::new(Mutex::new(SimState {
                epoch: 0,
                files: HashMap::new(),
                dirs: Vec::new(),
                renames: Vec::new(),
                profile,
                sticky_fsync: false,
                seed,
                counters: HashMap::new(),
                stats: SimStats::default(),
            })),
        })
    }

    /// Simulate a power cut: un-synced renames roll back, non-durable
    /// entries vanish, un-synced tails are discarded (or torn to a
    /// seeded prefix), and every pre-crash handle goes stale.
    pub fn crash(&self) {
        let mut st = lock(&self.state);
        st.stats.crashes += 1;
        // Roll back renames never covered by a directory sync, newest
        // first so chained renames unwind correctly.
        while let Some(r) = st.renames.pop() {
            let moved = st.files.remove(&r.to);
            if let Some(displaced) = r.displaced {
                st.files.insert(r.to.clone(), displaced);
            }
            if r.src_entry_durable {
                let _ = moved; // its un-synced live state dies with the crash
                st.files.insert(
                    r.from.clone(),
                    SimFile {
                        live: r.src_synced.clone(),
                        synced: r.src_synced,
                        entry_durable: true,
                    },
                );
            }
        }
        let paths: Vec<PathBuf> = st.files.keys().cloned().collect();
        for path in paths {
            let file = &st.files[&path];
            if !file.entry_durable {
                st.files.remove(&path);
                continue;
            }
            let (synced_len, is_pure_append) = {
                let f = &st.files[&path];
                (f.synced.len(), f.live.starts_with(&f.synced))
            };
            let live_len = st.files[&path].live.len();
            let mut keep = synced_len;
            if is_pure_append && live_len > synced_len {
                let p = st.profile.torn_write;
                if st.decide(OpKind::Torn, &path, p) {
                    let extra = (live_len - synced_len) as u64;
                    let torn = st.draw(OpKind::TornLen, &path) % (extra + 1);
                    keep = synced_len + torn as usize;
                    if torn > 0 {
                        st.stats.torn_tails += 1;
                    }
                }
            }
            let f = st.files.get_mut(&path).expect("file present");
            if is_pure_append {
                f.live.truncate(keep);
            } else {
                f.live = f.synced.clone();
            }
            f.synced = f.live.clone();
        }
        st.epoch += 1;
        // A reboot clears the kernel's sticky error state; the profile
        // may of course re-trigger it.
        st.sticky_fsync = false;
    }

    /// Flip one bit of the *stored* byte at `offset` of `path` — real
    /// at-rest corruption (both the live and crash-surviving images),
    /// for scrub tests. Panics if the file or offset does not exist.
    pub fn corrupt(&self, path: &Path, offset: u64) {
        let mut st = lock(&self.state);
        let f = st.files.get_mut(path).expect("corrupt: no such sim file");
        let i = offset as usize;
        f.live[i] ^= 0x40;
        if i < f.synced.len() {
            f.synced[i] ^= 0x40;
        }
    }

    /// Change the disk capacity (None = unbounded). Freeing space after
    /// an ENOSPC storm is `set_capacity(None)` or a larger cap.
    pub fn set_capacity(&self, capacity: Option<u64>) {
        lock(&self.state).profile.capacity = capacity;
    }

    /// Swap the fault profile mid-run — e.g. go quiet
    /// ([`FaultProfile::none`]) for a schedule's final
    /// recover-and-verify pass. The fault decision stream keeps its
    /// position, so earlier draws are unaffected.
    pub fn set_profile(&self, profile: FaultProfile) {
        let mut st = lock(&self.state);
        // Keep an explicitly-set capacity unless the new profile sets
        // its own.
        let capacity = profile.capacity.or(st.profile.capacity);
        st.profile = profile;
        st.profile.capacity = capacity;
    }

    /// Force (or clear) the sticky-fsync failure state.
    pub fn set_sticky_fsync(&self, on: bool) {
        lock(&self.state).sticky_fsync = on;
    }

    /// Clear a sticky fsync failure ("the disk came back").
    pub fn clear_sticky_fsync(&self) {
        self.set_sticky_fsync(false);
    }

    /// Bytes currently stored across all files.
    pub fn used_bytes(&self) -> u64 {
        lock(&self.state).used_bytes()
    }

    /// Snapshot of the fault/operation counters.
    pub fn stats(&self) -> SimStats {
        lock(&self.state).stats
    }

    /// Current crash epoch (how many crashes have happened).
    pub fn epoch(&self) -> u64 {
        lock(&self.state).epoch
    }

    /// The raw live bytes of `path`, bypassing fault injection.
    pub fn raw(&self, path: &Path) -> Option<Vec<u8>> {
        lock(&self.state).files.get(path).map(|f| f.live.clone())
    }

    fn dir_exists(st: &SimState, dir: &Path) -> bool {
        st.dirs.iter().any(|d| d == dir)
    }
}

/// Append handle into the simulated disk; goes stale after a crash.
struct SimAppendFile {
    state: Arc<Mutex<SimState>>,
    path: PathBuf,
    epoch: u64,
}

impl AppendFile for SimAppendFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut st = lock(&self.state);
        if st.epoch != self.epoch {
            return Err(stale(&self.path));
        }
        st.stats.writes += 1;
        let p = st.profile.write_error;
        if st.decide(OpKind::Write, &self.path, p) {
            return Err(eio("write", &self.path));
        }
        st.append_capped(&self.path, buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let mut st = lock(&self.state);
        if st.epoch != self.epoch {
            return Err(stale(&self.path));
        }
        st.fsync_file(&self.path)
    }
}

impl StorageIo for SimIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut st = lock(&self.state);
        let p = st.profile.read_error;
        if st.decide(OpKind::Read, path, p) {
            return Err(eio("read", path));
        }
        let Some(file) = st.files.get(path) else {
            return Err(io::Error::new(
                ErrorKind::NotFound,
                format!("no such file: {}", path.display()),
            ));
        };
        let mut bytes = file.live.clone();
        let p = st.profile.read_bit_flip;
        if !bytes.is_empty() && st.decide(OpKind::BitFlip, path, p) {
            let i = (st.draw(OpKind::BitFlip, path) as usize) % bytes.len();
            bytes[i] ^= 0x01;
        }
        Ok(bytes)
    }

    fn write(&self, path: &Path, pieces: &[&[u8]]) -> io::Result<()> {
        let len: usize = pieces.iter().map(|p| p.len()).sum();
        let mut st = lock(&self.state);
        st.stats.writes += 1;
        let p = st.profile.write_error;
        if st.decide(OpKind::Write, path, p) {
            return Err(eio("write", path));
        }
        if let Some(cap) = st.profile.capacity {
            let others = st.used_bytes() - st.files.get(path).map_or(0, |f| f.live.len() as u64);
            if others + len as u64 > cap {
                st.stats.faults_injected += 1;
                return Err(enospc(path));
            }
        }
        let entry = st.files.entry(path.to_path_buf()).or_default();
        entry.live = pieces.concat();
        Ok(())
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendFile>> {
        let mut st = lock(&self.state);
        st.files.entry(path.to_path_buf()).or_default();
        let epoch = st.epoch;
        drop(st);
        Ok(Box::new(SimAppendFile {
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
            epoch,
        }))
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut st = lock(&self.state);
        let file = st
            .files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(ErrorKind::NotFound, "no such file"))?;
        let len = len as usize;
        file.live.truncate(len);
        // Truncation is metadata the real code only applies to cut an
        // already-lost tail; model it as immediately durable.
        file.synced.truncate(len);
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        lock(&self.state).fsync_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = lock(&self.state);
        let Some(moved) = st.files.remove(from) else {
            return Err(io::Error::new(
                ErrorKind::NotFound,
                format!("rename source missing: {}", from.display()),
            ));
        };
        let displaced = st.files.get(to).and_then(|f| {
            f.entry_durable.then(|| SimFile {
                live: f.synced.clone(),
                synced: f.synced.clone(),
                entry_durable: true,
            })
        });
        st.renames.push(PendingRename {
            from: from.to_path_buf(),
            to: to.to_path_buf(),
            displaced,
            src_synced: moved.synced.clone(),
            src_entry_durable: moved.entry_durable,
        });
        st.files.insert(
            to.to_path_buf(),
            SimFile {
                live: moved.live,
                synced: moved.synced,
                // The *entry* at `to` is not durable until the directory
                // is synced, even if the content bytes are.
                entry_durable: false,
            },
        );
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = lock(&self.state);
        if st.files.remove(path).is_none() {
            return Err(io::Error::new(ErrorKind::NotFound, "no such file"));
        }
        // Unlink + the eventual dir sync; simulated as immediately
        // durable (resurrection of a deleted stale file is not a fault
        // class the durability layer needs to distinguish — stale
        // litter is ignored by recovery either way).
        st.renames.retain(|r| r.to != *path);
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut st = lock(&self.state);
        st.stats.syncs += 1;
        if st.sticky_fsync {
            st.stats.faults_injected += 1;
            return Err(eio("sticky fsync (dir)", dir));
        }
        let p = st.profile.fsync_error;
        let sticky_p = st.profile.fsync_sticky;
        if st.decide(OpKind::Fsync, dir, p) {
            if st.decide(OpKind::Fsync, dir, sticky_p) {
                st.sticky_fsync = true;
            }
            return Err(eio("dir fsync", dir));
        }
        // Commit pending renames whose destination lives in `dir` —
        // unless the byzantine rename-drop fault swallows one.
        let mut kept = Vec::new();
        let drop_p = st.profile.rename_drop;
        for r in std::mem::take(&mut st.renames) {
            if r.to.parent() != Some(dir) {
                kept.push(r);
            } else if st.decide(OpKind::RenameDrop, &r.to, drop_p) {
                kept.push(r); // silently not durable
            } else if let Some(f) = st.files.get_mut(&r.to) {
                f.entry_durable = true;
                f.synced = f.live.clone();
            }
        }
        st.renames = kept;
        // Created entries in `dir` become durable (their content is
        // whatever has been fsync'd into them).
        let still_pending: Vec<PathBuf> = st.renames.iter().map(|r| r.to.clone()).collect();
        for (path, file) in st.files.iter_mut() {
            if path.parent() == Some(dir) && !still_pending.contains(path) {
                file.entry_durable = true;
            }
        }
        Ok(())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut st = lock(&self.state);
        let mut d = dir.to_path_buf();
        loop {
            if !SimIo::dir_exists(&st, &d) {
                st.dirs.push(d.clone());
            }
            match d.parent() {
                Some(p) if p.as_os_str().is_empty() => break,
                Some(p) => d = p.to_path_buf(),
                None => break,
            }
        }
        Ok(())
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<DirEntryInfo>> {
        let st = lock(&self.state);
        if !SimIo::dir_exists(&st, dir) {
            return Err(io::Error::new(ErrorKind::NotFound, "no such directory"));
        }
        let mut out = Vec::new();
        for d in &st.dirs {
            if d.parent() == Some(dir) {
                if let Some(name) = d.file_name().and_then(|n| n.to_str()) {
                    out.push(DirEntryInfo {
                        name: name.to_string(),
                        is_dir: true,
                    });
                }
            }
        }
        for p in st.files.keys() {
            if p.parent() == Some(dir) {
                if let Some(name) = p.file_name().and_then(|n| n.to_str()) {
                    out.push(DirEntryInfo {
                        name: name.to_string(),
                        is_dir: false,
                    });
                }
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn exists(&self, path: &Path) -> bool {
        let st = lock(&self.state);
        st.files.contains_key(path) || SimIo::dir_exists(&st, path)
    }

    fn is_dir(&self, path: &Path) -> bool {
        SimIo::dir_exists(&lock(&self.state), path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        let st = lock(&self.state);
        st.files
            .get(path)
            .map(|f| f.live.len() as u64)
            .ok_or_else(|| io::Error::new(ErrorKind::NotFound, "no such file"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> Arc<SimIo> {
        SimIo::new(7, FaultProfile::none())
    }

    #[test]
    fn unsynced_appends_die_in_a_crash_synced_ones_survive() {
        let io = quiet();
        io.create_dir_all(Path::new("/d")).unwrap();
        let p = Path::new("/d/seg");
        let mut f = io.open_append(p).unwrap();
        io.sync_dir(Path::new("/d")).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync_data().unwrap();
        f.write_all(b"-lost").unwrap();
        assert_eq!(io.read(p).unwrap(), b"durable-lost");
        io.crash();
        assert_eq!(io.read(p).unwrap(), b"durable");
        // The old handle is stale in the new epoch.
        assert!(f.write_all(b"zombie").is_err());
        assert!(f.sync_data().is_err());
    }

    #[test]
    fn unsynced_entry_vanishes_in_a_crash() {
        let io = quiet();
        io.create_dir_all(Path::new("/d")).unwrap();
        let p = Path::new("/d/new");
        let mut f = io.open_append(p).unwrap();
        f.write_all(b"bytes").unwrap();
        f.sync_data().unwrap(); // content synced, entry never was
        io.crash();
        assert!(!io.exists(p), "entry without a dir sync must vanish");
    }

    #[test]
    fn rename_is_atomic_and_needs_dir_sync_to_stick() {
        let io = quiet();
        let d = Path::new("/d");
        io.create_dir_all(d).unwrap();
        // Durable original destination.
        io.write(Path::new("/d/dst"), &[b"old".as_slice()]).unwrap();
        io.sync_file(Path::new("/d/dst")).unwrap();
        io.sync_dir(d).unwrap();
        // Replacement staged the atomic way, minus the final dir sync.
        io.write(Path::new("/d/tmp"), &[b"new".as_slice()]).unwrap();
        io.sync_file(Path::new("/d/tmp")).unwrap();
        io.rename(Path::new("/d/tmp"), Path::new("/d/dst")).unwrap();
        assert_eq!(io.read(Path::new("/d/dst")).unwrap(), b"new");
        io.crash();
        assert_eq!(
            io.read(Path::new("/d/dst")).unwrap(),
            b"old",
            "rename without dir sync rolls back"
        );
        // Same dance with the dir sync: survives.
        io.write(Path::new("/d/tmp"), &[b"new2".as_slice()])
            .unwrap();
        io.sync_file(Path::new("/d/tmp")).unwrap();
        io.rename(Path::new("/d/tmp"), Path::new("/d/dst")).unwrap();
        io.sync_dir(d).unwrap();
        io.crash();
        assert_eq!(io.read(Path::new("/d/dst")).unwrap(), b"new2");
    }

    #[test]
    fn capacity_enforces_enospc_and_freeing_space_recovers() {
        let io = quiet();
        io.set_capacity(Some(8));
        io.create_dir_all(Path::new("/d")).unwrap();
        let p = Path::new("/d/f");
        let mut f = io.open_append(p).unwrap();
        f.write_all(b"12345").unwrap();
        let err = f.write_all(b"6789A").unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        // A prefix landed (torn), as a real ENOSPC leaves.
        assert_eq!(io.file_len(p).unwrap(), 8);
        io.set_capacity(None);
        f.write_all(b"ok").unwrap();
        assert_eq!(io.file_len(p).unwrap(), 10);
    }

    /// A file written from several pieces is one write: one operation
    /// (so a seeded fault schedule does not see the pieces), the pieces
    /// concatenated, and the capacity check on their summed length.
    #[test]
    fn a_write_of_pieces_is_one_operation_on_their_total() {
        let io = quiet();
        io.create_dir_all(Path::new("/d")).unwrap();
        let p = Path::new("/d/f");
        let pieces = [b"head".as_slice(), b"", b"body", b"tail"];
        io.write(p, &pieces).unwrap();
        assert_eq!(io.stats().writes, 1);
        assert_eq!(io.read(p).unwrap(), b"headbodytail");
        // Rewriting the file frees its old bytes first: 12 fit in 12.
        io.set_capacity(Some(12));
        io.write(p, &pieces).unwrap();
        let err = io
            .write(p, &[b"headbody".as_slice(), b"tail!"])
            .unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        assert_eq!(
            io.read(p).unwrap(),
            b"headbodytail",
            "a refused write changes nothing"
        );
    }

    #[test]
    fn sticky_fsync_fails_until_cleared() {
        let io = quiet();
        io.create_dir_all(Path::new("/d")).unwrap();
        io.write(Path::new("/d/f"), &[b"x".as_slice()]).unwrap();
        io.set_sticky_fsync(true);
        assert!(io.sync_file(Path::new("/d/f")).is_err());
        assert!(io.sync_dir(Path::new("/d")).is_err());
        io.clear_sticky_fsync();
        io.sync_file(Path::new("/d/f")).unwrap();
    }

    #[test]
    fn corrupt_flips_a_stored_bit() {
        let io = quiet();
        io.create_dir_all(Path::new("/d")).unwrap();
        io.write(Path::new("/d/f"), &[b"AAAA".as_slice()]).unwrap();
        io.sync_file(Path::new("/d/f")).unwrap();
        io.sync_dir(Path::new("/d")).unwrap(); // make the entry durable too
        io.corrupt(Path::new("/d/f"), 2);
        let got = io.read(Path::new("/d/f")).unwrap();
        assert_eq!(got, vec![b'A', b'A', b'A' ^ 0x40, b'A']);
        io.crash(); // survives a crash: it is at-rest corruption
        assert_eq!(io.read(Path::new("/d/f")).unwrap()[2], b'A' ^ 0x40);
    }

    #[test]
    fn same_seed_same_faults() {
        for _ in 0..2 {
            let mk = || SimIo::new(99, FaultProfile::crash_faults());
            let (a, b) = (mk(), mk());
            for io in [&a, &b] {
                io.create_dir_all(Path::new("/d")).unwrap();
            }
            let run = |io: &Arc<SimIo>| -> Vec<bool> {
                let mut outcomes = Vec::new();
                let mut f = io.open_append(Path::new("/d/seg")).unwrap();
                for i in 0..64 {
                    outcomes.push(f.write_all(&[i]).is_ok());
                    outcomes.push(f.sync_data().is_ok());
                    io.clear_sticky_fsync();
                }
                outcomes
            };
            assert_eq!(run(&a), run(&b), "seeded fault stream must be stable");
        }
    }

    #[test]
    fn torn_write_preserves_only_a_prefix() {
        // With torn writes certain, some crash leaves a strict prefix of
        // the un-synced tail; never more than was written.
        let profile = FaultProfile {
            torn_write: 1.0,
            ..FaultProfile::none()
        };
        let io = SimIo::new(3, profile);
        io.create_dir_all(Path::new("/d")).unwrap();
        let p = Path::new("/d/seg");
        let mut f = io.open_append(p).unwrap();
        io.sync_dir(Path::new("/d")).unwrap();
        f.write_all(b"SYNCED").unwrap();
        f.sync_data().unwrap();
        f.write_all(b"unsynced-tail").unwrap();
        io.crash();
        let got = io.read(p).unwrap();
        assert!(got.starts_with(b"SYNCED"));
        assert!(got.len() <= b"SYNCED".len() + b"unsynced-tail".len());
        assert!(b"SYNCEDunsynced-tail".starts_with(got.as_slice()));
    }
}
