//! `idf-durable`: the durability layer that makes Indexed DataFrames
//! survive process death.
//!
//! The paper's tables are purely in-memory — a restart loses every table
//! and re-ingesting SNB-scale data plus rebuilding the cTrie from scratch
//! is exactly the cost this layer amortizes. Three cooperating pieces:
//!
//! 1. **Write-ahead log** ([`wal`]): every committed append is framed
//!    (length-prefixed, CRC32-checksummed) and appended to a per-table
//!    segment file by a group-commit writer thread that coalesces
//!    concurrent commits into one `fsync`. The durability level
//!    ([`idf_engine::config::DurabilityLevel`]) decides whether commits
//!    wait for that fsync (`Sync`), are acknowledged once staged
//!    (`Async`), or skip the WAL entirely (`None`, the default — the rest
//!    of the workspace is unchanged unless durability is asked for).
//! 2. **Checkpoints** ([`checkpoint`]): a consistent [`TableSnapshot`] —
//!    row batches verbatim plus a compact cTrie dump — serialized to a
//!    manifest-versioned file; the WAL then rotates to a fresh segment
//!    named by the new checkpoint id, retiring the covered one.
//! 3. **Recovery** ([`DurableSession::open`]): the newest valid
//!    checkpoint is restored (bulk cTrie load, no per-row work), the WAL
//!    tail's logged bytes are checked and published again through the
//!    append protocol, and
//!    corrupt manifests/segments surface as typed errors, never panics.
//!
//! [`TableSnapshot`]: idf_core::table::TableSnapshot

#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod crc;
pub mod failpoints;
pub mod io;
pub mod scrub;
pub mod session;
pub mod sim;
pub mod wal;

pub use io::{OsIo, StorageIo};
pub use scrub::{scrub_data_dir, ScrubReport};
pub use session::DurableSession;
pub use sim::{FaultProfile, SimIo};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A process-unique temporary directory, removed on drop. All durable
/// tests and benches go through this so `cargo test -q` stays
/// parallel-safe and leaves no litter behind.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh directory under the system temp dir.
    ///
    /// # Panics
    /// Panics when the directory cannot be created — test/bench
    /// bootstrap, where failing loudly is the right call.
    pub fn new(prefix: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("idf-{prefix}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
