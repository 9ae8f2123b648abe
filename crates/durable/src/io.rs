//! The storage I/O seam: every file operation the WAL, checkpoint and
//! recovery paths perform goes through [`StorageIo`], so the whole
//! durability layer can run against either the real filesystem
//! ([`OsIo`]) or the deterministic in-memory fault-injecting disk
//! ([`crate::sim::SimIo`]).
//!
//! The trait is deliberately shaped around what the durability layer
//! actually does — whole-file reads, atomic-replace writes, append
//! streams with explicit `fdatasync`, renames, and directory syncs —
//! rather than mirroring `std::fs`. Narrowness is what makes the
//! simulated disk's crash semantics tractable: every durability-relevant
//! transition (bytes appended but not synced, a rename not yet covered
//! by a directory sync, a created entry whose directory was never
//! synced) maps to exactly one trait call.
//!
//! All methods return `std::io::Error`; callers wrap into typed
//! `EngineError`s at the boundary, exactly as the pre-seam code did.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// An open append stream (a WAL segment). Writes buffer in the OS page
/// cache (or the simulated unsynced buffer) until [`AppendFile::sync_data`]
/// makes them durable.
pub trait AppendFile: Send {
    /// Append `buf` in full.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Make every byte appended so far durable (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()>;
}

/// One directory entry as seen by [`StorageIo::read_dir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntryInfo {
    /// File or directory name (final path component).
    pub name: String,
    /// True when the entry is a directory.
    pub is_dir: bool,
}

/// Every file operation the durability layer performs.
pub trait StorageIo: Send + Sync {
    /// Read the whole file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Create-or-truncate `path` with `pieces` concatenated, in order:
    /// a file is one write however many buffers its bytes lie in (a
    /// snapshot writes its sealed batches from where they are). **Not**
    /// durable until [`StorageIo::sync_file`] (content) and
    /// [`StorageIo::sync_dir`] (entry, for new files) are called.
    fn write(&self, path: &Path, pieces: &[&[u8]]) -> io::Result<()>;

    /// Open `path` for appending, creating it if absent. A freshly
    /// created entry is not durable until its directory is synced.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendFile>>;

    /// Truncate `path` to `len` bytes (used to cut torn WAL tails).
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Make the current contents of `path` durable (`fsync`).
    fn sync_file(&self, path: &Path) -> io::Result<()>;

    /// Atomically replace `to` with `from`. Durable only once the
    /// containing directory is synced.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Delete the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Sync the directory at `dir`, making created/renamed entries
    /// within it durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Create `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// List the entries of `dir`.
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<DirEntryInfo>>;

    /// Whether a file or directory exists at `path`.
    fn exists(&self, path: &Path) -> bool;

    /// Whether `path` exists and is a directory.
    fn is_dir(&self, path: &Path) -> bool;

    /// Length in bytes of the file at `path`.
    fn file_len(&self, path: &Path) -> io::Result<u64>;
}

/// Buffer [`OsIo::write`] gathers small pieces in.
const WRITE_BUFFER: usize = 64 << 10;

/// The real filesystem: thin wrappers over `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct OsIo;

impl AppendFile for File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        Write::write_all(self, buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }
}

impl StorageIo for OsIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, pieces: &[&[u8]]) -> io::Result<()> {
        // Small pieces (headers between batches) coalesce in the buffer;
        // a piece larger than it goes to the file directly.
        let mut file = BufWriter::with_capacity(WRITE_BUFFER, File::create(path)?);
        for piece in pieces {
            file.write_all(piece)?;
        }
        file.flush()
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendFile>> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        Ok(Box::new(file))
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        OpenOptions::new().write(true).open(path)?.set_len(len)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<DirEntryInfo>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let is_dir = entry.path().is_dir();
            let name = entry.file_name().into_string().map_err(|raw| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("non-UTF-8 name {raw:?} in {}", dir.display()),
                )
            })?;
            out.push(DirEntryInfo { name, is_dir });
        }
        Ok(out)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn is_dir(&self, path: &Path) -> bool {
        path.is_dir()
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;

    #[test]
    fn os_io_roundtrip_and_rename() {
        let dir = TempDir::new("osio");
        let io = OsIo;
        let a = dir.path().join("a");
        let b = dir.path().join("b");
        io.write(&a, &[b"hel".as_slice(), b"", b"lo"]).unwrap();
        io.sync_file(&a).unwrap();
        assert_eq!(io.read(&a).unwrap(), b"hello");
        assert_eq!(io.file_len(&a).unwrap(), 5);
        io.rename(&a, &b).unwrap();
        io.sync_dir(dir.path()).unwrap();
        assert!(!io.exists(&a));
        assert_eq!(io.read(&b).unwrap(), b"hello");
        let names: Vec<String> = io
            .read_dir(dir.path())
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["b".to_string()]);
        io.remove_file(&b).unwrap();
        assert!(!io.exists(&b));
    }

    #[test]
    fn os_io_append_and_truncate() {
        let dir = TempDir::new("osio-append");
        let io = OsIo;
        let p = dir.path().join("seg");
        {
            let mut f = io.open_append(&p).unwrap();
            f.write_all(b"0123456789").unwrap();
            f.sync_data().unwrap();
        }
        io.set_len(&p, 4).unwrap();
        assert_eq!(io.read(&p).unwrap(), b"0123");
        // Reopening for append continues after the truncation point.
        let mut f = io.open_append(&p).unwrap();
        f.write_all(b"XY").unwrap();
        drop(f);
        assert_eq!(io.read(&p).unwrap(), b"0123XY");
    }
}
