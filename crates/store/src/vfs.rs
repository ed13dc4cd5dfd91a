//! The real-filesystem [`Vfs`] backend.
//!
//! This module is the single place in the workspace where storage code
//! touches `std::fs`/`std::io` (aide-lint's determinism pass enforces
//! exactly that scope): everything above it — WAL, segments, recovery,
//! compaction — speaks only the [`Vfs`] trait, so the whole engine runs
//! unchanged over `MemVfs` (equivalence tests) and `FaultVfs` (crash
//! tests).
//!
//! Durability mapping:
//!
//! - [`Vfs::sync`] is `File::sync_all` on the file *plus* `sync_all` on
//!   its parent directory, so a freshly created WAL or segment file's
//!   directory entry is durable too (the classic create-then-fsync-dir
//!   requirement);
//! - [`Vfs::remove`] also syncs the parent directory, so compaction's
//!   oldest-first segment deletions cannot reorder across a crash;
//! - [`Vfs::read_range`] issues a single `read` call and returns
//!   whatever it yields — honest short reads, which callers loop over
//!   via [`aide_util::vfs::read_exact`].

use aide_util::sync::lockrank;
use aide_util::vfs::{Vfs, VfsError, VfsErrorKind, VfsResult};
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// A [`Vfs`] rooted at a real directory.
#[derive(Debug)]
pub struct RealVfs {
    root: PathBuf,
}

impl RealVfs {
    /// Creates a backend rooted at `root` (created on first use).
    pub fn new(root: impl AsRef<Path>) -> RealVfs {
        RealVfs {
            root: root.as_ref().to_path_buf(),
        }
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn resolve(&self, path: &str) -> PathBuf {
        let mut full = self.root.clone();
        for part in path.split('/').filter(|p| !p.is_empty()) {
            full.push(part);
        }
        full
    }

    fn io_err(path: &str, e: &std::io::Error) -> VfsError {
        let kind = if e.kind() == std::io::ErrorKind::NotFound {
            VfsErrorKind::NotFound
        } else {
            VfsErrorKind::Io
        };
        VfsError::new(kind, path, e.to_string())
    }

    fn sync_parent(&self, path: &str) -> VfsResult<()> {
        if let Some(parent) = self.resolve(path).parent() {
            // Directory fsync: open the directory itself and sync_all.
            let dir = fs::File::open(parent).map_err(|e| Self::io_err(path, &e))?;
            dir.sync_all().map_err(|e| Self::io_err(path, &e))?;
        }
        Ok(())
    }
}

impl Vfs for RealVfs {
    fn read(&self, path: &str) -> VfsResult<Vec<u8>> {
        fs::read(self.resolve(path)).map_err(|e| Self::io_err(path, &e))
    }

    fn read_range(&self, path: &str, offset: u64, len: usize) -> VfsResult<Vec<u8>> {
        let mut f = fs::File::open(self.resolve(path)).map_err(|e| Self::io_err(path, &e))?;
        f.seek(SeekFrom::Start(offset))
            .map_err(|e| Self::io_err(path, &e))?;
        let mut buf = vec![0u8; len];
        let n = f.read(&mut buf).map_err(|e| Self::io_err(path, &e))?;
        buf.truncate(n);
        Ok(buf)
    }

    fn append(&self, path: &str, data: &[u8]) -> VfsResult<()> {
        let mut f = fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.resolve(path))
            .map_err(|e| Self::io_err(path, &e))?;
        f.write_all(data).map_err(|e| Self::io_err(path, &e))
    }

    fn truncate(&self, path: &str, len: u64) -> VfsResult<()> {
        let f = fs::OpenOptions::new()
            .write(true)
            .open(self.resolve(path))
            .map_err(|e| Self::io_err(path, &e))?;
        f.set_len(len).map_err(|e| Self::io_err(path, &e))
    }

    fn sync(&self, path: &str) -> VfsResult<()> {
        lockrank::check_blocking("fsync");
        let f = fs::File::open(self.resolve(path)).map_err(|e| Self::io_err(path, &e))?;
        f.sync_all().map_err(|e| Self::io_err(path, &e))?;
        self.sync_parent(path)
    }

    fn remove(&self, path: &str) -> VfsResult<bool> {
        match fs::remove_file(self.resolve(path)) {
            Ok(()) => {
                self.sync_parent(path)?;
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(Self::io_err(path, &e)),
        }
    }

    fn list(&self, dir: &str) -> VfsResult<Vec<String>> {
        let entries = match fs::read_dir(self.resolve(dir)) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(Self::io_err(dir, &e)),
        };
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| Self::io_err(dir, &e))?;
            let is_file = entry
                .file_type()
                .map_err(|e| Self::io_err(dir, &e))?
                .is_file();
            if is_file {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn create_dir_all(&self, dir: &str) -> VfsResult<()> {
        fs::create_dir_all(self.resolve(dir)).map_err(|e| Self::io_err(dir, &e))
    }

    fn len(&self, path: &str) -> VfsResult<Option<u64>> {
        match fs::metadata(self.resolve(path)) {
            Ok(m) => Ok(Some(m.len())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(Self::io_err(path, &e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aide-store-vfs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn real_vfs_basic_roundtrip() {
        let root = temp_root("basic");
        let v = RealVfs::new(&root);
        v.create_dir_all("shard_00").unwrap();
        assert_eq!(v.len("shard_00/wal").unwrap(), None);
        v.append("shard_00/wal", b"hello ").unwrap();
        v.append("shard_00/wal", b"world").unwrap();
        v.sync("shard_00/wal").unwrap();
        assert_eq!(v.read("shard_00/wal").unwrap(), b"hello world");
        assert_eq!(v.read_range("shard_00/wal", 6, 5).unwrap(), b"world");
        assert_eq!(v.read_range("shard_00/wal", 99, 5).unwrap(), b"");
        v.truncate("shard_00/wal", 5).unwrap();
        assert_eq!(v.read("shard_00/wal").unwrap(), b"hello");
        assert_eq!(v.list("shard_00").unwrap(), vec!["wal"]);
        assert!(v.list("nonexistent").unwrap().is_empty());
        assert!(v.remove("shard_00/wal").unwrap());
        assert!(!v.remove("shard_00/wal").unwrap());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_files_report_not_found() {
        let root = temp_root("missing");
        let v = RealVfs::new(&root);
        v.create_dir_all("").unwrap();
        assert_eq!(
            v.read("nope").unwrap_err().kind,
            aide_util::vfs::VfsErrorKind::NotFound
        );
        assert_eq!(
            v.truncate("nope", 0).unwrap_err().kind,
            aide_util::vfs::VfsErrorKind::NotFound
        );
        let _ = fs::remove_dir_all(&root);
    }
}
