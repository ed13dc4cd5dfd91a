//! A virtual filesystem seam for durable storage.
//!
//! The storage engine (`aide-store`) never touches `std::fs` directly: it
//! goes through the [`Vfs`] trait, which has three implementations:
//!
//! - `RealVfs` (in `aide-store`, the one module allowed to use `std::fs`)
//!   for production deployments;
//! - [`MemVfs`] here: a plain in-memory filesystem where every write is
//!   immediately durable — the fast deterministic backend for equivalence
//!   tests and benches that do not care about crashes;
//! - [`FaultVfs`] here: an in-memory filesystem with an explicit
//!   *durable/volatile* split and a scripted fault model in the spirit of
//!   simweb's `FaultPlan` — torn writes, short reads, silently lost
//!   fsyncs, and a crash-after-N-ops kill point. The crash-recovery suite
//!   enumerates every kill point, calls [`FaultVfs::crash_and_revive`],
//!   reopens the store, and asserts prefix consistency.
//!
//! Paths are plain `/`-separated relative strings (the store composes
//! them itself: `shard_03/wal`); the trait deliberately has no notion of
//! current directory, permissions, or symlinks. Durability is modeled
//! strictly: nothing written through [`FaultVfs`] survives a crash until
//! [`Vfs::sync`] succeeds on that path, which is exactly the contract a
//! write-ahead log must assume of a POSIX file.

use crate::checksum::fnv1a64;
use crate::rng::Rng;
use crate::sync::{lockrank, Mutex};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Why a [`Vfs`] operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfsErrorKind {
    /// The path does not exist.
    NotFound,
    /// The backend reported an I/O failure (real or injected disk error).
    Io,
    /// A scripted fault fired: the simulated process is "dead" until the
    /// harness calls [`FaultVfs::crash_and_revive`].
    Injected,
}

/// A [`Vfs`] operation failure: which path, what kind, and a detail
/// message suitable for wrapping into `RepoError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VfsError {
    /// What class of failure occurred.
    pub kind: VfsErrorKind,
    /// The path the operation targeted.
    pub path: String,
    /// Human-readable detail (backend message or injection site).
    pub detail: String,
}

impl VfsError {
    /// Builds an error for `path`.
    pub fn new(kind: VfsErrorKind, path: &str, detail: impl Into<String>) -> VfsError {
        VfsError {
            kind,
            path: path.to_string(),
            detail: detail.into(),
        }
    }

    /// Shorthand for a [`VfsErrorKind::NotFound`] error.
    pub fn not_found(path: &str) -> VfsError {
        VfsError::new(VfsErrorKind::NotFound, path, "no such file")
    }
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            VfsErrorKind::NotFound => "not found",
            VfsErrorKind::Io => "i/o error",
            VfsErrorKind::Injected => "injected fault",
        };
        write!(f, "{}: {} ({})", self.path, kind, self.detail)
    }
}

impl std::error::Error for VfsError {}

/// Result alias for [`Vfs`] operations.
pub type VfsResult<T> = Result<T, VfsError>;

/// The filesystem operations the storage engine needs, and no more.
///
/// All methods take `&self`: implementations are internally synchronized
/// and callers provide higher-level ordering (the store serializes
/// per-shard mutation under its own lock). The contract mirrors POSIX
/// where it matters for durability:
///
/// - [`append`](Vfs::append) extends a file (creating it if absent) but
///   guarantees nothing about what survives a crash;
/// - [`sync`](Vfs::sync) is the only durability point — after it returns
///   `Ok`, the file's current bytes survive a crash (a lying disk is
///   modeled by [`FaultVfs`]'s fsync-loss fault);
/// - [`read_range`](Vfs::read_range) may return *fewer* bytes than asked
///   (a short read); callers that need exactness must loop.
pub trait Vfs: Send + Sync {
    /// Reads the whole file.
    fn read(&self, path: &str) -> VfsResult<Vec<u8>>;

    /// Reads up to `len` bytes starting at `offset`. Returns the bytes
    /// actually available, which may be fewer than `len` (short read or
    /// end of file); an empty result at a valid offset means end of file.
    fn read_range(&self, path: &str, offset: u64, len: usize) -> VfsResult<Vec<u8>>;

    /// Appends `data` to the file, creating it if absent.
    fn append(&self, path: &str, data: &[u8]) -> VfsResult<()>;

    /// Truncates the file to `len` bytes (used by recovery to drop a torn
    /// tail). Truncating a missing file is an error.
    fn truncate(&self, path: &str, len: u64) -> VfsResult<()>;

    /// Forces the file's current contents to durable storage.
    fn sync(&self, path: &str) -> VfsResult<()>;

    /// Removes the file. Removing a missing file is not an error (returns
    /// `Ok(false)`).
    fn remove(&self, path: &str) -> VfsResult<bool>;

    /// Lists the file names (not full paths, no directories) directly
    /// inside `dir`, sorted. A missing directory lists as empty.
    fn list(&self, dir: &str) -> VfsResult<Vec<String>>;

    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &str) -> VfsResult<()>;

    /// The file's current length in bytes, or `None` if it is absent.
    fn len(&self, path: &str) -> VfsResult<Option<u64>>;
}

fn list_files(files: &BTreeMap<String, Vec<u8>>, dir: &str) -> Vec<String> {
    let prefix = if dir.is_empty() || dir.ends_with('/') {
        dir.to_string()
    } else {
        format!("{dir}/")
    };
    files
        .range(prefix.clone()..)
        .take_while(|(p, _)| p.starts_with(&prefix))
        .filter_map(|(p, _)| {
            let rest = &p[prefix.len()..];
            if rest.is_empty() || rest.contains('/') {
                None
            } else {
                Some(rest.to_string())
            }
        })
        .collect()
}

/// An in-memory [`Vfs`] where every write is immediately durable and
/// nothing ever fails. The reference backend for equivalence tests.
///
/// # Examples
///
/// ```
/// use aide_util::vfs::{MemVfs, Vfs};
///
/// let fs = MemVfs::new();
/// fs.append("dir/a", b"hello").unwrap();
/// fs.append("dir/a", b" world").unwrap();
/// assert_eq!(fs.read("dir/a").unwrap(), b"hello world");
/// assert_eq!(fs.list("dir").unwrap(), vec!["a".to_string()]);
/// ```
#[derive(Default)]
pub struct MemVfs {
    files: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemVfs {
    /// Creates an empty in-memory filesystem.
    pub fn new() -> MemVfs {
        MemVfs::default()
    }

    /// Creates an empty in-memory filesystem behind an `Arc`.
    pub fn shared() -> Arc<MemVfs> {
        Arc::new(MemVfs::new())
    }
}

impl Vfs for MemVfs {
    fn read(&self, path: &str) -> VfsResult<Vec<u8>> {
        self.files
            .lock()
            .get(path)
            .cloned()
            .ok_or_else(|| VfsError::not_found(path))
    }

    fn read_range(&self, path: &str, offset: u64, len: usize) -> VfsResult<Vec<u8>> {
        let files = self.files.lock();
        let data = files.get(path).ok_or_else(|| VfsError::not_found(path))?;
        Ok(slice_range(data, offset, len))
    }

    fn append(&self, path: &str, data: &[u8]) -> VfsResult<()> {
        self.files
            .lock()
            .entry(path.to_string())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn truncate(&self, path: &str, len: u64) -> VfsResult<()> {
        let mut files = self.files.lock();
        let data = files
            .get_mut(path)
            .ok_or_else(|| VfsError::not_found(path))?;
        data.truncate(len.min(data.len() as u64) as usize);
        Ok(())
    }

    fn sync(&self, _path: &str) -> VfsResult<()> {
        lockrank::check_blocking("fsync");
        Ok(())
    }

    fn remove(&self, path: &str) -> VfsResult<bool> {
        Ok(self.files.lock().remove(path).is_some())
    }

    fn list(&self, dir: &str) -> VfsResult<Vec<String>> {
        Ok(list_files(&self.files.lock(), dir))
    }

    fn create_dir_all(&self, _dir: &str) -> VfsResult<()> {
        Ok(())
    }

    fn len(&self, path: &str) -> VfsResult<Option<u64>> {
        Ok(self.files.lock().get(path).map(|d| d.len() as u64))
    }
}

fn slice_range(data: &[u8], offset: u64, len: usize) -> Vec<u8> {
    let start = offset.min(data.len() as u64) as usize;
    let end = start.saturating_add(len).min(data.len());
    data[start..end].to_vec()
}

/// The scripted fault model for [`FaultVfs`]. All decisions are pure
/// functions of `(seed, path, per-kind op counter)`, so a given script
/// replays identically — the property the CI crash-determinism step
/// relies on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultScript {
    /// Seed for every injection draw.
    pub seed: u64,
    /// Kill point: the N-th durability op (append/truncate/remove/sync,
    /// zero-based) fails with [`VfsErrorKind::Injected`] and the
    /// filesystem plays dead until [`FaultVfs::crash_and_revive`].
    pub crash_after_ops: Option<u64>,
    /// If the kill point lands on an append, persist a seeded *prefix* of
    /// the data to the volatile layer first — a torn write.
    pub torn_final_write: bool,
    /// Probability a `read_range` returns fewer bytes than asked.
    pub short_read_rate: f64,
    /// Probability a `sync` returns `Ok` without actually making the file
    /// durable — the lying-disk model.
    pub fsync_loss_rate: f64,
}

impl FaultScript {
    /// A script that never injects anything (a durable/volatile split
    /// with faithfully honest fsync).
    pub fn honest(seed: u64) -> FaultScript {
        FaultScript {
            seed,
            crash_after_ops: None,
            torn_final_write: false,
            short_read_rate: 0.0,
            fsync_loss_rate: 0.0,
        }
    }

    /// Sets the kill point (builder style).
    pub fn crash_after(mut self, ops: u64) -> FaultScript {
        self.crash_after_ops = Some(ops);
        self
    }

    /// Makes the dying write torn (builder style).
    pub fn torn(mut self) -> FaultScript {
        self.torn_final_write = true;
        self
    }

    /// Sets the short-read rate (builder style).
    pub fn short_reads(mut self, rate: f64) -> FaultScript {
        self.short_read_rate = rate;
        self
    }

    /// Sets the fsync-loss rate (builder style).
    pub fn fsync_loss(mut self, rate: f64) -> FaultScript {
        self.fsync_loss_rate = rate;
        self
    }
}

/// Counters of what a [`FaultVfs`] has done and injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultVfsStats {
    /// Durability ops performed (append/truncate/remove/sync), including
    /// the one that died at the kill point.
    pub durability_ops: u64,
    /// `read_range` calls served.
    pub range_reads: u64,
    /// Syncs that silently lost data (fsync-loss fault).
    pub lost_syncs: u64,
    /// Appends that persisted only a prefix (torn-write fault).
    pub torn_writes: u64,
    /// Range reads that returned fewer bytes than asked.
    pub short_reads: u64,
    /// Crashes simulated via [`FaultVfs::crash_and_revive`].
    pub crashes: u64,
}

struct FaultState {
    /// What survives a crash: the last synced image of each file.
    durable: BTreeMap<String, Vec<u8>>,
    /// The live view the process sees: durable plus unsynced writes.
    volatile: BTreeMap<String, Vec<u8>>,
    /// Paths whose volatile content differs from durable (sync targets).
    dirty: BTreeSet<String>,
    script: FaultScript,
    stats: FaultVfsStats,
    /// Set once the kill point fires; every durability op fails until
    /// `crash_and_revive`.
    dead: bool,
}

/// An in-memory [`Vfs`] with an explicit durable/volatile split and a
/// deterministic fault script — the crash-test double for `RealVfs`.
///
/// Writes land in the volatile layer; only [`Vfs::sync`] promotes a file
/// to the durable layer. [`FaultVfs::crash_and_revive`] discards the
/// volatile layer (simulating a power cut) and clears the kill point so
/// the harness can reopen the store and inspect what survived.
///
/// # Examples
///
/// ```
/// use aide_util::vfs::{FaultScript, FaultVfs, Vfs};
///
/// let fs = FaultVfs::new(FaultScript::honest(7));
/// fs.append("wal", b"record-1").unwrap();
/// fs.sync("wal").unwrap();
/// fs.append("wal", b"record-2").unwrap(); // never synced
/// fs.crash_and_revive();
/// assert_eq!(fs.read("wal").unwrap(), b"record-1"); // unsynced tail gone
/// ```
pub struct FaultVfs {
    state: Mutex<FaultState>,
}

impl FaultVfs {
    /// Creates an empty filesystem running `script`.
    pub fn new(script: FaultScript) -> FaultVfs {
        FaultVfs {
            state: Mutex::new(FaultState {
                durable: BTreeMap::new(),
                volatile: BTreeMap::new(),
                dirty: BTreeSet::new(),
                script,
                stats: FaultVfsStats::default(),
                dead: false,
            }),
        }
    }

    /// Creates an empty filesystem behind an `Arc`.
    pub fn shared(script: FaultScript) -> Arc<FaultVfs> {
        Arc::new(FaultVfs::new(script))
    }

    /// Simulates a power cut and a restart: the volatile layer is reset
    /// to the durable image, the dead flag and kill point are cleared.
    /// The store can then be reopened over this same filesystem to
    /// exercise recovery.
    pub fn crash_and_revive(&self) {
        let mut st = self.state.lock();
        st.volatile = st.durable.clone();
        st.dirty.clear();
        st.dead = false;
        st.script.crash_after_ops = None;
        st.stats.crashes += 1;
    }

    /// Injection and traffic counters so far.
    pub fn stats(&self) -> FaultVfsStats {
        self.state.lock().stats
    }

    /// Durability ops performed so far — the kill-point enumeration space
    /// for the crash suite.
    pub fn durability_ops(&self) -> u64 {
        self.state.lock().stats.durability_ops
    }

    /// A deterministic per-decision generator: independent stream per
    /// `(seed, path, op-kind, counter)`.
    fn draw(script: &FaultScript, path: &str, kind: u64, counter: u64) -> Rng {
        let mut h = script.seed ^ fnv1a64(path.as_bytes());
        h = h
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(counter)
            .rotate_left(29)
            ^ kind;
        Rng::new(h)
    }

    /// Charges one durability op; returns `Err` if this op is the kill
    /// point or the filesystem is already dead. On the kill point, `torn`
    /// receives the seeded keep-fraction if the dying write should tear.
    fn charge_op(st: &mut FaultState, path: &str, op: &str) -> Result<Option<f64>, VfsError> {
        if st.dead {
            return Err(VfsError::new(
                VfsErrorKind::Injected,
                path,
                format!("{op} after simulated crash"),
            ));
        }
        let n = st.stats.durability_ops;
        st.stats.durability_ops += 1;
        if st.script.crash_after_ops == Some(n) {
            st.dead = true;
            let torn = if st.script.torn_final_write && op == "append" {
                Some(Self::draw(&st.script, path, 1, n).f64())
            } else {
                None
            };
            if torn.is_some() {
                st.stats.torn_writes += 1;
            }
            return if let Some(frac) = torn {
                Ok(Some(frac))
            } else {
                Err(VfsError::new(
                    VfsErrorKind::Injected,
                    path,
                    format!("kill point at {op} op {n}"),
                ))
            };
        }
        Ok(None)
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &str) -> VfsResult<Vec<u8>> {
        self.state
            .lock()
            .volatile
            .get(path)
            .cloned()
            .ok_or_else(|| VfsError::not_found(path))
    }

    fn read_range(&self, path: &str, offset: u64, len: usize) -> VfsResult<Vec<u8>> {
        let mut st = self.state.lock();
        st.stats.range_reads += 1;
        let n = st.stats.range_reads;
        let rate = st.script.short_read_rate;
        let short = rate > 0.0 && Self::draw(&st.script, path, 2, n).chance(rate);
        let data = st
            .volatile
            .get(path)
            .ok_or_else(|| VfsError::not_found(path))?;
        let mut out = slice_range(data, offset, len);
        if short && !out.is_empty() {
            let keep = (out.len() as f64 * Self::draw(&st.script, path, 3, n).f64()) as usize;
            out.truncate(keep);
            st.stats.short_reads += 1;
        }
        Ok(out)
    }

    fn append(&self, path: &str, data: &[u8]) -> VfsResult<()> {
        let mut st = self.state.lock();
        match Self::charge_op(&mut st, path, "append")? {
            Some(frac) => {
                // Torn write: a prefix reaches the volatile layer, then
                // the "process" dies mid-call.
                let keep = (data.len() as f64 * frac) as usize;
                st.volatile
                    .entry(path.to_string())
                    .or_default()
                    .extend_from_slice(&data[..keep]);
                st.dirty.insert(path.to_string());
                Err(VfsError::new(
                    VfsErrorKind::Injected,
                    path,
                    format!("torn write: {keep} of {} bytes", data.len()),
                ))
            }
            None => {
                st.volatile
                    .entry(path.to_string())
                    .or_default()
                    .extend_from_slice(data);
                st.dirty.insert(path.to_string());
                Ok(())
            }
        }
    }

    fn truncate(&self, path: &str, len: u64) -> VfsResult<()> {
        let mut st = self.state.lock();
        Self::charge_op(&mut st, path, "truncate")?;
        let data = st
            .volatile
            .get_mut(path)
            .ok_or_else(|| VfsError::not_found(path))?;
        data.truncate(len.min(data.len() as u64) as usize);
        st.dirty.insert(path.to_string());
        Ok(())
    }

    fn sync(&self, path: &str) -> VfsResult<()> {
        lockrank::check_blocking("fsync");
        let mut st = self.state.lock();
        Self::charge_op(&mut st, path, "sync")?;
        let n = st.stats.durability_ops;
        let rate = st.script.fsync_loss_rate;
        if rate > 0.0 && Self::draw(&st.script, path, 4, n).chance(rate) {
            // The disk lies: report success, persist nothing.
            st.stats.lost_syncs += 1;
            return Ok(());
        }
        match st.volatile.get(path).cloned() {
            Some(data) => {
                st.durable.insert(path.to_string(), data);
            }
            None => {
                st.durable.remove(path);
            }
        }
        st.dirty.remove(path);
        Ok(())
    }

    fn remove(&self, path: &str) -> VfsResult<bool> {
        let mut st = self.state.lock();
        Self::charge_op(&mut st, path, "remove")?;
        let existed = st.volatile.remove(path).is_some();
        // Removal is durable once the *directory* is synced; this model
        // folds that into the remove itself (conservative for recovery:
        // a removed-but-durable file never resurrects in our layout
        // because compaction deletes oldest-first).
        st.durable.remove(path);
        st.dirty.remove(path);
        Ok(existed)
    }

    fn list(&self, dir: &str) -> VfsResult<Vec<String>> {
        Ok(list_files(&self.state.lock().volatile, dir))
    }

    fn create_dir_all(&self, _dir: &str) -> VfsResult<()> {
        Ok(())
    }

    fn len(&self, path: &str) -> VfsResult<Option<u64>> {
        Ok(self.state.lock().volatile.get(path).map(|d| d.len() as u64))
    }
}

/// Reads exactly `len` bytes at `offset`, looping over short reads. Fails
/// with [`VfsErrorKind::Io`] if the file ends (or reads stop making
/// progress) before `len` bytes arrive.
pub fn read_exact(vfs: &dyn Vfs, path: &str, offset: u64, len: usize) -> VfsResult<Vec<u8>> {
    let mut out = Vec::with_capacity(len);
    let mut stalls = 0u32;
    while out.len() < len {
        let chunk = vfs.read_range(path, offset + out.len() as u64, len - out.len())?;
        if chunk.is_empty() {
            stalls += 1;
            // End of file, or a short read that yielded nothing: give a
            // few retries (the fault model can short-read repeatedly),
            // then report the truncation.
            if stalls > 8 {
                return Err(VfsError::new(
                    VfsErrorKind::Io,
                    path,
                    format!(
                        "short file: wanted {len} bytes at {offset}, got {}",
                        out.len()
                    ),
                ));
            }
        } else {
            stalls = 0;
            out.extend_from_slice(&chunk);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_vfs_roundtrips() {
        let fs = MemVfs::new();
        assert_eq!(fs.len("a").unwrap(), None);
        fs.append("a", b"one").unwrap();
        fs.append("a", b"two").unwrap();
        assert_eq!(fs.read("a").unwrap(), b"onetwo");
        assert_eq!(fs.read_range("a", 3, 3).unwrap(), b"two");
        assert_eq!(fs.read_range("a", 3, 99).unwrap(), b"two");
        assert_eq!(fs.read_range("a", 99, 4).unwrap(), b"");
        fs.truncate("a", 3).unwrap();
        assert_eq!(fs.read("a").unwrap(), b"one");
        assert_eq!(fs.len("a").unwrap(), Some(3));
        assert!(fs.remove("a").unwrap());
        assert!(!fs.remove("a").unwrap());
        assert_eq!(fs.read("a").unwrap_err().kind, VfsErrorKind::NotFound);
    }

    #[test]
    fn mem_vfs_lists_only_direct_children() {
        let fs = MemVfs::new();
        fs.append("root/a", b"x").unwrap();
        fs.append("root/b", b"x").unwrap();
        fs.append("root/sub/c", b"x").unwrap();
        fs.append("other/d", b"x").unwrap();
        assert_eq!(fs.list("root").unwrap(), vec!["a", "b"]);
        assert_eq!(fs.list("root/sub").unwrap(), vec!["c"]);
        assert!(fs.list("missing").unwrap().is_empty());
    }

    #[test]
    fn fault_vfs_unsynced_writes_die_in_a_crash() {
        let fs = FaultVfs::new(FaultScript::honest(1));
        fs.append("wal", b"aaa").unwrap();
        fs.sync("wal").unwrap();
        fs.append("wal", b"bbb").unwrap();
        fs.crash_and_revive();
        assert_eq!(fs.read("wal").unwrap(), b"aaa");
        // A never-synced file vanishes entirely.
        fs.append("tmp", b"x").unwrap();
        fs.crash_and_revive();
        assert_eq!(fs.read("tmp").unwrap_err().kind, VfsErrorKind::NotFound);
    }

    #[test]
    fn kill_point_fires_once_and_plays_dead() {
        let fs = FaultVfs::new(FaultScript::honest(2).crash_after(1));
        fs.append("f", b"one").unwrap(); // op 0
        let err = fs.append("f", b"two").unwrap_err(); // op 1: kill point
        assert_eq!(err.kind, VfsErrorKind::Injected);
        // Dead until revived: further durability ops fail, reads still work.
        assert_eq!(
            fs.append("f", b"x").unwrap_err().kind,
            VfsErrorKind::Injected
        );
        assert_eq!(fs.read("f").unwrap(), b"one");
        fs.crash_and_revive();
        // Nothing was synced, so the crash erased everything.
        assert_eq!(fs.read("f").unwrap_err().kind, VfsErrorKind::NotFound);
        fs.append("f", b"fresh").unwrap();
        assert_eq!(fs.read("f").unwrap(), b"fresh");
    }

    #[test]
    fn torn_write_persists_a_strict_prefix() {
        let payload = vec![7u8; 1000];
        for seed in 0..20 {
            let fs = FaultVfs::new(FaultScript::honest(seed).crash_after(1).torn());
            fs.append("f", b"base").unwrap();
            let err = fs.append("f", &payload).unwrap_err();
            assert_eq!(err.kind, VfsErrorKind::Injected);
            let now = fs.read("f").unwrap();
            assert!(now.len() >= 4 && now.len() < 4 + payload.len());
            assert!(now.starts_with(b"base"));
        }
    }

    #[test]
    fn fsync_loss_silently_drops_durability() {
        let fs = FaultVfs::new(FaultScript::honest(3).fsync_loss(1.0));
        fs.append("f", b"data").unwrap();
        fs.sync("f").unwrap(); // reports OK, persists nothing
        fs.crash_and_revive();
        assert_eq!(fs.read("f").unwrap_err().kind, VfsErrorKind::NotFound);
        assert_eq!(fs.stats().lost_syncs, 1);
    }

    #[test]
    fn short_reads_are_injected_and_read_exact_recovers() {
        let fs = FaultVfs::new(FaultScript::honest(4).short_reads(0.7));
        fs.append("f", &vec![9u8; 4096]).unwrap();
        let got = read_exact(&fs, "f", 100, 2000).unwrap();
        assert_eq!(got, vec![9u8; 2000]);
        assert!(fs.stats().short_reads > 0, "rate 0.7 over many reads");
    }

    #[test]
    fn read_exact_reports_truncation() {
        let fs = MemVfs::new();
        fs.append("f", b"tiny").unwrap();
        let err = read_exact(&fs, "f", 0, 100).unwrap_err();
        assert_eq!(err.kind, VfsErrorKind::Io);
    }

    #[test]
    fn scripts_replay_deterministically() {
        let run = |seed| {
            let fs = FaultVfs::new(FaultScript::honest(seed).short_reads(0.5).fsync_loss(0.3));
            for i in 0..50u8 {
                fs.append("f", &[i; 64]).unwrap();
                let _ = fs.sync("f");
                let _ = fs.read_range("f", (i as u64) * 3, 40);
            }
            fs.crash_and_revive();
            (fs.read("f").ok(), fs.stats())
        };
        assert_eq!(run(11), run(11));
        let ((a, sa), (b, sb)) = (run(11), run(12));
        assert!(a != b || sa != sb, "different seeds should diverge");
    }

    #[test]
    fn remove_is_durable_and_idempotent() {
        let fs = FaultVfs::new(FaultScript::honest(5));
        fs.append("f", b"x").unwrap();
        fs.sync("f").unwrap();
        assert!(fs.remove("f").unwrap());
        assert!(!fs.remove("f").unwrap());
        fs.crash_and_revive();
        assert_eq!(fs.read("f").unwrap_err().kind, VfsErrorKind::NotFound);
    }
}
