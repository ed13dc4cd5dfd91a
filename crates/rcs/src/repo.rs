//! Keyed repositories of archives.
//!
//! The snapshot service stores one archive per URL (§2.2: histories are
//! "addressed by their URLs"). A [`Repository`] maps string keys to
//! [`Archive`]s; [`MemRepository`] backs tests and simulations, and the
//! `aide-store` crate provides `DiskRepository`, the crash-safe on-disk
//! engine (WAL + append-only segments) behind the same trait. Both report
//! the storage totals §7 measures ("the archive uses under 8 Mbytes of
//! disk storage (an average of 14.3 Kbytes/URL)").
//!
//! # Concurrency
//!
//! Repositories are shared across the snapshot service's worker threads,
//! so every operation takes `&self` and implementations must be
//! [`Send`] + [`Sync`]. Archives come back as [`Arc<Archive>`] handles:
//! readers (diff, history, view) share the stored revision data without
//! copying it, and a check-in builds a new `Arc` that replaces the old
//! one atomically — per-URL readers never observe a half-updated
//! archive.
//!
//! [`MemRepository`] keeps its map in fixed shards, each behind its own
//! `RwLock`, so operations on different URLs almost never touch the same
//! lock. *Exclusion* between two writers of the same URL is not the
//! repository's job: callers that read-modify-write an archive (the
//! snapshot service's Remember path) hold one per-URL mutex through
//! `aide-snapshot`'s `LockTable::with_url` (see its `locks` module for
//! the full ordering invariant).
//!
//! # Accounting
//!
//! Each shard carries running byte/revision counters maintained on every
//! store/remove, so [`Repository::stats`] is O(shards), not O(data) — a
//! serving-path requirement once archives hold years of history. The
//! counted size of an archive is `emit(&archive).len()`: the bytes its
//! `,v` serialization occupies, which is also exactly what `aide-store`
//! keeps on disk, so both backends agree byte-for-byte. The archive
//! keeps that length up to date itself ([`Archive::emitted_len`]), so
//! neither backend emits to count it.
//!
//! # Adding a revision
//!
//! [`Repository::store_checkin`] is the one way a revision is added to
//! a stored archive: the caller loads the archive, checks the new text
//! in on a clone (which shares every older revision), and hands both
//! back. A backend may then write only the revision the check-in added;
//! `aide-store` logs one check-in frame instead of the whole `,v` text.

use crate::archive::Archive;
use crate::format::emit;
use aide_util::checksum::fnv1a64;
use aide_util::sync::RwLock;
use aide_util::vfs::VfsError;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Error from repository operations.
#[derive(Debug)]
pub enum RepoError {
    /// The storage backend's virtual filesystem failed.
    Storage(VfsError),
    /// The stored record for `key` is unreadable (checksum mismatch,
    /// torn frame, or unparseable archive text). The rest of the
    /// repository is still serviceable; callers that can degrade should
    /// treat the key as absent rather than failing the request (see
    /// `SnapshotService`).
    Corrupt {
        /// The key whose record is damaged.
        key: String,
        /// What exactly failed to validate.
        detail: String,
    },
}

impl RepoError {
    /// Builds a [`RepoError::Corrupt`] for `key`.
    pub fn corrupt(key: &str, detail: impl Into<String>) -> RepoError {
        RepoError::Corrupt {
            key: key.to_string(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for RepoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepoError::Storage(e) => write!(f, "repository storage error: {e}"),
            RepoError::Corrupt { key, detail } => {
                write!(f, "corrupt archive record for {key:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for RepoError {}

impl From<VfsError> for RepoError {
    fn from(e: VfsError) -> Self {
        RepoError::Storage(e)
    }
}

/// Storage accounting for a repository — the numbers §7 reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageStats {
    /// Number of archives (URLs).
    pub archives: usize,
    /// Total revisions across all archives.
    pub revisions: usize,
    /// Total stored bytes.
    pub bytes: usize,
}

impl StorageStats {
    /// Average bytes per archive (the paper's "14.3 Kbytes/URL").
    pub fn bytes_per_archive(&self) -> f64 {
        if self.archives == 0 {
            0.0
        } else {
            self.bytes as f64 / self.archives as f64
        }
    }
}

/// A keyed, concurrently shareable store of [`Archive`]s.
pub trait Repository: Send + Sync {
    /// Loads a shared handle to the archive for `key`, if present.
    fn load(&self, key: &str) -> Result<Option<Arc<Archive>>, RepoError>;

    /// Stores (creates or replaces) the archive for `key`. Callers that
    /// load-modify-store must provide their own per-key exclusion.
    fn store(&self, key: &str, archive: &Archive) -> Result<(), RepoError>;

    /// Stores `archive`, which [`Archive::checkin`] made from `base` (the
    /// archive [`load`](Repository::load) returned for `key`) by adding
    /// one revision. The caller excludes other writers of `key` from the
    /// load through this call. A backend may write only the added
    /// revision; the default stores the whole archive.
    fn store_checkin(
        &self,
        key: &str,
        _base: &Archive,
        archive: Arc<Archive>,
    ) -> Result<(), RepoError> {
        self.store(key, &archive)
    }

    /// Removes the archive for `key`; returns whether one existed.
    fn remove(&self, key: &str) -> Result<bool, RepoError>;

    /// All keys, sorted.
    fn keys(&self) -> Result<Vec<String>, RepoError>;

    /// Storage accounting.
    fn stats(&self) -> Result<StorageStats, RepoError>;

    /// Per-key stored size in bytes, sorted descending — §7 singles out
    /// the three largest files ("Three files account for 2.7 Mbytes").
    fn sizes(&self) -> Result<Vec<(String, usize)>, RepoError>;
}

/// Smart pointers delegate, so a shared backend (e.g. one disk store
/// serving both a snapshot service and its background compactor) and a
/// boxed-dynamic backend both satisfy `R: Repository` directly.
macro_rules! delegate_repository {
    ($($ptr:ty),*) => {$(
        impl<T: Repository + ?Sized> Repository for $ptr {
            fn load(&self, key: &str) -> Result<Option<Arc<Archive>>, RepoError> {
                (**self).load(key)
            }
            fn store(&self, key: &str, archive: &Archive) -> Result<(), RepoError> {
                (**self).store(key, archive)
            }
            fn store_checkin(
                &self,
                key: &str,
                base: &Archive,
                archive: Arc<Archive>,
            ) -> Result<(), RepoError> {
                (**self).store_checkin(key, base, archive)
            }
            fn remove(&self, key: &str) -> Result<bool, RepoError> {
                (**self).remove(key)
            }
            fn keys(&self) -> Result<Vec<String>, RepoError> {
                (**self).keys()
            }
            fn stats(&self) -> Result<StorageStats, RepoError> {
                (**self).stats()
            }
            fn sizes(&self) -> Result<Vec<(String, usize)>, RepoError> {
                (**self).sizes()
            }
        }
    )*};
}

delegate_repository!(Box<T>, Arc<T>);

/// Number of independent buckets in [`MemRepository`]. Power of two,
/// comfortably above typical core counts, so URL-distinct operations
/// rarely share a lock.
const MEM_SHARDS: usize = 64;

/// One bucket of the map plus its running accounting totals.
#[derive(Default)]
struct MemShard {
    map: BTreeMap<String, Arc<Archive>>,
    bytes: usize,
    revisions: usize,
}

/// An in-memory repository, sharded for concurrent access, with O(shards)
/// storage accounting.
pub struct MemRepository {
    shards: Vec<RwLock<MemShard>>,
}

impl Default for MemRepository {
    fn default() -> Self {
        MemRepository::new()
    }
}

impl MemRepository {
    /// Creates an empty repository.
    pub fn new() -> MemRepository {
        MemRepository {
            shards: (0..MEM_SHARDS)
                .map(|_| RwLock::new(MemShard::default()))
                .collect(),
        }
    }

    fn shard(&self, key: &str) -> &RwLock<MemShard> {
        &self.shards[fnv1a64(key.as_bytes()) as usize % MEM_SHARDS]
    }

    /// A point-in-time snapshot of every (key, archive) pair, visiting
    /// shards in index order and never holding more than one shard guard.
    fn snapshot(&self) -> Vec<(String, Arc<Archive>)> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let guard = shard.read();
            all.extend(guard.map.iter().map(|(k, a)| (k.clone(), a.clone())));
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Creates or replaces `key`'s archive, moving the running counters.
    fn insert(&self, key: &str, archive: Arc<Archive>) {
        let bytes = archive.emitted_len();
        let revisions = archive.len();
        let mut shard = self.shard(key).write();
        if let Some(old) = shard.map.insert(key.to_string(), archive) {
            shard.bytes -= old.emitted_len();
            shard.revisions -= old.len();
        }
        shard.bytes += bytes;
        shard.revisions += revisions;
    }

    /// The counters' ground truth: a full scan that re-emits every
    /// archive. O(data); used by the debug-build reconciliation in
    /// [`stats`](Repository::stats) and directly by tests.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn scan_stats(&self) -> StorageStats {
        let mut s = StorageStats::default();
        // Sizes are computed outside the shard guards: emit() can be
        // expensive and must not block writers (ordering invariant:
        // bucket guards are never held across serialization).
        for (_, a) in self.snapshot() {
            s.archives += 1;
            s.revisions += a.len();
            s.bytes += emit(&a).len();
        }
        s
    }
}

impl Clone for MemRepository {
    fn clone(&self) -> Self {
        let copy = MemRepository::new();
        for shard in &self.shards {
            let guard = shard.read();
            for (k, a) in guard.map.iter() {
                let target = copy.shard(k);
                let mut t = target.write();
                t.bytes += a.emitted_len();
                t.revisions += a.len();
                t.map.insert(k.clone(), a.clone());
            }
        }
        copy
    }
}

impl fmt::Debug for MemRepository {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let keys = self.keys().map_err(|_| fmt::Error)?;
        f.debug_struct("MemRepository")
            .field("keys", &keys)
            .finish()
    }
}

impl Repository for MemRepository {
    fn load(&self, key: &str) -> Result<Option<Arc<Archive>>, RepoError> {
        Ok(self.shard(key).read().map.get(key).cloned())
    }

    fn store(&self, key: &str, archive: &Archive) -> Result<(), RepoError> {
        self.insert(key, Arc::new(archive.clone()));
        Ok(())
    }

    /// Keeps the handed archive: the clone it was checked in on already
    /// shares every older revision.
    fn store_checkin(
        &self,
        key: &str,
        _base: &Archive,
        archive: Arc<Archive>,
    ) -> Result<(), RepoError> {
        self.insert(key, archive);
        Ok(())
    }

    fn remove(&self, key: &str) -> Result<bool, RepoError> {
        let mut shard = self.shard(key).write();
        match shard.map.remove(key) {
            Some(old) => {
                shard.bytes -= old.emitted_len();
                shard.revisions -= old.len();
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn keys(&self) -> Result<Vec<String>, RepoError> {
        Ok(self.snapshot().into_iter().map(|(k, _)| k).collect())
    }

    fn stats(&self) -> Result<StorageStats, RepoError> {
        let mut s = StorageStats::default();
        for shard in &self.shards {
            let guard = shard.read();
            s.archives += guard.map.len();
            s.revisions += guard.revisions;
            s.bytes += guard.bytes;
        }
        // In debug builds, reconcile the running counters against the
        // full scan: any drift is a counter-maintenance bug.
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            s,
            self.scan_stats(),
            "running stats counters drifted from the full scan"
        );
        Ok(s)
    }

    fn sizes(&self) -> Result<Vec<(String, usize)>, RepoError> {
        let mut v: Vec<(String, usize)> = Vec::new();
        for shard in &self.shards {
            let guard = shard.read();
            v.extend(guard.map.iter().map(|(k, a)| (k.clone(), a.emitted_len())));
        }
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_util::time::Timestamp;

    fn archive(text: &str) -> Archive {
        Archive::create("desc", text, "me", "init", Timestamp(100))
    }

    #[test]
    fn mem_store_load_remove() {
        let r = MemRepository::new();
        assert!(r.load("http://x/").unwrap().is_none());
        r.store("http://x/", &archive("body\n")).unwrap();
        assert_eq!(r.load("http://x/").unwrap().unwrap().head_text(), "body\n");
        assert!(r.remove("http://x/").unwrap());
        assert!(!r.remove("http://x/").unwrap());
    }

    #[test]
    fn mem_keys_sorted() {
        let r = MemRepository::new();
        r.store("b", &archive("1\n")).unwrap();
        r.store("a", &archive("2\n")).unwrap();
        assert_eq!(r.keys().unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn mem_stats_and_sizes() {
        let r = MemRepository::new();
        r.store("small", &archive("x\n")).unwrap();
        r.store("large", &archive(&"line of page text\n".repeat(200)))
            .unwrap();
        let s = r.stats().unwrap();
        assert_eq!(s.archives, 2);
        assert_eq!(s.revisions, 2);
        assert!(s.bytes > 3000);
        let sizes = r.sizes().unwrap();
        assert_eq!(sizes[0].0, "large");
        assert!(sizes[0].1 > sizes[1].1);
    }

    #[test]
    fn mem_running_counters_match_scan_through_churn() {
        let r = MemRepository::new();
        for i in 0..40 {
            let mut a = archive(&format!("page {i}\nline\n"));
            for rev in 0..(i % 5) {
                a.checkin(
                    &format!("page {i}\nrevised {rev}\n"),
                    "me",
                    "change",
                    Timestamp(200 + rev as u64),
                )
                .unwrap();
            }
            r.store(&format!("http://h{}/p{i}", i % 7), &a).unwrap();
        }
        // Overwrite some, remove others: counters must track exactly.
        for i in 0..40 {
            if i % 3 == 0 {
                r.store(&format!("http://h{}/p{i}", i % 7), &archive("tiny\n"))
                    .unwrap();
            } else if i % 3 == 1 {
                r.remove(&format!("http://h{}/p{i}", i % 7)).unwrap();
            }
        }
        let fast = r.stats().unwrap();
        assert_eq!(fast, r.scan_stats(), "O(shards) stats == full scan");
        let from_sizes: usize = r.sizes().unwrap().iter().map(|(_, b)| b).sum();
        assert_eq!(fast.bytes, from_sizes);
    }

    #[test]
    fn mem_clone_is_deep_snapshot() {
        let r = MemRepository::new();
        r.store("a", &archive("one\n")).unwrap();
        let snap = r.clone();
        r.store("b", &archive("two\n")).unwrap();
        assert_eq!(
            snap.keys().unwrap(),
            vec!["a"],
            "clone unaffected by later stores"
        );
        assert_eq!(r.keys().unwrap(), vec!["a", "b"]);
        assert_eq!(snap.stats().unwrap(), snap.scan_stats());
    }

    #[test]
    fn mem_concurrent_distinct_keys() {
        let r = std::sync::Arc::new(MemRepository::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for k in 0..20 {
                    let key = format!("http://h{t}/p{k}");
                    r.store(&key, &archive(&format!("body {t} {k}\n"))).unwrap();
                    assert!(r.load(&key).unwrap().is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.stats().unwrap().archives, 160);
    }

    #[test]
    fn corrupt_error_displays_key_and_detail() {
        let e = RepoError::corrupt("http://x/", "crc mismatch in frame 3");
        let msg = e.to_string();
        assert!(msg.contains("http://x/"), "{msg}");
        assert!(msg.contains("crc mismatch"), "{msg}");
    }
}
