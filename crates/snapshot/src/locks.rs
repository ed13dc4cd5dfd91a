//! Synchronization for the snapshot facility (§4.2).
//!
//! "The system must synchronize access to the RCS repository, the locally
//! cached copy of the HTML document, and the control files that record
//! the versions of each page a user has checked in. Currently this is
//! done by using UNIX file locking on both a per-URL lock file and the
//! per-user control file."
//!
//! This module provides the per-URL lock in-process: one
//! `aide_util::sync` mutex of class `url` per URL, taken through
//! [`LockTable::with_url`]. The per-user control file needs no lock of
//! its own: its whole read-modify-write runs under its control-map
//! shard's write guard. The paper's wish that "the second snapshot
//! process would just wait for the page and then return, rather than
//! repeating the work" is met by the page cache, which serves a
//! rendering to every request after the first one.
//!
//! # Lock-ordering invariant
//!
//! The URL locks are the *only* exclusion held across a check-in — there
//! is no repository-wide lock behind them — so the ordering discipline
//! below is what makes the service deadlock-free. `lockrank::TABLE`
//! states it and debug builds check every acquisition against it:
//!
//! 1. **At most one URL lock held at a time.** Multi-URL operations
//!    (storage sweeps, `keys`) hold no URL lock while iterating; they
//!    rely on shard snapshots instead.
//! 2. **The URL lock before structure guards.** While holding a URL
//!    lock a thread may take the repository's, the control files' and
//!    the page cache's shard guards (and the store's WAL gate and shard
//!    locks). It never blocks on a URL lock while holding any of them:
//!    the table's own bucket guard is dropped before the URL lock is
//!    taken.
//! 3. **Shard index order for multi-shard operations.** Code that must
//!    visit several internal shards (the lock table's own buckets, the
//!    sharded repository, the sharded diff cache) takes shard guards in
//!    ascending index order and never holds two shards of *different*
//!    structures at once.
//! 4. **Structure guards are leaves.** Shard and bucket guards are held
//!    only for map lookups and insertions, never across I/O, diffing, or
//!    archive mutation. The URL lock may be held across I/O: it covers a
//!    whole check-in, WAL fsync included.
//!
//! The table itself is sharded so that lookups for different URLs
//! rarely contend; entries are created on first use and retained for the
//! lifetime of the table (the working set is bounded by the number of
//! distinct URLs, exactly like the lock files the 1996 service left in
//! its spool directory).

use aide_util::checksum::fnv1a64;
use aide_util::sync::{lockrank, Mutex};
use std::collections::HashMap;
use std::sync::Arc;

const SHARDS: usize = 64;

aide_obs::stat_cells! {
    /// Counters for lock behaviour.
    pub struct LockStats;
    /// The cells behind [`LockStats`].
    struct Counters {
        /// Lock acquisitions.
        acquisitions: "snapshot.locks.acquisitions",
        /// Acquisitions that had to wait (the lock was held).
        contended: "snapshot.locks.contended",
    }
}

/// The per-URL lock table.
///
/// See the module docs for the lock-ordering invariant every caller must
/// follow.
pub struct LockTable {
    /// URL → its lock, in buckets by URL hash.
    buckets: Vec<Mutex<HashMap<String, Arc<Mutex<()>>>>>,
    counters: Counters,
}

impl Default for LockTable {
    fn default() -> Self {
        LockTable::new()
    }
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> LockTable {
        LockTable {
            buckets: (0..SHARDS).map(|_| Mutex::default()).collect(),
            counters: Counters::default(),
        }
    }

    /// Runs `f` holding `url`'s lock, blocking while another thread holds
    /// it.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn with_url<T>(&self, url: &str, f: impl FnOnce() -> T) -> T {
        let lock = {
            let mut bucket = self.buckets[fnv1a64(url.as_bytes()) as usize % SHARDS].lock();
            match bucket.get(url) {
                Some(lock) => Arc::clone(lock),
                None => {
                    let lock = Arc::new(Mutex::with_class(&lockrank::URL, ()));
                    bucket.insert(url.to_string(), Arc::clone(&lock));
                    lock
                }
            }
        };
        self.counters.acquisitions.add(1);
        let _held = match lock.try_lock() {
            Some(guard) => guard,
            None => {
                self.counters.contended.add(1);
                lock.lock()
            }
        };
        f()
    }

    /// Counters (a consistent-enough snapshot; each field is exact).
    pub fn stats(&self) -> LockStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn same_key_excludes() {
        let t = LockTable::new();
        let flag = AtomicUsize::new(0);
        std::thread::scope(|s| {
            t.with_url("http://x/", || {
                // A second acquisition from another thread must block
                // until this closure returns.
                s.spawn(|| t.with_url("http://x/", || flag.store(1, Ordering::SeqCst)));
                std::thread::sleep(std::time::Duration::from_millis(30));
                assert_eq!(
                    flag.load(Ordering::SeqCst),
                    0,
                    "second locker still waiting"
                );
            });
        });
        assert_eq!(flag.load(Ordering::SeqCst), 1);
        assert_eq!(t.stats().contended, 1);
    }

    #[test]
    fn different_keys_are_independent() {
        let t = LockTable::new();
        // Different URLs never contend: sequential locks all acquire
        // immediately. (Holding two URL locks at once would violate the
        // module's ordering invariant and abort in debug builds.)
        t.with_url("http://a/", || ());
        t.with_url("http://b/", || ());
        t.with_url("http://a/", || ());
        assert_eq!(t.stats().acquisitions, 3);
        assert_eq!(t.stats().contended, 0);
    }

    #[test]
    fn many_threads_many_keys_no_deadlock() {
        let t = LockTable::new();
        let entered = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for k in 0..50 {
                        t.with_url(&format!("http://h{}/", k % 5), || {
                            entered.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(entered.load(Ordering::Relaxed), 8 * 50);
        assert_eq!(t.stats().acquisitions, 8 * 50);
    }

    /// Panic text of a lock-order abort caught on its own thread.
    #[cfg(debug_assertions)]
    fn abort_text(r: std::thread::Result<()>) -> String {
        let payload = r.expect_err("the lock-order checker must abort");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[cfg(debug_assertions)]
    #[test]
    fn nested_url_locks_panic() {
        let t = LockTable::new();
        let r = std::thread::scope(|s| {
            s.spawn(|| t.with_url("http://a/", || t.with_url("http://b/", || ())))
                .join()
        });
        let msg = abort_text(r);
        assert!(
            msg.contains("double acquisition of exclusive url lock class"),
            "{msg}"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn with_url_under_a_store_guard_panics() {
        let t = LockTable::new();
        let r = std::thread::scope(|s| {
            s.spawn(|| {
                let shard = Mutex::with_class(&lockrank::STORE, ());
                let _g = shard.lock();
                t.with_url("http://x/", || ());
            })
            .join()
        });
        let msg = abort_text(r);
        assert!(
            msg.contains("lock-order inversion: acquiring url lock"),
            "{msg}"
        );
        // A store guard inside the URL lock is the documented order.
        let shard = Mutex::with_class(&lockrank::STORE, ());
        t.with_url("http://x/", || drop(shard.lock()));
    }

    #[test]
    fn url_lock_may_be_held_across_sync() {
        use aide_util::vfs::{MemVfs, Vfs};
        let t = LockTable::new();
        let vfs = MemVfs::new();
        t.with_url("http://x/", || {
            vfs.append("wal", b"x").unwrap();
            vfs.sync("wal").unwrap();
        });
    }
}
