//! Synchronization for the snapshot facility (§4.2).
//!
//! "The system must synchronize access to the RCS repository, the locally
//! cached copy of the HTML document, and the control files that record
//! the versions of each page a user has checked in. Currently this is
//! done by using UNIX file locking on both a per-URL lock file and the
//! per-user control file."
//!
//! This module provides that lock table in-process, plus the improvement
//! the paper wishes for: "Ideally the locks could be queued such that if
//! multiple users request the same page simultaneously, the second
//! snapshot process would just wait for the page and then return, rather
//! than repeating the work" — implemented here as [`LockTable::once`],
//! a single-flight combinator.
//!
//! # Lock-ordering invariant
//!
//! The named locks in this table are the *only* exclusion mechanism in
//! the snapshot service — there is no repository-wide lock behind them —
//! so the ordering discipline below is what makes the service
//! deadlock-free. Every caller must respect it:
//!
//! 1. **URL key before user key.** An operation that needs both a
//!    per-URL lock ([`LockTable::url_key`]) and a per-user control-file
//!    lock ([`LockTable::user_key`]) must acquire the URL lock first and
//!    may hold at most one lock of each kind at a time. This is the
//!    discipline the paper's perl scripts followed implicitly by their
//!    code structure (snapshot the page, then update the control file).
//! 2. **At most one URL key and one user key held simultaneously.**
//!    Multi-URL operations (storage sweeps, `keys`) must not hold any
//!    named lock while iterating; they rely on shard snapshots instead.
//! 3. **Shard index order for multi-shard operations.** Code that must
//!    visit several internal shards (the lock table's own buckets, the
//!    sharded repository, the sharded diff cache) takes shard guards in
//!    ascending index order and never holds two shards of *different*
//!    structures at once.
//! 4. **Named locks are leaves with respect to structure locks.** While
//!    holding a shard/bucket guard of any sharded structure, never block
//!    on a named lock; bucket guards are held only for map lookups and
//!    insertions, never across I/O, diffing, or archive mutation.
//!
//! The table itself is sharded so that lock lookups for different keys
//! rarely contend; entries are created on first use and retained for the
//! lifetime of the table (the working set is bounded by the number of
//! distinct URLs and users, exactly like the lock files the 1996 service
//! left in its spool directory).

use aide_util::checksum::fnv1a64;
use aide_util::sync::lockrank;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

const SHARDS: usize = 64;

/// One queued named lock: a flag plus a wait queue.
#[derive(Default)]
struct RawLock {
    state: Mutex<bool>,
    queue: Condvar,
}

impl RawLock {
    /// Acquires; returns whether the caller had to wait.
    fn acquire(&self) -> bool {
        let mut held = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if !*held {
            *held = true;
            return false;
        }
        while *held {
            held = self.queue.wait(held).unwrap_or_else(|e| e.into_inner());
        }
        *held = true;
        true
    }

    fn release(&self) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = false;
        self.queue.notify_one();
    }
}

#[derive(Default)]
struct Shard {
    /// Key → its queued lock.
    locks: Mutex<HashMap<String, Arc<RawLock>>>,
    /// Results parked for single-flight reuse: key → (generation, value).
    flights: Mutex<HashMap<String, (u64, String)>>,
}

aide_obs::stat_cells! {
    /// Counters for lock behaviour.
    pub struct LockStats;
    /// The cells behind [`LockStats`].
    struct Counters {
        /// Lock acquisitions.
        acquisitions: "snapshot.locks.acquisitions",
        /// Acquisitions that had to wait (the lock was held).
        contended: "snapshot.locks.contended",
        /// Single-flight executions that performed the work.
        flights: "snapshot.locks.flights",
        /// Single-flight executions that reused a concurrent caller's work.
        piggybacked: "snapshot.locks.piggybacked",
    }
}

struct TableInner {
    shards: Vec<Shard>,
    counters: Counters,
    generation: AtomicU64,
}

/// A named-lock table with per-URL / per-user granularity.
///
/// See the module docs for the lock-ordering invariant every caller must
/// follow.
#[derive(Clone)]
pub struct LockTable {
    inner: Arc<TableInner>,
}

impl Default for LockTable {
    fn default() -> Self {
        LockTable::new()
    }
}

/// A held named lock; released on drop.
pub struct NamedGuard {
    raw: Arc<RawLock>,
    /// Debug-build held-lock record; popped from the thread's lock-order
    /// stack when the guard drops.
    _rank: lockrank::Held,
}

impl Drop for NamedGuard {
    fn drop(&mut self) {
        self.raw.release();
    }
}

/// Maps a named-lock key to its class in the shared lock-rank table
/// (`aide_util::sync::lockrank`): `url:*` and `user:*` are the two
/// paper-mandated named kinds; anything else is a single-flight key.
fn rank_class(key: &str) -> &'static str {
    if key.starts_with("url:") {
        "url"
    } else if key.starts_with("user:") {
        "user"
    } else {
        "flight"
    }
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> LockTable {
        LockTable {
            inner: Arc::new(TableInner {
                shards: (0..SHARDS).map(|_| Shard::default()).collect(),
                counters: Counters::default(),
                generation: AtomicU64::new(0),
            }),
        }
    }

    fn shard(&self, key: &str) -> &Shard {
        &self.inner.shards[fnv1a64(key.as_bytes()) as usize % SHARDS]
    }

    /// Acquires the lock named `key`, blocking while held elsewhere.
    /// Waiters are queued on a condition variable, not spinning.
    pub fn lock(&self, key: &str) -> NamedGuard {
        // Validate against the thread's held-lock stack *before* blocking,
        // so an ordering bug aborts with a diagnostic instead of
        // deadlocking (debug builds only; a no-op in release).
        let rank = lockrank::acquire(rank_class(key), key);
        let handle = {
            let mut locks = self
                .shard(key)
                .locks
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            locks.entry(key.to_string()).or_default().clone()
        };
        self.inner.counters.acquisitions.add(1);
        if handle.acquire() {
            self.inner.counters.contended.add(1);
        }
        NamedGuard {
            raw: handle,
            _rank: rank,
        }
    }

    /// Convenience: the per-URL lock name.
    pub fn url_key(url: &str) -> String {
        format!("url:{url}")
    }

    /// Convenience: the per-user control-file lock name.
    pub fn user_key(user: &str) -> String {
        format!("user:{user}")
    }

    /// Single-flight execution: runs `work` under the lock for `key`. If
    /// another caller completed the same keyed work while this caller was
    /// waiting for the lock, its result is returned without re-running
    /// `work`.
    ///
    /// The caller passes the *flight generation* it observed before
    /// deciding to do the work ([`LockTable::flight_generation`]); a newer
    /// parked result for the key means someone did the work in between.
    pub fn once(&self, key: &str, observed_gen: u64, work: impl FnOnce() -> String) -> String {
        let guard = self.lock(key);
        {
            let flights = self
                .shard(key)
                .flights
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if let Some((generation, value)) = flights.get(key) {
                if *generation > observed_gen {
                    let v = value.clone();
                    drop(flights);
                    drop(guard);
                    self.inner.counters.piggybacked.add(1);
                    return v;
                }
            }
        }
        let value = work();
        let generation = self.inner.generation.fetch_add(1, Ordering::Relaxed) + 1;
        self.shard(key)
            .flights
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key.to_string(), (generation, value.clone()));
        self.inner.counters.flights.add(1);
        drop(guard);
        value
    }

    /// The current flight generation; pass to [`LockTable::once`].
    pub fn flight_generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Relaxed)
    }

    /// Counters (a consistent-enough snapshot; each field is exact).
    pub fn stats(&self) -> LockStats {
        self.inner.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn same_key_excludes() {
        let t = LockTable::new();
        let g = t.lock("url:http://x/");
        // A second acquisition from another thread must block until drop.
        let t2 = t.clone();
        let flag = Arc::new(AtomicUsize::new(0));
        let f2 = flag.clone();
        let h = std::thread::spawn(move || {
            let _g = t2.lock("url:http://x/");
            f2.store(1, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(
            flag.load(Ordering::SeqCst),
            0,
            "second locker still waiting"
        );
        drop(g);
        h.join().unwrap();
        assert_eq!(flag.load(Ordering::SeqCst), 1);
        assert_eq!(t.stats().contended, 1);
    }

    #[test]
    fn different_keys_are_independent() {
        let t = LockTable::new();
        // Different keys never contend: sequential same-class locks and a
        // simultaneously held lock of the other kind all acquire
        // immediately. (Holding two URL locks at once would violate the
        // module's ordering invariant and abort in debug builds.)
        let a = t.lock("url:http://a/");
        let u = t.lock("user:douglis");
        drop(u);
        drop(a);
        let _b = t.lock("url:http://b/");
        assert_eq!(t.stats().acquisitions, 3);
        assert_eq!(t.stats().contended, 0);
    }

    #[test]
    fn single_flight_dedups_concurrent_work() {
        let t = LockTable::new();
        let work_count = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = t.clone();
            let wc = work_count.clone();
            // All callers observe generation 0 "simultaneously".
            handles.push(std::thread::spawn(move || {
                t.once("diff:http://x/:1.1:1.2", 0, || {
                    wc.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    "rendered diff".to_string()
                })
            }));
        }
        let results: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.iter().all(|r| r == "rendered diff"));
        assert_eq!(work_count.load(Ordering::SeqCst), 1, "work ran once");
        let s = t.stats();
        assert_eq!(s.flights, 1);
        assert_eq!(s.piggybacked, 7);
    }

    #[test]
    fn single_flight_reruns_for_new_generation() {
        let t = LockTable::new();
        let r1 = t.once("k", t.flight_generation(), || "first".to_string());
        // A later caller observing the *new* generation gets fresh work.
        let r2 = t.once("k", t.flight_generation(), || "second".to_string());
        assert_eq!(r1, "first");
        assert_eq!(r2, "second");
        assert_eq!(t.stats().flights, 2);
    }

    #[test]
    fn key_helpers() {
        assert_eq!(LockTable::url_key("http://x/"), "url:http://x/");
        assert_eq!(LockTable::user_key("a@b"), "user:a@b");
        assert_ne!(LockTable::url_key("z"), LockTable::user_key("z"));
    }

    #[test]
    fn many_threads_many_keys_no_deadlock() {
        let t = LockTable::new();
        let mut handles = Vec::new();
        for i in 0..8 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for k in 0..50 {
                    // URL before user, per the module invariant.
                    let _u = t.lock(&LockTable::url_key(&format!("http://h{}/", k % 5)));
                    let _c = t.lock(&LockTable::user_key(&format!("user{}", i % 3)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.stats().acquisitions, 8 * 50 * 2);
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
    fn flight_under_a_url_lock_panics() {
        // The single-flight key (rank 5) is taken inside `once`, a call
        // away from the url guard (rank 10) that forbids it.
        let t = LockTable::new();
        let t2 = t.clone();
        let r = std::thread::spawn(move || {
            let _u = t2.lock(&LockTable::url_key("http://x/"));
            t2.once("diff:http://x/", t2.flight_generation(), String::new);
        })
        .join();
        let msg = abort_text(r);
        assert!(msg.contains("acquiring flight lock"), "{msg}");
        // Flight first, url inside the work, is the documented order.
        let v = t.once("diff:http://x/", t.flight_generation(), || {
            let _u = t.lock(&LockTable::url_key("http://x/"));
            "ok".to_string()
        });
        assert_eq!(v, "ok");
    }
}
