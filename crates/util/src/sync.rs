//! Poison-free synchronization primitives.
//!
//! Thin wrappers over `std::sync` with `parking_lot`-style ergonomics:
//! `lock()` / `read()` / `write()` return guards directly instead of a
//! `LockResult`. A panic while holding a lock poisons the underlying
//! `std` primitive; these wrappers recover the guard anyway, because all
//! guarded state in this codebase stays structurally valid across panics
//! (counters, maps of immutable values) and the alternative — unwrapping
//! at every call site — turns one panicking thread into a cascade.

use std::fmt;
use std::sync::{self, PoisonError};

/// A mutual-exclusion lock whose guard access never fails.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Creates a lock around `value`.
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquires the lock only if it is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: g }),
            Err(sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: p.into_inner(),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// A condition variable paired with [`Mutex`], with the same
/// poison-recovering policy as the lock wrappers. Needed by the storage
/// engine's group commit (waiters park until the leader's fsync covers
/// their sequence number); lives here because [`MutexGuard`]'s inner
/// `std` guard is private to this module.
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable.
    pub fn new() -> Condvar {
        Condvar::default()
    }

    /// Atomically releases `guard` and blocks until notified, then
    /// reacquires the lock.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        MutexGuard {
            inner: self
                .inner
                .wait(guard.inner)
                .unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Blocks like [`wait`](Condvar::wait) until `condition` holds.
    pub fn wait_while<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut condition: impl FnMut(&mut T) -> bool,
    ) -> MutexGuard<'a, T> {
        while condition(&mut guard) {
            guard = self.wait(guard);
        }
        guard
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

/// A reader-writer lock whose guard access never fails.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a lock around `value`.
    pub fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

pub mod lockrank {
    //! The workspace lock-order table and a debug-build runtime checker.
    //!
    //! [`TABLE`] is the single source of truth for the lock-ordering
    //! discipline documented in DESIGN.md §4d/§4h: a thread may only
    //! acquire locks of non-decreasing rank, and at most one lock of any
    //! `exclusive` class at a time. The static checker (`aide-lint`'s
    //! `lock-order` pass) enforces the same table lexically; this module
    //! enforces it dynamically on every named-lock acquisition when
    //! `debug_assertions` are on, and compiles to nothing in release
    //! builds.

    /// One class of lock in the global acquisition order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct LockClass {
        /// Class name, as used by waiver comments and diagnostics.
        pub name: &'static str,
        /// Acquisition rank: a thread holding rank `r` may only acquire
        /// locks of rank `>= r`.
        pub rank: u32,
        /// Whether at most one lock of this class may be held per thread.
        pub exclusive: bool,
    }

    /// The lock-rank table (DESIGN.md §4h). Order of acquisition is
    /// ascending rank: single-flight key, then per-URL named lock, then
    /// per-user named lock, then the scheduler state lock (aide-sched;
    /// held while snapshotting rate state, released or still-held when
    /// the snapshot is persisted through the store's per-shard lock),
    /// then the WAL commit gate (shared for committers, exclusive for
    /// checkpoint pause — always taken before any shard lock), then the
    /// storage engine's per-shard lock (held across WAL commits while
    /// the caller still holds the URL lock), then structure
    /// (shard/bucket) guards, which are leaves.
    pub const TABLE: &[LockClass] = &[
        LockClass {
            name: "flight",
            rank: 5,
            exclusive: true,
        },
        LockClass {
            name: "url",
            rank: 10,
            exclusive: true,
        },
        LockClass {
            name: "user",
            rank: 20,
            exclusive: true,
        },
        LockClass {
            name: "sched",
            rank: 22,
            exclusive: true,
        },
        LockClass {
            name: "wal",
            rank: 24,
            exclusive: false,
        },
        LockClass {
            name: "store",
            rank: 25,
            exclusive: true,
        },
        LockClass {
            name: "structure",
            rank: 30,
            exclusive: false,
        },
    ];

    /// Looks up a class by name.
    pub fn class(name: &str) -> Option<&'static LockClass> {
        TABLE.iter().find(|c| c.name == name)
    }

    #[cfg(debug_assertions)]
    mod dynamic {
        use super::LockClass;
        use std::cell::RefCell;
        use std::sync::atomic::{AtomicU64, Ordering};

        static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

        thread_local! {
            static HELD: RefCell<Vec<(u64, &'static LockClass, String)>> =
                const { RefCell::new(Vec::new()) };
        }

        pub(super) fn note_acquire(class: &'static LockClass, key: &str) -> u64 {
            let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                for (_, c, k) in held.iter() {
                    if c.rank > class.rank {
                        // aide-lint: allow(no-panic): the runtime checker's whole job is to abort on a lock-order violation
                        panic!(
                            "lock-order inversion: acquiring {} lock {key:?} while holding {} lock {k:?} (rank {} > {})",
                            class.name, c.name, c.rank, class.rank
                        );
                    }
                    if class.exclusive && c.name == class.name {
                        // aide-lint: allow(no-panic): the runtime checker's whole job is to abort on a double acquisition
                        panic!(
                            "double acquisition of exclusive {} lock class: already hold {k:?}, acquiring {key:?}",
                            class.name
                        );
                    }
                }
                held.push((token, class, key.to_string()));
            });
            token
        }

        pub(super) fn note_release(token: u64) {
            // The guard may be dropped on a different thread than it was
            // acquired on; in that case the entry is simply not found and
            // tracking for that lock ends at the acquiring thread.
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(i) = held.iter().position(|(t, _, _)| *t == token) {
                    held.remove(i);
                }
            });
        }
    }

    /// A held-lock record; popping happens on drop. Zero-sized and inert
    /// in release builds.
    #[derive(Debug)]
    pub struct Held {
        #[cfg(debug_assertions)]
        token: u64,
    }

    impl Drop for Held {
        fn drop(&mut self) {
            #[cfg(debug_assertions)]
            dynamic::note_release(self.token);
        }
    }

    /// Records the acquisition of a lock of class `name` for `key`,
    /// validating it against the locks this thread already holds. In
    /// debug builds a rank inversion or exclusive-class double
    /// acquisition aborts immediately with a diagnostic; in release
    /// builds this is a no-op.
    ///
    /// # Examples
    ///
    /// ```
    /// use aide_util::sync::lockrank;
    ///
    /// let url = lockrank::acquire("url", "url:http://x/");
    /// let user = lockrank::acquire("user", "user:fred");
    /// drop(user);
    /// drop(url);
    /// ```
    pub fn acquire(name: &'static str, key: &str) -> Held {
        #[cfg(debug_assertions)]
        {
            // aide-lint: allow(no-panic): unknown class names are a checker-integration bug, not a runtime condition
            let class = class(name).unwrap_or_else(|| panic!("unknown lock class {name:?}"));
            Held {
                token: dynamic::note_acquire(class, key),
            }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = (name, key);
            Held {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(*l.read(), vec![1, 2]);
        assert_eq!(l.into_inner(), vec![1, 2]);
    }

    /// Runs `f` on its own thread so a panicking lock-order check cannot
    /// pollute this thread's held-lock stack for later tests.
    fn on_thread(f: impl FnOnce() + Send + 'static) -> std::thread::Result<()> {
        std::thread::spawn(f).join()
    }

    #[test]
    fn lockrank_accepts_documented_order() {
        on_thread(|| {
            let f = lockrank::acquire("flight", "diff:k");
            drop(f);
            let url = lockrank::acquire("url", "url:http://x/");
            let user = lockrank::acquire("user", "user:fred");
            let sched = lockrank::acquire("sched", "sched:state");
            let wal = lockrank::acquire("wal", "wal:gate");
            let store = lockrank::acquire("store", "store:shard:7");
            let s1 = lockrank::acquire("structure", "shard:3");
            let s2 = lockrank::acquire("structure", "shard:4");
            drop((s1, s2, store, wal, sched, user, url));
        })
        .unwrap();
    }

    #[test]
    fn lockrank_release_unwinds_exclusivity() {
        on_thread(|| {
            for i in 0..3 {
                let _g = lockrank::acquire("url", &format!("url:http://h{i}/"));
            }
        })
        .unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn lockrank_rejects_inversion() {
        let r = on_thread(|| {
            let _user = lockrank::acquire("user", "user:fred");
            let _url = lockrank::acquire("url", "url:http://x/");
        });
        assert!(r.is_err(), "user-then-url must abort in debug builds");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn lockrank_rejects_double_exclusive() {
        let r = on_thread(|| {
            let _a = lockrank::acquire("url", "url:http://a/");
            let _b = lockrank::acquire("url", "url:http://b/");
        });
        assert!(
            r.is_err(),
            "two URL locks at once must abort in debug builds"
        );
    }

    #[test]
    fn lockrank_structure_is_shared() {
        on_thread(|| {
            let _a = lockrank::acquire("structure", "shard:0");
            let _b = lockrank::acquire("structure", "shard:1");
        })
        .unwrap();
    }

    #[test]
    fn lockrank_table_is_sorted_and_named() {
        let mut prev = 0;
        for c in lockrank::TABLE {
            assert!(c.rank >= prev, "table must be rank-sorted");
            prev = c.rank;
            assert!(lockrank::class(c.name).is_some());
        }
        assert!(lockrank::class("nonesuch").is_none());
    }

    #[test]
    fn poisoned_mutex_recovers() {
        let m = Arc::new(Mutex::new(7));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7, "lock usable after a holder panicked");
    }
}
