//! Poison-free synchronization primitives with a debug-build lock-order
//! checker.
//!
//! Thin wrappers over `std::sync` with `parking_lot`-style ergonomics:
//! `lock()` / `read()` / `write()` return guards directly instead of a
//! `LockResult`. A panic while holding a lock poisons the underlying
//! `std` primitive; these wrappers recover the guard anyway, because all
//! guarded state in this codebase stays structurally valid across panics
//! (counters, maps of immutable values) and the alternative — unwrapping
//! at every call site — turns one panicking thread into a cascade.
//!
//! Every [`Mutex`] and [`RwLock`] belongs to a [`lockrank::LockClass`]:
//! `structure` by default, or the class named by `with_class` for the
//! ranked instances (store shards, the scheduler state, the engine's
//! per-user state, the WAL gate). Under `debug_assertions` every
//! acquisition is checked against [`lockrank::TABLE`] before it blocks;
//! see [`lockrank`] for the rules. Release builds carry neither the
//! class nor a held-lock record: the types are the `std` ones.

use std::fmt;
use std::sync::{self, PoisonError};

/// A mutual-exclusion lock whose guard access never fails.
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: &'static lockrank::LockClass,
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: sync::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    held: lockrank::Held,
}

impl<T> Mutex<T> {
    /// Creates a `structure`-class lock around `value`.
    pub fn new(value: T) -> Mutex<T> {
        Mutex::with_class(&lockrank::STRUCTURE, value)
    }

    /// Creates a lock of rank class `class` around `value`.
    pub fn with_class(class: &'static lockrank::LockClass, value: T) -> Mutex<T> {
        #[cfg(not(debug_assertions))]
        let _ = class;
        Mutex {
            #[cfg(debug_assertions)]
            class,
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
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = lockrank::Held::guard(self.class, false, addr(self));
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            held,
        }
    }

    /// Acquires the lock only if it is free right now.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            inner,
            #[cfg(debug_assertions)]
            held: lockrank::Held::guard(self.class, false, addr(self)),
        })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The identity the checker uses to spot a thread re-locking a lock it
/// already holds.
#[cfg(debug_assertions)]
fn addr<L: ?Sized>(lock: &L) -> usize {
    (lock as *const L).cast::<()>() as usize
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
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
    /// reacquires the lock. In debug builds the guard's own record is
    /// set aside while the thread waits, and waiting while the thread
    /// holds any other exclusive `store`/`structure` guard panics (see
    /// [`lockrank::check_blocking`]).
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let MutexGuard {
            inner,
            #[cfg(debug_assertions)]
            held,
        } = guard;
        #[cfg(debug_assertions)]
        let parked = held.park("condvar wait");
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        #[cfg(debug_assertions)]
        held.unpark(parked);
        MutexGuard {
            inner,
            #[cfg(debug_assertions)]
            held,
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
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: &'static lockrank::LockClass,
    inner: sync::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: lockrank::Held,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: lockrank::Held,
}

impl<T> RwLock<T> {
    /// Creates a `structure`-class lock around `value`.
    pub fn new(value: T) -> RwLock<T> {
        RwLock::with_class(&lockrank::STRUCTURE, value)
    }

    /// Creates a lock of rank class `class` around `value`.
    pub fn with_class(class: &'static lockrank::LockClass, value: T) -> RwLock<T> {
        #[cfg(not(debug_assertions))]
        let _ = class;
        RwLock {
            #[cfg(debug_assertions)]
            class,
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
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = lockrank::Held::guard(self.class, true, addr(self));
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _held: held,
        }
    }

    /// Acquires exclusive write access.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = lockrank::Held::guard(self.class, false, addr(self));
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _held: held,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
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
    //! The workspace lock-order table and its debug-build runtime checker.
    //!
    //! [`TABLE`] is the single statement of the lock-ordering discipline
    //! documented in DESIGN.md §4d/§4h, and this module is its single
    //! enforcer. Under `debug_assertions` every acquisition of an
    //! `aide_util::sync` [`Mutex`](super::Mutex) / [`RwLock`](super::RwLock)
    //! pushes a record on a thread-local stack, checked *before* the
    //! thread blocks:
    //!
    //! - ranks never decrease: a thread holding rank `r` may only acquire
    //!   locks of rank `>= r`;
    //! - at most one lock of each `exclusive` class is held at a time;
    //! - a thread never re-locks a lock it already holds (two read
    //!   guards of one `RwLock` excepted).
    //!
    //! Blocking is checked too. [`check_blocking`] — called by every
    //! `Vfs::sync` and by `Condvar::wait` (after setting its own guard
    //! aside) — panics while the thread holds an exclusive-mode guard
    //! (a mutex or write guard; read guards stall nobody) of a class
    //! whose `may_block` is false: `store` and `structure`. The `url`
    //! and `user` locks, the `sched` state and the `wal` gate may be
    //! held across I/O: the per-URL lock covers a whole check-in, WAL
    //! fsync included (§4.2 of the paper). A deliberate
    //! exception runs inside [`allow_blocking`], whose argument says why.
    //!
    //! A violation panics with both acquisition sites named instead of
    //! deadlocking or convoying. Release builds compile all of it out.

    /// One class of lock in the global acquisition order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct LockClass {
        /// Class name, as used by diagnostics.
        pub name: &'static str,
        /// Acquisition rank: a thread holding rank `r` may only acquire
        /// locks of rank `>= r`.
        pub rank: u32,
        /// Whether at most one lock of this class may be held per thread.
        pub exclusive: bool,
        /// Whether a thread may block (fsync, condvar wait) while it
        /// holds an exclusive-mode guard of this class.
        pub may_block: bool,
    }

    /// The per-URL lock (the paper's per-URL lock file).
    pub const URL: LockClass = LockClass {
        name: "url",
        rank: 10,
        exclusive: true,
        may_block: true,
    };
    /// The engine's per-user tracker state.
    pub const USER: LockClass = LockClass {
        name: "user",
        rank: 20,
        exclusive: true,
        may_block: true,
    };
    /// The adaptive scheduler's state mutex (aide-sched).
    pub const SCHED: LockClass = LockClass {
        name: "sched",
        rank: 22,
        exclusive: true,
        may_block: true,
    };
    /// The WAL commit gate: shared for committers, exclusive for the
    /// checkpoint pause; always taken before any shard lock.
    pub const WAL: LockClass = LockClass {
        name: "wal",
        rank: 24,
        exclusive: false,
        may_block: true,
    };
    /// One aide-store shard index.
    pub const STORE: LockClass = LockClass {
        name: "store",
        rank: 25,
        exclusive: true,
        may_block: false,
    };
    /// Shard, bucket and cache guards: leaves, never held across I/O.
    pub const STRUCTURE: LockClass = LockClass {
        name: "structure",
        rank: 30,
        exclusive: false,
        may_block: false,
    };

    /// The lock-rank table (DESIGN.md §4h), in acquisition order.
    pub const TABLE: &[LockClass] = &[URL, USER, SCHED, WAL, STORE, STRUCTURE];

    #[cfg(debug_assertions)]
    mod dynamic {
        use super::LockClass;
        use std::cell::{Cell, RefCell};
        use std::panic::Location;
        use std::sync::atomic::{AtomicU64, Ordering};

        /// One held lock on the thread's stack.
        pub(in crate::sync) struct Record {
            token: u64,
            class: &'static LockClass,
            shared: bool,
            /// The lock's address.
            addr: usize,
            /// Where the lock was taken.
            site: &'static Location<'static>,
        }

        static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

        thread_local! {
            static HELD: RefCell<Vec<Record>> = const { RefCell::new(Vec::new()) };
            static ALLOWED: Cell<u32> = const { Cell::new(0) };
        }

        pub(super) fn enter(
            class: &'static LockClass,
            shared: bool,
            addr: usize,
            site: &'static Location<'static>,
        ) -> u64 {
            let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                for h in held.iter() {
                    let fault = if h.class.rank > class.rank {
                        format!(
                            "lock-order inversion: acquiring {} lock at {site} while holding {} lock at {} (rank {} > {})",
                            class.name, h.class.name, h.site, h.class.rank, class.rank
                        )
                    } else if class.exclusive && h.class.name == class.name {
                        format!(
                            "double acquisition of exclusive {} lock class: already hold at {}, acquiring at {site}",
                            class.name, h.site
                        )
                    } else if h.addr == addr && !(shared && h.shared) {
                        format!(
                            "self-deadlock: re-acquiring the {} lock taken at {} at {site}",
                            class.name, h.site
                        )
                    } else {
                        continue;
                    };
                    // aide-lint: allow(no-panic): the runtime checker's whole job is to abort on a lock-order violation
                    panic!("{fault}");
                }
                held.push(Record {
                    token,
                    class,
                    shared,
                    addr,
                    site,
                });
            });
            token
        }

        /// Removes `token`'s record from the calling thread's stack.
        pub(super) fn take(token: u64) -> Option<Record> {
            // A guard dropped while the thread's locals are being torn
            // down finds no stack; there is nothing left to pop.
            HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                let i = held.iter().rposition(|r| r.token == token)?;
                Some(held.remove(i))
            })
            .ok()
            .flatten()
        }

        pub(super) fn put_back(record: Record) {
            HELD.with(|held| held.borrow_mut().push(record));
        }

        pub(super) fn check_blocking(op: &str) {
            if ALLOWED.with(Cell::get) > 0 {
                return;
            }
            HELD.with(|held| {
                if let Some(h) = held
                    .borrow()
                    .iter()
                    .find(|h| !h.shared && !h.class.may_block)
                {
                    // aide-lint: allow(no-panic): the runtime checker's whole job is to abort on blocking under a leaf lock
                    panic!(
                        "{op} while holding the {} lock taken at {}: drop the guard before blocking, \
                         or justify the exception with lockrank::allow_blocking",
                        h.class.name, h.site
                    );
                }
            });
        }

        /// Marks the calling thread as inside an [`allow_blocking`]
        /// scope until dropped.
        ///
        /// [`allow_blocking`]: super::allow_blocking
        pub(super) struct Allowed;

        impl Allowed {
            pub(super) fn enter() -> Allowed {
                ALLOWED.with(|a| a.set(a.get() + 1));
                Allowed
            }
        }

        impl Drop for Allowed {
            fn drop(&mut self) {
                let _ = ALLOWED.try_with(|a| a.set(a.get() - 1));
            }
        }
    }

    /// A held-lock record; popping happens on drop. Debug builds only.
    #[cfg(debug_assertions)]
    pub(in crate::sync) struct Held {
        token: u64,
    }

    #[cfg(debug_assertions)]
    impl Drop for Held {
        fn drop(&mut self) {
            dynamic::take(self.token);
        }
    }

    #[cfg(debug_assertions)]
    impl Held {
        /// Records a guard acquisition of `class` on the lock at `addr`,
        /// attributed to the caller's source location.
        #[track_caller]
        pub(in crate::sync) fn guard(class: &'static LockClass, shared: bool, addr: usize) -> Held {
            Held {
                token: dynamic::enter(class, shared, addr, std::panic::Location::caller()),
            }
        }

        /// Sets this record aside for a condvar wait, then checks that
        /// nothing else the thread holds forbids blocking.
        pub(in crate::sync) fn park(&self, op: &str) -> Option<dynamic::Record> {
            let record = dynamic::take(self.token);
            dynamic::check_blocking(op);
            record
        }

        /// Restores a record set aside by [`park`](Held::park).
        pub(in crate::sync) fn unpark(&self, record: Option<dynamic::Record>) {
            if let Some(r) = record {
                dynamic::put_back(r);
            }
        }
    }

    /// Declares that the calling thread is about to block in `op`
    /// (`"fsync"`, `"condvar wait"`). In debug builds this panics if the
    /// thread holds an exclusive-mode guard of a class that may not be
    /// held across blocking, outside [`allow_blocking`]. A no-op in
    /// release builds.
    pub fn check_blocking(op: &str) {
        #[cfg(debug_assertions)]
        dynamic::check_blocking(op);
        #[cfg(not(debug_assertions))]
        let _ = op;
    }

    /// Runs `f` with [`check_blocking`] disarmed on this thread. `why`
    /// is the reviewable part: the crash-safety ordering that forces a
    /// blocking call under a leaf lock.
    pub fn allow_blocking<R>(why: &'static str, f: impl FnOnce() -> R) -> R {
        let _ = why;
        #[cfg(debug_assertions)]
        let _allowed = dynamic::Allowed::enter();
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::lockrank::{STORE, URL};
    use super::*;
    use crate::vfs::{MemVfs, Vfs};
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
            let (url, user) = (
                Mutex::with_class(&URL, ()),
                Mutex::with_class(&lockrank::USER, ()),
            );
            let sched = Mutex::with_class(&lockrank::SCHED, ());
            let wal = RwLock::with_class(&lockrank::WAL, ());
            let store = Mutex::with_class(&STORE, ());
            let (shard3, shard4) = (Mutex::new(()), Mutex::new(()));
            let url = url.lock();
            let user = user.lock();
            let sched = sched.lock();
            let wal = wal.write();
            let store = store.lock();
            let s1 = shard3.lock();
            let s2 = shard4.lock();
            drop((s1, s2, store, wal, sched, user, url));
        })
        .unwrap();
    }

    #[test]
    fn lockrank_release_unwinds_exclusivity() {
        on_thread(|| {
            for _ in 0..3 {
                let url = Mutex::with_class(&URL, ());
                let _g = url.lock();
            }
        })
        .unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn lockrank_rejects_inversion() {
        let r = on_thread(|| {
            let (user, url) = (
                Mutex::with_class(&lockrank::USER, ()),
                Mutex::with_class(&URL, ()),
            );
            let _user = user.lock();
            let _url = url.lock();
        });
        assert!(r.is_err(), "user-then-url must abort in debug builds");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn lockrank_rejects_double_exclusive() {
        let r = on_thread(|| {
            let (a, b) = (Mutex::with_class(&URL, ()), Mutex::with_class(&URL, ()));
            let _a = a.lock();
            let _b = b.lock();
        });
        assert!(
            r.is_err(),
            "two URL locks at once must abort in debug builds"
        );
    }

    #[test]
    fn lockrank_structure_is_shared() {
        on_thread(|| {
            let (shard0, shard1) = (Mutex::new(()), Mutex::new(()));
            let _a = shard0.lock();
            let _b = shard1.lock();
        })
        .unwrap();
    }

    #[test]
    fn lockrank_table_is_sorted_and_named() {
        let mut prev = 0;
        for (i, c) in lockrank::TABLE.iter().enumerate() {
            assert!(c.rank >= prev, "table must be rank-sorted");
            prev = c.rank;
            assert!(!c.name.is_empty());
            assert!(lockrank::TABLE[..i].iter().all(|p| p.name != c.name));
        }
    }

    // Helpers for the call-shaped checker tests: the acquisition or the
    // fsync sits one or two calls away from the guard that forbids it.

    fn bump(m: &Mutex<u32>) {
        *m.lock() += 1;
    }

    fn bump_via(m: &Mutex<u32>) {
        bump(m);
    }

    fn shard(m: &Mutex<u32>) -> MutexGuard<'_, u32> {
        m.lock()
    }

    fn persist(vfs: &MemVfs) {
        vfs.append("seg", b"x").unwrap();
        vfs.sync("seg").unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn inversion_through_two_helper_calls_panics() {
        let r = on_thread(|| {
            let table = Mutex::new(0u32);
            let store = Mutex::with_class(&STORE, 0u32);
            let _g = table.lock();
            bump_via(&store);
        });
        assert!(r.is_err(), "store lock under a structure guard must abort");
        // Ascending rank across the same calls is the documented order.
        on_thread(|| {
            let url = Mutex::with_class(&URL, 0u32);
            let store = Mutex::with_class(&STORE, 0u32);
            let _g = url.lock();
            bump_via(&store);
        })
        .unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn class_carrying_locks_follow_the_table() {
        let r = on_thread(|| {
            let user = Mutex::with_class(&lockrank::USER, 0u32);
            let url = Mutex::with_class(&URL, 0u32);
            let _u = user.lock();
            let _v = url.lock();
        });
        assert!(r.is_err(), "user-then-url must abort");
        on_thread(|| {
            let user = Mutex::with_class(&lockrank::USER, 0u32);
            let url = Mutex::with_class(&URL, 0u32);
            let v = url.lock();
            let u = user.lock();
            drop(u);
            drop(v);
            // Sequential, not nested, reads of one structure lock.
            let table = RwLock::new(vec![1u32]);
            let first = table.read().len();
            let second = table.read().len();
            assert_eq!(first + second, 2);
        })
        .unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn guard_returned_by_a_helper_keeps_its_rank() {
        let r = on_thread(|| {
            let store = Mutex::with_class(&STORE, 0u32);
            let user = Mutex::with_class(&lockrank::USER, 0u32);
            let _sh = shard(&store);
            bump(&user);
        });
        assert!(
            r.is_err(),
            "user lock under a returned store guard must abort"
        );
    }

    fn read_and_hold(m: &Mutex<u32>) -> (u32, MutexGuard<'_, u32>) {
        let g = m.lock();
        (*g, g)
    }

    #[cfg(debug_assertions)]
    #[test]
    fn guard_returned_by_a_helper_then_inverting_call_panics() {
        let r = on_thread(|| {
            let sched = Mutex::with_class(&lockrank::SCHED, 0u32);
            let url = Mutex::with_class(&URL, 0u32);
            let _st = shard(&sched);
            bump(&url);
        });
        assert!(
            r.is_err(),
            "url lock taken by a callee under a returned sched guard must abort"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn destructured_guard_cannot_dodge_the_rank_check() {
        let r = on_thread(|| {
            let store = Mutex::with_class(&STORE, 0u32);
            let url = Mutex::with_class(&URL, 0u32);
            let (_n, mut sh) = read_and_hold(&store);
            let _g = url.lock();
            *sh += 1;
        });
        assert!(
            r.is_err(),
            "url lock under a destructured store guard must abort"
        );
    }

    #[test]
    fn destructured_guard_released_by_drop() {
        on_thread(|| {
            let store = Mutex::with_class(&STORE, 0u32);
            let url = Mutex::with_class(&URL, 0u32);
            let (n, sh) = read_and_hold(&store);
            drop(sh);
            let g = url.lock();
            assert_eq!(*g, n);
        })
        .unwrap();
    }

    #[test]
    fn guard_dropped_before_the_call_is_released() {
        on_thread(|| {
            let table = Mutex::new(0u32);
            let store = Mutex::with_class(&STORE, 0u32);
            let g = table.lock();
            drop(g);
            bump_via(&store);
            let _sh = shard(&store);
            drop(_sh);
            let url = Mutex::with_class(&URL, 0u32);
            bump(&url);
        })
        .unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn relocking_a_held_lock_panics() {
        let r = on_thread(|| {
            let table = RwLock::new(0u32);
            let _r = table.read();
            let _w = table.write();
        });
        assert!(r.is_err(), "write under own read guard must abort");
        on_thread(|| {
            let table = RwLock::new(0u32);
            let _a = table.read();
            let _b = table.read();
        })
        .unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn fsync_under_structure_guard_through_a_call_panics() {
        let r = on_thread(|| {
            let vfs = MemVfs::new();
            let table = Mutex::new(0u32);
            let _g = table.lock();
            persist(&vfs);
        });
        assert!(r.is_err(), "fsync under a structure guard must abort");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn fsync_directly_under_structure_guard_panics() {
        let r = on_thread(|| {
            let vfs = MemVfs::new();
            vfs.append("wal", b"x").unwrap();
            let table = Mutex::new(0u32);
            let _g = table.lock();
            vfs.sync("wal").unwrap();
        });
        assert!(r.is_err(), "fsync under a structure guard must abort");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn blocking_while_locked_shapes() {
        // Exclusive guard, then fsync directly or through a call: aborts.
        let direct = on_thread(|| {
            let vfs = MemVfs::new();
            let state = Mutex::new(0u32);
            let _st = state.lock();
            vfs.append("seg", b"x").unwrap();
            vfs.sync("seg").unwrap();
        });
        assert!(direct.is_err(), "direct fsync under the guard must abort");
        let via = on_thread(|| {
            let vfs = MemVfs::new();
            let state = Mutex::new(0u32);
            let _st = state.lock();
            persist(&vfs);
        });
        assert!(via.is_err(), "fsync through a call must abort");
        // A shared guard stalls no writer, and a dropped guard holds nothing.
        on_thread(|| {
            let vfs = MemVfs::new();
            let config = RwLock::new(0u32);
            let snapshot = config.read();
            persist(&vfs);
            drop(snapshot);
            let state = Mutex::new(0u32);
            let st = state.lock();
            drop(st);
            persist(&vfs);
        })
        .unwrap();
    }

    #[test]
    fn condvar_wait_on_its_own_mutex_is_allowed() {
        on_thread(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let outer = Mutex::with_class(&URL, ());
            let _url = outer.lock();
            let mut ready = pair.0.lock();
            let notifier = Arc::clone(&pair);
            // The notifier cannot take the mutex until this thread waits
            // on it, so at least one real wait happens.
            let t = std::thread::spawn(move || {
                *notifier.0.lock() = true;
                notifier.1.notify_all();
            });
            while !*ready {
                ready = pair.1.wait(ready);
            }
            drop(ready);
            t.join().unwrap();
        })
        .unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn condvar_wait_under_another_structure_guard_panics() {
        let r = on_thread(|| {
            let other = Mutex::new(());
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let _o = other.lock();
            let mut ready = pair.0.lock();
            let notifier = Arc::clone(&pair);
            std::thread::spawn(move || {
                *notifier.0.lock() = true;
                notifier.1.notify_all();
            });
            while !*ready {
                ready = pair.1.wait(ready);
            }
        });
        assert!(
            r.is_err(),
            "a wait must not park another thread's leaf lock"
        );
    }

    #[test]
    fn read_guard_held_across_sync_is_allowed() {
        on_thread(|| {
            let vfs = MemVfs::new();
            let table = RwLock::new(0u32);
            let _r = table.read();
            persist(&vfs);
        })
        .unwrap();
    }

    #[test]
    fn allow_blocking_scope_is_allowed() {
        on_thread(|| {
            let vfs = MemVfs::new();
            let store = Mutex::with_class(&STORE, 0u32);
            let _sh = store.lock();
            lockrank::allow_blocking("test: a crash-safety sync under the shard lock", || {
                persist(&vfs)
            });
        })
        .unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn allow_blocking_scope_ends_with_its_closure() {
        let r = on_thread(|| {
            let vfs = MemVfs::new();
            let store = Mutex::with_class(&STORE, 0u32);
            let _sh = store.lock();
            lockrank::allow_blocking("test", || ());
            persist(&vfs);
        });
        assert!(r.is_err(), "the exemption must not outlive its scope");
    }

    #[test]
    fn named_locks_may_be_held_across_sync() {
        on_thread(|| {
            let vfs = MemVfs::new();
            let url = Mutex::with_class(&URL, ());
            let _url = url.lock();
            let gate = RwLock::with_class(&lockrank::WAL, ());
            let _pause = gate.write();
            persist(&vfs);
        })
        .unwrap();
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn release_locks_and_guards_are_std_sized() {
        use std::mem::size_of;
        assert_eq!(size_of::<Mutex<u64>>(), size_of::<sync::Mutex<u64>>());
        assert_eq!(size_of::<RwLock<u64>>(), size_of::<sync::RwLock<u64>>());
        assert_eq!(
            size_of::<MutexGuard<'static, u64>>(),
            size_of::<sync::MutexGuard<'static, u64>>()
        );
        assert_eq!(
            size_of::<RwLockReadGuard<'static, u64>>(),
            size_of::<sync::RwLockReadGuard<'static, u64>>()
        );
        assert_eq!(
            size_of::<RwLockWriteGuard<'static, u64>>(),
            size_of::<sync::RwLockWriteGuard<'static, u64>>()
        );
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
