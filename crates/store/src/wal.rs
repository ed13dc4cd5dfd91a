//! The write-ahead log: a single append-only file with group commit.
//!
//! Every mutation (store, check-in or remove) is one [`frame`](crate::frame)
//! appended to the WAL and fsynced *before* the in-memory index reflects
//! it — the classic WAL rule, which is what makes recovery a pure replay.
//!
//! # Group commit
//!
//! An fsync costs the same whether it covers one frame or fifty, so
//! concurrent committers batch: each caller enqueues its frame into a
//! pending buffer and is assigned a sequence number; the first waiter to
//! find no flush in progress becomes the *leader*, takes the whole
//! buffer, appends and fsyncs it in one call each while the lock is
//! released, then wakes everyone whose sequence the batch covered.
//! Callers arriving during a flush simply join the next batch — under
//! write bursts the fsync count grows with batches, not with commits
//! (the `store.wal.batch_frames` histogram records the achieved group
//! sizes).
//!
//! # The commit gate
//!
//! Checkpointing must observe a quiescent WAL: it relocates every
//! WAL-resident record into segment files and then truncates the log, so
//! a commit racing with it could land between the copy and the truncate
//! and be lost. [`Wal::begin_commit`] / [`Wal::pause_commits`] expose a
//! shared/exclusive gate (commits shared, checkpoint exclusive); callers
//! hold their permit across commit *and* index update so a checkpoint
//! never sees an index entry pointing into log space it is about to
//! truncate.

use aide_util::sync::{lockrank, Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use aide_util::vfs::{Vfs, VfsError};
use std::sync::Arc;

/// Shared-mode permit: commits may proceed while any of these are alive.
/// The gate is of the `wal` lock class (24, between `sched` and
/// `store`): it is always acquired before any shard lock, and the
/// debug-build rank checker enforces that.
pub struct CommitPermit<'a> {
    _guard: RwLockReadGuard<'a, ()>,
}

/// Exclusive-mode permit: no commit is in flight and none can start.
pub struct Pause<'a> {
    _guard: RwLockWriteGuard<'a, ()>,
}

struct WalState {
    /// Logical length: durable bytes plus the pending buffer.
    appended_len: u64,
    /// Frames enqueued but not yet appended+fsynced.
    pending: Vec<u8>,
    pending_frames: u64,
    /// Sequence number assigned to the next enqueued frame.
    next_seq: u64,
    /// Every frame with sequence `< flushed_before` is durable.
    flushed_before: u64,
    /// A leader is currently appending+fsyncing outside the lock.
    flushing: bool,
    /// A flush failed; the log refuses further commits (the storage
    /// engine treats this as fail-stop, which is what the crash harness
    /// simulates anyway).
    broken: Option<VfsError>,
}

/// The write-ahead log over one [`Vfs`] file.
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    path: String,
    gate: RwLock<()>,
    state: Mutex<WalState>,
    flushed: Condvar,
}

impl Wal {
    /// Wraps the WAL file at `path`, whose current durable length is
    /// `len` (as established by recovery).
    pub fn new(vfs: Arc<dyn Vfs>, path: String, len: u64) -> Wal {
        Wal {
            vfs,
            path,
            gate: RwLock::with_class(&lockrank::WAL, ()),
            state: Mutex::new(WalState {
                appended_len: len,
                pending: Vec::new(),
                pending_frames: 0,
                next_seq: 0,
                flushed_before: 0,
                flushing: false,
                broken: None,
            }),
            flushed: Condvar::new(),
        }
    }

    /// Enters shared commit mode. Hold the permit across
    /// [`commit`](Wal::commit) *and* the index update it covers.
    pub fn begin_commit(&self) -> CommitPermit<'_> {
        CommitPermit {
            _guard: self.gate.read(),
        }
    }

    /// Blocks new commits and waits out in-flight ones (they hold the
    /// gate in shared mode until their index update lands).
    pub fn pause_commits(&self) -> Pause<'_> {
        Pause {
            _guard: self.gate.write(),
        }
    }

    /// Current logical length in bytes — the checkpoint trigger input.
    pub fn len(&self) -> u64 {
        self.state.lock().appended_len
    }

    /// True if the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Durably appends `frame`, returning the file offset it landed at.
    /// Returns only after the bytes are fsynced (possibly by another
    /// committer's batch flush).
    pub fn commit(&self, _permit: &CommitPermit<'_>, frame: &[u8]) -> Result<u64, VfsError> {
        let mut st = self.state.lock();
        if let Some(err) = &st.broken {
            return Err(err.clone());
        }
        let offset = st.appended_len;
        st.appended_len += frame.len() as u64;
        st.pending.extend_from_slice(frame);
        st.pending_frames += 1;
        let my_seq = st.next_seq;
        st.next_seq += 1;

        loop {
            if let Some(err) = &st.broken {
                return Err(err.clone());
            }
            if st.flushed_before > my_seq {
                return Ok(offset);
            }
            if !st.flushing {
                // Become the leader: flush everything enqueued so far.
                st.flushing = true;
                let batch = std::mem::take(&mut st.pending);
                let frames = st.pending_frames;
                st.pending_frames = 0;
                let batch_end = st.next_seq;
                drop(st);

                let result = self
                    .vfs
                    .append(&self.path, &batch)
                    .and_then(|()| self.vfs.sync(&self.path));

                st = self.state.lock();
                st.flushing = false;
                match result {
                    Ok(()) => {
                        st.flushed_before = batch_end;
                        aide_obs::counter!("store.wal.append.bytes", batch.len() as u64);
                        aide_obs::counter!("store.wal.fsync", 1);
                        aide_obs::observe!("store.wal.batch_frames", frames);
                    }
                    Err(e) => {
                        st.broken = Some(e);
                    }
                }
                self.flushed.notify_all();
            } else {
                st = self.flushed.wait(st);
            }
        }
    }

    /// Truncates the log to empty. Call only under
    /// [`pause_commits`](Wal::pause_commits), after every WAL-resident
    /// record has been relocated to a synced segment.
    pub fn reset(&self, _pause: &Pause<'_>) -> Result<(), VfsError> {
        let mut st = self.state.lock();
        if let Some(err) = &st.broken {
            return Err(err.clone());
        }
        // Nothing can be pending or in flight: pause holds the gate
        // exclusively and committers keep their permits until done.
        if self.vfs.len(&self.path)?.is_some() {
            if let Err(e) = self.vfs.truncate(&self.path, 0).and_then(|()| {
                lockrank::allow_blocking(
                    "cold path: reset runs only under pause_commits, with no \
                     committer in flight to stall on the state lock",
                    || self.vfs.sync(&self.path),
                )
            }) {
                st.broken = Some(e.clone());
                return Err(e);
            }
        }
        st.appended_len = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_util::vfs::{FaultScript, FaultVfs, MemVfs};

    #[test]
    fn commits_are_durable_and_offsets_sequential() {
        let vfs = MemVfs::shared();
        let wal = Wal::new(vfs.clone(), "wal".into(), 0);
        let p = wal.begin_commit();
        assert_eq!(wal.commit(&p, b"aaaa").unwrap(), 0);
        assert_eq!(wal.commit(&p, b"bb").unwrap(), 4);
        drop(p);
        assert_eq!(wal.len(), 6);
        assert_eq!(vfs.read("wal").unwrap(), b"aaaabb");
    }

    #[test]
    fn concurrent_commits_group_into_few_fsyncs() {
        let vfs = MemVfs::shared();
        let wal = Arc::new(Wal::new(vfs.clone(), "wal".into(), 0));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let wal = wal.clone();
                std::thread::spawn(move || {
                    for i in 0..50u8 {
                        let p = wal.begin_commit();
                        wal.commit(&p, &[t as u8, i]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(wal.len(), 800);
        assert_eq!(vfs.read("wal").unwrap().len(), 800);
    }

    #[test]
    fn unsynced_commit_never_returns_ok() {
        // Kill point on the very first durability op: commit must report
        // the failure, and nothing claims durability.
        let vfs = FaultVfs::shared(FaultScript::honest(3).crash_after(0));
        let wal = Wal::new(vfs.clone(), "wal".into(), 0);
        let p = wal.begin_commit();
        assert!(wal.commit(&p, b"doomed").is_err());
        // Fail-stop: later commits refuse too.
        assert!(wal.commit(&p, b"after").is_err());
        drop(p);
        vfs.crash_and_revive();
        assert!(vfs.read("wal").is_err(), "nothing survived");
    }

    #[test]
    fn reset_truncates_durably() {
        let vfs = MemVfs::shared();
        let wal = Wal::new(vfs.clone(), "wal".into(), 0);
        let p = wal.begin_commit();
        wal.commit(&p, b"record").unwrap();
        drop(p);
        let pause = wal.pause_commits();
        wal.reset(&pause).unwrap();
        drop(pause);
        assert!(wal.is_empty());
        assert_eq!(vfs.read("wal").unwrap(), b"");
        let p = wal.begin_commit();
        assert_eq!(wal.commit(&p, b"x").unwrap(), 0, "offsets restart");
    }
}
