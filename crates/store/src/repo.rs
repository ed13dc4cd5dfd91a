//! The crash-safe on-disk [`Repository`]: WAL + immutable segments.
//!
//! # Layout
//!
//! ```text
//! <root>/wal                 the write-ahead log (all shards)
//! <root>/shard_00/seg_00000001
//! <root>/shard_00/seg_00000002   append-once, then immutable
//! ...
//! <root>/shard_15/seg_00000007
//! ```
//!
//! Keys hash into [`STORE_SHARDS`] shards (FNV-1a, the same function
//! `MemRepository` buckets with). Each shard owns an in-memory index —
//! key → (file, offset, length, emit bytes, revisions) — guarded by one
//! mutex registered as the `store` lock class (rank 25): callers hold
//! one per-URL mutex (rank 10) through `aide-snapshot`'s
//! `LockTable::with_url` across read-modify-write, the store lock nests
//! inside it, and the VFS's own structure guards (rank 30)
//! nest inside that.
//!
//! # Write path
//!
//! A mutation is one checksummed frame (see [`frame`])
//! committed to the WAL with group commit (see [`Wal`]) *before* the
//! index is updated. Once the WAL crosses a size threshold, a
//! *checkpoint* relocates every WAL-resident record into a fresh
//! per-shard segment file (fsynced), then truncates the log. Segments
//! are immutable once written; superseded records make a segment
//! partially dead, and *compaction* rewrites a shard's live records into
//! one new segment and deletes the old ones — **oldest-first**, which is
//! what makes tombstones safe: a tombstone always lives in a
//! higher-numbered segment (or the WAL) than the record it masks, so no
//! crash point can delete a tombstone while leaving the masked record.
//!
//! # Recovery invariant
//!
//! On open, segments replay in ascending id order, then the WAL; within
//! a file, later frames win. Every file may carry a torn tail (a crash
//! mid-append); recovery truncates each file at the first undecodable
//! frame. Because frames are appended in operation order and fsynced
//! before the operation is acknowledged, the recovered state is always
//! a *prefix* of acknowledged history: every acknowledged store/remove
//! either fully survives or (if the crash landed inside its commit,
//! unacknowledged) fully disappears — never a half-applied record.
//!
//! # Serving
//!
//! `load` reads one frame by exact location, re-verifies its checksum,
//! parses the `,v` text, and keeps a small per-shard archive cache.
//! Stats are O(shards) running counters, byte-identical to
//! `MemRepository`'s accounting: both count `emit(&archive).len()`.

use crate::frame::{self, Frame};
use crate::wal::Wal;
use aide_rcs::archive::Archive;
use aide_rcs::format::{emit, parse};
use aide_rcs::repo::{RepoError, Repository, StorageStats};
use aide_util::checksum::fnv1a64;
use aide_util::sync::{lockrank, Condvar, Mutex};
use aide_util::vfs::{read_exact, Vfs, VfsError};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Number of storage shards (directories). Kept modest: each shard costs
/// a directory and an open segment chain.
pub const STORE_SHARDS: usize = 16;

/// Tuning knobs for [`DiskRepository`]. `Default` suits production-sized
/// archives; tests shrink the thresholds to exercise checkpoints and
/// compaction with small data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Checkpoint (relocate WAL records to segments, truncate the log)
    /// once the WAL exceeds this many bytes.
    pub checkpoint_wal_bytes: u64,
    /// Compact a shard once its dead segment bytes exceed this *and*
    /// make up at least half the shard's segment bytes.
    pub compact_min_dead_bytes: u64,
    /// Compact a shard regardless of dead ratio once it has more than
    /// this many segment files.
    pub max_segments: usize,
    /// Parsed-archive cache entries per shard (0 disables caching).
    pub cache_entries: usize,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            checkpoint_wal_bytes: 1 << 20,
            compact_min_dead_bytes: 256 << 10,
            max_segments: 8,
            cache_entries: 64,
        }
    }
}

/// Where a key's newest record currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// In the WAL (not yet checkpointed).
    Wal,
    /// In segment file `seg_<id>` of the key's shard.
    Seg(u32),
}

/// One live key's index entry.
#[derive(Debug, Clone)]
struct Entry {
    loc: Loc,
    /// Byte offset of the frame inside its file.
    off: u64,
    /// Total frame length in bytes.
    len: u32,
    /// Length of the archive's `,v` serialization — the accounted size,
    /// identical to `MemRepository`'s `emit().len()`.
    emit_len: u32,
    /// Revision count, recorded in the frame header so recovery can
    /// account stats without parsing archive bodies.
    revisions: u32,
    /// True if some segment still holds an older record for this key
    /// while the newest lives in the WAL — a remove must then write a
    /// tombstone at the next checkpoint.
    prior_seg: bool,
}

struct CacheSlot {
    tick: u64,
    archive: Arc<Archive>,
}

#[derive(Default)]
struct Shard {
    index: BTreeMap<String, Entry>,
    /// Running totals over live entries (O(shards) stats).
    bytes: u64,
    revisions: u64,
    /// Segment id → file length.
    seg_lens: BTreeMap<u32, u64>,
    /// Sum of frame lengths of live entries located in segments; the
    /// difference against `seg_lens` totals is the dead-byte count that
    /// triggers compaction.
    live_seg_bytes: u64,
    next_seg: u32,
    /// Keys removed since the last checkpoint whose records still exist
    /// in some segment: the next checkpoint must write tombstones.
    wal_tombstones: BTreeSet<String>,
    cache: BTreeMap<String, CacheSlot>,
    cache_tick: u64,
    /// Bumped whenever entry locations move (checkpoint, compaction) so
    /// lock-free readers can detect staleness and retry.
    version: u64,
}

struct MaintState {
    pending: bool,
    attached: bool,
    shutdown: bool,
}

/// The on-disk repository. See the module docs for the design.
pub struct DiskRepository {
    vfs: Arc<dyn Vfs>,
    root: String,
    opts: StoreOptions,
    wal: Wal,
    shards: Vec<Mutex<Shard>>,
    maint: Mutex<MaintState>,
    maint_cv: Condvar,
}

fn join_path(root: &str, name: &str) -> String {
    if root.is_empty() {
        name.to_string()
    } else {
        format!("{root}/{name}")
    }
}

fn shard_of(key: &str) -> usize {
    fnv1a64(key.as_bytes()) as usize % STORE_SHARDS
}

/// What a single record-read attempt reported.
enum ReadFail {
    Vfs(VfsError),
    Corrupt(String),
}

impl DiskRepository {
    /// Opens (creating or recovering) a repository under `root` inside
    /// `vfs`. Recovery replays segments then the WAL, truncating torn
    /// tails, and rebuilds every shard's index and running counters.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        root: &str,
        opts: StoreOptions,
    ) -> Result<DiskRepository, RepoError> {
        vfs.create_dir_all(root)?;
        let mut shards: Vec<Shard> = (0..STORE_SHARDS).map(|_| Shard::default()).collect();
        let mut frames_replayed = 0u64;
        let mut torn_frames = 0u64;
        let mut truncated_bytes = 0u64;

        // Pass 1: segments, ascending id per shard.
        for (si, shard) in shards.iter_mut().enumerate() {
            let dir = join_path(root, &format!("shard_{si:02}"));
            vfs.create_dir_all(&dir)?;
            let mut seg_ids: Vec<u32> = Vec::new();
            for name in vfs.list(&dir)? {
                if let Some(id) = name
                    .strip_prefix("seg_")
                    .and_then(|s| s.parse::<u32>().ok())
                {
                    seg_ids.push(id);
                }
            }
            seg_ids.sort_unstable();
            shard.next_seg = seg_ids.last().map(|&m| m + 1).unwrap_or(1);
            for id in seg_ids {
                let path = join_path(&dir, &format!("seg_{id:08}"));
                let buf = vfs.read(&path)?;
                let (frames, clean_len, err) = frame::scan(&buf);
                if err.is_some() && clean_len < buf.len() {
                    torn_frames += 1;
                    truncated_bytes += (buf.len() - clean_len) as u64;
                    vfs.truncate(&path, clean_len as u64)?;
                    vfs.sync(&path)?;
                }
                frames_replayed += frames.len() as u64;
                for (off, f) in frames {
                    Self::replay(shard, Loc::Seg(id), off, f);
                }
                shard.seg_lens.insert(id, clean_len as u64);
            }
        }

        // Pass 2: the WAL — newest records, replayed last.
        let wal_path = join_path(root, "wal");
        let wal_len = match vfs.len(&wal_path)? {
            None => 0u64,
            Some(_) => {
                let buf = vfs.read(&wal_path)?;
                let (frames, clean_len, err) = frame::scan(&buf);
                if err.is_some() && clean_len < buf.len() {
                    torn_frames += 1;
                    truncated_bytes += (buf.len() - clean_len) as u64;
                    vfs.truncate(&wal_path, clean_len as u64)?;
                    vfs.sync(&wal_path)?;
                }
                frames_replayed += frames.len() as u64;
                for (off, f) in frames {
                    let shard = &mut shards[shard_of(&f.key)];
                    Self::replay(shard, Loc::Wal, off, f);
                }
                clean_len as u64
            }
        };

        // Pass 3: running counters from the rebuilt indexes.
        for shard in shards.iter_mut() {
            for e in shard.index.values() {
                shard.bytes += e.emit_len as u64;
                shard.revisions += e.revisions as u64;
                if matches!(e.loc, Loc::Seg(_)) {
                    shard.live_seg_bytes += e.len as u64;
                }
            }
        }

        aide_obs::counter!("store.recovery", 1);
        aide_obs::counter!("store.recovery.frames", frames_replayed);
        aide_obs::counter!("store.recovery.torn_frames", torn_frames);
        aide_obs::counter!("store.recovery.truncated_bytes", truncated_bytes);

        Ok(DiskRepository {
            wal: Wal::new(vfs.clone(), wal_path, wal_len),
            vfs,
            root: root.to_string(),
            opts,
            shards: shards
                .into_iter()
                .map(|sh| Mutex::with_class(&lockrank::STORE, sh))
                .collect(),
            maint: Mutex::new(MaintState {
                pending: false,
                attached: false,
                shutdown: false,
            }),
            maint_cv: Condvar::new(),
        })
    }

    /// Opens a repository on the real filesystem at `dir` with default
    /// options.
    pub fn open_dir(dir: impl AsRef<std::path::Path>) -> Result<DiskRepository, RepoError> {
        let vfs = Arc::new(crate::vfs::RealVfs::new(dir));
        DiskRepository::open(vfs, "", StoreOptions::default())
    }

    /// Applies one recovered frame to a shard index (replay semantics:
    /// later frames win, tombstones erase).
    fn replay(shard: &mut Shard, loc: Loc, off: u64, f: Frame) {
        match f.op {
            frame::OP_STORE => {
                let (revisions, emit_len) = match frame::split_payload(&f.data) {
                    Ok((r, text)) => (r, text.len() as u32),
                    // CRC-valid but malformed payload: index it so the
                    // key surfaces as Corrupt at load, not silently gone.
                    Err(_) => (0, 0),
                };
                let prior_seg = match loc {
                    Loc::Seg(_) => false,
                    Loc::Wal => {
                        shard.wal_tombstones.remove(&f.key)
                            || shard
                                .index
                                .get(&f.key)
                                .map(|e| matches!(e.loc, Loc::Seg(_)) || e.prior_seg)
                                .unwrap_or(false)
                    }
                };
                shard.index.insert(
                    f.key,
                    Entry {
                        loc,
                        off,
                        len: f.len as u32,
                        emit_len,
                        revisions,
                        prior_seg,
                    },
                );
            }
            _ => {
                if let Some(old) = shard.index.remove(&f.key) {
                    if matches!(loc, Loc::Wal) && (matches!(old.loc, Loc::Seg(_)) || old.prior_seg)
                    {
                        shard.wal_tombstones.insert(f.key);
                    }
                }
            }
        }
    }

    fn shard_dir(&self, si: usize) -> String {
        join_path(&self.root, &format!("shard_{si:02}"))
    }

    fn seg_path(&self, si: usize, id: u32) -> String {
        join_path(&self.shard_dir(si), &format!("seg_{id:08}"))
    }

    fn wal_path(&self) -> String {
        join_path(&self.root, "wal")
    }

    fn cache_insert(opts: &StoreOptions, sh: &mut Shard, key: &str, archive: Arc<Archive>) {
        if opts.cache_entries == 0 {
            return;
        }
        sh.cache_tick += 1;
        let tick = sh.cache_tick;
        sh.cache
            .insert(key.to_string(), CacheSlot { tick, archive });
        while sh.cache.len() > opts.cache_entries {
            let oldest = sh
                .cache
                .iter()
                .min_by_key(|(_, slot)| slot.tick)
                .map(|(k, _)| k.clone());
            match oldest {
                Some(k) => {
                    sh.cache.remove(&k);
                }
                None => break,
            }
        }
    }

    /// Reads, verifies and parses one record. Failures distinguish VFS
    /// errors (possibly-stale locations) from true corruption.
    fn read_archive(&self, path: &str, off: u64, len: u32, key: &str) -> Result<Archive, ReadFail> {
        let buf = read_exact(self.vfs.as_ref(), path, off, len as usize).map_err(ReadFail::Vfs)?;
        let f = frame::decode(&buf)
            .map_err(|e| ReadFail::Corrupt(format!("frame at {path}+{off}: {e}")))?;
        if f.op != frame::OP_STORE || f.key != key {
            return Err(ReadFail::Corrupt(format!(
                "frame at {path}+{off} is not a store record for this key"
            )));
        }
        let (_revs, text) = frame::split_payload(&f.data)
            .map_err(|e| ReadFail::Corrupt(format!("payload at {path}+{off}: {e}")))?;
        parse(text).map_err(|e| ReadFail::Corrupt(format!("archive text: {e}")))
    }

    /// Relocates every WAL-resident record into fresh per-shard segment
    /// files, then truncates the WAL. Safe at any crash point: segments
    /// are synced before the truncate, and replay order (segments, then
    /// WAL, later-file-wins) makes the duplicated window idempotent.
    pub fn checkpoint(&self) -> Result<(), RepoError> {
        let pause = self.wal.pause_commits();
        if self.wal.is_empty() {
            return Ok(());
        }
        let mut moved_bytes = 0u64;
        let wal_path = self.wal_path();
        for si in 0..STORE_SHARDS {
            let mut sh = self.shards[si].lock();
            let wal_entries: Vec<(String, u64, u32)> = sh
                .index
                .iter()
                .filter(|(_, e)| matches!(e.loc, Loc::Wal))
                .map(|(k, e)| (k.clone(), e.off, e.len))
                .collect();
            if wal_entries.is_empty() && sh.wal_tombstones.is_empty() {
                continue;
            }
            let seg_id = sh.next_seg;
            let seg_path = self.seg_path(si, seg_id);
            let mut out: Vec<u8> = Vec::new();
            let mut relocated: Vec<(String, u64, u32)> = Vec::new();
            for (key, off, len) in wal_entries {
                let bytes = read_exact(self.vfs.as_ref(), &wal_path, off, len as usize)?;
                relocated.push((key, out.len() as u64, len));
                out.extend_from_slice(&bytes);
            }
            for key in sh.wal_tombstones.iter() {
                out.extend_from_slice(&frame::encode(frame::OP_REMOVE, key, &[]));
            }
            self.vfs.append(&seg_path, &out)?;
            lockrank::allow_blocking(
                "checkpoint must sync the new segment before repointing index \
                 entries at it, and the repoint must be atomic under the shard lock",
                || self.vfs.sync(&seg_path),
            )?;
            sh.next_seg += 1;
            sh.seg_lens.insert(seg_id, out.len() as u64);
            moved_bytes += out.len() as u64;
            for (key, off, len) in relocated {
                if let Some(e) = sh.index.get_mut(&key) {
                    e.loc = Loc::Seg(seg_id);
                    e.off = off;
                    e.prior_seg = false;
                    sh.live_seg_bytes += len as u64;
                }
            }
            sh.wal_tombstones.clear();
            sh.version += 1;
        }
        self.wal.reset(&pause)?;
        aide_obs::counter!("store.checkpoint", 1);
        aide_obs::counter!("store.checkpoint.bytes_moved", moved_bytes);
        Ok(())
    }

    fn needs_compaction(opts: &StoreOptions, sh: &Shard) -> bool {
        if sh.seg_lens.len() > opts.max_segments {
            return true;
        }
        let total: u64 = sh.seg_lens.values().sum();
        let dead = total.saturating_sub(sh.live_seg_bytes);
        dead >= opts.compact_min_dead_bytes && dead * 2 >= total
    }

    /// Rewrites shard `si`'s live segment records into one fresh segment
    /// and deletes the old segments oldest-first (the tombstone-safety
    /// order — see module docs).
    pub fn compact_shard(&self, si: usize) -> Result<(), RepoError> {
        let mut sh = self.shards[si].lock();
        let old_ids: Vec<u32> = sh.seg_lens.keys().copied().collect();
        if old_ids.is_empty() {
            return Ok(());
        }
        let old_total: u64 = sh.seg_lens.values().sum();
        let live: Vec<(String, u32, u64, u32)> = sh
            .index
            .iter()
            .filter_map(|(k, e)| match e.loc {
                Loc::Seg(id) => Some((k.clone(), id, e.off, e.len)),
                Loc::Wal => None,
            })
            .collect();
        let new_id = sh.next_seg;
        sh.next_seg += 1;
        let mut out: Vec<u8> = Vec::new();
        let mut relocated: Vec<(String, u64)> = Vec::new();
        for (key, seg, off, len) in &live {
            let bytes = read_exact(
                self.vfs.as_ref(),
                &self.seg_path(si, *seg),
                *off,
                *len as usize,
            )?;
            relocated.push((key.clone(), out.len() as u64));
            out.extend_from_slice(&bytes);
        }
        if !out.is_empty() {
            let new_path = self.seg_path(si, new_id);
            self.vfs.append(&new_path, &out)?;
            lockrank::allow_blocking(
                "compaction must sync the fresh segment before deleting the ones it \
                 replaces, and holds the shard lock so readers never see a half-moved index",
                || self.vfs.sync(&new_path),
            )?;
        }
        sh.seg_lens.clear();
        if !out.is_empty() {
            sh.seg_lens.insert(new_id, out.len() as u64);
        }
        sh.live_seg_bytes = out.len() as u64;
        for (key, off) in relocated {
            if let Some(e) = sh.index.get_mut(&key) {
                e.loc = Loc::Seg(new_id);
                e.off = off;
            }
        }
        sh.version += 1;
        // Oldest-first deletion: if we crash partway, every surviving
        // record's tombstone (always in a later file) also survives.
        for id in old_ids {
            self.vfs.remove(&self.seg_path(si, id))?;
        }
        // With the old segments gone, pending tombstones have nothing
        // left to mask.
        sh.wal_tombstones.clear();
        for e in sh.index.values_mut() {
            e.prior_seg = false;
        }
        aide_obs::counter!("store.compaction", 1);
        aide_obs::counter!(
            "store.compaction.reclaimed_bytes",
            old_total.saturating_sub(out.len() as u64),
        );
        Ok(())
    }

    /// Runs any due maintenance: a checkpoint if the WAL is over its
    /// threshold, then compaction of any shard over its dead-byte or
    /// segment-count threshold. Called inline after writes when no
    /// background compactor is attached, or by the compactor thread.
    pub fn maintenance(&self) -> Result<(), RepoError> {
        if self.wal.len() >= self.opts.checkpoint_wal_bytes {
            self.checkpoint()?;
        }
        for si in 0..STORE_SHARDS {
            let due = {
                let sh = self.shards[si].lock();
                Self::needs_compaction(&self.opts, &sh)
            };
            if due {
                self.compact_shard(si)?;
            }
        }
        Ok(())
    }

    /// Post-write trigger: hand maintenance to the background compactor
    /// if one is attached, else run it inline.
    fn after_write(&self, si: usize) -> Result<(), RepoError> {
        let need_ckpt = self.wal.len() >= self.opts.checkpoint_wal_bytes;
        let need_compact = {
            let sh = self.shards[si].lock();
            Self::needs_compaction(&self.opts, &sh)
        };
        if !need_ckpt && !need_compact {
            return Ok(());
        }
        {
            let mut m = self.maint.lock();
            if m.attached {
                m.pending = true;
                drop(m);
                self.maint_cv.notify_all();
                return Ok(());
            }
        }
        if need_ckpt {
            self.checkpoint()?;
        }
        if need_compact {
            self.compact_shard(si)?;
        }
        Ok(())
    }

    /// Total segment files across all shards (observability for tests
    /// and benches).
    pub fn segment_count(&self) -> usize {
        (0..STORE_SHARDS)
            .map(|si| {
                let sh = self.shards[si].lock();
                sh.seg_lens.len()
            })
            .sum()
    }

    /// Current WAL length in bytes.
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }
}

impl Repository for DiskRepository {
    fn load(&self, key: &str) -> Result<Option<Arc<Archive>>, RepoError> {
        let si = shard_of(key);
        let mut last_fail: Option<ReadFail> = None;
        for _attempt in 0..4 {
            let (ver, loc, off, len) = {
                let mut sh = self.shards[si].lock();
                let e = match sh.index.get(key) {
                    None => return Ok(None),
                    Some(e) => e.clone(),
                };
                sh.cache_tick += 1;
                let tick = sh.cache_tick;
                if let Some(slot) = sh.cache.get_mut(key) {
                    slot.tick = tick;
                    return Ok(Some(slot.archive.clone()));
                }
                (sh.version, e.loc, e.off, e.len)
            };
            let path = match loc {
                Loc::Wal => self.wal_path(),
                Loc::Seg(id) => self.seg_path(si, id),
            };
            match self.read_archive(&path, off, len, key) {
                Ok(archive) => {
                    let handle = Arc::new(archive);
                    let mut sh = self.shards[si].lock();
                    if sh.version == ver && sh.index.contains_key(key) {
                        Self::cache_insert(&self.opts, &mut sh, key, handle.clone());
                    }
                    return Ok(Some(handle));
                }
                Err(fail) => {
                    // A checkpoint or compaction may have moved the
                    // record mid-read; retry against the fresh location.
                    let moved = {
                        let sh = self.shards[si].lock();
                        sh.version != ver
                    };
                    if moved {
                        last_fail = Some(fail);
                        continue;
                    }
                    return match fail {
                        ReadFail::Vfs(e) => Err(RepoError::Storage(e)),
                        ReadFail::Corrupt(detail) => {
                            aide_obs::counter!("store.load.corrupt", 1);
                            Err(RepoError::corrupt(key, detail))
                        }
                    };
                }
            }
        }
        let detail = match last_fail {
            Some(ReadFail::Vfs(e)) => format!("record kept moving; last error: {e}"),
            Some(ReadFail::Corrupt(d)) => format!("record kept moving; last error: {d}"),
            None => "record kept moving".to_string(),
        };
        Err(RepoError::corrupt(key, detail))
    }

    fn store(&self, key: &str, archive: &Archive) -> Result<(), RepoError> {
        let emitted = emit(archive);
        let revisions = archive.len() as u32;
        let payload = frame::store_payload(revisions, &emitted);
        let buf = frame::encode(frame::OP_STORE, key, &payload);
        let flen = buf.len() as u32;
        let si = shard_of(key);
        {
            let permit = self.wal.begin_commit();
            let off = self.wal.commit(&permit, &buf)?;
            let mut sh = self.shards[si].lock();
            let mut prior_seg = sh.wal_tombstones.remove(key);
            if let Some(old) = sh.index.get(key).cloned() {
                sh.bytes -= old.emit_len as u64;
                sh.revisions -= old.revisions as u64;
                match old.loc {
                    Loc::Seg(_) => {
                        sh.live_seg_bytes -= old.len as u64;
                        prior_seg = true;
                    }
                    Loc::Wal => prior_seg = prior_seg || old.prior_seg,
                }
            }
            sh.bytes += emitted.len() as u64;
            sh.revisions += revisions as u64;
            sh.index.insert(
                key.to_string(),
                Entry {
                    loc: Loc::Wal,
                    off,
                    len: flen,
                    emit_len: emitted.len() as u32,
                    revisions,
                    prior_seg,
                },
            );
            Self::cache_insert(&self.opts, &mut sh, key, Arc::new(archive.clone()));
        }
        aide_obs::counter!("store.append", 1);
        aide_obs::counter!("store.append.bytes", flen as u64);
        self.after_write(si)
    }

    fn remove(&self, key: &str) -> Result<bool, RepoError> {
        let si = shard_of(key);
        {
            let sh = self.shards[si].lock();
            if !sh.index.contains_key(key) {
                return Ok(false);
            }
        }
        let buf = frame::encode(frame::OP_REMOVE, key, &[]);
        {
            let permit = self.wal.begin_commit();
            self.wal.commit(&permit, &buf)?;
            let mut sh = self.shards[si].lock();
            if let Some(old) = sh.index.remove(key) {
                sh.bytes -= old.emit_len as u64;
                sh.revisions -= old.revisions as u64;
                let had_seg = matches!(old.loc, Loc::Seg(_)) || old.prior_seg;
                if let Loc::Seg(_) = old.loc {
                    sh.live_seg_bytes -= old.len as u64;
                }
                if had_seg {
                    sh.wal_tombstones.insert(key.to_string());
                }
            }
            sh.cache.remove(key);
        }
        aide_obs::counter!("store.remove", 1);
        self.after_write(si)?;
        Ok(true)
    }

    fn keys(&self) -> Result<Vec<String>, RepoError> {
        let mut all: Vec<String> = Vec::new();
        for si in 0..STORE_SHARDS {
            let sh = self.shards[si].lock();
            all.extend(sh.index.keys().cloned());
        }
        all.sort();
        Ok(all)
    }

    fn stats(&self) -> Result<StorageStats, RepoError> {
        let mut s = StorageStats::default();
        for si in 0..STORE_SHARDS {
            let sh = self.shards[si].lock();
            s.archives += sh.index.len();
            s.revisions += sh.revisions as usize;
            s.bytes += sh.bytes as usize;
        }
        Ok(s)
    }

    fn sizes(&self) -> Result<Vec<(String, usize)>, RepoError> {
        let mut v: Vec<(String, usize)> = Vec::new();
        for si in 0..STORE_SHARDS {
            let sh = self.shards[si].lock();
            v.extend(
                sh.index
                    .iter()
                    .map(|(k, e)| (k.clone(), e.emit_len as usize)),
            );
        }
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Ok(v)
    }
}

impl std::fmt::Debug for DiskRepository {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskRepository")
            .field("root", &self.root)
            .field("wal_len", &self.wal.len())
            .finish()
    }
}

/// Owns the background compaction thread; dropping it shuts the thread
/// down (signaled via condvar — no wall-clock polling, so simulations
/// stay deterministic in their observables).
pub struct CompactorHandle {
    repo: Arc<DiskRepository>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Spawns the background maintenance thread for `repo`: write paths
/// signal it instead of checkpointing/compacting inline.
pub fn spawn_compactor(repo: &Arc<DiskRepository>) -> CompactorHandle {
    {
        let mut m = repo.maint.lock();
        m.attached = true;
        m.shutdown = false;
    }
    let r = Arc::clone(repo);
    let thread = std::thread::spawn(move || loop {
        {
            let guard = r.maint.lock();
            let mut guard = r.maint_cv.wait_while(guard, |m| !m.pending && !m.shutdown);
            if guard.shutdown {
                break;
            }
            guard.pending = false;
        }
        if r.maintenance().is_err() {
            aide_obs::counter!("store.maintenance.errors", 1);
        }
    });
    CompactorHandle {
        repo: Arc::clone(repo),
        thread: Some(thread),
    }
}

impl Drop for CompactorHandle {
    fn drop(&mut self) {
        {
            let mut m = self.repo.maint.lock();
            m.shutdown = true;
            m.attached = false;
        }
        self.maint_notify();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl CompactorHandle {
    fn maint_notify(&self) {
        self.repo.maint_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_util::time::Timestamp;
    use aide_util::vfs::MemVfs;

    fn tiny_opts() -> StoreOptions {
        StoreOptions {
            checkpoint_wal_bytes: 512,
            compact_min_dead_bytes: 256,
            max_segments: 3,
            cache_entries: 4,
        }
    }

    fn archive(text: &str) -> Archive {
        Archive::create("desc", text, "me", "init", Timestamp(100))
    }

    fn open_mem(vfs: &Arc<MemVfs>) -> DiskRepository {
        DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "store", tiny_opts()).unwrap()
    }

    #[test]
    fn store_load_remove_roundtrip() {
        let vfs = MemVfs::shared();
        let r = open_mem(&vfs);
        assert!(r.load("http://x/").unwrap().is_none());
        r.store("http://x/", &archive("body\n")).unwrap();
        assert_eq!(r.load("http://x/").unwrap().unwrap().head_text(), "body\n");
        assert!(r.remove("http://x/").unwrap());
        assert!(!r.remove("http://x/").unwrap());
        assert!(r.load("http://x/").unwrap().is_none());
    }

    #[test]
    fn reopen_recovers_everything() {
        let vfs = MemVfs::shared();
        {
            let r = open_mem(&vfs);
            for i in 0..30 {
                let mut a = archive(&format!("page {i}\nbody line\n"));
                a.checkin(&format!("page {i}\nedited\n"), "me", "edit", Timestamp(200))
                    .unwrap();
                r.store(&format!("http://h{}/p{i}", i % 5), &a).unwrap();
            }
            r.remove("http://h0/p0").unwrap();
        }
        let r2 = open_mem(&vfs);
        let stats = r2.stats().unwrap();
        assert_eq!(stats.archives, 29);
        assert_eq!(stats.revisions, 58);
        assert!(r2.load("http://h0/p0").unwrap().is_none());
        let a = r2.load("http://h1/p1").unwrap().unwrap();
        assert_eq!(a.head_text(), "page 1\nedited\n");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn checkpoint_moves_wal_to_segments_and_preserves_reads() {
        let vfs = MemVfs::shared();
        let r = open_mem(&vfs);
        for i in 0..10 {
            r.store(&format!("k{i}"), &archive(&format!("text {i}\n")))
                .unwrap();
        }
        // Tiny thresholds: the WAL has certainly been checkpointed at
        // least once along the way.
        assert!(r.segment_count() > 0);
        for i in 0..10 {
            let a = r.load(&format!("k{i}")).unwrap().unwrap();
            assert_eq!(a.head_text(), format!("text {i}\n"));
        }
        // Force one more and verify the WAL empties.
        r.checkpoint().unwrap();
        assert_eq!(r.wal_len(), 0);
        assert_eq!(r.stats().unwrap().archives, 10);
    }

    #[test]
    fn compaction_reclaims_dead_bytes_and_keeps_state() {
        let vfs = MemVfs::shared();
        let r = open_mem(&vfs);
        // Overwrite the same keys repeatedly: most segment bytes die.
        for round in 0..12 {
            for i in 0..4 {
                r.store(
                    &format!("k{i}"),
                    &archive(&format!("round {round} body {i}\npadding padding\n")),
                )
                .unwrap();
            }
        }
        r.checkpoint().unwrap();
        for si in 0..STORE_SHARDS {
            r.compact_shard(si).unwrap();
        }
        // After compaction every shard holds at most one segment.
        assert!(r.segment_count() <= STORE_SHARDS);
        for i in 0..4 {
            let a = r.load(&format!("k{i}")).unwrap().unwrap();
            assert_eq!(
                a.head_text(),
                format!("round 11 body {i}\npadding padding\n")
            );
        }
        // And a reopen agrees.
        let r2 = open_mem(&vfs);
        assert_eq!(r2.stats().unwrap(), r.stats().unwrap());
    }

    #[test]
    fn removed_keys_stay_removed_across_checkpoint_compact_reopen() {
        let vfs = MemVfs::shared();
        let r = open_mem(&vfs);
        r.store("victim", &archive("doomed\n")).unwrap();
        r.checkpoint().unwrap(); // record now in a segment
        r.remove("victim").unwrap(); // tombstone pending in WAL
        r.checkpoint().unwrap(); // tombstone now in a segment
        let r2 = open_mem(&vfs);
        assert!(r2.load("victim").unwrap().is_none(), "tombstone replayed");
        for si in 0..STORE_SHARDS {
            r2.compact_shard(si).unwrap();
        }
        let r3 = open_mem(&vfs);
        assert!(
            r3.load("victim").unwrap().is_none(),
            "compaction kept removal"
        );
        assert_eq!(r3.stats().unwrap().archives, 0);
    }

    #[test]
    fn stats_match_mem_repository_accounting() {
        use aide_rcs::repo::MemRepository;
        let vfs = MemVfs::shared();
        let disk = open_mem(&vfs);
        let mem = MemRepository::new();
        for i in 0..12 {
            let mut a = archive(&format!("content {i}\nwith lines\n"));
            if i % 2 == 0 {
                a.checkin(
                    &format!("content {i}\nrevised\n"),
                    "me",
                    "r",
                    Timestamp(300),
                )
                .unwrap();
            }
            disk.store(&format!("http://h/p{i}"), &a).unwrap();
            mem.store(&format!("http://h/p{i}"), &a).unwrap();
        }
        disk.remove("http://h/p3").unwrap();
        mem.remove("http://h/p3").unwrap();
        assert_eq!(disk.stats().unwrap(), mem.stats().unwrap());
        assert_eq!(disk.sizes().unwrap(), mem.sizes().unwrap());
        assert_eq!(disk.keys().unwrap(), mem.keys().unwrap());
    }

    #[test]
    fn background_compactor_keeps_up() {
        let vfs = MemVfs::shared();
        let r = Arc::new(open_mem(&vfs));
        let handle = spawn_compactor(&r);
        for round in 0..20 {
            for i in 0..6 {
                r.store(
                    &format!("k{i}"),
                    &archive(&format!("r{round} i{i}\nbody\n")),
                )
                .unwrap();
            }
        }
        drop(handle); // joins the thread; all signaled work done or dropped
                      // Whatever maintenance ran, the data is intact.
        for i in 0..6 {
            assert_eq!(
                r.load(&format!("k{i}")).unwrap().unwrap().head_text(),
                format!("r19 i{i}\nbody\n")
            );
        }
        let r2 = open_mem(&vfs);
        assert_eq!(r2.stats().unwrap(), r.stats().unwrap());
    }

    #[test]
    fn corrupt_segment_byte_surfaces_as_corrupt_error() {
        let vfs = MemVfs::shared();
        // Cache disabled so the load below actually reads the damaged
        // bytes instead of serving the archive stored moments ago.
        let opts = StoreOptions {
            cache_entries: 0,
            ..tiny_opts()
        };
        let r = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "store", opts).unwrap();
        r.store("k", &archive("body\n")).unwrap();
        r.checkpoint().unwrap();
        // Flip one byte inside the (only) segment record's payload.
        let mut seg_file = None;
        for si in 0..STORE_SHARDS {
            for name in vfs.list(&format!("store/shard_{si:02}")).unwrap() {
                seg_file = Some(format!("store/shard_{si:02}/{name}"));
            }
        }
        let path = seg_file.unwrap();
        let mut bytes = vfs.read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        vfs.remove(&path).unwrap();
        vfs.append(&path, &bytes).unwrap();
        match r.load("k") {
            Err(RepoError::Corrupt { key, .. }) => assert_eq!(key, "k"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The store itself keeps serving other keys.
        r.store("other", &archive("fine\n")).unwrap();
        assert!(r.load("other").unwrap().is_some());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn shard_lock_carries_the_store_class() {
        // `stats` takes only shard locks. Under a structure guard (rank
        // 30) the first one (store, rank 25) inverts the table; under the
        // url lock (rank 10) it is the documented order.
        let r = Arc::new(open_mem(&MemVfs::shared()));
        let r2 = Arc::clone(&r);
        let out = std::thread::spawn(move || {
            let index = Mutex::new(());
            let _g = index.lock();
            let _ = r2.stats();
        })
        .join();
        let payload = out.expect_err("a shard lock under a structure guard must abort");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("acquiring store lock"), "{msg}");
        let url = Mutex::with_class(&lockrank::URL, ());
        let _url = url.lock();
        r.store("http://x/", &archive("body\n")).unwrap();
        assert_eq!(r.stats().unwrap().archives, 1);
    }
}
