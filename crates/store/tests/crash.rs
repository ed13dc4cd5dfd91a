//! Crash-recovery suite: kill the store at **every** durability point.
//!
//! A fixed workload runs over [`FaultVfs`]; an honest pass counts the
//! durability ops (appends, truncates, removes, fsyncs) it performs —
//! WAL commits, checkpoints, compactions, all of it. Then, for every
//! op index `i`, the workload reruns on a fresh filesystem scripted to
//! die at op `i` (once plainly, once with the dying append torn), the
//! "machine" power-cycles via `crash_and_revive`, the store reopens,
//! and the recovered observables must equal the model state after
//! applying either all acknowledged operations or at most one more —
//! the op whose WAL frame became durable before its trigger work died.
//! That is the prefix-consistency invariant of DESIGN.md §4i: no torn
//! record ever surfaces, no acknowledged write is ever lost, no removed
//! key is ever resurrected.
//!
//! Two companion properties run the softer fault models: short reads
//! must be invisible (read loops), and a lying disk (`fsync_loss`) may
//! lose writes but recovery must still produce an internally consistent
//! store that serves every indexed key.
//!
//! Setting `AIDE_STORE_DUMP=<path>` writes one line per kill point
//! (matched model index + state hash); ci.sh runs the suite twice and
//! `cmp`s the dumps to pin recovery determinism.

use aide_rcs::archive::Archive;
use aide_rcs::format::emit;
use aide_rcs::repo::Repository;
use aide_store::{DiskRepository, StoreOptions, STORE_SHARDS};
use aide_util::checksum::fnv1a64;
use aide_util::time::Timestamp;
use aide_util::vfs::{FaultScript, FaultVfs, Vfs};
use std::collections::BTreeMap;
use std::sync::Arc;

const SEED: u64 = 0xA1DE_570E;

fn tiny_opts() -> StoreOptions {
    StoreOptions {
        checkpoint_wal_bytes: 500,
        compact_min_dead_bytes: 250,
        max_segments: 2,
        cache_entries: 2,
    }
}

/// One step of the fixed workload.
#[derive(Debug, Clone, Copy)]
enum WorkOp {
    Store(u8, u8),
    Remove(u8),
    Checkpoint,
    CompactAll,
}

/// The deterministic workload: enough stores to force checkpoints at
/// the tiny thresholds, overwrites to create dead segment bytes,
/// removes (including of segment-resident keys) to exercise tombstones,
/// and explicit maintenance so kill points land inside checkpoint and
/// compaction too.
fn workload() -> Vec<WorkOp> {
    use WorkOp::*;
    vec![
        Store(0, 1),
        Store(1, 2),
        Store(2, 3),
        Store(3, 4),
        Checkpoint,
        Store(0, 5), // overwrite a segment-resident key
        Store(4, 6),
        Remove(1), // tombstone for a segment-resident key
        Store(5, 7),
        Store(2, 8),
        Checkpoint,
        CompactAll,
        Store(6, 9),
        Remove(0),
        Store(1, 10), // re-store a removed key
        Store(7, 11),
        Checkpoint,
        Store(3, 12),
        Remove(5),
        CompactAll,
        Store(0, 13),
    ]
}

fn key_for(k: u8) -> String {
    format!("http://site{}/doc/{}", k % 2, k)
}

fn archive_for(k: u8, seed: u8) -> Archive {
    let mut a = Archive::create(
        "tracked page",
        &format!("doc {k}\nversion seed {seed}\npadding so frames have some size\n"),
        "w3newer",
        "initial",
        Timestamp(500 + seed as u64),
    );
    if seed.is_multiple_of(2) {
        a.checkin(
            &format!("doc {k}\nversion seed {seed}\nedited body\n"),
            "w3newer",
            "update",
            Timestamp(900 + seed as u64),
        )
        .unwrap();
    }
    a
}

/// Model states: `snap[i]` is the key→`,v` map after the first `i` ops.
fn model_snapshots(ops: &[WorkOp]) -> Vec<BTreeMap<String, String>> {
    let mut snaps = vec![BTreeMap::new()];
    let mut cur: BTreeMap<String, String> = BTreeMap::new();
    for op in ops {
        match *op {
            WorkOp::Store(k, seed) => {
                cur.insert(key_for(k), emit(&archive_for(k, seed)));
            }
            WorkOp::Remove(k) => {
                cur.remove(&key_for(k));
            }
            WorkOp::Checkpoint | WorkOp::CompactAll => {}
        }
        snaps.push(cur.clone());
    }
    snaps
}

/// Applies the workload until the first error, returning how many ops
/// were fully acknowledged.
fn run_until_failure(repo: &DiskRepository, ops: &[WorkOp]) -> usize {
    for (i, op) in ops.iter().enumerate() {
        let result = match *op {
            WorkOp::Store(k, seed) => repo.store(&key_for(k), &archive_for(k, seed)).map(|_| ()),
            WorkOp::Remove(k) => repo.remove(&key_for(k)).map(|_| ()),
            WorkOp::Checkpoint => repo.checkpoint(),
            WorkOp::CompactAll => (0..STORE_SHARDS).try_for_each(|si| repo.compact_shard(si)),
        };
        if result.is_err() {
            return i;
        }
    }
    ops.len()
}

/// Reads the full observable state of a (recovered) repository and
/// checks its internal consistency: counters must match a recomputation
/// from the loaded archives.
fn recovered_state(repo: &DiskRepository) -> BTreeMap<String, String> {
    let keys = repo.keys().unwrap();
    let mut map = BTreeMap::new();
    for k in &keys {
        let a = repo
            .load(k)
            .unwrap()
            .expect("recovered index entry must load");
        map.insert(k.clone(), emit(&a));
    }
    let stats = repo.stats().unwrap();
    assert_eq!(stats.archives, map.len(), "archive count vs index");
    let bytes: usize = map.values().map(|t| t.len()).sum();
    assert_eq!(stats.bytes, bytes, "running byte counter vs emitted text");
    let sizes = repo.sizes().unwrap();
    assert_eq!(sizes.len(), map.len());
    for (k, sz) in &sizes {
        assert_eq!(*sz, map[k].len(), "size entry for {k}");
    }
    map
}

fn state_hash(map: &BTreeMap<String, String>) -> u64 {
    let mut blob = Vec::new();
    for (k, v) in map {
        blob.extend_from_slice(k.as_bytes());
        blob.push(0);
        blob.extend_from_slice(v.as_bytes());
        blob.push(0);
    }
    fnv1a64(&blob)
}

/// Counts the durability ops the full workload performs when nothing
/// fails — the kill-point enumeration space.
fn count_durability_ops() -> u64 {
    let vfs = FaultVfs::shared(FaultScript::honest(SEED));
    let repo = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "st", tiny_opts()).unwrap();
    let ops = workload();
    assert_eq!(
        run_until_failure(&repo, &ops),
        ops.len(),
        "honest run must succeed"
    );
    vfs.durability_ops()
}

#[test]
fn recovery_is_prefix_consistent_at_every_kill_point() {
    let ops = workload();
    let snaps = model_snapshots(&ops);
    let total = count_durability_ops();
    assert!(
        total > 40,
        "workload too small to be interesting: {total} ops"
    );

    let mut dump = String::new();
    for torn in [false, true] {
        for kill in 0..total {
            let script = if torn {
                FaultScript::honest(SEED).crash_after(kill).torn()
            } else {
                FaultScript::honest(SEED).crash_after(kill)
            };
            let vfs = FaultVfs::shared(script);
            let acked = {
                let repo =
                    DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "st", tiny_opts()).unwrap();
                run_until_failure(&repo, &ops)
            };
            assert!(acked < ops.len(), "kill point {kill} never fired");

            vfs.crash_and_revive();
            let repo =
                DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "st", tiny_opts()).unwrap();
            let state = recovered_state(&repo);

            // Prefix consistency: every acknowledged op survived, and at
            // most the single in-flight op may additionally have become
            // durable before its maintenance work died.
            let matched = if state == snaps[acked] {
                acked
            } else if state == snaps[acked + 1] {
                acked + 1
            } else {
                panic!(
                    "kill={kill} torn={torn}: recovered state matches neither \
                     model[{acked}] nor model[{}]\nrecovered: {:?}\nexpected: {:?}",
                    acked + 1,
                    state.keys().collect::<Vec<_>>(),
                    snaps[acked].keys().collect::<Vec<_>>(),
                );
            };
            dump.push_str(&format!(
                "kill={kill} torn={torn} acked={acked} matched={matched} hash={:016x}\n",
                state_hash(&state)
            ));
        }
    }

    if let Ok(path) = std::env::var("AIDE_STORE_DUMP") {
        if !path.is_empty() {
            std::fs::write(&path, &dump).expect("write AIDE_STORE_DUMP");
        }
    }
}

#[test]
fn short_reads_are_invisible_to_loads() {
    let vfs = FaultVfs::shared(FaultScript::honest(SEED ^ 1).short_reads(0.45));
    let repo = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "st", tiny_opts()).unwrap();
    let ops = workload();
    assert_eq!(run_until_failure(&repo, &ops), ops.len());
    let snaps = model_snapshots(&ops);
    let state = recovered_state(&repo);
    assert_eq!(&state, snaps.last().unwrap(), "short reads changed results");
    assert!(
        vfs.stats().short_reads > 0,
        "the script never actually injected a short read"
    );
}

#[test]
fn lying_fsync_still_recovers_to_a_consistent_store() {
    let vfs = FaultVfs::shared(FaultScript::honest(SEED ^ 2).fsync_loss(0.5));
    let ops = workload();
    {
        let repo = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "st", tiny_opts()).unwrap();
        assert_eq!(run_until_failure(&repo, &ops), ops.len());
    }
    assert!(vfs.stats().lost_syncs > 0, "no sync was ever lost");
    vfs.crash_and_revive();
    // A disk that acknowledges fsyncs it did not perform CAN lose
    // acknowledged writes — no storage engine can prevent that. What
    // recovery must still guarantee: the store opens, every indexed key
    // loads, and the counters agree with the data (recovered_state
    // asserts all of this internally).
    let repo = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "st", tiny_opts()).unwrap();
    let _ = recovered_state(&repo);
}

/// One step of the check-in workload.
#[derive(Debug, Clone, Copy)]
enum MixOp {
    /// A new one-revision archive, stored whole.
    Create(u8),
    /// Load, clone, check in, `store_checkin`: one check-in frame.
    Checkin(u8),
    /// A two-revision archive stored whole over whatever the key held.
    Store(u8),
    Remove(u8),
    Checkpoint,
    CompactAll,
}

/// Check-in frames on WAL-resident and segment-resident records, full
/// stores over keys with pending frames, a remove and re-create of key
/// 1 (and later key 0) between two WAL truncations with check-ins after
/// it, and checkpoints and compactions between them, explicit and
/// triggered by the thresholds.
fn mix_workload() -> Vec<MixOp> {
    use MixOp::*;
    vec![
        Create(0),
        Create(1),
        Create(2),
        Checkin(0),
        Checkin(0),
        Checkin(1),
        Checkpoint,
        Checkin(0), // frames on a segment-resident record
        Checkin(2),
        Remove(1),
        Create(1), // re-created before the WAL is truncated
        Checkin(1),
        Checkin(1),
        Store(2), // a whole archive over a key with a pending frame
        Checkin(2),
        Checkpoint,
        CompactAll,
        Checkin(0),
        Checkin(1),
        Remove(0),
        Create(0),
        Checkin(0),
        Checkin(0),
        Checkpoint,
        Checkin(2),
        Checkin(1),
        CompactAll,
        Checkin(2),
        Checkin(0),
    ]
}

fn mix_opts() -> StoreOptions {
    StoreOptions {
        checkpoint_wal_bytes: 2_000,
        compact_min_dead_bytes: 250,
        max_segments: 2,
        cache_entries: 2,
    }
}

fn mix_text(k: u8, step: usize) -> String {
    format!("doc {k}\nstep {step}\nshared body line\nrevised at step {step} @ site\n")
}

/// Applies op `step` of the workload to `archives`; returns the archive
/// a Create, Checkin or Store leaves under its key.
fn mix_apply(archives: &mut BTreeMap<u8, Archive>, step: usize, op: MixOp) {
    let date = Timestamp(10_000 + step as u64 * 60);
    match op {
        MixOp::Create(k) => {
            let a = Archive::create(
                "tracked page",
                &mix_text(k, step),
                "w3newer",
                "initial",
                date,
            );
            archives.insert(k, a);
        }
        MixOp::Checkin(k) => {
            let a = archives.get_mut(&k).expect("check-in of a live key");
            assert!(a
                .checkin(&mix_text(k, step), "w3newer@att", "update @", date)
                .unwrap()
                .is_new());
        }
        MixOp::Store(k) => {
            let mut a = Archive::create("replaced", &mix_text(k, step), "u", "whole", date);
            a.checkin(&mix_text(k, step + 1000), "u", "whole", date)
                .unwrap();
            archives.insert(k, a);
        }
        MixOp::Remove(k) => {
            archives.remove(&k);
        }
        MixOp::Checkpoint | MixOp::CompactAll => {}
    }
}

/// Model states: `snap[i]` is the key→`,v` map after the first `i` ops.
fn mix_models(ops: &[MixOp]) -> Vec<BTreeMap<String, String>> {
    let mut archives = BTreeMap::new();
    let render = |archives: &BTreeMap<u8, Archive>| {
        archives
            .iter()
            .map(|(k, a)| (key_for(*k), emit(a)))
            .collect::<BTreeMap<_, _>>()
    };
    let mut snaps = vec![render(&archives)];
    for (step, op) in ops.iter().enumerate() {
        mix_apply(&mut archives, step, *op);
        snaps.push(render(&archives));
    }
    snaps
}

/// Runs the check-in workload until the first error; returns how many
/// ops were acknowledged. Check-ins go the way a Remember goes: load,
/// check in on a clone, `store_checkin`.
fn run_mix_until_failure(repo: &DiskRepository, ops: &[MixOp]) -> usize {
    for (step, op) in ops.iter().enumerate() {
        let result = match *op {
            MixOp::Create(k) | MixOp::Store(k) => {
                let mut one = BTreeMap::new();
                mix_apply(&mut one, step, *op);
                repo.store(&key_for(k), &one[&k])
            }
            MixOp::Checkin(k) => {
                let base = repo.load(&key_for(k)).unwrap().expect("live key loads");
                let mut one = BTreeMap::from([(k, (*base).clone())]);
                mix_apply(&mut one, step, *op);
                let archive = Arc::new(one.remove(&k).unwrap());
                repo.store_checkin(&key_for(k), &base, archive)
            }
            MixOp::Remove(k) => repo.remove(&key_for(k)).map(|_| ()),
            MixOp::Checkpoint => repo.checkpoint(),
            MixOp::CompactAll => (0..STORE_SHARDS).try_for_each(|si| repo.compact_shard(si)),
        };
        if result.is_err() {
            return step;
        }
    }
    ops.len()
}

/// True if the durable files show a checkpoint cut between a segment
/// sync and the WAL truncate, in the way that matters to check-ins:
/// replaying the segments, then the WAL, meets a check-in frame whose
/// revision the key already holds.
fn in_fold_window(vfs: &FaultVfs) -> bool {
    use aide_store::frame;
    let Ok(wal) = vfs.read("st/wal") else {
        return false;
    };
    let mut files: Vec<Vec<u8>> = Vec::new();
    for si in 0..STORE_SHARDS {
        let dir = format!("st/shard_{si:02}");
        let mut names = vfs.list(&dir).unwrap();
        names.sort();
        files.extend(
            names
                .iter()
                .map(|n| vfs.read(&format!("{dir}/{n}")).unwrap()),
        );
    }
    files.push(wal);
    // Key → revisions held, as replay sees it.
    let mut revisions: BTreeMap<String, u32> = BTreeMap::new();
    for file in &files {
        for (_, f) in frame::scan(file).0 {
            match f.op {
                frame::OP_STORE => {
                    let held = frame::split_payload(&f.data).map_or(0, |(r, _)| r);
                    revisions.insert(f.key, held);
                }
                frame::OP_REMOVE => {
                    revisions.remove(&f.key);
                }
                _ => {
                    let id = frame::split_checkin(&f.data).unwrap().meta.id.0;
                    if let Some(held) = revisions.get_mut(&f.key) {
                        if id <= *held {
                            return true;
                        }
                        *held = id;
                    }
                }
            }
        }
    }
    false
}

#[test]
fn checkin_frames_recover_prefix_consistently_at_every_kill_point() {
    let ops = mix_workload();
    let snaps = mix_models(&ops);
    let total = {
        let vfs = FaultVfs::shared(FaultScript::honest(SEED));
        let repo = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "st", mix_opts()).unwrap();
        assert_eq!(run_mix_until_failure(&repo, &ops), ops.len());
        assert_eq!(recovered_state(&repo), snaps[ops.len()], "honest run");
        let (wal, _, _) = aide_store::frame::scan(&vfs.read("st/wal").unwrap());
        assert!(
            wal.iter()
                .any(|(_, f)| f.op == aide_store::frame::OP_CHECKIN),
            "check-ins were stored whole, not logged as check-in frames"
        );
        vfs.durability_ops()
    };
    assert!(total > 40, "workload too small: {total} ops");

    let mut fold_windows = 0;
    for torn in [false, true] {
        for kill in 0..total {
            let script = FaultScript::honest(SEED).crash_after(kill);
            let vfs = FaultVfs::shared(if torn { script.torn() } else { script });
            let acked = {
                let repo =
                    DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "st", mix_opts()).unwrap();
                run_mix_until_failure(&repo, &ops)
            };
            assert!(acked < ops.len(), "kill point {kill} never fired");
            vfs.crash_and_revive();
            fold_windows += usize::from(in_fold_window(&vfs));
            let state = {
                let repo =
                    DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "st", mix_opts()).unwrap();
                recovered_state(&repo)
            };
            assert!(
                state == snaps[acked] || state == snaps[acked + 1],
                "kill={kill} torn={torn}: recovered state matches neither model[{acked}] \
                 nor model[{}]",
                acked + 1
            );
            // A second recovery finds the same state.
            let again =
                DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "st", mix_opts()).unwrap();
            assert_eq!(
                recovered_state(&again),
                state,
                "kill={kill} torn={torn}: reopen"
            );
        }
    }
    assert!(
        fold_windows > 0,
        "no kill point fell between a checkpoint's segment sync and its WAL truncate"
    );
}
