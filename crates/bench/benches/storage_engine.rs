//! Criterion bench: repository backends head to head.
//!
//! Check-in (store), checkout (load, cached and cold), and recovery
//! (opening a populated store) for the in-memory reference repository
//! vs the persistent `aide-store` engine. The disk engine runs over an
//! in-memory VFS so the numbers measure the engine — WAL framing, group
//! commit, segment checkpointing, index rebuild — rather than the host
//! filesystem.

use aide_rcs::archive::Archive;
use aide_rcs::repo::{MemRepository, Repository};
use aide_store::{DiskRepository, StoreOptions};
use aide_util::rng::Rng;
use aide_util::time::Timestamp;
use aide_util::vfs::{MemVfs, Vfs};
use aide_workloads::edits::EditModel;
use aide_workloads::page::Page;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

/// A 10 KB page archive with `revisions` small-edit revisions.
fn build_archive(seed: u64, revisions: usize) -> Archive {
    let mut rng = Rng::new(seed);
    let mut page = Page::generate(&mut rng, 10 * 1024);
    let mut archive = Archive::create("bench", &page.render(), "u", "init", Timestamp(0));
    for step in 1..revisions {
        EditModel::InPlaceEdit { sentences: 2 }.apply(&mut page, &mut rng, step as u64);
        archive
            .checkin(&page.render(), "u", "edit", Timestamp(step as u64 * 100))
            .unwrap();
    }
    archive
}

fn mem_vfs_repo(opts: StoreOptions) -> DiskRepository {
    DiskRepository::open(MemVfs::shared() as Arc<dyn Vfs>, "bench", opts).unwrap()
}

/// Stores `n` distinct archives under `url:{i}` keys.
fn populate<R: Repository>(repo: &R, n: usize) {
    for i in 0..n {
        let archive = build_archive(i as u64, 3);
        repo.store(&format!("http://bench/page{i}.html"), &archive)
            .unwrap();
    }
}

fn bench_store(c: &mut Criterion) {
    let archive = build_archive(7, 3);
    let mut group = c.benchmark_group("store_10kb_3rev");

    let mem = MemRepository::new();
    group.bench_function("mem", |b| {
        b.iter(|| mem.store(black_box("http://bench/key"), &archive).unwrap());
    });

    // Repeated stores of one key keep the live set bounded; dead bytes
    // accumulate in the WAL and are reclaimed by checkpoint+compaction,
    // so the steady-state cost includes the engine's amortized
    // maintenance, exactly as a deployment would see it.
    let disk = mem_vfs_repo(StoreOptions::default());
    group.bench_function("disk", |b| {
        b.iter(|| disk.store(black_box("http://bench/key"), &archive).unwrap());
    });
    group.finish();
}

fn bench_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("load_10kb_3rev");

    let mem = MemRepository::new();
    populate(&mem, 8);
    group.bench_function("mem", |b| {
        b.iter(|| black_box(mem.load("http://bench/page3.html").unwrap()));
    });

    // Warm path: the per-shard archive cache absorbs the read.
    let disk = mem_vfs_repo(StoreOptions::default());
    populate(&disk, 8);
    group.bench_function("disk_cached", |b| {
        b.iter(|| black_box(disk.load("http://bench/page3.html").unwrap()));
    });

    // Cold path: cache disabled, every load reads, CRC-checks, and
    // parses the `,v` text from the store.
    let cold = mem_vfs_repo(StoreOptions {
        cache_entries: 0,
        ..StoreOptions::default()
    });
    populate(&cold, 8);
    group.bench_function("disk_cold", |b| {
        b.iter(|| black_box(cold.load("http://bench/page3.html").unwrap()));
    });
    group.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery_open");
    for keys in [64usize, 256] {
        // All records in the WAL: recovery replays every frame.
        let wal_vfs: Arc<dyn Vfs> = MemVfs::shared();
        let repo = DiskRepository::open(
            wal_vfs.clone(),
            "bench",
            StoreOptions {
                checkpoint_wal_bytes: u64::MAX >> 1,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        populate(&repo, keys);
        drop(repo);
        group.bench_with_input(BenchmarkId::new("wal", keys), &wal_vfs, |b, vfs| {
            b.iter(|| {
                black_box(
                    DiskRepository::open(vfs.clone(), "bench", StoreOptions::default()).unwrap(),
                )
            });
        });

        // Checkpointed: the same records live in segments, the WAL is
        // empty; recovery is a segment scan plus index rebuild.
        let seg_vfs: Arc<dyn Vfs> = MemVfs::shared();
        let repo = DiskRepository::open(seg_vfs.clone(), "bench", StoreOptions::default()).unwrap();
        populate(&repo, keys);
        repo.maintenance().unwrap();
        drop(repo);
        group.bench_with_input(BenchmarkId::new("segments", keys), &seg_vfs, |b, vfs| {
            b.iter(|| {
                black_box(
                    DiskRepository::open(vfs.clone(), "bench", StoreOptions::default()).unwrap(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_store, bench_load, bench_recovery);
criterion_main!(benches);
