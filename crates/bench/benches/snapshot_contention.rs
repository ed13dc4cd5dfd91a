//! Criterion bench: snapshot-service lock contention (§4.2).
//!
//! The same fixed workload — remembers of distinct URLs, then cached
//! diff renderings of distinct URLs — executed by 1, 4 and 8 worker
//! threads against one shared service, in two configurations:
//!
//! - `serial`: every operation first takes one global mutex, emulating
//!   the pre-refactor repository-wide `Mutex<R>` choke point;
//! - `sharded`: the service as it stands — per-URL locks over sharded
//!   repository / cache / control maps, so distinct-URL operations share
//!   no exclusive lock.
//!
//! On a multi-core host the sharded rows scale with the worker count
//! while the serial rows flatline. On a single-core host neither can
//! speed up in wall-clock terms; the comparison then shows the sharded
//! path costing no more than the coarse lock it replaced.

use aide_htmldiff::Options as DiffOptions;
use aide_rcs::archive::RevId;
use aide_rcs::repo::MemRepository;
use aide_snapshot::service::{SnapshotService, UserId};
use aide_util::sync::Mutex;
use aide_util::time::{Clock, Timestamp};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const URLS: usize = 48;
const REVS: usize = 5;

fn fresh_service() -> SnapshotService<MemRepository> {
    SnapshotService::new(
        MemRepository::new(),
        Clock::starting_at(Timestamp(1_000_000)),
        1 << 20,
    )
}

fn url(u: usize) -> String {
    format!("http://bench/doc{u}.html")
}

fn body(u: usize, r: usize) -> String {
    format!(
        "<HTML><HEAD><TITLE>doc {u}</TITLE></HEAD><BODY><H1>Document {u}</H1>\
         <P>revision {r} paragraph one with some sentence text to diff against.\
         <P>revision {r} paragraph two, more filler prose for the check-in delta.\
         </BODY></HTML>"
    )
}

/// Runs `URLS * REVS` remembers against `service`, the URL space split
/// evenly across `threads` workers. With `global: Some(..)` every
/// operation first funnels through that one mutex — the pre-refactor
/// serial design; with `None`, only the service's own per-URL locks
/// apply.
fn run_remembers(
    service: &SnapshotService<MemRepository>,
    threads: usize,
    global: Option<&Mutex<()>>,
) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            let s = &service;
            scope.spawn(move || {
                let user = UserId::new(&format!("bench{t}@x"));
                let mut u = t;
                while u < URLS {
                    for r in 0..REVS {
                        let _serial = global.map(|m| m.lock());
                        s.remember(&user, &url(u), &body(u, r)).unwrap();
                    }
                    u += threads;
                }
            });
        }
    });
}

fn bench_remember_scaling(c: &mut Criterion) {
    let choke = Mutex::new(());
    for (label, global) in [("serial", Some(&choke)), ("sharded", None)] {
        let mut group = c.benchmark_group(format!("snapshot_remember_{label}"));
        group.throughput(Throughput::Elements((URLS * REVS) as u64));
        for threads in [1usize, 4, 8] {
            group.bench_with_input(
                BenchmarkId::from_parameter(threads),
                &threads,
                |b, &threads| {
                    b.iter(|| {
                        let service = fresh_service();
                        run_remembers(&service, threads, global);
                        black_box(service.snapshot_stats().remembers)
                    });
                },
            );
        }
        group.finish();
    }
}

fn bench_diff_cache_scaling(c: &mut Criterion) {
    // Seed two revisions of every URL; the first measured pass renders
    // each diff once, every later pass exercises the sharded cache's
    // concurrent read path.
    let service = fresh_service();
    let seeder = UserId::new("seed@x");
    for u in 0..URLS {
        for r in 0..2 {
            service.remember(&seeder, &url(u), &body(u, r)).unwrap();
        }
    }
    let mut group = c.benchmark_group("snapshot_diff_cached_distinct_urls");
    group.throughput(Throughput::Elements(URLS as u64));
    for threads in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for t in 0..threads {
                            let s = &service;
                            scope.spawn(move || {
                                let mut u = t;
                                while u < URLS {
                                    black_box(
                                        s.diff_versions(
                                            &url(u),
                                            RevId(1),
                                            RevId(2),
                                            &DiffOptions::default(),
                                        )
                                        .unwrap()
                                        .html
                                        .len(),
                                    );
                                    u += threads;
                                }
                            });
                        }
                    });
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_remember_scaling, bench_diff_cache_scaling);
criterion_main!(benches);
