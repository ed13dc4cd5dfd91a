//! Criterion bench: revision-store operations.
//!
//! Check-in cost, checkout at 0 to 199 deltas from the head of a
//! 200-revision archive (the reverse-delta chain), and `,v` emit/parse
//! round trips.

use aide_rcs::archive::{Archive, RevId};
use aide_rcs::format::{emit, parse};
use aide_util::rng::Rng;
use aide_util::time::Timestamp;
use aide_workloads::edits::EditModel;
use aide_workloads::page::Page;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn build_archive(revisions: usize) -> Archive {
    let mut rng = Rng::new(3);
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

fn bench_checkin(c: &mut Criterion) {
    let mut rng = Rng::new(5);
    let mut page = Page::generate(&mut rng, 10 * 1024);
    let base = page.render();
    EditModel::InPlaceEdit { sentences: 2 }.apply(&mut page, &mut rng, 1);
    let edited = page.render();
    c.bench_function("checkin_10kb_small_edit", |b| {
        b.iter(|| {
            let mut a = Archive::create("bench", &base, "u", "init", Timestamp(0));
            a.checkin(black_box(&edited), "u", "edit", Timestamp(100))
                .unwrap();
            black_box(a)
        });
    });
}

fn bench_checkout(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkout_by_depth");
    let archive = build_archive(200);
    // Parameter: deltas applied, i.e. distance from the head.
    for depth in [0u32, 1, 10, 50, 199] {
        let rev = RevId(200 - depth);
        group.bench_with_input(BenchmarkId::from_parameter(depth), &rev, |b, &rev| {
            b.iter(|| black_box(archive.checkout(rev).unwrap()));
        });
    }
    group.finish();
}

fn bench_format(c: &mut Criterion) {
    let archive = build_archive(50);
    let text = emit(&archive);
    let mut group = c.benchmark_group("rcs_format_50_revs");
    group.bench_function("emit", |b| {
        b.iter(|| black_box(emit(&archive)));
    });
    group.bench_function("parse", |b| {
        b.iter(|| black_box(parse(&text).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_checkin, bench_checkout, bench_format);
criterion_main!(benches);
