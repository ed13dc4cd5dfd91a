//! Criterion bench: the comparison algorithms.
//!
//! Myers vs the LCS dynamic program vs Hirschberg's linear-space LCS, on
//! similar and dissimilar inputs across sizes — quantifying the
//! trade-offs §5.1's algorithm choice rests on.

use aide_diffcore::lcs::{weighted_lcs_dp, weighted_lcs_hirschberg};
use aide_diffcore::myers::myers_diff;
use aide_util::rng::Rng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn sequences(n: usize, edit_fraction: f64) -> (Vec<u32>, Vec<u32>) {
    let mut rng = Rng::new(42);
    let a: Vec<u32> = (0..n).map(|_| rng.below(50) as u32).collect();
    let mut b = a.clone();
    let edits = ((n as f64) * edit_fraction) as usize;
    for _ in 0..edits {
        let i = rng.index(b.len());
        b[i] = 1000 + rng.below(50) as u32;
    }
    (a, b)
}

fn bench_similar(c: &mut Criterion) {
    let mut group = c.benchmark_group("similar_inputs_5pct_edits");
    for n in [100usize, 400, 1000] {
        let (a, b) = sequences(n, 0.05);
        group.bench_with_input(BenchmarkId::new("myers", n), &n, |bench, _| {
            bench.iter(|| black_box(myers_diff(&a, &b)));
        });
        group.bench_with_input(BenchmarkId::new("lcs_dp", n), &n, |bench, _| {
            bench.iter(|| {
                black_box(weighted_lcs_dp(a.len(), b.len(), &|i, j| {
                    u64::from(a[i] == b[j])
                }))
            });
        });
        group.bench_with_input(BenchmarkId::new("hirschberg", n), &n, |bench, _| {
            bench.iter(|| {
                black_box(weighted_lcs_hirschberg(a.len(), b.len(), &|i, j| {
                    u64::from(a[i] == b[j])
                }))
            });
        });
    }
    group.finish();
}

fn bench_dissimilar(c: &mut Criterion) {
    let mut group = c.benchmark_group("dissimilar_inputs_50pct_edits");
    for n in [100usize, 400] {
        let (a, b) = sequences(n, 0.5);
        group.bench_with_input(BenchmarkId::new("myers", n), &n, |bench, _| {
            bench.iter(|| black_box(myers_diff(&a, &b)));
        });
        group.bench_with_input(BenchmarkId::new("hirschberg", n), &n, |bench, _| {
            bench.iter(|| {
                black_box(weighted_lcs_hirschberg(a.len(), b.len(), &|i, j| {
                    u64::from(a[i] == b[j])
                }))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_similar, bench_dissimilar);
criterion_main!(benches);
