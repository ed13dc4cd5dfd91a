//! Criterion bench: HtmlDiff end to end.
//!
//! Tokenize + compare + render across document sizes and change rates,
//! plus each stage alone on the cold-dig page shape —
//! the server-side cost §4.2 worries about ("the need to execute
//! HtmlDiff on the server can result in high processor loads").

use aide_htmldiff::{html_diff, tokenize, Options};
use aide_workloads::edits::EditModel;
use aide_workloads::page::Page;
use aide_workloads::rng::Rng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn pair(bytes: usize, model: EditModel) -> (String, String) {
    let mut rng = Rng::new(7);
    let mut page = Page::generate(&mut rng, bytes);
    let old = page.render();
    model.apply(&mut page, &mut rng, 1);
    (old, page.render())
}

fn bench_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("htmldiff_by_size_small_edit");
    for kb in [2usize, 8, 32] {
        let (old, new) = pair(kb * 1024, EditModel::InPlaceEdit { sentences: 2 });
        group.throughput(Throughput::Bytes((old.len() + new.len()) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(kb), &kb, |b, _| {
            b.iter(|| black_box(html_diff(&old, &new, &Options::default())));
        });
    }
    group.finish();
}

fn bench_change_rates(c: &mut Criterion) {
    let mut group = c.benchmark_group("htmldiff_8kb_by_edit_model");
    for (name, model) in [
        ("append", EditModel::AppendNews),
        ("inplace", EditModel::InPlaceEdit { sentences: 3 }),
        ("reformat", EditModel::Reformat),
        ("replace", EditModel::FullReplace),
    ] {
        let (old, new) = pair(8 * 1024, model);
        group.bench_function(name, |b| {
            b.iter(|| black_box(html_diff(&old, &new, &Options::default())));
        });
    }
    group.finish();
}

fn bench_tokenize(c: &mut Criterion) {
    let mut rng = Rng::new(9);
    let html = Page::generate(&mut rng, 32 * 1024).render();
    let (page, _) = pair(8 * 1024, EditModel::InPlaceEdit { sentences: 2 });
    let mut group = c.benchmark_group("tokenize");
    group.throughput(Throughput::Bytes(html.len() as u64));
    group.bench_function("32kb", |b| {
        b.iter(|| black_box(tokenize(&html)));
    });
    group.throughput(Throughput::Bytes(page.len() as u64));
    group.bench_function("8kb", |b| {
        b.iter(|| black_box(tokenize(&page)));
    });
    group.finish();
}

fn bench_stages(c: &mut Criterion) {
    // The stages of one cold diff on the cold-dig page shape (8KB, a
    // two-sentence in-place edit): alignment alone, then `diff_tokens`
    // on pre-tokenized streams (alignment plus rendering), so the
    // render cost is the difference between the two rows. The 8KB full
    // replacement's alignment — one gap the size of the page — sits
    // beside it.
    use aide_htmldiff::compare::{compare_tokens, CompareOptions};
    use aide_htmldiff::present::diff_tokens;
    let (old, new) = pair(8 * 1024, EditModel::InPlaceEdit { sentences: 2 });
    let (old_t, new_t) = (tokenize(&old), tokenize(&new));
    let (old_r, new_r) = pair(8 * 1024, EditModel::FullReplace);
    let (old_rt, new_rt) = (tokenize(&old_r), tokenize(&new_r));
    let mut group = c.benchmark_group("compare_tokens");
    group.bench_function("8kb_inplace", |b| {
        b.iter(|| black_box(compare_tokens(&old_t, &new_t, &CompareOptions::default())));
    });
    group.bench_function("8kb_replace", |b| {
        b.iter(|| black_box(compare_tokens(&old_rt, &new_rt, &CompareOptions::default())));
    });
    group.finish();
    let mut group = c.benchmark_group("render");
    group.bench_function("8kb_inplace", |b| {
        b.iter(|| black_box(diff_tokens(&old_t, &new_t, &Options::default())));
    });
    group.finish();
}

fn bench_length_screen(c: &mut Criterion) {
    // The §5.1 speed-optimization ablation as a wall-clock measurement.
    // Both arms force the naive full DP: under the anchored fast path
    // almost no sentence pair is ever probed, so the screen's effect
    // drowns in tokenize/render overhead (the two arms used to measure
    // within noise of each other). The naive path probes every old×new
    // sentence pair, which is exactly the traffic the screen exists to
    // cut, so the on/off delta isolates the screen and nothing else.
    use aide_htmldiff::compare::{compare_tokens, CompareOptions};
    let (old, new) = pair(16 * 1024, EditModel::InPlaceEdit { sentences: 4 });
    let old_t = tokenize(&old);
    let new_t = tokenize(&new);
    let mut group = c.benchmark_group("length_screen_ablation");
    group.bench_function("screen_on", |b| {
        b.iter(|| {
            black_box(compare_tokens(
                &old_t,
                &new_t,
                &CompareOptions {
                    match_threshold: 0.5,
                    length_screen: Some(0.4),
                    force_naive: true,
                },
            ))
        });
    });
    group.bench_function("screen_off", |b| {
        b.iter(|| {
            black_box(compare_tokens(
                &old_t,
                &new_t,
                &CompareOptions {
                    match_threshold: 0.5,
                    length_screen: None,
                    force_naive: true,
                },
            ))
        });
    });
    group.finish();
}

fn bench_anchored_vs_naive(c: &mut Criterion) {
    // The PR's headline number: the anchored + hashed alignment fast
    // path against the plain full-DP alignment it must match
    // byte-for-byte, on the 32KB small-edit pair.
    use aide_htmldiff::CompareOptions;
    let (old, new) = pair(32 * 1024, EditModel::InPlaceEdit { sentences: 2 });
    let mut group = c.benchmark_group("htmldiff_32kb_anchored_vs_naive");
    group.throughput(Throughput::Bytes((old.len() + new.len()) as u64));
    for (name, force_naive) in [("anchored", false), ("naive", true)] {
        let opts = Options {
            compare: CompareOptions {
                force_naive,
                ..CompareOptions::default()
            },
            ..Options::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| black_box(html_diff(&old, &new, &opts)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sizes,
    bench_change_rates,
    bench_tokenize,
    bench_stages,
    bench_length_screen,
    bench_anchored_vs_naive
);
criterion_main!(benches);
