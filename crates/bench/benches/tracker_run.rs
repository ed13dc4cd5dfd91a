//! Criterion bench: one w3newer run vs hotlist size and policy.
//!
//! The per-run CPU cost of the tracker itself (pattern matching, cache
//! lookups, decision logic), isolated from simulated network behaviour.

use aide_simweb::browser::Bookmark;
use aide_simweb::net::Web;
use aide_util::time::{Clock, Duration, Timestamp};
use aide_w3newer::config::{self, Threshold, ThresholdConfig};
use aide_w3newer::W3Newer;
use aide_workloads::sites::{population, PopulationConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn setup(n: usize) -> (Web, Vec<Bookmark>) {
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 10, 1, 0, 0, 0));
    let web = Web::new(clock.clone());
    let cfg = PopulationConfig {
        urls: n,
        hosts: (n / 10).max(1),
        typical_bytes: 2_000,
        churners: 1,
        churner_bytes: 4_000,
    };
    let pages = population(&web, 99, &cfg);
    let hotlist = pages
        .iter()
        .map(|p| Bookmark {
            title: p.url.clone(),
            url: p.url.clone(),
        })
        .collect();
    clock.advance(Duration::days(1));
    (web, hotlist)
}

fn bench_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("w3newer_single_run");
    group.sample_size(20);
    for n in [50usize, 200, 500] {
        let (web, hotlist) = setup(n);
        group.bench_with_input(BenchmarkId::new("warm_cache", n), &n, |b, _| {
            let mut tracker =
                W3Newer::new(ThresholdConfig::new(Threshold::Every(Duration::days(2))));
            // Warm the cache with one run.
            tracker.run(&hotlist, &|_| None, &web, None);
            b.iter(|| black_box(tracker.run(&hotlist, &|_| None, &web, None)));
        });
    }
    group.finish();
}

fn bench_config_matching(c: &mut Criterion) {
    let cfg = config::table1();
    let urls: Vec<String> = (0..500)
        .map(|i| format!("http://www.host{}.com/dir/page{i}.html", i % 37))
        .collect();
    c.bench_function("threshold_match_500_urls", |b| {
        b.iter(|| {
            for u in &urls {
                black_box(cfg.lookup(u));
            }
        });
    });
}

criterion_group!(benches, bench_run, bench_config_matching);
criterion_main!(benches);
