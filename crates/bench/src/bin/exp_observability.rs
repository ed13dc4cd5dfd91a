//! Observability experiment: what instrumentation costs, and what it
//! sees, on the fault-storm workload.
//!
//! Replays the `exp_fault_tolerance` sweep — 100 URLs, a seeded fault
//! storm (12% global timeouts, host2 answering 503 half the time,
//! host7 hard-down), the robust retry+breaker tracker — under three
//! conditions:
//!
//! - **disabled**: no subscriber installed, the shipped default. Every
//!   instrumentation site reduces to one relaxed atomic load.
//! - **enabled**: an `aide_obs::MetricsRegistry` installed for the whole
//!   batch, every counter/histogram/span live.
//! - **replayed**: two single runs into fresh registries, whose JSON
//!   exports must be byte-identical (the determinism contract).
//!
//! Prints per-run wall-clock minima for the first two and the relative
//! overhead (the target is <5%), then the full metrics dump of one
//! instrumented run.
//!
//! Before the sweep it times one recorded event in isolation, at 1 and
//! 2 threads: a bare shared `AtomicU64::fetch_add`, a counter handle
//! and a histogram handle with a registry installed, and a handle with
//! none.
//!
//! Knob: `AIDE_OBS_JSON` — path to also write the JSON export to.

use aide_obs::{Counter, Histogram, MetricsRegistry};
use aide_simweb::browser::Bookmark;
use aide_simweb::fault::{FaultEpisode, FaultKind, FaultPlan};
use aide_simweb::http::Status;
use aide_simweb::net::Web;
use aide_util::time::{Clock, Duration, Timestamp};
use aide_w3newer::breaker::{BreakerConfig, CircuitBreaker};
use aide_w3newer::config::ThresholdConfig;
use aide_w3newer::retry::RetryPolicy;
use aide_w3newer::W3Newer;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const HOSTS: usize = 10;
const PAGES_PER_HOST: usize = 10;
const FAULT_SEED: u64 = 42;
const WARMUP: usize = 5;
const REPS: u32 = 100;
/// Events each thread records per timed micro-bench repetition.
const EVENTS: u64 = 200_000;
const RECORD_REPS: u32 = 15;

static BARE: AtomicU64 = AtomicU64::new(0);
static COUNTER: Counter = Counter::new("bench.record.counter");
static HISTOGRAM: Histogram = Histogram::new("bench.record.histogram");

fn build_world() -> (Clock, Web, Vec<Bookmark>, HashMap<String, Timestamp>) {
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 10, 1, 9, 0, 0));
    let web = Web::new(clock.clone());
    let visited = clock.now() - Duration::days(1);
    let mut hotlist = Vec::new();
    let mut history = HashMap::new();
    for h in 0..HOSTS {
        for p in 0..PAGES_PER_HOST {
            let url = format!("http://host{h}.example.com/page{p}.html");
            let modified = if p < 2 {
                clock.now() - Duration::hours(3)
            } else {
                clock.now() - Duration::days(10)
            };
            web.set_page(&url, &format!("<HTML><P>body {h}/{p}</HTML>"), modified)
                .unwrap();
            history.insert(url.clone(), visited);
            hotlist.push(Bookmark {
                title: format!("Page {h}/{p}"),
                url,
            });
        }
    }
    (clock, web, hotlist, history)
}

fn storm() -> FaultPlan {
    FaultPlan::new(FAULT_SEED)
        .everywhere(FaultEpisode::rate(0.12, FaultKind::Timeout))
        .for_host(
            "host2.example.com",
            FaultEpisode::rate(
                0.5,
                FaultKind::Transient {
                    status: Status::ServiceUnavailable,
                    retry_after_secs: Some(20),
                },
            ),
        )
        .for_host(
            "host7.example.com",
            FaultEpisode::rate(1.0, FaultKind::ConnectionRefused),
        )
}

/// One full sweep: fresh world, fresh storm, robust tracker. Returns
/// nanoseconds spent in the tracker run itself — world construction is
/// identical on both sides and excluded so it cannot mask or fake a
/// difference.
fn sweep() -> u64 {
    let (_clock, web, hotlist, history) = build_world();
    web.install_fault_plan(storm());
    let mut w = W3Newer::new(ThresholdConfig::default());
    w.retry = RetryPolicy::standard(7);
    w.breaker = Some(Arc::new(CircuitBreaker::new(BreakerConfig::default())));
    w.flags.staleness = Duration::ZERO;
    w.flags.abort_after_consecutive_errors = None;
    let start = Instant::now();
    w.run_serial(&hotlist, &move |u| history.get(u).copied(), &web, None);
    start.elapsed().as_nanos() as u64
}

/// Wall-clock nanoseconds per event while `threads` threads each call
/// `record` [`EVENTS`] times at once.
fn ns_per_event(threads: usize, record: &(impl Fn(u64) + Sync)) -> f64 {
    let start = Instant::now();
    aide_util::pool::map(vec![(); threads], threads, |()| {
        (0..EVENTS).for_each(|i| record(black_box(i)))
    });
    start.elapsed().as_nanos() as f64 / EVENTS as f64
}

/// The record-cost table: each case's minimum over [`RECORD_REPS`]
/// interleaved repetitions, so host noise lands on every case alike.
fn record_costs() {
    let registry = Arc::new(MetricsRegistry::new());
    let bare = |_| {
        BARE.fetch_add(1, Ordering::Relaxed);
    };
    let counter = |_| COUNTER.add(1);
    let histogram = |i: u64| HISTOGRAM.observe(i & 1_023);
    let mut best = [[f64::MAX; 2]; 4];
    for _ in 0..RECORD_REPS {
        for (t, threads) in [1, 2].into_iter().enumerate() {
            let mut keep = |case: usize, ns: f64| best[case][t] = best[case][t].min(ns);
            keep(0, ns_per_event(threads, &bare));
            aide_obs::install(registry.clone());
            keep(1, ns_per_event(threads, &counter));
            keep(2, ns_per_event(threads, &histogram));
            aide_obs::uninstall();
            keep(3, ns_per_event(threads, &counter));
        }
    }
    println!(
        "=== record cost (ns/event, min of {RECORD_REPS} interleaved reps, \
         {EVENTS} events per thread) ===\n"
    );
    println!("{:<28}{:>10}{:>11}", "case", "1 thread", "2 threads");
    println!("{}", "-".repeat(49));
    let cases = [
        "bare shared fetch_add",
        "counter handle, obs on",
        "histogram handle, obs on",
        "any handle, obs off",
    ];
    for (name, [one, two]) in cases.iter().zip(best) {
        println!("{name:<28}{one:>10.1}{two:>11.1}");
    }
    println!();
}

fn main() {
    record_costs();
    println!(
        "=== instrumentation overhead on the fault-storm sweep \
         ({} URLs, seed {FAULT_SEED}, best of {REPS} interleaved reps) ===\n",
        HOSTS * PAGES_PER_HOST
    );

    for _ in 0..WARMUP {
        sweep();
    }

    // Interleave disabled/enabled repetitions so drift (page cache,
    // allocator state, frequency scaling) lands on both sides equally,
    // and take the minimum: scheduler noise is strictly additive, so
    // min-of-N is the robust per-side estimate.
    let batch = Arc::new(MetricsRegistry::new());
    let mut disabled_ns = u64::MAX;
    let mut enabled_ns = u64::MAX;
    for _ in 0..REPS {
        disabled_ns = disabled_ns.min(sweep());
        aide_obs::install(batch.clone());
        enabled_ns = enabled_ns.min(sweep());
        aide_obs::uninstall();
    }

    let overhead = (enabled_ns as f64 / disabled_ns as f64 - 1.0) * 100.0;
    println!("{:<22}{:>14}", "condition", "ns/sweep");
    println!("{}", "-".repeat(36));
    println!("{:<22}{:>14}", "obs disabled", disabled_ns);
    println!("{:<22}{:>14}", "obs enabled", enabled_ns);
    println!("\nenabled overhead: {overhead:+.1}%  (target <5%)\n");

    // Determinism: two single runs into fresh registries must export
    // byte-identical JSON.
    let replay = || {
        let r = Arc::new(MetricsRegistry::new());
        aide_obs::install(r.clone());
        sweep();
        aide_obs::uninstall();
        r
    };
    let (single, json) = (replay(), replay().render_json());
    assert_eq!(
        single.render_json(),
        json,
        "identically-seeded sweeps must export identical metrics"
    );
    println!("(asserted: two identically-seeded instrumented sweeps export");
    println!(
        " byte-identical JSON snapshots — {} bytes each.)\n",
        json.len()
    );
    if let Ok(path) = std::env::var("AIDE_OBS_JSON") {
        std::fs::write(&path, &json).expect("write AIDE_OBS_JSON dump");
        eprintln!("(wrote JSON snapshot to {path})");
    }
    println!("=== metrics recorded by one sweep ===\n");
    print!("{}", single.render_text());
}
