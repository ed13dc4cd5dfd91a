//! Observability integration suite: the `aide_obs` metrics layer
//! against the full tracker/snapshot/diff pipeline.
//!
//! Invariants enforced here (the ISSUE 4 acceptance criteria):
//! - two identically-seeded runs record *identical* metrics snapshots —
//!   every counter, gauge, histogram bucket, and span, byte-for-byte in
//!   the JSON export;
//! - with no subscriber installed, rendered reports are byte-identical
//!   to an uninstrumented build (no "Observability" section, nothing
//!   recorded anywhere);
//! - installing a subscriber adds the report footer; uninstalling
//!   restores the original bytes exactly.
//!
//! The global subscriber is process-wide state, so every test that
//! installs one serializes on `OBS_GATE`.
//!
//! Knob: `AIDE_OBS_JSON` — path to write the storm run's JSON snapshot,
//! which `ci.sh` exploits by running this suite twice and diffing the
//! dumps.

use aide::AideEngine;
use aide_obs::{MetricsRegistry, MetricsSnapshot};
use aide_simweb::browser::Bookmark;
use aide_simweb::fault::{FaultEpisode, FaultKind, FaultPlan};
use aide_simweb::http::Status;
use aide_simweb::net::Web;
use aide_util::time::{Clock, Duration, Timestamp};
use aide_w3newer::config::ThresholdConfig;
use aide_w3newer::report::{render_report, ReportOptions};
use aide_w3newer::retry::RetryPolicy;
use aide_w3newer::W3Newer;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes tests that install the process-wide subscriber.
static OBS_GATE: Mutex<()> = Mutex::new(());

fn obs_gate() -> MutexGuard<'static, ()> {
    OBS_GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// The fault-tolerance suite's quiet world: 5 hosts x 4 pages, all old
/// and visited yesterday, so every "changed" under faults is fabricated.
fn quiet_world() -> (Clock, Web, Vec<Bookmark>, HashMap<String, Timestamp>) {
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 10, 1, 9, 0, 0));
    let web = Web::new(clock.clone());
    let mut hotlist = Vec::new();
    let mut history = HashMap::new();
    let visited = clock.now() - Duration::days(1);
    for h in 0..5 {
        for p in 0..4 {
            let url = format!("http://host{h}.example.com/page{p}.html");
            web.set_page(
                &url,
                &format!("<HTML><P>stable body {h}/{p}</HTML>"),
                clock.now() - Duration::days(10),
            )
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

fn storm_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .everywhere(FaultEpisode::rate(0.15, FaultKind::Timeout))
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
}

fn robust_tracker() -> W3Newer {
    let mut w = W3Newer::new(ThresholdConfig::default());
    w.retry = RetryPolicy::standard(7);
    w.flags.staleness = Duration::ZERO;
    w.flags.abort_after_consecutive_errors = None;
    w
}

/// One instrumented storm run: fresh world, fresh registry, serial
/// tracker pass, subscriber removed again.
fn instrumented_storm(seed: u64) -> MetricsSnapshot {
    let registry = Arc::new(MetricsRegistry::new());
    aide_obs::install(registry.clone());
    let (_clock, web, hotlist, history) = quiet_world();
    web.install_fault_plan(storm_plan(seed));
    let mut w = robust_tracker();
    w.run_serial(&hotlist, &move |u| history.get(u).copied(), &web, None);
    aide_obs::uninstall();
    registry.snapshot()
}

#[test]
fn same_seed_storms_record_identical_metrics() {
    let snap_a;
    let snap_b;
    {
        let _gate = obs_gate();
        snap_a = instrumented_storm(42);
        snap_b = instrumented_storm(42);
    }
    assert_eq!(snap_a, snap_b, "same seed must replay the same metrics");
    assert_eq!(snap_a.render_json(), snap_b.render_json());
    assert_eq!(snap_a.render_text(), snap_b.render_text());

    // The run actually measured something at every layer it touched.
    assert!(snap_a.counters["simweb.fault.timeout"] > 0);
    assert!(snap_a.counters["simweb.requests"] > 0);
    assert!(snap_a.counters["w3newer.url.unchanged"] > 0);
    assert!(
        snap_a.histograms.contains_key("w3newer.retry.backoff_secs"),
        "the storm forced backoff sleeps"
    );
    assert!(snap_a.counters["w3newer.retry.attempts"] > 0);
    assert!(snap_a
        .spans
        .iter()
        .any(|s| s.name == "w3newer.run" && s.end_secs >= s.start_secs));

    if let Ok(path) = std::env::var("AIDE_OBS_JSON") {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, snap_a.render_json()).expect("write AIDE_OBS_JSON dump");
    }
}

#[test]
fn different_seeds_record_different_metrics() {
    let _gate = obs_gate();
    let a = instrumented_storm(42);
    let b = instrumented_storm(42 ^ 0xDEAD_BEEF);
    assert_ne!(a, b, "a different fault seed replays different metrics");
}

/// One instrumented end-to-end engine pass: track, remember two
/// revisions, diff them, read the history, view the old text. Exercises
/// the snapshot, rcs, htmldiff, and diffcore instrumentation.
fn instrumented_pipeline() -> MetricsSnapshot {
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 10, 1, 9, 0, 0));
    let web = Web::new(clock.clone());
    let url = "http://host0.example.com/page.html";
    web.set_page(
        url,
        "<HTML><P>First sentence. Second sentence.</HTML>",
        clock.now() - Duration::days(3),
    )
    .unwrap();
    let engine = AideEngine::new(web);
    let registry = engine.enable_observability();
    engine.register_user("fred", ThresholdConfig::default());
    engine.browser("fred").unwrap().add_bookmark("Page", url);
    engine.run_tracker("fred").unwrap();
    let v1 = engine.remember("fred", url).unwrap().rev;
    clock.advance(Duration::days(1));
    engine
        .web()
        .set_page(
            url,
            "<HTML><P>First sentence. A different second sentence.</HTML>",
            clock.now(),
        )
        .unwrap();
    let v2 = engine.remember("fred", url).unwrap().rev;
    let diff = engine
        .diff_versions(url, v1, v2, &Default::default())
        .unwrap();
    assert!(!diff.from_cache);
    // A second identical diff must come from the cache.
    let again = engine
        .diff_versions(url, v1, v2, &Default::default())
        .unwrap();
    assert!(again.from_cache);
    engine.history("fred", url).unwrap();
    engine.view(url, v1).unwrap();
    aide_obs::uninstall();
    registry.snapshot()
}

#[test]
fn pipeline_metrics_cover_every_layer_and_replay_identically() {
    let snap_a;
    let snap_b;
    {
        let _gate = obs_gate();
        snap_a = instrumented_pipeline();
        snap_b = instrumented_pipeline();
    }
    assert_eq!(snap_a, snap_b, "the pipeline is deterministic end to end");

    assert_eq!(snap_a.counters["snapshot.remember"], 2);
    assert_eq!(snap_a.counters["snapshot.diff"], 2);
    assert_eq!(snap_a.counters["snapshot.diff.cache_miss"], 1);
    assert_eq!(snap_a.counters["snapshot.diff.cache_hit.primary"], 1);
    assert_eq!(snap_a.counters["snapshot.history"], 1);
    assert_eq!(snap_a.counters["snapshot.view"], 1);
    assert!(snap_a.counters["htmldiff.tokenize"] >= 2);
    assert!(snap_a.counters["htmldiff.compare"] >= 1);
    assert!(snap_a
        .histograms
        .contains_key("htmldiff.anchor.coverage_permille"));
    assert!(snap_a.histograms.contains_key("snapshot.diff.delta_chain"));
    assert!(snap_a.histograms.contains_key("rcs.checkout.chain"));
    assert!(snap_a.spans.iter().any(|s| s.name == "aide.run_tracker"));
    assert_eq!(snap_a.counters["snapshot.htmldiff_invocations"], 1);
}

#[test]
fn reports_are_byte_identical_without_a_subscriber() {
    let _gate = obs_gate();
    let render = || {
        let (_clock, web, hotlist, history) = quiet_world();
        let mut w = W3Newer::new(ThresholdConfig::default());
        let report = w.run_serial(&hotlist, &move |u| history.get(u).copied(), &web, None);
        render_report(&report, &ReportOptions::default())
    };

    let plain = render();
    assert!(!plain.contains("Observability"), "no subscriber, no footer");

    let registry = Arc::new(MetricsRegistry::new());
    aide_obs::install(registry);
    let instrumented = render();
    aide_obs::uninstall();
    assert!(instrumented.contains("<H2>Observability</H2>"));
    assert!(instrumented.contains("counter w3newer.url.unchanged"));

    let restored = render();
    assert_eq!(
        plain, restored,
        "uninstalling must restore the exact pre-instrumentation bytes"
    );
}
