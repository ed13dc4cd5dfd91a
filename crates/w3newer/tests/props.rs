//! Property-based tests for the tracker.
//!
//! Invariants:
//! - a `never` threshold generates zero traffic, whatever the world
//!   looks like;
//! - w3newer's traffic never exceeds the every-run baseline's;
//! - a second run immediately after the first adds no traffic when
//!   thresholds are positive and the cache is trusted;
//! - the checker never reports "changed" for a page the user visited
//!   after its modification (when dates are available);
//! - config parse/threshold lookup is total for generated files.

use aide_simweb::browser::Bookmark;
use aide_simweb::fault::{FaultEpisode, FaultKind, FaultPlan};
use aide_simweb::net::Web;
use aide_util::time::{Clock, Duration, Timestamp};
use aide_w3newer::breaker::{Admission, BreakerConfig, CircuitBreaker};
use aide_w3newer::checker::{Flags, UrlStatus};
use aide_w3newer::config::{Threshold, ThresholdConfig};
use aide_w3newer::retry::RetryPolicy;
use aide_w3newer::W3Newer;
use proptest::prelude::*;

/// A small random world: n pages with assorted ages, some visited.
#[derive(Debug, Clone)]
struct World {
    pages: Vec<(
        String,
        u64,         /* modified offset (s before now) */
        Option<u64>, /* visited offset */
    )>,
}

fn world_strategy() -> impl Strategy<Value = World> {
    proptest::collection::vec(
        (0u64..20_000_000, proptest::option::of(0u64..20_000_000)),
        1..12,
    )
    .prop_map(|entries| World {
        pages: entries
            .into_iter()
            .enumerate()
            .map(|(i, (m, v))| (format!("http://host{}/p{i}.html", i % 3), m, v))
            .collect(),
    })
}

fn build(
    world: &World,
) -> (
    Web,
    Vec<Bookmark>,
    std::collections::HashMap<String, Timestamp>,
) {
    let now = Timestamp::from_ymd_hms(1995, 10, 1, 0, 0, 0);
    let clock = Clock::starting_at(now);
    let web = Web::new(clock);
    let mut hotlist = Vec::new();
    let mut history = std::collections::HashMap::new();
    for (url, mod_off, visit_off) in &world.pages {
        web.set_page(
            url,
            &format!("<HTML>{url}</HTML>"),
            now - Duration::seconds(*mod_off),
        )
        .unwrap();
        hotlist.push(Bookmark {
            title: url.clone(),
            url: url.clone(),
        });
        if let Some(v) = visit_off {
            history.insert(url.clone(), now - Duration::seconds(*v));
        }
    }
    (web, hotlist, history)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn never_threshold_is_silent(world in world_strategy()) {
        let (web, hotlist, history) = build(&world);
        let mut w = W3Newer::new(ThresholdConfig::new(Threshold::Never));
        let h = history.clone();
        let report = w.run(&hotlist, &move |u| h.get(u).copied(), &web, None);
        prop_assert_eq!(web.stats().requests, 0);
        let all_skipped = report
            .entries
            .iter()
            .all(|e| matches!(e.status, UrlStatus::NotChecked { .. }));
        prop_assert!(all_skipped);
    }

    #[test]
    fn traffic_never_exceeds_baseline(world in world_strategy(), threshold_days in 0u64..5) {
        // Baseline: every-run, no cache trust.
        let (web_a, hotlist, history) = build(&world);
        let mut baseline = W3Newer::new(ThresholdConfig::default());
        baseline.flags = Flags { staleness: Duration::ZERO, ..Flags::default() };
        let h = history.clone();
        let hist_a = move |u: &str| h.get(u).copied();
        for _ in 0..3 {
            baseline.run(&hotlist, &hist_a, &web_a, None);
            web_a.clock().advance(Duration::days(1));
        }
        // Tracked: thresholds + cache.
        let (web_b, hotlist, history) = build(&world);
        let mut tracked = W3Newer::new(ThresholdConfig::new(Threshold::Every(Duration::days(threshold_days))));
        let h = history.clone();
        let hist_b = move |u: &str| h.get(u).copied();
        for _ in 0..3 {
            tracked.run(&hotlist, &hist_b, &web_b, None);
            web_b.clock().advance(Duration::days(1));
        }
        prop_assert!(web_b.stats().requests <= web_a.stats().requests);
    }

    #[test]
    fn immediate_rerun_is_free_with_thresholds(world in world_strategy()) {
        let (web, hotlist, history) = build(&world);
        let mut w = W3Newer::new(ThresholdConfig::new(Threshold::Every(Duration::days(2))));
        let h = history.clone();
        let hist = move |u: &str| h.get(u).copied();
        w.run(&hotlist, &hist, &web, None);
        let after_first = web.stats().requests;
        w.run(&hotlist, &hist, &web, None);
        prop_assert_eq!(web.stats().requests, after_first, "second run must be free");
    }

    #[test]
    fn no_false_changed_reports(world in world_strategy()) {
        let (web, hotlist, history) = build(&world);
        let mut w = W3Newer::new(ThresholdConfig::default());
        w.flags.staleness = Duration::ZERO;
        let h = history.clone();
        let report = w.run(&hotlist, &move |u| h.get(u).copied(), &web, None);
        for e in &report.entries {
            if let UrlStatus::Changed { modified: Some(m), .. } = &e.status {
                if let Some(v) = e.last_visited {
                    let url = &e.url;
                    prop_assert!(
                        *m > v,
                        "{url} reported changed (mod {m:?}) though visited at {v:?}"
                    );
                }
            }
            if let UrlStatus::Unchanged { .. } = &e.status {
                prop_assert!(e.last_visited.is_some(), "unchanged requires a visit record");
            }
        }
    }

    #[test]
    fn config_lookup_total(
        lines in proptest::collection::vec(("[a-z]{1,8}", 0u64..9), 0..6),
        url in "[a-z]{1,12}",
    ) {
        let text: String = lines
            .iter()
            .map(|(pat, days)| format!("{pat} {days}d\n"))
            .collect();
        if let Ok(cfg) = ThresholdConfig::parse(&text) {
            // Lookup never panics and returns a rule or the default.
            let _ = cfg.lookup(&format!("http://{url}/"));
        }
    }

    #[test]
    fn cache_roundtrip_under_arbitrary_runs(world in world_strategy()) {
        let (web, hotlist, history) = build(&world);
        let mut w = W3Newer::new(ThresholdConfig::default());
        let h = history.clone();
        w.run(&hotlist, &move |u| h.get(u).copied(), &web, None);
        let emitted = w.cache.emit();
        let parsed = aide_w3newer::cache::TrackerCache::parse(&emitted);
        prop_assert_eq!(parsed, w.cache);
    }

    // --- retry/backoff policy --------------------------------------------

    #[test]
    fn retry_delays_monotone_and_capped(
        base in 0u64..90,
        extra in 0u64..300,
        seed in any::<u64>(),
        host in "[a-z]{1,16}",
    ) {
        let policy = RetryPolicy {
            max_attempts: 12,
            base_delay: Duration::seconds(base),
            max_delay: Duration::seconds(base + extra),
            budget: Duration::hours(10),
            jitter_seed: seed,
        };
        let url = format!("http://{host}/p.html");
        let mut prev = Duration::ZERO;
        for attempt in 1..=12u32 {
            let d = policy.delay_for(&url, attempt);
            prop_assert!(d <= policy.max_delay, "attempt {attempt}: {d:?} over cap");
            prop_assert!(
                d >= prev,
                "delay shrank at attempt {attempt}: {d:?} < {prev:?}"
            );
            prev = d;
        }
    }

    #[test]
    fn retry_jitter_deterministic(
        base in 1u64..60,
        seed in any::<u64>(),
        host in "[a-z]{1,12}",
        attempt in 1u32..10,
    ) {
        let mk = |s: u64| RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::seconds(base),
            max_delay: Duration::minutes(30),
            budget: Duration::hours(1),
            jitter_seed: s,
        };
        let url = format!("http://{host}/x.html");
        // Same (seed, url, attempt) always replays the same jitter.
        prop_assert_eq!(mk(seed).delay_for(&url, attempt), mk(seed).delay_for(&url, attempt));
    }

    #[test]
    fn retry_sleep_bounded_by_budget(budget_secs in 0u64..600, seed in any::<u64>()) {
        // One URL on a host that times out every single request. The
        // tracker runs at most two retry cycles for it (robots.txt,
        // then the HEAD), and backoff sleeping within each cycle is
        // capped by the policy's budget.
        let now = Timestamp::from_ymd_hms(1995, 10, 1, 0, 0, 0);
        let clock = Clock::starting_at(now);
        let web = Web::new(clock.clone());
        web.set_page("http://dead/p.html", "<HTML>x</HTML>", now - Duration::days(3))
            .unwrap();
        web.install_fault_plan(
            FaultPlan::new(seed).for_host("dead", FaultEpisode::rate(1.0, FaultKind::Timeout)),
        );
        let mut w = W3Newer::new(ThresholdConfig::default());
        w.flags.staleness = Duration::ZERO;
        w.retry = RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::seconds(5),
            max_delay: Duration::minutes(2),
            budget: Duration::seconds(budget_secs),
            jitter_seed: seed,
        };
        let hotlist = vec![Bookmark { title: "p".into(), url: "http://dead/p.html".into() }];
        let report = w.run_serial(&hotlist, &|_| None, &web, None);
        let slept = clock.now() - now;
        prop_assert_eq!(slept.as_secs(), report.net.slept_secs, "all waiting is backoff");
        prop_assert!(
            report.net.slept_secs <= 2 * budget_secs,
            "slept {}s against a per-request budget of {}s",
            report.net.slept_secs,
            budget_secs
        );
    }

    #[test]
    fn terminal_errors_never_retry(seed in any::<u64>()) {
        // A 404 is terminal: robots.txt probe plus one HEAD, no retries,
        // no backoff, even with an aggressive retry policy installed.
        let now = Timestamp::from_ymd_hms(1995, 10, 1, 0, 0, 0);
        let web = Web::new(Clock::starting_at(now));
        web.set_page("http://h/exists.html", "<HTML>x</HTML>", now - Duration::days(3))
            .unwrap();
        let mut w = W3Newer::new(ThresholdConfig::default());
        w.flags.staleness = Duration::ZERO;
        w.retry = RetryPolicy::standard(seed);
        let hotlist = vec![Bookmark { title: "m".into(), url: "http://h/missing.html".into() }];
        let report = w.run_serial(&hotlist, &|_| None, &web, None);
        prop_assert_eq!(report.net.retries, 0);
        prop_assert_eq!(report.net.slept_secs, 0);
        prop_assert_eq!(web.stats().requests, 2, "robots.txt + HEAD, nothing more");

        // Robots-denied is terminal before the page is ever touched.
        let web = Web::new(Clock::starting_at(now));
        web.set_page("http://h/private.html", "<HTML>x</HTML>", now - Duration::days(3))
            .unwrap();
        web.set_robots_txt("h", "User-agent: *\nDisallow: /\n");
        let mut w = W3Newer::new(ThresholdConfig::default());
        w.flags.staleness = Duration::ZERO;
        w.retry = RetryPolicy::standard(seed);
        let hotlist = vec![Bookmark { title: "p".into(), url: "http://h/private.html".into() }];
        let report = w.run_serial(&hotlist, &|_| None, &web, None);
        prop_assert_eq!(report.net.retries, 0);
        prop_assert_eq!(report.net.slept_secs, 0);
        prop_assert_eq!(web.stats().requests, 1, "robots.txt only");
    }

    // --- circuit breaker state machine -----------------------------------

    #[test]
    fn breaker_matches_reference_state_machine(
        threshold in 1u32..6,
        cd in 10u64..500,
        ops in proptest::collection::vec((0u8..3, 0u64..1000), 1..80),
    ) {
        // Replay an arbitrary admit/success/failure schedule against a
        // tiny reference model of the documented state machine: an open
        // circuit never admits before its cool-down; half-open admits
        // exactly one probe; a probe's success closes, its failure
        // re-opens with a doubled (capped) cool-down.
        let max_cd = cd * 8;
        let br = CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown: Duration::seconds(cd),
            max_cooldown: Duration::seconds(max_cd),
        });
        let base = Timestamp::from_ymd_hms(1995, 10, 1, 0, 0, 0);

        #[derive(Clone, Copy, Debug)]
        enum Model {
            Closed(u32),
            Open { until: u64, cdn: u64 },
            HalfOpen { cdn: u64 },
        }
        let mut model = Model::Closed(0);
        let mut t = 0u64;
        for (op, dt) in ops {
            t += dt;
            let now = base + Duration::seconds(t);
            match op {
                0 => {
                    let got = br.admit("h", now);
                    let want = match model {
                        Model::Closed(_) => Admission::Allowed,
                        Model::Open { until, cdn } if t >= until => {
                            model = Model::HalfOpen { cdn };
                            Admission::Probe
                        }
                        Model::Open { .. } | Model::HalfOpen { .. } => Admission::Denied,
                    };
                    prop_assert_eq!(got, want, "admit at t={} with model {:?}", t, model);
                }
                1 => {
                    br.record_success("h");
                    model = match model {
                        // A success reported while open is stale news.
                        Model::Open { .. } => model,
                        Model::Closed(_) | Model::HalfOpen { .. } => Model::Closed(0),
                    };
                }
                _ => {
                    br.record_failure("h", now);
                    model = match model {
                        Model::Closed(f) if f + 1 >= threshold => {
                            Model::Open { until: t + cd, cdn: cd }
                        }
                        Model::Closed(f) => Model::Closed(f + 1),
                        Model::HalfOpen { cdn } => {
                            let next = (cdn * 2).min(max_cd);
                            Model::Open { until: t + next, cdn: next }
                        }
                        Model::Open { .. } => model,
                    };
                }
            }
        }
        prop_assert_eq!(
            br.is_open("h"),
            matches!(model, Model::Open { .. } | Model::HalfOpen { .. })
        );
    }
}
