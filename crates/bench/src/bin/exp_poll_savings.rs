//! §3 scalability experiment: polling traffic vs hotlist size.
//!
//! The paper's argument: w3new and its peers "poll every URL with the
//! same frequency", while w3newer "omits checks of pages already known to
//! be modified... and pages that have been viewed by the user within some
//! threshold", consults its own cache and the proxy cache before HTTP,
//! and obeys per-pattern thresholds. This sweep measures total network
//! requests over a 30-day run for hotlist sizes 10–1000, under four
//! policies:
//!
//! - `every-run`: thresholds off, cache distrusted (the w3new baseline);
//! - `thresholds`: a 2-day default threshold;
//! - `+cache`: thresholds plus trusted modification cache (1-week
//!   staleness);
//! - `+proxy`: all of the above plus a shared proxy cache populated by
//!   the user's own browsing.

use aide_simweb::browser::Bookmark;
use aide_simweb::net::Web;
use aide_simweb::proxy::ProxyCache;
use aide_util::rng::Rng;
use aide_util::time::{Clock, Duration, Timestamp};
use aide_w3newer::checker::Flags;
use aide_w3newer::config::{Threshold, ThresholdConfig};
use aide_w3newer::W3Newer;
use aide_workloads::evolve::tick_all;
use aide_workloads::sites::{population, PopulationConfig};

struct Policy {
    name: &'static str,
    default_threshold: Threshold,
    staleness: Duration,
    use_proxy: bool,
}

fn run(policy: &Policy, n_urls: usize) -> u64 {
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 10, 1, 7, 0, 0));
    let web = Web::new(clock.clone());
    let cfg = PopulationConfig {
        urls: n_urls,
        hosts: (n_urls / 10).max(1),
        typical_bytes: 3_000,
        churners: (n_urls / 50).max(1),
        churner_bytes: 10_000,
    };
    let mut pages = population(&web, 777, &cfg);
    let proxy = ProxyCache::new(web.clone(), Duration::hours(12));
    let hotlist: Vec<Bookmark> = pages
        .iter()
        .map(|p| Bookmark {
            title: p.url.clone(),
            url: p.url.clone(),
        })
        .collect();

    let mut tracker = W3Newer::new(ThresholdConfig::new(policy.default_threshold));
    tracker.flags = Flags {
        staleness: policy.staleness,
        ..Flags::default()
    };

    // The tracked user browses a few pages a day (updating the history);
    // separately, when the proxy is in play, *colleagues* sharing the
    // AT&T-wide proxy browse a larger slice of the same popular pages —
    // that is what seeds proxy-cache knowledge the tracker can reuse.
    let mut rng = Rng::new(42);
    let mut history: std::collections::HashMap<String, Timestamp> =
        std::collections::HashMap::new();
    web.reset_stats();
    let mut tracker_requests = 0u64;
    for _day in 0..30u64 {
        clock.advance(Duration::days(1));
        tick_all(&mut pages, &web);
        for _ in 0..(n_urls / 20).max(1) {
            let p = &pages[rng.index(pages.len())];
            history.insert(p.url.clone(), clock.now());
        }
        if policy.use_proxy {
            // Colleagues' browsing, Zipf-skewed toward popular pages.
            for _ in 0..(n_urls / 3).max(2) {
                let p = &pages[rng.zipf(pages.len())];
                let _ = proxy.get(&p.url);
            }
        }
        let browsing_baseline = web.stats().requests;
        let h = history.clone();
        let report = tracker.run(
            &hotlist,
            &move |url| h.get(url).copied(),
            &web,
            if policy.use_proxy { Some(&proxy) } else { None },
        );
        assert!(!report.aborted);
        tracker_requests += web.stats().requests - browsing_baseline;
    }
    tracker_requests
}

fn main() {
    let policies = [
        Policy {
            name: "every-run (w3new)",
            default_threshold: Threshold::ALWAYS,
            staleness: Duration::ZERO,
            use_proxy: false,
        },
        Policy {
            name: "thresholds (2d)",
            default_threshold: Threshold::Every(Duration::days(2)),
            staleness: Duration::ZERO,
            use_proxy: false,
        },
        Policy {
            name: "thresholds+cache",
            default_threshold: Threshold::Every(Duration::days(2)),
            staleness: Duration::days(7),
            use_proxy: false,
        },
        Policy {
            // The proxy as the *only* cached source: w3newer distrusts its
            // own cache (staleness 0) but reads the proxy's dates. Shows
            // the proxy substituting for local state, the §8.3 daemon.
            name: "proxy, no own cache",
            default_threshold: Threshold::Every(Duration::days(2)),
            staleness: Duration::ZERO,
            use_proxy: true,
        },
    ];
    println!("=== tracker network requests over 30 days (lower is better) ===\n");
    print!("{:<24}", "policy \\ hotlist size");
    let sizes = [10usize, 50, 100, 300, 1000];
    for n in sizes {
        print!("{n:>9}");
    }
    println!();
    println!("{}", "-".repeat(24 + 9 * sizes.len()));
    let mut baseline: Vec<u64> = Vec::new();
    for (pi, policy) in policies.iter().enumerate() {
        print!("{:<24}", policy.name);
        for (si, n) in sizes.iter().enumerate() {
            let reqs = run(policy, *n);
            if pi == 0 {
                baseline.push(reqs);
            }
            print!("{reqs:>9}");
            if pi > 0 {
                let _pct = 100.0 * reqs as f64 / baseline[si] as f64;
            }
        }
        println!();
    }
    println!("\n(the w3new row grows ~linearly with hotlist size × runs; each");
    println!(" w3newer refinement should cut it substantially — the paper's");
    println!(" 'economies of scale by avoiding unnecessary HTTP accesses'.)");
}
