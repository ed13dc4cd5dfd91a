//! Personal tracker: a month of daily w3newer runs over the Table 1 world.
//!
//! Run with: `cargo run -p aide --example personal_tracker`
//!
//! Reproduces the daily-crontab usage of §3/§6: the Table 1 hotlist and
//! threshold configuration, pages evolving on their own schedules, the
//! user occasionally reading pages, and a printed end-of-month report —
//! plus the polling-traffic statistics that motivate the thresholds and
//! the deployment-wide network-health accounting.

use aide::engine::AideEngine;
use aide_simweb::net::Web;
use aide_util::rng::Rng;
use aide_util::time::{Clock, Duration, Timestamp};
use aide_w3newer::breaker::BreakerConfig;
use aide_w3newer::config;
use aide_w3newer::retry::RetryPolicy;
use aide_workloads::evolve::tick_all;
use aide_workloads::sites::table1_scenario;

fn main() {
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 10, 1, 7, 30, 0));
    let web = Web::new(clock.clone());
    let mut scenario = table1_scenario(&web, 42);

    let engine = AideEngine::new(web.clone()).with_proxy(Duration::hours(6));
    // A crontab tracker should ride out flaky mornings: retries with
    // backoff plus a shared circuit breaker, accounted in the report's
    // Network-health footer and in `net_health()` below.
    engine.enable_robustness(RetryPolicy::standard(7), BreakerConfig::default());
    let user = "douglis@research.att.com";
    let browser = engine.register_user(user, config::table1());
    for mark in &scenario.hotlist {
        browser.add_bookmark(&mark.title, &mark.url);
    }

    let mut rng = Rng::new(7);
    println!("day | changed | unchanged | skipped | errors");
    println!("----+---------+-----------+---------+-------");
    for day in 1..=30u64 {
        clock.advance(Duration::days(1));
        tick_all(&mut scenario.pages, &web);

        let report = engine.run_tracker(user).unwrap();
        let mut changed = 0;
        let mut unchanged = 0;
        let mut skipped = 0;
        let mut errors = 0;
        for e in &report.entries {
            use aide_w3newer::checker::UrlStatus::*;
            match &e.status {
                Changed { .. } => changed += 1,
                Unchanged { .. } => unchanged += 1,
                NotChecked { .. } | RobotExcluded => skipped += 1,
                Error { .. } | Degraded { .. } => errors += 1,
            }
            // The user follows up on some changed pages by visiting them.
            if e.status.is_changed() && rng.chance(0.5) {
                let _ = browser.visit(&e.url);
            }
        }
        println!("{day:>3} | {changed:>7} | {unchanged:>9} | {skipped:>7} | {errors:>6}");
    }

    let stats = web.stats();
    println!("\n30-day network traffic with Table 1 thresholds:");
    println!("  HEAD requests: {}", stats.heads);
    println!("  GET requests:  {}", stats.gets);
    println!("  file: stats:   {} (free)", stats.file_stats);
    println!("\nFinal report:\n");
    let html = engine.tracker_report_html(user).unwrap();
    // Print just the headings and list items for terminal readability.
    for line in html.lines() {
        if line.starts_with("<H") || line.starts_with("<LI>") || line.starts_with("<P>") {
            println!("  {line}");
        }
    }

    let health = engine.net_health();
    println!("\n30-day network health:");
    println!(
        "  {} fetch attempt(s), {} retried, {} recovered, {} exhausted",
        health.retries.attempts,
        health.retries.retries,
        health.retries.recovered,
        health.retries.exhausted
    );
    println!(
        "  breaker: {} circuit(s) opened, {} request(s) denied",
        health.breaker.opened, health.breaker.denials
    );
}
