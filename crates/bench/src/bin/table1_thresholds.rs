//! Table 1 reproduction: the w3newer threshold configuration and its
//! effect.
//!
//! Prints the configuration exactly as the paper's Table 1 lists it, then
//! runs a 30-day simulation of the Table 1 world twice — once with the
//! thresholds, once with uniform every-run polling (the w3new baseline) —
//! and reports the per-server HEAD/GET traffic each policy generates.
//! The paper's claims to verify: Yahoo sees far less load under its `7d`
//! threshold, Dilbert is never polled, `file:` URLs are free, and att.com
//! pages are checked every run.

use aide::engine::AideEngine;
use aide_simweb::net::Web;
use aide_util::time::{Clock, Duration, Timestamp};
use aide_w3newer::config::{self, ThresholdConfig};
use aide_workloads::evolve::tick_all;
use aide_workloads::sites::table1_scenario;

fn run_policy(
    label: &str,
    config: ThresholdConfig,
    trust_cache: bool,
) -> (String, Vec<(String, u64)>, u64) {
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 10, 1, 7, 30, 0));
    let web = Web::new(clock.clone());
    let mut scenario = table1_scenario(&web, 42);
    let engine = AideEngine::new(web.clone());
    let user = "douglis@research.att.com";
    let browser = engine.register_user(user, config);
    if !trust_cache {
        // The w3new baseline has no persistent cache: every run re-polls.
        engine
            .set_tracker_flags(
                user,
                aide_w3newer::checker::Flags {
                    staleness: aide_util::time::Duration::ZERO,
                    ..aide_w3newer::checker::Flags::default()
                },
            )
            .unwrap();
    }
    for mark in &scenario.hotlist {
        browser.add_bookmark(&mark.title, &mark.url);
    }
    web.reset_stats();
    for day in 0..30u64 {
        clock.advance(Duration::days(1));
        tick_all(&mut scenario.pages, &web);
        let report = engine.run_tracker(user).unwrap();
        // The user visits changed pages every few days, as real users did.
        if day % 3 == 0 {
            for e in &report.entries {
                if e.status.is_changed() {
                    let _ = browser.visit(&e.url);
                }
            }
        }
    }
    let mut per_host: Vec<(String, u64)> = web
        .hosts()
        .into_iter()
        .map(|h| {
            let s = web.server_stats(&h).unwrap();
            (h, s.total())
        })
        .collect();
    per_host.sort();
    (label.to_string(), per_host, web.stats().requests)
}

fn main() {
    println!("=== Table 1: the w3newer threshold configuration ===\n");
    println!("{}", config::table1_text());

    let (_, with_thresholds, total_thresh) = run_policy("table1", config::table1(), true);
    let (_, uniform, total_uniform) = run_policy("uniform", ThresholdConfig::default(), false);

    println!("=== 30-day polling traffic per origin server (requests) ===\n");
    println!("{:<42} {:>10} {:>10}", "host", "thresholds", "every-run");
    println!("{}", "-".repeat(64));
    for ((host, with), (_, without)) in with_thresholds.iter().zip(uniform.iter()) {
        println!("{host:<42} {with:>10} {without:>10}");
    }
    println!("{}", "-".repeat(64));
    println!(
        "{:<42} {total_thresh:>10} {total_uniform:>10}",
        "TOTAL network requests"
    );
    let savings = 100.0 * (1.0 - total_thresh as f64 / total_uniform as f64);
    println!("\nthreshold policy saves {savings:.0}% of all network requests");
    println!("(paper: thresholds exist to 'reduce unnecessary load'; Dilbert");
    println!(" row should be 0 under thresholds — it is never checked.)");
}
