//! Power user: the implemented future-work features, together.
//!
//! Run with: `cargo run -p aide --example power_user`
//!
//! A user with hundreds of URLs exercises the extensions the paper
//! sketched but never built: Tapestry-style priorities over the report
//! (§7), the semantic junk filter for noisy pages (§3.1), entity
//! checksums catching an image swap behind a stable URL (§5.3), a stored
//! form tracking a POST search service (§8.4), a recursive diff over
//! a hub page (§8.3) — and, tying them together, a tracked sweep through
//! the [`AideEngine`] with its deployment-wide network-health readout.

use aide::engine::AideEngine;
use aide::entities::EntityChecker;
use aide::forms::FormRegistry;
use aide::junk::classify;
use aide::recursive::RecursiveDiffer;
use aide_htmldiff::Options as DiffOptions;
use aide_rcs::repo::MemRepository;
use aide_simweb::net::Web;
use aide_simweb::resource::Resource;
use aide_snapshot::service::{SnapshotService, UserId};
use aide_util::time::{Clock, Duration, Timestamp};
use std::sync::Arc;

fn main() {
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1996, 1, 15, 9, 0, 0));
    let web = Web::new(clock.clone());
    let user = UserId::new("poweruser@research.att.com");
    let snapshot = Arc::new(SnapshotService::new(
        MemRepository::new(),
        clock.clone(),
        1 << 20,
    ));

    // --- §3.1: the junk filter ------------------------------------------
    web.set_resource(
        "http://stats.example/counter",
        Resource::hit_counter("<HTML><P>You are visitor {HITS} since 1995.</HTML>"),
    )
    .unwrap();
    let before = web
        .request(&aide_simweb::http::Request::get(
            "http://stats.example/counter",
        ))
        .unwrap()
        .body;
    let after = web
        .request(&aide_simweb::http::Request::get(
            "http://stats.example/counter",
        ))
        .unwrap()
        .body;
    let verdict = classify(&before, &after);
    println!(
        "junk filter: counter page change junk={} (changed words: {:?})",
        verdict.junk, verdict.changed_words
    );

    // --- §5.3: entity checksums ------------------------------------------
    web.set_page(
        "http://news.example/front.html",
        r#"<HTML><IMG SRC="/today.gif"> Front page.</HTML>"#,
        clock.now(),
    )
    .unwrap();
    web.set_page(
        "http://news.example/today.gif",
        "GIF-bytes-monday",
        clock.now(),
    )
    .unwrap();
    let checker = EntityChecker::new(web.clone());
    let page_body = r#"<HTML><IMG SRC="/today.gif"> Front page.</HTML>"#;
    checker.check_entities("http://news.example/front.html", page_body);
    clock.advance(Duration::days(1));
    web.touch_page(
        "http://news.example/today.gif",
        "GIF-bytes-tuesday",
        clock.now(),
    )
    .unwrap();
    let reports = checker.check_entities("http://news.example/front.html", page_body);
    println!(
        "entity checksums: {} — {:?}",
        reports[0].url, reports[0].status
    );

    // --- §8.4: a stored form over a POST service -------------------------
    web.set_resource(
        "http://search.example/cgi-bin/find",
        Resource::Cgi {
            template: "<HTML>Results for [{INPUT}]: 12 documents.</HTML>".to_string(),
            hits: 0,
        },
    )
    .unwrap();
    let forms = FormRegistry::new(web.clone());
    forms.register(
        "mobile-search",
        "http://search.example/cgi-bin/find",
        "q=mobile+computing",
    );
    let (status, body) = forms.poll("mobile-search").unwrap();
    println!("stored form: first poll {status:?}");
    snapshot
        .remember(&user, "aide-form:mobile-search", &body)
        .unwrap();
    web.set_resource(
        "http://search.example/cgi-bin/find",
        Resource::Cgi {
            template: "<HTML>Results for [{INPUT}]: 14 documents, two new!</HTML>".to_string(),
            hits: 0,
        },
    )
    .unwrap();
    let (status, body) = forms.poll("mobile-search").unwrap();
    println!("stored form: service output now {status:?}");
    let diff = snapshot
        .diff_since_last(
            &user,
            "aide-form:mobile-search",
            &body,
            &DiffOptions::default(),
        )
        .unwrap();
    println!("stored form: diff rendered ({} -> {})", diff.from, diff.to);

    // --- §8.3: recursive diff over a hub ---------------------------------
    web.set_page(
        "http://vlib.example/os.html",
        r#"<HTML><H1>VL: Operating Systems</H1>
           <UL><LI><A HREF="/sprite.html">Sprite</A>
               <LI><A HREF="/plan9.html">Plan 9</A></UL></HTML>"#,
        clock.now(),
    )
    .unwrap();
    web.set_page(
        "http://vlib.example/sprite.html",
        "<HTML><P>Sprite overview v1.</HTML>",
        clock.now(),
    )
    .unwrap();
    web.set_page(
        "http://vlib.example/plan9.html",
        "<HTML><P>Plan 9 overview v1.</HTML>",
        clock.now(),
    )
    .unwrap();
    let differ = RecursiveDiffer::new(web.clone(), snapshot.clone());
    differ
        .diff_hub(
            &user,
            "http://vlib.example/os.html",
            true,
            &DiffOptions::default(),
        )
        .unwrap();
    clock.advance(Duration::days(2));
    web.touch_page(
        "http://vlib.example/plan9.html",
        "<HTML><P>Plan 9 overview v2 — new release!</HTML>",
        clock.now(),
    )
    .unwrap();
    let sweep = differ
        .diff_hub(
            &user,
            "http://vlib.example/os.html",
            true,
            &DiffOptions::default(),
        )
        .unwrap();
    println!("recursive diff: changed pages = {:?}", sweep.changed_urls());

    // --- §7: prioritized report ------------------------------------------
    use aide_w3newer::checker::{CheckSource, RunReport, UrlReport, UrlStatus};
    use aide_w3newer::priority::{Priority, PriorityConfig};
    use aide_w3newer::report::{render_prioritized_report, ReportOptions};
    let priorities = PriorityConfig::default()
        .rule(r"http://.*\.att\.com/.*", Priority::Urgent)
        .unwrap()
        .rule(r"http://stats\..*", Priority::Suppress)
        .unwrap();
    let report = RunReport {
        entries: vec![
            UrlReport {
                url: "http://fun.example/comics.html".to_string(),
                title: "Comics".to_string(),
                status: UrlStatus::Changed {
                    modified: Some(clock.now()),
                    source: CheckSource::Head,
                },
                last_visited: None,
            },
            UrlReport {
                url: "http://www.att.com/quarterly.html".to_string(),
                title: "Quarterly results".to_string(),
                status: UrlStatus::Changed {
                    modified: Some(clock.now() - Duration::days(2)),
                    source: CheckSource::Head,
                },
                last_visited: None,
            },
            UrlReport {
                url: "http://stats.example/counter".to_string(),
                title: "Hit counter".to_string(),
                status: UrlStatus::Changed {
                    modified: None,
                    source: CheckSource::GetChecksum,
                },
                last_visited: None,
            },
        ],
        started: clock.now(),
        aborted: false,
        net: aide_w3newer::retry::RetrySnapshot::default(),
    };
    let html = render_prioritized_report(&report, &priorities, &ReportOptions::default());
    println!("\nprioritized report:\n");
    for line in html
        .lines()
        .filter(|l| l.starts_with("<H2>") || l.starts_with("<LI>") || l.starts_with("<P><SMALL>"))
    {
        println!("  {line}");
    }

    // --- §6/§7: an engine-backed sweep with network-health accounting ----
    use aide_w3newer::breaker::BreakerConfig;
    use aide_w3newer::config::ThresholdConfig;
    use aide_w3newer::retry::RetryPolicy;
    let engine = AideEngine::new(web.clone());
    engine.enable_robustness(RetryPolicy::standard(9), BreakerConfig::default());
    let browser = engine.register_user("poweruser@research.att.com", ThresholdConfig::default());
    browser.add_bookmark("VL: Operating Systems", "http://vlib.example/os.html");
    browser.add_bookmark("Front page", "http://news.example/front.html");
    let sweep = engine.run_tracker("poweruser@research.att.com").unwrap();
    let health = engine.net_health();
    println!(
        "\nengine sweep: {} URL(s) checked; net health: {} attempt(s), \
         {} retried, {} recovered, {} denied by open circuits",
        sweep.entries.len(),
        health.retries.attempts,
        health.retries.retries,
        health.retries.recovered,
        health.breaker.denials
    );
}
