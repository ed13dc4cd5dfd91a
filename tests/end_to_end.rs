//! End-to-end integration: a six-month simulated AIDE deployment.
//!
//! Builds the Table 1 world, registers users, and replays daily w3newer
//! runs, Remember/Diff cycles and page evolution across a simulated
//! half-year — the span §7 reports on — checking the cross-crate
//! invariants along the way.

use aide::engine::AideEngine;
use aide_htmldiff::Options as DiffOptions;
use aide_simweb::net::Web;
use aide_util::time::{Clock, Duration, Timestamp};
use aide_w3newer::checker::UrlStatus;
use aide_w3newer::config::{self, ThresholdConfig};
use aide_workloads::evolve::tick_all;
use aide_workloads::sites::table1_scenario;

fn start_clock() -> Clock {
    Clock::starting_at(Timestamp::from_ymd_hms(1995, 9, 1, 8, 0, 0))
}

#[test]
fn six_month_deployment_runs_clean() {
    let clock = start_clock();
    let web = Web::new(clock.clone());
    let mut scenario = table1_scenario(&web, 1234);
    let engine = AideEngine::new(web.clone()).with_proxy(Duration::hours(6));
    let browser = engine.register_user("fred@research.att.com", config::table1());
    for mark in &scenario.hotlist {
        browser.add_bookmark(&mark.title, &mark.url);
    }
    // Remember everything once at the start.
    for mark in &scenario.hotlist {
        if mark.url.starts_with("http:") {
            engine.remember("fred@research.att.com", &mark.url).unwrap();
        }
    }

    let mut total_changed_reports = 0usize;
    let mut diffs_rendered = 0usize;
    for day in 0..180u64 {
        clock.advance(Duration::days(1));
        tick_all(&mut scenario.pages, &web);
        let report = engine.run_tracker("fred@research.att.com").unwrap();
        assert!(!report.aborted, "day {day}: run aborted");
        assert_eq!(report.entries.len(), scenario.hotlist.len());
        for entry in &report.entries {
            if entry.status.is_changed() && entry.url.starts_with("http:") {
                total_changed_reports += 1;
                // Exercise the Diff path on a sample of changes.
                if day % 13 == 0 {
                    let out = engine
                        .diff("fred@research.att.com", &entry.url, &DiffOptions::default())
                        .unwrap();
                    assert!(out.to >= out.from);
                    diffs_rendered += 1;
                }
                // Visiting the page clears the changed flag next run.
                if day % 3 == 0 {
                    browser.visit(&entry.url).unwrap();
                }
            }
        }
    }
    assert!(
        total_changed_reports > 50,
        "got {total_changed_reports} change reports"
    );
    assert!(diffs_rendered > 3, "got {diffs_rendered} diffs");

    // The archive holds history for the remembered URLs.
    let stats = engine.snapshot().storage().unwrap();
    assert!(stats.archives >= 6, "archives: {}", stats.archives);
    assert!(stats.revisions > stats.archives, "revisions accrued");
}

#[test]
fn dilbert_never_checked_but_archive_still_grows_if_remembered() {
    let clock = start_clock();
    let web = Web::new(clock.clone());
    let mut scenario = table1_scenario(&web, 99);
    let engine = AideEngine::new(web.clone());
    let browser = engine.register_user("u@x", config::table1());
    for mark in &scenario.hotlist {
        browser.add_bookmark(&mark.title, &mark.url);
    }
    let dilbert = "http://www.unitedmedia.com/comics/dilbert/";
    for _ in 0..14 {
        clock.advance(Duration::days(1));
        tick_all(&mut scenario.pages, &web);
        let report = engine.run_tracker("u@x").unwrap();
        let entry = report.entries.iter().find(|e| e.url == dilbert).unwrap();
        assert!(
            matches!(entry.status, UrlStatus::NotChecked { .. }),
            "dilbert must never be polled: {:?}",
            entry.status
        );
        // But an explicit Remember works and captures each day's strip.
        engine.remember("u@x", dilbert).unwrap();
    }
    let h = engine.history("u@x", dilbert).unwrap();
    assert!(
        h.len() >= 13,
        "daily full replacements archived: {}",
        h.len()
    );
}

#[test]
fn two_users_share_archives_but_see_personal_diffs() {
    let clock = start_clock();
    let web = Web::new(clock.clone());
    web.set_page(
        "http://shared/page.html",
        "<HTML><P>day zero content.</HTML>",
        clock.now(),
    )
    .unwrap();
    let engine = AideEngine::new(web.clone());
    engine.register_user("alice@x", ThresholdConfig::default());
    engine.register_user("bob@x", ThresholdConfig::default());

    engine
        .remember("alice@x", "http://shared/page.html")
        .unwrap();

    clock.advance(Duration::days(1));
    web.touch_page(
        "http://shared/page.html",
        "<HTML><P>day zero content. day one addition!</HTML>",
        clock.now(),
    )
    .unwrap();
    engine.remember("bob@x", "http://shared/page.html").unwrap();

    clock.advance(Duration::days(1));
    web.touch_page(
        "http://shared/page.html",
        "<HTML><P>day zero content. day one addition! day two more?</HTML>",
        clock.now(),
    )
    .unwrap();

    // Alice diffs from rev 1 (sees both additions); Bob from rev 2.
    let a = engine
        .diff(
            "alice@x",
            "http://shared/page.html",
            &DiffOptions::default(),
        )
        .unwrap();
    assert!(a.html.contains("day one addition!"));
    assert!(a.html.contains("day two more?"));
    let b = engine
        .diff("bob@x", "http://shared/page.html", &DiffOptions::default())
        .unwrap();
    assert!(!b.html.contains("<STRONG><I>day one addition!</I></STRONG>"));
    assert!(b.html.contains("day two more?"));

    // One archive, three revisions, despite two users.
    let stats = engine.snapshot().storage().unwrap();
    assert_eq!(stats.archives, 1);
    assert_eq!(stats.revisions, 3);
}

#[test]
fn error_conditions_survive_a_full_run() {
    let clock = start_clock();
    let web = Web::new(clock.clone());
    web.set_page(
        "http://good/a.html",
        "<HTML>fine</HTML>",
        clock.now() - Duration::days(1),
    )
    .unwrap();
    web.set_resource(
        "http://good/moved.html",
        aide_simweb::resource::Resource::Moved {
            location: "http://good/a.html".into(),
        },
    )
    .unwrap();
    web.set_resource(
        "http://good/gone.html",
        aide_simweb::resource::Resource::Gone,
    )
    .unwrap();
    web.set_robots_txt("fortress", "User-agent: *\nDisallow: /\n");
    web.set_page("http://fortress/secret.html", "<HTML>x</HTML>", clock.now())
        .unwrap();

    let engine = AideEngine::new(web.clone());
    let browser = engine.register_user("u@x", ThresholdConfig::default());
    browser.add_bookmark("ok", "http://good/a.html");
    browser.add_bookmark("moved", "http://good/moved.html");
    browser.add_bookmark("gone", "http://good/gone.html");
    browser.add_bookmark("unknown", "http://no-such-host/x");
    browser.add_bookmark("excluded", "http://fortress/secret.html");

    let report = engine.run_tracker("u@x").unwrap();
    let by_url = |u: &str| {
        report
            .entries
            .iter()
            .find(|e| e.url == u)
            .unwrap_or_else(|| panic!("missing {u}"))
    };
    assert!(by_url("http://good/a.html").status.is_changed());
    assert!(
        matches!(&by_url("http://good/moved.html").status, UrlStatus::Error { message } if message.contains("moved"))
    );
    assert!(
        matches!(&by_url("http://good/gone.html").status, UrlStatus::Error { message } if message.contains("410"))
    );
    assert!(matches!(
        &by_url("http://no-such-host/x").status,
        UrlStatus::Error { .. }
    ));
    assert_eq!(
        by_url("http://fortress/secret.html").status,
        UrlStatus::RobotExcluded
    );

    // The rendered report presents all of them.
    let html = engine.tracker_report_html("u@x").unwrap();
    assert!(html.contains("Problems"));
    assert!(html.contains("robot exclusion"));
}
