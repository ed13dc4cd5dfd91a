//! Figure 1 reproduction: the w3newer HTML status report.
//!
//! Builds a hotlist whose entries land in every state visible in the
//! paper's Figure 1 — changed (with modification dates), seen, not
//! checked, and erroring — runs w3newer once, and prints the report HTML
//! with its Remember/Diff/History links.

use aide::engine::AideEngine;
use aide_simweb::net::Web;
use aide_simweb::resource::Resource;
use aide_util::time::{Clock, Duration, Timestamp};
use aide_w3newer::config;

fn main() {
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 11, 15, 8, 0, 0));
    let web = Web::new(clock.clone());
    let now = clock.now();

    // Changed pages with a spread of modification dates.
    web.set_page(
        "http://www.usenix.org/",
        "<HTML>USENIX home</HTML>",
        now - Duration::days(2),
    )
    .unwrap();
    web.set_page(
        "http://www.ncsa.uiuc.edu/whats-new.html",
        "<HTML>What's new in Mosaic</HTML>",
        now - Duration::hours(6),
    )
    .unwrap();
    web.set_page(
        "http://www.yahoo.com/",
        "<HTML>Yahoo directory</HTML>",
        now - Duration::days(12),
    )
    .unwrap();
    // A page the user has already seen since its modification.
    web.set_page(
        "http://www.research.att.com/orgs/ssr/",
        "<HTML>SSR</HTML>",
        now - Duration::days(30),
    )
    .unwrap();
    // Error conditions.
    web.set_resource(
        "http://old.host.com/page.html",
        Resource::Moved {
            location: "http://new.host.com/page.html".into(),
        },
    )
    .unwrap();
    web.add_server("flaky.org");
    // Robot-excluded.
    web.set_robots_txt("private.org", "User-agent: *\nDisallow: /\n");
    web.set_page("http://private.org/internal.html", "<HTML>x</HTML>", now)
        .unwrap();

    let engine = AideEngine::new(web.clone());
    let user = "douglis@research.att.com";
    let browser = engine.register_user(user, config::table1());
    browser.add_bookmark("USENIX Association", "http://www.usenix.org/");
    browser.add_bookmark(
        "What's New in Mosaic",
        "http://www.ncsa.uiuc.edu/whats-new.html",
    );
    browser.add_bookmark("Yahoo", "http://www.yahoo.com/");
    browser.add_bookmark(
        "Software Systems Research",
        "http://www.research.att.com/orgs/ssr/",
    );
    browser.add_bookmark("Moved page", "http://old.host.com/page.html");
    browser.add_bookmark("Missing page", "http://flaky.org/gone.html");
    browser.add_bookmark("Internal page", "http://private.org/internal.html");
    browser.add_bookmark("Dilbert", "http://www.unitedmedia.com/comics/dilbert/");

    // The user saw the SSR page yesterday (after its modification) and
    // Yahoo three weeks ago (before its modification).
    browser.mark_visited(
        "http://www.research.att.com/orgs/ssr/",
        now - Duration::days(1),
    );
    browser.mark_visited("http://www.yahoo.com/", now - Duration::days(21));

    let html = engine.tracker_report_html(user).unwrap();
    println!("=== Figure 1: w3newer status report ===\n");
    println!("{html}");

    // Summary for eyeballing against the figure's description.
    let report = engine.run_tracker(user).unwrap();
    println!("=== summary ===");
    for e in &report.entries {
        println!("{:<55} {:?}", e.url, e.status);
    }
}
