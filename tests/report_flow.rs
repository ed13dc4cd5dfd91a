//! Report-flow integration: Figure 1 output driven through the CGI layer.
//!
//! A user's w3newer report carries Remember/Diff/History links (§6); this
//! test clicks them the way a 1995 browser would — by dispatching the
//! link URLs through the CGI layer — and checks each step's output.

use aide::cgi::{dispatch, parse_query};
use aide::engine::AideEngine;
use aide_simweb::net::Web;
use aide_util::time::{Clock, Duration, Timestamp};
use aide_w3newer::config;

fn setup() -> AideEngine {
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 10, 15, 9, 0, 0));
    let web = Web::new(clock.clone());
    web.set_page(
        "http://www.usenix.org/index.html",
        aide_workloads::usenix::USENIX_1995_09_29,
        Timestamp::from_ymd_hms(1995, 9, 29, 12, 0, 0),
    )
    .unwrap();
    let e = AideEngine::new(web);
    let b = e.register_user("douglis@research.att.com", config::table1());
    b.add_bookmark("USENIX Association", "http://www.usenix.org/index.html");
    e
}

/// Extracts the first CGI query string (`op=...`) for `op` from HTML.
fn find_query(html: &str, op: &str) -> String {
    let needle = format!("op={op}&");
    let start = html
        .find(&needle)
        .unwrap_or_else(|| panic!("no {op} link in: {html}"));
    let end = html[start..]
        .find('"')
        .map(|i| start + i)
        .unwrap_or(html.len());
    html[start..end].to_string()
}

#[test]
fn report_links_drive_the_full_cycle() {
    let e = setup();
    let user = "douglis@research.att.com";

    // 1. The tracker reports the page as changed (never seen).
    let report = e.tracker_report_html(user).unwrap();
    assert!(report.contains("Changed pages"));
    assert!(report.contains("USENIX Association"));

    // 2. Click Remember.
    let remember_q = find_query(&report, "remember");
    let resp = dispatch(&e, user, &remember_q);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("revision 1.1"));

    // 3. The page changes (the 11/3 edition).
    e.clock().advance(Duration::days(35));
    e.web()
        .touch_page(
            "http://www.usenix.org/index.html",
            aide_workloads::usenix::USENIX_1995_11_03,
            e.clock().now(),
        )
        .unwrap();

    // 4. The next report flags it; click Diff.
    let report = e.tracker_report_html(user).unwrap();
    let diff_q = find_query(&report, "diff");
    let resp = dispatch(&e, user, &diff_q);
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("AIDE HtmlDiff"));
    assert!(
        resp.body.contains("<STRIKE>"),
        "Figure 2 strike-outs present"
    );
    assert!(resp.body.contains("COOTS"), "new conference appears");

    // 5. Click History; two revisions listed, with a diff-to-previous link.
    let history_q = find_query(&report, "history");
    let resp = dispatch(&e, user, &history_q);
    assert!(resp.body.contains("1.1"));
    assert!(resp.body.contains("1.2"));
    let pair_q = find_query(&resp.body, "rcsdiff");
    let resp = dispatch(&e, user, &pair_q);
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("AIDE HtmlDiff"));

    // 6. View the archived original via the co link.
    let history = dispatch(&e, user, &history_q);
    let co_q = find_query(&history.body, "co");
    let parsed = parse_query(&co_q);
    assert_eq!(parsed.op, "co");
    let resp = dispatch(&e, user, &co_q);
    assert!(resp.body.contains("USENIX"), "archived copy served");
    assert!(resp.body.contains("BASE HREF"), "relative links fixed up");
}

#[test]
fn figure1_report_structure() {
    let e = setup();
    let user = "douglis@research.att.com";
    let b = e.browser(user).unwrap();
    // Add more bookmarks in assorted states.
    e.web()
        .set_page(
            "http://seen/page.html",
            "<HTML>x</HTML>",
            Timestamp::from_ymd_hms(1995, 10, 1, 0, 0, 0),
        )
        .unwrap();
    b.add_bookmark("Already seen", "http://seen/page.html");
    b.visit("http://seen/page.html").unwrap();
    b.add_bookmark("Broken", "http://broken-host/x.html");
    b.add_bookmark("Dilbert", "http://www.unitedmedia.com/comics/dilbert/");

    let html = e.tracker_report_html(user).unwrap();
    // All four states visible, as in Figure 1.
    assert!(html.contains("<B>changed</B>"), "{html}");
    assert!(html.contains("seen"));
    assert!(html.contains("<B>error</B>"));
    assert!(html.contains("configured never"));
    // Three action links per entry.
    let entries = html.matches("op=remember").count();
    assert_eq!(entries, html.matches("op=diff").count());
    assert_eq!(entries, html.matches("op=history").count());
    assert_eq!(entries, 4);
}
