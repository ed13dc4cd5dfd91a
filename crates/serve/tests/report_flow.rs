//! Every link AIDE prints resolves on aide-serve: Figure 1's Remember,
//! Diff and History (§6), the History page's view and diff links
//! (§8.1) and What's New's `rcsdiff` and `rlog` (§8.2), each clicked
//! exactly as printed.

mod common;

use aide::engine::AideEngine;
use aide::fixed::FixedCollection;
use aide_rcs::repo::MemRepository;
use aide_serve::AideServer;
use aide_simweb::net::Web;
use aide_snapshot::service::SnapshotService;
use aide_util::time::{Clock, Duration, Timestamp};
use aide_w3newer::config;
use aide_workloads::usenix::{USENIX_1995_09_29, USENIX_1995_11_03};
use common::{ok, URL};
use std::sync::Arc;

const USER: &str = "douglis@research.att.com";

/// The first link in `html` whose target contains `marker`.
fn link(html: &str, marker: &str) -> String {
    html.split("HREF=\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .find(|href| href.contains(marker))
        .unwrap_or_else(|| panic!("no {marker} link in: {html}"))
        .to_string()
}

#[test]
fn report_links_drive_the_full_cycle() {
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 10, 15, 9, 0, 0));
    let web = Web::new(clock.clone());
    let published = Timestamp::from_ymd_hms(1995, 9, 29, 12, 0, 0);
    web.set_page(URL, USENIX_1995_09_29, published).unwrap();
    let engine = AideEngine::new(web.clone());
    engine
        .register_user(USER, config::table1())
        .add_bookmark("USENIX Association", URL);
    let server = AideServer::new(Arc::new(engine));
    // A §8.2 collection archiving the same page on its own.
    let snapshot = SnapshotService::new(MemRepository::new(), clock.clone(), 1 << 20);
    let docs = FixedCollection::new("Conferences", web.clone(), Arc::new(snapshot));
    docs.add("USENIX", URL);
    docs.poll();

    // 1. The tracker reports the page as changed (never seen).
    let report_url = "/report?user=douglis%40research.att.com";
    let report = ok(&server, report_url);
    assert!(report.contains("Changed pages") && report.contains("USENIX Association"));

    // 2. Click Remember.
    let page = ok(&server, &link(&report, "op=remember"));
    assert!(page.contains("as revision 1.1."), "{page}");

    // 3. The page changes (the 11/3 edition); the next report flags it.
    clock.advance(Duration::days(35));
    web.touch_page(URL, USENIX_1995_11_03, clock.now()).unwrap();
    docs.poll();
    let report = ok(&server, report_url);

    // 4. Click Diff: Figure 2's strike-outs and the new conference.
    let page = ok(&server, &link(&report, "op=diff"));
    assert!(page.contains("AIDE HtmlDiff"));
    assert!(page.contains("<STRIKE>"), "Figure 2 strike-outs present");
    assert!(page.contains("COOTS"), "new conference appears");

    // 5. Click History: both revisions, then its view and diff links.
    let history = ok(&server, &link(&report, "op=history"));
    assert!(history.contains(">1.1</A>") && history.contains(">1.2</A>"));
    let page = ok(&server, &link(&history, "/view?"));
    assert!(page.contains("USENIX"), "archived copy served");
    assert!(page.contains("BASE HREF"), "relative links fixed up");
    let page = ok(&server, &link(&history, "/diff?"));
    assert!(page.contains("AIDE HtmlDiff"));

    // 6. What's New's Diff and History links.
    let whats_new = docs.render_whats_new("/cgi-bin/snapshot").unwrap();
    let page = ok(&server, &link(&whats_new, "op=rcsdiff"));
    assert!(page.contains("AIDE HtmlDiff"));
    let page = ok(&server, &link(&whats_new, "op=rlog"));
    assert!(page.contains(&format!("Versions of {URL}")));
}
