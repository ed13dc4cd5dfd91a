//! Figure 1's structure: every tracker state, and three action links
//! per entry. aide-serve's `report_flow` test clicks those links.

use aide::engine::AideEngine;
use aide_simweb::net::Web;
use aide_util::time::{Clock, Timestamp};
use aide_w3newer::config;
use aide_workloads::usenix::USENIX_1995_09_29;

#[test]
fn figure1_report_structure() {
    let web = Web::new(Clock::starting_at(Timestamp::from_ymd_hms(
        1995, 10, 15, 9, 0, 0,
    )));
    let usenix = "http://www.usenix.org/index.html";
    let published = Timestamp::from_ymd_hms(1995, 9, 29, 12, 0, 0);
    web.set_page(usenix, USENIX_1995_09_29, published).unwrap();
    let e = AideEngine::new(web);
    let user = "douglis@research.att.com";
    let b = e.register_user(user, config::table1());
    b.add_bookmark("USENIX Association", usenix);
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
