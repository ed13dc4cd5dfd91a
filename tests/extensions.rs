//! Integration of the implemented future-work features: a power-user
//! deployment where the junk filter, priorities, entity checksums,
//! stored forms and the recursive differ all run against one simulated
//! Web and one snapshot service.

use aide::entities::{EntityChecker, EntityStatus};
use aide::forms::{FormRegistry, FormStatus};
use aide::junk::classify;
use aide::recursive::RecursiveDiffer;
use aide_htmldiff::{Options as DiffOptions, Presentation};
use aide_rcs::repo::MemRepository;
use aide_simweb::http::Request;
use aide_simweb::net::Web;
use aide_simweb::resource::Resource;
use aide_snapshot::service::{SnapshotService, UserId};
use aide_util::time::{Clock, Duration, Timestamp};
use std::sync::Arc;

fn setup() -> (Web, Arc<SnapshotService<MemRepository>>, UserId) {
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1996, 2, 1, 0, 0, 0));
    let web = Web::new(clock.clone());
    let snapshot = Arc::new(SnapshotService::new(MemRepository::new(), clock, 1 << 20));
    (web, snapshot, UserId::new("power@att.com"))
}

#[test]
fn junk_filter_suppresses_only_noise_in_mixed_tracking() {
    let (web, _, _) = setup();
    web.set_resource(
        "http://noisy/counter",
        Resource::hit_counter("<HTML><P>Accesses: {HITS}. Content is stable here.</HTML>"),
    )
    .unwrap();
    web.set_page(
        "http://honest/page.html",
        "<HTML><P>Original statement.</HTML>",
        web.clock().now(),
    )
    .unwrap();

    let grab = |url: &str| web.request(&Request::get(url)).unwrap().body;
    let noisy_a = grab("http://noisy/counter");
    let honest_a = grab("http://honest/page.html");

    web.clock().advance(Duration::days(1));
    web.touch_page(
        "http://honest/page.html",
        "<HTML><P>Revised statement entirely rewritten!</HTML>",
        web.clock().now(),
    )
    .unwrap();
    let noisy_b = grab("http://noisy/counter");
    let honest_b = grab("http://honest/page.html");

    assert!(classify(&noisy_a, &noisy_b).junk);
    assert!(!classify(&honest_a, &honest_b).junk);
}

#[test]
fn entity_change_invisible_to_htmldiff_caught_by_checksums() {
    let (web, _, _) = setup();
    let page = r#"<HTML><P>The weather map: <IMG SRC="/map.gif"></HTML>"#;
    web.set_page("http://wx/index.html", page, web.clock().now())
        .unwrap();
    web.set_page("http://wx/map.gif", "GIF-monday", web.clock().now())
        .unwrap();

    let checker = EntityChecker::new(web.clone());
    checker.check_entities("http://wx/index.html", page);

    web.clock().advance(Duration::days(1));
    web.touch_page("http://wx/map.gif", "GIF-tuesday", web.clock().now())
        .unwrap();

    // HtmlDiff sees nothing: the page text is identical.
    let diff = aide_htmldiff::html_diff(page, page, &DiffOptions::default());
    assert!(diff.stats.is_identical());
    // The checksum layer sees the swap.
    let reports = checker.check_entities("http://wx/index.html", page);
    assert_eq!(reports[0].status, EntityStatus::ContentChanged);
}

#[test]
fn stored_form_tracks_post_service_into_archive() {
    let (web, snapshot, user) = setup();
    web.set_resource(
        "http://svc/cgi-bin/report",
        Resource::Cgi {
            template: "<HTML><P>Report for {INPUT}: status nominal.</HTML>".to_string(),
            hits: 0,
        },
    )
    .unwrap();
    let forms = FormRegistry::new(web.clone());
    forms.register("weekly", "http://svc/cgi-bin/report", "dept=ssr");
    let (s, body) = forms.poll("weekly").unwrap();
    assert_eq!(s, FormStatus::Baseline);
    snapshot.remember(&user, "aide-form:weekly", &body).unwrap();

    web.clock().advance(Duration::days(7));
    web.set_resource(
        "http://svc/cgi-bin/report",
        Resource::Cgi {
            template: "<HTML><P>Report for {INPUT}: status degraded, two incidents!</HTML>"
                .to_string(),
            hits: 0,
        },
    )
    .unwrap();
    let (s, body) = forms.poll("weekly").unwrap();
    assert_eq!(s, FormStatus::Changed);
    let out = snapshot
        .diff_since_last(&user, "aide-form:weekly", &body, &DiffOptions::default())
        .unwrap();
    assert!(out.html.contains("degraded"));
    // The POST input itself reached the service.
    assert!(out.html.contains("dept=ssr"));
}

#[test]
fn recursive_diff_with_side_by_side_rendering() {
    let (web, snapshot, user) = setup();
    web.set_page(
        "http://hub/",
        r#"<HTML><A HREF="/child.html">child</A></HTML>"#,
        web.clock().now(),
    )
    .unwrap();
    web.set_page(
        "http://hub/child.html",
        "<HTML><P>Child page, first words.</HTML>",
        web.clock().now(),
    )
    .unwrap();
    let differ = RecursiveDiffer::new(web.clone(), snapshot);
    let opts = DiffOptions {
        presentation: Presentation::SideBySide,
        ..DiffOptions::default()
    };
    differ.diff_hub(&user, "http://hub/", true, &opts).unwrap();
    web.clock().advance(Duration::days(1));
    web.touch_page(
        "http://hub/child.html",
        "<HTML><P>Child page, utterly different content now!</HTML>",
        web.clock().now(),
    )
    .unwrap();
    let sweep = differ.diff_hub(&user, "http://hub/", true, &opts).unwrap();
    assert_eq!(sweep.changed_urls(), vec!["http://hub/child.html"]);
    let html = sweep.render();
    assert!(
        html.contains("<TABLE"),
        "side-by-side options flow through: {html}"
    );
}
