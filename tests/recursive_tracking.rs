//! Server-side and recursive tracking integration (§8.3).
//!
//! Economies of scale: N users interested in one URL cost one poll; a
//! Virtual-Library hub registers its linked pages automatically; and the
//! per-user "what's new" view stays personalized even though checking is
//! centralized.

use aide::tracking::ServerTracker;
use aide_rcs::repo::MemRepository;
use aide_simweb::net::Web;
use aide_snapshot::service::{SnapshotService, UserId};
use aide_util::time::{Clock, Duration, Timestamp};
use std::sync::Arc;

fn setup() -> (Web, ServerTracker) {
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 11, 1, 0, 0, 0));
    let web = Web::new(clock.clone());
    let snapshot = Arc::new(SnapshotService::new(MemRepository::new(), clock, 1 << 20));
    (web.clone(), ServerTracker::new(web, snapshot))
}

#[test]
fn polls_scale_with_urls_not_users() {
    let (web, tracker) = setup();
    for i in 0..5 {
        web.set_page(
            &format!("http://pop/{i}.html"),
            "<HTML>v1</HTML>",
            Timestamp(100),
        )
        .unwrap();
    }
    // 40 users all interested in the same 5 URLs.
    for u in 0..40 {
        let user = UserId::new(&format!("user{u}@site"));
        for i in 0..5 {
            tracker.register(&user, &format!("http://pop/{i}.html"));
        }
    }
    web.reset_stats();
    let summary = tracker.poll_all();
    assert_eq!(summary.checked, 5);
    assert_eq!(web.stats().gets, 5, "one GET per URL, not per user");

    // Every user sees all five as new; after marking seen, none are.
    let u7 = UserId::new("user7@site");
    let fresh = tracker.whats_new(&u7).unwrap();
    assert_eq!(fresh.len(), 5);
    assert!(fresh.iter().all(|s| s.changed_for_user));
    for s in &fresh {
        tracker.mark_seen(&u7, &s.url).unwrap();
    }
    assert!(tracker
        .whats_new(&u7)
        .unwrap()
        .iter()
        .all(|s| !s.changed_for_user));
    // Another user's view is unaffected.
    let u8 = UserId::new("user8@site");
    assert!(tracker
        .whats_new(&u8)
        .unwrap()
        .iter()
        .all(|s| s.changed_for_user));
}

#[test]
fn virtual_library_hub_tracks_linked_pages() {
    let (web, tracker) = setup();
    // A hub linking to three subject pages on other hosts.
    web.set_page(
        "http://vlib/ComputerScience.html",
        r#"<HTML><H1>Virtual Library: CS</H1><UL>
           <LI><A HREF="http://site-a/systems.html">Systems</A>
           <LI><A HREF="http://site-b/languages.html">Languages</A>
           <LI><A HREF="http://site-c/theory.html">Theory</A>
           </UL></HTML>"#,
        Timestamp(100),
    )
    .unwrap();
    for host in ["site-a", "site-b", "site-c"] {
        let page = match host {
            "site-a" => "http://site-a/systems.html",
            "site-b" => "http://site-b/languages.html",
            _ => "http://site-c/theory.html",
        };
        web.set_page(page, "<HTML>subject page v1</HTML>", Timestamp(100))
            .unwrap();
    }
    let alice = UserId::new("alice@x");
    let regs = tracker
        .register_hub(&alice, "http://vlib/ComputerScience.html", 1, false)
        .unwrap();
    assert_eq!(regs.len(), 4, "hub + 3 linked pages: {regs:?}");

    tracker.poll_all();
    // One linked page changes; only it shows as new after a mark-seen sweep.
    for s in tracker.whats_new(&alice).unwrap() {
        tracker.mark_seen(&alice, &s.url).unwrap();
    }
    web.clock().advance(Duration::days(1));
    web.touch_page(
        "http://site-b/languages.html",
        "<HTML>subject page v2</HTML>",
        web.clock().now(),
    )
    .unwrap();
    tracker.poll_all();
    let news: Vec<_> = tracker
        .whats_new(&alice)
        .unwrap()
        .into_iter()
        .filter(|s| s.changed_for_user)
        .collect();
    assert_eq!(news.len(), 1);
    assert_eq!(news[0].url, "http://site-b/languages.html");
}

#[test]
fn decoupled_history_wart() {
    // §8.3: "centralized tracking... would have the disadvantage of being
    // decoupled from a given user's W3 browser history; i.e., if a user
    // views a page directly, the snapshot facility would have no
    // indication of this and might present the page as having been
    // modified." Reproduce exactly that.
    let (web, tracker) = setup();
    web.set_page("http://h/p.html", "<HTML>v1</HTML>", Timestamp(100))
        .unwrap();
    let user = UserId::new("u@x");
    tracker.register(&user, "http://h/p.html");
    tracker.poll_all();

    // The user views the page directly in their browser...
    let browser = aide_simweb::browser::Browser::new(web.clone());
    browser.visit("http://h/p.html").unwrap();
    // ...but the server-side tracker still reports it as new-to-them.
    let status = &tracker.whats_new(&user).unwrap()[0];
    assert!(
        status.changed_for_user,
        "server-side tracking cannot see direct browser visits"
    );
}

#[test]
fn archival_happens_at_change_detection() {
    let (web, tracker) = setup();
    web.set_page("http://h/p.html", "<HTML>v1</HTML>", Timestamp(100))
        .unwrap();
    tracker.register(&UserId::new("u@x"), "http://h/p.html");
    tracker.poll_all();
    // Page changes twice between polls: only the state at poll time is
    // captured (polling is sampling, not a change log).
    web.clock().advance(Duration::hours(1));
    web.touch_page("http://h/p.html", "<HTML>v2</HTML>", web.clock().now())
        .unwrap();
    web.clock().advance(Duration::hours(1));
    web.touch_page("http://h/p.html", "<HTML>v3</HTML>", web.clock().now())
        .unwrap();
    let s = tracker.poll_all();
    assert_eq!(s.changed, 1);
}
