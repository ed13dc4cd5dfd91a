//! A community "What's New" service: fixed collections (§8.2) plus
//! server-side tracking (§8.3).
//!
//! Run with: `cargo run -p aide --example whats_new_service`
//!
//! A departmental AIDE server archives a fixed set of documentation pages
//! automatically as they change, publishes a community What's New page,
//! and centrally tracks a Virtual-Library hub so that one poll serves
//! every interested user.

use aide::fixed::FixedCollection;
use aide::tracking::ServerTracker;
use aide_rcs::repo::MemRepository;
use aide_simweb::net::Web;
use aide_snapshot::service::{SnapshotService, UserId};
use aide_util::time::{Clock, Duration, Timestamp};
use std::sync::Arc;

fn main() {
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 12, 1, 0, 0, 0));
    let web = Web::new(clock.clone());

    // The documentation site.
    web.set_page(
        "http://docs.att.com/guide.html",
        "<HTML><H1>User Guide</H1><P>Version 1.0 of the guide.</HTML>",
        clock.now(),
    )
    .unwrap();
    web.set_page(
        "http://docs.att.com/faq.html",
        "<HTML><H1>FAQ</H1><P>Ten questions answered.</HTML>",
        clock.now(),
    )
    .unwrap();
    web.set_page(
        "http://docs.att.com/release.html",
        "<HTML><H1>Releases</H1><P>Current release is 2.3.</HTML>",
        clock.now(),
    )
    .unwrap();

    // A Virtual-Library-style hub elsewhere.
    web.set_page(
        "http://vlib.org/networking.html",
        r#"<HTML><H1>VL: Networking</H1><UL>
           <LI><A HREF="http://site-a.org/rfc-index.html">RFC index</A>
           <LI><A HREF="http://site-b.org/tools.html">Tools</A></UL></HTML>"#,
        clock.now(),
    )
    .unwrap();
    web.set_page(
        "http://site-a.org/rfc-index.html",
        "<HTML>RFCs through 1850.</HTML>",
        clock.now(),
    )
    .unwrap();
    web.set_page(
        "http://site-b.org/tools.html",
        "<HTML>tcpdump, traceroute.</HTML>",
        clock.now(),
    )
    .unwrap();

    let snapshot = Arc::new(SnapshotService::new(
        MemRepository::new(),
        clock.clone(),
        1 << 20,
    ));

    // Fixed collection over the docs.
    let docs = FixedCollection::new("AT&T Documentation", web.clone(), snapshot.clone());
    docs.add("User Guide", "http://docs.att.com/guide.html");
    docs.add("FAQ", "http://docs.att.com/faq.html");
    docs.add("Release Notes", "http://docs.att.com/release.html");

    // Server tracker over the hub, for two users.
    let tracker = ServerTracker::new(web.clone(), snapshot.clone());
    let alice = UserId::new("alice@att.com");
    let bob = UserId::new("bob@att.com");
    let regs = tracker
        .register_hub(&alice, "http://vlib.org/networking.html", 1, false)
        .unwrap();
    for url in &regs {
        tracker.register(&bob, url);
    }
    println!("hub registration tracked {} pages", regs.len());

    // Two weeks of nightly polls with some edits along the way.
    for day in 1..=14u64 {
        clock.advance(Duration::days(1));
        if day == 3 {
            web.touch_page(
                "http://docs.att.com/release.html",
                "<HTML><H1>Releases</H1><P>Current release is 2.4!</HTML>",
                clock.now(),
            )
            .unwrap();
        }
        if day == 7 {
            web.touch_page(
                "http://docs.att.com/guide.html",
                "<HTML><H1>User Guide</H1><P>Version 1.1 of the guide. Now with an index.</HTML>",
                clock.now(),
            )
            .unwrap();
            web.touch_page(
                "http://site-a.org/rfc-index.html",
                "<HTML>RFCs through 1883 (IPv6!).</HTML>",
                clock.now(),
            )
            .unwrap();
        }
        let archived = docs.poll();
        let summary = tracker.poll_all();
        if archived > 0 || summary.changed > 0 || summary.new_archives > 0 {
            println!(
                "day {day:>2}: docs archived {archived} change(s); tracker: {} checked, {} changed, {} new",
                summary.checked, summary.changed, summary.new_archives
            );
        }
    }

    // The community What's New page.
    println!("\n===== community what's new =====");
    println!("{}", docs.render_whats_new("/cgi-bin/snapshot").unwrap());

    // Personalized server-side reports.
    for (name, user) in [("alice", &alice), ("bob", &bob)] {
        let fresh: Vec<String> = tracker
            .whats_new(user)
            .unwrap()
            .into_iter()
            .filter(|s| s.changed_for_user)
            .map(|s| s.url)
            .collect();
        println!("{name} has {} unseen page(s): {fresh:?}", fresh.len());
        if name == "alice" {
            for url in &fresh {
                tracker.mark_seen(user, url).unwrap();
            }
            println!(
                "alice catches up; unseen now: {}",
                tracker
                    .whats_new(user)
                    .unwrap()
                    .iter()
                    .filter(|s| s.changed_for_user)
                    .count()
            );
        }
    }

    let stats = snapshot.storage().unwrap();
    println!(
        "\nserver archive: {} URLs, {} revisions, {} bytes ({:.1} KB/URL)",
        stats.archives,
        stats.revisions,
        stats.bytes,
        stats.bytes_per_archive() / 1024.0
    );
}
