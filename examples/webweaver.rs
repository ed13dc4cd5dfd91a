//! WebWeaver: the collaborative-editing use case of §1.
//!
//! Run with: `cargo run -p aide --example webweaver`
//!
//! "Within AT&T, a clone of WikiWikiWeb, called WebWeaver, stores its own
//! version archive and uses HtmlDiff to show users the differences from
//! earlier versions of a page." Two authors edit a shared page; each can
//! ask "what changed since *my* last edit?" — the per-user personalized
//! view the paper calls a natural extension — and a RecentChanges page
//! sorts documents by modification date.

use aide_htmldiff::Options as DiffOptions;
use aide_rcs::repo::MemRepository;
use aide_snapshot::service::{SnapshotService, UserId};
use aide_util::time::{Clock, Duration, Timestamp};

fn main() {
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1996, 1, 8, 9, 0, 0));
    let wiki = SnapshotService::new(MemRepository::new(), clock.clone(), 1 << 20);
    let alice = UserId::new("alice@research.att.com");
    let bob = UserId::new("bob@research.att.com");

    let page = "http://webweaver.att.com/wiki/DesignNotes.html";

    // Alice writes the first version.
    wiki.remember(
        &alice,
        page,
        "<HTML><H1>Design Notes</H1>\
         <P>The cache layer needs a write-back policy. \
         We agreed to use per-URL locks.</HTML>",
    )
    .unwrap();
    println!("alice created {page} as 1.1");

    // Bob appends (the common wiki pattern) and edits in place (the
    // subtle one).
    clock.advance(Duration::hours(3));
    wiki.remember(
        &bob,
        page,
        "<HTML><H1>Design Notes</H1>\
         <P>The cache layer needs a write-through policy. \
         We agreed to use per-URL locks. \
         Bob: benchmarks suggest write-through is simpler and fast enough.</HTML>",
    )
    .unwrap();
    println!("bob edited {page} -> 1.2");

    // A second page, for RecentChanges.
    clock.advance(Duration::hours(1));
    wiki.remember(
        &alice,
        "http://webweaver.att.com/wiki/MeetingMinutes.html",
        "<HTML><H1>Meeting Minutes</H1><P>Next meeting Friday.</HTML>",
    )
    .unwrap();

    // Alice asks: what changed in DesignNotes since my last edit?
    let head = wiki.head(page).unwrap().expect("archived").0;
    let mine = wiki.last_seen(&alice, page).expect("alice has history");
    let diff = wiki
        .diff_versions(page, mine, head, &DiffOptions::default())
        .unwrap();
    println!("\n===== changes since alice's last edit ({mine} -> {head}) =====");
    println!("{}", diff.html);

    // RecentChanges: all wiki pages, newest head first.
    println!("===== RecentChanges =====");
    let mut pages: Vec<(String, Timestamp)> = wiki
        .archived_urls()
        .unwrap()
        .into_iter()
        .map(|u| {
            let (_, date) = wiki.head(&u).unwrap().expect("archived");
            (u, date)
        })
        .collect();
    pages.sort_by_key(|p| std::cmp::Reverse(p.1));
    for (url, date) in pages {
        println!("  {} — {}", date.to_http_date(), url);
    }
}
