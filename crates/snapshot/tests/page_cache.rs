//! The page cache holds a whole page's history.
//!
//! Sweeping every adjacent revision pair of one deep page, then every
//! revision, a second time must be served entirely from the cache: no
//! archive checkout, no tokenizing, no HtmlDiff run. Cache shards are
//! picked by the whole key, not by URL, so one hot page can use the
//! whole budget. This file holds a single test because it counts work
//! through the process-wide metrics registry.

use aide_htmldiff::Options as DiffOptions;
use aide_obs::MetricsRegistry;
use aide_rcs::archive::RevId;
use aide_rcs::repo::MemRepository;
use aide_snapshot::{SnapshotService, UserId};
use aide_util::time::{Clock, Duration, Timestamp};
use std::sync::Arc;

const URL: &str = "http://www.usenix.org/index.html";
const REVISIONS: u32 = 60;

/// Revision `rev` of a 40-sentence page: each revision rewrites one
/// sentence, so every adjacent pair differs a little.
fn body(rev: u32) -> String {
    let mut page = String::from("<HTML><BODY>\n");
    for s in 0..40u32 {
        let edit = (1..=rev).rev().find(|r| r % 40 == s).unwrap_or(0);
        page.push_str(&format!(
            "<P>Sentence {s} of the page, as of edit {edit}, with some filler words.\n"
        ));
    }
    page.push_str("</BODY></HTML>\n");
    page
}

/// Checkouts, tokenizer runs and HtmlDiff runs so far.
fn work(registry: &MetricsRegistry, s: &SnapshotService<MemRepository>) -> [u64; 3] {
    let snap = registry.snapshot();
    [
        snap.histograms
            .get("rcs.checkout.chain")
            .map_or(0, |h| h.count),
        snap.counters.get("htmldiff.tokenize").copied().unwrap_or(0),
        s.snapshot_stats().htmldiff_invocations,
    ]
}

#[test]
fn second_sweep_of_a_deep_page_does_no_work() {
    let clock = Clock::starting_at(Timestamp(1_000_000));
    let s = SnapshotService::new(MemRepository::new(), clock.clone(), 16 << 20);
    let user = UserId::new("fred@research.att.com");
    for rev in 1..=REVISIONS {
        s.remember(&user, URL, &body(rev)).unwrap();
        clock.advance(Duration::hours(1));
    }
    let opts = DiffOptions::default();
    let sweep = || {
        let diffs: Vec<_> = (1..REVISIONS)
            .map(|r| s.diff_versions(URL, RevId(r), RevId(r + 1), &opts).unwrap())
            .collect();
        let views: Vec<_> = (1..=REVISIONS)
            .map(|r| s.view(URL, RevId(r)).unwrap())
            .collect();
        (diffs, views)
    };

    let registry = Arc::new(MetricsRegistry::new());
    aide_obs::install(registry.clone());
    let (first_diffs, first_views) = sweep();
    let after_first = work(&registry, &s);
    let (second_diffs, second_views) = sweep();
    let after_second = work(&registry, &s);
    aide_obs::uninstall();

    assert!(first_diffs.iter().all(|d| !d.from_cache));
    assert_eq!(after_first[0], 2 * 59 + 60, "first sweep checks out");
    assert_eq!(after_first[2], 59, "first sweep runs HtmlDiff per pair");
    assert!(second_diffs.iter().all(|d| d.from_cache));
    assert_eq!(
        after_second, after_first,
        "second sweep: zero checkouts, tokenizer runs and HtmlDiff runs"
    );
    for (a, b) in first_diffs.iter().zip(&second_diffs) {
        assert_eq!(a.html, b.html);
    }
    assert_eq!(first_views, second_views);
    assert_eq!(s.diff_cache_stats().evictions(), 0);
}
