//! Conditional GET and page-cache correctness.
//!
//! The ETag scheme is content-derived (FNV over immutable archive
//! identifiers — see DESIGN.md §4j), which makes three strong promises
//! testable: the same page has the same ETag on the in-memory and disk
//! backends, ETags survive a full storage restart, and `If-None-Match`
//! answers 304 without invoking HtmlDiff or even probing the page
//! cache. Counters (the page cache's hits and misses plus the snapshot
//! service's `htmldiff_invocations`) prove the zero-work claims rather
//! than trusting the status code.

mod common;

use aide::engine::AideEngine;
use aide_serve::AideServer;
use aide_store::{DiskRepository, StoreOptions};
use aide_util::time::Duration;
use aide_util::vfs::{MemVfs, Vfs};
use common::{fixture_web, get, get_with, header, populate, server, status_line, URL, USER};
use std::sync::Arc;

/// The fixture on the persistent backend over a shared in-memory VFS.
fn disk_server(vfs: Arc<MemVfs>) -> AideServer<DiskRepository> {
    let repo = DiskRepository::open(vfs as Arc<dyn Vfs>, "aide", StoreOptions::default()).unwrap();
    let engine = Arc::new(AideEngine::with_repository(fixture_web(), repo));
    populate(&engine);
    AideServer::new(engine)
}

/// A server over an already-populated store: reopen, register the user,
/// but do not re-remember anything.
fn reopened_server(vfs: Arc<MemVfs>) -> AideServer<DiskRepository> {
    let repo = DiskRepository::open(vfs as Arc<dyn Vfs>, "aide", StoreOptions::default()).unwrap();
    let engine = Arc::new(AideEngine::with_repository(fixture_web(), repo));
    engine.register_user(USER, aide_w3newer::config::ThresholdConfig::default());
    AideServer::new(engine)
}

fn etag_of(server_resp: &str) -> String {
    header(server_resp, "ETag")
        .unwrap_or_else(|| panic!("no ETag in:\n{server_resp}"))
        .to_string()
}

#[test]
fn etags_are_stable_and_present_on_cacheable_routes() {
    let s = server();
    for target in [
        format!("/diff?url={URL}&from=1.1&to=1.2"),
        format!("/view?url={URL}&rev=1.2"),
        format!("/history?url={URL}&user={USER}"),
        format!("/timemap/{URL}"),
    ] {
        let first = get(&s, &target);
        assert_eq!(status_line(&first), "HTTP/1.1 200 OK", "{target}");
        let second = get(&s, &target);
        assert_eq!(etag_of(&first), etag_of(&second), "{target}");
    }
    // The report is dynamic: no ETag, explicitly uncacheable.
    let report = get(&s, &format!("/report?user={USER}"));
    assert_eq!(header(&report, "ETag"), None);
    assert_eq!(header(&report, "Cache-Control"), Some("no-cache"));
}

#[test]
fn etags_agree_across_backends() {
    let mem = server();
    let disk = disk_server(MemVfs::shared());
    for target in [
        format!("/diff?url={URL}&from=1.1&to=1.3"),
        format!("/view?url={URL}&rev=1.1"),
        format!("/history?url={URL}&user={USER}"),
        format!("/timemap/{URL}"),
    ] {
        let a = get(&mem, &target);
        let b = get(&disk, &target);
        assert_eq!(etag_of(&a), etag_of(&b), "{target}");
        // Not just the tag: the whole page agrees.
        assert_eq!(
            a.split("\r\n\r\n").nth(1),
            b.split("\r\n\r\n").nth(1),
            "{target}"
        );
    }
}

#[test]
fn etags_survive_storage_restart() {
    let vfs = MemVfs::shared();
    let target = format!("/diff?url={URL}&from=1.1&to=1.2");
    let view = format!("/view?url={URL}&rev=1.3");
    let (etag_diff, etag_view) = {
        let s = disk_server(vfs.clone());
        (etag_of(&get(&s, &target)), etag_of(&get(&s, &view)))
    };
    // A brand-new server over a reopened repository: recovery replays
    // the WAL/segments, and the same pages carry the same tags.
    let s = reopened_server(vfs);
    assert_eq!(etag_of(&get(&s, &target)), etag_diff);
    assert_eq!(etag_of(&get(&s, &view)), etag_view);
    // ...so a client resuming with its old validator gets a 304.
    let resp = get_with(&s, &target, &[("If-None-Match", &etag_diff)]);
    assert_eq!(status_line(&resp), "HTTP/1.1 304 Not Modified");
}

#[test]
fn if_none_match_answers_304_with_zero_recomputation() {
    let s = server();
    let target = format!("/diff?url={URL}&from=1.2&to=1.3");
    let first = get(&s, &target);
    let etag = etag_of(&first);
    let rendered = s.engine().snapshot().snapshot_stats().htmldiff_invocations;
    let misses = s.cache_stats().misses();
    let hits = s.cache_stats().hits();

    for _ in 0..5 {
        let resp = get_with(&s, &target, &[("If-None-Match", &etag)]);
        assert_eq!(status_line(&resp), "HTTP/1.1 304 Not Modified");
        assert_eq!(header(&resp, "ETag").unwrap(), etag);
        assert!(!resp.contains("<HTML"), "304 carries no body");
    }
    let stats = s.engine().snapshot().snapshot_stats();
    assert_eq!(
        stats.htmldiff_invocations, rendered,
        "304 path must not touch HtmlDiff"
    );
    assert_eq!(s.cache_stats().misses(), misses, "no page-cache miss");
    assert_eq!(s.cache_stats().hits(), hits, "not even a cache probe");
    assert_eq!(s.stats().not_modified(), 5);

    // A stale validator still gets the full page.
    let resp = get_with(&s, &target, &[("If-None-Match", "\"v-0000000000000000\"")]);
    assert_eq!(status_line(&resp), "HTTP/1.1 200 OK");
}

#[test]
fn render_cache_replays_without_rerendering() {
    let s = server();
    let target = format!("/diff?url={URL}&from=1.1&to=1.2");
    let first = get(&s, &target);
    let after_first = s.engine().snapshot().snapshot_stats().htmldiff_invocations;
    assert_eq!(s.cache_stats().misses(), 1);
    let second = get(&s, &target);
    assert_eq!(first, second, "replayed page is byte-identical");
    assert_eq!(s.cache_stats().hits(), 1);
    assert_eq!(
        s.engine().snapshot().snapshot_stats().htmldiff_invocations,
        after_first,
        "second request came from the page cache"
    );
}

#[test]
fn new_checkin_invalidates_history_but_not_old_diffs() {
    let s = server();
    let history = format!("/history?url={URL}&user={USER}");
    let diff = format!("/diff?url={URL}&from=1.1&to=1.2");
    let old_history_etag = etag_of(&get(&s, &history));
    let old_diff_etag = etag_of(&get(&s, &diff));

    // A fourth revision arrives.
    let e = s.engine();
    e.clock().advance(Duration::days(5));
    e.web()
        .touch_page(
            URL,
            "<HTML><P>version four body text.</HTML>",
            e.clock().now(),
        )
        .unwrap();
    e.remember(USER, URL).unwrap();

    // The history page changed identity: the old validator re-fetches.
    let resp = get_with(&s, &history, &[("If-None-Match", &old_history_etag)]);
    assert_eq!(status_line(&resp), "HTTP/1.1 200 OK");
    assert_ne!(etag_of(&resp), old_history_etag);
    assert!(resp.contains("1.4"));

    // Immutable revision pairs keep their identity: still a 304.
    let resp = get_with(&s, &diff, &[("If-None-Match", &old_diff_etag)]);
    assert_eq!(status_line(&resp), "HTTP/1.1 304 Not Modified");

    // The timemap also rolls over (it now lists four mementos).
    let timemap = format!("/timemap/{URL}");
    assert!(get(&s, &timemap).contains("1995.09.26."));
}

#[test]
fn seen_flags_are_part_of_the_history_identity() {
    // Viewing a diff marks revisions seen, which changes the *content*
    // of the history page — so it must change the ETag too, or a
    // conditional client would cache a stale "unseen" page forever.
    let s = server();
    let history = format!("/history?url={URL}&user={USER}");
    let before = etag_of(&get(&s, &history));
    // remember() during fixture setup already marked everything seen;
    // register a second user whose control file is empty.
    s.engine().register_user(
        "observer@x",
        aide_w3newer::config::ThresholdConfig::default(),
    );
    let other = format!("/history?url={URL}&user=observer@x");
    let other_etag = etag_of(&get(&s, &other));
    assert_ne!(before, other_etag, "different seen-state, different tag");
}
