//! §4.1's Remember and Diff and §8.1's `rlog`, `co` and `rcsdiff` as
//! routes, under their own names and the paper's `cgi-bin` spellings;
//! escaped error details; refused absurd years.

mod common;

use aide_htmlkit::url::urlencode;
use aide_rcs::repo::Repository;
use aide_serve::AideServer;
use aide_util::time::Duration;
use common::{body, disk_server, get, get_with, header, ok, rev_dates, server, status_line};
use common::{URL, USER};

/// A non-HTML page, which `rcsdiff` answers with a line diff.
const TXT: &str = "http://www.usenix.org/notes.txt";

/// Tests that run `$check` on the in-memory and on the disk fixture.
macro_rules! on_both_backends {
    ($($name:ident => $check:ident),*) => {$(
        #[test]
        fn $name() {
            $check(&server());
            $check(&disk_server());
        }
    )*};
}

on_both_backends!(
    remember_then_diff_via_cgi => remember_then_diff,
    history_and_co => rlog_and_co,
    rcsdiff_html_vs_plain => rcsdiff,
    time_travel_by_date => co_by_date,
    error_paths => errors
);

fn remember_then_diff<R: Repository>(s: &AideServer<R>) {
    let page = ok(s, &format!("/remember?url={URL}&user={USER}"));
    assert!(page.contains("as revision 1.3 (unchanged)."), "{page}");
    let e = s.engine();
    e.clock().advance(Duration::days(1));
    let edit = "<HTML><P>version three body text, larger than before. plus more!</HTML>";
    e.web().touch_page(URL, edit, e.clock().now()).unwrap();
    // §6's Diff fetches the live page: never cached, never conditional.
    let resp = get(s, &format!("/diff?url={URL}&user={USER}"));
    assert_eq!(header(&resp, "Cache-Control"), Some("no-cache"));
    assert_eq!(header(&resp, "ETag"), None);
    assert!(body(&resp).contains("<STRONG><I>") && body(&resp).contains("plus more!"));
    // That Diff checked the live page in as 1.4.
    let form = format!("/cgi-bin/snapshot?op=remember&url={URL}&user={USER}");
    let page = ok(s, &form);
    assert!(page.contains("as revision 1.4 (unchanged)."), "{page}");
}

fn rlog_and_co<R: Repository>(s: &AideServer<R>) {
    let rlog = get(s, &format!("/rlog?url={URL}&user={USER}"));
    assert_eq!(rlog, get(s, &format!("/history?url={URL}&user={USER}")));
    assert!(body(&rlog).contains(">1.1</A>") && body(&rlog).contains("(seen)"));
    let diff_link = format!("/diff?url={}&from=1.2&to=1.3", urlencode(URL));
    assert!(body(&rlog).contains(&diff_link));
    // No user (What's New's History link carries none): no seen flags.
    let anon = ok(s, &format!("/cgi-bin/snapshot?op=rlog&url={URL}"));
    assert!(anon.contains(">1.3</A>") && !anon.contains("(seen)"));
    assert!(ok(s, &format!("/co?url={URL}&rev=1.1")).contains("version one body text."));
}

fn rcsdiff<R: Repository>(s: &AideServer<R>) {
    let e = s.engine();
    for text in ["line1\nline2\n", "line1\nlineTWO\n"] {
        e.clock().advance(Duration::days(1));
        e.web().set_page(TXT, text, e.clock().now()).unwrap();
        ok(s, &format!("/remember?url={TXT}&user={USER}"));
    }
    // "If the file's name ends in .html then HtmlDiff is used."
    let html = get(s, &format!("/cgi-bin/rcsdiff?url={URL}&from=1.1&to=1.2"));
    assert!(body(&html).contains("AIDE HtmlDiff"));
    let diff = get(s, &format!("/diff?url={URL}&from=1.1&to=1.2"));
    assert_eq!(header(&html, "ETag"), header(&diff, "ETag"));
    let target = format!("/rcsdiff?url={TXT}&from=1.1&to=1.2");
    let plain = get(s, &target);
    assert_eq!(header(&plain, "Content-Type"), Some("text/plain"));
    assert!(body(&plain).contains("-line2\n+lineTWO\n"), "{plain}");
    // Revisions are immutable, so the line diff is conditional too.
    let etag = header(&plain, "ETag").unwrap();
    let again = get_with(s, &target, &[("If-None-Match", etag)]);
    assert_eq!(status_line(&again), "HTTP/1.1 304 Not Modified");
}

fn co_by_date<R: Repository>(s: &AideServer<R>) {
    // §2.2's "time travel": `co -d` by RCS datestamp.
    let [t1, t2, _] = rev_dates();
    let between = (t1 + Duration::hours(12)).to_rcs_date();
    let resp = get(s, &format!("/view?url={URL}&date={between}"));
    assert!(body(&resp).contains("version one body text."));
    let by_rev = get(s, &format!("/view?url={URL}&rev=1.1"));
    assert_eq!(header(&resp, "ETag"), header(&by_rev, "ETag"));
    let page = ok(s, &format!("/co?url={URL}&date={}", t2.to_rcs_date()));
    assert!(page.contains("version two body text."));
}

fn errors<R: Repository>(s: &AideServer<R>) {
    for (target, status) in [
        // Strict `co -d`, unlike the Memento routes: before the first
        // revision is a 404. A bad date, or no rev nor date, is a 400.
        (format!("/view?url={URL}&date=1980.01.01.00.00.00"), 404),
        (format!("/view?url={URL}&date=not-a-date"), 400),
        (format!("/view?url={URL}&rev=bad"), 400),
        (format!("/view?url={URL}"), 400),
        (format!("/remember?url={URL}"), 400),
        (format!("/remember?url=http://gone-host/&user={USER}"), 502),
        (format!("/diff?url={URL}"), 400),
        (format!("/diff?url={URL}&from=1.1"), 400),
        (format!("/diff?url=http://gone-host/&user={USER}"), 502),
        (format!("/rcsdiff?url={URL}&from=bad&to=1.2"), 400),
        (format!("/rcsdiff?url={TXT}&from=1.1&to=1.2"), 404),
        ("/history?user=u".to_string(), 400),
        ("/history?url=http://never/".to_string(), 404),
        ("/history?url=%a\u{e9}".to_string(), 404),
        ("/cgi-bin/snapshot?op=bogus&url=x".to_string(), 404),
    ] {
        let resp = get(s, &target);
        assert!(
            resp.starts_with(&format!("HTTP/1.1 {status} ")),
            "{target}: {resp}"
        );
    }
}

#[test]
fn remember_is_never_conditional() {
    let target = format!("/remember?url={URL}&user={USER}");
    let resp = get_with(&server(), &target, &[("If-None-Match", "*")]);
    assert_eq!(status_line(&resp), "HTTP/1.1 200 OK");
    assert_eq!(header(&resp, "Cache-Control"), Some("no-store"));
    assert_eq!(header(&resp, "ETag"), None);
}

#[test]
fn route_miss_detail_is_escaped() {
    let resp = get(&server(), "/nowhere<script>x</script>");
    assert!(
        resp.contains("no such route /nowhere&lt;script&gt;x"),
        "{resp}"
    );
    assert!(!resp.contains("<script"));
}

#[test]
fn never_archived_url_is_escaped() {
    let resp = get(&server(), "/history?url=%3Cscript%3Ex%3C%2Fscript%3E");
    assert_eq!(status_line(&resp), "HTTP/1.1 404 Not Found");
    assert!(resp.contains("&lt;script&gt;x") && !resp.contains("<script"));
}

#[test]
fn thirteen_digit_years_are_400() {
    let (s, stamp) = (server(), "1000000000000.01.01.00.00.00");
    let huge = [("Accept-Datetime", "Sat, 01 Jan 1000000000000 00:00:00 GMT")];
    for resp in [
        get(&s, &format!("/memento/{stamp}/{URL}")),
        get(&s, &format!("/view?url={URL}&date={stamp}")),
        get_with(&s, &format!("/timegate/{URL}"), &huge),
    ] {
        assert_eq!(status_line(&resp), "HTTP/1.1 400 Bad Request", "{resp}");
    }
}
