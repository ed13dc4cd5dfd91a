//! Memento (RFC 7089) conformance suite.
//!
//! TimeGate negotiation edge cases, TimeMap listings and pagination,
//! and the required headers — `Vary: accept-datetime`, `Link`,
//! `Memento-Datetime` — asserted byte for byte against the fixture
//! archive (three revisions at known virtual instants).
//!
//! The final test replays a fixed request script and, when
//! `AIDE_SERVE_DUMP` names a file, writes the full wire transcript
//! there; ci.sh runs it twice and `cmp`s the dumps, pinning the whole
//! serving layer — parser, router, renderer, cache — to byte-identical
//! behaviour across runs.

mod common;

use aide_serve::ServeConfig;
use common::{get, get_with, header, rev_dates, server, server_with, status_line, URL};

#[test]
fn timegate_without_accept_datetime_picks_latest() {
    let s = server();
    let [_, _, t3] = rev_dates();
    let resp = get(&s, &format!("/timegate/{URL}"));
    assert_eq!(status_line(&resp), "HTTP/1.1 302 Found");
    assert_eq!(header(&resp, "Vary"), Some("accept-datetime"));
    assert_eq!(
        header(&resp, "Location"),
        Some(format!("/memento/{}/{URL}", t3.to_rcs_date()).as_str())
    );
}

#[test]
fn timegate_malformed_accept_datetime_is_400() {
    let s = server();
    for bad in [
        "yesterday",
        "1995-09-11T12:00:00Z",
        "Mon, 32 Sep 1995 12:00:00 GMT",
        "Mon, 11 Sep 1995 12:00:00",
    ] {
        let resp = get_with(&s, &format!("/timegate/{URL}"), &[("Accept-Datetime", bad)]);
        assert_eq!(
            status_line(&resp),
            "HTTP/1.1 400 Bad Request",
            "Accept-Datetime {bad:?}"
        );
        // Even the error advertises that this resource negotiates.
        assert_eq!(header(&resp, "Vary"), Some("accept-datetime"));
    }
}

#[test]
fn timegate_clamps_before_first_and_after_last() {
    let s = server();
    let [t1, _, t3] = rev_dates();
    // A datetime years before the first revision clamps to the first.
    let resp = get_with(
        &s,
        &format!("/timegate/{URL}"),
        &[("Accept-Datetime", "Thu, 01 Jan 1970 00:00:00 GMT")],
    );
    assert_eq!(status_line(&resp), "HTTP/1.1 302 Found");
    assert_eq!(
        header(&resp, "Location"),
        Some(format!("/memento/{}/{URL}", t1.to_rcs_date()).as_str())
    );
    // A datetime after the last clamps to the last.
    let resp = get_with(
        &s,
        &format!("/timegate/{URL}"),
        &[("Accept-Datetime", "Sat, 01 Jan 2000 00:00:00 GMT")],
    );
    assert_eq!(
        header(&resp, "Location"),
        Some(format!("/memento/{}/{URL}", t3.to_rcs_date()).as_str())
    );
}

#[test]
fn timegate_selects_nearest_revision() {
    let s = server();
    let [t1, t2, _] = rev_dates();
    // Two days after rev 1: rev 1 is nearer than rev 2 (ten days apart).
    let near_first = t1 + aide_util::time::Duration::days(2);
    let resp = get_with(
        &s,
        &format!("/timegate/{URL}"),
        &[("Accept-Datetime", near_first.to_http_date().as_str())],
    );
    assert_eq!(
        header(&resp, "Location"),
        Some(format!("/memento/{}/{URL}", t1.to_rcs_date()).as_str())
    );
    // Two days before rev 2: rev 2 wins.
    let near_second = t2 - aide_util::time::Duration::days(2);
    let resp = get_with(
        &s,
        &format!("/timegate/{URL}"),
        &[("Accept-Datetime", near_second.to_http_date().as_str())],
    );
    assert_eq!(
        header(&resp, "Location"),
        Some(format!("/memento/{}/{URL}", t2.to_rcs_date()).as_str())
    );
    // An exact revision instant names that revision.
    let resp = get_with(
        &s,
        &format!("/timegate/{URL}"),
        &[("Accept-Datetime", t2.to_http_date().as_str())],
    );
    assert_eq!(
        header(&resp, "Location"),
        Some(format!("/memento/{}/{URL}", t2.to_rcs_date()).as_str())
    );
}

#[test]
fn timegate_link_header_byte_for_byte() {
    let s = server();
    let [_, t2, _] = rev_dates();
    let resp = get_with(
        &s,
        &format!("/timegate/{URL}"),
        &[("Accept-Datetime", t2.to_http_date().as_str())],
    );
    let expected = format!(
        "Link: <{URL}>; rel=\"original\", \
         </timemap/{URL}>; rel=\"timemap\"; type=\"application/link-format\", \
         </memento/{stamp}/{URL}>; rel=\"memento\"; datetime=\"{dt}\"\r\n",
        stamp = t2.to_rcs_date(),
        dt = t2.to_http_date(),
    );
    assert!(resp.contains(&expected), "missing Link header in:\n{resp}");
    assert!(resp.contains("Vary: accept-datetime\r\n"));
}

#[test]
fn timegate_unknown_url_is_404() {
    let s = server();
    let resp = get(&s, "/timegate/http://never.example.com/");
    assert_eq!(status_line(&resp), "HTTP/1.1 404 Not Found");
    let resp = get(&s, "/timegate/");
    assert_eq!(status_line(&resp), "HTTP/1.1 400 Bad Request");
}

#[test]
fn memento_exact_stamp_serves_archived_body() {
    let s = server();
    let [_, t2, _] = rev_dates();
    let resp = get(&s, &format!("/memento/{}/{URL}", t2.to_rcs_date()));
    assert_eq!(status_line(&resp), "HTTP/1.1 200 OK");
    // The two RFC 7089 response requirements, byte for byte.
    assert!(
        resp.contains(&format!("Memento-Datetime: {}\r\n", t2.to_http_date())),
        "missing Memento-Datetime in:\n{resp}"
    );
    let expected_link = format!(
        "Link: <{URL}>; rel=\"original\", \
         </timegate/{URL}>; rel=\"timegate\", \
         </timemap/{URL}>; rel=\"timemap\"; type=\"application/link-format\"\r\n"
    );
    assert!(resp.contains(&expected_link), "missing Link in:\n{resp}");
    assert!(resp.contains("version two body text."));
    // Archived copies carry the BASE rewrite, like /view.
    assert!(resp.contains("BASE"));
}

#[test]
fn memento_inexact_stamp_redirects_to_canonical() {
    let s = server();
    let [t1, _, _] = rev_dates();
    let off = t1 + aide_util::time::Duration::hours(3);
    let resp = get(&s, &format!("/memento/{}/{URL}", off.to_rcs_date()));
    assert_eq!(status_line(&resp), "HTTP/1.1 302 Found");
    assert_eq!(
        header(&resp, "Location"),
        Some(format!("/memento/{}/{URL}", t1.to_rcs_date()).as_str())
    );
    // Bad datestamp and missing URL are client errors, not panics.
    assert_eq!(
        status_line(&get(&s, &format!("/memento/not-a-date/{URL}"))),
        "HTTP/1.1 400 Bad Request"
    );
    assert_eq!(
        status_line(&get(&s, "/memento/1995.09.01.12.00.00/")),
        "HTTP/1.1 400 Bad Request"
    );
}

#[test]
fn timemap_lists_all_mementos_in_link_format() {
    let s = server();
    let [t1, t2, t3] = rev_dates();
    let resp = get(&s, &format!("/timemap/{URL}"));
    assert_eq!(status_line(&resp), "HTTP/1.1 200 OK");
    assert_eq!(
        header(&resp, "Content-Type"),
        Some("application/link-format")
    );
    let body = resp.split("\r\n\r\n").nth(1).unwrap();
    assert!(body.starts_with(&format!("<{URL}>;rel=\"original\",\n")));
    assert!(body.contains(&format!("</timegate/{URL}>;rel=\"timegate\",\n")));
    assert!(body.contains(&format!(
        "</timemap/{URL}>;rel=\"self\";type=\"application/link-format\",\n"
    )));
    assert!(body.contains(&format!(
        "</memento/{}/{URL}>;rel=\"first memento\";datetime=\"{}\",\n",
        t1.to_rcs_date(),
        t1.to_http_date()
    )));
    assert!(body.contains(&format!(
        "</memento/{}/{URL}>;rel=\"memento\";datetime=\"{}\",\n",
        t2.to_rcs_date(),
        t2.to_http_date()
    )));
    // The last entry ends the list without a trailing comma.
    assert!(body.ends_with(&format!(
        "</memento/{}/{URL}>;rel=\"last memento\";datetime=\"{}\"\n",
        t3.to_rcs_date(),
        t3.to_http_date()
    )));
}

#[test]
fn timemap_paginates() {
    let s = server_with(ServeConfig {
        timemap_page: 2,
        ..ServeConfig::default()
    });
    let [t1, t2, t3] = rev_dates();
    // Page 0: two mementos and a next link.
    let resp = get(&s, &format!("/timemap/{URL}"));
    let body = resp.split("\r\n\r\n").nth(1).unwrap();
    assert!(body.contains(&t1.to_rcs_date()));
    assert!(body.contains(&t2.to_rcs_date()));
    assert!(!body.contains(&t3.to_rcs_date()));
    assert!(body.contains(&format!(
        "</timemap/1/{URL}>;rel=\"next\";type=\"application/link-format\",\n"
    )));
    assert!(!body.contains("rel=\"prev\""));
    // Page 1: the last memento and a prev link back to page 0.
    let resp = get(&s, &format!("/timemap/1/{URL}"));
    let body = resp.split("\r\n\r\n").nth(1).unwrap();
    assert!(!body.contains(&t1.to_rcs_date()));
    assert!(body.contains(&format!(
        "</memento/{}/{URL}>;rel=\"last memento\"",
        t3.to_rcs_date()
    )));
    assert!(body.contains(&format!(
        "</timemap/{URL}>;rel=\"prev\";type=\"application/link-format\",\n"
    )));
    // Past the end: 404. Unknown URL: 404.
    assert_eq!(
        status_line(&get(&s, &format!("/timemap/2/{URL}"))),
        "HTTP/1.1 404 Not Found"
    );
    assert_eq!(
        status_line(&get(&s, "/timemap/http://never.example.com/")),
        "HTTP/1.1 404 Not Found"
    );
}

#[test]
fn deterministic_transcript() {
    // A fixed request script over a fresh fixture. The transcript is a
    // pure function of the fixture: ci.sh runs this test twice with
    // AIDE_SERVE_DUMP set and cmp's the two files.
    let [t1, t2, _] = rev_dates();
    let script: Vec<String> = vec![
        "/".to_string(),
        format!("/history?url={URL}&user={}", common::USER),
        format!("/diff?url={URL}&from=1.1&to=1.2"),
        format!("/view?url={URL}&rev=1.1"),
        format!("/timegate/{URL}"),
        format!("/timemap/{URL}"),
        format!("/memento/{}/{URL}", t1.to_rcs_date()),
        format!("/memento/{}/{URL}", t2.to_rcs_date()),
        format!("/diff?url={URL}&from=1.1&to=1.2"), // page-cache replay
        "/nowhere".to_string(),
        format!("/rlog?url={URL}&user={}", common::USER),
        format!("/co?url={URL}&rev=1.2"),
        format!("/rcsdiff?url={URL}&from=1.2&to=1.3"),
        format!("/view?url={URL}&date={}", t2.to_rcs_date()),
        format!("/remember?url={URL}&user={}", common::USER),
    ];
    let run = || {
        let s = server();
        let mut transcript = String::new();
        for target in &script {
            transcript.push_str(&format!(">>> GET {target}\n"));
            transcript.push_str(&get(&s, target));
            transcript.push('\n');
        }
        transcript
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "two fixture runs must be byte-identical");
    if let Ok(path) = std::env::var("AIDE_SERVE_DUMP") {
        std::fs::write(path, a).unwrap();
    }
}
