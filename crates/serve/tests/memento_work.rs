//! Memento routes read only revision metadata until they must render.
//!
//! `/timegate` only picks a revision, and a conditional `/memento` repeat
//! is answered 304 from its ETag, so neither may check a revision out of
//! the archive; a cold `/memento` checks out exactly once. Checkouts are
//! counted as `rcs.checkout.chain` observations through the process-wide
//! metrics registry, so this file holds a single test.

mod common;

use aide_obs::MetricsRegistry;
use common::{get, get_with, header, rev_dates, server, status_line, URL};
use std::sync::Arc;

#[test]
fn timegate_and_conditional_memento_do_zero_checkouts() {
    let s = server();
    let [t1, t2, _] = rev_dates();
    let memento = format!("/memento/{}/{URL}", t2.to_rcs_date());
    let etag = header(&get(&s, &memento), "ETag").unwrap().to_string();

    let checkouts = |run: &dyn Fn()| {
        let registry = Arc::new(MetricsRegistry::new());
        aide_obs::install(registry.clone());
        run();
        aide_obs::uninstall();
        registry
            .snapshot()
            .histograms
            .get("rcs.checkout.chain")
            .map_or(0, |h| h.count)
    };

    let quiet = checkouts(&|| {
        let resp = get_with(&s, &memento, &[("If-None-Match", &etag)]);
        assert_eq!(status_line(&resp), "HTTP/1.1 304 Not Modified");
        for accept in [None, Some(t1.to_http_date())] {
            let headers: Vec<(&str, &str)> = accept
                .iter()
                .map(|d| ("Accept-Datetime", d.as_str()))
                .collect();
            let resp = get_with(&s, &format!("/timegate/{URL}"), &headers);
            assert_eq!(status_line(&resp), "HTTP/1.1 302 Found");
        }
    });
    assert_eq!(quiet, 0, "a 304 memento and a TimeGate check nothing out");

    // The counter does see checkouts: a cold memento pays exactly one,
    // and its repeat is served from the page cache.
    let cold = format!("/memento/{}/{URL}", t1.to_rcs_date());
    let rendered = checkouts(&|| {
        for _ in 0..2 {
            assert_eq!(status_line(&get(&s, &cold)), "HTTP/1.1 200 OK");
        }
    });
    assert_eq!(rendered, 1);
}
