//! Every link AIDE prints resolves on aide-serve: Figure 1's Remember,
//! Diff and History (§6), the History page's view and diff links
//! (§8.1), What's New's `rcsdiff` and `rlog` (§8.2), and the index's
//! TimeMap links with every Memento link they lead to, each clicked
//! exactly as printed.

mod common;

use aide::engine::AideEngine;
use aide::fixed::FixedCollection;
use aide_htmlkit::entity::{decode_entities, encode_entities};
use aide_htmlkit::url::{percent_decode, urlencode};
use aide_rcs::repo::MemRepository;
use aide_serve::AideServer;
use aide_simweb::net::Web;
use aide_snapshot::service::SnapshotService;
use aide_util::time::{Clock, Duration, Timestamp};
use aide_w3newer::config;
use aide_workloads::usenix::{USENIX_1995_09_29, USENIX_1995_11_03};
use common::{get, header, ok, status_line, URL};
use std::sync::Arc;

const USER: &str = "douglis@research.att.com";

/// The first link in `html` whose target contains `marker`.
fn link(html: &str, marker: &str) -> String {
    html.split("HREF=\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .find(|href| href.contains(marker))
        .unwrap_or_else(|| panic!("no {marker} link in: {html}"))
        .to_string()
}

#[test]
fn report_links_drive_the_full_cycle() {
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 10, 15, 9, 0, 0));
    let web = Web::new(clock.clone());
    let published = Timestamp::from_ymd_hms(1995, 9, 29, 12, 0, 0);
    web.set_page(URL, USENIX_1995_09_29, published).unwrap();
    let engine = AideEngine::new(web.clone());
    engine
        .register_user(USER, config::table1())
        .add_bookmark("USENIX Association", URL);
    let server = AideServer::new(Arc::new(engine));
    // A §8.2 collection archiving the same page on its own.
    let snapshot = SnapshotService::new(MemRepository::new(), clock.clone(), 1 << 20);
    let docs = FixedCollection::new("Conferences", web.clone(), Arc::new(snapshot));
    docs.add("USENIX", URL);
    docs.poll();

    // 1. The tracker reports the page as changed (never seen).
    let report_url = "/report?user=douglis%40research.att.com";
    let report = ok(&server, report_url);
    assert!(report.contains("Changed pages") && report.contains("USENIX Association"));

    // 2. Click Remember.
    let page = ok(&server, &link(&report, "op=remember"));
    assert!(page.contains("as revision 1.1."), "{page}");

    // 3. The page changes (the 11/3 edition); the next report flags it.
    clock.advance(Duration::days(35));
    web.touch_page(URL, USENIX_1995_11_03, clock.now()).unwrap();
    docs.poll();
    let report = ok(&server, report_url);

    // 4. Click Diff: Figure 2's strike-outs and the new conference.
    let page = ok(&server, &link(&report, "op=diff"));
    assert!(page.contains("AIDE HtmlDiff"));
    assert!(page.contains("<STRIKE>"), "Figure 2 strike-outs present");
    assert!(page.contains("COOTS"), "new conference appears");

    // 5. Click History: both revisions, then its view and diff links.
    let history = ok(&server, &link(&report, "op=history"));
    assert!(history.contains(">1.1</A>") && history.contains(">1.2</A>"));
    let page = ok(&server, &link(&history, "/view?"));
    assert!(page.contains("USENIX"), "archived copy served");
    assert!(page.contains("BASE HREF"), "relative links fixed up");
    let page = ok(&server, &link(&history, "/diff?"));
    assert!(page.contains("AIDE HtmlDiff"));

    // 6. What's New's Diff and History links.
    let whats_new = docs.render_whats_new("/cgi-bin/snapshot").unwrap();
    let page = ok(&server, &link(&whats_new, "op=rcsdiff"));
    assert!(page.contains("AIDE HtmlDiff"));
    let page = ok(&server, &link(&whats_new, "op=rlog"));
    assert!(page.contains(&format!("Versions of {URL}")));
}

/// Asserts that every `HREF="…"` in `html` ends where its attribute
/// does: no raw `"` inside a link target.
fn assert_hrefs_closed(html: &str) {
    for rest in html.split("HREF=\"").skip(1) {
        let end = rest.find('"').expect("closing quote");
        assert!(
            rest[end + 1..].starts_with('>'),
            "raw quote in href: {rest}"
        );
    }
}

#[test]
fn urls_with_ampersands_and_quotes_survive_index_and_history_links() {
    // Percent-encoded query values: `&` no longer splits the URL, and
    // `"` no longer ends the attribute.
    let web = common::fixture_web();
    let engine = AideEngine::new(web.clone());
    engine.register_user(USER, config::table1());
    let urls = [
        "http://www.usenix.org/q?a=1&b=2",
        "http://www.usenix.org/say\"hi\".html",
    ];
    for (k, body) in ["<P>first text.", "<P>second text."].iter().enumerate() {
        engine.clock().advance(Duration::days(1));
        for url in urls {
            if k == 0 {
                web.set_page(url, body, engine.clock().now()).unwrap();
            } else {
                web.touch_page(url, body, engine.clock().now()).unwrap();
            }
            engine.remember(USER, url).unwrap();
        }
    }
    let server = AideServer::new(Arc::new(engine));
    let index = ok(&server, "/");
    assert_hrefs_closed(&index);
    for url in urls {
        let history = ok(&server, &link(&index, &format!("?url={}", urlencode(url))));
        assert!(history.contains(&format!("Versions of {}", encode_entities(url))));
        assert_hrefs_closed(&history);
        let page = ok(&server, &link(&history, "/view?"));
        assert!(page.contains("second text."), "{page}");
        let page = ok(&server, &link(&history, "/diff?"));
        assert!(page.contains("AIDE HtmlDiff") && page.contains("second"));
    }
}

/// One entry of a link-format list (RFC 6690): its target and its
/// parameters.
struct Link {
    target: String,
    params: Vec<(String, String)>,
}

impl Link {
    fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses a whole link-format list — a TimeMap body or a `Link`
/// header — strictly: every entry is `<target>` followed by
/// `;name=value` or `;name="value"` parameters, entries are separated by
/// commas, and each target is a URI reference (no space, `"`, `<` or
/// `>`). Panics on anything else.
fn parse_links(list: &str) -> Vec<Link> {
    let mut links = Vec::new();
    let mut rest = list.trim();
    while !rest.is_empty() {
        let body = rest
            .strip_prefix('<')
            .unwrap_or_else(|| panic!("entry does not open with '<': {rest:?} in {list:?}"));
        let (target, after) = body
            .split_once('>')
            .unwrap_or_else(|| panic!("unclosed target in {list:?}"));
        assert!(
            !target.contains([' ', '"', '<']),
            "target {target:?} is not a URI reference in {list:?}"
        );
        let mut params = Vec::new();
        rest = after.trim_start();
        while let Some(param) = rest.strip_prefix(';') {
            let param = param.trim_start();
            let (name, value) = param
                .split_once('=')
                .unwrap_or_else(|| panic!("parameter without a value in {list:?}"));
            let (value, tail) = match value.strip_prefix('"') {
                Some(quoted) => {
                    let (v, tail) = quoted
                        .split_once('"')
                        .unwrap_or_else(|| panic!("unclosed quote in {list:?}"));
                    (v, tail)
                }
                None => {
                    let end = value.find([';', ',']).unwrap_or(value.len());
                    value.split_at(end)
                }
            };
            assert!(
                !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric()),
                "bad parameter name {name:?} in {list:?}"
            );
            params.push((name.to_string(), value.to_string()));
            rest = tail.trim_start();
        }
        links.push(Link {
            target: target.to_string(),
            params,
        });
        rest = match rest.strip_prefix(',') {
            Some(next) => next.trim_start(),
            None => {
                assert!(rest.is_empty(), "junk after an entry: {rest:?} in {list:?}");
                rest
            }
        };
    }
    links
}

/// The server-local targets (`</…>`) of a link-format list.
fn link_targets(links: &[Link]) -> Vec<String> {
    links
        .iter()
        .filter(|l| l.target.starts_with('/'))
        .map(|l| l.target.clone())
        .collect()
}

/// GETs `target`, follows one redirect, and asserts that the page is
/// the memento or TimeMap of `url`: its whole `Link` header, or its
/// whole TimeMap body, parses, and its one `rel="original"` entry names
/// `url`. Returns the final response.
fn follow_memento_link(server: &AideServer, target: &str, url: &str) -> String {
    let mut resp = get(server, target);
    if status_line(&resp) == "HTTP/1.1 302 Found" {
        let location = header(&resp, "Location").expect("Location").to_string();
        resp = get(server, &location);
    }
    assert_eq!(status_line(&resp), "HTTP/1.1 200 OK", "{target}: {resp}");
    let list = header(&resp, "Link").unwrap_or_else(|| common::body(&resp));
    assert_original_is(&parse_links(list), url);
    resp
}

/// Asserts that exactly one entry is `rel="original"` and that its
/// target names `url`.
fn assert_original_is(links: &[Link], url: &str) {
    let originals: Vec<&Link> = links
        .iter()
        .filter(|l| l.param("rel") == Some("original"))
        .collect();
    assert_eq!(originals.len(), 1, "one original link for {url}");
    assert_eq!(percent_decode(&originals[0].target), percent_decode(url));
}

#[test]
fn memento_links_resolve_for_urls_with_quotes_spaces_ampersands_and_percents() {
    let web = common::fixture_web();
    let engine = AideEngine::new(web.clone());
    engine.register_user(USER, config::table1());
    let urls = [
        "http://www.usenix.org/say\"hi\".html",
        "http://www.usenix.org/two words.html",
        "http://www.usenix.org/q?a=1&b=2",
        "http://www.usenix.org/50%off%41.html",
    ];
    for (k, body) in ["<P>first text.", "<P>second text."].iter().enumerate() {
        engine.clock().advance(Duration::days(1));
        for url in urls {
            if k == 0 {
                web.set_page(url, body, engine.clock().now()).unwrap();
            } else {
                web.touch_page(url, body, engine.clock().now()).unwrap();
            }
            engine.remember(USER, url).unwrap();
        }
    }
    let server = AideServer::new(Arc::new(engine));
    let index = ok(&server, "/");
    for url in urls {
        // The index line of `url`, and its TimeMap link as a browser
        // reads the attribute.
        let line = index
            .lines()
            .find(|l| l.contains(&format!("?url={}\"", urlencode(url))))
            .unwrap_or_else(|| panic!("no index line for {url}: {index}"));
        let timemap = decode_entities(&link(line, "/timemap/")).into_owned();
        let resp = follow_memento_link(&server, &timemap, url);
        let links = parse_links(common::body(&resp));
        let rels: Vec<_> = links.iter().map(|l| l.param("rel").unwrap_or("")).collect();
        assert_eq!(
            rels,
            [
                "original",
                "timegate",
                "self",
                "first memento",
                "last memento"
            ],
            "{resp}"
        );
        for target in link_targets(&links) {
            let resp = follow_memento_link(&server, &target, url);
            for target in link_targets(&parse_links(header(&resp, "Link").unwrap_or(""))) {
                follow_memento_link(&server, &target, url);
            }
        }
        // The TimeGate's redirect and its own links.
        let gate = get(
            &server,
            &format!("/timegate/{}", &timemap["/timemap/".len()..]),
        );
        assert_eq!(status_line(&gate), "HTTP/1.1 302 Found", "{gate}");
        let gate_links = parse_links(header(&gate, "Link").unwrap());
        assert_original_is(&gate_links, url);
        for target in link_targets(&gate_links) {
            follow_memento_link(&server, &target, url);
        }
        let memento = follow_memento_link(&server, header(&gate, "Location").unwrap(), url);
        assert!(common::body(&memento).contains("second text."), "{memento}");
    }
}
