//! A simulated user browser: history and hotlist.
//!
//! w3newer's two local inputs are the browser's **history** ("the time
//! when the user has viewed the page comes from the W3 browser's
//! history", §3) and the **hotlist** ("known as a bookmark file in
//! Netscape", §1). The browser here visits pages (optionally through a
//! proxy), records visit times, manages bookmarks, and emits/parses the
//! Netscape bookmark file format so the hotlist can round-trip through a
//! file the way the real tools read it.
//!
//! §6's integration wart is reproduced faithfully: viewing a page *via
//! HtmlDiff* does not update the browser history for the original URL —
//! only [`Browser::visit`] on the URL itself does.

use crate::http::{NetError, Request, Response};
use crate::net::Web;
use crate::proxy::ProxyCache;
use aide_util::sync::Mutex;
use aide_util::time::Timestamp;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A bookmark: a titled URL, as in a Netscape bookmark file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bookmark {
    /// Display title.
    pub title: String,
    /// Absolute URL.
    pub url: String,
}

#[derive(Debug, Default)]
struct BrowserState {
    history: BTreeMap<String, Timestamp>,
    hotlist: Vec<Bookmark>,
}

/// Handle to a simulated browser.
#[derive(Clone)]
pub struct Browser {
    web: Web,
    proxy: Option<ProxyCache>,
    state: Arc<Mutex<BrowserState>>,
}

impl Browser {
    /// A browser fetching directly from `web`.
    pub fn new(web: Web) -> Browser {
        Browser {
            web,
            proxy: None,
            state: Arc::new(Mutex::new(BrowserState::default())),
        }
    }

    /// A browser fetching through `proxy`.
    pub fn with_proxy(proxy: ProxyCache) -> Browser {
        Browser {
            web: proxy.web().clone(),
            proxy: Some(proxy),
            state: Arc::new(Mutex::new(BrowserState::default())),
        }
    }

    /// Visits `url`: fetches it and records the visit time in history.
    ///
    /// The visit is recorded even for error responses — the user *looked*,
    /// which is what the history means to w3newer.
    pub fn visit(&self, url: &str) -> Result<Response, NetError> {
        let resp = match &self.proxy {
            Some(p) => p.get(url),
            None => self.web.request(&Request::get(url)),
        }?;
        self.state
            .lock()
            .history
            .insert(url.to_string(), self.web.clock().now());
        Ok(resp)
    }

    /// When the user last viewed `url`, per the browser history.
    pub fn last_visited(&self, url: &str) -> Option<Timestamp> {
        self.state.lock().history.get(url).copied()
    }

    /// Adds a bookmark to the hotlist (duplicates by URL are replaced).
    pub fn add_bookmark(&self, title: &str, url: &str) {
        let mut st = self.state.lock();
        if let Some(b) = st.hotlist.iter_mut().find(|b| b.url == url) {
            b.title = title.to_string();
        } else {
            st.hotlist.push(Bookmark {
                title: title.to_string(),
                url: url.to_string(),
            });
        }
    }

    /// Removes the bookmark for `url`; returns whether one existed.
    pub fn remove_bookmark(&self, url: &str) -> bool {
        let mut st = self.state.lock();
        let before = st.hotlist.len();
        st.hotlist.retain(|b| b.url != url);
        st.hotlist.len() != before
    }

    /// The hotlist, in insertion order.
    pub fn hotlist(&self) -> Vec<Bookmark> {
        self.state.lock().hotlist.clone()
    }

    /// Emits the hotlist as a Netscape bookmark file.
    pub fn bookmark_file(&self) -> String {
        let mut out = String::from(
            "<!DOCTYPE NETSCAPE-Bookmark-file-1>\n\
             <!-- This is an automatically generated file. -->\n\
             <TITLE>Bookmarks</TITLE>\n\
             <H1>Bookmarks</H1>\n\
             <DL><p>\n",
        );
        let st = self.state.lock();
        for b in &st.hotlist {
            out.push_str(&format!(
                "    <DT><A HREF=\"{}\">{}</A>\n",
                b.url,
                aide_htmlkit::entity::encode_entities(&b.title)
            ));
        }
        out.push_str("</DL><p>\n");
        out
    }

    /// Emits the history as an NCSA-style history file: one
    /// `<url> <epoch-seconds>` pair per line.
    pub fn history_file(&self) -> String {
        let st = self.state.lock();
        let mut out = String::new();
        for (url, t) in &st.history {
            out.push_str(&format!("{url} {}\n", t.0));
        }
        out
    }

    /// Marks `url` visited at `when` without fetching — used to replay
    /// recorded traces.
    pub fn mark_visited(&self, url: &str, when: Timestamp) {
        self.state.lock().history.insert(url.to_string(), when);
    }
}

/// Parses a Netscape bookmark file into bookmarks.
///
/// # Examples
///
/// ```
/// use aide_simweb::browser::parse_bookmark_file;
///
/// let file = "<DL><p>\n    <DT><A HREF=\"http://h/\">Home</A>\n</DL><p>\n";
/// let marks = parse_bookmark_file(file);
/// assert_eq!(marks.len(), 1);
/// assert_eq!(marks[0].url, "http://h/");
/// assert_eq!(marks[0].title, "Home");
/// ```
pub fn parse_bookmark_file(text: &str) -> Vec<Bookmark> {
    use aide_htmlkit::lexer::{lex, Token};
    let tokens = lex(text);
    let mut out = Vec::new();
    let mut pending_url: Option<String> = None;
    let mut title = String::new();
    for t in &tokens {
        match t {
            Token::Tag(tag) if tag.name == "A" => match tag.kind {
                aide_htmlkit::lexer::TagKind::Close => {
                    if let Some(url) = pending_url.take() {
                        out.push(Bookmark {
                            title: aide_htmlkit::entity::decode_entities(title.trim()).into_owned(),
                            url,
                        });
                    }
                    title.clear();
                }
                _ => {
                    if let Some(href) = tag.attr("HREF") {
                        pending_url = Some(href.to_string());
                        title.clear();
                    }
                }
            },
            Token::Text(s) if pending_url.is_some() => title.push_str(s),
            _ => {}
        }
    }
    out
}

/// Parses an NCSA Mosaic hotlist file.
///
/// The `ncsa-xmosaic-hotlist-format-1` layout: two header lines, then
/// pairs of lines — a URL followed by whitespace and a date, then the
/// title on its own line.
///
/// # Examples
///
/// ```
/// use aide_simweb::browser::parse_mosaic_hotlist;
///
/// let file = "ncsa-xmosaic-hotlist-format-1\nDefault\n\
///             http://www.usenix.org/ Fri Sep 29 12:00:00 1995\nUSENIX\n";
/// let marks = parse_mosaic_hotlist(file);
/// assert_eq!(marks.len(), 1);
/// assert_eq!(marks[0].title, "USENIX");
/// ```
pub fn parse_mosaic_hotlist(text: &str) -> Vec<Bookmark> {
    // `str::lines` strips `\r\n`; stripping a stray `\r` again tolerates
    // files whose lines were split on `\n` alone before reaching us.
    let mut lines = text.lines().map(|l| l.strip_suffix('\r').unwrap_or(l));
    // Two header lines: the format marker and the list name. An empty
    // file has neither.
    let Some(header) = lines.next() else {
        return Vec::new();
    };
    if !header.starts_with("ncsa-xmosaic-hotlist-format") {
        return Vec::new();
    }
    let _list_name = lines.next();
    let mut out = Vec::new();
    while let Some(url_line) = lines.next() {
        let Some(title) = lines.next() else { break };
        // The URL is the first whitespace-delimited token; the rest of
        // the line is the add date, which the hotlist consumer ignores.
        let Some(url) = url_line.split_whitespace().next() else {
            continue;
        };
        if url.is_empty() {
            continue;
        }
        out.push(Bookmark {
            title: title.trim().to_string(),
            url: url.to_string(),
        });
    }
    out
}

/// Parses an NCSA-style history file (`<url> <epoch-seconds>` per line).
pub fn parse_history_file(text: &str) -> BTreeMap<String, Timestamp> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        if let (Some(url), Some(secs)) = (parts.next(), parts.next()) {
            if let Ok(n) = secs.parse::<u64>() {
                out.insert(url.to_string(), Timestamp(n));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_util::time::{Clock, Duration};

    fn setup() -> (Clock, Web, Browser) {
        let clock = Clock::starting_at(Timestamp(1_000_000));
        let web = Web::new(clock.clone());
        web.set_page("http://h/a.html", "<HTML>A</HTML>", Timestamp(10))
            .unwrap();
        web.set_page("http://h/b.html", "<HTML>B</HTML>", Timestamp(20))
            .unwrap();
        let browser = Browser::new(web.clone());
        (clock, web, browser)
    }

    #[test]
    fn visit_records_history() {
        let (clock, _, b) = setup();
        assert_eq!(b.last_visited("http://h/a.html"), None);
        b.visit("http://h/a.html").unwrap();
        assert_eq!(b.last_visited("http://h/a.html"), Some(clock.now()));
    }

    #[test]
    fn revisit_updates_time() {
        let (clock, _, b) = setup();
        b.visit("http://h/a.html").unwrap();
        let first = b.last_visited("http://h/a.html").unwrap();
        clock.advance(Duration::days(2));
        b.visit("http://h/a.html").unwrap();
        assert_eq!(
            b.last_visited("http://h/a.html").unwrap() - first,
            Duration::days(2)
        );
    }

    #[test]
    fn visit_of_404_still_recorded() {
        let (_, _, b) = setup();
        let r = b.visit("http://h/missing.html").unwrap();
        assert!(!r.status.is_success());
        assert!(b.last_visited("http://h/missing.html").is_some());
    }

    #[test]
    fn bookmarks_add_replace_remove() {
        let (_, _, b) = setup();
        b.add_bookmark("A page", "http://h/a.html");
        b.add_bookmark("B page", "http://h/b.html");
        b.add_bookmark("A page (renamed)", "http://h/a.html");
        let hl = b.hotlist();
        assert_eq!(hl.len(), 2);
        assert_eq!(hl[0].title, "A page (renamed)");
        assert!(b.remove_bookmark("http://h/b.html"));
        assert!(!b.remove_bookmark("http://h/b.html"));
        assert_eq!(b.hotlist().len(), 1);
    }

    #[test]
    fn bookmark_file_roundtrip() {
        let (_, _, b) = setup();
        b.add_bookmark("USENIX & friends", "http://www.usenix.org/");
        b.add_bookmark(
            "Mobile page",
            "http://snapple.cs.washington.edu:600/mobile/",
        );
        let file = b.bookmark_file();
        assert!(file.starts_with("<!DOCTYPE NETSCAPE-Bookmark-file-1>"));
        let parsed = parse_bookmark_file(&file);
        assert_eq!(parsed, b.hotlist());
    }

    #[test]
    fn history_file_roundtrip() {
        let (clock, _, b) = setup();
        b.visit("http://h/a.html").unwrap();
        clock.advance(Duration::hours(1));
        b.visit("http://h/b.html").unwrap();
        let parsed = parse_history_file(&b.history_file());
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["http://h/a.html"], Timestamp(1_000_000));
        assert_eq!(parsed["http://h/b.html"], Timestamp(1_000_000 + 3600));
    }

    #[test]
    fn proxy_browser_shares_cache() {
        let (clock, web, _) = setup();
        let proxy = ProxyCache::new(web.clone(), Duration::hours(4));
        let b = Browser::with_proxy(proxy.clone());
        b.visit("http://h/a.html").unwrap();
        // The tracker can now read modification info from the proxy cache.
        let (lm, fetched) = proxy.cached_mod_info("http://h/a.html").unwrap();
        assert_eq!(lm, Some(Timestamp(10)));
        assert_eq!(fetched, clock.now());
    }

    #[test]
    fn mark_visited_replays_traces() {
        let (_, _, b) = setup();
        b.mark_visited("http://h/a.html", Timestamp(42));
        assert_eq!(b.last_visited("http://h/a.html"), Some(Timestamp(42)));
    }

    #[test]
    fn parse_bookmark_file_tolerates_noise() {
        let text =
            "<H1>Bookmarks</H1><DL><DT><A HREF=\"http://x/\">X &amp; Y</A><DD>description\n</DL>";
        let marks = parse_bookmark_file(text);
        assert_eq!(marks.len(), 1);
        assert_eq!(marks[0].title, "X & Y");
    }

    #[test]
    fn mosaic_hotlist_parsing() {
        let file = "ncsa-xmosaic-hotlist-format-1\nDefault\n\
                    http://www.yahoo.com/ Mon Oct  2 09:15:00 1995\nYahoo directory\n\
                    http://snapple.cs.washington.edu:600/mobile/ Tue Oct  3 10:00:00 1995\nMobile computing\n";
        let marks = parse_mosaic_hotlist(file);
        assert_eq!(marks.len(), 2);
        assert_eq!(marks[0].url, "http://www.yahoo.com/");
        assert_eq!(marks[0].title, "Yahoo directory");
        assert_eq!(marks[1].url, "http://snapple.cs.washington.edu:600/mobile/");
    }

    #[test]
    fn mosaic_hotlist_rejects_other_formats() {
        assert!(parse_mosaic_hotlist("<!DOCTYPE NETSCAPE-Bookmark-file-1>\n").is_empty());
        assert!(parse_mosaic_hotlist("").is_empty());
    }

    #[test]
    fn mosaic_hotlist_tolerates_truncation() {
        // A URL line with no following title line is dropped.
        let file = "ncsa-xmosaic-hotlist-format-1\nDefault\nhttp://x/ Mon Oct 2 1995\n";
        assert!(parse_mosaic_hotlist(file).is_empty());
    }

    #[test]
    fn mosaic_hotlist_empty_file() {
        // Regression: the header line used to be read with
        // `unwrap_or_default()`; an empty file must yield an empty
        // hotlist, not a panic or a phantom entry.
        assert!(parse_mosaic_hotlist("").is_empty());
        assert!(parse_mosaic_hotlist("\n").is_empty());
    }

    #[test]
    fn mosaic_hotlist_crlf_file_parses() {
        let file = "ncsa-xmosaic-hotlist-format-1\r\nDefault\r\n\
                    http://www.usenix.org/ Fri Sep 29 12:00:00 1995\r\nUSENIX\r\n";
        let marks = parse_mosaic_hotlist(file);
        assert_eq!(marks.len(), 1);
        assert_eq!(marks[0].url, "http://www.usenix.org/");
        assert_eq!(marks[0].title, "USENIX", "no trailing CR in titles");
    }

    #[test]
    fn mosaic_hotlist_header_with_trailing_cr() {
        // `str::lines` only strips `\r` when it precedes a `\n`; a CRLF
        // file missing its final newline (or a header-only fragment)
        // leaves a bare `\r` on the last line. Both must parse clean.
        let header_only = "ncsa-xmosaic-hotlist-format-1\r";
        assert!(parse_mosaic_hotlist(header_only).is_empty());
        let file = "ncsa-xmosaic-hotlist-format-1\r\nDefault\r\nhttp://h/p X\r\nTitle\r";
        let marks = parse_mosaic_hotlist(file);
        assert_eq!(marks.len(), 1);
        assert_eq!(marks[0].url, "http://h/p");
        assert_eq!(marks[0].title, "Title", "bare trailing CR stripped");
    }

    #[test]
    fn parse_history_skips_malformed_lines() {
        let h = parse_history_file("http://a/ 100\ngarbage\nhttp://b/ notanumber\nhttp://c/ 200\n");
        assert_eq!(h.len(), 2);
    }
}
