//! The HTTP/1.1 server core: routing, conditional GET, Memento.
//!
//! [`AideServer`] wraps an [`AideEngine`] and serves it over any
//! [`Connection`]. The §8.1 CGI operations become first-class routes:
//!
//! | route | serves |
//! |---|---|
//! | `/` | index: endpoints and the archived-URL census |
//! | `/report?user=U` | the w3newer Figure-1 change report |
//! | `/history?url=X&user=U` | per-URL revision history (`rlog`) |
//! | `/diff?url=X&from=1.N&to=1.M` | cached HtmlDiff page (`rcsdiff`) |
//! | `/view?url=X&rev=1.N` | one archived revision (`co`) |
//! | `/timegate/<url>` | Memento datetime negotiation (RFC 7089) |
//! | `/timemap/[<page>/]<url>` | Memento TimeMap (`application/link-format`) |
//! | `/memento/<rcs-date>/<url>` | one archived snapshot with `Memento-Datetime` |
//!
//! Every page whose bytes are a pure function of immutable archive
//! state carries a content-derived ETag (see `DESIGN.md` §4j for the
//! scheme), so `If-None-Match` answers 304 without touching HtmlDiff
//! or the archive. Every such page's body comes out of the snapshot
//! service's [`PageCache`]: diffs and archived revisions under their identifiers
//! (so `/view` and `/memento` share entries), history and TimeMap pages
//! under their ETags.
//! POST is refused with 501, honouring §8.4 ("the input to the services
//! is not stored").

use crate::conn::{ConnError, Connection};
use aide::cgi::parse_query;
use aide::engine::AideEngine;
use aide_htmldiff::Options as DiffOptions;
use aide_htmlkit::entity::encode_entities;
use aide_rcs::archive::{RevId, RevisionMeta};
use aide_rcs::repo::{MemRepository, Repository};
use aide_simweb::wire::{error_response, Limits, RequestParser, WireRequest, WireResponse};
use aide_snapshot::{CacheStats, PageCache};
use aide_util::checksum::fnv1a64;
use aide_util::time::Timestamp;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Tuning knobs for one server instance.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Parser limits applied per connection.
    pub limits: Limits,
    /// Mementos listed per TimeMap page.
    pub timemap_page: usize,
    /// Requests served on one connection before the server closes it
    /// (keep-alive bound, like httpd's `MaxKeepAliveRequests`).
    pub max_keepalive: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            limits: Limits::default(),
            timemap_page: 50,
            max_keepalive: 100,
        }
    }
}

/// Server counters, mirrored to `serve.*` obs metrics at the moment
/// they change and readable as plain atomics in tests.
#[derive(Debug, Default)]
pub struct ServeStats {
    requests: AtomicU64,
    not_modified: AtomicU64,
    parse_errors: AtomicU64,
    connections: AtomicU64,
    bytes_out: AtomicU64,
}

impl ServeStats {
    /// Requests answered (any status).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// `If-None-Match` hits answered 304.
    pub fn not_modified(&self) -> u64 {
        self.not_modified.load(Ordering::Relaxed)
    }

    /// Connections that died of a protocol error.
    pub fn parse_errors(&self) -> u64 {
        self.parse_errors.load(Ordering::Relaxed)
    }

    /// Connections served.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Response bytes written.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.load(Ordering::Relaxed)
    }
}

/// What became of one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnOutcome {
    /// Requests answered on this connection.
    pub requests: usize,
    /// Whether the connection ended on a protocol error.
    pub protocol_error: bool,
}

/// The serving layer over one engine.
pub struct AideServer<R: Repository = MemRepository> {
    engine: Arc<AideEngine<R>>,
    cfg: ServeConfig,
    stats: ServeStats,
}

impl<R: Repository> AideServer<R> {
    /// Wraps `engine` with default [`ServeConfig`].
    pub fn new(engine: Arc<AideEngine<R>>) -> AideServer<R> {
        AideServer::with_config(engine, ServeConfig::default())
    }

    /// Wraps `engine` with explicit tuning.
    pub fn with_config(engine: Arc<AideEngine<R>>, cfg: ServeConfig) -> AideServer<R> {
        AideServer {
            engine,
            cfg,
            stats: ServeStats::default(),
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &AideEngine<R> {
        &self.engine
    }

    /// Server counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Counters of the snapshot service's page cache, which holds every
    /// body this server renders.
    pub fn cache_stats(&self) -> &CacheStats {
        self.pages().stats()
    }

    fn pages(&self) -> &PageCache {
        self.engine.snapshot().page_cache()
    }

    /// Serves `conn` to completion: reads requests (however the
    /// transport chunks them), answers each, honours keep-alive and
    /// pipelining, and never panics — a malformed stream earns one
    /// error response and a close.
    pub fn handle_connection<C: Connection>(&self, conn: &mut C) -> ConnOutcome {
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        aide_obs::counter("serve.connections", 1);
        let mut parser = RequestParser::with_limits(self.cfg.limits);
        let mut buf = [0u8; 4096];
        let mut served = 0usize;
        let mut protocol_error = false;
        'conn: loop {
            // Drain every complete request already buffered (pipelining)
            // before going back to the transport.
            loop {
                match parser.take_request() {
                    Ok(Some(req)) => {
                        let head_only = req.method == "HEAD";
                        let close = !req.keep_alive() || served + 1 >= self.cfg.max_keepalive;
                        let mut resp = self.respond(&req);
                        if close {
                            resp = resp.header("Connection", "close");
                        }
                        served += 1;
                        if self.write(conn, &resp, head_only).is_err() || close {
                            break 'conn;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        protocol_error = true;
                        self.stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                        aide_obs::counter("serve.parse_error", 1);
                        let resp = self.finish(error_response(e.status(), &e.to_string()));
                        let _ = self.write(conn, &resp, false);
                        break 'conn;
                    }
                }
            }
            match conn.read(&mut buf) {
                Ok(0) => {
                    // Orderly EOF mid-request: a truncated request gets
                    // one 400 so the client knows; a clean boundary is
                    // just the end of the conversation.
                    if parser.buffered() > 0 {
                        protocol_error = true;
                        self.stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                        aide_obs::counter("serve.parse_error", 1);
                        let resp = self.finish(error_response(400, "truncated request"));
                        let _ = self.write(conn, &resp, false);
                    }
                    break;
                }
                Ok(n) => parser.push(&buf[..n]),
                Err(ConnError::Reset) => break,
            }
        }
        aide_obs::observe("serve.requests_per_conn", served as u64);
        ConnOutcome {
            requests: served,
            protocol_error,
        }
    }

    /// Serves a batch of connections over `workers` scoped threads (the
    /// engine's bounded worker-pool idiom: shared atomic next-index, no
    /// channels), returning the connections in their original order.
    pub fn serve_batch<C: Connection + Send>(&self, conns: Vec<C>, workers: usize) -> Vec<C> {
        let slots: Vec<aide_util::sync::Mutex<Option<C>>> = conns
            .into_iter()
            .map(|c| aide_util::sync::Mutex::new(Some(c)))
            .collect();
        let workers = workers.clamp(1, slots.len().max(1));
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(i) else { break };
                    // Take the connection out rather than holding the
                    // slot mutex across the handler: handling reaches
                    // the engine's own locks, which must not nest under
                    // a structure guard.
                    let taken = slot.lock().take();
                    if let Some(mut conn) = taken {
                        self.handle_connection(&mut conn);
                        *slot.lock() = Some(conn);
                    }
                });
            }
        });
        slots.into_iter().filter_map(|s| s.into_inner()).collect()
    }

    /// Publishes aggregate server counters as gauges on the installed
    /// obs subscriber (no-op without one), alongside the engine's own.
    pub fn publish_obs(&self) {
        if !aide_obs::enabled() {
            return;
        }
        aide_obs::gauge("serve.total.requests", self.stats.requests());
        aide_obs::gauge("serve.total.not_modified", self.stats.not_modified());
        aide_obs::gauge("serve.total.parse_errors", self.stats.parse_errors());
        aide_obs::gauge("serve.total.connections", self.stats.connections());
        aide_obs::gauge("serve.total.bytes_out", self.stats.bytes_out());
        self.engine.publish_obs();
    }

    fn write<C: Connection>(
        &self,
        conn: &mut C,
        resp: &WireResponse,
        head_only: bool,
    ) -> Result<(), ConnError> {
        let bytes = resp.serialize(head_only);
        self.stats
            .bytes_out
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        conn.write_all(&bytes)
    }

    /// Stamps the headers every response carries.
    fn finish(&self, resp: WireResponse) -> WireResponse {
        let class = match resp.status / 100 {
            2 => "serve.http.2xx",
            3 => "serve.http.3xx",
            4 => "serve.http.4xx",
            _ => "serve.http.5xx",
        };
        aide_obs::counter(class, 1);
        resp.header("Server", "aide-serve/0.1")
            .header("Date", &self.engine.clock().now().to_http_date())
    }

    /// Routes one parsed request to a response. Infallible by design:
    /// every failure mode is an HTTP error page.
    pub fn respond(&self, req: &WireRequest) -> WireResponse {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        aide_obs::counter("serve.requests", 1);
        match req.method.as_str() {
            "GET" | "HEAD" => {}
            "POST" => {
                return self.finish(error_response(
                    501,
                    "AIDE cannot track POST services: the form input is not stored. \
                     Save the filled-out form and use a GET URL instead.",
                ))
            }
            _ => {
                return self.finish(
                    error_response(405, "only GET and HEAD are served")
                        .header("Allow", "GET, HEAD"),
                )
            }
        }
        let target = req.target.as_str();
        if !target.starts_with('/') {
            return self.finish(error_response(400, "origin-form request target required"));
        }
        // Memento-family routes embed the archived URL — query string
        // and all — in the path, so they route on the raw target.
        if let Some(url) = target.strip_prefix("/timegate/") {
            return self.finish(self.timegate(req, url));
        }
        if let Some(rest) = target.strip_prefix("/timemap/") {
            return self.finish(self.timemap(req, rest));
        }
        if let Some(rest) = target.strip_prefix("/memento/") {
            return self.finish(self.memento(req, rest));
        }
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        let params = parse_query(query).params;
        let resp = match path {
            "/" => self.index(),
            "/report" => match params.get("user") {
                Some(user) => match self.engine.tracker_report_html(user) {
                    // The report polls the live (simulated) Web — never
                    // cached, never conditional.
                    Ok(html) => html_page(html).header("Cache-Control", "no-cache"),
                    Err(e) => error_response(404, &e.to_string()),
                },
                None => error_response(400, "missing user parameter"),
            },
            "/history" => self.history(req, &params),
            "/diff" => self.diff(req, &params),
            "/view" => self.view(req, &params),
            _ => error_response(404, &format!("no such route {path}")),
        };
        self.finish(resp)
    }

    fn index(&self) -> WireResponse {
        let mut urls = self.engine.snapshot().archived_urls().unwrap_or_default();
        urls.sort();
        let mut body = String::from(
            "<HTML><HEAD><TITLE>AIDE</TITLE></HEAD><BODY><H1>AIDE serving layer</H1>\
             <P>Routes: /report?user= · /history?url=&amp;user= · /diff?url=&amp;from=&amp;to= \
             · /view?url=&amp;rev= · /timegate/&lt;url&gt; · /timemap/&lt;url&gt; \
             · /memento/&lt;date&gt;/&lt;url&gt;\n<H2>Archived documents</H2>\n<UL>\n",
        );
        for url in &urls {
            body.push_str(&format!(
                "<LI><A HREF=\"/history?url={url}\">{url}</A> \
                 [<A HREF=\"/timemap/{url}\">timemap</A>]\n",
                url = encode_entities(url)
            ));
        }
        body.push_str("</UL>\n</BODY></HTML>\n");
        html_page(body)
    }

    /// Serves a cacheable page: answers 304 on an ETag match without
    /// rendering or reading the archive, otherwise a 200 carrying the
    /// body `render` produces. Every route's `render` reads through the
    /// page cache, so it renders only on a cold cache.
    fn cached(
        &self,
        req: &WireRequest,
        etag: &str,
        content_type: &str,
        render: impl FnOnce() -> Result<String, WireResponse>,
    ) -> WireResponse {
        if if_none_match_hits(req, etag) {
            self.stats.not_modified.fetch_add(1, Ordering::Relaxed);
            aide_obs::counter("serve.not_modified", 1);
            return WireResponse::new(304).header("ETag", &format!("\"{etag}\""));
        }
        match render() {
            Ok(body) => WireResponse::new(200)
                .header("Content-Type", content_type)
                .header("ETag", &format!("\"{etag}\""))
                .body(body),
            Err(resp) => resp,
        }
    }

    /// A page this layer renders itself, cached under its ETag.
    fn page(&self, etag: &str, render: impl FnOnce() -> String) -> String {
        match self
            .pages()
            .get_or_render(etag, || Ok::<_, Infallible>(render()))
        {
            Ok((page, _)) => page.to_string(),
            Err(never) => match never {},
        }
    }

    fn history(
        &self,
        req: &WireRequest,
        params: &std::collections::BTreeMap<String, String>,
    ) -> WireResponse {
        let (Some(url), Some(user)) = (params.get("url"), params.get("user")) else {
            return error_response(400, "missing url or user parameter");
        };
        // The seen-flags are part of the page, so they are part of the
        // ETag: a revision later marked seen changes the tag and busts
        // any stale 304. Costs one metadata read, zero diff work.
        let revs = match self.engine.history(user, url) {
            Ok(revs) => revs,
            Err(e) => return error_response(404, &e.to_string()),
        };
        let mut key = format!("h|{url}|{user}");
        for (meta, seen) in &revs {
            key.push_str(&format!("|{}@{}:{}", meta.id, meta.date.0, seen));
        }
        let etag = format!("h-{:016x}", fnv1a64(key.as_bytes()));
        self.cached(req, &etag, "text/html", || {
            Ok(self.page(&etag, || history_page(url, &revs)))
        })
    }

    fn diff(
        &self,
        req: &WireRequest,
        params: &std::collections::BTreeMap<String, String>,
    ) -> WireResponse {
        let Some(url) = params.get("url") else {
            return error_response(400, "missing url parameter");
        };
        let (Some(from), Some(to)) = (
            params.get("from").and_then(|r| RevId::parse(r)),
            params.get("to").and_then(|r| RevId::parse(r)),
        ) else {
            return error_response(400, "missing or bad from/to revisions");
        };
        // Stored revisions are immutable, so identifiers alone key the
        // page; the options fingerprint guards against a future default
        // change silently serving stale renders.
        let opts = DiffOptions::default();
        let fp = fnv1a64(format!("{opts:?}").as_bytes());
        let etag = format!(
            "d-{:016x}",
            fnv1a64(format!("d|{url}|{from}|{to}|{fp:016x}").as_bytes())
        );
        let engine = &self.engine;
        self.cached(req, &etag, "text/html", move || {
            engine
                .diff_versions(url, from, to, &opts)
                .map(|out| out.html)
                .map_err(|e| error_response(404, &e.to_string()))
        })
    }

    fn view(
        &self,
        req: &WireRequest,
        params: &std::collections::BTreeMap<String, String>,
    ) -> WireResponse {
        let Some(url) = params.get("url") else {
            return error_response(400, "missing url parameter");
        };
        let Some(rev) = params.get("rev").and_then(|r| RevId::parse(r)) else {
            return error_response(400, "missing or bad rev parameter");
        };
        let etag = format!("v-{:016x}", fnv1a64(format!("v|{url}|{rev}").as_bytes()));
        let engine = &self.engine;
        self.cached(req, &etag, "text/html", move || {
            engine
                .view(url, rev)
                .map_err(|e| error_response(404, &e.to_string()))
        })
    }

    /// RFC 7089 TimeGate: negotiate on `Accept-Datetime` and redirect
    /// to the closest memento. No header means "most recent" (§4.5.2);
    /// a malformed one is a client error.
    fn timegate(&self, req: &WireRequest, url: &str) -> WireResponse {
        if url.is_empty() {
            return error_response(400, "missing url in /timegate/<url>");
        }
        let when = match req.header("accept-datetime") {
            Some(raw) => match Timestamp::parse_http_date(raw) {
                Some(t) => t,
                None => {
                    return error_response(400, &format!("bad Accept-Datetime {raw:?}"))
                        .header("Vary", "accept-datetime")
                }
            },
            None => self.engine.clock().now(),
        };
        let (_, rev_date) = match self.engine.snapshot().closest_revision(url, when) {
            Ok(hit) => hit,
            Err(e) => return error_response(404, &e.to_string()),
        };
        let location = format!("/memento/{}/{url}", rev_date.to_rcs_date());
        WireResponse::new(302)
            .header("Vary", "accept-datetime")
            .header("Location", &location)
            .header(
                "Link",
                &format!(
                    "<{url}>; rel=\"original\", \
                     </timemap/{url}>; rel=\"timemap\"; type=\"application/link-format\", \
                     <{location}>; rel=\"memento\"; datetime=\"{dt}\"",
                    dt = rev_date.to_http_date()
                ),
            )
            .body(format!("See {location}\n"))
    }

    /// One archived snapshot. An exact revision datestamp serves the
    /// body with `Memento-Datetime`; any other stamp redirects to the
    /// canonical URL of the nearest revision, so every datetime names
    /// exactly one cacheable page.
    fn memento(&self, req: &WireRequest, rest: &str) -> WireResponse {
        let Some((stamp, url)) = rest.split_once('/') else {
            return error_response(400, "expected /memento/<rcs-date>/<url>");
        };
        let Some(when) = Timestamp::parse_rcs_date(stamp) else {
            return error_response(400, &format!("bad datestamp {stamp:?}"));
        };
        if url.is_empty() {
            return error_response(400, "missing url in /memento/<rcs-date>/<url>");
        }
        let snapshot = self.engine.snapshot();
        let (rev, rev_date) = match snapshot.closest_revision(url, when) {
            Ok(hit) => hit,
            Err(e) => return error_response(404, &e.to_string()),
        };
        if rev_date != when {
            let location = format!("/memento/{}/{url}", rev_date.to_rcs_date());
            return WireResponse::new(302)
                .header("Location", &location)
                .body(format!("See {location}\n"));
        }
        let etag = format!(
            "m-{:016x}",
            fnv1a64(format!("m|{url}|{rev}|{}", rev_date.0).as_bytes())
        );
        let link = format!(
            "<{url}>; rel=\"original\", \
             </timegate/{url}>; rel=\"timegate\", \
             </timemap/{url}>; rel=\"timemap\"; type=\"application/link-format\"",
        );
        self.cached(req, &etag, "text/html", || {
            snapshot
                .view(url, rev)
                .map_err(|e| error_response(404, &e.to_string()))
        })
        .header("Memento-Datetime", &rev_date.to_http_date())
        .header("Link", &link)
    }

    /// RFC 7089 §5 TimeMap in `application/link-format`, paginated as
    /// `/timemap/<page>/<url>` with page 0 at `/timemap/<url>`.
    fn timemap(&self, req: &WireRequest, rest: &str) -> WireResponse {
        // A leading "<digits>/" is a page number; an archived URL
        // ("http://…") can never start that way.
        let (page, url) = match rest.split_once('/') {
            Some((first, tail))
                if first.bytes().all(|b| b.is_ascii_digit()) && !first.is_empty() =>
            {
                match first.parse::<usize>() {
                    Ok(n) => (n, tail),
                    Err(_) => return error_response(400, "bad timemap page number"),
                }
            }
            _ => (0, rest),
        };
        if url.is_empty() {
            return error_response(400, "missing url in /timemap/<url>");
        }
        let metas = match self.engine.snapshot().revisions(url) {
            Ok(m) => m,
            Err(e) => return error_response(404, &e.to_string()),
        };
        let per = self.cfg.timemap_page.max(1);
        let pages = metas.len().div_ceil(per).max(1);
        if page >= pages {
            return error_response(404, &format!("timemap page {page} of {pages}"));
        }
        let etag = format!(
            "t-{:016x}",
            fnv1a64(format!("t|{url}|{page}|{per}|{}", metas.len()).as_bytes())
        );
        self.cached(req, &etag, "application/link-format", || {
            Ok(self.page(&etag, || timemap_page(url, page, pages, per, &metas)))
        })
    }
}

/// Does the request's `If-None-Match` match `etag` (unquoted form)?
fn if_none_match_hits(req: &WireRequest, etag: &str) -> bool {
    match req.header("if-none-match") {
        Some(raw) => raw.split(',').any(|t| {
            let t = t.trim().trim_start_matches("W/");
            t == "*" || t.trim_matches('"') == etag
        }),
        None => false,
    }
}

/// A 200 HTML response.
fn html_page(body: String) -> WireResponse {
    WireResponse::new(200)
        .header("Content-Type", "text/html")
        .body(body)
}

/// The `/history` page: one line per revision, newest first, with view
/// and diff links and the user's seen flags.
fn history_page(url: &str, revs: &[(RevisionMeta, bool)]) -> String {
    let mut body = format!(
        "<HTML><HEAD><TITLE>History of {url}</TITLE></HEAD><BODY>\
         <H1>Versions of {url}</H1>\n<UL>\n",
        url = encode_entities(url)
    );
    for (meta, seen) in revs {
        body.push_str(&format!(
            "<LI>[<A HREF=\"/view?url={url}&rev={rev}\">{rev}</A>] {date} by {author}{seen}",
            rev = meta.id,
            date = meta.date.to_http_date(),
            author = encode_entities(&meta.author),
            seen = if *seen { " (seen)" } else { "" },
        ));
        if meta.id.0 > 1 {
            body.push_str(&format!(
                " [<A HREF=\"/diff?url={url}&from=1.{prev}&to={rev}\">diff to previous</A>]",
                prev = meta.id.0 - 1,
                rev = meta.id,
            ));
        }
        body.push('\n');
    }
    body.push_str("</UL>\n</BODY></HTML>\n");
    body
}

/// Page `page` of `pages` of the TimeMap of `url`, `per` mementos each,
/// in `application/link-format`.
fn timemap_page(
    url: &str,
    page: usize,
    pages: usize,
    per: usize,
    metas: &[RevisionMeta],
) -> String {
    let self_path = if page == 0 {
        format!("/timemap/{url}")
    } else {
        format!("/timemap/{page}/{url}")
    };
    let mut body = format!(
        "<{url}>;rel=\"original\",\n\
         </timegate/{url}>;rel=\"timegate\",\n\
         <{self_path}>;rel=\"self\";type=\"application/link-format\",\n"
    );
    if page > 0 {
        let prev = if page == 1 {
            format!("/timemap/{url}")
        } else {
            format!("/timemap/{}/{url}", page - 1)
        };
        body.push_str(&format!(
            "<{prev}>;rel=\"prev\";type=\"application/link-format\",\n"
        ));
    }
    if page + 1 < pages {
        body.push_str(&format!(
            "</timemap/{}/{url}>;rel=\"next\";type=\"application/link-format\",\n",
            page + 1
        ));
    }
    let last_index = metas.len() - 1;
    for (i, meta) in metas.iter().enumerate().skip(page * per).take(per) {
        let rel = if i == 0 && i == last_index {
            "first last memento"
        } else if i == 0 {
            "first memento"
        } else if i == last_index {
            "last memento"
        } else {
            "memento"
        };
        body.push_str(&format!(
            "</memento/{stamp}/{url}>;rel=\"{rel}\";datetime=\"{dt}\",\n",
            stamp = meta.date.to_rcs_date(),
            dt = meta.date.to_http_date(),
        ));
    }
    // link-format lists end without a trailing comma.
    body.trim_end_matches(",\n").to_string() + "\n"
}
