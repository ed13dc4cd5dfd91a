//! The CGI façade.
//!
//! "Pages can be registered with the service via an HTML form, and
//! differences can be retrieved in the same fashion" (§4.1). §8.1 adds
//! the server-side scripts: `/cgi-bin/rlog` "converts the output of rlog
//! into HTML, showing the user a history of the document with links to
//! view any specific version or to see the differences between two
//! versions"; `/cgi-bin/co` "displays a version of a document"; and
//! `/cgi-bin/rcsdiff` "displays the differences. If the file's name ends
//! in .html then HtmlDiff is used... rather than the rcsdiff program."
//!
//! §8.4's limitation is honoured: services invoked via `POST` are
//! rejected with an explanatory error, since "the input to the services
//! is not stored".

use crate::engine::AideEngine;
use aide_diffcore::lines::diff_lines;
use aide_htmldiff::Options as DiffOptions;
use aide_htmlkit::entity::encode_entities;
use aide_rcs::archive::RevId;
use aide_rcs::repo::Repository;
use aide_snapshot::keepalive::{run as keepalive_run, KeepaliveConfig, KeepaliveOutcome};
use aide_util::time::Duration;
use std::collections::BTreeMap;

/// A parsed CGI request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CgiRequest {
    /// The `op` parameter (empty if missing).
    pub op: String,
    /// All query parameters.
    pub params: BTreeMap<String, String>,
}

/// A CGI response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CgiResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type`.
    pub content_type: String,
    /// Body.
    pub body: String,
}

impl CgiResponse {
    fn html(body: String) -> CgiResponse {
        CgiResponse {
            status: 200,
            content_type: "text/html".to_string(),
            body,
        }
    }

    fn plain(body: String) -> CgiResponse {
        CgiResponse {
            status: 200,
            content_type: "text/plain".to_string(),
            body,
        }
    }

    fn error(status: u16, message: &str) -> CgiResponse {
        CgiResponse {
            status,
            content_type: "text/html".to_string(),
            body: format!(
                "<HTML><HEAD><TITLE>AIDE error</TITLE></HEAD><BODY><H1>Error</H1>\
                 <P>{}</BODY></HTML>\n",
                encode_entities(message)
            ),
        }
    }
}

/// Decodes `%XX` escapes and `+` in a query component.
pub fn urldecode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() + 1 && i + 3 <= bytes.len() => {
                match u8::from_str_radix(&s[i + 1..i + 3], 16) {
                    Ok(b) => {
                        out.push(b);
                        i += 3;
                    }
                    Err(_) => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parses a query string (`op=diff&url=http%3A%2F%2Fx%2F`).
pub fn parse_query(query: &str) -> CgiRequest {
    let mut params = BTreeMap::new();
    for pair in query.split('&') {
        if pair.is_empty() {
            continue;
        }
        match pair.split_once('=') {
            Some((k, v)) => {
                params.insert(urldecode(k), urldecode(v));
            }
            None => {
                params.insert(urldecode(pair), String::new());
            }
        }
    }
    let op = params.get("op").cloned().unwrap_or_default();
    CgiRequest { op, params }
}

/// Dispatches one GET request against the engine on behalf of `user`.
/// Generic over the storage backend, like the engine itself: the CGI
/// façade and `aide-serve` run identically on `MemRepository` and
/// `DiskRepository`.
pub fn dispatch<R: Repository>(engine: &AideEngine<R>, user: &str, query: &str) -> CgiResponse {
    let req = parse_query(query);
    let Some(url) = req.params.get("url") else {
        return CgiResponse::error(400, "missing url parameter");
    };
    match req.op.as_str() {
        "remember" => match engine.remember(user, url) {
            Ok(out) => CgiResponse::html(format!(
                "<HTML><BODY><P>Remembered <A HREF=\"{url}\">{url}</A> as revision {}{}.\
                 </BODY></HTML>\n",
                out.rev,
                if out.stored_new_revision {
                    ""
                } else {
                    " (unchanged)"
                }
            )),
            Err(e) => CgiResponse::error(502, &e.to_string()),
        },
        "diff" => match engine.diff(user, url, &DiffOptions::default()) {
            Ok(out) => CgiResponse::html(out.html),
            Err(e) => CgiResponse::error(502, &e.to_string()),
        },
        "history" | "rlog" => match engine.history(user, url) {
            Ok(revs) => {
                let mut body = format!(
                    "<HTML><HEAD><TITLE>History of {url}</TITLE></HEAD><BODY>\
                     <H1>Versions of {url}</H1>\n<UL>\n"
                );
                let ids: Vec<RevId> = revs.iter().map(|(m, _)| m.id).collect();
                for (meta, seen) in &revs {
                    let mut line = format!(
                        "<LI>[<A HREF=\"?op=co&url={url}&rev={rev}\">{rev}</A>] {date} by {author}{seen}",
                        rev = meta.id,
                        date = meta.date.to_http_date(),
                        author = encode_entities(&meta.author),
                        seen = if *seen { " (seen)" } else { "" },
                    );
                    if let Some(prev) = ids.iter().find(|r| r.0 == meta.id.0.saturating_sub(1)) {
                        line.push_str(&format!(
                            " [<A HREF=\"?op=rcsdiff&url={url}&from={prev}&to={rev}\">diff to previous</A>]",
                            rev = meta.id,
                        ));
                    }
                    body.push_str(&line);
                    body.push('\n');
                }
                body.push_str("</UL>\n</BODY></HTML>\n");
                CgiResponse::html(body)
            }
            Err(e) => CgiResponse::error(404, &e.to_string()),
        },
        "view" | "co" => {
            // §2.2: "A CGI interface to RCS allows a user to request a URL
            // at a particular date, from anywhere on the W3" — `date=`
            // takes an RCS datestamp; `rev=` takes a revision number.
            if let Some(date) = req.params.get("date") {
                let Some(when) = aide_util::time::Timestamp::parse_rcs_date(date) else {
                    return CgiResponse::error(400, &format!("bad date {date:?}"));
                };
                return match engine.snapshot().view_at(url, when) {
                    Ok((rev, _)) => match engine.view(url, rev) {
                        Ok(body) => CgiResponse::html(body),
                        Err(e) => CgiResponse::error(404, &e.to_string()),
                    },
                    Err(e) => CgiResponse::error(404, &e.to_string()),
                };
            }
            let rev = req
                .params
                .get("rev")
                .and_then(|r| RevId::parse(r))
                .unwrap_or(RevId::FIRST);
            match engine.view(url, rev) {
                Ok(body) => CgiResponse::html(body),
                Err(e) => CgiResponse::error(404, &e.to_string()),
            }
        }
        "rcsdiff" => {
            let (Some(from), Some(to)) = (
                req.params.get("from").and_then(|r| RevId::parse(r)),
                req.params.get("to").and_then(|r| RevId::parse(r)),
            ) else {
                return CgiResponse::error(400, "missing or bad from/to revisions");
            };
            // "If the file's name ends in .html then HtmlDiff is used to
            // display the differences, rather than the rcsdiff program."
            let html_mode = url.ends_with(".html") || url.ends_with('/') || !url.contains('.');
            if html_mode {
                match engine.diff_versions(url, from, to, &DiffOptions::default()) {
                    Ok(out) => CgiResponse::html(out.html),
                    Err(e) => CgiResponse::error(404, &e.to_string()),
                }
            } else {
                let snapshot = engine.snapshot();
                match (
                    snapshot.revision_text(url, from),
                    snapshot.revision_text(url, to),
                ) {
                    (Ok(a), Ok(b)) => CgiResponse::plain(diff_lines(&a, &b).unified(
                        &from.to_string(),
                        &to.to_string(),
                        3,
                    )),
                    (Err(e), _) | (_, Err(e)) => CgiResponse::error(404, &e.to_string()),
                }
            }
        }
        "" => CgiResponse::error(400, "missing op parameter"),
        other => CgiResponse::error(400, &format!("unknown op {other:?}")),
    }
}

/// The 501 text every front end answers a `POST` with (§8.4: "services
/// that use POST cannot be accessed, because the input to the services
/// is not stored").
pub const POST_REFUSAL: &str = "AIDE cannot track POST services: the form input is not stored. \
     Save the filled-out form and use a GET URL instead.";

/// Dispatches a POST: always refused with [`POST_REFUSAL`].
pub fn dispatch_post<R: Repository>(
    _engine: &AideEngine<R>,
    _user: &str,
    _query: &str,
) -> CgiResponse {
    CgiResponse::error(501, POST_REFUSAL)
}

/// Runs a dispatch under httpd's CGI timeout with the snapshot
/// keep-alive child. `work_estimate` is the simulated time the operation
/// takes (retrieval plus HtmlDiff).
pub fn dispatch_with_keepalive<R: Repository>(
    engine: &AideEngine<R>,
    user: &str,
    query: &str,
    work_estimate: Duration,
    cfg: &KeepaliveConfig,
) -> Result<(CgiResponse, u64), Duration> {
    match keepalive_run(cfg, work_estimate) {
        KeepaliveOutcome::Completed { padding } => Ok((dispatch(engine, user, query), padding)),
        KeepaliveOutcome::TimedOut { after } => Err(after),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_simweb::net::Web;
    use aide_util::time::{Clock, Timestamp};
    use aide_w3newer::config::ThresholdConfig;

    fn engine() -> AideEngine {
        let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 10, 1, 0, 0, 0));
        let web = Web::new(clock);
        web.set_page(
            "http://h/page.html",
            "<HTML><P>version one text.</HTML>",
            Timestamp(100),
        )
        .unwrap();
        web.set_page("http://h/data.txt", "line1\nline2\n", Timestamp(100))
            .unwrap();
        let e = AideEngine::new(web);
        e.register_user("u@x", ThresholdConfig::default());
        e
    }

    #[test]
    fn urldecode_cases() {
        assert_eq!(urldecode("a+b"), "a b");
        assert_eq!(urldecode("http%3A%2F%2Fh%2F"), "http://h/");
        assert_eq!(urldecode("100%"), "100%");
        assert_eq!(urldecode("%ZZ"), "%ZZ");
        assert_eq!(urldecode(""), "");
    }

    #[test]
    fn parse_query_basic() {
        let r = parse_query("op=diff&url=http%3A%2F%2Fh%2F&rev=1.2");
        assert_eq!(r.op, "diff");
        assert_eq!(r.params["url"], "http://h/");
        assert_eq!(r.params["rev"], "1.2");
        let r = parse_query("");
        assert_eq!(r.op, "");
        let r = parse_query("flag&x=1");
        assert!(r.params.contains_key("flag"));
    }

    #[test]
    fn remember_then_diff_via_cgi() {
        let e = engine();
        let r = dispatch(&e, "u@x", "op=remember&url=http%3A%2F%2Fh%2Fpage.html");
        assert_eq!(r.status, 200);
        assert!(r.body.contains("revision 1.1"));

        e.clock().advance(Duration::days(1));
        e.web()
            .touch_page(
                "http://h/page.html",
                "<HTML><P>version one text. plus more!</HTML>",
                e.clock().now(),
            )
            .unwrap();
        let r = dispatch(&e, "u@x", "op=diff&url=http%3A%2F%2Fh%2Fpage.html");
        assert_eq!(r.status, 200);
        assert!(r.body.contains("plus more!"));
        assert!(r.body.contains("<STRONG><I>"));
    }

    #[test]
    fn history_and_co() {
        let e = engine();
        dispatch(&e, "u@x", "op=remember&url=http%3A%2F%2Fh%2Fpage.html");
        e.clock().advance(Duration::days(1));
        e.web()
            .touch_page("http://h/page.html", "<HTML><P>v2</HTML>", e.clock().now())
            .unwrap();
        dispatch(&e, "u@x", "op=remember&url=http%3A%2F%2Fh%2Fpage.html");

        let r = dispatch(&e, "u@x", "op=rlog&url=http%3A%2F%2Fh%2Fpage.html");
        assert!(r.body.contains("1.1"));
        assert!(r.body.contains("1.2"));
        assert!(r.body.contains("op=rcsdiff"));
        assert!(r.body.contains("(seen)"));

        let r = dispatch(&e, "u@x", "op=co&url=http%3A%2F%2Fh%2Fpage.html&rev=1.1");
        assert!(r.body.contains("version one text."));
    }

    #[test]
    fn rcsdiff_html_vs_plain() {
        let e = engine();
        dispatch(&e, "u@x", "op=remember&url=http%3A%2F%2Fh%2Fpage.html");
        dispatch(&e, "u@x", "op=remember&url=http%3A%2F%2Fh%2Fdata.txt");
        e.clock().advance(Duration::days(1));
        e.web()
            .touch_page(
                "http://h/page.html",
                "<HTML><P>v2 now.</HTML>",
                e.clock().now(),
            )
            .unwrap();
        e.web()
            .touch_page("http://h/data.txt", "line1\nlineTWO\n", e.clock().now())
            .unwrap();
        dispatch(&e, "u@x", "op=remember&url=http%3A%2F%2Fh%2Fpage.html");
        dispatch(&e, "u@x", "op=remember&url=http%3A%2F%2Fh%2Fdata.txt");

        let html = dispatch(
            &e,
            "u@x",
            "op=rcsdiff&url=http%3A%2F%2Fh%2Fpage.html&from=1.1&to=1.2",
        );
        assert_eq!(html.content_type, "text/html");
        assert!(html.body.contains("AIDE HtmlDiff"));

        let plain = dispatch(
            &e,
            "u@x",
            "op=rcsdiff&url=http%3A%2F%2Fh%2Fdata.txt&from=1.1&to=1.2",
        );
        assert_eq!(plain.content_type, "text/plain");
        assert!(plain.body.contains("-line2"));
        assert!(plain.body.contains("+lineTWO"));
    }

    #[test]
    fn time_travel_by_date() {
        // The §2.2 "time travel" interface: co by RCS datestamp.
        let e = engine();
        dispatch(&e, "u@x", "op=remember&url=http%3A%2F%2Fh%2Fpage.html");
        let t_between = e.clock().now() + Duration::hours(12);
        e.clock().advance(Duration::days(1));
        e.web()
            .touch_page(
                "http://h/page.html",
                "<HTML><P>second edition</HTML>",
                e.clock().now(),
            )
            .unwrap();
        dispatch(&e, "u@x", "op=remember&url=http%3A%2F%2Fh%2Fpage.html");

        let r = dispatch(
            &e,
            "u@x",
            &format!(
                "op=co&url=http%3A%2F%2Fh%2Fpage.html&date={}",
                t_between.to_rcs_date()
            ),
        );
        assert_eq!(r.status, 200);
        assert!(r.body.contains("version one text."), "{}", r.body);
        // A bad date is a 400; a date before any revision is a 404.
        assert_eq!(
            dispatch(
                &e,
                "u@x",
                "op=co&url=http%3A%2F%2Fh%2Fpage.html&date=not-a-date"
            )
            .status,
            400
        );
        assert_eq!(
            dispatch(
                &e,
                "u@x",
                "op=co&url=http%3A%2F%2Fh%2Fpage.html&date=1980.01.01.00.00.00"
            )
            .status,
            404
        );
    }

    #[test]
    fn error_paths() {
        let e = engine();
        assert_eq!(dispatch(&e, "u@x", "url=http%3A%2F%2Fh%2F").status, 400);
        assert_eq!(dispatch(&e, "u@x", "op=diff").status, 400);
        assert_eq!(dispatch(&e, "u@x", "op=bogus&url=x").status, 400);
        assert_eq!(
            dispatch(&e, "u@x", "op=history&url=http%3A%2F%2Fnever%2F").status,
            404
        );
        assert_eq!(
            dispatch(&e, "u@x", "op=remember&url=http%3A%2F%2Fgone-host%2F").status,
            502
        );
        assert_eq!(
            dispatch(
                &e,
                "u@x",
                "op=rcsdiff&url=http%3A%2F%2Fh%2Fpage.html&from=bad&to=1.2"
            )
            .status,
            400
        );
    }

    #[test]
    fn post_refused() {
        let e = engine();
        let r = dispatch_post(&e, "u@x", "op=remember&url=http%3A%2F%2Fh%2Fpage.html");
        assert_eq!(r.status, 501);
        assert!(r.body.contains("POST"));
    }

    #[test]
    fn keepalive_wraps_dispatch() {
        let e = engine();
        let cfg = KeepaliveConfig {
            server_timeout: Duration::seconds(60),
            heartbeat: Some(Duration::seconds(5)),
        };
        // A long HtmlDiff (3 minutes) survives thanks to the heartbeat.
        let (resp, padding) = dispatch_with_keepalive(
            &e,
            "u@x",
            "op=remember&url=http%3A%2F%2Fh%2Fpage.html",
            Duration::minutes(3),
            &cfg,
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(padding, 36);
        // Without the heartbeat, httpd kills it.
        let cfg = KeepaliveConfig {
            server_timeout: Duration::seconds(60),
            heartbeat: None,
        };
        let err = dispatch_with_keepalive(
            &e,
            "u@x",
            "op=remember&url=http%3A%2F%2Fh%2Fpage.html",
            Duration::minutes(3),
            &cfg,
        )
        .unwrap_err();
        assert_eq!(err, Duration::seconds(60));
    }
}
