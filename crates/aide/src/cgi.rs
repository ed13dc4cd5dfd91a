//! Query strings, and the one CGI entry point left.
//!
//! "Pages can be registered with the service via an HTML form, and
//! differences can be retrieved in the same fashion" (§4.1). That form's
//! operations and §8.1's `rlog`, `co` and `rcsdiff` scripts are routes of
//! `aide-serve`, which parses their query strings with [`parse_query`]
//! and answers Remember with [`remember_page`]. [`dispatch`] serves
//! Remember alone, outside any router.

use crate::engine::AideEngine;
use aide_htmlkit::entity::encode_entities;
use aide_rcs::repo::Repository;
use aide_snapshot::service::RememberOutcome;
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

/// Decodes `%XX` escapes and `+` in a query component. A `%` not
/// followed by two hex digits stays as it is.
pub fn urldecode(s: &str) -> String {
    let bytes = s.as_bytes();
    let hex = |i: usize| bytes.get(i).and_then(|&b| (b as char).to_digit(16));
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let (byte, len) = match bytes[i] {
            b'+' => (b' ', 1),
            b'%' => match (hex(i + 1), hex(i + 2)) {
                (Some(hi), Some(lo)) => ((hi * 16 + lo) as u8, 3),
                _ => (b'%', 1),
            },
            b => (b, 1),
        };
        out.push(byte);
        i += len;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parses a query string (`op=diff&url=http%3A%2F%2Fx%2F`).
pub fn parse_query(query: &str) -> CgiRequest {
    let mut params = BTreeMap::new();
    for pair in query.split('&').filter(|pair| !pair.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        params.insert(urldecode(k), urldecode(v));
    }
    let op = params.get("op").cloned().unwrap_or_default();
    CgiRequest { op, params }
}

/// The Remember answer, `Remembered <url> as revision 1.N.`, with
/// " (unchanged)" when the page matched the head revision.
pub fn remember_page(url: &str, out: &RememberOutcome) -> String {
    let note = (!out.stored_new_revision).then_some(" (unchanged)");
    format!(
        "<HTML><BODY><P>Remembered <A HREF=\"{url}\">{url}</A> as revision {}{}.\
         </BODY></HTML>\n",
        out.rev,
        note.unwrap_or_default(),
        url = encode_entities(url)
    )
}

/// Serves `op=remember&url=X` for `user` without a router: parses the
/// query, remembers, and formats [`remember_page`] once. Any other op is
/// a 400; aide-serve's routes answer them. The end-to-end benchmark's
/// write listener is its one caller, and the benchmark change of ROADMAP
/// item 9, which moves those writes onto aide-serve's `/remember`,
/// deletes this shim together with that listener.
pub fn dispatch<R: Repository>(engine: &AideEngine<R>, user: &str, query: &str) -> CgiResponse {
    let req = parse_query(query);
    let (status, content_type, body) = match (req.op.as_str(), req.params.get("url")) {
        ("remember", Some(url)) => match engine.remember(user, url) {
            Ok(out) => (200, "text/html", remember_page(url, &out)),
            Err(e) => (502, "text/plain", e.to_string()),
        },
        _ => (400, "text/plain", "only op=remember is served".to_string()),
    };
    CgiResponse {
        status,
        content_type: content_type.to_string(),
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_simweb::net::Web;
    use aide_util::time::{Clock, Timestamp};

    #[test]
    fn urldecode_cases() {
        assert_eq!(urldecode("a+b"), "a b");
        assert_eq!(urldecode("http%3A%2F%2Fh%2F"), "http://h/");
        assert_eq!(urldecode("100%"), "100%");
        assert_eq!(urldecode("%ZZ"), "%ZZ");
        assert_eq!(urldecode("%+1%a\u{e9}"), "% 1%a\u{e9}");
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
    fn dispatch_serves_only_remember() {
        let web = Web::new(Clock::starting_at(Timestamp(1_000)));
        web.set_page("http://h/q?a=1&b=2", "<HTML>one</HTML>", Timestamp(100))
            .unwrap();
        let e = AideEngine::new(web);
        let query = "op=remember&url=http%3A%2F%2Fh%2Fq%3Fa%3D1%26b%3D2";
        let r = dispatch(&e, "u@x", query);
        assert_eq!((r.status, r.content_type.as_str()), (200, "text/html"));
        assert!(r.body.contains("as revision 1.1."), "{}", r.body);
        assert!(r.body.contains(">http://h/q?a=1&amp;b=2</A>"), "{}", r.body);
        let r = dispatch(&e, "u@x", query);
        assert!(r.body.contains("as revision 1.1 (unchanged)."), "{r:?}");
        for (query, status) in [
            ("op=remember&url=http://gone/", 502),
            ("op=diff&url=http://h/", 400),
            ("op=remember", 400),
        ] {
            assert_eq!(dispatch(&e, "u@x", query).status, status, "{query}");
        }
    }
}
