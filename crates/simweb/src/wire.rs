//! HTTP/1.x wire format: the one parser `aide-serve` and the end-to-end
//! benchmark's server run.
//!
//! The [`http`](crate::http) module models HTTP as *typed values* — the
//! slice of the protocol AIDE's tools exchange. This module owns the
//! *byte* representation: an incremental request parser and a response
//! serializer. `aide-serve` runs [`RequestParser`] against real socket
//! bytes.
//!
//! Design constraints, in order:
//!
//! 1. **Never panic, never hang.** Every input byte sequence — however
//!    malformed, truncated, or adversarial — yields `Ok(Some)`,
//!    `Ok(None)` ("need more bytes"), or a typed [`ParseError`], within
//!    the hard [`Limits`]. The torture suite and a proptest feed this
//!    parser arbitrary bytes.
//! 2. **Incremental.** Bytes arrive in whatever chunks the transport
//!    produces (the torture tests go byte-at-a-time); leftover bytes
//!    after a complete request stay buffered, which is what makes
//!    pipelining work.
//! 3. **Deterministic.** Parsing is a pure function of the byte stream;
//!    serialization emits headers in the order given. Two same-input
//!    runs are byte-identical.

use aide_htmlkit::entity::encode_entities;
use std::fmt;

/// Hard ceilings the parser enforces while data is still arriving, so a
/// hostile client can neither balloon memory nor wedge a worker by
/// trickling an endless header section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Longest accepted request line, bytes (CRLF included).
    pub max_request_line: usize,
    /// Longest accepted header section, bytes (all lines together).
    pub max_header_bytes: usize,
    /// Most headers accepted in one request.
    pub max_headers: usize,
    /// Largest accepted `Content-Length` body.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_request_line: 8 * 1024,
            max_header_bytes: 32 * 1024,
            max_headers: 100,
            max_body: 1024 * 1024,
        }
    }
}

/// HTTP version of a parsed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpVersion {
    /// `HTTP/1.0`: one request per connection unless keep-alive is asked.
    H10,
    /// `HTTP/1.1`: persistent by default.
    H11,
}

impl fmt::Display for HttpVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpVersion::H10 => write!(f, "HTTP/1.0"),
            HttpVersion::H11 => write!(f, "HTTP/1.1"),
        }
    }
}

/// Why a byte stream failed to parse as a request. Each variant maps to
/// the status code a server should answer with before closing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The request line is not `METHOD SP target SP HTTP/1.x`.
    BadRequestLine,
    /// The version token is not `HTTP/1.0` or `HTTP/1.1`.
    BadVersion,
    /// A header line has no `:` or a name with illegal characters.
    BadHeader,
    /// The request line exceeded [`Limits::max_request_line`].
    RequestLineTooLong,
    /// The header section exceeded [`Limits::max_header_bytes`].
    HeadersTooLarge,
    /// More than [`Limits::max_headers`] header lines.
    TooManyHeaders,
    /// `Content-Length` is not a number (or conflicts between copies).
    BadContentLength,
    /// The declared body exceeds [`Limits::max_body`].
    BodyTooLarge,
    /// `Transfer-Encoding` — the one 1.1 body mechanism this server
    /// deliberately does not implement.
    UnsupportedTransferEncoding,
}

impl ParseError {
    /// The status code a server answers with before closing.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::RequestLineTooLong => 414,
            ParseError::HeadersTooLarge | ParseError::TooManyHeaders => 431,
            ParseError::BodyTooLarge => 413,
            ParseError::UnsupportedTransferEncoding => 501,
            _ => 400,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadRequestLine => write!(f, "malformed request line"),
            ParseError::BadVersion => write!(f, "unsupported HTTP version"),
            ParseError::BadHeader => write!(f, "malformed header line"),
            ParseError::RequestLineTooLong => write!(f, "request line too long"),
            ParseError::HeadersTooLarge => write!(f, "header section too large"),
            ParseError::TooManyHeaders => write!(f, "too many header fields"),
            ParseError::BadContentLength => write!(f, "bad Content-Length"),
            ParseError::BodyTooLarge => write!(f, "request body too large"),
            ParseError::UnsupportedTransferEncoding => {
                write!(f, "Transfer-Encoding not supported")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// One parsed request, headers in arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRequest {
    /// Method token, verbatim (`GET`, `HEAD`, …). Always uppercase in
    /// valid requests; the parser does not case-fold it.
    pub method: String,
    /// Request target, verbatim: origin-form (`/diff?url=…`) from a
    /// browser, absolute-form (`http://h/p`) from a proxy client.
    pub target: String,
    /// Protocol version.
    pub version: HttpVersion,
    /// Header fields in arrival order, names case-preserved.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl WireRequest {
    /// First header named `name`, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 defaults to persistent unless `Connection: close`;
    /// HTTP/1.0 defaults to closing unless `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        let conn = self.header("connection").unwrap_or("");
        match self.version {
            HttpVersion::H11 => !conn.eq_ignore_ascii_case("close"),
            HttpVersion::H10 => conn.eq_ignore_ascii_case("keep-alive"),
        }
    }

    /// Serializes back to wire bytes (the proptest round-trip target).
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.body.len());
        out.extend_from_slice(
            format!("{} {} {}\r\n", self.method, self.target, self.version).as_bytes(),
        );
        for (n, v) in &self.headers {
            out.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

/// Is `b` legal in a header field name (RFC 7230 `tchar`)?
fn is_tchar(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Incremental request parser over a growing byte buffer.
///
/// Feed bytes with [`RequestParser::push`]; pull complete requests with
/// [`RequestParser::take_request`]. Unconsumed bytes (the start of a
/// pipelined successor) remain buffered for the next call.
///
/// # Examples
///
/// ```
/// use aide_simweb::wire::RequestParser;
///
/// let mut p = RequestParser::new();
/// p.push(b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HT");
/// let a = p.take_request().unwrap().unwrap();
/// assert_eq!(a.target, "/a");
/// assert!(p.take_request().unwrap().is_none(), "second still partial");
/// p.push(b"TP/1.1\r\n\r\n");
/// assert_eq!(p.take_request().unwrap().unwrap().target, "/b");
/// ```
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    limits: Limits,
}

impl RequestParser {
    /// A parser with default [`Limits`].
    pub fn new() -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            limits: Limits::default(),
        }
    }

    /// A parser with explicit limits (the torture suite shrinks them).
    pub fn with_limits(limits: Limits) -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            limits,
        }
    }

    /// Appends newly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete request.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Tries to parse one complete request off the front of the buffer.
    ///
    /// `Ok(Some(req))` consumes the request's bytes; `Ok(None)` means
    /// the data so far is a valid prefix and more bytes are needed;
    /// `Err` means the stream is unsalvageable and the connection should
    /// be answered with [`ParseError::status`] and closed.
    pub fn take_request(&mut self) -> Result<Option<WireRequest>, ParseError> {
        // --- request line ---
        let Some(line_end) = find_crlf(&self.buf, 0) else {
            if self.buf.len() > self.limits.max_request_line {
                return Err(ParseError::RequestLineTooLong);
            }
            return Ok(None);
        };
        if line_end > self.limits.max_request_line {
            return Err(ParseError::RequestLineTooLong);
        }
        let line_str =
            std::str::from_utf8(&self.buf[..line_end]).map_err(|_| ParseError::BadRequestLine)?;
        let mut words = line_str.split(' ');
        let (method, target, version_tok) =
            match (words.next(), words.next(), words.next(), words.next()) {
                (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
                _ => return Err(ParseError::BadRequestLine),
            };
        if !method.bytes().all(is_tchar) {
            return Err(ParseError::BadRequestLine);
        }
        let version = match version_tok {
            "HTTP/1.1" => HttpVersion::H11,
            "HTTP/1.0" => HttpVersion::H10,
            _ => return Err(ParseError::BadVersion),
        };
        let (method, target) = (method.to_string(), target.to_string());

        // --- header section ---
        let headers_start = line_end + 2;
        let mut headers: Vec<(String, String)> = Vec::new();
        let mut pos = headers_start;
        let body_start;
        loop {
            if pos - headers_start > self.limits.max_header_bytes {
                return Err(ParseError::HeadersTooLarge);
            }
            let Some(eol) = find_crlf(&self.buf, pos) else {
                if self.buf.len() - headers_start > self.limits.max_header_bytes {
                    return Err(ParseError::HeadersTooLarge);
                }
                return Ok(None);
            };
            if eol == pos {
                // Empty line: end of headers.
                body_start = pos + 2;
                break;
            }
            if eol - headers_start > self.limits.max_header_bytes {
                return Err(ParseError::HeadersTooLarge);
            }
            if headers.len() == self.limits.max_headers {
                return Err(ParseError::TooManyHeaders);
            }
            let raw = &self.buf[pos..eol];
            let text = std::str::from_utf8(raw).map_err(|_| ParseError::BadHeader)?;
            let (name, value) = text.split_once(':').ok_or(ParseError::BadHeader)?;
            if name.is_empty() || !name.bytes().all(is_tchar) {
                // Leading whitespace in the name also lands here, which
                // rejects obsolete line folding — per RFC 7230 §3.2.4.
                return Err(ParseError::BadHeader);
            }
            headers.push((name.to_string(), value.trim().to_string()));
            pos = eol + 2;
        }

        // --- body ---
        if headers
            .iter()
            .any(|(n, _)| n.eq_ignore_ascii_case("transfer-encoding"))
        {
            return Err(ParseError::UnsupportedTransferEncoding);
        }
        let mut content_length = 0usize;
        let mut seen_cl: Option<usize> = None;
        for (n, v) in &headers {
            if n.eq_ignore_ascii_case("content-length") {
                let parsed: usize = v.parse().map_err(|_| ParseError::BadContentLength)?;
                if seen_cl.is_some_and(|prev| prev != parsed) {
                    return Err(ParseError::BadContentLength);
                }
                seen_cl = Some(parsed);
                content_length = parsed;
            }
        }
        if content_length > self.limits.max_body {
            return Err(ParseError::BodyTooLarge);
        }
        if self.buf.len() < body_start + content_length {
            return Ok(None);
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        self.buf.drain(..body_start + content_length);
        Ok(Some(WireRequest {
            method,
            target,
            version,
            headers,
            body,
        }))
    }
}

/// Position of the next CRLF at or after `from`, if any.
fn find_crlf(buf: &[u8], from: usize) -> Option<usize> {
    if buf.len() < 2 {
        return None;
    }
    (from..buf.len() - 1).find(|&i| buf[i] == b'\r' && buf[i + 1] == b'\n')
}

/// Canonical reason phrase for the codes this workspace emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        301 => "Moved Permanently",
        302 => "Found",
        304 => "Not Modified",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        406 => "Not Acceptable",
        410 => "Gone",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// An HTTP response being assembled for the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireResponse {
    /// Status code.
    pub status: u16,
    /// Header fields, emitted in push order.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl WireResponse {
    /// An empty response with `status`.
    pub fn new(status: u16) -> WireResponse {
        WireResponse {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Appends a header (builder style).
    pub fn header(mut self, name: &str, value: &str) -> WireResponse {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Sets the body (builder style). `Content-Length` is emitted at
    /// serialization time, never stored, so it cannot go stale.
    pub fn body(mut self, body: impl Into<Vec<u8>>) -> WireResponse {
        self.body = body.into();
        self
    }

    /// First header named `name`, case-insensitively.
    pub fn find_header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Serializes status line, headers, `Content-Length` and body.
    ///
    /// `head_only` suppresses the body bytes while keeping the headers
    /// (including `Content-Length`) — the HEAD contract.
    pub fn serialize(&self, head_only: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\n",
                self.status,
                reason_phrase(self.status)
            )
            .as_bytes(),
        );
        for (n, v) in &self.headers {
            out.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
        }
        // 304s carry no body by definition; everything else declares its
        // length so keep-alive clients know where the next response starts.
        if self.status != 304 {
            out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        if !head_only && self.status != 304 {
            out.extend_from_slice(&self.body);
        }
        out
    }
}

/// A minimal HTML error page with `Connection: close`. `detail` is
/// entity-encoded: it often echoes request text (a path, a URL, a date).
pub fn error_response(status: u16, detail: &str) -> WireResponse {
    WireResponse::new(status)
        .header("Content-Type", "text/html")
        .header("Connection", "close")
        .body(format!(
            "<HTML><HEAD><TITLE>{status} {reason}</TITLE></HEAD><BODY>\
             <H1>{status} {reason}</H1><P>{detail}</BODY></HTML>\n",
            reason = reason_phrase(status),
            detail = encode_entities(detail),
        ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(bytes: &[u8]) -> Result<Option<WireRequest>, ParseError> {
        let mut p = RequestParser::new();
        p.push(bytes);
        p.take_request()
    }

    #[test]
    fn simple_get() {
        let r = parse_one(b"GET /x?a=1 HTTP/1.1\r\nHost: h\r\nAccept: */*\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.target, "/x?a=1");
        assert_eq!(r.version, HttpVersion::H11);
        assert_eq!(r.header("HOST"), Some("h"));
        assert!(r.body.is_empty());
        assert!(r.keep_alive());
    }

    #[test]
    fn body_via_content_length() {
        let r = parse_one(b"POST /f HTTP/1.0\r\nContent-Length: 3\r\n\r\nabcXYZ")
            .unwrap()
            .unwrap();
        assert_eq!(r.body, b"abc");
        assert!(!r.keep_alive(), "1.0 defaults to close");
    }

    #[test]
    fn incomplete_returns_none() {
        assert_eq!(parse_one(b"GET / HTTP/1.1\r\nHost:"), Ok(None));
        assert_eq!(parse_one(b"GET / HT"), Ok(None));
        assert_eq!(
            parse_one(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Ok(None)
        );
    }

    #[test]
    fn malformed_lines_error() {
        assert_eq!(parse_one(b"\r\n\r\n"), Err(ParseError::BadRequestLine));
        assert_eq!(
            parse_one(b"GET/HTTP/1.1\r\n\r\n"),
            Err(ParseError::BadRequestLine)
        );
        assert_eq!(
            parse_one(b"GET / HTTP/2.0\r\n\r\n"),
            Err(ParseError::BadVersion)
        );
        assert_eq!(
            parse_one(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(ParseError::BadHeader)
        );
        assert_eq!(
            parse_one(b"GET / HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
            Err(ParseError::BadContentLength)
        );
        assert_eq!(
            parse_one(b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ParseError::UnsupportedTransferEncoding)
        );
    }

    #[test]
    fn limits_enforced_incrementally() {
        let limits = Limits {
            max_request_line: 32,
            max_header_bytes: 64,
            max_headers: 2,
            max_body: 16,
        };
        // Request line never terminated: the parser flags it as soon as
        // the buffer outgrows the limit, without waiting for CRLF.
        let mut p = RequestParser::with_limits(limits);
        p.push(&[b'A'; 33]);
        assert_eq!(p.take_request(), Err(ParseError::RequestLineTooLong));

        let mut p = RequestParser::with_limits(limits);
        p.push(b"GET / HTTP/1.1\r\n");
        p.push(&[b'h'; 65]);
        assert_eq!(p.take_request(), Err(ParseError::HeadersTooLarge));

        let mut p = RequestParser::with_limits(limits);
        p.push(b"GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n");
        assert_eq!(p.take_request(), Err(ParseError::TooManyHeaders));

        let mut p = RequestParser::with_limits(limits);
        p.push(b"POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n");
        assert_eq!(p.take_request(), Err(ParseError::BodyTooLarge));
    }

    #[test]
    fn pipelined_requests_stay_buffered() {
        let mut p = RequestParser::new();
        p.push(b"GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\n");
        assert_eq!(p.take_request().unwrap().unwrap().target, "/1");
        assert_eq!(p.take_request().unwrap().unwrap().target, "/2");
        assert_eq!(p.take_request(), Ok(None));
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn serialize_roundtrip() {
        let req = WireRequest {
            method: "POST".to_string(),
            target: "/submit".to_string(),
            version: HttpVersion::H11,
            headers: vec![
                ("Host".to_string(), "example".to_string()),
                ("Content-Length".to_string(), "4".to_string()),
            ],
            body: b"a=b1".to_vec(),
        };
        let parsed = parse_one(&req.serialize()).unwrap().unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn response_serialization() {
        let r = WireResponse::new(200)
            .header("Content-Type", "text/html")
            .body("hi");
        let s = String::from_utf8(r.serialize(false)).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 2\r\n"));
        assert!(s.ends_with("\r\n\r\nhi"));
        let head = String::from_utf8(r.serialize(true)).unwrap();
        assert!(head.contains("Content-Length: 2\r\n"));
        assert!(head.ends_with("\r\n\r\n"), "HEAD drops the body");
        let nm = WireResponse::new(304).serialize(false);
        let nm = String::from_utf8(nm).unwrap();
        assert!(!nm.contains("Content-Length"), "304 carries no length");
    }
}
