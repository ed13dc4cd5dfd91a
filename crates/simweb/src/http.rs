//! HTTP/1.0 request and response types, as AIDE sees them.
//!
//! Only the slice of HTTP the paper's tools touch is modelled: `HEAD`
//! requests for `Last-Modified` (the cheap poll w3newer prefers), `GET`
//! with optional `If-Modified-Since` (what a proxy revalidation sends),
//! `POST` (which §8.4 notes AIDE *cannot* yet track — the simulation
//! supports it so the extension can be exercised), and the error
//! taxonomy of §3.1: timeouts, unreachable hosts, refused connections.

use aide_util::time::Timestamp;
use std::fmt;

/// HTTP request method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Headers only — the cheap modification-date poll.
    Head,
    /// Full body fetch.
    Get,
    /// Form submission (§8.4).
    Post,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Method::Head => write!(f, "HEAD"),
            Method::Get => write!(f, "GET"),
            Method::Post => write!(f, "POST"),
        }
    }
}

/// HTTP status codes AIDE distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// 200.
    Ok,
    /// 304 (response to a conditional GET).
    NotModified,
    /// 301, with a `Location` header.
    MovedPermanently,
    /// 403 — e.g. the server refuses robots at the HTTP level.
    Forbidden,
    /// 404.
    NotFound,
    /// 410 — deliberately removed.
    Gone,
    /// 500 — CGI failure.
    ServerError,
    /// 503 — overloaded, try later.
    ServiceUnavailable,
}

impl Status {
    /// Numeric code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::NotModified => 304,
            Status::MovedPermanently => 301,
            Status::Forbidden => 403,
            Status::NotFound => 404,
            Status::Gone => 410,
            Status::ServerError => 500,
            Status::ServiceUnavailable => 503,
        }
    }

    /// True for 2xx/3xx-not-modified outcomes a tracker treats as success.
    pub fn is_success(self) -> bool {
        matches!(self, Status::Ok | Status::NotModified)
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// Network-level failures (no HTTP response at all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The request exceeded the client timeout (overloaded proxy/server).
    Timeout,
    /// No route to the host, or the client side is offline.
    HostUnreachable(String),
    /// The host exists but nothing listens (server process down).
    ConnectionRefused(String),
    /// The hostname does not resolve (server renamed/deactivated, §3.1).
    UnknownHost(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Timeout => write!(f, "timeout"),
            NetError::HostUnreachable(h) => write!(f, "host unreachable: {h}"),
            NetError::ConnectionRefused(h) => write!(f, "connection refused: {h}"),
            NetError::UnknownHost(h) => write!(f, "unknown host: {h}"),
        }
    }
}

impl std::error::Error for NetError {}

impl NetError {
    /// §3.1 suggests skipping subsequent URLs on a host once a *host*
    /// error (rather than a per-URL error) has occurred; this is that
    /// classification.
    pub fn is_host_error(&self) -> bool {
        matches!(
            self,
            NetError::HostUnreachable(_)
                | NetError::UnknownHost(_)
                | NetError::ConnectionRefused(_)
        )
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Absolute URL, as a string (parsed by the network layer).
    pub url: String,
    /// `If-Modified-Since`, for conditional GETs.
    pub if_modified_since: Option<Timestamp>,
    /// `User-Agent`, matched against `robots.txt` by well-behaved clients.
    pub user_agent: String,
    /// Client timeout in seconds (httpd's CGI timeout in §4.2 plays the
    /// same role on the server side).
    pub timeout_secs: u64,
    /// Request body (POST only).
    pub body: Option<String>,
}

impl Request {
    /// Default client timeout, seconds.
    pub const DEFAULT_TIMEOUT_SECS: u64 = 30;

    /// Builds a HEAD request.
    pub fn head(url: &str) -> Request {
        Request {
            method: Method::Head,
            url: url.to_string(),
            if_modified_since: None,
            user_agent: "w3newer/1.0".to_string(),
            timeout_secs: Self::DEFAULT_TIMEOUT_SECS,
            body: None,
        }
    }

    /// Builds a GET request.
    pub fn get(url: &str) -> Request {
        Request {
            method: Method::Get,
            ..Request::head(url)
        }
    }

    /// Builds a POST request with a body.
    pub fn post(url: &str, body: &str) -> Request {
        Request {
            method: Method::Post,
            body: Some(body.to_string()),
            ..Request::head(url)
        }
    }

    /// Sets `If-Modified-Since` (builder style).
    pub fn if_modified_since(mut self, t: Timestamp) -> Request {
        self.if_modified_since = Some(t);
        self
    }

    /// Sets the user agent (builder style).
    pub fn user_agent(mut self, ua: &str) -> Request {
        self.user_agent = ua.to_string();
        self
    }

    /// Sets the timeout (builder style).
    pub fn timeout_secs(mut self, secs: u64) -> Request {
        self.timeout_secs = secs;
        self
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// `Last-Modified`, when the resource provides one (CGI output does
    /// not — the case that forces checksum comparison, §2.1).
    pub last_modified: Option<Timestamp>,
    /// `Location` for redirects.
    pub location: Option<String>,
    /// `Content-Length` (present even for HEAD).
    pub content_length: usize,
    /// Body; empty for HEAD and 304 responses.
    pub body: String,
    /// `Date` — when the origin produced this response.
    pub date: Timestamp,
    /// `Retry-After`, in seconds — overloaded servers attach it to 503
    /// responses so well-behaved clients back off at least this long.
    pub retry_after: Option<u64>,
}

impl Response {
    /// True for transient server-side failures (500/503) that a client
    /// may retry; everything else is either success or terminal.
    pub fn is_transient_failure(&self) -> bool {
        matches!(
            self.status,
            Status::ServerError | Status::ServiceUnavailable
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let r = Request::head("http://h/p");
        assert_eq!(r.method, Method::Head);
        assert_eq!(r.timeout_secs, Request::DEFAULT_TIMEOUT_SECS);
        let r = Request::get("http://h/p")
            .if_modified_since(Timestamp(5))
            .timeout_secs(3);
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.if_modified_since, Some(Timestamp(5)));
        assert_eq!(r.timeout_secs, 3);
        let r = Request::post("http://h/cgi", "a=b");
        assert_eq!(r.body.as_deref(), Some("a=b"));
    }

    #[test]
    fn status_codes() {
        assert_eq!(Status::Ok.code(), 200);
        assert_eq!(Status::NotModified.code(), 304);
        assert_eq!(Status::MovedPermanently.code(), 301);
        assert!(Status::Ok.is_success());
        assert!(Status::NotModified.is_success());
        assert!(!Status::NotFound.is_success());
    }

    #[test]
    fn host_error_classification() {
        assert!(NetError::UnknownHost("x".into()).is_host_error());
        assert!(NetError::HostUnreachable("x".into()).is_host_error());
        assert!(!NetError::Timeout.is_host_error());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Method::Head.to_string(), "HEAD");
        assert_eq!(Status::Gone.to_string(), "410");
        assert_eq!(NetError::Timeout.to_string(), "timeout");
    }
}
