//! A simulated origin server.
//!
//! A host with a resource table, a `robots.txt`, an operational state
//! (up, slow, down — §3.1's "proxy-caching servers are sometimes
//! overloaded to the point of timing out large numbers of requests"
//! applies to origins too) and per-server request accounting, which the
//! Table 1 experiment uses to show thresholds "reduce unnecessary load on
//! that server".

use crate::http::{Method, Request, Response, Status};
use crate::resource::Resource;
use aide_util::time::Timestamp;
use std::collections::BTreeMap;

/// Operational state of a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerState {
    /// Serving normally.
    Up,
    /// Serving, but each request takes `delay_secs` — requests whose
    /// client timeout is smaller fail with a timeout.
    Slow {
        /// Response delay in seconds.
        delay_secs: u64,
    },
    /// The host resolves but nothing answers (connection refused).
    Down,
}

/// Per-server request counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// HEAD requests served (including errors).
    pub heads: u64,
    /// GET requests served.
    pub gets: u64,
    /// POST requests served.
    pub posts: u64,
    /// Conditional GETs answered with 304.
    pub not_modified: u64,
}

impl ServerStats {
    /// Total requests of all methods.
    pub fn total(&self) -> u64 {
        self.heads + self.gets + self.posts
    }
}

/// One origin server.
#[derive(Debug, Clone)]
pub struct OriginServer {
    /// Hostname (lowercase).
    pub host: String,
    resources: BTreeMap<String, Resource>,
    robots_txt: Option<String>,
    state: ServerState,
    stats: ServerStats,
}

impl OriginServer {
    /// Creates an empty, up server for `host`.
    pub fn new(host: &str) -> OriginServer {
        OriginServer {
            host: host.to_ascii_lowercase(),
            resources: BTreeMap::new(),
            robots_txt: None,
            state: ServerState::Up,
            stats: ServerStats::default(),
        }
    }

    /// Installs (or replaces) the resource at `path`.
    pub fn set_resource(&mut self, path: &str, resource: Resource) {
        self.resources.insert(path.to_string(), resource);
    }

    /// Reads the resource at `path`.
    pub fn resource(&self, path: &str) -> Option<&Resource> {
        self.resources.get(path)
    }

    /// Mutable access, for page-evolution drivers.
    pub fn resource_mut(&mut self, path: &str) -> Option<&mut Resource> {
        self.resources.get_mut(path)
    }

    /// All paths, sorted.
    pub fn paths(&self) -> Vec<&str> {
        self.resources.keys().map(String::as_str).collect()
    }

    /// Installs a `robots.txt` body (served at `/robots.txt`).
    pub fn set_robots_txt(&mut self, text: &str) {
        self.robots_txt = Some(text.to_string());
    }

    /// Sets the operational state.
    pub fn set_state(&mut self, state: ServerState) {
        self.state = state;
    }

    /// Current operational state.
    pub fn state(&self) -> ServerState {
        self.state
    }

    /// Accumulated counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Resets counters (between experiment phases).
    pub fn reset_stats(&mut self) {
        self.stats = ServerStats::default();
    }

    /// Serves one request at time `now`. Network-level outcomes (down,
    /// slow-past-timeout) are the caller's concern — the [`crate::net::Web`]
    /// checks [`OriginServer::state`] first; by the time this runs, the
    /// server is answering.
    pub fn serve(&mut self, req: &Request, path: &str, now: Timestamp) -> Response {
        match req.method {
            Method::Head => self.stats.heads += 1,
            Method::Get => self.stats.gets += 1,
            Method::Post => self.stats.posts += 1,
        }
        if path == "/robots.txt" {
            if let Some(text) = &self.robots_txt {
                return Response {
                    status: Status::Ok,
                    last_modified: None,
                    location: None,
                    content_length: text.len(),
                    body: if req.method == Method::Head {
                        String::new()
                    } else {
                        text.clone()
                    },
                    date: now,
                    retry_after: None,
                };
            }
            // Fall through: a literal resource may shadow it, else 404.
        }
        let Some(resource) = self.resources.get_mut(path) else {
            return Response {
                status: Status::NotFound,
                last_modified: None,
                location: None,
                content_length: 0,
                body: String::new(),
                date: now,
                retry_after: None,
            };
        };
        match resource {
            Resource::Moved { location } => Response {
                status: Status::MovedPermanently,
                last_modified: None,
                location: Some(location.clone()),
                content_length: 0,
                body: String::new(),
                date: now,
                retry_after: None,
            },
            Resource::Gone => Response {
                status: Status::Gone,
                last_modified: None,
                location: None,
                content_length: 0,
                body: String::new(),
                date: now,
                retry_after: None,
            },
            Resource::Page {
                body,
                last_modified,
            } => {
                // Conditional GET: 304 if unmodified since the client's date.
                if let Some(since) = req.if_modified_since {
                    if *last_modified <= since && req.method != Method::Head {
                        self.stats.not_modified += 1;
                        return Response {
                            status: Status::NotModified,
                            last_modified: Some(*last_modified),
                            location: None,
                            content_length: body.len(),
                            body: String::new(),
                            date: now,
                            retry_after: None,
                        };
                    }
                }
                Response {
                    status: Status::Ok,
                    last_modified: Some(*last_modified),
                    location: None,
                    content_length: body.len(),
                    body: if req.method == Method::Head {
                        String::new()
                    } else {
                        body.clone()
                    },
                    date: now,
                    retry_after: None,
                }
            }
            cgi @ Resource::Cgi { .. } => {
                let len = cgi.peek_len(now);
                let body = if req.method == Method::Head {
                    String::new()
                } else {
                    cgi.materialize_with_input(now, req.body.as_deref().unwrap_or(""))
                };
                Response {
                    status: Status::Ok,
                    last_modified: None,
                    location: None,
                    content_length: if req.method == Method::Head {
                        len
                    } else {
                        body.len()
                    },
                    body,
                    date: now,
                    retry_after: None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> OriginServer {
        let mut s = OriginServer::new("WWW.Example.COM");
        s.set_resource(
            "/index.html",
            Resource::page("<HTML>home</HTML>", Timestamp(500)),
        );
        s.set_resource("/cgi-bin/count", Resource::hit_counter("hits={HITS}"));
        s.set_resource(
            "/old.html",
            Resource::Moved {
                location: "http://www.example.com/new.html".into(),
            },
        );
        s.set_resource("/dead.html", Resource::Gone);
        s
    }

    #[test]
    fn host_lowercased() {
        assert_eq!(server().host, "www.example.com");
    }

    #[test]
    fn head_returns_headers_only() {
        let mut s = server();
        let r = s.serve(&Request::head("u"), "/index.html", Timestamp(1000));
        assert_eq!(r.status, Status::Ok);
        assert_eq!(r.last_modified, Some(Timestamp(500)));
        assert_eq!(r.content_length, 17);
        assert!(r.body.is_empty());
    }

    #[test]
    fn get_returns_body() {
        let mut s = server();
        let r = s.serve(&Request::get("u"), "/index.html", Timestamp(1000));
        assert_eq!(r.body, "<HTML>home</HTML>");
    }

    #[test]
    fn conditional_get_304() {
        let mut s = server();
        let fresh = s.serve(
            &Request::get("u").if_modified_since(Timestamp(600)),
            "/index.html",
            Timestamp(1000),
        );
        assert_eq!(fresh.status, Status::NotModified);
        assert!(fresh.body.is_empty());
        let stale = s.serve(
            &Request::get("u").if_modified_since(Timestamp(400)),
            "/index.html",
            Timestamp(1000),
        );
        assert_eq!(stale.status, Status::Ok);
        assert_eq!(s.stats().not_modified, 1);
    }

    #[test]
    fn cgi_has_no_last_modified_and_mutates() {
        let mut s = server();
        let a = s.serve(&Request::get("u"), "/cgi-bin/count", Timestamp(1));
        let b = s.serve(&Request::get("u"), "/cgi-bin/count", Timestamp(1));
        assert_eq!(a.last_modified, None);
        assert_ne!(a.body, b.body);
    }

    #[test]
    fn cgi_head_does_not_bump_counter() {
        let mut s = server();
        let _ = s.serve(&Request::head("u"), "/cgi-bin/count", Timestamp(1));
        let g = s.serve(&Request::get("u"), "/cgi-bin/count", Timestamp(1));
        assert_eq!(g.body, "hits=1");
    }

    #[test]
    fn moved_gone_notfound() {
        let mut s = server();
        let m = s.serve(&Request::head("u"), "/old.html", Timestamp(1));
        assert_eq!(m.status, Status::MovedPermanently);
        assert_eq!(
            m.location.as_deref(),
            Some("http://www.example.com/new.html")
        );
        assert_eq!(
            s.serve(&Request::head("u"), "/dead.html", Timestamp(1))
                .status,
            Status::Gone
        );
        assert_eq!(
            s.serve(&Request::head("u"), "/missing", Timestamp(1))
                .status,
            Status::NotFound
        );
    }

    #[test]
    fn robots_txt_served() {
        let mut s = server();
        s.set_robots_txt("User-agent: *\nDisallow: /cgi-bin/\n");
        let r = s.serve(&Request::get("u"), "/robots.txt", Timestamp(1));
        assert_eq!(r.status, Status::Ok);
        assert!(r.body.contains("Disallow"));
    }

    #[test]
    fn missing_robots_txt_is_404() {
        let mut s = server();
        assert_eq!(
            s.serve(&Request::get("u"), "/robots.txt", Timestamp(1))
                .status,
            Status::NotFound
        );
    }

    #[test]
    fn stats_count_by_method() {
        let mut s = server();
        s.serve(&Request::head("u"), "/index.html", Timestamp(1));
        s.serve(&Request::head("u"), "/index.html", Timestamp(1));
        s.serve(&Request::get("u"), "/index.html", Timestamp(1));
        let st = s.stats();
        assert_eq!(st.heads, 2);
        assert_eq!(st.gets, 1);
        assert_eq!(st.total(), 3);
        s.reset_stats();
        assert_eq!(s.stats().total(), 0);
    }

    #[test]
    fn resource_mut_allows_evolution() {
        let mut s = server();
        if let Some(Resource::Page {
            body,
            last_modified,
        }) = s.resource_mut("/index.html")
        {
            *body = "<HTML>v2</HTML>".to_string();
            *last_modified = Timestamp(900);
        }
        let r = s.serve(&Request::get("u"), "/index.html", Timestamp(1000));
        assert_eq!(r.body, "<HTML>v2</HTML>");
        assert_eq!(r.last_modified, Some(Timestamp(900)));
    }
}
