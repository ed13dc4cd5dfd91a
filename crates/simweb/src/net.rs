//! The simulated Web: host registry, dispatch, failure injection,
//! accounting.
//!
//! A [`Web`] is a cheaply cloneable handle onto shared state, the way
//! every 1995 process shared the one real Web. It dispatches requests to
//! [`OriginServer`]s by hostname, serves `file:` URLs from a simulated
//! local filesystem (w3newer "supports the `file:` specification and can
//! find out if a local file has changed", §3.1), injects the §3.1 error
//! conditions, and counts every request — the denominator of the
//! scalability experiments.

use crate::fault::{FaultKind, FaultPlan};
use crate::http::{Method, NetError, Request, Response, Status};
use crate::resource::Resource;
use crate::server::{OriginServer, ServerState, ServerStats};
use aide_htmlkit::url::Url;
use aide_util::sync::Mutex;
use aide_util::time::{Clock, Timestamp};
use std::collections::BTreeMap;
use std::sync::Arc;

aide_obs::stat_cells! {
    /// Global request accounting.
    pub struct NetStats;
    /// The cells behind [`NetStats`].
    struct NetCells {
        /// All requests attempted (including failures).
        requests: "simweb.requests",
        /// HEAD requests attempted.
        heads: "simweb.heads",
        /// GET requests attempted.
        gets: "simweb.gets",
        /// POST requests attempted.
        posts: "simweb.posts",
        /// Requests that failed at the network level.
        net_errors: "simweb.net_errors",
        /// `file:` accesses (cheap `stat` calls, not network traffic).
        file_stats: "simweb.file_stats",
        /// Requests whose outcome was altered by an installed
        /// [`FaultPlan`] (every kind: errors, 5xx, slowness, truncation).
        faults_injected: "simweb.faults_injected",
    }
}

/// Resources (CGI especially) are keyed by path plus query string, so
/// `?topic=web` and `?topic=mail` are distinct resources.
fn resource_key(u: &Url) -> String {
    match &u.query {
        Some(q) => format!("{}?{}", u.path, q),
        None => u.path.clone(),
    }
}

#[derive(Debug, Default)]
struct WebState {
    servers: BTreeMap<String, OriginServer>,
    /// Simulated local filesystem for `file:` URLs: path → (content, mtime).
    local_files: BTreeMap<String, (String, Timestamp)>,
    /// When false, every network request fails (local connectivity loss).
    network_up: bool,
    stats: NetCells,
    /// Scripted fault injection, layered over the static knobs.
    fault_plan: Option<FaultPlan>,
    /// Per-(host, path+query) request counters: the draw index fed to the
    /// plan, so the n-th request to a resource always sees the n-th draw.
    fault_draws: BTreeMap<(String, String), u64>,
}

/// Handle to the simulated Web.
///
/// # Examples
///
/// ```
/// use aide_simweb::net::Web;
/// use aide_simweb::http::Request;
/// use aide_util::time::{Clock, Timestamp};
///
/// let web = Web::new(Clock::new());
/// web.set_page("http://www.usenix.org/", "<HTML>hi</HTML>", Timestamp(100)).unwrap();
/// let resp = web.request(&Request::get("http://www.usenix.org/")).unwrap();
/// assert_eq!(resp.body, "<HTML>hi</HTML>");
/// ```
#[derive(Clone)]
pub struct Web {
    clock: Clock,
    state: Arc<Mutex<WebState>>,
}

impl Web {
    /// Creates an empty Web on `clock`.
    pub fn new(clock: Clock) -> Web {
        Web {
            clock,
            state: Arc::new(Mutex::new(WebState {
                network_up: true,
                ..WebState::default()
            })),
        }
    }

    /// The clock this Web runs on.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Registers a (possibly empty) server for `host`.
    pub fn add_server(&self, host: &str) {
        let mut st = self.state.lock();
        st.servers
            .entry(host.to_ascii_lowercase())
            .or_insert_with(|| OriginServer::new(host));
    }

    /// Installs a static page at `url`, creating its server if needed.
    pub fn set_page(
        &self,
        url: &str,
        body: &str,
        last_modified: Timestamp,
    ) -> Result<(), NetError> {
        self.with_resource(url, Resource::page(body, last_modified))
    }

    /// Installs a resource at `url`, creating its server if needed.
    pub fn set_resource(&self, url: &str, resource: Resource) -> Result<(), NetError> {
        self.with_resource(url, resource)
    }

    fn with_resource(&self, url: &str, resource: Resource) -> Result<(), NetError> {
        let u = Url::parse(url).map_err(|_| NetError::UnknownHost(url.to_string()))?;
        if u.scheme == "file" {
            let mut st = self.state.lock();
            let mtime = match &resource {
                Resource::Page { last_modified, .. } => *last_modified,
                _ => self.clock.now(),
            };
            let body = match resource {
                Resource::Page { body, .. } => body,
                other => {
                    let mut other = other;
                    other.materialize(self.clock.now())
                }
            };
            st.local_files.insert(u.path, (body, mtime));
            return Ok(());
        }
        let mut st = self.state.lock();
        let server = st
            .servers
            .entry(u.host.clone())
            .or_insert_with(|| OriginServer::new(&u.host));
        server.set_resource(&resource_key(&u), resource);
        Ok(())
    }

    /// Updates the body and date of the page at `url` (page evolution).
    pub fn touch_page(&self, url: &str, body: &str, when: Timestamp) -> Result<(), NetError> {
        self.set_page(url, body, when)
    }

    /// Installs `robots.txt` for `host`.
    pub fn set_robots_txt(&self, host: &str, text: &str) {
        let mut st = self.state.lock();
        st.servers
            .entry(host.to_ascii_lowercase())
            .or_insert_with(|| OriginServer::new(host))
            .set_robots_txt(text);
    }

    /// Sets a server's operational state. Unknown hosts are created so
    /// failure plans can precede content setup.
    pub fn set_server_state(&self, host: &str, state: ServerState) {
        let mut st = self.state.lock();
        st.servers
            .entry(host.to_ascii_lowercase())
            .or_insert_with(|| OriginServer::new(host))
            .set_state(state);
    }

    /// Removes a host entirely — its name stops resolving (§3.1: "the
    /// server for a URL can be deactivated or renamed").
    pub fn unregister_host(&self, host: &str) -> bool {
        self.state
            .lock()
            .servers
            .remove(&host.to_ascii_lowercase())
            .is_some()
    }

    /// Turns the client-side network on or off.
    pub fn set_network_up(&self, up: bool) {
        self.state.lock().network_up = up;
    }

    /// Installs a scripted [`FaultPlan`]; replaces any previous plan.
    /// Draw counters are reset so the plan starts from draw zero.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        let mut st = self.state.lock();
        st.fault_draws.clear();
        st.fault_plan = if plan.is_empty() { None } else { Some(plan) };
    }

    /// Removes the fault plan; the Web is healthy again (static knobs
    /// like [`ServerState`] still apply).
    pub fn clear_fault_plan(&self) {
        let mut st = self.state.lock();
        st.fault_plan = None;
        st.fault_draws.clear();
    }

    /// Writes a simulated local file (for `file:` URLs).
    pub fn write_local_file(&self, path: &str, content: &str, mtime: Timestamp) {
        self.state
            .lock()
            .local_files
            .insert(path.to_string(), (content.to_string(), mtime));
    }

    /// Performs one request.
    pub fn request(&self, req: &Request) -> Result<Response, NetError> {
        let now = self.clock.now();
        let url = Url::parse(&req.url).map_err(|_| NetError::UnknownHost(req.url.clone()))?;

        if url.scheme == "file" {
            // Local stat/read: no network, cannot fail with net errors.
            let st = self.state.lock();
            st.stats.file_stats.add(1);
            return Ok(match st.local_files.get(&url.path) {
                Some((content, mtime)) => Response {
                    status: Status::Ok,
                    last_modified: Some(*mtime),
                    location: None,
                    content_length: content.len(),
                    body: if req.method == Method::Head {
                        String::new()
                    } else {
                        content.clone()
                    },
                    date: now,
                    retry_after: None,
                },
                None => Response {
                    status: Status::NotFound,
                    last_modified: None,
                    location: None,
                    content_length: 0,
                    body: String::new(),
                    date: now,
                    retry_after: None,
                },
            });
        }

        let mut st = self.state.lock();
        let st = &mut *st;
        st.stats.requests.add(1);
        match req.method {
            Method::Head => st.stats.heads.add(1),
            Method::Get => st.stats.gets.add(1),
            Method::Post => st.stats.posts.add(1),
        }
        if !st.network_up {
            st.stats.net_errors.add(1);
            return Err(NetError::HostUnreachable(url.host.clone()));
        }
        let path = resource_key(&url);
        let Some(server) = st.servers.get_mut(&url.host) else {
            st.stats.net_errors.add(1);
            return Err(NetError::UnknownHost(url.host.clone()));
        };
        match server.state() {
            ServerState::Down => {
                st.stats.net_errors.add(1);
                return Err(NetError::ConnectionRefused(url.host.clone()));
            }
            ServerState::Slow { delay_secs } if delay_secs >= req.timeout_secs => {
                st.stats.net_errors.add(1);
                return Err(NetError::Timeout);
            }
            _ => {}
        }

        // Scripted fault injection, layered after the static knobs so a
        // Web without a plan behaves exactly as before.
        let fault = match &st.fault_plan {
            Some(plan) => {
                let draw = st
                    .fault_draws
                    .entry((url.host.clone(), path.clone()))
                    .or_insert(0);
                let d = *draw;
                *draw += 1;
                plan.decide(&url.host, &path, d, now)
            }
            None => None,
        };
        match fault {
            Some(FaultKind::Timeout) => {
                st.stats.faults_injected.add(1);
                st.stats.net_errors.add(1);
                aide_obs::counter!("simweb.fault.timeout", 1);
                return Err(NetError::Timeout);
            }
            Some(FaultKind::ConnectionRefused) => {
                st.stats.faults_injected.add(1);
                st.stats.net_errors.add(1);
                aide_obs::counter!("simweb.fault.connection_refused", 1);
                return Err(NetError::ConnectionRefused(url.host.clone()));
            }
            Some(FaultKind::HostUnreachable) => {
                st.stats.faults_injected.add(1);
                st.stats.net_errors.add(1);
                aide_obs::counter!("simweb.fault.host_unreachable", 1);
                return Err(NetError::HostUnreachable(url.host.clone()));
            }
            Some(FaultKind::Slow { delay_secs }) => {
                st.stats.faults_injected.add(1);
                aide_obs::counter!("simweb.fault.slow", 1);
                if delay_secs >= req.timeout_secs {
                    st.stats.net_errors.add(1);
                    return Err(NetError::Timeout);
                }
                // Latency below the client timeout: the response still
                // arrives (the virtual clock is not advanced — workers
                // sleeping on it would interleave nondeterministically).
            }
            Some(FaultKind::Transient {
                status,
                retry_after_secs,
            }) => {
                st.stats.faults_injected.add(1);
                aide_obs::counter!("simweb.fault.transient", 1);
                return Ok(Response {
                    status,
                    last_modified: None,
                    location: None,
                    content_length: 0,
                    body: String::new(),
                    date: now,
                    retry_after: retry_after_secs,
                });
            }
            _ => {}
        }
        let mut resp = server.serve(req, &path, now);
        if let Some(FaultKind::Truncate { keep_bytes }) = fault {
            if req.method == Method::Get
                && resp.status == Status::Ok
                && resp.body.len() > keep_bytes
            {
                // Cut the body but keep the advertised Content-Length:
                // the client sees a short read it can detect.
                let mut keep = keep_bytes;
                while keep > 0 && !resp.body.is_char_boundary(keep) {
                    keep -= 1;
                }
                resp.body.truncate(keep);
                st.stats.faults_injected.add(1);
                aide_obs::counter!("simweb.fault.truncated", 1);
            }
        }
        Ok(resp)
    }

    /// GETs `url`, following up to `max_redirects` 301s.
    pub fn get_following_redirects(
        &self,
        url: &str,
        max_redirects: usize,
    ) -> Result<(String, Response), NetError> {
        let mut current = url.to_string();
        for _ in 0..=max_redirects {
            let resp = self.request(&Request::get(&current))?;
            if resp.status == Status::MovedPermanently {
                match &resp.location {
                    Some(loc) => {
                        current = loc.clone();
                        continue;
                    }
                    None => return Ok((current, resp)),
                }
            }
            return Ok((current, resp));
        }
        Err(NetError::Timeout)
    }

    /// Accumulated global counters.
    pub fn stats(&self) -> NetStats {
        self.state.lock().stats.snapshot()
    }

    /// Per-server counters for `host`.
    pub fn server_stats(&self, host: &str) -> Option<ServerStats> {
        self.state
            .lock()
            .servers
            .get(&host.to_ascii_lowercase())
            .map(|s| s.stats())
    }

    /// Resets global and per-server counters.
    pub fn reset_stats(&self) {
        let mut st = self.state.lock();
        st.stats = NetCells::default();
        for s in st.servers.values_mut() {
            s.reset_stats();
        }
    }

    /// All registered hostnames, sorted.
    pub fn hosts(&self) -> Vec<String> {
        self.state.lock().servers.keys().cloned().collect()
    }

    /// All URLs currently served (http pages, sorted) — used by workload
    /// drivers to enumerate the simulated web.
    pub fn urls(&self) -> Vec<String> {
        let st = self.state.lock();
        let mut out = Vec::new();
        for (host, server) in &st.servers {
            for path in server.paths() {
                out.push(format!("http://{host}{path}"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn web() -> Web {
        let w = Web::new(Clock::starting_at(Timestamp(10_000)));
        w.set_page("http://a.com/x.html", "<HTML>ax</HTML>", Timestamp(100))
            .unwrap();
        w.set_page("http://b.com/y.html", "<HTML>by</HTML>", Timestamp(200))
            .unwrap();
        w
    }

    #[test]
    fn head_and_get() {
        let w = web();
        let h = w.request(&Request::head("http://a.com/x.html")).unwrap();
        assert_eq!(h.last_modified, Some(Timestamp(100)));
        assert!(h.body.is_empty());
        let g = w.request(&Request::get("http://a.com/x.html")).unwrap();
        assert_eq!(g.body, "<HTML>ax</HTML>");
    }

    #[test]
    fn unknown_host_and_missing_page() {
        let w = web();
        assert!(matches!(
            w.request(&Request::head("http://nowhere.com/")),
            Err(NetError::UnknownHost(_))
        ));
        let r = w
            .request(&Request::head("http://a.com/missing.html"))
            .unwrap();
        assert_eq!(r.status, Status::NotFound);
    }

    #[test]
    fn network_down_fails_everything() {
        let w = web();
        w.set_network_up(false);
        assert!(w.request(&Request::head("http://a.com/x.html")).is_err());
        w.set_network_up(true);
        assert!(w.request(&Request::head("http://a.com/x.html")).is_ok());
    }

    #[test]
    fn server_down_is_connection_refused() {
        let w = web();
        w.set_server_state("a.com", ServerState::Down);
        assert!(matches!(
            w.request(&Request::head("http://a.com/x.html")),
            Err(NetError::ConnectionRefused(_))
        ));
        // The other server is unaffected.
        assert!(w.request(&Request::head("http://b.com/y.html")).is_ok());
    }

    #[test]
    fn slow_server_times_out_short_requests() {
        let w = web();
        w.set_server_state("a.com", ServerState::Slow { delay_secs: 60 });
        assert!(matches!(
            w.request(&Request::head("http://a.com/x.html")),
            Err(NetError::Timeout)
        ));
        // A patient client succeeds.
        let ok = w.request(&Request::head("http://a.com/x.html").timeout_secs(120));
        assert!(ok.is_ok());
    }

    #[test]
    fn unregister_host_makes_it_unknown() {
        let w = web();
        assert!(w.unregister_host("a.com"));
        assert!(matches!(
            w.request(&Request::head("http://a.com/x.html")),
            Err(NetError::UnknownHost(_))
        ));
    }

    #[test]
    fn redirect_following() {
        let w = web();
        w.set_resource(
            "http://a.com/old.html",
            Resource::Moved {
                location: "http://b.com/y.html".into(),
            },
        )
        .unwrap();
        let (final_url, resp) = w
            .get_following_redirects("http://a.com/old.html", 3)
            .unwrap();
        assert_eq!(final_url, "http://b.com/y.html");
        assert_eq!(resp.body, "<HTML>by</HTML>");
    }

    #[test]
    fn redirect_loop_errors() {
        let w = web();
        w.set_resource(
            "http://a.com/l1",
            Resource::Moved {
                location: "http://a.com/l2".into(),
            },
        )
        .unwrap();
        w.set_resource(
            "http://a.com/l2",
            Resource::Moved {
                location: "http://a.com/l1".into(),
            },
        )
        .unwrap();
        assert!(w.get_following_redirects("http://a.com/l1", 5).is_err());
    }

    #[test]
    fn file_urls_hit_local_fs() {
        let w = web();
        w.write_local_file("/home/me/notes.html", "<HTML>notes</HTML>", Timestamp(77));
        let r = w
            .request(&Request::head("file:/home/me/notes.html"))
            .unwrap();
        assert_eq!(r.last_modified, Some(Timestamp(77)));
        let before = w.stats().requests;
        let _ = w
            .request(&Request::get("file:/home/me/notes.html"))
            .unwrap();
        assert_eq!(
            w.stats().requests,
            before,
            "file access is not network traffic"
        );
        assert!(w.stats().file_stats >= 2);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let w = web();
        let _ = w.request(&Request::head("http://a.com/x.html"));
        let _ = w.request(&Request::get("http://a.com/x.html"));
        let _ = w.request(&Request::head("http://nowhere/"));
        let s = w.stats();
        assert_eq!(s.requests, 3);
        assert_eq!(s.heads, 2);
        assert_eq!(s.gets, 1);
        assert_eq!(s.net_errors, 1);
        assert_eq!(w.server_stats("a.com").unwrap().total(), 2);
        w.reset_stats();
        assert_eq!(w.stats().requests, 0);
        assert_eq!(w.server_stats("a.com").unwrap().total(), 0);
    }

    #[test]
    fn cgi_with_query_string() {
        let w = web();
        w.set_resource(
            "http://a.com/cgi-bin/q?topic=web",
            Resource::hit_counter("result {HITS}"),
        )
        .unwrap();
        let r = w
            .request(&Request::get("http://a.com/cgi-bin/q?topic=web"))
            .unwrap();
        assert_eq!(r.body, "result 1");
        // A different query is a different resource.
        let miss = w
            .request(&Request::get("http://a.com/cgi-bin/q?topic=mail"))
            .unwrap();
        assert_eq!(miss.status, Status::NotFound);
    }

    #[test]
    fn urls_enumeration() {
        let w = web();
        let urls = w.urls();
        assert_eq!(urls, vec!["http://a.com/x.html", "http://b.com/y.html"]);
    }

    #[test]
    fn clones_share_state() {
        let w = web();
        let w2 = w.clone();
        w2.set_page("http://c.com/z", "zz", Timestamp(5)).unwrap();
        assert!(w.request(&Request::get("http://c.com/z")).is_ok());
    }

    #[test]
    fn touch_page_updates_date_and_body() {
        let w = web();
        w.touch_page("http://a.com/x.html", "<HTML>v2</HTML>", Timestamp(300))
            .unwrap();
        let r = w.request(&Request::get("http://a.com/x.html")).unwrap();
        assert_eq!(r.last_modified, Some(Timestamp(300)));
        assert_eq!(r.body, "<HTML>v2</HTML>");
    }
}
