//! Shared fixture: a three-revision archive behind a server, plus a
//! scripted HTTP client. Everything runs on the virtual clock — two
//! builds of this fixture are byte-identical.

// Each test binary uses its own slice of the fixture.
#![allow(dead_code)]

use aide::engine::AideEngine;
use aide_rcs::repo::Repository;
use aide_serve::{AideServer, ScriptedConn, ServeConfig};
use aide_simweb::net::Web;
use aide_store::{DiskRepository, StoreOptions};
use aide_util::time::{Clock, Duration, Timestamp};
use aide_util::vfs::{MemVfs, Vfs};
use aide_w3newer::config::ThresholdConfig;
use std::sync::Arc;

pub const URL: &str = "http://www.usenix.org/index.html";
pub const USER: &str = "fred@research.att.com";

/// Check-in instants of the three fixture revisions.
pub fn rev_dates() -> [Timestamp; 3] {
    let t0 = Timestamp::from_ymd_hms(1995, 9, 1, 12, 0, 0);
    [t0, t0 + Duration::days(10), t0 + Duration::days(20)]
}

/// A web whose fixture page will go through three versions, and the
/// clock driving it.
pub fn fixture_web() -> Web {
    let [t0, _, _] = rev_dates();
    let clock = Clock::starting_at(t0);
    let web = Web::new(clock);
    web.set_page(
        URL,
        "<HTML><P>version one body text.</HTML>",
        t0 - Duration::days(1),
    )
    .unwrap();
    web
}

/// Drives `engine` through the three check-ins (1.1, 1.2, 1.3 at the
/// [`rev_dates`] instants).
pub fn populate<R: Repository>(engine: &AideEngine<R>) {
    engine.register_user(USER, ThresholdConfig::default());
    engine.remember(USER, URL).unwrap();
    for body in [
        "<HTML><P>version two body text.</HTML>",
        "<HTML><P>version three body text, larger than before.</HTML>",
    ] {
        engine.clock().advance(Duration::days(10));
        engine
            .web()
            .touch_page(URL, body, engine.clock().now())
            .unwrap();
        engine.remember(USER, URL).unwrap();
    }
}

/// The standard in-memory fixture server.
pub fn server() -> AideServer {
    server_with(ServeConfig::default())
}

/// The fixture server with explicit tuning.
pub fn server_with(cfg: ServeConfig) -> AideServer {
    let engine = Arc::new(AideEngine::new(fixture_web()));
    populate(&engine);
    AideServer::with_config(engine, cfg)
}

/// The fixture on the persistent backend, over a fresh in-memory VFS.
pub fn disk_server() -> AideServer<DiskRepository> {
    let vfs: Arc<dyn Vfs> = MemVfs::shared();
    let repo = DiskRepository::open(vfs, "aide", StoreOptions::default()).unwrap();
    let engine = Arc::new(AideEngine::with_repository(fixture_web(), repo));
    populate(&engine);
    AideServer::new(engine)
}

/// One GET over a fresh connection; returns the raw response text.
pub fn get<R: Repository>(server: &AideServer<R>, target: &str) -> String {
    get_with(server, target, &[])
}

/// One GET with extra headers over a fresh connection.
pub fn get_with<R: Repository>(
    server: &AideServer<R>,
    target: &str,
    headers: &[(&str, &str)],
) -> String {
    let mut req = format!("GET {target} HTTP/1.1\r\nHost: aide\r\n");
    for (name, value) in headers {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str("Connection: close\r\n\r\n");
    let mut conn = ScriptedConn::new(req.into_bytes());
    server.handle_connection(&mut conn);
    conn.output_text()
}

/// The body of a response.
pub fn body(resp: &str) -> &str {
    resp.split_once("\r\n\r\n").map_or("", |(_, body)| body)
}

/// GETs `target`, asserts a 200, and returns the body.
pub fn ok<R: Repository>(server: &AideServer<R>, target: &str) -> String {
    let resp = get(server, target);
    assert_eq!(status_line(&resp), "HTTP/1.1 200 OK", "{target}: {resp}");
    body(&resp).to_string()
}

/// First line of a response.
pub fn status_line(resp: &str) -> &str {
    resp.split("\r\n").next().unwrap_or("")
}

/// Value of `name` in the response headers, if present.
pub fn header<'a>(resp: &'a str, name: &str) -> Option<&'a str> {
    let prefix = format!("{}:", name.to_ascii_lowercase());
    resp.split("\r\n\r\n")
        .next()
        .unwrap_or("")
        .split("\r\n")
        .find_map(|line| {
            let lower = line.to_ascii_lowercase();
            lower
                .starts_with(&prefix)
                .then(|| line[prefix.len()..].trim())
        })
}
