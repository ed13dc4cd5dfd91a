//! The real-I/O edge: aide-serve on a std TCP listener.
//!
//! The library core is deterministic and socket-free; this example is
//! the entire adapter needed to put it on a real port — a `Connection`
//! impl over `TcpStream` and the bounded accept pool. Run with:
//!
//! ```sh
//! cargo run -p aide-serve --example serve_tcp -- 127.0.0.1:8080
//! ```
//!
//! then browse `/`, `/history?url=…&user=fred@research.att.com`,
//! `/timegate/<url>`, etc. The content is the same three-revision
//! fixture the test suites use.

use aide::engine::AideEngine;
use aide_serve::{AideServer, ConnError, Connection, ServeConfig};
use aide_simweb::net::Web;
use aide_util::time::{Clock, Duration, Timestamp};
use aide_w3newer::config::ThresholdConfig;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// `Connection` over a real socket: the whole adapter.
struct TcpConn(TcpStream);

impl Connection for TcpConn {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize, ConnError> {
        self.0.read(buf).map_err(|_| ConnError::Reset)
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), ConnError> {
        self.0.write_all(bytes).map_err(|_| ConnError::Reset)
    }
}

fn fixture_engine() -> Arc<AideEngine> {
    const URL: &str = "http://www.usenix.org/index.html";
    const USER: &str = "fred@research.att.com";
    let t0 = Timestamp::from_ymd_hms(1995, 9, 1, 12, 0, 0);
    let clock = Clock::starting_at(t0);
    let web = Web::new(clock);
    web.set_page(
        URL,
        "<HTML><P>version one body text.</HTML>",
        t0 - Duration::days(1),
    )
    .unwrap();
    let engine = Arc::new(AideEngine::new(web));
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
    engine
}

fn main() {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:8080".to_string());
    let server = Arc::new(AideServer::with_config(
        fixture_engine(),
        ServeConfig::default(),
    ));
    let listener = TcpListener::bind(&addr).expect("bind");
    println!("aide-serve listening on http://{addr}/");

    // The bounded accept pool: N threads all blocked on the one shared
    // listener — the same worker-pool shape as aide_util::pool::map,
    // with the kernel's accept queue standing in for the pool's queue.
    let workers = aide_util::pool::machine_width().max(2);
    std::thread::scope(|s| {
        for _ in 0..workers {
            let server = server.clone();
            let listener = listener.try_clone().expect("clone listener");
            s.spawn(move || {
                while let Ok((stream, _peer)) = listener.accept() {
                    let mut conn = TcpConn(stream);
                    server.handle_connection(&mut conn);
                }
            });
        }
    });
}
