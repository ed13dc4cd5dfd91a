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
//! `/rcsdiff?url=…&from=1.1&to=1.2`, `/view?url=…&date=<rcs-date>`,
//! `/remember?url=…&user=…`, `/timegate/<url>`, etc. (the route table
//! is in `aide_serve::server`'s docs). The content is the test suites'
//! three-revision fixture, `tests/common`.

#[path = "../tests/common/mod.rs"]
mod common;

use aide_serve::{ConnError, Connection};
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

fn main() {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:8080".to_string());
    let server = Arc::new(common::server());
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
