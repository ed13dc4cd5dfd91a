//! The server process: `AideServer` with `ServeConfig::default()` on a
//! real TCP listener, plus a thin adapter for the snapshot Remember
//! route, which aide-serve does not have.
//!
//! Reads arrive on one listener and go through the unmodified
//! `AideServer::handle_connection`. Remembers arrive on a second
//! listener whose loop parses with the same wire parser, dispatches
//! through `aide::cgi::dispatch` and keeps the same keep-alive bound.
//!
//! Protocol with the client: once the fixture is built and both sockets
//! are bound the process prints `READY <read-port> <write-port>`. When
//! its stdin reaches end of file it prints `STATS <stored> <pages>`
//! (repository bytes, and bytes of every page version checked in) and
//! exits.

use crate::fixture::Fixture;
use crate::spec::{url_index, FixtureSpec};
use aide::cgi::parse_query;
use aide_rcs::repo::{MemRepository, Repository};
use aide_serve::{AideServer, ConnError, Connection, ServeConfig};
use aide_simweb::wire::{error_response, RequestParser, WireRequest, WireResponse};
use aide_store::repo::{spawn_compactor, DiskRepository, StoreOptions};
use aide_store::vfs::RealVfs;
use std::io::{BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;

/// `Connection` over a real socket.
struct TcpConn(TcpStream);

impl Connection for TcpConn {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize, ConnError> {
        self.0.read(buf).map_err(|_| ConnError::Reset)
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), ConnError> {
        self.0.write_all(bytes).map_err(|_| ConnError::Reset)
    }
}

/// Worker threads per listener: one per CPU.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
}

/// Runs the server for `spec`; disk fixtures live under `store`.
pub fn run(spec: &FixtureSpec, store: &Path) -> Result<(), String> {
    if spec.workload.disk() {
        let vfs = Arc::new(RealVfs::new(store));
        let repo = Arc::new(
            DiskRepository::open(vfs, "", StoreOptions::default())
                .map_err(|e| format!("open store: {e}"))?,
        );
        let _compactor = spawn_compactor(&repo);
        serve(Fixture::build(spec, repo))
    } else {
        serve(Fixture::build(spec, Arc::new(MemRepository::new())))
    }
}

fn serve<R: Repository + 'static>(fixture: Fixture<R>) -> Result<(), String> {
    let fixture = Arc::new(fixture);
    let cfg = ServeConfig::default();
    let server = Arc::new(AideServer::with_config(fixture.engine.clone(), cfg));
    let reads = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let writes = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let read_port = reads.local_addr().map_err(|e| e.to_string())?.port();
    let write_port = writes.local_addr().map_err(|e| e.to_string())?.port();
    // Workers block in `accept` for the life of the process and end
    // with it (`process::exit` below); nothing is left to join.
    for _ in 0..workers() {
        let server = server.clone();
        let listener = reads.try_clone().map_err(|e| e.to_string())?;
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                let _ = stream.set_nodelay(true);
                server.handle_connection(&mut TcpConn(stream));
            }
        });
        let fixture = fixture.clone();
        let listener = writes.try_clone().map_err(|e| e.to_string())?;
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                let _ = stream.set_nodelay(true);
                serve_remembers(&fixture, &cfg, stream);
            }
        });
    }
    let mut out = std::io::stdout().lock();
    writeln!(out, "READY {read_port} {write_port}").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    // Block until the client closes our stdin.
    let mut sink = String::new();
    while std::io::stdin().lock().read_line(&mut sink).unwrap_or(0) > 0 {
        sink.clear();
    }
    let (stored, pages) = fixture.storage();
    writeln!(out, "STATS {stored} {pages}").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    std::process::exit(0)
}

/// The remember route's connection loop: same parser, same keep-alive
/// bound as `AideServer::handle_connection`.
fn serve_remembers<R: Repository>(fixture: &Fixture<R>, cfg: &ServeConfig, mut stream: TcpStream) {
    let mut parser = RequestParser::with_limits(cfg.limits);
    let mut buf = [0u8; 4096];
    let mut served = 0usize;
    loop {
        loop {
            match parser.take_request() {
                Ok(Some(req)) => {
                    served += 1;
                    let close = !req.keep_alive() || served >= cfg.max_keepalive;
                    let mut resp = remember_route(fixture, &req);
                    if close {
                        resp = resp.header("Connection", "close");
                    }
                    if stream.write_all(&resp.serialize(false)).is_err() || close {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let resp = error_response(e.status(), &e.to_string());
                    let _ = stream.write_all(&resp.serialize(false));
                    return;
                }
            }
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => parser.push(&buf[..n]),
        }
    }
}

/// Answers one request on the remember listener.
pub fn remember_route<R: Repository>(fixture: &Fixture<R>, req: &WireRequest) -> WireResponse {
    let Some(query) = req.target.strip_prefix("/remember?") else {
        return error_response(404, "only /remember is served here");
    };
    let params = parse_query(query).params;
    let Some(i) = params
        .get("url")
        .and_then(|u| url_index(u))
        .filter(|&i| i < fixture.urls())
    else {
        return error_response(404, "not a fixture URL");
    };
    let cgi = fixture.remember(i);
    WireResponse::new(cgi.status)
        .header("Content-Type", &cgi.content_type)
        .body(cgi.body)
}
