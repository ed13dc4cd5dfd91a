//! `aide-serve`: the HTTP/1.1 + Memento serving layer.
//!
//! The paper's §8.1 interface was a set of CGI scripts behind httpd;
//! this crate is their production successor: a dependency-free HTTP/1.1
//! server over the AIDE engine, generic over the storage backend
//! (in-memory or the crash-safe disk store), with RFC 7089 Memento
//! datetime negotiation turning the rcs check-out-by-date machinery
//! into a standards-shaped time-travel API.
//!
//! Three design commitments, inherited from the rest of the workspace:
//!
//! - **One parser.** Request parsing and response serialization live in
//!   [`aide_simweb::wire`], shared with the simulated net, so both the
//!   simulation and the real server exercise identical protocol code.
//! - **Deterministic core, IO edge.** The server speaks to the
//!   [`conn::Connection`] trait, not to sockets. Tests drive it with
//!   scripted in-process connections on the virtual clock — byte-identical across runs; the thin real-TCP
//!   adapter lives in `examples/serve_tcp.rs`.
//! - **Render once.** Pages whose bytes are functions of immutable
//!   archive state carry content-derived ETags; `If-None-Match` answers
//!   304 with zero diff recomputation, and every such page's body comes
//!   out of the snapshot service's one [`aide_snapshot::PageCache`],
//!   shared across users and routes.

pub mod conn;
pub mod server;

pub use conn::{ConnError, Connection, ScriptedConn};
pub use server::{AideServer, ConnOutcome, ServeConfig, ServeStats};
