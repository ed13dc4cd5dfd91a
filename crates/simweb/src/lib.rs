//! A deterministic simulated Web.
//!
//! The paper's tools ran against the live 1995 Web: HTTP/1.0 origin
//! servers, CGI scripts whose output embeds counters and clocks, an
//! AT&T-wide proxy-caching server, `robots.txt` files, and the full
//! catalogue of §3.1 error conditions (moved URLs, dead servers,
//! overloaded proxies timing out requests, robot exclusions). None of
//! that is reachable from a test suite, so this crate rebuilds it as an
//! in-process simulation driven by a virtual [`Clock`]:
//!
//! - [`http`]: request/response types — methods, status codes, the
//!   headers AIDE reads (`Last-Modified`, `Location`, `Content-Length`) —
//!   and the network error taxonomy.
//! - [`resource`]: what a URL serves — static pages with modification
//!   dates, CGI pages (hit counters, clock pages; no `Last-Modified`),
//!   redirects, tombstones.
//! - [`server`]: an origin server — a host with resources, a
//!   `robots.txt`, an up/slow/down state and per-server accounting.
//! - [`net`]: the [`Web`] itself — the host registry, request dispatch,
//!   conditional GET semantics, failure injection and global request
//!   accounting (the quantity the §3 scalability experiments count).
//! - [`wire`]: the HTTP/1.x byte format — an incremental request parser
//!   and response serializer, the one `aide-serve` runs.
//! - [`fault`]: scripted, deterministic fault plans — probabilistic
//!   per-host fault rates and time-windowed outage episodes layered over
//!   the static server-state knobs.
//! - [`proxy`]: a caching proxy with TTL semantics — both a page source
//!   and, for w3newer, a source of cached modification dates.
//! - [`browser`]: a simulated user browser with a history file and a
//!   hotlist, the two local inputs w3newer reads.
//!
//! Everything is cheaply cloneable handle-style (shared state behind
//! locks), so a tracker, a snapshot service and a dozen browsers can all
//! point at one Web, exactly as processes on different machines pointed
//! at the one real Web.
//!
//! [`Clock`]: aide_util::time::Clock

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::iter_over_hash_type
)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod browser;
pub mod fault;
pub mod http;
pub mod net;
pub mod proxy;
pub mod resource;
pub mod server;
pub mod wire;

pub use browser::Browser;
pub use fault::{FaultEpisode, FaultKind, FaultPlan};
pub use http::{Method, NetError, Request, Response, Status};
pub use net::{NetStats, Web};
pub use proxy::ProxyCache;
pub use resource::Resource;
pub use server::ServerState;
