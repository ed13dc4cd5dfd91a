//! Shared substrate utilities for the AIDE reproduction.
//!
//! This crate holds the small pieces every other crate needs and that the
//! 1996 environment provided for free:
//!
//! - [`time`]: a virtual clock and timestamp/duration types. The paper's
//!   tools run off wall-clock time (`Last-Modified` headers, RCS datestamps,
//!   w3newer thresholds like `2d` or `12h`); experiments here run against a
//!   deterministic simulated clock instead.
//! - [`checksum`]: page-content checksums (CRC-32 and FNV-1a). `w3new` /
//!   `w3newer` checksum whole pages when no `Last-Modified` date is
//!   available, as URL-minder did.
//! - [`pattern`]: a small regular-expression engine covering the perl
//!   subset that w3newer configuration files use (Table 1 of the paper),
//!   and [`pattern::Rules`], the first-match-wins rule list those files
//!   parse to.
//! - [`pool`]: the bounded worker pool every batch fan-out runs on.
//! - [`robots`]: the robot exclusion protocol (`robots.txt`), which
//!   w3newer voluntarily obeys (§3.1).
//! - [`lines`]: line splitting helpers shared by the diff and RCS crates.
//! - [`sync`]: poison-free `Mutex`/`RwLock` wrappers shared by every
//!   concurrent component (the build environment is offline, so no
//!   external lock crate is available).
//! - [`rng`]: the deterministic xorshift64* PRNG shared by the workload
//!   generators and the simulated Web's fault injection.
//! - [`vfs`]: the virtual-filesystem seam the storage engine writes
//!   through, with in-memory and fault-injecting implementations (the
//!   real-filesystem one lives in `aide-store`, the only module allowed
//!   to touch `std::fs`).

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

pub mod checksum;
pub mod lines;
pub mod pattern;
pub mod pool;
pub mod rng;
pub mod robots;
pub mod sync;
pub mod time;
pub mod vfs;

pub use checksum::{crc32, fnv1a64, PageChecksum};
pub use pattern::Pattern;
pub use rng::Rng;
pub use robots::RobotsTxt;
pub use time::{Clock, Duration, Timestamp};
