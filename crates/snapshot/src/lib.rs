//! The snapshot facility: AIDE's version service (§4).
//!
//! "Our approach is to run a service that is separate from both the
//! content provider and the client, and uses RCS to store versions."
//! Pages are checked in on request; "subsequent requests to remember the
//! state of the page result in an RCS check-in operation that saves only
//! the differences". A per-`<user,URL>` control file records "a set of
//! version numbers... for each ⟨user,URL⟩ combination", replacing the
//! first prototype's fragile date addressing. §4.2 adds the systems
//! concerns this crate models explicitly: CGI keep-alives, lock-based
//! synchronization, HtmlDiff output caching, and the security and privacy
//! properties of the open repository.
//!
//! - [`service`]: the [`SnapshotService`] — remember / diff / history /
//!   view, over any [`aide_rcs::Repository`].
//! - [`control`]: per-user control files (text format, like the perl
//!   original kept beside the RCS area).
//! - [`locks`]: the per-URL lock table (§4.2's per-URL lock file).
//! - [`cache`]: the [`PageCache`], one byte-bounded cache of every
//!   rendered page — HtmlDiff output ("many users who have seen versions N
//!   and N+1 of a page could retrieve HtmlDiff(pageN, pageN+1) with a
//!   single invocation"), archived views, and the serving layer's pages.
//! - [`keepalive`]: the CGI timeout/heartbeat dance (the forked child
//!   emitting spaces).
//! - [`security`]: the open-vs-authenticated identity models and what
//!   each exposes.

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

pub mod cache;
pub mod control;
pub mod keepalive;
pub mod locks;
pub mod security;
pub mod service;

pub use cache::{CacheStats, PageCache};
pub use control::{ControlFile, UserControl};
pub use locks::LockTable;
pub use service::{
    diff_key, view_key, DiffOutcome, RememberOutcome, ServiceError, SnapshotService, UserId,
};
