//! AIDE — the AT&T Internet Difference Engine.
//!
//! The integration crate (§6 of the paper): w3newer finds out *that*
//! pages changed, snapshot remembers *what* they looked like, and
//! HtmlDiff shows *how* they differ. "Each page that is reported as
//! 'new' can immediately be passed to HtmlDiff, and any page in the list
//! can be 'remembered' for future use."
//!
//! - [`fetcher`]: page retrieval (direct or through the proxy), with
//!   redirect following — the network half the snapshot service
//!   deliberately does not contain.
//! - [`engine`]: the [`AideEngine`] — users, their hotlists and tracker
//!   state, and the Remember / Diff / History operations end to end.
//! - [`cgi`]: query-string parsing and the Remember page for
//!   `aide-serve`, which routes the snapshot form interface and the §8.1
//!   `rlog` / `co` / `rcsdiff` scripts, plus a Remember-only shim.
//! - [`fixed`]: fixed-page collections (§8.2) — automatic archival on
//!   change plus a community "What's New" page.
//! - [`tracking`]: server-side URL tracking (§8.3) — one check per URL
//!   regardless of how many users registered it, plus recursive tracking
//!   of linked pages for hub pages.
//!
//! The paper's stated-but-unimplemented extensions are also built here:
//!
//! - [`junk`]: semantic noisy-change detection (§3.1 future work) —
//!   suppress notifications whose only changes are counters and clocks.
//! - [`entities`]: web-aware diffing via referenced-entity checksums
//!   (§5.3's "cheaper alternative").
//! - [`forms`]: tracking POST services by storing the filled-out form
//!   input (§8.4's sketched design).
//! - [`recursive`]: recursive HtmlDiff over a hub page and its links
//!   (§5.3/§8.3's "HtmlDiff could in turn be invoked recursively").

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

pub mod cgi;
pub mod engine;
pub mod entities;
pub mod fetcher;
pub mod fixed;
pub mod forms;
pub mod junk;
pub mod recursive;
pub mod tracking;

/// The observability layer, re-exported so engine users can install,
/// inspect, and export metric registries without naming the crate.
pub use aide_obs as obs;
pub use engine::{AideEngine, EngineError, NetHealth};
pub use entities::EntityChecker;
pub use fetcher::{fetch_page, FetchError, FetchedPage};
pub use fixed::FixedCollection;
pub use forms::FormRegistry;
pub use junk::JunkReport;
pub use recursive::RecursiveDiffer;
pub use tracking::ServerTracker;
