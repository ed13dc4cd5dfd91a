//! An RCS-style reverse-delta revision control substrate.
//!
//! The paper's snapshot service "uses the Revision Control System (RCS)
//! to compactly maintain a history of documents, addressed by their URLs"
//! (§2.2): check-in "saves only the differences between the page and its
//! previously checked-in version" (§4.1), and a page can be requested "as
//! it existed at a particular time" via RCS datestamps. §8.1 additionally
//! exposes `rlog`, `co` and `rcsdiff` through CGI scripts.
//!
//! This crate reimplements the pieces of RCS those features rely on:
//!
//! - [`delta`]: the `diff -n` edit commands (`a`/`d`) RCS stores, with
//!   computation (via [`aide_diffcore`]) and application.
//! - [`archive`]: a single file's history — full head text plus reverse
//!   deltas — with `ci` / `co` / `rlog` / `rcsdiff` equivalents, retrieval
//!   by revision or by date, and idempotent check-in of unchanged text.
//! - [`format`](mod@crate::format): the RCS `,v` file format (emit and parse), so archives
//!   survive round trips through storage.
//! - [`repo`]: the keyed [`Repository`] abstraction over archives, its
//!   in-memory reference implementation, and the storage accounting the
//!   paper's §7 reports on (the crash-safe on-disk engine lives in
//!   `aide-store`).
//! - [`keyword`]: `$Id$` / `$Revision$` / `$Date$` keyword expansion.

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

pub mod archive;
pub mod delta;
pub mod format;
pub mod keyword;
pub mod repo;

pub use archive::{Archive, CheckinOutcome, RevId, RevisionMeta};
pub use delta::Delta;
pub use repo::{MemRepository, Repository};
