//! Command-line front ends for the AIDE libraries.
//!
//! Two binaries, both operating on plain files so they are useful outside
//! the simulation:
//!
//! - `htmldiff old.html new.html` — the paper's §5 tool as a standalone
//!   command, writing the merged page to stdout.
//! - `aide-rcs {ci|co|rlog|rcsdiff}` — the §8.1 scripts' underlying
//!   operations over `,v` archive files.
//!
//! Argument handling lives in [`args`] so the parsing is testable without
//! spawning processes.

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

pub mod args;
