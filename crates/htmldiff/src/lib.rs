//! HtmlDiff: HTML-aware differencing with merged-page presentation.
//!
//! The primary contribution of the paper (§5): compare two HTML pages and
//! produce a *merged* page in which deleted material is struck out, added
//! material is emphasized, and small arrow images — chained together as
//! internal hypertext references — let the reader hop from change to
//! change. The comparison views a document as "a sequence of sentences
//! and 'sentence-breaking' markups", aligns the two token sequences with
//! a weighted LCS (Hirschberg's algorithm), and matches sentences
//! approximately: a length screen first, then an inner LCS whose `2W/L`
//! ratio must clear a threshold.
//!
//! Module map:
//!
//! - [`token`]: the [`DiffToken`] stream model — sentences (words +
//!   inline markups) and sentence-breaking markups.
//! - [`tokenize`](mod@crate::tokenize): lexical analysis of HTML into that stream.
//! - [`compare`]: the two-phase sentence matcher and the weighted LCS
//!   over tokens.
//! - [`merge`]: merged-page construction — banner, arrow chain,
//!   `<STRIKE>` for old, `<STRONG><I>` for new, old-markup elision.
//! - [`present`]: the presentation options of §5.2 (merged page, only
//!   differences, reversed, new-only).
//! - [`muddle`]: the interspersion ("too many changes to display
//!   meaningfully") metric of §5.3.
//!
//! # Examples
//!
//! ```
//! use aide_htmldiff::{html_diff, Options};
//!
//! let old = "<HTML><P>AIDE tracks pages. The old sentence.</HTML>";
//! let new = "<HTML><P>AIDE tracks pages. A brand new sentence!</HTML>";
//! let result = html_diff(old, new, &Options::default());
//! assert_eq!(result.stats.old_only_sentences, 1);
//! assert_eq!(result.stats.new_only_sentences, 1);
//! assert!(result.html.contains("<STRIKE>"));
//! assert!(result.html.contains("<STRONG><I>"));
//! ```

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

pub mod compare;
pub mod merge;
pub mod muddle;
pub mod present;
pub mod token;
pub mod tokenize;

pub use compare::{compare_tokens, CompareOptions, TokenAlignment};
pub use merge::DiffStats;
pub use present::{html_diff, DiffResult, Options, Presentation};
pub use token::{token_class_hash, DiffToken, Inline, Sentence};
pub use tokenize::tokenize;
