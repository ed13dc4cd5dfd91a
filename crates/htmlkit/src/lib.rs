//! HTML substrate for the AIDE reproduction.
//!
//! HtmlDiff needs exactly what §5.1 of the paper calls "a simple lexical
//! analysis of an HTML document": a token stream of text and markups, with
//! markup names and attribute pairs normalized, plus the two markup
//! classifications the comparison algorithm is built on —
//! *sentence-breaking* markups (`<P>`, `<HR>`, `<LI>`, `<H1>`…) and
//! *content-defining* markups (`<IMG>`, `<A HREF>`…). The snapshot service
//! and the recursive tracker additionally need URL parsing/resolution and
//! link extraction. This crate provides all of it:
//!
//! - [`lexer`]: a forgiving HTML tokenizer (tags, attributes, comments,
//!   declarations, text), with serialization back to HTML.
//! - [`entity`]: character entity encoding/decoding.
//! - [`classify`]: the sentence-breaking and content-defining markup sets.
//! - [`text`]: word splitting and sentence-boundary detection.
//! - [`url`]: absolute/relative URL parsing and resolution (RFC-1808
//!   subset), including the `BASE` semantics §4.1 discusses.
//! - [`links`]: extraction of hypertext references from a token stream.

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

pub mod classify;
pub mod entity;
pub mod lexer;
pub mod links;
pub mod text;
pub mod url;

pub use classify::{is_content_defining, is_sentence_breaking, MarkupClass};
pub use entity::{decode_entities, encode_entities};
pub use lexer::{lex, serialize, Tag, TagKind, Token};
pub use links::{extract_links, rewrite_base, Link, LinkKind};
pub use url::Url;
