//! Synthetic workloads for the AIDE experiments.
//!
//! The paper's evaluation ran against half a year of the real 1995 Web
//! (§7). This crate substitutes generative models for what webmasters
//! did to their pages, tuned so the experiments exercise the regimes the
//! paper discusses: append-mostly "What's New" pages, in-place edits,
//! full-replacement pages like the daily Dilbert strip, noisy CGI pages,
//! and the paragraph-to-list reformattings §5.1 worries about.
//!
//! - [`adversarial`]: page pairs that defeat anchored alignment, for
//!   tests that bound the cost of hostile input.
//! - [`textgen`]: vocabulary and sentence/paragraph generation.
//! - [`page`]: a structured page model (headings, paragraphs, lists,
//!   links) that renders to period HTML and can be *edited* structurally.
//! - [`edits`]: the edit models and their application.
//! - [`evolve`]: schedules that drive page evolution on a simulated Web.
//! - [`openloop`]: deterministic open-loop (fixed arrival schedule)
//!   load generation for the scheduler experiment.
//! - [`sites`]: prebuilt ensembles — the Table 1 scenario and bulk
//!   populations for the storage and scalability experiments.
//! - [`usenix`]: reconstructed USENIX home pages for the Figure 2
//!   reproduction.

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

pub mod adversarial;
pub mod edits;
pub mod evolve;
pub mod openloop;
pub mod page;
pub mod sites;
pub mod textgen;
pub mod usenix;

pub use edits::EditModel;
pub use evolve::EvolvingPage;
pub use page::{Block, Page};
