//! w3newer: the scalable hotlist change tracker (§3).
//!
//! w3newer walks a user's hotlist and decides, per URL, whether the page
//! has changed since the user last saw it — while issuing as few HTTP
//! requests as possible. "It omits checks of pages already known to be
//! modified since the user last saw the page, and pages that have been
//! viewed by the user within some threshold." Modification dates come
//! from three sources in cost order: w3newer's own cache from previous
//! runs, the proxy-caching server's cache, and finally a `HEAD` request
//! (or a full `GET` plus checksum for pages without `Last-Modified`).
//! Per-URL polling frequency is governed by a pattern-matched threshold
//! configuration (Table 1), and the robot exclusion protocol is obeyed —
//! with the paper's own escape hatch flag.
//!
//! - [`config`]: the Table 1 threshold file — perl patterns to `2d` /
//!   `12h` / `0` / `never` thresholds, first match wins.
//! - [`cache`]: w3newer's persistent per-URL state (dates, checksums,
//!   robot exclusions, error counts).
//! - [`checker`]: the per-URL decision procedure and the run driver.
//! - [`retry`]: capped exponential backoff with deterministic jitter for
//!   transient network failures, plus the retry accounting surfaced in
//!   run reports.
//! - [`breaker`]: a shared per-host circuit breaker so a dead host stops
//!   absorbing the worker pool's time.
//! - [`schedule`]: the polling policy — the paper's fixed thresholds
//!   (default) or the `aide-sched` learned change-rate gate
//!   (see SCHEDULING.md).
//! - [`report`]: the Figure 1 HTML status report with
//!   Remember / Diff / History links.

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

pub mod breaker;
pub mod cache;
pub mod checker;
pub mod config;
pub mod priority;
pub mod report;
pub mod retry;
pub mod schedule;

pub use breaker::{Admission, BreakerConfig, BreakerStats, CircuitBreaker};
pub use cache::{TrackerCache, UrlRecord};
pub use checker::{CheckSource, Flags, RunReport, UrlReport, UrlStatus, W3Newer};
pub use config::{Threshold, ThresholdConfig};
pub use priority::{Priority, PriorityConfig};
pub use report::render_report;
pub use retry::{FetchFailure, RetryPolicy, RetrySnapshot, RetryStats, TransientFailure};
pub use schedule::SchedulePolicy;
