//! aide-sched — the adaptive change-rate scheduler.
//!
//! The paper's w3newer decides *when* to poll with fixed per-pattern
//! freshness thresholds (Table 1): every URL matching a pattern is
//! checked at most every `d` days. That wastes the request budget on
//! stable pages and misses volatile ones. This crate replaces the
//! fixed thresholds with learned, per-URL change rates:
//!
//! * [`estimator`] — a Poisson change-rate fit per URL with a
//!   conjugate Gamma prior (pattern-level cold-start defaults), O(1)
//!   per observation, integer-only arithmetic.
//! * [`fixp`] — the deterministic fixed-point `1 − e^(−λΔ)` math that
//!   turns a rate into an *expected freshness gain*.
//! * [`wheel`] — a hierarchical timer wheel that wakes each URL when
//!   its gain crosses the horizon, amortized O(1) per timer and sized
//!   for 10M tracked URLs.
//! * [`ready`] — quantized gain-class queues giving O(1)
//!   highest-gain-first dequeue.
//! * [`scheduler`] — the budgeted, politeness- and breaker-aware
//!   [`AdaptiveScheduler`] tying it together, plus the
//!   [`Gate`] API w3newer's `SchedulePolicy::Adaptive`
//!   uses in-run.
//! * [`persist`] — rate-book snapshots checked into the repository
//!   under a reserved key, inheriting the store's crash-safety.
//!
//! Everything is deterministic on the virtual clock: no wall time, no
//! ambient randomness, no float. See SCHEDULING.md for the operator
//! view (math, tuning knobs, metrics) and DESIGN.md §4k for the
//! architecture rationale.

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
#![warn(missing_docs)]

pub mod estimator;
pub mod fixp;
pub mod persist;
pub mod ready;
pub mod scheduler;
pub mod wheel;

pub use estimator::{PriorRules, RateBook, RatePrior, UrlRate};
pub use scheduler::{AdaptiveScheduler, Gate, PollTicket, SchedulerConfig};
pub use wheel::{TimerWheel, WheelOps};
