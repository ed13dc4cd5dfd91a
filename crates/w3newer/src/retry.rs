//! Retry policy and accounting for the tracker's network layer.
//!
//! The paper's w3newer treats every network error as terminal: one
//! transient timeout and the URL is reported as an error (or silently
//! unchecked), the dominant source of missed changes in polling
//! trackers. [`RetryPolicy`] adds capped exponential backoff with
//! deterministic jitter, driven entirely by the simulated clock: sleeps
//! *advance* the [`Clock`](aide_util::time::Clock), so a test can
//! replay a retry storm instantly and byte-identically.
//!
//! The classification contract (see DESIGN.md §4f):
//!
//! - **retryable** — timeouts, unreachable hosts, refused connections,
//!   HTTP 500/503 (honouring `Retry-After`), truncated bodies;
//! - **terminal** — unknown hosts, every other HTTP status (404, 403,
//!   410, 301), robots denials, bad URLs. Zero retries, ever.
//!
//! The default policy is [`RetryPolicy::disabled`]: the tracker behaves
//! exactly as the paper describes unless robustness is switched on.

use aide_simweb::http::{NetError, Status};
use aide_util::checksum::fnv1a64;
use aide_util::rng::Rng;
use aide_util::time::Duration;

/// Exponential backoff with deterministic jitter, capped attempts and a
/// per-check sleep budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first. `1` disables
    /// retries entirely.
    pub max_attempts: u32,
    /// Delay after the first failure; doubles per subsequent failure.
    pub base_delay: Duration,
    /// Ceiling on any single delay (raw + jitter).
    pub max_delay: Duration,
    /// Ceiling on the *total* time slept for one request's retries.
    pub budget: Duration,
    /// Seed for the jitter stream. Jitter is a pure function of
    /// `(jitter_seed, url, attempt)` — identical across runs.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// No retries: attempt once, fail like the 1996 tracker did.
    pub fn disabled() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            budget: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// A sensible default for a flaky web: 4 attempts, 5 s base delay
    /// doubling to a 60 s cap, at most 2 minutes asleep per check.
    pub fn standard(jitter_seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::seconds(5),
            max_delay: Duration::seconds(60),
            budget: Duration::minutes(2),
            jitter_seed,
        }
    }

    /// True when the policy will ever retry.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// The backoff delay after the `attempt`-th failure (1-based).
    ///
    /// `min(base * 2^(attempt-1), max)` plus jitter in `[0, raw/2]`,
    /// clamped to `max`. Monotone non-decreasing in `attempt` up to the
    /// cap: the jittered delay is at most `1.5 * raw(a)`, which never
    /// exceeds the next raw step `2 * raw(a)`, and the clamp is shared.
    pub fn delay_for(&self, url: &str, attempt: u32) -> Duration {
        let raw = self
            .base_delay
            .as_secs()
            .saturating_mul(
                1u64.checked_shl(attempt.saturating_sub(1))
                    .unwrap_or(u64::MAX),
            )
            .min(self.max_delay.as_secs());
        let jitter = if raw == 0 {
            0
        } else {
            let mut rng = Rng::new(
                self.jitter_seed ^ fnv1a64(url.as_bytes()).rotate_left(7) ^ u64::from(attempt),
            );
            rng.below(raw / 2 + 1)
        };
        Duration::seconds((raw + jitter).min(self.max_delay.as_secs()))
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::disabled()
    }
}

/// A failure the retry layer may act on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransientFailure {
    /// A retryable network error (timeout, unreachable, refused).
    Net(NetError),
    /// A transient HTTP failure (500/503), with any `Retry-After`.
    Http {
        /// The status returned.
        status: Status,
        /// `Retry-After` seconds, honoured as a delay floor.
        retry_after: Option<u64>,
    },
    /// The body came back shorter than `Content-Length` advertised — a
    /// corrupted transfer whose checksum must not be trusted.
    Truncated {
        /// Advertised length.
        expected: usize,
        /// Received length.
        got: usize,
    },
}

impl TransientFailure {
    /// Human-readable description for reports and cache records. HTTP
    /// statuses render without context; the caller appends " on GET"
    /// where the old code did, keeping messages byte-identical.
    pub fn message(&self) -> String {
        match self {
            TransientFailure::Net(e) => e.to_string(),
            TransientFailure::Http { status, .. } => format!("HTTP {status}"),
            TransientFailure::Truncated { expected, got } => {
                format!("truncated body: {got} of {expected} bytes")
            }
        }
    }
}

/// Why a fetch ultimately failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchFailure {
    /// A terminal network error — never retried.
    Terminal(NetError),
    /// Retries (if any) exhausted on a transient failure; the last one.
    Exhausted(TransientFailure),
    /// The per-host circuit is open; no request was issued.
    CircuitOpen {
        /// The host whose circuit denied the request.
        host: String,
    },
}

impl FetchFailure {
    /// The network error inside, if this failure carries one.
    pub fn net_error(&self) -> Option<&NetError> {
        match self {
            FetchFailure::Terminal(e) | FetchFailure::Exhausted(TransientFailure::Net(e)) => {
                Some(e)
            }
            _ => None,
        }
    }

    /// True when graceful degradation (stale fallback) applies rather
    /// than a plain error: the failure was transient or breaker-denied,
    /// not a definitive verdict about the URL.
    pub fn is_degradable(&self) -> bool {
        !matches!(self, FetchFailure::Terminal(_))
    }
}

/// Classifies a network error: retryable transient vs terminal.
pub fn retryable_net_error(e: &NetError) -> bool {
    match e {
        NetError::Timeout | NetError::HostUnreachable(_) | NetError::ConnectionRefused(_) => true,
        // The name no longer resolves: the server was renamed or
        // deactivated (§3.1). Retrying cannot help.
        NetError::UnknownHost(_) => false,
    }
}

aide_obs::stat_cells! {
    /// Plain-value view of [`RetryStats`] — comparable, copyable, and the
    /// type embedded in [`RunReport`](crate::checker::RunReport).
    pub struct RetrySnapshot;
    /// Counters for the retry layer, shared across a tracker's worker
    /// pipelines. Snapshot with [`RetryStats::snapshot`].
    pub struct RetryStats {
        /// Requests issued through the retry layer (every attempt).
        attempts: "w3newer.retry.attempts",
        /// Attempts beyond the first for some request.
        retries: "w3newer.retry.retries",
        /// Requests that succeeded after at least one retry.
        recovered: "w3newer.retry.recovered",
        /// Requests that ran out of attempts or budget.
        exhausted: "w3newer.retry.exhausted",
        /// Failed attempts that were network errors (terminal or not).
        net_failures: "w3newer.retry.net_failures",
        /// Failed attempts that were transient HTTP statuses (500/503).
        http_failures: "w3newer.retry.http_failures",
        /// Failed attempts with truncated bodies.
        truncated: "w3newer.retry.truncated",
        /// Total seconds slept (virtual clock) across all retries.
        slept_secs: "w3newer.retry.slept_secs",
        /// Report entries downgraded to stale/degraded.
        degraded: "w3newer.retry.degraded",
        /// Requests denied by an open circuit (no traffic issued).
        breaker_denied: "w3newer.retry.breaker_denied",
    }
}

impl RetrySnapshot {
    /// Element-wise difference (`self - earlier`), for per-run deltas.
    pub fn since(&self, earlier: &RetrySnapshot) -> RetrySnapshot {
        RetrySnapshot {
            attempts: self.attempts - earlier.attempts,
            retries: self.retries - earlier.retries,
            recovered: self.recovered - earlier.recovered,
            exhausted: self.exhausted - earlier.exhausted,
            net_failures: self.net_failures - earlier.net_failures,
            http_failures: self.http_failures - earlier.http_failures,
            truncated: self.truncated - earlier.truncated,
            slept_secs: self.slept_secs - earlier.slept_secs,
            degraded: self.degraded - earlier.degraded,
            breaker_denied: self.breaker_denied - earlier.breaker_denied,
        }
    }

    /// Element-wise sum, for aggregating across users.
    pub fn plus(&self, other: &RetrySnapshot) -> RetrySnapshot {
        RetrySnapshot {
            attempts: self.attempts + other.attempts,
            retries: self.retries + other.retries,
            recovered: self.recovered + other.recovered,
            exhausted: self.exhausted + other.exhausted,
            net_failures: self.net_failures + other.net_failures,
            http_failures: self.http_failures + other.http_failures,
            truncated: self.truncated + other.truncated,
            slept_secs: self.slept_secs + other.slept_secs,
            degraded: self.degraded + other.degraded,
            breaker_denied: self.breaker_denied + other.breaker_denied,
        }
    }

    /// True when nothing at all was recorded — the robustness layer was
    /// off or never touched.
    pub fn is_zero(&self) -> bool {
        *self == RetrySnapshot::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_policy_never_retries() {
        let p = RetryPolicy::disabled();
        assert!(!p.enabled());
        assert_eq!(p.max_attempts, 1);
    }

    #[test]
    fn delays_monotone_and_capped() {
        let p = RetryPolicy::standard(42);
        let mut prev = Duration::ZERO;
        for attempt in 1..=12 {
            let d = p.delay_for("http://h/p", attempt);
            assert!(d >= prev, "attempt {attempt}: {d:?} < {prev:?}");
            assert!(d <= p.max_delay);
            prev = d;
        }
    }

    #[test]
    fn jitter_deterministic_per_seed_url_attempt() {
        let p = RetryPolicy::standard(7);
        let q = RetryPolicy::standard(7);
        for attempt in 1..=6 {
            assert_eq!(
                p.delay_for("http://h/a", attempt),
                q.delay_for("http://h/a", attempt)
            );
        }
        let other_seed = RetryPolicy::standard(8);
        let differs =
            (1..=6).any(|a| p.delay_for("http://h/a", a) != other_seed.delay_for("http://h/a", a));
        assert!(differs, "jitter must depend on the seed");
    }

    #[test]
    fn classification_table() {
        assert!(retryable_net_error(&NetError::Timeout));
        assert!(retryable_net_error(&NetError::HostUnreachable("h".into())));
        assert!(retryable_net_error(&NetError::ConnectionRefused(
            "h".into()
        )));
        assert!(!retryable_net_error(&NetError::UnknownHost("h".into())));
    }

    #[test]
    fn failure_messages_match_legacy_forms() {
        assert_eq!(
            TransientFailure::Net(NetError::Timeout).message(),
            "timeout"
        );
        assert_eq!(
            TransientFailure::Http {
                status: Status::ServiceUnavailable,
                retry_after: Some(30),
            }
            .message(),
            "HTTP 503"
        );
        assert_eq!(
            TransientFailure::Truncated {
                expected: 100,
                got: 10
            }
            .message(),
            "truncated body: 10 of 100 bytes"
        );
    }

    #[test]
    fn snapshot_delta_and_sum() {
        let s = RetryStats::default();
        s.attempts.add(1);
        s.attempts.add(1);
        s.retries.add(1);
        let a = s.snapshot();
        s.attempts.add(1);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.attempts, 1);
        assert_eq!(d.retries, 0);
        assert_eq!(a.plus(&d).attempts, 3);
        assert!(!b.is_zero());
        assert!(RetrySnapshot::default().is_zero());
    }
}
