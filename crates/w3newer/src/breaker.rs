//! Per-host circuit breaker for the tracker's worker pool.
//!
//! Retries handle *transient* flakiness; a breaker handles *sustained*
//! failure. When a host fails `failure_threshold` consecutive times the
//! circuit opens and every further request to that host is denied
//! without touching the network, until a cool-down elapses. The first
//! request after cool-down is admitted as a *probe* (half-open): its
//! success closes the circuit, its failure re-opens it with a doubled
//! cool-down (capped), the classic pattern. One breaker is shared by
//! every worker in a pool — the state table is sharded by host hash so
//! workers polling different hosts never contend on one lock, matching
//! the per-key lock-table idiom used across the engine.
//!
//! All timing uses the virtual [`Clock`](aide_util::time::Clock)'s
//! timestamps, so breaker behaviour is as replayable as everything else.

use aide_util::checksum::fnv1a64;
use aide_util::sync::Mutex;
use aide_util::time::{Duration, Timestamp};
use std::collections::HashMap;

const SHARDS: usize = 16;

/// Tuning for a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the circuit open.
    pub failure_threshold: u32,
    /// Initial cool-down once open.
    pub cooldown: Duration,
    /// Ceiling for the doubling cool-down on repeated probe failures.
    pub max_cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::minutes(5),
            max_cooldown: Duration::hours(2),
        }
    }
}

/// The answer to "may I contact this host right now?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Circuit closed — go ahead.
    Allowed,
    /// Circuit was open, cool-down has elapsed — this caller is the one
    /// half-open probe. Report the outcome.
    Probe,
    /// Circuit open (or another probe is in flight) — do not contact
    /// the host.
    Denied,
}

#[derive(Debug, Clone, Copy)]
enum HostState {
    Closed {
        fails: u32,
    },
    Open {
        until: Timestamp,
        cooldown: Duration,
    },
    /// A probe is in flight; everyone else is denied until it reports.
    HalfOpen {
        cooldown: Duration,
    },
}

aide_obs::stat_cells! {
    /// Plain-value view of breaker activity.
    pub struct BreakerStats;
    /// Counters for breaker activity, snapshot with
    /// [`CircuitBreaker::stats`].
    struct BreakerCounters {
        /// Circuits tripped open from closed.
        opened: "w3newer.breaker.transition.opened",
        /// Probes that failed, re-opening with a doubled cool-down.
        reopened: "w3newer.breaker.transition.reopened",
        /// Circuits closed again after a successful probe.
        closed: "w3newer.breaker.transition.closed",
        /// Requests denied without touching the network.
        denials: "w3newer.breaker.denials",
        /// Half-open probes admitted.
        probes: "w3newer.breaker.probes",
    }
}

/// A shared per-host circuit breaker.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    shards: Vec<Mutex<HashMap<String, HostState>>>,
    counters: BreakerCounters,
}

impl CircuitBreaker {
    /// Creates a breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            counters: BreakerCounters::default(),
        }
    }

    /// The tuning this breaker was built with.
    pub fn config(&self) -> BreakerConfig {
        self.config
    }

    fn shard(&self, host: &str) -> &Mutex<HashMap<String, HostState>> {
        &self.shards[(fnv1a64(host.as_bytes()) as usize) % SHARDS]
    }

    /// Asks permission to contact `host` at time `now`.
    pub fn admit(&self, host: &str, now: Timestamp) -> Admission {
        let mut shard = self.shard(host).lock();
        let state = shard
            .entry(host.to_string())
            .or_insert(HostState::Closed { fails: 0 });
        match *state {
            HostState::Closed { .. } => Admission::Allowed,
            HostState::Open { until, cooldown } => {
                if now >= until {
                    *state = HostState::HalfOpen { cooldown };
                    self.counters.probes.add(1);
                    Admission::Probe
                } else {
                    self.counters.denials.add(1);
                    Admission::Denied
                }
            }
            HostState::HalfOpen { .. } => {
                self.counters.denials.add(1);
                Admission::Denied
            }
        }
    }

    /// Reports a successful request to `host`.
    pub fn record_success(&self, host: &str) {
        let mut shard = self.shard(host).lock();
        match shard.get_mut(host) {
            Some(state @ HostState::HalfOpen { .. }) => {
                *state = HostState::Closed { fails: 0 };
                self.counters.closed.add(1);
            }
            Some(HostState::Closed { fails }) => *fails = 0,
            // A success while open can only come from a request admitted
            // before the circuit tripped; the open verdict stands.
            Some(HostState::Open { .. }) | None => {}
        }
    }

    /// Reports a failed request to `host` at time `now`.
    pub fn record_failure(&self, host: &str, now: Timestamp) {
        let mut shard = self.shard(host).lock();
        let state = shard
            .entry(host.to_string())
            .or_insert(HostState::Closed { fails: 0 });
        match *state {
            HostState::Closed { fails } => {
                let fails = fails + 1;
                if fails >= self.config.failure_threshold {
                    *state = HostState::Open {
                        until: now + self.config.cooldown,
                        cooldown: self.config.cooldown,
                    };
                    self.counters.opened.add(1);
                } else {
                    *state = HostState::Closed { fails };
                }
            }
            HostState::HalfOpen { cooldown } => {
                let doubled = Duration::seconds(
                    (cooldown.as_secs() * 2).min(self.config.max_cooldown.as_secs()),
                );
                *state = HostState::Open {
                    until: now + doubled,
                    cooldown: doubled,
                };
                self.counters.reopened.add(1);
            }
            // Already open: nothing to escalate.
            HostState::Open { .. } => {}
        }
    }

    /// True if the circuit for `host` is currently open or half-open.
    pub fn is_open(&self, host: &str) -> bool {
        let shard = self.shard(host).lock();
        matches!(
            shard.get(host),
            Some(HostState::Open { .. }) | Some(HostState::HalfOpen { .. })
        )
    }

    /// Plain-value copy of the activity counters.
    pub fn stats(&self) -> BreakerStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::seconds(100),
            max_cooldown: Duration::seconds(350),
        })
    }

    #[test]
    fn stays_closed_below_threshold() {
        let b = breaker();
        b.record_failure("h", Timestamp(0));
        b.record_failure("h", Timestamp(1));
        assert_eq!(b.admit("h", Timestamp(2)), Admission::Allowed);
        assert!(!b.is_open("h"));
    }

    #[test]
    fn success_resets_the_failure_count() {
        let b = breaker();
        b.record_failure("h", Timestamp(0));
        b.record_failure("h", Timestamp(1));
        b.record_success("h");
        b.record_failure("h", Timestamp(2));
        b.record_failure("h", Timestamp(3));
        assert_eq!(b.admit("h", Timestamp(4)), Admission::Allowed);
    }

    #[test]
    fn opens_at_threshold_and_denies_until_cooldown() {
        let b = breaker();
        for t in 0..3 {
            b.record_failure("h", Timestamp(t));
        }
        assert!(b.is_open("h"));
        assert_eq!(b.admit("h", Timestamp(50)), Admission::Denied);
        assert_eq!(b.admit("h", Timestamp(101)), Admission::Denied);
        // Opened at t=2, cooldown 100 → probe allowed at t=102.
        assert_eq!(b.admit("h", Timestamp(102)), Admission::Probe);
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        let b = breaker();
        for t in 0..3 {
            b.record_failure("h", Timestamp(t));
        }
        assert_eq!(b.admit("h", Timestamp(200)), Admission::Probe);
        assert_eq!(b.admit("h", Timestamp(200)), Admission::Denied);
        assert_eq!(b.admit("h", Timestamp(201)), Admission::Denied);
    }

    #[test]
    fn probe_success_closes() {
        let b = breaker();
        for t in 0..3 {
            b.record_failure("h", Timestamp(t));
        }
        assert_eq!(b.admit("h", Timestamp(200)), Admission::Probe);
        b.record_success("h");
        assert_eq!(b.admit("h", Timestamp(201)), Admission::Allowed);
        assert!(!b.is_open("h"));
        assert_eq!(b.stats().closed, 1);
    }

    #[test]
    fn probe_failure_reopens_with_doubled_cooldown() {
        let b = breaker();
        for t in 0..3 {
            b.record_failure("h", Timestamp(t));
        }
        assert_eq!(b.admit("h", Timestamp(200)), Admission::Probe);
        b.record_failure("h", Timestamp(200));
        // Doubled cool-down: 200 s from t=200 → probe at t=400.
        assert_eq!(b.admit("h", Timestamp(399)), Admission::Denied);
        assert_eq!(b.admit("h", Timestamp(400)), Admission::Probe);
        // Another failure: 400 s would exceed the 350 s cap.
        b.record_failure("h", Timestamp(400));
        assert_eq!(b.admit("h", Timestamp(749)), Admission::Denied);
        assert_eq!(b.admit("h", Timestamp(750)), Admission::Probe);
        assert_eq!(b.stats().reopened, 2);
    }

    #[test]
    fn hosts_are_independent() {
        let b = breaker();
        for t in 0..3 {
            b.record_failure("dead", Timestamp(t));
        }
        assert_eq!(b.admit("alive", Timestamp(10)), Admission::Allowed);
        assert_eq!(b.admit("dead", Timestamp(10)), Admission::Denied);
    }

    #[test]
    fn counters_reconcile() {
        let b = breaker();
        for t in 0..3 {
            b.record_failure("h", Timestamp(t));
        }
        assert_eq!(b.admit("h", Timestamp(10)), Admission::Denied);
        assert_eq!(b.admit("h", Timestamp(200)), Admission::Probe);
        b.record_success("h");
        let s = b.stats();
        assert_eq!(s.opened, 1);
        assert_eq!(s.denials, 1);
        assert_eq!(s.probes, 1);
        assert_eq!(s.closed, 1);
        assert_eq!(s.reopened, 0);
    }
}
