//! Deterministic open-loop load generation (SiteStory-style).
//!
//! An *open-loop* load generator issues requests on a fixed arrival
//! schedule regardless of how fast the server answers — the
//! ApacheBench/SiteStory methodology (Brunelle & Nelson, PAPERS.md) —
//! so when the offered rate exceeds capacity, queueing delay grows
//! without bound instead of the generator politely slowing down. That
//! makes the knee of the latency-vs-rate curve *the* capacity number.
//!
//! Everything here is virtual-time: arrivals are sampled from a seeded
//! [`Rng`] (Poisson, exponential inter-arrival gaps), so two runs with
//! the same seed produce byte-identical schedules — no wall clock
//! anywhere — which is what lets ci.sh double-run the scheduler
//! experiment and `cmp` the outputs.
//!
//! The module is deliberately engine-agnostic: it produces a schedule
//! ([`schedule`]); driving real engine paths (poll / check-in / diff)
//! belongs to the experiment binaries in `aide-bench`.

use crate::rng::Rng;

/// What a simulated client asks the service to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Fetch the current stored head of a page (the tracker's poll /
    /// "view" path).
    Poll,
    /// Check in a (possibly changed) page body (`remember`).
    CheckIn,
    /// Render the changes since the user's last-seen revision
    /// (`diff_since_last` — check-in plus HtmlDiff plus cache).
    Diff,
}

/// Relative frequencies of the three request kinds.
#[derive(Debug, Clone, Copy)]
pub struct RequestMix {
    /// Weight of [`RequestKind::Poll`].
    pub poll: u32,
    /// Weight of [`RequestKind::CheckIn`].
    pub checkin: u32,
    /// Weight of [`RequestKind::Diff`].
    pub diff: u32,
}

impl Default for RequestMix {
    /// The tracking steady state: mostly polls, a fair number of
    /// check-ins (changed pages being remembered), diffs when a user
    /// actually looks.
    fn default() -> Self {
        RequestMix {
            poll: 6,
            checkin: 3,
            diff: 1,
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Arrival time in virtual microseconds from the start of the run.
    pub at_us: u64,
    /// Which engine path the request exercises.
    pub kind: RequestKind,
    /// Index of the target page in the experiment's URL population.
    pub url: usize,
    /// Index of the requesting user.
    pub user: usize,
}

/// Configuration for one open-loop run at one offered rate.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Seed for the arrival process (gaps, kinds, targets).
    pub seed: u64,
    /// Number of requests to schedule.
    pub requests: usize,
    /// Offered rate in requests per virtual second.
    pub rate_per_sec: u64,
    /// Size of the URL population; targets are Zipf-distributed over it
    /// (a few hot pages, a long tail — the §7 access pattern).
    pub urls: usize,
    /// Number of distinct users issuing requests (uniform).
    pub users: usize,
    /// Request-kind mix.
    pub mix: RequestMix,
}

/// Builds the deterministic arrival schedule for `cfg`.
///
/// Inter-arrival gaps are exponential with mean `1e6 / rate_per_sec`
/// microseconds (a Poisson arrival process — the standard open-loop
/// model), quantized to whole microseconds. Kinds are drawn from the
/// mix, URLs from a Zipf over the population, users uniformly; all four
/// streams come from one seeded [`Rng`], so the schedule is a pure
/// function of `cfg`.
///
/// # Examples
///
/// ```
/// use aide_workloads::openloop::{schedule, OpenLoopConfig, RequestMix};
///
/// let cfg = OpenLoopConfig {
///     seed: 7,
///     requests: 100,
///     rate_per_sec: 50,
///     urls: 10,
///     users: 4,
///     mix: RequestMix::default(),
/// };
/// let a = schedule(&cfg);
/// let b = schedule(&cfg);
/// assert_eq!(a.len(), 100);
/// assert!(a.iter().zip(&b).all(|(x, y)| x.at_us == y.at_us));
/// ```
pub fn schedule(cfg: &OpenLoopConfig) -> Vec<Arrival> {
    assert!(cfg.rate_per_sec > 0, "offered rate must be positive");
    assert!(cfg.urls > 0 && cfg.users > 0, "need at least one target");
    let total = cfg.mix.poll + cfg.mix.checkin + cfg.mix.diff;
    assert!(total > 0, "request mix must have positive total weight");
    let mut rng = Rng::new(cfg.seed);
    let mean_gap_us = 1_000_000.0 / cfg.rate_per_sec as f64;
    let mut now_us = 0u64;
    let mut out = Vec::with_capacity(cfg.requests);
    for _ in 0..cfg.requests {
        // Exponential gap via inverse transform; clamp the uniform away
        // from 1.0 so ln never sees zero.
        let u = rng.f64().min(0.999_999_999);
        let gap = (-(1.0 - u).ln() * mean_gap_us).round() as u64;
        now_us += gap;
        let pick = rng.below(u64::from(total)) as u32;
        let kind = if pick < cfg.mix.poll {
            RequestKind::Poll
        } else if pick < cfg.mix.poll + cfg.mix.checkin {
            RequestKind::CheckIn
        } else {
            RequestKind::Diff
        };
        out.push(Arrival {
            at_us: now_us,
            kind,
            url: rng.zipf(cfg.urls),
            user: rng.index(cfg.users),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rate: u64) -> OpenLoopConfig {
        OpenLoopConfig {
            seed: 42,
            requests: 2_000,
            rate_per_sec: rate,
            urls: 20,
            users: 8,
            mix: RequestMix::default(),
        }
    }

    #[test]
    fn schedule_is_deterministic_and_sorted() {
        let a = schedule(&cfg(100));
        let b = schedule(&cfg(100));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at_us, y.at_us);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.url, y.url);
            assert_eq!(x.user, y.user);
        }
        assert!(a.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn schedule_rate_matches_offered_rate() {
        let a = schedule(&cfg(100));
        let span_s = a.last().unwrap().at_us as f64 / 1e6;
        let rate = a.len() as f64 / span_s;
        // Poisson with n = 2000: the empirical rate is within a few
        // percent of the offered one.
        assert!((rate - 100.0).abs() < 10.0, "empirical rate {rate}");
    }

    #[test]
    fn mix_respects_weights() {
        let a = schedule(&cfg(100));
        let polls = a.iter().filter(|r| r.kind == RequestKind::Poll).count() as f64;
        let frac = polls / a.len() as f64;
        assert!((frac - 0.6).abs() < 0.1, "poll fraction {frac}");
    }
}
