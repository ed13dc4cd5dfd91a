//! The budgeted adaptive poll scheduler.
//!
//! [`AdaptiveScheduler`] glues the three mechanisms together:
//!
//! 1. the [`crate::estimator`] turns poll verdicts into per-URL change
//!    rates;
//! 2. the [`crate::wheel`] wakes each URL when its *expected freshness
//!    gain* `1 − e^(−λΔ)` crosses the configured horizon;
//! 3. the [`crate::ready`] queues hand out the highest-gain wakeups
//!    under a global per-call budget and per-host politeness (at most
//!    one in-flight poll per host, matching the w3newer worker pool's
//!    discipline).
//!
//! Breaker integration is cooperative: when a host's circuit opens
//! (see `aide_w3newer::breaker`), the owner calls
//! [`AdaptiveScheduler::park_host`] and every wakeup for that host
//! accumulates in its wait queue instead of burning budget; on
//! half-open, [`AdaptiveScheduler::release_host`] re-queues the backlog
//! at its current (by then higher) gain.
//!
//! All state sits behind one mutex ranked `sched` (rank 22) in the
//! workspace lock table — below the store shard lock, so a holder may
//! persist rate state through [`crate::persist`] without inverting the
//! documented order. Callers already holding `url`/`user` locks may
//! call in freely.
//!
//! The scheduler also serves w3newer's simpler in-run needs through
//! [`AdaptiveScheduler::gate_poll`] / [`AdaptiveScheduler::record`],
//! which use only the estimator (no wheel entry required) — that is
//! the `SchedulePolicy::Adaptive` integration path.

use crate::estimator::{PriorRules, RateBook};
use crate::fixp;
use crate::ready::{gain_class, GainQueues};
use crate::wheel::{TimerWheel, WheelOps};
use aide_util::sync::{lockrank, Mutex};
use aide_util::time::{Duration, Timestamp};
use std::collections::{BTreeMap, VecDeque};

/// Histogram bounds for expected-gain distributions (millionths).
const GAIN_BOUNDS: &[u64] = &[
    10_000, 50_000, 100_000, 250_000, 500_000, 750_000, 900_000, 1_000_000,
];

/// Histogram bounds for budget utilization (permille).
const UTIL_BOUNDS: &[u64] = &[100, 250, 500, 750, 900, 1_000];

/// Tuning knobs. The defaults poll a URL once it is coin-flip likely
/// to have changed, but never more than hourly nor less than monthly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Re-poll when the expected gain reaches this many millionths
    /// (500_000 = "probably changed by now").
    pub target_gain_millionths: u64,
    /// Floor between polls of one URL, whatever its estimated rate.
    pub min_interval: Duration,
    /// Ceiling between polls: even near-static pages get a look.
    pub max_interval: Duration,
    /// Maximum tickets handed out per [`AdaptiveScheduler::next_polls`]
    /// call — the global request budget per scheduling round.
    pub budget: u32,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            target_gain_millionths: 500_000,
            min_interval: Duration::hours(1),
            max_interval: Duration::days(30),
            budget: 64,
        }
    }
}

/// One admitted poll: do it, then call
/// [`AdaptiveScheduler::complete`] with the verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PollTicket {
    /// Dense scheduler id (stable per URL).
    pub id: u32,
    /// The URL to poll.
    pub url: String,
    /// Its politeness host.
    pub host: String,
    /// Expected gain at dequeue time, in millionths.
    pub gain_millionths: u64,
}

/// Verdict of [`AdaptiveScheduler::gate_poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Expected gain justifies a poll.
    Poll {
        /// Expected gain in millionths.
        p_millionths: u64,
    },
    /// Not worth a request yet.
    Skip {
        /// Expected gain in millionths.
        p_millionths: u64,
    },
}

#[derive(Debug)]
struct UrlEntry {
    url: String,
    host: u32,
}

#[derive(Debug)]
struct HostState {
    busy: bool,
    parked: bool,
    waiting: VecDeque<u32>,
}

#[derive(Debug)]
struct State {
    book: RateBook,
    wheel: TimerWheel,
    ready: GainQueues,
    urls: Vec<UrlEntry>,
    by_url: BTreeMap<String, u32>,
    hosts: Vec<HostState>,
    host_names: Vec<String>,
    by_host: BTreeMap<String, u32>,
    fired: Vec<u32>,
}

/// The adaptive scheduler. All methods take `&self`; internal state is
/// one `sched`-ranked mutex, so a `&AdaptiveScheduler` can be shared
/// across worker threads.
#[derive(Debug)]
pub struct AdaptiveScheduler {
    cfg: SchedulerConfig,
    /// `−ln(1 − target_gain)` in micro-units, precomputed once.
    k_micro: u64,
    state: Mutex<State>,
}

impl AdaptiveScheduler {
    /// A scheduler with the given knobs and cold-start prior rules.
    pub fn new(cfg: SchedulerConfig, priors: PriorRules) -> AdaptiveScheduler {
        Self::with_book(cfg, RateBook::new(priors))
    }

    /// A scheduler warm-started from an existing rate book (see
    /// [`crate::persist::load`]).
    pub fn with_book(cfg: SchedulerConfig, book: RateBook) -> AdaptiveScheduler {
        AdaptiveScheduler {
            cfg,
            k_micro: fixp::neg_log1m_micro(cfg.target_gain_millionths),
            state: Mutex::with_class(
                &lockrank::SCHED,
                State {
                    book,
                    wheel: TimerWheel::new(0),
                    ready: GainQueues::new(),
                    urls: Vec::new(),
                    by_url: BTreeMap::new(),
                    hosts: Vec::new(),
                    host_names: Vec::new(),
                    by_host: BTreeMap::new(),
                    fired: Vec::new(),
                },
            ),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Registers `url` under politeness `host` and arms its first
    /// wakeup (cold URLs are due immediately: the estimator needs a
    /// baseline poll before it can say anything). Returns the stable
    /// scheduler id; re-tracking an existing URL is a no-op.
    pub fn track(&self, url: &str, host: &str, now: Timestamp) -> u32 {
        let mut st = self.state.lock();
        let st = &mut *st;
        if let Some(&id) = st.by_url.get(url) {
            return id;
        }
        let host_id = match st.by_host.get(host) {
            Some(&h) => h,
            None => {
                let h = st.hosts.len() as u32;
                st.hosts.push(HostState {
                    busy: false,
                    parked: false,
                    waiting: VecDeque::new(),
                });
                st.host_names.push(host.to_string());
                st.by_host.insert(host.to_string(), h);
                h
            }
        };
        let id = st.urls.len() as u32;
        st.urls.push(UrlEntry {
            url: url.to_string(),
            host: host_id,
        });
        st.by_url.insert(url.to_string(), id);
        st.book.rate(url); // materialize the prior
        st.wheel.insert(id, now.0);
        set_gauges(st);
        id
    }

    /// Number of tracked URLs.
    pub fn tracked(&self) -> usize {
        let st = self.state.lock();
        st.urls.len()
    }

    /// Advances the virtual clock to `now` and returns up to
    /// `config().budget` tickets, highest expected gain first, at most
    /// one in-flight per host.
    pub fn next_polls(&self, now: Timestamp) -> Vec<PollTicket> {
        let mut st = self.state.lock();
        let st = &mut *st;
        let mut ops = WheelOps::default();
        let mut fired = std::mem::take(&mut st.fired);
        fired.clear();
        st.wheel.advance_to(now.0, &mut fired, &mut ops);
        aide_obs::counter!("sched.fired", fired.len() as u64);
        // File each wakeup: parked hosts absorb theirs, the rest go to
        // the gain queues.
        for &id in &fired {
            let host = st.urls[id as usize].host as usize;
            if st.hosts[host].parked {
                st.hosts[host].waiting.push_back(id);
                aide_obs::counter!("sched.requeue.parked", 1);
            } else {
                let p = st.book.p_changed_at(&st.urls[id as usize].url, now);
                st.ready.push(gain_class(p), id);
            }
        }
        st.fired = fired;
        // Dequeue under budget and politeness.
        let budget = self.cfg.budget.max(1);
        let mut tickets = Vec::new();
        while tickets.len() < budget as usize {
            let Some((_class, id)) = st.ready.pop() else {
                break;
            };
            let entry = &st.urls[id as usize];
            let host = entry.host as usize;
            if st.hosts[host].parked {
                st.hosts[host].waiting.push_back(id);
                aide_obs::counter!("sched.requeue.parked", 1);
                continue;
            }
            if st.hosts[host].busy {
                st.hosts[host].waiting.push_back(id);
                aide_obs::counter!("sched.defer.host_busy", 1);
                continue;
            }
            st.hosts[host].busy = true;
            let p = st.book.p_changed_at(&st.urls[id as usize].url, now);
            aide_obs::observe!("sched.gain.millionths", p, GAIN_BOUNDS);
            tickets.push(PollTicket {
                id,
                url: st.urls[id as usize].url.clone(),
                host: st.host_names[host].clone(),
                gain_millionths: p,
            });
        }
        aide_obs::counter!("sched.dequeue", tickets.len() as u64);
        aide_obs::observe!("sched.dequeue.ops", ops.touches());
        aide_obs::observe!(
            "sched.budget.utilization_permille",
            tickets.len() as u64 * 1_000 / budget as u64,
            UTIL_BOUNDS,
        );
        set_gauges(st);
        tickets
    }

    /// Reports a ticket's verdict: updates the estimator, frees the
    /// host (admitting its next waiter, if any), and re-arms the URL's
    /// wakeup for when its expected gain next crosses the horizon.
    pub fn complete(&self, id: u32, changed: bool, now: Timestamp) {
        let mut st = self.state.lock();
        let st = &mut *st;
        if id as usize >= st.urls.len() {
            return;
        }
        let url = st.urls[id as usize].url.clone();
        observe_counted(&mut st.book, &url, changed, now);
        let host = st.urls[id as usize].host as usize;
        st.hosts[host].busy = false;
        if !st.hosts[host].parked {
            if let Some(next) = st.hosts[host].waiting.pop_front() {
                let p = st.book.p_changed_at(&st.urls[next as usize].url, now);
                st.ready.push(gain_class(p), next);
            }
        }
        let dt = self.reschedule_secs(st, &url);
        st.wheel.insert(id, now.0 + dt);
        set_gauges(st);
    }

    /// Seconds until `url`'s expected gain reaches the target, clamped
    /// to the configured interval bounds.
    fn reschedule_secs(&self, st: &mut State, url: &str) -> u64 {
        let rate = st.book.rate(url).rate_nanohz();
        let lo = self.cfg.min_interval.as_secs().max(1);
        let hi = self.cfg.max_interval.as_secs().max(lo);
        fixp::secs_to_gain(rate, self.k_micro).clamp(lo, hi)
    }

    /// Parks `host` (breaker opened): its wakeups queue up instead of
    /// competing for budget. Idempotent; unknown hosts are ignored.
    pub fn park_host(&self, host: &str) {
        let mut st = self.state.lock();
        let st = &mut *st;
        if let Some(&h) = st.by_host.get(host) {
            if !st.hosts[h as usize].parked {
                st.hosts[h as usize].parked = true;
                aide_obs::counter!("sched.host.parked", 1);
                set_gauges(st);
            }
        }
    }

    /// Un-parks `host` (breaker half-open): its queued wakeups re-enter
    /// the gain queues at their current — by now higher — gain.
    pub fn release_host(&self, host: &str, now: Timestamp) {
        let mut st = self.state.lock();
        let st = &mut *st;
        if let Some(&h) = st.by_host.get(host) {
            if !st.hosts[h as usize].parked {
                return;
            }
            st.hosts[h as usize].parked = false;
            aide_obs::counter!("sched.host.released", 1);
            let mut waiting = std::mem::take(&mut st.hosts[h as usize].waiting);
            aide_obs::counter!("sched.host.requeued", waiting.len() as u64);
            for id in waiting.drain(..) {
                let p = st.book.p_changed_at(&st.urls[id as usize].url, now);
                st.ready.push(gain_class(p), id);
            }
            set_gauges(st);
        }
    }

    /// The estimator-only gate for w3newer's `SchedulePolicy::Adaptive`:
    /// is `url` worth a request at `now`? No wheel entry needed — the
    /// tracker run itself is the clock.
    pub fn gate_poll(&self, url: &str, now: Timestamp) -> Gate {
        let mut st = self.state.lock();
        let st = &mut *st;
        let rate = *st.book.rate(url);
        let decision = match rate.last_poll {
            // Never polled: the baseline poll is always worth it.
            None => Gate::Poll {
                p_millionths: fixp::MILLION,
            },
            Some(prev) => {
                let elapsed = now - prev;
                let p = rate.p_changed_millionths(elapsed);
                if elapsed < self.cfg.min_interval {
                    Gate::Skip { p_millionths: p }
                } else if elapsed >= self.cfg.max_interval || p >= self.cfg.target_gain_millionths {
                    Gate::Poll { p_millionths: p }
                } else {
                    Gate::Skip { p_millionths: p }
                }
            }
        };
        match decision {
            Gate::Poll { .. } => aide_obs::counter!("sched.poll.admitted", 1),
            Gate::Skip { .. } => aide_obs::counter!("sched.poll.gated", 1),
        }
        decision
    }

    /// Records a poll verdict for an untracked-or-tracked `url` without
    /// ticket bookkeeping — w3newer's post-check hook.
    pub fn record(&self, url: &str, changed: bool, now: Timestamp) {
        let mut st = self.state.lock();
        observe_counted(&mut st.book, url, changed, now);
    }

    /// The current posterior rate for `url` in nano-changes/second, if
    /// the estimator has state for it. (Named distinctly from
    /// [`crate::estimator::UrlRate::rate_nanohz`], the per-record accessor
    /// it delegates to.)
    pub fn url_rate_nanohz(&self, url: &str) -> Option<u64> {
        let st = self.state.lock();
        st.book.get(url).map(|r| r.rate_nanohz())
    }

    /// Serializes the rate book (see [`crate::estimator::RateBook::emit`]).
    pub fn snapshot_rates(&self) -> String {
        let st = self.state.lock();
        st.book.emit()
    }
}

/// Sets the occupancy gauges; called at the end of every call that
/// changes the wheel, the ready queues, the parked set or the URL table.
fn set_gauges(st: &State) {
    aide_obs::gauge!("sched.wheel.entries", st.wheel.len() as u64);
    aide_obs::gauge!("sched.ready.len", st.ready.len() as u64);
    aide_obs::gauge!(
        "sched.hosts.parked",
        st.hosts.iter().filter(|h| h.parked).count() as u64
    );
    aide_obs::gauge!("sched.urls.tracked", st.urls.len() as u64);
}

/// `RateBook::observe` plus the verdict counters.
fn observe_counted(book: &mut RateBook, url: &str, changed: bool, now: Timestamp) {
    book.observe(url, changed, now);
    if changed {
        aide_obs::counter!("sched.observe.changed", 1);
    } else {
        aide_obs::counter!("sched.observe.unchanged", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::RatePrior;

    const HOUR: u64 = 3_600;
    const DAY: u64 = 86_400;

    fn sched(budget: u32) -> AdaptiveScheduler {
        let cfg = SchedulerConfig {
            budget,
            ..SchedulerConfig::default()
        };
        AdaptiveScheduler::new(cfg, PriorRules::default())
    }

    #[test]
    fn cold_urls_fire_immediately_and_reschedule_after_completion() {
        let s = sched(8);
        let t0 = Timestamp(1_000);
        s.track("http://a.example/x", "a.example", t0);
        s.track("http://b.example/y", "b.example", t0);
        let polls = s.next_polls(t0 + Duration::seconds(1));
        assert_eq!(polls.len(), 2, "cold URLs need baseline polls");
        assert!(polls.iter().all(|p| p.gain_millionths == 1_000_000));
        for p in &polls {
            s.complete(p.id, false, t0 + Duration::seconds(1));
        }
        // Immediately after the baseline, nothing is due.
        assert!(s.next_polls(t0 + Duration::seconds(2)).is_empty());
        // A week out, the 1/week-prior URLs are due again.
        let later = t0 + Duration::days(8);
        let polls = s.next_polls(later);
        assert_eq!(polls.len(), 2);
    }

    #[test]
    fn budget_caps_each_round() {
        let s = sched(3);
        let t0 = Timestamp(0);
        for i in 0..10 {
            s.track(
                &format!("http://h{i}.example/"),
                &format!("h{i}.example"),
                t0,
            );
        }
        let first = s.next_polls(Timestamp(5));
        assert_eq!(first.len(), 3);
        // Undequeued wakeups stay ready for the next round.
        let second = s.next_polls(Timestamp(6));
        assert_eq!(second.len(), 3);
        let all: Vec<u32> = first.iter().chain(&second).map(|p| p.id).collect();
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "no double-issued tickets");
    }

    #[test]
    fn one_in_flight_per_host() {
        let s = sched(8);
        let t0 = Timestamp(0);
        for i in 0..4 {
            s.track(&format!("http://same.example/{i}"), "same.example", t0);
        }
        let polls = s.next_polls(Timestamp(5));
        assert_eq!(polls.len(), 1, "politeness: one per host");
        // While in flight, nothing else from the host is admitted.
        assert!(s.next_polls(Timestamp(6)).is_empty());
        s.complete(polls[0].id, false, Timestamp(7));
        let next = s.next_polls(Timestamp(8));
        assert_eq!(next.len(), 1);
        assert_ne!(next[0].id, polls[0].id);
    }

    #[test]
    fn volatile_urls_win_the_budget() {
        let cfg = SchedulerConfig {
            budget: 1,
            min_interval: Duration::seconds(1),
            ..SchedulerConfig::default()
        };
        let priors = PriorRules::new(RatePrior::WEEKLY)
            .rule("http://news\\..*", RatePrior::per(Duration::hours(2)))
            .unwrap();
        let s = AdaptiveScheduler::new(cfg, priors);
        let t0 = Timestamp(0);
        s.track("http://news.example/", "news.example", t0);
        s.track("http://quiet.example/", "quiet.example", t0);
        // Baselines for both.
        for _ in 0..2 {
            for p in s.next_polls(Timestamp(1)) {
                s.complete(p.id, false, Timestamp(1));
            }
        }
        // Five days out both are due again, but the news page is
        // near-certain to have changed (class 63) while the weekly page
        // is only about even odds (class ~32): gain order must win.
        let polls = s.next_polls(Timestamp(5 * DAY));
        assert_eq!(polls.len(), 1);
        assert_eq!(polls[0].url, "http://news.example/");
    }

    #[test]
    fn parked_hosts_wait_and_release_requeues() {
        let s = sched(8);
        let t0 = Timestamp(0);
        s.track("http://flaky.example/a", "flaky.example", t0);
        s.track("http://ok.example/b", "ok.example", t0);
        s.park_host("flaky.example");
        let polls = s.next_polls(Timestamp(5));
        assert_eq!(polls.len(), 1);
        assert_eq!(polls[0].host, "ok.example");
        // Parked wakeups survive further rounds without firing.
        assert!(s.next_polls(Timestamp(10)).is_empty());
        s.release_host("flaky.example", Timestamp(11));
        let polls = s.next_polls(Timestamp(12));
        assert_eq!(polls.len(), 1);
        assert_eq!(polls[0].host, "flaky.example");
    }

    #[test]
    fn gate_poll_learns_to_skip_stable_urls() {
        let cfg = SchedulerConfig {
            min_interval: Duration::hours(1),
            ..SchedulerConfig::default()
        };
        let s = AdaptiveScheduler::new(cfg, PriorRules::default());
        let url = "http://stable.example/";
        // First contact always polls.
        assert!(matches!(s.gate_poll(url, Timestamp(0)), Gate::Poll { .. }));
        s.record(url, false, Timestamp(0));
        // An hour later a 1/week page is nowhere near coin-flip odds.
        let t = Timestamp(2 * HOUR);
        assert!(matches!(s.gate_poll(url, t), Gate::Skip { .. }));
        // But within min_interval it is always a skip...
        assert!(matches!(
            s.gate_poll(url, Timestamp(HOUR / 2)),
            Gate::Skip { .. }
        ));
        // ...and past max_interval always a poll.
        let t = Timestamp(40 * DAY);
        assert!(matches!(s.gate_poll(url, t), Gate::Poll { .. }));
    }

    #[test]
    fn gate_and_record_are_deterministic() {
        let run = || {
            let s = sched(4);
            let mut log = String::new();
            for i in 0..50u64 {
                let t = Timestamp(i * HOUR);
                let url = format!("http://h{}.example/", i % 7);
                match s.gate_poll(&url, t) {
                    Gate::Poll { p_millionths } => {
                        log.push_str(&format!("poll {url} {p_millionths}\n"));
                        s.record(&url, i % 3 == 0, t);
                    }
                    Gate::Skip { p_millionths } => {
                        log.push_str(&format!("skip {url} {p_millionths}\n"));
                    }
                }
            }
            log.push_str(&s.snapshot_rates());
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tracked_count_and_idempotent_track() {
        let s = sched(4);
        let a = s.track("http://a/", "a", Timestamp(0));
        let b = s.track("http://b/", "b", Timestamp(0));
        assert_ne!(a, b);
        assert_eq!(s.track("http://a/", "a", Timestamp(50)), a);
        assert_eq!(s.tracked(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn sched_state_under_a_store_guard_panics() {
        // A caller holding a store-class guard (rank 25) calls into the
        // scheduler, whose state mutex is `sched` (rank 22).
        let s = std::sync::Arc::new(sched(4));
        let s2 = std::sync::Arc::clone(&s);
        let out = std::thread::spawn(move || {
            let shard = Mutex::with_class(&lockrank::STORE, ());
            let _sh = shard.lock();
            s2.track("http://a/", "a", Timestamp(0));
        })
        .join();
        let payload = out.expect_err("sched lock under a store guard must abort");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("acquiring sched lock"), "{msg}");
        // Under the user lock (rank 20) the same call is ascending.
        let user = Mutex::with_class(&lockrank::USER, ());
        let _u = user.lock();
        s.track("http://a/", "a", Timestamp(0));
        assert_eq!(s.tracked(), 1);
    }
}
