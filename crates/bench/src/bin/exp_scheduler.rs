//! Adaptive-vs-threshold polling experiment plus the 10M-URL timer
//! wheel microbenchmark (`BENCH_sched.json`).
//!
//! §3 polls every URL on a fixed pattern-matched threshold (Table 1).
//! The `aide-sched` crate replaces that with learned per-URL change
//! rates; this experiment measures what the learning buys under a
//! fixed request budget.
//!
//! # Polling experiment
//!
//! A simulated population of URLs with heterogeneous change rates:
//! every URL belongs to a volatility class (Zipf-assigned, so most
//! pages are near-static and a few are volatile — the §7 shape), its
//! *actual* mean change period is the class period jittered by
//! 0.5–2×, and a slice of the population is **misclassified** — the
//! pattern table says one class, the page behaves like another (Table
//! 1 is coarse; this is the paper's own critique of static
//! thresholds). Change instants are a per-URL Poisson process from a
//! seeded deterministic RNG.
//!
//! Poll opportunities arrive on an open-loop Poisson schedule
//! ([`aide_workloads::openloop::schedule`], the arrival timeline
//! reinterpreted 1µs → 1s), one request per opportunity, at several
//! budget rates. Both arms see the identical world and the identical
//! opportunity schedule:
//!
//! - **threshold**: the paper's rule — a URL is due when its
//!   class threshold has elapsed since its last poll; due URLs are
//!   served round-robin (cursor sweep), the order w3newer's hotlist
//!   walk imposes.
//! - **adaptive**: [`AdaptiveScheduler`] — wheel wakeups, gain-class
//!   priority dequeue, one ticket per opportunity, verdicts fed back
//!   with [`AdaptiveScheduler::complete`].
//!
//! A poll *detects* a change when at least one change instant falls in
//! its window; the headline metric is detected changes per 1000
//! requests (and recall against the ground-truth change count). The
//! run asserts the adaptive arm strictly wins at every rate and by a
//! margin overall.
//!
//! # Wheel microbenchmark
//!
//! Arms N ∈ {10k, 100k, 1M, 10M} timers with dues uniform in
//! [1, N/10] — constant expected firing density (~10/tick) at every
//! N — advances a fixed number of ticks, and reports the wheel's own
//! deterministic work counters ([`WheelOps`]). The O(1) claim is the
//! flatness assertion: touches per fired timer and slot visits per
//! tick are bounded by small constants *independent of N*. No wall
//! clock is read anywhere; ci.sh runs the experiment twice and `cmp`s
//! the JSON byte-for-byte.

use aide_obs::MetricsRegistry;
use aide_sched::wheel::WheelOps;
use aide_sched::{AdaptiveScheduler, PriorRules, SchedulerConfig, TimerWheel};
use aide_util::time::{Duration, Timestamp};
use aide_workloads::openloop::{schedule, OpenLoopConfig, RequestMix};
use aide_workloads::rng::Rng;
use std::fmt::Write as _;
use std::sync::Arc;

const SEED: u64 = 3023;
const URLS: usize = 600;
const HOSTS: usize = 40;
const REQUESTS: usize = 30_000;
/// Mean seconds between poll opportunities (the budget axis).
const GAP_SECS: &[u64] = &[30, 90, 300, 900];
/// Fraction of URLs (per 100) whose pattern class is wrong.
const MISCLASSIFIED_PCT: u64 = 15;
const BASE_TIME: Timestamp = Timestamp(1_000_000);

const HOUR: u64 = 3_600;
const DAY: u64 = 86_400;

/// Volatility classes, least volatile first — Zipf assignment then
/// makes near-static pages the common case.
const CLASS_PERIOD_SECS: &[u64] = &[180 * DAY, 30 * DAY, 7 * DAY, DAY, 6 * HOUR];

/// Longest threshold the fixed table will use. Table 1's thresholds
/// top out around two weeks: without learning, an operator cannot
/// trust a page to stay static for six months, so the table re-checks
/// everything at least this often. The adaptive arm's learned
/// posteriors are exactly what justifies stretching past this cap
/// (its freshness floor is `max_interval` below).
const THRESHOLD_CAP_SECS: u64 = 14 * DAY;

/// One URL's ground truth.
struct UrlWorld {
    url: String,
    host: String,
    /// The class the pattern table believes (prior + threshold).
    labeled_class: usize,
    /// Sorted change instants (absolute seconds).
    changes: Vec<u64>,
    /// Cursor into `changes` for O(1) amortized window counting.
    cursor: usize,
    last_poll: Option<u64>,
}

impl UrlWorld {
    /// Advances the change cursor to `t` and reports whether any change
    /// landed in `(last_poll, t]`. Polls arrive in time order, so the
    /// cursor never rewinds.
    fn poll(&mut self, t: u64) -> bool {
        while self.cursor < self.changes.len() && self.changes[self.cursor] <= t {
            self.cursor += 1;
        }
        let changed = match self.last_poll {
            // No baseline: the first poll only anchors the window, for
            // both arms (mirrors w3newer's first-contact rule).
            None => false,
            Some(prev) => self.changes[..self.cursor]
                .iter()
                .rev()
                .take_while(|&&c| c > prev)
                .next()
                .is_some(),
        };
        self.last_poll = Some(t);
        changed
    }
}

/// Builds the deterministic world: URL population, class labels,
/// actual change processes over `horizon_secs`.
fn build_world(horizon_secs: u64) -> Vec<UrlWorld> {
    let mut rng = Rng::new(SEED ^ 0x00c0_ffee);
    let mut world = Vec::with_capacity(URLS);
    for u in 0..URLS {
        // Zipf over classes ordered static → volatile: most URLs land
        // in the near-static classes.
        let labeled_class = rng.zipf(CLASS_PERIOD_SECS.len());
        // Misclassification: the page actually behaves like a uniformly
        // random class, but keeps its label.
        let actual_class = if rng.below(100) < MISCLASSIFIED_PCT {
            rng.index(CLASS_PERIOD_SECS.len())
        } else {
            labeled_class
        };
        // Within-class heterogeneity: 0.5–2× the class period.
        let base = CLASS_PERIOD_SECS[actual_class];
        let period = base / 2 + rng.below(base * 3 / 2).max(1);
        // Poisson change process: exponential gaps with mean `period`.
        let mut changes = Vec::new();
        let mut t = 0u64;
        loop {
            let uni = rng.f64().min(0.999_999_999);
            t += ((-(1.0 - uni).ln()) * period as f64).round().max(1.0) as u64;
            if t > horizon_secs {
                break;
            }
            changes.push(BASE_TIME.0 + t);
        }
        let host = format!("host{:02}.example", u % HOSTS);
        let url = format!(
            "http://{host}/c{labeled_class}/page{u:03}.html",
            host = host
        );
        world.push(UrlWorld {
            url,
            host,
            labeled_class,
            changes,
            cursor: 0,
            last_poll: None,
        });
    }
    world
}

/// One arm's results at one budget rate.
#[derive(Default)]
struct ArmResult {
    requests: u64,
    detected: u64,
    idle_opportunities: u64,
}

impl ArmResult {
    fn per_1k(&self) -> u64 {
        (self.detected * 1_000)
            .checked_div(self.requests)
            .unwrap_or(0)
    }
}

/// Poll opportunity instants (absolute seconds): the openloop µs
/// timeline reinterpreted as seconds.
fn opportunities(gap_secs: u64) -> Vec<u64> {
    let arrivals = schedule(&OpenLoopConfig {
        seed: SEED,
        requests: REQUESTS,
        rate_per_sec: 1_000_000 / gap_secs,
        urls: URLS,
        users: 1,
        mix: RequestMix::default(),
    });
    arrivals.iter().map(|a| BASE_TIME.0 + a.at_us).collect()
}

/// The paper's arm: class thresholds, round-robin over due URLs.
fn run_threshold(world: &mut [UrlWorld], slots: &[u64]) -> ArmResult {
    let mut out = ArmResult::default();
    let mut cursor = 0usize;
    for &t in slots {
        // Cursor sweep: next due URL in rotation order, if any.
        let mut picked = None;
        for step in 0..world.len() {
            let i = (cursor + step) % world.len();
            let due = match world[i].last_poll {
                None => true,
                Some(prev) => {
                    t - prev >= CLASS_PERIOD_SECS[world[i].labeled_class].min(THRESHOLD_CAP_SECS)
                }
            };
            if due {
                picked = Some(i);
                cursor = (i + 1) % world.len();
                break;
            }
        }
        match picked {
            Some(i) => {
                out.requests += 1;
                if world[i].poll(t) {
                    out.detected += 1;
                }
            }
            None => out.idle_opportunities += 1,
        }
    }
    out
}

/// The learned arm: wheel wakeups + gain-class dequeue, one ticket per
/// opportunity, verdicts fed back.
fn run_adaptive(world: &mut [UrlWorld], slots: &[u64]) -> ArmResult {
    // The prior rules carry exactly the threshold table's knowledge:
    // the *labeled* class period, keyed on the class directory.
    let mut rules_text = String::new();
    for (c, period) in CLASS_PERIOD_SECS.iter().enumerate() {
        let _ = writeln!(rules_text, "/c{c}/ {period}s");
    }
    let rules = PriorRules::parse(&rules_text).unwrap();
    let cfg = SchedulerConfig {
        target_gain_millionths: 500_000,
        min_interval: Duration::hours(1),
        // The freshness floor doubles as a discovery probe: a page the
        // pattern table mislabels as static still gets re-checked
        // monthly, and a couple of changed verdicts pull its posterior
        // toward the truth. The threshold arm has no such escape from
        // a bad label — and no learning to justify stretching past its
        // own 14-day cap.
        max_interval: Duration::days(30),
        budget: 1,
    };
    let sched = AdaptiveScheduler::new(cfg, rules);
    let mut id_of = vec![0u32; world.len()];
    for (i, w) in world.iter().enumerate() {
        id_of[i] = sched.track(&w.url, &w.host, BASE_TIME);
    }
    let by_id: std::collections::BTreeMap<u32, usize> =
        id_of.iter().enumerate().map(|(i, &id)| (id, i)).collect();

    let mut out = ArmResult::default();
    for &t in slots {
        let tickets = sched.next_polls(Timestamp(t));
        if tickets.is_empty() {
            out.idle_opportunities += 1;
            continue;
        }
        for ticket in tickets {
            let i = by_id[&ticket.id];
            out.requests += 1;
            let changed = world[i].poll(t);
            if changed {
                out.detected += 1;
            }
            sched.complete(ticket.id, changed, Timestamp(t));
        }
    }
    out
}

/// One budget rate, both arms over identical worlds and slots.
struct RatePoint {
    mean_gap_secs: u64,
    opportunities: u64,
    total_changes: u64,
    threshold: ArmResult,
    adaptive: ArmResult,
}

fn run_rate(gap_secs: u64) -> RatePoint {
    let slots = opportunities(gap_secs);
    let horizon = slots.last().copied().unwrap_or(BASE_TIME.0) - BASE_TIME.0;
    let mut world_t = build_world(horizon);
    let mut world_a = build_world(horizon);
    let total_changes: u64 = world_t.iter().map(|w| w.changes.len() as u64).sum();
    let threshold = run_threshold(&mut world_t, &slots);
    let adaptive = run_adaptive(&mut world_a, &slots);
    RatePoint {
        mean_gap_secs: gap_secs,
        opportunities: slots.len() as u64,
        total_changes,
        threshold,
        adaptive,
    }
}

// ------------------------------------------------------------------ wheel

/// One wheel microbenchmark point.
struct WheelPoint {
    timers: u64,
    ticks: u64,
    fired: u64,
    slot_visits: u64,
    cascaded: u64,
    touches: u64,
}

impl WheelPoint {
    /// Work per fired timer, ×100 (integer fixed point).
    fn touches_per_fired_x100(&self) -> u64 {
        (self.touches * 100).checked_div(self.fired).unwrap_or(0)
    }

    /// Slot lists examined per tick, ×100.
    fn visits_per_tick_x100(&self) -> u64 {
        (self.slot_visits * 100)
            .checked_div(self.ticks)
            .unwrap_or(0)
    }
}

const WHEEL_SIZES: &[u64] = &[10_000, 100_000, 1_000_000, 10_000_000];
const WHEEL_TICKS: u64 = 512;

/// Arms `n` timers with dues uniform in [1, n/10] (constant expected
/// firing density of ~10/tick at every `n`), advances a fixed tick
/// count, returns the wheel's own deterministic work counters.
fn run_wheel(n: u64) -> WheelPoint {
    let mut rng = Rng::new(SEED ^ n);
    let mut wheel = TimerWheel::new(0);
    let span = n / 10;
    for id in 0..n {
        wheel.insert(id as u32, 1 + rng.below(span));
    }
    let mut ops = WheelOps::default();
    let mut fired = Vec::new();
    wheel.advance_to(WHEEL_TICKS, &mut fired, &mut ops);
    WheelPoint {
        timers: n,
        ticks: ops.ticks,
        fired: ops.fired,
        slot_visits: ops.slot_visits,
        cascaded: ops.cascaded,
        touches: ops.touches(),
    }
}

// ------------------------------------------------------------------- main

fn main() {
    let out_path = std::env::args()
        .skip_while(|a| a != "--out")
        .nth(1)
        .unwrap_or_else(|| "BENCH_sched.json".to_string());

    // Capture the scheduler's own metrics for the whole sweep; the
    // counters are deterministic (virtual clock, seeded world).
    let reg = Arc::new(MetricsRegistry::new());
    let prev = aide_obs::install(reg.clone());

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"seed\": {SEED}, \"urls\": {URLS}, \"hosts\": {HOSTS}, \
         \"requests\": {REQUESTS}, \"misclassified_pct\": {MISCLASSIFIED_PCT}, \
         \"classes_secs\": {CLASS_PERIOD_SECS:?}}},"
    );

    println!("=== adaptive vs threshold polling ===");
    println!(
        "{:>9} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "gap s", "thr req", "ada req", "thr det", "ada det", "thr/1k", "ada/1k", "win x100"
    );
    json.push_str("  \"curve\": [\n");
    let mut points = Vec::new();
    for &gap in GAP_SECS {
        points.push(run_rate(gap));
    }
    let mut agg_thr = (0u64, 0u64);
    let mut agg_ada = (0u64, 0u64);
    for (i, p) in points.iter().enumerate() {
        let win_x100 = (p.adaptive.per_1k() * 100)
            .checked_div(p.threshold.per_1k().max(1))
            .unwrap_or(0);
        println!(
            "{:>9} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9} {:>8}",
            p.mean_gap_secs,
            p.threshold.requests,
            p.adaptive.requests,
            p.threshold.detected,
            p.adaptive.detected,
            p.threshold.per_1k(),
            p.adaptive.per_1k(),
            win_x100,
        );
        let _ = write!(
            json,
            "    {{\"mean_gap_secs\": {}, \"opportunities\": {}, \"total_changes\": {}, \
             \"threshold\": {{\"requests\": {}, \"detected\": {}, \"detected_per_1k\": {}, \
             \"recall_permille\": {}, \"idle_opportunities\": {}}}, \
             \"adaptive\": {{\"requests\": {}, \"detected\": {}, \"detected_per_1k\": {}, \
             \"recall_permille\": {}, \"idle_opportunities\": {}}}, \"win_x100\": {}}}",
            p.mean_gap_secs,
            p.opportunities,
            p.total_changes,
            p.threshold.requests,
            p.threshold.detected,
            p.threshold.per_1k(),
            p.threshold.detected * 1_000 / p.total_changes.max(1),
            p.threshold.idle_opportunities,
            p.adaptive.requests,
            p.adaptive.detected,
            p.adaptive.per_1k(),
            p.adaptive.detected * 1_000 / p.total_changes.max(1),
            p.adaptive.idle_opportunities,
            win_x100,
        );
        json.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
        agg_thr = (
            agg_thr.0 + p.threshold.requests,
            agg_thr.1 + p.threshold.detected,
        );
        agg_ada = (
            agg_ada.0 + p.adaptive.requests,
            agg_ada.1 + p.adaptive.detected,
        );

        // The headline assertion, per rate: strictly better detection
        // efficiency from the same opportunity schedule.
        assert!(
            p.adaptive.per_1k() > p.threshold.per_1k(),
            "adaptive must beat threshold at gap {}s ({} vs {} per 1k)",
            p.mean_gap_secs,
            p.adaptive.per_1k(),
            p.threshold.per_1k()
        );
    }
    json.push_str("  ],\n");

    let thr_per_1k = agg_thr.1 * 1_000 / agg_thr.0.max(1);
    let ada_per_1k = agg_ada.1 * 1_000 / agg_ada.0.max(1);
    let margin_x100 = ada_per_1k * 100 / thr_per_1k.max(1);
    println!(
        "overall: threshold {thr_per_1k}/1k, adaptive {ada_per_1k}/1k, margin {:.2}x",
        margin_x100 as f64 / 100.0
    );
    assert!(
        margin_x100 >= 115,
        "adaptive must beat threshold by >=1.15x overall (got {margin_x100} x100)"
    );
    let _ = writeln!(
        json,
        "  \"overall\": {{\"threshold_detected_per_1k\": {thr_per_1k}, \
         \"adaptive_detected_per_1k\": {ada_per_1k}, \"margin_x100\": {margin_x100}}},"
    );

    // A worked sched.* metrics sample for the operator docs.
    let snap = reg.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let _ = writeln!(
        json,
        "  \"sched_metrics\": {{\"fired\": {}, \"dequeue\": {}, \
         \"observe_changed\": {}, \"observe_unchanged\": {}}},",
        counter("sched.fired"),
        counter("sched.dequeue"),
        counter("sched.observe.changed"),
        counter("sched.observe.unchanged"),
    );
    aide_obs::uninstall();
    if let Some(prev) = prev {
        aide_obs::install(prev);
    }

    println!("\n=== timer wheel scaling (dues uniform, ~10 fires/tick) ===");
    println!(
        "{:>12} {:>7} {:>9} {:>11} {:>9} {:>10} {:>9} {:>9}",
        "timers", "ticks", "fired", "slot_visits", "cascaded", "touches", "tpf x100", "vpt x100"
    );
    json.push_str("  \"wheel\": [\n");
    let mut wheel_points = Vec::new();
    for &n in WHEEL_SIZES {
        wheel_points.push(run_wheel(n));
    }
    for (i, w) in wheel_points.iter().enumerate() {
        println!(
            "{:>12} {:>7} {:>9} {:>11} {:>9} {:>10} {:>9} {:>9}",
            w.timers,
            w.ticks,
            w.fired,
            w.slot_visits,
            w.cascaded,
            w.touches,
            w.touches_per_fired_x100(),
            w.visits_per_tick_x100(),
        );
        let _ = write!(
            json,
            "    {{\"timers\": {}, \"ticks\": {}, \"fired\": {}, \"slot_visits\": {}, \
             \"cascaded\": {}, \"touches\": {}, \"touches_per_fired_x100\": {}, \
             \"slot_visits_per_tick_x100\": {}}}",
            w.timers,
            w.ticks,
            w.fired,
            w.slot_visits,
            w.cascaded,
            w.touches,
            w.touches_per_fired_x100(),
            w.visits_per_tick_x100(),
        );
        json.push_str(if i + 1 < wheel_points.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]\n}\n");

    // The O(1) evidence: per-tick slot visits are bounded by the wheel
    // geometry (1 level-0 drain + at most 3 cascade visits), and work
    // per fired timer stays flat as the armed population grows 1000x.
    for w in &wheel_points {
        assert!(
            w.visits_per_tick_x100() <= 400,
            "slot visits per tick must be bounded by wheel geometry, got {} x100 at N={}",
            w.visits_per_tick_x100(),
            w.timers
        );
    }
    let tpf: Vec<u64> = wheel_points
        .iter()
        .map(|w| w.touches_per_fired_x100())
        .collect();
    let (min_tpf, max_tpf) = (
        *tpf.iter().min().unwrap_or(&1),
        *tpf.iter().max().unwrap_or(&1),
    );
    assert!(
        max_tpf * 100 / min_tpf.max(1) <= 200,
        "touches per fired timer must stay flat across N (spread {min_tpf}..{max_tpf} x100)"
    );
    println!(
        "per-fired work spread across 1000x population growth: {:.2}x",
        (max_tpf as f64) / (min_tpf as f64)
    );

    std::fs::write(&out_path, &json).unwrap();
    println!("wrote {out_path}");
}
