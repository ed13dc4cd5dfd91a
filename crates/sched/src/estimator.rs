//! Per-URL Poisson change-rate estimation with a conjugate Gamma prior.
//!
//! w3newer's poll history gives, for each URL, a sequence of
//! *interval-censored* observations: "between the previous poll and
//! this one (`Δ` seconds), the page did / did not change". Modelling
//! page changes as a Poisson process with unknown rate `λ` and putting
//! a `Gamma(α₀, β₀)` prior on `λ` makes the update rule trivial and
//! O(1): every poll adds its exposure window to `β`, and every
//! *detected change* adds one event to `α` (an approximation of the
//! censored likelihood that undercounts multi-change windows — see
//! SCHEDULING.md §1 for why that bias is acceptable here). The
//! posterior mean `α/β` is the working rate estimate.
//!
//! The prior is what makes cold URLs schedulable: a URL that has never
//! been polled gets `α₀/β₀` from the first matching *pattern rule*
//! ([`PriorRules`]), so an operator can say "news sites change daily,
//! personal pages weekly" the same way the paper's Table 1 assigns
//! thresholds. The priors file is literally the threshold file's
//! format: both are `aide_util::pattern::Rules`, here over a period
//! column read as [`RatePrior::per`].
//!
//! Everything is integer arithmetic — `α` in milli-events, `β` in
//! seconds, rates in nano-changes/second — so estimates are
//! bit-reproducible across runs and platforms (the workspace
//! determinism contract, DESIGN.md §4e).

use crate::fixp;
use aide_util::pattern::Rules;
use aide_util::time::{Duration, DurationParseError, Timestamp};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// A Gamma prior over a URL's change rate, expressed as pseudo-counts:
/// `alpha_milli` milli-changes observed over `beta_secs` seconds of
/// pseudo-exposure. `Gamma(1, one week)` — the default — means "assume
/// one change per week until the polls say otherwise".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RatePrior {
    /// Pseudo-changes in milli-units (1000 = one change).
    pub alpha_milli: u64,
    /// Pseudo-exposure in seconds.
    pub beta_secs: u64,
}

impl RatePrior {
    /// One pseudo-change per week: a conservative cold-start rate.
    pub const WEEKLY: RatePrior = RatePrior {
        alpha_milli: 1_000,
        beta_secs: 7 * 86_400,
    };

    /// A prior of one pseudo-change per `period`.
    pub fn per(period: Duration) -> RatePrior {
        RatePrior {
            alpha_milli: 1_000,
            beta_secs: period.as_secs().max(1),
        }
    }

    /// The prior mean rate in nano-changes per second.
    pub fn mean_nanohz(&self) -> u64 {
        rate_nanohz(self.alpha_milli, self.beta_secs)
    }
}

impl Default for RatePrior {
    fn default() -> Self {
        RatePrior::WEEKLY
    }
}

impl FromStr for RatePrior {
    type Err = DurationParseError;

    /// Parses a period such as `6h` or `7d` into [`RatePrior::per`].
    fn from_str(s: &str) -> Result<RatePrior, DurationParseError> {
        Duration::parse(s).map(RatePrior::per)
    }
}

/// `alpha_milli / beta_secs` as nano-changes per second.
fn rate_nanohz(alpha_milli: u64, beta_secs: u64) -> u64 {
    // milli/sec → nano/sec is ×10⁶.
    let r = (alpha_milli as u128) * 1_000_000 / (beta_secs.max(1) as u128);
    r.min(u64::MAX as u128) as u64
}

/// Pattern-level cold-start priors, first match wins — the adaptive
/// analogue of the paper's Table 1 threshold file, in its format: one
/// `pattern period` per line, `#` comments, and a `Default` fallback
/// (one change per week unless the file says otherwise).
///
/// # Examples
///
/// ```
/// use aide_sched::estimator::PriorRules;
///
/// let rules = PriorRules::parse(
///     "# volatile news\nhttp://news\\..* 6h\nDefault 7d\n",
/// ).unwrap();
/// let hot = rules.lookup("http://news.example.com/");
/// let cold = rules.lookup("http://example.org/");
/// assert!(hot.mean_nanohz() > cold.mean_nanohz());
/// ```
pub type PriorRules = Rules<RatePrior>;

/// One URL's posterior state. Obtain via [`RateBook`]; updates are O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UrlRate {
    /// Prior + observed changes, in milli-events.
    pub alpha_milli: u64,
    /// Prior + observed exposure, in seconds.
    pub beta_secs: u64,
    /// Polls recorded (including the baseline-establishing first one).
    pub polls: u64,
    /// Changes detected.
    pub changes: u64,
    /// When the URL was last polled, if ever.
    pub last_poll: Option<Timestamp>,
}

impl UrlRate {
    /// A cold entry carrying only the prior.
    pub fn cold(prior: RatePrior) -> UrlRate {
        UrlRate {
            alpha_milli: prior.alpha_milli,
            beta_secs: prior.beta_secs,
            polls: 0,
            changes: 0,
            last_poll: None,
        }
    }

    /// Records one poll verdict at `now`. The first poll only anchors
    /// the exposure clock: a "changed" verdict with no previous poll
    /// carries no rate information (there is no window it changed
    /// *within*), which also keeps first-contact checks from branding
    /// every new URL volatile.
    pub fn observe(&mut self, changed: bool, now: Timestamp) {
        if let Some(prev) = self.last_poll {
            let elapsed = (now - prev).as_secs().max(1);
            self.beta_secs = self.beta_secs.saturating_add(elapsed);
            if changed {
                self.alpha_milli = self.alpha_milli.saturating_add(1_000);
                self.changes += 1;
            }
        }
        self.polls += 1;
        self.last_poll = Some(match self.last_poll {
            // The exposure clock never runs backwards even if a stale
            // worker reports late.
            Some(prev) if prev > now => prev,
            _ => now,
        });
    }

    /// The posterior mean rate in nano-changes per second.
    pub fn rate_nanohz(&self) -> u64 {
        rate_nanohz(self.alpha_milli, self.beta_secs)
    }

    /// Expected gain of polling after `elapsed`: the probability (in
    /// millionths) that the page changed in that window.
    pub fn p_changed_millionths(&self, elapsed: Duration) -> u64 {
        fixp::p_changed_millionths(self.rate_nanohz(), elapsed.as_secs())
    }
}

/// Error from [`RateBook::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RateParseError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub what: String,
}

impl fmt::Display for RateParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rate book line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for RateParseError {}

/// The estimator table: URL → posterior, plus the cold-start rules.
///
/// Iteration and the [`RateBook::emit`] serialization are over a
/// `BTreeMap`, so output order is deterministic.
#[derive(Debug, Clone, Default)]
pub struct RateBook {
    priors: PriorRules,
    rates: BTreeMap<String, UrlRate>,
}

impl RateBook {
    /// An empty book with the given cold-start rules.
    pub fn new(priors: PriorRules) -> RateBook {
        RateBook {
            priors,
            rates: BTreeMap::new(),
        }
    }

    /// The posterior for `url`, materializing a cold entry from the
    /// prior rules if this URL has never been seen.
    pub fn rate(&mut self, url: &str) -> &UrlRate {
        if !self.rates.contains_key(url) {
            let cold = UrlRate::cold(self.priors.lookup(url));
            self.rates.insert(url.to_string(), cold);
        }
        &self.rates[url]
    }

    /// The posterior for `url` without materializing a cold entry.
    pub fn get(&self, url: &str) -> Option<&UrlRate> {
        self.rates.get(url)
    }

    /// Records one poll verdict for `url` at `now` (O(log n) map walk,
    /// O(1) arithmetic).
    pub fn observe(&mut self, url: &str, changed: bool, now: Timestamp) {
        let prior = self.priors.lookup(url);
        self.rates
            .entry(url.to_string())
            .or_insert_with(|| UrlRate::cold(prior))
            .observe(changed, now);
    }

    /// Expected gain (millionths) of polling `url` at `now`, measured
    /// from its last poll. A never-polled URL is worth a full million:
    /// the estimator cannot learn anything until a baseline exists.
    pub fn p_changed_at(&mut self, url: &str, now: Timestamp) -> u64 {
        let rate = *self.rate(url);
        match rate.last_poll {
            Some(prev) => rate.p_changed_millionths(now - prev),
            None => fixp::MILLION,
        }
    }

    /// Number of URLs with state.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// True if no URL has state.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Iterates URL → posterior in URL order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &UrlRate)> {
        self.rates.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Serializes the book as tab-separated text, one URL per line —
    /// the same shape as the tracker cache file, and the payload that
    /// [`crate::persist`] checks into the repository.
    ///
    /// ```text
    /// http://example.com/\tam=3000\tbs=777600\tpolls=9\tch=2\tlp=812345678
    /// ```
    pub fn emit(&self) -> String {
        let mut out = String::new();
        for (url, r) in &self.rates {
            out.push_str(url);
            out.push_str(&format!(
                "\tam={}\tbs={}\tpolls={}\tch={}",
                r.alpha_milli, r.beta_secs, r.polls, r.changes
            ));
            if let Some(lp) = r.last_poll {
                out.push_str(&format!("\tlp={}", lp.0));
            }
            out.push('\n');
        }
        out
    }

    /// Parses [`RateBook::emit`] output back into a book with the given
    /// prior rules (priors are configuration, not persisted state).
    pub fn parse(text: &str, priors: PriorRules) -> Result<RateBook, RateParseError> {
        let mut book = RateBook::new(priors);
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split('\t');
            let Some(url) = fields.next() else {
                continue; // unreachable: the line is non-empty
            };
            let mut rate = UrlRate::cold(book.priors.lookup(url));
            // Cold values hold until overwritten so old books survive
            // field additions.
            for field in fields {
                let Some((key, value)) = field.split_once('=') else {
                    return Err(RateParseError {
                        line: lineno,
                        what: format!("malformed field `{field}`"),
                    });
                };
                let parsed: u64 = value.parse().map_err(|_| RateParseError {
                    line: lineno,
                    what: format!("bad number in `{field}`"),
                })?;
                match key {
                    "am" => rate.alpha_milli = parsed,
                    "bs" => rate.beta_secs = parsed,
                    "polls" => rate.polls = parsed,
                    "ch" => rate.changes = parsed,
                    "lp" => rate.last_poll = Some(Timestamp(parsed)),
                    // Unknown keys are skipped for forward compatibility.
                    _ => {}
                }
            }
            book.rates.insert(url.to_string(), rate);
        }
        Ok(book)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY: u64 = 86_400;

    #[test]
    fn cold_urls_take_the_pattern_prior() {
        let rules = PriorRules::parse("http://news\\..* 6h\nDefault 14d\n").unwrap();
        let mut book = RateBook::new(rules);
        let hot = book.rate("http://news.example.com/").rate_nanohz();
        let cold = book.rate("http://quiet.example.org/").rate_nanohz();
        assert_eq!(hot, 1_000_000_000 / (6 * 3_600));
        assert_eq!(cold, 1_000_000_000 / (14 * DAY));
    }

    #[test]
    fn first_poll_only_anchors_the_clock() {
        let mut r = UrlRate::cold(RatePrior::WEEKLY);
        let before = r.rate_nanohz();
        r.observe(true, Timestamp(1_000));
        assert_eq!(r.rate_nanohz(), before, "no window, no evidence");
        assert_eq!(r.changes, 0);
        assert_eq!(r.polls, 1);
        assert_eq!(r.last_poll, Some(Timestamp(1_000)));
    }

    #[test]
    fn changes_raise_the_rate_and_quiet_polls_lower_it() {
        let mut fast = UrlRate::cold(RatePrior::WEEKLY);
        let mut slow = UrlRate::cold(RatePrior::WEEKLY);
        let mut t = Timestamp(0);
        fast.observe(false, t);
        slow.observe(false, t);
        for _ in 0..20 {
            t = t + Duration::seconds(DAY);
            fast.observe(true, t);
            slow.observe(false, t);
        }
        assert!(fast.rate_nanohz() > RatePrior::WEEKLY.mean_nanohz());
        assert!(slow.rate_nanohz() < RatePrior::WEEKLY.mean_nanohz());
        // 20 changes in 20 days on a 1/week prior: close to 1/day.
        let daily = 1_000_000_000 / DAY;
        assert!(fast.rate_nanohz() > daily / 2 && fast.rate_nanohz() < daily * 2);
    }

    #[test]
    fn posterior_mean_sits_between_prior_and_empirical() {
        let prior = RatePrior::WEEKLY;
        let mut r = UrlRate::cold(prior);
        r.observe(false, Timestamp(0));
        for i in 1..=10u64 {
            r.observe(i % 2 == 0, Timestamp(i * DAY));
        }
        // Empirical: 5 changes / 10 days; prior: 1/week. Posterior must
        // sit between them (mediant inequality), compared exactly via
        // cross-multiplication.
        let (ea, eb) = (5_000u128, 10 * DAY as u128);
        let (pa, pb) = (prior.alpha_milli as u128, prior.beta_secs as u128);
        let (qa, qb) = (r.alpha_milli as u128, r.beta_secs as u128);
        assert!(pa * qb <= qa * pb, "posterior below prior");
        assert!(qa * eb <= ea * qb, "posterior above empirical");
    }

    #[test]
    fn late_reports_never_rewind_the_clock() {
        let mut r = UrlRate::cold(RatePrior::WEEKLY);
        r.observe(false, Timestamp(5_000));
        r.observe(false, Timestamp(4_000)); // stale worker
        assert_eq!(r.last_poll, Some(Timestamp(5_000)));
        assert_eq!(r.polls, 2);
    }

    #[test]
    fn emit_parse_roundtrip_is_exact() {
        let rules = PriorRules::parse("http://news\\..* 6h\nDefault 7d\n").unwrap();
        let mut book = RateBook::new(rules.clone());
        let mut t = Timestamp(800_000_000);
        for i in 0..30u64 {
            t = t + Duration::seconds(3_600 * (1 + i % 5));
            book.observe("http://news.site/a", i % 3 == 0, t);
            book.observe("http://quiet.org/b", i % 11 == 0, t);
        }
        book.rate("http://cold.example/"); // materialized, never polled
        let text = book.emit();
        let back = RateBook::parse(&text, rules).unwrap();
        assert_eq!(back.emit(), text);
        assert_eq!(back.len(), 3);
        assert_eq!(
            back.get("http://news.site/a"),
            book.get("http://news.site/a")
        );
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        let err = RateBook::parse("http://x/\tnot-a-field\n", PriorRules::default()).unwrap_err();
        assert_eq!(err.line, 1);
        let err = RateBook::parse(
            "http://x/\tam=1\n\nhttp://y/\tam=ten\n",
            PriorRules::default(),
        )
        .unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn gain_is_monotone_in_elapsed_time() {
        let mut book = RateBook::default();
        assert_eq!(
            book.p_changed_at("http://new.example/", Timestamp(0)),
            fixp::MILLION,
            "never-polled URLs demand a baseline poll"
        );
        book.observe("http://new.example/", false, Timestamp(0));
        let p1 = book.p_changed_at("http://new.example/", Timestamp(DAY));
        let p7 = book.p_changed_at("http://new.example/", Timestamp(7 * DAY));
        assert!(0 < p1 && p1 < p7 && p7 < fixp::MILLION);
    }
}
