//! The w3newer decision procedure and run driver (§3, §3.1).
//!
//! Per URL, the tracker consults modification sources in cost order:
//!
//! 1. **its own cache** — "pages already known to be modified since the
//!    user last saw the page" are reported without touching the network,
//!    and pages known unchanged are re-verified only when the cached
//!    information is *stale* (older than one week by default);
//! 2. **the proxy-caching server's cache**, when its copy is current with
//!    respect to the URL's threshold;
//! 3. **a direct `HEAD`** — or, for pages without `Last-Modified` (CGI
//!    output), a `GET` whose body is checksummed against the previous
//!    checksum, exactly the URL-minder/w3new fallback.
//!
//! Before any network access, the per-pattern threshold gates the check:
//! pages visited (or checked) within the threshold are skipped. Robot
//! exclusions are honoured and cached; errors are counted per URL; host
//! errors can short-circuit the rest of a host; and a run aborts after
//! too many consecutive network failures ("w3newer should therefore be
//! able to detect cases when it should abort and try again later").

use crate::breaker::{Admission, CircuitBreaker};
use crate::cache::TrackerCache;
use crate::config::{Threshold, ThresholdConfig};
use crate::retry::{
    retryable_net_error, FetchFailure, RetryPolicy, RetrySnapshot, RetryStats, TransientFailure,
};
use crate::schedule::SchedulePolicy;
use aide_htmlkit::url::Url;
use aide_sched::Gate;
use aide_simweb::browser::Bookmark;
use aide_simweb::http::{Method, Request, Response, Status};
use aide_simweb::net::Web;
use aide_simweb::proxy::ProxyCache;
use aide_util::checksum::PageChecksum;
use aide_util::robots::RobotsTxt;
use aide_util::time::{Duration, Timestamp};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Where the verdict for a URL came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckSource {
    /// w3newer's own cache from previous runs.
    Cache,
    /// The proxy-caching server's cache.
    ProxyCache,
    /// A direct `HEAD` request.
    Head,
    /// A `GET` plus content checksum (no `Last-Modified` available).
    GetChecksum,
    /// A local `file:` stat.
    FileStat,
}

/// Why a URL was not checked this run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// Its threshold is `never`.
    NeverThreshold,
    /// The user viewed it within the threshold.
    RecentlyVisited,
    /// w3newer checked it within the threshold.
    CheckedRecently,
    /// An earlier URL on the same host hit a host-level error.
    HostError,
    /// The run aborted before reaching this URL.
    RunAborted,
    /// The adaptive scheduler's expected freshness gain is still below
    /// target ([`SchedulePolicy::Adaptive`] only).
    BelowExpectedGain,
}

/// The verdict for one URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UrlStatus {
    /// Modified since the user last saw it.
    Changed {
        /// The modification date, when one is known.
        modified: Option<Timestamp>,
        /// Which source produced the verdict.
        source: CheckSource,
    },
    /// Seen by the user since its last modification.
    Unchanged {
        /// Which source produced the verdict.
        source: CheckSource,
    },
    /// Not checked this run.
    NotChecked {
        /// Why.
        reason: SkipReason,
    },
    /// Excluded by the robot exclusion protocol.
    RobotExcluded,
    /// The check failed.
    Error {
        /// Human-readable description, shown in the report so "the user
        /// can take action to remove a URL that no longer exists".
        message: String,
    },
    /// The check could not complete this run (retries exhausted on a
    /// transient failure, or the host's circuit is open), so the tracker
    /// fell back to its cached knowledge. Distinct from
    /// [`UrlStatus::Unchanged`] — the page was *not verified* — and from
    /// [`UrlStatus::Error`] — the failure was transient, not a verdict
    /// about the URL. Only produced when the robustness layer is on.
    Degraded {
        /// What went wrong, human-readable.
        message: String,
        /// The last modification date on record, if any — the stale
        /// knowledge the report falls back to.
        last_known_modified: Option<Timestamp>,
    },
}

impl UrlStatus {
    /// True for [`UrlStatus::Changed`].
    pub fn is_changed(&self) -> bool {
        matches!(self, UrlStatus::Changed { .. })
    }
}

/// One hotlist entry's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UrlReport {
    /// The URL.
    pub url: String,
    /// The hotlist title.
    pub title: String,
    /// The verdict.
    pub status: UrlStatus,
    /// When the user last viewed it, per the browser history.
    pub last_visited: Option<Timestamp>,
}

/// The outcome of one w3newer run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Per-URL outcomes, in hotlist order.
    pub entries: Vec<UrlReport>,
    /// When the run started.
    pub started: Timestamp,
    /// Whether the run aborted early on consecutive failures.
    pub aborted: bool,
    /// Retry/breaker activity during this run. All-zero when the
    /// robustness layer is off (the default).
    pub net: RetrySnapshot,
}

impl RunReport {
    /// Number of entries with each changed status.
    pub fn changed_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.status.is_changed())
            .count()
    }
}

/// Behaviour flags (§3.1's special flags are all here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flags {
    /// Re-verify cached "unchanged" knowledge after this long.
    pub staleness: Duration,
    /// "A special flag" to check robot-excluded URLs anyway.
    pub ignore_robots: bool,
    /// "Another flag can tell w3newer to treat error conditions as a
    /// successful check as far as the URL's timestamp goes."
    pub errors_count_as_checked: bool,
    /// Skip the rest of a host after a host-level error there.
    pub skip_host_after_host_error: bool,
    /// Abort the run after this many consecutive network errors.
    pub abort_after_consecutive_errors: Option<u32>,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            staleness: Duration::days(7),
            ignore_robots: false,
            errors_count_as_checked: false,
            skip_host_after_host_error: false,
            abort_after_consecutive_errors: Some(10),
        }
    }
}

/// The tracker.
#[derive(Debug)]
pub struct W3Newer {
    /// Threshold configuration.
    pub config: ThresholdConfig,
    /// Persistent per-URL state.
    pub cache: TrackerCache,
    /// Behaviour flags.
    pub flags: Flags,
    /// The `User-Agent` offered to servers and matched against robots.txt.
    pub user_agent: String,
    /// Retry policy for transient network failures. The default,
    /// [`RetryPolicy::disabled`], reproduces the paper's behaviour: one
    /// attempt, any failure is final.
    pub retry: RetryPolicy,
    /// Optional per-host circuit breaker, shared across the worker pool
    /// (and, via [`Arc`], across trackers polling the same Web).
    pub breaker: Option<Arc<CircuitBreaker>>,
    /// When a URL is due for a network check: the paper's fixed
    /// thresholds (the default) or the adaptive change-rate estimator.
    pub schedule: SchedulePolicy,
    /// Retry/breaker accounting, shared with the worker pool.
    stats: Arc<RetryStats>,
}

impl Clone for W3Newer {
    /// Clones configuration and cache but gives the clone its own
    /// zeroed [`RetryStats`], so independently-run trackers do not mix
    /// their accounting. The breaker handle *is* shared — breaker state
    /// is per-host knowledge about the Web, not about one tracker.
    fn clone(&self) -> W3Newer {
        W3Newer {
            config: self.config.clone(),
            cache: self.cache.clone(),
            flags: self.flags,
            user_agent: self.user_agent.clone(),
            retry: self.retry,
            breaker: self.breaker.clone(),
            schedule: self.schedule.clone(),
            stats: Arc::new(RetryStats::default()),
        }
    }
}

impl W3Newer {
    /// Creates a tracker with the given configuration and empty cache.
    pub fn new(config: ThresholdConfig) -> W3Newer {
        W3Newer {
            config,
            cache: TrackerCache::new(),
            flags: Flags::default(),
            user_agent: "w3newer/1.0".to_string(),
            retry: RetryPolicy::disabled(),
            breaker: None,
            schedule: SchedulePolicy::Threshold,
            stats: Arc::new(RetryStats::default()),
        }
    }

    /// True when any part of the robustness layer is active. Stats are
    /// only recorded (and degradation only applies) in robust mode, so
    /// a default tracker behaves — and reports — exactly as before.
    fn robust(&self) -> bool {
        self.retry.enabled() || self.breaker.is_some()
    }

    /// Cumulative retry/breaker accounting for this tracker.
    pub fn net_stats(&self) -> RetrySnapshot {
        self.stats.snapshot()
    }

    /// Runs one pass over `hotlist`. `last_visited` supplies the browser
    /// history; `proxy` is consulted for cached modification dates when
    /// available.
    ///
    /// This is the worker-pool driver ([`W3Newer::run_pooled`]) at the
    /// machine's width ([`aide_util::pool::machine_width`], at least
    /// 2); the report is byte-identical to [`W3Newer::run_serial`].
    pub fn run(
        &mut self,
        hotlist: &[Bookmark],
        last_visited: &(dyn Fn(&str) -> Option<Timestamp> + Sync),
        web: &Web,
        proxy: Option<&ProxyCache>,
    ) -> RunReport {
        let workers = aide_util::pool::machine_width().max(2);
        self.run_pooled(hotlist, last_visited, web, proxy, workers)
    }

    /// Runs one pass strictly serially, in hotlist order — the reference
    /// implementation the worker pool must reproduce byte-for-byte.
    pub fn run_serial(
        &mut self,
        hotlist: &[Bookmark],
        last_visited: &(dyn Fn(&str) -> Option<Timestamp> + Sync),
        web: &Web,
        proxy: Option<&ProxyCache>,
    ) -> RunReport {
        let stats_before = self.stats.snapshot();
        let mut run = RunCtx::new(web, proxy, web.clock().now());
        let mut cache = std::mem::take(&mut self.cache);
        let mut abort = AbortRule::new(self.flags.abort_after_consecutive_errors);
        let entries = self.walk(&mut run, &mut cache, hotlist, last_visited, &mut abort);
        self.cache = cache;
        self.finish(entries, abort.aborted, run.now, web, stats_before)
    }

    /// Runs one pass with up to `workers` concurrent host pipelines.
    ///
    /// The hotlist is partitioned by host (first-appearance order); each
    /// host's entries are checked in hotlist order by a single worker at
    /// a time, so a server never sees two simultaneous requests from the
    /// tracker (per-host politeness), while different hosts proceed in
    /// parallel on [`aide_util::pool`]. Workers mutate only host-local
    /// copies of the per-URL records, merged back deterministically
    /// afterwards.
    ///
    /// The report is byte-identical to [`W3Newer::run_serial`]: entries
    /// come back in hotlist order, and the consecutive-error abort rule
    /// is applied to the ordered results as a post-process. The one
    /// observable difference is internal: a run that aborts may still
    /// have checked (and cached state for) URLs past the abort point,
    /// which the serial tracker never reached.
    ///
    /// `last_visited` is called once per hotlist entry, in no particular
    /// order — it should be a pure view of the browser history.
    pub fn run_pooled(
        &mut self,
        hotlist: &[Bookmark],
        last_visited: &(dyn Fn(&str) -> Option<Timestamp> + Sync),
        web: &Web,
        proxy: Option<&ProxyCache>,
        workers: usize,
    ) -> RunReport {
        // Partition by host; unparseable URLs group under their own text.
        let mut group_of: HashMap<String, usize> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, mark) in hotlist.iter().enumerate() {
            let key = match Url::parse(&mark.url) {
                Ok(u) => format!("{}://{}", u.scheme, u.host),
                Err(_) => mark.url.clone(),
            };
            let g = *group_of.entry(key).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(i);
        }
        let pool = workers.min(groups.len());
        if pool <= 1 {
            // One host (or one worker): the serial path is already
            // optimal and keeps exact serial cache semantics.
            return self.run_serial(hotlist, last_visited, web, proxy);
        }

        let now = web.clock().now();
        let stats_before = self.stats.snapshot();
        aide_obs::gauge!("w3newer.pool.workers", pool as u64);
        // Host-group sizes are the deterministic proxy for per-host
        // queue pressure: a worker serializes each group.
        for g in &groups {
            aide_obs::observe!("w3newer.pool.host_group_urls", g.len() as u64);
        }
        let outputs = aide_util::pool::map(groups.iter().collect(), pool, |group: &Vec<usize>| {
            // Host-local working cache, seeded with the host's records.
            let mut local = TrackerCache::new();
            for &i in group {
                if let Some(rec) = self.cache.get(&hotlist[i].url) {
                    local.insert(&hotlist[i].url, rec.clone());
                }
            }
            let mut run = RunCtx::new(web, proxy, now);
            let marks = group.iter().map(|&i| &hotlist[i]);
            let reports = self.walk(
                &mut run,
                &mut local,
                marks,
                last_visited,
                &mut AbortRule::new(None),
            );
            (reports, local)
        });

        // Deterministic merge: cache deltas in group (first-appearance)
        // order, reports back into hotlist order. Hosts own disjoint URL
        // sets, so merge order cannot change the result — ordering it
        // anyway keeps runs bit-reproducible.
        let mut ordered = Vec::with_capacity(hotlist.len());
        for (group, (reports, local)) in groups.iter().zip(outputs) {
            for (url, rec) in local.records() {
                self.cache.insert(url, rec.clone());
            }
            ordered.extend(group.iter().copied().zip(reports));
        }
        ordered.sort_unstable_by_key(|&(i, _)| i);
        let mut abort = AbortRule::new(self.flags.abort_after_consecutive_errors);
        let entries = ordered
            .into_iter()
            .map(|(_, r)| UrlReport {
                status: abort.next(|| r.status),
                ..r
            })
            .collect();
        self.finish(entries, abort.aborted, now, web, stats_before)
    }

    /// Checks `marks` in order, the one loop under both drivers. Each
    /// verdict passes through `abort`, which stops checking once the run
    /// has aborted, and under [`SchedulePolicy::Adaptive`] feeds the
    /// estimator.
    fn walk<'h>(
        &self,
        run: &mut RunCtx<'_>,
        cache: &mut TrackerCache,
        marks: impl IntoIterator<Item = &'h Bookmark>,
        last_visited: &(dyn Fn(&str) -> Option<Timestamp> + Sync),
        abort: &mut AbortRule,
    ) -> Vec<UrlReport> {
        marks
            .into_iter()
            .map(|mark| {
                let visited = last_visited(&mark.url);
                let status = abort.next(|| self.check_url(run, cache, &mark.url, visited));
                if let SchedulePolicy::Adaptive(sched) = &self.schedule {
                    // Feed the estimator every verdict backed by fresh
                    // modification info. The tracker's own cache is
                    // excluded: it carries no new evidence, and
                    // double-counting a window would bias the rate.
                    if let UrlStatus::Changed { source, .. } | UrlStatus::Unchanged { source } =
                        &status
                    {
                        if *source != CheckSource::Cache {
                            sched.record(&mark.url, status.is_changed(), run.now);
                        }
                    }
                }
                UrlReport {
                    url: mark.url.clone(),
                    title: mark.title.clone(),
                    status,
                    last_visited: visited,
                }
            })
            .collect()
    }

    /// The end of every run: observability counters for the final
    /// entries, the `w3newer.run` span, and the report.
    fn finish(
        &self,
        entries: Vec<UrlReport>,
        aborted: bool,
        started: Timestamp,
        web: &Web,
        stats_before: RetrySnapshot,
    ) -> RunReport {
        obs_record_entries(&entries);
        aide_obs::span("w3newer.run", started.0, web.clock().now_secs());
        RunReport {
            entries,
            started,
            aborted,
            net: self.stats.snapshot().since(&stats_before),
        }
    }

    /// The per-URL decision procedure. Reads configuration from `self`
    /// and mutates only `cache` (plus the per-run robots / dead-host
    /// scratch maps in `run`), so host pipelines can run it concurrently
    /// against host-local caches.
    fn check_url(
        &self,
        run: &mut RunCtx<'_>,
        cache: &mut TrackerCache,
        url: &str,
        visited: Option<Timestamp>,
    ) -> UrlStatus {
        let (web, now) = (run.web, run.now);
        let threshold = self.config.lookup(url);
        if threshold == Threshold::Never {
            return UrlStatus::NotChecked {
                reason: SkipReason::NeverThreshold,
            };
        }

        // Cached robot exclusion: "the page is not accessed again unless
        // a special flag is set".
        if !self.flags.ignore_robots {
            if let Some(rec) = cache.get(url) {
                if rec.robots_excluded {
                    return UrlStatus::RobotExcluded;
                }
            }
        }

        // Source 1: w3newer's own cache. Known modified since the last
        // view needs no network; known unchanged holds until stale.
        if let Some(rec) = cache.get(url) {
            if let Some(lm) = rec.last_modified {
                let status = verdict(lm, visited, CheckSource::Cache);
                let obtained = rec.info_obtained.unwrap_or(Timestamp::EPOCH);
                if status.is_changed() || now - obtained < self.flags.staleness {
                    return status;
                }
            }
        }

        // Gating of network checks: fixed thresholds (the paper's
        // rule) or the learned expected-gain gate.
        match &self.schedule {
            SchedulePolicy::Threshold => {
                if let Threshold::Every(d) = threshold {
                    if d > Duration::ZERO {
                        if let Some(v) = visited {
                            if now - v < d {
                                return UrlStatus::NotChecked {
                                    reason: SkipReason::RecentlyVisited,
                                };
                            }
                        }
                        if let Some(lc) = cache.get(url).and_then(|r| r.last_checked) {
                            if now - lc < d {
                                return UrlStatus::NotChecked {
                                    reason: SkipReason::CheckedRecently,
                                };
                            }
                        }
                    }
                }
            }
            SchedulePolicy::Adaptive(sched) => {
                if let Gate::Skip { .. } = sched.gate_poll(url, now) {
                    return UrlStatus::NotChecked {
                        reason: SkipReason::BelowExpectedGain,
                    };
                }
            }
        }

        // Source 2: the proxy-caching server, when current w.r.t. the
        // threshold.
        if let (Some(proxy), Threshold::Every(d)) = (run.proxy, threshold) {
            if d > Duration::ZERO {
                if let Some((Some(lm), fetched_at)) = proxy.cached_mod_info(url) {
                    if now - fetched_at < d {
                        let rec = cache.entry(url);
                        rec.last_modified = Some(lm);
                        rec.info_obtained = Some(fetched_at);
                        return verdict(lm, visited, CheckSource::ProxyCache);
                    }
                }
            }
        }

        // Source 3: the network (or local filesystem for file: URLs).
        let parsed = match Url::parse(url) {
            Ok(u) => u,
            Err(e) => {
                return self.record_failure(cache, url, format!("bad URL: {e}"), false, now);
            }
        };
        let is_file = parsed.scheme == "file";

        if !is_file
            && self.flags.skip_host_after_host_error
            && run.dead_hosts.contains(&parsed.host)
        {
            return UrlStatus::NotChecked {
                reason: SkipReason::HostError,
            };
        }

        // The robot exclusion protocol (http only). The fetch goes
        // through the retry layer so a transiently-failing robots.txt
        // does not silently downgrade to allow-all in robust mode.
        if !is_file && !self.flags.ignore_robots {
            let policy = run.robots.entry(parsed.host.clone()).or_insert_with(|| {
                let robots_url = format!("http://{}/robots.txt", host_port(&parsed));
                let req = Request::get(&robots_url).user_agent(&self.user_agent);
                match self.fetch_with_retry(web, &req, Some(&parsed.host)) {
                    Ok(resp) if resp.status == Status::Ok => RobotsTxt::parse(&resp.body),
                    _ => RobotsTxt::allow_all(),
                }
            });
            if !policy.allows(&self.user_agent, &parsed.path) {
                cache.entry(url).robots_excluded = true;
                return UrlStatus::RobotExcluded;
            }
        }

        let breaker_host = if is_file {
            None
        } else {
            Some(parsed.host.as_str())
        };
        let head = self.fetch_with_retry(
            web,
            &Request::head(url).user_agent(&self.user_agent),
            breaker_host,
        );
        let resp = match head {
            Err(fail) => {
                if let Some(e) = fail.net_error() {
                    if e.is_host_error() && !is_file {
                        run.dead_hosts.insert(parsed.host.clone());
                    }
                }
                return self.fail_url(cache, url, &fail, false, now);
            }
            Ok(resp) => resp,
        };
        match resp.status {
            Status::Ok => {}
            Status::MovedPermanently => {
                let to = resp.location.as_deref().unwrap_or("(unknown)");
                return self.record_failure(cache, url, format!("moved to {to}"), false, now);
            }
            other => {
                return self.record_failure(cache, url, format!("HTTP {other}"), false, now);
            }
        }

        let source = if is_file {
            CheckSource::FileStat
        } else {
            CheckSource::Head
        };
        {
            let rec = cache.entry(url);
            rec.last_checked = Some(now);
            rec.error_count = 0;
            rec.degraded_count = 0;
            rec.last_error = None;
        }

        if let Some(lm) = resp.last_modified {
            let rec = cache.entry(url);
            rec.last_modified = Some(lm);
            rec.info_obtained = Some(now);
            return verdict(lm, visited, source);
        }

        // No Last-Modified (CGI output): GET + checksum.
        let get = match self.fetch_with_retry(
            web,
            &Request::get(url).user_agent(&self.user_agent),
            breaker_host,
        ) {
            Err(fail) => return self.fail_url(cache, url, &fail, true, now),
            Ok(r) => r,
        };
        if get.status != Status::Ok {
            let message = format!("HTTP {} on GET", get.status);
            return self.record_failure(cache, url, message, false, now);
        }
        let checksum = PageChecksum::of(get.body.as_bytes());
        let rec = cache.entry(url);
        let prior = rec.checksum.replace(checksum);
        rec.info_obtained = Some(now);
        match prior {
            Some(p) if p != checksum => UrlStatus::Changed {
                modified: None,
                source: CheckSource::GetChecksum,
            },
            Some(_) => UrlStatus::Unchanged {
                source: CheckSource::GetChecksum,
            },
            // First observation establishes the baseline.
            None => UrlStatus::Unchanged {
                source: CheckSource::GetChecksum,
            },
        }
    }

    /// Records a failed check in `url`'s cache record and returns its
    /// status. A plain failure is an [`UrlStatus::Error`], a verdict
    /// about the URL. A `degraded` one is graceful degradation: retries
    /// exhausted (or circuit open) on a *transient* failure, so the entry
    /// keeps its cached knowledge and is reported stale rather than
    /// errored — "the check didn't complete" is a different fact from
    /// "the URL is broken".
    fn record_failure(
        &self,
        cache: &mut TrackerCache,
        url: &str,
        message: String,
        degraded: bool,
        now: Timestamp,
    ) -> UrlStatus {
        let rec = cache.entry(url);
        rec.last_error = Some(message.clone());
        if self.flags.errors_count_as_checked {
            // "So that a URL with some problem will be checked with the
            // same frequency as an accessible one."
            rec.last_checked = Some(now);
        }
        if degraded {
            self.stats.degraded.add(1);
            rec.degraded_count += 1;
            UrlStatus::Degraded {
                message,
                last_known_modified: rec.last_modified,
            }
        } else {
            rec.error_count += 1;
            UrlStatus::Error { message }
        }
    }

    /// Routes a fetch failure: transient failures degrade in robust
    /// mode, everything else records a plain error with the same message
    /// the pre-robustness tracker produced.
    fn fail_url(
        &self,
        cache: &mut TrackerCache,
        url: &str,
        fail: &FetchFailure,
        on_get: bool,
        now: Timestamp,
    ) -> UrlStatus {
        let degraded = self.robust() && fail.is_degradable();
        self.record_failure(cache, url, failure_message(fail, on_get), degraded, now)
    }

    /// Issues `req` with retry, backoff and breaker admission according
    /// to `self.retry` / `self.breaker`. With both at their defaults this
    /// is exactly one `web.request` and zero bookkeeping.
    ///
    /// Backoff sleeps *advance the virtual clock* — the simulation's
    /// stand-in for blocking — and honour `Retry-After` as a delay
    /// floor. `host` is the breaker key; `None` (file: URLs) bypasses
    /// admission control.
    fn fetch_with_retry(
        &self,
        web: &Web,
        req: &Request,
        host: Option<&str>,
    ) -> Result<Response, FetchFailure> {
        let robust = self.robust();
        let note = |cell: &aide_obs::CounterCell| {
            if robust {
                cell.add(1);
            }
        };
        let clock = web.clock();
        let mut slept = Duration::ZERO;
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            if let (Some(b), Some(h)) = (&self.breaker, host) {
                if b.admit(h, clock.now()) == Admission::Denied {
                    note(&self.stats.breaker_denied);
                    return Err(FetchFailure::CircuitOpen {
                        host: h.to_string(),
                    });
                }
            }
            note(&self.stats.attempts);
            let failure = match web.request(req) {
                Ok(resp) => {
                    if resp.is_transient_failure() {
                        note(&self.stats.http_failures);
                        TransientFailure::Http {
                            status: resp.status,
                            retry_after: resp.retry_after,
                        }
                    } else if req.method == Method::Get
                        && resp.status == Status::Ok
                        && resp.body.len() < resp.content_length
                    {
                        // A body shorter than Content-Length advertises is
                        // a corrupted transfer: checksumming it would
                        // manufacture a phantom "change".
                        note(&self.stats.truncated);
                        TransientFailure::Truncated {
                            expected: resp.content_length,
                            got: resp.body.len(),
                        }
                    } else {
                        if let (Some(b), Some(h)) = (&self.breaker, host) {
                            b.record_success(h);
                        }
                        if robust && attempt > 1 {
                            self.stats.recovered.add(1);
                        }
                        return Ok(resp);
                    }
                }
                Err(e) => {
                    note(&self.stats.net_failures);
                    if !retryable_net_error(&e) {
                        if let (Some(b), Some(h)) = (&self.breaker, host) {
                            b.record_failure(h, clock.now());
                        }
                        return Err(FetchFailure::Terminal(e));
                    }
                    TransientFailure::Net(e)
                }
            };
            if let (Some(b), Some(h)) = (&self.breaker, host) {
                b.record_failure(h, clock.now());
            }
            if attempt >= self.retry.max_attempts {
                if robust && self.retry.enabled() {
                    self.stats.exhausted.add(1);
                }
                return Err(FetchFailure::Exhausted(failure));
            }
            let mut delay = self.retry.delay_for(&req.url, attempt);
            if let TransientFailure::Http {
                retry_after: Some(secs),
                ..
            } = failure
            {
                delay = delay.max(Duration::seconds(secs));
            }
            if slept + delay > self.retry.budget {
                self.stats.exhausted.add(1);
                return Err(FetchFailure::Exhausted(failure));
            }
            // `delay` is computed from seeded jitter (plus any
            // Retry-After floor), so this histogram is deterministic
            // even when workers interleave.
            aide_obs::observe!("w3newer.retry.backoff_secs", delay.as_secs());
            clock.advance(delay);
            slept = slept + delay;
            self.stats.retries.add(1);
            self.stats.slept_secs.add(delay.as_secs());
        }
    }
}

/// The per-run part of a check: the network, the run's clock reading,
/// and the robots.txt and dead-host caches. The serial driver has one;
/// each host group of a pooled run has its own.
struct RunCtx<'a> {
    web: &'a Web,
    proxy: Option<&'a ProxyCache>,
    now: Timestamp,
    robots: HashMap<String, RobotsTxt>,
    dead_hosts: HashSet<String>,
}

impl<'a> RunCtx<'a> {
    fn new(web: &'a Web, proxy: Option<&'a ProxyCache>, now: Timestamp) -> RunCtx<'a> {
        RunCtx {
            web,
            proxy,
            now,
            robots: HashMap::new(),
            dead_hosts: HashSet::new(),
        }
    }
}

/// The consecutive-error abort rule ("w3newer should therefore be able
/// to detect cases when it should abort and try again later"), fed the
/// verdicts in hotlist order.
struct AbortRule {
    limit: Option<u32>,
    consecutive_errors: u32,
    aborted: bool,
}

impl AbortRule {
    /// A rule that aborts after `limit` consecutive errors (`None`:
    /// never).
    fn new(limit: Option<u32>) -> AbortRule {
        AbortRule {
            limit,
            consecutive_errors: 0,
            aborted: false,
        }
    }

    /// The next entry's status: `check`'s verdict, or
    /// [`SkipReason::RunAborted`] without calling `check` once the run
    /// has aborted. Errors count toward the limit, skips leave the count
    /// alone, and any other verdict resets it.
    fn next(&mut self, check: impl FnOnce() -> UrlStatus) -> UrlStatus {
        if self.aborted {
            return UrlStatus::NotChecked {
                reason: SkipReason::RunAborted,
            };
        }
        let status = check();
        match &status {
            UrlStatus::Error { .. } => {
                self.consecutive_errors += 1;
                self.aborted = self.limit.is_some_and(|l| self.consecutive_errors >= l);
            }
            UrlStatus::NotChecked { .. } => {}
            _ => self.consecutive_errors = 0,
        }
        status
    }
}

/// Maps a finished run's entries onto `w3newer.url.*` /
/// `w3newer.source.*` / `w3newer.skip.*` observability counters.
///
/// Counting the *final* entries — after the consecutive-error abort
/// post-process — rather than instrumenting each `check_url` return
/// keeps serial and pooled runs in exact agreement: the pool checks
/// URLs past an abort point that the serial tracker never reaches, but
/// both report them as `RunAborted`.
fn obs_record_entries(entries: &[UrlReport]) {
    if !aide_obs::enabled() {
        return;
    }
    for e in entries {
        match &e.status {
            UrlStatus::Changed { source, .. } => {
                aide_obs::counter!("w3newer.url.changed", 1);
                obs_record_source(*source);
            }
            UrlStatus::Unchanged { source } => {
                aide_obs::counter!("w3newer.url.unchanged", 1);
                obs_record_source(*source);
            }
            UrlStatus::NotChecked { reason } => {
                aide_obs::counter!("w3newer.url.not_checked", 1);
                obs_record_skip(*reason);
            }
            UrlStatus::RobotExcluded => aide_obs::counter!("w3newer.url.robot_excluded", 1),
            UrlStatus::Error { .. } => aide_obs::counter!("w3newer.url.error", 1),
            UrlStatus::Degraded { .. } => aide_obs::counter!("w3newer.url.degraded", 1),
        }
    }
}

/// Counts how a verdict was reached (§3's decision ladder).
fn obs_record_source(source: CheckSource) {
    match source {
        CheckSource::Cache => aide_obs::counter!("w3newer.source.cache", 1),
        CheckSource::ProxyCache => aide_obs::counter!("w3newer.source.proxy_cache", 1),
        CheckSource::Head => aide_obs::counter!("w3newer.source.head", 1),
        CheckSource::GetChecksum => aide_obs::counter!("w3newer.source.get_checksum", 1),
        CheckSource::FileStat => aide_obs::counter!("w3newer.source.file_stat", 1),
    }
}

/// Counts why a URL was skipped without network traffic.
fn obs_record_skip(reason: SkipReason) {
    match reason {
        SkipReason::NeverThreshold => aide_obs::counter!("w3newer.skip.never_threshold", 1),
        SkipReason::RecentlyVisited => aide_obs::counter!("w3newer.skip.recently_visited", 1),
        SkipReason::CheckedRecently => aide_obs::counter!("w3newer.skip.checked_recently", 1),
        SkipReason::HostError => aide_obs::counter!("w3newer.skip.host_error", 1),
        SkipReason::RunAborted => aide_obs::counter!("w3newer.skip.run_aborted", 1),
        SkipReason::BelowExpectedGain => {
            aide_obs::counter!("w3newer.skip.below_expected_gain", 1)
        }
    }
}

/// The report/cache message for a failed fetch — chosen to be
/// byte-identical to the pre-robustness tracker's messages when the
/// robustness layer is off. `on_get` appends the " on GET" context the
/// checksum path always used.
fn failure_message(fail: &FetchFailure, on_get: bool) -> String {
    match fail {
        FetchFailure::Terminal(e) => e.to_string(),
        FetchFailure::Exhausted(TransientFailure::Http { status, .. }) if on_get => {
            format!("HTTP {status} on GET")
        }
        FetchFailure::Exhausted(f) => f.message(),
        FetchFailure::CircuitOpen { host } => format!("circuit open: {host}"),
    }
}

/// The verdict for a page last modified at `modified`: changed if that
/// is after the user's last view. Never-viewed pages count as changed —
/// they are new to the user.
fn verdict(modified: Timestamp, visited: Option<Timestamp>, source: CheckSource) -> UrlStatus {
    if visited.is_none_or(|v| modified > v) {
        UrlStatus::Changed {
            modified: Some(modified),
            source,
        }
    } else {
        UrlStatus::Unchanged { source }
    }
}

fn host_port(u: &Url) -> String {
    match u.port {
        Some(p) => format!("{}:{p}", u.host),
        None => u.host.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_simweb::resource::Resource;
    use aide_util::time::Clock;

    fn mark(url: &str) -> Bookmark {
        Bookmark {
            title: format!("title of {url}"),
            url: url.to_string(),
        }
    }

    fn setup() -> (Clock, Web) {
        let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 10, 1, 9, 0, 0));
        let web = Web::new(clock.clone());
        (clock, web)
    }

    fn no_history(_: &str) -> Option<Timestamp> {
        None
    }

    #[test]
    fn unseen_modified_page_is_changed() {
        let (clock, web) = setup();
        web.set_page("http://h/p", "body", clock.now() - Duration::days(5))
            .unwrap();
        let mut w = W3Newer::new(ThresholdConfig::default());
        let r = w.run(&[mark("http://h/p")], &no_history, &web, None);
        assert!(matches!(
            &r.entries[0].status,
            UrlStatus::Changed {
                source: CheckSource::Head,
                ..
            }
        ));
    }

    #[test]
    fn page_seen_after_modification_is_unchanged() {
        let (clock, web) = setup();
        let modified = clock.now() - Duration::days(5);
        web.set_page("http://h/p", "body", modified).unwrap();
        let visited = clock.now() - Duration::days(1);
        let mut w = W3Newer::new(ThresholdConfig::default());
        let r = w.run(&[mark("http://h/p")], &move |_| Some(visited), &web, None);
        assert!(matches!(&r.entries[0].status, UrlStatus::Unchanged { .. }));
    }

    #[test]
    fn cached_changed_verdict_needs_no_network() {
        let (clock, web) = setup();
        web.set_page("http://h/p", "body", clock.now() - Duration::days(1))
            .unwrap();
        let mut w = W3Newer::new(ThresholdConfig::default());
        // First run does the HEAD and caches the date.
        w.run(&[mark("http://h/p")], &no_history, &web, None);
        let before = web.stats().requests;
        // Second run: the cache already knows it changed vs. never-seen.
        let r = w.run(&[mark("http://h/p")], &no_history, &web, None);
        assert!(matches!(
            &r.entries[0].status,
            UrlStatus::Changed {
                source: CheckSource::Cache,
                ..
            }
        ));
        assert_eq!(web.stats().requests, before, "no network traffic");
    }

    #[test]
    fn fresh_unchanged_knowledge_is_trusted_until_stale() {
        let (clock, web) = setup();
        let modified = clock.now() - Duration::days(30);
        web.set_page("http://h/p", "body", modified).unwrap();
        let visited = clock.now() - Duration::days(2);
        let history = move |_: &str| Some(visited);
        let mut w = W3Newer::new(ThresholdConfig::default());
        w.run(&[mark("http://h/p")], &history, &web, None);
        let before = web.stats().requests;
        // Within staleness (7d default): cache answers.
        clock.advance(Duration::days(3));
        let r = w.run(&[mark("http://h/p")], &history, &web, None);
        assert!(matches!(
            &r.entries[0].status,
            UrlStatus::Unchanged {
                source: CheckSource::Cache
            }
        ));
        assert_eq!(web.stats().requests, before);
        // Past staleness: w3newer re-verifies over the network.
        clock.advance(Duration::days(5));
        let r = w.run(&[mark("http://h/p")], &history, &web, None);
        assert!(matches!(
            &r.entries[0].status,
            UrlStatus::Unchanged {
                source: CheckSource::Head
            }
        ));
        assert!(web.stats().requests > before);
    }

    #[test]
    fn never_threshold_skips() {
        let (clock, web) = setup();
        web.set_page(
            "http://www.unitedmedia.com/comics/dilbert/",
            "strip",
            clock.now(),
        )
        .unwrap();
        let mut w = W3Newer::new(crate::config::table1());
        let r = w.run(
            &[mark("http://www.unitedmedia.com/comics/dilbert/")],
            &no_history,
            &web,
            None,
        );
        assert_eq!(
            r.entries[0].status,
            UrlStatus::NotChecked {
                reason: SkipReason::NeverThreshold
            }
        );
        assert_eq!(web.stats().requests, 0);
    }

    #[test]
    fn recently_visited_skips_within_threshold() {
        let (clock, web) = setup();
        web.set_page(
            "http://other.com/x",
            "body",
            clock.now() - Duration::days(9),
        )
        .unwrap();
        // Table 1 default is 2d; user visited yesterday.
        let visited = clock.now() - Duration::days(1);
        let mut w = W3Newer::new(crate::config::table1());
        let r = w.run(
            &[mark("http://other.com/x")],
            &move |_| Some(visited),
            &web,
            None,
        );
        assert_eq!(
            r.entries[0].status,
            UrlStatus::NotChecked {
                reason: SkipReason::RecentlyVisited
            }
        );
        assert_eq!(web.stats().requests, 0);
    }

    #[test]
    fn checked_recently_skips_within_threshold() {
        let (clock, web) = setup();
        web.set_page(
            "http://other.com/x",
            "body",
            clock.now() - Duration::days(30),
        )
        .unwrap();
        let visited = clock.now() - Duration::days(20);
        let history = move |_: &str| Some(visited);
        let mut w = W3Newer::new(crate::config::table1());
        w.flags.staleness = Duration::ZERO; // Force the cache to be distrusted.
        w.run(&[mark("http://other.com/x")], &history, &web, None);
        let before = web.stats().requests;
        clock.advance(Duration::hours(12)); // Under the 2d default threshold.
        let r = w.run(&[mark("http://other.com/x")], &history, &web, None);
        assert_eq!(
            r.entries[0].status,
            UrlStatus::NotChecked {
                reason: SkipReason::CheckedRecently
            }
        );
        assert_eq!(web.stats().requests, before);
    }

    #[test]
    fn proxy_cache_answers_without_origin_traffic() {
        let (clock, web) = setup();
        let modified = clock.now() - Duration::days(1);
        web.set_page("http://h/p", "body", modified).unwrap();
        let proxy = ProxyCache::new(web.clone(), Duration::days(3));
        proxy.get("http://h/p").unwrap(); // Someone browsed it through the proxy.
        clock.advance(Duration::hours(1));
        let origin_before = web.server_stats("h").unwrap().total();
        let mut w = W3Newer::new(crate::config::table1()); // default 2d
        let r = w.run(&[mark("http://h/p")], &no_history, &web, Some(&proxy));
        assert!(matches!(
            &r.entries[0].status,
            UrlStatus::Changed {
                source: CheckSource::ProxyCache,
                ..
            }
        ));
        assert_eq!(web.server_stats("h").unwrap().total(), origin_before);
    }

    #[test]
    fn cgi_pages_use_checksum() {
        let (_, web) = setup();
        web.set_resource(
            "http://h/cgi-bin/q",
            Resource::Cgi {
                template: "stable result".to_string(),
                hits: 0,
            },
        )
        .unwrap();
        let mut w = W3Newer::new(ThresholdConfig::default());
        w.flags.staleness = Duration::ZERO;
        // First run: baseline.
        let r = w.run(&[mark("http://h/cgi-bin/q")], &no_history, &web, None);
        assert!(matches!(
            &r.entries[0].status,
            UrlStatus::Unchanged {
                source: CheckSource::GetChecksum
            }
        ));
        // Content unchanged: still unchanged.
        let r = w.run(&[mark("http://h/cgi-bin/q")], &no_history, &web, None);
        assert!(matches!(&r.entries[0].status, UrlStatus::Unchanged { .. }));
        // Content changes: checksum detects it.
        web.set_resource(
            "http://h/cgi-bin/q",
            Resource::Cgi {
                template: "different result".to_string(),
                hits: 0,
            },
        )
        .unwrap();
        let r = w.run(&[mark("http://h/cgi-bin/q")], &no_history, &web, None);
        assert!(matches!(
            &r.entries[0].status,
            UrlStatus::Changed {
                modified: None,
                source: CheckSource::GetChecksum
            }
        ));
    }

    #[test]
    fn noisy_counter_page_always_changes() {
        // §3.1's junk-mail problem, reproduced.
        let (_, web) = setup();
        web.set_resource("http://h/counter", Resource::hit_counter("visits: {HITS}"))
            .unwrap();
        let mut w = W3Newer::new(ThresholdConfig::default());
        w.flags.staleness = Duration::ZERO;
        w.run(&[mark("http://h/counter")], &no_history, &web, None);
        for _ in 0..3 {
            let r = w.run(&[mark("http://h/counter")], &no_history, &web, None);
            assert!(
                r.entries[0].status.is_changed(),
                "noisy page flagged every run"
            );
        }
    }

    #[test]
    fn robots_exclusion_honoured_and_cached() {
        let (clock, web) = setup();
        web.set_page("http://h/private/p", "body", clock.now())
            .unwrap();
        web.set_robots_txt("h", "User-agent: *\nDisallow: /private/\n");
        let mut w = W3Newer::new(ThresholdConfig::default());
        let r = w.run(&[mark("http://h/private/p")], &no_history, &web, None);
        assert_eq!(r.entries[0].status, UrlStatus::RobotExcluded);
        // Second run: exclusion is cached — not even robots.txt is fetched.
        let before = web.stats().requests;
        let r = w.run(&[mark("http://h/private/p")], &no_history, &web, None);
        assert_eq!(r.entries[0].status, UrlStatus::RobotExcluded);
        assert_eq!(web.stats().requests, before);
    }

    #[test]
    fn ignore_robots_flag_overrides() {
        let (clock, web) = setup();
        web.set_page(
            "http://h/private/p",
            "body",
            clock.now() - Duration::days(1),
        )
        .unwrap();
        web.set_robots_txt("h", "User-agent: *\nDisallow: /private/\n");
        let mut w = W3Newer::new(ThresholdConfig::default());
        w.run(&[mark("http://h/private/p")], &no_history, &web, None); // caches exclusion
        w.flags.ignore_robots = true;
        let r = w.run(&[mark("http://h/private/p")], &no_history, &web, None);
        assert!(
            r.entries[0].status.is_changed(),
            "{:?}",
            r.entries[0].status
        );
    }

    #[test]
    fn errors_reported_and_counted() {
        let (_, web) = setup();
        web.add_server("h");
        let mut w = W3Newer::new(ThresholdConfig::default());
        let r = w.run(&[mark("http://h/missing")], &no_history, &web, None);
        assert!(
            matches!(&r.entries[0].status, UrlStatus::Error { message } if message.contains("404"))
        );
        w.run(&[mark("http://h/missing")], &no_history, &web, None);
        assert_eq!(w.cache.get("http://h/missing").unwrap().error_count, 2);
    }

    #[test]
    fn moved_url_reports_location() {
        let (_, web) = setup();
        web.set_resource(
            "http://h/old",
            Resource::Moved {
                location: "http://h/new".into(),
            },
        )
        .unwrap();
        let mut w = W3Newer::new(ThresholdConfig::default());
        let r = w.run(&[mark("http://h/old")], &no_history, &web, None);
        assert!(
            matches!(&r.entries[0].status, UrlStatus::Error { message } if message.contains("http://h/new"))
        );
    }

    #[test]
    fn errors_count_as_checked_flag() {
        let (clock, web) = setup();
        web.add_server("h");
        let mut w = W3Newer::new(crate::config::table1()); // 2d default
        w.flags.errors_count_as_checked = true;
        w.run(&[mark("http://h/missing")], &no_history, &web, None);
        clock.advance(Duration::hours(6));
        let r = w.run(&[mark("http://h/missing")], &no_history, &web, None);
        assert_eq!(
            r.entries[0].status,
            UrlStatus::NotChecked {
                reason: SkipReason::CheckedRecently
            },
            "failed URL polled at the same frequency as a working one"
        );
    }

    #[test]
    fn host_error_skips_rest_of_host() {
        let (_, web) = setup();
        web.set_network_up(true);
        // Host "dead" never registered: unknown host error.
        let mut w = W3Newer::new(ThresholdConfig::default());
        w.flags.skip_host_after_host_error = true;
        let r = w.run(
            &[
                mark("http://dead/a"),
                mark("http://dead/b"),
                mark("http://dead/c"),
            ],
            &no_history,
            &web,
            None,
        );
        assert!(matches!(&r.entries[0].status, UrlStatus::Error { .. }));
        assert_eq!(
            r.entries[1].status,
            UrlStatus::NotChecked {
                reason: SkipReason::HostError
            }
        );
        assert_eq!(
            r.entries[2].status,
            UrlStatus::NotChecked {
                reason: SkipReason::HostError
            }
        );
    }

    #[test]
    fn run_aborts_after_consecutive_failures() {
        let (_, web) = setup();
        web.set_network_up(false);
        let mut w = W3Newer::new(ThresholdConfig::default());
        w.flags.abort_after_consecutive_errors = Some(3);
        let hotlist: Vec<Bookmark> = (0..6).map(|i| mark(&format!("http://h{i}/p"))).collect();
        let r = w.run(&hotlist, &no_history, &web, None);
        assert!(r.aborted);
        let errors = r
            .entries
            .iter()
            .filter(|e| matches!(e.status, UrlStatus::Error { .. }))
            .count();
        let skipped = r
            .entries
            .iter()
            .filter(|e| {
                e.status
                    == UrlStatus::NotChecked {
                        reason: SkipReason::RunAborted,
                    }
            })
            .count();
        assert_eq!(errors, 3);
        assert_eq!(skipped, 3);
    }

    #[test]
    fn file_urls_are_cheap_stats() {
        let (clock, web) = setup();
        web.write_local_file(
            "/home/me/notes.html",
            "text",
            clock.now() - Duration::hours(1),
        );
        let mut w = W3Newer::new(crate::config::table1()); // file:.* → 0 (always)
        let r = w.run(&[mark("file:/home/me/notes.html")], &no_history, &web, None);
        assert!(matches!(
            &r.entries[0].status,
            UrlStatus::Changed {
                source: CheckSource::FileStat,
                ..
            }
        ));
        assert_eq!(web.stats().requests, 0, "no network traffic for file:");
    }

    #[test]
    fn zero_threshold_checks_every_run() {
        let (clock, web) = setup();
        web.set_page(
            "http://www.research.att.com/x",
            "b",
            clock.now() - Duration::days(1),
        )
        .unwrap();
        let visited = clock.now() - Duration::hours(1);
        let history = move |_: &str| Some(visited);
        let mut w = W3Newer::new(crate::config::table1()); // att.com → 0
        w.flags.staleness = Duration::ZERO;
        w.run(
            &[mark("http://www.research.att.com/x")],
            &history,
            &web,
            None,
        );
        let before = web.stats().heads;
        w.run(
            &[mark("http://www.research.att.com/x")],
            &history,
            &web,
            None,
        );
        assert!(
            web.stats().heads > before,
            "0 threshold ignores recent visit"
        );
    }

    /// A workload spanning many hosts and every verdict class: normal
    /// changed/unchanged pages, a CGI checksum page, a robots-excluded
    /// path, a 404, a moved page, and a dead host.
    fn mixed_world() -> (Clock, Web, Vec<Bookmark>) {
        let (clock, web) = setup();
        let mut hotlist = Vec::new();
        for h in 0..6 {
            for p in 0..4 {
                let url = format!("http://host{h}.example.com/page{p}.html");
                web.set_page(
                    &url,
                    &format!("body {h}/{p}"),
                    clock.now() - Duration::days(p + 1),
                )
                .unwrap();
                hotlist.push(mark(&url));
            }
        }
        web.set_resource(
            "http://host0.example.com/cgi-bin/q",
            Resource::Cgi {
                template: "cgi output".to_string(),
                hits: 0,
            },
        )
        .unwrap();
        hotlist.push(mark("http://host0.example.com/cgi-bin/q"));
        web.set_page("http://host1.example.com/private/p", "secret", clock.now())
            .unwrap();
        web.set_robots_txt("host1.example.com", "User-agent: *\nDisallow: /private/\n");
        hotlist.push(mark("http://host1.example.com/private/p"));
        hotlist.push(mark("http://host2.example.com/missing.html"));
        web.set_resource(
            "http://host3.example.com/old",
            Resource::Moved {
                location: "http://host3.example.com/new".into(),
            },
        )
        .unwrap();
        hotlist.push(mark("http://host3.example.com/old"));
        hotlist.push(mark("http://unregistered-host.example.com/x"));
        (clock, web, hotlist)
    }

    #[test]
    fn pooled_report_byte_identical_to_serial() {
        use crate::report::{render_report, ReportOptions};
        let (clock, web, hotlist) = mixed_world();
        let visited = clock.now() - Duration::days(2);
        let history = move |url: &str| {
            // Half the pages were visited recently, half never.
            if url.ends_with("2.html") || url.ends_with("3.html") {
                Some(visited)
            } else {
                None
            }
        };

        let mut serial = W3Newer::new(ThresholdConfig::default());
        serial.flags.skip_host_after_host_error = true;
        let mut pooled = serial.clone();

        let reference = serial.run_serial(&hotlist, &history, &web, None);
        let parallel = pooled.run_pooled(&hotlist, &history, &web, None, 4);
        assert_eq!(parallel, reference, "reports structurally identical");
        let opts = ReportOptions::default();
        assert_eq!(
            render_report(&parallel, &opts),
            render_report(&reference, &opts),
            "rendered reports byte-identical"
        );
        assert_eq!(
            pooled.cache, serial.cache,
            "caches converge on a non-aborted run"
        );

        // Second pass (now with warm caches) must agree too.
        clock.advance(Duration::days(10));
        let reference = serial.run_serial(&hotlist, &history, &web, None);
        let parallel = pooled.run_pooled(&hotlist, &history, &web, None, 8);
        assert_eq!(parallel, reference);
        assert_eq!(pooled.cache, serial.cache);
    }

    #[test]
    fn pooled_abort_report_matches_serial() {
        let (_, web, _) = mixed_world();
        web.set_network_up(false);
        let hotlist: Vec<Bookmark> = (0..9)
            .map(|i| mark(&format!("http://down{i}.example.com/p")))
            .collect();
        let mut serial = W3Newer::new(ThresholdConfig::default());
        serial.flags.abort_after_consecutive_errors = Some(4);
        let mut pooled = serial.clone();
        let reference = serial.run_serial(&hotlist, &no_history, &web, None);
        let parallel = pooled.run_pooled(&hotlist, &no_history, &web, None, 4);
        assert!(reference.aborted);
        assert_eq!(
            parallel, reference,
            "abort rule replays identically on ordered results"
        );
    }

    #[test]
    fn pooled_single_host_stays_serial() {
        let (clock, web) = setup();
        web.set_page("http://h/a", "x", clock.now() - Duration::days(1))
            .unwrap();
        web.set_page("http://h/b", "y", clock.now() - Duration::days(1))
            .unwrap();
        let mut w = W3Newer::new(ThresholdConfig::default());
        let r = w.run_pooled(
            &[mark("http://h/a"), mark("http://h/b")],
            &no_history,
            &web,
            None,
            8,
        );
        assert_eq!(r.changed_count(), 2);
    }

    #[test]
    fn retry_recovers_from_windowed_outage() {
        use aide_simweb::fault::{FaultEpisode, FaultKind, FaultPlan};
        let (clock, web) = setup();
        web.set_page("http://h/p", "body", clock.now() - Duration::days(2))
            .unwrap();
        // Every request times out for the next 6 virtual seconds; the
        // backoff sleeps carry the retry loop past the window.
        let now = clock.now();
        web.install_fault_plan(FaultPlan::new(1).for_host(
            "h",
            FaultEpisode::rate(1.0, FaultKind::Timeout).between(now, now + Duration::seconds(6)),
        ));
        let mut w = W3Newer::new(ThresholdConfig::default());
        w.retry = crate::retry::RetryPolicy::standard(42);
        let r = w.run_serial(&[mark("http://h/p")], &no_history, &web, None);
        assert!(
            r.entries[0].status.is_changed(),
            "recovered after the outage window: {:?}",
            r.entries[0].status
        );
        assert!(r.net.retries > 0, "at least one retry happened");
        assert!(r.net.recovered > 0);
        assert_eq!(r.net.exhausted, 0);
    }

    #[test]
    fn exhausted_retries_degrade_to_stale_not_error() {
        use aide_simweb::fault::{FaultEpisode, FaultKind, FaultPlan};
        let (clock, web) = setup();
        let modified = clock.now() - Duration::days(2);
        web.set_page("http://h/p", "body", modified).unwrap();
        // Seen after modification, so the cache's verdict is "unchanged"
        // — which staleness 0 refuses to trust, forcing a network check.
        let visited = clock.now() - Duration::days(1);
        let history = move |_: &str| Some(visited);
        let mut w = W3Newer::new(ThresholdConfig::default());
        w.retry = crate::retry::RetryPolicy::standard(7);
        w.flags.staleness = Duration::ZERO;
        // Clean first run caches the modification date.
        w.run_serial(&[mark("http://h/p")], &history, &web, None);
        // Then the host goes permanently flaky.
        web.install_fault_plan(
            FaultPlan::new(2).for_host("h", FaultEpisode::rate(1.0, FaultKind::Timeout)),
        );
        let r = w.run_serial(&[mark("http://h/p")], &history, &web, None);
        match &r.entries[0].status {
            UrlStatus::Degraded {
                message,
                last_known_modified,
            } => {
                assert_eq!(message, "timeout");
                assert_eq!(*last_known_modified, Some(modified), "stale fallback kept");
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert!(r.net.exhausted > 0);
        assert_eq!(r.net.degraded, 1);
        assert_eq!(w.cache.get("http://h/p").unwrap().degraded_count, 1);
        // The cached modification date survived the failed check.
        assert_eq!(
            w.cache.get("http://h/p").unwrap().last_modified,
            Some(modified)
        );
    }

    #[test]
    fn transient_faults_never_fabricate_changes() {
        use aide_simweb::fault::{FaultEpisode, FaultKind, FaultPlan};
        use aide_simweb::http::Status;
        let (clock, web) = setup();
        let modified = clock.now() - Duration::days(5);
        web.set_page("http://h/p", "body", modified).unwrap();
        let visited = clock.now() - Duration::days(1); // seen after modification
        web.install_fault_plan(FaultPlan::new(3).for_host(
            "h",
            FaultEpisode::rate(
                1.0,
                FaultKind::Transient {
                    status: Status::ServiceUnavailable,
                    retry_after_secs: Some(30),
                },
            ),
        ));
        let mut w = W3Newer::new(ThresholdConfig::default());
        w.retry = crate::retry::RetryPolicy::standard(9);
        let r = w.run_serial(&[mark("http://h/p")], &move |_| Some(visited), &web, None);
        assert!(
            !r.entries[0].status.is_changed(),
            "a 503 storm must not read as a content change: {:?}",
            r.entries[0].status
        );
        assert!(matches!(&r.entries[0].status, UrlStatus::Degraded { .. }));
        assert!(r.net.http_failures > 0);
        // Retry-After (30s) floors the backoff: at least one 30s sleep
        // per retry.
        assert!(r.net.slept_secs >= 30 * r.net.retries.min(1));
    }

    #[test]
    fn truncated_body_never_corrupts_the_checksum_baseline() {
        use aide_simweb::fault::{FaultEpisode, FaultKind, FaultPlan};
        let (_, web) = setup();
        web.set_resource(
            "http://h/cgi-bin/q",
            Resource::Cgi {
                template: "a perfectly stable twenty-byte-plus output".to_string(),
                hits: 0,
            },
        )
        .unwrap();
        let mut w = W3Newer::new(ThresholdConfig::default());
        w.flags.staleness = Duration::ZERO;
        // Clean baseline.
        w.run_serial(&[mark("http://h/cgi-bin/q")], &no_history, &web, None);
        // Bodies now come back cut off mid-transfer.
        web.install_fault_plan(FaultPlan::new(4).for_host(
            "h",
            FaultEpisode::rate(1.0, FaultKind::Truncate { keep_bytes: 5 }),
        ));
        w.retry = crate::retry::RetryPolicy::standard(11);
        let r = w.run_serial(&[mark("http://h/cgi-bin/q")], &no_history, &web, None);
        assert!(
            !r.entries[0].status.is_changed(),
            "truncated transfer must not look like a change: {:?}",
            r.entries[0].status
        );
        assert!(r.net.truncated > 0);
        // The healthy checksum baseline survived.
        web.clear_fault_plan();
        let r = w.run_serial(&[mark("http://h/cgi-bin/q")], &no_history, &web, None);
        assert!(
            matches!(
                &r.entries[0].status,
                UrlStatus::Unchanged {
                    source: CheckSource::GetChecksum
                }
            ),
            "baseline intact after the fault clears: {:?}",
            r.entries[0].status
        );
    }

    #[test]
    fn truncation_detected_even_without_retries() {
        use aide_simweb::fault::{FaultEpisode, FaultKind, FaultPlan};
        let (_, web) = setup();
        web.set_resource(
            "http://h/cgi-bin/q",
            Resource::Cgi {
                template: "a perfectly stable twenty-byte-plus output".to_string(),
                hits: 0,
            },
        )
        .unwrap();
        let mut w = W3Newer::new(ThresholdConfig::default());
        w.flags.staleness = Duration::ZERO;
        w.run_serial(&[mark("http://h/cgi-bin/q")], &no_history, &web, None);
        web.install_fault_plan(FaultPlan::new(4).for_host(
            "h",
            FaultEpisode::rate(1.0, FaultKind::Truncate { keep_bytes: 5 }),
        ));
        // Robustness off: the corrupt transfer surfaces as an error, not
        // a phantom change.
        let r = w.run_serial(&[mark("http://h/cgi-bin/q")], &no_history, &web, None);
        assert!(
            matches!(&r.entries[0].status, UrlStatus::Error { message } if message.starts_with("truncated body")),
            "got {:?}",
            r.entries[0].status
        );
    }

    #[test]
    fn breaker_cuts_off_a_dead_host() {
        use crate::breaker::{BreakerConfig, CircuitBreaker};
        use aide_simweb::fault::{FaultEpisode, FaultKind, FaultPlan};
        let (_, web) = setup();
        for p in 0..8 {
            web.set_page(
                &format!("http://h/p{p}"),
                "body",
                web.clock().now() - Duration::days(1),
            )
            .unwrap();
        }
        web.install_fault_plan(
            FaultPlan::new(5).for_host("h", FaultEpisode::rate(1.0, FaultKind::ConnectionRefused)),
        );
        let hotlist: Vec<Bookmark> = (0..8).map(|p| mark(&format!("http://h/p{p}"))).collect();
        let mut w = W3Newer::new(ThresholdConfig::default());
        w.breaker = Some(Arc::new(CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::minutes(5),
            max_cooldown: Duration::hours(1),
        })));
        w.flags.abort_after_consecutive_errors = None;
        let r = w.run_serial(&hotlist, &no_history, &web, None);
        assert!(r.net.breaker_denied > 0, "circuit opened mid-run");
        let denied = r
            .entries
            .iter()
            .filter(|e| {
                matches!(&e.status, UrlStatus::Degraded { message, .. } if message.starts_with("circuit open"))
            })
            .count();
        assert!(denied > 0, "later URLs denied without network traffic");
        // Total traffic is bounded by the threshold (robots + HEADs up to
        // the trip point), far below one request per URL.
        assert!(
            web.stats().requests <= 4,
            "{} requests reached a dead host",
            web.stats().requests
        );
    }

    #[test]
    fn retry_stats_reconcile_with_web_net_errors() {
        use aide_simweb::fault::{FaultEpisode, FaultKind, FaultPlan};
        let (clock, web) = setup();
        for p in 0..4 {
            web.set_page(
                &format!("http://h/p{p}"),
                "body",
                clock.now() - Duration::days(1),
            )
            .unwrap();
        }
        web.install_fault_plan(
            FaultPlan::new(6).for_host("h", FaultEpisode::rate(0.4, FaultKind::Timeout)),
        );
        let hotlist: Vec<Bookmark> = (0..4).map(|p| mark(&format!("http://h/p{p}"))).collect();
        let mut w = W3Newer::new(ThresholdConfig::default());
        w.retry = crate::retry::RetryPolicy::standard(13);
        w.flags.abort_after_consecutive_errors = None;
        let r = w.run_serial(&hotlist, &no_history, &web, None);
        assert_eq!(
            r.net.net_failures,
            web.stats().net_errors,
            "every network error the Web counted flowed through the retry layer"
        );
        assert_eq!(
            r.net,
            w.net_stats(),
            "run delta equals lifetime stats on a fresh tracker"
        );
    }

    #[test]
    fn disabled_robustness_reports_match_pre_retry_behaviour() {
        // With the robustness layer off, a faulty world still produces
        // plain Error entries with the legacy messages and an all-zero
        // net snapshot — nothing about the report format changes.
        use aide_simweb::fault::{FaultEpisode, FaultKind, FaultPlan};
        let (clock, web) = setup();
        web.set_page("http://h/p", "body", clock.now() - Duration::days(1))
            .unwrap();
        web.install_fault_plan(
            FaultPlan::new(8).for_host("h", FaultEpisode::rate(1.0, FaultKind::Timeout)),
        );
        let mut w = W3Newer::new(ThresholdConfig::default());
        let r = w.run_serial(&[mark("http://h/p")], &no_history, &web, None);
        assert_eq!(
            r.entries[0].status,
            UrlStatus::Error {
                message: "timeout".to_string()
            }
        );
        assert!(r.net.is_zero(), "no accounting with the layer off");
    }

    #[test]
    fn changed_count_helper() {
        let (clock, web) = setup();
        web.set_page("http://h/a", "x", clock.now() - Duration::days(1))
            .unwrap();
        web.set_page("http://h/b", "y", clock.now() - Duration::days(1))
            .unwrap();
        let mut w = W3Newer::new(ThresholdConfig::default());
        let r = w.run(
            &[mark("http://h/a"), mark("http://h/b")],
            &no_history,
            &web,
            None,
        );
        assert_eq!(r.changed_count(), 2);
    }

    // ------------------------------------------- adaptive scheduling

    fn adaptive_tracker() -> W3Newer {
        use aide_sched::{AdaptiveScheduler, PriorRules, SchedulerConfig};
        let mut w = W3Newer::new(ThresholdConfig::default());
        w.schedule = SchedulePolicy::Adaptive(Arc::new(AdaptiveScheduler::new(
            SchedulerConfig::default(),
            PriorRules::default(),
        )));
        // Make every run consult the gate instead of trusting fresh
        // cached knowledge.
        w.flags.staleness = Duration::ZERO;
        w
    }

    #[test]
    fn default_policy_is_the_paper_threshold_rule() {
        let w = W3Newer::new(ThresholdConfig::default());
        assert!(!w.schedule.is_adaptive());
        assert!(w.schedule.scheduler().is_none());
    }

    #[test]
    fn adaptive_gate_skips_until_gain_accrues() {
        let (clock, web) = setup();
        let modified = clock.now() - Duration::days(30);
        web.set_page("http://h/p", "body", modified).unwrap();
        let visited = clock.now() - Duration::days(2);
        let history = move |_: &str| Some(visited);
        let mut w = adaptive_tracker();

        // Baseline poll: a never-polled URL is always worth a request.
        let r = w.run(&[mark("http://h/p")], &history, &web, None);
        assert!(matches!(
            &r.entries[0].status,
            UrlStatus::Unchanged {
                source: CheckSource::Head
            }
        ));

        // An hour later the weekly-prior gain is ~0.6%: gated.
        clock.advance(Duration::hours(1));
        let before = web.stats().requests;
        let r = w.run(&[mark("http://h/p")], &history, &web, None);
        assert_eq!(
            r.entries[0].status,
            UrlStatus::NotChecked {
                reason: SkipReason::BelowExpectedGain
            }
        );
        assert_eq!(web.stats().requests, before, "a gated URL costs nothing");

        // Six days in, p = 1 − e^(−6/7) ≈ 0.58 ≥ the 0.5 target: polled.
        clock.advance(Duration::days(6));
        let r = w.run(&[mark("http://h/p")], &history, &web, None);
        assert!(matches!(
            &r.entries[0].status,
            UrlStatus::Unchanged {
                source: CheckSource::Head
            }
        ));
        assert!(web.stats().requests > before);
    }

    #[test]
    fn adaptive_gate_learns_a_page_is_quiet() {
        let (clock, web) = setup();
        let modified = clock.now() - Duration::days(300);
        web.set_page("http://h/quiet", "body", modified).unwrap();
        let visited = clock.now() - Duration::days(200);
        let history = move |_: &str| Some(visited);
        let mut w = adaptive_tracker();
        {
            // A 7-day ceiling forces a weekly poll cadence whatever the
            // learned rate, so the estimator keeps accumulating quiet
            // exposure instead of being gated mid-experiment.
            use aide_sched::{AdaptiveScheduler, PriorRules, SchedulerConfig};
            let cfg = SchedulerConfig {
                max_interval: Duration::days(7),
                ..SchedulerConfig::default()
            };
            w.schedule = SchedulePolicy::Adaptive(Arc::new(AdaptiveScheduler::new(
                cfg,
                PriorRules::default(),
            )));
        }

        // Poll weekly for ten weeks; the page never changes, so the
        // posterior rate sinks well below the 1/week prior.
        for i in 0..10 {
            if i > 0 {
                clock.advance(Duration::days(7));
            }
            let r = w.run(&[mark("http://h/quiet")], &history, &web, None);
            assert!(matches!(&r.entries[0].status, UrlStatus::Unchanged { .. }));
        }
        let sched = w.schedule.scheduler().unwrap().clone();
        let learned = sched.url_rate_nanohz("http://h/quiet").unwrap();
        assert!(
            learned < aide_sched::RatePrior::WEEKLY.mean_nanohz() / 3,
            "ten quiet weeks should drop the rate well below the prior (got {learned})"
        );

        // Six days after the last poll a *cold* URL would be due
        // (p ≈ 0.58), but the learned quiet rate keeps this one gated.
        clock.advance(Duration::days(6));
        let r = w.run(&[mark("http://h/quiet")], &history, &web, None);
        assert_eq!(
            r.entries[0].status,
            UrlStatus::NotChecked {
                reason: SkipReason::BelowExpectedGain
            }
        );
    }

    #[test]
    fn adaptive_serial_and_pooled_reports_match() {
        // Estimator state is per-URL and each URL is checked once per
        // run, so worker interleaving cannot change adaptive verdicts.
        let build_world = || {
            let (clock, web) = setup();
            for h in 0..6 {
                for p in 0..4 {
                    let url = format!("http://host{h}.example/p{p}");
                    let age = Duration::days(1 + (h * 4 + p) % 9);
                    web.set_page(&url, "body", clock.now() - age).unwrap();
                }
            }
            let hotlist: Vec<Bookmark> = (0..6)
                .flat_map(|h| (0..4).map(move |p| mark(&format!("http://host{h}.example/p{p}"))))
                .collect();
            (clock, web, hotlist)
        };
        let run_twice = |pooled: bool| {
            let (clock, web, hotlist) = build_world();
            // Every page was seen after its last modification, so polls
            // verdict Unchanged and the run reaches the gate (a cached
            // Changed verdict would short-circuit before it).
            let visited = clock.now() - Duration::hours(1);
            let history = move |_: &str| Some(visited);
            let mut w = adaptive_tracker();
            let mut reports = Vec::new();
            for _ in 0..3 {
                let r = if pooled {
                    w.run_pooled(&hotlist, &history, &web, None, 4)
                } else {
                    w.run_serial(&hotlist, &history, &web, None)
                };
                reports.push(r);
                clock.advance(Duration::days(2));
            }
            let rates = w.schedule.scheduler().unwrap().snapshot_rates();
            (reports, rates)
        };
        let (serial, serial_rates) = run_twice(false);
        let (pooled, pooled_rates) = run_twice(true);
        assert_eq!(
            serial, pooled,
            "adaptive reports must not depend on the pool"
        );
        assert_eq!(serial_rates, pooled_rates, "estimator state must match too");
        // And the gate actually did something across the three runs.
        let skipped = serial
            .iter()
            .flat_map(|r| &r.entries)
            .filter(|e| {
                e.status
                    == UrlStatus::NotChecked {
                        reason: SkipReason::BelowExpectedGain,
                    }
            })
            .count();
        assert!(skipped > 0, "some polls should have been gated");
    }
}
