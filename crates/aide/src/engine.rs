//! The AIDE engine: users, trackers and the snapshot service, wired.
//!
//! One engine corresponds to one AIDE deployment: a simulated Web, an
//! optional site-wide proxy cache, a snapshot service, and any number of
//! registered users, each with a browser (history + hotlist) and a
//! personal w3newer instance. §6's flow is reproduced end to end,
//! including its integration wart: viewing a page through HtmlDiff does
//! *not* update the browser history, so w3newer keeps reporting the page
//! until the user visits it directly.

use crate::fetcher::{fetch_page, FetchError};
use aide_diffcore::lines::diff_lines;
use aide_htmldiff::Options as DiffOptions;
use aide_rcs::archive::{RevId, RevisionMeta};
use aide_rcs::repo::{MemRepository, Repository};
use aide_simweb::browser::Browser;
use aide_simweb::net::Web;
use aide_simweb::proxy::ProxyCache;
use aide_snapshot::service::{DiffOutcome, RememberOutcome, ServiceError, SnapshotService, UserId};
use aide_util::checksum::fnv1a64;
use aide_util::sync::{lockrank, Mutex, RwLock};
use aide_util::time::{Clock, Duration};
use aide_w3newer::breaker::{BreakerConfig, BreakerStats, CircuitBreaker};
use aide_w3newer::checker::RunReport;
use aide_w3newer::config::ThresholdConfig;
use aide_w3newer::report::{render_report, ReportOptions};
use aide_w3newer::retry::{RetryPolicy, RetrySnapshot};
use aide_w3newer::W3Newer;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Engine-level errors.
#[derive(Debug)]
pub enum EngineError {
    /// No such registered user.
    UnknownUser(String),
    /// Retrieval failed.
    Fetch(FetchError),
    /// The snapshot service failed.
    Service(ServiceError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownUser(u) => write!(f, "unknown user {u}"),
            EngineError::Fetch(e) => write!(f, "{e}"),
            EngineError::Service(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<FetchError> for EngineError {
    fn from(e: FetchError) -> Self {
        EngineError::Fetch(e)
    }
}

impl From<ServiceError> for EngineError {
    fn from(e: ServiceError) -> Self {
        EngineError::Service(e)
    }
}

struct UserState {
    browser: Browser,
    tracker: W3Newer,
}

/// Number of buckets in the user table.
const USER_SHARDS: usize = 16;

/// Byte budget of the snapshot service's page cache: about 900 rendered
/// pages of 9 KB (a diff or view of an 8 KB page), near the page bytes
/// the separate render and diff caches it replaced held together.
const PAGE_CACHE_BYTES: usize = 8 << 20;

/// Registered users in a sharded map. Each user's mutable state sits
/// behind its own mutex, so trackers for different users run fully in
/// parallel; the shard guard only protects the map and is never held
/// across a tracker run. The per-user mutex is of the `user` lock
/// class (rank 20): a run holds it while an adaptive tracker takes the
/// scheduler's `sched` lock (22).
struct UserTable {
    shards: Vec<RwLock<HashMap<UserId, Arc<Mutex<UserState>>>>>,
}

impl UserTable {
    fn new() -> UserTable {
        UserTable {
            shards: (0..USER_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, id: &UserId) -> &RwLock<HashMap<UserId, Arc<Mutex<UserState>>>> {
        &self.shards[fnv1a64(id.0.as_bytes()) as usize % USER_SHARDS]
    }

    fn insert(&self, id: UserId, state: UserState) {
        self.shard(&id)
            .write()
            .insert(id, Arc::new(Mutex::with_class(&lockrank::USER, state)));
    }

    fn get(&self, id: &UserId) -> Option<Arc<Mutex<UserState>>> {
        self.shard(id).read().get(id).cloned()
    }

    /// All registered user ids, sorted (shards visited in index order).
    fn ids(&self) -> Vec<UserId> {
        let mut ids = Vec::new();
        for shard in &self.shards {
            #[expect(
                clippy::disallowed_methods,
                reason = "hash-ordered draw, sorted after the loop"
            )]
            ids.extend(shard.read().keys().cloned());
        }
        ids.sort();
        ids
    }
}

/// Aggregate network health across a deployment: the sum of every
/// user's retry accounting plus the shared breaker's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetHealth {
    /// Per-user [`RetrySnapshot`]s, summed.
    pub retries: RetrySnapshot,
    /// The shared circuit breaker's counters (zero when robustness is
    /// off).
    pub breaker: BreakerStats,
}

/// One AIDE deployment, generic over its storage backend. The default
/// `MemRepository` keeps the historical in-memory behaviour (tests,
/// simulations); handing `with_repository` an
/// `aide_store::DiskRepository` makes every Remember durable.
pub struct AideEngine<R: Repository = MemRepository> {
    web: Web,
    proxy: Option<ProxyCache>,
    snapshot: Arc<SnapshotService<R>>,
    users: UserTable,
    /// Site-wide robustness settings, applied to every current and
    /// future user when enabled. `None` = the paper's fail-fast
    /// behaviour (the default).
    robustness: Mutex<Option<(RetryPolicy, Arc<CircuitBreaker>)>>,
}

impl AideEngine<MemRepository> {
    /// Creates an engine on `web` with no proxy, storing archives in
    /// memory.
    pub fn new(web: Web) -> AideEngine {
        AideEngine::with_repository(web, MemRepository::new())
    }
}

impl<R: Repository> AideEngine<R> {
    /// Creates an engine on `web` whose snapshot service persists into
    /// `repo` — any [`Repository`] backend.
    pub fn with_repository(web: Web, repo: R) -> AideEngine<R> {
        let clock = web.clock().clone();
        AideEngine {
            web,
            proxy: None,
            snapshot: Arc::new(SnapshotService::new(repo, clock, PAGE_CACHE_BYTES)),
            users: UserTable::new(),
            robustness: Mutex::new(None),
        }
    }

    /// Turns on the robustness layer deployment-wide: every registered
    /// user's tracker (and every user registered afterwards) gets the
    /// retry `policy` and a share of one per-host circuit breaker, so
    /// what one user's tracker learns about a dead host spares everyone
    /// else's. Returns the shared breaker handle for inspection.
    pub fn enable_robustness(
        &self,
        policy: RetryPolicy,
        breaker: BreakerConfig,
    ) -> Arc<CircuitBreaker> {
        let shared = Arc::new(CircuitBreaker::new(breaker));
        *self.robustness.lock() = Some((policy, shared.clone()));
        for id in self.users.ids() {
            if let Some(state) = self.users.get(&id) {
                let mut state = state.lock();
                state.tracker.retry = policy;
                state.tracker.breaker = Some(shared.clone());
            }
        }
        shared
    }

    /// Aggregate retry/breaker accounting across all users. All-zero
    /// unless [`AideEngine::enable_robustness`] was called.
    pub fn net_health(&self) -> NetHealth {
        let mut retries = RetrySnapshot::default();
        for id in self.users.ids() {
            if let Some(state) = self.users.get(&id) {
                retries = retries.plus(&state.lock().tracker.net_stats());
            }
        }
        let breaker = match &*self.robustness.lock() {
            Some((_, b)) => b.stats(),
            None => BreakerStats::default(),
        };
        NetHealth { retries, breaker }
    }

    /// Creates a fresh [`aide_obs::MetricsRegistry`], installs it as
    /// the process-wide observability subscriber, and returns it.
    /// From here on every instrumented site in the stack (tracker
    /// decisions, snapshot cache probes, HtmlDiff alignment work,
    /// simulated-network faults) records into the returned registry;
    /// call [`aide_obs::uninstall`] to stop. With no subscriber
    /// installed instrumentation is a single atomic load per site and
    /// all outputs are byte-identical to an uninstrumented build.
    pub fn enable_observability(&self) -> Arc<aide_obs::MetricsRegistry> {
        let registry = Arc::new(aide_obs::MetricsRegistry::new());
        aide_obs::install(registry.clone());
        registry
    }

    /// Adds a site-wide proxy cache with the given TTL (builder style).
    pub fn with_proxy(mut self, ttl: Duration) -> AideEngine<R> {
        self.proxy = Some(ProxyCache::new(self.web.clone(), ttl));
        self
    }

    /// The underlying Web.
    pub fn web(&self) -> &Web {
        &self.web
    }

    /// The shared clock.
    pub fn clock(&self) -> &Clock {
        self.web.clock()
    }

    /// The proxy, if configured.
    pub fn proxy(&self) -> Option<&ProxyCache> {
        self.proxy.as_ref()
    }

    /// The snapshot service.
    pub fn snapshot(&self) -> &SnapshotService<R> {
        &self.snapshot
    }

    /// Registers a user with a w3newer threshold configuration. Returns
    /// their browser handle (shared: cloning keeps the same history).
    pub fn register_user(&self, id: &str, config: ThresholdConfig) -> Browser {
        let browser = match &self.proxy {
            Some(p) => Browser::with_proxy(p.clone()),
            None => Browser::new(self.web.clone()),
        };
        let mut tracker = W3Newer::new(config);
        if let Some((policy, breaker)) = &*self.robustness.lock() {
            tracker.retry = *policy;
            tracker.breaker = Some(breaker.clone());
        }
        self.users.insert(
            UserId::new(id),
            UserState {
                browser: browser.clone(),
                tracker,
            },
        );
        browser
    }

    /// Adjusts a registered user's tracker flags (staleness, robots,
    /// error policy) — the §3.1 "special flags".
    pub fn set_tracker_flags(
        &self,
        id: &str,
        flags: aide_w3newer::checker::Flags,
    ) -> Result<(), EngineError> {
        let state = self
            .users
            .get(&UserId::new(id))
            .ok_or_else(|| EngineError::UnknownUser(id.to_string()))?;
        state.lock().tracker.flags = flags;
        Ok(())
    }

    /// The browser of a registered user.
    pub fn browser(&self, id: &str) -> Result<Browser, EngineError> {
        self.users
            .get(&UserId::new(id))
            .map(|u| u.lock().browser.clone())
            .ok_or_else(|| EngineError::UnknownUser(id.to_string()))
    }

    /// Runs w3newer for `id` over their hotlist. Returns the raw report.
    ///
    /// Holds only this user's lock: trackers of different users run
    /// concurrently (see [`AideEngine::poll_all_users`]).
    pub fn run_tracker(&self, id: &str) -> Result<RunReport, EngineError> {
        let state = self
            .users
            .get(&UserId::new(id))
            .ok_or_else(|| EngineError::UnknownUser(id.to_string()))?;
        let mut state = state.lock();
        let hotlist = state.browser.hotlist();
        let browser = state.browser.clone();
        let start = self.web.clock().now_secs();
        let report = state.tracker.run(
            &hotlist,
            &move |url| browser.last_visited(url),
            &self.web,
            self.proxy.as_ref(),
        );
        aide_obs::span("aide.run_tracker", start, self.web.clock().now_secs());
        Ok(report)
    }

    /// Polls every registered user's tracker, driving up to the
    /// machine's width ([`aide_util::pool::machine_width`]) of users
    /// concurrently, at most one thread per user, and returns the reports
    /// in user-id order. Each user's run holds only that user's lock, so
    /// the batch scales with cores rather than serializing on a
    /// table-wide mutex — the paper's nightly "w3newer runs for every
    /// subscriber" sweep as one call.
    pub fn poll_all_users(&self) -> Vec<(UserId, RunReport)> {
        let ids = self.users.ids();
        aide_util::pool::map(ids, aide_util::pool::machine_width(), |id| {
            self.run_tracker(&id.0).ok().map(|report| (id, report))
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Runs w3newer and renders the Figure 1 HTML report.
    pub fn tracker_report_html(&self, id: &str) -> Result<String, EngineError> {
        let report = self.run_tracker(id)?;
        let opts = ReportOptions {
            user: Some(id.to_string()),
            ..ReportOptions::default()
        };
        Ok(render_report(&report, &opts))
    }

    /// Remember: fetch the page and check it in for `id`.
    pub fn remember(&self, id: &str, url: &str) -> Result<RememberOutcome, EngineError> {
        let page = fetch_page(&self.web, self.proxy.as_ref(), url)?;
        Ok(self.snapshot.remember(&UserId::new(id), url, &page.body)?)
    }

    /// Diff: fetch the current page and compare with the user's last
    /// remembered version. Note this does *not* touch the browser
    /// history (the §6 wart).
    pub fn diff(
        &self,
        id: &str,
        url: &str,
        opts: &DiffOptions,
    ) -> Result<DiffOutcome, EngineError> {
        let page = fetch_page(&self.web, self.proxy.as_ref(), url)?;
        Ok(self
            .snapshot
            .diff_since_last(&UserId::new(id), url, &page.body, opts)?)
    }

    /// Diff between two stored revisions.
    pub fn diff_versions(
        &self,
        url: &str,
        from: RevId,
        to: RevId,
        opts: &DiffOptions,
    ) -> Result<DiffOutcome, EngineError> {
        Ok(self.snapshot.diff_versions(url, from, to, opts)?)
    }

    /// History of a URL with this user's seen flags.
    pub fn history(
        &self,
        id: &str,
        url: &str,
    ) -> Result<Vec<(Arc<RevisionMeta>, bool)>, EngineError> {
        Ok(self.snapshot.history(&UserId::new(id), url)?)
    }

    /// §8.1's `rcsdiff` program: a unified line diff of two revisions.
    pub fn line_diff(&self, url: &str, from: RevId, to: RevId) -> Result<String, EngineError> {
        let old = self.snapshot.revision_text(url, from)?;
        let new = self.snapshot.revision_text(url, to)?;
        Ok(diff_lines(&old, &new).unified(&from.to_string(), &to.to_string(), 3))
    }

    /// View an archived revision (BASE-rewritten).
    pub fn view(&self, url: &str, rev: RevId) -> Result<String, EngineError> {
        Ok(self.snapshot.view(url, rev)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_util::time::Timestamp;
    use aide_w3newer::checker::UrlStatus;

    fn engine() -> AideEngine {
        let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 10, 1, 9, 0, 0));
        let web = Web::new(clock);
        web.set_page(
            "http://www.usenix.org/",
            "<HTML><P>Original home page text here.</HTML>",
            Timestamp::from_ymd_hms(1995, 9, 20, 0, 0, 0),
        )
        .unwrap();
        AideEngine::new(web)
    }

    #[test]
    fn full_remember_diff_cycle() {
        let e = engine();
        let b = e.register_user("fred@att.com", ThresholdConfig::default());
        b.add_bookmark("USENIX", "http://www.usenix.org/");

        // Remember the original.
        let out = e
            .remember("fred@att.com", "http://www.usenix.org/")
            .unwrap();
        assert!(out.created_archive);

        // The page changes.
        e.clock().advance(Duration::days(3));
        e.web()
            .touch_page(
                "http://www.usenix.org/",
                "<HTML><P>Original home page text here. Conference registration open!</HTML>",
                e.clock().now(),
            )
            .unwrap();

        // Diff shows the addition.
        let d = e
            .diff(
                "fred@att.com",
                "http://www.usenix.org/",
                &DiffOptions::default(),
            )
            .unwrap();
        assert_eq!(d.from, RevId(1));
        assert_eq!(d.to, RevId(2));
        assert!(d.html.contains("Conference registration open!"));

        // History shows both versions, both now seen by fred.
        let h = e.history("fred@att.com", "http://www.usenix.org/").unwrap();
        assert_eq!(h.len(), 2);
        assert!(h.iter().all(|(_, seen)| *seen));
    }

    #[test]
    fn adaptive_tracker_feeds_the_scheduler_under_the_user_lock() {
        use aide_sched::{AdaptiveScheduler, PriorRules, SchedulerConfig};
        use aide_w3newer::SchedulePolicy;
        let e = engine();
        let b = e.register_user("fred@att.com", ThresholdConfig::default());
        b.add_bookmark("USENIX", "http://www.usenix.org/");
        let sched = Arc::new(AdaptiveScheduler::new(
            SchedulerConfig::default(),
            PriorRules::default(),
        ));
        let state = e.users.get(&UserId::new("fred@att.com")).unwrap();
        state.lock().tracker.schedule = SchedulePolicy::Adaptive(sched.clone());
        // One host, so the run checks it on this thread: the scheduler's
        // `sched` lock is taken while fred's `user` mutex is held.
        let r = e.run_tracker("fred@att.com").unwrap();
        assert_eq!(r.entries.len(), 1);
        assert!(
            sched.url_rate_nanohz("http://www.usenix.org/").is_some(),
            "the baseline poll must reach the estimator"
        );
    }

    #[test]
    fn tracker_reports_change_after_modification() {
        let e = engine();
        let b = e.register_user("fred@att.com", ThresholdConfig::default());
        b.add_bookmark("USENIX", "http://www.usenix.org/");
        b.visit("http://www.usenix.org/").unwrap();

        // Nothing changed yet.
        let r = e.run_tracker("fred@att.com").unwrap();
        assert!(matches!(r.entries[0].status, UrlStatus::Unchanged { .. }));

        // The page changes; the tracker notices.
        e.clock().advance(Duration::days(10));
        e.web()
            .touch_page(
                "http://www.usenix.org/",
                "<HTML><P>new</HTML>",
                e.clock().now(),
            )
            .unwrap();
        let r = e.run_tracker("fred@att.com").unwrap();
        assert!(r.entries[0].status.is_changed());
        let html = e.tracker_report_html("fred@att.com").unwrap();
        assert!(html.contains("Changed pages"));
        assert!(html.contains("op=diff"));
    }

    #[test]
    fn htmldiff_view_does_not_update_history() {
        // The §6 wart, reproduced: after viewing a Diff, w3newer still
        // reports the page as changed, because the browser history only
        // records direct visits.
        let e = engine();
        let b = e.register_user("fred@att.com", ThresholdConfig::default());
        b.add_bookmark("USENIX", "http://www.usenix.org/");
        b.visit("http://www.usenix.org/").unwrap();
        e.remember("fred@att.com", "http://www.usenix.org/")
            .unwrap();

        e.clock().advance(Duration::days(2));
        e.web()
            .touch_page(
                "http://www.usenix.org/",
                "<HTML><P>changed</HTML>",
                e.clock().now(),
            )
            .unwrap();

        e.diff(
            "fred@att.com",
            "http://www.usenix.org/",
            &DiffOptions::default(),
        )
        .unwrap();
        let r = e.run_tracker("fred@att.com").unwrap();
        assert!(
            r.entries[0].status.is_changed(),
            "still reported changed after Diff view: {:?}",
            r.entries[0].status
        );

        // A direct visit clears it.
        b.visit("http://www.usenix.org/").unwrap();
        let r = e.run_tracker("fred@att.com").unwrap();
        assert!(matches!(r.entries[0].status, UrlStatus::Unchanged { .. }));
    }

    #[test]
    fn unknown_user_errors() {
        let e = engine();
        assert!(matches!(
            e.run_tracker("ghost"),
            Err(EngineError::UnknownUser(_))
        ));
        assert!(e.browser("ghost").is_err());
    }

    #[test]
    fn fetch_errors_surface() {
        let e = engine();
        e.register_user("u@x", ThresholdConfig::default());
        assert!(matches!(
            e.remember("u@x", "http://nonexistent-host/"),
            Err(EngineError::Fetch(_))
        ));
    }

    #[test]
    fn proxy_backed_engine_shares_cache_with_tracker() {
        let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 10, 1, 9, 0, 0));
        let web = Web::new(clock);
        web.set_page(
            "http://h/p",
            "<HTML>x</HTML>",
            Timestamp::from_ymd_hms(1995, 9, 30, 0, 0, 0),
        )
        .unwrap();
        let e = AideEngine::new(web).with_proxy(Duration::days(3));
        let b = e.register_user("u@x", aide_w3newer::config::table1());
        b.add_bookmark("P", "http://h/p");
        // The user browses the page through the proxy...
        b.visit("http://h/p").unwrap();
        e.web().reset_stats();
        // ...so the tracker can answer from the proxy without origin load.
        let r = e.run_tracker("u@x").unwrap();
        assert!(matches!(
            r.entries[0].status,
            UrlStatus::Unchanged { .. } | UrlStatus::NotChecked { .. }
        ));
        assert_eq!(e.web().server_stats("h").unwrap().total(), 0);
    }

    #[test]
    fn tracker_flags_adjustable_per_user() {
        let e = engine();
        e.register_user("u@x", ThresholdConfig::default());
        // Distrust the cache entirely: every run re-polls.
        e.set_tracker_flags(
            "u@x",
            aide_w3newer::checker::Flags {
                staleness: Duration::ZERO,
                ..aide_w3newer::checker::Flags::default()
            },
        )
        .unwrap();
        let b = e.browser("u@x").unwrap();
        b.add_bookmark("U", "http://www.usenix.org/");
        // Visit so the cached verdict is "unchanged" — the staleness flag
        // governs how long that verdict is trusted ("known changed" never
        // needs re-polling).
        b.visit("http://www.usenix.org/").unwrap();
        e.run_tracker("u@x").unwrap();
        let first = e.web().stats().requests;
        e.run_tracker("u@x").unwrap();
        assert!(
            e.web().stats().requests > first,
            "staleness 0 forces re-polling"
        );
        assert!(e
            .set_tracker_flags("ghost", aide_w3newer::checker::Flags::default())
            .is_err());
    }

    #[test]
    fn poll_all_users_matches_individual_runs() {
        let e = engine();
        // Several users with overlapping and distinct hotlists, plus a
        // few extra pages so the trackers do real work.
        for h in 0..4 {
            e.web()
                .set_page(
                    &format!("http://site{h}.example.com/"),
                    &format!("<HTML><P>site {h}</HTML>"),
                    Timestamp::from_ymd_hms(1995, 9, 25, 0, 0, 0),
                )
                .unwrap();
        }
        for u in 0..6 {
            let id = format!("user{u}@example.com");
            let b = e.register_user(&id, ThresholdConfig::default());
            b.add_bookmark("USENIX", "http://www.usenix.org/");
            b.add_bookmark("site", &format!("http://site{}.example.com/", u % 4));
        }

        let batch = e.poll_all_users();
        assert_eq!(batch.len(), 6);
        let mut ids: Vec<&str> = batch.iter().map(|(id, _)| id.0.as_str()).collect();
        let sorted = {
            let mut s = ids.clone();
            s.sort();
            s
        };
        assert_eq!(ids, sorted, "reports come back in user-id order");
        ids.dedup();
        assert_eq!(ids.len(), 6);
        for (_, report) in &batch {
            assert_eq!(report.entries.len(), 2);
            // Never-visited bookmarks all report as changed-to-the-user.
            assert_eq!(report.changed_count(), 2);
        }
    }

    #[test]
    fn robustness_applies_to_existing_and_future_users() {
        use aide_simweb::fault::{FaultEpisode, FaultKind, FaultPlan};
        let e = engine();
        let before = e.register_user("early@x", ThresholdConfig::default());
        before.add_bookmark("U", "http://www.usenix.org/");
        let breaker = e.enable_robustness(RetryPolicy::standard(42), BreakerConfig::default());
        let after = e.register_user("late@x", ThresholdConfig::default());
        after.add_bookmark("U", "http://www.usenix.org/");

        // A short full outage: the retry backoff carries both trackers
        // past it.
        let now = e.clock().now();
        e.web().install_fault_plan(FaultPlan::new(5).for_host(
            "www.usenix.org",
            FaultEpisode::rate(1.0, FaultKind::Timeout).between(now, now + Duration::seconds(4)),
        ));
        let reports = e.poll_all_users();
        assert_eq!(reports.len(), 2);
        for (id, r) in &reports {
            assert!(
                r.entries[0].status.is_changed(),
                "{}: recovered through retries, got {:?}",
                id.0,
                r.entries[0].status
            );
        }
        let health = e.net_health();
        assert!(health.retries.retries > 0, "retries aggregated: {health:?}");
        assert_eq!(health.retries.exhausted, 0);
        assert_eq!(breaker.stats().opened, 0, "no circuit tripped");
    }

    #[test]
    fn net_health_zero_without_robustness() {
        let e = engine();
        let b = e.register_user("u@x", ThresholdConfig::default());
        b.add_bookmark("U", "http://www.usenix.org/");
        e.run_tracker("u@x").unwrap();
        assert_eq!(e.net_health(), NetHealth::default());
    }

    #[test]
    fn view_returns_archived_version() {
        let e = engine();
        e.register_user("u@x", ThresholdConfig::default());
        e.remember("u@x", "http://www.usenix.org/").unwrap();
        let body = e.view("http://www.usenix.org/", RevId(1)).unwrap();
        assert!(body.contains("Original home page text"));
        assert!(
            body.contains("BASE HREF"),
            "archived copies carry BASE: {body}"
        );
    }
}
