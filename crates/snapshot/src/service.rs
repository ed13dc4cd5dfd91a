//! The snapshot service proper: remember / diff / history / view.
//!
//! §6 names the three entry points AIDE links next to every hotlist item:
//!
//! - **Remember**: "send the URL to the snapshot facility, to save a copy
//!   of the page. Though the page is retrieved, the RCS ci command
//!   ensures that it is not saved if it is unchanged."
//! - **Diff**: "have the snapshot facility invoke HtmlDiff to display the
//!   changes in a page since it was last saved away by the user."
//! - **History**: "display a full log of versions of this page, with the
//!   ability to run HtmlDiff on any pair of versions or to view a
//!   particular version directly."
//!
//! The service is transport-agnostic: callers hand it page *bodies* (the
//! CGI layer in the `aide` crate does the fetching), so the whole archive
//! machinery is testable without a network.
//!
//! # Concurrency
//!
//! Exclusion is fine-grained, mirroring the paper's per-URL lock file and
//! per-user control file (§4.2) rather than any global lock:
//!
//! - The repository is shared directly (no service-level repository
//!   mutex); [`Repository`] implementations are internally sharded and
//!   return [`std::sync::Arc`] archive handles, so reads never block
//!   writers of other URLs.
//! - Read-modify-write of one URL's archive is serialized by that URL's
//!   named lock in the [`LockTable`]; control-file updates by the user's
//!   named lock, acquired *after* the URL lock per the ordering invariant
//!   documented in [`crate::locks`].
//! - Control files live in a sharded user map; rendered pages live in
//!   the sharded [`PageCache`]. Shard guards are held only for map access.
//! - Counters are atomics ([`SnapshotService::snapshot_stats`] reads
//!   them without taking any lock), and admission control is a
//!   compare-and-swap gate rather than a mutex-protected option.
//!
//! The result: two operations on different URLs by different users share
//! no exclusive lock at all.

use crate::cache::{CacheStats, PageCache};
use crate::control::ControlFile;
use crate::locks::LockTable;
use aide_htmldiff::present::diff_tokens;
use aide_htmldiff::{tokenize, Options as DiffOptions};
use aide_htmlkit::lexer::{lex, serialize};
use aide_htmlkit::links::rewrite_base;
use aide_htmlkit::url::Url;
use aide_rcs::archive::{Archive, ArchiveError, CheckinOutcome, RevId, RevisionMeta};
use aide_rcs::repo::{RepoError, Repository, StorageStats};
use aide_util::checksum::fnv1a64;
use aide_util::sync::RwLock;
use aide_util::time::{Clock, Timestamp};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A user identifier — an email address in the open model, an opaque
/// account id in the authenticated one.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub String);

impl UserId {
    /// Convenience constructor.
    pub fn new(id: &str) -> UserId {
        UserId(id.to_string())
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Errors from the service.
#[derive(Debug)]
pub enum ServiceError {
    /// Repository failure.
    Repo(RepoError),
    /// Archive-level failure.
    Archive(ArchiveError),
    /// The URL has never been remembered by anyone.
    NeverArchived(String),
    /// Admission control rejected the request (§4.2's simultaneous-user
    /// limit); try again shortly.
    Overloaded {
        /// The configured concurrency cap.
        limit: usize,
    },
    /// This user has never remembered this URL.
    NoUserHistory {
        /// Who asked.
        user: UserId,
        /// For what URL.
        url: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Repo(e) => write!(f, "{e}"),
            ServiceError::Archive(e) => write!(f, "{e}"),
            ServiceError::NeverArchived(u) => write!(f, "no snapshots exist for {u}"),
            ServiceError::Overloaded { limit } => {
                write!(f, "service busy ({limit} simultaneous requests); try again")
            }
            ServiceError::NoUserHistory { user, url } => {
                write!(f, "{user} has never remembered {url}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<RepoError> for ServiceError {
    fn from(e: RepoError) -> Self {
        ServiceError::Repo(e)
    }
}

impl From<ArchiveError> for ServiceError {
    fn from(e: ArchiveError) -> Self {
        ServiceError::Archive(e)
    }
}

/// Result of a Remember operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RememberOutcome {
    /// The revision the page body now corresponds to.
    pub rev: RevId,
    /// Whether a new revision was created (false = unchanged).
    pub stored_new_revision: bool,
    /// Whether this was the first snapshot of the URL anywhere.
    pub created_archive: bool,
}

/// Result of a Diff operation.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// The rendered HtmlDiff page.
    pub html: String,
    /// The older revision compared.
    pub from: RevId,
    /// The newer revision compared.
    pub to: RevId,
    /// Whether the rendered output came from the page cache.
    pub from_cache: bool,
}

/// Service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Times HtmlDiff actually executed (cache misses).
    pub htmldiff_invocations: u64,
    /// Remember operations performed.
    pub remembers: u64,
    /// Remember operations that stored nothing (unchanged page).
    pub unchanged_remembers: u64,
    /// Archive loads the repository reported as corrupt and the service
    /// degraded to "not archived" instead of failing the request.
    pub degraded_loads: u64,
}

/// Lock-free counter cells behind [`ServiceStats`].
#[derive(Default)]
struct StatCells {
    htmldiff_invocations: AtomicU64,
    remembers: AtomicU64,
    unchanged_remembers: AtomicU64,
    degraded_loads: AtomicU64,
}

/// Sentinel for "no concurrency cap".
const UNLIMITED: usize = usize::MAX;

/// RAII slot held for the duration of an admitted operation.
struct AdmissionGuard<'a> {
    counter: &'a AtomicUsize,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        // aide-lint: allow(seqcst): admission gate is a synchronization
        // protocol (CAS reserve / release), not a stat counter
        self.counter.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Number of buckets in the per-user control map.
const CONTROL_SHARDS: usize = 64;

/// Per-user control files in a sharded map. Mutation of one user's file
/// is serialized by that user's named lock; the shard guard only
/// protects the map structure and is never held across I/O or diffing.
struct UserControls {
    shards: Vec<RwLock<HashMap<UserId, ControlFile>>>,
}

impl UserControls {
    fn new() -> UserControls {
        UserControls {
            shards: (0..CONTROL_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, user: &UserId) -> &RwLock<HashMap<UserId, ControlFile>> {
        &self.shards[fnv1a64(user.0.as_bytes()) as usize % CONTROL_SHARDS]
    }

    /// Reads `user`'s control file (if any) under the shard guard.
    fn read<T>(&self, user: &UserId, f: impl FnOnce(Option<&ControlFile>) -> T) -> T {
        f(self.shard(user).read().get(user))
    }

    /// Updates `user`'s control file (created on demand) under the shard
    /// guard. Callers hold the user's named lock.
    fn update<T>(&self, user: &UserId, f: impl FnOnce(&mut ControlFile) -> T) -> T {
        f(self.shard(user).write().entry(user.clone()).or_default())
    }
}

/// The snapshot service.
pub struct SnapshotService<R: Repository> {
    repo: R,
    controls: UserControls,
    locks: LockTable,
    pages: PageCache,
    clock: Clock,
    stats: StatCells,
    /// Admission control (§4.2: "the facility could also impose a limit
    /// on the number of simultaneous users"). [`UNLIMITED`] = no cap.
    max_concurrent: AtomicUsize,
    in_flight: AtomicUsize,
}

impl<R: Repository> SnapshotService<R> {
    /// Creates a service over `repo`, with a [`PageCache`] of at most
    /// `cache_bytes` of rendered pages (zero disables caching).
    pub fn new(repo: R, clock: Clock, cache_bytes: usize) -> Self {
        SnapshotService {
            repo,
            controls: UserControls::new(),
            locks: LockTable::new(),
            pages: PageCache::new(cache_bytes),
            clock,
            stats: StatCells::default(),
            max_concurrent: AtomicUsize::new(UNLIMITED),
            in_flight: AtomicUsize::new(0),
        }
    }

    /// Caps the number of simultaneously executing operations; further
    /// requests fail with [`ServiceError::Overloaded`] until others
    /// finish. `None` removes the cap.
    pub fn set_max_concurrent(&self, limit: Option<usize>) {
        self.max_concurrent
            // aide-lint: allow(seqcst): cap changes must be totally
            // ordered against concurrent admissions
            .store(limit.unwrap_or(UNLIMITED), Ordering::SeqCst);
    }

    /// Admits one operation, or reports overload. The slot is reserved
    /// with a compare-and-swap, so an over-cap burst never transiently
    /// counts rejected callers against admitted ones.
    fn admit(&self) -> Result<AdmissionGuard<'_>, ServiceError> {
        // aide-lint: allow(seqcst): the gate's reserve protocol, not a
        // stat counter — every access shares one total order
        let cap = self.max_concurrent.load(Ordering::SeqCst);
        if cap == UNLIMITED {
            // aide-lint: allow(seqcst): see above
            self.in_flight.fetch_add(1, Ordering::SeqCst);
            return Ok(AdmissionGuard {
                counter: &self.in_flight,
            });
        }
        // aide-lint: allow(seqcst): see above
        let mut current = self.in_flight.load(Ordering::SeqCst);
        loop {
            if current >= cap {
                return Err(ServiceError::Overloaded { limit: cap });
            }
            match self.in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::SeqCst, // aide-lint: allow(seqcst): see above
                Ordering::SeqCst, // aide-lint: allow(seqcst): see above
            ) {
                Ok(_) => {
                    return Ok(AdmissionGuard {
                        counter: &self.in_flight,
                    })
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// The shared lock table (exposed for contention experiments).
    pub fn locks(&self) -> &LockTable {
        &self.locks
    }

    /// Loads `url`'s archive, degrading gracefully on per-key damage: a
    /// [`RepoError::Corrupt`] report is counted and served as "not
    /// archived" rather than failing the request, so one damaged record
    /// never takes the facility down — every other URL keeps serving,
    /// and a subsequent Remember of this URL self-heals it by storing a
    /// fresh archive over the damaged one. Infrastructure failures
    /// (`Io`/`Storage`) still surface as errors: those say the backend
    /// is sick, not the record.
    fn load_degraded(&self, url: &str) -> Result<Option<Arc<Archive>>, ServiceError> {
        match self.repo.load(url) {
            Ok(found) => Ok(found),
            Err(RepoError::Corrupt { .. }) => {
                self.stats.degraded_loads.fetch_add(1, Ordering::Relaxed);
                aide_obs::counter("snapshot.degraded.corrupt", 1);
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Remember: checks `body` in as the state of `url` on behalf of
    /// `user`.
    ///
    /// Locking: the URL's named lock covers the archive
    /// load-modify-store; the user's named lock (taken after the URL lock
    /// is released) covers the control-file update. Remembers of
    /// different URLs by different users share no exclusive lock.
    pub fn remember(
        &self,
        user: &UserId,
        url: &str,
        body: &str,
    ) -> Result<RememberOutcome, ServiceError> {
        let _slot = self.admit()?;
        let now = self.clock.now();
        let url_guard = self.locks.lock(&LockTable::url_key(url));
        let (outcome, created) = match self.load_degraded(url)? {
            Some(existing) => {
                if existing.head_text() == body {
                    // Unchanged: no clone, no store — the same early-out
                    // `Archive::checkin` would take.
                    (CheckinOutcome::Unchanged(existing.head()), false)
                } else {
                    let mut archive = (*existing).clone();
                    let out =
                        archive.checkin(body, &user.0, &format!("checked in by {user}"), now)?;
                    if out.is_new() {
                        self.repo.store(url, &archive)?;
                    }
                    (out, false)
                }
            }
            None => {
                let archive = Archive::create(
                    url,
                    body,
                    &user.0,
                    &format!("initial snapshot by {user}"),
                    now,
                );
                self.repo.store(url, &archive)?;
                (CheckinOutcome::NewRevision(RevId::FIRST), true)
            }
        };
        drop(url_guard);
        let _user_guard = self.locks.lock(&LockTable::user_key(&user.0));
        self.controls
            .update(user, |c| c.entry(url).record(outcome.rev(), now));
        self.stats.remembers.fetch_add(1, Ordering::Relaxed);
        if !outcome.is_new() {
            self.stats
                .unchanged_remembers
                .fetch_add(1, Ordering::Relaxed);
        }
        if aide_obs::enabled() {
            aide_obs::counter("snapshot.remember", 1);
            if !outcome.is_new() {
                aide_obs::counter("snapshot.remember.unchanged", 1);
            }
            aide_obs::observe("snapshot.remember.body_bytes", body.len() as u64);
        }
        Ok(RememberOutcome {
            rev: outcome.rev(),
            stored_new_revision: outcome.is_new(),
            created_archive: created,
        })
    }

    /// Diff: renders the changes between `user`'s last-remembered version
    /// of `url` and `current_body` (the page as it looks now). The
    /// current body is checked in first (so the comparison target is a
    /// stable revision), exactly as the CGI retrieved the page before
    /// comparing.
    pub fn diff_since_last(
        &self,
        user: &UserId,
        url: &str,
        current_body: &str,
        opts: &DiffOptions,
    ) -> Result<DiffOutcome, ServiceError> {
        let from = self
            .controls
            .read(user, |c| {
                c.and_then(|c| c.get(url)).and_then(|e| e.last_seen())
            })
            .ok_or_else(|| ServiceError::NoUserHistory {
                user: user.clone(),
                url: url.to_string(),
            })?;
        let to = self.remember(user, url, current_body)?.rev;
        self.diff_versions(url, from, to, opts)
    }

    /// Diff between two stored revisions, via the page cache. Stored
    /// revisions never change, so `(url, from, to, options)` names the
    /// rendering for good.
    pub fn diff_versions(
        &self,
        url: &str,
        from: RevId,
        to: RevId,
        opts: &DiffOptions,
    ) -> Result<DiffOutcome, ServiceError> {
        let _slot = self.admit()?;
        aide_obs::counter("snapshot.diff", 1);
        let key = diff_key(url, from, to, opts);
        let (html, from_cache) = self
            .pages
            .get_or_render(&key, || self.render_diff(url, from, to, opts))?;
        aide_obs::counter(
            if from_cache {
                "snapshot.diff.cache_hit.primary"
            } else {
                "snapshot.diff.cache_miss"
            },
            1,
        );
        Ok(DiffOutcome {
            html: html.to_string(),
            from,
            to,
            from_cache,
        })
    }

    /// Checks out, tokenizes and diffs two revisions: the work a page
    /// cache miss in [`SnapshotService::diff_versions`] pays for.
    fn render_diff(
        &self,
        url: &str,
        from: RevId,
        to: RevId,
        opts: &DiffOptions,
    ) -> Result<String, ServiceError> {
        let archive = self
            .load_degraded(url)?
            .ok_or_else(|| ServiceError::NeverArchived(url.to_string()))?;
        let old = archive.checkout(from)?;
        let new = archive.checkout(to)?;
        if aide_obs::enabled() {
            // Chain length of the older checkout dominates archive cost:
            // RCS reverse deltas make the head free and ancient
            // revisions linear in their distance from it.
            aide_obs::observe(
                "snapshot.diff.delta_chain",
                u64::from(archive.head().0.saturating_sub(from.0)),
            );
        }
        drop(archive);
        let mut labeled = opts.clone();
        labeled.old_label = from.to_string();
        labeled.new_label = to.to_string();
        let old_tokens = tokenize(&old);
        let new_tokens = tokenize(&new);
        aide_obs::observe(
            "snapshot.diff.tokens",
            (old_tokens.len() + new_tokens.len()) as u64,
        );
        // `diff_tokens` draws its DP tables and token arenas from the
        // per-thread `aide_diffcore::scratch` pools, so a service thread
        // serving many diff requests reuses one set of buffers across
        // calls; the pool's footprint is visible as `diff.scratch.bytes`.
        let result = diff_tokens(&old_tokens, &new_tokens, &labeled);
        self.stats
            .htmldiff_invocations
            .fetch_add(1, Ordering::Relaxed);
        Ok(result.html)
    }

    /// History: the full revision log (newest first), with a per-user
    /// seen flag for each revision.
    pub fn history(
        &self,
        user: &UserId,
        url: &str,
    ) -> Result<Vec<(RevisionMeta, bool)>, ServiceError> {
        aide_obs::counter("snapshot.history", 1);
        let archive = self
            .load_degraded(url)?
            .ok_or_else(|| ServiceError::NeverArchived(url.to_string()))?;
        Ok(self.controls.read(user, |c| {
            let seen = c.and_then(|c| c.get(url));
            archive
                .log()
                .into_iter()
                .map(|m| {
                    let has = seen.map(|c| c.has_seen(m.id)).unwrap_or(false);
                    (m.clone(), has)
                })
                .collect()
        }))
    }

    /// View: the full text of one revision, with a `BASE` tag inserted so
    /// relative links resolve against the original location (§4.1).
    /// Rendered once per `(url, rev)` and then served from the page cache.
    pub fn view(&self, url: &str, rev: RevId) -> Result<String, ServiceError> {
        aide_obs::counter("snapshot.view", 1);
        let (page, _) = self.pages.get_or_render(&format!("v|{url}|{rev}"), || {
            let body = self.revision_text(url, rev)?;
            Ok::<_, ServiceError>(match Url::parse(url) {
                Ok(base) => serialize(&rewrite_base(&lex(&body), &base)),
                Err(_) => body,
            })
        })?;
        Ok(page.to_string())
    }

    /// The pristine text of one revision (no BASE rewriting) — what a
    /// co-resident service needs to re-remember content on a user's
    /// behalf.
    pub fn revision_text(&self, url: &str, rev: RevId) -> Result<String, ServiceError> {
        let archive = self
            .load_degraded(url)?
            .ok_or_else(|| ServiceError::NeverArchived(url.to_string()))?;
        Ok(archive.checkout(rev)?)
    }

    /// The revision in force at `date` (RCS `co -d`).
    pub fn view_at(&self, url: &str, date: Timestamp) -> Result<(RevId, String), ServiceError> {
        let archive = self
            .load_degraded(url)?
            .ok_or_else(|| ServiceError::NeverArchived(url.to_string()))?;
        Ok(archive.checkout_at(date)?)
    }

    /// Memento selection: the revision of `url` *closest* to `date` and
    /// its check-in date (RFC 7089 TimeGate semantics — clamped to the
    /// archive's first and last revisions, nearest neighbour in between,
    /// earlier on a tie). Reads only revision metadata; the memento's body
    /// is [`SnapshotService::view`]. Contrast [`SnapshotService::view_at`],
    /// which is strict `co -d` and fails for dates before the first
    /// revision.
    pub fn closest_revision(
        &self,
        url: &str,
        date: Timestamp,
    ) -> Result<(RevId, Timestamp), ServiceError> {
        let archive = self
            .load_degraded(url)?
            .ok_or_else(|| ServiceError::NeverArchived(url.to_string()))?;
        Ok(archive.closest_to(date))
    }

    /// Full revision metadata of `url`, oldest first — the TimeMap's
    /// source of truth (user-independent, unlike
    /// [`SnapshotService::history`]).
    pub fn revisions(&self, url: &str) -> Result<Vec<RevisionMeta>, ServiceError> {
        let archive = self
            .load_degraded(url)?
            .ok_or_else(|| ServiceError::NeverArchived(url.to_string()))?;
        Ok(archive.metas().to_vec())
    }

    /// The head revision of `url`, if archived.
    pub fn head(&self, url: &str) -> Result<Option<(RevId, Timestamp)>, ServiceError> {
        Ok(self
            .load_degraded(url)?
            .and_then(|a| a.metas().last().map(|m| (m.id, m.date))))
    }

    /// The most recent revision `user` has remembered of `url`.
    pub fn last_seen(&self, user: &UserId, url: &str) -> Option<RevId> {
        self.controls.read(user, |c| {
            c.and_then(|c| c.get(url)).and_then(|e| e.last_seen())
        })
    }

    /// All URLs anyone has archived.
    pub fn archived_urls(&self) -> Result<Vec<String>, ServiceError> {
        Ok(self.repo.keys()?)
    }

    /// Repository storage accounting (the §7 numbers).
    pub fn storage(&self) -> Result<StorageStats, ServiceError> {
        Ok(self.repo.stats()?)
    }

    /// Per-URL storage, largest first (§7 singles out the top three).
    pub fn storage_by_url(&self) -> Result<Vec<(String, usize)>, ServiceError> {
        Ok(self.repo.sizes()?)
    }

    /// A consistent-enough snapshot of the service counters, read from
    /// atomics without taking any lock.
    pub fn snapshot_stats(&self) -> ServiceStats {
        ServiceStats {
            htmldiff_invocations: self.stats.htmldiff_invocations.load(Ordering::Relaxed),
            remembers: self.stats.remembers.load(Ordering::Relaxed),
            unchanged_remembers: self.stats.unchanged_remembers.load(Ordering::Relaxed),
            degraded_loads: self.stats.degraded_loads.load(Ordering::Relaxed),
        }
    }

    /// Service counters (alias of [`SnapshotService::snapshot_stats`]).
    pub fn service_stats(&self) -> ServiceStats {
        self.snapshot_stats()
    }

    /// The page cache behind [`SnapshotService::diff_versions`] and
    /// [`SnapshotService::view`], shared with any layer above that renders
    /// pages of its own.
    pub fn page_cache(&self) -> &PageCache {
        &self.pages
    }

    /// Page-cache counters (the one cache, whatever it holds).
    pub fn diff_cache_stats(&self) -> &CacheStats {
        self.pages.stats()
    }

    /// Publishes the service's aggregate counters — [`ServiceStats`],
    /// [`LockStats`](crate::locks::LockStats), and the page cache's size —
    /// as `snapshot.*` gauges on the installed observability subscriber;
    /// no-op without one. The bespoke atomic structs remain the source
    /// of truth; this mirrors them into the registry at export time so
    /// the hot paths stay uninstrumented.
    pub fn publish_obs(&self) {
        if !aide_obs::enabled() {
            return;
        }
        let s = self.snapshot_stats();
        aide_obs::gauge("snapshot.remembers", s.remembers);
        aide_obs::gauge("snapshot.unchanged_remembers", s.unchanged_remembers);
        aide_obs::gauge("snapshot.htmldiff_invocations", s.htmldiff_invocations);
        aide_obs::gauge("snapshot.degraded_loads", s.degraded_loads);
        let l = self.locks.stats();
        aide_obs::gauge("snapshot.locks.acquisitions", l.acquisitions);
        aide_obs::gauge("snapshot.locks.contended", l.contended);
        aide_obs::gauge("snapshot.locks.flights", l.flights);
        aide_obs::gauge("snapshot.locks.piggybacked", l.piggybacked);
        aide_obs::gauge("snapshot.page_cache.entries", self.pages.len() as u64);
        aide_obs::gauge("snapshot.page_cache.bytes", self.pages.bytes() as u64);
    }
}

/// Page-cache key of the diff `from → to` of `url` under `opts`. The
/// options enter as a hash of their `Debug` form, so every field that
/// changes the rendering changes the key.
fn diff_key(url: &str, from: RevId, to: RevId, opts: &DiffOptions) -> String {
    let fp = fnv1a64(format!("{opts:?}").as_bytes());
    format!("d|{url}|{from}|{to}|{fp:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_rcs::repo::MemRepository;
    use aide_util::time::Duration;

    fn service() -> (Clock, SnapshotService<MemRepository>) {
        let clock = Clock::starting_at(Timestamp(1_000_000));
        let s = SnapshotService::new(MemRepository::new(), clock.clone(), 1 << 20);
        (clock, s)
    }

    fn fred() -> UserId {
        UserId::new("douglis@research.att.com")
    }

    fn tom() -> UserId {
        UserId::new("tball@research.att.com")
    }

    const URL: &str = "http://www.usenix.org/index.html";

    #[test]
    fn first_remember_creates_archive() {
        let (_, s) = service();
        let out = s
            .remember(&fred(), URL, "<HTML><P>v1 body.</HTML>")
            .unwrap();
        assert!(out.created_archive);
        assert!(out.stored_new_revision);
        assert_eq!(out.rev, RevId(1));
    }

    #[test]
    fn unchanged_remember_stores_nothing() {
        let (clock, s) = service();
        s.remember(&fred(), URL, "<HTML>same</HTML>").unwrap();
        clock.advance(Duration::days(1));
        let out = s.remember(&fred(), URL, "<HTML>same</HTML>").unwrap();
        assert!(!out.stored_new_revision);
        assert_eq!(out.rev, RevId(1));
        assert_eq!(s.snapshot_stats().unchanged_remembers, 1);
    }

    #[test]
    fn memento_clamps_and_revisions_list_oldest_first() {
        let (clock, s) = service();
        let t1 = clock.now();
        s.remember(&fred(), URL, "<HTML>v1</HTML>").unwrap();
        clock.advance(Duration::days(2));
        let t2 = clock.now();
        s.remember(&fred(), URL, "<HTML>v2</HTML>").unwrap();

        // Before the first revision: clamp to it (view_at would fail).
        let (rev, date) = s.closest_revision(URL, Timestamp::EPOCH).unwrap();
        assert_eq!((rev, date), (RevId(1), t1));
        let body = s.view(URL, rev).unwrap();
        assert!(body.contains("v1"));
        // After the last: clamp to the head.
        let (rev, date) = s.closest_revision(URL, t2 + Duration::days(30)).unwrap();
        assert_eq!((rev, date), (RevId(2), t2));
        // Closer to the first: the first wins.
        let (rev, _) = s.closest_revision(URL, t1 + Duration::hours(1)).unwrap();
        assert_eq!(rev, RevId(1));
        // Memento bodies are views, with the same BASE rewrite.
        assert!(body.contains("BASE"), "{body}");

        let metas = s.revisions(URL).unwrap();
        assert_eq!(metas.len(), 2);
        assert_eq!((metas[0].id, metas[0].date), (RevId(1), t1));
        assert_eq!((metas[1].id, metas[1].date), (RevId(2), t2));

        assert!(matches!(
            s.revisions("http://nowhere/x"),
            Err(ServiceError::NeverArchived(_))
        ));
        assert!(matches!(
            s.closest_revision("http://nowhere/x", t1),
            Err(ServiceError::NeverArchived(_))
        ));
    }

    #[test]
    fn two_users_share_one_archive() {
        let (clock, s) = service();
        s.remember(&fred(), URL, "<HTML>v1</HTML>").unwrap();
        clock.advance(Duration::hours(1));
        // Tom remembers the same unchanged page: no new revision, but
        // Tom's control file now records 1.1.
        let out = s.remember(&tom(), URL, "<HTML>v1</HTML>").unwrap();
        assert!(!out.stored_new_revision);
        assert_eq!(s.last_seen(&tom(), URL), Some(RevId(1)));
        assert_eq!(
            s.storage().unwrap().revisions,
            1,
            "saved at most once per change"
        );
    }

    #[test]
    fn diff_since_last_compares_and_advances() {
        let (clock, s) = service();
        s.remember(&fred(), URL, "<HTML><P>original sentence stays.</HTML>")
            .unwrap();
        clock.advance(Duration::days(3));
        let out = s
            .diff_since_last(
                &fred(),
                URL,
                "<HTML><P>original sentence stays. a new one arrives!</HTML>",
                &DiffOptions::default(),
            )
            .unwrap();
        assert_eq!(out.from, RevId(1));
        assert_eq!(out.to, RevId(2));
        assert!(out
            .html
            .contains("<STRONG><I>a new one arrives!</I></STRONG>"));
        assert!(
            out.html.contains("1.1"),
            "banner labels revisions: {}",
            out.html
        );
    }

    #[test]
    fn diff_without_history_errors() {
        let (_, s) = service();
        s.remember(&fred(), URL, "x").unwrap();
        let err = s
            .diff_since_last(&tom(), URL, "y", &DiffOptions::default())
            .unwrap_err();
        assert!(matches!(err, ServiceError::NoUserHistory { .. }));
    }

    #[test]
    fn diff_cache_shares_renderings() {
        let (clock, s) = service();
        s.remember(&fred(), URL, "<HTML><P>v1 text.</HTML>")
            .unwrap();
        clock.advance(Duration::hours(1));
        s.remember(&fred(), URL, "<HTML><P>v2 text!</HTML>")
            .unwrap();
        let opts = DiffOptions::default();
        let a = s.diff_versions(URL, RevId(1), RevId(2), &opts).unwrap();
        assert!(!a.from_cache);
        let b = s.diff_versions(URL, RevId(1), RevId(2), &opts).unwrap();
        assert!(b.from_cache);
        assert_eq!(a.html, b.html);
        assert_eq!(
            s.snapshot_stats().htmldiff_invocations,
            1,
            "HtmlDiff ran once"
        );
        assert_eq!(s.diff_cache_stats().hits(), 1);
    }

    #[test]
    fn content_key_distinguishes_revision_labels() {
        // Same bodies but different revision pairs render different
        // banners, so the content key must not conflate them.
        let (clock, s) = service();
        s.remember(&fred(), URL, "<P>a.").unwrap();
        clock.advance(Duration::hours(1));
        s.remember(&fred(), URL, "<P>b.").unwrap();
        clock.advance(Duration::hours(1));
        s.remember(&fred(), URL, "<P>a.").unwrap();
        let opts = DiffOptions::default();
        // 1→2 and 3→2 compare the same two bodies in opposite roles with
        // different labels; 1→2 and 1→2 would share. Use 1→2 then 3→2.
        let a = s.diff_versions(URL, RevId(1), RevId(2), &opts).unwrap();
        let b = s.diff_versions(URL, RevId(3), RevId(2), &opts).unwrap();
        assert!(!a.from_cache);
        assert!(!b.from_cache, "different labels must miss the content key");
        assert_eq!(s.snapshot_stats().htmldiff_invocations, 2);
    }

    #[test]
    fn different_options_bypass_cache() {
        let (clock, s) = service();
        s.remember(&fred(), URL, "<P>v1.").unwrap();
        clock.advance(Duration::hours(1));
        s.remember(&fred(), URL, "<P>v2.").unwrap();
        let merged = DiffOptions::default();
        let only = DiffOptions {
            presentation: aide_htmldiff::Presentation::OnlyDifferences,
            ..DiffOptions::default()
        };
        s.diff_versions(URL, RevId(1), RevId(2), &merged).unwrap();
        let b = s.diff_versions(URL, RevId(1), RevId(2), &only).unwrap();
        assert!(!b.from_cache);
        assert_eq!(s.snapshot_stats().htmldiff_invocations, 2);
    }

    #[test]
    fn diff_key_distinguishes_options() {
        let merged = DiffOptions::default();
        let only = DiffOptions {
            presentation: aide_htmldiff::Presentation::OnlyDifferences,
            ..DiffOptions::default()
        };
        let a = diff_key(URL, RevId(1), RevId(2), &merged);
        assert_eq!(a, diff_key(URL, RevId(1), RevId(2), &merged));
        assert_ne!(a, diff_key(URL, RevId(1), RevId(2), &only));
    }

    #[test]
    fn history_marks_seen_revisions() {
        let (clock, s) = service();
        s.remember(&fred(), URL, "v1").unwrap();
        clock.advance(Duration::days(1));
        s.remember(&tom(), URL, "v2").unwrap();
        clock.advance(Duration::days(1));
        s.remember(&fred(), URL, "v3").unwrap();
        let h = s.history(&fred(), URL).unwrap();
        // Newest first: 1.3 (seen), 1.2 (not seen by fred), 1.1 (seen).
        assert_eq!(h.len(), 3);
        assert_eq!((h[0].0.id, h[0].1), (RevId(3), true));
        assert_eq!((h[1].0.id, h[1].1), (RevId(2), false));
        assert_eq!((h[2].0.id, h[2].1), (RevId(1), true));
    }

    #[test]
    fn view_inserts_base() {
        let (_, s) = service();
        s.remember(
            &fred(),
            URL,
            "<HTML><HEAD></HEAD><BODY><A HREF=\"rel.html\">x</A></BODY></HTML>",
        )
        .unwrap();
        let body = s.view(URL, RevId(1)).unwrap();
        assert!(
            body.contains(r#"<BASE HREF="http://www.usenix.org/index.html">"#),
            "{body}"
        );
    }

    #[test]
    fn view_at_date() {
        let (clock, s) = service();
        s.remember(&fred(), URL, "v1").unwrap();
        let t1 = clock.now();
        clock.advance(Duration::days(7));
        s.remember(&fred(), URL, "v2").unwrap();
        let (rev, body) = s.view_at(URL, t1 + Duration::days(1)).unwrap();
        assert_eq!(rev, RevId(1));
        assert!(body.contains("v1"));
    }

    #[test]
    fn errors_for_unknown_urls() {
        let (_, s) = service();
        assert!(matches!(
            s.history(&fred(), "http://never/"),
            Err(ServiceError::NeverArchived(_))
        ));
        assert!(matches!(
            s.view("http://never/", RevId(1)),
            Err(ServiceError::NeverArchived(_))
        ));
        assert_eq!(s.head("http://never/").unwrap(), None);
    }

    #[test]
    fn admission_control_limits_simultaneous_operations() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let clock = Clock::starting_at(Timestamp(1_000_000));
        let s = Arc::new(SnapshotService::new(
            MemRepository::new(),
            clock.clone(),
            1 << 20,
        ));
        // A saturated service (cap 0) rejects everything, deterministically.
        s.set_max_concurrent(Some(0));
        assert!(matches!(
            s.remember(&UserId::new("u@x"), "http://h/p", "x"),
            Err(ServiceError::Overloaded { limit: 0 })
        ));

        // Under a real cap, concurrent traffic sees only Ok or Overloaded
        // (never a panic or corruption), and the in-flight count returns
        // to zero so subsequent requests are admitted.
        s.set_max_concurrent(Some(2));
        let outcomes = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 0..8 {
            let s = s.clone();
            let outcomes = outcomes.clone();
            handles.push(std::thread::spawn(move || {
                for k in 0..10 {
                    match s.remember(
                        &UserId::new("u@x"),
                        &format!("http://h{i}/p{k}"),
                        &format!("body {i} {k}"),
                    ) {
                        Ok(_) | Err(ServiceError::Overloaded { .. }) => {
                            outcomes.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(e) => panic!("unexpected error under load: {e}"),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(outcomes.load(Ordering::SeqCst), 80);
        // After the storm, the cap can be lifted and service resumes.
        s.set_max_concurrent(None);
        assert!(s
            .remember(&UserId::new("u@x"), "http://after/", "x")
            .is_ok());
    }

    #[test]
    fn cas_admission_never_penalizes_admitted_callers() {
        // With a cap of 1, a rejected caller must not consume the slot:
        // a subsequent caller is admitted immediately (the old
        // fetch_add-then-check gate could transiently over-count).
        let (_, s) = service();
        s.set_max_concurrent(Some(1));
        for k in 0..20 {
            s.remember(&fred(), &format!("http://seq/{k}"), "body")
                .unwrap();
        }
        assert_eq!(s.snapshot_stats().remembers, 20);
    }

    #[test]
    fn concurrent_remembers_of_distinct_urls() {
        use std::sync::Arc;
        let clock = Clock::starting_at(Timestamp(1_000_000));
        let s = Arc::new(SnapshotService::new(
            MemRepository::new(),
            clock.clone(),
            1 << 20,
        ));
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                let user = UserId::new(&format!("user{t}@x"));
                for k in 0..10 {
                    let url = format!("http://h{t}/p{k}");
                    let out = s.remember(&user, &url, &format!("body {t} {k}")).unwrap();
                    assert!(out.created_archive);
                    assert_eq!(s.last_seen(&user, &url), Some(RevId(1)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.storage().unwrap().archives, 80);
        assert_eq!(s.snapshot_stats().remembers, 80);
        // Distinct keys: the named locks never collided.
        assert_eq!(s.locks().stats().contended, 0);
    }

    /// A repository stub whose `load` reports designated keys as
    /// corrupt — the shape `DiskRepository` produces when a record's
    /// checksum no longer matches its bytes.
    struct CorruptingRepo {
        inner: MemRepository,
        poisoned: RwLock<std::collections::BTreeSet<String>>,
    }

    impl CorruptingRepo {
        fn new() -> CorruptingRepo {
            CorruptingRepo {
                inner: MemRepository::new(),
                poisoned: RwLock::new(Default::default()),
            }
        }

        fn poison(&self, key: &str) {
            self.poisoned.write().insert(key.to_string());
        }
    }

    impl Repository for CorruptingRepo {
        fn load(&self, key: &str) -> Result<Option<std::sync::Arc<Archive>>, RepoError> {
            if self.poisoned.read().contains(key) {
                return Err(RepoError::corrupt(key, "checksum mismatch (stubbed)"));
            }
            self.inner.load(key)
        }
        fn store(&self, key: &str, archive: &Archive) -> Result<(), RepoError> {
            // Storing fresh content over a damaged record heals it.
            self.poisoned.write().remove(key);
            self.inner.store(key, archive)
        }
        fn remove(&self, key: &str) -> Result<bool, RepoError> {
            self.inner.remove(key)
        }
        fn keys(&self) -> Result<Vec<String>, RepoError> {
            self.inner.keys()
        }
        fn stats(&self) -> Result<StorageStats, RepoError> {
            self.inner.stats()
        }
        fn sizes(&self) -> Result<Vec<(String, usize)>, RepoError> {
            self.inner.sizes()
        }
    }

    #[test]
    fn corrupt_archive_degrades_instead_of_failing() {
        let clock = Clock::starting_at(Timestamp(1_000_000));
        let repo = CorruptingRepo::new();
        let s = SnapshotService::new(repo, clock.clone(), 1 << 20);
        s.remember(&fred(), URL, "<P>good body.").unwrap();
        s.remember(&fred(), "http://other/", "<P>unrelated.")
            .unwrap();

        // The record rots on disk.
        s.repo.poison(URL);

        // Reads degrade to "not archived" — the request completes with a
        // well-defined answer instead of a storage error...
        assert!(matches!(
            s.history(&fred(), URL),
            Err(ServiceError::NeverArchived(_))
        ));
        assert_eq!(s.head(URL).unwrap(), None);
        // ...while untouched URLs are unaffected.
        assert_eq!(s.history(&fred(), "http://other/").unwrap().len(), 1);
        let degraded = s.snapshot_stats().degraded_loads;
        assert!(degraded >= 2, "degradations counted: {degraded}");

        // A fresh Remember self-heals: it sees "no archive", creates a
        // new one, and the URL serves again.
        let out = s.remember(&fred(), URL, "<P>good body.").unwrap();
        assert!(out.created_archive, "healed by storing a fresh archive");
        assert_eq!(s.history(&fred(), URL).unwrap().len(), 1);
        assert_eq!(s.head(URL).unwrap().map(|(r, _)| r), Some(RevId(1)));
    }

    #[test]
    fn storage_accounting() {
        let (clock, s) = service();
        s.remember(&fred(), "http://a/", &"line of text\n".repeat(50))
            .unwrap();
        clock.advance(Duration::hours(1));
        s.remember(&fred(), "http://b/", &"other content\n".repeat(500))
            .unwrap();
        let stats = s.storage().unwrap();
        assert_eq!(stats.archives, 2);
        let by_url = s.storage_by_url().unwrap();
        assert_eq!(by_url[0].0, "http://b/", "largest first");
    }
}
