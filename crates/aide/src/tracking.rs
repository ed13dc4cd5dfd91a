//! Server-side URL tracking (§8.3).
//!
//! "Regardless of how many users have registered an interest in a page,
//! it need only be checked once; if changed, the new version could be
//! saved automatically. Then a user could request a list of all pages
//! that have been saved away, and get an indication of which pages have
//! changed since they were saved by the user." The hub-page extension is
//! here too: "following links recursively is inappropriate for tools run
//! by every user individually but would be feasible for a centralized
//! service" — Virtual Library pages and collections of related pages.

use crate::fetcher::{fetch_page, FetchError};
use aide_htmlkit::lexer::lex;
use aide_htmlkit::links::extract_followable;
use aide_htmlkit::url::Url;
use aide_rcs::repo::{MemRepository, Repository};
use aide_simweb::net::Web;
use aide_snapshot::service::{ServiceError, SnapshotService, UserId};
use aide_util::sync::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Result of one polling sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PollSummary {
    /// URLs examined.
    pub checked: usize,
    /// URLs whose content changed (new revision archived).
    pub changed: usize,
    /// URLs archived for the first time.
    pub new_archives: usize,
    /// URLs that failed to fetch.
    pub errors: usize,
}

/// A page a user would see on their server-side "what's new" list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackedStatus {
    /// The URL.
    pub url: String,
    /// Head revision in the archive.
    pub head: aide_rcs::archive::RevId,
    /// True if the user has not seen the head revision.
    pub changed_for_user: bool,
}

/// The centralized tracker, generic over the snapshot service's
/// storage backend.
pub struct ServerTracker<R: Repository = MemRepository> {
    web: Web,
    snapshot: Arc<SnapshotService<R>>,
    registrations: Mutex<BTreeMap<String, BTreeSet<UserId>>>,
    daemon: UserId,
}

impl<R: Repository> ServerTracker<R> {
    /// Creates a tracker writing into `snapshot`.
    pub fn new(web: Web, snapshot: Arc<SnapshotService<R>>) -> ServerTracker<R> {
        ServerTracker {
            web,
            snapshot,
            registrations: Mutex::new(BTreeMap::new()),
            daemon: UserId::new("aide-daemon@snapshot"),
        }
    }

    /// Registers `user`'s interest in `url`.
    pub fn register(&self, user: &UserId, url: &str) {
        self.registrations
            .lock()
            .entry(url.to_string())
            .or_default()
            .insert(user.clone());
    }

    /// Registers a hub page and, recursively to `depth`, the pages it
    /// links to. Returns every URL registered (the hub first).
    ///
    /// With `same_host_only`, only links back into the hub's host are
    /// followed — the "collections of related pages" case; without it,
    /// external links are followed too — the "Virtual Library" case.
    pub fn register_hub(
        &self,
        user: &UserId,
        hub_url: &str,
        depth: usize,
        same_host_only: bool,
    ) -> Result<Vec<String>, FetchError> {
        let mut registered = Vec::new();
        let mut frontier = vec![(hub_url.to_string(), 0usize)];
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let hub_host = Url::parse(hub_url).map(|u| u.host).unwrap_or_default();
        while let Some((url, d)) = frontier.pop() {
            if !seen.insert(url.clone()) {
                continue;
            }
            self.register(user, &url);
            registered.push(url.clone());
            if d >= depth {
                continue;
            }
            // Follow the page's links.
            let page = match fetch_page(&self.web, None, &url) {
                Ok(p) => p,
                Err(_) if d > 0 => continue, // broken leaf links are tolerated
                Err(e) => return Err(e),
            };
            let base = match Url::parse(&page.final_url) {
                Ok(b) => b,
                Err(_) => continue,
            };
            for link in extract_followable(&lex(&page.body), &base) {
                if same_host_only && link.host != hub_host {
                    continue;
                }
                frontier.push((link.to_string(), d + 1));
            }
        }
        Ok(registered)
    }

    /// All registered URLs, sorted.
    pub fn registered_urls(&self) -> Vec<String> {
        self.registrations.lock().keys().cloned().collect()
    }

    /// Number of users interested in `url`.
    pub fn interest_count(&self, url: &str) -> usize {
        self.registrations
            .lock()
            .get(url)
            .map(|s| s.len())
            .unwrap_or(0)
    }

    /// One sweep: each registered URL is fetched **once** and archived if
    /// changed, no matter how many users registered it.
    pub fn poll_all(&self) -> PollSummary {
        let urls = self.registered_urls();
        let mut summary = PollSummary::default();
        for url in urls {
            summary.checked += 1;
            let page = match fetch_page(&self.web, None, &url) {
                Ok(p) => p,
                Err(_) => {
                    summary.errors += 1;
                    continue;
                }
            };
            match self.snapshot.remember(&self.daemon, &url, &page.body) {
                Ok(out) => {
                    if out.created_archive {
                        summary.new_archives += 1;
                    } else if out.stored_new_revision {
                        summary.changed += 1;
                    }
                }
                Err(_) => summary.errors += 1,
            }
        }
        summary
    }

    /// The user's server-side report: every URL they registered, with
    /// whether its head revision postdates what they have seen.
    pub fn whats_new(&self, user: &UserId) -> Result<Vec<TrackedStatus>, ServiceError> {
        let regs = self.registrations.lock();
        let mut out = Vec::new();
        for (url, users) in regs.iter() {
            if !users.contains(user) {
                continue;
            }
            let Some((head, _)) = self.snapshot.head(url)? else {
                continue; // not yet polled
            };
            let seen = self.snapshot.last_seen(user, url);
            out.push(TrackedStatus {
                url: url.clone(),
                head,
                changed_for_user: seen != Some(head),
            });
        }
        Ok(out)
    }

    /// Marks that `user` has now seen the head of `url` (they viewed it
    /// through the service). Re-remembering the pristine head text
    /// records the revision in the user's control file without creating a
    /// new revision.
    pub fn mark_seen(&self, user: &UserId, url: &str) -> Result<(), ServiceError> {
        if let Some((head, _)) = self.snapshot.head(url)? {
            let pristine = self.snapshot.revision_text(url, head)?;
            self.snapshot.remember(user, url, &pristine)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_snapshot::service::UserId;
    use aide_util::time::{Clock, Timestamp};

    fn setup() -> (Web, ServerTracker) {
        let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 10, 1, 0, 0, 0));
        let web = Web::new(clock.clone());
        web.set_page("http://a/1.html", "<HTML>one</HTML>", Timestamp(100))
            .unwrap();
        web.set_page("http://a/2.html", "<HTML>two</HTML>", Timestamp(100))
            .unwrap();
        let snapshot = Arc::new(SnapshotService::new(MemRepository::new(), clock, 1 << 20));
        let tracker = ServerTracker::new(web.clone(), snapshot);
        (web, tracker)
    }

    fn alice() -> UserId {
        UserId::new("alice@x")
    }

    fn bob() -> UserId {
        UserId::new("bob@x")
    }

    #[test]
    fn one_check_per_url_regardless_of_users() {
        let (web, t) = setup();
        t.register(&alice(), "http://a/1.html");
        t.register(&bob(), "http://a/1.html");
        assert_eq!(t.interest_count("http://a/1.html"), 2);
        web.reset_stats();
        let s = t.poll_all();
        assert_eq!(s.checked, 1);
        assert_eq!(s.new_archives, 1);
        assert_eq!(web.stats().gets, 1, "one GET for two interested users");
    }

    #[test]
    fn changed_pages_archived_automatically() {
        let (web, t) = setup();
        t.register(&alice(), "http://a/1.html");
        t.poll_all();
        web.touch_page(
            "http://a/1.html",
            "<HTML>one, updated</HTML>",
            Timestamp(90_000_000),
        )
        .unwrap();
        let s = t.poll_all();
        assert_eq!(s.changed, 1);
        // Two revisions now exist.
        let urls = t.snapshot.archived_urls().unwrap();
        assert_eq!(urls, vec!["http://a/1.html"]);
    }

    #[test]
    fn unchanged_pages_not_rearchived() {
        let (_, t) = setup();
        t.register(&alice(), "http://a/1.html");
        t.poll_all();
        let s = t.poll_all();
        assert_eq!(s.changed, 0);
        assert_eq!(s.new_archives, 0);
    }

    #[test]
    fn whats_new_per_user() {
        let (web, t) = setup();
        t.register(&alice(), "http://a/1.html");
        t.poll_all();
        // Alice has never seen it: changed for her.
        let list = t.whats_new(&alice()).unwrap();
        assert_eq!(list.len(), 1);
        assert!(list[0].changed_for_user);
        // Alice views it; now it is not new to her.
        t.mark_seen(&alice(), "http://a/1.html").unwrap();
        let list = t.whats_new(&alice()).unwrap();
        assert!(!list[0].changed_for_user);
        // Page changes again: new to Alice once re-polled.
        web.touch_page("http://a/1.html", "<HTML>v3</HTML>", Timestamp(95_000_000))
            .unwrap();
        t.poll_all();
        let list = t.whats_new(&alice()).unwrap();
        assert!(list[0].changed_for_user);
    }

    #[test]
    fn errors_counted() {
        let (_, t) = setup();
        t.register(&alice(), "http://a/missing.html");
        let s = t.poll_all();
        assert_eq!(s.errors, 1);
    }

    #[test]
    fn hub_registration_follows_links() {
        let (web, t) = setup();
        web.set_page(
            "http://hub/index.html",
            r#"<HTML><UL>
               <LI><A HREF="/a.html">A</A>
               <LI><A HREF="/b.html">B</A>
               <LI><A HREF="http://a/1.html">external</A>
               </UL></HTML>"#,
            Timestamp(100),
        )
        .unwrap();
        web.set_page("http://hub/a.html", "<HTML>a</HTML>", Timestamp(100))
            .unwrap();
        web.set_page("http://hub/b.html", "<HTML>b</HTML>", Timestamp(100))
            .unwrap();

        let regs = t
            .register_hub(&alice(), "http://hub/index.html", 1, true)
            .unwrap();
        assert_eq!(regs.len(), 3, "hub + two same-host links: {regs:?}");
        assert!(
            !regs.contains(&"http://a/1.html".to_string()),
            "external excluded"
        );

        let all = t
            .register_hub(&bob(), "http://hub/index.html", 1, false)
            .unwrap();
        assert_eq!(
            all.len(),
            4,
            "virtual-library mode follows external links too"
        );
    }

    #[test]
    fn hub_depth_limits_recursion() {
        let (web, t) = setup();
        web.set_page("http://d/0.html", r#"<A HREF="1.html">n</A>"#, Timestamp(1))
            .unwrap();
        web.set_page("http://d/1.html", r#"<A HREF="2.html">n</A>"#, Timestamp(1))
            .unwrap();
        web.set_page("http://d/2.html", r#"<A HREF="3.html">n</A>"#, Timestamp(1))
            .unwrap();
        web.set_page("http://d/3.html", "end", Timestamp(1))
            .unwrap();
        let regs = t
            .register_hub(&alice(), "http://d/0.html", 2, true)
            .unwrap();
        assert_eq!(regs.len(), 3, "depth 2 stops at 2.html: {regs:?}");
    }

    #[test]
    fn hub_cycles_terminate() {
        let (web, t) = setup();
        web.set_page("http://c/x.html", r#"<A HREF="y.html">n</A>"#, Timestamp(1))
            .unwrap();
        web.set_page("http://c/y.html", r#"<A HREF="x.html">n</A>"#, Timestamp(1))
            .unwrap();
        let regs = t
            .register_hub(&alice(), "http://c/x.html", 10, true)
            .unwrap();
        assert_eq!(regs.len(), 2);
    }
}
