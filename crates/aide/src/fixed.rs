//! Fixed-page collections (§8.2).
//!
//! "AIDE can provide a community of users with specialized 'What's New'
//! pages that report when any of a fixed set of URLs has been changed.
//! Rather than having users specify when to archive a new version, each
//! page is automatically archived as soon as a change is detected. Then
//! users can easily see the most recent changes to a page using HtmlDiff,
//! and they can also use the History feature to see earlier versions
//! they may have missed."

use crate::fetcher::fetch_page;
use aide_htmlkit::entity::encode_entities;
use aide_rcs::archive::RevId;
use aide_rcs::repo::{MemRepository, Repository};
use aide_simweb::net::Web;
use aide_snapshot::service::{ServiceError, SnapshotService, UserId};
use aide_util::sync::Mutex;
use aide_util::time::Timestamp;
use std::sync::Arc;

/// One entry on the community "What's New" page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionEntry {
    /// The URL.
    pub url: String,
    /// Display title.
    pub title: String,
    /// Head revision, if archived yet.
    pub head: Option<RevId>,
    /// When the head revision was archived.
    pub last_change: Option<Timestamp>,
    /// Total revisions archived.
    pub revisions: usize,
}

/// A named, fixed set of automatically archived URLs, generic over
/// the snapshot service's storage backend.
pub struct FixedCollection<R: Repository = MemRepository> {
    /// The collection's display name.
    pub name: String,
    web: Web,
    snapshot: Arc<SnapshotService<R>>,
    members: Mutex<Vec<(String, String)>>, // (url, title)
    archivist: UserId,
}

impl<R: Repository> FixedCollection<R> {
    /// Creates a collection writing into `snapshot`.
    pub fn new(name: &str, web: Web, snapshot: Arc<SnapshotService<R>>) -> FixedCollection<R> {
        FixedCollection {
            name: name.to_string(),
            web,
            snapshot,
            members: Mutex::new(Vec::new()),
            archivist: UserId::new(&format!("aide-collection-{name}@snapshot")),
        }
    }

    /// Adds a member page.
    pub fn add(&self, title: &str, url: &str) {
        let mut m = self.members.lock();
        if !m.iter().any(|(u, _)| u == url) {
            m.push((url.to_string(), title.to_string()));
        }
    }

    /// Number of member pages.
    pub fn len(&self) -> usize {
        self.members.lock().len()
    }

    /// True if no members.
    pub fn is_empty(&self) -> bool {
        self.members.lock().is_empty()
    }

    /// Polls every member, archiving any change. Returns how many new
    /// revisions were stored.
    pub fn poll(&self) -> usize {
        let members = self.members.lock().clone();
        let mut stored = 0;
        for (url, _) in &members {
            if let Ok(page) = fetch_page(&self.web, None, url) {
                if let Ok(out) = self.snapshot.remember(&self.archivist, url, &page.body) {
                    if out.stored_new_revision {
                        stored += 1;
                    }
                }
            }
        }
        stored
    }

    /// Collection status, most recently changed first.
    pub fn entries(&self) -> Result<Vec<CollectionEntry>, ServiceError> {
        let members = self.members.lock().clone();
        let mut out = Vec::new();
        for (url, title) in members {
            let head = self.snapshot.head(&url)?;
            let revisions = match self.snapshot.history(&self.archivist, &url) {
                Ok(h) => h.len(),
                Err(ServiceError::NeverArchived(_)) => 0,
                Err(e) => return Err(e),
            };
            out.push(CollectionEntry {
                url,
                title,
                head: head.map(|(r, _)| r),
                last_change: head.map(|(_, t)| t),
                revisions,
            });
        }
        out.sort_by_key(|e| std::cmp::Reverse(e.last_change));
        Ok(out)
    }

    /// Renders the community "What's New" page with Diff and History
    /// links for every member.
    pub fn render_whats_new(&self, cgi_base: &str) -> Result<String, ServiceError> {
        let entries = self.entries()?;
        let mut out = format!(
            "<HTML><HEAD><TITLE>What's New: {name}</TITLE></HEAD><BODY>\n\
             <H1>What's New in {name}</H1>\n<UL>\n",
            name = encode_entities(&self.name)
        );
        for e in entries {
            let when = e
                .last_change
                .map(|t| t.to_http_date())
                .unwrap_or_else(|| "never archived".to_string());
            let diff_link = match e.head {
                Some(head) if head.0 > 1 => format!(
                    " [<A HREF=\"{cgi_base}?op=rcsdiff&url={}&from=1.{}&to={}\">Diff</A>]",
                    e.url,
                    head.0 - 1,
                    head
                ),
                _ => String::new(),
            };
            out.push_str(&format!(
                "<LI><A HREF=\"{}\">{}</A> &#183; {} &#183; {} version{}{}\
                 [<A HREF=\"{cgi_base}?op=rlog&url={}\">History</A>]\n",
                e.url,
                encode_entities(&e.title),
                when,
                e.revisions,
                if e.revisions == 1 { " " } else { "s " },
                diff_link,
                e.url,
            ));
        }
        out.push_str("</UL>\n</BODY></HTML>\n");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_util::time::{Clock, Duration};

    fn setup() -> (Web, FixedCollection) {
        let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 11, 1, 0, 0, 0));
        let web = Web::new(clock.clone());
        web.set_page(
            "http://docs/guide.html",
            "<HTML>guide v1</HTML>",
            Timestamp(100),
        )
        .unwrap();
        web.set_page(
            "http://docs/faq.html",
            "<HTML>faq v1</HTML>",
            Timestamp(100),
        )
        .unwrap();
        let snapshot = Arc::new(SnapshotService::new(MemRepository::new(), clock, 1 << 20));
        let c = FixedCollection::new("Project Docs", web.clone(), snapshot);
        c.add("The Guide", "http://docs/guide.html");
        c.add("The FAQ", "http://docs/faq.html");
        (web, c)
    }

    #[test]
    fn first_poll_archives_everything() {
        let (_, c) = setup();
        assert_eq!(c.poll(), 2);
        let entries = c.entries().unwrap();
        assert!(entries.iter().all(|e| e.head == Some(RevId(1))));
    }

    #[test]
    fn changes_archived_automatically() {
        let (web, c) = setup();
        c.poll();
        web.clock().advance(Duration::days(1));
        web.touch_page(
            "http://docs/guide.html",
            "<HTML>guide v2</HTML>",
            web.clock().now(),
        )
        .unwrap();
        assert_eq!(c.poll(), 1, "only the changed page re-archived");
        let entries = c.entries().unwrap();
        let guide = entries.iter().find(|e| e.url.contains("guide")).unwrap();
        assert_eq!(guide.head, Some(RevId(2)));
        assert_eq!(guide.revisions, 2);
    }

    #[test]
    fn entries_sorted_most_recent_first() {
        let (web, c) = setup();
        c.poll();
        web.clock().advance(Duration::days(2));
        web.touch_page(
            "http://docs/faq.html",
            "<HTML>faq v2</HTML>",
            web.clock().now(),
        )
        .unwrap();
        c.poll();
        let entries = c.entries().unwrap();
        assert!(entries[0].url.contains("faq"), "freshest change first");
    }

    #[test]
    fn whats_new_page_links() {
        let (web, c) = setup();
        c.poll();
        web.clock().advance(Duration::days(1));
        web.touch_page(
            "http://docs/guide.html",
            "<HTML>guide v2</HTML>",
            web.clock().now(),
        )
        .unwrap();
        c.poll();
        let html = c.render_whats_new("/cgi-bin/snapshot").unwrap();
        assert!(html.contains("What's New in Project Docs"));
        assert!(html.contains("op=rcsdiff&url=http://docs/guide.html&from=1.1&to=1.2"));
        assert!(html.contains("op=rlog"));
        assert!(html.contains("The FAQ"));
    }

    #[test]
    fn duplicate_add_ignored() {
        let (_, c) = setup();
        c.add("Dup", "http://docs/guide.html");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn unreachable_members_skipped() {
        let (_, c) = setup();
        c.add("Ghost", "http://gone-host/x.html");
        assert_eq!(c.poll(), 2, "reachable members still archived");
        let entries = c.entries().unwrap();
        let ghost = entries
            .iter()
            .find(|e| e.url.contains("gone-host"))
            .unwrap();
        assert_eq!(ghost.head, None);
        assert_eq!(ghost.revisions, 0);
    }
}
