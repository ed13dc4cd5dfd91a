//! Recursive HtmlDiff (§5.3 / §8.3).
//!
//! HtmlDiff itself "does not... invoke itself recursively on other
//! referenced pages" (§5.3), but the centralized-tracking section
//! proposes exactly that: for a hub page, "HtmlDiff could in turn be
//! invoked recursively" (§8.3) so that one request shows what changed on
//! the hub *and* on the pages it points to. This module implements the
//! proposal on top of the snapshot service: diff the hub since the
//! user's last visit, then diff each followable link, and merge
//! everything into a single sectioned report.

use crate::fetcher::{fetch_page, FetchError};
use aide_htmldiff::Options as DiffOptions;
use aide_htmlkit::lexer::lex;
use aide_htmlkit::links::extract_followable;
use aide_htmlkit::url::Url;
use aide_rcs::repo::{MemRepository, Repository};
use aide_simweb::net::Web;
use aide_snapshot::service::{ServiceError, SnapshotService, UserId};
use std::sync::Arc;

/// What happened to one page in the recursive sweep.
#[derive(Debug, Clone)]
pub enum PageOutcome {
    /// Differences rendered (the page had prior history for this user).
    Diffed {
        /// The merged-page HTML.
        html: String,
        /// Whether any content actually changed.
        changed: bool,
    },
    /// First encounter: a baseline snapshot was stored; nothing to diff.
    Baseline,
    /// The page could not be fetched.
    Unreachable(String),
}

/// The combined result.
#[derive(Debug, Clone)]
pub struct RecursiveDiff {
    /// The hub's outcome.
    pub hub: (String, PageOutcome),
    /// Linked pages, in link order.
    pub children: Vec<(String, PageOutcome)>,
}

impl RecursiveDiff {
    /// Pages (hub included) whose content changed.
    pub fn changed_urls(&self) -> Vec<&str> {
        std::iter::once(&self.hub)
            .chain(self.children.iter())
            .filter_map(|(url, o)| match o {
                PageOutcome::Diffed { changed: true, .. } => Some(url.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Renders the combined sectioned report.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "<HTML><HEAD><TITLE>Recursive HtmlDiff</TITLE></HEAD><BODY>\n<H1>Recursive differences</H1>\n",
        );
        for (url, outcome) in std::iter::once(&self.hub).chain(self.children.iter()) {
            out.push_str(&format!("<H2><A HREF=\"{url}\">{url}</A></H2>\n"));
            match outcome {
                PageOutcome::Diffed { html, changed } => {
                    if *changed {
                        out.push_str(html);
                    } else {
                        out.push_str("<P>No changes since your last visit.\n");
                    }
                }
                PageOutcome::Baseline => {
                    out.push_str("<P>First visit: a baseline snapshot was stored.\n");
                }
                PageOutcome::Unreachable(e) => {
                    out.push_str(&format!(
                        "<P><B>Unreachable:</B> {}\n",
                        aide_htmlkit::entity::encode_entities(e)
                    ));
                }
            }
        }
        out.push_str("</BODY></HTML>\n");
        out
    }
}

/// The recursive differ, generic over the snapshot service's storage
/// backend.
pub struct RecursiveDiffer<R: Repository = MemRepository> {
    web: Web,
    snapshot: Arc<SnapshotService<R>>,
}

impl<R: Repository> RecursiveDiffer<R> {
    /// Creates a differ over `web` and `snapshot`.
    pub fn new(web: Web, snapshot: Arc<SnapshotService<R>>) -> RecursiveDiffer<R> {
        RecursiveDiffer { web, snapshot }
    }

    /// Diffs `hub_url` and every page it links to (one level deep — the
    /// Virtual Library / collection cases §8.3 names), on behalf of
    /// `user`. The hub must be fetchable; broken links degrade to
    /// [`PageOutcome::Unreachable`] entries.
    pub fn diff_hub(
        &self,
        user: &UserId,
        hub_url: &str,
        same_host_only: bool,
        opts: &DiffOptions,
    ) -> Result<RecursiveDiff, FetchError> {
        let hub_page = fetch_page(&self.web, None, hub_url)?;
        let hub_outcome = self.diff_one(user, hub_url, &hub_page.body, opts);

        // Links come from the *current* hub content.
        let mut children = Vec::new();
        if let Ok(base) = Url::parse(&hub_page.final_url) {
            let hub_host = base.host.clone();
            for link in extract_followable(&lex(&hub_page.body), &base) {
                if same_host_only && link.host != hub_host {
                    continue;
                }
                let url = link.to_string();
                if url == hub_url {
                    continue;
                }
                let outcome = match fetch_page(&self.web, None, &url) {
                    Ok(page) => self.diff_one(user, &url, &page.body, opts),
                    Err(e) => PageOutcome::Unreachable(e.to_string()),
                };
                children.push((url, outcome));
            }
        }
        Ok(RecursiveDiff {
            hub: (hub_url.to_string(), hub_outcome),
            children,
        })
    }

    fn diff_one(&self, user: &UserId, url: &str, body: &str, opts: &DiffOptions) -> PageOutcome {
        match self.snapshot.diff_since_last(user, url, body, opts) {
            Ok(out) => PageOutcome::Diffed {
                changed: out.from != out.to,
                html: out.html,
            },
            Err(ServiceError::NoUserHistory { .. }) => {
                // First encounter: store the baseline.
                match self.snapshot.remember(user, url, body) {
                    Ok(_) => PageOutcome::Baseline,
                    Err(e) => PageOutcome::Unreachable(e.to_string()),
                }
            }
            Err(e) => PageOutcome::Unreachable(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_util::time::{Clock, Duration, Timestamp};

    fn setup() -> (Web, RecursiveDiffer, UserId) {
        let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 11, 1, 0, 0, 0));
        let web = Web::new(clock.clone());
        web.set_page(
            "http://hub/index.html",
            r#"<HTML><H1>Hub</H1><UL>
               <LI><A HREF="/a.html">A</A>
               <LI><A HREF="/b.html">B</A>
               <LI><A HREF="http://elsewhere/x.html">external</A>
               </UL></HTML>"#,
            Timestamp(100),
        )
        .unwrap();
        web.set_page(
            "http://hub/a.html",
            "<HTML><P>page a v1.</HTML>",
            Timestamp(100),
        )
        .unwrap();
        web.set_page(
            "http://hub/b.html",
            "<HTML><P>page b v1.</HTML>",
            Timestamp(100),
        )
        .unwrap();
        web.set_page(
            "http://elsewhere/x.html",
            "<HTML><P>external v1.</HTML>",
            Timestamp(100),
        )
        .unwrap();
        let snapshot = Arc::new(SnapshotService::new(MemRepository::new(), clock, 1 << 20));
        (
            web.clone(),
            RecursiveDiffer::new(web, snapshot),
            UserId::new("u@x"),
        )
    }

    #[test]
    fn first_sweep_is_all_baselines() {
        let (_, differ, user) = setup();
        let r = differ
            .diff_hub(
                &user,
                "http://hub/index.html",
                true,
                &DiffOptions::default(),
            )
            .unwrap();
        assert!(matches!(r.hub.1, PageOutcome::Baseline));
        assert_eq!(r.children.len(), 2, "same-host only");
        assert!(r
            .children
            .iter()
            .all(|(_, o)| matches!(o, PageOutcome::Baseline)));
        assert!(r.changed_urls().is_empty());
    }

    #[test]
    fn child_change_detected_on_second_sweep() {
        let (web, differ, user) = setup();
        differ
            .diff_hub(
                &user,
                "http://hub/index.html",
                true,
                &DiffOptions::default(),
            )
            .unwrap();
        web.clock().advance(Duration::days(1));
        web.touch_page(
            "http://hub/b.html",
            "<HTML><P>page b v2, edited!</HTML>",
            web.clock().now(),
        )
        .unwrap();
        let r = differ
            .diff_hub(
                &user,
                "http://hub/index.html",
                true,
                &DiffOptions::default(),
            )
            .unwrap();
        assert_eq!(r.changed_urls(), vec!["http://hub/b.html"]);
        let html = r.render();
        assert!(html.contains("No changes since your last visit."));
        assert!(html.contains("page b v2, edited!"));
    }

    #[test]
    fn external_links_included_when_requested() {
        let (_, differ, user) = setup();
        let r = differ
            .diff_hub(
                &user,
                "http://hub/index.html",
                false,
                &DiffOptions::default(),
            )
            .unwrap();
        assert_eq!(r.children.len(), 3);
        assert!(r
            .children
            .iter()
            .any(|(u, _)| u == "http://elsewhere/x.html"));
    }

    #[test]
    fn broken_child_links_degrade() {
        let (web, differ, user) = setup();
        web.set_page(
            "http://hub/index.html",
            r#"<A HREF="/a.html">A</A> <A HREF="http://dead-host/x">dead</A>"#,
            Timestamp(200),
        )
        .unwrap();
        let r = differ
            .diff_hub(
                &user,
                "http://hub/index.html",
                false,
                &DiffOptions::default(),
            )
            .unwrap();
        let dead = r
            .children
            .iter()
            .find(|(u, _)| u.contains("dead-host"))
            .unwrap();
        assert!(matches!(&dead.1, PageOutcome::Unreachable(_)));
        let html = r.render();
        assert!(html.contains("Unreachable:"));
    }

    #[test]
    fn unreachable_hub_is_an_error() {
        let (_, differ, user) = setup();
        assert!(differ
            .diff_hub(&user, "http://gone/hub.html", true, &DiffOptions::default())
            .is_err());
    }

    #[test]
    fn hub_changes_also_reported() {
        let (web, differ, user) = setup();
        differ
            .diff_hub(
                &user,
                "http://hub/index.html",
                true,
                &DiffOptions::default(),
            )
            .unwrap();
        web.clock().advance(Duration::days(1));
        web.touch_page(
            "http://hub/index.html",
            r#"<HTML><H1>Hub</H1><UL>
               <LI><A HREF="/a.html">A</A>
               <LI><A HREF="/b.html">B</A>
               </UL><P>Hub announcement added!</HTML>"#,
            web.clock().now(),
        )
        .unwrap();
        let r = differ
            .diff_hub(
                &user,
                "http://hub/index.html",
                true,
                &DiffOptions::default(),
            )
            .unwrap();
        assert!(r.changed_urls().contains(&"http://hub/index.html"));
    }
}
