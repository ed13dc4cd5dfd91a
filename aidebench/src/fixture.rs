//! Builds a workload's fixture: the simulated origin Web, the AIDE
//! engine over a repository, the user and their hotlist, and the
//! archived history. The server process, the in-process reference and
//! the traced run all build it here, so all three hold the same
//! archives for the same spec.

use crate::spec::{rev_date, serve_time, url, FixtureSpec, Origin, USER};
use aide::cgi::{dispatch, CgiResponse};
use aide::engine::AideEngine;
use aide_rcs::archive::Archive;
use aide_rcs::repo::Repository;
use aide_simweb::net::Web;
use aide_util::time::Clock;
use aide_w3newer::config::ThresholdConfig;
use std::sync::{Arc, Mutex};

/// A built fixture.
pub struct Fixture<R: Repository> {
    /// The engine every route is served from.
    pub engine: Arc<AideEngine<R>>,
    /// Per-URL origin pages. A remember holds its URL's entry from the
    /// edit through the check-in, so the k-th remember of a URL always
    /// archives that URL's k-th edit, whatever the interleaving.
    origins: Vec<Mutex<Origin>>,
}

impl<R: Repository> Fixture<R> {
    /// Builds `spec`'s fixture over `repo`.
    ///
    /// In-memory fixtures are archived one revision at a time through
    /// `AideEngine::remember`, so set-up pays check-in cost as history
    /// deepens. Disk fixtures are built with the rcs `Archive` API and
    /// stored once per URL; a remember per URL then records the user's
    /// seen state without a new revision.
    pub fn build(spec: &FixtureSpec, repo: R) -> Fixture<R> {
        let mut origins: Vec<Origin> = (0..spec.urls).map(|i| Origin::new(spec, i)).collect();
        let clock = Clock::starting_at(rev_date(1));
        let web = Web::new(clock.clone());
        if spec.workload.disk() {
            for (i, origin) in origins.iter_mut().enumerate() {
                let u = url(i);
                let log = format!("initial snapshot by {USER}");
                let mut archive = Archive::create(&u, origin.body(), USER, &log, rev_date(1));
                for rev in 2..=spec.revisions {
                    let log = format!("checked in by {USER}");
                    archive
                        .checkin(origin.advance(), USER, &log, rev_date(rev))
                        .expect("fixture dates increase");
                }
                repo.store(&u, &archive).expect("fixture store");
                web.set_page(&u, origin.body(), rev_date(spec.revisions))
                    .expect("fixture page");
            }
        }
        let engine = Arc::new(AideEngine::with_repository(web, repo));
        let browser = engine.register_user(USER, ThresholdConfig::default());
        for i in 0..spec.urls {
            browser.add_bookmark(&format!("Document {i}"), &url(i));
        }
        if spec.workload.disk() {
            clock.set(rev_date(spec.revisions));
            for i in 0..spec.urls {
                engine.remember(USER, &url(i)).expect("fixture remember");
            }
        } else {
            for rev in 1..=spec.revisions {
                clock.set(rev_date(rev));
                for (i, origin) in origins.iter_mut().enumerate() {
                    let body = if rev == 1 {
                        origin.body()
                    } else {
                        origin.advance()
                    };
                    engine
                        .web()
                        .touch_page(&url(i), body, clock.now())
                        .expect("fixture page");
                    engine.remember(USER, &url(i)).expect("fixture remember");
                }
            }
        }
        // The user last visited every other page before its newest
        // revision, so a report lists a mix of changed and unchanged.
        for i in (0..spec.urls).step_by(2) {
            browser.mark_visited(&url(i), rev_date(spec.revisions.saturating_sub(1).max(1)));
        }
        clock.set(serve_time(spec));
        Fixture {
            engine,
            origins: origins.into_iter().map(Mutex::new).collect(),
        }
    }

    /// The snapshot Remember route: advances URL `i`'s origin page by
    /// its next seeded edit, then checks it in through the CGI façade.
    pub fn remember(&self, i: usize) -> CgiResponse {
        let mut origin = self.origins[i].lock().expect("origin lock poisoned");
        let u = url(i);
        let body = origin.advance();
        if let Err(e) = self
            .engine
            .web()
            .touch_page(&u, body, self.engine.clock().now())
        {
            return CgiResponse {
                status: 500,
                content_type: "text/plain".to_string(),
                body: e.to_string(),
            };
        }
        dispatch(&*self.engine, USER, &format!("op=remember&url={u}"))
    }

    /// URLs in the fixture.
    pub fn urls(&self) -> usize {
        self.origins.len()
    }

    /// `(stored bytes, bytes of every page version checked in)`.
    pub fn storage(&self) -> (u64, u64) {
        let snapshot = self.engine.snapshot();
        let stored = snapshot.storage().map(|s| s.bytes as u64).unwrap_or(0);
        let mut pages = 0u64;
        for i in 0..self.urls() {
            if let Ok(metas) = snapshot.revisions(&url(i)) {
                pages += metas.iter().map(|m| m.text_len as u64).sum::<u64>();
            }
        }
        (stored, pages)
    }
}

/// Parses the revision number out of a remember answer
/// ("… as revision 1.N.").
pub fn remembered_rev(body: &[u8]) -> Option<u32> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("as revision 1.")? + "as revision 1.".len()..];
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    rest[..digits].parse().ok()
}
