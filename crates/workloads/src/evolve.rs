//! Evolution schedules: driving page changes on the simulated Web.
//!
//! An [`EvolvingPage`] owns a structured page, an edit model and a change
//! period; [`EvolvingPage::tick`] applies due edits and republishes the
//! page with a fresh `Last-Modified`. Experiments advance the virtual
//! clock and tick their page population, replaying months of Web history
//! in milliseconds.

use crate::edits::EditModel;
use crate::page::Page;
use aide_simweb::net::Web;
use aide_util::rng::Rng;
use aide_util::time::{Duration, Timestamp};

/// A page that changes on a schedule.
#[derive(Debug, Clone)]
pub struct EvolvingPage {
    /// The page's URL.
    pub url: String,
    /// Current structured content.
    pub page: Page,
    /// How it changes.
    pub model: EditModel,
    /// Mean time between changes.
    pub period: Duration,
    /// Jitter fraction (0.0 = strictly periodic, 0.5 = ±50%).
    pub jitter: f64,
    rng: Rng,
    next_change: Timestamp,
    step: u64,
}

impl EvolvingPage {
    /// Creates an evolving page and publishes its initial version at
    /// `now`.
    pub fn publish(
        url: &str,
        page: Page,
        model: EditModel,
        period: Duration,
        jitter: f64,
        mut rng: Rng,
        web: &Web,
    ) -> EvolvingPage {
        let now = web.clock().now();
        #[expect(
            clippy::expect_used,
            reason = "scenario URLs are statically known-valid; a bad one is a workload-definition bug"
        )]
        web.set_page(url, &page.render(), now).expect("valid URL");
        let mut ep = EvolvingPage {
            url: url.to_string(),
            page,
            model,
            period,
            jitter,
            next_change: now,
            step: 0,
            rng: rng.fork(0xE701),
        };
        ep.schedule_from(now);
        ep
    }

    fn schedule_from(&mut self, now: Timestamp) {
        let base = self.period.as_secs().max(1);
        let jitter_span = (base as f64 * self.jitter) as u64;
        let offset = if jitter_span > 0 {
            self.rng.range(0, 2 * jitter_span) as i64 - jitter_span as i64
        } else {
            0
        };
        let delay = (base as i64 + offset).max(1) as u64;
        self.next_change = now + Duration::seconds(delay);
    }

    /// When the next change is due.
    pub fn next_change(&self) -> Timestamp {
        self.next_change
    }

    /// Number of edits applied so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Applies all edits due by `now`, republishing after each. Returns
    /// the number of changes applied.
    pub fn tick(&mut self, web: &Web) -> usize {
        let now = web.clock().now();
        let mut changes = 0;
        while self.next_change <= now {
            self.step += 1;
            self.model.apply(&mut self.page, &mut self.rng, self.step);
            #[expect(
                clippy::expect_used,
                reason = "the URL was validated when the page was first installed"
            )]
            web.touch_page(&self.url, &self.page.render(), self.next_change)
                .expect("valid URL");
            let due = self.next_change;
            self.schedule_from(due);
            changes += 1;
            // Guard against zero-period livelock.
            if changes > 10_000 {
                break;
            }
        }
        changes
    }
}

/// Ticks a whole population; returns total changes applied.
pub fn tick_all(pages: &mut [EvolvingPage], web: &Web) -> usize {
    pages.iter_mut().map(|p| p.tick(web)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_simweb::http::Request;
    use aide_util::time::Clock;

    fn setup() -> Web {
        Web::new(Clock::starting_at(Timestamp::from_ymd_hms(
            1995, 9, 1, 0, 0, 0,
        )))
    }

    fn page(seed: u64) -> Page {
        Page::generate(&mut Rng::new(seed), 1500)
    }

    #[test]
    fn publish_makes_page_fetchable() {
        let web = setup();
        let ep = EvolvingPage::publish(
            "http://h/p.html",
            page(1),
            EditModel::AppendNews,
            Duration::days(1),
            0.0,
            Rng::new(2),
            &web,
        );
        let r = web.request(&Request::get("http://h/p.html")).unwrap();
        assert_eq!(r.body, ep.page.render());
    }

    #[test]
    fn tick_before_due_does_nothing() {
        let web = setup();
        let mut ep = EvolvingPage::publish(
            "http://h/p.html",
            page(1),
            EditModel::AppendNews,
            Duration::days(2),
            0.0,
            Rng::new(2),
            &web,
        );
        web.clock().advance(Duration::hours(10));
        assert_eq!(ep.tick(&web), 0);
    }

    #[test]
    fn tick_applies_due_changes() {
        let web = setup();
        let mut ep = EvolvingPage::publish(
            "http://h/p.html",
            page(1),
            EditModel::AppendNews,
            Duration::days(1),
            0.0,
            Rng::new(2),
            &web,
        );
        let before = web.request(&Request::get("http://h/p.html")).unwrap();
        web.clock().advance(Duration::days(3));
        let n = ep.tick(&web);
        assert_eq!(n, 3, "three daily changes in three days");
        let after = web.request(&Request::get("http://h/p.html")).unwrap();
        assert_ne!(before.body, after.body);
        assert!(after.last_modified.unwrap() > before.last_modified.unwrap());
    }

    #[test]
    fn last_modified_tracks_change_time_not_tick_time() {
        let web = setup();
        let mut ep = EvolvingPage::publish(
            "http://h/p.html",
            page(1),
            EditModel::AppendNews,
            Duration::days(1),
            0.0,
            Rng::new(2),
            &web,
        );
        let start = web.clock().now();
        web.clock().advance(Duration::days(10));
        ep.tick(&web);
        let r = web.request(&Request::head("http://h/p.html")).unwrap();
        // The final change happened on day 10, not "now" per se — but
        // crucially not at the original publish date.
        assert!(r.last_modified.unwrap() > start);
        assert!(r.last_modified.unwrap() <= web.clock().now());
    }

    #[test]
    fn jitter_varies_schedule_deterministically() {
        let web = setup();
        let a = EvolvingPage::publish(
            "http://h/a.html",
            page(1),
            EditModel::AppendNews,
            Duration::days(1),
            0.5,
            Rng::new(3),
            &web,
        );
        let b = EvolvingPage::publish(
            "http://h/b.html",
            page(1),
            EditModel::AppendNews,
            Duration::days(1),
            0.5,
            Rng::new(4),
            &web,
        );
        assert_ne!(
            a.next_change(),
            b.next_change(),
            "different seeds, different phase"
        );
    }

    #[test]
    fn tick_all_sums() {
        let web = setup();
        let mut pages = vec![
            EvolvingPage::publish(
                "http://h/1",
                page(1),
                EditModel::AppendNews,
                Duration::days(1),
                0.0,
                Rng::new(5),
                &web,
            ),
            EvolvingPage::publish(
                "http://h/2",
                page(2),
                EditModel::AppendNews,
                Duration::days(2),
                0.0,
                Rng::new(6),
                &web,
            ),
        ];
        web.clock().advance(Duration::days(2));
        let n = tick_all(&mut pages, &web);
        assert_eq!(n, 3, "2 changes for daily + 1 for every-2-days");
    }
}
