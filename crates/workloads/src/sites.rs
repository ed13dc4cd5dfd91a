//! Prebuilt site ensembles for the experiments.
//!
//! - [`table1_scenario`]: the seven-URL world of Table 1 — Yahoo, att.com
//!   pages, the NCSA "What's New in Mosaic" page, the Washington mobile
//!   computing page, the daily Dilbert strip, and a local file.
//! - [`population`]: bulk page populations with the §7 storage shape —
//!   hundreds of mostly-quiet URLs plus a few large high-churn files
//!   ("Three files account for 2.7 Mbytes of that total, and each file is
//!   a URL that changes every 1–3 days").

use crate::edits::EditModel;
use crate::evolve::EvolvingPage;
use crate::page::Page;
use aide_simweb::browser::Bookmark;
use aide_simweb::net::Web;
use aide_simweb::resource::Resource;
use aide_util::rng::Rng;
use aide_util::time::Duration;

/// The Table 1 world: pages, their evolution, and the user's hotlist.
pub struct Table1Scenario {
    /// The hotlist, in Table 1 order.
    pub hotlist: Vec<Bookmark>,
    /// The evolving pages (tick these as the clock advances).
    pub pages: Vec<EvolvingPage>,
}

/// Builds the Table 1 scenario on `web`.
pub fn table1_scenario(web: &Web, seed: u64) -> Table1Scenario {
    let mut rng = Rng::new(seed);
    let mut pages = Vec::new();
    let mut hotlist = Vec::new();

    // Yahoo: a big hub page, links added every couple of days. The user
    // polls it only weekly ("the user doesn't expect to revisit Yahoo
    // pages daily even if they change").
    let yahoo = "http://www.yahoo.com/";
    pages.push(EvolvingPage::publish(
        yahoo,
        Page::generate(&mut rng.fork(1), 12_000),
        EditModel::LinkChurn {
            added: 6,
            removed: 1,
        },
        Duration::days(2),
        0.3,
        rng.fork(2),
        web,
    ));
    hotlist.push(Bookmark {
        title: "Yahoo".to_string(),
        url: yahoo.to_string(),
    });

    // Two att.com pages: checked every run (threshold 0), modest edits.
    for (i, path) in [
        "http://www.research.att.com/orgs/ssr/",
        "http://www.att.com/news.html",
    ]
    .iter()
    .enumerate()
    {
        pages.push(EvolvingPage::publish(
            path,
            Page::generate(&mut rng.fork(10 + i as u64), 5_000),
            EditModel::InPlaceEdit { sentences: 2 },
            Duration::days(4),
            0.4,
            rng.fork(20 + i as u64),
            web,
        ));
        hotlist.push(Bookmark {
            title: format!("AT&T page {}", i + 1),
            url: path.to_string(),
        });
    }

    // The NCSA What's New page: append-mostly, changes twice a day.
    let ncsa = "http://www.ncsa.uiuc.edu/SDG/Software/Mosaic/Docs/whats-new.html";
    pages.push(EvolvingPage::publish(
        ncsa,
        Page::generate(&mut rng.fork(30), 20_000),
        EditModel::AppendNews,
        Duration::hours(10),
        0.3,
        rng.fork(31),
        web,
    ));
    hotlist.push(Bookmark {
        title: "What's New in Mosaic".to_string(),
        url: ncsa.to_string(),
    });

    // The mobile-computing page: weekly edits.
    let mobile = "http://snapple.cs.washington.edu:600/mobile/";
    pages.push(EvolvingPage::publish(
        mobile,
        Page::generate(&mut rng.fork(40), 8_000),
        EditModel::InPlaceEdit { sentences: 3 },
        Duration::days(7),
        0.4,
        rng.fork(41),
        web,
    ));
    hotlist.push(Bookmark {
        title: "Mobile Computing".to_string(),
        url: mobile.to_string(),
    });

    // Dilbert: full replacement every day — "will always be different".
    let dilbert = "http://www.unitedmedia.com/comics/dilbert/";
    pages.push(EvolvingPage::publish(
        dilbert,
        Page::generate(&mut rng.fork(50), 3_000),
        EditModel::FullReplace,
        Duration::days(1),
        0.0,
        rng.fork(51),
        web,
    ));
    hotlist.push(Bookmark {
        title: "Dilbert".to_string(),
        url: dilbert.to_string(),
    });

    // A local file, stat'ed for free on every run.
    let local = "file:/home/user/projects.html";
    web.write_local_file(
        "/home/user/projects.html",
        &Page::generate(&mut rng.fork(60), 2_000).render(),
        web.clock().now(),
    );
    hotlist.push(Bookmark {
        title: "My projects".to_string(),
        url: local.to_string(),
    });

    // A CGI page on one of the hosts, for checksum-path coverage.
    #[expect(
        clippy::expect_used,
        reason = "scenario URLs are statically known-valid; a bad one is a workload-definition bug"
    )]
    web.set_resource(
        "http://www.research.att.com/cgi-bin/whois?user=fred",
        Resource::Cgi {
            template: "<HTML><P>Fred Douglis, AT&T Bell Laboratories</HTML>".to_string(),
            hits: 0,
        },
    )
    .expect("valid URL");

    Table1Scenario { hotlist, pages }
}

/// Parameters for a bulk population.
#[derive(Debug, Clone, Copy)]
pub struct PopulationConfig {
    /// How many URLs.
    pub urls: usize,
    /// Number of distinct hosts to spread them over.
    pub hosts: usize,
    /// Typical page size in bytes (sizes vary around this).
    pub typical_bytes: usize,
    /// Number of big, fast-churning pages (the §7 "three files").
    pub churners: usize,
    /// Size of each churner in bytes.
    pub churner_bytes: usize,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            urls: 500,
            hosts: 50,
            typical_bytes: 6_000,
            churners: 3,
            churner_bytes: 60_000,
        }
    }
}

/// Builds a bulk page population with the §7 shape and publishes it.
pub fn population(web: &Web, seed: u64, cfg: &PopulationConfig) -> Vec<EvolvingPage> {
    let mut rng = Rng::new(seed);
    let mut pages = Vec::with_capacity(cfg.urls);
    for i in 0..cfg.urls {
        let host = format!("www.host{:03}.com", i % cfg.hosts.max(1));
        let url = format!("http://{host}/page{i:04}.html");
        let is_churner = i < cfg.churners;
        let (size, model, period, jitter) = if is_churner {
            // "Each file is a URL that changes every 1–3 days and is
            // being automatically archived upon each change."
            (
                cfg.churner_bytes,
                EditModel::FullReplace,
                Duration::days(2),
                0.5,
            )
        } else {
            // A mix of quiet and mildly active pages.
            let size = (cfg.typical_bytes / 4) + rng.index(cfg.typical_bytes * 3 / 2);
            let model = match rng.below(10) {
                0..=3 => EditModel::AppendNews,
                4..=6 => EditModel::InPlaceEdit { sentences: 2 },
                7 => EditModel::LinkChurn {
                    added: 3,
                    removed: 1,
                },
                8 => EditModel::Reformat,
                _ => EditModel::DeleteBlock,
            };
            // Change periods: a week to a couple of months, skewed long.
            let days = 7 + rng.zipf(60) as u64;
            (size, model, Duration::days(days), 0.5)
        };
        let page = Page::generate(&mut rng.fork(1000 + i as u64), size);
        pages.push(EvolvingPage::publish(
            &url,
            page,
            model,
            period,
            jitter,
            rng.fork(5000 + i as u64),
            web,
        ));
    }
    pages
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_simweb::http::Request;
    use aide_util::time::{Clock, Timestamp};

    fn web() -> Web {
        Web::new(Clock::starting_at(Timestamp::from_ymd_hms(
            1995, 9, 1, 0, 0, 0,
        )))
    }

    #[test]
    fn table1_scenario_serves_all_hotlist_urls() {
        let web = web();
        let scenario = table1_scenario(&web, 42);
        assert_eq!(scenario.hotlist.len(), 7);
        for mark in &scenario.hotlist {
            let r = web.request(&Request::head(&mark.url)).unwrap();
            assert!(r.status.is_success(), "{}: {:?}", mark.url, r.status);
        }
    }

    #[test]
    fn table1_pages_evolve() {
        let web = web();
        let mut scenario = table1_scenario(&web, 42);
        web.clock().advance(Duration::days(7));
        let changes = crate::evolve::tick_all(&mut scenario.pages, &web);
        // Dilbert alone changes 7 times in a week; NCSA ~16 times.
        assert!(changes > 15, "changes {changes}");
    }

    #[test]
    fn population_publishes_requested_count() {
        let web = web();
        let cfg = PopulationConfig {
            urls: 40,
            hosts: 5,
            ..PopulationConfig::default()
        };
        let pages = population(&web, 7, &cfg);
        assert_eq!(pages.len(), 40);
        assert_eq!(web.urls().len(), 40);
    }

    #[test]
    fn population_churners_are_big_and_fast() {
        let web = web();
        let cfg = PopulationConfig {
            urls: 30,
            hosts: 3,
            churners: 3,
            ..PopulationConfig::default()
        };
        let pages = population(&web, 8, &cfg);
        for p in pages.iter().take(3) {
            assert!(p.page.byte_size() >= cfg.churner_bytes, "churner too small");
            assert!(p.period <= Duration::days(2));
        }
        let typical: usize = pages[3..].iter().map(|p| p.page.byte_size()).sum::<usize>() / 27;
        assert!(typical < cfg.churner_bytes / 3, "typical {typical}");
    }

    #[test]
    fn population_is_deterministic() {
        let w1 = web();
        let w2 = web();
        let cfg = PopulationConfig {
            urls: 10,
            hosts: 2,
            ..PopulationConfig::default()
        };
        let a = population(&w1, 9, &cfg);
        let b = population(&w2, 9, &cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.page, y.page);
            assert_eq!(x.url, y.url);
        }
    }
}
