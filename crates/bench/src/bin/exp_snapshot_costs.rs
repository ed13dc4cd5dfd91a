//! §4 experiment: snapshot-service costs — delta storage across edit
//! models, and the diff-output cache.
//!
//! Two claims to reproduce:
//!
//! 1. "Except for pages that change in many respects at once, the
//!    storage overhead is minimal beyond the need to save a copy of the
//!    page in the first place" — measured as archive bytes vs full-copy
//!    bytes for each edit model, where `FullReplace` should be the
//!    outlier.
//! 2. "Many users who have seen versions N and N+1 of a page could
//!    retrieve HtmlDiff(pageN, pageN+1) with a single invocation" —
//!    measured as HtmlDiff executions with and without the diff cache as
//!    the user count grows.

use aide_htmldiff::Options as DiffOptions;
use aide_rcs::archive::RevId;
use aide_rcs::repo::MemRepository;
use aide_snapshot::service::{SnapshotService, UserId};
use aide_util::time::{Clock, Duration, Timestamp};
use aide_workloads::edits::EditModel;
use aide_workloads::page::Page;
use aide_workloads::rng::Rng;

fn storage_for_model(name: &str, model: EditModel) {
    let clock = Clock::starting_at(Timestamp(1_000_000));
    let service = SnapshotService::new(MemRepository::new(), clock.clone(), 1 << 20);
    let user = UserId::new("u@x");
    let mut rng = Rng::new(11);
    let mut page = Page::generate(&mut rng, 10_000);
    let url = "http://h/page.html";
    let mut full_copies = 0usize;
    for step in 0..50u64 {
        let body = page.render();
        full_copies += body.len();
        service.remember(&user, url, &body).unwrap();
        clock.advance(Duration::days(1));
        model.apply(&mut page, &mut rng, step + 1);
    }
    let stats = service.storage().unwrap();
    println!(
        "{name:<22} {:>12} {:>12} {:>9.0}%",
        stats.bytes,
        full_copies,
        100.0 * stats.bytes as f64 / full_copies as f64
    );
}

fn diff_cache_sweep() {
    println!("\n=== diff-cache effect: HtmlDiff executions for N users ===\n");
    println!("{:<8} {:>14} {:>14}", "users", "no cache", "with cache");
    for n_users in [1usize, 5, 20, 100] {
        let mut results = Vec::new();
        for cached in [false, true] {
            let clock = Clock::starting_at(Timestamp(1_000_000));
            // A zero byte budget is "no cache".
            let budget = if cached { 1 << 20 } else { 0 };
            let service = SnapshotService::new(MemRepository::new(), clock.clone(), budget);
            let seed_user = UserId::new("seeder@x");
            let url = "http://h/shared.html";
            let mut rng = Rng::new(3);
            let page = Page::generate(&mut rng, 6_000);
            service.remember(&seed_user, url, &page.render()).unwrap();
            clock.advance(Duration::days(1));
            let mut page2 = page.clone();
            EditModel::InPlaceEdit { sentences: 3 }.apply(&mut page2, &mut rng, 1);
            service.remember(&seed_user, url, &page2.render()).unwrap();
            // N users each request the same N -> N+1 diff.
            for u in 0..n_users {
                let _ = service
                    .diff_versions(url, RevId(1), RevId(2), &DiffOptions::default())
                    .unwrap();
                let _ = u;
            }
            results.push(service.snapshot_stats().htmldiff_invocations);
        }
        println!("{n_users:<8} {:>14} {:>14}", results[0], results[1]);
    }
    println!("\n(with the cache, one invocation serves everyone — §4.2.)");
}

fn checkout_depth_cost() {
    println!("\n=== reverse-delta trade-off: checkout cost vs revision age ===\n");
    let clock = Clock::starting_at(Timestamp(1_000_000));
    let service = SnapshotService::new(MemRepository::new(), clock.clone(), 1 << 20);
    let user = UserId::new("u@x");
    let url = "http://h/deep.html";
    let mut rng = Rng::new(5);
    let mut page = Page::generate(&mut rng, 20_000);
    for step in 0..100u64 {
        service.remember(&user, url, &page.render()).unwrap();
        clock.advance(Duration::days(1));
        EditModel::InPlaceEdit { sentences: 2 }.apply(&mut page, &mut rng, step + 1);
    }
    println!("{:<12} {:>14}", "revision", "checkout µs");
    for rev in [100u32, 90, 50, 10, 1] {
        let t0 = std::time::Instant::now();
        for _ in 0..20 {
            service.revision_text(url, RevId(rev)).unwrap();
        }
        let us = t0.elapsed().as_micros() / 20;
        println!("{:<12} {us:>14}", format!("1.{rev}"));
    }
    println!("\n(the head is one copy; older revisions walk the reverse-delta");
    println!(" chain in line space, so each delta costs its changed lines plus");
    println!(" a pointer per line, and depth adds little.)");
}

fn main() {
    println!("=== delta storage vs edit model (50 revisions of a 10 KB page) ===\n");
    println!(
        "{:<22} {:>12} {:>12} {:>10}",
        "edit model", "archive B", "full-copy B", "ratio"
    );
    storage_for_model("append-news", EditModel::AppendNews);
    storage_for_model(
        "in-place (2 sent.)",
        EditModel::InPlaceEdit { sentences: 2 },
    );
    storage_for_model(
        "link-churn",
        EditModel::LinkChurn {
            added: 3,
            removed: 1,
        },
    );
    storage_for_model("reformat", EditModel::Reformat);
    storage_for_model("delete-block", EditModel::DeleteBlock);
    storage_for_model("FULL REPLACE", EditModel::FullReplace);
    println!("\n(FULL REPLACE is the paper's outlier: 'the storage overhead is");
    println!(" minimal' except 'for pages that change in many respects at once'.)");

    diff_cache_sweep();
    checkout_depth_cost();
}
