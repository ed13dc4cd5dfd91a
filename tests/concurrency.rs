//! Concurrency integration: the §4.2 synchronization story under real
//! threads.
//!
//! Simultaneous users hammer one snapshot service: the per-URL locks and
//! the control-file shard guards must keep the archives and control files
//! consistent, and the diff cache must dedup HtmlDiff work.

use aide_htmldiff::Options as DiffOptions;
use aide_rcs::archive::RevId;
use aide_rcs::repo::MemRepository;
use aide_snapshot::service::{SnapshotService, UserId};
use aide_util::time::{Clock, Duration, Timestamp};
use std::sync::Arc;

fn service() -> (Clock, Arc<SnapshotService<MemRepository>>) {
    let clock = Clock::starting_at(Timestamp(1_000_000));
    let s = Arc::new(SnapshotService::new(
        MemRepository::new(),
        clock.clone(),
        1 << 20,
    ));
    (clock, s)
}

#[test]
fn concurrent_remembers_of_same_content_store_once() {
    let (_, service) = service();
    let mut handles = Vec::new();
    for i in 0..16 {
        let s = service.clone();
        handles.push(std::thread::spawn(move || {
            let user = UserId::new(&format!("user{i}@x"));
            s.remember(&user, "http://hot/page.html", "<HTML>identical body</HTML>")
                .unwrap()
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = service.storage().unwrap();
    assert_eq!(stats.archives, 1);
    assert_eq!(stats.revisions, 1, "16 users, one revision");
    // Every user's control file recorded the revision.
    for i in 0..16 {
        let user = UserId::new(&format!("user{i}@x"));
        assert_eq!(
            service.last_seen(&user, "http://hot/page.html"),
            Some(RevId(1))
        );
    }
}

#[test]
fn concurrent_remembers_of_distinct_urls_do_not_interfere() {
    let (_, service) = service();
    let mut handles = Vec::new();
    for i in 0..8 {
        let s = service.clone();
        handles.push(std::thread::spawn(move || {
            let user = UserId::new("worker@x");
            for k in 0..10 {
                s.remember(
                    &user,
                    &format!("http://host{i}/page{k}.html"),
                    &format!("<HTML>content {i}-{k}</HTML>"),
                )
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = service.storage().unwrap();
    assert_eq!(stats.archives, 80);
    assert_eq!(stats.revisions, 80);
}

#[test]
fn interleaved_checkins_keep_every_version_retrievable() {
    let (clock, service) = service();
    // Two writers alternate distinct bodies on one URL; whatever the
    // interleaving, every stored revision must check out to a body one of
    // them wrote.
    let mut handles = Vec::new();
    for w in 0..2 {
        let s = service.clone();
        let clock = clock.clone();
        handles.push(std::thread::spawn(move || {
            let user = UserId::new(&format!("writer{w}@x"));
            for k in 0..25 {
                clock.advance(Duration::seconds(1));
                let _ = s.remember(
                    &user,
                    "http://contended/page.html",
                    &format!("<HTML>writer {w} iteration {k}</HTML>"),
                );
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let history = service
        .history(&UserId::new("writer0@x"), "http://contended/page.html")
        .unwrap();
    assert!(!history.is_empty());
    for (meta, _) in &history {
        let body = service
            .revision_text("http://contended/page.html", meta.id)
            .unwrap();
        assert!(
            body.starts_with("<HTML>writer "),
            "corrupted body at {}: {body}",
            meta.id
        );
    }
}

#[test]
fn diff_cache_dedups_concurrent_renderings() {
    let (clock, service) = service();
    let user = UserId::new("seed@x");
    service
        .remember(
            &user,
            "http://d/p.html",
            "<HTML><P>first version text.</HTML>",
        )
        .unwrap();
    clock.advance(Duration::hours(1));
    service
        .remember(
            &user,
            "http://d/p.html",
            "<HTML><P>second version text, changed!</HTML>",
        )
        .unwrap();

    let mut handles = Vec::new();
    for _ in 0..12 {
        let s = service.clone();
        handles.push(std::thread::spawn(move || {
            s.diff_versions(
                "http://d/p.html",
                RevId(1),
                RevId(2),
                &DiffOptions::default(),
            )
            .unwrap()
            .html
        }));
    }
    let outputs: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        outputs.windows(2).all(|w| w[0] == w[1]),
        "all renderings identical"
    );
    let stats = service.snapshot_stats();
    assert!(
        stats.htmldiff_invocations <= 3,
        "HtmlDiff ran {} times for 12 concurrent requests",
        stats.htmldiff_invocations
    );
}

/// One thread's slice of the stress workload: `revs` revisions of each
/// of its `urls` URLs, then a diff and a full history walk per URL.
fn stress_thread_workload(
    service: &SnapshotService<MemRepository>,
    thread: usize,
    urls: usize,
    revs: usize,
) {
    let user = UserId::new(&format!("stress{thread}@x"));
    for r in 0..revs {
        for m in 0..urls {
            service
                .remember(
                    &user,
                    &format!("http://stress{thread}/doc{m}.html"),
                    &format!("<HTML><P>thread {thread} doc {m} revision {r} text.</HTML>"),
                )
                .unwrap();
        }
    }
    for m in 0..urls {
        let url = format!("http://stress{thread}/doc{m}.html");
        let diff = service
            .diff_versions(&url, RevId(1), RevId(revs as u32), &DiffOptions::default())
            .unwrap();
        assert!(!diff.html.is_empty());
        let history = service.history(&user, &url).unwrap();
        assert_eq!(history.len(), revs);
        for (meta, _) in &history {
            service.revision_text(&url, meta.id).unwrap();
        }
    }
}

/// Everything observable about the service, in canonical order, for
/// comparing a concurrent run against a serial one.
fn observable_state(
    service: &SnapshotService<MemRepository>,
    threads: usize,
    urls: usize,
) -> Vec<String> {
    let mut state = Vec::new();
    let storage = service.storage().unwrap();
    state.push(format!(
        "archives={} revisions={}",
        storage.archives, storage.revisions
    ));
    let mut by_url = service.storage_by_url().unwrap();
    by_url.sort();
    for (url, bytes) in by_url {
        state.push(format!("size {url} {bytes}"));
    }
    for t in 0..threads {
        let user = UserId::new(&format!("stress{t}@x"));
        for m in 0..urls {
            let url = format!("http://stress{t}/doc{m}.html");
            state.push(format!(
                "last_seen {url} {:?}",
                service.last_seen(&user, &url)
            ));
            for (meta, seen) in service.history(&user, &url).unwrap() {
                state.push(format!(
                    "rev {url} {} seen={seen} body={:?}",
                    meta.id,
                    service.revision_text(&url, meta.id).unwrap()
                ));
            }
        }
    }
    let stats = service.snapshot_stats();
    state.push(format!(
        "stats htmldiff={} remembers={} unchanged={}",
        stats.htmldiff_invocations, stats.remembers, stats.unchanged_remembers
    ));
    state
}

/// The tentpole stress test: N threads × M URLs of remembers, diffs and
/// history walks, run once concurrently and once serially. The run must
/// complete (no deadlock) and every observable — archive sizes, revision
/// bodies, control files, counters — must come out identical to the
/// serial execution, because distinct URLs never share an exclusive lock
/// and same-URL work is serialized by the per-URL lock.
#[test]
fn stress_n_threads_m_urls_matches_serial_execution() {
    const THREADS: usize = 8;
    const URLS: usize = 6;
    const REVS: usize = 4;

    let (_, concurrent) = service();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let s = &concurrent;
            scope.spawn(move || stress_thread_workload(s, t, URLS, REVS));
        }
    });

    let (_, serial) = service();
    for t in 0..THREADS {
        stress_thread_workload(&serial, t, URLS, REVS);
    }

    assert_eq!(
        observable_state(&concurrent, THREADS, URLS),
        observable_state(&serial, THREADS, URLS),
        "concurrent final state diverged from serial execution"
    );
    // Distinct-URL threads must not have contended on any exclusive lock.
    assert_eq!(concurrent.locks().stats().contended, 0);
}

mod revid_monotonicity {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Per-URL sharding preserves RevId monotonicity: however a
        /// random workload of remembers is interleaved across threads,
        /// (a) the revision numbers any one thread observes for a given
        /// URL never decrease, and (b) every URL's final history is the
        /// dense ascending sequence 1.1, 1.2, ... with no gaps or
        /// duplicates — sharding the repository never splits one URL's
        /// revision counter.
        #[test]
        fn per_url_sharding_preserves_revid_monotonicity(
            ops in proptest::collection::vec((0usize..5, 0u32..3), 4..48)
        ) {
            const WORKERS: usize = 4;
            let (_, service) = super::service();
            let mut per_thread: Vec<Vec<(usize, u32)>> = vec![Vec::new(); WORKERS];
            for (i, op) in ops.iter().enumerate() {
                per_thread[i % WORKERS].push(*op);
            }

            let observed: Vec<Vec<(usize, RevId)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = per_thread
                    .iter()
                    .enumerate()
                    .map(|(t, thread_ops)| {
                        let s = &service;
                        scope.spawn(move || {
                            let user = UserId::new(&format!("prop{t}@x"));
                            thread_ops
                                .iter()
                                .map(|&(u, b)| {
                                    let out = s
                                        .remember(
                                            &user,
                                            &format!("http://prop/u{u}.html"),
                                            &format!("<HTML>url {u} body variant {b}</HTML>"),
                                        )
                                        .unwrap();
                                    (u, out.rev)
                                })
                                .collect()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

            // (a) Thread-local monotonicity.
            for (t, seq) in observed.iter().enumerate() {
                let mut last: HashMap<usize, RevId> = HashMap::new();
                for &(u, rev) in seq {
                    if let Some(&prev) = last.get(&u) {
                        prop_assert!(
                            rev >= prev,
                            "thread {t} saw url {u} go backwards: {prev} then {rev}"
                        );
                    }
                    last.insert(u, rev);
                }
            }

            // (b) Dense ascending histories.
            let reader = UserId::new("prop0@x");
            for u in 0..5usize {
                let url = format!("http://prop/u{u}.html");
                let touched = ops.iter().any(|&(o, _)| o == u);
                match service.history(&reader, &url) {
                    Ok(history) => {
                        prop_assert!(touched, "untouched url {u} has an archive");
                        // history() reports newest first: n, n-1, ..., 1.
                        let n = history.len() as u32;
                        for (k, (meta, _)) in history.iter().enumerate() {
                            prop_assert_eq!(meta.id, RevId(n - k as u32));
                        }
                    }
                    Err(_) => prop_assert!(!touched || ops.is_empty(), "touched url {u} missing"),
                }
            }
        }
    }
}
