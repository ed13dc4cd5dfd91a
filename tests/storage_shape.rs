//! Storage-shape integration test: the §7 disk-usage claims.
//!
//! The paper reports "over 500 URLs archived... under 8 Mbytes of disk
//! storage (an average of 14.3 Kbytes/URL). Three files account for 2.7
//! Mbytes of that total, and each file is a URL that changes every 1–3
//! days and is being automatically archived upon each change." The exact
//! bytes depend on 1995's pages; the *shape* — modest per-URL average,
//! heavy concentration in a few churners, delta storage far below full
//! copies — must reproduce.
//!
//! The shape suite runs against **both** repository backends — the
//! in-memory reference and the persistent `aide-store` engine (over an
//! in-memory VFS, with thresholds low enough that checkpoints and
//! compactions fire mid-workload) — and the two must agree byte for
//! byte, because `StorageStats` accounts the same `,v` serialization
//! either way.

use aide_rcs::repo::{MemRepository, Repository, StorageStats};
use aide_simweb::net::Web;
use aide_snapshot::service::{SnapshotService, UserId};
use aide_store::{DiskRepository, StoreOptions};
use aide_util::time::{Clock, Duration, Timestamp};
use aide_util::vfs::{MemVfs, Vfs};
use aide_workloads::evolve::tick_all;
use aide_workloads::sites::{population, PopulationConfig};
use std::sync::Arc;

/// A disk repository over a fresh in-memory VFS, tuned so the §7
/// workload actually exercises checkpointing and compaction.
fn disk_repo() -> DiskRepository {
    let opts = StoreOptions {
        checkpoint_wal_bytes: 256 << 10,
        compact_min_dead_bytes: 128 << 10,
        max_segments: 4,
        ..StoreOptions::default()
    };
    DiskRepository::open(MemVfs::shared() as Arc<dyn Vfs>, "aide", opts).unwrap()
}

/// Runs the scaled-down §7 archival workload (120 URLs, 3 churners,
/// 90 days at weekly polling) against `repo`, asserts the three shape
/// claims, and returns the final stats for cross-backend comparison.
fn section7_shape_on<R: Repository>(repo: R) -> StorageStats {
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 6, 1, 0, 0, 0));
    let web = Web::new(clock.clone());
    let cfg = PopulationConfig {
        urls: 120,
        hosts: 12,
        typical_bytes: 5_000,
        churners: 3,
        churner_bytes: 40_000,
    };
    let mut pages = population(&web, 2025, &cfg);
    let service = SnapshotService::new(repo, clock.clone(), 1 << 20);
    let daemon = UserId::new("archive@daemon");

    // 90 days of automatic archival on change (weekly polling cadence).
    let mut full_copy_bytes = 0usize;
    for day in 0..90u64 {
        clock.advance(Duration::days(1));
        tick_all(&mut pages, &web);
        if day % 7 == 0 {
            for p in &pages {
                let body = web
                    .request(&aide_simweb::http::Request::get(&p.url))
                    .unwrap()
                    .body;
                let out = service.remember(&daemon, &p.url, &body).unwrap();
                if out.stored_new_revision {
                    full_copy_bytes += body.len();
                }
            }
        }
    }

    let stats = service.storage().unwrap();
    assert_eq!(stats.archives, 120);
    assert!(stats.revisions > 200, "revisions {}", stats.revisions);

    // Shape 1: delta storage is well below storing every revision fully.
    assert!(
        stats.bytes < full_copy_bytes,
        "delta {} vs full copies {}",
        stats.bytes,
        full_copy_bytes
    );

    // Shape 2: a modest per-URL average (paper: 14.3 KB/URL).
    let avg = stats.bytes_per_archive();
    assert!(avg < 40_000.0, "avg {avg} bytes/URL");
    assert!(avg > 1_000.0, "avg {avg} bytes/URL suspiciously small");

    // Shape 3: the churners dominate — the top 3 URLs hold a grossly
    // disproportionate share (paper: 3 of 500+ URLs held ~1/3 of bytes).
    let sizes = service.storage_by_url().unwrap();
    let top3: usize = sizes.iter().take(3).map(|(_, b)| b).sum();
    let share = top3 as f64 / stats.bytes as f64;
    assert!(
        share > 0.25,
        "top-3 share {share:.2} (top: {:?})",
        &sizes[..3.min(sizes.len())]
    );
    // And the top-3 are indeed the configured churners.
    for (url, _) in sizes.iter().take(3) {
        let idx: usize = url
            .rsplit("page")
            .next()
            .and_then(|s| s.strip_suffix(".html"))
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(idx < 3, "top-3 by size should be the churners, got {url}");
    }
    stats
}

#[test]
fn archive_storage_has_the_section7_shape() {
    let mem = section7_shape_on(MemRepository::new());
    let disk = section7_shape_on(disk_repo());
    // Same seeded workload, same accounting rules: the persistent
    // backend must agree with the in-memory reference to the byte.
    assert_eq!(mem, disk, "backends disagree on §7 accounting");
}

#[test]
fn unchanged_pages_cost_one_revision_forever() {
    for repo in [
        Box::new(MemRepository::new()) as Box<dyn Repository>,
        Box::new(disk_repo()) as Box<dyn Repository>,
    ] {
        let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 6, 1, 0, 0, 0));
        let web = Web::new(clock.clone());
        web.set_page(
            "http://quiet/page.html",
            "<HTML>never changes</HTML>",
            clock.now(),
        )
        .unwrap();
        let service = SnapshotService::new(repo, clock.clone(), 1 << 20);
        let daemon = UserId::new("archive@daemon");
        let mut size_after_first = 0;
        for day in 0..30 {
            clock.advance(Duration::days(1));
            let body = web
                .request(&aide_simweb::http::Request::get("http://quiet/page.html"))
                .unwrap()
                .body;
            service
                .remember(&daemon, "http://quiet/page.html", &body)
                .unwrap();
            if day == 0 {
                size_after_first = service.storage().unwrap().bytes;
            }
        }
        let stats = service.storage().unwrap();
        assert_eq!(stats.revisions, 1, "no-op check-ins stored nothing");
        assert_eq!(stats.bytes, size_after_first);
    }
}

#[test]
fn disk_repository_roundtrips_a_small_deployment() {
    let dir = std::env::temp_dir().join(format!("aide-storage-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 6, 1, 0, 0, 0));
    let web = Web::new(clock.clone());
    let cfg = PopulationConfig {
        urls: 10,
        hosts: 2,
        typical_bytes: 3_000,
        churners: 1,
        churner_bytes: 9_000,
    };
    let mut pages = population(&web, 77, &cfg);
    // Real filesystem this time: the whole WAL/segment/recovery stack
    // runs against actual files under a temp directory.
    let service = SnapshotService::new(
        DiskRepository::open_dir(&dir).unwrap(),
        clock.clone(),
        1 << 20,
    );
    let daemon = UserId::new("archive@daemon");
    for _ in 0..6 {
        clock.advance(Duration::days(5));
        tick_all(&mut pages, &web);
        for p in &pages {
            let body = web
                .request(&aide_simweb::http::Request::get(&p.url))
                .unwrap()
                .body;
            service.remember(&daemon, &p.url, &body).unwrap();
        }
    }
    drop(service);
    // A fresh repository over the same directory recovers everything.
    let reopened = DiskRepository::open_dir(&dir).unwrap();
    let stats = reopened.stats().unwrap();
    assert_eq!(stats.archives, 10);
    assert!(stats.revisions >= 10);
    for key in reopened.keys().unwrap() {
        let archive = reopened.load(&key).unwrap().unwrap();
        // Every revision checks out.
        for meta in archive.metas() {
            archive.checkout(meta.id).unwrap();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
