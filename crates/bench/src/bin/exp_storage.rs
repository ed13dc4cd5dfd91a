//! §7 storage experiment: archive 500 URLs for 180 days and measure disk
//! usage — on **both** repository backends.
//!
//! Paper's numbers: "There are over 500 URLs archived... and the archive
//! uses under 8 Mbytes of disk storage (an average of 14.3 Kbytes/URL).
//! Three files account for 2.7 Mbytes of that total, and each file is a
//! URL that changes every 1–3 days and is being automatically archived
//! upon each change."
//!
//! The absolute bytes depend on 1995's pages; the reproduced *shape* is:
//! a modest per-URL average, the three churners holding an outsized
//! share, and reverse-delta storage far below full-copy storage.
//!
//! The workload runs once against the in-memory reference repository and
//! once against the persistent `aide-store` engine (over an in-memory
//! VFS, with thresholds tuned so checkpoints and compactions fire
//! mid-run). `StorageStats` accounts the same `,v` serialization either
//! way, so the two columns must — and do — agree to the byte; the
//! binary asserts it.

use aide_rcs::repo::{MemRepository, Repository, StorageStats};
use aide_simweb::http::Request;
use aide_simweb::net::Web;
use aide_snapshot::service::{SnapshotService, UserId};
use aide_store::{DiskRepository, StoreOptions};
use aide_util::time::{Clock, Duration, Timestamp};
use aide_util::vfs::{MemVfs, Vfs};
use aide_workloads::evolve::tick_all;
use aide_workloads::sites::{population, PopulationConfig};
use std::sync::Arc;

struct Outcome {
    stats: StorageStats,
    sizes: Vec<(String, usize)>,
    full_copy_bytes: usize,
}

/// Replays the §7 archival workload against `repo`: 500 URLs, 180 days,
/// ordinary pages on a weekly sweep, the three churners on a daily
/// sweep (they are "automatically archived upon each change", §7).
fn run_section7<R: Repository>(repo: R) -> Outcome {
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 6, 1, 0, 0, 0));
    let web = Web::new(clock.clone());
    // Sizes tuned to 1995 pages: typical pages of a few KB, and three
    // churners around 10 KB whose every-1–3-day full replacements accrue
    // roughly 0.9 MB of archive each over six months (2.7 MB total, as
    // §7 reports).
    let cfg = PopulationConfig {
        urls: 500,
        hosts: 50,
        typical_bytes: 6_000,
        churners: 3,
        churner_bytes: 10_000,
    };
    let mut pages = population(&web, 1995, &cfg);
    let service = SnapshotService::new(repo, clock.clone(), 1 << 20);
    let daemon = UserId::new("archive@daemon");

    let mut full_copy_bytes: usize = 0;
    for day in 0..180u64 {
        clock.advance(Duration::days(1));
        tick_all(&mut pages, &web);
        for (i, p) in pages.iter().enumerate() {
            let daily = i < cfg.churners;
            if !daily && day % 7 != 0 {
                continue;
            }
            let body = web.request(&Request::get(&p.url)).unwrap().body;
            let out = service.remember(&daemon, &p.url, &body).unwrap();
            if out.stored_new_revision {
                full_copy_bytes += body.len();
            }
        }
    }

    Outcome {
        stats: service.storage().unwrap(),
        sizes: service.storage_by_url().unwrap(),
        full_copy_bytes,
    }
}

fn main() {
    eprintln!("replaying 180 days of archival (in-memory backend)…");
    let mem = run_section7(MemRepository::new());

    eprintln!("replaying 180 days of archival (aide-store backend)…");
    // Thresholds low enough that the workload crosses every code path:
    // WAL group commit, checkpoint into segments, and compaction.
    let opts = StoreOptions {
        checkpoint_wal_bytes: 512 << 10,
        compact_min_dead_bytes: 256 << 10,
        max_segments: 4,
        ..StoreOptions::default()
    };
    let disk_repo =
        Arc::new(DiskRepository::open(MemVfs::shared() as Arc<dyn Vfs>, "aide", opts).unwrap());
    let disk = run_section7(disk_repo.clone());

    let top3 = |o: &Outcome| o.sizes.iter().take(3).map(|(_, b)| b).sum::<usize>();

    println!("=== §7 storage experiment (180 simulated days) ===\n");
    println!(
        "{:<34} {:>12} {:>12} {:>12}",
        "metric", "paper (1996)", "mem backend", "aide-store"
    );
    println!("{}", "-".repeat(74));
    let row = |metric: &str, paper: &str, m: String, d: String| {
        println!("{metric:<34} {paper:>12} {m:>12} {d:>12}");
    };
    row(
        "URLs archived",
        "500+",
        mem.stats.archives.to_string(),
        disk.stats.archives.to_string(),
    );
    row(
        "total archive size",
        "< 8 MB",
        format!("{:.1} MB", mem.stats.bytes as f64 / 1e6),
        format!("{:.1} MB", disk.stats.bytes as f64 / 1e6),
    );
    row(
        "average per URL",
        "14.3 KB",
        format!("{:.1} KB", mem.stats.bytes_per_archive() / 1024.0),
        format!("{:.1} KB", disk.stats.bytes_per_archive() / 1024.0),
    );
    row(
        "top-3 (churner) share",
        "2.7/8 = 34%",
        format!("{:.0}%", 100.0 * top3(&mem) as f64 / mem.stats.bytes as f64),
        format!(
            "{:.0}%",
            100.0 * top3(&disk) as f64 / disk.stats.bytes as f64
        ),
    );
    row(
        "revisions stored",
        "(n/a)",
        mem.stats.revisions.to_string(),
        disk.stats.revisions.to_string(),
    );
    row(
        "full-copy storage would be",
        "(n/a)",
        format!("{:.1} MB", mem.full_copy_bytes as f64 / 1e6),
        format!("{:.1} MB", disk.full_copy_bytes as f64 / 1e6),
    );
    row(
        "delta-storage ratio",
        "\"minimal\"",
        format!(
            "{:.0}%",
            100.0 * mem.stats.bytes as f64 / mem.full_copy_bytes as f64
        ),
        format!(
            "{:.0}%",
            100.0 * disk.stats.bytes as f64 / disk.full_copy_bytes as f64
        ),
    );

    println!("\ntop five archives by size:");
    for (url, bytes) in mem.sizes.iter().take(5) {
        println!("  {:>9.1} KB  {url}", *bytes as f64 / 1024.0);
    }

    println!("\naide-store engine after the run:");
    println!("  segments on disk: {}", disk_repo.segment_count());
    println!(
        "  write-ahead log:  {:.1} KB pending checkpoint",
        disk_repo.wal_len() as f64 / 1024.0
    );

    // The backends must agree to the byte: same workload, same `,v`
    // serialization, same accounting rules.
    assert_eq!(mem.stats, disk.stats, "backends disagree on §7 accounting");
    assert_eq!(mem.sizes, disk.sizes, "backends disagree on per-URL sizes");
    println!("\nbackends agree byte-for-byte ✔");
}
