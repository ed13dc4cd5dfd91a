//! Property-based tests for the snapshot service.
//!
//! Invariants:
//! - every body ever remembered checks out byte-identically at the
//!   revision the service reported;
//! - re-remembering any historical body never corrupts the archive;
//! - the control file tracks exactly what each user remembered;
//! - diff-cache hits return the same HTML the original rendering did;
//! - storage equals the sum of per-URL sizes.

use aide_htmldiff::Options as DiffOptions;
use aide_rcs::repo::MemRepository;
use aide_snapshot::service::{SnapshotService, UserId};
use aide_util::time::{Clock, Duration, Timestamp};
use proptest::prelude::*;

fn bodies() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        proptest::collection::vec(
            prop_oneof![
                Just("<P>alpha beta.".to_string()),
                Just("<P>gamma delta!".to_string()),
                Just("<HR>".to_string()),
                Just("line with @ and d1 2 tricky content\n".to_string()),
                Just("".to_string()),
            ],
            0..6,
        )
        .prop_map(|v| v.concat()),
        1..10,
    )
}

fn service() -> (Clock, SnapshotService<MemRepository>) {
    let clock = Clock::starting_at(Timestamp(1_000_000));
    let s = SnapshotService::new(MemRepository::new(), clock.clone(), 1 << 20);
    (clock, s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_remembered_body_checks_out(bodies in bodies()) {
        let (clock, service) = service();
        let user = UserId::new("u@x");
        let mut expected: Vec<(aide_rcs::archive::RevId, String)> = Vec::new();
        for b in &bodies {
            clock.advance(Duration::hours(1));
            let out = service.remember(&user, "http://p/", b).unwrap();
            expected.push((out.rev, b.clone()));
        }
        for (rev, body) in &expected {
            prop_assert_eq!(&service.revision_text("http://p/", *rev).unwrap(), body);
        }
    }

    #[test]
    fn remembering_historical_bodies_is_safe(bodies in bodies()) {
        let (clock, service) = service();
        let user = UserId::new("u@x");
        for b in &bodies {
            clock.advance(Duration::hours(1));
            service.remember(&user, "http://p/", b).unwrap();
        }
        // Remember every historical body again, in order.
        for b in &bodies {
            clock.advance(Duration::hours(1));
            service.remember(&user, "http://p/", b).unwrap();
        }
        // The archive is still fully readable.
        let history = service.history(&user, "http://p/").unwrap();
        for (meta, _) in history {
            service.revision_text("http://p/", meta.id).unwrap();
        }
    }

    #[test]
    fn last_seen_tracks_latest_remember(bodies in bodies()) {
        let (clock, service) = service();
        let user = UserId::new("u@x");
        let mut last = None;
        for b in &bodies {
            clock.advance(Duration::hours(1));
            let out = service.remember(&user, "http://p/", b).unwrap();
            last = Some(out.rev);
        }
        prop_assert_eq!(service.last_seen(&user, "http://p/"), last);
    }

    #[test]
    fn cached_diff_equals_fresh_diff(a in "[a-z .]{0,40}", b in "[a-z .]{0,40}") {
        let (clock, service) = service();
        let user = UserId::new("u@x");
        let body_a = format!("<P>{a}");
        let body_b = format!("<P>{b}x"); // ensure distinct
        service.remember(&user, "http://p/", &body_a).unwrap();
        clock.advance(Duration::hours(1));
        let out = service.remember(&user, "http://p/", &body_b).unwrap();
        prop_assume!(out.stored_new_revision);
        let opts = DiffOptions::default();
        let first = service
            .diff_versions("http://p/", aide_rcs::archive::RevId(1), out.rev, &opts)
            .unwrap();
        let second = service
            .diff_versions("http://p/", aide_rcs::archive::RevId(1), out.rev, &opts)
            .unwrap();
        prop_assert!(!first.from_cache);
        prop_assert!(second.from_cache);
        prop_assert_eq!(first.html, second.html);
    }

    #[test]
    fn storage_is_sum_of_sizes(urls in 1usize..6, bodies in bodies()) {
        let (clock, service) = service();
        let user = UserId::new("u@x");
        for (k, b) in bodies.iter().enumerate() {
            clock.advance(Duration::hours(1));
            service
                .remember(&user, &format!("http://site/{}.html", k % urls), b)
                .unwrap();
        }
        let stats = service.storage().unwrap();
        let sum: usize = service.storage_by_url().unwrap().iter().map(|(_, b)| b).sum();
        prop_assert_eq!(stats.bytes, sum);
    }
}
