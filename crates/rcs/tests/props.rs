//! Property-based tests for the revision store.
//!
//! Invariants:
//! - `Delta::compute(a, b).apply(a) == b` for arbitrary texts.
//! - Delta text format round-trips through parse.
//! - Archives check out every revision exactly as checked in, including
//!   after an emit/parse round trip of the `,v` format.
//! - Checkout's line-space delta walk equals chained whole-text applies.
//! - Unchanged check-ins never create revisions.

use aide_rcs::archive::Archive;
use aide_rcs::delta::Delta;
use aide_rcs::format::{emit, parse};
use aide_util::time::Timestamp;
use proptest::prelude::*;

/// Arbitrary multi-line texts with tricky content: empty lines, `@` signs
/// (the RCS quote character), missing trailing newlines.
fn text_strategy() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(
            prop_oneof![
                Just("line"),
                Just(""),
                Just("@"),
                Just("@@"),
                Just("text with @ inside"),
                Just("d1 2"),
                Just("a3 1"),
                Just("<P>html</P>"),
            ],
            0..20,
        ),
        any::<bool>(),
    )
        .prop_map(|(lines, trailing)| {
            let mut s = lines.join("\n");
            if trailing && !s.is_empty() {
                s.push('\n');
            }
            s
        })
}

proptest! {
    #[test]
    fn delta_apply_roundtrip(a in text_strategy(), b in text_strategy()) {
        let d = Delta::compute(&a, &b);
        prop_assert_eq!(d.apply(&a).unwrap(), b);
    }

    #[test]
    fn delta_text_format_roundtrip(a in text_strategy(), b in text_strategy()) {
        let d = Delta::compute(&a, &b);
        let parsed = Delta::parse(&d.to_text()).unwrap();
        prop_assert_eq!(parsed.apply(&a).unwrap(), b);
    }

    #[test]
    fn delta_identity_is_empty(a in text_strategy()) {
        prop_assert!(Delta::compute(&a, &a).is_empty());
    }

    #[test]
    fn archive_checkouts_match_checkins(texts in proptest::collection::vec(text_strategy(), 1..8)) {
        let mut archive = Archive::create("k", &texts[0], "u", "init", Timestamp(0));
        // Record the revision each text landed at (dedup-aware).
        let mut at: Vec<(aide_rcs::archive::RevId, String)> =
            vec![(archive.head(), texts[0].clone())];
        for (i, t) in texts.iter().enumerate().skip(1) {
            let out = archive.checkin(t, "u", "log", Timestamp(i as u64 * 100)).unwrap();
            at.push((out.rev(), t.clone()));
        }
        for (rev, expected) in &at {
            prop_assert_eq!(&archive.checkout(*rev).unwrap(), expected);
        }
    }

    #[test]
    fn archive_format_roundtrip(texts in proptest::collection::vec(text_strategy(), 1..8)) {
        let mut archive = Archive::create("http://host/p?q=@x", &texts[0], "user@host", "init", Timestamp(0));
        for (i, t) in texts.iter().enumerate().skip(1) {
            archive.checkin(t, "user@host", "msg @ here", Timestamp(i as u64 * 100)).unwrap();
        }
        let parsed = parse(&emit(&archive)).unwrap();
        prop_assert_eq!(&parsed, &archive);
        for meta in archive.metas() {
            prop_assert_eq!(
                parsed.checkout(meta.id).unwrap(),
                archive.checkout(meta.id).unwrap()
            );
        }
    }

    /// The line-space checkout walk gives exactly what applying each
    /// reverse delta to the whole text in turn gives.
    #[test]
    fn checkout_matches_chained_apply(texts in proptest::collection::vec(text_strategy(), 1..10)) {
        let mut archive = Archive::create("k", &texts[0], "u", "init", Timestamp(0));
        // The texts that became revisions, oldest first.
        let mut stored = vec![texts[0].clone()];
        for (i, t) in texts.iter().enumerate().skip(1) {
            if archive.checkin(t, "u", "log", Timestamp(i as u64 * 100)).unwrap().is_new() {
                stored.push(t.clone());
            }
        }
        // The reverse deltas check-in stored, applied newest first.
        let metas = archive.metas();
        let mut expected = stored[stored.len() - 1].clone();
        prop_assert_eq!(archive.checkout(archive.head()).unwrap(), expected.clone());
        for k in (0..stored.len() - 1).rev() {
            expected = Delta::compute(&stored[k + 1], &stored[k]).apply(&expected).unwrap();
            prop_assert_eq!(archive.checkout(metas[k].id).unwrap(), expected.clone());
        }
    }

    #[test]
    fn unchanged_checkin_is_noop(a in text_strategy(), b in text_strategy()) {
        let mut archive = Archive::create("k", &a, "u", "init", Timestamp(0));
        archive.checkin(&b, "u", "l", Timestamp(10)).unwrap();
        let len = archive.len();
        let out = archive.checkin(&b, "u", "l", Timestamp(20)).unwrap();
        prop_assert!(!out.is_new());
        prop_assert_eq!(archive.len(), len);
    }

    /// The on-disk format must be identity for bodies full of RCS
    /// keywords — both the collapsed markers (`$Id$`) users write and the
    /// expanded forms (`$Id: page,v 1.3 ...$`) the CGI layer serves,
    /// which contain `$`, `:` and `,v` sequences that must not confuse
    /// the `,v` emitter.
    #[test]
    fn archive_roundtrip_with_keyword_expansion(
        texts in proptest::collection::vec(text_strategy(), 1..6),
        expand_rev in any::<bool>(),
    ) {
        let mut archive = Archive::create("k", &texts[0], "user@host", "init", Timestamp(0));
        for (i, t) in texts.iter().enumerate().skip(1) {
            let mut body = format!("$Id$\n$Revision$ $Date$\n{t}");
            if expand_rev {
                // Feed back an *expanded* keyword block, as a page saved
                // from the viewer would contain.
                let meta = archive.head_meta();
                body = aide_rcs::keyword::expand(&body, meta, "page,v");
            }
            archive.checkin(&body, "user@host", "kw", Timestamp(i as u64 * 100)).unwrap();
        }
        let parsed = parse(&emit(&archive)).unwrap();
        prop_assert_eq!(&parsed, &archive);
        for meta in archive.metas() {
            prop_assert_eq!(
                parsed.checkout(meta.id).unwrap(),
                archive.checkout(meta.id).unwrap()
            );
        }
        // Collapsing the expanded keywords is stable across the round trip.
        let head = parsed.checkout(parsed.head()).unwrap();
        prop_assert_eq!(
            aide_rcs::keyword::collapse(&head),
            aide_rcs::keyword::collapse(archive.head_text())
        );
    }

    /// Histories that pass through the empty body — pages that were
    /// cleared, then repopulated — round-trip exactly, including an
    /// archive *created* empty.
    #[test]
    fn archive_roundtrip_through_empty_bodies(
        texts in proptest::collection::vec(text_strategy(), 1..6),
    ) {
        let mut archive = Archive::create("k", "", "u", "init", Timestamp(0));
        for (i, t) in texts.iter().enumerate() {
            // Alternate real text with empties so deltas cross the
            // zero-length boundary in both directions.
            archive.checkin(t, "u", "fill", Timestamp(i as u64 * 100 + 10)).unwrap();
            archive.checkin("", "u", "clear", Timestamp(i as u64 * 100 + 20)).unwrap();
        }
        let parsed = parse(&emit(&archive)).unwrap();
        prop_assert_eq!(&parsed, &archive);
        prop_assert_eq!(parsed.checkout(parsed.head()).unwrap(), "");
        for meta in archive.metas() {
            prop_assert_eq!(
                parsed.checkout(meta.id).unwrap(),
                archive.checkout(meta.id).unwrap()
            );
        }
    }
}

/// Authors and log messages, `@` and empty ones included.
fn name_strategy() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("w3newer"),
        Just("douglis@research.att.com"),
        Just("@"),
        Just(""),
        Just("log @@ with @ signs"),
    ]
}

/// Check-in sequences long enough to cross revision `1.9` → `1.10` and,
/// in some cases, `1.99` → `1.100`.
fn checkin_count() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..14, 98usize..103]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The `,v` length an archive keeps up to date equals what `emit`
    /// writes, after creation, every check-in and a parse.
    #[test]
    fn maintained_emit_len_matches_emit(
        first in text_strategy(),
        texts in proptest::collection::vec(text_strategy(), 1..6),
        names in proptest::collection::vec(name_strategy(), 2..5),
        desc in name_strategy(),
        count in checkin_count(),
    ) {
        let mut a = Archive::create(desc, &first, names[0], names[1], Timestamp(0));
        prop_assert_eq!(a.emitted_len(), emit(&a).len());
        for i in 0..count {
            let text = format!("{}\nrevision {i}{}", texts[i % texts.len()], if i % 3 == 0 { "\n" } else { "" });
            let text = if i % 7 == 6 { String::new() } else { text };
            let name = names[i % names.len()];
            a.checkin(&text, name, names[(i + 1) % names.len()], Timestamp(i as u64 * 60)).unwrap();
            prop_assert_eq!(a.emitted_len(), emit(&a).len(), "after check-in {}", i);
        }
        let parsed = parse(&emit(&a)).unwrap();
        prop_assert_eq!(parsed.emitted_len(), a.emitted_len());
    }

    /// Replaying a check-in — the head's metadata and text plus the
    /// reverse delta in RCS text, as a store logs it — onto the archive
    /// it was made from gives the checked-in archive, byte for byte.
    #[test]
    fn replayed_checkin_emits_like_the_checkin(
        texts in proptest::collection::vec(text_strategy(), 2..8),
        names in proptest::collection::vec(name_strategy(), 2..4),
    ) {
        let mut a = Archive::create("http://h/p@x", &texts[0], names[0], "init", Timestamp(0));
        for (i, t) in texts.iter().enumerate().skip(1) {
            let base = a.clone();
            if !a.checkin(t, names[i % names.len()], names[(i + 1) % names.len()], Timestamp(i as u64 * 100)).unwrap().is_new() {
                continue;
            }
            prop_assert!(a.is_checkin_of(&base));
            prop_assert!(!base.is_checkin_of(&a));
            let (meta, delta) = a.newest_checkin().unwrap();
            let mut replayed = base.clone();
            replayed
                .replay_checkin(meta.clone(), a.head_text(), Delta::parse(&delta.to_text()).unwrap())
                .unwrap();
            prop_assert_eq!(emit(&replayed), emit(&a));
            prop_assert_eq!(&replayed, &a);
            // A replay names the next revision, so a second one fails.
            let (meta, delta) = a.newest_checkin().unwrap();
            prop_assert!(replayed.replay_checkin(meta.clone(), a.head_text(), delta.clone()).is_err());
        }
    }
}
