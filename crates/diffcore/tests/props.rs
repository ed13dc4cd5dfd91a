//! Property-based tests for the diff substrate.
//!
//! Invariants checked:
//! - Myers alignments are valid (in-bounds, strictly increasing, matching
//!   tokens) and as long as the true LCS.
//! - Hirschberg and the DP produce alignments of equal weight.
//! - Edit scripts tile both sequences exactly and replay old → new.
//! - Unified diff of identical inputs is empty; a text always equals
//!   itself under `diff_lines`.
//! - The anchored fast path returns the *same pairs* as the full DP on
//!   edit-structured token streams, for any decomposition config, even
//!   when distinct tokens share class ids.

use aide_diffcore::anchor::{anchored_weighted_lcs, AnchorConfig};
use aide_diffcore::lcs::{alignment_weight, lcs_pairs, weighted_lcs_dp, weighted_lcs_hirschberg};
use aide_diffcore::lines::diff_lines;
use aide_diffcore::myers::myers_diff;
use aide_diffcore::script::{Alignment, EditOp};
use proptest::prelude::*;

fn small_seq() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..6, 0..50)
}

fn text_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("alpha"),
            Just("beta"),
            Just("gamma"),
            Just("<P>"),
            Just("")
        ],
        0..30,
    )
    .prop_map(|words| {
        let mut s = words.join("\n");
        if !s.is_empty() {
            s.push('\n');
        }
        s
    })
}

/// An edit-structured pair of token-id streams: the old stream mixes
/// high-entropy "sentence" ids (fresh value per position) with a few
/// repeated "break" ids, and the new stream is the old one with 1–3
/// block edits (delete / insert / replace) spliced in — the shape real
/// revisions of a page take, and the regime in which the anchored
/// decomposition promises DP-identical output.
fn edit_structured_pair() -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
    let base = proptest::collection::vec(0u8..4, 10..120);
    let edits = proptest::collection::vec((0usize..3, 0usize..1000, 1usize..8), 1..4);
    (base, edits).prop_map(|(kinds, edits)| {
        let mut next = 1_000u64;
        let mut a = Vec::with_capacity(kinds.len());
        for (i, k) in kinds.iter().enumerate() {
            if *k == 0 {
                a.push((i % 4) as u64); // repeated break-like id
            } else {
                next += 1;
                a.push(next); // fresh sentence-like id
            }
        }
        let mut b = a.clone();
        for (kind, pos, len) in edits {
            let at = if b.is_empty() { 0 } else { pos % b.len() };
            let end = (at + len).min(b.len());
            match kind {
                0 => {
                    b.drain(at..end);
                }
                1 => {
                    let block: Vec<u64> = (0..len)
                        .map(|_| {
                            next += 1;
                            next
                        })
                        .collect();
                    b.splice(at..at, block);
                }
                _ => {
                    let block: Vec<u64> = (0..end - at)
                        .map(|_| {
                            next += 1;
                            next
                        })
                        .collect();
                    b.splice(at..end, block);
                }
            }
        }
        (a, b)
    })
}

fn check_alignment_valid<T: PartialEq>(pairs: &[(usize, usize)], a: &[T], b: &[T]) {
    let mut last: Option<(usize, usize)> = None;
    for &(i, j) in pairs {
        assert!(i < a.len() && j < b.len());
        assert!(a[i] == b[j]);
        if let Some((pi, pj)) = last {
            assert!(i > pi && j > pj);
        }
        last = Some((i, j));
    }
}

proptest! {
    #[test]
    fn myers_is_valid_and_minimal(a in small_seq(), b in small_seq()) {
        let pairs = myers_diff(&a, &b);
        check_alignment_valid(&pairs, &a, &b);
        let lcs = lcs_pairs(&a, &b);
        prop_assert_eq!(pairs.len(), lcs.len());
    }

    #[test]
    fn myers_identity(a in small_seq()) {
        let pairs = myers_diff(&a, &a);
        prop_assert_eq!(pairs.len(), a.len());
    }

    #[test]
    fn myers_symmetry_of_distance(a in small_seq(), b in small_seq()) {
        let fwd = a.len() + b.len() - 2 * myers_diff(&a, &b).len();
        let rev = a.len() + b.len() - 2 * myers_diff(&b, &a).len();
        prop_assert_eq!(fwd, rev);
    }

    #[test]
    fn hirschberg_pairs_equal_dp_pairs(a in small_seq(), b in small_seq()) {
        // Stronger than weight equality: the linear-space replay must
        // reproduce the canonical backtrack pair for pair (§4e).
        let score = |i: usize, j: usize| u64::from(a[i] == b[j]);
        let dp = weighted_lcs_dp(a.len(), b.len(), &score);
        let hi = weighted_lcs_hirschberg(a.len(), b.len(), &score);
        prop_assert_eq!(
            alignment_weight(&dp, &score),
            alignment_weight(&hi, &score)
        );
        check_alignment_valid(&hi, &a, &b);
        prop_assert_eq!(hi, dp);
    }

    #[test]
    fn script_replay_reconstructs_new(a in small_seq(), b in small_seq()) {
        let alignment = Alignment::new(myers_diff(&a, &b), a.len(), b.len());
        let mut rebuilt: Vec<u8> = Vec::new();
        for op in alignment.script().ops {
            match op {
                EditOp::Equal { a_start, len, .. } => {
                    rebuilt.extend_from_slice(&a[a_start..a_start + len]);
                }
                EditOp::Insert { b_start, len, .. } => {
                    rebuilt.extend_from_slice(&b[b_start..b_start + len]);
                }
                EditOp::Delete { .. } => {}
            }
        }
        prop_assert_eq!(rebuilt, b);
    }

    #[test]
    fn script_tiles_both_sides(a in small_seq(), b in small_seq()) {
        let alignment = Alignment::new(myers_diff(&a, &b), a.len(), b.len());
        let mut ai = 0usize;
        let mut bi = 0usize;
        for op in alignment.script().ops {
            match op {
                EditOp::Equal { a_start, b_start, len } => {
                    prop_assert_eq!(a_start, ai);
                    prop_assert_eq!(b_start, bi);
                    ai += len;
                    bi += len;
                }
                EditOp::Delete { a_start, len, b_pos } => {
                    prop_assert_eq!(a_start, ai);
                    prop_assert_eq!(b_pos, bi);
                    ai += len;
                }
                EditOp::Insert { a_pos, b_start, len } => {
                    prop_assert_eq!(a_pos, ai);
                    prop_assert_eq!(b_start, bi);
                    bi += len;
                }
            }
        }
        prop_assert_eq!(ai, a.len());
        prop_assert_eq!(bi, b.len());
    }

    #[test]
    fn hunks_cover_all_changes(a in small_seq(), b in small_seq(), ctx in 0usize..4) {
        let alignment = Alignment::new(myers_diff(&a, &b), a.len(), b.len());
        let in_hunks: usize = alignment
            .hunks(ctx)
            .iter()
            .flat_map(|h| h.ops.iter())
            .map(|op| match op {
                EditOp::Delete { len, .. } | EditOp::Insert { len, .. } => *len,
                EditOp::Equal { .. } => 0,
            })
            .sum();
        prop_assert_eq!(in_hunks, alignment.edit_distance());
    }

    #[test]
    fn diff_lines_self_is_identical(t in text_strategy()) {
        let d = diff_lines(&t, &t);
        prop_assert!(d.is_identical());
        prop_assert_eq!(d.unified("a", "b", 3), "");
    }

    #[test]
    fn diff_lines_counts_consistent(a in text_strategy(), b in text_strategy()) {
        let d = diff_lines(&a, &b);
        let dist = d.alignment.edit_distance();
        prop_assert_eq!(d.deleted_lines() + d.inserted_lines(), dist);
    }
}

// A second block: the in-tree proptest! macro recurses per property, and
// one block holding every test in this file exceeds the default macro
// recursion limit.
proptest! {
    #[test]
    fn anchored_equals_dp_on_edit_structured_streams(ab in edit_structured_pair()) {
        let (a, b) = ab;
        let score = |i: usize, j: usize| u64::from(a[i] == b[j]);
        let verify = |i: usize, j: usize| a[i] == b[j];
        let unit_a = vec![true; a.len()];
        let unit_b = vec![true; b.len()];
        let dp = weighted_lcs_dp(a.len(), b.len(), &score);
        // Every decomposition config must reproduce the DP pairs exactly:
        // eager anchoring with plain gap DP, eager anchoring with the
        // banded unit-gap DP engaged, and the production default.
        for cfg in [
            AnchorConfig { small_cells: 0, myers_min_cells: usize::MAX },
            AnchorConfig { small_cells: 0, myers_min_cells: 16 },
            AnchorConfig::default(),
        ] {
            let (pairs, _) =
                anchored_weighted_lcs(&a, &b, &unit_a, &unit_b, &cfg, &score, &verify);
            prop_assert_eq!(&pairs, &dp, "config {:?}", cfg);
        }
    }

    #[test]
    fn anchored_equals_dp_with_colliding_class_ids(ab in edit_structured_pair()) {
        // The score and `verify_eq` see the true tokens; the class ids
        // collide in two ways. Folded onto five values, nearly every id
        // collides and anchors all but vanish. Remapped at the edit
        // sites, each id the edits added takes the class id of one they
        // removed, so the edits leave unique class-id pairs whose tokens
        // differ — exactly what only `verify_eq` can turn away. A
        // collision may cost the decomposition its anchors, never the
        // output.
        let (a, b) = ab;
        let removed: Vec<u64> = a.iter().copied().filter(|x| !b.contains(x)).collect();
        let added: Vec<u64> = b.iter().copied().filter(|x| !a.contains(x)).collect();
        let at_edit_site = |x: u64| {
            added
                .iter()
                .position(|&y| y == x)
                .and_then(|k| removed.get(k).copied())
                .unwrap_or(x)
        };
        let score = |i: usize, j: usize| u64::from(a[i] == b[j]);
        let verify = |i: usize, j: usize| a[i] == b[j];
        let unit_a = vec![true; a.len()];
        let unit_b = vec![true; b.len()];
        let dp = weighted_lcs_dp(a.len(), b.len(), &score);
        let folds: [&dyn Fn(u64) -> u64; 2] = [&|x| x % 5, &at_edit_site];
        for class in folds {
            let class_a: Vec<u64> = a.iter().map(|&x| class(x)).collect();
            let class_b: Vec<u64> = b.iter().map(|&x| class(x)).collect();
            for cfg in [
                AnchorConfig { small_cells: 0, myers_min_cells: usize::MAX },
                AnchorConfig { small_cells: 0, myers_min_cells: 16 },
                AnchorConfig::default(),
            ] {
                let (pairs, _) = anchored_weighted_lcs(
                    &class_a, &class_b, &unit_a, &unit_b, &cfg, &score, &verify,
                );
                prop_assert_eq!(&pairs, &dp, "config {:?}", cfg);
            }
        }
    }

    #[test]
    fn anchored_weighted_equals_dp_on_edit_structured_streams(ab in edit_structured_pair()) {
        let (a, b) = ab;
        // Weights vary by token class (like sentence length) but are
        // equal for equal ids, so the exactness premise still holds.
        let weight = |id: u64| 1 + id % 3;
        let score = |i: usize, j: usize| if a[i] == b[j] { weight(a[i]) } else { 0 };
        let verify = |i: usize, j: usize| a[i] == b[j];
        let unit_a: Vec<bool> = a.iter().map(|&id| weight(id) == 1).collect();
        let unit_b: Vec<bool> = b.iter().map(|&id| weight(id) == 1).collect();
        let dp = weighted_lcs_dp(a.len(), b.len(), &score);
        let cfg = AnchorConfig { small_cells: 0, ..AnchorConfig::default() };
        let (pairs, _) = anchored_weighted_lcs(&a, &b, &unit_a, &unit_b, &cfg, &score, &verify);
        prop_assert_eq!(&pairs, &dp);
    }

    // Degenerate inputs: the shapes the Hirschberg fallback and the
    // anchoring machinery must get byte-identical to the DP.
    #[test]
    fn degenerate_all_identical_tokens_match_dp(n in 0usize..40, m in 0usize..40) {
        // One repeated id on both sides: maximal tie-break pressure, no
        // unique anchors.
        let a = vec![42u64; n];
        let b = vec![42u64; m];
        check_every_path_equals_dp(&a, &b);
    }

    #[test]
    fn degenerate_all_unique_tokens_match_dp(n in 0usize..40, m in 0usize..40, shared in 0usize..10) {
        // Fresh ids everywhere except an optional shared run in the
        // middle — the full-replacement shape at token granularity.
        let mut next = 0u64;
        let mut fresh = |k: usize| -> Vec<u64> {
            (0..k)
                .map(|_| {
                    next += 1;
                    next
                })
                .collect()
        };
        let run: Vec<u64> = (0..shared).map(|k| 500_000 + k as u64).collect();
        let mut a = fresh(n);
        a.extend(&run);
        a.extend(fresh(n / 2));
        let mut b = fresh(m);
        b.extend(&run);
        b.extend(fresh(m / 2));
        check_every_path_equals_dp(&a, &b);
    }

    #[test]
    fn degenerate_single_token_sides_match_dp(a0 in 0u64..5, b in small_seq()) {
        let a = vec![a0];
        let b: Vec<u64> = b.into_iter().map(u64::from).collect();
        check_every_path_equals_dp(&a, &b);
        check_every_path_equals_dp(&b, &a);
    }
}

/// Asserts the anchored decomposition (eager, banded, default) and the
/// linear-space Hirschberg replay all reproduce the dense DP's pairs
/// exactly on `a` vs `b`.
fn check_every_path_equals_dp(a: &[u64], b: &[u64]) {
    let score = |i: usize, j: usize| u64::from(a[i] == b[j]);
    let verify = |i: usize, j: usize| a[i] == b[j];
    let unit_a = vec![true; a.len()];
    let unit_b = vec![true; b.len()];
    let dp = weighted_lcs_dp(a.len(), b.len(), &score);
    let hi = weighted_lcs_hirschberg(a.len(), b.len(), &score);
    assert_eq!(hi, dp, "hirschberg diverged");
    for cfg in [
        AnchorConfig {
            small_cells: 0,
            myers_min_cells: usize::MAX,
        },
        AnchorConfig {
            small_cells: 0,
            myers_min_cells: 16,
        },
        AnchorConfig::default(),
    ] {
        let (pairs, _) = anchored_weighted_lcs(a, b, &unit_a, &unit_b, &cfg, &score, &verify);
        assert_eq!(pairs, dp, "config {cfg:?}");
    }
}
