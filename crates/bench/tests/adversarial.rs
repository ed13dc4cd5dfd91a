//! Adversarial pages against HtmlDiff's gap alignment: the anchored path
//! must still render what the naive DP renders, and each hostile shape
//! must take the gap algorithm that keeps it bounded.
//!
//! One test function on purpose: `aide_obs::install` is process-global,
//! so the `diff.fallback.*` counters read here must not pick up another
//! test's diffs.
//!
//! Not covered: a 1 MB single sentence and a page of 10k identical
//! sentences stay quadratic on both the anchored and the naive path.
//! Every repeated sentence matches every other, so neither anchors nor
//! the banded DP apply. Bounding those is the job of a per-request diff
//! work budget, not of the aligner.

use aide_htmldiff::{html_diff, CompareOptions, Options};
use aide_obs::MetricsRegistry;
use aide_workloads::adversarial::{markup_run, repeated_sentences, unique_replace};
use aide_workloads::{EditModel, Page, Rng};
use std::sync::Arc;

/// Diffs `old` against `new` and returns the `diff.fallback.*` counts it
/// recorded, as `[dense, banded, hirschberg]`.
fn fallbacks(old: &str, new: &str, opts: &Options) -> [u64; 3] {
    let reg = Arc::new(MetricsRegistry::new());
    let prev = aide_obs::install(reg.clone());
    html_diff(old, new, opts);
    aide_obs::uninstall();
    if let Some(prev) = prev {
        aide_obs::install(prev);
    }
    let counters = reg.snapshot().counters;
    ["dense", "banded", "hirschberg"].map(|path| {
        counters
            .get(&format!("diff.fallback.{path}"))
            .copied()
            .unwrap_or(0)
    })
}

#[test]
fn adversarial_pages_match_naive_and_take_bounded_gap_paths() {
    let naive = Options {
        compare: CompareOptions {
            force_naive: true,
            ..CompareOptions::default()
        },
        ..Options::default()
    };
    for (name, (old, new)) in [
        ("all-markup", markup_run(300)),
        ("repeated sentences", repeated_sentences(300)),
        ("all-unique replace", unique_replace(300)),
    ] {
        let fast = html_diff(&old, &new, &Options::default());
        let slow = html_diff(&old, &new, &naive);
        assert_eq!(fast.html, slow.html, "{name}: fast path diverged");
        assert_eq!(
            format!("{:?}", fast.stats),
            format!("{:?}", slow.stats),
            "{name}: stats diverged"
        );
    }

    // 6,000 break tokens with one inserted: the banded DP aligns the one
    // gap left after the suffix trim in O((N+M)·D) cells, where the
    // full-matrix DP would fill 9 million.
    let (old, new) = markup_run(3000);
    assert_eq!(fallbacks(&old, &new, &Options::default()), [0, 1, 0]);

    // A 64 KB full replacement is one gap well under the dense limit.
    let mut rng = Rng::new(7);
    let mut page = Page::generate(&mut rng, 64 * 1024);
    let old = page.render();
    EditModel::FullReplace.apply(&mut page, &mut rng, 1);
    assert_eq!(
        fallbacks(&old, &page.render(), &Options::default()),
        [1, 0, 0]
    );

    // The naive path's one rectangle is labelled by the algorithm that
    // aligns it: 1,500 × 1,501 cells is past the full-matrix DP's limit,
    // so `weighted_lcs` runs Hirschberg.
    let (old, new) = markup_run(750);
    assert_eq!(fallbacks(&old, &new, &naive), [0, 0, 1]);
}
