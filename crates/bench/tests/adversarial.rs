//! Adversarial pages against HtmlDiff's gap alignment: the anchored path
//! must still render what the naive DP renders, and each hostile shape
//! must take the gap algorithm that keeps it bounded. Hostile pages
//! against its tokenizer must give the two-pass oracle's tokens, with
//! work linear in their size.
//!
//! One test function for the gap paths on purpose: `aide_obs::install`
//! is process-global, so the `diff.fallback.*` counters read here must
//! not pick up another test's diffs. (The tokenizer test next to it
//! aligns nothing, so it adds to no fallback counter.)
//!
//! Not covered: a 1 MB single sentence and a page of 10k identical
//! sentences stay quadratic on both the anchored and the naive path.
//! Every repeated sentence matches every other, so neither anchors nor
//! the banded DP apply. Bounding those is the job of a per-request diff
//! work budget, not of the aligner.

#[path = "../../htmldiff/tests/oracle/mod.rs"]
mod oracle;

use aide_htmldiff::{html_diff, tokenize, CompareOptions, Options};
use aide_obs::MetricsRegistry;
use aide_util::rng::Rng;
use aide_workloads::adversarial::{markup_run, repeated_sentences, unique_replace};
use aide_workloads::{EditModel, Page};
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

/// Tokenizes `html`, checks the tokens against the two-pass oracle, and
/// returns how many sentence items and tokens it made.
fn tokenize_like_oracle(html: &str) -> (usize, usize) {
    let tokens = tokenize(html);
    assert!(
        oracle::owned(&tokens) == oracle::two_pass_tokenize(html),
        "fused tokenizer diverged from the oracle"
    );
    let items = tokens
        .iter()
        .filter_map(|t| t.as_sentence())
        .map(|s| s.items.len())
        .sum();
    (items, tokens.len())
}

#[test]
fn hostile_pages_tokenize_like_the_oracle_in_linear_items() {
    // Each shape at 0, `n` and `2n` units: the same tokens as the
    // two-pass tokenizer, and items growing by the same count per `n`.
    type Shape = (&'static str, fn(usize) -> String, usize);
    let shapes: [Shape; 3] = [
        // At 2n: a 1 MB single sentence with no terminator;
        ("one sentence", |n| "word ".repeat(n), 110_000),
        // 100k nested inline tags around one word;
        (
            "nested tags",
            |n| format!("{}x{}", "<B>".repeat(n), "</B>".repeat(n)),
            50_000,
        ),
        // 1 MB of words separated only by non-ASCII whitespace.
        (
            "non-ASCII spaces",
            |n| "w\u{3000}\u{A0}\u{2028}".repeat(n),
            60_000,
        ),
    ];
    for (name, page, n) in shapes {
        let [(i0, _), (i1, t1), (i2, t2)] = [0, n, 2 * n].map(|k| tokenize_like_oracle(&page(k)));
        assert_eq!(i2 - i1, i1 - i0, "{name}: items not linear");
        assert_eq!((t1, t2), (1, 1), "{name}: one sentence");
    }

    // A page ending in an unterminated tag and an unterminated comment,
    // in both orders: the first one swallows the rest of the page.
    for tail in ["<A HREF=\"x <!-- open", "<!-- open <A HREF=\"x"] {
        let page = format!("<P>Some text. More text{tail}");
        let (items, tokens) = tokenize_like_oracle(&page);
        assert!(items >= 3 && tokens >= 2, "{tail}: {items} items");
    }
}
