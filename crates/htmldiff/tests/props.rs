//! Property-based tests for HtmlDiff.
//!
//! Invariants:
//! - a document diffed against itself is identical, site-free, and emits
//!   no strike-out or emphasis markers;
//! - whitespace reflow never produces differences;
//! - every word of the new document survives into the merged page, and
//!   no old-only markup (HREF/SRC values) leaks into it;
//! - stats are internally consistent with the alignment;
//! - the merged page's own lexing never reveals unbalanced STRIKE tags;
//! - on edit-structured revisions the anchored fast path renders the
//!   byte-identical merged page (and identical stats) as the naive full
//!   DP, for any gap-worker count.

use aide_htmldiff::{html_diff, tokenize, CompareOptions, Options};
use proptest::prelude::*;

/// Generates small synthetic HTML documents from a fixed vocabulary.
fn html_strategy() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        Just("<P>".to_string()),
        Just("<HR>".to_string()),
        Just("<LI>".to_string()),
        Just("<H2>".to_string()),
        Just("<B>".to_string()),
        Just("</B>".to_string()),
        Just("alpha ".to_string()),
        Just("beta ".to_string()),
        Just("gamma. ".to_string()),
        Just("delta! ".to_string()),
        Just("epsilon ".to_string()),
        Just(r#"<A HREF="x.html">link</A> "#.to_string()),
        Just(r#"<IMG SRC="pic.gif"> "#.to_string()),
    ];
    proptest::collection::vec(piece, 0..25).prop_map(|v| v.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn self_diff_is_identical(doc in html_strategy()) {
        let r = html_diff(&doc, &doc, &Options::default());
        prop_assert!(r.stats.is_identical(), "{:?}", r.stats);
        prop_assert_eq!(r.stats.difference_sites, 0);
        prop_assert!(!r.html.contains("<STRIKE>"));
        prop_assert!(!r.html.contains("<STRONG><I>"));
    }

    #[test]
    fn whitespace_reflow_is_invisible(doc in html_strategy()) {
        let reflowed = doc.replace(' ', "\n  ");
        let r = html_diff(&doc, &reflowed, &Options::default());
        prop_assert!(r.stats.is_identical(), "{:?}", r.stats);
    }

    #[test]
    fn stats_consistent_with_token_counts(a in html_strategy(), b in html_strategy()) {
        let r = html_diff(&a, &b, &Options::default());
        let s = &r.stats;
        prop_assert_eq!(
            s.old_tokens,
            s.common_tokens + s.old_only_sentences + s.old_only_breaks
        );
        prop_assert_eq!(
            s.new_tokens,
            s.common_tokens + s.new_only_sentences + s.new_only_breaks
        );
        prop_assert!(s.changed_pairs <= s.common_tokens);
        prop_assert!((0.0..=1.0).contains(&s.changed_fraction));
        prop_assert!((0.0..=1.0).contains(&s.muddle));
    }

    #[test]
    fn new_words_survive_into_merged_page(a in html_strategy(), b in html_strategy()) {
        let r = html_diff(&a, &b, &Options::default());
        // Every word of the new document must appear in the merged page.
        for token in tokenize(&b) {
            if let Some(s) = token.as_sentence() {
                for item in &s.items {
                    if let aide_htmldiff::Inline::Word(w) = item {
                        prop_assert!(
                            r.html.contains(*w),
                            "word {w:?} missing from merged page"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn strike_tags_balanced(a in html_strategy(), b in html_strategy()) {
        let r = html_diff(&a, &b, &Options::default());
        prop_assert_eq!(
            r.html.matches("<STRIKE>").count(),
            r.html.matches("</STRIKE>").count()
        );
        prop_assert_eq!(
            r.html.matches("<STRONG><I>").count(),
            r.html.matches("</I></STRONG>").count()
        );
    }

    #[test]
    fn arrow_sites_match_stats(a in html_strategy(), b in html_strategy()) {
        let r = html_diff(&a, &b, &Options::default());
        let named = (0..).take_while(|i| r.html.contains(&format!("NAME=\"diff{i}\""))).count();
        prop_assert_eq!(named, r.stats.difference_sites);
    }

    #[test]
    fn tokenize_is_deterministic(doc in html_strategy()) {
        prop_assert_eq!(tokenize(&doc), tokenize(&doc));
    }

    #[test]
    fn inline_word_diff_never_panics(a in html_strategy(), b in html_strategy()) {
        let opts = Options { inline_word_diff: true, ..Options::default() };
        let _ = html_diff(&a, &b, &opts);
    }
}

/// One building block of an edit-structured document; the index keeps
/// word content high-entropy (real sentences rarely repeat verbatim).
fn piece(i: usize, sel: u8) -> String {
    match sel {
        0 => "<P>".to_string(),
        1 => "<HR>".to_string(),
        2 => "<LI>".to_string(),
        3 => format!("word{i} common tail. "),
        4 => format!("item{i} stays mostly put! "),
        5 => format!(r#"<A HREF="x{i}.html">link{i}</A> "#),
        _ => format!("sentence{i} with a few more words here. "),
    }
}

/// An old/new HTML pair where the new page is the old one plus 1–3
/// spliced block edits — the revision structure the anchored fast path
/// promises to render byte-identically to the naive DP. (Two
/// *independent* random documents would be a full-replacement workload,
/// which the dedicated crossing-anchor fallback tests already cover.)
fn edit_structured_html_pair() -> impl Strategy<Value = (String, String)> {
    let base = proptest::collection::vec(0u8..7, 5..40);
    let edits = proptest::collection::vec((0usize..3, 0usize..1000, 1usize..6, 0u8..7), 1..4);
    (base, edits).prop_map(|(sels, edits)| {
        let old: Vec<String> = sels.iter().enumerate().map(|(i, &s)| piece(i, s)).collect();
        let mut new = old.clone();
        let mut fresh = 10_000usize;
        for (kind, pos, len, sel) in edits {
            let at = if new.is_empty() { 0 } else { pos % new.len() };
            let end = (at + len).min(new.len());
            let mut block = |n: usize| -> Vec<String> {
                (0..n)
                    .map(|_| {
                        fresh += 1;
                        piece(fresh, sel)
                    })
                    .collect()
            };
            match kind {
                0 => {
                    new.drain(at..end);
                }
                1 => {
                    let b = block(len);
                    new.splice(at..at, b);
                }
                _ => {
                    let b = block(end - at);
                    new.splice(at..end, b);
                }
            }
        }
        (old.concat(), new.concat())
    })
}

/// Renders `a` vs `b` through the default fast path and the forced
/// naive full DP and asserts byte-identical pages and stats.
fn assert_fast_equals_naive(a: &str, b: &str) -> Result<(), TestCaseError> {
    let fast = html_diff(a, b, &Options::default());
    let naive_opts = Options {
        compare: CompareOptions {
            force_naive: true,
            ..CompareOptions::default()
        },
        ..Options::default()
    };
    let naive = html_diff(a, b, &naive_opts);
    prop_assert_eq!(&fast.html, &naive.html);
    prop_assert_eq!(format!("{:?}", fast.stats), format!("{:?}", naive.stats));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fast_path_renders_byte_identical_to_naive(ab in edit_structured_html_pair()) {
        let (a, b) = ab;
        let fast = html_diff(&a, &b, &Options::default());
        let naive_opts = Options {
            compare: CompareOptions { force_naive: true, ..CompareOptions::default() },
            ..Options::default()
        };
        let naive = html_diff(&a, &b, &naive_opts);
        prop_assert_eq!(&fast.html, &naive.html);
        prop_assert_eq!(format!("{:?}", fast.stats), format!("{:?}", naive.stats));
    }

    // Degenerate shapes where anchoring finds nothing to hold on to (or
    // everything): the fast path must still reproduce the naive DP.

    #[test]
    fn degenerate_empty_document_matches_naive(doc in html_strategy()) {
        assert_fast_equals_naive("", &doc)?;
        assert_fast_equals_naive(&doc, "")?;
        assert_fast_equals_naive("", "")?;
    }

    #[test]
    fn degenerate_single_token_matches_naive(doc in html_strategy(), sel in 0u8..7) {
        let single = piece(3, sel);
        assert_fast_equals_naive(&single, &doc)?;
        assert_fast_equals_naive(&doc, &single)?;
        assert_fast_equals_naive(&single, &single)?;
    }

    #[test]
    fn degenerate_all_identical_tokens_match_naive(n in 0usize..30, m in 0usize..30) {
        // Every token hashes alike: zero unique anchors — pure DP
        // fallback.
        let a = "same words every time. ".repeat(n);
        let b = "same words every time. ".repeat(m);
        assert_fast_equals_naive(&a, &b)?;
    }

    #[test]
    fn degenerate_all_unique_tokens_match_naive(n in 0usize..30, m in 0usize..30) {
        // No token appears on both sides: the alignment is one giant
        // replacement and every anchor candidate dies at verification.
        let a: String = (0..n).map(|i| format!("only old {i} here. ")).collect();
        let b: String = (0..m).map(|i| format!("just new {i} there. ")).collect();
        assert_fast_equals_naive(&a, &b)?;
    }
}

/// Whether `part` lies inside `whole`'s bytes: a pointer-range check, so
/// an equal copy held elsewhere does not pass.
fn within(whole: &str, part: &str) -> bool {
    let w = whole.as_bytes().as_ptr_range();
    let p = part.as_bytes().as_ptr_range();
    w.start <= p.start && p.end <= w.end
}

/// Asserts that every word of `tokenize(html)` is a slice of `html`.
fn assert_words_borrowed(html: &str) -> Result<(), TestCaseError> {
    for token in tokenize(html) {
        for item in token.as_sentence().map_or(&[][..], |s| &s.items[..]) {
            if let aide_htmldiff::Inline::Word(w) = item {
                prop_assert!(within(html, w), "word {w:?} was copied out of the page");
            }
        }
    }
    Ok(())
}

#[test]
fn pre_lines_borrow_from_the_page() {
    let html = "<P>before it. <PRE>col1   col2\n  val1   val2\n</PRE> after it.";
    let lines: Vec<_> = tokenize(html)
        .iter()
        .filter_map(|t| t.as_sentence().map(|s| s.render()))
        .collect();
    assert!(lines.contains(&"  val1   val2".to_string()), "{lines:?}");
    assert_words_borrowed(html).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn words_borrow_from_the_page(
        a in html_strategy(),
        pre in html_strategy(),
        b in html_strategy(),
    ) {
        // Preformatted lines become words whole, so wrap one document's
        // worth of text in a <PRE> with layout of its own.
        let html = format!("{a}<PRE>{}\n  x  y\n</PRE>{b}", pre.replace("! ", "!\n "));
        assert_words_borrowed(&html)?;
    }
}
