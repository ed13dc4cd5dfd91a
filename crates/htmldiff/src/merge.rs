//! Merged-page construction (§5.2).
//!
//! "Our preference is to present the differences in the merged-page
//! format to provide context and use internal hypertext references to
//! link the differences together in a chain so the user can quickly jump
//! from difference to difference." Old material appears struck out
//! (`<STRIKE>`, "rarely used in HTML found on the W3"); new material in
//! `<STRONG><I>` (there being "no ideal font for showing new text"); a
//! red arrow points to old content and a green arrow to new content; and
//! the syntactic problem of merging is handled "by eliminating all old
//! markups from the merged page", so deleted images and anchors do not
//! appear.

use crate::compare::TokenAlignment;
use crate::token::{push_words, DiffToken, Sentence};
use aide_diffcore::script::EditOp;
use std::fmt::Write;

/// Statistics of one comparison, for reports and experiments.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DiffStats {
    /// Tokens in the old document.
    pub old_tokens: usize,
    /// Tokens in the new document.
    pub new_tokens: usize,
    /// Matched token pairs.
    pub common_tokens: usize,
    /// Matched pairs that are not byte-identical (edited in place).
    pub changed_pairs: usize,
    /// Sentences present only in the old document.
    pub old_only_sentences: usize,
    /// Sentences present only in the new document.
    pub new_only_sentences: usize,
    /// Sentence-breaking markups present only in the old document
    /// (format-only deletions).
    pub old_only_breaks: usize,
    /// Sentence-breaking markups present only in the new document
    /// (format-only additions).
    pub new_only_breaks: usize,
    /// Arrow sites emitted in the merged page.
    pub difference_sites: usize,
    /// Fraction of all tokens that changed (see [`crate::muddle`]).
    pub changed_fraction: f64,
    /// Interspersion score (see [`crate::muddle`]).
    pub muddle: f64,
}

impl DiffStats {
    /// True if the two documents compared identical.
    pub fn is_identical(&self) -> bool {
        self.changed_pairs == 0
            && self.old_only_sentences == 0
            && self.new_only_sentences == 0
            && self.old_only_breaks == 0
            && self.new_only_breaks == 0
    }

    /// True if any *content* (as opposed to formatting) changed — the
    /// paragraph-to-list example shows "no change to content, but a
    /// change to the formatting".
    pub fn content_changed(&self) -> bool {
        self.changed_pairs > 0 || self.old_only_sentences > 0 || self.new_only_sentences > 0
    }
}

/// A maximal run of the alignment, the unit presentation works in.
#[derive(Debug, Clone)]
pub enum Segment {
    /// Matched pairs `(old_idx, new_idx, identical)`.
    Common(Vec<(usize, usize, bool)>),
    /// Old-only token indices.
    Old(Vec<usize>),
    /// New-only token indices.
    New(Vec<usize>),
}

/// Splits an alignment into maximal segments in merged-document order
/// (old-only material precedes new-only material at the same position,
/// matching how a change reads: strike-out first, replacement after).
pub fn segments(alignment: &TokenAlignment) -> Vec<Segment> {
    let mut out = Vec::new();
    let script = alignment.alignment.script();
    let mut pair_idx = 0usize;
    for op in script.ops {
        match op {
            EditOp::Equal {
                a_start,
                b_start,
                len,
            } => {
                let mut pairs = Vec::with_capacity(len);
                for k in 0..len {
                    let identical = alignment
                        .identical
                        .get(pair_idx + k)
                        .copied()
                        .unwrap_or(false);
                    pairs.push((a_start + k, b_start + k, identical));
                }
                pair_idx += len;
                out.push(Segment::Common(pairs));
            }
            EditOp::Delete { a_start, len, .. } => {
                out.push(Segment::Old((a_start..a_start + len).collect()));
            }
            EditOp::Insert { b_start, len, .. } => {
                out.push(Segment::New((b_start..b_start + len).collect()));
            }
        }
    }
    out
}

/// Whether an old-only run contains visible content (worth an arrow and a
/// strike-out). Pure-markup deletions are format changes and are elided
/// silently.
pub fn old_run_has_content(old: &[DiffToken<'_>], idxs: &[usize]) -> bool {
    idxs.iter().any(|&i| match &old[i] {
        DiffToken::Sentence(s) => s.word_count() > 0,
        DiffToken::Break(_) => false,
    })
}

/// Whether a new-only run contains content (sentences with any items).
pub fn new_run_has_content(new: &[DiffToken<'_>], idxs: &[usize]) -> bool {
    idxs.iter()
        .any(|&i| matches!(&new[i], DiffToken::Sentence(s) if !s.is_empty()))
}

/// Appends markup for an arrow site to `out`: a named anchor chained to
/// the next difference, wrapping an arrow image.
pub fn push_arrow(out: &mut String, site: usize, total: usize, img: &str, alt: &str) {
    // Formatting into a `String` cannot fail.
    let _ = write!(out, "<A NAME=\"diff{site}\" HREF=\"");
    if site + 1 < total {
        let _ = write!(out, "#diff{}", site + 1);
    } else {
        out.push_str("#difftop");
    }
    let _ = write!(out, "\"><IMG SRC=\"{img}\" ALT=\"[{alt}]\" BORDER=0></A>");
}

/// Appends an old (deleted) sentence to `out`: struck-out words, markups
/// elided. A sentence without words appends nothing; returns whether
/// anything was appended.
pub fn push_old_sentence(out: &mut String, s: &Sentence<'_>) -> bool {
    let mark = out.len();
    out.push_str("<STRIKE>");
    if push_words(out, &s.items) {
        out.push_str("</STRIKE>");
        true
    } else {
        out.truncate(mark);
        false
    }
}

/// Appends a new (inserted) sentence to `out`: emphasized, markups
/// intact.
pub fn push_new_sentence(out: &mut String, s: &Sentence<'_>) {
    out.push_str("<STRONG><I>");
    s.render_into(out);
    out.push_str("</I></STRONG>");
}

/// Renders the banner inserted at the front of the merged page (visible
/// in Figure 2 of the paper), linking to the first difference.
pub fn banner(sites: usize, old_label: &str, new_label: &str) -> String {
    let jump = if sites > 0 {
        " <A HREF=\"#diff0\">[go to first change]</A>".to_string()
    } else {
        " No differences were found.".to_string()
    };
    format!(
        "<A NAME=\"difftop\"></A><H4>AIDE HtmlDiff: {old_label} vs. {new_label} \
         &#183; {sites} change{}{jump}</H4>\n<HR>\n",
        if sites == 1 { "" } else { "s" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{compare_tokens, CompareOptions};
    use crate::tokenize::tokenize;

    fn seg<'a>(
        old_html: &'a str,
        new_html: &'a str,
    ) -> (Vec<DiffToken<'a>>, Vec<DiffToken<'a>>, Vec<Segment>) {
        let old = tokenize(old_html);
        let new = tokenize(new_html);
        let al = compare_tokens(&old, &new, &CompareOptions::default());
        let s = segments(&al);
        (old, new, s)
    }

    #[test]
    fn identical_is_one_common_segment() {
        let (_, _, s) = seg("<P>same text here.", "<P>same text here.");
        assert_eq!(s.len(), 1);
        assert!(matches!(&s[0], Segment::Common(p) if p.len() == 2));
    }

    #[test]
    fn pure_insert_order() {
        let (_, _, s) = seg("<P>alpha.", "<P>alpha. beta!");
        assert_eq!(s.len(), 2);
        assert!(matches!(&s[0], Segment::Common(_)));
        assert!(matches!(&s[1], Segment::New(v) if v.len() == 1));
    }

    #[test]
    fn replace_puts_old_before_new() {
        let (_, _, s) = seg("<P>alpha beta gamma.", "<P>completely different words!");
        // Common(<P>), Old(sentence), New(sentence).
        assert_eq!(s.len(), 3);
        assert!(matches!(&s[1], Segment::Old(_)));
        assert!(matches!(&s[2], Segment::New(_)));
    }

    #[test]
    fn old_run_content_detection() {
        let old = tokenize("<P><HR>");
        assert!(!old_run_has_content(&old, &[0, 1]), "breaks only");
        let old = tokenize("<P>words here");
        assert!(old_run_has_content(&old, &[0, 1]));
    }

    #[test]
    fn new_run_content_detection() {
        let new = tokenize("<UL><LI>");
        assert!(!new_run_has_content(&new, &[0, 1]));
        let new = tokenize("<LI>item text");
        assert!(new_run_has_content(&new, &[0, 1]));
    }

    #[test]
    fn arrow_chain_links() {
        let mut a0 = String::new();
        push_arrow(&mut a0, 0, 3, "green.gif", "new");
        assert!(a0.contains("NAME=\"diff0\""));
        assert!(a0.contains("HREF=\"#diff1\""));
        let mut last = String::new();
        push_arrow(&mut last, 2, 3, "red.gif", "old");
        assert!(
            last.contains("HREF=\"#difftop\""),
            "last arrow wraps to banner: {last}"
        );
    }

    #[test]
    fn old_sentence_rendering_elides_markups() {
        let tokens = tokenize(r#"gone <A HREF="dead.html">link</A> text"#);
        let s = tokens[0].as_sentence().unwrap();
        let mut r = String::new();
        push_old_sentence(&mut r, s);
        assert_eq!(r, "<STRIKE>gone link text</STRIKE>");
        assert!(!r.contains("HREF"), "old markups must not appear");
    }

    #[test]
    fn new_sentence_rendering_keeps_markups() {
        let tokens = tokenize(r#"fresh <A HREF="new.html">link</A>"#);
        let s = tokens[0].as_sentence().unwrap();
        let mut r = String::new();
        push_new_sentence(&mut r, s);
        assert!(r.starts_with("<STRONG><I>"));
        assert!(r.contains("HREF=\"new.html\""));
    }

    #[test]
    fn banner_forms() {
        let b = banner(3, "1.1", "1.2");
        assert!(b.contains("difftop"));
        assert!(b.contains("#diff0"));
        assert!(b.contains("3 changes"));
        let none = banner(0, "a", "b");
        assert!(none.contains("No differences"));
        let one = banner(1, "a", "b");
        assert!(one.contains("1 change"));
        assert!(!one.contains("1 changes"));
    }

    #[test]
    fn stats_identity_flags() {
        let mut s = DiffStats::default();
        assert!(s.is_identical());
        assert!(!s.content_changed());
        s.new_only_breaks = 1;
        assert!(!s.is_identical());
        assert!(!s.content_changed(), "break-only changes are format-only");
        s.new_only_sentences = 1;
        assert!(s.content_changed());
    }
}
