//! Presentation of the comparison (§5.2): the public `html_diff` entry
//! point and the presentation modes the paper weighs.
//!
//! - **Merged-page** (the paper's preference): one page summarizing
//!   common, old and new material, with a banner and an arrow chain.
//! - **Only differences**: "show only differences (old and new) and
//!   eliminate the common part (as done in UNIX diff)".
//! - **Reversed**: "by reversing the sense of 'old' and 'new' one can
//!   create a merged page with the old markups intact and the new
//!   deleted".
//! - **New-only**: "a more Draconian option would be to leave out all old
//!   material", which is always syntactically safe.
//!
//! Side-by-side was rejected in the paper: "there is no good mechanism
//! in place with current HTML and browser technology" for vertical
//! synchronization. Tables (new in Netscape 1.1) actually suffice, so
//! [`Presentation::SideBySide`] implements it here as an extension.

use crate::compare::{compare_tokens, CompareOptions, TokenAlignment};
use crate::merge::{
    banner, new_run_has_content, old_run_has_content, push_arrow, push_new_sentence,
    push_old_sentence, DiffStats, Segment,
};
use crate::muddle::{analyze, MuddleReport, MuddleThresholds};
use crate::token::{push_words, DiffToken, Inline, Sentence};
use crate::tokenize::tokenize;
use aide_diffcore::lcs::weighted_lcs;
use aide_diffcore::script::{Alignment, EditOp};

/// How to present the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Presentation {
    /// The merged page (default).
    #[default]
    Merged,
    /// Only the changed material, hunk by hunk.
    OnlyDifferences,
    /// Merged with old/new roles swapped (old markups intact).
    Reversed,
    /// Merged without any old material.
    NewOnly,
    /// Two synchronized columns in a `<TABLE>` (the presentation §5.2
    /// wished for but judged impossible with 1995 technology — tables,
    /// new in Netscape 1.1, make it expressible after all).
    SideBySide,
}

/// Options for [`html_diff`].
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Comparison tunables (thresholds, length screen).
    pub compare: CompareOptions,
    /// Presentation mode.
    pub presentation: Presentation,
    /// Emit the banner heading.
    pub banner: bool,
    /// Label for the old version in the banner (e.g. a revision or date).
    pub old_label: String,
    /// Label for the new version.
    pub new_label: String,
    /// Image URL for the "old content here" arrow (red in the paper).
    pub old_arrow_img: String,
    /// Image URL for the "new content here" arrow (green in the paper).
    pub new_arrow_img: String,
    /// Mark word-level changes inside approximately-matched sentences
    /// (an extension beyond the paper, off by default).
    pub inline_word_diff: bool,
    /// Thresholds for declaring the page too muddled.
    pub muddle: MuddleThresholds,
    /// When too muddled, fall back to a whole-replacement view instead of
    /// an interleaved merge.
    pub fallback_on_muddle: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            compare: CompareOptions::default(),
            presentation: Presentation::Merged,
            banner: true,
            old_label: "old".to_string(),
            new_label: "new".to_string(),
            old_arrow_img: "/icons/aide-red-arrow.gif".to_string(),
            new_arrow_img: "/icons/aide-green-arrow.gif".to_string(),
            inline_word_diff: false,
            muddle: MuddleThresholds::default(),
            fallback_on_muddle: false,
        }
    }
}

/// The output of [`html_diff`].
#[derive(Debug, Clone)]
pub struct DiffResult {
    /// The presentation HTML.
    pub html: String,
    /// Comparison statistics.
    pub stats: DiffStats,
    /// Interspersion analysis.
    pub muddle: MuddleReport,
    /// Whether the thresholds judged the page too muddled.
    pub too_muddled: bool,
}

/// Compares two HTML documents and renders the differences.
pub fn html_diff(old_html: &str, new_html: &str, opts: &Options) -> DiffResult {
    let old = tokenize(old_html);
    let new = tokenize(new_html);
    diff_tokens(&old, &new, opts)
}

/// Compares pre-tokenized documents (callers that cache token streams).
pub fn diff_tokens(old: &[DiffToken<'_>], new: &[DiffToken<'_>], opts: &Options) -> DiffResult {
    // Reversed presentation swaps the roles entirely and renders merged.
    if opts.presentation == Presentation::Reversed {
        let mut swapped = opts.clone();
        swapped.presentation = Presentation::Merged;
        std::mem::swap(&mut swapped.old_label, &mut swapped.new_label);
        return diff_tokens(new, old, &swapped);
    }

    let al = compare_tokens(old, new, &opts.compare);
    let segs = crate::merge::segments(&al);
    let changed_pairs = al.identical.iter().filter(|&&b| !b).count();
    let muddle = analyze(&segs, changed_pairs);
    let too_muddled = muddle.too_muddled(&opts.muddle);

    let stats = gather_stats(old, new, &al, &segs, &muddle);

    let html = if too_muddled && opts.fallback_on_muddle {
        render_replacement(old, new, &stats, opts)
    } else {
        match opts.presentation {
            Presentation::Merged | Presentation::Reversed => {
                render_merged(old, new, &segs, &stats, opts, false)
            }
            Presentation::NewOnly => render_merged(old, new, &segs, &stats, opts, true),
            Presentation::OnlyDifferences => render_only_differences(old, new, &segs, &stats, opts),
            Presentation::SideBySide => render_side_by_side(old, new, &segs, &stats, opts),
        }
    };

    DiffResult {
        html,
        stats,
        muddle,
        too_muddled,
    }
}

fn gather_stats(
    old: &[DiffToken<'_>],
    new: &[DiffToken<'_>],
    al: &TokenAlignment,
    segs: &[Segment],
    muddle: &MuddleReport,
) -> DiffStats {
    let mut stats = DiffStats {
        old_tokens: old.len(),
        new_tokens: new.len(),
        common_tokens: al.alignment.pairs.len(),
        changed_pairs: al.identical.iter().filter(|&&b| !b).count(),
        changed_fraction: muddle.changed_fraction,
        muddle: muddle.muddle,
        ..DiffStats::default()
    };
    for seg in segs {
        match seg {
            Segment::Old(idxs) => {
                for &i in idxs {
                    match &old[i] {
                        DiffToken::Sentence(_) => stats.old_only_sentences += 1,
                        DiffToken::Break(_) => stats.old_only_breaks += 1,
                    }
                }
            }
            Segment::New(idxs) => {
                for &i in idxs {
                    match &new[i] {
                        DiffToken::Sentence(_) => stats.new_only_sentences += 1,
                        DiffToken::Break(_) => stats.new_only_breaks += 1,
                    }
                }
            }
            Segment::Common(_) => {}
        }
    }
    stats.difference_sites = count_sites(old, new, segs);
    stats
}

/// A difference site earns an arrow: an edited common sentence, an
/// old-only run with visible content, or a new-only run with content.
/// Pure-markup (format-only) changes are "not highlighted" (§5.2).
fn count_sites(old: &[DiffToken<'_>], new: &[DiffToken<'_>], segs: &[Segment]) -> usize {
    let mut sites = 0;
    for seg in segs {
        match seg {
            Segment::Common(pairs) => {
                sites += pairs
                    .iter()
                    .filter(|&&(i, _, identical)| {
                        !identical && matches!(&old[i], DiffToken::Sentence(_))
                    })
                    .count();
            }
            Segment::Old(idxs) => {
                if old_run_has_content(old, idxs) {
                    sites += 1;
                }
            }
            Segment::New(idxs) => {
                if new_run_has_content(new, idxs) {
                    sites += 1;
                }
            }
        }
    }
    sites
}

fn render_merged(
    old: &[DiffToken<'_>],
    new: &[DiffToken<'_>],
    segs: &[Segment],
    stats: &DiffStats,
    opts: &Options,
    new_only: bool,
) -> String {
    let total_sites = stats.difference_sites;
    let mut out = String::new();
    if opts.banner {
        out.push_str(&banner(total_sites, &opts.old_label, &opts.new_label));
    }
    let mut site = 0usize;
    for seg in segs {
        match seg {
            Segment::Common(pairs) => {
                for &(i, j, identical) in pairs {
                    if let (false, DiffToken::Sentence(s)) = (identical, &new[j]) {
                        push_arrow(&mut out, site, total_sites, &opts.new_arrow_img, "changed");
                        site += 1;
                        match &old[i] {
                            DiffToken::Sentence(old_s) if opts.inline_word_diff => {
                                push_inline_diff(&mut out, old_s, s);
                            }
                            _ => s.render_into(&mut out),
                        }
                    } else {
                        new[j].render_into(&mut out);
                    }
                    out.push('\n');
                }
            }
            Segment::Old(idxs) => {
                if new_only {
                    continue;
                }
                if old_run_has_content(old, idxs) {
                    push_arrow(&mut out, site, total_sites, &opts.old_arrow_img, "deleted");
                    site += 1;
                    // Struck sentences, one space apart; sentences
                    // without words leave no trace.
                    let mut first = true;
                    for s in idxs.iter().filter_map(|&i| old[i].as_sentence()) {
                        let mark = out.len();
                        if !first {
                            out.push(' ');
                        }
                        if push_old_sentence(&mut out, s) {
                            first = false;
                        } else {
                            out.truncate(mark);
                        }
                    }
                    out.push('\n');
                }
                // Old breaking markups are elided entirely.
            }
            Segment::New(idxs) => {
                if new_run_has_content(new, idxs) {
                    push_arrow(&mut out, site, total_sites, &opts.new_arrow_img, "new");
                    site += 1;
                }
                for &j in idxs {
                    match &new[j] {
                        DiffToken::Break(tag) => tag.push_html(&mut out),
                        DiffToken::Sentence(s) => push_new_sentence(&mut out, s),
                    }
                    out.push('\n');
                }
            }
        }
    }
    debug_assert_eq!(site, if new_only { site } else { total_sites });
    out
}

fn render_only_differences(
    old: &[DiffToken<'_>],
    new: &[DiffToken<'_>],
    segs: &[Segment],
    stats: &DiffStats,
    opts: &Options,
) -> String {
    let mut out = String::new();
    if opts.banner {
        out.push_str(&banner(
            stats.difference_sites,
            &opts.old_label,
            &opts.new_label,
        ));
    }
    let mut in_change = false;
    for seg in segs {
        match seg {
            Segment::Common(pairs) => {
                for &(i, j, identical) in pairs {
                    if identical {
                        in_change = false;
                        continue;
                    }
                    if let (DiffToken::Sentence(old_s), DiffToken::Sentence(new_s)) =
                        (&old[i], &new[j])
                    {
                        if !in_change {
                            out.push_str("<HR>\n");
                            in_change = true;
                        }
                        push_old_sentence(&mut out, old_s);
                        out.push('\n');
                        push_new_sentence(&mut out, new_s);
                        out.push('\n');
                    }
                }
            }
            Segment::Old(idxs) => {
                if !old_run_has_content(old, idxs) {
                    continue;
                }
                if !in_change {
                    out.push_str("<HR>\n");
                    in_change = true;
                }
                for s in idxs.iter().filter_map(|&i| old[i].as_sentence()) {
                    if push_old_sentence(&mut out, s) {
                        out.push('\n');
                    }
                }
            }
            Segment::New(idxs) => {
                if !new_run_has_content(new, idxs) {
                    continue;
                }
                if !in_change {
                    out.push_str("<HR>\n");
                    in_change = true;
                }
                for s in idxs.iter().filter_map(|&j| new[j].as_sentence()) {
                    push_new_sentence(&mut out, s);
                    out.push('\n');
                }
            }
        }
    }
    out
}

/// Appends the tokens `idxs` names, one per line, to `out`.
fn push_plain(out: &mut String, tokens: &[DiffToken<'_>], idxs: impl Iterator<Item = usize>) {
    for (k, i) in idxs.enumerate() {
        if k > 0 {
            out.push('\n');
        }
        tokens[i].render_into(out);
    }
}

/// Two synchronized columns: common segments span both, old-only
/// material sits struck-out on the left against an empty right cell, and
/// new-only material sits emphasized on the right. Rows align because
/// they are table rows — the vertical synchronization §5.2 could not get
/// from 1995 HTML flows.
fn render_side_by_side(
    old: &[DiffToken<'_>],
    new: &[DiffToken<'_>],
    segs: &[Segment],
    stats: &DiffStats,
    opts: &Options,
) -> String {
    let mut out = String::new();
    if opts.banner {
        out.push_str(&banner(
            stats.difference_sites,
            &opts.old_label,
            &opts.new_label,
        ));
    }
    out.push_str("<TABLE BORDER=1 WIDTH=\"100%\">\n");
    out.push_str(&format!(
        "<TR><TH>{}</TH><TH>{}</TH></TR>\n",
        opts.old_label, opts.new_label
    ));
    for seg in segs {
        match seg {
            Segment::Common(pairs) => {
                out.push_str("<TR><TD>");
                push_plain(&mut out, old, pairs.iter().map(|&(i, _, _)| i));
                out.push_str("</TD><TD>");
                push_plain(&mut out, new, pairs.iter().map(|&(_, j, _)| j));
                out.push_str("</TD></TR>\n");
            }
            Segment::Old(idxs) => {
                out.push_str("<TR><TD>");
                if old_run_has_content(old, idxs) {
                    out.push_str("<STRIKE>");
                    push_plain(&mut out, old, idxs.iter().copied());
                    out.push_str("</STRIKE>");
                } else {
                    push_plain(&mut out, old, idxs.iter().copied());
                }
                out.push_str("</TD><TD></TD></TR>\n");
            }
            Segment::New(idxs) => {
                out.push_str("<TR><TD></TD><TD>");
                if new_run_has_content(new, idxs) {
                    out.push_str("<STRONG><I>");
                    push_plain(&mut out, new, idxs.iter().copied());
                    out.push_str("</I></STRONG>");
                } else {
                    push_plain(&mut out, new, idxs.iter().copied());
                }
                out.push_str("</TD></TR>\n");
            }
        }
    }
    out.push_str("</TABLE>\n");
    out
}

/// Whole-replacement fallback for muddled comparisons: old words struck
/// in one block, the new document verbatim after.
fn render_replacement(
    old: &[DiffToken<'_>],
    new: &[DiffToken<'_>],
    _stats: &DiffStats,
    opts: &Options,
) -> String {
    let mut out = String::new();
    if opts.banner {
        out.push_str(&format!(
            "<A NAME=\"difftop\"></A><H4>AIDE HtmlDiff: {} vs. {} &#183; \
             too many changes to mark individually; showing full replacement</H4>\n<HR>\n",
            opts.old_label, opts.new_label
        ));
    }
    // Every old sentence's words, one space apart, in one struck block
    // (left out entirely when the old page has no words).
    let block = out.len();
    out.push_str("<STRIKE>");
    let mut any = false;
    for s in old.iter().filter_map(DiffToken::as_sentence) {
        let mark = out.len();
        if any {
            out.push(' ');
        }
        if push_words(&mut out, &s.items) {
            any = true;
        } else {
            out.truncate(mark);
        }
    }
    if any {
        out.push_str("</STRIKE>\n<HR>\n");
    } else {
        out.truncate(block);
    }
    for t in new {
        t.render_into(&mut out);
        out.push('\n');
    }
    out
}

/// Appends the word-level diff inside an approximately-matched sentence
/// pair to `out` (extension; `inline_word_diff`).
fn push_inline_diff(out: &mut String, old_s: &Sentence<'_>, new_s: &Sentence<'_>) {
    let pairs = weighted_lcs(old_s.items.len(), new_s.items.len(), &|i, j| {
        u64::from(old_s.items[i].matches(&new_s.items[j]))
    });
    let alignment = Alignment::new(pairs, old_s.items.len(), new_s.items.len());
    let mut first = true;
    let push_sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(' ');
        }
        *first = false;
    };
    for op in alignment.script().ops {
        match op {
            EditOp::Equal { b_start, len, .. } => {
                for item in &new_s.items[b_start..b_start + len] {
                    push_sep(out, &mut first);
                    item.push_html(out);
                }
            }
            EditOp::Delete { a_start, len, .. } => {
                let deleted = &old_s.items[a_start..a_start + len];
                if deleted.iter().any(Inline::is_word) {
                    push_sep(out, &mut first);
                    out.push_str("<STRIKE>");
                    push_words(out, deleted);
                    out.push_str("</STRIKE>");
                }
            }
            EditOp::Insert { b_start, len, .. } => {
                for item in &new_s.items[b_start..b_start + len] {
                    push_sep(out, &mut first);
                    match item {
                        Inline::Word(w) => {
                            out.push_str("<STRONG><I>");
                            out.push_str(w);
                            out.push_str("</I></STRONG>");
                        }
                        Inline::Markup(t) => t.push_html(out),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diff(old: &str, new: &str) -> DiffResult {
        html_diff(old, new, &Options::default())
    }

    #[test]
    fn identical_documents() {
        let r = diff("<P>same here.", "<P>same here.");
        assert!(r.stats.is_identical());
        assert_eq!(r.stats.difference_sites, 0);
        assert!(r.html.contains("No differences"));
        assert!(!r.html.contains("<STRIKE>"));
    }

    #[test]
    fn addition_is_emphasized_with_green_arrow() {
        let r = diff("<P>old stays.", "<P>old stays. brand new sentence!");
        assert_eq!(r.stats.new_only_sentences, 1);
        assert_eq!(r.stats.difference_sites, 1);
        assert!(r
            .html
            .contains("<STRONG><I>brand new sentence!</I></STRONG>"));
        assert!(r.html.contains("aide-green-arrow"));
        assert!(!r.html.contains("aide-red-arrow"));
    }

    #[test]
    fn deletion_is_struck_with_red_arrow() {
        let r = diff("<P>old stays. doomed sentence here!", "<P>old stays.");
        assert_eq!(r.stats.old_only_sentences, 1);
        assert!(r.html.contains("<STRIKE>doomed sentence here!</STRIKE>"));
        assert!(r.html.contains("aide-red-arrow"));
    }

    #[test]
    fn deleted_markup_does_not_appear() {
        let r = diff(
            r#"<P>keep this. also <A HREF="dead.html">a doomed link</A> went away."#,
            "<P>keep this.",
        );
        assert!(
            !r.html.contains("dead.html"),
            "old hrefs must be elided: {}",
            r.html
        );
        assert!(r.html.contains("<STRIKE>"));
    }

    #[test]
    fn arrow_chain_is_linked() {
        let r = diff(
            "<P>one stays. two goes away now. three stays.",
            "<P>one stays. three stays. four arrives here!",
        );
        assert_eq!(r.stats.difference_sites, 2);
        assert!(r.html.contains("NAME=\"diff0\""));
        assert!(r.html.contains("HREF=\"#diff1\""));
        assert!(r.html.contains("NAME=\"diff1\""));
        assert!(r.html.contains("HREF=\"#difftop\""));
        assert!(r.html.contains("#diff0\">[go to first change]"));
    }

    #[test]
    fn edited_sentence_gets_arrow_but_keeps_font() {
        let r = diff(
            "<P>the meeting is on Monday at noon sharp.",
            "<P>the meeting is on Friday at noon sharp.",
        );
        assert_eq!(r.stats.changed_pairs, 1);
        assert_eq!(r.stats.difference_sites, 1);
        // Approximate matches render the new sentence unhighlighted.
        assert!(r.html.contains("the meeting is on Friday at noon sharp."));
        assert!(!r.html.contains("<STRIKE>"));
    }

    #[test]
    fn paragraph_to_list_is_format_only() {
        let r = diff(
            "<P>One fish. Two fish. Red fish.",
            "<UL><LI>One fish.<LI>Two fish.<LI>Red fish.</UL>",
        );
        assert!(!r.stats.content_changed(), "{:?}", r.stats);
        assert!(r.stats.new_only_breaks > 0);
        assert_eq!(r.stats.difference_sites, 0, "format changes get no arrows");
        // The list markup must appear (it is part of the new page).
        assert!(r.html.contains("<UL>"));
        assert!(r.html.contains("<LI>"));
    }

    #[test]
    fn inline_word_diff_marks_words() {
        let opts = Options {
            inline_word_diff: true,
            ..Options::default()
        };
        let r = html_diff(
            "<P>the meeting is on Monday at noon.",
            "<P>the meeting is on Friday at noon.",
            &opts,
        );
        assert!(r.html.contains("<STRIKE>Monday</STRIKE>"), "{}", r.html);
        assert!(r.html.contains("<STRONG><I>Friday</I></STRONG>"));
    }

    #[test]
    fn only_differences_drops_common() {
        let opts = Options {
            presentation: Presentation::OnlyDifferences,
            ..Options::default()
        };
        let r = html_diff(
            "<P>common context stays. doomed goes!",
            "<P>common context stays. fresh arrives!",
            &opts,
        );
        assert!(!r.html.contains("common context stays."));
        assert!(r.html.contains("<STRIKE>doomed goes!</STRIKE>"));
        assert!(r.html.contains("<STRONG><I>fresh arrives!</I></STRONG>"));
        assert!(r.html.contains("<HR>"));
    }

    #[test]
    fn new_only_omits_old_material() {
        let opts = Options {
            presentation: Presentation::NewOnly,
            ..Options::default()
        };
        let r = html_diff(
            "<P>stays. vanishes entirely!",
            "<P>stays. appears now!",
            &opts,
        );
        assert!(!r.html.contains("STRIKE"));
        assert!(!r.html.contains("vanishes"));
        assert!(r.html.contains("<STRONG><I>appears now!</I></STRONG>"));
    }

    #[test]
    fn reversed_swaps_roles() {
        let opts = Options {
            presentation: Presentation::Reversed,
            ..Options::default()
        };
        let r = html_diff(
            "<P>stays. completely doomed sentence!",
            "<P>stays. utterly fresh material arrives!",
            &opts,
        );
        // Reversed: the *new* text is struck out, the *old* emphasized.
        assert!(
            r.html
                .contains("<STRIKE>utterly fresh material arrives!</STRIKE>"),
            "{}",
            r.html
        );
        assert!(r
            .html
            .contains("<STRONG><I>completely doomed sentence!</I></STRONG>"));
    }

    #[test]
    fn side_by_side_synchronizes_columns() {
        let opts = Options {
            presentation: Presentation::SideBySide,
            ..Options::default()
        };
        let r = html_diff(
            "<P>shared context. utterly doomed material vanishes!",
            "<P>shared context. completely fresh words arrive today!",
            &opts,
        );
        assert!(r.html.contains("<TABLE"));
        assert!(r.html.contains("</TABLE>"));
        // The deleted material occupies a left cell with an empty right.
        assert!(
            r.html.contains(
                "<TR><TD><STRIKE>utterly doomed material vanishes!</STRIKE></TD><TD></TD></TR>"
            ),
            "{}",
            r.html
        );
        // The added material occupies a right cell with an empty left.
        assert!(
            r.html.contains(
                "<TR><TD></TD><TD><STRONG><I>completely fresh words arrive today!</I></STRONG></TD></TR>"
            ),
            "{}",
            r.html
        );
        // Common text appears in both columns of one row.
        assert_eq!(r.html.matches("shared context.").count(), 2, "{}", r.html);
        assert_eq!(
            r.html.matches("<TR>").count(),
            r.html.matches("</TR>").count()
        );
    }

    #[test]
    fn side_by_side_identical_is_all_common_rows() {
        let opts = Options {
            presentation: Presentation::SideBySide,
            banner: false,
            ..Options::default()
        };
        let r = html_diff("<P>alpha beta.", "<P>alpha beta.", &opts);
        assert!(!r.html.contains("<STRIKE>"));
        assert!(!r.html.contains("<STRONG>"));
        // Header row plus one common row.
        assert_eq!(r.html.matches("<TR>").count(), 2);
    }

    #[test]
    fn muddle_fallback_renders_replacement() {
        let opts = Options {
            fallback_on_muddle: true,
            ..Options::default()
        };
        let r = html_diff(
            "<P>alpha one two. beta three four. gamma five six.",
            "<UL>delta seven eight! epsilon nine ten! zeta eleven twelve!",
            &opts,
        );
        assert!(r.too_muddled, "{:?}", r.muddle);
        assert!(r.html.contains("too many changes"));
        assert!(r.html.contains("<STRIKE>alpha one two."));
        assert!(r.html.contains("zeta eleven twelve!"));
    }

    #[test]
    fn banner_can_be_disabled() {
        let opts = Options {
            banner: false,
            ..Options::default()
        };
        let r = html_diff("<P>a b c.", "<P>a b d.", &opts);
        assert!(!r.html.contains("AIDE HtmlDiff"));
    }

    #[test]
    fn empty_documents() {
        let r = diff("", "");
        assert!(r.stats.is_identical());
        let r = diff("", "<P>all new content!");
        assert_eq!(r.stats.new_only_sentences, 1);
        let r = diff("<P>all old content!", "");
        assert_eq!(r.stats.old_only_sentences, 1);
    }

    #[test]
    fn common_tokens_keep_new_markup_rendering() {
        let r = diff(
            r#"<P>click <A HREF="a.html">here</A> now."#,
            r#"<P>click <A HREF="b.html">here</A> now."#,
        );
        // Sentence matched approximately; new HREF appears, old does not.
        assert!(r.html.contains("b.html"));
        assert!(!r.html.contains("a.html"));
        assert_eq!(r.stats.changed_pairs, 1);
    }

    #[test]
    fn stats_fraction_bounds() {
        let r = diff("<P>a b c. d e f.", "<P>a b c. d e g.");
        assert!((0.0..=1.0).contains(&r.stats.changed_fraction));
        assert!((0.0..=1.0).contains(&r.stats.muddle));
    }
}
