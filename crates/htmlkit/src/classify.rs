//! Markup classification: sentence-breaking and content-defining tags.
//!
//! §5.1 of the paper: "We view an HTML document as a sequence of sentences
//! and 'sentence-breaking' markups (such as `<P>`, `<HR>`, `<LI>`, or
//! `<H1>`) where a 'sentence' is a sequence of words and certain
//! (non-sentence-breaking) markups (such as `<B>` or `<A>`)". Separately,
//! "certain markups such as images (`<IMG src=...>`) and hypertext
//! references (`<A href=...>`) are 'content-defining'" — they count toward
//! sentence length and get highlighted when changed, where purely
//! presentational markups (`<B>`, `<I>`) do not.
//!
//! The tag inventory is HTML 2.0 plus the Netscape 1.1 extensions that
//! 1995 pages used (`CENTER`, `FONT`, `BLINK`, tables).

use crate::lexer::Tag;

/// The two classification axes a markup can fall on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkupClass {
    /// Starts a new "sentence" token in the HtmlDiff token stream.
    pub sentence_breaking: bool,
    /// Counts toward sentence length and is highlighted when changed.
    pub content_defining: bool,
}

/// Block-level / structural tags that break sentences.
const SENTENCE_BREAKING: &[&str] = &[
    "HTML",
    "HEAD",
    "BODY",
    "TITLE",
    "P",
    "BR",
    "HR",
    "H1",
    "H2",
    "H3",
    "H4",
    "H5",
    "H6",
    "UL",
    "OL",
    "LI",
    "DL",
    "DT",
    "DD",
    "DIR",
    "MENU",
    "PRE",
    "BLOCKQUOTE",
    "ADDRESS",
    "TABLE",
    "TR",
    "TD",
    "TH",
    "CAPTION",
    "FORM",
    "CENTER",
    "DIV",
    "ISINDEX",
    "META",
    "LINK",
    "BASE",
    "XMP",
    "LISTING",
    "PLAINTEXT",
    "FRAME",
    "FRAMESET",
    "NOFRAMES",
    "MAP",
    "AREA",
    "SELECT",
    "OPTION",
    "TEXTAREA",
];

/// Inline tags that define content rather than presentation.
const CONTENT_DEFINING: &[&str] = &["IMG", "A", "INPUT", "APPLET", "EMBED", "AREA", "ISINDEX"];

/// Returns true if `name` (any case) is a sentence-breaking markup.
///
/// Unknown tags are treated as *non*-breaking: an unrecognized inline
/// extension should not shatter a sentence.
///
/// # Examples
///
/// ```
/// use aide_htmlkit::classify::is_sentence_breaking;
///
/// assert!(is_sentence_breaking("P"));
/// assert!(is_sentence_breaking("li"));
/// assert!(!is_sentence_breaking("B"));
/// assert!(!is_sentence_breaking("BLINK"));
/// ```
pub fn is_sentence_breaking(name: &str) -> bool {
    in_table(SENTENCE_BREAKING, name)
}

/// Returns true if `name` (any case) is a content-defining markup.
///
/// # Examples
///
/// ```
/// use aide_htmlkit::classify::is_content_defining;
///
/// assert!(is_content_defining("IMG"));
/// assert!(is_content_defining("a"));
/// assert!(!is_content_defining("STRONG"));
/// ```
pub fn is_content_defining(name: &str) -> bool {
    in_table(CONTENT_DEFINING, name)
}

/// Whether `name` (any case) is in an uppercase tag table — a case-blind
/// compare, so no uppercased copy of the name is built per call.
fn in_table(table: &[&str], name: &str) -> bool {
    table.iter().any(|t| t.eq_ignore_ascii_case(name))
}

/// Classifies a tag on both axes.
pub fn classify(tag: &Tag) -> MarkupClass {
    MarkupClass {
        sentence_breaking: is_sentence_breaking(tag.name.0),
        content_defining: is_content_defining(tag.name.0),
    }
}

/// Tags inside which whitespace is significant (the paper's parenthetical:
/// whitespace "does not provide any content (except perhaps inside a
/// `<PRE>`)").
pub fn preserves_whitespace(name: &str) -> bool {
    in_table(&["PRE", "XMP", "LISTING", "PLAINTEXT", "TEXTAREA"], name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Tag;

    #[test]
    fn paper_examples_break_sentences() {
        for t in ["P", "HR", "LI", "H1"] {
            assert!(is_sentence_breaking(t), "{t} should break sentences");
        }
    }

    #[test]
    fn paper_examples_do_not_break_sentences() {
        for t in ["B", "A", "I", "EM", "STRONG", "TT", "FONT", "STRIKE"] {
            assert!(!is_sentence_breaking(t), "{t} should not break sentences");
        }
    }

    #[test]
    fn paper_examples_content_defining() {
        assert!(is_content_defining("IMG"));
        assert!(is_content_defining("A"));
        assert!(!is_content_defining("B"));
        assert!(!is_content_defining("I"));
        assert!(!is_content_defining("P"));
    }

    #[test]
    fn classification_is_case_insensitive() {
        assert!(is_sentence_breaking("table"));
        assert!(is_content_defining("Img"));
    }

    #[test]
    fn unknown_tags_are_inline_noncontent() {
        let c = classify(&Tag::open("MARQUEE"));
        assert!(!c.sentence_breaking);
        assert!(!c.content_defining);
    }

    #[test]
    fn pre_preserves_whitespace() {
        assert!(preserves_whitespace("PRE"));
        assert!(preserves_whitespace("pre"));
        assert!(!preserves_whitespace("P"));
    }

    #[test]
    fn anchor_is_content_defining_but_not_breaking() {
        // The subtle case from §5.1: <A> joins a sentence yet defines content.
        let c = classify(&Tag::open("A").with_attr("HREF", "x.html"));
        assert!(!c.sentence_breaking);
        assert!(c.content_defining);
    }
}
