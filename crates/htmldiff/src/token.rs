//! The HtmlDiff token model.
//!
//! §5.1: "In HtmlDiff, a token is either a sentence-breaking markup or a
//! sentence, which consists of a sequence of words and non-sentence-
//! breaking markups. Note that the definition of sentence is not
//! recursive; sentences cannot contain sentences." Sentence *length* is
//! "the number of words and 'content-defining' markups such as `<IMG>`
//! or `<A>` in a sentence. Markups such as `<B>` or `<I>` are not
//! counted."
//!
//! Words are slices of the page they were tokenized from, so a token
//! stream borrows that page and allocates nothing per word; only
//! markups are owned, because the lexer normalizes their names.

use aide_htmlkit::classify::is_content_defining;
use aide_htmlkit::lexer::{Tag, TagKind};
use aide_util::checksum::Fnv1a;
use std::fmt;

/// An element of a sentence: a word or an inline (non-breaking) markup.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Inline<'a> {
    /// A whitespace-delimited word, verbatim: a slice of the page.
    Word(&'a str),
    /// An inline markup such as `<B>`, `</B>`, `<A HREF=…>`, `<IMG …>`.
    Markup(Tag),
}

impl Inline<'_> {
    /// True if this item counts toward sentence length (a word or a
    /// content-defining markup).
    pub fn is_content(&self) -> bool {
        match self {
            Inline::Word(_) => true,
            Inline::Markup(tag) => is_content_defining(&tag.name),
        }
    }

    /// True for [`Inline::Word`].
    pub fn is_word(&self) -> bool {
        matches!(self, Inline::Word(_))
    }

    /// Exact-match comparison: words compare verbatim; markups compare
    /// modulo case, whitespace and attribute order.
    pub fn matches(&self, other: &Inline<'_>) -> bool {
        match (self, other) {
            (Inline::Word(a), Inline::Word(b)) => a == b,
            (Inline::Markup(a), Inline::Markup(b)) => a.matches_modulo_order(b),
            _ => false,
        }
    }

    /// Appends the item's HTML to `out`: a word verbatim, a markup as
    /// its normalized tag.
    pub fn push_html(&self, out: &mut String) {
        match self {
            Inline::Word(w) => out.push_str(w),
            Inline::Markup(t) => t.push_html(out),
        }
    }
}

impl fmt::Display for Inline<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inline::Word(w) => f.write_str(w),
            Inline::Markup(t) => write!(f, "{t}"),
        }
    }
}

/// A sentence: at most one English sentence, possibly a fragment.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Sentence<'a> {
    /// The words and inline markups, in order.
    pub items: Vec<Inline<'a>>,
}

impl Sentence<'_> {
    /// The paper's sentence length: words + content-defining markups.
    pub fn content_len(&self) -> usize {
        self.items.iter().filter(|i| i.is_content()).count()
    }

    /// Number of words only.
    pub fn word_count(&self) -> usize {
        self.items.iter().filter(|i| i.is_word()).count()
    }

    /// True if the sentence has no items at all.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Renders the sentence as HTML, words separated by single spaces.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends [`Sentence::render`]'s bytes to `out`.
    pub fn render_into(&self, out: &mut String) {
        let mut prev_is_open_markup = false;
        for (k, item) in self.items.iter().enumerate() {
            // Whitespace was discarded at tokenization; a single space
            // between word items restores readability. No space is
            // inserted after an opening markup or before a closing one.
            let cur_is_close_markup = matches!(item, Inline::Markup(t) if t.kind == TagKind::Close);
            if k > 0 && !prev_is_open_markup && !cur_is_close_markup {
                out.push(' ');
            }
            item.push_html(out);
            prev_is_open_markup = matches!(item, Inline::Markup(t) if t.kind != TagKind::Close);
        }
    }

    /// Renders only the words (markups elided) — how *old* sentences
    /// appear in the merged page, since "old hypertext references and
    /// images do not appear" (§5.2).
    pub fn render_words_only(&self) -> String {
        let mut out = String::new();
        push_words(&mut out, &self.items);
        out
    }
}

/// Appends the words among `items` to `out`, one space apart, markups
/// elided ([`Sentence::render_words_only`]'s bytes); returns whether
/// that appended anything.
pub(crate) fn push_words(out: &mut String, items: &[Inline<'_>]) -> bool {
    let start = out.len();
    let words = items.iter().filter_map(|i| match i {
        Inline::Word(w) => Some(*w),
        Inline::Markup(_) => None,
    });
    for (k, w) in words.enumerate() {
        if k > 0 {
            out.push(' ');
        }
        out.push_str(w);
    }
    out.len() > start
}

/// One token of the HtmlDiff comparison stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffToken<'a> {
    /// A sentence-breaking markup (`<P>`, `<HR>`, `<LI>`, `<H1>`, …).
    Break(Tag),
    /// A sentence.
    Sentence(Sentence<'a>),
}

impl<'a> DiffToken<'a> {
    /// True for [`DiffToken::Break`].
    pub fn is_break(&self) -> bool {
        matches!(self, DiffToken::Break(_))
    }

    /// The sentence, if this token is one.
    pub fn as_sentence(&self) -> Option<&Sentence<'a>> {
        match self {
            DiffToken::Sentence(s) => Some(s),
            _ => None,
        }
    }

    /// Appends the token's HTML to `out`: a break as its tag, a sentence
    /// as [`Sentence::render`] would.
    pub fn render_into(&self, out: &mut String) {
        match self {
            DiffToken::Break(tag) => tag.push_html(out),
            DiffToken::Sentence(s) => s.render_into(out),
        }
    }

    /// The breaking tag, if this token is one.
    pub fn as_break(&self) -> Option<&Tag> {
        match self {
            DiffToken::Break(t) => Some(t),
            _ => None,
        }
    }
}

fn kind_byte(kind: TagKind) -> u8 {
    match kind {
        TagKind::Open => 0,
        TagKind::Close => 1,
        TagKind::SelfClose => 2,
    }
}

/// Feeds a tag into `h`. With `modulo_order`, attributes are hashed in
/// sorted order, so two tags hash equally iff the inputs to
/// [`Tag::matches_modulo_order`] are equal; without it, attributes are
/// hashed in source order, matching derived `Tag` equality.
pub(crate) fn hash_tag_into(h: &mut Fnv1a, tag: &Tag, modulo_order: bool) {
    h.update(tag.name.as_bytes())
        .update(&[0xFE, kind_byte(tag.kind)]);
    let mut hash_attr = |name: &String, value: &Option<String>| {
        h.update(&[0xFD]).update(name.as_bytes());
        match value {
            Some(v) => h.update(&[1]).update(v.as_bytes()),
            None => h.update(&[0]),
        };
    };
    if modulo_order {
        let mut attrs: Vec<_> = tag.attrs.iter().collect();
        attrs.sort();
        for (name, value) in attrs {
            hash_attr(name, value);
        }
    } else {
        for (name, value) in &tag.attrs {
            hash_attr(name, value);
        }
    }
}

/// Feeds a sentence's items into `h`, deeply (word bytes verbatim,
/// markup attributes in source order), so two sentences hash equally iff
/// derived `Sentence` equality holds — hash inequality proves `a != b`.
pub(crate) fn hash_sentence_into(h: &mut Fnv1a, s: &Sentence<'_>) {
    for item in &s.items {
        match item {
            Inline::Word(w) => {
                h.update(&[0xF1]).update(w.as_bytes());
            }
            Inline::Markup(tag) => {
                h.update(&[0xF2]);
                hash_tag_into(h, tag, false);
            }
        }
        h.update(&[0xFF]);
    }
}

/// The match-equivalence class of a token, as a hash (PR 2 fast path).
///
/// Two tokens of equal class hash *may* be interchangeable for alignment
/// purposes — breaks that match modulo attribute order, sentences with
/// deeply equal content — and unequal hashes prove they are not. Break
/// and sentence classes never collide by construction.
pub fn token_class_hash(token: &DiffToken<'_>) -> u64 {
    let mut h = Fnv1a::new();
    match token {
        DiffToken::Break(tag) => {
            h.update(&[0xB0]);
            hash_tag_into(&mut h, tag, true);
        }
        DiffToken::Sentence(s) => {
            h.update(&[0x50]);
            hash_sentence_into(&mut h, s);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_htmlkit::lexer::Tag;

    fn word(w: &str) -> Inline<'_> {
        Inline::Word(w)
    }

    #[test]
    fn content_len_counts_words_and_content_markups() {
        let s = Sentence {
            items: vec![
                word("See"),
                Inline::Markup(Tag::open("B")),
                word("this"),
                Inline::Markup(Tag::close("B")),
                Inline::Markup(Tag::open("IMG").with_attr("SRC", "x.gif")),
                Inline::Markup(Tag::open("A").with_attr("HREF", "y.html")),
                word("link"),
                Inline::Markup(Tag::close("A")),
            ],
        };
        // Words: See, this, link (3). Content markups: IMG, <A>, </A>... the
        // closing </A> has the content-defining *name* A, so it counts too,
        // matching the paper's "all markups are represented and compared".
        assert_eq!(s.content_len(), 6);
        assert_eq!(s.word_count(), 3);
    }

    #[test]
    fn inline_matching() {
        assert!(word("x").matches(&word("x")));
        assert!(!word("x").matches(&word("X")), "words are case-sensitive");
        let a = Inline::Markup(Tag::open("A").with_attr("HREF", "u"));
        let b = Inline::Markup(Tag::open("A").with_attr("HREF", "u"));
        let c = Inline::Markup(Tag::open("A").with_attr("HREF", "v"));
        assert!(a.matches(&b));
        assert!(!a.matches(&c));
        assert!(!a.matches(&word("A")));
    }

    #[test]
    fn render_spacing() {
        let s = Sentence {
            items: vec![
                word("plain"),
                Inline::Markup(Tag::open("B")),
                word("bold"),
                Inline::Markup(Tag::close("B")),
                word("after."),
            ],
        };
        assert_eq!(s.render(), "plain <B>bold</B> after.");
    }

    #[test]
    fn render_words_only_drops_markups() {
        let s = Sentence {
            items: vec![
                word("keep"),
                Inline::Markup(Tag::open("IMG").with_attr("SRC", "gone.gif")),
                word("these."),
            ],
        };
        assert_eq!(s.render_words_only(), "keep these.");
    }

    #[test]
    fn empty_sentence() {
        let s = Sentence::default();
        assert!(s.is_empty());
        assert_eq!(s.content_len(), 0);
        assert_eq!(s.render(), "");
    }

    #[test]
    fn class_hash_respects_attr_order_rules() {
        let a = DiffToken::Break(
            Tag::open("TABLE")
                .with_attr("BORDER", "1")
                .with_attr("WIDTH", "90%"),
        );
        let b = DiffToken::Break(
            Tag::open("TABLE")
                .with_attr("WIDTH", "90%")
                .with_attr("BORDER", "1"),
        );
        let c = DiffToken::Break(
            Tag::open("TABLE")
                .with_attr("BORDER", "2")
                .with_attr("WIDTH", "90%"),
        );
        assert_eq!(token_class_hash(&a), token_class_hash(&b), "modulo order");
        assert_ne!(token_class_hash(&a), token_class_hash(&c));
    }

    #[test]
    fn sentence_hashes_are_deep() {
        let s1 = DiffToken::Sentence(Sentence {
            items: vec![word("alpha"), word("beta")],
        });
        let s2 = DiffToken::Sentence(Sentence {
            items: vec![word("alpha"), word("gamma")],
        });
        let s3 = DiffToken::Sentence(Sentence {
            items: vec![word("alpha beta")], // concatenation must not collide
        });
        assert_ne!(token_class_hash(&s1), token_class_hash(&s2));
        assert_ne!(token_class_hash(&s1), token_class_hash(&s3));
        assert_eq!(token_class_hash(&s1), token_class_hash(&s1.clone()));
    }

    #[test]
    fn break_and_sentence_classes_never_collide() {
        let b = DiffToken::Break(Tag::open("P"));
        let s = DiffToken::Sentence(Sentence { items: vec![] });
        assert_ne!(token_class_hash(&b), token_class_hash(&s));
    }

    #[test]
    fn token_accessors() {
        let b = DiffToken::Break(Tag::open("P"));
        assert!(b.is_break());
        assert!(b.as_break().is_some());
        assert!(b.as_sentence().is_none());
        let s = DiffToken::Sentence(Sentence {
            items: vec![word("x")],
        });
        assert!(!s.is_break());
        assert!(s.as_sentence().is_some());
    }
}
