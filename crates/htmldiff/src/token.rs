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
//! A token stream borrows the page it was tokenized from: words, tag
//! names and attribute values (unless an entity was decoded) are slices
//! of it. The words and inline markups of all of a page's sentences
//! share one arena, and each sentence is a range of it ([`Items`]), so
//! tokenizing a page allocates a few vectors rather than one per
//! sentence, tag or word. Each sentence carries its match-class hash,
//! computed while tokenizing.

use aide_htmlkit::classify::is_content_defining;
use aide_htmlkit::lexer::{Name, Tag, TagKind};
use std::borrow::Cow;
use std::fmt;
use std::ops::{Deref, Range};
use std::rc::Rc;

/// An element of a sentence: a word or an inline (non-breaking) markup.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Inline<'a> {
    /// A whitespace-delimited word, verbatim: a slice of the page.
    Word(&'a str),
    /// An inline markup such as `<B>`, `</B>`, `<A HREF=…>`, `<IMG …>`.
    Markup(Tag<'a>),
}

impl Inline<'_> {
    /// True if this item counts toward sentence length (a word or a
    /// content-defining markup).
    pub fn is_content(&self) -> bool {
        match self {
            Inline::Word(_) => true,
            Inline::Markup(tag) => is_content_defining(tag.name.0),
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

/// A sentence's items: a range of the item arena its page's sentences
/// share. Dereferences to the slice. The arena is reference-counted
/// without atomics (`Rc`), so a token stream stays on the thread that
/// tokenized it.
#[derive(Clone)]
pub struct Items<'a> {
    arena: Rc<Vec<Inline<'a>>>,
    range: Range<usize>,
}

impl<'a> Deref for Items<'a> {
    type Target = [Inline<'a>];

    fn deref(&self) -> &[Inline<'a>] {
        &self.arena[self.range.clone()]
    }
}

impl<'s, 'a> IntoIterator for &'s Items<'a> {
    type Item = &'s Inline<'a>;
    type IntoIter = std::slice::Iter<'s, Inline<'a>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Items<'_> {
    /// The same range of the same arena is equal without a look at the
    /// items: [`tokenize_pair`](crate::tokenize::tokenize_pair) gives a
    /// copied sentence its original's arena and range.
    fn eq(&self, other: &Self) -> bool {
        (Rc::ptr_eq(&self.arena, &other.arena) && self.range == other.range) || **self == **other
    }
}

impl Eq for Items<'_> {}

impl fmt::Debug for Items<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A sentence: at most one English sentence, possibly a fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sentence<'a> {
    /// The sentence's [`token_class_hash`]. It is first, so derived
    /// equality rejects most unequal sentences on it.
    class_hash: u64,
    /// The words and inline markups, in order.
    pub items: Items<'a>,
}

impl<'a> Sentence<'a> {
    /// The sentence of `arena[range]`, whose class hash the caller has
    /// already computed.
    pub(crate) fn in_arena(
        arena: Rc<Vec<Inline<'a>>>,
        range: Range<usize>,
        class_hash: u64,
    ) -> Self {
        Sentence {
            class_hash,
            items: Items { arena, range },
        }
    }
}

impl<'a> From<Vec<Inline<'a>>> for Sentence<'a> {
    /// A sentence with an arena of its own.
    fn from(items: Vec<Inline<'a>>) -> Self {
        let mut h = ClassHasher::new(SENTENCE_CLASS);
        items.iter().for_each(|item| hash_item_into(&mut h, item));
        let range = 0..items.len();
        Sentence::in_arena(Rc::new(items), range, h.finish())
    }
}

impl Default for Sentence<'_> {
    fn default() -> Self {
        Sentence::from(Vec::new())
    }
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
    Break(Tag<'a>),
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
    pub fn as_break(&self) -> Option<&Tag<'a>> {
        match self {
            DiffToken::Break(t) => Some(t),
            _ => None,
        }
    }
}

/// The class-hash accumulator. It folds eight bytes into each multiply,
/// where FNV-1a multiplies once per byte, and every field it is fed ends
/// with a word holding its last bytes, a kind byte and the low byte of
/// its length, so consecutive fields rarely run together. Any
/// deterministic function of a token's content would be correct here,
/// since equal hashes are always confirmed by a deep comparison; this
/// one is fast.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassHasher(u64);

impl ClassHasher {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    /// A hasher for a token of class `class`.
    pub(crate) fn new(class: u8) -> Self {
        let mut h = ClassHasher(0);
        h.write_u64(u64::from(class));
        h
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(23) ^ x).wrapping_mul(Self::K);
    }

    /// Feeds one field of kind `kind`: `bytes`, each passed through
    /// `map`.
    #[inline]
    fn field(&mut self, kind: u8, bytes: &[u8], map: impl Fn(u8) -> u8) {
        let fold = |chunk: &[u8]| {
            chunk
                .iter()
                .enumerate()
                .fold(0u64, |v, (k, &b)| v ^ u64::from(map(b)) << (8 * k))
        };
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(fold(chunk));
        }
        let tail = (bytes.len() as u64) << 56 | u64::from(kind) << 48;
        self.write_u64(fold(chunks.remainder()) ^ tail);
    }

    /// The hash, its bits mixed down.
    pub(crate) fn finish(self) -> u64 {
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(Self::K);
        h ^ (h >> 29)
    }
}

/// Class bytes: a break's and a sentence's hashes start differently, so
/// the two classes never collide by construction.
const BREAK_CLASS: u8 = 0xB0;
pub(crate) const SENTENCE_CLASS: u8 = 0x50;

fn kind_byte(kind: TagKind) -> u8 {
    match kind {
        TagKind::Open => 0,
        TagKind::Close => 1,
        TagKind::SelfClose => 2,
    }
}

/// Feeds a tag into `h`, names by their uppercased bytes (the bytes
/// they compare by). With `modulo_order`, attributes are hashed in
/// sorted order, so two tags hash equally iff the inputs to
/// [`Tag::matches_modulo_order`] are equal; without it, attributes are
/// hashed in source order, matching derived `Tag` equality.
fn hash_tag_into(h: &mut ClassHasher, tag: &Tag<'_>, modulo_order: bool) {
    let upper = |b: u8| b.to_ascii_uppercase();
    h.field(0xF0 | kind_byte(tag.kind), tag.name.0.as_bytes(), upper);
    let hash_attr = |(name, value): &(Name<'_>, Option<Cow<'_, str>>)| {
        h.field(0xFD, name.0.as_bytes(), upper);
        match value {
            Some(v) => h.field(1, v.as_bytes(), |b| b),
            None => h.write_u64(0),
        }
    };
    if modulo_order && tag.attrs.len() > 1 {
        let mut attrs: Vec<_> = tag.attrs.iter().collect();
        attrs.sort();
        attrs.into_iter().for_each(hash_attr);
    } else {
        tag.attrs.iter().for_each(hash_attr);
    }
}

/// Feeds one sentence item into `h`, deeply (word bytes verbatim,
/// markup attributes in source order), so two sentences whose items
/// were all fed hash equally iff derived `Sentence` equality holds —
/// hash inequality proves `a != b`.
pub(crate) fn hash_item_into(h: &mut ClassHasher, item: &Inline<'_>) {
    match item {
        Inline::Word(w) => h.field(0xF1, w.as_bytes(), |b| b),
        Inline::Markup(tag) => {
            h.write_u64(0xF2);
            hash_tag_into(h, tag, false);
        }
    }
}

/// The match-equivalence class of a token, as a hash: the key of the
/// alignment fast path.
///
/// Two tokens of equal class hash *may* be interchangeable for alignment
/// purposes — breaks that match modulo attribute order, sentences with
/// deeply equal content — and unequal hashes prove they are not. Break
/// and sentence classes never collide by construction. A sentence's
/// hash is computed once, when it is built; a break's is computed here.
pub fn token_class_hash(token: &DiffToken<'_>) -> u64 {
    match token {
        DiffToken::Break(tag) => {
            let mut h = ClassHasher::new(BREAK_CLASS);
            hash_tag_into(&mut h, tag, true);
            h.finish()
        }
        DiffToken::Sentence(s) => s.class_hash,
    }
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
        let s = Sentence::from(vec![
            word("See"),
            Inline::Markup(Tag::open("B")),
            word("this"),
            Inline::Markup(Tag::close("B")),
            Inline::Markup(Tag::open("IMG").with_attr("SRC", "x.gif")),
            Inline::Markup(Tag::open("A").with_attr("HREF", "y.html")),
            word("link"),
            Inline::Markup(Tag::close("A")),
        ]);
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
        let s = Sentence::from(vec![
            word("plain"),
            Inline::Markup(Tag::open("B")),
            word("bold"),
            Inline::Markup(Tag::close("B")),
            word("after."),
        ]);
        assert_eq!(s.render(), "plain <B>bold</B> after.");
    }

    #[test]
    fn render_words_only_drops_markups() {
        let s = Sentence::from(vec![
            word("keep"),
            Inline::Markup(Tag::open("IMG").with_attr("SRC", "gone.gif")),
            word("these."),
        ]);
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
        let s1 = DiffToken::Sentence(Sentence::from(vec![word("alpha"), word("beta")]));
        let s2 = DiffToken::Sentence(Sentence::from(vec![word("alpha"), word("gamma")]));
        // Concatenation must not collide.
        let s3 = DiffToken::Sentence(Sentence::from(vec![word("alpha beta")]));
        assert_ne!(token_class_hash(&s1), token_class_hash(&s2));
        assert_ne!(token_class_hash(&s1), token_class_hash(&s3));
        assert_eq!(token_class_hash(&s1), token_class_hash(&s1.clone()));
    }

    #[test]
    fn break_and_sentence_classes_never_collide() {
        let b = DiffToken::Break(Tag::open("P"));
        let s = DiffToken::Sentence(Sentence::default());
        assert_ne!(token_class_hash(&b), token_class_hash(&s));
    }

    #[test]
    fn token_accessors() {
        let b = DiffToken::Break(Tag::open("P"));
        assert!(b.is_break());
        assert!(b.as_break().is_some());
        assert!(b.as_sentence().is_none());
        let s = DiffToken::Sentence(Sentence::from(vec![word("x")]));
        assert!(!s.is_break());
        assert!(s.as_sentence().is_some());
    }
}
