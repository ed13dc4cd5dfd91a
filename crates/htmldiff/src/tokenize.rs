//! Lexical analysis of HTML into the HtmlDiff token stream.
//!
//! "A simple lexical analysis of an HTML document creates the token
//! sequence and converts the case of the markup name and associated
//! (variable,value) pairs to uppercase; parsing is not required" (§5.1).
//! Whitespace is discarded ("whitespace in a document does not provide
//! any content... and should not affect comparison") except inside
//! `<PRE>`, where each line becomes its own sentence so that layout
//! changes in preformatted text are visible.
//!
//! One pass does it all. It drives the [`Lexer`] directly, with no token
//! list in between; splits each text run into words as it meets it;
//! pushes every word and inline markup into the page's one item arena;
//! and hashes each sentence's match class as the sentence grows. Words
//! and tags borrow `html`, so a page costs a few growing vectors (plus
//! an attribute list per tag that has attributes), never an allocation
//! per word, sentence or tag name.
//!
//! A diff tokenizes two revisions of one page, and most of the newer
//! one is bytes the older one already had. [`tokenize_pair`] runs the
//! same pass over the older page, marking a checkpoint after every
//! sentence-breaking tag, and then walks the newer page segment by
//! segment: where the next bytes equal the older page's segment in the
//! same place (checkpoint to checkpoint, the `k`th of each page) and
//! that segment was entered at the same `<PRE>` depth, it copies the
//! segment's tokens instead of lexing them. An edit that keeps the
//! page's breaks thus lexes only the segments it touched; one that adds
//! or removes a break lexes the rest of the page. Copying is exact,
//! because:
//!
//! - the lexer reads no byte past a tag's `>` to lex it, and a text run
//!   ends at the `<` it stops on, so a segment's tokens depend on its
//!   bytes alone;
//! - after a break the open sentence is empty, so the `<PRE>` depth is
//!   the only state that crosses one;
//! - the tail after the last break, whose tokens may depend on the end
//!   of the page (an unterminated tag or comment swallows the rest), is
//!   never a segment.

use crate::token::{hash_item_into, ClassHasher, DiffToken, Inline, Sentence, SENTENCE_CLASS};
use aide_htmlkit::classify::{is_sentence_breaking, preserves_whitespace};
use aide_htmlkit::lexer::{Lexer, TagKind, Token};
use aide_htmlkit::text::split_words;
use std::ops::Range;
use std::rc::Rc;

/// Tokenizes an HTML document for comparison.
///
/// # Examples
///
/// ```
/// use aide_htmldiff::tokenize::tokenize;
/// use aide_htmldiff::token::DiffToken;
///
/// let tokens = tokenize("<P>One sentence. Another one!<HR>");
/// // <P>, "One sentence.", "Another one!", <HR>
/// assert_eq!(tokens.len(), 4);
/// assert!(tokens[0].is_break());
/// assert_eq!(tokens[1].as_sentence().unwrap().word_count(), 2);
/// ```
pub fn tokenize(html: &str) -> Vec<DiffToken<'_>> {
    let mut pass = Pass::new(html);
    while pass.segment() {}
    pass.finish()
}

/// Tokenizes two revisions of a page: the same tokens as
/// `(tokenize(old), tokenize(new))`, with every segment of `new` that
/// repeats `old`'s segment in the same place (see the module docs)
/// copied rather than lexed. Copied sentences share `old`'s arena, so
/// comparing one with its original is a pointer check.
///
/// # Examples
///
/// ```
/// use aide_htmldiff::tokenize::{tokenize, tokenize_pair};
///
/// let old = "<P>Kept sentence.<P>Old ending.";
/// let new = "<P>Kept sentence.<P>New ending.";
/// let (a, b) = tokenize_pair(old, new);
/// assert_eq!(a, tokenize(old));
/// assert_eq!(b, tokenize(new));
/// ```
pub fn tokenize_pair<'a>(old: &'a str, new: &'a str) -> (Vec<DiffToken<'a>>, Vec<DiffToken<'a>>) {
    let mut pass = Pass::new(old);
    let mut marks = vec![pass.checkpoint()];
    while pass.segment() {
        marks.push(pass.checkpoint());
    }
    let old_tokens = pass.finish();

    let mut pass = Pass::new(new);
    let (mut next, mut reused) = (0, 0);
    loop {
        let here = pass.checkpoint();
        if let Some(len) = repeats(old, &marks, next, new, here) {
            let (from, to) = (marks[next], marks[next + 1]);
            let tokens = old_tokens[from.token..to.token].iter().cloned();
            pass.b.spans.extend(tokens.map(Span::Token));
            pass.lexer = Lexer::resume(new, here.at + len);
            pass.pre_depth = to.pre_depth;
            reused += len;
        } else if !pass.segment() {
            break;
        }
        // A replaced segment is followed by its old successor too.
        next += 1;
    }
    aide_obs::observe!("htmldiff.tokenize.reused_bytes", reused as u64);
    (old_tokens, pass.finish())
}

/// Where a segment of a page starts: byte 0, or just past a
/// sentence-breaking tag. The token index and `<PRE>` depth there are
/// the pass's whole state.
#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    at: usize,
    token: usize,
    pre_depth: usize,
}

/// The length of `old`'s segment `s` (checkpoint `s` to `s + 1`) if it
/// is whole, was entered at `here`'s `<PRE>` depth, and is what `new`
/// holds at `here`.
fn repeats(
    old: &str,
    marks: &[Checkpoint],
    s: usize,
    new: &str,
    here: Checkpoint,
) -> Option<usize> {
    let (from, to) = (marks.get(s)?, marks.get(s + 1)?);
    let bytes = &old.as_bytes()[from.at..to.at];
    let fits = from.pre_depth == here.pre_depth
        && new.as_bytes().get(here.at..here.at + bytes.len()) == Some(bytes);
    fits.then_some(bytes.len())
}

/// The one tokenizing pass over a page: the lexer, the `<PRE>` depth,
/// and the tokens built so far.
struct Pass<'a> {
    lexer: Lexer<'a>,
    pre_depth: usize,
    b: Builder<'a>,
}

impl<'a> Pass<'a> {
    fn new(html: &'a str) -> Self {
        Pass {
            lexer: Lexer::new(html),
            pre_depth: 0,
            b: Builder::new(html.len()),
        }
    }

    /// The pass's state, valid at the start and after each
    /// [`Pass::segment`] that returned true.
    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            at: self.lexer.offset(),
            token: self.b.spans.len(),
            pre_depth: self.pre_depth,
        }
    }

    /// Tokenizes up to and including the next sentence-breaking tag;
    /// false if the page ended first.
    fn segment(&mut self) -> bool {
        let Pass {
            lexer,
            pre_depth,
            b,
        } = self;
        for token in lexer {
            match token {
                Token::Comment(_) | Token::Declaration(_) => {
                    // Comments carry no content; the paper's comparison
                    // ignores them.
                }
                Token::Tag(tag) => {
                    if preserves_whitespace(tag.name.0) {
                        if tag.kind == TagKind::Close {
                            *pre_depth = pre_depth.saturating_sub(1);
                        } else {
                            *pre_depth += 1;
                        }
                    }
                    if is_sentence_breaking(tag.name.0) {
                        b.end_sentence();
                        b.spans.push(Span::Token(DiffToken::Break(tag)));
                        return true;
                    }
                    b.push(Inline::Markup(tag));
                }
                Token::Text(text) => {
                    if *pre_depth > 0 {
                        // Inside <PRE>: whitespace is content; one
                        // sentence per line.
                        for (k, line) in text.split('\n').enumerate() {
                            if k > 0 {
                                b.end_sentence();
                            }
                            if !line.is_empty() {
                                b.push(Inline::Word(line));
                            }
                        }
                    } else {
                        for word in split_words(text) {
                            b.push(Inline::Word(word.text));
                            if word.ends_sentence {
                                b.end_sentence();
                            }
                        }
                    }
                }
            }
        }
        false
    }

    /// The page's tokens.
    fn finish(self) -> Vec<DiffToken<'a>> {
        let out = self.b.finish();
        aide_obs::counter!("htmldiff.tokenize", 1);
        aide_obs::observe!("htmldiff.tokenize.tokens", out.len() as u64);
        out
    }
}

/// A token before the page's arena is complete: a finished token (a
/// break, or a sentence copied from another page), or a sentence as its
/// range of the arena and its class hash.
enum Span<'a> {
    Token(DiffToken<'a>),
    Sentence(Range<usize>, u64),
}

/// The page's arena and spans under construction, with the open
/// sentence's start and running class hash.
struct Builder<'a> {
    items: Vec<Inline<'a>>,
    spans: Vec<Span<'a>>,
    start: usize,
    hash: ClassHasher,
}

impl<'a> Builder<'a> {
    /// A builder sized for a page of `bytes` bytes. Generated and
    /// archived prose pages run about six bytes per item and six items
    /// per token, so the common page fills its vectors without growing
    /// them.
    fn new(bytes: usize) -> Self {
        let items = bytes / 6 + 16;
        Builder {
            items: Vec::with_capacity(items),
            spans: Vec::with_capacity(items / 6),
            start: 0,
            hash: ClassHasher::new(SENTENCE_CLASS),
        }
    }

    fn push(&mut self, item: Inline<'a>) {
        hash_item_into(&mut self.hash, &item);
        self.items.push(item);
    }

    /// Closes the open sentence, if it has any items.
    fn end_sentence(&mut self) {
        let end = self.items.len();
        if self.start < end {
            let hash = std::mem::replace(&mut self.hash, ClassHasher::new(SENTENCE_CLASS)).finish();
            self.spans.push(Span::Sentence(self.start..end, hash));
            self.start = end;
        }
    }

    /// The tokens, every sentence built here a range of one shared
    /// arena.
    fn finish(mut self) -> Vec<DiffToken<'a>> {
        self.end_sentence();
        let arena = Rc::new(self.items);
        self.spans
            .into_iter()
            .map(|span| match span {
                Span::Token(token) => token,
                Span::Sentence(range, hash) => {
                    DiffToken::Sentence(Sentence::in_arena(Rc::clone(&arena), range, hash))
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::token_class_hash;

    fn sentences(tokens: &[DiffToken<'_>]) -> Vec<String> {
        tokens
            .iter()
            .filter_map(|t| t.as_sentence().map(|s| s.render()))
            .collect()
    }

    #[test]
    fn sentences_split_on_punctuation() {
        let tokens = tokenize("First one. Second one! Third?");
        assert_eq!(
            sentences(&tokens),
            vec!["First one.", "Second one!", "Third?"]
        );
    }

    #[test]
    fn breaking_markups_split_sentences() {
        let tokens = tokenize("before<P>after");
        assert_eq!(tokens.len(), 3);
        assert!(tokens[1].is_break());
        assert_eq!(sentences(&tokens), vec!["before", "after"]);
    }

    #[test]
    fn inline_markups_join_sentences() {
        let tokens = tokenize("a <B>bold</B> claim. next");
        assert_eq!(sentences(&tokens), vec!["a <B>bold</B> claim.", "next"]);
        assert_eq!(tokens.len(), 2);
    }

    #[test]
    fn anchor_stays_inside_sentence() {
        let tokens = tokenize(r#"See the <A HREF="x.html">proceedings</A> for details."#);
        assert_eq!(tokens.len(), 1);
        let s = tokens[0].as_sentence().unwrap();
        // Words: See, the, proceedings, for, details. + <A> + </A>.
        assert_eq!(s.word_count(), 5);
        assert_eq!(s.content_len(), 7);
    }

    #[test]
    fn paragraph_to_list_has_same_sentences() {
        // The §5.1 example: content identical, formatting changed.
        let para = tokenize("<P>One fish. Two fish. Red fish. Blue fish.</P>");
        let list = tokenize("<UL><LI>One fish.<LI>Two fish.<LI>Red fish.<LI>Blue fish.</UL>");
        assert_eq!(sentences(&para), sentences(&list));
        assert_ne!(para.len(), list.len(), "markup tokens differ");
    }

    #[test]
    fn whitespace_is_invisible() {
        let a = tokenize("<P>spaced   out\n\ntext here.");
        let b = tokenize("<P>spaced out text here.");
        assert_eq!(a, b);
    }

    #[test]
    fn comments_ignored() {
        let a = tokenize("x<!-- hidden note -->y");
        let b = tokenize("x y");
        assert_eq!(sentences(&a), sentences(&b));
    }

    #[test]
    fn pre_lines_are_sentences() {
        let tokens = tokenize("<PRE>col1   col2\nval1   val2</PRE>");
        let s = sentences(&tokens);
        assert_eq!(s, vec!["col1   col2", "val1   val2"]);
    }

    #[test]
    fn pre_preserves_internal_spacing() {
        let a = tokenize("<PRE>a   b</PRE>");
        let b = tokenize("<PRE>a b</PRE>");
        assert_ne!(a, b, "spacing inside PRE is content");
    }

    #[test]
    fn heading_tags_break() {
        let tokens = tokenize("<H1>Title</H1>Body text here.");
        assert!(tokens[0].is_break());
        assert_eq!(sentences(&tokens), vec!["Title", "Body text here."]);
    }

    #[test]
    fn empty_input_and_markup_only() {
        assert!(tokenize("").is_empty());
        let tokens = tokenize("<P><HR><P>");
        assert_eq!(tokens.len(), 3);
        assert!(tokens.iter().all(DiffToken::is_break));
    }

    #[test]
    fn trailing_fragment_flushed() {
        let tokens = tokenize("no terminal punctuation");
        assert_eq!(tokens.len(), 1);
        assert_eq!(tokens[0].as_sentence().unwrap().word_count(), 3);
    }

    #[test]
    fn case_of_markup_normalized() {
        let a = tokenize("<p>x</p>");
        let b = tokenize("<P>x</P>");
        assert_eq!(a, b);
    }

    #[test]
    fn class_hashes_are_computed_while_tokenizing() {
        let html = "<P CLASS=a ID=b>One <A HREF=\"x.html\">link</A>. <pre>a  b\nc</pre><HR>tail";
        for token in tokenize(html) {
            if let DiffToken::Sentence(s) = &token {
                let rebuilt = DiffToken::Sentence(Sentence::from(s.items.to_vec()));
                assert_eq!(token_class_hash(&token), token_class_hash(&rebuilt));
            }
        }
    }
}
