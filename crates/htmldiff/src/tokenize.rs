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
//! The stream borrows `html`: every word (and every `<PRE>` line) is a
//! slice of the input, so tokenizing allocates per sentence and per
//! tag, never per word.

use crate::token::{DiffToken, Inline, Sentence};
use aide_htmlkit::classify::{is_sentence_breaking, preserves_whitespace};
use aide_htmlkit::lexer::{lex, TagKind, Token};
use aide_htmlkit::text::split_words;

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
    fn flush<'a>(current: &mut Sentence<'a>, out: &mut Vec<DiffToken<'a>>) {
        if !current.is_empty() {
            out.push(DiffToken::Sentence(std::mem::take(current)));
        }
    }

    let mut out = Vec::new();
    let mut current = Sentence::default();
    let mut pre_depth = 0usize;

    for token in lex(html) {
        match token {
            Token::Comment(_) | Token::Declaration(_) => {
                // Comments carry no content; the paper's comparison
                // ignores them.
            }
            Token::Tag(tag) => {
                if preserves_whitespace(&tag.name) {
                    if tag.kind == TagKind::Close {
                        pre_depth = pre_depth.saturating_sub(1);
                    } else {
                        pre_depth += 1;
                    }
                }
                if is_sentence_breaking(&tag.name) {
                    flush(&mut current, &mut out);
                    out.push(DiffToken::Break(tag));
                } else {
                    current.items.push(Inline::Markup(tag));
                }
            }
            Token::Text(text) => {
                if pre_depth > 0 {
                    // Inside <PRE>: whitespace is content; one sentence
                    // per line.
                    for (k, line) in text.split('\n').enumerate() {
                        if k > 0 {
                            flush(&mut current, &mut out);
                        }
                        if !line.is_empty() {
                            current.items.push(Inline::Word(line));
                        }
                    }
                } else {
                    for word in split_words(text) {
                        current.items.push(Inline::Word(word.text));
                        if word.ends_sentence {
                            flush(&mut current, &mut out);
                        }
                    }
                }
            }
        }
    }
    flush(&mut current, &mut out);
    if aide_obs::enabled() {
        aide_obs::counter("htmldiff.tokenize", 1);
        aide_obs::observe("htmldiff.tokenize.tokens", out.len() as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
