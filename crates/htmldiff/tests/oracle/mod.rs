//! The two-pass tokenizer that HtmlDiff's fused single pass replaced,
//! kept as a test oracle: HtmlDiff's property tests and the bench
//! crate's hostile-input tests both compare `tokenize` against it.

use aide_htmldiff::{DiffToken, Inline};
use aide_htmlkit::classify::{is_sentence_breaking, preserves_whitespace};
use aide_htmlkit::lexer::{lex, Tag, TagKind, Token};
use aide_htmlkit::text::word_ends_sentence;

/// One token of the two-pass tokenizer below, owning its items.
#[derive(Debug, PartialEq)]
pub enum TwoPassToken<'a> {
    Break(Tag<'a>),
    Sentence(Vec<Inline<'a>>),
}

/// The whole page lexed into a token list, words split with
/// `str::split_whitespace`, and one item vector per sentence.
pub fn two_pass_tokenize(html: &str) -> Vec<TwoPassToken<'_>> {
    fn flush<'a>(current: &mut Vec<Inline<'a>>, out: &mut Vec<TwoPassToken<'a>>) {
        if !current.is_empty() {
            out.push(TwoPassToken::Sentence(std::mem::take(current)));
        }
    }
    let (mut out, mut current, mut pre_depth) = (Vec::new(), Vec::new(), 0usize);
    for token in lex(html) {
        match token {
            Token::Comment(_) | Token::Declaration(_) => {}
            Token::Tag(tag) => {
                if preserves_whitespace(tag.name.0) {
                    if tag.kind == TagKind::Close {
                        pre_depth = pre_depth.saturating_sub(1);
                    } else {
                        pre_depth += 1;
                    }
                }
                if is_sentence_breaking(tag.name.0) {
                    flush(&mut current, &mut out);
                    out.push(TwoPassToken::Break(tag));
                } else {
                    current.push(Inline::Markup(tag));
                }
            }
            Token::Text(text) if pre_depth > 0 => {
                for (k, line) in text.split('\n').enumerate() {
                    if k > 0 {
                        flush(&mut current, &mut out);
                    }
                    if !line.is_empty() {
                        current.push(Inline::Word(line));
                    }
                }
            }
            Token::Text(text) => {
                for word in text.split_whitespace() {
                    current.push(Inline::Word(word));
                    if word_ends_sentence(word) {
                        flush(&mut current, &mut out);
                    }
                }
            }
        }
    }
    flush(&mut current, &mut out);
    out
}

/// `tokens` in the oracle's owning form.
pub fn owned<'a>(tokens: &[DiffToken<'a>]) -> Vec<TwoPassToken<'a>> {
    tokens
        .iter()
        .map(|t| match t {
            DiffToken::Break(tag) => TwoPassToken::Break(tag.clone()),
            DiffToken::Sentence(s) => TwoPassToken::Sentence(s.items.to_vec()),
        })
        .collect()
}
