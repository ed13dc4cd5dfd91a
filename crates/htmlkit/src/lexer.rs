//! A forgiving HTML lexer.
//!
//! The paper is explicit that "parsing is not required" (§5.1): HtmlDiff
//! works off a flat token stream produced by "a simple lexical analysis",
//! which also "converts the case of the markup name and associated
//! (variable,value) pairs to uppercase". This lexer follows that design:
//! it never rejects input (1995 HTML was wildly malformed), and it
//! tokenizes tags, comments, declarations and text runs.
//!
//! Every token borrows the input. Text, comments and declarations are
//! verbatim slices. A tag's name and attribute names are slices as
//! written, wrapped in [`Name`], which compares, orders and hashes
//! case-blind and renders uppercased: the paper's normalization, applied
//! where names are compared and printed rather than by copying them.
//! Attribute *values* keep their case (URLs are case-sensitive);
//! character entities in values are decoded at lex time, which copies
//! only a value that holds an `&`, and re-encoded at serialization.
//!
//! [`Lexer`] yields the tokens one at a time, so a consumer that needs
//! no token list (HtmlDiff's tokenizer) builds none; [`lex`] collects
//! them.

use crate::entity::{decode_entities, push_encoded};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Whether a tag opens, closes, or self-closes an element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TagKind {
    /// `<NAME ...>`
    Open,
    /// `</NAME>`
    Close,
    /// `<NAME ... />` (rare in 1995 HTML, tolerated anyway)
    SelfClose,
}

/// A tag or attribute name as written in the page. It compares, orders
/// and hashes by its ASCII-uppercased bytes and renders uppercased, so
/// `<a href>` and `<A HREF>` are the same markup without either name
/// being copied.
#[derive(Debug, Clone, Copy)]
pub struct Name<'a>(pub &'a str);

impl<'a> Name<'a> {
    /// The name's bytes, uppercased: what it compares, orders and
    /// hashes by.
    fn upper_bytes(&self) -> impl Iterator<Item = u8> + 'a {
        self.0.bytes().map(|b| b.to_ascii_uppercase())
    }

    /// Appends the name, uppercased, to `out`.
    fn push_upper(&self, out: &mut String) {
        let start = out.len();
        out.push_str(self.0);
        out[start..].make_ascii_uppercase();
    }
}

impl PartialEq for Name<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.eq_ignore_ascii_case(other.0)
    }
}

impl Eq for Name<'_> {}

impl PartialEq<&str> for Name<'_> {
    fn eq(&self, other: &&str) -> bool {
        self.0.eq_ignore_ascii_case(other)
    }
}

impl Ord for Name<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.upper_bytes().cmp(other.upper_bytes())
    }
}

impl PartialOrd for Name<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Name<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for b in self.upper_bytes() {
            state.write_u8(b);
        }
        state.write_u8(0xFF);
    }
}

/// A markup tag. Its name and attribute names borrow the page; a value
/// borrows it too unless it holds an `&`, which entity decoding copies.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tag<'a> {
    /// Tag name (`P`, `img`, `A`).
    pub name: Name<'a>,
    /// Attributes in source order: the name, and the value with quotes
    /// stripped and entities decoded. Valueless attributes carry `None`.
    pub attrs: Vec<(Name<'a>, Option<Cow<'a, str>>)>,
    /// Open / close / self-close.
    pub kind: TagKind,
}

impl<'a> Tag<'a> {
    /// Creates an open tag with no attributes.
    pub fn open(name: &'a str) -> Tag<'a> {
        Tag {
            name: Name(name),
            attrs: Vec::new(),
            kind: TagKind::Open,
        }
    }

    /// Creates a close tag.
    pub fn close(name: &'a str) -> Tag<'a> {
        Tag {
            kind: TagKind::Close,
            ..Tag::open(name)
        }
    }

    /// Adds an attribute (builder style).
    pub fn with_attr(mut self, name: &'a str, value: impl Into<Cow<'a, str>>) -> Tag<'a> {
        self.attrs.push((Name(name), Some(value.into())));
        self
    }

    /// Returns the value of attribute `name` (case-insensitive).
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Replaces or inserts attribute `name`.
    pub fn set_attr(&mut self, name: &'a str, value: impl Into<Cow<'a, str>>) {
        let value = Some(value.into());
        match self.attrs.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.attrs.push((Name(name), value)),
        }
    }

    /// Equality modulo attribute order — the comparison the paper's
    /// sentence-breaking markup match uses: "identical (modulo whitespace,
    /// case, and reordering of (variable,value) pairs)".
    ///
    /// Same-order equality implies a match, so the common case of two
    /// identical tags costs one derived comparison and no allocation;
    /// only same-name, same-kind tags whose attribute lists differ as
    /// written pay for sorting.
    pub fn matches_modulo_order(&self, other: &Tag<'_>) -> bool {
        if self.name != other.name
            || self.kind != other.kind
            || self.attrs.len() != other.attrs.len()
        {
            return false;
        }
        if self.attrs == other.attrs {
            return true;
        }
        let mut mine: Vec<_> = self.attrs.iter().collect();
        let mut theirs: Vec<_> = other.attrs.iter().collect();
        mine.sort();
        theirs.sort();
        mine == theirs
    }

    /// Appends the tag's HTML to `out`, names uppercased — the bytes
    /// [`fmt::Display`] prints, without a formatter or an intermediate
    /// `String`.
    pub fn push_html(&self, out: &mut String) {
        if self.kind == TagKind::Close {
            out.push_str("</");
            self.name.push_upper(out);
            out.push('>');
            return;
        }
        out.push('<');
        self.name.push_upper(out);
        for (n, v) in &self.attrs {
            out.push(' ');
            n.push_upper(out);
            if let Some(val) = v {
                out.push_str("=\"");
                push_encoded(out, val);
                out.push('"');
            }
        }
        if self.kind == TagKind::SelfClose {
            out.push_str(" /");
        }
        out.push('>');
    }
}

impl fmt::Display for Tag<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut html = String::new();
        self.push_html(&mut html);
        f.write_str(&html)
    }
}

/// One lexical token of an HTML document, borrowing the lexed input.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Token<'a> {
    /// A run of character data between tags, verbatim (entities intact).
    Text(&'a str),
    /// A markup tag.
    Tag(Tag<'a>),
    /// `<!-- ... -->` with the inner text.
    Comment(&'a str),
    /// `<!DOCTYPE ...>` or any other `<!...>` declaration, inner text.
    Declaration(&'a str),
}

impl<'a> Token<'a> {
    /// Returns the tag if this token is one.
    pub fn as_tag(&self) -> Option<&Tag<'a>> {
        match self {
            Token::Tag(t) => Some(t),
            _ => None,
        }
    }

    /// Returns the text if this token is character data.
    pub fn as_text(&self) -> Option<&'a str> {
        match self {
            Token::Text(t) => Some(t),
            _ => None,
        }
    }
}

/// The lexer as an iterator over the tokens of one document. Never
/// fails: malformed constructs degrade to text or best-effort tags, as
/// period browsers treated them.
pub struct Lexer<'a> {
    html: &'a str,
    /// Start of the text not yet returned.
    pos: usize,
    /// The markup found after a text run, returned on the next call.
    pending: Option<Token<'a>>,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `html`.
    pub fn new(html: &'a str) -> Lexer<'a> {
        Lexer::resume(html, 0)
    }

    /// A lexer over `html` that starts at byte `at`, which must be a
    /// char boundary: where another lexer over the same bytes stood just
    /// after returning a tag, or any tag's end.
    pub fn resume(html: &'a str, at: usize) -> Lexer<'a> {
        Lexer {
            html,
            pos: at,
            pending: None,
        }
    }

    /// The byte offset just past the last token returned, when that
    /// token was markup. (After a text run, the markup found behind it
    /// is already consumed and held back.) A tag ends at its `>`: no
    /// byte past it is read to lex it, so the tokens up to any tag are a
    /// function of the bytes up to its end.
    pub fn offset(&self) -> usize {
        self.pos
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        if let Some(token) = self.pending.take() {
            return Some(token);
        }
        let (html, start) = (self.html, self.pos);
        let bytes = html.as_bytes();
        if start >= bytes.len() {
            return None;
        }
        let mut i = start;
        let (markup, end) = loop {
            let Some(off) = html[i..].find('<') else {
                self.pos = bytes.len();
                return Some(Token::Text(&html[start..]));
            };
            i += off;
            let rest = &html[i..];
            if let Some(inner) = rest.strip_prefix("<!--") {
                break match inner.find("-->") {
                    Some(n) => (Token::Comment(&inner[..n]), i + 4 + n + 3),
                    // Unterminated comment swallows the rest of the file.
                    None => (Token::Comment(inner), bytes.len()),
                };
            }
            if let Some(inner) = rest.strip_prefix("<!") {
                break match inner.find('>') {
                    Some(n) => (Token::Declaration(&inner[..n]), i + 2 + n + 1),
                    None => (Token::Declaration(inner), bytes.len()),
                };
            }
            // A '<' not followed by a letter or '/' is literal text.
            let next = bytes.get(i + 1).copied();
            if !matches!(next, Some(c) if c.is_ascii_alphabetic() || c == b'/') {
                i += 1;
                continue;
            }
            break match parse_tag(html, i) {
                Some((tag, consumed)) => (Token::Tag(tag), i + consumed),
                // Unterminated tag: the rest of the file is a final text
                // run of its own.
                None => (Token::Text(rest), bytes.len()),
            };
        };
        self.pos = end;
        if start < i {
            self.pending = Some(markup);
            return Some(Token::Text(&html[start..i]));
        }
        Some(markup)
    }
}

/// Lexes `html` into tokens. Never fails: malformed constructs degrade to
/// text or best-effort tags, as period browsers treated them.
///
/// # Examples
///
/// ```
/// use aide_htmlkit::lexer::{lex, Token};
///
/// let tokens = lex("<P>Hello <B>world</B>!");
/// assert_eq!(tokens.len(), 6);
/// assert!(matches!(&tokens[0], Token::Tag(t) if t.name == "P"));
/// assert!(matches!(&tokens[1], Token::Text(t) if *t == "Hello "));
/// ```
pub fn lex(html: &str) -> Vec<Token<'_>> {
    Lexer::new(html).collect()
}

/// Parses a tag beginning at byte `start` (which is `<`). Returns the tag
/// and the number of bytes consumed, or `None` if no closing `>` exists.
fn parse_tag(html: &str, start: usize) -> Option<(Tag<'_>, usize)> {
    let bytes = html.as_bytes();
    let mut i = start + 1;
    let kind_close = bytes.get(i) == Some(&b'/');
    if kind_close {
        i += 1;
    }
    let name_start = i;
    while i < bytes.len()
        && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'-' || bytes[i] == b'.')
    {
        i += 1;
    }
    if i == name_start {
        return None;
    }
    let name = Name(&html[name_start..i]);
    let mut attrs = Vec::new();
    let mut self_close = false;
    loop {
        // Skip whitespace.
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() {
            return None;
        }
        if bytes[i] == b'>' {
            i += 1;
            break;
        }
        if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'>') {
            self_close = true;
            i += 2;
            break;
        }
        // Attribute name.
        let an_start = i;
        while i < bytes.len()
            && !bytes[i].is_ascii_whitespace()
            && bytes[i] != b'='
            && bytes[i] != b'>'
            && !(bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'>'))
        {
            i += 1;
        }
        if i == an_start {
            // Stray character (e.g. lone '/'); skip it.
            i += 1;
            continue;
        }
        let attr_name = Name(&html[an_start..i]);
        // Skip whitespace before a possible '='.
        let mut j = i;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if bytes.get(j) == Some(&b'=') {
            j += 1;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            let value;
            match bytes.get(j) {
                Some(&q) if q == b'"' || q == b'\'' => {
                    let v_start = j + 1;
                    let mut k = v_start;
                    while k < bytes.len() && bytes[k] != q {
                        k += 1;
                    }
                    // Values are stored decoded; serialization re-encodes.
                    value = decode_entities(&html[v_start..k.min(bytes.len())]);
                    j = (k + 1).min(bytes.len());
                }
                _ => {
                    let v_start = j;
                    while j < bytes.len() && !bytes[j].is_ascii_whitespace() && bytes[j] != b'>' {
                        j += 1;
                    }
                    value = decode_entities(&html[v_start..j]);
                }
            }
            attrs.push((attr_name, Some(value)));
            i = j;
        } else {
            attrs.push((attr_name, None));
        }
    }
    let kind = if kind_close {
        TagKind::Close
    } else if self_close {
        TagKind::SelfClose
    } else {
        TagKind::Open
    };
    Some((Tag { name, attrs, kind }, i - start))
}

/// Serializes tokens back to HTML.
///
/// Lex → serialize is not byte-identical (names are uppercased, attribute
/// quoting normalized) but is idempotent: serializing the lex of the
/// output reproduces the output.
pub fn serialize(tokens: &[Token<'_>]) -> String {
    let mut out = String::new();
    for t in tokens {
        match t {
            Token::Text(s) => out.push_str(s),
            Token::Tag(tag) => tag.push_html(&mut out),
            Token::Comment(c) => {
                out.push_str("<!--");
                out.push_str(c);
                out.push_str("-->");
            }
            Token::Declaration(d) => {
                out.push_str("<!");
                out.push_str(d);
                out.push('>');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_document() {
        let tokens = lex("<HTML><BODY><P>Hi</P></BODY></HTML>");
        let names: Vec<&str> = tokens
            .iter()
            .filter_map(|t| t.as_tag())
            .map(|t| t.name.0)
            .collect();
        assert_eq!(names, vec!["HTML", "BODY", "P", "P", "BODY", "HTML"]);
    }

    #[test]
    fn case_is_normalized_for_names_not_values() {
        let tokens = lex(r#"<a HREF="/Path/File.html">x</A>"#);
        let tag = tokens[0].as_tag().unwrap();
        assert_eq!(tag.name, "A");
        assert_eq!(tag.attrs[0].0, "HREF");
        assert_eq!(tag.attr("href"), Some("/Path/File.html"));
        assert_eq!(tag.to_string(), r#"<A HREF="/Path/File.html">"#);
    }

    #[test]
    fn attribute_quoting_styles() {
        let tokens = lex(r#"<IMG src="a.gif" alt='red arrow' width=16 ISMAP>"#);
        let tag = tokens[0].as_tag().unwrap();
        assert_eq!(tag.attr("SRC"), Some("a.gif"));
        assert_eq!(tag.attr("ALT"), Some("red arrow"));
        assert_eq!(tag.attr("WIDTH"), Some("16"));
        assert_eq!(
            tag.attrs
                .iter()
                .find(|(n, _)| *n == "ISMAP")
                .map(|(_, v)| v.clone()),
            Some(None)
        );
    }

    #[test]
    fn attr_value_with_spaces_around_equals() {
        let tokens = lex(r#"<A HREF = "x.html">t</A>"#);
        assert_eq!(tokens[0].as_tag().unwrap().attr("HREF"), Some("x.html"));
    }

    #[test]
    fn comments_and_declarations() {
        let tokens = lex("<!DOCTYPE HTML PUBLIC>before<!-- hidden -->after");
        assert!(matches!(&tokens[0], Token::Declaration(d) if d.starts_with("DOCTYPE")));
        assert!(matches!(&tokens[1], Token::Text(t) if *t == "before"));
        assert!(matches!(&tokens[2], Token::Comment(c) if *c == " hidden "));
        assert!(matches!(&tokens[3], Token::Text(t) if *t == "after"));
    }

    #[test]
    fn unterminated_comment() {
        let tokens = lex("x<!-- never closed");
        assert_eq!(tokens.len(), 2);
        assert!(matches!(&tokens[1], Token::Comment(c) if *c == " never closed"));
    }

    #[test]
    fn bare_less_than_is_text() {
        let tokens = lex("if a < b then");
        assert_eq!(tokens.len(), 1);
        assert_eq!(tokens[0].as_text(), Some("if a < b then"));
    }

    #[test]
    fn less_than_digit_is_text() {
        let tokens = lex("x <3 y");
        assert_eq!(tokens.len(), 1);
    }

    #[test]
    fn unterminated_tag_degrades_to_text() {
        let tokens = lex("ok<A HREF=\"x");
        assert_eq!(tokens.len(), 2);
        assert_eq!(tokens[1].as_text(), Some("<A HREF=\"x"));
    }

    #[test]
    fn self_closing() {
        let tokens = lex("<BR/><HR />");
        assert_eq!(tokens[0].as_tag().unwrap().kind, TagKind::SelfClose);
        assert_eq!(tokens[1].as_tag().unwrap().kind, TagKind::SelfClose);
    }

    #[test]
    fn serialize_is_idempotent() {
        let src = r#"<html><Body BGCOLOR=white><p>One &amp; two<IMG SRC="x.gif"><!-- c --></p>"#;
        let once = serialize(&lex(src));
        let twice = serialize(&lex(&once));
        assert_eq!(once, twice);
    }

    #[test]
    fn text_runs_preserved_verbatim() {
        let src = "  leading space <P>  inner\n\nlines  </P> trailing ";
        let round = serialize(&lex(src));
        assert!(round.contains("  leading space "));
        assert!(round.contains("  inner\n\nlines  "));
        assert!(round.contains(" trailing "));
    }

    #[test]
    fn matches_modulo_order() {
        let a = lex(r#"<TABLE BORDER=1 WIDTH="90%">"#)[0]
            .as_tag()
            .unwrap()
            .clone();
        let b = lex(r#"<table width="90%" border=1>"#)[0]
            .as_tag()
            .unwrap()
            .clone();
        assert!(a.matches_modulo_order(&b));
        let c = lex(r#"<TABLE BORDER=2 WIDTH="90%">"#)[0]
            .as_tag()
            .unwrap()
            .clone();
        assert!(!a.matches_modulo_order(&c));
    }

    #[test]
    fn set_attr_replaces_or_inserts() {
        let mut t = Tag::open("A").with_attr("HREF", "old.html");
        t.set_attr("href", "new.html");
        assert_eq!(t.attr("HREF"), Some("new.html"));
        t.set_attr("NAME", "anchor1");
        assert_eq!(t.attrs.len(), 2);
    }

    #[test]
    fn display_escapes_attr_values() {
        let t = Tag::open("A").with_attr("HREF", "x?a=1&b=2");
        assert_eq!(t.to_string(), r#"<A HREF="x?a=1&amp;b=2">"#);
    }

    #[test]
    fn empty_input() {
        assert!(lex("").is_empty());
    }

    #[test]
    fn tag_names_with_digits() {
        let tokens = lex("<H1>Title</H1>");
        assert_eq!(tokens[0].as_tag().unwrap().name, "H1");
    }
}
