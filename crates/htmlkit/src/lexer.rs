//! A forgiving HTML lexer.
//!
//! The paper is explicit that "parsing is not required" (§5.1): HtmlDiff
//! works off a flat token stream produced by "a simple lexical analysis",
//! which also "converts the case of the markup name and associated
//! (variable,value) pairs to uppercase". This lexer follows that design —
//! it never rejects input (1995 HTML was wildly malformed), it tokenizes
//! tags, comments, declarations and text runs, and it normalizes tag and
//! attribute *names* to uppercase while preserving attribute *values*
//! case-sensitively (URLs are case-sensitive); character entities in
//! values are decoded at lex time and re-encoded at serialization.

use crate::entity::{decode_entities, push_encoded};
use std::fmt;

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

/// A markup tag with normalized name and attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tag {
    /// Tag name, uppercased (`P`, `IMG`, `A`).
    pub name: String,
    /// Attributes in source order: name uppercased, value with quotes
    /// stripped and entities decoded. Valueless attributes carry `None`.
    pub attrs: Vec<(String, Option<String>)>,
    /// Open / close / self-close.
    pub kind: TagKind,
}

impl Tag {
    /// Creates an open tag with no attributes.
    pub fn open(name: &str) -> Tag {
        Tag {
            name: name.to_ascii_uppercase(),
            attrs: Vec::new(),
            kind: TagKind::Open,
        }
    }

    /// Creates a close tag.
    pub fn close(name: &str) -> Tag {
        Tag {
            name: name.to_ascii_uppercase(),
            attrs: Vec::new(),
            kind: TagKind::Close,
        }
    }

    /// Adds an attribute (builder style).
    pub fn with_attr(mut self, name: &str, value: &str) -> Tag {
        self.attrs
            .push((name.to_ascii_uppercase(), Some(value.to_string())));
        self
    }

    /// Returns the value of attribute `name` (case-insensitive).
    pub fn attr(&self, name: &str) -> Option<&str> {
        let upper = name.to_ascii_uppercase();
        self.attrs
            .iter()
            .find(|(n, _)| *n == upper)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Replaces or inserts attribute `name`.
    pub fn set_attr(&mut self, name: &str, value: &str) {
        let upper = name.to_ascii_uppercase();
        for (n, v) in self.attrs.iter_mut() {
            if *n == upper {
                *v = Some(value.to_string());
                return;
            }
        }
        self.attrs.push((upper, Some(value.to_string())));
    }

    /// Equality modulo attribute order — the comparison the paper's
    /// sentence-breaking markup match uses: "identical (modulo whitespace,
    /// case, and reordering of (variable,value) pairs)".
    ///
    /// Same-order equality implies a match, so the common case of two
    /// identical tags costs one derived comparison and no allocation;
    /// only same-name, same-kind tags whose attribute lists differ as
    /// written pay for sorting.
    pub fn matches_modulo_order(&self, other: &Tag) -> bool {
        if self == other {
            return true;
        }
        if self.name != other.name
            || self.kind != other.kind
            || self.attrs.len() != other.attrs.len()
        {
            return false;
        }
        let mut mine: Vec<_> = self.attrs.iter().collect();
        let mut theirs: Vec<_> = other.attrs.iter().collect();
        mine.sort();
        theirs.sort();
        mine == theirs
    }

    /// Appends the tag's HTML to `out` — the bytes [`fmt::Display`]
    /// prints, without a formatter or an intermediate `String`.
    pub fn push_html(&self, out: &mut String) {
        if self.kind == TagKind::Close {
            out.push_str("</");
            out.push_str(&self.name);
            out.push('>');
            return;
        }
        out.push('<');
        out.push_str(&self.name);
        for (n, v) in &self.attrs {
            out.push(' ');
            out.push_str(n);
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

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut html = String::new();
        self.push_html(&mut html);
        f.write_str(&html)
    }
}

/// One lexical token of an HTML document. Text, comments and
/// declarations are verbatim slices of the lexed input; tags are owned,
/// because their names are normalized.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Token<'a> {
    /// A run of character data between tags, verbatim (entities intact).
    Text(&'a str),
    /// A markup tag.
    Tag(Tag),
    /// `<!-- ... -->` with the inner text.
    Comment(&'a str),
    /// `<!DOCTYPE ...>` or any other `<!...>` declaration, inner text.
    Declaration(&'a str),
}

impl<'a> Token<'a> {
    /// Returns the tag if this token is one.
    pub fn as_tag(&self) -> Option<&Tag> {
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
    let mut tokens = Vec::new();
    let bytes = html.as_bytes();
    let mut i = 0;
    let mut text_start = 0;

    while i < bytes.len() {
        if bytes[i] != b'<' {
            i += 1;
            continue;
        }
        if html[i..].starts_with("<!--") {
            if text_start < i {
                tokens.push(Token::Text(&html[text_start..i]));
            }
            match html[i + 4..].find("-->") {
                Some(end) => {
                    tokens.push(Token::Comment(&html[i + 4..i + 4 + end]));
                    i += 4 + end + 3;
                }
                None => {
                    // Unterminated comment swallows the rest of the file.
                    tokens.push(Token::Comment(&html[i + 4..]));
                    i = bytes.len();
                }
            }
            text_start = i;
            continue;
        }
        if html[i..].starts_with("<!") {
            if text_start < i {
                tokens.push(Token::Text(&html[text_start..i]));
            }
            match html[i..].find('>') {
                Some(end) => {
                    tokens.push(Token::Declaration(&html[i + 2..i + end]));
                    i += end + 1;
                }
                None => {
                    tokens.push(Token::Declaration(&html[i + 2..]));
                    i = bytes.len();
                }
            }
            text_start = i;
            continue;
        }
        // A '<' not followed by a letter or '/' is literal text.
        let next = bytes.get(i + 1).copied();
        let is_tag_start = matches!(next, Some(c) if c.is_ascii_alphabetic() || c == b'/');
        if !is_tag_start {
            i += 1;
            continue;
        }
        match parse_tag(html, i) {
            Some((tag, consumed)) => {
                if text_start < i {
                    tokens.push(Token::Text(&html[text_start..i]));
                }
                tokens.push(Token::Tag(tag));
                i += consumed;
                text_start = i;
            }
            None => {
                // Unterminated tag: flush preceding text, keep the rest as
                // a final text run.
                if text_start < i {
                    tokens.push(Token::Text(&html[text_start..i]));
                }
                text_start = i;
                break;
            }
        }
    }
    if text_start < bytes.len() {
        tokens.push(Token::Text(&html[text_start..]));
    }
    tokens
}

/// Parses a tag beginning at byte `start` (which is `<`). Returns the tag
/// and the number of bytes consumed, or `None` if no closing `>` exists.
fn parse_tag(html: &str, start: usize) -> Option<(Tag, usize)> {
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
    let name = html[name_start..i].to_ascii_uppercase();
    if name.is_empty() {
        return None;
    }
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
        let attr_name = html[an_start..i].to_ascii_uppercase();
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
            .map(|t| t.name.as_str())
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
                .find(|(n, _)| n == "ISMAP")
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
