//! Link extraction and `BASE` rewriting.
//!
//! Two consumers in AIDE need to see a page's links:
//!
//! - the recursive tracker of §8.3, which follows the links of "Virtual
//!   Library pages" and "collections of related pages";
//! - the snapshot service of §4.1, which must deal with relative links
//!   when "a page is moved away from the machine that originally provided
//!   it" by inserting a `BASE` directive.

use crate::lexer::{Tag, TagKind, Token};
use crate::url::Url;

/// What kind of reference a link is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// `<A HREF=...>` — a hypertext anchor.
    Anchor,
    /// `<IMG SRC=...>` — an inline image.
    Image,
    /// `<FORM ACTION=...>` — a form submission target.
    Form,
    /// `<LINK HREF=...>` or `<BASE HREF=...>` — head metadata.
    Meta,
}

/// A link found in a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link {
    /// The raw attribute value as written in the page.
    pub raw: String,
    /// The resolved absolute URL, if a base was supplied and resolution
    /// succeeded.
    pub resolved: Option<Url>,
    /// The link's kind.
    pub kind: LinkKind,
}

/// The tags that carry a link, and the attribute that holds it.
const LINK_ATTRS: [(&str, &str, LinkKind); 4] = [
    ("A", "HREF", LinkKind::Anchor),
    ("IMG", "SRC", LinkKind::Image),
    ("FORM", "ACTION", LinkKind::Form),
    ("LINK", "HREF", LinkKind::Meta),
];

/// Extracts all links from a token stream, resolving each against `base`
/// when one is given.
///
/// An in-document `<BASE HREF=...>` tag overrides `base` for subsequent
/// links, matching browser behaviour (and the Netscape 1.1N quirk §4.1
/// complains about, where even internal `#` links chase the new BASE).
///
/// # Examples
///
/// ```
/// use aide_htmlkit::lexer::lex;
/// use aide_htmlkit::links::{extract_links, LinkKind};
/// use aide_htmlkit::url::Url;
///
/// let base = Url::parse("http://www.usenix.org/events/index.html").unwrap();
/// let tokens = lex(r#"<A HREF="lisa.html">LISA</A> <IMG SRC="/art/logo.gif">"#);
/// let links = extract_links(&tokens, Some(&base));
/// assert_eq!(links.len(), 2);
/// assert_eq!(links[0].resolved.as_ref().unwrap().to_string(),
///            "http://www.usenix.org/events/lisa.html");
/// assert_eq!(links[1].kind, LinkKind::Image);
/// ```
pub fn extract_links(tokens: &[Token<'_>], base: Option<&Url>) -> Vec<Link> {
    let mut links = Vec::new();
    let mut effective_base: Option<Url> = base.cloned();
    for token in tokens {
        let Token::Tag(tag) = token else { continue };
        if tag.kind == TagKind::Close {
            continue;
        }
        if tag.name == "BASE" {
            if let Some(href) = tag.attr("HREF") {
                if let Ok(u) = Url::parse(href) {
                    effective_base = Some(u);
                }
                links.push(Link {
                    raw: href.to_string(),
                    resolved: effective_base.clone(),
                    kind: LinkKind::Meta,
                });
            }
            continue;
        }
        let Some(&(_, attr, kind)) = LINK_ATTRS.iter().find(|(name, ..)| tag.name == *name) else {
            continue;
        };
        if let Some(value) = tag.attr(attr) {
            let resolved = effective_base.as_ref().and_then(|b| b.join(value).ok());
            links.push(Link {
                raw: value.to_string(),
                resolved,
                kind,
            });
        }
    }
    links
}

/// Anchors (`<A HREF>`) only, resolved, with fragments dropped and
/// duplicates removed — the set the recursive tracker follows.
pub fn extract_followable(tokens: &[Token<'_>], base: &Url) -> Vec<Url> {
    let mut out: Vec<Url> = Vec::new();
    for link in extract_links(tokens, Some(base)) {
        if link.kind != LinkKind::Anchor {
            continue;
        }
        if let Some(u) = link.resolved {
            let u = u.without_fragment();
            // Only follow protocols a tracker can poll.
            if u.scheme != "http" && u.scheme != "file" {
                continue;
            }
            if !out.contains(&u) {
                out.push(u);
            }
        }
    }
    out
}

/// Ensures the document carries `<BASE HREF="...">` pointing at
/// `base`, inserting one after `<HEAD>` (or at the front) if absent —
/// what snapshot does before serving an archived copy so that relative
/// links still work (§4.1).
pub fn rewrite_base<'a>(tokens: &[Token<'a>], base: &Url) -> Vec<Token<'a>> {
    let href = base.to_string();
    let mut out: Vec<Token<'a>> = Vec::with_capacity(tokens.len() + 1);
    let mut replaced = false;
    for token in tokens {
        match token {
            Token::Tag(tag) if tag.name == "BASE" && tag.kind != TagKind::Close => {
                let mut t = tag.clone();
                t.set_attr("HREF", href.clone());
                out.push(Token::Tag(t));
                replaced = true;
            }
            other => out.push(other.clone()),
        }
    }
    if !replaced {
        let base_tag = Token::Tag(Tag::open("BASE").with_attr("HREF", href));
        // After <HEAD> if present, else after <HTML>, else at the front.
        let pos = out
            .iter()
            .position(|t| matches!(t, Token::Tag(tag) if tag.name == "HEAD" && tag.kind == TagKind::Open))
            .map(|i| i + 1)
            .or_else(|| {
                out.iter()
                    .position(
                        |t| matches!(t, Token::Tag(tag) if tag.name == "HTML" && tag.kind == TagKind::Open),
                    )
                    .map(|i| i + 1)
            })
            .unwrap_or(0);
        out.insert(pos, base_tag);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, serialize};

    fn base() -> Url {
        Url::parse("http://host/dir/page.html").unwrap()
    }

    #[test]
    fn anchors_images_forms() {
        let tokens = lex(
            r#"<A HREF="a.html">x</A><IMG SRC="i.gif"><FORM ACTION="/cgi-bin/s"><LINK HREF="style">"#,
        );
        let links = extract_links(&tokens, Some(&base()));
        assert_eq!(links.len(), 4);
        assert_eq!(links[0].kind, LinkKind::Anchor);
        assert_eq!(links[1].kind, LinkKind::Image);
        assert_eq!(links[2].kind, LinkKind::Form);
        assert_eq!(links[3].kind, LinkKind::Meta);
        assert_eq!(links[2].resolved.as_ref().unwrap().path, "/cgi-bin/s");
    }

    #[test]
    fn base_tag_overrides() {
        let tokens = lex(
            r#"<A HREF="one.html">1</A><BASE HREF="http://other/sub/"><A HREF="two.html">2</A>"#,
        );
        let links = extract_links(&tokens, Some(&base()));
        let anchors: Vec<_> = links
            .iter()
            .filter(|l| l.kind == LinkKind::Anchor)
            .collect();
        assert_eq!(anchors[0].resolved.as_ref().unwrap().host, "host");
        assert_eq!(
            anchors[1].resolved.as_ref().unwrap().to_string(),
            "http://other/sub/two.html"
        );
    }

    #[test]
    fn no_base_leaves_unresolved() {
        let tokens = lex(r#"<A HREF="rel.html">x</A>"#);
        let links = extract_links(&tokens, None);
        assert_eq!(links[0].resolved, None);
        assert_eq!(links[0].raw, "rel.html");
    }

    #[test]
    fn followable_dedups_and_drops_fragments() {
        let tokens = lex(r#"<A HREF="x.html#a">1</A><A HREF="x.html#b">2</A>
               <A HREF="mailto:douglis@research.att.com">mail</A>
               <IMG SRC="pic.gif">"#);
        let urls = extract_followable(&tokens, &base());
        assert_eq!(urls.len(), 1);
        assert_eq!(urls[0].to_string(), "http://host/dir/x.html");
    }

    #[test]
    fn anchor_without_href_ignored() {
        // <A NAME="here"> is a target, not a link.
        let tokens = lex(r#"<A NAME="here">sec</A>"#);
        assert!(extract_links(&tokens, Some(&base())).is_empty());
    }

    #[test]
    fn rewrite_base_inserts_after_head() {
        let tokens = lex("<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY></BODY></HTML>");
        let out = rewrite_base(&tokens, &base());
        let html = serialize(&out);
        assert!(
            html.starts_with(r#"<HTML><HEAD><BASE HREF="http://host/dir/page.html">"#),
            "got: {html}"
        );
    }

    #[test]
    fn rewrite_base_replaces_existing() {
        let tokens = lex(r#"<HEAD><BASE HREF="http://stale/"></HEAD>"#);
        let out = rewrite_base(&tokens, &base());
        let html = serialize(&out);
        assert_eq!(html.matches("BASE").count(), 1);
        assert!(html.contains("http://host/dir/page.html"));
    }

    #[test]
    fn rewrite_base_without_head_prepends() {
        let tokens = lex("<P>bare");
        let out = rewrite_base(&tokens, &base());
        assert!(matches!(&out[0], Token::Tag(t) if t.name == "BASE"));
    }
}
