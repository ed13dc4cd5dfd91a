//! Property-based tests for the HTML substrate.
//!
//! Invariants:
//! - the lexer never panics on arbitrary input, and serialize∘lex is
//!   idempotent (a fixpoint after one round);
//! - text content survives lexing;
//! - URL join results are well-formed (absolute path, no dot segments)
//!   and display→parse round-trips;
//! - entity decode of encode is the identity, and decoding pushes the
//!   characters a one-`String`-per-entity reference decoder produced;
//! - `Tag::matches_modulo_order` (same-order shortcut first) agrees with
//!   an always-sorting compare;
//! - `split_words` finds exactly `str::split_whitespace`'s words.

use aide_htmlkit::entity::{decode_entities, encode_entities};
use aide_htmlkit::lexer::{lex, serialize, Name, Tag, TagKind, Token};
use aide_htmlkit::text::{split_words, word_ends_sentence};
use aide_htmlkit::url::Url;
use proptest::prelude::*;
use std::borrow::Cow;

fn html_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("<".to_string()),
            Just(">".to_string()),
            Just("</".to_string()),
            Just("<P>".to_string()),
            Just("</P>".to_string()),
            Just("<A HREF=\"x\">".to_string()),
            Just("<IMG SRC='y.gif'>".to_string()),
            Just("<!-- c -->".to_string()),
            Just("<!DOCTYPE html>".to_string()),
            Just("text ".to_string()),
            Just("a&amp;b ".to_string()),
            Just("& ".to_string()),
            Just("\"quote'".to_string()),
            Just("=".to_string()),
            Just("<B".to_string()),
            "[ -~]{0,6}".prop_map(|s| s),
        ],
        0..30,
    )
    .prop_map(|v| v.concat())
}

proptest! {
    #[test]
    fn lexer_never_panics(s in html_soup()) {
        let _ = lex(&s);
    }

    #[test]
    fn serialize_lex_is_idempotent(s in html_soup()) {
        let once = serialize(&lex(&s));
        let twice = serialize(&lex(&once));
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn tokens_roundtrip_through_serialization(s in html_soup()) {
        let tokens = lex(&s);
        let once = serialize(&tokens);
        let round = lex(&once);
        let twice = serialize(&round);
        // Token streams are equal after one normalization pass.
        prop_assert_eq!(lex(&twice), round);
    }

    #[test]
    fn plain_text_survives(words in proptest::collection::vec("[a-z]{1,8}", 1..10)) {
        let text = words.join(" ");
        let tokens = lex(&text);
        prop_assert_eq!(tokens.len(), 1);
        match &tokens[0] {
            Token::Text(t) => prop_assert_eq!(t, &text),
            other => prop_assert!(false, "expected text, got {:?}", other),
        }
    }

    #[test]
    fn entity_encode_decode_identity(s in "[ -~]{0,40}") {
        let encoded = encode_entities(&s);
        prop_assert_eq!(decode_entities(&encoded), s);
    }

    #[test]
    fn url_join_yields_wellformed(path in "[a-z0-9./]{0,20}") {
        let base = Url::parse("http://host/dir/sub/page.html").unwrap();
        if let Ok(joined) = base.join(&path) {
            prop_assert!(joined.path.starts_with('/'), "path {:?}", joined.path);
            prop_assert!(!joined.path.contains("/../"), "unnormalized {:?}", joined.path);
            prop_assert!(!joined.path.ends_with("/.."), "unnormalized {:?}", joined.path);
            // Display → parse round-trips.
            let reparsed = Url::parse(&joined.to_string()).unwrap();
            prop_assert_eq!(reparsed, joined);
        }
    }

    #[test]
    fn url_display_parse_roundtrip(
        host in "[a-z]{1,8}(\\.[a-z]{2,3})?",
        path in "(/[a-z0-9]{1,6}){0,4}",
        port in proptest::option::of(1u16..60000),
    ) {
        let mut url = format!("http://{host}");
        if let Some(p) = port {
            url.push_str(&format!(":{p}"));
        }
        url.push_str(if path.is_empty() { "/" } else { &path });
        let parsed = Url::parse(&url).unwrap();
        prop_assert_eq!(Url::parse(&parsed.to_string()).unwrap(), parsed);
    }
}

/// Whether `part` lies inside `whole`'s bytes: a pointer-range check, so
/// an equal copy held elsewhere does not pass.
fn within(whole: &str, part: &str) -> bool {
    let w = whole.as_bytes().as_ptr_range();
    let p = part.as_bytes().as_ptr_range();
    w.start <= p.start && p.end <= w.end
}

proptest! {
    #[test]
    fn text_comments_and_declarations_borrow_from_the_input(s in html_soup()) {
        for token in lex(&s) {
            if let Token::Text(t) | Token::Comment(t) | Token::Declaration(t) = token {
                prop_assert!(within(&s, t), "{:?} was copied out of the input", t);
            }
        }
    }
}

/// The reference for [`Tag::matches_modulo_order`]: always sorts, never
/// takes the same-order shortcut.
fn sorted_match(a: &Tag, b: &Tag) -> bool {
    let (mut x, mut y): (Vec<_>, Vec<_>) = (a.attrs.iter().collect(), b.attrs.iter().collect());
    x.sort();
    y.sort();
    a.name == b.name && a.kind == b.kind && x == y
}

/// `attrs` as a tag's attribute list, borrowing it.
fn borrowed(attrs: &[(String, Option<String>)]) -> Vec<(Name<'_>, Option<Cow<'_, str>>)> {
    attrs
        .iter()
        .map(|(n, v)| (Name(n), v.as_deref().map(Cow::Borrowed)))
        .collect()
}

/// Attribute lists over few names and values, so repeats and ties are
/// common (the lexer keeps a repeated attribute name).
fn attr_list() -> impl Strategy<Value = Vec<(String, Option<String>)>> {
    proptest::collection::vec((0usize..3, 0usize..3), 0..6).prop_map(|v| {
        v.into_iter()
            .map(|(n, val)| {
                let name = ["HREF", "SRC", "ALT"][n].to_string();
                (name, [Some("x"), Some("y"), None][val].map(str::to_string))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]
    #[test]
    fn modulo_order_shortcut_agrees_with_sorted_compare(
        attrs in attr_list(),
        other in attr_list(),
        keys in proptest::collection::vec(0u64..3, 6..7),
        edit in 0usize..5,
        at in 0usize..6,
    ) {
        let a = Tag { name: Name("A"), attrs: borrowed(&attrs), kind: TagKind::Open };
        // `b` is a random permutation of `a`'s attributes (a stable sort
        // on few keys, so often the same order, which takes the
        // shortcut)...
        let mut order: Vec<usize> = (0..a.attrs.len()).collect();
        order.sort_by_key(|&k| keys[k]);
        let mut b = Tag {
            attrs: order.iter().map(|&k| a.attrs[k].clone()).collect(),
            ..a.clone()
        };
        // ...then at most one edit: a changed value or a dropped
        // attribute at any position, a changed kind, or an unrelated
        // attribute list.
        let at = at % b.attrs.len().max(1);
        match edit {
            0 => {}
            1 => {
                if let Some(attr) = b.attrs.get_mut(at) {
                    attr.1 = Some(Cow::Borrowed("z"));
                }
            }
            2 => {
                if at < b.attrs.len() {
                    b.attrs.remove(at);
                }
            }
            3 => b.kind = TagKind::Close,
            _ => b.attrs = borrowed(&other),
        }
        prop_assert_eq!(a.matches_modulo_order(&b), sorted_match(&a, &b));
        prop_assert_eq!(b.matches_modulo_order(&a), sorted_match(&b, &a));
        prop_assert!(a.matches_modulo_order(&a.clone()));
    }
}

/// Text over words and every kind of whitespace `split_whitespace`
/// knows: ASCII (vertical tab and form feed included), or with
/// non-ASCII spaces and letters mixed in when `unicode` is set.
fn spaced_text() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        Just("word"),
        Just("end."),
        Just("Dr."),
        Just(" "),
        Just("\t"),
        Just("\n"),
        Just("\r"),
        Just("\u{0B}"),
        Just("\u{0C}"),
        Just("\u{1F}"),
        Just("\u{A0}"),
        Just("\u{85}"),
        Just("\u{2028}"),
        Just("\u{3000}"),
        Just("caf\u{E9}"),
    ];
    (proptest::collection::vec(piece, 0..40), 0u8..2).prop_map(|(v, unicode)| {
        v.into_iter()
            .filter(|p: &&str| unicode == 1 || p.is_ascii())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]
    #[test]
    fn split_words_equals_split_whitespace(s in spaced_text()) {
        let words: Vec<_> = split_words(&s).collect();
        let expected: Vec<_> = s.split_whitespace().collect();
        prop_assert_eq!(words.iter().map(|w| w.text).collect::<Vec<_>>(), expected);
        for w in words {
            prop_assert_eq!(w.ends_sentence, word_ends_sentence(w.text));
            prop_assert!(within(&s, w.text), "{:?} was copied out of the text", w.text);
        }
    }
}

/// The entity decoder as it was when each entity built a `String`: the
/// reference `decode_entities` must reproduce.
fn reference_decode(text: &str) -> String {
    const NAMED: &[(&str, char)] = &[
        ("amp", '&'),
        ("lt", '<'),
        ("gt", '>'),
        ("quot", '"'),
        ("apos", '\''),
        ("nbsp", '\u{A0}'),
        ("copy", '©'),
        ("reg", '®'),
        ("trade", '™'),
        ("agrave", 'à'),
        ("aacute", 'á'),
        ("eacute", 'é'),
        ("egrave", 'è'),
        ("iacute", 'í'),
        ("oacute", 'ó'),
        ("uacute", 'ú'),
        ("ntilde", 'ñ'),
        ("ouml", 'ö'),
        ("uuml", 'ü'),
        ("auml", 'ä'),
        ("szlig", 'ß'),
        ("ccedil", 'ç'),
        ("Agrave", 'À'),
        ("Eacute", 'É'),
        ("middot", '·'),
        ("para", '¶'),
        ("sect", '§'),
    ];
    fn one(name: &str) -> Option<String> {
        if let Some(rest) = name.strip_prefix('#') {
            let code = match rest.strip_prefix('x').or_else(|| rest.strip_prefix('X')) {
                Some(hex) => u32::from_str_radix(hex, 16).ok()?,
                None => rest.parse::<u32>().ok()?,
            };
            return char::from_u32(code).map(|c| c.to_string());
        }
        NAMED
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, c)| c.to_string())
    }
    let mut out = String::new();
    let mut i = 0;
    while let Some(c) = text[i..].chars().next() {
        if c != '&' {
            out.push(c);
            i += c.len_utf8();
            continue;
        }
        let semi = text[i + 1..]
            .char_indices()
            .take(12)
            .find(|&(_, c)| c == ';')
            .map(|(off, _)| i + 1 + off);
        match semi.and_then(|semi| Some((semi, one(&text[i + 1..semi])?))) {
            Some((semi, decoded)) => {
                out.push_str(&decoded);
                i = semi + 1;
            }
            None => {
                out.push('&');
                i += 1;
            }
        }
    }
    out
}

fn entity_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("&amp;"),
            Just("&lt;"),
            Just("&GT;"),
            Just("&nbsp;"),
            Just("&eacute;"),
            Just("&Eacute;"),
            Just("&sect;"),
            Just("&#65;"),
            Just("&#x42;"),
            Just("&#X263A;"),
            Just("&#1114112;"),
            Just("&#xD800;"),
            Just("&#;"),
            Just("&#x;"),
            Just("&bogus;"),
            Just("&averyveryverylongname;"),
            Just("&copy"),
            Just("&"),
            Just(";"),
            Just("#"),
            Just("x"),
            Just("caf\u{E9}"),
            Just("\u{65E5}"),
            Just(" "),
        ],
        0..24,
    )
    .prop_map(|v| v.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn decode_entities_matches_the_reference(s in entity_soup()) {
        prop_assert_eq!(decode_entities(&s), reference_decode(&s));
    }
}
