//! Property-based tests for the HTML substrate.
//!
//! Invariants:
//! - the lexer never panics on arbitrary input, and serialize∘lex is
//!   idempotent (a fixpoint after one round);
//! - text content survives lexing;
//! - URL join results are well-formed (absolute path, no dot segments)
//!   and display→parse round-trips;
//! - entity decode of encode is the identity;
//! - `Tag::matches_modulo_order` (same-order shortcut first) agrees with
//!   an always-sorting compare.

use aide_htmlkit::entity::{decode_entities, encode_entities};
use aide_htmlkit::lexer::{lex, serialize, Tag, TagKind, Token};
use aide_htmlkit::url::Url;
use proptest::prelude::*;

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
        prop_assert_eq!(decode_entities(&encode_entities(&s)), s);
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
    let sorted = |t: &Tag| {
        let mut attrs = t.attrs.clone();
        attrs.sort();
        attrs
    };
    a.name == b.name && a.kind == b.kind && sorted(a) == sorted(b)
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
        let a = Tag { name: "A".to_string(), attrs, kind: TagKind::Open };
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
                    attr.1 = Some("z".to_string());
                }
            }
            2 => {
                if at < b.attrs.len() {
                    b.attrs.remove(at);
                }
            }
            3 => b.kind = TagKind::Close,
            _ => b.attrs = other,
        }
        prop_assert_eq!(a.matches_modulo_order(&b), sorted_match(&a, &b));
        prop_assert_eq!(b.matches_modulo_order(&a), sorted_match(&b, &a));
        prop_assert!(a.matches_modulo_order(&a.clone()));
    }
}
