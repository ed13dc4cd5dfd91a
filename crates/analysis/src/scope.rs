//! Structural views over a lexed file: line/column mapping, `#[cfg(test)]`
//! regions, and function body spans.
//!
//! Everything here works on the *masked* source (see [`crate::lexer`]),
//! so brace matching and keyword scanning cannot be fooled by braces or
//! keywords inside strings and comments.

use crate::lexer::{is_ident_byte, is_raw_ident_start, lex, Comment};

/// A lexed file plus the structural indexes the lints navigate by.
#[derive(Debug)]
pub struct FileMap {
    /// Path relative to the repository root, with `/` separators.
    pub rel: String,
    /// The masked source (same byte offsets as the original).
    pub masked: String,
    /// All comments, in file order.
    pub comments: Vec<Comment>,
    /// Byte offset of the start of each line (index 0 = line 1).
    pub line_starts: Vec<usize>,
    /// Byte ranges covered by `#[cfg(test)]` items.
    pub test_spans: Vec<(usize, usize)>,
    /// Function bodies, outermost first.
    pub fns: Vec<FnSpan>,
}

/// One `fn` item: its name and the byte range of its `{ … }` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Byte offset of the `fn` keyword (the signature runs from here to
    /// the body's opening brace).
    pub sig_start: usize,
    /// Byte range of the body, including the outer braces.
    pub body: (usize, usize),
}

impl FileMap {
    /// Lexes and indexes `src` under the repo-relative path `rel`.
    pub fn new(rel: &str, src: &str) -> FileMap {
        let lexed = lex(src);
        let masked = lexed.masked;
        let mut line_starts = vec![0usize];
        for (i, b) in masked.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let test_spans = find_attr_spans(&masked, &["#[cfg(test)]", "#[cfg(all(test", "#[test]"]);
        let fns = find_fns(&masked);
        FileMap {
            rel: rel.to_string(),
            masked,
            comments: lexed.comments,
            line_starts,
            test_spans,
            fns,
        }
    }

    /// Maps a byte offset to 1-based (line, column).
    pub fn line_col(&self, off: usize) -> (u32, u32) {
        let line_idx = match self.line_starts.binary_search(&off) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (
            (line_idx + 1) as u32,
            (off - self.line_starts[line_idx] + 1) as u32,
        )
    }

    /// Whether `off` falls inside a `#[cfg(test)]` region.
    pub fn in_test(&self, off: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| off >= a && off < b)
    }

    /// The innermost function body containing `off`, if any.
    pub fn enclosing_fn(&self, off: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| off >= f.body.0 && off < f.body.1)
            .min_by_key(|f| f.body.1 - f.body.0)
    }
}

/// Finds every occurrence of `needle` in `hay` at identifier boundaries.
pub fn ident_occurrences(hay: &str, needle: &str) -> Vec<usize> {
    let hb = hay.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        // `r#match` must not match the needle `match`: a raw-identifier
        // prefix immediately before the match site is a hard boundary.
        let raw_prefixed = at >= 2 && is_raw_ident_start(hb, at - 2);
        let left_ok = (at == 0 || !is_ident_byte(hb[at - 1])) && !raw_prefixed;
        let end = at + needle.len();
        // A path needle ending in `::` (or any non-ident byte) has no
        // right boundary to respect.
        let needs_right = needle.as_bytes().last().is_some_and(|&b| is_ident_byte(b));
        let right_ok = !needs_right || end >= hb.len() || !is_ident_byte(hb[end]);
        if left_ok && right_ok {
            out.push(at);
        }
        from = at + needle.len().max(1);
    }
    out
}

/// Returns the offset just past the `]` closing the attribute whose `#`
/// is at `at`, or `None` if unclosed.
fn attr_end(masked: &str, at: usize) -> Option<usize> {
    let b = masked.as_bytes();
    let mut i = at;
    while i < b.len() && b[i] != b'[' {
        i += 1;
    }
    let mut depth = 0usize;
    while i < b.len() {
        match b[i] {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Returns the offset just past the `}` matching the `{` at `open`, or
/// the end of `masked` if unbalanced.
fn brace_match(masked: &str, open: usize) -> usize {
    let b = masked.as_bytes();
    let mut depth = 0usize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    b.len()
}

/// Locates the spans of items (or statement-level blocks) annotated with
/// any of `markers` (e.g. `#[cfg(test)]`).
fn find_attr_spans(masked: &str, markers: &[&str]) -> Vec<(usize, usize)> {
    let b = masked.as_bytes();
    let mut spans = Vec::new();
    for marker in markers {
        for at in substring_occurrences(masked, marker) {
            // Skip past this attribute and any further ones, then find
            // the item's opening `{` (or terminating `;`).
            let Some(mut i) = attr_end(masked, at) else {
                continue;
            };
            loop {
                while i < b.len() && b[i].is_ascii_whitespace() {
                    i += 1;
                }
                if i < b.len() && b[i] == b'#' {
                    match attr_end(masked, i) {
                        Some(next) => i = next,
                        None => break,
                    }
                } else {
                    break;
                }
            }
            let mut j = i;
            while j < b.len() && b[j] != b'{' && b[j] != b';' {
                j += 1;
            }
            if j < b.len() && b[j] == b'{' {
                spans.push((at, brace_match(masked, j)));
            } else {
                spans.push((at, j.min(b.len())));
            }
        }
    }
    spans.sort_unstable();
    spans
}

/// Plain (non-identifier-boundary) substring occurrence scan.
fn substring_occurrences(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = hay[from..].find(needle) {
        out.push(from + pos);
        from += pos + needle.len().max(1);
    }
    out
}

/// Locates every `fn` item body.
fn find_fns(masked: &str) -> Vec<FnSpan> {
    let b = masked.as_bytes();
    let mut out = Vec::new();
    for at in ident_occurrences(masked, "fn") {
        // Name: next identifier after `fn`.
        let mut i = at + 2;
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        // `fn r#match` names the function `match`, not `r`.
        if is_raw_ident_start(b, i) {
            i += 2;
        }
        let name_start = i;
        while i < b.len() && is_ident_byte(b[i]) {
            i += 1;
        }
        if i == name_start {
            continue; // `fn` in an `Fn()` bound or closure-typed position
        }
        let name = masked[name_start..i].to_string();
        // Body: first `{` before any `;` (a `;` first means a trait or
        // extern declaration with no body).
        let mut j = i;
        let mut body = None;
        while j < b.len() {
            match b[j] {
                b'{' => {
                    body = Some((j, brace_match(masked, j)));
                    break;
                }
                b';' => break,
                _ => j += 1,
            }
        }
        if let Some(body) = body {
            out.push(FnSpan {
                name,
                sig_start: at,
                body,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
pub fn outer(x: u32) -> u32 {
    let s = "fn fake() {";
    x + 1
}

#[cfg(test)]
mod tests {
    fn helper() { panic!("in tests"); }
}
"#;

    #[test]
    fn fn_spans_ignore_strings() {
        let fm = FileMap::new("x.rs", SRC);
        let names: Vec<&str> = fm.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "helper"]);
    }

    #[test]
    fn test_region_covers_mod() {
        let fm = FileMap::new("x.rs", SRC);
        let panic_at = fm.masked.find("panic!").expect("panic! survives masking");
        assert!(fm.in_test(panic_at));
        let outer_at = fm.masked.find("x + 1").expect("code");
        assert!(!fm.in_test(outer_at));
    }

    #[test]
    fn line_col_maps() {
        let fm = FileMap::new("x.rs", "ab\ncde\nf");
        assert_eq!(fm.line_col(0), (1, 1));
        assert_eq!(fm.line_col(3), (2, 1));
        assert_eq!(fm.line_col(5), (2, 3));
        assert_eq!(fm.line_col(7), (3, 1));
    }

    #[test]
    fn ident_boundaries_respected() {
        let occ = ident_occurrences("Instant x InstantLike y my_Instant z Instant", "Instant");
        assert_eq!(occ.len(), 2);
    }

    #[test]
    fn raw_identifiers_do_not_match_keywords() {
        assert!(ident_occurrences("let r#match = 1; r#match + 2", "match").is_empty());
        assert_eq!(
            ident_occurrences("match x { _ => r#match }", "match").len(),
            1
        );
    }

    #[test]
    fn raw_identifier_fn_names() {
        let fm = FileMap::new("x.rs", "fn r#match(x: u32) -> u32 { x }");
        assert_eq!(fm.fns[0].name, "match");
    }

    #[test]
    fn enclosing_fn_picks_innermost() {
        let src = "fn a() { fn b() { inner(); } outer(); }";
        let fm = FileMap::new("x.rs", src);
        let at = src.find("inner").expect("inner");
        assert_eq!(fm.enclosing_fn(at).expect("fn").name, "b");
        let at = src.find("outer").expect("outer");
        assert_eq!(fm.enclosing_fn(at).expect("fn").name, "a");
    }
}
