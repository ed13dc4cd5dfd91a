//! The five lint passes. Each works purely on the masked source (see
//! [`crate::lexer`]) plus the structural indexes in [`crate::scope`].
//!
//! These are *lexical* checks: they trade type-level precision for zero
//! dependencies and total workspace coverage, and rely on the waiver
//! mechanism (see [`crate::waivers`]) for the handful of sites where the
//! heuristic is wrong or the violation is deliberate. LINTS.md documents
//! each rule, its rationale, and its known blind spots.

use crate::config::{panic_checked, vfs_boundary_checked, wallclock_allowed, Config};
use crate::scope::{ident_occurrences, FileMap};

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Lint family name.
    pub lint: &'static str,
    /// What was found.
    pub message: String,
    /// One-line fix suggestion.
    pub hint: &'static str,
}

/// Runs every enabled lint over one file. Findings are returned in file
/// order; waivers are applied by the caller.
pub fn lint_file(fm: &FileMap, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    if cfg.enabled("determinism") {
        determinism(fm, &mut out);
    }
    if cfg.enabled("hash-iter") {
        hash_iter(fm, &mut out);
    }
    if cfg.enabled("no-panic") {
        no_panic(fm, &mut out);
    }
    if cfg.enabled("seqcst") {
        seqcst(fm, &mut out);
    }
    if cfg.enabled("vfs-boundary") {
        vfs_boundary(fm, &mut out);
    }
    out.sort_by_key(|f| (f.line, f.col));
    out
}

fn push(
    fm: &FileMap,
    out: &mut Vec<Finding>,
    off: usize,
    lint: &'static str,
    message: String,
    hint: &'static str,
) {
    let (line, col) = fm.line_col(off);
    out.push(Finding {
        file: fm.rel.clone(),
        line,
        col,
        lint,
        message,
        hint,
    });
}

// ---------------------------------------------------------------- lint 1

/// Identifiers whose presence means code is reading ambient time,
/// randomness, or environment — the things that break the virtual-clock
/// determinism contract (DESIGN.md §4e–§4g).
const AMBIENT: &[&str] = &[
    "SystemTime",
    "Instant",
    "std::time",
    "thread_rng",
    "from_entropy",
    "rand::random",
    "getrandom",
    "std::env",
];

fn determinism(fm: &FileMap, out: &mut Vec<Finding>) {
    if wallclock_allowed(&fm.rel) {
        return;
    }
    for needle in AMBIENT {
        for off in ident_occurrences(&fm.masked, needle) {
            if fm.in_test(off) {
                continue;
            }
            push(
                fm,
                out,
                off,
                "determinism",
                format!("ambient time/randomness/environment source `{needle}`"),
                "route time through aide_util::time::Clock and randomness through aide_util::Rng; \
                 only crates/util/src/time.rs and the bench harness may touch the real world",
            );
        }
    }
}

// ---------------------------------------------------------------- lint 2

/// Iterator-draw method calls whose order is arbitrary on a hash
/// container.
const HASH_DRAWS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
];

/// Tokens that mean a function renders or serializes output.
const SINKS: &[&str] = &[
    "format!",
    "write!",
    "writeln!",
    "push_str",
    "print!",
    "println!",
    "serialize",
    "to_json",
];

/// Order-insensitive consumers: iteration feeding one of these within
/// the suppression window is fine regardless of hash order.
const ORDER_FREE: &[&str] = &[
    ".sort",
    ".sum(",
    ".count(",
    ".fold(",
    ".all(",
    ".any(",
    ".max",
    ".min",
    ".product(",
    "BTreeMap",
    "BTreeSet",
    ".len(",
];

/// How far past an iteration draw to look for a sort or an
/// order-insensitive reduction (covers the `let mut v: Vec<_> = …;
/// v.sort();` idiom).
const SUPPRESS_WINDOW: usize = 400;

fn hash_iter(fm: &FileMap, out: &mut Vec<Finding>) {
    let names = hash_container_names(fm);
    if names.is_empty() {
        return;
    }
    let masked = &fm.masked;
    let mut flagged_lines: Vec<u32> = Vec::new();
    let mut candidates: Vec<(usize, String)> = Vec::new();
    for draw in HASH_DRAWS {
        let mut from = 0usize;
        while let Some(pos) = masked[from..].find(draw) {
            let at = from + pos;
            from = at + draw.len();
            let chain = receiver_chain(masked, at);
            if let Some(name) = chain.iter().find(|c| names.contains(c)) {
                candidates.push((at, name.clone()));
            }
        }
    }
    // `for pat in expr {` draws.
    for at in ident_occurrences(masked, "for") {
        let Some(rest) = masked.get(at..(at + 200).min(masked.len())) else {
            continue;
        };
        let Some(in_rel) = rest.find(" in ") else {
            continue;
        };
        let Some(brace_rel) = rest.find('{') else {
            continue;
        };
        if brace_rel <= in_rel {
            continue;
        }
        let expr = &rest[in_rel + 4..brace_rel];
        for name in &names {
            if ident_occurrences(expr, name).is_empty() {
                continue;
            }
            candidates.push((at, name.clone()));
        }
    }
    candidates.sort();
    candidates.dedup();
    for (at, name) in candidates {
        if fm.in_test(at) {
            continue;
        }
        let Some(f) = fm.enclosing_fn(at) else {
            continue;
        };
        let body = &masked[f.body.0..f.body.1];
        if !SINKS.iter().any(|s| body.contains(s)) {
            continue;
        }
        let window_end = (at + SUPPRESS_WINDOW).min(f.body.1);
        let window = &masked[at..window_end];
        if ORDER_FREE.iter().any(|s| window.contains(s)) {
            continue;
        }
        let (line, _) = fm.line_col(at);
        if flagged_lines.contains(&line) {
            continue;
        }
        flagged_lines.push(line);
        push(
            fm,
            out,
            at,
            "hash-iter",
            format!("iteration over hash container `{name}` in a function that formats/serializes output"),
            "sort before rendering (collect + sort, or a BTreeMap) so output is byte-stable, \
             as aide-obs's sorted-at-export renderers do",
        );
    }
}

/// Collects identifiers in this file that are (or produce) `HashMap` /
/// `HashSet` values: `let` bindings, typed fields/params, and functions
/// whose return type mentions a hash container.
fn hash_container_names(fm: &FileMap) -> Vec<String> {
    let masked = &fm.masked;
    let b = masked.as_bytes();
    let mut names = Vec::new();
    for ty in ["HashMap", "HashSet"] {
        for at in ident_occurrences(masked, ty) {
            // Walk back to the start of the declaration segment.
            let mut i = at;
            let mut segment_start = 0usize;
            while i > 0 {
                let c = b[i - 1];
                if c == b';' || c == b'{' || c == b'}' || c == b'(' || c == b',' {
                    segment_start = i;
                    break;
                }
                i -= 1;
            }
            let seg = &masked[segment_start..at];
            if let Some(name) = declared_name(seg) {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
    }
    // Functions returning hash containers: `fn shard(…) -> &RwLock<HashMap<…>>`.
    for f in &fm.fns {
        let sig = &masked[f.sig_start..f.body.0];
        if let Some(arrow) = sig.find("->") {
            let ret = &sig[arrow..];
            if (ret.contains("HashMap") || ret.contains("HashSet")) && !names.contains(&f.name) {
                names.push(f.name.clone());
            }
        }
    }
    names
}

/// Extracts the declared identifier from a declaration segment ending
/// just before a `HashMap`/`HashSet` token: `name: …`, `let [mut] name
/// [: …] = …`, or `name = …`.
fn declared_name(seg: &str) -> Option<String> {
    // `let mut name = HashMap::new()` / `let name: HashMap<…> = …`
    let trimmed = seg.trim_start();
    if let Some(rest) = trimmed.strip_prefix("let ") {
        let rest = rest.trim_start();
        let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        return if name.is_empty() || name == "_" {
            None
        } else {
            Some(name)
        };
    }
    // `name: Type<HashMap<…>>` (field or parameter). Find the first
    // single `:` that is not part of `::`.
    let bytes = seg.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b':' {
            if bytes.get(i + 1) == Some(&b':') || (i > 0 && bytes[i - 1] == b':') {
                i += 1;
                continue;
            }
            // A `)` after the colon means the colon types a parameter and
            // the hash container sits in a return type; the
            // function-return rule in the caller handles that case.
            if seg[i..].contains(')') {
                return None;
            }
            let before = seg[..i].trim_end();
            let name: String = before
                .chars()
                .rev()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect::<String>()
                .chars()
                .rev()
                .collect();
            return if name.is_empty() { None } else { Some(name) };
        }
        i += 1;
    }
    None
}

/// Walks the method-call chain leftward from the `.` at `dot_at`,
/// collecting the base identifiers (`self.diff_cache.shard(url).lock()`
/// → `["lock", "shard", "diff_cache", "self"]`-ish, minus `self`).
fn receiver_chain(masked: &str, dot_at: usize) -> Vec<String> {
    let b = masked.as_bytes();
    let mut idents = Vec::new();
    let mut i = dot_at;
    loop {
        // Skip whitespace backwards.
        while i > 0 && b[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        if i == 0 {
            break;
        }
        match b[i - 1] {
            b')' | b']' => {
                // Skip a balanced group backwards.
                let close = b[i - 1];
                let open = if close == b')' { b'(' } else { b'[' };
                let mut depth = 0usize;
                while i > 0 {
                    let c = b[i - 1];
                    if c == close {
                        depth += 1;
                    } else if c == open {
                        depth -= 1;
                        if depth == 0 {
                            i -= 1;
                            break;
                        }
                    }
                    i -= 1;
                }
            }
            c if crate::lexer::is_ident_byte(c) => {
                let end = i;
                while i > 0 && crate::lexer::is_ident_byte(b[i - 1]) {
                    i -= 1;
                }
                idents.push(masked[i..end].to_string());
            }
            b'.' => {
                i -= 1;
            }
            b':' if i > 1 && b[i - 2] == b':' => {
                i -= 2;
            }
            _ => break,
        }
    }
    idents
}

// ---------------------------------------------------------------- lint 3

fn no_panic(fm: &FileMap, out: &mut Vec<Finding>) {
    if !panic_checked(&fm.rel) {
        return;
    }
    let masked = &fm.masked;
    // `.unwrap()` — never matches `unwrap_or*` because of the closing paren.
    let mut from = 0usize;
    while let Some(pos) = masked[from..].find(".unwrap()") {
        let at = from + pos;
        from = at + ".unwrap()".len();
        if fm.in_test(at) {
            continue;
        }
        push(
            fm,
            out,
            at,
            "no-panic",
            "`.unwrap()` in library code".to_string(),
            "propagate a typed error (`?` / ok_or_else) or justify with `// aide-lint: allow(no-panic): why`",
        );
    }
    // `.expect("…")` — only when the first argument is a string literal,
    // so parser methods like `Cursor::expect(char)` don't trip it.
    let mut from = 0usize;
    while let Some(pos) = masked[from..].find(".expect(") {
        let at = from + pos;
        from = at + ".expect(".len();
        if fm.in_test(at) {
            continue;
        }
        let after = masked[at + ".expect(".len()..].trim_start();
        if !after.starts_with('"') {
            continue;
        }
        push(
            fm,
            out,
            at,
            "no-panic",
            "`.expect(\"…\")` in library code".to_string(),
            "propagate a typed error (`?` / ok_or_else) or justify with `// aide-lint: allow(no-panic): why`",
        );
    }
    for mac in ["panic!", "unreachable!", "todo!", "unimplemented!"] {
        for at in ident_occurrences(masked, mac) {
            if fm.in_test(at) {
                continue;
            }
            push(
                fm,
                out,
                at,
                "no-panic",
                format!("`{mac}` in library code"),
                "return a typed error, or justify with `// aide-lint: allow(no-panic): why`",
            );
        }
    }
}

// ---------------------------------------------------------------- lint 4

fn seqcst(fm: &FileMap, out: &mut Vec<Finding>) {
    for at in ident_occurrences(&fm.masked, "SeqCst") {
        if fm.in_test(at) {
            continue;
        }
        push(
            fm,
            out,
            at,
            "seqcst",
            "`Ordering::SeqCst` outside tests".to_string(),
            "plain stat counters use Relaxed (repo convention); if the stronger ordering is \
             load-bearing, say why in an `// aide-lint: allow(seqcst): why` waiver",
        );
    }
}

// ---------------------------------------------------------------- lint 5

/// Direct-I/O paths that bypass the `Vfs` trait. Everything the storage
/// engine persists must flow through a `Vfs` so the fault-injecting
/// implementation can interpose (torn writes, lying fsync, kill points);
/// a stray `std::fs` call is invisible to the crash-recovery suite.
const DIRECT_IO: &[&str] = &["std::fs", "std::io"];

fn vfs_boundary(fm: &FileMap, out: &mut Vec<Finding>) {
    if !vfs_boundary_checked(&fm.rel) {
        return;
    }
    for needle in DIRECT_IO {
        for off in ident_occurrences(&fm.masked, needle) {
            if fm.in_test(off) {
                continue;
            }
            push(
                fm,
                out,
                off,
                "vfs-boundary",
                format!("`{needle}` outside the VFS boundary"),
                "route file I/O through aide_util::vfs::Vfs so fault injection and crash tests \
                 can interpose; only crates/store/src/vfs.rs (RealVfs) touches the real filesystem",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let fm = FileMap::new("crates/x/src/lib.rs", src);
        lint_file(&fm, &Config::default())
    }

    #[test]
    fn clean_file_is_clean() {
        let f = run("pub fn add(a: u32, b: u32) -> u32 { a + b }\n");
        assert!(f.is_empty(), "unexpected findings: {f:?}");
    }

    #[test]
    fn receiver_chain_walks_calls_and_fields() {
        let c = receiver_chain("x = self.cache.shard(url).lock()", 25);
        assert!(c.contains(&"shard".to_string()));
        assert!(c.contains(&"cache".to_string()));
        assert!(c.contains(&"self".to_string()));
    }

    #[test]
    fn declared_name_forms() {
        assert_eq!(declared_name("let mut seen = "), Some("seen".to_string()));
        assert_eq!(declared_name("    entries: "), Some("entries".to_string()));
        assert_eq!(
            declared_name(" pages: Vec<RwLock<"),
            Some("pages".to_string())
        );
        assert_eq!(declared_name("Foo::<"), None);
    }
}
