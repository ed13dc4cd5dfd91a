//! OBSERVABILITY.md catalog ⇄ code consistency.
//!
//! The metric catalog is operator documentation, and documentation
//! drifts: a renamed counter leaves a stale table row, a new counter
//! ships undocumented. This suite greps both directions:
//!
//! - every name in the catalog tables (after `{a,b,c}` expansion) must
//!   still exist in some `crates/*/src` source as a full string
//!   literal;
//! - every metric name declared through the `aide_obs` handle APIs —
//!   the `counter!`/`gauge!`/`observe!` macros, `static` handle
//!   declarations, `CounterCell` constructors and `stat_cells!` fields —
//!   must appear in the catalog.
//!
//! Names are compared as plain strings, so this needs no registry at
//! runtime and cannot be fooled by code that never executes in tests.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `crates/*/src`, with contents.
fn rs_sources() -> Vec<(PathBuf, String)> {
    fn walk(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
        let entries = match fs::read_dir(dir) {
            Ok(e) => e,
            Err(_) => return,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(text) = fs::read_to_string(&path) {
                    out.push((path, text));
                }
            }
        }
    }
    let mut out = Vec::new();
    let crates = repo_root().join("crates");
    for entry in fs::read_dir(&crates).expect("crates/ must exist").flatten() {
        walk(&entry.path().join("src"), &mut out);
    }
    assert!(
        out.len() > 50,
        "source walk looks broken: {} files",
        out.len()
    );
    out
}

/// Expands one level of `{a,b,c}` alternation (recursively, so nested
/// or repeated groups would also work).
fn expand(name: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (name.find('{'), name.find('}')) else {
        return vec![name.to_string()];
    };
    let (prefix, suffix) = (&name[..open], &name[close + 1..]);
    name[open + 1..close]
        .split(',')
        .flat_map(|alt| expand(&format!("{prefix}{alt}{suffix}")))
        .collect()
}

fn is_name_char(ch: char) -> bool {
    ch.is_ascii_lowercase() || ch.is_ascii_digit() || matches!(ch, '.' | '_' | '{' | '}' | ',')
}

/// Metric names from OBSERVABILITY.md's catalog tables: the backticked
/// spans of each row's first column, brace-expanded.
fn doc_catalog() -> BTreeSet<String> {
    let md = fs::read_to_string(repo_root().join("OBSERVABILITY.md"))
        .expect("OBSERVABILITY.md must exist");
    let mut names = BTreeSet::new();
    for line in md.lines() {
        let line = line.trim();
        // Catalog rows look like `| `name` | unit | source |`.
        let Some(rest) = line.strip_prefix("| `") else {
            continue;
        };
        let Some(first_cell) = rest.split('|').next() else {
            continue;
        };
        // The cell may hold several names (`a` / `b`); take every
        // backtick span. The stripped leading tick is restored so the
        // odd split positions are exactly the quoted spans.
        for span in format!("`{first_cell}").split('`').skip(1).step_by(2) {
            if span.contains('.') && !span.is_empty() && span.chars().all(is_name_char) {
                for n in expand(span) {
                    names.insert(n);
                }
            }
        }
    }
    assert!(
        names.len() > 80,
        "catalog parse looks broken: only {} names",
        names.len()
    );
    names
}

/// The metric namespaces the catalog documents. Literals outside these
/// (test fixtures, examples with toy names) are ignored.
const NAMESPACES: &[&str] = &[
    "simweb.",
    "w3newer.",
    "snapshot.",
    "htmldiff.",
    "diff.",
    "rcs.",
    "store.",
    "serve.",
    "sched.",
];

fn in_namespace(name: &str) -> bool {
    NAMESPACES.iter().any(|p| name.starts_with(p))
}

#[test]
fn every_documented_metric_exists_in_code() {
    let sources = rs_sources();
    // Every handle is declared with its full name as a literal.
    let found = |name: &str| {
        let quoted = format!("\"{name}\"");
        sources.iter().any(|(_, text)| text.contains(&quoted))
    };
    let stale: Vec<String> = doc_catalog().into_iter().filter(|n| !found(n)).collect();
    assert!(
        stale.is_empty(),
        "OBSERVABILITY.md documents metrics no source file mentions \
         (renamed or removed?): {stale:?}"
    );
}

/// What precedes a metric name in a handle declaration: the call-site
/// macros, the handle and cell constructors, and a `stat_cells!` field
/// (`requests: "serve.requests",`).
const DECLARATIONS: &[&str] = &[
    ":",
    "counter!(",
    "gauge!(",
    "observe!(",
    "Counter::new(",
    "Gauge::new(",
    "Histogram::new(",
    "Histogram::with_bounds(",
    "CounterCell::new(",
];

/// Metric names in `text` declared through [`DECLARATIONS`] that lie in
/// a documented namespace but are missing from `catalog`.
fn undocumented_in(text: &str, catalog: &BTreeSet<String>) -> Vec<String> {
    let mut out = Vec::new();
    for call in DECLARATIONS {
        for (at, _) in text.match_indices(call) {
            // rustfmt may break the arguments onto the next line.
            let Some(lit) = text[at + call.len()..].trim_start().strip_prefix('"') else {
                continue;
            };
            let Some(end) = lit.find('"') else { continue };
            let name = &lit[..end];
            if name.contains('.')
                && name.chars().all(is_name_char)
                && in_namespace(name)
                && !catalog.contains(name)
            {
                out.push(name.to_string());
            }
        }
    }
    out
}

#[test]
fn every_emitted_metric_literal_is_documented() {
    let catalog = doc_catalog();
    let mut undocumented = Vec::new();
    for (path, text) in rs_sources() {
        // The obs crate's own sources use placeholder names in API
        // docs and tests; every real site lives in the other crates.
        if path.components().any(|c| c.as_os_str() == "obs") {
            continue;
        }
        for name in undocumented_in(&text, &catalog) {
            undocumented.push(format!("{name} ({})", path.display()));
        }
    }
    undocumented.sort();
    undocumented.dedup();
    assert!(
        undocumented.is_empty(),
        "metric names recorded in code but missing from the \
         OBSERVABILITY.md catalog: {undocumented:?}"
    );
}

#[test]
fn an_undocumented_handle_is_reported() {
    let catalog = doc_catalog();
    let source = r#"
        static REQUESTS: aide_obs::Counter = aide_obs::Counter::new("serve.requests");
        static BOGUS: aide_obs::Counter = aide_obs::Counter::new("serve.not_in_the_catalog");
        aide_obs::stat_cells! {
            struct Cells => Plain {
                requests: "serve.requests",
                bogus: "serve.cell_missing",
            }
        }
        fn f() {
            aide_obs::counter!(
                "serve.also_missing",
                1
            );
        }
    "#;
    assert_eq!(
        undocumented_in(source, &catalog),
        [
            "serve.cell_missing",
            "serve.also_missing",
            "serve.not_in_the_catalog"
        ]
    );
}
