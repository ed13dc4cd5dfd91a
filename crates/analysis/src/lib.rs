//! `aide-lint`: a zero-third-party-dependency static-analysis pass that
//! machine-checks the workspace's load-bearing source invariants.
//!
//! The byte-identical-output and deterministic-when-on contracts
//! (DESIGN.md §4e–§4g), the virtual-clock rule that nothing outside
//! `crates/util/src/time.rs` and the bench harness may touch wall-clock
//! time, and the rule that durable I/O stays behind the `Vfs` seam are
//! properties of the source text, with no runtime equivalent. This
//! crate walks every `crates/*/src` tree with its own lightweight Rust
//! lexer (raw strings, nested block comments, lifetime vs char-literal
//! disambiguation) and enforces five per-file lint families:
//!
//! | lint           | contract                                                        |
//! |----------------|-----------------------------------------------------------------|
//! | `determinism`  | no `SystemTime`/`Instant`/`thread_rng`/`std::env` off-allowlist |
//! | `hash-iter`    | no unsorted `HashMap`/`HashSet` iteration into rendered output  |
//! | `no-panic`     | no `unwrap`/`expect`/`panic!` in library code                   |
//! | `seqcst`       | stat counters use `Relaxed`, not `SeqCst`                       |
//! | `vfs-boundary` | `std::fs`/`std::io` stay behind the `Vfs` trait                 |
//!
//! Lock discipline is not linted: the debug-build checker in
//! `aide_util::sync::lockrank` enforces it on every acquisition.
//!
//! Deliberate exceptions carry inline `// aide-lint: allow(lint): why`
//! waivers, which the tool parses, applies, counts (`--waivers`), and
//! caps in CI (`--max-waivers`). See LINTS.md for the catalog.

pub mod config;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod scope;
pub mod waivers;

use config::Config;
use lints::Finding;
use report::{Report, UnusedWaiver};
use scope::FileMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lints a set of files, skipping vendored ones, and applies each
/// file's waivers to the findings anchored there.
pub fn lint_sources(sources: &[(String, String)], cfg: &Config) -> Report {
    let mut report = Report::default();
    for (rel, src) in sources.iter().filter(|(rel, _)| !config::is_vendored(rel)) {
        let fm = FileMap::new(rel, src);
        report.files += 1;
        let waivers = waivers::parse(&fm.comments);
        let mut used = vec![false; waivers.len()];
        for f in lints::lint_file(&fm, cfg) {
            let mut hit = false;
            for (k, w) in waivers.iter().enumerate() {
                if w.applies_to == f.line && w.lints.iter().any(|l| l == f.lint) {
                    used[k] = true;
                    hit = true;
                }
            }
            if hit {
                report.waived.push(f);
            } else {
                report.findings.push(f);
            }
        }
        report.unused_waivers.extend(
            waivers
                .iter()
                .zip(used)
                .filter(|(w, used)| {
                    // A waiver for a disabled lint is not "unused" — it
                    // simply did not get a chance to fire this run.
                    !used && w.lints.iter().any(|l| cfg.enabled(l))
                })
                .map(|(w, _)| UnusedWaiver {
                    file: fm.rel.clone(),
                    line: w.line,
                    lints: w.lints.clone(),
                }),
        );
    }
    report
}

/// Lints one file's source text under its repo-relative path, applying
/// waivers. Returns `(active, waived, unused_waivers)`.
pub fn lint_source(
    rel: &str,
    src: &str,
    cfg: &Config,
) -> (Vec<Finding>, Vec<Finding>, Vec<UnusedWaiver>) {
    let report = lint_sources(&[(rel.to_string(), src.to_string())], cfg);
    (report.findings, report.waived, report.unused_waivers)
}

/// Recursively collects `.rs` files under `dir`, sorted for output
/// determinism.
fn rs_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&d)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints every `crates/*/src` tree under `root` (the workspace root).
pub fn lint_workspace(root: &Path, cfg: &Config) -> io::Result<Report> {
    let crates_dir = root.join("crates");
    let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    members.sort();
    let mut sources = Vec::new();
    for member in members {
        let src = member.join("src");
        if !src.is_dir() {
            continue;
        }
        for file in rs_files(&src)? {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            sources.push((rel, fs::read_to_string(&file)?));
        }
    }
    Ok(lint_sources(&sources, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_suppresses_and_counts() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // aide-lint: allow(no-panic): test scaffold\n}\n";
        let (active, waived, unused) = lint_source("crates/x/src/lib.rs", src, &Config::default());
        assert!(active.is_empty(), "{active:?}");
        assert_eq!(waived.len(), 1);
        assert!(unused.is_empty());
    }

    #[test]
    fn unused_waiver_reported() {
        let src = "// aide-lint: allow(no-panic): nothing here\npub fn f() {}\n";
        let (active, _, unused) = lint_source("crates/x/src/lib.rs", src, &Config::default());
        assert!(active.is_empty());
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].line, 1);
    }

    #[test]
    fn vendored_files_are_skipped() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let (active, waived, _) =
            lint_source("crates/criterion/src/lib.rs", src, &Config::default());
        assert!(active.is_empty());
        assert!(waived.is_empty());
    }
}
