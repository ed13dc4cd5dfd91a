//! Fixture-driven lint tests: one positive and one negative fixture per
//! lint family. Each positive test asserts the family actually fires
//! (so deleting or breaking a lint fails the suite), each negative test
//! asserts the family stays quiet on the idiomatic counterpart, and a
//! cross-check asserts positives fall silent when their lint is the one
//! disabled — proving the finding comes from the lint under test, not a
//! neighbor.

use aide_analysis::config::Config;
use aide_analysis::lint_source;

/// Fixture sources are linted as if they lived in a normal library
/// crate: not vendored, not the clock allowlist, panic-checked.
const REL: &str = "crates/fixture/src/lib.rs";

/// Lint names that fire on `src` under the default config.
fn fired(src: &str) -> Vec<&'static str> {
    let (active, _, _) = lint_source(REL, src, &Config::default());
    let mut lints: Vec<&'static str> = active.iter().map(|f| f.lint).collect();
    lints.sort_unstable();
    lints.dedup();
    lints
}

/// Findings on `src` with lint `except` disabled.
fn fired_without(src: &str, except: &str) -> Vec<&'static str> {
    let mut cfg = Config::default();
    cfg.lints.retain(|l| *l != except);
    let (active, _, _) = lint_source(REL, src, &cfg);
    active.iter().map(|f| f.lint).collect()
}

/// Asserts `pos` trips exactly `lint` (and nothing else), that
/// disabling `lint` silences it, and that `neg` is fully clean.
fn check_family(lint: &str, pos: &str, neg: &str) {
    let on = fired(pos);
    assert_eq!(on, [lint], "positive fixture for {lint} misfired");
    assert!(
        fired_without(pos, lint).is_empty(),
        "{lint} positive fixture trips some other lint"
    );
    let (active, waived, _) = lint_source(REL, neg, &Config::default());
    assert!(
        active.is_empty() && waived.is_empty(),
        "negative fixture for {lint} is not clean: {active:?}"
    );
}

#[test]
fn determinism_family() {
    check_family(
        "determinism",
        include_str!("fixtures/determinism_pos.rs"),
        include_str!("fixtures/determinism_neg.rs"),
    );
}

#[test]
fn hash_iter_family() {
    check_family(
        "hash-iter",
        include_str!("fixtures/hash_iter_pos.rs"),
        include_str!("fixtures/hash_iter_neg.rs"),
    );
}

#[test]
fn no_panic_family() {
    check_family(
        "no-panic",
        include_str!("fixtures/no_panic_pos.rs"),
        include_str!("fixtures/no_panic_neg.rs"),
    );
}

#[test]
fn no_panic_counts_each_site() {
    let (active, _, _) = lint_source(
        REL,
        include_str!("fixtures/no_panic_pos.rs"),
        &Config::default(),
    );
    assert_eq!(active.len(), 3, "unwrap, expect, and panic! each count");
}

#[test]
fn seqcst_family() {
    check_family(
        "seqcst",
        include_str!("fixtures/seqcst_pos.rs"),
        include_str!("fixtures/seqcst_neg.rs"),
    );
}

#[test]
fn vfs_boundary_family() {
    check_family(
        "vfs-boundary",
        include_str!("fixtures/vfs_boundary_pos.rs"),
        include_str!("fixtures/vfs_boundary_neg.rs"),
    );
}

#[test]
fn vfs_boundary_exempts_the_real_vfs_module() {
    let (active, _, _) = lint_source(
        "crates/store/src/vfs.rs",
        include_str!("fixtures/vfs_boundary_pos.rs"),
        &Config::default(),
    );
    assert!(
        active.is_empty(),
        "RealVfs's module is the sanctioned home for std::fs: {active:?}"
    );
}

#[test]
fn waiver_silences_fixture() {
    let src = include_str!("fixtures/seqcst_pos.rs").replace(
        "HITS.fetch_add(1, Ordering::SeqCst);",
        "// aide-lint: allow(seqcst): fixture\n    HITS.fetch_add(1, Ordering::SeqCst);",
    );
    let (active, waived, _) = lint_source(REL, &src, &Config::default());
    assert!(active.is_empty());
    assert_eq!(waived.len(), 1);
}
