//! Lint catalog and the workspace policy: which crates are vendored,
//! which paths may touch wall-clock time, and which files the
//! panic-freedom lint covers.

/// Metadata for one lint family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintInfo {
    /// Lint name, as used in diagnostics and waiver comments.
    pub name: &'static str,
    /// One-line description of the contract the lint enforces.
    pub description: &'static str,
}

/// The five lint families, in reporting order. See LINTS.md for the full
/// catalog with rationale and waiver guidance.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        name: "determinism",
        description: "wall-clock time, ambient randomness and std::env are banned outside the virtual-clock allowlist",
    },
    LintInfo {
        name: "hash-iter",
        description: "HashMap/HashSet iteration must not flow into formatting or serialization unsorted",
    },
    LintInfo {
        name: "no-panic",
        description: "library code must not unwrap/expect/panic; return typed errors or carry a waiver",
    },
    LintInfo {
        name: "seqcst",
        description: "stat counters use Relaxed ordering; SeqCst needs a justifying waiver",
    },
    LintInfo {
        name: "vfs-boundary",
        description: "std::fs/std::io stay behind the Vfs trait; only crates/store/src/vfs.rs touches the real filesystem",
    },
];

/// Which lints to run (all by default).
#[derive(Debug, Clone)]
pub struct Config {
    /// Enabled lint names.
    pub lints: Vec<&'static str>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            lints: LINTS.iter().map(|l| l.name).collect(),
        }
    }
}

impl Config {
    /// Whether `name` is enabled.
    pub fn enabled(&self, name: &str) -> bool {
        self.lints.contains(&name)
    }
}

/// Vendored third-party shims: skipped by every lint.
pub fn is_vendored(rel: &str) -> bool {
    rel.starts_with("crates/criterion/") || rel.starts_with("crates/proptest/")
}

/// Paths allowed to read wall-clock time, ambient randomness, or the
/// process environment: the virtual-clock home itself and the bench
/// harness (which measures real elapsed time by design).
pub fn wallclock_allowed(rel: &str) -> bool {
    rel == "crates/util/src/time.rs" || rel.starts_with("crates/bench/") || is_vendored(rel)
}

/// Whether the panic-freedom lint covers `rel`. Binary targets (CLI
/// entry points, bench drivers) may abort on bad input; library code
/// must not.
pub fn panic_checked(rel: &str) -> bool {
    if is_vendored(rel) || rel.starts_with("crates/bench/") || rel.starts_with("crates/cli/") {
        return false;
    }
    !rel.contains("/src/bin/") && !rel.ends_with("/src/main.rs")
}

/// Whether the VFS-boundary lint covers `rel`. Library code must route
/// file I/O through `aide_util::vfs::Vfs` so the fault-injection and
/// crash-recovery suites can interpose; the exemptions are the one
/// sanctioned implementation (`RealVfs`), binary targets (CLI tools and
/// bench drivers talk to the user's files by design), and the lint tool
/// itself (which exists to read source files).
pub fn vfs_boundary_checked(rel: &str) -> bool {
    if is_vendored(rel)
        || rel.starts_with("crates/bench/")
        || rel.starts_with("crates/cli/")
        || rel.starts_with("crates/analysis/")
    {
        return false;
    }
    if rel == "crates/store/src/vfs.rs" {
        return false;
    }
    !rel.contains("/src/bin/") && !rel.ends_with("/src/main.rs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vfs_boundary_policy() {
        assert!(vfs_boundary_checked("crates/rcs/src/repo.rs"));
        assert!(vfs_boundary_checked("crates/store/src/repo.rs"));
        assert!(!vfs_boundary_checked("crates/store/src/vfs.rs"));
        assert!(!vfs_boundary_checked("crates/cli/src/bin/htmldiff.rs"));
        assert!(!vfs_boundary_checked("crates/analysis/src/lib.rs"));
        assert!(!vfs_boundary_checked("crates/criterion/src/lib.rs"));
    }

    #[test]
    fn policy_classification() {
        assert!(is_vendored("crates/criterion/src/lib.rs"));
        assert!(wallclock_allowed("crates/util/src/time.rs"));
        assert!(wallclock_allowed("crates/bench/src/bin/figure1_report.rs"));
        assert!(!wallclock_allowed("crates/util/src/sync.rs"));
        assert!(panic_checked("crates/rcs/src/format.rs"));
        assert!(!panic_checked("crates/cli/src/bin/htmldiff.rs"));
        assert!(!panic_checked("crates/analysis/src/main.rs"));
        assert!(!panic_checked("crates/w3newer/src/bin/w3newer.rs"));
    }

    #[test]
    fn default_config_enables_all() {
        let c = Config::default();
        for l in LINTS {
            assert!(c.enabled(l.name));
        }
        assert!(!c.enabled("nonesuch"));
    }
}
