//! Diagnostic aggregation and rendering (human text and `--json`).

use crate::lints::Finding;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A waiver that suppressed nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnusedWaiver {
    /// File the waiver comment is in.
    pub file: String,
    /// Line of the waiver comment.
    pub line: u32,
    /// Lint names it names.
    pub lints: Vec<String>,
}

/// The outcome of linting a tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations not covered by any waiver.
    pub findings: Vec<Finding>,
    /// Violations suppressed by waivers (counted, for the CI cap).
    pub waived: Vec<Finding>,
    /// Waivers that matched no finding.
    pub unused_waivers: Vec<UnusedWaiver>,
    /// Number of files scanned.
    pub files: usize,
}

impl Report {
    /// Waived-violation counts per lint, sorted by lint name.
    pub fn waived_by_lint(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for f in &self.waived {
            *out.entry(f.lint).or_insert(0) += 1;
        }
        out
    }

    /// Active-violation counts per lint, sorted by lint name.
    pub fn findings_by_lint(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for f in &self.findings {
            *out.entry(f.lint).or_insert(0) += 1;
        }
        out
    }

    /// Human-readable rendering of the active findings plus a summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{}:{}: [{}] {}",
                f.file, f.line, f.col, f.lint, f.message
            );
            let _ = writeln!(out, "    hint: {}", f.hint);
        }
        let _ = writeln!(
            out,
            "aide-lint: {} files, {} violations, {} waived",
            self.files,
            self.findings.len(),
            self.waived.len()
        );
        if !self.findings.is_empty() {
            for (lint, n) in self.findings_by_lint() {
                let _ = writeln!(out, "    {lint}: {n}");
            }
        }
        out
    }

    /// The `--waivers` accounting view.
    pub fn render_waivers(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "aide-lint waivers: {} total", self.waived.len());
        for (lint, n) in self.waived_by_lint() {
            let _ = writeln!(out, "    {lint}: {n}");
        }
        for w in &self.unused_waivers {
            let _ = writeln!(
                out,
                "unused waiver at {}:{} ({})",
                w.file,
                w.line,
                w.lints.join(", ")
            );
        }
        out
    }

    /// Machine-readable rendering. Key order and finding order are
    /// deterministic, so the artifact is byte-stable run to run.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"file\": {}, \"line\": {}, \"col\": {}, \"lint\": {}, \"message\": {}, \"hint\": {}}}",
                json_str(&f.file),
                f.line,
                f.col,
                json_str(f.lint),
                json_str(&f.message),
                json_str(f.hint)
            );
        }
        out.push_str("\n  ],\n  \"waived\": {");
        for (i, (lint, n)) in self.waived_by_lint().into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {}", json_str(lint), n);
        }
        let _ = write!(
            out,
            "}},\n  \"summary\": {{\"files\": {}, \"violations\": {}, \"waived\": {}, \"unused_waivers\": {}}}\n}}\n",
            self.files,
            self.findings.len(),
            self.waived.len(),
            self.unused_waivers.len()
        );
        out
    }

    /// SARIF 2.1.0 rendering of the active findings, for code-scanning
    /// upload. Deterministic key and result order, like `render_json`.
    pub fn render_sarif(&self) -> String {
        let mut out = String::from(
            "{\n  \"version\": \"2.1.0\",\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"runs\": [{\n    \"tool\": {\"driver\": {\"name\": \"aide-lint\", \"rules\": [",
        );
        for (i, l) in crate::config::LINTS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n      {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}",
                json_str(l.name),
                json_str(l.description)
            );
        }
        out.push_str("\n    ]}},\n    \"results\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n      {{\"ruleId\": {}, \"level\": \"error\", \"message\": {{\"text\": {}}}, \
                 \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \
                 \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}]}}",
                json_str(f.lint),
                json_str(&format!("{} (hint: {})", f.message, f.hint)),
                json_str(&f.file),
                f.line,
                f.col
            );
        }
        out.push_str("\n    ]\n  }]\n}\n");
        out
    }
}

/// JSON string-escapes `s`.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn json_shape() {
        let mut r = Report {
            files: 2,
            ..Report::default()
        };
        r.findings.push(Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 9,
            lint: "no-panic",
            message: "`.unwrap()` in library code".into(),
            hint: "h",
        });
        let j = r.render_json();
        assert!(j.contains("\"lint\": \"no-panic\""));
        assert!(j.contains("\"violations\": 1"));
    }

    #[test]
    fn sarif_shape() {
        let mut r = Report::default();
        r.findings.push(Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 9,
            lint: "seqcst",
            message: "m".into(),
            hint: "h",
        });
        let s = r.render_sarif();
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"ruleId\": \"seqcst\""));
        assert!(s.contains("\"startLine\": 3"));
        // Every lint family is declared as a rule.
        for l in crate::config::LINTS {
            assert!(s.contains(&format!("\"id\": \"{}\"", l.name)), "{}", l.name);
        }
    }
}
