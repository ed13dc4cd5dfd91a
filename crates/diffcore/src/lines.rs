//! Line-oriented diffing: the UNIX `diff` model.
//!
//! "Line-based comparison utilities such as UNIX diff clearly are
//! ill-suited to the comparison of structured documents such as HTML"
//! (§2.3) — but they are exactly right for RCS deltas, and they are the
//! baseline HtmlDiff is evaluated against. This module compares two texts
//! line by line (interning lines, trimming common prefix/suffix, then
//! Myers), and renders the result as a unified diff.

use crate::intern::Interner;
use crate::myers::myers_diff;
use crate::script::{Alignment, EditOp};
use aide_util::lines::split_keep_newlines;

/// The result of comparing two texts line by line.
#[derive(Debug, Clone)]
pub struct LineDiff {
    /// Old text split into lines (newlines retained).
    pub old_lines: Vec<String>,
    /// New text split into lines (newlines retained).
    pub new_lines: Vec<String>,
    /// Alignment between the two line sequences.
    pub alignment: Alignment,
}

/// Compares two texts line by line.
///
/// # Examples
///
/// ```
/// use aide_diffcore::lines::diff_lines;
///
/// let d = diff_lines("a\nb\nc\n", "a\nx\nc\n");
/// assert_eq!(d.alignment.edit_distance(), 2); // one line replaced
/// assert!(!d.is_identical());
/// ```
pub fn diff_lines(old: &str, new: &str) -> LineDiff {
    let old_lines: Vec<String> = split_keep_newlines(old)
        .into_iter()
        .map(str::to_string)
        .collect();
    let new_lines: Vec<String> = split_keep_newlines(new)
        .into_iter()
        .map(str::to_string)
        .collect();
    let mut interner = Interner::new();
    let ia: Vec<u32> = old_lines
        .iter()
        .map(|l| interner.intern(l.clone()))
        .collect();
    let ib: Vec<u32> = new_lines
        .iter()
        .map(|l| interner.intern(l.clone()))
        .collect();
    let pairs = myers_diff(&ia, &ib);
    let alignment = Alignment::new(pairs, ia.len(), ib.len());
    LineDiff {
        old_lines,
        new_lines,
        alignment,
    }
}

impl LineDiff {
    /// True if the two texts are identical.
    pub fn is_identical(&self) -> bool {
        self.alignment.is_identity()
    }

    /// Number of lines only in the old text.
    pub fn deleted_lines(&self) -> usize {
        self.alignment.script().deleted()
    }

    /// Number of lines only in the new text.
    pub fn inserted_lines(&self) -> usize {
        self.alignment.script().inserted()
    }

    /// Renders a unified diff (`diff -u` style) with `context` lines of
    /// context around each hunk. Headers name the two sides.
    pub fn unified(&self, old_name: &str, new_name: &str, context: usize) -> String {
        if self.is_identical() {
            return String::new();
        }
        let mut out = String::new();
        out.push_str(&format!("--- {old_name}\n+++ {new_name}\n"));
        for h in self.alignment.hunks(context) {
            out.push_str(&format!(
                "@@ -{},{} +{},{} @@\n",
                if h.a_len == 0 {
                    h.a_start
                } else {
                    h.a_start + 1
                },
                h.a_len,
                if h.b_len == 0 {
                    h.b_start
                } else {
                    h.b_start + 1
                },
                h.b_len
            ));
            for op in &h.ops {
                match *op {
                    EditOp::Equal { a_start, len, .. } => {
                        for line in &self.old_lines[a_start..a_start + len] {
                            out.push(' ');
                            push_line(&mut out, line);
                        }
                    }
                    EditOp::Delete { a_start, len, .. } => {
                        for line in &self.old_lines[a_start..a_start + len] {
                            out.push('-');
                            push_line(&mut out, line);
                        }
                    }
                    EditOp::Insert { b_start, len, .. } => {
                        for line in &self.new_lines[b_start..b_start + len] {
                            out.push('+');
                            push_line(&mut out, line);
                        }
                    }
                }
            }
        }
        out
    }
}

fn push_line(out: &mut String, line: &str) {
    out.push_str(line);
    if !line.ends_with('\n') {
        out.push('\n');
        out.push_str("\\ No newline at end of file\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_texts_produce_empty_unified() {
        let d = diff_lines("a\nb\n", "a\nb\n");
        assert!(d.is_identical());
        assert_eq!(d.unified("old", "new", 3), "");
    }

    #[test]
    fn simple_replacement_unified() {
        let d = diff_lines("one\ntwo\nthree\n", "one\nTWO\nthree\n");
        let u = d.unified("a.html", "b.html", 1);
        assert!(u.contains("--- a.html"));
        assert!(u.contains("+++ b.html"));
        assert!(u.contains("-two"));
        assert!(u.contains("+TWO"));
        assert!(u.contains(" one"));
        assert!(u.contains(" three"));
    }

    #[test]
    fn counts() {
        let d = diff_lines("a\nb\nc\n", "a\nc\nd\ne\n");
        assert_eq!(d.deleted_lines(), 1);
        assert_eq!(d.inserted_lines(), 2);
    }

    #[test]
    fn missing_trailing_newline_flagged() {
        let d = diff_lines("a\nb", "a\nc");
        let u = d.unified("x", "y", 0);
        assert!(u.contains("\\ No newline at end of file"), "got: {u}");
    }

    #[test]
    fn empty_to_content() {
        let d = diff_lines("", "x\ny\n");
        assert_eq!(d.inserted_lines(), 2);
        assert_eq!(d.deleted_lines(), 0);
        let u = d.unified("a", "b", 0);
        assert!(u.contains("@@ -0,0 +1,2 @@\n+x\n+y\n"), "got: {u}");
    }

    #[test]
    fn content_to_empty() {
        let d = diff_lines("x\ny\n", "");
        assert_eq!(d.deleted_lines(), 2);
        let u = d.unified("a", "b", 0);
        assert!(u.contains("@@ -1,2 +0,0 @@\n-x\n-y\n"), "got: {u}");
    }

    #[test]
    fn whole_text_reconstructable_from_alignment() {
        let old = "alpha\nbeta\ngamma\ndelta\n";
        let new = "alpha\nGAMMA\ngamma\nepsilon\n";
        let d = diff_lines(old, new);
        // Replaying the script over old_lines must yield new text.
        let script = d.alignment.script();
        let mut rebuilt = String::new();
        for op in &script.ops {
            match *op {
                EditOp::Equal { a_start, len, .. } => {
                    for l in &d.old_lines[a_start..a_start + len] {
                        rebuilt.push_str(l);
                    }
                }
                EditOp::Delete { .. } => {}
                EditOp::Insert { b_start, len, .. } => {
                    for l in &d.new_lines[b_start..b_start + len] {
                        rebuilt.push_str(l);
                    }
                }
            }
        }
        assert_eq!(rebuilt, new);
    }
}
