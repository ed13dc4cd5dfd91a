//! RCS edit deltas: the `diff -n` command language.
//!
//! An RCS file stores the newest revision in full; each older revision is
//! reconstructed by applying an *edit script* to its successor. The script
//! language is that of `diff -n`: `d<line> <count>` deletes `count` lines
//! starting at 1-based `line` of the input, and `a<line> <count>` appends
//! `count` following lines of script text after input line `line`. Line
//! numbers always refer to the *input* text, so commands apply in a single
//! left-to-right pass.

use aide_diffcore::lines::diff_lines;
use aide_diffcore::script::EditOp;
use aide_util::lines::split_keep_newlines;
use std::fmt::{self, Write as _};

/// One edit command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edit {
    /// Delete `count` input lines starting at 1-based `line`.
    Delete {
        /// 1-based first input line to delete.
        line: usize,
        /// Number of lines deleted.
        count: usize,
    },
    /// Insert `lines` after 1-based input line `line` (0 = at the top).
    Add {
        /// 1-based input line after which to insert.
        line: usize,
        /// The inserted lines, each retaining its `\n` (the final one may
        /// lack it).
        lines: Vec<String>,
    },
}

/// An edit script transforming one text into another.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Delta {
    /// Commands in increasing input-line order.
    pub edits: Vec<Edit>,
}

/// Error applying a [`Delta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaError(pub String);

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "delta apply failed: {}", self.0)
    }
}

impl std::error::Error for DeltaError {}

impl Delta {
    /// Computes the delta that transforms `from` into `to`.
    ///
    /// # Examples
    ///
    /// ```
    /// use aide_rcs::delta::Delta;
    ///
    /// let d = Delta::compute("a\nb\nc\n", "a\nx\nc\n");
    /// assert_eq!(d.apply("a\nb\nc\n").unwrap(), "a\nx\nc\n");
    /// ```
    pub fn compute(from: &str, to: &str) -> Delta {
        let diff = diff_lines(from, to);
        let mut edits = Vec::new();
        for op in diff.alignment.script().ops {
            match op {
                EditOp::Equal { .. } => {}
                EditOp::Delete { a_start, len, .. } => {
                    edits.push(Edit::Delete {
                        line: a_start + 1,
                        count: len,
                    });
                }
                EditOp::Insert {
                    a_pos,
                    b_start,
                    len,
                } => {
                    edits.push(Edit::Add {
                        line: a_pos,
                        lines: diff.new_lines[b_start..b_start + len].to_vec(),
                    });
                }
            }
        }
        Delta { edits }
    }

    /// True if the delta makes no changes.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Number of lines added across all commands.
    pub fn lines_added(&self) -> usize {
        self.edits
            .iter()
            .map(|e| match e {
                Edit::Add { lines, .. } => lines.len(),
                _ => 0,
            })
            .sum()
    }

    /// Number of lines deleted across all commands.
    pub fn lines_deleted(&self) -> usize {
        self.edits
            .iter()
            .map(|e| match e {
                Edit::Delete { count, .. } => *count,
                _ => 0,
            })
            .sum()
    }

    /// Applies the delta to `input`, producing the transformed text.
    ///
    /// Fails if a command references lines the input does not have —
    /// which indicates a corrupted archive, not bad user input.
    pub fn apply(&self, input: &str) -> Result<String, DeltaError> {
        let lines = split_keep_newlines(input);
        let mut out = Vec::with_capacity(lines.len());
        self.apply_lines(&lines, &mut out)?;
        Ok(out.concat())
    }

    /// Applies the delta in line space: replaces `out` with `lines` edited
    /// by this delta, copying line references rather than bytes. Kept
    /// lines borrow from `lines`, added ones from the delta itself.
    ///
    /// Returns `Ok(true)` when `out` is still what `split_keep_newlines`
    /// makes of its concatenation, given that `lines` was — true for every
    /// delta [`Delta::compute`] produces. `Ok(false)` means a hand-built or
    /// corrupt delta added an empty line or left an unterminated line
    /// before the end; the concatenation is still right, but the next
    /// delta must see it re-split.
    ///
    /// # Examples
    ///
    /// ```
    /// use aide_rcs::delta::Delta;
    ///
    /// let d = Delta::compute("a\nb\nc\n", "a\nx\nc\n");
    /// let mut out = Vec::new();
    /// assert!(d.apply_lines(&["a\n", "b\n", "c\n"], &mut out).unwrap());
    /// assert_eq!(out, ["a\n", "x\n", "c\n"]);
    /// ```
    pub fn apply_lines<'a>(
        &'a self,
        lines: &[&'a str],
        out: &mut Vec<&'a str>,
    ) -> Result<bool, DeltaError> {
        out.clear();
        let mut cursor = 0usize; // 0-based index of next uncopied input line
        let mut last_deleted = false;
        let mut unterminated_adds = 0usize;
        let mut empty_add = false;
        for edit in &self.edits {
            match edit {
                Edit::Delete { line, count } => {
                    let start = line
                        .checked_sub(1)
                        .ok_or_else(|| DeltaError("delete at line 0".into()))?;
                    if start < cursor {
                        return Err(DeltaError(format!(
                            "delete at line {line} overlaps earlier edit"
                        )));
                    }
                    if start + count > lines.len() {
                        return Err(DeltaError(format!(
                            "delete {count}@{line} past end of {} lines",
                            lines.len()
                        )));
                    }
                    out.extend_from_slice(&lines[cursor..start]);
                    cursor = start + count;
                    last_deleted |= *count > 0 && cursor == lines.len();
                }
                Edit::Add { line, lines: add } => {
                    if *line < cursor {
                        return Err(DeltaError(format!(
                            "add after line {line} overlaps earlier edit"
                        )));
                    }
                    if *line > lines.len() {
                        return Err(DeltaError(format!(
                            "add after line {line} past end of {} lines",
                            lines.len()
                        )));
                    }
                    out.extend_from_slice(&lines[cursor..*line]);
                    cursor = *line;
                    for l in add {
                        empty_add |= l.is_empty();
                        unterminated_adds += usize::from(!l.ends_with('\n'));
                        out.push(l);
                    }
                }
            }
        }
        out.extend_from_slice(&lines[cursor..]);
        // Only an added line or the input's last line can lack a newline;
        // the split form allows one such line, and only at the end.
        let kept_unterminated = !last_deleted && lines.last().is_some_and(|l| !l.ends_with('\n'));
        let unterminated = unterminated_adds + usize::from(kept_unterminated);
        Ok(!empty_add
            && (unterminated == 0
                || (unterminated == 1 && out.last().is_some_and(|l| !l.ends_with('\n')))))
    }

    /// Applies `chain` to `text` from its last delta to its first —
    /// `chain[k]` recovers revision `k` from revision `k + 1` — and returns
    /// the text the first delta yields. `on_step(k, pieces)` sees revision
    /// `k`'s text as it is reached: as lines, or as one piece after a
    /// fallback.
    ///
    /// Works in line space: `text` is split once, each delta copies line
    /// references between two reused buffers, and the result is joined
    /// once, so a step costs O(lines + changed lines), not O(bytes). Output
    /// is byte-identical to chaining [`Delta::apply`]; should a malformed
    /// delta leave the lines out of split form, the rest of the chain runs
    /// on the joined text instead.
    pub(crate) fn apply_chain(
        text: &str,
        chain: &[Delta],
        mut on_step: impl FnMut(usize, &[&str]),
    ) -> Result<String, DeltaError> {
        if chain.is_empty() {
            return Ok(text.to_owned());
        }
        let mut cur = split_keep_newlines(text);
        let mut next = Vec::with_capacity(cur.len());
        for (k, delta) in chain.iter().enumerate().rev() {
            let split_form = delta.apply_lines(&cur, &mut next)?;
            std::mem::swap(&mut cur, &mut next);
            on_step(k, &cur);
            if !split_form {
                let mut text = cur.concat();
                for (k, delta) in chain[..k].iter().enumerate().rev() {
                    text = delta.apply(&text)?;
                    on_step(k, &[text.as_str()]);
                }
                return Ok(text);
            }
        }
        Ok(cur.concat())
    }

    /// Serializes in `diff -n` syntax (the body of an RCS delta).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out);
        out
    }

    /// Appends the [`Delta::to_text`] form to `out`.
    pub(crate) fn write_text(&self, out: &mut String) {
        // Writing to a `String` cannot fail, so `writeln!` results are
        // discarded.
        for edit in &self.edits {
            match edit {
                Edit::Delete { line, count } => {
                    let _ = writeln!(out, "d{line} {count}");
                }
                Edit::Add { line, lines } => {
                    let _ = writeln!(out, "a{line} {}", lines.len());
                    for l in lines {
                        // Lines are stored verbatim. Only the final line of
                        // the final command can lack a newline (it can only
                        // come from the end of the source text), so command
                        // parsing never misfires on it.
                        out.push_str(l);
                    }
                }
            }
        }
    }

    /// Parses `diff -n` syntax produced by [`Delta::to_text`].
    ///
    /// Added lines are stored verbatim, so a final added line without a
    /// trailing newline round-trips exactly.
    pub fn parse(text: &str) -> Result<Delta, DeltaError> {
        let mut edits = Vec::new();
        let lines = split_keep_newlines(text);
        let mut i = 0;
        while i < lines.len() {
            let cmd = lines[i].trim_end_matches('\n');
            i += 1;
            if cmd.is_empty() {
                continue;
            }
            let (kind, rest) = cmd.split_at(1);
            let mut nums = rest.split_whitespace();
            let line: usize = nums
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| DeltaError(format!("bad command {cmd:?}")))?;
            let count: usize = nums
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| DeltaError(format!("bad command {cmd:?}")))?;
            match kind {
                "d" => edits.push(Edit::Delete { line, count }),
                "a" => {
                    if i + count > lines.len() {
                        return Err(DeltaError(format!(
                            "add command wants {count} lines, {} remain",
                            lines.len() - i
                        )));
                    }
                    let add: Vec<String> =
                        lines[i..i + count].iter().map(|s| s.to_string()).collect();
                    i += count;
                    edits.push(Edit::Add { line, lines: add });
                }
                other => return Err(DeltaError(format!("unknown command {other:?}"))),
            }
        }
        Ok(Delta { edits })
    }

    /// Approximate storage cost of this delta in bytes, as stored in an
    /// archive file.
    pub fn byte_size(&self) -> usize {
        self.to_text().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(from: &str, to: &str) {
        let d = Delta::compute(from, to);
        assert_eq!(d.apply(from).unwrap(), to, "{from:?} -> {to:?}");
    }

    #[test]
    fn identity_delta_is_empty() {
        let d = Delta::compute("x\ny\n", "x\ny\n");
        assert!(d.is_empty());
        assert_eq!(d.apply("x\ny\n").unwrap(), "x\ny\n");
    }

    #[test]
    fn simple_edits_roundtrip() {
        roundtrip("a\nb\nc\n", "a\nx\nc\n");
        roundtrip("a\nb\nc\n", "b\nc\n");
        roundtrip("a\nb\n", "a\nb\nc\n");
        roundtrip("", "new\ncontent\n");
        roundtrip("old\ncontent\n", "");
        roundtrip("a\nb\nc\nd\ne\n", "e\nd\nc\nb\na\n");
    }

    #[test]
    fn no_trailing_newline_roundtrip() {
        roundtrip("a\nb", "a\nb\nc");
        roundtrip("a\nb\nc", "a\nb");
        roundtrip("x", "y");
    }

    #[test]
    fn insert_at_top() {
        let d = Delta::compute("b\n", "a\nb\n");
        assert_eq!(
            d.edits,
            vec![Edit::Add {
                line: 0,
                lines: vec!["a\n".into()]
            }]
        );
    }

    #[test]
    fn change_is_delete_then_add() {
        let d = Delta::compute("a\nb\nc\n", "a\nB\nc\n");
        assert_eq!(d.edits.len(), 2);
        assert!(matches!(d.edits[0], Edit::Delete { line: 2, count: 1 }));
        assert!(matches!(&d.edits[1], Edit::Add { line: 2, .. }));
    }

    #[test]
    fn text_format_roundtrip() {
        let d = Delta::compute("one\ntwo\nthree\nfour\n", "one\nTWO\nthree\nfive\nsix\n");
        let text = d.to_text();
        let parsed = Delta::parse(&text).unwrap();
        assert_eq!(
            parsed.apply("one\ntwo\nthree\nfour\n").unwrap(),
            "one\nTWO\nthree\nfive\nsix\n"
        );
    }

    #[test]
    fn counts() {
        let d = Delta::compute("a\nb\nc\n", "a\nx\ny\n");
        assert_eq!(d.lines_deleted(), 2);
        assert_eq!(d.lines_added(), 2);
    }

    #[test]
    fn apply_rejects_out_of_range() {
        let d = Delta {
            edits: vec![Edit::Delete { line: 5, count: 2 }],
        };
        assert!(d.apply("one\n").is_err());
        let d = Delta {
            edits: vec![Edit::Add {
                line: 9,
                lines: vec!["x\n".into()],
            }],
        };
        assert!(d.apply("one\n").is_err());
    }

    #[test]
    fn apply_rejects_overlapping_commands() {
        let d = Delta {
            edits: vec![
                Edit::Delete { line: 2, count: 2 },
                Edit::Delete { line: 3, count: 1 },
            ],
        };
        assert!(d.apply("a\nb\nc\nd\n").is_err());
    }

    #[test]
    fn apply_lines_borrows_and_reports_split_form() {
        let input = "a\nb\nc";
        let lines = split_keep_newlines(input);
        let mut out = Vec::new();
        let d = Delta::compute(input, "a\nB\nc\nd");
        assert!(d.apply_lines(&lines, &mut out).unwrap());
        assert_eq!(out, ["a\n", "B\n", "c\n", "d"]);
        // Unchanged lines are the input's own slices, not copies.
        assert!(std::ptr::eq(out[0], lines[0]));

        let add = |line, l: &[&str]| Delta {
            edits: vec![Edit::Add {
                line,
                lines: l.iter().map(|s| s.to_string()).collect(),
            }],
        };
        // Returns the joined output and whether it stayed in split form.
        let apply = |d: &Delta, input: &str| {
            let mut out = Vec::new();
            let split_form = d
                .apply_lines(&split_keep_newlines(input), &mut out)
                .unwrap();
            (out.concat(), split_form)
        };
        // Lines that `split_keep_newlines` would never produce.
        for (d, input) in [
            (add(1, &[""]), "a\nb\n"),
            (add(1, &["x"]), "a\nb\n"),
            (add(2, &["x\n"]), "a\nb"),
        ] {
            assert_eq!(apply(&d, input), (d.apply(input).unwrap(), false));
        }
        // An unterminated line that ends up last is still split form, as
        // is an unterminated last line replaced by an add.
        assert_eq!(apply(&add(2, &["x"]), "a\nb\n"), ("a\nb\nx".into(), true));
        let replace_last = Delta {
            edits: vec![
                Edit::Delete { line: 2, count: 1 },
                Edit::Add {
                    line: 2,
                    lines: vec!["c\n".into(), "d".into()],
                },
            ],
        };
        assert_eq!(apply(&replace_last, "a\nb"), ("a\nc\nd".into(), true));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Delta::parse("x3 1\n").is_err());
        assert!(Delta::parse("d\n").is_err());
        assert!(Delta::parse("a1 5\nonly\n").is_err());
    }

    #[test]
    fn delta_smaller_than_full_copy_for_small_edits() {
        let base: String = (0..200).map(|i| format!("line number {i}\n")).collect();
        let mut edited = base.clone();
        edited.push_str("appended line\n");
        let d = Delta::compute(&base, &edited);
        assert!(
            d.byte_size() < base.len() / 10,
            "delta should be tiny: {}",
            d.byte_size()
        );
    }
}
