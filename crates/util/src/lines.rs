//! Line-splitting helpers shared by the diff and RCS crates.
//!
//! Both UNIX `diff` and RCS treat a file as a sequence of lines where the
//! final line may or may not end in a newline; that distinction must
//! survive a split/join round trip or RCS check-out would corrupt files.

/// Splits `text` into lines, each *retaining* its trailing `\n` if present.
///
/// Joining the result with no separator reproduces `text` exactly.
///
/// # Examples
///
/// ```
/// use aide_util::lines::split_keep_newlines;
///
/// let lines = split_keep_newlines("a\nb\nc");
/// assert_eq!(lines, vec!["a\n", "b\n", "c"]);
/// assert_eq!(lines.concat(), "a\nb\nc");
/// ```
pub fn split_keep_newlines(text: &str) -> Vec<&str> {
    text.split_inclusive('\n').collect()
}

/// Splits `text` into lines *without* their newlines, recording whether the
/// text ended with a final newline.
///
/// # Examples
///
/// ```
/// use aide_util::lines::split_lines;
///
/// let (lines, trailing) = split_lines("a\nb\n");
/// assert_eq!(lines, vec!["a", "b"]);
/// assert!(trailing);
/// ```
pub fn split_lines(text: &str) -> (Vec<&str>, bool) {
    if text.is_empty() {
        return (Vec::new(), false);
    }
    let trailing = text.ends_with('\n');
    let body = if trailing {
        &text[..text.len() - 1]
    } else {
        text
    };
    (body.split('\n').collect(), trailing)
}

/// Joins lines produced by [`split_lines`] back into text.
pub fn join_lines(lines: &[impl AsRef<str>], trailing_newline: bool) -> String {
    let mut out = String::new();
    for (i, l) in lines.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(l.as_ref());
    }
    if trailing_newline && !lines.is_empty() {
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_newlines_roundtrip() {
        for text in ["", "a", "a\n", "a\nb", "a\nb\n", "\n", "\n\n", "a\n\nb"] {
            assert_eq!(
                split_keep_newlines(text).concat(),
                text,
                "roundtrip {text:?}"
            );
        }
    }

    #[test]
    fn split_join_roundtrip() {
        for text in ["", "a", "a\n", "a\nb", "a\nb\n", "\n", "\n\n"] {
            let (lines, trailing) = split_lines(text);
            assert_eq!(join_lines(&lines, trailing), text, "roundtrip {text:?}");
        }
    }

    #[test]
    fn empty_text_has_no_lines() {
        assert!(split_keep_newlines("").is_empty());
        let (lines, trailing) = split_lines("");
        assert!(lines.is_empty());
        assert!(!trailing);
    }

    #[test]
    fn lone_newline_is_one_empty_line() {
        let (lines, trailing) = split_lines("\n");
        assert_eq!(lines, vec![""]);
        assert!(trailing);
    }
}
