//! The RCS `,v` file format.
//!
//! Emits and parses the classic `rcsfile(5)` layout: an admin header
//! (`head`, `access`, `symbols`, `locks`, `comment`), a delta table (per
//! revision: `date`/`author`/`state`, `branches`, `next`), a `desc`
//! string, and per-revision `log`/`text` blocks where the head's text is
//! stored in full and every other revision's text is a `diff -n` script
//! recovering it from its successor. `@` is the string quote; literal `@`
//! doubles.
//!
//! Only the trunk subset AIDE uses is implemented (no branches, no locks,
//! no symbols) — the same subset the paper's perl scripts drive via `ci`,
//! `co` and `rlog`.

use crate::archive::{Archive, RevId, RevisionMeta};
use crate::delta::Delta;
use aide_util::time::Timestamp;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Error from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError {
    /// What went wrong.
    pub message: String,
}

impl FormatError {
    fn new(m: impl Into<String>) -> FormatError {
        FormatError { message: m.into() }
    }
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RCS format error: {}", self.message)
    }
}

impl std::error::Error for FormatError {}

/// Appends `s` to `out` in RCS `@` syntax, copying the runs between
/// `@`s whole and doubling each `@`.
fn quote_into(out: &mut String, s: &str) {
    out.push('@');
    let mut rest = s;
    while let Some(at) = rest.find('@') {
        out.push_str(&rest[..=at]);
        out.push('@');
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('@');
}

/// Bytes `s` takes in `@` syntax: the two quotes and each `@` doubled.
pub(crate) fn quoted_len(s: &str) -> usize {
    s.len() + 2 + s.bytes().filter(|&b| b == b'@').count()
}

/// Decimal digits of `n`.
pub(crate) fn digits(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Bytes `1.<n>` takes.
fn rev_len(rev: RevId) -> usize {
    2 + digits(rev.0 as usize)
}

// The lengths below mirror `emit` piece by piece; `format::tests` and
// the property tests pin them to `emit(..).len()`.

/// Bytes of the admin header `emit` writes for head `head`.
pub(crate) fn header_len(head: RevId) -> usize {
    "head\t;\naccess;\nsymbols;\nlocks; strict;\ncomment\t@# @;\n\n".len() + rev_len(head)
}

/// Bytes of `meta`'s delta-table entry.
pub(crate) fn meta_entry_len(meta: &RevisionMeta) -> usize {
    let next = if meta.id.0 > 1 {
        rev_len(RevId(meta.id.0 - 1))
    } else {
        0
    };
    rev_len(meta.id)
        + "\ndate\t;\tauthor ".len()
        + meta.date.to_rcs_date().len()
        + quoted_len(&meta.author)
        + ";\tstate Exp;\nbranches;\nnext\t;\n\n".len()
        + next
}

/// Bytes of `meta`'s text block whose body takes `quoted_body` bytes in
/// `@` syntax.
pub(crate) fn text_block_len(meta: &RevisionMeta, quoted_body: usize) -> usize {
    "\n\nlog\n\ntext\n\n\n".len() + rev_len(meta.id) + quoted_len(&meta.log) + quoted_body
}

/// `emit(archive).len()`, summed without writing the text.
pub(crate) fn emitted_len(archive: &Archive) -> usize {
    let mut len =
        header_len(archive.head()) + "\ndesc\n\n\n".len() + quoted_len(&archive.description);
    // A revision's text block holds the head text or the delta its
    // successor carries back to it.
    let mut body = quoted_len(archive.head_text());
    for (meta, back) in archive.chain() {
        len += meta_entry_len(meta) + text_block_len(meta, body);
        body = back.map_or(0, Delta::quoted_len);
    }
    len
}

/// Serializes an archive in `,v` syntax.
///
/// # Examples
///
/// ```
/// use aide_rcs::archive::Archive;
/// use aide_rcs::format::{emit, parse};
/// use aide_util::time::Timestamp;
///
/// let a = Archive::create("http://x/", "hello\n", "alice", "init", Timestamp(1000));
/// let text = emit(&a);
/// assert!(text.starts_with("head\t1.1;"));
/// assert_eq!(parse(&text).unwrap(), a);
/// ```
pub fn emit(archive: &Archive) -> String {
    // Writing to a `String` cannot fail, so the `write!` results below
    // are discarded.
    let mut out = String::with_capacity(2 * archive.head_text().len() + 256 * archive.len());
    let _ = write!(
        out,
        "head\t{};\naccess;\nsymbols;\nlocks; strict;\ncomment\t@# @;\n\n",
        archive.head()
    );

    // Delta table, newest first; `next` points at the previous trunk rev.
    for (meta, _) in archive.chain() {
        let _ = write!(
            out,
            "{}\ndate\t{};\tauthor ",
            meta.id,
            meta.date.to_rcs_date()
        );
        quote_into(&mut out, &meta.author);
        out.push_str(";\tstate Exp;\nbranches;\nnext\t");
        if meta.id.0 > 1 {
            let _ = write!(out, "1.{}", meta.id.0 - 1);
        }
        out.push_str(";\n\n");
    }

    out.push_str("\ndesc\n");
    quote_into(&mut out, &archive.description);
    out.push_str("\n\n");

    // Text blocks, newest first: head in full, others as the reverse
    // delta their successor carries.
    let mut delta_text = String::new();
    let mut newer_back: Option<&Delta> = None;
    for (meta, back) in archive.chain() {
        let _ = write!(out, "\n{}\nlog\n", meta.id);
        quote_into(&mut out, &meta.log);
        out.push_str("\ntext\n");
        match newer_back {
            None => quote_into(&mut out, archive.head_text()),
            Some(delta) => {
                delta_text.clear();
                delta.write_text(&mut delta_text);
                quote_into(&mut out, &delta_text);
            }
        }
        out.push_str("\n\n");
        newer_back = back;
    }
    out
}

/// A cursor over the `,v` byte stream.
struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src.as_bytes()[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    /// Reads the next whitespace/semicolon-delimited word.
    fn word(&mut self) -> Result<&'a str, FormatError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len() {
            let b = self.src.as_bytes()[self.pos];
            if b.is_ascii_whitespace() || b == b';' || b == b'@' {
                break;
            }
            self.pos += 1;
        }
        if start == self.pos {
            return Err(FormatError::new(format!(
                "expected word at byte {}",
                self.pos
            )));
        }
        Ok(&self.src[start..self.pos])
    }

    /// Peeks whether the next non-whitespace char is `c`.
    fn peek_is(&mut self, c: char) -> bool {
        self.skip_ws();
        self.src[self.pos..].starts_with(c)
    }

    fn expect(&mut self, c: char) -> Result<(), FormatError> {
        self.skip_ws();
        if self.src[self.pos..].starts_with(c) {
            self.pos += c.len_utf8();
            Ok(())
        } else {
            Err(FormatError::new(format!(
                "expected {c:?} at byte {} (found {:?})",
                self.pos,
                &self.src[self.pos..self.src.len().min(self.pos + 10)]
            )))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), FormatError> {
        let w = self.word()?;
        if w == kw {
            Ok(())
        } else {
            Err(FormatError::new(format!("expected {kw:?}, found {w:?}")))
        }
    }

    /// Reads an `@`-quoted string, un-doubling `@@`.
    fn at_string(&mut self) -> Result<String, FormatError> {
        self.expect('@')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `@` whole.
            let Some(run) = self.src[self.pos..].find('@') else {
                return Err(FormatError::new("unterminated @ string"));
            };
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.src.as_bytes().get(self.pos) == Some(&b'@') {
                out.push('@');
                self.pos += 1;
            } else {
                return Ok(out);
            }
        }
    }

    /// Skips an optional value up to the next `;`, then the `;` itself.
    fn skip_phrase(&mut self) -> Result<(), FormatError> {
        loop {
            self.skip_ws();
            if self.pos >= self.src.len() {
                return Err(FormatError::new("unterminated phrase"));
            }
            if self.src.as_bytes()[self.pos] == b';' {
                self.pos += 1;
                return Ok(());
            }
            if self.src.as_bytes()[self.pos] == b'@' {
                self.at_string()?;
            } else {
                self.pos += 1;
            }
        }
    }
}

/// Parses a `,v` file emitted by [`emit`] (or real RCS, for the trunk
/// subset).
pub fn parse(text: &str) -> Result<Archive, FormatError> {
    let mut c = Cursor { src: text, pos: 0 };

    c.expect_keyword("head")?;
    let head = RevId::parse(c.word()?).ok_or_else(|| FormatError::new("bad head revision"))?;
    c.expect(';')?;

    // Optional admin phrases until the first revision number.
    for kw in ["access", "symbols", "locks", "strict", "comment", "expand"] {
        let Some(first) = kw.chars().next() else {
            continue;
        };
        if c.peek_is(first) {
            let save = c.pos;
            match c.word() {
                Ok(w) if w == kw => {
                    if kw == "strict" {
                        c.expect(';')?;
                    } else {
                        c.skip_phrase()?;
                    }
                }
                _ => {
                    c.pos = save;
                    break;
                }
            }
        }
    }

    // Delta table: "<rev> date ...; author ...; state ...; branches; next ...;"
    let mut metas_desc: Vec<(RevId, Timestamp, String)> = Vec::new();
    loop {
        let save = c.pos;
        c.skip_ws();
        if c.src[c.pos..].starts_with("desc") {
            c.pos = save;
            break;
        }
        let rev = RevId::parse(c.word()?)
            .ok_or_else(|| FormatError::new("bad revision in delta table"))?;
        c.expect_keyword("date")?;
        let date =
            Timestamp::parse_rcs_date(c.word()?).ok_or_else(|| FormatError::new("bad date"))?;
        c.expect(';')?;
        c.expect_keyword("author")?;
        c.skip_ws();
        let author = if c.peek_is('@') {
            c.at_string()?
        } else {
            c.word()?.to_string()
        };
        c.expect(';')?;
        c.expect_keyword("state")?;
        c.skip_phrase()?;
        c.expect_keyword("branches")?;
        c.skip_phrase()?;
        c.expect_keyword("next")?;
        c.skip_phrase()?;
        metas_desc.push((rev, date, author));
    }

    c.expect_keyword("desc")?;
    let description = c.at_string()?;

    // Text blocks: "<rev> log <@str@> text <@str@>".
    let mut blocks: Vec<(RevId, String, String)> = Vec::new();
    loop {
        c.skip_ws();
        if c.pos >= c.src.len() {
            break;
        }
        let rev = RevId::parse(c.word()?)
            .ok_or_else(|| FormatError::new("bad revision in text section"))?;
        c.expect_keyword("log")?;
        let log = c.at_string()?;
        c.expect_keyword("text")?;
        let body = c.at_string()?;
        blocks.push((rev, log, body));
    }

    // Assemble: metas oldest-first; deltas for non-head revisions.
    metas_desc.sort_by_key(|(rev, _, _)| *rev);
    blocks.sort_by_key(|(rev, _, _)| *rev);
    if metas_desc.len() != blocks.len() {
        return Err(FormatError::new("delta table and text blocks disagree"));
    }
    let (Some(newest_meta), Some(newest_block)) = (metas_desc.last(), blocks.last()) else {
        return Err(FormatError::new("delta table and text blocks disagree"));
    };
    if newest_meta.0 != head {
        return Err(FormatError::new("head does not match newest revision"));
    }
    let head_text = newest_block.2.clone();
    let mut reverse_deltas = Vec::new();
    for (rev, _, body) in blocks.iter().take(blocks.len() - 1) {
        let delta =
            Delta::parse(body).map_err(|e| FormatError::new(format!("delta for {rev}: {e}")))?;
        reverse_deltas.push(delta);
    }

    // Recover per-revision text lengths by walking the chain backwards
    // in line space, summing line lengths rather than building each text.
    let mut lens = vec![0usize; metas_desc.len()];
    lens[metas_desc.len() - 1] = head_text.len();
    let mut reached = reverse_deltas.len();
    let chain: Vec<&Delta> = reverse_deltas.iter().collect();
    Delta::apply_chain(&head_text, &chain, |k, lines| {
        lens[k] = lines.iter().map(|l| l.len()).sum();
        reached = k;
    })
    .map_err(|e| FormatError::new(format!("applying delta {}: {e}", reached - 1)))?;

    let mut metas = metas_desc.into_iter().zip(blocks).zip(lens).map(
        |(((id, date, author), (_, log, _)), text_len)| RevisionMeta {
            id,
            date,
            author,
            log,
            text_len,
        },
    );
    let Some(first) = metas.next() else {
        return Err(FormatError::new("no revisions"));
    };
    let later = metas.zip(reverse_deltas).collect();
    Ok(Archive::from_parts(
        description,
        first,
        later,
        Arc::from(head_text),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_util::time::Duration;

    fn t(day: u64) -> Timestamp {
        Timestamp::from_ymd_hms(1995, 10, 1, 8, 30, 0) + Duration::days(day)
    }

    fn sample() -> Archive {
        let mut a = Archive::create(
            "http://www.usenix.org/",
            "<HTML>\n<TITLE>USENIX</TITLE>\nv1 body\n</HTML>\n",
            "douglis@research.att.com",
            "initial snapshot",
            t(0),
        );
        a.checkin(
            "<HTML>\n<TITLE>USENIX</TITLE>\nv2 body with more\n</HTML>\n",
            "ball@research.att.com",
            "second snapshot",
            t(3),
        )
        .unwrap();
        a.checkin(
            "<HTML>\n<TITLE>USENIX Association</TITLE>\nv2 body with more\nplus a line\n</HTML>\n",
            "douglis@research.att.com",
            "third",
            t(9),
        )
        .unwrap();
        a
    }

    #[test]
    fn emit_parse_roundtrip() {
        let a = sample();
        let text = emit(&a);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn roundtrip_preserves_checkouts() {
        let a = sample();
        let parsed = parse(&emit(&a)).unwrap();
        for meta in a.metas() {
            assert_eq!(
                parsed.checkout(meta.id).unwrap(),
                a.checkout(meta.id).unwrap(),
                "checkout {} differs",
                meta.id
            );
        }
    }

    #[test]
    fn at_signs_in_content_escape() {
        let mut a = Archive::create(
            "mailto:douglis@research.att.com",
            "email me @ douglis@research.att.com\n",
            "douglis@research.att.com",
            "log with @ sign",
            t(0),
        );
        a.checkin("now with @@ doubled already\n", "x@y", "l@g", t(1))
            .unwrap();
        let parsed = parse(&emit(&a)).unwrap();
        assert_eq!(parsed, a);
        assert_eq!(
            parsed.checkout(RevId(1)).unwrap(),
            "email me @ douglis@research.att.com\n"
        );
    }

    #[test]
    fn single_revision_archive() {
        let a = Archive::create("d", "only\n", "me", "init", t(0));
        assert_eq!(parse(&emit(&a)).unwrap(), a);
    }

    #[test]
    fn text_without_trailing_newline_roundtrips() {
        let mut a = Archive::create("d", "no newline at end", "me", "init", t(0));
        a.checkin("still no newline at end, but changed", "me", "l", t(1))
            .unwrap();
        a.checkin("now with newline\n", "me", "l", t(2)).unwrap();
        let parsed = parse(&emit(&a)).unwrap();
        assert_eq!(parsed.checkout(RevId(1)).unwrap(), "no newline at end");
        assert_eq!(
            parsed.checkout(RevId(2)).unwrap(),
            "still no newline at end, but changed"
        );
    }

    #[test]
    fn empty_revision_text() {
        let mut a = Archive::create("d", "", "me", "init", t(0));
        a.checkin("content appears\n", "me", "l", t(1)).unwrap();
        let parsed = parse(&emit(&a)).unwrap();
        assert_eq!(parsed.checkout(RevId(1)).unwrap(), "");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("not an rcs file").is_err());
        assert!(parse("head 1.1;").is_err());
    }

    #[test]
    fn parse_rejects_mismatched_head() {
        let a = sample();
        let text = emit(&a).replace("head\t1.3;", "head\t1.9;");
        assert!(parse(&text).is_err());
    }

    #[test]
    fn header_shape() {
        let text = emit(&sample());
        assert!(text.starts_with("head\t1.3;\naccess;\nsymbols;\nlocks; strict;\n"));
        assert!(text.contains("desc\n@http://www.usenix.org/@"));
        assert!(text.contains("date\t1995.10.01.08.30.00;"));
    }

    /// Pins the exact `,v` bytes of an archive with `@` in its
    /// description, authors, logs and texts, an empty revision and texts
    /// without a trailing newline, so a faster emitter cannot drift.
    #[test]
    fn emit_bytes_are_pinned() {
        let t = |d: u64| Timestamp::from_ymd_hms(1996, 1, 22, 9, 0, 0) + Duration::days(d);
        let mut a = Archive::create(
            "mailto:webmaster@www.usenix.org",
            "<HTML>\n<TITLE>@USENIX@</TITLE>\n\nmail douglis@research.att.com\n</HTML>\n",
            "douglis@research.att.com",
            "initial @ snapshot",
            t(0),
        );
        a.checkin(
            "<HTML>\n<TITLE>@@USENIX</TITLE>\n\n\nmail ball@research.att.com\n</HTML>",
            "ball@research.att.com",
            "log with @@ and @",
            t(2),
        )
        .unwrap();
        a.checkin(
            "@\n<HTML>\n<TITLE>USENIX @ 1996</TITLE>\n\nmail ball@research.att.com\nd1 2\na3 1\n</HTML>\n",
            "x@y",
            "@",
            t(5),
        )
        .unwrap();
        a.checkin("", "nobody", "cleared", t(6)).unwrap();
        a.checkin("back @ again\nno newline", "a@b@c", "", t(9))
            .unwrap();
        let text = emit(&a);
        assert_eq!(text.len(), 948);
        assert_eq!(
            aide_util::checksum::fnv1a64(text.as_bytes()),
            0x225b_eb12_381f_f65e
        );
        assert_eq!(parse(&text).unwrap(), a);
    }

    #[test]
    fn many_revisions_roundtrip() {
        let mut a = Archive::create("d", "r1\n", "u", "init", t(0));
        for i in 2..=40u64 {
            a.checkin(
                &format!("r{i}\nshared tail\n"),
                "u",
                &format!("rev {i}"),
                t(i),
            )
            .unwrap();
        }
        let parsed = parse(&emit(&a)).unwrap();
        assert_eq!(parsed.len(), 40);
        assert_eq!(parsed.checkout(RevId(1)).unwrap(), "r1\n");
        assert_eq!(parsed.checkout(RevId(25)).unwrap(), "r25\nshared tail\n");
    }
}
