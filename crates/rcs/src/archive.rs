//! A single document's revision history.
//!
//! Like an RCS `,v` file: the newest revision ("head") is stored in full;
//! every older revision is a reverse delta off its successor, so frequent
//! small edits cost little ("except for pages that change in many respects
//! at once, the storage overhead is minimal", §4.1). Revisions are
//! numbered `1.1`, `1.2`, … on a single trunk, carry an author, a
//! datestamp and a log message, and can be fetched by number or by date —
//! the "time travel" §2.2 compares to 3DFS.

use crate::delta::{Delta, DeltaError};
use aide_util::time::Timestamp;
use std::fmt;

/// A trunk revision number, rendered `1.<n>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RevId(pub u32);

impl RevId {
    /// The first revision, `1.1`.
    pub const FIRST: RevId = RevId(1);

    /// The next revision number.
    pub fn next(self) -> RevId {
        RevId(self.0 + 1)
    }

    /// Parses `1.<n>`.
    pub fn parse(s: &str) -> Option<RevId> {
        let rest = s.trim().strip_prefix("1.")?;
        rest.parse::<u32>().ok().filter(|&n| n > 0).map(RevId)
    }
}

impl fmt::Display for RevId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "1.{}", self.0)
    }
}

/// Metadata of one revision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevisionMeta {
    /// The revision number.
    pub id: RevId,
    /// Check-in time.
    pub date: Timestamp,
    /// Who checked it in (an email-style identifier in AIDE).
    pub author: String,
    /// Log message.
    pub log: String,
    /// Byte length of the revision's full text (computed at check-in; RCS
    /// itself does not store this, but the storage experiments want it).
    pub text_len: usize,
}

/// Result of a check-in attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckinOutcome {
    /// A new revision was created.
    NewRevision(RevId),
    /// The text was identical to the head; nothing was stored ("the RCS
    /// ci command ensures that it is not saved if it is unchanged", §6).
    Unchanged(RevId),
}

impl CheckinOutcome {
    /// The revision the text now corresponds to, either way.
    pub fn rev(&self) -> RevId {
        match self {
            CheckinOutcome::NewRevision(r) | CheckinOutcome::Unchanged(r) => *r,
        }
    }

    /// True if a new revision was created.
    pub fn is_new(&self) -> bool {
        matches!(self, CheckinOutcome::NewRevision(_))
    }
}

/// Errors from archive operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchiveError {
    /// The requested revision does not exist.
    NoSuchRevision(RevId),
    /// No revision existed at the requested date.
    NothingAtDate(Timestamp),
    /// A stored delta failed to apply — archive corruption.
    Corrupt(String),
    /// Check-in dates must be non-decreasing along the trunk.
    DateRegression {
        /// Date of the current head.
        head: Timestamp,
        /// The offending earlier date.
        attempted: Timestamp,
    },
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::NoSuchRevision(r) => write!(f, "no such revision {r}"),
            ArchiveError::NothingAtDate(t) => {
                write!(f, "no revision existed at {}", t.to_rcs_date())
            }
            ArchiveError::Corrupt(m) => write!(f, "corrupt archive: {m}"),
            ArchiveError::DateRegression { head, attempted } => write!(
                f,
                "check-in date {} precedes head date {}",
                attempted.to_rcs_date(),
                head.to_rcs_date()
            ),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<DeltaError> for ArchiveError {
    fn from(e: DeltaError) -> Self {
        ArchiveError::Corrupt(e.to_string())
    }
}

/// One document's complete history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Archive {
    /// Free-form description (AIDE stores the source URL here).
    pub description: String,
    /// Metadata for every revision, oldest first. Non-empty.
    pub(crate) metas: Vec<RevisionMeta>,
    /// Full text of the newest revision.
    pub(crate) head_text: String,
    /// `reverse_deltas[k]` transforms revision `k+2`'s text into revision
    /// `k+1`'s text (0-based: delta k recovers `metas[k]` from
    /// `metas[k+1]`). Length is `metas.len() - 1`.
    pub(crate) reverse_deltas: Vec<Delta>,
}

impl Archive {
    /// Creates an archive with an initial revision (`ci` of a new file).
    ///
    /// # Examples
    ///
    /// ```
    /// use aide_rcs::archive::{Archive, RevId};
    /// use aide_util::time::Timestamp;
    ///
    /// let a = Archive::create(
    ///     "http://www.usenix.org/",
    ///     "<HTML>v1</HTML>\n",
    ///     "douglis@research.att.com",
    ///     "initial snapshot",
    ///     Timestamp::from_ymd_hms(1995, 9, 29, 12, 0, 0),
    /// );
    /// assert_eq!(a.head(), RevId(1));
    /// ```
    pub fn create(
        description: &str,
        text: &str,
        author: &str,
        log: &str,
        date: Timestamp,
    ) -> Archive {
        Archive {
            description: description.to_string(),
            metas: vec![RevisionMeta {
                id: RevId::FIRST,
                date,
                author: author.to_string(),
                log: log.to_string(),
                text_len: text.len(),
            }],
            head_text: text.to_string(),
            reverse_deltas: Vec::new(),
        }
    }

    /// The newest revision number.
    #[expect(
        clippy::expect_used,
        reason = "archives hold at least one revision by construction (see `is_empty`)"
    )]
    pub fn head(&self) -> RevId {
        self.metas.last().expect("archive never empty").id
    }

    /// Number of revisions stored.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Archives always hold at least one revision.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The full text of the newest revision (free: stored directly).
    pub fn head_text(&self) -> &str {
        &self.head_text
    }

    /// Revision metadata, oldest first (`rlog` order is newest first; see
    /// [`Archive::log`]).
    pub fn metas(&self) -> &[RevisionMeta] {
        &self.metas
    }

    /// Metadata for one revision.
    pub fn meta(&self, rev: RevId) -> Result<&RevisionMeta, ArchiveError> {
        self.metas
            .iter()
            .find(|m| m.id == rev)
            .ok_or(ArchiveError::NoSuchRevision(rev))
    }

    /// `rlog`: revision metadata, newest first.
    pub fn log(&self) -> Vec<&RevisionMeta> {
        self.metas.iter().rev().collect()
    }

    /// Checks in `text` as a new head revision (`ci`).
    ///
    /// If `text` equals the current head, nothing is stored and
    /// [`CheckinOutcome::Unchanged`] reports the existing head revision.
    /// Dates must be non-decreasing; the paper notes the next version of
    /// snapshot dropped pure date addressing precisely because
    /// "timestamps provided for a page do not increase monotonically" —
    /// the archive enforces monotonicity at the check-in level instead.
    pub fn checkin(
        &mut self,
        text: &str,
        author: &str,
        log: &str,
        date: Timestamp,
    ) -> Result<CheckinOutcome, ArchiveError> {
        if text == self.head_text {
            return Ok(CheckinOutcome::Unchanged(self.head()));
        }
        #[expect(
            clippy::expect_used,
            reason = "archives hold at least one revision by construction (see `is_empty`)"
        )]
        let head_meta = self.metas.last().expect("archive never empty");
        if date < head_meta.date {
            return Err(ArchiveError::DateRegression {
                head: head_meta.date,
                attempted: date,
            });
        }
        // Reverse delta: from the new text back to the current head.
        let reverse = Delta::compute(text, &self.head_text);
        self.reverse_deltas.push(reverse);
        let id = self.head().next();
        self.metas.push(RevisionMeta {
            id,
            date,
            author: author.to_string(),
            log: log.to_string(),
            text_len: text.len(),
        });
        self.head_text = text.to_string();
        Ok(CheckinOutcome::NewRevision(id))
    }

    /// Checks out the full text of `rev` (`co -r`).
    ///
    /// The head is one copy of the stored text. An older revision walks
    /// the reverse-delta chain back from the head in line space (see
    /// [`Delta::apply_lines`]): the head is split into lines once, each
    /// delta copies line references plus its own added lines, and the
    /// page is joined once at the end. So a step costs the lines it
    /// touches plus one pointer per line, not a copy of the page, and
    /// history depth adds little to the one split and one join every
    /// non-head checkout pays.
    pub fn checkout(&self, rev: RevId) -> Result<String, ArchiveError> {
        let pos = self
            .metas
            .iter()
            .position(|m| m.id == rev)
            .ok_or(ArchiveError::NoSuchRevision(rev))?;
        // Deltas applied, i.e. the checkout's distance from the head.
        aide_obs::observe!(
            "rcs.checkout.chain",
            (self.reverse_deltas.len() - pos) as u64,
        );
        Ok(Delta::apply_chain(
            &self.head_text,
            &self.reverse_deltas[pos..],
            |_, _| {},
        )?)
    }

    /// Checks out the revision in force at `date` (`co -d`): the newest
    /// revision whose check-in date is `<= date`.
    pub fn checkout_at(&self, date: Timestamp) -> Result<(RevId, String), ArchiveError> {
        let rev = self
            .metas
            .iter()
            .rev()
            .find(|m| m.date <= date)
            .map(|m| m.id)
            .ok_or(ArchiveError::NothingAtDate(date))?;
        Ok((rev, self.checkout(rev)?))
    }

    /// The revision *closest* to `date`, Memento TimeGate style
    /// (RFC 7089 §4.5.3): dates before the first revision clamp to the
    /// first, dates after the last clamp to the last, anything between
    /// picks whichever neighbour is nearer in time — the earlier one on
    /// an exact tie. Unlike [`Archive::checkout_at`] this never fails:
    /// archives hold at least one revision by construction.
    pub fn closest_to(&self, date: Timestamp) -> (RevId, Timestamp) {
        let mut best = &self.metas[0];
        for m in &self.metas {
            let d_best = best.date.0.abs_diff(date.0);
            let d_m = m.date.0.abs_diff(date.0);
            if d_m < d_best {
                best = m;
            }
        }
        (best.id, best.date)
    }

    /// `rcsdiff`: the delta transforming `from`'s text into `to`'s.
    pub fn diff(&self, from: RevId, to: RevId) -> Result<Delta, ArchiveError> {
        let a = self.checkout(from)?;
        let b = self.checkout(to)?;
        Ok(Delta::compute(&a, &b))
    }

    /// Approximate storage footprint in bytes: head text plus all stored
    /// deltas plus metadata — what the §7 disk-usage experiment measures.
    pub fn byte_size(&self) -> usize {
        let meta: usize = self
            .metas
            .iter()
            .map(|m| m.author.len() + m.log.len() + 64)
            .sum();
        self.head_text.len()
            + self
                .reverse_deltas
                .iter()
                .map(Delta::byte_size)
                .sum::<usize>()
            + meta
            + self.description.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Edit;
    use proptest::prelude::*;

    fn t(day: u64) -> Timestamp {
        Timestamp::from_ymd_hms(1995, 9, 1, 0, 0, 0) + aide_util::time::Duration::days(day)
    }

    fn sample() -> Archive {
        let mut a = Archive::create("http://x/", "v1 line\ncommon\n", "alice", "first", t(0));
        a.checkin("v2 line\ncommon\n", "bob", "second", t(1))
            .unwrap();
        a.checkin("v3 line\ncommon\nextra\n", "alice", "third", t(2))
            .unwrap();
        a
    }

    #[test]
    fn create_and_head() {
        let a = Archive::create("d", "text\n", "me", "log", t(0));
        assert_eq!(a.head(), RevId(1));
        assert_eq!(a.len(), 1);
        assert_eq!(a.head_text(), "text\n");
    }

    #[test]
    fn checkin_advances_head() {
        let a = sample();
        assert_eq!(a.head(), RevId(3));
        assert_eq!(a.len(), 3);
        assert_eq!(a.head_text(), "v3 line\ncommon\nextra\n");
    }

    #[test]
    fn unchanged_checkin_stores_nothing() {
        let mut a = sample();
        let before = a.len();
        let out = a
            .checkin("v3 line\ncommon\nextra\n", "carol", "noop", t(3))
            .unwrap();
        assert_eq!(out, CheckinOutcome::Unchanged(RevId(3)));
        assert_eq!(a.len(), before);
    }

    #[test]
    fn checkout_every_revision() {
        let a = sample();
        assert_eq!(a.checkout(RevId(1)).unwrap(), "v1 line\ncommon\n");
        assert_eq!(a.checkout(RevId(2)).unwrap(), "v2 line\ncommon\n");
        assert_eq!(a.checkout(RevId(3)).unwrap(), "v3 line\ncommon\nextra\n");
        assert!(matches!(
            a.checkout(RevId(9)),
            Err(ArchiveError::NoSuchRevision(_))
        ));
    }

    #[test]
    fn checkout_by_date() {
        let a = sample();
        assert_eq!(a.checkout_at(t(0)).unwrap().0, RevId(1));
        // Between rev 2 and rev 3.
        assert_eq!(
            a.checkout_at(t(1) + aide_util::time::Duration::hours(5))
                .unwrap()
                .0,
            RevId(2)
        );
        assert_eq!(a.checkout_at(t(10)).unwrap().0, RevId(3));
        assert!(matches!(
            a.checkout_at(Timestamp::EPOCH),
            Err(ArchiveError::NothingAtDate(_))
        ));
    }

    #[test]
    fn closest_to_clamps_and_picks_nearest() {
        let a = sample(); // revisions at t(0), t(1), t(2)
                          // Before the first revision: clamp to the first (RFC 7089).
        assert_eq!(a.closest_to(Timestamp::EPOCH), (RevId(1), t(0)));
        // After the last: clamp to the last.
        assert_eq!(a.closest_to(t(30)), (RevId(3), t(2)));
        // Exact match wins outright.
        assert_eq!(a.closest_to(t(1)), (RevId(2), t(1)));
        // Between revisions: the nearer neighbour...
        assert_eq!(
            a.closest_to(t(1) + aide_util::time::Duration::hours(2)),
            (RevId(2), t(1))
        );
        assert_eq!(
            a.closest_to(t(2) - aide_util::time::Duration::hours(2)),
            (RevId(3), t(2))
        );
        // ...and the earlier one on a dead-centre tie.
        assert_eq!(
            a.closest_to(t(1) + aide_util::time::Duration::hours(12)),
            (RevId(2), t(1))
        );
    }

    #[test]
    fn date_regression_rejected() {
        let mut a = sample();
        let err = a.checkin("newer\n", "x", "l", t(0)).unwrap_err();
        assert!(matches!(err, ArchiveError::DateRegression { .. }));
    }

    #[test]
    fn equal_date_checkin_allowed() {
        let mut a = sample();
        assert!(a
            .checkin("same day edit\n", "x", "l", t(2))
            .unwrap()
            .is_new());
    }

    #[test]
    fn log_is_newest_first() {
        let a = sample();
        let ids: Vec<RevId> = a.log().iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![RevId(3), RevId(2), RevId(1)]);
    }

    #[test]
    fn diff_between_revisions() {
        let a = sample();
        let d = a.diff(RevId(1), RevId(3)).unwrap();
        assert_eq!(
            d.apply("v1 line\ncommon\n").unwrap(),
            "v3 line\ncommon\nextra\n"
        );
        let d_self = a.diff(RevId(2), RevId(2)).unwrap();
        assert!(d_self.is_empty());
    }

    #[test]
    fn storage_grows_sublinearly_for_small_edits() {
        // 50 revisions of a 100-line page, one line changed per revision:
        // reverse-delta storage must be far below 50 full copies.
        let base: Vec<String> = (0..100)
            .map(|i| format!("line {i} stable content here\n"))
            .collect();
        let mut a = Archive::create("u", &base.concat(), "w", "init", t(0));
        for rev in 1..50u64 {
            let mut lines = base.clone();
            lines[(rev as usize * 7) % 100] = format!("edited at revision {rev}\n");
            a.checkin(&lines.concat(), "w", "edit", t(rev)).unwrap();
        }
        let full_copies = 50 * base.concat().len();
        assert!(
            a.byte_size() < full_copies / 5,
            "archive {} bytes vs {} for full copies",
            a.byte_size(),
            full_copies
        );
    }

    #[test]
    fn rev_id_parse_and_display() {
        assert_eq!(RevId::parse("1.7"), Some(RevId(7)));
        assert_eq!(RevId::parse(" 1.1 "), Some(RevId(1)));
        assert_eq!(RevId::parse("2.1"), None);
        assert_eq!(RevId::parse("1.0"), None);
        assert_eq!(RevId::parse("1."), None);
        assert_eq!(RevId(12).to_string(), "1.12");
    }

    #[test]
    fn meta_lookup() {
        let a = sample();
        assert_eq!(a.meta(RevId(2)).unwrap().author, "bob");
        assert!(a.meta(RevId(99)).is_err());
    }

    /// An archive whose history is `head` plus hand-written reverse
    /// deltas, which need not be ones [`Delta::compute`] would produce.
    fn hand_built(head: &str, reverse_deltas: Vec<Delta>) -> Archive {
        let metas = (0..=reverse_deltas.len() as u32)
            .map(|i| RevisionMeta {
                id: RevId(i + 1),
                date: t(u64::from(i)),
                author: "a".into(),
                log: "l".into(),
                text_len: 0,
            })
            .collect();
        Archive {
            description: "d".into(),
            metas,
            head_text: head.into(),
            reverse_deltas,
        }
    }

    /// Reference checkout: one whole-text `Delta::apply` per delta.
    fn chained_apply(a: &Archive, rev: RevId) -> Result<String, DeltaError> {
        let mut text = a.head_text.clone();
        for d in a.reverse_deltas[rev.0 as usize - 1..].iter().rev() {
            text = d.apply(&text)?;
        }
        Ok(text)
    }

    /// Checks every revision of `a` out both ways: equal texts, or both
    /// fail with the checkout reporting corruption.
    fn assert_checkouts_match_chained(a: &Archive) {
        for m in a.metas() {
            match (a.checkout(m.id), chained_apply(a, m.id)) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "revision {}", m.id),
                (Err(ArchiveError::Corrupt(_)), Err(_)) => {}
                (got, want) => panic!("revision {}: {got:?} vs {want:?}", m.id),
            }
        }
    }

    fn add(line: usize, lines: &[&str]) -> Edit {
        Edit::Add {
            line,
            lines: lines.iter().map(|l| l.to_string()).collect(),
        }
    }

    fn delta(edits: Vec<Edit>) -> Delta {
        Delta { edits }
    }

    #[test]
    fn malformed_deltas_check_out_like_chained_apply() {
        let del = |line, count| Edit::Delete { line, count };
        // Each newest delta leaves a line list that is not the split of
        // its text; the older one then edits by line number, so reusing
        // the unsplit list would pick the wrong lines or miss a failure.
        let cases = [
            // An empty added line: "a\nx\nb\n" is three lines, not four.
            ("a\nb\n", vec![add(1, &["", "x\n"])], del(3, 1)),
            ("a\nb\n", vec![add(1, &["", "x\n"])], del(4, 1)),
            // An unterminated added line mid-text joins the next line.
            ("a\nb\n", vec![add(1, &["x"])], del(2, 1)),
            ("a\nb\nc\n", vec![add(1, &["x"])], add(3, &["z\n"])),
            // An add after an unterminated last line extends that line.
            ("a\nb", vec![add(2, &["c\n"])], del(2, 1)),
            ("a\nb", vec![add(2, &["c\n", "d"])], add(3, &["e\n"])),
            ("a\nb", vec![del(1, 1), add(2, &["c\n"])], del(2, 1)),
            // An empty last line: "a\n" is one line, not two.
            ("a\n", vec![add(1, &[""])], add(2, &["z\n"])),
        ];
        for (head, newest, older) in cases {
            let a = hand_built(head, vec![delta(vec![older]), delta(newest)]);
            assert_checkouts_match_chained(&a);
        }
        // A fallback mid-chain still finishes the older deltas.
        let a = hand_built(
            "a\nb\nc\n",
            vec![
                delta(vec![del(1, 1)]),
                delta(vec![add(0, &["top\n"])]),
                delta(vec![add(1, &["", "x"])]),
                delta(vec![del(3, 1)]),
            ],
        );
        assert_checkouts_match_chained(&a);
        assert_eq!(a.checkout(RevId(1)).unwrap(), "a\nxb\n");
    }

    #[test]
    fn corrupt_deltas_report_corruption() {
        let a = hand_built(
            "a\nb\n",
            vec![
                delta(vec![Edit::Delete { line: 0, count: 1 }]),
                delta(vec![Edit::Delete { line: 9, count: 1 }]),
                delta(vec![
                    Edit::Delete { line: 2, count: 1 },
                    Edit::Delete { line: 1, count: 1 },
                ]),
                delta(vec![add(5, &["x\n"])]),
            ],
        );
        for rev in 1..=4 {
            assert!(matches!(
                a.checkout(RevId(rev)),
                Err(ArchiveError::Corrupt(_))
            ));
        }
        assert_eq!(a.checkout(RevId(5)).unwrap(), "a\nb\n");
    }

    fn edit_strategy() -> impl Strategy<Value = Edit> {
        let line = prop_oneof![Just("x\n"), Just("y\n"), Just(""), Just("z"), Just("@\n")];
        prop_oneof![
            (0usize..4, 0usize..3).prop_map(|(line, count)| Edit::Delete { line, count }),
            (0usize..4, proptest::collection::vec(line, 0..3))
                .prop_map(|(at, lines)| { add(at, &lines) }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        /// Random hand-built chains — mostly malformed, often corrupt —
        /// check out exactly as whole-text chained applies do.
        #[test]
        fn random_chains_check_out_like_chained_apply(
            head in prop_oneof![Just(""), Just("a\n"), Just("a\nb\nc\n"), Just("a\nb\nc")],
            chain in proptest::collection::vec(proptest::collection::vec(edit_strategy(), 0..3), 1..5),
        ) {
            let mut chain: Vec<Delta> = chain.into_iter().map(delta).collect();
            for d in &mut chain {
                d.edits.sort_by_key(|e| match e {
                    Edit::Delete { line, .. } | Edit::Add { line, .. } => *line,
                });
            }
            assert_checkouts_match_chained(&hand_built(head, chain));
        }
    }

    #[test]
    fn text_len_recorded() {
        let a = sample();
        assert_eq!(
            a.meta(RevId(1)).unwrap().text_len,
            "v1 line\ncommon\n".len()
        );
        assert_eq!(a.meta(RevId(3)).unwrap().text_len, a.head_text().len());
    }
}
