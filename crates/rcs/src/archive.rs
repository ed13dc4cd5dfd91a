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
use crate::format;
use aide_util::time::Timestamp;
use std::fmt;
use std::sync::Arc;

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

/// Revisions per [`Chunk`]. A check-in copies the newest chunk's
/// entries, so this bounds what it copies; a walk follows one pointer
/// per chunk and reads each chunk's entries in a row.
const CHUNK: usize = 16;

/// One revision: its metadata and the reverse delta that recovers the
/// previous revision's text from this one's (`None` for the first
/// revision).
///
/// The delta sits in the chunk, so a checkout reads its chunks in a
/// row; cloning a revision copies its delta. Measured on a cold
/// checkout 60 revisions deep (aidebench cold-dig, 2-vCPU shared host):
/// one pointer per revision spent 4.5 µs finding the revision, where a
/// scan of an array of them spent 0.4 µs and chunks 1.5–1.9 µs; and
/// deltas behind pointers of their own made the checkout 36.6 µs,
/// against 30.1 µs for an array archive that a deep copy at every store
/// kept together and 31.2 µs for deltas copied with their chunk.
#[derive(Clone)]
struct Rev {
    meta: Arc<RevisionMeta>,
    back: Option<Delta>,
}

impl Rev {
    fn new(meta: RevisionMeta, back: Option<Delta>) -> Rev {
        Rev {
            meta: Arc::new(meta),
            back,
        }
    }
}

/// Up to [`CHUNK`] consecutive revisions, oldest first, and the chunk
/// of the revisions before them. Chunks never change once built, and
/// are shared between archives.
struct Chunk {
    revs: Vec<Rev>,
    prev: Option<Arc<Chunk>>,
}

impl Drop for Chunk {
    /// Unlinks the chunks this one alone holds one by one, so dropping a
    /// long history does not recurse once per chunk.
    fn drop(&mut self) {
        let mut prev = self.prev.take();
        while let Some(chunk) = prev {
            prev = match Arc::try_unwrap(chunk) {
                Ok(mut chunk) => chunk.prev.take(),
                Err(_) => None,
            };
        }
    }
}

/// One document's complete history.
///
/// The revisions sit in a chain of chunks from the head back to `1.1`,
/// and each chunk is shared: cloning an archive copies one pointer, not
/// its history. A check-in on a clone builds one new newest chunk —
/// a copy of the old newest chunk's entries plus the new revision, or
/// the new revision alone once that chunk is full — and shares every
/// other chunk with the archive it was cloned from. So a check-in
/// copies at most 15 revisions' metadata pointers and
/// deltas, at any history depth.
#[derive(Clone)]
pub struct Archive {
    /// Free-form description (AIDE stores the source URL here).
    pub(crate) description: String,
    /// The newest chunk, never empty; older ones follow its `prev` links.
    head: Arc<Chunk>,
    /// Full text of the newest revision.
    pub(crate) head_text: Arc<str>,
    /// Revisions in the chain.
    len: usize,
    /// `emit(self).len()`, kept up to date by every check-in.
    pub(crate) emit_len: usize,
}

impl PartialEq for Archive {
    fn eq(&self, other: &Archive) -> bool {
        self.len == other.len
            && self.emit_len == other.emit_len
            && self.description == other.description
            && self.head_text == other.head_text
            && self
                .chain()
                .zip(other.chain())
                .all(|((m, d), (om, od))| m == om && d == od)
    }
}

impl Eq for Archive {}

impl fmt::Debug for Archive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Archive")
            .field("description", &self.description)
            .field("metas", &self.metas())
            .field("head_text", &self.head_text)
            .finish()
    }
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
        let meta = RevisionMeta {
            id: RevId::FIRST,
            date,
            author: author.to_string(),
            log: log.to_string(),
            text_len: text.len(),
        };
        Archive::from_parts(description.to_string(), meta, Vec::new(), Arc::from(text))
    }

    /// Builds an archive from its first revision's metadata, each later
    /// revision's (oldest first) with the reverse delta that recovers its
    /// predecessor from it, and the head's text.
    pub(crate) fn from_parts(
        description: String,
        first: RevisionMeta,
        later: Vec<(RevisionMeta, Delta)>,
        head_text: Arc<str>,
    ) -> Archive {
        let len = 1 + later.len();
        let mut head = Chunk {
            revs: vec![Rev::new(first, None)],
            prev: None,
        };
        for (meta, back) in later {
            if head.revs.len() == CHUNK {
                let full = std::mem::replace(
                    &mut head,
                    Chunk {
                        revs: Vec::with_capacity(CHUNK),
                        prev: None,
                    },
                );
                head.prev = Some(Arc::new(full));
            }
            head.revs.push(Rev::new(meta, Some(back)));
        }
        let mut archive = Archive {
            description,
            head: Arc::new(head),
            head_text,
            len,
            emit_len: 0,
        };
        archive.emit_len = format::emitted_len(&archive);
        archive
    }

    /// Revisions newest first, each with the reverse delta that recovers
    /// its predecessor (`None` for the first revision).
    pub(crate) fn chain(&self) -> impl Iterator<Item = (&Arc<RevisionMeta>, Option<&Delta>)> {
        self.revs().map(|rev| (&rev.meta, rev.back.as_ref()))
    }

    /// Revisions newest first.
    fn revs(&self) -> impl Iterator<Item = &Rev> {
        std::iter::successors(Some(&*self.head), |chunk| chunk.prev.as_deref())
            .flat_map(|chunk| chunk.revs.iter().rev())
    }

    /// The newest revision.
    fn head_rev(&self) -> &Rev {
        // Chunks are never empty.
        &self.head.revs[self.head.revs.len() - 1]
    }

    /// The free-form description (AIDE stores the source URL here).
    pub fn description(&self) -> &str {
        &self.description
    }

    /// `emit(self).len()`: the bytes of this archive's `,v` text, kept
    /// up to date at every check-in, so counting them costs nothing.
    pub fn emitted_len(&self) -> usize {
        self.emit_len
    }

    /// The newest revision number.
    pub fn head(&self) -> RevId {
        self.head_rev().meta.id
    }

    /// Metadata of the newest revision.
    pub fn head_meta(&self) -> &RevisionMeta {
        &self.head_rev().meta
    }

    /// Number of revisions stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Archives always hold at least one revision.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The full text of the newest revision (free: stored directly).
    pub fn head_text(&self) -> &str {
        &self.head_text
    }

    /// Revision metadata, oldest first, collected from the chain
    /// ([`Archive::log`] walks it newest first, `rlog` order, without
    /// collecting).
    pub fn metas(&self) -> Vec<&Arc<RevisionMeta>> {
        let mut metas: Vec<_> = self.log().collect();
        metas.reverse();
        metas
    }

    /// Metadata for one revision.
    pub fn meta(&self, rev: RevId) -> Result<&RevisionMeta, ArchiveError> {
        self.revs()
            .find(|r| r.meta.id == rev)
            .map(|r| &*r.meta)
            .ok_or(ArchiveError::NoSuchRevision(rev))
    }

    /// `rlog`: revision metadata, newest first.
    pub fn log(&self) -> impl Iterator<Item = &Arc<RevisionMeta>> {
        self.chain().map(|(meta, _)| meta)
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
        if *text == *self.head_text {
            return Ok(CheckinOutcome::Unchanged(self.head()));
        }
        let head_date = self.head_meta().date;
        if date < head_date {
            return Err(ArchiveError::DateRegression {
                head: head_date,
                attempted: date,
            });
        }
        // Reverse delta: from the new text back to the current head.
        let reverse = Delta::compute(text, &self.head_text);
        let id = self.head().next();
        self.push_revision(
            RevisionMeta {
                id,
                date,
                author: author.to_string(),
                log: log.to_string(),
                text_len: text.len(),
            },
            text,
            reverse,
        );
        Ok(CheckinOutcome::NewRevision(id))
    }

    /// Makes `text` the head revision `meta`, with `reverse` recovering
    /// the old head from it, and moves the `,v` length by what `emit`
    /// writes differently: the header's head number, one delta-table
    /// entry, the old head's text block now holding a delta, and the new
    /// head's text block.
    fn push_revision(&mut self, meta: RevisionMeta, text: &str, reverse: Delta) {
        self.emit_len = self.emit_len
            + format::header_len(meta.id)
            + format::meta_entry_len(&meta)
            + format::text_block_len(&meta, format::quoted_len(text))
            + reverse.quoted_len()
            - format::header_len(self.head())
            - format::quoted_len(&self.head_text);
        let rev = Rev::new(meta, Some(reverse));
        let room = self.head.revs.len() < CHUNK;
        match Arc::get_mut(&mut self.head) {
            // No other archive shares the newest chunk: it takes the
            // revision in place.
            Some(chunk) if room => chunk.revs.push(rev),
            _ => {
                self.head = Arc::new(if room {
                    let mut revs = Vec::with_capacity(self.head.revs.len() + 1);
                    revs.extend_from_slice(&self.head.revs);
                    revs.push(rev);
                    Chunk {
                        revs,
                        prev: self.head.prev.clone(),
                    }
                } else {
                    Chunk {
                        revs: vec![rev],
                        prev: Some(self.head.clone()),
                    }
                });
            }
        }
        self.head_text = Arc::from(text);
        self.len += 1;
    }

    /// The newest check-in: the head's metadata and the reverse delta
    /// that recovers the previous head from the head text. `None` for a
    /// one-revision archive. With [`Archive::replay_checkin`] this lets a
    /// store log one revision instead of the whole archive.
    pub fn newest_checkin(&self) -> Option<(&RevisionMeta, &Delta)> {
        let head = self.head_rev();
        Some((&head.meta, head.back.as_ref()?))
    }

    /// Re-applies a check-in that [`Archive::newest_checkin`] reported on
    /// an archive equal to this one plus that revision: afterwards this
    /// archive equals that one. `meta` must name the next revision and
    /// keep dates non-decreasing; the delta is trusted, as a stored
    /// delta is at checkout.
    pub fn replay_checkin(
        &mut self,
        meta: RevisionMeta,
        head_text: &str,
        reverse: Delta,
    ) -> Result<(), ArchiveError> {
        if meta.id != self.head().next() {
            return Err(ArchiveError::Corrupt(format!(
                "check-in of {} onto head {}",
                meta.id,
                self.head()
            )));
        }
        if meta.date < self.head_meta().date || meta.text_len != head_text.len() {
            return Err(ArchiveError::Corrupt(format!(
                "check-in of {} does not follow head {}",
                meta.id,
                self.head()
            )));
        }
        self.push_revision(meta, head_text, reverse);
        Ok(())
    }

    /// True if this archive is `base` with one revision checked in on
    /// top of `base`'s own chunks (as a check-in on a clone of `base`
    /// leaves it).
    pub fn is_checkin_of(&self, base: &Archive) -> bool {
        let same = |a: &Option<Arc<Chunk>>, b: Option<&Arc<Chunk>>| match (a, b) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        };
        let shares_base = match self.head.revs.split_last() {
            // A new chunk in front of the base's full one...
            Some((_, [])) => same(&self.head.prev, Some(&base.head)),
            // ...or a copy of the base's newest chunk, plus one.
            Some((_, older)) => {
                same(&self.head.prev, base.head.prev.as_ref())
                    && older.len() == base.head.revs.len()
                    && older
                        .iter()
                        .zip(&base.head.revs)
                        .all(|(a, b)| Arc::ptr_eq(&a.meta, &b.meta))
            }
            None => false,
        };
        self.len == base.len + 1 && self.description == base.description && shares_base
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
        // The deltas from the head back to `rev`, then oldest first.
        let mut deltas = Vec::new();
        for r in self.revs() {
            if r.meta.id == rev {
                deltas.reverse();
                // Deltas applied, i.e. the checkout's distance from the head.
                aide_obs::observe!("rcs.checkout.chain", deltas.len() as u64);
                return Ok(Delta::apply_chain(&self.head_text, &deltas, |_, _| {})?);
            }
            deltas.extend(r.back.as_ref());
        }
        Err(ArchiveError::NoSuchRevision(rev))
    }

    /// Checks out the revision in force at `date` (`co -d`): the newest
    /// revision whose check-in date is `<= date`.
    pub fn checkout_at(&self, date: Timestamp) -> Result<(RevId, String), ArchiveError> {
        let rev = self
            .revs()
            .find(|r| r.meta.date <= date)
            .map(|r| r.meta.id)
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
        // Newest first, so `<=` leaves the earliest of equally near ones.
        let mut best = self.head_rev();
        for r in self.revs() {
            if r.meta.date.0.abs_diff(date.0) <= best.meta.date.0.abs_diff(date.0) {
                best = r;
            }
        }
        (best.meta.id, best.meta.date)
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
        let revisions: usize = self
            .chain()
            .map(|(m, back)| m.author.len() + m.log.len() + 64 + back.map_or(0, Delta::byte_size))
            .sum();
        self.head_text.len() + revisions + self.description.len()
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
        let ids: Vec<RevId> = a.log().map(|m| m.id).collect();
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
        let meta = |i: u32| RevisionMeta {
            id: RevId(i + 1),
            date: t(u64::from(i)),
            author: "a".into(),
            log: "l".into(),
            text_len: 0,
        };
        let later = (1..).map(meta).zip(reverse_deltas).collect();
        Archive::from_parts("d".into(), meta(0), later, head.into())
    }

    #[test]
    fn long_histories_clone_compare_and_drop_without_recursing() {
        // Deep enough that one stack frame per chunk would overflow a
        // test thread's stack.
        let a = hand_built("x\n", vec![Delta::default(); 200_000]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.head, &b.head), "a clone shares the chunks");
        assert_eq!(a, hand_built("x\n", vec![Delta::default(); 200_000]));
        drop(a);
        assert_eq!(b.len(), 200_001);
        assert_eq!(b.checkout(RevId(1)).unwrap(), "x\n");
    }

    #[test]
    fn checkins_across_chunk_boundaries_share_and_replay() {
        let page = |i: usize| format!("title\nrevision {i}\nbody\n");
        let mut a = Archive::create("d", &page(1), "me", "r1", t(0));
        // Never cloned, so its check-ins fill its newest chunk in place.
        let mut alone = a.clone();
        for i in 2..=2 * CHUNK + 2 {
            alone.checkin(&page(i), "me", "edit", t(i as u64)).unwrap();
            let base = a.clone();
            a.checkin(&page(i), "me", "edit", t(i as u64)).unwrap();
            assert!(a.is_checkin_of(&base), "revision {i}");
            assert!(!base.is_checkin_of(&a));
            // A check-in on another clone of the base is one too, but not
            // of the first check-in's result.
            let mut fork = base.clone();
            fork.checkin("fork\n", "me", "fork", t(i as u64)).unwrap();
            assert!(fork.is_checkin_of(&base));
            assert!(!fork.is_checkin_of(&a));
            // A parsed copy holds the same history in chunks of its own.
            let copy = crate::format::parse(&crate::format::emit(&base)).unwrap();
            assert_eq!(copy, base);
            assert!(!a.is_checkin_of(&copy), "revision {i}: not shared");
            let mut replayed = copy;
            let (meta, delta) = a.newest_checkin().unwrap();
            replayed
                .replay_checkin(meta.clone(), a.head_text(), delta.clone())
                .unwrap();
            assert_eq!(replayed, a);
        }
        assert_eq!(a.len(), 2 * CHUNK + 2);
        assert_eq!(alone, a);
        assert_checkouts_match_chained(&alone);
        assert_eq!(a.meta(RevId(CHUNK as u32)).unwrap().log, "edit");
        assert_eq!(
            a.checkout_at(t(CHUNK as u64 + 1)).unwrap().1,
            page(CHUNK + 1)
        );
    }

    /// Reference checkout: one whole-text `Delta::apply` per delta.
    fn chained_apply(a: &Archive, rev: RevId) -> Result<String, DeltaError> {
        let mut text = a.head_text.to_string();
        let newest_first = a.chain().filter_map(|(_, back)| back);
        for d in newest_first.take(a.len() - rev.0 as usize) {
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
