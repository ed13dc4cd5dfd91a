//! Rate-book persistence through the `Repository` seam.
//!
//! Estimator state is expensive to re-learn — a URL polled weekly takes
//! months to converge — so it must survive restarts. Rather than invent
//! a file format and a durability story, the serialized book
//! ([`crate::estimator::RateBook::emit`]) is checked into an RCS
//! [`Archive`] stored under a reserved repository key: the disk backend
//! then gives it the same WAL + crash-recovery guarantees as every
//! archived page, for free, and operators can read the history of rate
//! snapshots with the ordinary log/checkout tooling.
//!
//! Callers already holding the scheduler's `sched`-ranked lock may call
//! [`save`]/[`load`] directly: the store's shard lock ranks above
//! `sched` in the workspace table, so the nesting is legal.

use crate::estimator::{PriorRules, RateBook, RateParseError};
use aide_rcs::archive::{Archive, ArchiveError};
use aide_rcs::repo::{RepoError, Repository};
use aide_util::time::Timestamp;
use std::fmt;
use std::sync::Arc;

/// The reserved repository key for scheduler rate state. The `aide:`
/// scheme cannot collide with tracked page URLs.
pub const RATE_BOOK_KEY: &str = "aide:sched/rate-book";

/// Author recorded on rate-book check-ins.
const AUTHOR: &str = "aide-sched";

/// Error from [`save`]/[`load`].
#[derive(Debug)]
pub enum PersistError {
    /// The repository failed.
    Repo(RepoError),
    /// The archive rejected the check-in (e.g. clock regression).
    Archive(ArchiveError),
    /// A stored book failed to parse.
    Parse(RateParseError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Repo(e) => write!(f, "rate book repository: {e}"),
            PersistError::Archive(e) => write!(f, "rate book archive: {e}"),
            PersistError::Parse(e) => write!(f, "rate book: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<RepoError> for PersistError {
    fn from(e: RepoError) -> Self {
        PersistError::Repo(e)
    }
}

impl From<ArchiveError> for PersistError {
    fn from(e: ArchiveError) -> Self {
        PersistError::Archive(e)
    }
}

/// Checks the book into the repository under [`RATE_BOOK_KEY`] as a new
/// revision (or the initial one), dated `now`. An unchanged book adds no
/// revision and writes nothing. A new revision goes through
/// [`Repository::store_checkin`], the path a Remember takes, so the
/// store writes only that revision.
pub fn save(book: &RateBook, repo: &dyn Repository, now: Timestamp) -> Result<(), PersistError> {
    let text = book.emit();
    let log = format!("rate snapshot: {} urls", book.len());
    match repo.load(RATE_BOOK_KEY)? {
        Some(existing) => {
            let mut archive = (*existing).clone();
            if archive.checkin(&text, AUTHOR, &log, now)?.is_new() {
                repo.store_checkin(RATE_BOOK_KEY, &existing, Arc::new(archive))?;
            }
        }
        None => repo.store(
            RATE_BOOK_KEY,
            &Archive::create(RATE_BOOK_KEY, &text, AUTHOR, &log, now),
        )?,
    }
    Ok(())
}

/// Loads the newest rate snapshot, or an empty book with the given
/// priors if none was ever saved. Priors are configuration and come
/// from the caller, not the store.
pub fn load(repo: &dyn Repository, priors: PriorRules) -> Result<RateBook, PersistError> {
    match repo.load(RATE_BOOK_KEY)? {
        Some(archive) => RateBook::parse(archive.head_text(), priors).map_err(PersistError::Parse),
        None => Ok(RateBook::new(priors)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_rcs::repo::MemRepository;
    use aide_util::time::Duration;

    #[test]
    fn roundtrip_and_history() {
        let repo = MemRepository::new();
        let mut book = RateBook::default();
        let mut t = Timestamp(800_000_000);
        book.observe("http://a.example/", false, t);
        save(&book, &repo, t).unwrap();

        for i in 0..5u64 {
            t = t + Duration::hours(6 + i);
            book.observe("http://a.example/", i % 2 == 0, t);
            save(&book, &repo, t).unwrap();
        }

        let loaded = load(&repo, PriorRules::default()).unwrap();
        assert_eq!(loaded.emit(), book.emit());

        // Snapshots accumulate as ordinary revision history.
        let archive = repo.load(RATE_BOOK_KEY).unwrap().unwrap();
        assert!(archive.metas().len() >= 2);
    }

    #[test]
    fn missing_book_falls_back_to_priors() {
        let repo = MemRepository::new();
        let mut loaded = load(&repo, PriorRules::default()).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(
            loaded.rate("http://x/").rate_nanohz(),
            crate::estimator::RatePrior::WEEKLY.mean_nanohz()
        );
    }

    #[test]
    fn reserved_key_cannot_collide_with_page_urls() {
        assert!(!RATE_BOOK_KEY.starts_with("http"));
        assert!(RATE_BOOK_KEY.starts_with("aide:"));
    }
}
