//! User-specified URL prioritization (§7's "information overload" fix).
//!
//! "Merely sorting URLs by most recent modification dates is not
//! satisfactory when the number of URLs grows into the hundreds.
//! Instead, we are moving toward a user-specified prioritization of URLs
//! along the lines of the Tapestry system, which prioritizes email and
//! NetNews automatically." The paper left this unimplemented; this
//! module implements it: a pattern→priority file, combined with recency
//! into a ranking over report entries. The file is a [`Rules`] list over
//! [`Priority`] words, so it is parsed by the same code as the threshold
//! file and users learn one syntax.

use crate::checker::{UrlReport, UrlStatus};
use aide_util::pattern::Rules;
use aide_util::time::Timestamp;
use std::str::FromStr;

/// Priority levels, Tapestry-style, ordered from least to most urgent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Never show in the ranked section (but still listed at the end).
    Suppress,
    /// Background interest.
    Low,
    /// Default.
    #[default]
    Normal,
    /// Important to this user.
    High,
    /// Show first, always.
    Urgent,
}

impl FromStr for Priority {
    type Err = String;

    /// Parses `urgent`/`high`/`normal`/`low`/`suppress` (any case).
    fn from_str(s: &str) -> Result<Priority, String> {
        match s.to_ascii_lowercase().as_str() {
            "urgent" => Ok(Priority::Urgent),
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            "suppress" => Ok(Priority::Suppress),
            _ => Err(format!("unknown priority {s:?}")),
        }
    }
}

/// The priority file: pattern rules plus a `Default` priority
/// (`normal` unless the file says otherwise).
///
/// # Examples
///
/// ```
/// use aide_w3newer::priority::{Priority, PriorityConfig};
///
/// let cfg = PriorityConfig::parse(
///     "http://.*\\.att\\.com/.* urgent\nhttp://www\\.yahoo\\.com/.* low\nDefault normal\n",
/// ).unwrap();
/// assert_eq!(cfg.lookup("http://www.att.com/x"), Priority::Urgent);
/// assert_eq!(cfg.lookup("http://elsewhere/"), Priority::Normal);
/// ```
pub type PriorityConfig = Rules<Priority>;

/// A report entry with its computed rank.
#[derive(Debug, Clone)]
pub struct RankedEntry<'a> {
    /// The underlying report entry.
    pub entry: &'a UrlReport,
    /// Its priority class.
    pub priority: Priority,
}

/// Ranks the *changed* entries of a report: priority class first, then
/// recency of modification; suppressed entries are returned separately.
pub fn rank_changed<'a>(
    entries: &'a [UrlReport],
    config: &PriorityConfig,
) -> (Vec<RankedEntry<'a>>, Vec<&'a UrlReport>) {
    let mut ranked = Vec::new();
    let mut suppressed = Vec::new();
    for entry in entries {
        if !entry.status.is_changed() {
            continue;
        }
        let priority = config.lookup(&entry.url);
        if priority == Priority::Suppress {
            suppressed.push(entry);
        } else {
            ranked.push(RankedEntry { entry, priority });
        }
    }
    ranked.sort_by(|a, b| {
        b.priority
            .cmp(&a.priority)
            .then_with(|| modified_of(b.entry).cmp(&modified_of(a.entry)))
            .then_with(|| a.entry.url.cmp(&b.entry.url))
    });
    (ranked, suppressed)
}

fn modified_of(e: &UrlReport) -> Option<Timestamp> {
    match &e.status {
        UrlStatus::Changed { modified, .. } => *modified,
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CheckSource;

    fn changed(url: &str, t: u64) -> UrlReport {
        UrlReport {
            url: url.to_string(),
            title: url.to_string(),
            status: UrlStatus::Changed {
                modified: Some(Timestamp(t)),
                source: CheckSource::Head,
            },
            last_visited: None,
        }
    }

    fn unchanged(url: &str) -> UrlReport {
        UrlReport {
            url: url.to_string(),
            title: url.to_string(),
            status: UrlStatus::Unchanged {
                source: CheckSource::Head,
            },
            last_visited: None,
        }
    }

    fn config() -> PriorityConfig {
        PriorityConfig::default()
            .rule(r"http://work\..*", Priority::Urgent)
            .unwrap()
            .rule(r"http://fun\..*", Priority::Low)
            .unwrap()
            .rule(r"http://noise\..*", Priority::Suppress)
            .unwrap()
    }

    #[test]
    fn priority_beats_recency() {
        let entries = vec![
            changed("http://fun.example/new", 9_000),
            changed("http://work.example/old", 1_000),
        ];
        let (ranked, _) = rank_changed(&entries, &config());
        assert_eq!(ranked[0].entry.url, "http://work.example/old");
        assert_eq!(ranked[0].priority, Priority::Urgent);
    }

    #[test]
    fn recency_breaks_ties_within_class() {
        let entries = vec![
            changed("http://a.example/older", 1_000),
            changed("http://b.example/newer", 2_000),
        ];
        let (ranked, _) = rank_changed(&entries, &config());
        assert_eq!(ranked[0].entry.url, "http://b.example/newer");
    }

    #[test]
    fn suppressed_split_out() {
        let entries = vec![
            changed("http://noise.example/counter", 9_999),
            changed("http://a.example/real", 1),
        ];
        let (ranked, suppressed) = rank_changed(&entries, &config());
        assert_eq!(ranked.len(), 1);
        assert_eq!(suppressed.len(), 1);
        assert_eq!(suppressed[0].url, "http://noise.example/counter");
    }

    #[test]
    fn unchanged_entries_ignored() {
        let entries = vec![unchanged("http://work.example/x"), changed("http://a/", 1)];
        let (ranked, suppressed) = rank_changed(&entries, &config());
        assert_eq!(ranked.len(), 1);
        assert!(suppressed.is_empty());
    }

    #[test]
    fn parse_file_format() {
        // The format itself is `Rules`'s (aide_util::pattern tests); this
        // checks the priority column: words in any case, `Default` too.
        let cfg =
            PriorityConfig::parse("Default low\nhttp://urgent\\.example/.* URGENT\n").unwrap();
        assert_eq!(cfg.lookup("http://urgent.example/x"), Priority::Urgent);
        assert_eq!(cfg.lookup("http://other/"), Priority::Low);
        let err = PriorityConfig::parse("http://x/ mega\n").unwrap_err();
        assert_eq!(err.to_string(), "line 1: unknown priority \"mega\"");
    }

    #[test]
    fn priority_word_parsing() {
        assert_eq!("Urgent".parse(), Ok(Priority::Urgent));
        assert_eq!("SUPPRESS".parse(), Ok(Priority::Suppress));
        assert!("mid".parse::<Priority>().is_err());
    }

    #[test]
    fn ordering_of_levels() {
        assert!(Priority::Urgent > Priority::High);
        assert!(Priority::High > Priority::Normal);
        assert!(Priority::Normal > Priority::Low);
        assert!(Priority::Low > Priority::Suppress);
    }
}
