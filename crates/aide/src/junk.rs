//! Semantic junk-change detection (§3.1's stated future work).
//!
//! "Automatic detection of modifications based on information such as
//! modification date and checksum can lead to the generation of 'junk
//! mail' as 'noisy' modifications trigger change notifications. For
//! instance, pages that report the number of times they have been
//! accessed, or embed the current time, will look different every time
//! they are retrieved... Addressing the problem of 'noisy' modifications
//! will require heuristics to examine the differences at a semantic
//! level."
//!
//! This module implements those heuristics on top of HtmlDiff: compare
//! the two versions, collect every word that actually changed, and
//! classify the change as **junk** when all of the changed words are
//! volatile tokens — numbers (hit counters), dates, and clock times.

use aide_diffcore::lcs::weighted_lcs;
use aide_htmldiff::compare::{compare_tokens, CompareOptions};
use aide_htmldiff::token::{DiffToken, Inline};
use aide_htmldiff::tokenize_pair;

/// The verdict on one change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JunkReport {
    /// Words present in exactly one version (the changed material).
    pub changed_words: Vec<String>,
    /// The subset judged volatile (numbers/dates/times).
    pub noise_words: Vec<String>,
    /// True if the change is noise only — a tracker should not notify.
    pub junk: bool,
    /// True if the two documents are identical (vacuously not junk —
    /// there is nothing to report either way).
    pub identical: bool,
}

/// Month and weekday names, the vocabulary of embedded dates.
const DATE_WORDS: &[&str] = &[
    "jan",
    "feb",
    "mar",
    "apr",
    "may",
    "jun",
    "jul",
    "aug",
    "sep",
    "oct",
    "nov",
    "dec",
    "january",
    "february",
    "march",
    "april",
    "june",
    "july",
    "august",
    "september",
    "october",
    "november",
    "december",
    "mon",
    "tue",
    "wed",
    "thu",
    "fri",
    "sat",
    "sun",
    "monday",
    "tuesday",
    "wednesday",
    "thursday",
    "friday",
    "saturday",
    "sunday",
    "gmt",
    "est",
    "edt",
    "pst",
    "pdt",
    "am",
    "pm",
    "utc",
];

/// Is `word` a volatile token: a number, a date fragment, or a clock
/// time?
///
/// # Examples
///
/// ```
/// use aide::junk::is_noise_word;
///
/// assert!(is_noise_word("12345"));
/// assert!(is_noise_word("08:49:37"));
/// assert!(is_noise_word("Nov"));
/// assert!(is_noise_word("1995."));
/// assert!(!is_noise_word("conference"));
/// ```
pub fn is_noise_word(word: &str) -> bool {
    let core =
        word.trim_matches(|c: char| c.is_ascii_punctuation() && c != ':' && c != '/' && c != '-');
    if core.is_empty() {
        return true; // pure punctuation is not content
    }
    // Numeric (counters, years, sizes): digits with optional separators.
    if core
        .chars()
        .all(|c| c.is_ascii_digit() || matches!(c, ',' | '.' | ':' | '/' | '-'))
        && core.chars().any(|c| c.is_ascii_digit())
    {
        return true;
    }
    // Ordinals: 1st, 22nd, 3rd, 15th.
    if core.len() > 2 {
        let (head, tail) = core.split_at(core.len() - 2);
        if matches!(
            tail.to_ascii_lowercase().as_str(),
            "st" | "nd" | "rd" | "th"
        ) && head.chars().all(|c| c.is_ascii_digit())
        {
            return true;
        }
    }
    DATE_WORDS.contains(&core.to_ascii_lowercase().as_str())
}

/// Classifies the change between two HTML documents.
pub fn classify(old_html: &str, new_html: &str) -> JunkReport {
    let (old, new) = tokenize_pair(old_html, new_html);
    let al = compare_tokens(&old, &new, &CompareOptions::default());

    let mut changed_words: Vec<String> = Vec::new();

    // Words inside approximately-matched pairs that differ.
    for (k, &(i, j)) in al.alignment.pairs.iter().enumerate() {
        if al.identical[k] {
            continue;
        }
        if let (DiffToken::Sentence(a), DiffToken::Sentence(b)) = (&old[i], &new[j]) {
            let pairs = weighted_lcs(a.items.len(), b.items.len(), &|x, y| {
                u64::from(a.items[x].matches(&b.items[y]))
            });
            let matched_a: Vec<usize> = pairs.iter().map(|&(x, _)| x).collect();
            let matched_b: Vec<usize> = pairs.iter().map(|&(_, y)| y).collect();
            for (idx, item) in a.items.iter().enumerate() {
                if let Inline::Word(w) = item {
                    if !matched_a.contains(&idx) {
                        changed_words.push(w.to_string());
                    }
                }
            }
            for (idx, item) in b.items.iter().enumerate() {
                if let Inline::Word(w) = item {
                    if !matched_b.contains(&idx) {
                        changed_words.push(w.to_string());
                    }
                }
            }
        }
    }
    // Whole sentences on one side only.
    let in_pairs_old: Vec<usize> = al.alignment.pairs.iter().map(|&(i, _)| i).collect();
    let in_pairs_new: Vec<usize> = al.alignment.pairs.iter().map(|&(_, j)| j).collect();
    for (i, t) in old.iter().enumerate() {
        if in_pairs_old.contains(&i) {
            continue;
        }
        if let DiffToken::Sentence(s) = t {
            for item in &s.items {
                if let Inline::Word(w) = item {
                    changed_words.push(w.to_string());
                }
            }
        }
    }
    for (j, t) in new.iter().enumerate() {
        if in_pairs_new.contains(&j) {
            continue;
        }
        if let DiffToken::Sentence(s) = t {
            for item in &s.items {
                if let Inline::Word(w) = item {
                    changed_words.push(w.to_string());
                }
            }
        }
    }

    let identical =
        changed_words.is_empty() && old.len() == new.len() && al.alignment.pairs.len() == old.len();
    let noise_words: Vec<String> = changed_words
        .iter()
        .filter(|w| is_noise_word(w))
        .cloned()
        .collect();
    let junk = !changed_words.is_empty() && noise_words.len() == changed_words.len();
    JunkReport {
        changed_words,
        noise_words,
        junk,
        identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_counter_change_is_junk() {
        let old = "<HTML><P>You are visitor number 10461 to this page.</HTML>";
        let new = "<HTML><P>You are visitor number 10462 to this page.</HTML>";
        let r = classify(old, new);
        assert!(r.junk, "{r:?}");
        assert_eq!(r.changed_words, vec!["10461", "10462"]);
    }

    #[test]
    fn embedded_clock_is_junk() {
        let old = "<HTML><P>Generated Fri, 29 Sep 1995 12:00:00 GMT by the server.</HTML>";
        let new = "<HTML><P>Generated Sat, 30 Sep 1995 08:49:37 GMT by the server.</HTML>";
        let r = classify(old, new);
        assert!(r.junk, "{r:?}");
    }

    #[test]
    fn real_edit_is_not_junk() {
        let old = "<HTML><P>The deadline is October 10. Submit papers by mail.</HTML>";
        let new = "<HTML><P>The deadline is October 10. Submit papers by email instead!</HTML>";
        let r = classify(old, new);
        assert!(!r.junk, "{r:?}");
        assert!(r.changed_words.iter().any(|w| w.contains("email")));
    }

    #[test]
    fn mixed_change_is_not_junk() {
        // A counter changed AND a sentence was added: not junk.
        let old = "<HTML><P>Hits: 500.</HTML>";
        let new = "<HTML><P>Hits: 501.</P><P>We moved to a new building!</HTML>";
        let r = classify(old, new);
        assert!(!r.junk, "{r:?}");
    }

    #[test]
    fn identical_documents() {
        let r = classify("<P>same.", "<P>same.");
        assert!(r.identical);
        assert!(!r.junk);
        assert!(r.changed_words.is_empty());
    }

    #[test]
    fn date_stamp_only_update_is_junk() {
        let old = "<HTML><P>Content body here.</P><P>Last updated September 29, 1995.</HTML>";
        let new = "<HTML><P>Content body here.</P><P>Last updated November 3, 1995.</HTML>";
        let r = classify(old, new);
        assert!(r.junk, "{r:?}");
    }

    #[test]
    fn noise_word_cases() {
        for w in [
            "0",
            "1,234",
            "22:15",
            "1995/09/29",
            "3rd",
            "21st",
            "Nov",
            "GMT",
            "...",
        ] {
            assert!(is_noise_word(w), "{w} should be noise");
        }
        for w in ["paper", "O'Reilly", "x86", "3D", "IPv6"] {
            assert!(!is_noise_word(w), "{w} should be content");
        }
    }

    #[test]
    fn full_rewrite_is_not_junk() {
        let old = "<HTML><P>alpha beta gamma delta.</HTML>";
        let new = "<HTML><P>epsilon zeta eta theta!</HTML>";
        let r = classify(old, new);
        assert!(!r.junk);
        assert!(r.changed_words.len() >= 8);
    }
}
