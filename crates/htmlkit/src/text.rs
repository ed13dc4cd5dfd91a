//! Word splitting and sentence-boundary detection.
//!
//! §5.1: a "sentence" is "a sequence of words and certain
//! (non-sentence-breaking) markups... A 'sentence' contains at most one
//! English sentence, but may be a fragment of an English sentence."
//! Whitespace "does not provide any content... and should not affect
//! comparison", so words are whitespace-delimited and the whitespace
//! itself is discarded by the tokenizer (HtmlDiff re-inserts single spaces
//! when rendering).

/// A word plus the information needed to know whether an English sentence
/// ends after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Word<'a> {
    /// The word, verbatim (punctuation attached, entities intact): a
    /// slice of the text it was split from.
    pub text: &'a str,
    /// True if this word terminates an English sentence (`.`, `!`, `?`,
    /// possibly followed by closing quotes/brackets).
    pub ends_sentence: bool,
}

/// Splits a text run into words on whitespace, flagging sentence-ending
/// words. The words borrow from `text`; nothing is copied.
///
/// # Examples
///
/// ```
/// use aide_htmlkit::text::split_words;
///
/// let words: Vec<_> = split_words("Hello there. General Kenobi!").collect();
/// assert_eq!(words.len(), 4);
/// assert!(words[1].ends_sentence);
/// assert!(!words[2].ends_sentence);
/// assert!(words[3].ends_sentence);
/// ```
pub fn split_words(text: &str) -> impl Iterator<Item = Word<'_>> {
    text.split_whitespace().map(|w| Word {
        text: w,
        ends_sentence: word_ends_sentence(w),
    })
}

/// Decides whether a word terminates an English sentence.
///
/// A terminator is `.`, `!` or `?`, optionally followed by closing quotes
/// or brackets. Common abbreviations and single initials (`Dr.`, `U.S.`,
/// `T.`) do not terminate.
pub fn word_ends_sentence(word: &str) -> bool {
    // Strip trailing closers.
    let trimmed = word.trim_end_matches(['"', '\'', ')', ']', '»']);
    let Some(last) = trimmed.chars().last() else {
        return false;
    };
    if last != '.' && last != '!' && last != '?' {
        return false;
    }
    if last == '.' {
        let stem = &trimmed[..trimmed.len() - 1];
        // Single-letter initial: "T." — not a boundary.
        if stem.chars().count() == 1 && stem.chars().all(|c| c.is_alphabetic()) {
            return false;
        }
        // Dotted acronym: "U.S." — not a boundary.
        if stem.contains('.') && stem.chars().all(|c| c.is_alphabetic() || c == '.') {
            return false;
        }
        // Common abbreviations.
        const ABBREV: &[&str] = &[
            "Mr", "Mrs", "Ms", "Dr", "Prof", "St", "Jr", "Sr", "vs", "etc", "e.g", "i.e", "cf",
            "Inc", "Co", "Corp", "Ltd", "Fig", "fig", "Eq", "eq", "Sec", "sec", "No", "no", "Vol",
            "vol", "pp", "Jan", "Feb", "Mar", "Apr", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov",
            "Dec",
        ];
        if ABBREV.contains(&stem) {
            return false;
        }
    }
    true
}

/// Collapses runs of whitespace to single spaces and trims the ends —
/// the normalization under which whitespace "should not affect
/// comparison".
pub fn normalize_whitespace(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_sentence_ends() {
        assert!(word_ends_sentence("done."));
        assert!(word_ends_sentence("what?"));
        assert!(word_ends_sentence("now!"));
        assert!(!word_ends_sentence("middle"));
        assert!(!word_ends_sentence("comma,"));
    }

    #[test]
    fn closers_after_terminator() {
        assert!(word_ends_sentence("over.\""));
        assert!(word_ends_sentence("over.)"));
        assert!(word_ends_sentence("over!')"));
    }

    #[test]
    fn abbreviations_do_not_end() {
        assert!(!word_ends_sentence("Dr."));
        assert!(!word_ends_sentence("U.S."));
        assert!(!word_ends_sentence("T."));
        assert!(!word_ends_sentence("etc."));
        assert!(!word_ends_sentence("vs."));
    }

    #[test]
    fn numbers_with_dots_end() {
        // "version 2.0." — ends with a period after digits: boundary.
        assert!(word_ends_sentence("2.0."));
    }

    #[test]
    fn split_counts_and_flags() {
        let w: Vec<_> = split_words("One two. Three").collect();
        assert_eq!(
            w.iter().map(|x| x.text).collect::<Vec<_>>(),
            vec!["One", "two.", "Three"]
        );
        assert_eq!(
            w.iter().map(|x| x.ends_sentence).collect::<Vec<_>>(),
            vec![false, true, false]
        );
    }

    #[test]
    fn empty_and_whitespace_only() {
        assert!(split_words("").next().is_none());
        assert!(split_words("  \t\n ").next().is_none());
        assert!(!word_ends_sentence(""));
        assert!(!word_ends_sentence("\"\""));
    }

    #[test]
    fn normalize_whitespace_collapses() {
        assert_eq!(normalize_whitespace("  a\t\tb\n c  "), "a b c");
        assert_eq!(normalize_whitespace(""), "");
    }
}
