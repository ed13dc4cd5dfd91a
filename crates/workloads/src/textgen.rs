//! Vocabulary and sentence generation.
//!
//! A fixed 1995-flavoured vocabulary (systems, networking, conference
//! announcements) sampled with a Zipf skew, so generated pages share
//! common words the way real prose does — which matters for the sentence
//! matcher: two unrelated generated sentences should usually fail the
//! `2W/L` test, while an edited sentence should pass it.

use aide_util::rng::Rng;

/// The generation vocabulary (order matters: earlier = more frequent).
pub const VOCABULARY: &[&str] = &[
    "the",
    "of",
    "and",
    "to",
    "a",
    "in",
    "for",
    "is",
    "on",
    "that",
    "with",
    "are",
    "as",
    "be",
    "this",
    "will",
    "can",
    "page",
    "web",
    "server",
    "system",
    "file",
    "user",
    "time",
    "new",
    "information",
    "version",
    "access",
    "network",
    "data",
    "service",
    "pages",
    "users",
    "html",
    "documents",
    "changes",
    "conference",
    "technical",
    "paper",
    "research",
    "internet",
    "browser",
    "protocol",
    "cache",
    "proxy",
    "archive",
    "release",
    "software",
    "available",
    "update",
    "mosaic",
    "netscape",
    "hypertext",
    "links",
    "session",
    "workshop",
    "tutorial",
    "program",
    "registration",
    "proceedings",
    "association",
    "members",
    "systems",
    "administration",
    "security",
    "distributed",
    "computing",
    "performance",
    "storage",
    "unix",
    "laboratory",
    "announcement",
    "schedule",
    "abstracts",
    "submissions",
    "deadline",
    "committee",
    "keynote",
    "symposium",
    "track",
    "presentation",
    "authors",
    "papers",
    "notes",
    "volume",
    "mailing",
    "list",
    "gopher",
    "ftp",
    "telnet",
    "directory",
    "index",
    "home",
    "site",
    "resources",
];

/// Generates one word.
pub fn word(rng: &mut Rng) -> &'static str {
    VOCABULARY[rng.zipf(VOCABULARY.len())]
}

/// Generates a sentence of `words` words, capitalized, ending with a
/// period (occasionally `!` for variety).
pub fn sentence(rng: &mut Rng, words: usize) -> String {
    let mut out = String::new();
    for i in 0..words.max(1) {
        if i > 0 {
            out.push(' ');
        }
        let w = word(rng);
        if i == 0 {
            let mut chars = w.chars();
            if let Some(first) = chars.next() {
                out.push(first.to_ascii_uppercase());
                out.push_str(chars.as_str());
            }
        } else {
            out.push_str(w);
        }
    }
    out.push(if rng.chance(0.08) { '!' } else { '.' });
    out
}

/// Generates a sentence with natural length variation (5–18 words).
pub fn natural_sentence(rng: &mut Rng) -> String {
    let n = rng.range(5, 18) as usize;
    sentence(rng, n)
}

/// Generates a short title (2–5 words, capitalized).
pub fn title(rng: &mut Rng) -> String {
    let n = rng.range(2, 5) as usize;
    let mut out = String::new();
    for i in 0..n {
        if i > 0 {
            out.push(' ');
        }
        let w = word(rng);
        let mut chars = w.chars();
        if let Some(first) = chars.next() {
            out.push(first.to_ascii_uppercase());
            out.push_str(chars.as_str());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentence_shape() {
        let mut rng = Rng::new(1);
        let s = sentence(&mut rng, 8);
        assert!(s.ends_with('.') || s.ends_with('!'));
        assert_eq!(s.split_whitespace().count(), 8);
        assert!(s.chars().next().unwrap().is_ascii_uppercase());
    }

    #[test]
    fn deterministic_generation() {
        let a = sentence(&mut Rng::new(5), 10);
        let b = sentence(&mut Rng::new(5), 10);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_word_sentence_still_valid() {
        let s = sentence(&mut Rng::new(2), 0);
        assert!(!s.trim_end_matches(['.', '!']).is_empty());
    }

    #[test]
    fn titles_are_short() {
        let mut rng = Rng::new(3);
        for _ in 0..20 {
            let t = title(&mut rng);
            let n = t.split_whitespace().count();
            assert!((2..=5).contains(&n));
        }
    }

    #[test]
    fn vocabulary_reuse_is_common() {
        // Two sentences should usually share at least one word, thanks to
        // the Zipf head — the property the sentence matcher relies on.
        let mut rng = Rng::new(4);
        let mut sharing = 0;
        for _ in 0..50 {
            let a = natural_sentence(&mut rng);
            let b = natural_sentence(&mut rng);
            let a_words: Vec<&str> = a.split_whitespace().collect();
            if b.split_whitespace().any(|w| a_words.contains(&w)) {
                sharing += 1;
            }
        }
        assert!(sharing > 25, "sharing {sharing}/50");
    }
}
