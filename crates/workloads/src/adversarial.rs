//! Adversarial page pairs: the shapes that defeat HtmlDiff's anchored
//! alignment, for tests that bound what a hostile page can cost.
//!
//! Real revisions keep most of their sentences, and those sentences
//! anchor the alignment. Each pair here removes that help in a different
//! way. Every function returns an `(old, new)` pair of HTML fragments
//! built from `k` repeated units, so the caller picks the size.

/// `<P><BR>` repeated `k` times, and the same page with one `<HR>`
/// inserted halfway: all markup, and no token unique on both sides.
///
/// ```
/// let (old, new) = aide_workloads::adversarial::markup_run(2);
/// assert_eq!(old, "<P><BR><P><BR>");
/// assert_eq!(new, "<P><BR><HR><P><BR>");
/// ```
pub fn markup_run(k: usize) -> (String, String) {
    const UNIT: &str = "<P><BR>";
    let new = format!("{}<HR>{}", UNIT.repeat(k / 2), UNIT.repeat(k - k / 2));
    (UNIT.repeat(k), new)
}

/// `k` copies of one sentence, and the same page with the middle copy
/// reworded: every sentence but one matches every other.
///
/// ```
/// let (old, new) = aide_workloads::adversarial::repeated_sentences(3);
/// assert_eq!(old.matches("Same words").count(), 3);
/// assert_eq!(new.matches("Same words").count(), 2);
/// ```
pub fn repeated_sentences(k: usize) -> (String, String) {
    const SENTENCE: &str = "Same words every time. ";
    let after = k.saturating_sub(k / 2 + 1);
    let new = format!(
        "{}One changed sentence. {}",
        SENTENCE.repeat(k / 2),
        SENTENCE.repeat(after)
    );
    (SENTENCE.repeat(k), new)
}

/// `k` sentences of words that occur nowhere else, replaced by `k` other
/// such sentences: no token on one side matches any token on the other.
///
/// ```
/// let (old, new) = aide_workloads::adversarial::unique_replace(2);
/// assert_eq!(old, "Old0 a0 b0. Old1 a1 b1. ");
/// assert_eq!(new, "New0 c0 d0. New1 c1 d1. ");
/// ```
pub fn unique_replace(k: usize) -> (String, String) {
    let page = |head: &str, x: &str, y: &str| -> String {
        (0..k)
            .map(|i| format!("{head}{i} {x}{i} {y}{i}. "))
            .collect()
    };
    (page("Old", "a", "b"), page("New", "c", "d"))
}
