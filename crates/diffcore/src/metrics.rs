//! Similarity metrics over alignments.
//!
//! HtmlDiff's sentence matcher (§5.1) accepts a pair of sentences when the
//! percentage `2W / L` is "sufficiently large", where `W` is the weight of
//! the sentences' LCS and `L` the sum of their lengths. [`lcs_ratio`]
//! computes exactly that quantity.

/// The paper's `2W / L` ratio.
///
/// `weight` is the LCS weight `W`; `len_a + len_b` is `L`. Returns a value
/// in `[0, 1]`; `1.0` for two empty sequences (identical by convention).
///
/// # Examples
///
/// ```
/// use aide_diffcore::metrics::lcs_ratio;
///
/// assert_eq!(lcs_ratio(3, 3, 3), 1.0);
/// assert_eq!(lcs_ratio(0, 4, 4), 0.0);
/// assert_eq!(lcs_ratio(2, 4, 4), 0.5);
/// ```
pub fn lcs_ratio(weight: u64, len_a: usize, len_b: usize) -> f64 {
    let l = (len_a + len_b) as f64;
    if l == 0.0 {
        return 1.0;
    }
    (2.0 * weight as f64) / l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_slices_are_identical() {
        assert_eq!(lcs_ratio(0, 0, 0), 1.0);
    }

    #[test]
    fn ratio_bounds() {
        for (w, la, lb) in [(0u64, 5usize, 5usize), (5, 5, 5), (3, 4, 6)] {
            let r = lcs_ratio(w, la, lb);
            assert!((0.0..=1.0).contains(&r));
        }
    }
}
