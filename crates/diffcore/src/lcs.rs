//! Weighted longest-common-subsequence alignment.
//!
//! The LCS problem, as the paper states it (§5.1): "find a (not
//! necessarily contiguous) common subsequence of two sequences of tokens
//! that has the longest length (or greatest weight). Tokens not in the LCS
//! represent changes." In UNIX `diff` every token has weight 1; in
//! HtmlDiff a token pair may match with a weight reflecting *how much* of
//! two sentences coincide.
//!
//! Two algorithms are provided:
//!
//! - [`weighted_lcs_dp`]: the classic full-matrix dynamic program,
//!   `O(n·m)` time **and** space. Fast and simple for small inputs. Its
//!   backtrack — prefer the diagonal, then up, then left — defines the
//!   *canonical alignment* every other path in the workspace must
//!   reproduce exactly (DESIGN.md §4e).
//! - [`weighted_lcs_hirschberg`] (in [`crate::hirschberg`]): a
//!   divide-and-conquer replay of that same backtrack in `O(m·log n)`
//!   space ([Hirschberg 1977], the paper's reference \[8\], adapted so
//!   the output is pair-for-pair identical to the DP rather than merely
//!   weight-equal), which is what makes sentence-level comparison of
//!   large documents feasible.
//!
//! [`weighted_lcs`] dispatches between them on input size.
//!
//! Scores are supplied by index, `score(i, j) -> u64`, so callers can
//! memoize expensive pairwise comparisons (HtmlDiff's inner sentence LCS)
//! or apply cheap screens (the sentence-length test) before paying for a
//! full comparison. A score of `0` means "these tokens do not match".
//!
//! DP tables and score rows come from the [`crate::scratch`] buffer
//! pool, so back-to-back diffs on one thread reuse their allocations.
//!
//! [Hirschberg 1977]: https://doi.org/10.1145/322033.322044

pub use crate::hirschberg::weighted_lcs_hirschberg;
use crate::scratch;

/// Size (in matrix cells) below which the full DP is used by
/// [`weighted_lcs`]. Above it, the linear-space Hirschberg replay runs.
pub const DP_CELL_LIMIT: usize = 1 << 21;

/// Computes a maximum-weight alignment of `0..n` against `0..m`.
///
/// Returns matched index pairs, strictly increasing in both components.
/// Dispatches to [`weighted_lcs_dp`] for small inputs and
/// [`weighted_lcs_hirschberg`] for large ones; the two produce identical
/// pairs, so the dispatch threshold is invisible in the output.
///
/// # Examples
///
/// ```
/// use aide_diffcore::lcs::weighted_lcs;
///
/// let a = ["the", "quick", "fox"];
/// let b = ["the", "slow", "fox"];
/// let pairs = weighted_lcs(a.len(), b.len(), &|i, j| u64::from(a[i] == b[j]));
/// assert_eq!(pairs, vec![(0, 0), (2, 2)]);
/// ```
pub fn weighted_lcs(
    n: usize,
    m: usize,
    score: &impl Fn(usize, usize) -> u64,
) -> Vec<(usize, usize)> {
    if n == 0 || m == 0 {
        return Vec::new();
    }
    if n.saturating_mul(m) <= DP_CELL_LIMIT {
        weighted_lcs_dp(n, m, score)
    } else {
        weighted_lcs_hirschberg(n, m, score)
    }
}

/// Full-matrix weighted LCS: `O(n·m)` time and space.
pub fn weighted_lcs_dp(
    n: usize,
    m: usize,
    score: &impl Fn(usize, usize) -> u64,
) -> Vec<(usize, usize)> {
    // table[i][j] = best weight aligning a[..i] with b[..j].
    let width = m + 1;
    let mut table = scratch::take_u64_buf();
    table.resize((n + 1) * width, 0);
    for i in 1..=n {
        for j in 1..=m {
            let up = table[(i - 1) * width + j];
            let left = table[i * width + (j - 1)];
            let mut best = up.max(left);
            let w = score(i - 1, j - 1);
            if w > 0 {
                best = best.max(table[(i - 1) * width + (j - 1)] + w);
            }
            table[i * width + j] = best;
        }
    }
    // Backtrack, preferring matches so the alignment is deterministic.
    let mut pairs = Vec::new();
    let (mut i, mut j) = (n, m);
    while i > 0 && j > 0 {
        let here = table[i * width + j];
        let w = score(i - 1, j - 1);
        if w > 0 && here == table[(i - 1) * width + (j - 1)] + w {
            pairs.push((i - 1, j - 1));
            i -= 1;
            j -= 1;
        } else if here == table[(i - 1) * width + j] {
            i -= 1;
        } else {
            j -= 1;
        }
    }
    scratch::give_u64_buf(table);
    pairs.reverse();
    pairs
}

/// Plain equality LCS over two slices (every match has weight 1).
pub fn lcs_pairs<T: PartialEq>(a: &[T], b: &[T]) -> Vec<(usize, usize)> {
    weighted_lcs(a.len(), b.len(), &|i, j| u64::from(a[i] == b[j]))
}

/// Total weight of an alignment under `score`.
pub fn alignment_weight(pairs: &[(usize, usize)], score: &impl Fn(usize, usize) -> u64) -> u64 {
    pairs.iter().map(|&(i, j)| score(i, j)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq_score<'a, T: PartialEq>(a: &'a [T], b: &'a [T]) -> impl Fn(usize, usize) -> u64 + 'a {
        move |i, j| u64::from(a[i] == b[j])
    }

    fn check_valid(pairs: &[(usize, usize)], n: usize, m: usize) {
        let mut last: Option<(usize, usize)> = None;
        for &(i, j) in pairs {
            assert!(i < n && j < m, "pair ({i},{j}) out of range");
            if let Some((pi, pj)) = last {
                assert!(i > pi && j > pj, "pairs not strictly increasing");
            }
            last = Some((i, j));
        }
    }

    #[test]
    fn classic_string_lcs() {
        let a: Vec<char> = "ABCBDAB".chars().collect();
        let b: Vec<char> = "BDCABA".chars().collect();
        let pairs = lcs_pairs(&a, &b);
        check_valid(&pairs, a.len(), b.len());
        assert_eq!(pairs.len(), 4, "LCS of ABCBDAB/BDCABA has length 4");
        let common: String = pairs.iter().map(|&(i, _)| a[i]).collect();
        assert!(
            ["BCAB", "BCBA", "BDAB"].contains(&common.as_str()),
            "got {common}"
        );
    }

    #[test]
    fn identical_sequences_align_fully() {
        let a = [1, 2, 3, 4, 5];
        let pairs = lcs_pairs(&a, &a);
        assert_eq!(pairs, vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
    }

    #[test]
    fn disjoint_sequences_have_empty_lcs() {
        let a = [1, 2, 3];
        let b = [4, 5, 6];
        assert!(lcs_pairs(&a, &b).is_empty());
    }

    #[test]
    fn empty_inputs() {
        let a: [i32; 0] = [];
        let b = [1, 2];
        assert!(lcs_pairs(&a, &b).is_empty());
        assert!(lcs_pairs(&b, &a).is_empty());
        assert!(lcs_pairs(&a, &a).is_empty());
    }

    #[test]
    fn weights_prefer_heavy_match() {
        // a[0] could match b[0] (weight 1) or b[1] (weight 10); choosing
        // b[1] blocks b[0] for later tokens, and is still optimal.
        let score = |i: usize, j: usize| -> u64 {
            match (i, j) {
                (0, 0) => 1,
                (0, 1) => 10,
                _ => 0,
            }
        };
        let pairs = weighted_lcs_dp(1, 2, &score);
        assert_eq!(pairs, vec![(0, 1)]);
    }

    #[test]
    fn weighted_chain_beats_single_heavy() {
        // Two weight-3 matches in sequence beat one weight-5 match that
        // would cross them.
        let score = |i: usize, j: usize| -> u64 {
            match (i, j) {
                (0, 0) => 3,
                (1, 1) => 3,
                (0, 1) => 5,
                _ => 0,
            }
        };
        let pairs = weighted_lcs_dp(2, 2, &score);
        assert_eq!(pairs, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn hirschberg_matches_dp_pairs_on_random_inputs() {
        // Deterministic pseudo-random sequences over a small alphabet.
        // Pair equality, not just weight equality: the linear-space path
        // must reproduce the canonical backtrack exactly.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for trial in 0..30 {
            let n = 1 + next() % 40;
            let m = 1 + next() % 40;
            let a: Vec<usize> = (0..n).map(|_| next() % 5).collect();
            let b: Vec<usize> = (0..m).map(|_| next() % 5).collect();
            let score = eq_score(&a, &b);
            let dp = weighted_lcs_dp(n, m, &score);
            let hi = weighted_lcs_hirschberg(n, m, &score);
            check_valid(&dp, n, m);
            assert_eq!(hi, dp, "trial {trial}: dp and hirschberg pairs differ");
        }
    }

    #[test]
    fn hirschberg_matches_dp_pairs_with_weights() {
        let mut state = 99u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..20 {
            let n = 1 + next() % 25;
            let m = 1 + next() % 25;
            let weights: Vec<Vec<u64>> = (0..n)
                .map(|_| (0..m).map(|_| (next() % 4) as u64).collect())
                .collect();
            let score = |i: usize, j: usize| weights[i][j];
            let dp = weighted_lcs_dp(n, m, &score);
            let hi = weighted_lcs_hirschberg(n, m, &score);
            assert_eq!(hi, dp);
        }
    }

    #[test]
    fn dispatcher_handles_both_regimes() {
        let a: Vec<u32> = (0..10).collect();
        let b: Vec<u32> = (5..15).collect();
        let pairs = weighted_lcs(a.len(), b.len(), &eq_score(&a, &b));
        assert_eq!(pairs.len(), 5);
        assert_eq!(pairs[0], (5, 0));
    }

    #[test]
    fn single_row_base_case_picks_dp_choice() {
        let score = |_i: usize, j: usize| [2u64, 7, 3][j];
        let pairs = weighted_lcs_hirschberg(1, 3, &score);
        assert_eq!(pairs, weighted_lcs_dp(1, 3, &score));
    }

    #[test]
    fn single_row_no_match_yields_empty() {
        let pairs = weighted_lcs_hirschberg(1, 3, &|_, _| 0);
        assert!(pairs.is_empty());
    }

    #[test]
    fn zero_scores_never_pair() {
        // Even when everything has score 0, no pairs may be emitted.
        let pairs = weighted_lcs_dp(5, 5, &|_, _| 0);
        assert!(pairs.is_empty());
        let pairs = weighted_lcs_hirschberg(5, 5, &|_, _| 0);
        assert!(pairs.is_empty());
    }
}
