//! Anchored decomposition of the weighted-LCS problem.
//!
//! The full dynamic program of [`crate::lcs`] is `O(n·m)` in the number
//! of tokens, which is the HtmlDiff hot path's dominant cost. Real
//! successive page revisions are overwhelmingly similar, so almost all
//! of that work rediscovers unchanged material. This module exploits the
//! similarity the way patience diff and Myers do, while keeping the
//! weighted-LCS scoring model **and** the naive DP's exact output,
//! tie-breaks included:
//!
//! 1. **Trim** the common suffix (tokens whose class ids match,
//!    confirmed by `verify_eq`). Only the suffix: the DP's backtrack
//!    walks from the bottom-right corner and always takes an identical
//!    trailing pair (an exchange argument shows the diagonal stays
//!    weight-consistent), so suffix trimming reproduces its choices
//!    exactly. Prefix trimming does *not* — against `[7,2]`, the DP
//!    aligns the second `7` of `[7,1,7,2]`, not the first — so common
//!    prefixes are left to the anchor/gap machinery, which handles them
//!    at the same cost.
//! 2. **Anchor** the remaining region at tokens whose class id occurs
//!    exactly once on each side (patience-style) and whose *context
//!    confirms them*: on at least one side, the verified-identical run
//!    adjacent to the anchor must contain another *unique* pair (or
//!    reach a region corner) — which every anchor inside unchanged
//!    material does, while a unique pair stranded in churn — where the
//!    DP may prefer a weight-tied exchange over it — does not, even
//!    when mass-repeated filler (`<P>` against `<P>`) happens to agree
//!    next to it. If any confirmed
//!    pair has to be discarded to keep anchors mutually non-crossing,
//!    the input transposed content across other matches — the one
//!    regime where forcing anchors can lose weight — and the whole
//!    region is aligned as a single gap instead.
//! 3. **Align the gaps** between consecutive anchors independently with
//!    the weighted LCS: the full-matrix DP up to `DENSE_CELL_LIMIT`
//!    cells, the linear-space Hirschberg replay beyond it. Gaps whose
//!    tokens all match with weight ≤ 1 (runs of sentence-breaking
//!    markup) and which are large enough to matter first try a *banded*
//!    DP whose band width comes from a Myers pre-pass — `O((N+M)·D)`
//!    cells instead of `O(N·M)` — with the same backtrack rule, so even
//!    its tie-breaks match the full DP. Without it, an all-markup page
//!    with one inserted break would be a single quadratic gap.
//!
//! Steps 1 and 2 are [`plan_anchors`]: they read class ids and
//! `verify_eq`, never `score`, and hand back the gap rectangles
//! ([`AnchorPlan::gaps`]) before anything is scored, so a caller whose
//! probes read per-token tables builds them for the gap tokens alone.
//! Step 3 is [`AnchorPlan::align`]; [`anchored_weighted_lcs`] runs both.
//!
//! # Exactness
//!
//! Output equality with the naive DP rests on one premise: **a token
//! that is unique on both sides and verified identical is part of every
//! maximum-weight alignment**. Edit-structured revisions — insertions,
//! deletions, replacements, which is what page histories are made of —
//! satisfy it, because edits never move surviving content across other
//! surviving content. Under the premise, every anchor is in every
//! optimal alignment, optimal substructure splits the DP at the anchors,
//! and each gap's rectangle-local backtrack coincides with the global
//! one; the property suite asserts pair-for-pair equality across the
//! workload edit models. Inputs that transpose unique content violate
//! the premise; crossing anchors detect (and defuse) the pairwise case.
//!
//! The premise has a second failure mode with no transposition at all:
//! in a page that was replaced wholesale, a *stray* surviving pair (one
//! image tag amid churn) is unique and verified, yet a chain of partial
//! sentence matches crossing it can outweigh it, so the canonical DP
//! alignment routes around it. No local confirmation can rule this out —
//! it is a global weight question — so anchors are only ever *forced*
//! when they are dense (`MIN_DENSITY_PERMILLE`): on real
//! edit-structured revisions confirmed anchors blanket the unchanged
//! majority of the page (measured ≥ 570‰ across the workload edit
//! models), while replacement-churn middles measure under 100‰ and fall
//! through to the single-gap exact alignment, whose dense, banded, and
//! Hirschberg paths all replay the canonical backtrack by construction.
//! Callers that need the naive path unconditionally (ablation
//! experiments counting score probes) must bypass this module — in
//! HtmlDiff, via `CompareOptions::force_naive`.
//!
//! Class ids (`a_ids` / `b_ids`) are hashes: equal ids are *necessary*
//! for token identity but confirmed through `verify_eq` before any trim
//! or anchor decision, so a hash collision can degrade the decomposition
//! but never corrupt the alignment.

use crate::hirschberg::weighted_lcs_hirschberg;
use crate::lcs::weighted_lcs_dp;
use crate::myers::myers_diff;
use std::collections::HashMap;
use std::ops::Range;

/// Tunables for [`anchored_weighted_lcs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnchorConfig {
    /// Middle regions of at most this many DP cells skip anchoring and
    /// run a single gap DP directly.
    pub small_cells: usize,
    /// Unit-weight gaps larger than this many cells try the banded DP.
    pub myers_min_cells: usize,
}

impl Default for AnchorConfig {
    fn default() -> Self {
        AnchorConfig {
            small_cells: 1 << 12,
            myers_min_cells: 1 << 12,
        }
    }
}

/// Anchors are *forced* into the alignment only when they cover at least
/// this many permille of the shorter middle side. Below the gate the
/// middle aligns as one exact gap instead: in anchor-sparse churn the
/// weighted DP can legitimately route around any individual verified
/// pair (a chain of partial sentence matches outweighs it), so forcing
/// sparse anchors risks diverging from the canonical alignment.
const MIN_DENSITY_PERMILLE: usize = 300;

/// How [`anchored_weighted_lcs`] decomposed the problem (for benches and
/// diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnchorStats {
    /// Tokens trimmed as common suffix.
    pub suffix: usize,
    /// Anchor pairs forced in the middle.
    pub anchors: usize,
    /// Verified unique pairs discarded because they crossed other
    /// anchors. Non-zero means the input transposed content and the
    /// middle was aligned as a single gap.
    pub crossed_anchors: usize,
    /// Gaps aligned between trims/anchors.
    pub gaps: usize,
    /// Total DP cells actually evaluated across gaps.
    pub gap_cells: usize,
    /// Cells the naive full DP would have evaluated (`n·m`).
    pub full_cells: usize,
    /// Gaps aligned by the full-matrix DP.
    pub dense_gaps: usize,
    /// Gaps aligned by the banded (Myers-bounded) DP.
    pub banded_gaps: usize,
    /// Gaps aligned by the linear-space Hirschberg replay (too large for
    /// the full-matrix DP).
    pub hirschberg_gaps: usize,
    /// Confirmed anchors withheld by the density gate
    /// (`MIN_DENSITY_PERMILLE`); the middle was aligned as a single
    /// exact gap instead of being split at them.
    pub gated_anchors: usize,
}

impl AnchorStats {
    /// Fraction of the naive DP the anchored path avoided, in permille:
    /// `1000 · (full_cells − gap_cells) / full_cells`. Degenerate
    /// (empty) inputs with `full_cells == 0` count as fully covered.
    /// This is the per-diff "anchor coverage" number the observability
    /// layer histograms.
    pub fn coverage_permille(&self) -> u64 {
        if self.full_cells == 0 {
            return 1000;
        }
        let avoided = self.full_cells.saturating_sub(self.gap_cells) as u64;
        avoided * 1000 / self.full_cells as u64
    }
}

/// Largest gap, in cells, that the full-matrix DP aligns; larger gaps
/// run the linear-space Hirschberg replay so memory stays bounded on
/// pathological inputs.
const DENSE_CELL_LIMIT: usize = 1 << 24;

/// Computes a maximum-weight alignment of `0..a_ids.len()` against
/// `0..b_ids.len()` by anchored decomposition: [`plan_anchors`], then
/// [`AnchorPlan::align`].
///
/// * `a_ids` / `b_ids` — per-token class hashes. Equal ids must be
///   necessary for the tokens to be interchangeable (identical content,
///   maximal mutual match weight); `verify_eq(i, j)` confirms it.
/// * `a_unit` / `b_unit` — true for tokens that can only match with
///   weight ≤ 1 (enables the banded fallback on all-unit gaps).
/// * `score` — the pairwise weight function, shared with the naive DP.
///   Must be pure.
///
/// Returns the matched pairs (strictly increasing in both components)
/// and decomposition statistics.
pub fn anchored_weighted_lcs(
    a_ids: &[u64],
    b_ids: &[u64],
    a_unit: &[bool],
    b_unit: &[bool],
    cfg: &AnchorConfig,
    score: &impl Fn(usize, usize) -> u64,
    verify_eq: &impl Fn(usize, usize) -> bool,
) -> (Vec<(usize, usize)>, AnchorStats) {
    plan_anchors(a_ids, b_ids, cfg, verify_eq).align(a_ids, b_ids, a_unit, b_unit, score, verify_eq)
}

/// How [`plan_anchors`] split the problem, before anything is scored:
/// the verified common suffix, the forced middle anchors, and the gap
/// rectangles between them that still need a DP. A caller whose score
/// probes read per-token tables can build them for the tokens of
/// [`AnchorPlan::gaps`] only, since no other token is ever probed.
#[derive(Debug)]
pub struct AnchorPlan {
    cfg: AnchorConfig,
    n: usize,
    m: usize,
    /// Forced middle anchors, strictly increasing in both components.
    anchors: Vec<(usize, usize)>,
    /// Trim and anchor statistics; [`AnchorPlan::align`] adds the gaps'.
    stats: AnchorStats,
}

/// Trims the verified common suffix and chooses the middle anchors (steps
/// 1 and 2 of the module docs), calling `verify_eq` but never a score.
/// See [`anchored_weighted_lcs`] for the arguments.
pub fn plan_anchors(
    a_ids: &[u64],
    b_ids: &[u64],
    cfg: &AnchorConfig,
    verify_eq: &impl Fn(usize, usize) -> bool,
) -> AnchorPlan {
    let n = a_ids.len();
    let m = b_ids.len();
    let mut plan = AnchorPlan {
        cfg: *cfg,
        n,
        m,
        anchors: Vec::new(),
        stats: AnchorStats {
            full_cells: n.saturating_mul(m),
            ..AnchorStats::default()
        },
    };

    // 1. Trim the common suffix (see the module docs for why only the
    // suffix is backtrack-exact).
    let mut suffix = 0;
    while suffix < n
        && suffix < m
        && a_ids[n - 1 - suffix] == b_ids[m - 1 - suffix]
        && verify_eq(n - 1 - suffix, m - 1 - suffix)
    {
        suffix += 1;
    }
    plan.stats.suffix = suffix;

    let (mid_a, mid_b) = (0..n - suffix, 0..m - suffix);
    let cells = mid_a.len().saturating_mul(mid_b.len());
    if cells <= cfg.small_cells {
        return plan;
    }
    let (chain, crossed) = find_anchors(a_ids, b_ids, mid_a.clone(), mid_b.clone(), verify_eq);
    plan.stats.crossed_anchors = crossed;
    if crossed > 0 {
        // Transposed content: forcing any of these anchors could cost
        // weight the full DP would keep. One gap, no forcing.
        return plan;
    }
    // Density gate: forcing anchors is only trusted in the anchor-dense
    // regime (edit-structured revisions, where confirmed anchors blanket
    // the unchanged material). A sparse chain amid churn — a full
    // replacement that happens to keep one image tag — is exactly where
    // the weighted DP can route *around* a verified unique pair, so those
    // anchors are withheld and the middle runs as one exact gap.
    let min_side = mid_a.len().min(mid_b.len());
    if chain.len() * 1000 < MIN_DENSITY_PERMILLE * min_side {
        plan.stats.gated_anchors = chain.len();
    } else {
        plan.stats.anchors = chain.len();
        plan.anchors = chain;
    }
    plan
}

impl AnchorPlan {
    /// The forced middle anchors, strictly increasing; every one passed
    /// `verify_eq`.
    pub fn anchors(&self) -> &[(usize, usize)] {
        &self.anchors
    }

    /// Length of the verified common suffix: the last `suffix()` tokens
    /// of each side pair up in order.
    pub fn suffix(&self) -> usize {
        self.stats.suffix
    }

    /// Every gap in order, one before each anchor and one after the last
    /// (none when either middle side is empty); a gap may have one empty
    /// side.
    fn all_gaps(&self) -> impl Iterator<Item = (Range<usize>, Range<usize>)> + '_ {
        let (end_a, end_b) = (self.n - self.suffix(), self.m - self.suffix());
        let count = if end_a == 0 || end_b == 0 {
            0
        } else {
            self.anchors.len() + 1
        };
        (0..count).map(move |k| {
            let (ga, gb) = match k.checked_sub(1) {
                Some(p) => (self.anchors[p].0 + 1, self.anchors[p].1 + 1),
                None => (0, 0),
            };
            let (ea, eb) = self.anchors.get(k).copied().unwrap_or((end_a, end_b));
            (ga..ea, gb..eb)
        })
    }

    /// The gap rectangles a DP will align, in order: the only places
    /// [`AnchorPlan::align`] calls `score`.
    pub fn gaps(&self) -> impl Iterator<Item = (Range<usize>, Range<usize>)> + '_ {
        self.all_gaps()
            .filter(|(ra, rb)| !ra.is_empty() && !rb.is_empty())
    }

    /// Aligns every gap (step 3 of the module docs) and stitches the
    /// gaps, anchors and suffix into one alignment. The ids and
    /// `verify_eq` must be the ones the plan was made with.
    pub fn align(
        &self,
        a_ids: &[u64],
        b_ids: &[u64],
        a_unit: &[bool],
        b_unit: &[bool],
        score: &impl Fn(usize, usize) -> u64,
        verify_eq: &impl Fn(usize, usize) -> bool,
    ) -> (Vec<(usize, usize)>, AnchorStats) {
        assert_eq!(self.n, a_unit.len(), "a_unit must parallel a_ids");
        assert_eq!(self.m, b_unit.len(), "b_unit must parallel b_ids");
        let mut stats = self.stats;
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        // Gap k precedes anchor k, and the final gap follows the last
        // anchor.
        for (k, (ra, rb)) in self.all_gaps().enumerate() {
            stats.gap_cells += ra.len().saturating_mul(rb.len());
            let (mut chunk, path) = align_gap(
                ra, rb, a_ids, b_ids, a_unit, b_unit, &self.cfg, score, verify_eq,
            );
            match path {
                GapPath::Empty => {}
                GapPath::Dense => stats.dense_gaps += 1,
                GapPath::Banded => stats.banded_gaps += 1,
                GapPath::Hirschberg => stats.hirschberg_gaps += 1,
            }
            pairs.append(&mut chunk);
            pairs.extend(self.anchors.get(k).copied());
        }
        stats.gaps = stats.dense_gaps + stats.banded_gaps + stats.hirschberg_gaps;
        let suffix = self.suffix();
        pairs.extend((0..suffix).map(|k| (self.n - suffix + k, self.m - suffix + k)));
        (pairs, stats)
    }
}

/// Unique-id anchor pairs in the middle region: ids occurring exactly
/// once on each side, confirmed by `verify_eq`, reduced to the longest
/// strictly-increasing chain. Returns the chain and the number of
/// verified candidates the chain had to discard (crossings).
fn find_anchors(
    a_ids: &[u64],
    b_ids: &[u64],
    mid_a: Range<usize>,
    mid_b: Range<usize>,
    verify_eq: &impl Fn(usize, usize) -> bool,
) -> (Vec<(usize, usize)>, usize) {
    #[derive(Default, Clone, Copy)]
    struct Occ {
        a_count: u32,
        a_idx: usize,
        b_count: u32,
        b_idx: usize,
    }
    let (end_a, end_b) = (mid_a.end, mid_b.end);
    let mut occ: HashMap<u64, Occ> = HashMap::with_capacity(mid_a.len() + mid_b.len());
    for i in mid_a {
        let e = occ.entry(a_ids[i]).or_default();
        e.a_count += 1;
        e.a_idx = i;
    }
    for j in mid_b {
        let e = occ.entry(b_ids[j]).or_default();
        e.b_count += 1;
        e.b_idx = j;
    }
    let mut cands: Vec<(usize, usize)> = occ
        .values()
        .filter(|o| o.a_count == 1 && o.b_count == 1)
        .map(|o| (o.a_idx, o.b_idx))
        .collect();
    cands.sort_unstable();
    // Each a-token's standing as a unique pair: not one, one that failed
    // `verify_eq`, or a verified one. A pair `(x, y)` with equal ids is
    // its id's unique pair exactly when `standing[x]` is not `NotUnique`.
    #[derive(Clone, Copy, PartialEq)]
    enum Standing {
        NotUnique,
        Failed,
        Verified,
    }
    let mut standing = vec![Standing::NotUnique; end_a];
    for &(i, j) in &cands {
        standing[i] = if verify_eq(i, j) {
            Standing::Verified
        } else {
            Standing::Failed
        };
    }
    cands.retain(|&(i, _)| standing[i] == Standing::Verified);
    // Context confirmation: keep only anchors whose verified-identical
    // neighborhood contains *another unique pair* (or extends to a region
    // corner) on at least one side. A unique pair stranded inside churn —
    // an image tag a link-churn edit moved across its neighbor, a stray
    // survivor of a full replacement — can tie with (or lose to) an
    // exchange the DP's backtrack prefers; an anchor inside unchanged
    // material never can, and unchanged material is exactly where unique
    // neighbors also agree. Crucially, a neighboring pair of
    // mass-repeated filler (`<P>` against `<P>`) confirms nothing — every
    // filler token matches every other — so the walk skips through
    // verified filler pairs until it reaches a unique pair (confirmed), a
    // mismatch (not confirmed), or the walk cap (not confirmed; a longer
    // filler run carries no more meaning than a short one). `step` is one
    // pair of a walk: `Some(verdict)` ends it, `None` walks on.
    let step = |x: usize, y: usize| -> Option<bool> {
        if a_ids[x] != b_ids[y] {
            return Some(false);
        }
        match standing[x] {
            Standing::Verified => Some(true),
            Standing::Failed => Some(false),
            Standing::NotUnique => (!verify_eq(x, y)).then_some(false),
        }
    };
    const CONFIRM_WALK_CAP: usize = 32;
    let confirmed_back = |i: usize, j: usize| {
        for k in 1..=CONFIRM_WALK_CAP {
            if i < k && j < k {
                return true; // verified run reaches the region corner
            }
            if i < k || j < k {
                return false;
            }
            if let Some(verdict) = step(i - k, j - k) {
                return verdict;
            }
        }
        false
    };
    let confirmed_fwd = |i: usize, j: usize| {
        for k in 1..=CONFIRM_WALK_CAP {
            if i + k == end_a && j + k == end_b {
                return true;
            }
            if i + k >= end_a || j + k >= end_b {
                return false;
            }
            if let Some(verdict) = step(i + k, j + k) {
                return verdict;
            }
        }
        false
    };
    cands.retain(|&(i, j)| confirmed_back(i, j) || confirmed_fwd(i, j));
    let chain = longest_increasing_chain(&cands);
    let crossed = cands.len() - chain.len();
    (chain, crossed)
}

/// Longest subsequence of `cands` (already sorted by first component,
/// which is strictly increasing) whose second components strictly
/// increase — patience sorting with parent pointers, `O(k log k)`.
fn longest_increasing_chain(cands: &[(usize, usize)]) -> Vec<(usize, usize)> {
    if cands.len() <= 1 {
        return cands.to_vec();
    }
    // tails[d] = index into cands of the smallest-ending chain of length
    // d+1 seen so far.
    let mut tails: Vec<usize> = Vec::new();
    let mut parent: Vec<Option<usize>> = vec![None; cands.len()];
    for (k, &(_, j)) in cands.iter().enumerate() {
        let pos = tails.partition_point(|&t| cands[t].1 < j);
        parent[k] = if pos > 0 { Some(tails[pos - 1]) } else { None };
        if pos == tails.len() {
            tails.push(k);
        } else {
            tails[pos] = k;
        }
    }
    let mut chain = Vec::with_capacity(tails.len());
    let mut cur = tails.last().copied();
    while let Some(k) = cur {
        chain.push(cands[k]);
        cur = parent[k];
    }
    chain.reverse();
    chain
}

/// Which algorithm aligned a gap (aggregated into [`AnchorStats`] and,
/// upstream, the `diff.fallback.*` observability counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GapPath {
    /// One side of the gap was empty; nothing to align.
    Empty,
    /// Full-matrix DP.
    Dense,
    /// Banded (Myers-bounded) DP.
    Banded,
    /// Linear-space Hirschberg replay: the gap was too large for the
    /// full-matrix DP.
    Hirschberg,
}

/// Aligns one gap, returning absolute-index pairs and the path taken.
#[allow(clippy::too_many_arguments)]
fn align_gap(
    ra: Range<usize>,
    rb: Range<usize>,
    a_ids: &[u64],
    b_ids: &[u64],
    a_unit: &[bool],
    b_unit: &[bool],
    cfg: &AnchorConfig,
    score: &impl Fn(usize, usize) -> u64,
    verify_eq: &impl Fn(usize, usize) -> bool,
) -> (Vec<(usize, usize)>, GapPath) {
    let gn = ra.len();
    let gm = rb.len();
    if gn == 0 || gm == 0 {
        return (Vec::new(), GapPath::Empty);
    }
    let cells = gn.saturating_mul(gm);

    // Banded fallback: a big gap where every token on both sides matches
    // with weight ≤ 1 is a plain equality diff; a Myers pre-pass bounds
    // the band the optimal paths can occupy, and a DP restricted to that
    // band is O((N+M)·D) with the naive backtrack's exact tie-breaks.
    if cells > cfg.myers_min_cells && ra.clone().all(|i| a_unit[i]) && rb.clone().all(|j| b_unit[j])
    {
        if let Some(pairs) = banded_unit_gap(ra.clone(), rb.clone(), a_ids, b_ids, score, verify_eq)
        {
            return (pairs, GapPath::Banded);
        }
    }

    let gscore = |gi: usize, gj: usize| score(ra.start + gi, rb.start + gj);
    let (gap_pairs, path) = if cells <= DENSE_CELL_LIMIT {
        (weighted_lcs_dp(gn, gm, &gscore), GapPath::Dense)
    } else {
        (
            weighted_lcs_hirschberg(gn, gm, &gscore),
            GapPath::Hirschberg,
        )
    };
    (
        gap_pairs
            .into_iter()
            .map(|(gi, gj)| (ra.start + gi, rb.start + gj))
            .collect(),
        path,
    )
}

/// Banded DP over an all-unit-weight gap, reproducing the full DP's
/// alignment exactly.
///
/// A Myers diff over the class ids yields `l` verified matches — a lower
/// bound on the optimum — so every maximum-weight path keeps its
/// diagonal offset `j - i` within `[-(gn - l), gm - l]`. The DP table is
/// materialized only inside that band (out-of-band neighbors treated as
/// unreachable, which can only *under*-estimate cells that lie on no
/// optimal path), and the backtrack applies the same match/up/left
/// preference as [`crate::lcs::weighted_lcs_dp`]. Any cell the naive
/// backtrack would step to satisfies an optimality equality, which
/// places it on an optimal path and therefore inside the band with an
/// exact value — so the banded walk makes identical moves. Returns
/// `None` when the band would not be materially smaller than the full
/// rectangle (the caller's plain DP is better) or on a band violation
/// (impossible if `score` is pure; checked defensively).
fn banded_unit_gap(
    ra: Range<usize>,
    rb: Range<usize>,
    a_ids: &[u64],
    b_ids: &[u64],
    score: &impl Fn(usize, usize) -> u64,
    verify_eq: &impl Fn(usize, usize) -> bool,
) -> Option<Vec<(usize, usize)>> {
    let gn = ra.len();
    let gm = rb.len();
    let proxy = myers_diff(&a_ids[ra.clone()], &b_ids[rb.clone()]);
    let l = proxy
        .iter()
        .filter(|&&(i, j)| verify_eq(ra.start + i, rb.start + j))
        .count();
    let down = gn - l; // max skipped a-tokens on an optimal path
    let up = gm - l; // max skipped b-tokens
    let width = down + up + 1;
    let band_cells = (gn + 1).checked_mul(width)?;
    if band_cells.saturating_mul(2) >= gn.saturating_mul(gm) {
        return None;
    }

    let lo = |i: usize| i.saturating_sub(down);
    let hi = |i: usize| (i + up).min(gm);
    let idx = |i: usize, j: usize| i * width + (j + down - i);

    let mut t = vec![0u64; band_cells];
    for i in 1..=gn {
        for j in lo(i)..=hi(i) {
            let mut best = 0;
            if j > lo(i) {
                best = best.max(t[idx(i, j - 1)]); // left
            }
            if j < i + up {
                best = best.max(t[idx(i - 1, j)]); // up
            }
            if j > 0 && j + down >= i {
                let w = score(ra.start + i - 1, rb.start + j - 1);
                if w > 0 {
                    best = best.max(t[idx(i - 1, j - 1)] + w); // diagonal
                }
            }
            t[idx(i, j)] = best;
        }
    }

    // Backtrack with the naive DP's exact preference order.
    let mut rev = Vec::new();
    let (mut i, mut j) = (gn, gm);
    while i > 0 && j > 0 {
        let here = t[idx(i, j)];
        let w = score(ra.start + i - 1, rb.start + j - 1);
        if w > 0 && j + down >= i && here == t[idx(i - 1, j - 1)] + w {
            rev.push((ra.start + i - 1, rb.start + j - 1));
            i -= 1;
            j -= 1;
        } else if j < i + up && here == t[idx(i - 1, j)] {
            i -= 1;
        } else if j > lo(i) {
            j -= 1;
        } else {
            // The walk left the band: only possible if `score` violated
            // its purity contract. Let the caller run the plain DP.
            return None;
        }
    }
    rev.reverse();
    Some(rev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcs::{alignment_weight, weighted_lcs_dp};

    /// Unit-weight equality scoring over id slices, with deep "verify"
    /// that trusts the ids (tests use collision-free ids).
    fn run(a: &[u64], b: &[u64], cfg: &AnchorConfig) -> (Vec<(usize, usize)>, AnchorStats) {
        let score = |i: usize, j: usize| u64::from(a[i] == b[j]);
        let verify = |i: usize, j: usize| a[i] == b[j];
        let a_unit = vec![true; a.len()];
        let b_unit = vec![true; b.len()];
        anchored_weighted_lcs(a, b, &a_unit, &b_unit, cfg, &score, &verify)
    }

    fn dp(a: &[u64], b: &[u64]) -> Vec<(usize, usize)> {
        weighted_lcs_dp(a.len(), b.len(), &|i, j| u64::from(a[i] == b[j]))
    }

    /// Config that forces the anchored machinery on even for tiny inputs.
    fn eager() -> AnchorConfig {
        AnchorConfig {
            small_cells: 0,
            myers_min_cells: usize::MAX,
        }
    }

    #[test]
    fn identical_streams_trim_completely() {
        let a: Vec<u64> = (0..50).collect();
        let (pairs, stats) = run(&a, &a, &AnchorConfig::default());
        assert_eq!(pairs, (0..50).map(|k| (k, k)).collect::<Vec<_>>());
        assert_eq!(stats.suffix, 50);
        assert_eq!(stats.gap_cells, 0);
    }

    #[test]
    fn empty_inputs() {
        let (pairs, _) = run(&[], &[1, 2], &AnchorConfig::default());
        assert!(pairs.is_empty());
        let (pairs, _) = run(&[1, 2], &[], &AnchorConfig::default());
        assert!(pairs.is_empty());
    }

    #[test]
    fn matches_dp_on_deleted_block_with_repeats() {
        // The prefix-trim counter-example from the module docs: repeated
        // separator (id 7) around a deletion. The DP pairs the *second*
        // separator; the suffix trim reproduces that, where a prefix trim
        // would have paired the first.
        let a = [7, 1, 7, 2];
        let b = [7, 2];
        let (pairs, _) = run(&a, &b, &eager());
        assert_eq!(pairs, dp(&a, &b));
        assert_eq!(pairs, vec![(2, 0), (3, 1)]);
    }

    #[test]
    fn matches_dp_on_inserted_block_with_repeats() {
        let a = [7, 2];
        let b = [7, 1, 7, 2];
        let (pairs, _) = run(&a, &b, &eager());
        assert_eq!(pairs, dp(&a, &b));
        assert_eq!(pairs, vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn matches_dp_when_prefix_repeat_is_ambiguous() {
        // A distinct tail keeps the suffix trim out of the picture; the
        // DP matches the *second* 7 against b's first token, which the
        // gap machinery must reproduce (a greedy prefix trim would not).
        let a = [7, 1, 7, 2, 9];
        let b = [7, 2, 8];
        let (pairs, _) = run(&a, &b, &eager());
        assert_eq!(pairs, dp(&a, &b));
        assert_eq!(pairs, vec![(2, 0), (3, 1)]);
    }

    #[test]
    fn matches_dp_on_run_of_equal_tokens() {
        let a = [5, 5];
        let b = [5];
        let (pairs, _) = run(&a, &b, &eager());
        assert_eq!(pairs, dp(&a, &b));
        let (pairs, _) = run(&b, &a, &eager());
        assert_eq!(pairs, dp(&b, &a));
    }

    #[test]
    fn anchors_decompose_a_large_middle() {
        // Unique anchor runs [40,100,41] and [42,200,43] (each confirming
        // the other's context) + churn, suffix [8, 9].
        let a = [0, 1, 10, 11, 40, 100, 41, 12, 13, 42, 200, 43, 14, 8, 9];
        let b = [0, 1, 20, 40, 100, 41, 21, 22, 42, 200, 43, 23, 24, 8, 9];
        let cfg = AnchorConfig {
            small_cells: 0,
            ..AnchorConfig::default()
        };
        let (pairs, stats) = run(&a, &b, &cfg);
        assert_eq!(pairs, dp(&a, &b));
        assert!(stats.anchors >= 2, "{stats:?}");
        assert!(
            stats.gap_cells < stats.full_cells,
            "decomposition saved no work: {stats:?}"
        );
    }

    #[test]
    fn crossing_anchors_fall_back_to_one_gap() {
        // Two unique runs transposed with their context intact; forcing
        // anchors from either run would cost weight. The crossing must be
        // detected and the middle aligned as a single (exact) gap.
        let a = [40, 100, 41, 50, 200, 51, 7];
        let b = [50, 200, 51, 40, 100, 41, 7];
        let (pairs, stats) = run(&a, &b, &eager());
        assert_eq!(pairs, dp(&a, &b));
        assert!(stats.crossed_anchors > 0, "{stats:?}");
        assert_eq!(stats.anchors, 0, "{stats:?}");
    }

    #[test]
    fn weighted_anchors_match_dp_weight() {
        // Heavier "sentence" tokens (weight by id) interleaved with
        // unit "break" tokens, edit-structured.
        let a = [50, 1, 51, 1, 52, 1, 53];
        let b = [50, 1, 99, 1, 52, 1, 53];
        let w = |id: u64| if id >= 50 { id - 45 } else { 1 };
        let score = |i: usize, j: usize| if a[i] == b[j] { w(a[i]) } else { 0 };
        let verify = |i: usize, j: usize| a[i] == b[j];
        let a_unit: Vec<bool> = a.iter().map(|&x| x < 50).collect();
        let b_unit: Vec<bool> = b.iter().map(|&x| x < 50).collect();
        let (pairs, _) = anchored_weighted_lcs(&a, &b, &a_unit, &b_unit, &eager(), &score, &verify);
        let dp_pairs = weighted_lcs_dp(a.len(), b.len(), &score);
        assert_eq!(
            alignment_weight(&pairs, &score),
            alignment_weight(&dp_pairs, &score)
        );
        assert_eq!(pairs, dp_pairs);
    }

    #[test]
    fn banded_fallback_is_exact() {
        // Large all-unit gap with low-entropy churn: force the banded
        // path with a tiny threshold and demand pair-exact DP output —
        // the banded walk mirrors the naive backtrack's tie-breaks.
        let mut a: Vec<u64> = (0..200).map(|x| x % 3).collect();
        let mut b = a.clone();
        b.insert(50, 9999);
        a.insert(120, 8888);
        // Distinct heads/tails prevent trims from eating the middle.
        a.insert(0, 111);
        b.insert(0, 222);
        a.push(333);
        b.push(444);
        let cfg = AnchorConfig {
            small_cells: 0,
            myers_min_cells: 16,
        };
        let (pairs, _) = run(&a, &b, &cfg);
        assert_eq!(pairs, dp(&a, &b));
    }

    #[test]
    fn sparse_anchors_are_density_gated() {
        // The stray-survivor regime: a page replaced wholesale except for
        // one short shared run (an image tag between two <P>s). The run
        // is unique, verified, and context-confirmed — and still not
        // trustworthy, because a weighted DP can route partial matches
        // around it. The gate must withhold it and align one exact gap.
        let mut a: Vec<u64> = (1000..1030).collect();
        a.extend([5000, 5001, 5002]);
        a.extend(1030..1060);
        let mut b: Vec<u64> = (2000..2045).collect();
        b.extend([5000, 5001, 5002]);
        b.extend(2045..2060);
        let (pairs, stats) = run(&a, &b, &eager());
        assert_eq!(pairs, dp(&a, &b));
        assert_eq!(stats.anchors, 0, "{stats:?}");
        assert_eq!(stats.gated_anchors, 3, "{stats:?}");
        assert_eq!(stats.gaps, 1, "{stats:?}");
    }

    #[test]
    fn gap_path_stats_classify_gaps() {
        // A middle too churned to anchor runs exactly one dense gap.
        let a: Vec<u64> = (0..100).map(|x| 1000 + x).collect();
        let b: Vec<u64> = (0..100).map(|x| 2000 + x).collect();
        let (pairs, stats) = run(&a, &b, &eager());
        assert_eq!(pairs, dp(&a, &b));
        assert_eq!(stats.dense_gaps, 1, "{stats:?}");
        assert_eq!(stats.banded_gaps, 0, "{stats:?}");
        assert_eq!(stats.hirschberg_gaps, 0, "{stats:?}");
    }

    #[test]
    fn edit_structured_streams_match_dp_exactly() {
        // Deterministic pseudo-random base + edits (insert/delete/replace
        // blocks) over a *token-stream-shaped* alphabet: mostly distinct
        // high-entropy values (sentence content, which anchors key on)
        // interleaved with a handful of endlessly repeated low-entropy
        // values (breaks like <P>, which are never unique and so never
        // anchor). This is the decomposition's documented safe regime —
        // uniqueness implies identity, edits never transpose content. A
        // low-entropy alphabet breaks the premise (a coincidentally
        // unique value anchors a semantically unrelated position) and is
        // exactly what `CompareOptions::force_naive` upstream exists for.
        let mut state = 0xA5EDu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut fresh = 1000u64;
        for trial in 0..40 {
            let n = 20 + next() % 60;
            let mut content = |next: &mut dyn FnMut() -> usize| {
                if next().is_multiple_of(4) {
                    (next() % 3) as u64 // a repeated "break" value
                } else {
                    fresh += 1;
                    fresh // distinct "sentence" content
                }
            };
            let a: Vec<u64> = (0..n).map(|_| content(&mut next)).collect();
            let mut b = a.clone();
            for _ in 0..1 + next() % 3 {
                let op = next() % 3;
                let at = next() % (b.len() + 1);
                let len = (next() % 6).min(b.len().saturating_sub(at));
                match op {
                    0 => {
                        let ins: Vec<u64> =
                            (0..1 + next() % 5).map(|_| content(&mut next)).collect();
                        b.splice(at..at, ins);
                    }
                    1 => {
                        b.drain(at..at + len);
                    }
                    _ => {
                        let rep: Vec<u64> =
                            (0..1 + next() % 5).map(|_| content(&mut next)).collect();
                        b.splice(at..at + len, rep);
                    }
                }
            }
            let (pairs, _) = run(&a, &b, &eager());
            assert_eq!(pairs, dp(&a, &b), "trial {trial}: a={a:?} b={b:?}");
        }
    }
}
