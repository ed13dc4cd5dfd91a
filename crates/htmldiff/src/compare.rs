//! The HtmlDiff comparison algorithm (§5.1).
//!
//! A weighted LCS over the token streams, where:
//!
//! - sentence-breaking markups match only each other, and only when
//!   "identical (modulo whitespace, case, and reordering of
//!   (variable,value) pairs)", with weight 1;
//! - sentences match only sentences, in two steps: a **length screen**
//!   ("if the lengths of two sentences are not 'sufficiently close', then
//!   they do not match") followed by an **inner LCS**: with `W` the
//!   number of words and content-defining markups in the LCS of the two
//!   sentences and `L` the sum of their lengths, the pair matches with
//!   weight `W` iff `2W / L` is sufficiently large.
//!
//! Both thresholds are tunable in [`CompareOptions`]; the defaults
//! reproduce the paper's qualitative behaviour and the ablation
//! experiment sweeps them.
//!
//! # The fast path
//!
//! By default the outer alignment runs in two passes. The first gives
//! every token a match-class hash ([`token_class_hash`]; a sentence's
//! was computed by the tokenizer, so only breaks are hashed here) and
//! nothing else: [`aide_diffcore::anchor::plan_anchors`] trims the common
//! suffix and picks unique anchors on those hashes alone, confirming
//! every hash equality it acts on with a deep comparison
//! (sentences by derived equality, breaks by
//! [`Tag::matches_modulo_order`]), so a hash collision can cost time but
//! never change the output. The second pass builds score metadata only
//! for the tokens inside the gaps the plan leaves, because no other token
//! is ever probed: the cached content length, interned `u32` ids for
//! every sentence item and break, and bitmap rows, stored in a per-diff
//! arena drawn from the [`aide_diffcore::scratch`] pools so back-to-back
//! diffs reuse their allocations. The interner, arena and bitmaps are
//! sized to the edit, not the page. The interner keys borrow words and
//! tag fields from the token streams, so interning copies nothing. Score
//! probes are then O(1) screens plus an integer-compare inner LCS
//! instead of deep re-walks of the item lists: a break probe is one id
//! compare, and before any inner LCS runs, a multiset-intersection bound
//! over each sentence's content ids — read off per-sentence bitmaps,
//! with a merge walk over the *sorted* ids only when the bitmaps cannot
//! settle it — proves most non-matching pairs apart (the intersection
//! size is an upper bound on the achievable `W`, so a pair whose bound
//! already fails the `2W/L` threshold is rejected without the DP; pairs
//! that could match still run the exact inner LCS). The output is
//! byte-identical to the naive full DP on edit-structured inputs (the
//! property suite asserts it across the workload edit models).
//! Ablation experiments that must measure the paper's algorithm (probe
//! counts, screen traffic) set [`CompareOptions::force_naive`], which
//! runs the full DP over the same metadata built for one page-sized gap,
//! with unchanged counter semantics (the screen/inner-LCS counters
//! increment at the same probe points on every path, prune or no prune).

use crate::token::{token_class_hash, DiffToken, Inline, Sentence};
use aide_diffcore::anchor::{plan_anchors, AnchorConfig};
use aide_diffcore::lcs::{weighted_lcs, DP_CELL_LIMIT};
use aide_diffcore::metrics::lcs_ratio;
use aide_diffcore::scratch;
use aide_diffcore::script::Alignment;
use aide_diffcore::Interner;
use aide_htmlkit::lexer::{Name, Tag, TagKind};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// Tunables for the comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareOptions {
    /// Minimum `2W / L` ratio for two sentences to match (the paper's
    /// "sufficiently large" percentage).
    pub match_threshold: f64,
    /// Length screen: the shorter sentence must be at least this fraction
    /// of the longer one ("sufficiently close" lengths). `None` disables
    /// the screen (the ablation case).
    pub length_screen: Option<f64>,
    /// Bypass the anchored fast path and run the naive full DP.
    ///
    /// The fast path produces byte-identical output on real revision
    /// histories, but only the naive DP probes every token pair — so
    /// ablations that report probe counters (`inner_lcs_evals`,
    /// `screened_out`) must set this to measure what the paper measured.
    pub force_naive: bool,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions {
            match_threshold: 0.5,
            length_screen: Some(0.4),
            force_naive: false,
        }
    }
}

/// The result of comparing two token streams.
#[derive(Debug, Clone)]
pub struct TokenAlignment {
    /// Matched token index pairs (old, new), with the standard
    /// [`Alignment`] invariants.
    pub alignment: Alignment,
    /// For each matched pair, whether the two tokens are *identical*
    /// (as opposed to approximately matched sentences).
    pub identical: Vec<bool>,
    /// Number of sentence-pair score evaluations that reached the inner
    /// LCS (the quantity the length screen exists to reduce).
    pub inner_lcs_evals: usize,
    /// Number of pairs rejected by the length screen alone.
    pub screened_out: usize,
}

/// The single home of the paper's "sufficiently close" length test —
/// evaluated exactly once per score probe.
fn length_screened(la: usize, lb: usize, opts: &CompareOptions) -> bool {
    match opts.length_screen {
        Some(screen) => {
            let (short, long) = if la < lb { (la, lb) } else { (lb, la) };
            long > 0 && (short as f64) < screen * long as f64
        }
        None => false,
    }
}

/// Computes the weight with which two sentences match; `0` = no match.
///
/// # Examples
///
/// ```
/// use aide_htmldiff::compare::{sentence_match_weight, CompareOptions};
/// use aide_htmldiff::tokenize::tokenize;
///
/// let a = tokenize("the quick brown fox jumps");
/// let b = tokenize("the quick red fox jumps");
/// let (sa, sb) = (a[0].as_sentence().unwrap(), b[0].as_sentence().unwrap());
/// let w = sentence_match_weight(sa, sb, &CompareOptions::default());
/// assert_eq!(w, 4); // the, quick, fox, jumps
/// ```
pub fn sentence_match_weight(a: &Sentence<'_>, b: &Sentence<'_>, opts: &CompareOptions) -> u64 {
    let la = a.content_len();
    let lb = b.content_len();
    if la == 0 && lb == 0 {
        // Pure-formatting sentences (e.g. a lone <FONT> run): match only
        // if identical.
        return u64::from(a == b);
    }
    if a == b {
        return la.max(1) as u64;
    }
    if length_screened(la, lb, opts) {
        return 0;
    }
    // Inner LCS over sentence items: exact matches only, weight 1 each.
    let pairs = weighted_lcs(a.items.len(), b.items.len(), &|i, j| {
        u64::from(a.items[i].matches(&b.items[j]))
    });
    // W counts only content items among the matches.
    let w = pairs
        .iter()
        .filter(|&&(i, _)| a.items[i].is_content())
        .count() as u64;
    if w == 0 {
        return 0;
    }
    if lcs_ratio(w, la, lb) >= opts.match_threshold {
        w
    } else {
        0
    }
}

/// The equivalence class of one sentence item under [`Inline::matches`]
/// (words verbatim, markups modulo attribute order), or of one break
/// under [`Tag::matches_modulo_order`]. Interning these gives dense ids
/// whose equality *is* the match predicate, so the inner LCS and break
/// probes compare integers. Keys borrow from the token streams.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ItemKey<'t> {
    Word(&'t str),
    Markup(Name<'t>, TagKind, Vec<(Name<'t>, Option<&'t str>)>),
}

impl Hash for ItemKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            // Nearly every key is a word: feed its bytes in one write.
            // A word that hashes like a markup is told apart by `Eq`.
            ItemKey::Word(w) => state.write(w.as_bytes()),
            ItemKey::Markup(name, kind, attrs) => {
                name.hash(state);
                kind.hash(state);
                attrs.hash(state);
            }
        }
    }
}

fn tag_key<'t>(tag: &'t Tag<'_>) -> ItemKey<'t> {
    let mut attrs: Vec<_> = tag.attrs.iter().map(|(n, v)| (*n, v.as_deref())).collect();
    attrs.sort_unstable();
    ItemKey::Markup(tag.name, tag.kind, attrs)
}

fn item_key<'t>(item: &'t Inline<'_>) -> ItemKey<'t> {
    match item {
        Inline::Word(w) => ItemKey::Word(w),
        Inline::Markup(tag) => tag_key(tag),
    }
}

/// The per-diff metadata arena: every token's interned item ids live in
/// one contiguous buffer (tokens hold ranges into it), with a parallel
/// buffer of each sentence's content ids in *sorted* order for the
/// intersection screen. Buffers come from the [`scratch`] pools and are
/// returned when the diff completes, so consecutive diffs on a thread
/// reuse their allocations instead of re-churning hundreds of tiny
/// per-token `Vec`s.
struct MetaArena {
    /// Interned item ids, token-contiguous; shared across both streams
    /// (one interner), so `id == id` ⇔ `Inline::matches`.
    ids: Vec<u32>,
    /// Per-sentence content ids in ascending order.
    sorted_content: Vec<u32>,
    /// Indexed by interned id: is the item content-defining? Content-ness
    /// is a function of the item's match class ([`Inline::is_content`]
    /// depends only on the word / tag name that the [`ItemKey`] carries),
    /// so it is stored once per id, not once per occurrence.
    id_is_content: Vec<bool>,
}

impl MetaArena {
    fn take() -> Self {
        MetaArena {
            ids: scratch::take_u32_buf(),
            sorted_content: scratch::take_u32_buf(),
            id_is_content: Vec::new(),
        }
    }

    fn give(self) {
        scratch::give_u32_buf(self.ids);
        scratch::give_u32_buf(self.sorted_content);
    }
}

/// One token's comparison metadata, so score probes never re-walk item
/// lists. Built only for gap tokens — the only ones a probe reads — and
/// left at its default everywhere else. Item data lives in the shared
/// [`MetaArena`]; tokens hold ranges.
#[derive(Clone, Copy, Default)]
struct TokenMeta {
    /// Cached [`Sentence::content_len`] (0 for breaks).
    content_len: usize,
    /// Range of this token's item ids in [`MetaArena::ids`].
    items_start: usize,
    items_end: usize,
    /// Range of this sentence's sorted content ids in
    /// [`MetaArena::sorted_content`].
    sorted_start: usize,
    sorted_end: usize,
    /// Largest multiplicity of any single content id in this sentence
    /// (`0` for breaks / contentless sentences) — the factor that turns
    /// a distinct-id intersection count into a multiset bound.
    max_mult: u64,
    /// For break tokens (max match weight 1), the interned modulo-order
    /// key: two breaks match iff their ids are equal. `None` for
    /// sentences.
    break_id: Option<u32>,
    /// This token's row in [`ProbeTables::sig`].
    row: usize,
}

/// Interns `t`'s items (or, for a break, its modulo-order key) into the
/// arena and returns its metadata.
fn token_meta<'t>(
    t: &'t DiffToken<'_>,
    row: usize,
    interner: &mut Interner<ItemKey<'t>>,
    arena: &mut MetaArena,
) -> TokenMeta {
    let s = match t {
        DiffToken::Break(tag) => {
            // Break names are sentence-breaking and inline markup names
            // are not, so break ids never occur among items.
            let id = interner.intern(tag_key(tag));
            if id as usize == arena.id_is_content.len() {
                arena.id_is_content.push(false);
            }
            return TokenMeta {
                break_id: Some(id),
                row,
                ..TokenMeta::default()
            };
        }
        DiffToken::Sentence(s) => s,
    };
    let items_start = arena.ids.len();
    for it in &s.items {
        let id = interner.intern(item_key(it));
        if id as usize == arena.id_is_content.len() {
            arena.id_is_content.push(it.is_content());
        }
        arena.ids.push(id);
    }
    let items_end = arena.ids.len();
    let sorted_start = arena.sorted_content.len();
    for k in items_start..items_end {
        let id = arena.ids[k];
        if arena.id_is_content[id as usize] {
            arena.sorted_content.push(id);
        }
    }
    arena.sorted_content[sorted_start..].sort_unstable();
    let mut max_mult = 0u64;
    let mut run = 0u64;
    let mut prev = None;
    for &id in &arena.sorted_content[sorted_start..] {
        run = if Some(id) == prev { run + 1 } else { 1 };
        prev = Some(id);
        max_mult = max_mult.max(run);
    }
    TokenMeta {
        // One sorted id per content item: this is
        // `Sentence::content_len` without a second walk.
        content_len: arena.sorted_content.len() - sorted_start,
        items_start,
        items_end,
        sorted_start,
        sorted_end: arena.sorted_content.len(),
        max_mult,
        break_id: None,
        row,
    }
}

/// Builds the metadata of the tokens in `ranges` (one stream's sides of
/// the gaps) into `metas`, numbering their bitmap rows from `*rows` on.
fn build_gap_meta<'t>(
    tokens: &'t [DiffToken<'_>],
    ranges: impl Iterator<Item = Range<usize>>,
    metas: &mut [TokenMeta],
    rows: &mut usize,
    interner: &mut Interner<ItemKey<'t>>,
    arena: &mut MetaArena,
) {
    for k in ranges.flatten() {
        metas[k] = token_meta(&tokens[k], *rows, interner, arena);
        *rows += 1;
    }
}

/// Whether the multiset intersection of two ascending id slices — the
/// largest possible number of disjoint equal-id pairs between them —
/// reaches `needed`. Exits as soon as the answer is decided in either
/// direction: `needed` matches accumulated (true), or too few candidates
/// remain on the shorter side to ever get there (false), so mismatched
/// sentence pairs pay far less than a full merge walk.
fn intersection_reaches(a: &[u32], b: &[u32], needed: u64) -> bool {
    let (mut x, mut y, mut got) = (0usize, 0usize, 0u64);
    loop {
        if got >= needed {
            return true;
        }
        if got + ((a.len() - x).min(b.len() - y) as u64) < needed {
            return false;
        }
        match a[x].cmp(&b[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                got += 1;
                x += 1;
                y += 1;
            }
        }
    }
}

/// Smallest weight `w` whose [`lcs_ratio`] against combined length `l`
/// clears `threshold` — computed with the exact same float comparison
/// the full scoring path uses ([`lcs_ratio`] depends only on `la + lb`),
/// so prune and full path agree verdict-for-verdict. Never below 1: a
/// zero-weight match is rejected unconditionally.
fn min_weight_to_pass(l: usize, threshold: f64) -> u64 {
    let mut w = ((threshold * l as f64) / 2.0).ceil() as u64;
    while w > 1 && lcs_ratio(w - 1, l, 0) >= threshold {
        w -= 1;
    }
    while lcs_ratio(w, l, 0) < threshold {
        w += 1;
    }
    w.max(1)
}

/// Per-compare prune table: `needed[l]` is [`min_weight_to_pass`] for
/// combined content length `l`, precomputed once so the hot probe path
/// replaces float math with an indexed load.
fn build_needed_table(mo: &[TokenMeta], mn: &[TokenMeta], threshold: f64) -> Vec<u64> {
    let max_a = mo.iter().map(|m| m.content_len).max().unwrap_or(0);
    let max_b = mn.iter().map(|m| m.content_len).max().unwrap_or(0);
    (0..=max_a + max_b)
        .map(|l| min_weight_to_pass(l, threshold))
        .collect()
}

/// Per-compare probe acceleration tables: the prune-threshold lookup
/// plus a content-id bitmap matrix with one row per gap token
/// ([`TokenMeta::row`]). Columns exist only for the content ids that
/// occur on *both* sides, numbered densely: an id on one side only can
/// never be set in both an old and a new row, so leaving it out changes
/// no AND and shortens every row. Each row has two layers of `sig_words`
/// words: layer 1 sets a shared id's bit iff the sentence contains the
/// id, layer 2 iff it contains it at least twice. The bitmaps are
/// *exact*, not hashed, and the multiset intersection the merge walk
/// computes is `Σ_k popcount(layer_k(a) & layer_k(b))` over count
/// layers `k ≥ 1`, so with `m = min(max_mult)`:
///
/// - `popcount(l1(a) & l1(b)) + (m - 1) · popcount(l2(a) & l2(b))` is a
///   sound upper bound on it (layers above 2 are subsets of layer 2,
///   and empty past `m`), and
/// - for `m ≤ 2` that bound *is* the intersection.
///
/// So most sentence pairs are decided by a few word-sized ANDs, and only
/// pairs with a word repeated three times on both sides that pass the
/// bound pay for the walk.
struct ProbeTables {
    needed: Vec<u64>,
    sig: Vec<u64>,
    sig_words: usize,
}

impl ProbeTables {
    /// Upper bound on the multiset intersection of the content ids of
    /// the sentences in rows `ra` and `rb`, and whether it is exact.
    fn intersection_bound(&self, ra: usize, rb: usize, min_mult: u64) -> (u64, bool) {
        let w = self.sig_words;
        let a = &self.sig[2 * w * ra..2 * w * (ra + 1)];
        let b = &self.sig[2 * w * rb..2 * w * (rb + 1)];
        let common = |layer: usize| -> u64 {
            let (a, b) = (
                &a[layer * w..(layer + 1) * w],
                &b[layer * w..(layer + 1) * w],
            );
            a.iter()
                .zip(b)
                .map(|(x, y)| u64::from((x & y).count_ones()))
                .sum()
        };
        let distinct = common(0);
        if min_mult < 2 {
            return (distinct, true);
        }
        (distinct + (min_mult - 1) * common(1), min_mult == 2)
    }
}

/// Builds the tables over `rows` gap tokens. Tokens outside the gaps have
/// no content ids, so they add no column and set no bit.
fn build_probe_tables(
    mo: &[TokenMeta],
    mn: &[TokenMeta],
    rows: usize,
    arena: &MetaArena,
    vocab: usize,
    threshold: f64,
) -> ProbeTables {
    // `column[id]`: bit 0 / bit 1 = seen in an old / new sentence, then
    // rewritten to the shared id's column + 1 (0 = not shared).
    let mut column = scratch::take_u32_buf();
    column.clear();
    column.resize(vocab, 0);
    for (side, metas) in [(1, mo), (2, mn)] {
        for m in metas {
            for &id in &arena.sorted_content[m.sorted_start..m.sorted_end] {
                column[id as usize] |= side;
            }
        }
    }
    let mut shared = 0u32;
    for c in column.iter_mut() {
        *c = if *c == 3 {
            shared += 1;
            shared
        } else {
            0
        };
    }
    let sig_words = (shared as usize).div_ceil(64);
    let mut sig = scratch::take_u64_buf();
    sig.clear();
    sig.resize(rows * 2 * sig_words, 0);
    for m in mo.iter().chain(mn.iter()) {
        let row = m.row;
        let ids = &arena.sorted_content[m.sorted_start..m.sorted_end];
        for (k, &id) in ids.iter().enumerate() {
            let Some(col) = column[id as usize].checked_sub(1) else {
                continue;
            };
            // Sorted ids put repeats side by side: a repeat of the
            // previous id goes to layer 2 (further repeats land there
            // again, harmlessly).
            let layer = usize::from(k > 0 && ids[k - 1] == id);
            sig[(2 * row + layer) * sig_words + (col as usize >> 6)] |= 1u64 << (col & 63);
        }
    }
    scratch::give_u32_buf(column);
    ProbeTables {
        needed: build_needed_table(mo, mn, threshold),
        sig,
        sig_words,
    }
}

/// Probe counters for the ablation experiment.
#[derive(Default)]
struct ScoreCounters {
    inner: Cell<usize>,
    screened: Cell<usize>,
}

/// Everything a score probe reads, built once per comparison.
struct Scorer<'s, 'a> {
    old: &'s [DiffToken<'a>],
    new: &'s [DiffToken<'a>],
    /// Every token's [`token_class_hash`].
    a_hash: &'s [u64],
    b_hash: &'s [u64],
    mo: &'s [TokenMeta],
    mn: &'s [TokenMeta],
    arena: &'s MetaArena,
    opts: &'s CompareOptions,
    tables: &'s ProbeTables,
    counters: &'s ScoreCounters,
}

impl Scorer<'_, '_> {
    /// Scores token pair `(i, j)`, both inside a gap, through the
    /// precomputed metadata. Pure (same inputs → same output);
    /// exact-match decisions gate on hashes but confirm with deep
    /// comparison (or interned ids, whose equality is the match
    /// predicate), so the score function — and therefore the alignment —
    /// is collision-proof.
    #[inline]
    fn score(&self, i: usize, j: usize) -> u64 {
        // Dispatch on the compact metadata, not the token enums: a break
        // probe is one id compare, made inline; only sentence pairs pay
        // for the call into the sentence scorer.
        match (self.mo[i].break_id, self.mn[j].break_id) {
            (Some(a), Some(b)) => u64::from(a == b),
            (None, None) => self.score_sentences(i, j),
            _ => 0,
        }
    }

    fn score_sentences(&self, i: usize, j: usize) -> u64 {
        let (arena, opts, tables) = (self.arena, self.opts, self.tables);
        let (ma, mb) = (&self.mo[i], &self.mn[j]);
        // Track screen/inner-LCS traffic for the ablation experiment.
        let la = ma.content_len;
        let lb = mb.content_len;
        if length_screened(la, lb, opts) {
            self.counters.screened.set(self.counters.screened.get() + 1);
            return 0;
        }
        let eq = self.a_hash[i] == self.b_hash[j] && self.old[i] == self.new[j];
        if !eq {
            self.counters.inner.set(self.counters.inner.get() + 1);
        }
        if la == 0 && lb == 0 {
            return u64::from(eq);
        }
        if eq {
            return la.max(1) as u64;
        }
        // Intersection prune: the inner LCS's W counts content items
        // matched by equal ids, and matched pairs are disjoint, so W
        // can never exceed the multiset intersection of the two
        // sentences' content-id multisets. When that intersection
        // cannot reach the smallest weight the `2W/L` threshold
        // accepts, the exact DP is skipped with an identical verdict.
        // This runs *after* the counter increments so probe statistics
        // are unchanged.
        let needed = tables.needed[la + lb];
        if (la.min(lb) as u64) < needed {
            return 0;
        }
        // The layered bitmaps bound the intersection from above, and
        // settle it exactly unless some content id repeats three times on
        // both sides; only then does a merge walk over the presorted ids
        // decide, bailing the moment the answer is known either way.
        let (bound, exact) =
            tables.intersection_bound(ma.row, mb.row, ma.max_mult.min(mb.max_mult));
        if bound < needed {
            return 0;
        }
        if !exact {
            let sca = &arena.sorted_content[ma.sorted_start..ma.sorted_end];
            let scb = &arena.sorted_content[mb.sorted_start..mb.sorted_end];
            if !intersection_reaches(sca, scb, needed) {
                return 0;
            }
        }
        let aid = &arena.ids[ma.items_start..ma.items_end];
        let bid = &arena.ids[mb.items_start..mb.items_end];
        let pairs = weighted_lcs(aid.len(), bid.len(), &|x, y| u64::from(aid[x] == bid[y]));
        let w = pairs
            .iter()
            .filter(|&&(x, _)| arena.id_is_content[aid[x] as usize])
            .count() as u64;
        if w == 0 {
            return 0;
        }
        if lcs_ratio(w, la, lb) >= opts.match_threshold {
            w
        } else {
            0
        }
    }
}

/// Deep equality for trim and anchor decisions: breaks modulo attribute
/// order (their match predicate), sentences exactly.
fn tokens_identical(a: &DiffToken<'_>, b: &DiffToken<'_>) -> bool {
    match (a, b) {
        (DiffToken::Break(x), DiffToken::Break(y)) => x.matches_modulo_order(y),
        (DiffToken::Sentence(x), DiffToken::Sentence(y)) => x == y,
        _ => false,
    }
}

/// Largest rectangle, in cells, whose naive-path score memo is a flat
/// dense table; larger ones memoize in a hash map so memory stays
/// bounded under Hirschberg.
const DENSE_MEMO_CELL_LIMIT: usize = 1 << 24;

/// The naive full DP with a flat memo (the pre-fast-path algorithm,
/// preserved exactly for the ablation experiments): every probe the
/// dispatcher makes is recorded once per distinct pair.
fn naive_pairs(n: usize, m: usize, score: &impl Fn(usize, usize) -> u64) -> Vec<(usize, usize)> {
    let cells = n.saturating_mul(m);
    if cells == 0 {
        return Vec::new();
    }
    if cells <= DENSE_MEMO_CELL_LIMIT {
        let memo: Vec<Cell<u64>> = vec![Cell::new(u64::MAX); cells];
        let memoized = |i: usize, j: usize| {
            let c = &memo[i * m + j];
            if c.get() == u64::MAX {
                c.set(score(i, j));
            }
            c.get()
        };
        weighted_lcs(n, m, &memoized)
    } else {
        let memo: RefCell<HashMap<(usize, usize), u64>> = RefCell::new(HashMap::new());
        let memoized = |i: usize, j: usize| {
            if let Some(&w) = memo.borrow().get(&(i, j)) {
                return w;
            }
            let w = score(i, j);
            memo.borrow_mut().insert((i, j), w);
            w
        };
        weighted_lcs(n, m, &memoized)
    }
}

/// Aligns two token streams with the weighted LCS.
///
/// Runs the anchored fast path by default and the naive full DP under
/// [`CompareOptions::force_naive`]; both produce the same output on real
/// inputs (see the module docs for the exact guarantee).
pub fn compare_tokens(
    old: &[DiffToken<'_>],
    new: &[DiffToken<'_>],
    opts: &CompareOptions,
) -> TokenAlignment {
    // Every token's class hash: the trim and the anchors need nothing
    // more.
    let mut a_hash = scratch::take_u64_buf();
    a_hash.extend(old.iter().map(token_class_hash));
    let mut b_hash = scratch::take_u64_buf();
    b_hash.extend(new.iter().map(token_class_hash));
    let verify = |i: usize, j: usize| tokens_identical(&old[i], &new[j]);
    // The naive path is the one-gap case of the same build.
    let plan = (!opts.force_naive)
        .then(|| plan_anchors(&a_hash, &b_hash, &AnchorConfig::default(), &verify));
    let gaps: Vec<(Range<usize>, Range<usize>)> = match &plan {
        Some(plan) => plan.gaps().collect(),
        None => vec![(0..old.len(), 0..new.len())],
    };

    // Only the gap tokens are ever probed: they alone get item ids,
    // sorted content ids and bitmap rows, so the interner, arena and
    // tables are sized to the edit, not the page. `mo` / `mn` keep one
    // slot per token so that a probe indexes them directly.
    let mut interner = Interner::new();
    let mut arena = MetaArena::take();
    let mut mo = vec![TokenMeta::default(); old.len()];
    let mut mn = vec![TokenMeta::default(); new.len()];
    let mut rows = 0;
    let old_gaps = gaps.iter().map(|g| g.0.clone());
    build_gap_meta(old, old_gaps, &mut mo, &mut rows, &mut interner, &mut arena);
    let new_gaps = gaps.iter().map(|g| g.1.clone());
    build_gap_meta(new, new_gaps, &mut mn, &mut rows, &mut interner, &mut arena);
    let counters = ScoreCounters::default();
    let tables = build_probe_tables(&mo, &mn, rows, &arena, interner.len(), opts.match_threshold);
    let scorer = Scorer {
        old,
        new,
        a_hash: &a_hash,
        b_hash: &b_hash,
        mo: &mo,
        mn: &mn,
        arena: &arena,
        opts,
        tables: &tables,
        counters: &counters,
    };
    let score = |i: usize, j: usize| scorer.score(i, j);

    aide_obs::counter!("htmldiff.compare", 1);
    let pairs = match &plan {
        None => {
            aide_obs::observe!("htmldiff.naive.cells", (old.len() * new.len()) as u64);
            // The naive path's one rectangle is its own "gap": classify
            // it by the algorithm `weighted_lcs` picks for it, so the
            // diff.fallback.* counters cover both paths.
            if old.len().saturating_mul(new.len()) <= DP_CELL_LIMIT {
                aide_obs::counter!("diff.fallback.dense", 1);
            } else {
                aide_obs::counter!("diff.fallback.hirschberg", 1);
            }
            naive_pairs(old.len(), new.len(), &score)
        }
        Some(plan) => {
            let a_unit: Vec<bool> = old.iter().map(DiffToken::is_break).collect();
            let b_unit: Vec<bool> = new.iter().map(DiffToken::is_break).collect();
            let (pairs, astats) = plan.align(&a_hash, &b_hash, &a_unit, &b_unit, &score, &verify);
            aide_obs::counter!("diff.fallback.dense", astats.dense_gaps as u64);
            aide_obs::counter!("diff.fallback.banded", astats.banded_gaps as u64);
            aide_obs::counter!("diff.fallback.hirschberg", astats.hirschberg_gaps as u64);
            // Per-diff alignment work, in deterministic units: the
            // virtual clock never advances during CPU work, so cell,
            // anchor and token counts stand in for stage timings.
            aide_obs::observe!("htmldiff.anchor.anchors", astats.anchors as u64);
            aide_obs::observe!("htmldiff.anchor.gaps", astats.gaps as u64);
            aide_obs::observe!("htmldiff.anchor.gap_cells", astats.gap_cells as u64);
            aide_obs::observe!("htmldiff.anchor.full_cells", astats.full_cells as u64);
            aide_obs::observe!(
                "htmldiff.anchor.coverage_permille",
                astats.coverage_permille(),
            );
            aide_obs::observe!("htmldiff.anchor.gap_tokens", rows as u64);
            pairs
        }
    };

    // Anchor and suffix pairs were verified identical by the plan. A
    // matched gap break is identical by construction (the match predicate
    // is modulo-order equality); gap sentences gate on the class hash
    // before paying for the deep comparison.
    let (anchors, suffix) = plan
        .as_ref()
        .map_or((&[][..], 0), |p| (p.anchors(), p.suffix()));
    let mut next_anchor = 0;
    let identical = pairs
        .iter()
        .map(|&(i, j)| {
            if i >= old.len() - suffix {
                return true;
            }
            if anchors.get(next_anchor) == Some(&(i, j)) {
                next_anchor += 1;
                return true;
            }
            old[i].is_break() || (a_hash[i] == b_hash[j] && old[i] == new[j])
        })
        .collect();
    arena.give();
    scratch::give_u64_buf(tables.sig);
    scratch::give_u64_buf(a_hash);
    scratch::give_u64_buf(b_hash);
    aide_obs::observe!(
        "htmldiff.compare.inner_lcs_evals",
        counters.inner.get() as u64,
    );
    aide_obs::observe!(
        "htmldiff.compare.screened_out",
        counters.screened.get() as u64
    );
    // Pooled scratch capacity on this thread after the diff — the
    // arena-reuse health gauge.
    aide_obs::gauge!("diff.scratch.bytes", scratch::retained_bytes() as u64);
    TokenAlignment {
        alignment: Alignment::new(pairs, old.len(), new.len()),
        identical,
        inner_lcs_evals: counters.inner.get(),
        screened_out: counters.screened.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::tokenize;

    fn first_sentence(html: &str) -> Sentence<'_> {
        tokenize(html)
            .into_iter()
            .find_map(|t| match t {
                DiffToken::Sentence(s) => Some(s),
                _ => None,
            })
            .expect("a sentence")
    }

    fn naive_opts() -> CompareOptions {
        CompareOptions {
            force_naive: true,
            ..CompareOptions::default()
        }
    }

    #[test]
    fn identical_sentences_match_with_full_weight() {
        let s = first_sentence("five words are in here");
        assert_eq!(sentence_match_weight(&s, &s, &CompareOptions::default()), 5);
    }

    #[test]
    fn one_word_change_still_matches() {
        let a = first_sentence("the conference starts on Monday");
        let b = first_sentence("the conference starts on Tuesday");
        let w = sentence_match_weight(&a, &b, &CompareOptions::default());
        assert_eq!(w, 4);
    }

    #[test]
    fn unrelated_sentences_do_not_match() {
        let a = first_sentence("alpha beta gamma delta");
        let b = first_sentence("one two three four");
        assert_eq!(sentence_match_weight(&a, &b, &CompareOptions::default()), 0);
    }

    #[test]
    fn length_screen_rejects_disparate_lengths() {
        let a = first_sentence("word");
        let b = first_sentence("word plus nine more words to stretch the length out");
        let screened = CompareOptions::default();
        assert_eq!(sentence_match_weight(&a, &b, &screened), 0);
        let unscreened = CompareOptions {
            length_screen: None,
            ..screened
        };
        // Without the screen the inner LCS runs; ratio 2*1/11 fails anyway.
        assert_eq!(sentence_match_weight(&a, &b, &unscreened), 0);
    }

    #[test]
    fn threshold_sweep_changes_verdict() {
        let a = first_sentence("one two three four five six");
        let b = first_sentence("one two NEW four NEW NEW");
        // LCS = one,two,four → W=3, L=12, ratio 0.5.
        let strict = CompareOptions {
            match_threshold: 0.6,
            length_screen: None,
            ..CompareOptions::default()
        };
        let lax = CompareOptions {
            match_threshold: 0.5,
            length_screen: None,
            ..CompareOptions::default()
        };
        assert_eq!(sentence_match_weight(&a, &b, &strict), 0);
        assert_eq!(sentence_match_weight(&a, &b, &lax), 3);
    }

    #[test]
    fn changed_anchor_url_still_matches_sentence() {
        // §5.2's example: same text, different HREF.
        let a = first_sentence(r#"read the <A HREF="old.html">report</A> today"#);
        let b = first_sentence(r#"read the <A HREF="new.html">report</A> today"#);
        let w = sentence_match_weight(&a, &b, &CompareOptions::default());
        // Words all match (4); the <A> markups do not; </A> does.
        assert!(w >= 4, "weight {w}");
    }

    #[test]
    fn markup_only_sentences() {
        let a = first_sentence("<FONT SIZE=3>x</FONT>");
        let only_markup = Sentence::from(
            a.items
                .iter()
                .filter(|i| !i.is_word())
                .cloned()
                .collect::<Vec<_>>(),
        );
        assert_eq!(only_markup.content_len(), 0);
        assert_eq!(
            sentence_match_weight(&only_markup, &only_markup, &CompareOptions::default()),
            1
        );
    }

    #[test]
    fn break_tokens_match_exactly_only() {
        let old = tokenize("<P>x");
        let new_same = tokenize("<P>x");
        let new_diff = tokenize("<UL>x");
        let al = compare_tokens(&old, &new_same, &CompareOptions::default());
        assert_eq!(al.alignment.pairs.len(), 2);
        let al = compare_tokens(&old, &new_diff, &CompareOptions::default());
        // Only the sentence matches; <P> vs <UL> do not.
        assert_eq!(al.alignment.pairs.len(), 1);
    }

    #[test]
    fn break_attrs_modulo_order() {
        let old = tokenize(r#"<TABLE BORDER=1 WIDTH="90%">x"#);
        let new = tokenize(r#"<table width="90%" border=1>x"#);
        let al = compare_tokens(&old, &new, &CompareOptions::default());
        assert_eq!(al.alignment.pairs.len(), 2);
        assert!(al.identical.iter().all(|&b| b));
    }

    #[test]
    fn identical_flags_distinguish_approximate_matches() {
        let old = tokenize("<P>stable sentence here. changed a little bit now");
        let new = tokenize("<P>stable sentence here. changed a little bit later");
        let al = compare_tokens(&old, &new, &CompareOptions::default());
        assert_eq!(al.alignment.pairs.len(), 3); // <P>, sentence, sentence
        assert_eq!(al.identical, vec![true, true, false]);
    }

    #[test]
    fn paragraph_to_list_content_fully_matched() {
        let old = tokenize("<P>One fish. Two fish. Red fish.");
        let new = tokenize("<UL><LI>One fish.<LI>Two fish.<LI>Red fish.</UL>");
        let al = compare_tokens(&old, &new, &CompareOptions::default());
        let matched_sentences = al
            .alignment
            .pairs
            .iter()
            .filter(|&&(i, _)| !old[i].is_break())
            .count();
        assert_eq!(matched_sentences, 3, "all content matches");
    }

    #[test]
    fn screen_counter_reports_savings() {
        // Probe-count assertions describe the paper's algorithm, so both
        // arms run the naive DP: the fast path trims/anchors away most
        // probes, making its counters a property of the optimization
        // rather than of the screen.
        let old = tokenize("tiny. a much longer sentence with many many words inside it.");
        let new = tokenize("tiny. another much longer sentence with many different words within.");
        let with = compare_tokens(&old, &new, &naive_opts());
        let without = compare_tokens(
            &old,
            &new,
            &CompareOptions {
                length_screen: None,
                ..naive_opts()
            },
        );
        assert!(with.screened_out > 0);
        assert!(without.screened_out == 0);
        assert!(without.inner_lcs_evals >= with.inner_lcs_evals);
    }

    #[test]
    fn empty_streams() {
        let al = compare_tokens(&[], &[], &CompareOptions::default());
        assert!(al.alignment.pairs.is_empty());
        let old = tokenize("<P>content here");
        let al = compare_tokens(&old, &[], &CompareOptions::default());
        assert!(al.alignment.pairs.is_empty());
    }

    /// Edit-structured document pairs on which fast and naive paths must
    /// agree exactly.
    fn revision_pairs() -> Vec<(String, String)> {
        let base = "<H1>Weekly notes</H1>\
            <P>The quick brown fox jumps over the lazy dog near the river bank. \
            Monday brings a staff meeting at ten with coffee and agendas. \
            <P>Tuesday the build system gets upgraded to the new release. \
            Wednesday is reserved for design review of the cache layer. \
            <UL><LI>first item stays<LI>second item stays<LI>third item stays</UL>\
            <P>Thursday we measure throughput under the synthetic workload mix. \
            Friday wraps up with a retrospective and planning for next week.";
        vec![
            // In-place sentence edit.
            (
                base.to_string(),
                base.replace("staff meeting at ten", "staff meeting at noon"),
            ),
            // Deleted block.
            (base.to_string(), base.replace("<LI>second item stays", "")),
            // Inserted block.
            (
                base.to_string(),
                base.replace(
                    "<P>Thursday",
                    "<P>A new paragraph appears here with fresh words. <P>Thursday",
                ),
            ),
            // Attribute churn on a break plus a reword.
            (
                base.replace("<UL>", r#"<UL TYPE="disc" COMPACT>"#),
                base.replace("<UL>", r#"<UL COMPACT TYPE="disc">"#)
                    .replace("lazy dog", "sleepy dog"),
            ),
            // Full replace.
            (
                base.to_string(),
                "<P>Entirely different content with no overlap at all here.".to_string(),
            ),
            // Identical.
            (base.to_string(), base.to_string()),
        ]
    }

    #[test]
    fn fast_path_matches_naive_on_edit_structured_inputs() {
        for (old_html, new_html) in revision_pairs() {
            let old = tokenize(&old_html);
            let new = tokenize(&new_html);
            let fast = compare_tokens(&old, &new, &CompareOptions::default());
            let naive = compare_tokens(&old, &new, &naive_opts());
            assert_eq!(fast.alignment.pairs, naive.alignment.pairs);
            assert_eq!(fast.identical, naive.identical);
        }
    }

    #[test]
    fn fast_path_probes_fewer_pairs() {
        // The point of the optimization: trims and anchors skip most
        // score probes on a mostly-unchanged document.
        let (old_html, new_html) = revision_pairs().remove(0);
        let old = tokenize(&old_html);
        let new = tokenize(&new_html);
        let fast = compare_tokens(&old, &new, &CompareOptions::default());
        let naive = compare_tokens(&old, &new, &naive_opts());
        assert!(
            fast.inner_lcs_evals + fast.screened_out < naive.inner_lcs_evals + naive.screened_out,
            "fast {}+{} vs naive {}+{}",
            fast.inner_lcs_evals,
            fast.screened_out,
            naive.inner_lcs_evals,
            naive.screened_out
        );
    }
}
