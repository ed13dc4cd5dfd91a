//! Sequence-comparison substrate for the AIDE reproduction.
//!
//! The paper's HtmlDiff (§5) "appl\[ies\] Hirschberg's solution to the
//! longest common subsequence (LCS) problem (with several speed
//! optimizations)... the well-known comparison algorithm used by the UNIX
//! diff utility". RCS likewise stores reverse line deltas computed by
//! `diff`. This crate provides everything both need:
//!
//! - [`lcs`]: weighted longest-common-subsequence alignment — a full-matrix
//!   dynamic program for small inputs and Hirschberg's linear-space
//!   divide-and-conquer for large ones. Weights are what distinguish the
//!   paper's algorithm from plain diff: a pair of *sentences* can match
//!   partially, with weight equal to the number of common words.
//! - [`hirschberg`]: the linear-space divide-and-conquer fallback — a
//!   replay of the full DP's canonical backtrack in `O(m·log n)` space,
//!   pair-for-pair identical to [`lcs::weighted_lcs_dp`].
//! - [`anchor`]: anchored decomposition of the weighted LCS — trim the
//!   common suffix, split the middle at verified unique-hash anchor
//!   tokens (patience-style), and align only the gaps with the same
//!   canonical backtrack, so the result is pair-for-pair identical to
//!   the full DP on edit-structured inputs. The trim and anchors are
//!   planned before any score probe, so a caller can prepare per-token
//!   score data for the gap tokens alone.
//! - [`scratch`]: per-thread buffer pools reused across diffs (DP
//!   tables, score rows, token arenas).
//! - [`myers`]: the Myers `O((N+M)D)` greedy diff for plain equality
//!   comparison, used on the line-diff fast path.
//! - [`intern`]: token interning so line comparison is integer comparison.
//! - [`script`]: edit scripts, hunks, and alignment bookkeeping shared by
//!   consumers.
//! - [`lines`]: line-oriented diffing (the UNIX `diff` baseline the paper
//!   calls "clearly ill-suited to the comparison of structured documents"),
//!   with unified-diff output.
//! - [`metrics`]: the paper's `2W/L` similarity ratio.

pub mod anchor;
pub mod hirschberg;
pub mod intern;
pub mod lcs;
pub mod lines;
pub mod metrics;
pub mod myers;
pub mod scratch;
pub mod script;

pub use anchor::{anchored_weighted_lcs, AnchorConfig, AnchorStats};
pub use hirschberg::weighted_lcs_hirschberg;
pub use intern::Interner;
pub use lcs::{weighted_lcs, weighted_lcs_dp};
pub use lines::{diff_lines, LineDiff};
pub use metrics::lcs_ratio;
pub use myers::myers_diff;
pub use scratch::DiffScratch;
pub use script::{Alignment, EditOp, EditScript, Hunk};
