//! Edit models: what webmasters did to pages in 1995.
//!
//! Each model produces the change pattern one of the paper's scenarios
//! needs:
//!
//! - [`EditModel::AppendNews`] — "typically content is added to the end
//!   of a page" (the WikiWikiWeb observation, §1); cheap for RCS, easy
//!   for HtmlDiff.
//! - [`EditModel::InPlaceEdit`] — "content can be modified anywhere on
//!   the page, and those changes may be too subtle to notice" — the case
//!   AIDE exists for.
//! - [`EditModel::DeleteBlock`] — "the really major change might be the
//!   item that was deleted" (§1).
//! - [`EditModel::Reformat`] — the §5.1 paragraph-to-list example:
//!   format changes with no content change.
//! - [`EditModel::FullReplace`] — "the entire contents of the page
//!   changes (such as the 'What's New in Mosaic' page)" (§8.2), the case
//!   that defeats both delta storage and differencing.
//! - [`EditModel::LinkChurn`] — Virtual Library pages where "a number of
//!   links \[are\] added at a time" (§2.1).

use crate::page::{Block, Page};
use crate::textgen::{natural_sentence, title};
use aide_util::rng::Rng;

/// A page-evolution model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditModel {
    /// Append a dated news item to the end.
    AppendNews,
    /// Rewrite `sentences` sentences somewhere in the page.
    InPlaceEdit {
        /// How many sentences change per edit.
        sentences: usize,
    },
    /// Delete one block.
    DeleteBlock,
    /// Convert one paragraph to a list (or back) without content change.
    Reformat,
    /// Regenerate the whole page at the same size.
    FullReplace,
    /// Add `added` links and remove up to `removed`.
    LinkChurn {
        /// Links added per edit.
        added: usize,
        /// Links removed per edit (at most).
        removed: usize,
    },
}

impl EditModel {
    /// Applies one edit step to `page`.
    pub fn apply(self, page: &mut Page, rng: &mut Rng, step: u64) {
        match self {
            EditModel::AppendNews => {
                page.blocks.push(Block::Para(vec![
                    format!("Update {step}:"),
                    natural_sentence(rng),
                    natural_sentence(rng),
                ]));
            }
            EditModel::InPlaceEdit { sentences } => {
                for _ in 0..sentences.max(1) {
                    let paras = page.para_indices();
                    if paras.is_empty() {
                        page.blocks.push(Block::Para(vec![natural_sentence(rng)]));
                        continue;
                    }
                    let pi = *rng.pick(&paras);
                    if let Block::Para(s) = &mut page.blocks[pi] {
                        let si = rng.index(s.len().max(1));
                        if si < s.len() {
                            s[si] = natural_sentence(rng);
                        } else {
                            s.push(natural_sentence(rng));
                        }
                    }
                }
            }
            EditModel::DeleteBlock => {
                if page.blocks.len() > 1 {
                    let i = rng.index(page.blocks.len());
                    page.blocks.remove(i);
                }
            }
            EditModel::Reformat => {
                // Find a paragraph to listify, or a list to paragraph-ify.
                let candidates: Vec<usize> = page
                    .blocks
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| matches!(b, Block::Para(_) | Block::List(_)))
                    .map(|(i, _)| i)
                    .collect();
                if candidates.is_empty() {
                    return;
                }
                let i = *rng.pick(&candidates);
                page.blocks[i] = match &page.blocks[i] {
                    Block::Para(s) => Block::List(s.clone()),
                    Block::List(items) => Block::Para(items.clone()),
                    // Candidates are filtered to paras and lists above.
                    other => other.clone(),
                };
            }
            EditModel::FullReplace => {
                let size = page.byte_size();
                *page = Page::generate(rng, size.saturating_sub(200).max(300));
            }
            EditModel::LinkChurn { added, removed } => {
                for _ in 0..removed {
                    let links: Vec<usize> = page
                        .blocks
                        .iter()
                        .enumerate()
                        .filter(|(_, b)| matches!(b, Block::Link { .. }))
                        .map(|(i, _)| i)
                        .collect();
                    if links.is_empty() {
                        break;
                    }
                    let i = *rng.pick(&links);
                    page.blocks.remove(i);
                }
                for k in 0..added {
                    page.blocks.push(Block::Link {
                        href: format!(
                            "http://www.site{}.org/new{}-{}.html",
                            rng.below(99),
                            step,
                            k
                        ),
                        text: title(rng),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_htmldiff::{html_diff, Options};

    fn base_page(seed: u64) -> Page {
        Page::generate(&mut Rng::new(seed), 3000)
    }

    #[test]
    fn append_grows_page() {
        let mut p = base_page(1);
        let before = p.blocks.len();
        EditModel::AppendNews.apply(&mut p, &mut Rng::new(2), 1);
        assert_eq!(p.blocks.len(), before + 1);
    }

    #[test]
    fn append_is_pure_insertion_for_htmldiff() {
        let mut p = base_page(2);
        let old = p.render();
        EditModel::AppendNews.apply(&mut p, &mut Rng::new(3), 1);
        let r = html_diff(&old, &p.render(), &Options::default());
        assert!(r.stats.old_only_sentences == 0, "{:?}", r.stats);
        assert!(r.stats.new_only_sentences > 0);
        assert_eq!(r.stats.changed_pairs, 0);
    }

    #[test]
    fn inplace_edit_changes_content() {
        let mut p = base_page(3);
        let old = p.render();
        EditModel::InPlaceEdit { sentences: 2 }.apply(&mut p, &mut Rng::new(4), 1);
        let r = html_diff(&old, &p.render(), &Options::default());
        assert!(r.stats.content_changed(), "{:?}", r.stats);
        // A two-sentence edit must not look like a rewrite.
        assert!(r.stats.changed_fraction < 0.5, "{:?}", r.stats);
    }

    #[test]
    fn delete_block_shrinks() {
        let mut p = base_page(4);
        let before = p.blocks.len();
        EditModel::DeleteBlock.apply(&mut p, &mut Rng::new(5), 1);
        assert_eq!(p.blocks.len(), before - 1);
    }

    #[test]
    fn reformat_preserves_content() {
        let mut p = base_page(5);
        let old = p.render();
        EditModel::Reformat.apply(&mut p, &mut Rng::new(6), 1);
        let new = p.render();
        assert_ne!(old, new, "formatting should differ");
        let r = html_diff(&old, &new, &Options::default());
        assert!(!r.stats.content_changed(), "format-only: {:?}", r.stats);
    }

    #[test]
    fn full_replace_rewrites_everything() {
        let mut p = base_page(6);
        let old = p.render();
        let old_size = p.byte_size();
        EditModel::FullReplace.apply(&mut p, &mut Rng::new(7), 1);
        let r = html_diff(&old, &p.render(), &Options::default());
        assert!(r.stats.changed_fraction > 0.6, "{:?}", r.stats);
        // Size stays in the same regime.
        assert!(p.byte_size() > old_size / 3);
    }

    #[test]
    fn link_churn_adds_links() {
        let mut p = base_page(7);
        let count_links = |p: &Page| {
            p.blocks
                .iter()
                .filter(|b| matches!(b, Block::Link { .. }))
                .count()
        };
        let before = count_links(&p);
        EditModel::LinkChurn {
            added: 5,
            removed: 1,
        }
        .apply(&mut p, &mut Rng::new(8), 1);
        let after = count_links(&p);
        assert!(after >= before + 4, "{before} -> {after}");
    }

    #[test]
    fn edits_deterministic() {
        let mut a = base_page(9);
        let mut b = base_page(9);
        EditModel::InPlaceEdit { sentences: 3 }.apply(&mut a, &mut Rng::new(10), 1);
        EditModel::InPlaceEdit { sentences: 3 }.apply(&mut b, &mut Rng::new(10), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn edits_on_tiny_pages_do_not_panic() {
        let mut p = Page {
            title: "t".to_string(),
            blocks: vec![],
        };
        let mut rng = Rng::new(11);
        for model in [
            EditModel::AppendNews,
            EditModel::InPlaceEdit { sentences: 1 },
            EditModel::DeleteBlock,
            EditModel::Reformat,
            EditModel::LinkChurn {
                added: 1,
                removed: 1,
            },
        ] {
            model.apply(&mut p, &mut rng, 0);
        }
    }
}
