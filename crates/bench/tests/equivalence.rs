//! The PR's byte-identical-output guarantee, exercised end to end: the
//! anchored + hashed fast path must render exactly the merged page the
//! naive full-DP alignment renders, across every workload edit model —
//! not just the edit-structured cases the unit properties generate.

use aide_htmldiff::{html_diff, CompareOptions, Options};
use aide_util::rng::Rng;
use aide_workloads::edits::EditModel;
use aide_workloads::page::Page;

fn models() -> Vec<(&'static str, EditModel)> {
    vec![
        ("append", EditModel::AppendNews),
        ("inplace", EditModel::InPlaceEdit { sentences: 3 }),
        ("delete", EditModel::DeleteBlock),
        ("reformat", EditModel::Reformat),
        ("replace", EditModel::FullReplace),
        (
            "links",
            EditModel::LinkChurn {
                added: 2,
                removed: 2,
            },
        ),
    ]
}

#[test]
fn fast_path_matches_naive_across_all_edit_models() {
    let naive = Options {
        compare: CompareOptions {
            force_naive: true,
            ..CompareOptions::default()
        },
        ..Options::default()
    };
    for (name, model) in models() {
        for seed in 0..8u64 {
            let mut rng = Rng::new(seed * 31 + 7);
            let bytes = 3 * 1024 + (seed as usize % 4) * 1024; // 3–6KB
            let mut page = Page::generate(&mut rng, bytes);
            let old = page.render();
            model.apply(&mut page, &mut rng, seed);
            let new = page.render();

            let f = html_diff(&old, &new, &Options::default());
            let n = html_diff(&old, &new, &naive);
            assert_eq!(
                f.html, n.html,
                "model {name}, seed {seed}: fast path diverged from naive DP"
            );
            assert_eq!(
                format!("{:?}", f.stats),
                format!("{:?}", n.stats),
                "model {name}, seed {seed}: stats diverged"
            );
        }
    }
}

/// The full-replacement model is the adversarial case for anchoring:
/// almost no token survives, so the density gate withholds every anchor
/// and the alignment degenerates to one dense gap. Sweep it wider and at
/// the bench target size (8KB) to pin that gap's byte-identical contract.
#[test]
fn full_replacement_sweep_matches_naive() {
    let naive = Options {
        compare: CompareOptions {
            force_naive: true,
            ..CompareOptions::default()
        },
        ..Options::default()
    };
    for seed in 0..24u64 {
        let mut rng = Rng::new(seed * 101 + 13);
        let bytes = 4 * 1024 + (seed as usize % 5) * 1024; // 4–8KB
        let mut page = Page::generate(&mut rng, bytes);
        let old = page.render();
        EditModel::FullReplace.apply(&mut page, &mut rng, seed);
        let new = page.render();

        let f = html_diff(&old, &new, &Options::default());
        let n = html_diff(&old, &new, &naive);
        assert_eq!(
            f.html, n.html,
            "full replacement, seed {seed}: fast path diverged from naive DP"
        );
        assert_eq!(
            format!("{:?}", f.stats),
            format!("{:?}", n.stats),
            "full replacement, seed {seed}: stats diverged"
        );
    }
}
