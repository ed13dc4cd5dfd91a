//! Golden rendered output: `fnv1a64` of the `html_diff` page for every
//! workload edit model at three page sizes, for every presentation, and
//! for the word-level and muddle-fallback renderers.
//!
//! The hashes pin the exact bytes HtmlDiff renders, so a change to the
//! tokenizer, the comparison or the renderer that moves a single byte
//! fails here. A deliberate output change must update the table and say
//! why.

use aide_htmldiff::{html_diff, Options, Presentation};
use aide_util::checksum::fnv1a64;
use aide_util::rng::Rng;
use aide_workloads::edits::EditModel;
use aide_workloads::page::Page;

fn models() -> [(&'static str, EditModel); 6] {
    [
        ("append", EditModel::AppendNews),
        ("inplace", EditModel::InPlaceEdit { sentences: 2 }),
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

fn pair(bytes: usize, model: EditModel) -> (String, String) {
    let mut rng = Rng::new(7);
    let mut page = Page::generate(&mut rng, bytes);
    let old = page.render();
    model.apply(&mut page, &mut rng, 1);
    (old, page.render())
}

/// An 8 KB page with a few words swapped inside sentences, so sentences
/// match approximately and the word-level renderer has work to do.
fn word_edit_pair() -> (String, String) {
    let (old, _) = pair(8 * 1024, EditModel::AppendNews);
    let new = old.replacen(" the ", " a ", 4).replacen(" of ", " in ", 3);
    (old, new)
}

/// Every rendered case, as `(name, fnv1a64 of the html)`.
fn rendered() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut push = |name: String, old: &str, new: &str, opts: &Options| {
        let html = html_diff(old, new, opts).html;
        out.push((name, fnv1a64(html.as_bytes())));
    };
    for (name, model) in models() {
        for kb in [2usize, 8, 32] {
            let (old, new) = pair(kb * 1024, model);
            push(format!("{name}/{kb}kb"), &old, &new, &Options::default());
        }
    }
    let (old, new) = pair(8 * 1024, EditModel::InPlaceEdit { sentences: 2 });
    let (rold, rnew) = pair(8 * 1024, EditModel::FullReplace);
    for (name, presentation) in [
        ("merged", Presentation::Merged),
        ("only_differences", Presentation::OnlyDifferences),
        ("reversed", Presentation::Reversed),
        ("new_only", Presentation::NewOnly),
        ("side_by_side", Presentation::SideBySide),
    ] {
        let opts = Options {
            presentation,
            ..Options::default()
        };
        push(format!("presentation/{name}/inplace"), &old, &new, &opts);
        push(format!("presentation/{name}/replace"), &rold, &rnew, &opts);
    }
    let (wold, wnew) = word_edit_pair();
    let inline = Options {
        inline_word_diff: true,
        ..Options::default()
    };
    push("inline_word_diff".into(), &wold, &wnew, &inline);
    push(
        "inline_word_diff/off".into(),
        &wold,
        &wnew,
        &Options::default(),
    );
    let fallback = Options {
        fallback_on_muddle: true,
        ..Options::default()
    };
    push("fallback_on_muddle".into(), &rold, &rnew, &fallback);
    out
}

/// Computed from the renderer before the token model borrowed its words.
const GOLDEN: &[(&str, u64)] = &[
    ("append/2kb", 0x5d9e83d24cbc253a),
    ("append/8kb", 0x394da3a66e6f3cfc),
    ("append/32kb", 0x7a9d546558179b4e),
    ("inplace/2kb", 0xc975010ad55c64e9),
    ("inplace/8kb", 0xb84e59c5d8d8eece),
    ("inplace/32kb", 0xd50f8b9065cae882),
    ("delete/2kb", 0xaa8514f26940ce0b),
    ("delete/8kb", 0x1cd3b3488ff6c829),
    ("delete/32kb", 0xc0dc01f28d96a485),
    ("reformat/2kb", 0x5222ecccf36beb52),
    ("reformat/8kb", 0xb43367033f996fef),
    ("reformat/32kb", 0x387f81a34b5d9446),
    ("replace/2kb", 0x8c290e8fb34b5b6e),
    ("replace/8kb", 0x7de458dff6abf659),
    ("replace/32kb", 0x1fb022d33b3a54c3),
    ("links/2kb", 0xdaafa0cc8e8151ae),
    ("links/8kb", 0x6f4a7cbf39d4d174),
    ("links/32kb", 0x08f19d89b0769987),
    ("presentation/merged/inplace", 0xb84e59c5d8d8eece),
    ("presentation/merged/replace", 0x7de458dff6abf659),
    ("presentation/only_differences/inplace", 0x56e7e368b8ea6cf4),
    ("presentation/only_differences/replace", 0x6d3ec639a94bc5cc),
    ("presentation/reversed/inplace", 0x7b3bac56aa7ba0c6),
    ("presentation/reversed/replace", 0x9e9a7a7e37865a05),
    ("presentation/new_only/inplace", 0x76b9b2865cb0e33c),
    ("presentation/new_only/replace", 0xb2cb347e47606d68),
    ("presentation/side_by_side/inplace", 0x84fdd90965be2269),
    ("presentation/side_by_side/replace", 0x9fcf40e303622a80),
    ("inline_word_diff", 0xea586110bb108e29),
    ("inline_word_diff/off", 0xb26b50f15104f917),
    ("fallback_on_muddle", 0x077bd8e855f08715),
];

#[test]
fn rendered_output_is_pinned() {
    let got = rendered();
    let table: String = got
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", {h:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, h)| (n.to_string(), h)).collect();
    assert_eq!(got, expected, "rendered output moved; now:\n{table}");
}

#[test]
fn inline_case_really_marks_words() {
    let (old, new) = word_edit_pair();
    let plain = html_diff(&old, &new, &Options::default());
    assert!(plain.stats.changed_pairs > 0, "{:?}", plain.stats);
    let opts = Options {
        inline_word_diff: true,
        ..Options::default()
    };
    assert_ne!(html_diff(&old, &new, &opts).html, plain.html);
}

#[test]
fn fallback_case_really_falls_back() {
    let (old, new) = pair(8 * 1024, EditModel::FullReplace);
    let opts = Options {
        fallback_on_muddle: true,
        ..Options::default()
    };
    let r = html_diff(&old, &new, &opts);
    assert!(r.too_muddled, "{:?}", r.muddle);
    assert!(r.html.contains("too many changes"));
}
