//! §5 experiment: diff quality — sentence-level weighted LCS vs UNIX
//! line diff across a mutation suite, plus the comparison-option
//! ablations.
//!
//! The paper's claim: "line-based comparison utilities such as UNIX diff
//! clearly are ill-suited to the comparison of structured documents such
//! as HTML." Each row mutates a generated page one way and reports:
//!
//! - how much of the document each differ flags as changed (HtmlDiff
//!   should flag little for small edits; line diff over-flags whenever
//!   lines reflow);
//! - whether the differ correctly classifies pure-formatting changes
//!   (the paragraph→list case) as no content change.
//!
//! Ablations then sweep the §5.1 knobs: the `2W/L` match threshold and
//! the sentence-length screen (quality + the screen's speed effect).

use aide_diffcore::lines::diff_lines;
use aide_htmldiff::compare::{compare_tokens, CompareOptions};
use aide_htmldiff::{html_diff, tokenize, Options};
use aide_workloads::edits::EditModel;
use aide_workloads::page::Page;
use aide_workloads::rng::Rng;

/// Reflows HTML: same tokens, different line breaks — invisible to a
/// correct HTML differ, catastrophic for a line differ.
fn reflow(html: &str) -> String {
    let words: Vec<&str> = html.split_whitespace().collect();
    let mut out = String::new();
    for (i, w) in words.iter().enumerate() {
        out.push_str(w);
        out.push(if i % 7 == 6 { '\n' } else { ' ' });
    }
    out
}

fn flagged_fraction_line(old: &str, new: &str) -> f64 {
    let d = diff_lines(old, new);
    let changed = d.deleted_lines() + d.inserted_lines();
    let total = d.old_lines.len() + d.new_lines.len();
    if total == 0 {
        0.0
    } else {
        changed as f64 / total as f64
    }
}

fn main() {
    println!("=== changed-fraction by mutation: HtmlDiff vs UNIX line diff ===\n");
    println!(
        "{:<28} {:>10} {:>10} {:>14}",
        "mutation", "htmldiff", "line diff", "content chg?"
    );
    println!("{}", "-".repeat(66));

    let mut rng = Rng::new(2024);
    let base = Page::generate(&mut rng, 8_000);
    let old_html = base.render();

    let cases: Vec<(&str, String)> = vec![
        ("identical", old_html.clone()),
        ("whitespace reflow", reflow(&old_html)),
        ("append one item", {
            let mut p = base.clone();
            EditModel::AppendNews.apply(&mut p, &mut Rng::new(1), 1);
            p.render()
        }),
        ("edit 2 sentences", {
            let mut p = base.clone();
            EditModel::InPlaceEdit { sentences: 2 }.apply(&mut p, &mut Rng::new(2), 1);
            p.render()
        }),
        ("edit 2 sentences + reflow", {
            let mut p = base.clone();
            EditModel::InPlaceEdit { sentences: 2 }.apply(&mut p, &mut Rng::new(2), 1);
            reflow(&p.render())
        }),
        ("paragraph -> list", {
            let mut p = base.clone();
            for _ in 0..3 {
                EditModel::Reformat.apply(&mut p, &mut Rng::new(3), 1);
            }
            p.render()
        }),
        ("delete a block", {
            let mut p = base.clone();
            EditModel::DeleteBlock.apply(&mut p, &mut Rng::new(4), 1);
            p.render()
        }),
        ("full replacement", {
            let mut p = base.clone();
            EditModel::FullReplace.apply(&mut p, &mut Rng::new(5), 1);
            p.render()
        }),
    ];

    for (name, new_html) in &cases {
        let h = html_diff(&old_html, new_html, &Options::default());
        let l = flagged_fraction_line(&old_html, new_html);
        println!(
            "{name:<28} {:>9.1}% {:>9.1}% {:>14}",
            100.0 * h.stats.changed_fraction,
            100.0 * l,
            if h.stats.content_changed() {
                "yes"
            } else {
                "no"
            }
        );
    }
    println!("\n(reflow rows: line diff flags ~everything; HtmlDiff flags 0.");
    println!(" paragraph->list: HtmlDiff reports format-only, no content change.)");

    // Ablation 1: the match threshold, against *word-level* edits — one
    // to several words replaced inside otherwise intact sentences, the
    // regime where the 2W/L test decides between "edited sentence" and
    // "delete + insert".
    println!("\n=== ablation: 2W/L match threshold (word-level edits) ===\n");
    println!(
        "{:<12} {:>14} {:>18} {:>16}",
        "threshold", "edited pairs", "delete+insert", "changed fraction"
    );
    let edited = {
        // Replace ~40% of the words in every third sentence.
        let mut out = String::new();
        for (i, line) in old_html.lines().enumerate() {
            if i % 3 == 0 && line.starts_with("<P>") {
                let mut words: Vec<String> = line.split(' ').map(str::to_string).collect();
                let mut wrng = Rng::new(i as u64);
                for w in words.iter_mut().skip(1) {
                    if !w.starts_with('<') && wrng.chance(0.4) {
                        *w = "REPLACED".to_string();
                    }
                }
                out.push_str(&words.join(" "));
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        out
    };
    for threshold in [0.2, 0.4, 0.5, 0.6, 0.8, 0.95] {
        let opts = Options {
            compare: CompareOptions {
                match_threshold: threshold,
                length_screen: Some(0.4),
                ..CompareOptions::default()
            },
            ..Options::default()
        };
        let r = html_diff(&old_html, &edited, &opts);
        println!(
            "{threshold:<12} {:>14} {:>18} {:>15.1}%",
            r.stats.changed_pairs,
            r.stats.old_only_sentences + r.stats.new_only_sentences,
            100.0 * r.stats.changed_fraction
        );
    }
    println!("\n(low thresholds keep edited sentences matched as pairs; high");
    println!(" thresholds degrade them into delete+insert noise, inflating the");
    println!(" changed fraction and muddying the merged page.)");

    // Ablation 2: the length screen (match quality and inner-LCS work).
    println!("\n=== ablation: sentence-length screen ===\n");
    println!(
        "{:<18} {:>12} {:>14} {:>12}",
        "screen", "inner LCS", "screened out", "matched"
    );
    let old_tokens = tokenize(&old_html);
    let new_tokens = tokenize(&edited);
    for (label, screen) in [
        ("off", None),
        ("0.25", Some(0.25)),
        ("0.4", Some(0.4)),
        ("0.6", Some(0.6)),
    ] {
        // The probe counters below report the paper's algorithm, so the
        // ablation runs the naive DP: the anchored fast path deliberately
        // avoids most probes, which would make the screen look idle.
        let opts = CompareOptions {
            match_threshold: 0.5,
            length_screen: screen,
            force_naive: true,
        };
        let al = compare_tokens(&old_tokens, &new_tokens, &opts);
        println!(
            "{label:<18} {:>12} {:>14} {:>12}",
            al.inner_lcs_evals,
            al.screened_out,
            al.alignment.pairs.len()
        );
    }
    println!("\n(the screen eliminates most pairwise sentence comparisons —");
    println!(" one of the paper's 'several speed optimizations' — at little");
    println!(" cost in matches.)");
}
