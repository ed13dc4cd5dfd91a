//! `htmldiff` — compare two HTML files and write the merged page to
//! stdout (the paper's §5 tool as a standalone command).

use aide_cli::args::{parse_htmldiff, HTMLDIFF_USAGE};
use aide_htmldiff::compare::CompareOptions;
use aide_htmldiff::{html_diff, Options, Presentation};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_htmldiff(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let read = |path: &str| -> Result<String, ExitCode> {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("htmldiff: {path}: {e}");
            ExitCode::from(2)
        })
    };
    let old = match read(&parsed.old) {
        Ok(s) => s,
        Err(c) => return c,
    };
    let new = match read(&parsed.new) {
        Ok(s) => s,
        Err(c) => return c,
    };
    let presentation = match parsed.presentation.as_str() {
        "merged" => Presentation::Merged,
        "only-differences" => Presentation::OnlyDifferences,
        "reversed" => Presentation::Reversed,
        "new-only" => Presentation::NewOnly,
        "side-by-side" => Presentation::SideBySide,
        _ => {
            eprintln!("{HTMLDIFF_USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut compare = CompareOptions::default();
    if let Some(t) = parsed.threshold {
        compare.match_threshold = t;
    }
    let opts = Options {
        presentation,
        compare,
        inline_word_diff: parsed.inline_words,
        banner: !parsed.no_banner,
        old_label: parsed.old.clone(),
        new_label: parsed.new.clone(),
        ..Options::default()
    };
    // `--obs`: record tokenizer/anchoring metrics for this one diff and
    // dump them to stderr, keeping stdout pure HTML.
    let registry = if parsed.obs {
        let r = std::sync::Arc::new(aide_obs::MetricsRegistry::new());
        aide_obs::install(r.clone());
        Some(r)
    } else {
        None
    };
    let result = html_diff(&old, &new, &opts);
    if let Some(r) = registry {
        aide_obs::uninstall();
        eprint!("{}", r.render_text());
    }
    // A closed pipe (e.g. `| head`) is a normal way to consume diffs.
    if std::io::stdout().write_all(result.html.as_bytes()).is_err() {
        return ExitCode::SUCCESS;
    }
    // diff-style exit status: 0 = identical, 1 = differences found.
    if result.stats.is_identical() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
