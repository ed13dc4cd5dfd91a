//! The `aide-lint` command-line driver.
//!
//! ```text
//! aide-lint [--root DIR] [--deny] [--emit text|json|sarif] [--waivers]
//!           [--max-waivers N] [--budget-ms N] [--lint NAME]... [--list]
//! ```
//!
//! Default mode prints human-readable diagnostics and exits 0; `--deny`
//! exits 1 if any unwaived violation exists (the CI gate). `--waivers`
//! prints the waiver accounting, and `--max-waivers N` exits 1 if the
//! waived-violation count exceeds the committed baseline. `--budget-ms N`
//! exits 1 if the analysis itself (excluding process startup) takes
//! longer than N milliseconds — CI pins the committed budget so the
//! analysis cannot quietly become a build bottleneck.
//! `--json` is shorthand for `--emit json`.

use aide_analysis::config::{Config, LINTS};
use aide_analysis::lint_workspace;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: aide-lint [--root DIR] [--deny] [--emit text|json|sarif] [--waivers] \
         [--max-waivers N] [--budget-ms N] [--lint NAME]... [--list]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    // aide-lint: allow(determinism): a CLI entry point must read its own argv
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut deny = false;
    let mut emit = "text".to_string();
    let mut waivers = false;
    let mut max_waivers: Option<usize> = None;
    let mut budget_ms: Option<u64> = None;
    let mut only: Vec<String> = Vec::new();

    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--deny" => deny = true,
            "--json" => emit = "json".to_string(),
            "--emit" => {
                emit = it.next().unwrap_or_else(|| usage()).clone();
                if !["text", "json", "sarif"].contains(&emit.as_str()) {
                    usage();
                }
            }
            "--waivers" => waivers = true,
            "--max-waivers" => {
                let n = it.next().unwrap_or_else(|| usage());
                max_waivers = Some(n.parse().unwrap_or_else(|_| usage()));
            }
            "--budget-ms" => {
                let n = it.next().unwrap_or_else(|| usage());
                budget_ms = Some(n.parse().unwrap_or_else(|_| usage()));
            }
            "--lint" => only.push(it.next().unwrap_or_else(|| usage()).clone()),
            "--list" => {
                for l in LINTS {
                    println!("{:22} {}", l.name, l.description);
                }
                return ExitCode::SUCCESS;
            }
            _ => usage(),
        }
    }

    let mut cfg = Config::default();
    if !only.is_empty() {
        for name in &only {
            if !LINTS.iter().any(|l| l.name == name) {
                eprintln!("aide-lint: unknown lint {name:?} (try --list)");
                return ExitCode::from(2);
            }
        }
        cfg.lints.retain(|l| only.iter().any(|o| o == l));
    }

    // aide-lint: allow(determinism): the budget check measures the tool's own wall clock by design
    let started = std::time::Instant::now();
    let report = match lint_workspace(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("aide-lint: cannot walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let elapsed_ms = started.elapsed().as_millis() as u64;

    if waivers {
        print!("{}", report.render_waivers());
    } else {
        match emit.as_str() {
            "json" => print!("{}", report.render_json()),
            "sarif" => print!("{}", report.render_sarif()),
            _ => print!("{}", report.render_text()),
        }
    }

    let mut failed = false;
    if let Some(cap) = max_waivers {
        if report.waived.len() > cap {
            eprintln!(
                "aide-lint: waiver count {} exceeds the committed baseline {cap}; \
                 fix the new violation or bump .aide-lint-waivers with justification",
                report.waived.len()
            );
            failed = true;
        }
    }
    if let Some(budget) = budget_ms {
        if elapsed_ms > budget {
            eprintln!(
                "aide-lint: analysis took {elapsed_ms} ms, over the committed {budget} ms budget; \
                 profile the new pass or bump .aide-lint-budget-ms with justification"
            );
            failed = true;
        }
    }
    if deny && !report.findings.is_empty() {
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
