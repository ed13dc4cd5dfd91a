//! Deterministic observability contract for the diff fallback metrics.
//!
//! One test function on purpose: `aide_obs::install` is process-global,
//! and a second concurrently running test would record into the same
//! registry. Everything this file asserts lives in a single scenario.

use aide_htmldiff::{html_diff, CompareOptions, Options};
use aide_obs::MetricsRegistry;
use std::sync::Arc;

const OLD: &str = "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>\
    <H1>Heading</H1>\
    <P>first paragraph with several words of prose to diff.\
    <P>second paragraph that stays exactly the same throughout.\
    <P>third paragraph, also stable, full of filler sentences.\
    </BODY></HTML>";
const NEW: &str = "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>\
    <H1>Heading</H1>\
    <P>first paragraph with a few changed words of prose to diff.\
    <P>second paragraph that stays exactly the same throughout.\
    <P>third paragraph, also stable, full of filler sentences.\
    </BODY></HTML>";

/// Runs the scenario into a fresh registry and returns its JSON export.
fn run_once() -> String {
    let reg = Arc::new(MetricsRegistry::new());
    let prev = aide_obs::install(reg.clone());
    // Fast path, then the forced-naive oracle on the same pair.
    html_diff(OLD, NEW, &Options::default());
    let naive = Options {
        compare: CompareOptions {
            force_naive: true,
            ..CompareOptions::default()
        },
        ..Options::default()
    };
    html_diff(OLD, NEW, &naive);
    let json = reg.render_json();
    aide_obs::uninstall();
    if let Some(prev) = prev {
        aide_obs::install(prev);
    }
    json
}

#[test]
fn fallback_counters_and_scratch_gauge_export_deterministically() {
    let reg = Arc::new(MetricsRegistry::new());
    let prev = aide_obs::install(reg.clone());
    html_diff(OLD, NEW, &Options::default());
    let naive = Options {
        compare: CompareOptions {
            force_naive: true,
            ..CompareOptions::default()
        },
        ..Options::default()
    };
    html_diff(OLD, NEW, &naive);
    let snap = reg.snapshot();
    aide_obs::uninstall();
    if let Some(prev) = prev {
        aide_obs::install(prev);
    }

    // The fallback trio exists on every compare — counters are created
    // at zero even when a path never ran — and partitions gap work.
    // The naive run classifies its one rectangle as dense, so dense is
    // nonzero here; this small pair never needs the banded or
    // linear-space paths.
    let c = |name: &str| {
        *snap
            .counters
            .get(name)
            .unwrap_or_else(|| panic!("missing counter {name}; have {:?}", snap.counters.keys()))
    };
    assert!(c("diff.fallback.dense") >= 1, "dense gaps counted");
    assert_eq!(c("diff.fallback.banded"), 0);
    assert_eq!(c("diff.fallback.hirschberg"), 0);
    assert_eq!(c("htmldiff.compare"), 2);

    // The scratch gauge reports pooled capacity retained on this thread
    // after the diff: the arena reuse the fast path depends on.
    let scratch = *snap
        .gauges
        .get("diff.scratch.bytes")
        .expect("diff.scratch.bytes gauge");
    assert!(scratch > 0, "scratch pool retains buffers, got {scratch}");

    // Probe-statistics histograms from both runs.
    assert_eq!(snap.histograms["htmldiff.compare.inner_lcs_evals"].count, 2);
    assert_eq!(snap.histograms["htmldiff.anchor.anchors"].count, 1);

    // Item metadata goes to gap tokens only. Each page is 18 tokens; the
    // verified suffix trim takes the six after the edited sentence, and
    // this small middle (12 × 12 cells) is one gap without anchors: 12
    // tokens a side, where metadata for both whole pages would be 36.
    // Only the fast path observes it.
    let gap_tokens = &snap.histograms["htmldiff.anchor.gap_tokens"];
    assert_eq!((gap_tokens.count, gap_tokens.sum), (1, 24));

    // Determinism: the whole JSON export — counters, gauges, histograms
    // — is byte-identical across replays (modulo the scratch gauge,
    // which reflects what this thread's pool had retained before the
    // run; two fresh runs on this thread see identical pools since the
    // first test run above warmed them).
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "metrics export must be byte-identical on replay");
}
