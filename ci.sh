#!/bin/sh
# Repository CI gate: formatting, lints, tests. Run from the repo root.
set -eu

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== aide-lint (deny-by-default; see LINTS.md)"
cargo run -q -p aide-analysis --bin aide-lint -- --root . --deny \
    --budget-ms "$(cat .aide-lint-budget-ms)"
cargo run -q -p aide-analysis --bin aide-lint -- --root . --waivers \
    --max-waivers "$(cat .aide-lint-waivers)"
cargo run -q -p aide-analysis --bin aide-lint -- --root . --emit json \
    > target/aide-lint.json
cargo run -q -p aide-analysis --bin aide-lint -- --root . --emit json \
    > target/aide-lint-rerun.json
cmp target/aide-lint.json target/aide-lint-rerun.json
cargo run -q -p aide-analysis --bin aide-lint -- --root . --emit sarif \
    > target/aide-lint.sarif

echo "== cargo test"
cargo test -q

echo "== fault-injection determinism (same seed => byte-identical reports)"
AIDE_FAULT_DUMP="$PWD/target/fault_report_a.html" \
    cargo test -q -p aide --test fault_tolerance >/dev/null
AIDE_FAULT_DUMP="$PWD/target/fault_report_b.html" \
    cargo test -q -p aide --test fault_tolerance >/dev/null
cmp target/fault_report_a.html target/fault_report_b.html

echo "== observability determinism (same seed => byte-identical metrics)"
AIDE_OBS_JSON="$PWD/target/obs_a.json" \
    cargo test -q -p aide --test observability >/dev/null
AIDE_OBS_JSON="$PWD/target/obs_b.json" \
    cargo test -q -p aide --test observability >/dev/null
cmp target/obs_a.json target/obs_b.json

echo "== crash-recovery determinism (every kill point, twice, byte-identical)"
AIDE_STORE_DUMP="$PWD/target/store_crash_a.txt" \
    cargo test -q -p aide-store --test crash >/dev/null
AIDE_STORE_DUMP="$PWD/target/store_crash_b.txt" \
    cargo test -q -p aide-store --test crash >/dev/null
cmp target/store_crash_a.txt target/store_crash_b.txt

echo "== bench smoke (single-iteration, compile-and-run check)"
AIDE_BENCH_SMOKE=1 cargo bench -q -p aide-bench --bench htmldiff_e2e >/dev/null
AIDE_BENCH_SMOKE=1 cargo bench -q -p aide-bench --bench snapshot_contention >/dev/null
AIDE_BENCH_SMOKE=1 cargo bench -q -p aide-bench --bench storage_engine >/dev/null
AIDE_BENCH_SMOKE=1 cargo bench -q -p aide-bench --bench rcs_ops >/dev/null

echo "== bench regression guard (committed BENCH_htmldiff.json vs budget)"
cargo run -q --release -p aide-bench --bin bench_guard -- \
    BENCH_htmldiff.json crates/bench/benches/htmldiff_budget.json

echo "== scheduler experiment (adaptive must beat threshold; byte-identical)"
cargo run -q --release -p aide-bench --bin exp_scheduler -- \
    --out target/sched_a.json
cargo run -q --release -p aide-bench --bin exp_scheduler -- \
    --out target/sched_b.json
cmp target/sched_a.json target/sched_b.json
cmp target/sched_a.json BENCH_sched.json

echo "== serve transcript determinism (same fixture => byte-identical responses)"
AIDE_SERVE_DUMP="$PWD/target/serve_transcript_a.txt" \
    cargo test -q -p aide-serve --test memento >/dev/null
AIDE_SERVE_DUMP="$PWD/target/serve_transcript_b.txt" \
    cargo test -q -p aide-serve --test memento >/dev/null
cmp target/serve_transcript_a.txt target/serve_transcript_b.txt

echo "== end-to-end benchmark self-test (real TCP, every answer checked)"
python3 aidebench/run.py --selftest

echo "CI green."
