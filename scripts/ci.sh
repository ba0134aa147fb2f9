#!/usr/bin/env bash
# The full CI gate, runnable locally:
#
#   scripts/ci.sh            # lints + formatting + tier-1 suite
#
# Stages, in fail-fast order (cheapest first):
#   1. cargo fmt --check      — the tree is formatted; run `cargo fmt` to fix
#   2. cargo clippy           — zero warnings across every target (-D warnings)
#   3. paldia-lint            — token rules (d1/d2/d3/r1/r2) plus the
#      boundary-graph passes: crate classification coverage, b1 dependency
#      edges, b2 re-export leaks, call-graph reachability narratives, and
#      the stale-hatch audit. Emits target/lint-report.json for CI tooling.
#   4. cargo doc --no-deps    — rustdoc builds warning-free (missing docs, bad links)
#   5. cargo doc (core/obs/serve) — the documented-API crates additionally
#      build under -D missing_docs: every public item has rustdoc
#   6. cargo build --release  — the tier-1 build
#   7. cargo test -q          — root integration tests (tier-1 gate)
#   8. repro --diff-golden    — the current build must reproduce both committed
#      golden decision logs (quick + LLM) bit for bit (re-bless intentional
#      policy changes with scripts/rebless.sh)
#   9. repro --llm-smoke      — the iteration-level LLM storm scenario on
#      the partition engine and on the reference driver, decision streams
#      diffed empty in both directions (target/llm-report.json)
#  10. serve-smoke            — the wall-clock serving shell replays the quick
#      capture over loopback TCP and must diff divergence-free against the
#      virtual-clock session in both directions (target/serve-report.json)
#  11. cargo test --workspace — every crate's unit/property/integration tests
#  12. perfbench tests       — the outside-in benchmark package (its own
#      workspace) builds against the crates' public API and its tests pass,
#      so an API break fails CI
#  13. perfbench smoke        — one short llm-storm run at --trace 0, then
#      --trace 1; each must end with a result line reporting
#      "correct": true
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> paldia-lint --deny-all (token + boundary passes)"
mkdir -p target
cargo run -q -p paldia-lint -- --deny-all --json-artifact target/lint-report.json

echo "==> cargo doc --no-deps --workspace (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "==> cargo doc -p core/obs/serve (RUSTDOCFLAGS=-D warnings -D missing_docs)"
RUSTDOCFLAGS="-D warnings -D missing_docs" \
    cargo doc -q --no-deps -p paldia-core -p paldia-obs -p paldia-serve

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> repro --diff-golden (decision-log regression gates, quick + llm)"
cargo run --release -q -p paldia-experiments --bin repro -- --diff-golden

echo "==> repro --llm-smoke (iteration-level engine-vs-reference gate)"
# Runs the quick LLM storm scenario on the partition engine and on the
# reference driver and requires identical event streams and decision
# streams that diff empty in both directions. Publishes
# target/llm-report.json.
cargo run --release -q -p paldia-experiments --bin repro -- --llm-smoke \
    --report target/llm-report.json

echo "==> serve-smoke (wall-clock shell vs DES differential, DESIGN.md §14)"
# Replays 200 requests of the quick capture through paldia-serve on a
# loopback ephemeral port at 20x, and through the virtual-clock session;
# exits non-zero unless the decision streams diff clean in both
# directions. Publishes target/serve-report.json.
cargo run --release -q -p paldia-serve -- --smoke \
    --requests 200 --speed 20 --report target/serve-report.json

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --manifest-path perfbench/Cargo.toml"
cargo test -q --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "==> perfbench smoke (llm-storm, --trace 0 then --trace 1)"
for trace in 0 1; do
    last=$(CARGO_TARGET_DIR=target/perfbench python3 perfbench/run.py \
        --workload llm-storm --seed 1 --seconds 1 --trace "$trace" | tail -n 1)
    if [[ "$last" != *'"correct": true'* ]]; then
        echo "perfbench llm-storm --trace $trace is not correct: $last" >&2
        exit 1
    fi
done

echo "==> ci green"
