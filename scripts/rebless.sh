#!/usr/bin/env bash
# Re-bless the golden decision logs after an *intentional* scheduler policy
# or tunable change:
#
#   scripts/rebless.sh
#
# Regenerates tests/golden/decision_log_quick.jsonl (the golden scenario:
# seed 42, 90 s truncated Azure trace, GoogleNet, default tunables, serial
# engine — see experiments::diffcap) and decision_log_llm.jsonl (the
# iteration-level LLM storm scenario — see experiments::llm_iter) and
# tests/golden/run_fingerprints.txt (one hash over every RunResult field per
# scenario — see experiments::fingerprints) from the current build, then
# re-runs the gate to confirm the new files are reproducible. Review the
# resulting file diffs like code: every changed decision-log line is a
# scheduling decision your change altered (`repro --diff <old> <new>`
# narrates the first one), and every moved fingerprint is a run whose
# results changed.
#
# Do NOT re-bless to silence a failure you cannot explain — an unexplained
# golden-gate failure is the differ catching a real behavioural regression.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> repro --bless-golden"
cargo run --release -q -p paldia-experiments --bin repro -- --bless-golden

echo "==> repro --diff-golden (verifying the new files reproduce)"
cargo run --release -q -p paldia-experiments --bin repro -- --diff-golden

echo "==> re-blessed; review the diffs under tests/golden/ like code"
