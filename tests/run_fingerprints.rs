//! The results oracle: every scenario in `paldia_experiments::fingerprints`
//! must reproduce its committed FNV-1a fingerprint over every `RunResult`
//! field (`tests/golden/run_fingerprints.txt`) — the same check
//! `repro --diff-golden` runs in `scripts/ci.sh`.
//!
//! A moved fingerprint is a behaviour change. If it is intentional,
//! re-bless with `scripts/rebless.sh` in a commit that names the rule that
//! moved it.

use paldia_experiments::fingerprints;

#[test]
fn every_run_fingerprint_reproduces() {
    let mismatches = fingerprints::gate().expect("committed run fingerprints are readable");
    assert!(
        mismatches.is_empty(),
        "run fingerprints moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn fingerprint_scenarios_are_named_uniquely() {
    let names: Vec<&str> = fingerprints::scenarios().iter().map(|s| s.0).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        names.len(),
        "duplicate scenario name in {names:?}"
    );
}
