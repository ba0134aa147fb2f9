//! `repro --timings` appends its entry to `BENCH_repro.json` in the current
//! directory — never into the checkout the binary was built from.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paldia-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is creatable");
    dir
}

#[test]
fn timings_entry_lands_in_the_current_directory() {
    let dir = temp_dir("bench-path");
    let label = format!("bench-path-test-{}", std::process::id());
    let checkout = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_repro.json");
    let before = std::fs::read_to_string(&checkout).ok();
    // An unknown figure id runs no experiment, so only the entry is written.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--timings", "no-such-figure", "--label", &label])
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(dir.join("BENCH_repro.json"))
        .expect("the entry was written into the current directory");
    assert!(written.contains(&label), "{written}");
    assert_eq!(std::fs::read_to_string(&checkout).ok(), before);
    let _ = std::fs::remove_dir_all(&dir);
}
