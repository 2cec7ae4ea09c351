//! `repro` rejects arguments it does not know: a mistyped or retired
//! flag must fail fast with exit code 2, not be ignored while the rest of
//! the command line runs (without a mode flag that is the full,
//! minute-long reproduction).

use std::process::Command;

#[test]
fn unknown_option_is_rejected_before_any_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--golden-digest", "--bogus"])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown option"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no golden check may run first");
}
