//! The `repro` binary's argument handling, driven as a subprocess.

use std::process::Command;

#[test]
fn bare_repro_prints_usage_and_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).output().expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("usage: repro ["), "usage text missing: {stderr}");
    assert!(stderr.contains("subcommands:"), "subcommand list missing: {stderr}");
    assert!(!stderr.contains("panicked"), "repro panicked: {stderr}");
}
