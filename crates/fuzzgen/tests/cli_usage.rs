//! Usage-error conformance for `fuzz_stack`: malformed values and
//! unknown flags exit 2 with a diagnostic instead of running the
//! default sweep.

use std::process::Command;

const FUZZ_STACK: &str = env!("CARGO_BIN_EXE_fuzz_stack");

fn usage_error(args: &[&str], needle: &str) {
    let out = Command::new(FUZZ_STACK)
        .args(args)
        .output()
        .expect("spawn fuzz_stack");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(needle),
        "{args:?}: missing `{needle}`:\n{stderr}"
    );
}

#[test]
fn malformed_count_is_a_usage_error() {
    usage_error(&["--count", "abc"], "--count needs a count");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    usage_error(&["--nope"], "unknown flag `--nope`");
    // `MARIONETTE_THREADS=1` runs the sweep single-threaded.
    usage_error(&["--serial"], "unknown flag `--serial`");
}

#[test]
fn lanes_flag_is_unknown() {
    usage_error(&["--lanes", "2"], "unknown flag `--lanes`");
}
