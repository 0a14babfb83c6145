//! Command-line contract of the `clear-harness` binary: an unknown
//! workload name or a bad option is a usage error (exit 2 with a
//! message), never a panic.

use std::process::Command;

fn harness(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_clear-harness"))
        .args(args)
        .output()
        .expect("clear-harness starts")
}

#[test]
fn unknown_workload_exits_2_with_a_message() {
    for cmd in ["trace", "serve", "analyze"] {
        let out = harness(&[cmd, "nope"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd} nope: {stderr}");
        assert!(stderr.contains("unknown benchmark nope"), "{cmd}: {stderr}");
    }
}

#[test]
fn bad_suite_options_exit_2_with_a_message() {
    for (args, message) in [
        (["--bench", "nope"], "unknown benchmark nope"),
        (["--bench-out", "x.json"], "unknown option --bench-out"),
        (["--cores", "0"], "--cores must be at least 1"),
    ] {
        let out = harness(&[&["run", "table1"][..], &args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "run table1 {args:?}: {stderr}");
        assert!(stderr.contains(message), "run table1 {args:?}: {stderr}");
    }
}
