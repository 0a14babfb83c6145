//! Command-line contract of the `clear-harness` binary: an unknown
//! workload name is a usage error (exit 2 with a message), never a panic.

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
