//! Command-line contract of the `clear-harness` binary: an unknown
//! workload name or a bad option is a usage error (exit 2 with a
//! message), never a panic, and a figure prints `-` for an undefined
//! share and leaves it out of its averages.

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
        let out = harness(&[&["run", "table2"][..], &args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "run table2 {args:?}: {stderr}");
        assert!(stderr.contains(message), "run table2 {args:?}: {stderr}");
    }
}

#[test]
fn fig11_prints_no_abort_shares_for_a_cell_without_aborts() {
    let out = harness(&[
        "run", "fig11", "--size", "tiny", "--cores", "2", "--seeds", "1", "--sweep", "none",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for bench in ["kmeans-l", "ssca2"] {
        let rows: Vec<&str> = text.lines().filter(|l| l.starts_with(bench)).collect();
        assert_eq!(rows.len(), 4, "{bench}: one row per preset\n{text}");
        for row in rows {
            let cols: Vec<&str> = row.split_whitespace().collect();
            // name, preset, four shares, aborts/AR
            assert_eq!(cols[2..6], ["-"; 4], "{row}");
            assert_eq!(cols[6], "0.00", "{row}");
        }
    }
}

#[test]
fn fig13_prints_no_retry_shares_for_a_cell_without_retries() {
    let out = harness(&[
        "run", "fig13", "--size", "tiny", "--cores", "2", "--seeds", "1", "--sweep", "none",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for bench in ["kmeans-l", "ssca2"] {
        let rows: Vec<&str> = text.lines().filter(|l| l.starts_with(bench)).collect();
        assert_eq!(rows.len(), 4, "{bench}: one row per preset\n{text}");
        for row in rows {
            let cols: Vec<&str> = row.split_whitespace().collect();
            // name, preset, three shares
            assert_eq!(cols[2..], ["-"; 3], "{row}");
        }
    }
    // The averages skip those cells, so each defined one sums to 1.
    for line in text.lines().filter(|l| l.starts_with("average ")) {
        let sum: f64 = line
            .split_whitespace()
            .filter_map(|w| w.parse::<f64>().ok())
            .sum();
        assert!((sum - 1.0).abs() <= 0.015, "{line}");
    }
}
