//! Command-line contract of the `clear-harness` binary: an unknown
//! workload name, a bad option, a malformed number or a malformed input
//! file is a usage error (exit 2 with a message), never a panic, and a figure prints `-` for an
//! undefined share and leaves it out of its averages.

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
fn malformed_numbers_exit_2_with_a_message() {
    for args in [
        &["fuzz", "--count", "abc"][..],
        &["fuzz", "--workers", "x"],
        &["fuzz", "--cores", "x"],
        &["serve", "arrayswap", "--ars", "x"],
        &["serve", "arrayswap", "--batch", "x"],
        &["serve", "arrayswap", "--queue", "x"],
        &["serve", "arrayswap", "--rate", "x"],
        &["serve", "arrayswap", "--batch", "0"],
        &["serve", "arrayswap", "--queue", "0"],
        &["trace", "arrayswap", "--events", "x"],
    ] {
        let out = harness(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let flag = args[args.len() - 2];
        assert!(
            stderr.contains(&format!("bad value for {flag}: ")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn removed_fuzz_and_serve_options_are_unknown() {
    for (args, message) in [
        (&["fuzz", "--matrix"][..], "unknown fuzz option --matrix"),
        (
            &["fuzz", "--bench-out", "x.json"],
            "unknown fuzz option --bench-out",
        ),
        (
            &["serve", "arrayswap", "--bench-out", "x.json"],
            "unknown option --bench-out",
        ),
    ] {
        let out = harness(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

#[test]
fn malformed_input_files_exit_2_with_a_message() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-input-files");
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = |entry: &str| format!(r#"{{"entries": [{entry}]}}"#);
    let gaps = |gaps: &str| format!(r#"{{"workload": "arrayswap", "seed": 1, "gaps": [{gaps}]}}"#);
    for (i, (cmd, text, message)) in [
        (
            "fuzz",
            corpus(r#"{"seed": "0xC1EAR", "index": -1}"#),
            "entry 0 has no non-negative integer index",
        ),
        (
            "fuzz",
            corpus(r#"{"seed": "1", "index": 2.5}"#),
            "entry 0 has no non-negative integer index",
        ),
        (
            "fuzz",
            corpus(r#"{"seed": -1, "index": 0}"#),
            "entry 0 has no seed string or non-negative integer seed",
        ),
        (
            "serve",
            gaps("10, -3, 7"),
            "gap 1 is not a non-negative integer",
        ),
        (
            "serve",
            gaps("10, 2.5"),
            "gap 1 is not a non-negative integer",
        ),
        (
            "serve",
            gaps(r#""7""#),
            "gap 0 is not a non-negative integer",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let path = dir.join(format!("input-{i}.json"));
        std::fs::write(&path, text).unwrap();
        let path = path.to_str().unwrap();
        let args: &[&str] = match cmd {
            "fuzz" => &["fuzz", "--replay", path],
            _ => &["serve", "arrayswap", "--size", "tiny", "--replay", path],
        };
        let out = harness(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
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
