//! End-to-end determinism for the differential fuzzer: the same seed
//! must produce byte-identical corpora, oracle reports and litmus
//! conformance documents across repeated runs and across worker-pool
//! widths, mirroring the contract `tests/determinism.rs` pins for the
//! experiment suite. Without this, CI replay of the regression corpus
//! and the `litmus-backends` golden would both be meaningless.

use clear_fuzz::{case_seed, check_case, FuzzCase};
use clear_harness::experiments::{find, fuzz_output, parse_seed, replay_output};
use clear_harness::json::Json;
use std::sync::Arc;

const SEED_STR: &str = "0xC1EAR";
const CASES: u64 = 48;

#[test]
fn same_seed_generates_byte_identical_corpus() {
    let master = parse_seed(SEED_STR);
    for index in 0..16 {
        let a = FuzzCase::generate(master, index);
        let b = FuzzCase::generate(master, index);
        assert_eq!(case_seed(master, index), a.seed, "case seed drifted");
        assert_eq!(a.shapes, b.shapes, "index {index}: shape IR drifted");
        assert_eq!(
            format!("{:?}", a.program.instrs()),
            format!("{:?}", b.program.instrs()),
            "index {index}: lowered program drifted"
        );
        assert_eq!(a.threads, b.threads, "index {index}: thread count drifted");
        assert_eq!(
            a.invocations, b.invocations,
            "index {index}: invocation count drifted"
        );
    }
}

#[test]
fn repeated_oracle_runs_render_byte_identical_reports() {
    let a = fuzz_output(SEED_STR, CASES, 4, 0);
    let b = fuzz_output(SEED_STR, CASES, 4, 0);
    assert_eq!(a.json.to_pretty(), b.json.to_pretty(), "report drifted");
    assert_eq!(a.text, b.text, "report text drifted");
    assert_eq!(a.failures, 0, "seed corpus must be divergence-free");
}

#[test]
fn worker_width_does_not_change_the_report() {
    let narrow = fuzz_output(SEED_STR, CASES, 1, 0);
    let wide = fuzz_output(SEED_STR, CASES, 8, 0);
    assert_eq!(
        narrow.json.to_pretty(),
        wide.json.to_pretty(),
        "fuzz report depends on worker count"
    );
    assert_eq!(narrow.text, wide.text, "fuzz text depends on worker count");
}

#[test]
fn replay_is_deterministic_across_worker_widths() {
    let master = parse_seed(SEED_STR);
    let entries: Vec<(String, u64, u64)> =
        (0..8).map(|i| (format!("entry-{i}"), master, i)).collect();
    let narrow = replay_output(&entries, 1);
    let wide = replay_output(&entries, 8);
    assert_eq!(
        narrow.json.to_pretty(),
        wide.json.to_pretty(),
        "replay report depends on worker count"
    );
    assert_eq!(narrow.failures, 0, "corpus entries must replay clean");
}

#[test]
fn oracle_verdict_is_stable_per_case() {
    let master = parse_seed(SEED_STR);
    for index in 0..8 {
        let case = Arc::new(FuzzCase::generate(master, index));
        let a = check_case(&case, case.threads);
        let b = check_case(&case, case.threads);
        assert_eq!(a.verdict, b.verdict, "index {index}: verdict drifted");
        for (x, y) in a.backends.iter().zip(&b.backends) {
            assert_eq!(
                x.commits, y.commits,
                "index {index}: {} mode commit split drifted",
                x.backend
            );
        }
        assert!(a.passed(), "index {index}: seed corpus diverged");
    }
}

#[test]
fn litmus_conformance_document_is_worker_independent() {
    let exp = find("litmus-backends").expect("litmus-backends registered");
    let narrow = {
        let mut opts = (exp.golden.expect("gated"))();
        opts.workers = 1;
        (exp.run)(&opts)
    };
    let wide = {
        let mut opts = (exp.golden.expect("gated"))();
        opts.workers = 8;
        (exp.run)(&opts)
    };
    assert_eq!(
        narrow.json.to_pretty(),
        wide.json.to_pretty(),
        "litmus conformance depends on worker count"
    );
    assert_eq!(narrow.failures, 0, "litmus conformance must gate clean");
}

/// FNV-1a over a rendered document: a stable 64-bit fingerprint.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Pins the oracle's accounting to recorded values: the report over 24
/// cases, with its per-backend rows, and one 128-core case. Any leg whose
/// statistics, replay steps or check order drifts changes one of these.
#[test]
fn oracle_output_matches_pinned_values() {
    let fuzz = fuzz_output(SEED_STR, 24, 2, 0);
    assert_eq!(fnv1a(&fuzz.json.to_pretty()), 0x145e_6560_076d_6e64);
    // The `lrws` legs' buffers overflow on generated cases, so the
    // capacity-accounting check has overflows to reconcile.
    let Some(Json::Arr(rows)) = fuzz.json.get("backends") else {
        panic!("report without backend rows");
    };
    let lrws = rows
        .iter()
        .find(|r| r.get("backend") == Some(&Json::from("lrws")));
    assert_eq!(
        lrws.and_then(|r| r.get("lrws_capacity_aborts")),
        Some(&Json::Int(81))
    );
    let case = Arc::new(FuzzCase::generate(parse_seed(SEED_STR), 0));
    let wide = check_case(&case, 128);
    assert_eq!(
        (wide.reference_steps, wide.planned_ars, wide.verdict),
        (1290, 1, "likely-immutable")
    );
    assert_eq!(
        format!("{:?}", wide.clear()),
        "BackendOutcome { backend: \"clear\", commits: ModeCommits { speculative: 0, \
         scl: 128, nscl: 0, fallback: 0 }, aborts: 128, capacity_aborts: 0, \
         lrws_capacity_aborts: 0, fastpath_elided: 0, fastpath_partial: 128, \
         instructions: 2570, divergence: None }"
    );
    assert_eq!(fnv1a(&format!("{wide:?}")), 0x6dc9_e14c_d52c_f1fd);
}
