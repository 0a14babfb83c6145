//! End-to-end determinism: the harness contract is that every experiment
//! is a pure function of its options, so the rendered JSON document —
//! the exact bytes golden files are made of — must reproduce across runs
//! and be independent of the worker-pool width.

use clear_harness::experiments::find;
use clear_harness::SuiteOptions;
use clear_workloads::Size;

fn tiny(workers: usize) -> SuiteOptions {
    SuiteOptions {
        size: Size::Tiny,
        cores: 8,
        seeds: vec![1, 2],
        retry_sweep: vec![2, 5],
        workers,
        ..SuiteOptions::default()
    }
}

/// Three representative experiments: `fig01` exercises the full suite
/// engine (sweep + seed aggregation), `sle` drives the machine directly
/// with a non-default speculation mode, and `backend-shootout`
/// fingerprints the entire traced event stream of every cell — its rows
/// embed FxHash digests, so a byte-identical document means the digests
/// reproduced exactly.
const REPRESENTATIVE: [&str; 3] = ["fig01", "sle", "backend-shootout"];

#[test]
fn same_seed_runs_render_byte_identical_json() {
    for name in REPRESENTATIVE {
        let exp = find(name).expect(name);
        let opts = tiny(4);
        let a = (exp.run)(&opts);
        let b = (exp.run)(&opts);
        assert_eq!(
            a.json.to_pretty(),
            b.json.to_pretty(),
            "{name}: repeated run drifted"
        );
        assert_eq!(a.text, b.text, "{name}: repeated text drifted");
    }
}

#[test]
fn repeated_traced_runs_produce_identical_digests() {
    use clear_harness::run_benchmark;
    use clear_machine::Preset;

    let digest = || {
        let (_, m) = run_benchmark("arrayswap", Size::Tiny, Preset::C.config(8, 5), true);
        (
            m.trace().recorded(),
            m.trace().dropped(),
            m.trace().digest(),
        )
    };
    let (a, b) = (digest(), digest());
    assert_eq!(a, b, "trace digest drifted between identical runs");
    assert!(a.0 > 0, "traced run recorded no events");
}

#[test]
fn worker_pool_width_does_not_change_results() {
    for name in REPRESENTATIVE {
        let exp = find(name).expect(name);
        let serial = (exp.run)(&tiny(1));
        let parallel = (exp.run)(&tiny(8));
        // The options block records the worker count nowhere, so the whole
        // document must match byte-for-byte.
        assert_eq!(
            serial.json.to_pretty(),
            parallel.json.to_pretty(),
            "{name}: 1-worker vs 8-worker run drifted"
        );
    }
}

/// `scaling-wide` options scaled down for debug-mode test runs: a 64/128
/// ladder instead of the golden's full 64→1024 sweep.
fn wide(workers: usize) -> SuiteOptions {
    SuiteOptions {
        size: Size::Tiny,
        cores: 128,
        seeds: vec![1],
        benchmarks: vec!["arrayswap"],
        workers,
        ..SuiteOptions::default()
    }
}

#[test]
fn scaling_wide_reproduces_byte_identically_across_runs() {
    let exp = find("scaling-wide").expect("scaling-wide registered");
    let a = (exp.run)(&wide(4));
    let b = (exp.run)(&wide(4));
    assert_eq!(
        a.json.to_pretty(),
        b.json.to_pretty(),
        "scaling-wide drifted between identical runs"
    );
    assert_eq!(a.failures, 0);
}

#[test]
fn scaling_wide_is_independent_of_grid_workers() {
    let exp = find("scaling-wide").expect("scaling-wide registered");
    let serial = (exp.run)(&wide(1));
    let parallel = (exp.run)(&wide(8));
    assert_eq!(
        serial.json.to_pretty(),
        parallel.json.to_pretty(),
        "scaling-wide: 1-worker vs 8-worker run drifted"
    );
}

/// `backend-shootout` options scaled down for debug-mode test runs: two
/// benchmarks instead of the golden's full 19, the five swept backends.
fn shootout(workers: usize) -> SuiteOptions {
    SuiteOptions {
        size: Size::Tiny,
        cores: 8,
        seeds: vec![1],
        retry_sweep: vec![5],
        benchmarks: vec!["arrayswap", "mwobject"],
        workers,
        ..SuiteOptions::default()
    }
}

#[test]
fn backend_shootout_reproduces_byte_identically_across_runs() {
    let exp = find("backend-shootout").expect("backend-shootout registered");
    let a = (exp.run)(&shootout(4));
    let b = (exp.run)(&shootout(4));
    // The shootout document carries no wall-clock fields at all, so the
    // whole thing — text and JSON — must reproduce byte-for-byte.
    assert_eq!(a.json.to_pretty(), b.json.to_pretty());
    assert_eq!(a.text, b.text);
    assert_eq!(a.failures, 0);
}

#[test]
fn backend_shootout_is_independent_of_grid_workers() {
    let exp = find("backend-shootout").expect("backend-shootout registered");
    let serial = (exp.run)(&shootout(1));
    let parallel = (exp.run)(&shootout(8));
    assert_eq!(
        serial.json.to_pretty(),
        parallel.json.to_pretty(),
        "backend-shootout: 1-worker vs 8-worker run drifted"
    );
}
