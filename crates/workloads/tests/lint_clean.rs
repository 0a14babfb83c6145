//! Every registered workload's AR programs must pass the static lint
//! pass cleanly, receive a verdict, and analyze deterministically.
//!
//! This is the "workload generators are well-formed regions" gate: no
//! program may run off its end, contain dead code, read residue
//! registers, or address unmapped/misaligned memory from its sampled
//! entry arguments.

use clear_analysis::{analyze_workload, StaticBudget, WorkloadReport};
use clear_workloads::{by_name, Size, BENCHMARK_NAMES};

// Small size with 8 threads gives each workload hundreds of invocation
// pulls, enough for even the rarest weighted AR (bayes' weight-1 learn
// steps) to appear; the run is deterministic for the fixed seed.
const THREADS: usize = 8;
const SEED: u64 = 5;

fn analyze_all() -> Vec<WorkloadReport> {
    BENCHMARK_NAMES
        .iter()
        .map(|name| {
            let mut w = by_name(name, Size::Small, SEED).expect("registry name");
            analyze_workload(&mut *w, THREADS, &StaticBudget::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        })
        .collect()
}

#[test]
fn every_workload_ar_is_lint_clean() {
    for report in analyze_all() {
        for ar in &report.ars {
            assert!(
                ar.analysis.lints.is_empty(),
                "{} / {} ({}): lints found:\n{}",
                report.name,
                ar.spec.name,
                ar.spec.id,
                ar.analysis
                    .lints
                    .iter()
                    .map(|l| format!("  {l}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
    }
}

#[test]
fn every_ar_gets_a_verdict_and_bounded_blocks() {
    let reports = analyze_all();
    assert_eq!(reports.len(), 19);
    for report in &reports {
        assert!(!report.ars.is_empty(), "{}: no ARs", report.name);
        for ar in &report.ars {
            // Every verdict is one of the four classes (non-exhaustive
            // matches would not compile; this documents the invariant
            // that analysis never panics and always classifies).
            assert!(
                ar.analysis.reachable_blocks >= 1,
                "{} / {}: no reachable blocks",
                report.name,
                ar.spec.name
            );
            assert!(
                ar.analysis.instructions > 0,
                "{} / {}: empty program",
                report.name,
                ar.spec.name
            );
        }
    }
}

#[test]
fn verdicts_agree_with_declared_classes_except_known_cases() {
    // The analyzer's verdict maps onto Table 1's class for most ARs. The
    // known exceptions are pinned here:
    //
    // * deque/push-back, queue/enqueue, stack/push are *declared*
    //   likely-immutable (the paper reasons about concurrent writers),
    //   but the region itself RMWs the tail/top slot it loads its base
    //   pointer from, so the analyzer conservatively calls them indirect;
    // * NonConvertible is a size statement with no Table 1 counterpart
    //   (`expected_mutability()` is `None`), so those ARs are skipped.
    let known_disagreements = [
        ("deque", "push-back"),
        ("queue", "enqueue"),
        ("stack", "push"),
    ];
    let mut seen: Vec<(String, String)> = Vec::new();
    for report in analyze_all() {
        for ar in &report.ars {
            let Some(expected) = ar.analysis.verdict.expected_mutability() else {
                continue;
            };
            if expected != ar.spec.mutability {
                seen.push((report.name.clone(), ar.spec.name.clone()));
            }
        }
    }
    let seen_refs: Vec<(&str, &str)> = seen.iter().map(|(w, a)| (w.as_str(), a.as_str())).collect();
    assert_eq!(seen_refs, known_disagreements);
}

#[test]
fn analysis_is_deterministic() {
    let a = analyze_all();
    let b = analyze_all();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(format!("{x:?}"), format!("{y:?}"), "{} drifted", x.name);
    }
}

#[test]
fn print_verdicts_for_inspection() {
    // Not an assertion test: documents the current classification per AR
    // (visible with --nocapture). The pinned agreement matrix lives in
    // the harness's static-agreement golden.
    for report in analyze_all() {
        for ar in &report.ars {
            println!(
                "{:12} {:16} declared={:17} verdict={:17} lines={:?} depth={}",
                report.name,
                ar.spec.name,
                ar.spec.mutability.to_string(),
                ar.analysis.verdict.to_string(),
                ar.analysis.footprint.lines,
                ar.analysis.max_depth,
            );
        }
    }
}
