//! The `slo-latency` experiment: golden-gated streaming time-to-commit
//! percentiles from the serve loop.
//!
//! CLEAR's central claim is a *bound* — at most one speculative retry —
//! so its user-visible promise is a latency SLO, not just mean
//! throughput. This gate runs [`crate::serve::serve_session`] over a
//! tiny pinned grid and pins the simulated-cycle p50/p99/p999
//! time-to-commit (overall, per AR class, and per retry mode), the
//! abort-cause taxonomy, and the admission-queue accounting exactly.
//! That works because the serve session document contains only simulated
//! values ([`crate::serve`] explains the determinism argument).

use super::{opts_json, size_str, ExperimentOutput};
use crate::json::Json;
use crate::serve::{serve_session, ServeOptions};
use crate::suite::SuiteOptions;
use clear_workloads::Size;
use std::fmt::Write as _;

/// Pinned options for the `slo-latency` golden: two benchmarks with
/// different AR-class mixes (arrayswap's ARs are all immutable-footprint,
/// queue mixes mutable and likely-immutable ARs) on the tiny 8-core grid.
pub(super) fn slo_opts() -> SuiteOptions {
    SuiteOptions {
        size: Size::Tiny,
        cores: 8,
        seeds: vec![1],
        benchmarks: vec!["arrayswap", "queue"],
        ..SuiteOptions::default()
    }
}

/// Serve parameters of one gate cell, derived from the suite options.
fn cell_opts(opts: &SuiteOptions, bench: &str) -> ServeOptions {
    ServeOptions {
        workload: bench.to_string(),
        size: opts.size,
        cores: opts.cores,
        seed: opts.seeds[0],
        total_ars: 512,
        batch: 128,
        queue: 256,
        rate: 24,
        replay_gaps: None,
        snapshot_every: 4,
        max_retries: 5,
        ..ServeOptions::default()
    }
}

pub(super) fn slo_latency(opts: &SuiteOptions) -> ExperimentOutput {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== slo-latency: streaming time-to-commit percentiles ({}, {} cores) ===",
        size_str(opts.size),
        opts.cores
    );
    let mut rows = Vec::new();
    let mut ars = 0u64;
    for bench in &opts.benchmarks {
        let report = serve_session(&cell_opts(opts, bench));
        text.push_str(&report.text);
        ars += report.ars;
        let mut pairs = vec![("benchmark".to_string(), Json::from(*bench))];
        if let Json::Obj(fields) = report.json {
            // The session document is already deterministic; lift it into
            // the row wholesale (workload key dropped as redundant).
            pairs.extend(fields.into_iter().filter(|(k, _)| k != "workload"));
        }
        rows.push(Json::Obj(pairs));
    }
    let json = Json::obj([
        ("experiment", Json::from("slo-latency")),
        ("options", opts_json(opts)),
        ("rows", Json::Arr(rows)),
        ("total_ars", Json::from(ars)),
    ]);
    ExperimentOutput::new(text, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_rows_pin_percentiles_per_class_and_mode() {
        let out = slo_latency(&slo_opts());
        assert_eq!(out.failures, 0);
        let Some(Json::Arr(rows)) = out.json.get("rows") else {
            panic!("rows missing");
        };
        assert_eq!(rows.len(), 2);
        for row in rows {
            let ttc = row.get("ttc").expect("overall ttc");
            for q in ["p50", "p99", "p999"] {
                assert!(matches!(ttc.get(q), Some(Json::Int(_))), "{q}");
            }
            let Some(Json::Arr(by_mode)) = row.get("ttc_by_mode") else {
                panic!("ttc_by_mode missing");
            };
            assert!(!by_mode.is_empty());
            let q = row.get("queue").expect("queue block");
            assert_eq!(q.get("dropped"), Some(&Json::Int(0)));
        }
    }

    #[test]
    fn slo_document_is_deterministic_across_runs() {
        let a = slo_latency(&slo_opts());
        let b = slo_latency(&slo_opts());
        assert_eq!(a.json.to_pretty(), b.json.to_pretty());
    }
}
