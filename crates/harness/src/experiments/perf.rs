//! The `scaling-wide` experiment: the one core-count ladder, 2→1024
//! simulated cores.
//!
//! Each point reports both the simulated machine (cycles, aborts per
//! commit, fallback share) and the simulator's own counters (scheduler
//! steps, coherence requests, sharded-directory occupancy), all
//! golden-gated. Host speed at width is measured by the repository
//! benchmark's `wide-256` workload, not here. The tiny-grid kernel
//! counters ride in `backend-shootout`'s rows.

use super::studies::fallback_pct;
use super::{opts_json, ExperimentOutput};
use crate::json::Json;
use crate::metrics_export::snapshot_to_json;
use crate::pool;
use crate::suite::{run_benchmark, SuiteOptions};
use clear_machine::{BackendId, MachineConfig, RunStats};
use clear_metrics::{families, MetricsRegistry};
use std::fmt::Write as _;

/// Surfaces each grid point's `PerfCounters` (plus the LRWS capacity-abort
/// tallies) as `clear_sim_perf` gauges in a `clear-metrics` snapshot —
/// the same numbers as the `rows` array, but in the uniform metrics shape.
/// Attached to [`ExperimentOutput::metrics`], which `run --json` appends
/// to the printed document only, so the golden-gated `json` stays
/// byte-identical.
pub(super) fn perf_metrics<'a>(
    points: impl Iterator<Item = (Vec<(&'static str, String)>, &'a RunStats)>,
) -> Json {
    let mut reg = MetricsRegistry::new();
    for (point, s) in points {
        for (counter, value) in s.sim_perf_gauges() {
            let mut labels: Vec<(&str, &str)> =
                point.iter().map(|(k, v)| (*k, v.as_str())).collect();
            labels.push(("counter", counter));
            reg.set_gauge(families::SIM_PERF, &labels, value);
        }
    }
    snapshot_to_json(&reg.snapshot())
}

/// The simulated-core ladder `scaling-wide` sweeps, clipped to the
/// requested `--cores`.
const LADDER: [usize; 10] = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// `scaling-wide`: every benchmark under every backend up the core
/// ladder. Each (benchmark, cores, backend) point is a full run whose
/// deterministic counters (steps, commits, cycles, coherence traffic,
/// directory-shard occupancy, aborts per commit, fallback share) are
/// golden-gated.
pub(super) fn scaling_wide(opts: &SuiteOptions) -> ExperimentOutput {
    let mut ladder: Vec<usize> = LADDER.into_iter().filter(|&c| c <= opts.cores).collect();
    if ladder.is_empty() {
        ladder.push(opts.cores);
    }
    let points: Vec<(&str, usize, &str)> = opts
        .benchmarks
        .iter()
        .flat_map(|&bench| {
            ladder.iter().flat_map(move |&cores| {
                opts.backends
                    .iter()
                    .map(move |&backend| (bench, cores, backend))
            })
        })
        .collect();
    let stats = pool::run_indexed(points.len(), opts.workers, |i| {
        let (bench, cores, backend) = points[i];
        let id = BackendId::from_name(backend).expect("SuiteOptions validated the backend names");
        let cfg = MachineConfig {
            seed: opts.seeds[0],
            ..id.config(cores, 5)
        };
        run_benchmark(bench, opts.size, cfg, false).0
    });

    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== scaling-wide: commit throughput up the core ladder ==="
    );
    let _ = writeln!(
        text,
        "{:14} {:>6} {:14} {:>10} {:>9} {:>12} {:>12} {:>7} {:>6} {:>6}",
        "benchmark",
        "cores",
        "backend",
        "steps",
        "commits",
        "cycles",
        "coh-reqs",
        "shards",
        "apc",
        "fb%"
    );
    let mut rows = Vec::new();
    for (&(bench, cores, backend), s) in points.iter().zip(&stats) {
        let p = &s.perf;
        let _ = writeln!(
            text,
            "{:14} {:>6} {:14} {:>10} {:>9} {:>12} {:>12} {:>7} {:>6.2} {:>6.1}",
            bench,
            cores,
            backend,
            p.steps,
            s.commits(),
            s.total_cycles,
            p.coherence_requests,
            p.shards,
            s.aborts_per_commit(),
            fallback_pct(s),
        );
        rows.push(Json::obj([
            ("benchmark", Json::from(bench)),
            ("cores", Json::from(cores)),
            ("backend", Json::from(backend)),
            ("steps", Json::from(p.steps)),
            ("commits", Json::from(s.commits())),
            ("total_cycles", Json::from(s.total_cycles)),
            ("coherence_requests", Json::from(p.coherence_requests)),
            ("shards", Json::from(p.shards)),
            ("shard_lines", Json::from(p.shard_lines)),
            ("shard_lines_max", Json::from(p.shard_lines_max)),
            ("aborts_per_commit", Json::from(s.aborts_per_commit())),
            ("fallback_pct", Json::from(fallback_pct(s))),
        ]));
    }
    let _ = writeln!(
        text,
        "\napc = aborts per commit; fb% = share of ARs completing on the fallback path"
    );

    let json = Json::obj([
        ("experiment", Json::from("scaling-wide")),
        ("options", opts_json(opts)),
        ("rows", Json::Arr(rows)),
    ]);
    let mut out = ExperimentOutput::new(text, json);
    out.metrics = Some(perf_metrics(points.iter().zip(&stats).map(
        |(&(bench, cores, backend), s)| {
            (
                vec![
                    ("bench", bench.to_string()),
                    ("cores", cores.to_string()),
                    ("backend", backend.to_string()),
                ],
                s,
            )
        },
    )));
    out
}
