//! The `scaling-wide` experiment: simulator-kernel performance counters
//! up a 64→1024 simulated-core ladder.
//!
//! Unlike most experiments this measures the *simulator*, not the
//! simulated machine: scheduler steps, coherence requests and
//! sharded-directory occupancy per point, all golden-gated. Host speed at
//! width is measured by the repository benchmark's `wide-256` workload,
//! not here. The tiny-grid kernel counters ride in `backend-shootout`'s
//! rows.

use super::{opts_json, ExperimentOutput};
use crate::json::Json;
use crate::metrics_export::snapshot_to_json;
use crate::suite::{run_benchmark, SuiteOptions};
use clear_machine::{MachineConfig, Preset, RunStats};
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
const WIDE_LADDER: [usize; 5] = [64, 128, 256, 512, 1024];

/// `scaling-wide`: one benchmark stepped up the core ladder. Each point is
/// a full run whose deterministic counters (steps, commits, cycles,
/// coherence traffic, directory-shard occupancy) are golden-gated.
/// Points run one after another on the calling thread.
pub(super) fn scaling_wide(opts: &SuiteOptions) -> ExperimentOutput {
    let bench = opts.benchmarks.first().copied().unwrap_or("arrayswap");
    let mut ladder: Vec<usize> = WIDE_LADDER
        .iter()
        .copied()
        .filter(|&c| c <= opts.cores)
        .collect();
    if ladder.is_empty() {
        ladder.push(opts.cores);
    }
    let stats: Vec<_> = ladder
        .iter()
        .map(|&cores| {
            let cfg = MachineConfig {
                seed: opts.seeds[0],
                ..Preset::C.config(cores, 5)
            };
            run_benchmark(bench, opts.size, cfg, false).0
        })
        .collect();

    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== scaling-wide: {bench} commit throughput up the core ladder ==="
    );
    let _ = writeln!(
        text,
        "{:>6} {:>10} {:>9} {:>12} {:>12} {:>7}",
        "cores", "steps", "commits", "cycles", "coh-reqs", "shards"
    );
    let mut rows = Vec::new();
    for (&cores, s) in ladder.iter().zip(&stats) {
        let p = &s.perf;
        let _ = writeln!(
            text,
            "{:>6} {:>10} {:>9} {:>12} {:>12} {:>7}",
            cores,
            p.steps,
            s.commits(),
            s.total_cycles,
            p.coherence_requests,
            p.shards,
        );
        rows.push(Json::obj([
            ("cores", Json::from(cores)),
            ("steps", Json::from(p.steps)),
            ("commits", Json::from(s.commits())),
            ("total_cycles", Json::from(s.total_cycles)),
            ("coherence_requests", Json::from(p.coherence_requests)),
            ("shards", Json::from(p.shards)),
            ("shard_lines", Json::from(p.shard_lines)),
            ("shard_lines_max", Json::from(p.shard_lines_max)),
        ]));
    }

    let json = Json::obj([
        ("experiment", Json::from("scaling-wide")),
        ("options", opts_json(opts)),
        ("benchmark", Json::from(bench)),
        ("rows", Json::Arr(rows)),
    ]);
    let mut out = ExperimentOutput::new(text, json);
    out.metrics = Some(perf_metrics(
        ladder
            .iter()
            .zip(&stats)
            .map(|(&cores, s)| (vec![("cores", cores.to_string())], s)),
    ));
    out
}
