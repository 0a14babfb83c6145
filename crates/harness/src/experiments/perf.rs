//! The `scaling-wide` experiment: simulator-kernel performance counters
//! up a 64→1024 simulated-core ladder.
//!
//! Unlike most experiments this measures the *simulator*, not the
//! simulated machine: scheduler steps, coherence requests and
//! sharded-directory occupancy per point, all golden-gated, plus a
//! wall-clock throughput column and a check that it survives the widest
//! configuration. Wall-clock values are host-dependent, so they appear
//! only in the text and the failure count, never in the JSON document.
//! The tiny-grid kernel counters ride in `backend-shootout`'s rows.

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

/// Minimum acceptable 1024-core steps/sec relative to the 64-core rate
/// when the full ladder ran with measured wall time.
const WIDE_MIN_RATIO: f64 = 0.25;

/// `scaling-wide`: one benchmark stepped up the core ladder. Each point is
/// a full run whose deterministic counters (steps, commits, cycles,
/// coherence traffic, directory-shard occupancy) are golden-gated; the
/// wall-clock column and the throughput-retention check stay in the text
/// and the failure count. Points run sequentially — never through the
/// grid pool — so their wall clocks are not distorted by each other.
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
        "{:>6} {:>10} {:>9} {:>12} {:>12} {:>7} {:>10}",
        "cores", "steps", "commits", "cycles", "coh-reqs", "shards", "Msteps/s"
    );
    let mut rows = Vec::new();
    for (&cores, s) in ladder.iter().zip(&stats) {
        let p = &s.perf;
        let _ = writeln!(
            text,
            "{:>6} {:>10} {:>9} {:>12} {:>12} {:>7} {:>10.2}",
            cores,
            p.steps,
            s.commits(),
            s.total_cycles,
            p.coherence_requests,
            p.shards,
            p.steps_per_sec() / 1e6,
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

    // Throughput retention: the widest point must keep at least
    // WIDE_MIN_RATIO of the narrowest point's steps/sec. Only meaningful
    // when the full ladder ran with measured wall time.
    let full_ladder = ladder == WIDE_LADDER;
    let (first, last) = (
        stats.first().map(|s| s.perf.steps_per_sec()).unwrap_or(0.0),
        stats.last().map(|s| s.perf.steps_per_sec()).unwrap_or(0.0),
    );
    let ratio = if first > 0.0 { last / first } else { 0.0 };
    let mut failures = 0;
    if full_ladder && first > 0.0 {
        let _ = writeln!(
            text,
            "\n1024-core vs 64-core steps/sec ratio: {ratio:.3} (floor {WIDE_MIN_RATIO})"
        );
        if ratio < WIDE_MIN_RATIO {
            failures = 1;
            let _ = writeln!(text, "FAIL: wide-core throughput collapsed");
        }
    }

    let json = Json::obj([
        ("experiment", Json::from("scaling-wide")),
        ("options", opts_json(opts)),
        ("benchmark", Json::from(bench)),
        ("rows", Json::Arr(rows)),
    ]);
    let mut out = ExperimentOutput::new(text, json);
    out.failures = failures;
    out.metrics = Some(perf_metrics(
        ladder
            .iter()
            .zip(&stats)
            .map(|(&cores, s)| (vec![("cores", cores.to_string())], s)),
    ));
    out
}
