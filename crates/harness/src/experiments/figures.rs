//! Figure experiments: Fig. 1 (motivation) and Figs. 8-13 (evaluation),
//! plus the one-pass `report` that derives Figs. 8-13 from a single suite
//! run.

use super::{opts_json, ExperimentOutput};
use crate::json::Json;
use crate::pool;
use crate::suite::{
    format_table, geomean, run_benchmark, run_suite, trimmed_mean, CellResult, SuiteOptions,
};
use clear_htm::AbortKind;
use clear_machine::{MachineConfig, Preset, RunStats};
use std::fmt::Write as _;

/// Per-cell JSON: the raw per-seed cycle counts are included as integers
/// so golden checks gate the Fig. 8 inputs bit-exactly.
fn cell_json(cell: &CellResult) -> Json {
    Json::obj([
        ("preset", Json::from(cell.preset.letter().to_string())),
        ("best_retries", Json::from(cell.best_retries)),
        ("cycles", Json::from(cell.cycles())),
        ("energy", Json::from(cell.energy())),
        (
            "seed_cycles",
            Json::arr(cell.runs.iter().map(|r| Json::from(r.total_cycles))),
        ),
        (
            "aborts_per_commit",
            Json::from(cell.mean(RunStats::aborts_per_commit)),
        ),
    ])
}

fn suite_json(suite: &[[CellResult; 4]]) -> Json {
    Json::arr(suite.iter().map(|cells| {
        Json::obj([
            ("benchmark", Json::from(cells[0].name.clone())),
            ("cells", Json::arr(cells.iter().map(cell_json))),
        ])
    }))
}

pub(super) fn fig01(opts: &SuiteOptions) -> ExperimentOutput {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== Figure 1: ARs that do not change their accessed cachelines on the first retry ==="
    );
    let _ = writeln!(
        text,
        "{:14} {:>10} {:>12} {:>8}",
        "benchmark", "retried", "immutable", "ratio"
    );
    let (nb, ns) = (opts.benchmarks.len(), opts.seeds.len());
    let all_runs = pool::run_indexed(nb * ns, opts.workers, |i| {
        let cfg = MachineConfig {
            seed: opts.seeds[i % ns],
            ..Preset::B.config(opts.cores, 5)
        };
        run_benchmark(opts.benchmarks[i / ns], opts.size, cfg, false).0
    });
    let mut ratios = Vec::new();
    let mut rows = Vec::new();
    for (b, name) in opts.benchmarks.iter().enumerate() {
        let runs = &all_runs[b * ns..(b + 1) * ns];
        let retried: u64 = runs.iter().map(|r| r.retried_ars).sum();
        let immutable: u64 = runs.iter().map(|r| r.immutable_small_retries).sum();
        let ratio = trimmed_mean(
            &runs
                .iter()
                .map(|r| r.immutable_retry_ratio())
                .collect::<Vec<_>>(),
        );
        ratios.push(ratio);
        let _ = writeln!(
            text,
            "{:14} {:>10} {:>12} {:>8.2}",
            name, retried, immutable, ratio
        );
        rows.push(Json::obj([
            ("benchmark", Json::from(*name)),
            ("retried", Json::from(retried)),
            ("immutable", Json::from(immutable)),
            ("ratio", Json::from(ratio)),
        ]));
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let _ = writeln!(text, "{:14} {:>10} {:>12} {:>8.2}", "average", "", "", avg);
    let _ = writeln!(
        text,
        "\npaper: 60.2% of ARs that abort keep a small immutable footprint on the first retry"
    );
    let json = Json::obj([
        ("experiment", Json::from("fig01")),
        ("options", opts_json(opts)),
        ("rows", Json::Arr(rows)),
        ("average_ratio", Json::from(avg)),
    ]);
    ExperimentOutput::new(text, json)
}

pub(super) fn fig08(opts: &SuiteOptions) -> ExperimentOutput {
    let suite = run_suite(opts);
    let mut text = String::new();
    let (rows, agg) = norm_rows(&suite, CellResult::cycles);
    let (disc_rows, disc_avg) = mean_rows(&suite, |r| {
        r.discovery_failed_cycles as f64 / (r.total_cycles as f64 * opts.cores as f64)
    });
    text.push_str(&format_table(
        "Figure 8: Normalized execution time",
        "lower is better; normalized to B",
        &rows,
        ("geomean", agg),
    ));
    text.push_str(&format_table(
        "Figure 8 overlay: time running aborted in discovery",
        "fraction of machine time",
        &disc_rows,
        ("average", disc_avg),
    ));
    let _ = writeln!(text, "\nbest retry threshold per cell:");
    for cells in &suite {
        let _ = writeln!(
            text,
            "  {:14} B={} P={} C={} W={}",
            cells[0].name,
            cells[0].best_retries,
            cells[1].best_retries,
            cells[2].best_retries,
            cells[3].best_retries
        );
    }
    let _ = writeln!(text, "\npaper: P -12.7%, C -27.4%, W -35.0% vs B (geomean)");
    let json = Json::obj([
        ("experiment", Json::from("fig08")),
        ("options", opts_json(opts)),
        ("suite", suite_json(&suite)),
        (
            "normalized_geomean",
            Json::arr(agg.iter().map(|&v| Json::from(v))),
        ),
    ]);
    ExperimentOutput::new(text, json)
}

pub(super) fn fig09(opts: &SuiteOptions) -> ExperimentOutput {
    let suite = run_suite(opts);
    let (rows, avg) = mean_rows(&suite, RunStats::aborts_per_commit);
    let mut text = format_table(
        "Figure 9: Aborts per committed transaction",
        "lower is better",
        &rows,
        ("average", avg),
    );
    let _ = writeln!(text, "\npaper: B 7.9, P 6.6, C 1.6, W 2.3 (average)");
    let json = Json::obj([
        ("experiment", Json::from("fig09")),
        ("options", opts_json(opts)),
        ("suite", suite_json(&suite)),
        ("average", Json::arr(avg.iter().map(|&v| Json::from(v)))),
    ]);
    ExperimentOutput::new(text, json)
}

pub(super) fn fig10(opts: &SuiteOptions) -> ExperimentOutput {
    let suite = run_suite(opts);
    let (rows, agg) = norm_rows(&suite, CellResult::energy);
    let mut text = format_table(
        "Figure 10: Normalized energy consumption",
        "lower is better; normalized to B",
        &rows,
        ("geomean", agg),
    );
    let _ = writeln!(text, "\npaper: C -26.4% vs B, W -30.6% vs B (average)");
    let json = Json::obj([
        ("experiment", Json::from("fig10")),
        ("options", opts_json(opts)),
        ("suite", suite_json(&suite)),
        (
            "normalized_geomean",
            Json::arr(agg.iter().map(|&v| Json::from(v))),
        ),
    ]);
    ExperimentOutput::new(text, json)
}

fn abort_shares(r: &RunStats) -> [f64; 4] {
    let total = r.aborts.total().max(1) as f64;
    let mem = r.aborts.get(AbortKind::MemoryConflict) as f64;
    let efb = r.aborts.get(AbortKind::ExplicitFallback) as f64;
    let ofb = r.aborts.get(AbortKind::OtherFallback) as f64;
    let others = total - mem - efb - ofb;
    [mem / total, efb / total, ofb / total, others / total]
}

pub(super) fn fig11(opts: &SuiteOptions) -> ExperimentOutput {
    let suite = run_suite(opts);
    let mut text = String::new();
    let _ = writeln!(text, "=== Figure 11: Abort breakdown per type ===");
    let _ = writeln!(
        text,
        "{:14} {:>2}  {:>8} {:>10} {:>10} {:>8}  {:>10}",
        "benchmark", "", "mem-conf", "expl-fb", "other-fb", "others", "aborts/AR"
    );
    for cells in &suite {
        for cell in cells {
            let s = [0, 1, 2, 3].map(|k| cell.mean(|r| abort_shares(r)[k]));
            let apc = cell.mean(|r| r.aborts_per_commit());
            let _ = writeln!(
                text,
                "{:14} {:>2}  {:>8.2} {:>10.2} {:>10.2} {:>8.2}  {:>10.2}",
                cell.name,
                cell.preset.letter(),
                s[0],
                s[1],
                s[2],
                s[3],
                apc
            );
        }
        let _ = writeln!(text);
    }
    let _ = writeln!(
        text,
        "shares are fractions of each configuration's own aborts"
    );
    let json = Json::obj([
        ("experiment", Json::from("fig11")),
        ("options", opts_json(opts)),
        ("suite", suite_json(&suite)),
    ]);
    ExperimentOutput::new(text, json)
}

/// Commit shares per mode, over `total` commits (the fig12 and report
/// outputs pick different divisors).
fn mode_shares(r: &RunStats, total: f64) -> [f64; 4] {
    let m = &r.commits_by_mode;
    [
        m.speculative as f64 / total,
        m.scl as f64 / total,
        m.nscl as f64 / total,
        m.fallback as f64 / total,
    ]
}

pub(super) fn fig12(opts: &SuiteOptions) -> ExperimentOutput {
    let suite = run_suite(opts);
    let mut text = String::new();
    let _ = writeln!(text, "=== Figure 12: Commit breakdown per mode ===");
    let _ = writeln!(
        text,
        "{:14} {:>2}  {:>11} {:>8} {:>8} {:>9}",
        "benchmark", "", "speculative", "S-CL", "NS-CL", "fallback"
    );
    for cells in &suite {
        for cell in cells {
            let s = [0, 1, 2, 3]
                .map(|k| cell.mean(|r| mode_shares(r, r.commits_by_mode.total().max(1) as f64)[k]));
            let _ = writeln!(
                text,
                "{:14} {:>2}  {:>11.2} {:>8.2} {:>8.2} {:>9.2}",
                cell.name,
                cell.preset.letter(),
                s[0],
                s[1],
                s[2],
                s[3]
            );
        }
        let _ = writeln!(text);
    }
    let json = Json::obj([
        ("experiment", Json::from("fig12")),
        ("options", opts_json(opts)),
        ("suite", suite_json(&suite)),
    ]);
    ExperimentOutput::new(text, json)
}

fn retry_shares(r: &RunStats) -> [f64; 3] {
    let one = r.commits_by_retries.get(&1).copied().unwrap_or(0);
    let many: u64 = r
        .commits_by_retries
        .iter()
        .filter(|(&k, _)| k >= 2)
        .map(|(_, &v)| v)
        .sum();
    let fb = r.commits_by_mode.fallback;
    let total = (one + many + fb).max(1) as f64;
    [one as f64 / total, many as f64 / total, fb as f64 / total]
}

pub(super) fn fig13(opts: &SuiteOptions) -> ExperimentOutput {
    let suite = run_suite(opts);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== Figure 13: Commit breakdown per number of retries (retried ARs only) ==="
    );
    let _ = writeln!(
        text,
        "{:14} {:>2}  {:>9} {:>9} {:>9}",
        "benchmark", "", "1-retry", "n-retry", "fallback"
    );
    for cells in &suite {
        for cell in cells {
            let s = [0, 1, 2].map(|k| cell.mean(|r| retry_shares(r)[k]));
            let _ = writeln!(
                text,
                "{:14} {:>2}  {:>9.2} {:>9.2} {:>9.2}",
                cell.name,
                cell.preset.letter(),
                s[0],
                s[1],
                s[2]
            );
        }
        let _ = writeln!(text);
    }
    for (i, letter) in ['B', 'P', 'C', 'W'].iter().enumerate() {
        let avg = |k: usize| column_mean(&suite, i, |r| retry_shares(r)[k]);
        let _ = writeln!(
            text,
            "average {letter}: 1-retry {:.2}  n-retry {:.2}  fallback {:.2}",
            avg(0),
            avg(1),
            avg(2)
        );
    }
    let _ = writeln!(
        text,
        "\npaper averages: B 35.4%/37.2%, P 46.4%/27.4%, C 64.2%/15.5%, W 64.4%/15.4% (1-retry/fallback)"
    );
    let json = Json::obj([
        ("experiment", Json::from("fig13")),
        ("options", opts_json(opts)),
        ("suite", suite_json(&suite)),
    ]);
    ExperimentOutput::new(text, json)
}

fn norm_rows(
    suite: &[[CellResult; 4]],
    metric: impl Fn(&CellResult) -> f64,
) -> (Vec<(String, [f64; 4])>, [f64; 4]) {
    let mut rows = Vec::new();
    let mut norms = [const { Vec::new() }; 4];
    for cells in suite {
        let base = metric(&cells[0]);
        let mut vals = [0.0; 4];
        for (i, cell) in cells.iter().enumerate() {
            vals[i] = metric(cell) / base;
            norms[i].push(vals[i]);
        }
        rows.push((cells[0].name.clone(), vals));
    }
    (rows, [0, 1, 2, 3].map(|i| geomean(&norms[i])))
}

fn mean_rows(
    suite: &[[CellResult; 4]],
    metric: impl Fn(&RunStats) -> f64,
) -> (Vec<(String, [f64; 4])>, [f64; 4]) {
    let mut rows = Vec::new();
    let mut sums = [0.0; 4];
    for cells in suite {
        let mut vals = [0.0; 4];
        for (i, cell) in cells.iter().enumerate() {
            vals[i] = cell.mean(&metric);
            sums[i] += vals[i];
        }
        rows.push((cells[0].name.clone(), vals));
    }
    let n = suite.len() as f64;
    (rows, sums.map(|s| s / n))
}

/// The suite average of preset column `i`'s per-cell mean of `metric`.
fn column_mean(suite: &[[CellResult; 4]], i: usize, metric: impl Fn(&RunStats) -> f64) -> f64 {
    suite
        .iter()
        .map(|cells| cells[i].mean(&metric))
        .sum::<f64>()
        / suite.len() as f64
}

pub(super) fn report(opts: &SuiteOptions) -> ExperimentOutput {
    eprintln!(
        "suite: {:?} size, {} cores, {} seeds, sweep {:?}",
        opts.size,
        opts.cores,
        opts.seeds.len(),
        opts.retry_sweep
    );
    let suite = run_suite(opts);
    let mut text = String::new();

    // Figure 8.
    let (rows, agg) = norm_rows(&suite, CellResult::cycles);
    let fig8_geomean = agg;
    text.push_str(&format_table(
        "Figure 8: Normalized execution time",
        "normalized to B; lower is better",
        &rows,
        ("geomean", agg),
    ));

    // Figure 9.
    let (rows, agg) = mean_rows(&suite, RunStats::aborts_per_commit);
    text.push_str(&format_table(
        "Figure 9: Aborts per committed transaction",
        "lower is better",
        &rows,
        ("average", agg),
    ));

    // Figure 10.
    let (rows, agg) = norm_rows(&suite, CellResult::energy);
    text.push_str(&format_table(
        "Figure 10: Normalized energy consumption",
        "normalized to B; lower is better",
        &rows,
        ("geomean", agg),
    ));

    // Figure 11: averaged abort-type shares.
    let _ = writeln!(
        text,
        "\n=== Figure 11: Abort breakdown per type (suite average shares) ==="
    );
    for (i, letter) in ['B', 'P', 'C', 'W'].iter().enumerate() {
        let [mem, efb, ofb] = [0, 1, 2].map(|k| column_mean(&suite, i, |r| abort_shares(r)[k]));
        let _ = writeln!(
            text,
            "{letter}: memory-conflict {:.2}  explicit-fallback {:.2}  other-fallback {:.2}  others {:.2}",
            mem,
            efb,
            ofb,
            (1.0 - mem - efb - ofb).max(0.0)
        );
    }

    // Figure 12: commit mode shares.
    let _ = writeln!(text, "\n=== Figure 12: Commit breakdown per mode ===");
    let _ = writeln!(
        text,
        "{:14} {:>2}  {:>11} {:>8} {:>8} {:>9}",
        "benchmark", "", "speculative", "S-CL", "NS-CL", "fallback"
    );
    for cells in &suite {
        for cell in cells {
            let s = [0, 1, 2, 3].map(|k| cell.mean(|r| mode_shares(r, r.commits() as f64)[k]));
            let _ = writeln!(
                text,
                "{:14} {:>2}  {:>11.2} {:>8.2} {:>8.2} {:>9.2}",
                cell.name,
                cell.preset.letter(),
                s[0],
                s[1],
                s[2],
                s[3]
            );
        }
    }

    // Figure 13: retried-AR outcome shares.
    let _ = writeln!(
        text,
        "\n=== Figure 13: Commit breakdown per number of retries (retried ARs only) ==="
    );
    for (i, letter) in ['B', 'P', 'C', 'W'].iter().enumerate() {
        let avg = |k: usize| column_mean(&suite, i, |r| retry_shares(r)[k]);
        let _ = writeln!(
            text,
            "{letter}: 1-retry {:.2}  n-retry {:.2}  fallback {:.2}",
            avg(0),
            avg(1),
            avg(2)
        );
    }

    let _ = writeln!(text, "\nbest retry threshold per cell:");
    for cells in &suite {
        let _ = writeln!(
            text,
            "  {:14} B={} P={} C={} W={}",
            cells[0].name,
            cells[0].best_retries,
            cells[1].best_retries,
            cells[2].best_retries,
            cells[3].best_retries
        );
    }

    let json = Json::obj([
        ("experiment", Json::from("report")),
        ("options", opts_json(opts)),
        ("suite", suite_json(&suite)),
        (
            "fig08_geomean",
            Json::arr(fig8_geomean.iter().map(|&v| Json::from(v))),
        ),
    ]);
    ExperimentOutput::new(text, json)
}
