//! Figure experiments: Fig. 1 (motivation) and Figs. 8-13 (evaluation),
//! plus `report`, which prints Figs. 8-13 in order from one suite run.
//!
//! Every figure reads the one preset [`Grid`](crate::suite::Grid): Fig. 1
//! is its Preset-B, retry-5 slice, and each of Figs. 8-13 has exactly one
//! renderer over the grid's best cells, which both its own experiment and
//! `report` call.

use super::{opts_json, ExperimentOutput};
use crate::json::Json;
use crate::suite::{
    format_table, geomean, run_suite, trimmed_mean, CellResult, Grid, SuiteOptions,
};
use clear_htm::AbortKind;
use clear_machine::{Preset, RunStats};
use std::fmt::Write as _;

/// Per-cell JSON: the raw per-seed cycle counts are included as integers
/// so golden checks gate the Fig. 8 inputs bit-exactly.
fn cell_json(cell: &CellResult) -> Json {
    Json::obj([
        ("preset", Json::from(cell.preset.letter().to_string())),
        ("best_retries", Json::from(cell.retries)),
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

fn floats(vals: &[f64]) -> Json {
    Json::arr(vals.iter().map(|&v| Json::from(v)))
}

/// The document of a suite experiment: its name, options and best cells,
/// then the fields its figure adds.
fn suite_doc(name: &str, opts: &SuiteOptions, suite: &[[CellResult; 4]], fields: Fields) -> Json {
    let cells = Json::arr(suite.iter().map(|cells| {
        Json::obj([
            ("benchmark", Json::from(cells[0].name)),
            ("cells", Json::arr(cells.iter().map(cell_json))),
        ])
    }));
    Json::obj(
        [
            ("experiment", Json::from(name)),
            ("options", opts_json(opts)),
            ("suite", cells),
        ]
        .into_iter()
        .chain(fields),
    )
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
    let grid = Grid::run(opts, &[Preset::B], &[5]);
    let mut ratios = Vec::new();
    let mut rows = Vec::new();
    for (b, name) in opts.benchmarks.iter().enumerate() {
        let cell = grid.cell(b, 0, 0);
        let retried: u64 = cell.runs.iter().map(|r| r.retried_ars).sum();
        let immutable: u64 = cell.runs.iter().map(|r| r.immutable_small_retries).sum();
        let ratio = cell.mean(RunStats::immutable_retry_ratio);
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

/// The JSON fields a figure adds after `suite`.
type Fields = Vec<(&'static str, Json)>;

/// A figure renderer: the figure's text over the suite's best cells, plus
/// its [`Fields`].
type Render = fn(&[[CellResult; 4]], &SuiteOptions) -> (String, Fields);

/// Figs. 8-13 in order; `report` prints all six.
const FIGURES: [Render; 6] = [
    render_fig08,
    render_fig09,
    render_fig10,
    render_fig11,
    render_fig12,
    render_fig13,
];

/// Runs the suite and renders one figure over it.
fn figure(name: &str, render: Render, opts: &SuiteOptions) -> ExperimentOutput {
    let grid = run_suite(opts);
    let suite = grid.suite();
    let (text, fields) = render(&suite, opts);
    ExperimentOutput::new(text, suite_doc(name, opts, &suite, fields))
}

pub(super) fn fig08(opts: &SuiteOptions) -> ExperimentOutput {
    figure("fig08", render_fig08, opts)
}

pub(super) fn fig09(opts: &SuiteOptions) -> ExperimentOutput {
    figure("fig09", render_fig09, opts)
}

pub(super) fn fig10(opts: &SuiteOptions) -> ExperimentOutput {
    figure("fig10", render_fig10, opts)
}

pub(super) fn fig11(opts: &SuiteOptions) -> ExperimentOutput {
    figure("fig11", render_fig11, opts)
}

pub(super) fn fig12(opts: &SuiteOptions) -> ExperimentOutput {
    figure("fig12", render_fig12, opts)
}

pub(super) fn fig13(opts: &SuiteOptions) -> ExperimentOutput {
    figure("fig13", render_fig13, opts)
}

pub(super) fn report(opts: &SuiteOptions) -> ExperimentOutput {
    eprintln!(
        "suite: {:?} size, {} cores, {} seeds, sweep {:?}",
        opts.size,
        opts.cores,
        opts.seeds.len(),
        opts.retry_sweep
    );
    let grid = run_suite(opts);
    let suite = grid.suite();
    let text = FIGURES
        .iter()
        .map(|render| render(&suite, opts).0)
        .collect();
    let (_, geomean) = norm_rows(&suite, CellResult::cycles);
    let fields = vec![("fig08_geomean", floats(&geomean))];
    ExperimentOutput::new(text, suite_doc("report", opts, &suite, fields))
}

fn render_fig08(suite: &[[CellResult; 4]], opts: &SuiteOptions) -> (String, Fields) {
    let mut text = String::new();
    let (rows, agg) = norm_rows(suite, CellResult::cycles);
    let (disc_rows, disc_avg) = mean_rows(suite, |r| {
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
    for cells in suite {
        let _ = writeln!(
            text,
            "  {:14} B={} P={} C={} W={}",
            cells[0].name, cells[0].retries, cells[1].retries, cells[2].retries, cells[3].retries
        );
    }
    let _ = writeln!(text, "\npaper: P -12.7%, C -27.4%, W -35.0% vs B (geomean)");
    (text, vec![("normalized_geomean", floats(&agg))])
}

fn render_fig09(suite: &[[CellResult; 4]], _: &SuiteOptions) -> (String, Fields) {
    let (rows, avg) = mean_rows(suite, RunStats::aborts_per_commit);
    let mut text = format_table(
        "Figure 9: Aborts per committed transaction",
        "lower is better",
        &rows,
        ("average", avg),
    );
    let _ = writeln!(text, "\npaper: B 7.9, P 6.6, C 1.6, W 2.3 (average)");
    (text, vec![("average", floats(&avg))])
}

fn render_fig10(suite: &[[CellResult; 4]], _: &SuiteOptions) -> (String, Fields) {
    let (rows, agg) = norm_rows(suite, CellResult::energy);
    let mut text = format_table(
        "Figure 10: Normalized energy consumption",
        "lower is better; normalized to B",
        &rows,
        ("geomean", agg),
    );
    let _ = writeln!(text, "\npaper: C -26.4% vs B, W -30.6% vs B (average)");
    (text, vec![("normalized_geomean", floats(&agg))])
}

/// Each abort kind's share of a run's aborts; `None` for a run without
/// aborts, which has no shares.
fn abort_shares(r: &RunStats) -> Option<[f64; 4]> {
    let total = r.aborts.total();
    (total > 0).then(|| {
        let total = total as f64;
        let mem = r.aborts.get(AbortKind::MemoryConflict) as f64;
        let efb = r.aborts.get(AbortKind::ExplicitFallback) as f64;
        let ofb = r.aborts.get(AbortKind::OtherFallback) as f64;
        let others = total - mem - efb - ofb;
        [mem / total, efb / total, ofb / total, others / total]
    })
}

fn render_fig11(suite: &[[CellResult; 4]], _: &SuiteOptions) -> (String, Fields) {
    let mut text = String::new();
    let columns = [
        ("mem-conf", 8),
        ("expl-fb", 10),
        ("other-fb", 10),
        ("others", 8),
        ("aborts/AR", 11),
    ];
    cell_table(
        &mut text,
        "Figure 11: Abort breakdown per type",
        columns,
        suite,
        |r| {
            let [mem, efb, ofb, others] = abort_shares(r).map_or([None; 4], |s| s.map(Some));
            [mem, efb, ofb, others, Some(r.aborts_per_commit())]
        },
    );
    // Cells without aborts have no shares and are left out of the averages.
    for (i, letter) in ['B', 'P', 'C', 'W'].iter().enumerate() {
        let shares = [0, 1, 2].map(|k| column_mean(suite, i, |r| abort_shares(r).map(|s| s[k])));
        let others = match shares {
            [Some(mem), Some(efb), Some(ofb)] => Some((1.0 - mem - efb - ofb).max(0.0)),
            _ => None,
        };
        let [mem, efb, ofb] = shares.map(cell_text);
        let _ = writeln!(
            text,
            "average {letter}: memory-conflict {mem}  explicit-fallback {efb}  other-fallback {ofb}  others {}",
            cell_text(others)
        );
    }
    let _ = writeln!(
        text,
        "shares are fractions of each configuration's own aborts"
    );
    (text, Vec::new())
}

/// Commit shares per mode.
fn mode_shares(r: &RunStats) -> [f64; 4] {
    let m = &r.commits_by_mode;
    let total = m.total().max(1) as f64;
    [
        m.speculative as f64 / total,
        m.scl as f64 / total,
        m.nscl as f64 / total,
        m.fallback as f64 / total,
    ]
}

fn render_fig12(suite: &[[CellResult; 4]], _: &SuiteOptions) -> (String, Fields) {
    let mut text = String::new();
    let columns = [
        ("speculative", 11),
        ("S-CL", 8),
        ("NS-CL", 8),
        ("fallback", 9),
    ];
    cell_table(
        &mut text,
        "Figure 12: Commit breakdown per mode",
        columns,
        suite,
        |r| mode_shares(r).map(Some),
    );
    (text, Vec::new())
}

/// The shares of a run's retried ARs that committed on the first retry,
/// on a later one, or on the fallback path; `None` for a run where no AR
/// was retried, which has no shares.
fn retry_shares(r: &RunStats) -> Option<[f64; 3]> {
    let one = r.commits_by_retries.get(&1).copied().unwrap_or(0);
    let many: u64 = r
        .commits_by_retries
        .iter()
        .filter(|(&k, _)| k >= 2)
        .map(|(_, &v)| v)
        .sum();
    let fb = r.commits_by_mode.fallback;
    let total = one + many + fb;
    (total > 0).then(|| [one, many, fb].map(|n| n as f64 / total as f64))
}

fn render_fig13(suite: &[[CellResult; 4]], _: &SuiteOptions) -> (String, Fields) {
    let mut text = String::new();
    let title = "Figure 13: Commit breakdown per number of retries (retried ARs only)";
    let columns = [("1-retry", 9), ("n-retry", 9), ("fallback", 9)];
    cell_table(&mut text, title, columns, suite, |r| {
        retry_shares(r).map_or([None; 3], |s| s.map(Some))
    });
    // Cells without retried ARs have no shares and are left out of the
    // averages.
    for (i, letter) in ['B', 'P', 'C', 'W'].iter().enumerate() {
        let avg = |k: usize| cell_text(column_mean(suite, i, |r| retry_shares(r).map(|s| s[k])));
        let _ = writeln!(
            text,
            "average {letter}: 1-retry {}  n-retry {}  fallback {}",
            avg(0),
            avg(1),
            avg(2)
        );
    }
    let _ = writeln!(
        text,
        "\npaper averages: B 35.4%/37.2%, P 46.4%/27.4%, C 64.2%/15.5%, W 64.4%/15.4% (1-retry/fallback)"
    );
    (text, Vec::new())
}

/// Writes a per-cell table under `title`: one row per benchmark × preset
/// holding each column's [`cell_mean`] of `metrics`, right-aligned to the
/// column's width, and a blank line after each benchmark.
fn cell_table<const N: usize>(
    text: &mut String,
    title: &str,
    columns: [(&str, usize); N],
    suite: &[[CellResult; 4]],
    metrics: impl Fn(&RunStats) -> [Option<f64>; N],
) {
    let _ = writeln!(text, "=== {title} ===");
    let _ = write!(text, "{:14} {:>2} ", "benchmark", "");
    for (name, width) in columns {
        let _ = write!(text, " {name:>width$}");
    }
    let _ = writeln!(text);
    for cells in suite {
        for cell in cells {
            let _ = write!(text, "{:14} {:>2} ", cell.name, cell.preset.letter());
            for (k, (_, width)) in columns.iter().enumerate() {
                let v = cell_text(cell_mean(cell, |r| metrics(r)[k]));
                let _ = write!(text, " {v:>width$}");
            }
            let _ = writeln!(text);
        }
        let _ = writeln!(text);
    }
}

fn norm_rows<'a>(
    suite: &[[CellResult<'a>; 4]],
    metric: impl Fn(&CellResult<'a>) -> f64,
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
        rows.push((cells[0].name.to_string(), vals));
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
        rows.push((cells[0].name.to_string(), vals));
    }
    let n = suite.len() as f64;
    (rows, sums.map(|s| s / n))
}

/// The trimmed mean of `metric` over the cell's runs where it is defined;
/// `None` when it is defined for none of them.
fn cell_mean(cell: &CellResult, metric: impl Fn(&RunStats) -> Option<f64>) -> Option<f64> {
    let xs: Vec<f64> = cell.runs.iter().filter_map(metric).collect();
    (!xs.is_empty()).then(|| trimmed_mean(&xs))
}

/// The suite average of preset column `i`'s [`cell_mean`] of `metric`,
/// over the cells where it is defined.
fn column_mean(
    suite: &[[CellResult; 4]],
    i: usize,
    metric: impl Fn(&RunStats) -> Option<f64>,
) -> Option<f64> {
    let xs: Vec<f64> = suite
        .iter()
        .filter_map(|cells| cell_mean(&cells[i], &metric))
        .collect();
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// A table value to two decimals, or `-` where it is undefined.
fn cell_text(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| format!("{v:.2}"))
}
