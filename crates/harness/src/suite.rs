//! Suite machinery: option parsing, single runs, the per-application
//! best-of retry sweep, seed aggregation with trimmed means, and table
//! formatting.
//!
//! This is the engine under every experiment in the registry. The full
//! (benchmark × preset × retry × seed) grid of [`run_suite`] is executed
//! in parallel on a scoped worker pool; because each run is a pure
//! function of its coordinates, the parallel suite is bit-identical to
//! the sequential one.

use crate::pool;
use clear_analysis::{workload_plans, StaticBudget};
use clear_core::StaticPlanSet;
use clear_machine::{BackendId, Machine, MachineConfig, Preset, RunStats};
use clear_workloads::{by_name, Size, BENCHMARK_NAMES};
use std::sync::Arc;

/// Parsed harness options.
#[derive(Clone, Debug)]
pub struct SuiteOptions {
    /// Input scale.
    pub size: Size,
    /// Simulated core count.
    pub cores: usize,
    /// Seeds to aggregate over.
    pub seeds: Vec<u64>,
    /// Retry thresholds to sweep (best one is picked per app × preset).
    pub retry_sweep: Vec<u32>,
    /// Benchmarks to run.
    pub benchmarks: Vec<&'static str>,
    /// Worker threads for the parallel grid (≥ 1; default: all cores, at
    /// least 4).
    pub workers: usize,
    /// Speculation backends for backend-sweep experiments (stable
    /// [`BackendId`] names). Defaults to all five; `--backend NAME`
    /// restricts the sweep, repeatable. Preset-grid experiments ignore
    /// this field.
    pub backends: Vec<&'static str>,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions {
            size: Size::Small,
            cores: 32,
            seeds: vec![1, 2, 3],
            retry_sweep: vec![2, 5, 8],
            benchmarks: BENCHMARK_NAMES.to_vec(),
            workers: pool::default_workers(),
            backends: BackendId::ALL.iter().map(|b| b.name()).collect(),
        }
    }
}

impl SuiteOptions {
    /// Parses an explicit argument list (the CLI passes the tail of its
    /// own argument vector here). An unknown option or value, a missing or
    /// malformed value, and a zero `--cores` or `--seeds` are usage
    /// errors, returned as their message.
    pub fn from_arg_slice(args: &[String]) -> Result<Self, String> {
        let mut o = SuiteOptions::default();
        let mut picked: Vec<&'static str> = Vec::new();
        let mut picked_backends: Vec<&'static str> = Vec::new();
        let mut args = args.iter();
        while let Some(a) = args.next() {
            let mut val = || args.next().ok_or_else(|| format!("missing value for {a}"));
            let mut count = |what: &str| {
                let v = val()?;
                match v.parse::<usize>() {
                    Ok(0) => Err(format!("{a} must be at least 1")),
                    Ok(n) => Ok(n),
                    Err(_) => Err(format!("{a} wants a {what}, not {v}")),
                }
            };
            match a.as_str() {
                "--size" => {
                    o.size = match val()?.as_str() {
                        "tiny" => Size::Tiny,
                        "small" => Size::Small,
                        "medium" => Size::Medium,
                        other => return Err(format!("unknown size {other}")),
                    }
                }
                "--cores" => o.cores = count("core count")?,
                "--seeds" => o.seeds = (1..=count("seed count")? as u64).collect(),
                "--sweep" => {
                    o.retry_sweep = match val()?.as_str() {
                        "full" => (1..=10).collect(),
                        "quick" => vec![2, 5, 8],
                        "none" => vec![5],
                        other => return Err(format!("unknown sweep {other}")),
                    }
                }
                "--bench" => {
                    let name = val()?;
                    let known = BENCHMARK_NAMES
                        .iter()
                        .find(|n| **n == name.as_str())
                        .ok_or_else(|| format!("unknown benchmark {name}"))?;
                    picked.push(known);
                }
                "--backend" => {
                    let name = val()?;
                    let known = BackendId::from_name(name)
                        .ok_or_else(|| format!("unknown backend {name}"))?;
                    picked_backends.push(known.name());
                }
                "--workers" => {
                    let v = val()?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("{a} wants a worker count, not {v}"))?;
                    o.workers = n.max(1);
                }
                "--help" | "-h" => {
                    eprintln!(
                        "options: --size tiny|small|medium --cores N --seeds N \
                         --sweep full|quick|none --bench NAME --backend NAME \
                         --workers N"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown option {other}")),
            }
        }
        if !picked.is_empty() {
            o.benchmarks = picked;
        }
        if !picked_backends.is_empty() {
            o.backends = picked_backends;
        }
        Ok(o)
    }
}

/// Runs one benchmark once under `cfg`, whose `seed` also seeds the
/// workload instance, and returns its stats with the finished machine.
/// With `trace` on, the machine records its event trace (see
/// [`Machine::trace`]) for the caller to read. This is the one place the
/// harness builds, runs and checks a named benchmark.
///
/// # Panics
///
/// Panics if the benchmark name is unknown, the run stops at
/// `max_cycles`, or the workload's atomicity invariant fails — a harness
/// must never report numbers from a broken run.
pub fn run_benchmark(
    name: &str,
    size: Size,
    cfg: MachineConfig,
    trace: bool,
) -> (RunStats, Machine) {
    let workload =
        by_name(name, size, cfg.seed).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let mut machine = Machine::new(cfg, workload);
    if trace {
        machine.enable_tracing();
    }
    let stats = machine.run();
    let backend = machine.backend().name();
    assert!(!stats.timed_out, "{name}/{backend}: run timed out");
    machine
        .workload()
        .validate(machine.memory())
        .unwrap_or_else(|e| panic!("{name}/{backend}: invariant violated: {e}"));
    (stats, machine)
}

/// Derives the static plans for one benchmark by sampling and analyzing a
/// fresh workload instance (deterministic for a given name/size/seed).
/// Plans are symbolic in the entry registers, so one sampling seed covers
/// every run seed.
///
/// # Panics
///
/// Panics if the benchmark name is unknown or sampling fails.
pub fn benchmark_plans(name: &str, size: Size, seed: u64, threads: usize) -> Arc<StaticPlanSet> {
    let mut w = by_name(name, size, seed).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let plans = workload_plans(&mut *w, threads, &StaticBudget::default())
        .unwrap_or_else(|e| panic!("{name}: static planning failed: {e}"));
    Arc::new(plans)
}

/// Aggregated result of one benchmark × preset cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Benchmark name.
    pub name: String,
    /// Configuration letter.
    pub preset: Preset,
    /// The retry threshold that minimised mean execution time (the paper's
    /// per-application design-space exploration).
    pub best_retries: u32,
    /// One `RunStats` per seed at the best threshold.
    pub runs: Vec<RunStats>,
}

impl CellResult {
    /// Trimmed-mean cycles across seeds.
    pub fn cycles(&self) -> f64 {
        trimmed_mean(
            &self
                .runs
                .iter()
                .map(|r| r.total_cycles as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Trimmed-mean total energy across seeds.
    pub fn energy(&self) -> f64 {
        trimmed_mean(
            &self
                .runs
                .iter()
                .map(|r| r.energy.total())
                .collect::<Vec<_>>(),
        )
    }

    /// Mean of an arbitrary per-run metric.
    pub fn mean<F: Fn(&RunStats) -> f64>(&self, f: F) -> f64 {
        trimmed_mean(&self.runs.iter().map(f).collect::<Vec<_>>())
    }
}

/// Picks the best cell from per-threshold run vectors, preserving the
/// sweep order: a later threshold wins only if strictly faster.
fn pick_best(
    name: &str,
    preset: Preset,
    sweep: &[u32],
    per_threshold: Vec<Vec<RunStats>>,
) -> CellResult {
    let mut best: Option<CellResult> = None;
    for (&retries, runs) in sweep.iter().zip(per_threshold) {
        let cell = CellResult {
            name: name.to_string(),
            preset,
            best_retries: retries,
            runs,
        };
        let better = best
            .as_ref()
            .map(|b| cell.cycles() < b.cycles())
            .unwrap_or(true);
        if better {
            best = Some(cell);
        }
    }
    best.expect("non-empty sweep")
}

/// Runs the retry sweep for one benchmark × preset and returns the best
/// cell (paper §6: "we run from 1 to 10 retries for all benchmarks and
/// select the best-performing one").
pub fn run_cell(name: &str, preset: Preset, opts: &SuiteOptions) -> CellResult {
    let per_threshold: Vec<Vec<RunStats>> = opts
        .retry_sweep
        .iter()
        .map(|&retries| {
            opts.seeds
                .iter()
                .map(|&seed| {
                    let cfg = MachineConfig {
                        seed,
                        ..preset.config(opts.cores, retries)
                    };
                    run_benchmark(name, opts.size, cfg, false).0
                })
                .collect()
        })
        .collect();
    pick_best(name, preset, &opts.retry_sweep, per_threshold)
}

/// Runs every benchmark in `opts` under all four presets, spreading the
/// whole (benchmark × preset × retry × seed) grid across the worker pool.
///
/// Results are identical to running [`run_cell`] sequentially for every
/// benchmark and preset: each grid point is a pure function of its
/// coordinates and the best-threshold fold preserves the sweep order.
pub fn run_suite(opts: &SuiteOptions) -> Vec<[CellResult; 4]> {
    let presets = Preset::ALL;
    let (nb, np, nr, ns) = (
        opts.benchmarks.len(),
        presets.len(),
        opts.retry_sweep.len(),
        opts.seeds.len(),
    );
    let total = nb * np * nr * ns;
    let stats = pool::run_indexed(total, opts.workers, |i| {
        let s = i % ns;
        let r = (i / ns) % nr;
        let p = (i / (ns * nr)) % np;
        let b = i / (ns * nr * np);
        let cfg = MachineConfig {
            seed: opts.seeds[s],
            ..presets[p].config(opts.cores, opts.retry_sweep[r])
        };
        run_benchmark(opts.benchmarks[b], opts.size, cfg, false).0
    });
    let mut iter = stats.into_iter();
    opts.benchmarks
        .iter()
        .map(|name| {
            let mut cells = Vec::with_capacity(np);
            for &preset in &presets {
                let per_threshold: Vec<Vec<RunStats>> = (0..nr)
                    .map(|_| (0..ns).map(|_| iter.next().expect("grid size")).collect())
                    .collect();
                cells.push(pick_best(name, preset, &opts.retry_sweep, per_threshold));
            }
            cells
                .try_into()
                .map_err(|_| "four presets")
                .expect("four presets")
        })
        .collect()
}

/// Mean after dropping the ⌈30%⌉ most extreme values (the paper's
/// 10-runs-drop-3-outliers methodology, scaled to the sample size).
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "trimmed_mean of empty slice");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let drop = (v.len() * 3) / 10;
    // Drop the most extreme values relative to the median, alternating ends.
    let kept = &v[drop / 2..v.len() - drop.div_ceil(2)];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Renders a value as a horizontal bar scaled against `max` (the paper's
/// figures are bar charts; the terminal gets the next best thing).
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || !value.is_finite() {
        return String::new();
    }
    let n = ((value / max) * width as f64)
        .round()
        .clamp(0.0, width as f64) as usize;
    "#".repeat(n)
}

/// Formats a figure-style table: one row per benchmark, one column per
/// preset, plus a final aggregate row, followed by a bar chart of the four
/// aggregate values.
pub fn format_table(
    title: &str,
    header: &str,
    rows: &[(String, [f64; 4])],
    aggregate: (&str, [f64; 4]),
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n=== {title} ===");
    let _ = writeln!(
        out,
        "{:14} {:>9} {:>9} {:>9} {:>9}   ({header})",
        "benchmark", "B", "P", "C", "W"
    );
    for (name, vals) in rows {
        let _ = writeln!(
            out,
            "{:14} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            name, vals[0], vals[1], vals[2], vals[3]
        );
    }
    let (label, vals) = aggregate;
    let _ = writeln!(
        out,
        "{:14} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
        label, vals[0], vals[1], vals[2], vals[3]
    );
    let max = vals.iter().cloned().fold(0.0_f64, f64::max);
    for (letter, v) in ['B', 'P', 'C', 'W'].iter().zip(vals) {
        let _ = writeln!(out, "  {letter} {:<40} {v:.3}", bar(v, max, 36));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_mean_plain_average_when_small() {
        assert!((trimmed_mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-9);
        assert!((trimmed_mean(&[5.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn trimmed_mean_drops_outliers_at_ten() {
        let mut xs = vec![1.0; 7];
        xs.extend([100.0, 200.0, -50.0]);
        let m = trimmed_mean(&xs);
        assert!(
            (m - 1.0).abs() < 15.0,
            "outliers should be mostly trimmed, got {m}"
        );
    }

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bar_scales_and_clamps() {
        assert_eq!(bar(1.0, 1.0, 10), "##########");
        assert_eq!(bar(0.5, 1.0, 10), "#####");
        assert_eq!(bar(0.0, 1.0, 10), "");
        assert_eq!(bar(2.0, 1.0, 10), "##########", "clamped at full width");
        assert_eq!(bar(1.0, 0.0, 10), "", "zero max renders nothing");
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn zero_seeds_is_rejected() {
        let err = SuiteOptions::from_arg_slice(&args(&["--seeds", "0"])).unwrap_err();
        assert_eq!(err, "--seeds must be at least 1");
    }

    #[test]
    fn zero_cores_is_rejected() {
        let err = SuiteOptions::from_arg_slice(&args(&["--cores", "0"])).unwrap_err();
        assert_eq!(err, "--cores must be at least 1");
    }

    #[test]
    fn run_benchmark_produces_valid_stats() {
        let (s, m) = run_benchmark("arrayswap", Size::Tiny, Preset::B.config(4, 5), true);
        assert!(s.commits() > 0);
        assert!(m.trace().recorded() > 0, "tracing was requested");
    }

    #[test]
    #[should_panic(expected = "arrayswap/tsx: run timed out")]
    fn run_benchmark_rejects_a_timed_out_run() {
        let cfg = MachineConfig {
            max_cycles: 1_000,
            ..Preset::B.config(4, 5)
        };
        run_benchmark("arrayswap", Size::Tiny, cfg, false);
    }

    #[test]
    fn backend_flag_restricts_the_sweep() {
        let o = SuiteOptions::default();
        assert_eq!(o.backends, vec!["tsx", "powertm", "sle", "clear", "lrws"]);
        let o = SuiteOptions::from_arg_slice(&args(&["--backend", "lrws", "--backend", "clear"]))
            .expect("known backends");
        assert_eq!(o.backends, vec!["lrws", "clear"]);
    }

    #[test]
    fn run_benchmark_covers_every_backend() {
        for id in BackendId::ALL {
            let (s, _) = run_benchmark("arrayswap", Size::Tiny, id.config(4, 5), false);
            assert!(s.commits() > 0, "{id} produced no commits");
            if id != BackendId::Lrws {
                assert_eq!(s.lrws_capacity_aborts(), 0, "{id}");
            }
        }
    }

    #[test]
    fn run_cell_picks_some_threshold() {
        let opts = SuiteOptions {
            size: Size::Tiny,
            cores: 4,
            seeds: vec![1],
            retry_sweep: vec![2, 8],
            ..SuiteOptions::default()
        };
        let cell = run_cell("mwobject", Preset::B, &opts);
        assert!(cell.best_retries == 2 || cell.best_retries == 8);
        assert_eq!(cell.runs.len(), 1);
    }

    /// The tentpole's correctness keystone: the parallel grid must equal
    /// the sequential per-cell sweep bit-for-bit.
    #[test]
    fn parallel_suite_matches_sequential_cells() {
        let opts = SuiteOptions {
            size: Size::Tiny,
            cores: 4,
            seeds: vec![1, 2],
            retry_sweep: vec![2, 5],
            benchmarks: vec!["arrayswap", "mwobject"],
            workers: 4,
            backends: vec!["clear"],
        };
        let suite = run_suite(&opts);
        for (name, cells) in opts.benchmarks.iter().zip(&suite) {
            for (preset, cell) in Preset::ALL.iter().zip(cells.iter()) {
                let seq = run_cell(name, *preset, &opts);
                assert_eq!(cell.best_retries, seq.best_retries, "{name}/{preset}");
                assert_eq!(cell.runs.len(), seq.runs.len());
                for (a, b) in cell.runs.iter().zip(&seq.runs) {
                    assert_eq!(a.total_cycles, b.total_cycles, "{name}/{preset}");
                    assert_eq!(a.aborts.total(), b.aborts.total(), "{name}/{preset}");
                }
            }
        }
    }
}
