//! Suite machinery: option parsing, single runs, the preset grid with
//! its per-application best-of retry sweep, seed aggregation with trimmed
//! means, and table formatting.
//!
//! This is the engine under every experiment in the registry. The preset
//! grid ([`Grid`]: benchmark × preset × retry threshold × seed) is built
//! here and only here, by one worker-pool call; Figs. 1 and 8–13,
//! `report` and `dse-retries` are views over it, and [`Grid::best`] is the
//! one fold that picks each cell's retry threshold. Because each run is a
//! pure function of its coordinates, the parallel grid is bit-identical to
//! a sequential one.

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

    /// The sweep's first threshold: the one retry budget of experiments
    /// that run a single threshold instead of a preset [`Grid`].
    pub fn first_retries(&self) -> u32 {
        self.retry_sweep[0]
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

/// One benchmark × preset × retry-threshold cell of a [`Grid`].
#[derive(Clone, Copy, Debug)]
pub struct CellResult<'a> {
    /// Benchmark name.
    pub name: &'static str,
    /// Configuration letter.
    pub preset: Preset,
    /// The retry threshold the runs used; for [`Grid::best`], the one that
    /// minimised mean execution time (the paper's per-application
    /// design-space exploration).
    pub retries: u32,
    /// One `RunStats` per seed.
    pub runs: &'a [RunStats],
}

impl CellResult<'_> {
    /// Trimmed-mean cycles across seeds.
    pub fn cycles(&self) -> f64 {
        self.mean(|r| r.total_cycles as f64)
    }

    /// Trimmed-mean total energy across seeds.
    pub fn energy(&self) -> f64 {
        self.mean(|r| r.energy.total())
    }

    /// Mean of an arbitrary per-run metric.
    pub fn mean<F: Fn(&RunStats) -> f64>(&self, f: F) -> f64 {
        trimmed_mean(&self.runs.iter().map(f).collect::<Vec<_>>())
    }
}

/// Every run of a (benchmark × preset × retry threshold × seed) grid. Figs.
/// 1 and 8–13, `report` and `dse-retries` are views over one.
#[derive(Clone, Debug)]
pub struct Grid {
    /// Benchmarks, the outermost axis.
    pub benchmarks: Vec<&'static str>,
    /// Presets.
    pub presets: Vec<Preset>,
    /// Retry thresholds, in sweep order.
    pub retry_sweep: Vec<u32>,
    /// Runs per cell, one per seed: the innermost axis.
    seeds: usize,
    runs: Vec<RunStats>,
}

impl Grid {
    /// Runs `opts`' benchmarks and seeds under every preset and retry
    /// threshold given, spreading the whole grid across the worker pool.
    /// Each run is a pure function of its coordinates, so the grid is
    /// bit-identical to running the points one after another.
    pub fn run(opts: &SuiteOptions, presets: &[Preset], retry_sweep: &[u32]) -> Grid {
        let (np, nr, ns) = (presets.len(), retry_sweep.len(), opts.seeds.len());
        let total = opts.benchmarks.len() * np * nr * ns;
        let runs = pool::run_indexed(total, opts.workers, |i| {
            let s = i % ns;
            let r = (i / ns) % nr;
            let p = (i / (ns * nr)) % np;
            let b = i / (ns * nr * np);
            let cfg = MachineConfig {
                seed: opts.seeds[s],
                ..presets[p].config(opts.cores, retry_sweep[r])
            };
            run_benchmark(opts.benchmarks[b], opts.size, cfg, false).0
        });
        Grid {
            benchmarks: opts.benchmarks.clone(),
            presets: presets.to_vec(),
            retry_sweep: retry_sweep.to_vec(),
            seeds: ns,
            runs,
        }
    }

    /// The cell of benchmark `b` under preset `p` at threshold index `r`.
    pub fn cell(&self, b: usize, p: usize, r: usize) -> CellResult<'_> {
        let ns = self.seeds;
        let start = ((b * self.presets.len() + p) * self.retry_sweep.len() + r) * ns;
        CellResult {
            name: self.benchmarks[b],
            preset: self.presets[p],
            retries: self.retry_sweep[r],
            runs: &self.runs[start..start + ns],
        }
    }

    /// The best threshold's cell for benchmark `b` under preset `p` (paper
    /// §6: "we run from 1 to 10 retries for all benchmarks and select the
    /// best-performing one"). Sweep order breaks ties: a later threshold
    /// wins only if strictly faster.
    pub fn best(&self, b: usize, p: usize) -> CellResult<'_> {
        (0..self.retry_sweep.len())
            .map(|r| self.cell(b, p, r))
            .reduce(|best, cell| {
                if cell.cycles() < best.cycles() {
                    cell
                } else {
                    best
                }
            })
            .expect("non-empty sweep")
    }

    /// The best cell of every benchmark under each of the four presets, in
    /// [`Preset::ALL`] order: the rows of Figs. 8–13.
    ///
    /// # Panics
    ///
    /// Panics unless the grid was run over [`Preset::ALL`].
    pub fn suite(&self) -> Vec<[CellResult<'_>; 4]> {
        assert_eq!(
            self.presets,
            Preset::ALL,
            "the suite spans all four presets"
        );
        (0..self.benchmarks.len())
            .map(|b| [0, 1, 2, 3].map(|p| self.best(b, p)))
            .collect()
    }
}

/// Runs every benchmark in `opts` under all four presets and every
/// threshold of its retry sweep: the grid behind Figs. 8–13.
pub fn run_suite(opts: &SuiteOptions) -> Grid {
    Grid::run(opts, &Preset::ALL, &opts.retry_sweep)
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
    fn best_picks_a_swept_threshold() {
        let opts = SuiteOptions {
            size: Size::Tiny,
            cores: 4,
            seeds: vec![1],
            benchmarks: vec!["mwobject"],
            ..SuiteOptions::default()
        };
        let grid = Grid::run(&opts, &[Preset::B], &[2, 8]);
        let cell = grid.best(0, 0);
        assert!(cell.retries == 2 || cell.retries == 8);
        assert_eq!(cell.runs.len(), 1);
    }

    /// The grid's correctness keystone: the parallel grid must equal a
    /// sequential sweep of single runs bit-for-bit, and each best cell must
    /// be the first threshold with the least trimmed-mean cycles.
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
        let grid = run_suite(&opts);
        let suite = grid.suite();
        for (b, name) in opts.benchmarks.iter().enumerate() {
            for (p, preset) in Preset::ALL.into_iter().enumerate() {
                let mut means = Vec::new();
                for (r, &retries) in opts.retry_sweep.iter().enumerate() {
                    let cell = grid.cell(b, p, r);
                    let mut cycles = Vec::new();
                    for (s, &seed) in opts.seeds.iter().enumerate() {
                        let cfg = MachineConfig {
                            seed,
                            ..preset.config(opts.cores, retries)
                        };
                        let seq = run_benchmark(name, opts.size, cfg, false).0;
                        let at = &cell.runs[s];
                        assert_eq!(at.total_cycles, seq.total_cycles, "{name}/{preset}");
                        assert_eq!(at.aborts.total(), seq.aborts.total(), "{name}/{preset}");
                        cycles.push(seq.total_cycles as f64);
                    }
                    means.push(trimmed_mean(&cycles));
                }
                let least = means.iter().cloned().fold(f64::INFINITY, f64::min);
                let first = means.iter().position(|&m| m == least).unwrap();
                assert_eq!(
                    suite[b][p].retries, opts.retry_sweep[first],
                    "{name}/{preset}"
                );
            }
        }
    }
}
