//! The `static-fastpath` experiment: baseline dynamic discovery vs the
//! analyzer-driven fast path over the full benchmark × backend grid.
//!
//! Each cell runs twice on identical seeds: once with pure dynamic
//! discovery and once with [`clear_analysis::workload_plans`] installed in
//! the machine configuration, so proved-immutable ARs skip the discovery
//! run (NS-CL straight from the precomputed lock set) and likely-immutable
//! ARs shorten it to a root-slot confirmation. Only the CLEAR backend can
//! act on plans — the other backends double as a no-effect control. The
//! gated golden pins the cycle win, the elision counters and zero guard
//! violations bit-exactly.

use super::{opts_json, ExperimentOutput};
use crate::json::Json;
use crate::pool;
use crate::suite::{benchmark_plans, run_benchmark, SuiteOptions};
use clear_core::StaticPlanSet;
use clear_machine::{BackendId, MachineConfig, RunStats};
use clear_workloads::Size;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Pinned options for the `static-fastpath` golden: the tiny inputs on an
/// 8-core machine, one seed, retry threshold 5, all benchmarks and all
/// backends — 190 runs, still well under CI noise thresholds.
pub(super) fn fastpath_opts() -> SuiteOptions {
    SuiteOptions {
        size: Size::Tiny,
        cores: 8,
        seeds: vec![1],
        retry_sweep: vec![5],
        sim_threads: 1,
        ..SuiteOptions::default()
    }
}

/// One leg (baseline or fast-path) of a cell, summed over seeds.
#[derive(Clone, Copy, Default)]
struct Leg {
    cycles: u64,
    commits: u64,
    aborts: u64,
    elided: u64,
    partial: u64,
    violations: u64,
}

impl Leg {
    fn absorb(&mut self, s: &RunStats) {
        self.cycles += s.total_cycles;
        self.commits += s.commits_by_mode.total();
        self.aborts += s.aborts.total();
        self.elided += s.discovery_runs_elided;
        self.partial += s.partial_discovery_runs;
        self.violations += s.static_plan_violations;
    }
}

/// Cycle delta of the fast path relative to the baseline, in percent
/// (negative = faster).
fn delta_pct(base: u64, fast: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        100.0 * (fast as f64 - base as f64) / base as f64
    }
}

/// The `static-fastpath` experiment: `opts.backends` × `opts.benchmarks`
/// × `opts.seeds` at the first retry threshold, each cell run with and
/// without static plans, reporting cycles, aborts, elided and partial
/// discovery runs, and guard violations. Violations count as failures: a
/// plan emitted by the real analyzer must never trip its own guard.
pub(super) fn static_fastpath(opts: &SuiteOptions) -> ExperimentOutput {
    let backends: Vec<BackendId> = opts
        .backends
        .iter()
        .map(|n| BackendId::from_name(n).expect("SuiteOptions validated the backend names"))
        .collect();
    let retries = opts.retry_sweep[0];
    let plan_seed = opts.seeds[0];

    // Plans are derived once per benchmark; they are symbolic in the entry
    // registers, so the same set serves every seed.
    let plans: Vec<Arc<StaticPlanSet>> =
        pool::run_indexed(opts.benchmarks.len(), opts.workers, |b| {
            benchmark_plans(opts.benchmarks[b], opts.size, plan_seed, opts.cores)
        });

    // One coordinate per (benchmark, backend, seed, leg); index order is
    // preserved by the pool, so the reduce is deterministic.
    let grid: Vec<(usize, usize, u64, bool)> = (0..opts.benchmarks.len())
        .flat_map(|b| {
            (0..backends.len()).flat_map(move |k| {
                opts.seeds
                    .iter()
                    .flat_map(move |&s| [(b, k, s, false), (b, k, s, true)])
            })
        })
        .collect();
    let results = pool::run_indexed(grid.len(), opts.workers, |g| {
        let (b, k, seed, planned) = grid[g];
        let cfg = MachineConfig {
            seed,
            sim_threads: opts.sim_threads,
            static_plans: planned.then(|| Arc::clone(&plans[b])),
            ..backends[k].config(opts.cores, retries)
        };
        run_benchmark(opts.benchmarks[b], opts.size, cfg, false).0
    });

    let mut cells: BTreeMap<(usize, usize), (Leg, Leg)> = BTreeMap::new();
    for (g, stats) in results.iter().enumerate() {
        let (b, k, _, planned) = grid[g];
        let cell = cells.entry((b, k)).or_default();
        if planned {
            cell.1.absorb(stats);
        } else {
            cell.0.absorb(stats);
        }
    }

    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== static-fastpath: dynamic discovery vs precomputed lock sets \
         ({} backends x {} benchmarks, size {}, {} cores, retries {retries}) ===",
        backends.len(),
        opts.benchmarks.len(),
        super::size_str(opts.size),
        opts.cores
    );
    let _ = writeln!(
        text,
        "{:12} {:8} {:>5} {:>10} {:>10} {:>7} {:>7} {:>7} {:>7} {:>8} {:>5}",
        "benchmark",
        "backend",
        "plans",
        "base-cyc",
        "fast-cyc",
        "delta%",
        "b-abrt",
        "f-abrt",
        "elided",
        "partial",
        "viol"
    );
    let mut rows = Vec::new();
    for (b, name) in opts.benchmarks.iter().enumerate() {
        for (k, id) in backends.iter().enumerate() {
            let (base, fast) = &cells[&(b, k)];
            let delta = delta_pct(base.cycles, fast.cycles);
            let _ = writeln!(
                text,
                "{:12} {:8} {:>5} {:>10} {:>10} {:>7.2} {:>7} {:>7} {:>7} {:>8} {:>5}",
                name,
                id.name(),
                plans[b].len(),
                base.cycles,
                fast.cycles,
                delta,
                base.aborts,
                fast.aborts,
                fast.elided,
                fast.partial,
                fast.violations
            );
            rows.push(Json::obj([
                ("benchmark", Json::from(*name)),
                ("backend", Json::from(id.name())),
                ("planned_ars", Json::from(plans[b].len())),
                ("baseline_cycles", Json::from(base.cycles)),
                ("fastpath_cycles", Json::from(fast.cycles)),
                ("cycles_delta_pct", Json::Float(delta)),
                ("baseline_commits", Json::from(base.commits)),
                ("fastpath_commits", Json::from(fast.commits)),
                ("baseline_aborts", Json::from(base.aborts)),
                ("fastpath_aborts", Json::from(fast.aborts)),
                ("discovery_runs_elided", Json::from(fast.elided)),
                ("partial_discovery_runs", Json::from(fast.partial)),
                ("static_plan_violations", Json::from(fast.violations)),
            ]));
        }
    }

    // Per-backend totals: the CLEAR row carries the signal, the rest are
    // the no-effect control.
    let _ = writeln!(text, "\n--- per-backend totals ---");
    let _ = writeln!(
        text,
        "{:8} {:>12} {:>12} {:>7} {:>8} {:>8} {:>5}",
        "backend", "base-cyc", "fast-cyc", "delta%", "elided", "partial", "viol"
    );
    let mut summary = Vec::new();
    let mut total = (Leg::default(), Leg::default());
    for (k, id) in backends.iter().enumerate() {
        let mut base = Leg::default();
        let mut fast = Leg::default();
        for b in 0..opts.benchmarks.len() {
            let (cb, cf) = &cells[&(b, k)];
            for (acc, leg) in [(&mut base, cb), (&mut fast, cf)] {
                acc.cycles += leg.cycles;
                acc.commits += leg.commits;
                acc.aborts += leg.aborts;
                acc.elided += leg.elided;
                acc.partial += leg.partial;
                acc.violations += leg.violations;
            }
        }
        let delta = delta_pct(base.cycles, fast.cycles);
        let _ = writeln!(
            text,
            "{:8} {:>12} {:>12} {:>7.2} {:>8} {:>8} {:>5}",
            id.name(),
            base.cycles,
            fast.cycles,
            delta,
            fast.elided,
            fast.partial,
            fast.violations
        );
        summary.push(Json::obj([
            ("backend", Json::from(id.name())),
            ("baseline_cycles", Json::from(base.cycles)),
            ("fastpath_cycles", Json::from(fast.cycles)),
            ("cycles_delta_pct", Json::Float(delta)),
            ("baseline_aborts", Json::from(base.aborts)),
            ("fastpath_aborts", Json::from(fast.aborts)),
            ("discovery_runs_elided", Json::from(fast.elided)),
            ("partial_discovery_runs", Json::from(fast.partial)),
            ("static_plan_violations", Json::from(fast.violations)),
        ]));
        for (acc, leg) in [(&mut total.0, &base), (&mut total.1, &fast)] {
            acc.cycles += leg.cycles;
            acc.aborts += leg.aborts;
            acc.elided += leg.elided;
            acc.partial += leg.partial;
            acc.violations += leg.violations;
        }
    }
    let _ = writeln!(
        text,
        "\ntotals: discovery runs elided {}, partial discovery runs {}, \
         plan violations {}",
        total.1.elided, total.1.partial, total.1.violations
    );

    let json = Json::obj([
        ("experiment", Json::from("static-fastpath")),
        ("options", opts_json(opts)),
        (
            "backends",
            Json::arr(backends.iter().map(|b| Json::from(b.name()))),
        ),
        ("retries", Json::from(retries)),
        ("rows", Json::Arr(rows)),
        ("summary", Json::Arr(summary)),
        ("discovery_runs_elided", Json::from(total.1.elided)),
        ("partial_discovery_runs", Json::from(total.1.partial)),
        ("static_plan_violations", Json::from(total.1.violations)),
    ]);
    let mut out = ExperimentOutput::new(text, json);
    // A real-analyzer plan tripping its own guard is a soundness bug.
    out.failures = total.1.violations as usize;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SuiteOptions {
        SuiteOptions {
            size: Size::Tiny,
            cores: 4,
            seeds: vec![1],
            retry_sweep: vec![5],
            benchmarks: vec!["mwobject", "arrayswap"],
            workers: 4,
            sim_threads: 1,
            ..SuiteOptions::default()
        }
    }

    #[test]
    fn fastpath_covers_the_grid_and_preserves_commits() {
        let out = static_fastpath(&tiny());
        assert_eq!(out.failures, 0, "analyzer plans must not trip the guard");
        let Some(Json::Arr(rows)) = out.json.get("rows") else {
            panic!("rows missing");
        };
        // 2 benchmarks x 5 backends.
        assert_eq!(rows.len(), 10);
        for row in rows {
            assert_eq!(
                row.get("baseline_commits"),
                row.get("fastpath_commits"),
                "the fast path must not change the committed work: {row:?}"
            );
            assert_eq!(row.get("static_plan_violations"), Some(&Json::Int(0)));
            if row.get("backend") != Some(&Json::from("clear")) {
                // Only the CLEAR backend can act on plans.
                assert_eq!(row.get("discovery_runs_elided"), Some(&Json::Int(0)));
                assert_eq!(
                    row.get("baseline_cycles"),
                    row.get("fastpath_cycles"),
                    "plans must be inert off-CLEAR: {row:?}"
                );
            }
        }
    }

    #[test]
    fn fastpath_elides_discovery_under_clear() {
        let out = static_fastpath(&SuiteOptions {
            backends: vec!["clear"],
            ..tiny()
        });
        let Some(&Json::Int(elided)) = out.json.get("discovery_runs_elided") else {
            panic!("counter missing");
        };
        assert!(
            elided > 0,
            "proved-immutable benchmarks should skip discovery"
        );
    }

    #[test]
    fn fastpath_is_deterministic_across_worker_counts() {
        let opts = SuiteOptions {
            backends: vec!["clear"],
            ..tiny()
        };
        let a = static_fastpath(&opts);
        let b = static_fastpath(&SuiteOptions { workers: 1, ..opts });
        assert_eq!(a.text, b.text);
        assert_eq!(a.json.to_pretty(), b.json.to_pretty());
    }
}
