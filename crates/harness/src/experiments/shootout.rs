//! The `backend-shootout` experiment: every speculation backend over the
//! lint-clean benchmark suite on identical coherence, scheduler and
//! workload layers.
//!
//! This is the headline artifact of the pluggable-backend refactor: CLEAR,
//! requester-wins TSX, PowerTM, SLE, the limited-R/W-set scheme and CLEAR
//! over PowerTM differ *only* in the [`clear_machine::SpeculationBackend`]
//! implementation each run plugs in, so differences in commit throughput,
//! abort taxonomy and fallback occupancy are attributable to the
//! conflict-resolution and retry policies alone.
//!
//! Every cell runs two traced legs on identical seeds: plain dynamic
//! discovery, and the same run with [`clear_analysis::workload_plans`]
//! installed, so proved-immutable ARs skip the discovery run and
//! likely-immutable ARs shorten it. Only the CLEAR backends act on plans;
//! the other columns are the "plans are inert" control. Each row also
//! carries the plain leg's simulator-kernel counters and the FxHash
//! digest of its full trace stream, so one tiny grid gates the backend
//! comparison, the analyzer-driven fast path, the kernel's schedule and
//! the traced protocol state machine bit-exactly. A plan guard violation
//! counts as a failure: a plan emitted by the real analyzer must never
//! trip its own guard.

use super::{every_backend, opts_json, perf::perf_metrics, ExperimentOutput};
use crate::json::Json;
use crate::pool;
use crate::suite::{benchmark_plans, run_benchmark, SuiteOptions};
use crate::trace_export::digest_hex;
use clear_core::StaticPlanSet;
use clear_htm::AbortKind;
use clear_machine::{BackendId, MachineConfig, RunStats};
use clear_workloads::Size;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Pinned options for the `backend-shootout` golden: the tiny inputs on an
/// 8-core machine, one seed, retry threshold 5, all benchmarks and every
/// backend id — 19 × 6 cells of two legs each, 228 runs.
pub(super) fn shootout_opts() -> SuiteOptions {
    SuiteOptions {
        size: Size::Tiny,
        cores: 8,
        seeds: vec![1],
        retry_sweep: vec![5],
        backends: every_backend(),
        ..SuiteOptions::default()
    }
}

/// Counters summed over the (plain, planned) leg pairs a row or a
/// per-backend total absorbs.
#[derive(Clone, Default)]
struct Tally {
    cycles: u64,
    commits: u64,
    aborts: BTreeMap<&'static str, u64>,
    fallback_commits: u64,
    lrws_read: u64,
    lrws_write: u64,
    fast_cycles: u64,
    fast_commits: u64,
    fast_aborts: u64,
    elided: u64,
    partial: u64,
    violations: u64,
    steps: u64,
    sched_updates: u64,
    coherence_requests: u64,
    events: u64,
    dropped: u64,
    /// Plain-leg trace digests folded rotate-xor in seed order, so a
    /// one-seed cell carries its run's digest unchanged.
    digest: u64,
}

impl Tally {
    fn absorb(&mut self, (plain, digest): &(RunStats, u64), (fast, _): &(RunStats, u64)) {
        self.cycles += plain.total_cycles;
        self.commits += plain.commits();
        for kind in AbortKind::ALL {
            let n = plain.aborts.get(kind);
            if n > 0 {
                *self.aborts.entry(kind.name()).or_default() += n;
            }
        }
        self.fallback_commits += plain.commits_by_mode.fallback;
        self.lrws_read += plain.lrws_read_capacity_aborts;
        self.lrws_write += plain.lrws_write_capacity_aborts;
        self.fast_cycles += fast.total_cycles;
        self.fast_commits += fast.commits();
        self.fast_aborts += fast.aborts.total();
        self.elided += fast.discovery_runs_elided;
        self.partial += fast.partial_discovery_runs;
        self.violations += fast.static_plan_violations;
        let p = &plain.perf;
        self.steps += p.steps;
        self.sched_updates += p.sched_updates;
        self.coherence_requests += p.coherence_requests;
        self.events += p.trace_events_recorded;
        self.dropped += p.trace_events_dropped;
        self.digest = self.digest.rotate_left(5) ^ digest;
    }

    fn aborts_total(&self) -> u64 {
        self.aborts.values().sum()
    }

    fn capacity_aborts(&self) -> u64 {
        self.aborts.get("capacity").copied().unwrap_or(0)
    }

    /// Fallback occupancy: percentage of commits that took the fallback
    /// path.
    fn fallback_pct(&self) -> f64 {
        pct(self.fallback_commits as f64, self.commits)
    }

    /// Cycle delta of the planned leg relative to the plain one, in
    /// percent (negative = faster).
    fn delta_pct(&self) -> f64 {
        pct(self.fast_cycles as f64 - self.cycles as f64, self.cycles)
    }
}

/// `100 * num / den`, or 0 for an empty denominator.
fn pct(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num / den as f64
    }
}

/// The `backend-shootout` experiment: `opts.backends` × `opts.benchmarks`
/// × `opts.seeds` at the first retry threshold of `opts.retry_sweep`, each
/// cell run without and with static plans. Rows report summed cycles,
/// commit throughput, the abort taxonomy and fallback occupancy, the
/// planned leg's cycles, elisions and guard violations, and the plain
/// leg's kernel counters and trace digest; the per-backend summary
/// normalizes execution cycles to the first backend in the sweep
/// (geometric mean over benchmarks).
pub(super) fn backend_shootout(opts: &SuiteOptions) -> ExperimentOutput {
    let backends: Vec<BackendId> = opts
        .backends
        .iter()
        .map(|n| BackendId::from_name(n).expect("SuiteOptions validated the backend names"))
        .collect();
    let retries = opts.first_retries();
    let (nb, nk) = (opts.benchmarks.len(), backends.len());

    // Plans are symbolic in the entry registers, so one set per benchmark
    // serves every seed and backend.
    let plans: Vec<Arc<StaticPlanSet>> = pool::run_indexed(nb, opts.workers, |b| {
        benchmark_plans(opts.benchmarks[b], opts.size, opts.seeds[0], opts.cores)
    });

    // One coordinate per (benchmark, backend, seed, leg), the two legs of a
    // cell adjacent; the pool preserves index order, so the reduce below is
    // deterministic for any worker count.
    let grid: Vec<(usize, usize, u64, bool)> = (0..nb)
        .flat_map(|b| {
            (0..nk).flat_map(move |k| {
                opts.seeds
                    .iter()
                    .flat_map(move |&s| [(b, k, s, false), (b, k, s, true)])
            })
        })
        .collect();
    let legs = pool::run_indexed(grid.len(), opts.workers, |g| {
        let (b, k, seed, planned) = grid[g];
        let cfg = MachineConfig {
            seed,
            static_plans: planned.then(|| Arc::clone(&plans[b])),
            ..backends[k].config(opts.cores, retries)
        };
        let (stats, m) = run_benchmark(opts.benchmarks[b], opts.size, cfg, true);
        (stats, m.trace().digest())
    });

    let mut cells = vec![Tally::default(); nb * nk];
    let mut totals = vec![Tally::default(); nk];
    for (g, pair) in legs.chunks_exact(2).enumerate() {
        let (b, k, _, _) = grid[2 * g];
        cells[b * nk + k].absorb(&pair[0], &pair[1]);
        totals[k].absorb(&pair[0], &pair[1]);
    }

    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== backend-shootout: {nk} backends x {nb} benchmarks (size {}, {} cores, \
         retries {retries}) ===",
        super::size_str(opts.size),
        opts.cores
    );
    let _ = writeln!(
        text,
        "{:12} {:13} {:>8} {:>7} {:>7} {:>9} {:>8} {:>8} {:>7} {:>6} {:>8}  digest",
        "benchmark",
        "backend",
        "cycles",
        "commits",
        "aborts",
        "fallback%",
        "rw-ovfl",
        "fast-cyc",
        "delta%",
        "elided",
        "steps"
    );
    let mut rows = Vec::new();
    for (b, name) in opts.benchmarks.iter().enumerate() {
        for (k, id) in backends.iter().enumerate() {
            let t = &cells[b * nk + k];
            let _ = writeln!(
                text,
                "{:12} {:13} {:>8} {:>7} {:>7} {:>9.2} {:>8} {:>8} {:>7.2} {:>6} {:>8}  {}",
                name,
                id.name(),
                t.cycles,
                t.commits,
                t.aborts_total(),
                t.fallback_pct(),
                t.lrws_read + t.lrws_write,
                t.fast_cycles,
                t.delta_pct(),
                t.elided,
                t.steps,
                digest_hex(t.digest)
            );
            rows.push(Json::obj([
                ("benchmark", Json::from(*name)),
                ("backend", Json::from(id.name())),
                ("cycles", Json::from(t.cycles)),
                ("commits", Json::from(t.commits)),
                ("aborts_total", Json::from(t.aborts_total())),
                (
                    "aborts",
                    Json::obj(t.aborts.iter().map(|(k, n)| (*k, Json::from(*n)))),
                ),
                ("fallback_commits", Json::from(t.fallback_commits)),
                ("fallback_pct", Json::Float(t.fallback_pct())),
                ("lrws_read_capacity_aborts", Json::from(t.lrws_read)),
                ("lrws_write_capacity_aborts", Json::from(t.lrws_write)),
                ("planned_ars", Json::from(plans[b].len())),
                ("fastpath_cycles", Json::from(t.fast_cycles)),
                ("cycles_delta_pct", Json::Float(t.delta_pct())),
                ("fastpath_commits", Json::from(t.fast_commits)),
                ("fastpath_aborts", Json::from(t.fast_aborts)),
                ("discovery_runs_elided", Json::from(t.elided)),
                ("partial_discovery_runs", Json::from(t.partial)),
                ("static_plan_violations", Json::from(t.violations)),
                ("steps", Json::from(t.steps)),
                ("sched_updates", Json::from(t.sched_updates)),
                ("coherence_requests", Json::from(t.coherence_requests)),
                ("events", Json::from(t.events)),
                ("dropped", Json::from(t.dropped)),
                ("digest", Json::from(digest_hex(t.digest))),
            ]));
        }
    }

    // Per-backend summary: totals across benchmarks plus cycles normalized
    // to the first backend in the sweep (geometric mean over benchmarks).
    let baseline = backends.first().map(|b| b.name()).unwrap_or("none");
    let _ = writeln!(
        text,
        "\n--- per-backend totals (cycles normalized to {baseline}, geomean) ---"
    );
    let _ = writeln!(
        text,
        "{:13} {:>10} {:>8} {:>8} {:>9} {:>9} {:>7} {:>10} {:>7} {:>7} {:>5}",
        "backend",
        "cycles",
        "commits",
        "aborts",
        "fallback%",
        "capacity",
        "norm",
        "fast-cyc",
        "delta%",
        "elided",
        "viol"
    );
    let mut summary = Vec::new();
    for (k, id) in backends.iter().enumerate() {
        let total = &totals[k];
        let log_sum: f64 = (0..nb)
            .map(|b| {
                let base = cells[b * nk].cycles.max(1) as f64;
                (cells[b * nk + k].cycles.max(1) as f64 / base).ln()
            })
            .sum();
        let norm = if nb == 0 {
            1.0
        } else {
            (log_sum / nb as f64).exp()
        };
        let _ = writeln!(
            text,
            "{:13} {:>10} {:>8} {:>8} {:>9.2} {:>9} {:>7.3} {:>10} {:>7.2} {:>7} {:>5}",
            id.name(),
            total.cycles,
            total.commits,
            total.aborts_total(),
            total.fallback_pct(),
            total.capacity_aborts(),
            norm,
            total.fast_cycles,
            total.delta_pct(),
            total.elided,
            total.violations
        );
        summary.push(Json::obj([
            ("backend", Json::from(id.name())),
            ("cycles", Json::from(total.cycles)),
            ("commits", Json::from(total.commits)),
            ("aborts_total", Json::from(total.aborts_total())),
            ("fallback_commits", Json::from(total.fallback_commits)),
            ("fallback_pct", Json::Float(total.fallback_pct())),
            ("capacity_aborts", Json::from(total.capacity_aborts())),
            (
                "lrws_capacity_aborts",
                Json::from(total.lrws_read + total.lrws_write),
            ),
            ("norm_cycles_ratio", Json::Float(norm)),
            ("fastpath_cycles", Json::from(total.fast_cycles)),
            ("cycles_delta_pct", Json::Float(total.delta_pct())),
            ("fastpath_aborts", Json::from(total.fast_aborts)),
            ("discovery_runs_elided", Json::from(total.elided)),
            ("partial_discovery_runs", Json::from(total.partial)),
            ("static_plan_violations", Json::from(total.violations)),
        ]));
    }
    let violations: u64 = totals.iter().map(|t| t.violations).sum();
    let _ = writeln!(text, "\nplan violations: {violations}");

    let json = Json::obj([
        ("experiment", Json::from("backend-shootout")),
        ("options", opts_json(opts)),
        (
            "backends",
            Json::arr(backends.iter().map(|b| Json::from(b.name()))),
        ),
        ("retries", Json::from(retries)),
        ("baseline", Json::from(baseline)),
        ("rows", Json::Arr(rows)),
        ("summary", Json::Arr(summary)),
    ]);
    let mut out = ExperimentOutput::new(text, json);
    // A real-analyzer plan tripping its own guard is a soundness bug.
    out.failures = violations as usize;
    out.metrics = Some(perf_metrics(
        grid.iter()
            .zip(&legs)
            .filter(|((_, _, seed, planned), _)| *seed == opts.seeds[0] && !planned)
            .map(|(&(b, k, _, _), (stats, _))| {
                let labels = vec![
                    ("bench", opts.benchmarks[b].to_string()),
                    ("backend", backends[k].name().to_string()),
                ];
                (labels, stats)
            }),
    ));
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
            ..SuiteOptions::default()
        }
    }

    fn rows(out: &ExperimentOutput) -> &[Json] {
        let Some(Json::Arr(rows)) = out.json.get("rows") else {
            panic!("rows missing");
        };
        rows
    }

    #[test]
    fn shootout_covers_the_full_backend_grid() {
        let out = backend_shootout(&tiny());
        assert_eq!(out.failures, 0, "analyzer plans must not trip the guard");
        let rows = rows(&out);
        // 2 benchmarks x 5 backends.
        assert_eq!(rows.len(), 10);
        for row in rows {
            assert!(matches!(row.get("commits"), Some(Json::Int(c)) if *c > 0));
            assert!(matches!(row.get("events"), Some(Json::Int(e)) if *e > 0));
            assert_eq!(row.get("dropped"), Some(&Json::Int(0)));
            assert_eq!(
                row.get("commits"),
                row.get("fastpath_commits"),
                "the fast path must not change the committed work: {row:?}"
            );
            assert_eq!(row.get("static_plan_violations"), Some(&Json::Int(0)));
            let backend = row.get("backend");
            if backend != Some(&Json::from("lrws")) {
                assert_eq!(
                    row.get("lrws_read_capacity_aborts"),
                    Some(&Json::Int(0)),
                    "{row:?}"
                );
            }
            if backend != Some(&Json::from("clear")) {
                // Only the CLEAR backends can act on plans.
                assert_eq!(row.get("discovery_runs_elided"), Some(&Json::Int(0)));
                assert_eq!(
                    row.get("cycles"),
                    row.get("fastpath_cycles"),
                    "plans must be inert off-CLEAR: {row:?}"
                );
            }
        }
        let Some(Json::Arr(summary)) = out.json.get("summary") else {
            panic!("summary missing");
        };
        assert_eq!(summary.len(), 5);
        // The baseline normalizes to exactly 1.0.
        assert_eq!(summary[0].get("norm_cycles_ratio"), Some(&Json::Float(1.0)));
        let clear = summary
            .iter()
            .find(|s| s.get("backend") == Some(&Json::from("clear")))
            .expect("clear summary");
        assert!(
            matches!(clear.get("discovery_runs_elided"), Some(Json::Int(n)) if *n > 0),
            "proved-immutable benchmarks should skip discovery under clear"
        );
    }

    #[test]
    fn shootout_is_deterministic_across_worker_counts() {
        let a = backend_shootout(&tiny());
        let b = backend_shootout(&SuiteOptions {
            workers: 1,
            ..tiny()
        });
        assert_eq!(a.text, b.text);
        assert_eq!(a.json.to_pretty(), b.json.to_pretty());
    }

    #[test]
    fn backend_flag_restricts_the_shootout() {
        let out = backend_shootout(&SuiteOptions {
            backends: vec!["clear", "lrws"],
            ..tiny()
        });
        assert_eq!(rows(&out).len(), 4);
        assert_eq!(out.json.get("baseline"), Some(&Json::from("clear")));
        assert!(!out.text.contains("powertm"));
    }
}
