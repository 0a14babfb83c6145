//! Study experiments: the ablation grid, retry-threshold DSE,
//! a-priori-locking comparison and SLE-vs-HTM speculation.

use super::{opts_json, ExperimentOutput};
use crate::json::Json;
use crate::pool;
use crate::suite::{run_benchmark, run_suite, SuiteOptions};
use clear_core::{ClearConfig, SclLockPolicy};
use clear_machine::{ClearBackend, MachineConfig, Preset, RunStats, SpeculationKind};
use std::fmt::Write as _;
use std::sync::Arc;

/// Runs `name` on the suite's first seed under `cfg` (retry threshold 5 in
/// every study below).
fn run_seeded(name: &str, opts: &SuiteOptions, cfg: MachineConfig) -> RunStats {
    let cfg = MachineConfig {
        seed: opts.seeds[0],
        ..cfg
    };
    run_benchmark(name, opts.size, cfg, false).0
}

const ABLATION_APPS: [&str; 6] = [
    "arrayswap",
    "bst",
    "hashmap",
    "intruder",
    "labyrinth",
    "mwobject",
];
const ABLATION_VARIANTS: [&str; 7] = [
    "baseline_b",
    "c",
    "no_crt",
    "lock_all",
    "alt8",
    "alt64",
    "ert4",
];

fn ablation_variant(name: &str, variant: usize, opts: &SuiteOptions) -> RunStats {
    let base = ClearConfig::default();
    let clear = match variant {
        0 => return run_seeded(name, opts, Preset::B.config(opts.cores, 5)),
        1 => base,
        2 => ClearConfig {
            crt_sets: 1,
            crt_ways: 1,
            ..base
        },
        3 => ClearConfig {
            scl_lock_policy: SclLockPolicy::AllAccessed,
            ..base
        },
        4 => ClearConfig {
            alt_entries: 8,
            ..base
        },
        5 => ClearConfig {
            alt_entries: 64,
            ..base
        },
        6 => ClearConfig {
            ert_entries: 4,
            ..base
        },
        _ => unreachable!("seven ablation variants"),
    };
    let cfg = MachineConfig {
        backend: Arc::new(ClearBackend {
            clear,
            ..ClearBackend::default()
        }),
        ..Preset::C.config(opts.cores, 5)
    };
    run_seeded(name, opts, cfg)
}

pub(super) fn ablation(opts: &SuiteOptions) -> ExperimentOutput {
    let apps: Vec<&str> = ABLATION_APPS
        .iter()
        .copied()
        .filter(|n| opts.benchmarks.contains(n))
        .collect();
    let nv = ABLATION_VARIANTS.len();
    let stats = pool::run_indexed(apps.len() * nv, opts.workers, |i| {
        ablation_variant(apps[i / nv], i % nv, opts)
    });
    let mut text = String::new();
    let _ = writeln!(text, "=== CLEAR ablations (configuration C, retries=5) ===");
    let _ = writeln!(
        text,
        "{:12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "benchmark", "baseline-B", "C", "C/no-CRT", "C/lock-all", "C/ALT-8", "C/ALT-64", "C/ERT-4"
    );
    let mut rows = Vec::new();
    for (a, name) in apps.iter().enumerate() {
        let v = &stats[a * nv..(a + 1) * nv];
        let base = v[0].total_cycles;
        let ratio = |i: usize| v[i].total_cycles as f64 / base as f64;
        let _ = writeln!(
            text,
            "{:12} {:>12} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            name,
            base,
            ratio(1),
            ratio(2),
            ratio(3),
            ratio(4),
            ratio(5),
            ratio(6),
        );
        rows.push(Json::obj([
            ("benchmark", Json::from(*name)),
            (
                "variant_cycles",
                Json::obj(
                    ABLATION_VARIANTS
                        .iter()
                        .zip(v)
                        .map(|(label, s)| (*label, Json::from(s.total_cycles))),
                ),
            ),
            (
                "variant_ratio",
                Json::obj(
                    ABLATION_VARIANTS
                        .iter()
                        .enumerate()
                        .skip(1)
                        .map(|(i, label)| (*label, Json::from(ratio(i)))),
                ),
            ),
        ]));
    }
    let _ = writeln!(
        text,
        "\ncolumns (except baseline-B, in cycles) are normalized to B; lower is better"
    );
    let json = Json::obj([
        ("experiment", Json::from("ablation")),
        ("options", opts_json(opts)),
        ("rows", Json::Arr(rows)),
    ]);
    ExperimentOutput::new(text, json)
}

pub(super) fn dse_retries(opts: &SuiteOptions) -> ExperimentOutput {
    let mut opts = opts.clone();
    if opts.retry_sweep.len() <= 3 {
        opts.retry_sweep = (1..=10).collect();
    }
    let grid = run_suite(&opts);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== Retry-threshold design-space exploration (cycles, per threshold) ==="
    );
    let mut rows = Vec::new();
    for (b, name) in grid.benchmarks.iter().enumerate() {
        let _ = writeln!(text, "\n{name}:");
        let _ = write!(text, "{:>4}", "cfg");
        for r in &grid.retry_sweep {
            let _ = write!(text, " {:>10}", format!("r={r}"));
        }
        let _ = writeln!(text, " {:>6}", "best");
        for (p, preset) in grid.presets.iter().enumerate() {
            let _ = write!(text, "{:>4}", preset.letter());
            let means: Vec<f64> = (0..grid.retry_sweep.len())
                .map(|r| grid.cell(b, p, r).cycles())
                .collect();
            for mean in &means {
                let _ = write!(text, " {:>10.0}", mean);
            }
            let best = grid.best(b, p).retries;
            let _ = writeln!(text, " {:>6}", format!("r={best}"));
            rows.push(Json::obj([
                ("benchmark", Json::from(*name)),
                ("preset", Json::from(preset.letter().to_string())),
                ("mean_cycles", Json::arr(means.into_iter().map(Json::from))),
                ("best_retries", Json::from(best)),
            ]));
        }
    }
    let json = Json::obj([
        ("experiment", Json::from("dse-retries")),
        ("options", opts_json(&opts)),
        ("rows", Json::Arr(rows)),
    ]);
    ExperimentOutput::new(text, json)
}

pub(super) fn mad_vs_clear(opts: &SuiteOptions) -> ExperimentOutput {
    // Benchmarks with at least one statically-lockable AR.
    let eligible = [
        "arrayswap",
        "mwobject",
        "kmeans-h",
        "kmeans-l",
        "ssca2",
        "sorted-list",
    ];
    let apps: Vec<&str> = eligible
        .iter()
        .copied()
        .filter(|n| opts.benchmarks.contains(n))
        .collect();
    let cores_axis = [2usize, 8, 32];
    let (nc, nv) = (cores_axis.len(), 3);
    let stats = pool::run_indexed(apps.len() * nc * nv, opts.workers, |i| {
        let v = i % nv;
        let c = (i / nv) % nc;
        let name = apps[i / (nv * nc)];
        let cores = cores_axis[c];
        let cfg = match v {
            0 => Preset::B.config(cores, 5),
            1 => MachineConfig {
                a_priori_locking: true,
                ..Preset::B.config(cores, 5)
            },
            _ => Preset::C.config(cores, 5),
        };
        run_seeded(name, opts, cfg)
    });
    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== a-priori locking (MAD/MCAS-style) vs speculation vs CLEAR ==="
    );
    let _ = writeln!(
        text,
        "{:14} {:>6} | {:>12} {:>12} {:>12} | {:>8} {:>8}",
        "benchmark", "cores", "B cycles", "MAD cycles", "C cycles", "MAD/B", "C/B"
    );
    let mut rows = Vec::new();
    for (a, name) in apps.iter().enumerate() {
        for (c, &cores) in cores_axis.iter().enumerate() {
            let base = (a * nc + c) * nv;
            let (b, mad, cl) = (&stats[base], &stats[base + 1], &stats[base + 2]);
            let _ = writeln!(
                text,
                "{:14} {:>6} | {:>12} {:>12} {:>12} | {:>8.2} {:>8.2}",
                name,
                cores,
                b.total_cycles,
                mad.total_cycles,
                cl.total_cycles,
                mad.total_cycles as f64 / b.total_cycles as f64,
                cl.total_cycles as f64 / b.total_cycles as f64,
            );
            rows.push(Json::obj([
                ("benchmark", Json::from(*name)),
                ("cores", Json::from(cores)),
                ("b_cycles", Json::from(b.total_cycles)),
                ("mad_cycles", Json::from(mad.total_cycles)),
                ("c_cycles", Json::from(cl.total_cycles)),
            ]));
        }
    }
    let _ = writeln!(
        text,
        "\nreading the table: MAD excels exactly where its static footprints apply"
    );
    let _ = writeln!(
        text,
        "(write-heavy immutable ARs like arrayswap/mwobject) but cannot touch the"
    );
    let _ = writeln!(
        text,
        "mutable/indirect ARs, so CLEAR matches or beats it on mixed workloads"
    );
    let _ = writeln!(
        text,
        "(kmeans, ssca2, sorted-list) — and needs no new instructions (§1)"
    );
    let json = Json::obj([
        ("experiment", Json::from("mad-vs-clear")),
        ("options", opts_json(opts)),
        ("rows", Json::Arr(rows)),
    ]);
    ExperimentOutput::new(text, json)
}

/// Share of ARs completing on the fallback path, in percent.
pub(super) fn fallback_pct(s: &RunStats) -> f64 {
    100.0 * s.commits_by_mode.fallback as f64 / s.commits() as f64
}

pub(super) fn sle_vs_htm(opts: &SuiteOptions) -> ExperimentOutput {
    let kinds = [SpeculationKind::Htm, SpeculationKind::InCore];
    let stats = pool::run_indexed(opts.benchmarks.len() * 2, opts.workers, |i| {
        let cfg = MachineConfig {
            backend: Arc::new(ClearBackend {
                speculation: kinds[i % 2],
                ..ClearBackend::default()
            }),
            ..Preset::C.config(opts.cores, 5)
        };
        run_seeded(opts.benchmarks[i / 2], opts, cfg)
    });
    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== CLEAR with in-core (SLE) vs out-of-core (HTM) speculation ==="
    );
    let _ = writeln!(
        text,
        "{:14} {:>12} {:>12} {:>9} | {:>12} {:>12} {:>9}",
        "benchmark", "HTM cycles", "HTM fb%", "HTM apc", "SLE cycles", "SLE fb%", "SLE apc"
    );
    let mut rows = Vec::new();
    for (b, name) in opts.benchmarks.iter().enumerate() {
        let cols: Vec<(u64, f64, f64)> = (0..2)
            .map(|k| {
                let s = &stats[b * 2 + k];
                (s.total_cycles, fallback_pct(s), s.aborts_per_commit())
            })
            .collect();
        let _ = writeln!(
            text,
            "{:14} {:>12} {:>12.1} {:>9.2} | {:>12} {:>12.1} {:>9.2}",
            name, cols[0].0, cols[0].1, cols[0].2, cols[1].0, cols[1].1, cols[1].2
        );
        let side = |c: &(u64, f64, f64)| {
            Json::obj([
                ("cycles", Json::from(c.0)),
                ("fallback_pct", Json::from(c.1)),
                ("aborts_per_commit", Json::from(c.2)),
            ])
        };
        rows.push(Json::obj([
            ("benchmark", Json::from(*name)),
            ("htm", side(&cols[0])),
            ("sle", side(&cols[1])),
        ]));
    }
    let _ = writeln!(
        text,
        "\nfb% = share of ARs completing on the fallback path; apc = aborts per commit"
    );
    let _ = writeln!(
        text,
        "in-core speculation pushes ROB-exceeding ARs (long traversals) to fallback"
    );
    let json = Json::obj([
        ("experiment", Json::from("sle")),
        ("options", opts_json(opts)),
        ("rows", Json::Arr(rows)),
    ]);
    ExperimentOutput::new(text, json)
}
