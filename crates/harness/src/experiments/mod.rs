//! The experiment registry: one named entry per reproduced figure, table
//! or study.
//!
//! Every experiment is a pure function from [`SuiteOptions`] to an
//! [`ExperimentOutput`]: the text `clear-harness run <name>` prints plus a
//! machine-readable JSON document. Gated experiments additionally pin
//! the options their regression checks against `goldens/` run with
//! ([`Experiment::golden`]); the document holds simulated values only,
//! so one comparison rule ([`crate::golden::compare`]) fits every gate.

mod figures;
mod fuzz;
mod perf;
mod shootout;
mod slo;
mod statics;
mod studies;
mod tables;
mod verify;

pub use fuzz::{fuzz_output, matrix_output, parse_seed, replay_output};
pub use statics::analyze_output;

use crate::json::Json;
use crate::suite::SuiteOptions;
use clear_machine::BackendId;
use clear_workloads::Size;

/// Result of running one experiment.
#[derive(Clone, Debug)]
pub struct ExperimentOutput {
    /// Text `clear-harness run` prints.
    pub text: String,
    /// Machine-readable result document.
    pub json: Json,
    /// Failed checks: broken invariants (`verify`), forbidden litmus
    /// outcomes, analyzer/dynamic disagreements or plan guard violations
    /// (`backend-shootout`). Nonzero makes `run` exit 1.
    pub failures: usize,
    /// Optional side-channel metrics snapshot (simulator `PerfCounters`
    /// surfaced through `clear-metrics`). Deliberately NOT part of `json`:
    /// golden baselines compare `json` byte-for-byte, while `run --json`
    /// appends this block to the *printed* document only, so observability
    /// can grow without re-pinning the goldens.
    pub metrics: Option<Json>,
}

impl ExperimentOutput {
    fn new(text: String, json: Json) -> Self {
        ExperimentOutput {
            text,
            json,
            failures: 0,
            metrics: None,
        }
    }
}

/// A registered experiment.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Registry name (`cargo run -p clear-harness -- run <name>`).
    pub name: &'static str,
    /// Paper artifact it reproduces.
    pub artifact: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// The runner.
    pub run: fn(&SuiteOptions) -> ExperimentOutput,
    /// Options the golden baseline was generated with (fixed, CLI flags
    /// ignored), if this experiment is regression-checked.
    pub golden: Option<fn() -> SuiteOptions>,
}

fn small() -> SuiteOptions {
    SuiteOptions {
        size: Size::Small,
        ..SuiteOptions::default()
    }
}

fn medium() -> SuiteOptions {
    SuiteOptions {
        size: Size::Medium,
        ..SuiteOptions::default()
    }
}

/// Pinned options for the `scaling-wide` golden: the full 2→1024 core
/// ladder on a benchmark whose footprint spans many directory shards
/// (genome reaches ~23 shards at 1024 cores), under CLEAR only: the
/// speculative backends take seconds per point at the top rungs.
fn wide_opts() -> SuiteOptions {
    SuiteOptions {
        size: Size::Tiny,
        cores: 1024,
        seeds: vec![1],
        benchmarks: vec!["genome"],
        backends: vec!["clear"],
        ..SuiteOptions::default()
    }
}

/// Every registered experiment, in documentation order.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig01",
        artifact: "Figure 1",
        about: "share of retried ARs with a small immutable footprint",
        run: figures::fig01,
        golden: Some(medium),
    },
    Experiment {
        name: "fig08",
        artifact: "Figure 8",
        about: "execution time normalized to requester-wins",
        run: figures::fig08,
        golden: None,
    },
    Experiment {
        name: "fig09",
        artifact: "Figure 9",
        about: "aborts per committed transaction",
        run: figures::fig09,
        golden: None,
    },
    Experiment {
        name: "fig10",
        artifact: "Figure 10",
        about: "energy normalized to requester-wins",
        run: figures::fig10,
        golden: None,
    },
    Experiment {
        name: "fig11",
        artifact: "Figure 11",
        about: "abort breakdown per type",
        run: figures::fig11,
        golden: None,
    },
    Experiment {
        name: "fig12",
        artifact: "Figure 12",
        about: "commit breakdown per execution mode",
        run: figures::fig12,
        golden: None,
    },
    Experiment {
        name: "fig13",
        artifact: "Figure 13",
        about: "commit breakdown per number of retries",
        run: figures::fig13,
        golden: None,
    },
    Experiment {
        name: "report",
        artifact: "Figures 8-13",
        about: "one-pass evaluation report over a single suite run",
        run: figures::report,
        golden: Some(medium),
    },
    Experiment {
        name: "table1-measured",
        artifact: "Table 1 (measured)",
        about: "AR class counts, plus immutable decisions and commit modes per AR",
        run: tables::table1_measured,
        golden: Some(SuiteOptions::default),
    },
    Experiment {
        name: "table2",
        artifact: "Table 2",
        about: "instantiated baseline system configuration",
        run: tables::table2,
        golden: Some(SuiteOptions::default),
    },
    Experiment {
        name: "ablation",
        artifact: "DESIGN.md ablations",
        about: "CLEAR design-choice ablations (CRT, lock policy, ALT, ERT)",
        run: studies::ablation,
        golden: Some(small),
    },
    Experiment {
        name: "dse-retries",
        artifact: "paper §6 methodology",
        about: "retry-threshold sensitivity curves",
        run: studies::dse_retries,
        golden: None,
    },
    Experiment {
        name: "mad-vs-clear",
        artifact: "paper §1-§2 motivation",
        about: "a-priori cacheline locking vs speculation vs CLEAR",
        run: studies::mad_vs_clear,
        golden: Some(SuiteOptions::default),
    },
    Experiment {
        name: "scaling-wide",
        artifact: "simulator engineering",
        about: "cycles, aborts, fallback share and simulator counters at 2-1024 cores",
        run: perf::scaling_wide,
        golden: Some(wide_opts),
    },
    Experiment {
        name: "sle",
        artifact: "extension study (§4.1 vs §4.2)",
        about: "CLEAR with in-core (SLE) vs HTM speculation",
        run: studies::sle_vs_htm,
        golden: Some(small),
    },
    Experiment {
        name: "slo-latency",
        artifact: "observability / SLO gate",
        about: "streaming p50/p99/p999 time-to-commit from the serve loop",
        run: slo::slo_latency,
        golden: Some(slo::slo_opts),
    },
    Experiment {
        name: "static-agreement",
        artifact: "static analyzer validation",
        about: "ahead-of-time AR verdicts vs dynamic discovery observations",
        run: statics::static_agreement,
        golden: Some(SuiteOptions::default),
    },
    Experiment {
        name: "litmus-backends",
        artifact: "atomicity conformance",
        about:
            "SB/LB/MP/IRIW litmus shapes across every backend, forbidden outcomes pinned to zero",
        run: fuzz::litmus_backends,
        golden: Some(fuzz::litmus_opts),
    },
    Experiment {
        name: "backend-shootout",
        artifact: "backend comparison study",
        about: "commit throughput, abort taxonomy and fallback occupancy per backend",
        run: shootout::backend_shootout,
        golden: Some(shootout::shootout_opts),
    },
    Experiment {
        name: "verify",
        artifact: "install check",
        about: "atomicity invariants across the full benchmark grid",
        run: verify::verify,
        golden: None,
    },
];

/// Finds an experiment by registry name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Every backend id by name: the five [`BackendId::ALL`] sweeps plus
/// `clear-powertm` (preset W), for the gates that pin all six.
fn every_backend() -> Vec<&'static str> {
    BackendId::ALL
        .into_iter()
        .chain([BackendId::ClearPowerTm])
        .map(BackendId::name)
        .collect()
}

/// `Size` as its CLI spelling.
pub fn size_str(size: Size) -> &'static str {
    match size {
        Size::Tiny => "tiny",
        Size::Small => "small",
        Size::Medium => "medium",
    }
}

/// The options block embedded in every result document, so a golden file
/// is self-describing.
pub(crate) fn opts_json(opts: &SuiteOptions) -> Json {
    Json::obj([
        ("size", Json::from(size_str(opts.size))),
        ("cores", Json::from(opts.cores)),
        (
            "seeds",
            Json::arr(opts.seeds.iter().map(|&s| Json::from(s))),
        ),
        (
            "retry_sweep",
            Json::arr(opts.retry_sweep.iter().map(|&r| Json::from(r))),
        ),
        (
            "benchmarks",
            Json::arr(opts.benchmarks.iter().map(|&b| Json::from(b))),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        for e in EXPERIMENTS {
            assert_eq!(find(e.name).map(|f| f.name), Some(e.name));
            assert_eq!(
                EXPERIMENTS.iter().filter(|o| o.name == e.name).count(),
                1,
                "{}",
                e.name
            );
        }
        assert!(find("no-such-experiment").is_none());
    }

    /// Every experiment is golden-gated, or is a view that a named test
    /// (in this module, or a file under `tests/`) ties to a gate.
    #[test]
    fn every_experiment_is_gated_or_tied_to_a_gate_by_a_test() {
        let names = |gated: bool| -> Vec<&str> {
            EXPERIMENTS
                .iter()
                .filter(|e| e.golden.is_some() == gated)
                .map(|e| e.name)
                .collect()
        };
        assert_eq!(
            names(true),
            [
                "fig01",
                "report",
                "table1-measured",
                "table2",
                "ablation",
                "mad-vs-clear",
                "scaling-wide",
                "sle",
                "slo-latency",
                "static-agreement",
                "litmus-backends",
                "backend-shootout"
            ]
        );
        let figures = "report_text_is_the_six_figure_texts_in_order";
        let tied = [
            ("fig08", figures),
            ("fig09", figures),
            ("fig10", figures),
            ("fig11", figures),
            ("fig12", figures),
            ("fig13", figures),
            (
                "dse-retries",
                "dse_retries_picks_the_thresholds_report_picks",
            ),
            ("verify", "tests/verify_suite.rs"),
        ];
        assert_eq!(names(false), tied.map(|(name, _)| name));
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (name, test) in tied {
            let found = if test.ends_with(".rs") {
                std::fs::read_to_string(root.join(test))
                    .is_ok_and(|src| src.contains(&format!("find(\"{name}\")")))
            } else {
                include_str!("mod.rs").contains(&format!("fn {test}()"))
            };
            assert!(found, "{name}: no test {test} ties it to a gate");
        }
    }

    #[test]
    fn every_golden_file_has_a_gated_owner() {
        let owned: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.golden.is_some())
            .map(|e| e.name)
            .collect();
        let stale = crate::golden::stale(&crate::golden::goldens_dir(), &owned);
        assert!(stale.is_empty(), "goldens no gate owns: {stale:?}");
    }

    #[test]
    fn scaling_wide_golden_pins_the_full_ladder() {
        let opts = (find("scaling-wide").unwrap().golden.unwrap())();
        assert_eq!(opts.cores, 1024);
        assert_eq!(opts.benchmarks, ["genome"]);
        assert_eq!(opts.backends, ["clear"]);
    }

    #[test]
    fn scaling_wide_clips_the_ladder_to_requested_cores() {
        let opts = SuiteOptions {
            size: Size::Tiny,
            cores: 16,
            seeds: vec![1],
            benchmarks: vec!["arrayswap"],
            backends: vec!["clear"],
            ..SuiteOptions::default()
        };
        let out = (find("scaling-wide").unwrap().run)(&opts);
        assert_eq!(out.failures, 0);
        let Some(Json::Arr(rows)) = out.json.get("rows") else {
            panic!("rows missing");
        };
        let cores: Vec<Json> = rows
            .iter()
            .map(|r| r.get("cores").unwrap().clone())
            .collect();
        assert_eq!(cores, [2, 4, 8, 16].map(Json::Int));
        assert!(rows.iter().all(|r| r.get("shards").is_some()));
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// `[benchmark, preset, best_retries]` for every cell of a document's
    /// `rows` (dse-retries) or `suite` (report).
    fn picks(doc: &Json) -> Vec<[Json; 3]> {
        let field = |j: &Json, key: &str| j.get(key).expect(key).clone();
        let list = |j: &Json, key: &str| match j.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            _ => Vec::new(),
        };
        let mut out: Vec<[Json; 3]> = list(doc, "rows")
            .iter()
            .map(|row| ["benchmark", "preset", "best_retries"].map(|k| field(row, k)))
            .collect();
        for bench in list(doc, "suite") {
            for cell in list(&bench, "cells") {
                out.push([
                    field(&bench, "benchmark"),
                    field(&cell, "preset"),
                    field(&cell, "best_retries"),
                ]);
            }
        }
        out
    }

    #[test]
    fn dse_retries_picks_the_thresholds_report_picks() {
        let opts = SuiteOptions::from_arg_slice(&args(&[
            "--size",
            "tiny",
            "--cores",
            "4",
            "--seeds",
            "1",
            "--sweep",
            "full",
            "--bench",
            "arrayswap",
            "--bench",
            "mwobject",
        ]))
        .expect("valid options");
        let dse = picks(&(find("dse-retries").unwrap().run)(&opts).json);
        let report = picks(&(find("report").unwrap().run)(&opts).json);
        assert_eq!(dse.len(), 2 * 4);
        assert_eq!(dse, report);
    }

    #[test]
    fn report_text_is_the_six_figure_texts_in_order() {
        let opts = SuiteOptions {
            size: Size::Tiny,
            cores: 4,
            seeds: vec![1],
            retry_sweep: vec![2, 5],
            benchmarks: vec!["mwobject"],
            ..SuiteOptions::default()
        };
        let figures: String = ["fig08", "fig09", "fig10", "fig11", "fig12", "fig13"]
            .iter()
            .map(|name| (find(name).unwrap().run)(&opts).text)
            .collect();
        assert_eq!((find("report").unwrap().run)(&opts).text, figures);
    }

    #[test]
    fn quick_experiments_produce_text_and_json() {
        let opts = SuiteOptions {
            size: Size::Tiny,
            cores: 4,
            seeds: vec![1],
            retry_sweep: vec![5],
            benchmarks: vec!["mwobject"],
            workers: 4,
            backends: vec!["tsx", "clear"],
        };
        for name in ["fig01", "table2", "sle", "verify", "backend-shootout"] {
            let exp = find(name).expect(name);
            let out = (exp.run)(&opts);
            assert!(!out.text.is_empty(), "{name} produced no text");
            assert!(
                matches!(out.json, Json::Obj(_)),
                "{name} produced no object"
            );
            if name != "verify" {
                assert_eq!(out.failures, 0, "{name}");
            }
        }
    }
}
