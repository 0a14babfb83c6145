//! The `verify` experiment: run every benchmark under every configuration
//! and check its atomicity invariant over final simulated memory.

use super::{opts_json, ExperimentOutput};
use crate::json::Json;
use crate::suite::{run_benchmark, SuiteOptions};
use clear_machine::{MachineConfig, Preset};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn check_cell(name: &str, preset: Preset, opts: &SuiteOptions) -> Result<(), String> {
    let cfg = MachineConfig {
        seed: opts.seeds[0],
        ..preset.config(opts.cores, 5)
    };
    // A failed run panics; it must count as a failed check, not take the
    // whole verification suite down with it.
    let run = AssertUnwindSafe(|| run_benchmark(name, opts.size, cfg, false));
    catch_unwind(run).map(drop).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string());
        if msg.ends_with("run timed out") {
            "TIMEOUT".to_string()
        } else {
            msg
        }
    })
}

pub(super) fn verify(opts: &SuiteOptions) -> ExperimentOutput {
    let mut text = String::new();
    let mut failures = 0usize;
    let _ = writeln!(
        text,
        "verifying {} benchmarks x 4 configurations ({:?}, {} cores, seed {})",
        opts.benchmarks.len(),
        opts.size,
        opts.cores,
        opts.seeds[0]
    );
    let mut rows = Vec::new();
    for name in &opts.benchmarks {
        let _ = write!(text, "{name:14}");
        for preset in Preset::ALL {
            let verdict = match check_cell(name, preset, opts) {
                Ok(()) => "ok".to_string(),
                Err(e) => {
                    failures += 1;
                    if e == "TIMEOUT" {
                        e
                    } else {
                        eprintln!("\n{name}/{preset}: {e}");
                        "FAIL".to_string()
                    }
                }
            };
            let _ = write!(text, "  {preset}:{verdict:<8}");
            rows.push(Json::obj([
                ("benchmark", Json::from(*name)),
                ("preset", Json::from(preset.letter().to_string())),
                ("ok", Json::Bool(verdict == "ok")),
            ]));
        }
        let _ = writeln!(text);
    }
    if failures == 0 {
        let _ = writeln!(text, "\nall invariants hold");
    } else {
        eprintln!("\n{failures} failures");
    }
    let json = Json::obj([
        ("experiment", Json::from("verify")),
        ("options", opts_json(opts)),
        ("rows", Json::Arr(rows)),
        ("failures", Json::from(failures)),
    ]);
    ExperimentOutput {
        text,
        json,
        failures,
        metrics: None,
    }
}
