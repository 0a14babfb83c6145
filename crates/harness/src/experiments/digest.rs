//! The `trace-digest` experiment: a golden-gated fingerprint of the
//! execution-trace stream.
//!
//! Every (benchmark × preset) cell of a tiny 8-core grid runs with
//! tracing enabled and reports the FxHash digest of its full event
//! stream (see [`Trace::digest`](clear_machine::Trace::digest)) plus the
//! recorded/dropped totals. Aggregate statistics can coincide across two
//! subtly different protocol schedules; the digest cannot — any
//! reordering of attempts, conflicts, decisions, lock acquisitions,
//! aborts or commits on any core changes it. Gating the digests makes
//! the whole traced state machine part of the regression surface at the
//! cost of a sub-second run.

use super::{opts_json, ExperimentOutput};
use crate::json::Json;
use crate::pool;
use crate::suite::{run_benchmark, SuiteOptions};
use crate::trace_export::digest_hex;
use clear_machine::{MachineConfig, Preset};
use std::fmt::Write as _;

pub(super) fn trace_digest(opts: &SuiteOptions) -> ExperimentOutput {
    let presets = Preset::ALL;
    let np = presets.len();
    let cells = pool::run_indexed(opts.benchmarks.len() * np, opts.workers, |i| {
        let cfg = MachineConfig {
            seed: opts.seeds[0],
            ..presets[i % np].config(opts.cores, 5)
        };
        let (_, m) = run_benchmark(opts.benchmarks[i / np], opts.size, cfg, true);
        (
            m.trace().recorded(),
            m.trace().dropped(),
            m.trace().digest(),
        )
    });
    let mut text = String::new();
    let _ = writeln!(text, "=== trace digests (full event-stream hashes) ===");
    let _ = writeln!(
        text,
        "{:14} {:>6} {:>10} {:>8}  digest",
        "benchmark", "preset", "events", "dropped"
    );
    let mut rows = Vec::new();
    for (i, (recorded, dropped, digest)) in cells.iter().enumerate() {
        let (name, preset) = (opts.benchmarks[i / np], presets[i % np]);
        let _ = writeln!(
            text,
            "{:14} {:>6} {:>10} {:>8}  {}",
            name,
            format!("{preset}"),
            recorded,
            dropped,
            digest_hex(*digest)
        );
        rows.push(Json::obj([
            ("benchmark", Json::from(name)),
            ("preset", Json::from(format!("{preset}"))),
            ("events", Json::from(*recorded)),
            ("dropped", Json::from(*dropped)),
            ("digest", Json::from(digest_hex(*digest))),
        ]));
    }
    let json = Json::obj([
        ("experiment", Json::from("trace-digest")),
        ("options", opts_json(opts)),
        ("rows", Json::Arr(rows)),
    ]);
    ExperimentOutput::new(text, json)
}
