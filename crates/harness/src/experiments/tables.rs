//! Table experiments: Table 1 measured per AR with its class counts, and
//! the Table 2 configuration dump.

use super::statics::fold_decisions;
use super::ExperimentOutput;
use crate::json::Json;
use crate::pool;
use crate::suite::SuiteOptions;
use clear_machine::{MachineConfig, RunStats};
use clear_workloads::{by_name, Size};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Per AR: (immutable decisions, all decisions) of the pinned traced run,
/// with that run's stats.
fn measured_immutability(name: &str) -> (RunStats, HashMap<u32, (u64, u64)>) {
    fold_decisions(name, |slot: &mut (u64, u64), _, immutable| {
        slot.0 += u64::from(immutable);
        slot.1 += 1;
    })
}

/// One row per AR: its declared class, the share of its discovery
/// decisions that assessed it immutable, and its commits, aborts and
/// commit modes, all from one traced configuration-C run per benchmark.
/// The text closes with Table 1's per-benchmark class counts, folded
/// from the same rows.
pub(super) fn table1_measured(opts: &SuiteOptions) -> ExperimentOutput {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== Table 1 (measured): immutability of discovery decisions and outcome per AR (configuration C) ==="
    );
    let _ = writeln!(
        text,
        "{:14} {:16} {:18} {:>9} {:>7} {:>7} {:>7} {:>6} {:>6} {:>6} {:>6}",
        "benchmark",
        "AR",
        "static class",
        "decisions",
        "immut%",
        "commits",
        "aborts",
        "spec",
        "S-CL",
        "NS-CL",
        "fb"
    );
    let measured = pool::run_indexed(opts.benchmarks.len(), opts.workers, |i| {
        measured_immutability(opts.benchmarks[i])
    });
    let mut rows = Vec::new();
    // Per benchmark: (ARs, immutable, likely immutable, mutable).
    let mut counts = Vec::new();
    for (name, (stats, dyn_imm)) in opts.benchmarks.iter().zip(&measured) {
        let w = by_name(name, Size::Tiny, 1).expect("known benchmark");
        let meta = w.meta();
        let mut count = [0usize; 4];
        for spec in &meta.ars {
            count[0] += 1;
            count[1 + spec.mutability as usize] += 1;
            let (imm, total) = dyn_imm.get(&spec.id.0).copied().unwrap_or((0, 0));
            let pct = if total == 0 {
                f64::NAN
            } else {
                100.0 * imm as f64 / total as f64
            };
            let e = stats.ar_stats.get(&spec.id.0).copied().unwrap_or_default();
            let m = e.by_mode;
            let _ = writeln!(
                text,
                "{:14} {:16} {:18} {:>9} {:>7.0} {:>7} {:>7} {:>6} {:>6} {:>6} {:>6}",
                name,
                spec.name,
                spec.mutability.to_string(),
                total,
                pct,
                e.commits,
                e.aborts,
                m.speculative,
                m.scl,
                m.nscl,
                m.fallback
            );
            rows.push(Json::obj([
                ("benchmark", Json::from(*name)),
                ("ar", Json::from(spec.name.clone())),
                ("class", Json::from(spec.mutability.to_string())),
                ("decisions", Json::from(total)),
                ("immutable_decisions", Json::from(imm)),
                ("immut_pct", Json::from(pct)),
                ("commits", Json::from(e.commits)),
                ("aborts", Json::from(e.aborts)),
                ("speculative", Json::from(m.speculative)),
                ("scl", Json::from(m.scl)),
                ("nscl", Json::from(m.nscl)),
                ("fallback", Json::from(m.fallback)),
            ]));
        }
        counts.push((*name, count));
    }
    let _ = writeln!(text, "\n=== Table 1: Characterization of ARs ===");
    let count_line = |text: &mut String, name: &str, c: [usize; 4]| {
        let _ = writeln!(
            text,
            "{:14} {:>8} {:>10} {:>17} {:>8}",
            name, c[0], c[1], c[2], c[3]
        );
    };
    let _ = writeln!(
        text,
        "{:14} {:>8} {:>10} {:>17} {:>8}",
        "benchmark", "# of ARs", "immutable", "likely immutable", "mutable"
    );
    let mut totals = [0usize; 4];
    for (name, c) in counts {
        count_line(&mut text, name, c);
        totals = [0, 1, 2, 3].map(|k| totals[k] + c[k]);
    }
    count_line(&mut text, "total", totals);
    let json = Json::obj([
        ("experiment", Json::from("table1-measured")),
        ("rows", Json::Arr(rows)),
    ]);
    ExperimentOutput::new(text, json)
}

pub(super) fn table2(_opts: &SuiteOptions) -> ExperimentOutput {
    let c = MachineConfig::table2(32);
    let mut text = String::new();
    let _ = writeln!(text, "=== Table 2: Baseline system configuration ===");
    let _ = writeln!(
        text,
        "Cores            {} in-order-retire cores, one instruction per step",
        c.cores
    );
    let _ = writeln!(
        text,
        "Store queue      {} entries (bounds failed-mode discovery)",
        c.sq_size
    );
    let _ = writeln!(
        text,
        "L1 data cache    {} sets x {} ways ({} KiB), {}-cycle access",
        c.coherence.l1.sets,
        c.coherence.l1.ways,
        c.coherence.l1.lines() * 64 / 1024,
        c.coherence.lat_l1
    );
    let _ = writeln!(text, "L2 (shadow)      {}-cycle access", c.coherence.lat_l2);
    let _ = writeln!(text, "L3 / remote      {}-cycle access", c.coherence.lat_l3);
    let _ = writeln!(
        text,
        "Memory           {}-cycle access",
        c.coherence.lat_mem
    );
    let _ = writeln!(
        text,
        "Directory        {} sets x {} ways (lexicographical lock order)",
        c.coherence.directory.sets, c.coherence.directory.ways
    );
    let _ = writeln!(
        text,
        "Coherence        directory MESI, +{} cycles per invalidation",
        c.coherence.lat_inval
    );
    let _ = writeln!(
        text,
        "HTM              requester-wins / PowerTM; best of 1..10 retries, then fallback lock"
    );
    let _ = writeln!(
        text,
        "Timing           xbegin {}, commit {}, abort {}, locked-line retry every {} cycles",
        c.timing.xbegin_cost, c.timing.commit_cost, c.timing.abort_penalty, c.timing.spin_interval
    );
    let _ = writeln!(
        text,
        "CLEAR            ERT 16 fully-assoc, ALT 32, CRT 64 (8-way); < 1 KiB per core"
    );
    let json = Json::obj([
        ("experiment", Json::from("table2")),
        ("cores", Json::from(c.cores)),
        ("sq_size", Json::from(c.sq_size)),
        ("l1_sets", Json::from(c.coherence.l1.sets)),
        ("l1_ways", Json::from(c.coherence.l1.ways)),
        ("lat_l1", Json::from(c.coherence.lat_l1)),
        ("lat_l2", Json::from(c.coherence.lat_l2)),
        ("lat_l3", Json::from(c.coherence.lat_l3)),
        ("lat_mem", Json::from(c.coherence.lat_mem)),
        ("lat_inval", Json::from(c.coherence.lat_inval)),
        ("xbegin_cost", Json::from(c.timing.xbegin_cost)),
        ("commit_cost", Json::from(c.timing.commit_cost)),
        ("abort_penalty", Json::from(c.timing.abort_penalty)),
        ("spin_interval", Json::from(c.timing.spin_interval)),
    ]);
    ExperimentOutput::new(text, json)
}
