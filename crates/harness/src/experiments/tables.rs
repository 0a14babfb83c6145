//! Table experiments: the static Table 1 characterization, its measured
//! (dynamic) validation, and the Table 2 configuration dump.

use super::statics::fold_decisions;
use super::{opts_json, ExperimentOutput};
use crate::json::Json;
use crate::pool;
use crate::suite::SuiteOptions;
use clear_isa::Mutability;
use clear_machine::MachineConfig;
use clear_workloads::{by_name, Size, BENCHMARK_NAMES};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Per AR: (immutable decisions, all decisions) of the pinned traced run.
fn measured_immutability(name: &str) -> HashMap<u32, (u64, u64)> {
    fold_decisions(name, |slot: &mut (u64, u64), _, immutable| {
        slot.0 += u64::from(immutable);
        slot.1 += 1;
    })
}

pub(super) fn table1_measured(opts: &SuiteOptions) -> ExperimentOutput {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== Table 1 (measured): share of discovery decisions assessing immutability ==="
    );
    let _ = writeln!(
        text,
        "{:14} {:16} {:18} {:>10} {:>10}",
        "benchmark", "AR", "static class", "decisions", "immut.%"
    );
    let measured = pool::run_indexed(BENCHMARK_NAMES.len(), opts.workers, |i| {
        measured_immutability(BENCHMARK_NAMES[i])
    });
    let mut rows = Vec::new();
    for (name, dyn_imm) in BENCHMARK_NAMES.iter().zip(&measured) {
        let w = by_name(name, Size::Tiny, 1).expect("known benchmark");
        let meta = w.meta();
        for spec in &meta.ars {
            let (imm, total) = dyn_imm.get(&spec.id.0).copied().unwrap_or((0, 0));
            let pct = if total == 0 {
                f64::NAN
            } else {
                100.0 * imm as f64 / total as f64
            };
            let _ = writeln!(
                text,
                "{:14} {:16} {:18} {:>10} {:>10.0}",
                name,
                spec.name,
                spec.mutability.to_string(),
                total,
                pct
            );
            rows.push(Json::obj([
                ("benchmark", Json::from(*name)),
                ("ar", Json::from(spec.name.clone())),
                ("class", Json::from(spec.mutability.to_string())),
                ("decisions", Json::from(total)),
                ("immutable_decisions", Json::from(imm)),
                ("immut_pct", Json::from(pct)),
            ]));
        }
    }
    let json = Json::obj([
        ("experiment", Json::from("table1-measured")),
        ("rows", Json::Arr(rows)),
    ]);
    ExperimentOutput::new(text, json)
}

pub(super) fn table1(_opts: &SuiteOptions) -> ExperimentOutput {
    let mut text = String::new();
    let _ = writeln!(text, "=== Table 1: Characterization of ARs ===");
    let _ = writeln!(
        text,
        "{:14} {:>8} {:>10} {:>17} {:>8}",
        "benchmark", "# of ARs", "immutable", "likely immutable", "mutable"
    );
    let mut totals = [0usize; 4];
    let mut rows = Vec::new();
    for name in BENCHMARK_NAMES {
        let w = by_name(name, Size::Tiny, 1).expect("known benchmark");
        let meta = w.meta();
        let count = |m: Mutability| meta.ars.iter().filter(|a| a.mutability == m).count();
        let (i, l, mu) = (
            count(Mutability::Immutable),
            count(Mutability::LikelyImmutable),
            count(Mutability::Mutable),
        );
        totals[0] += meta.ars.len();
        totals[1] += i;
        totals[2] += l;
        totals[3] += mu;
        let _ = writeln!(
            text,
            "{:14} {:>8} {:>10} {:>17} {:>8}",
            name,
            meta.ars.len(),
            i,
            l,
            mu
        );
        rows.push(Json::obj([
            ("benchmark", Json::from(name)),
            ("ars", Json::from(meta.ars.len())),
            ("immutable", Json::from(i)),
            ("likely_immutable", Json::from(l)),
            ("mutable", Json::from(mu)),
        ]));
    }
    let _ = writeln!(
        text,
        "{:14} {:>8} {:>10} {:>17} {:>8}",
        "total", totals[0], totals[1], totals[2], totals[3]
    );
    let json = Json::obj([
        ("experiment", Json::from("table1")),
        ("rows", Json::Arr(rows)),
        ("totals", Json::arr(totals.iter().map(|&t| Json::from(t)))),
    ]);
    ExperimentOutput::new(text, json)
}

pub(super) fn table2(opts: &SuiteOptions) -> ExperimentOutput {
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
        ("options", opts_json(opts)),
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
