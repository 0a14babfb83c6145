//! Static-analysis experiments: the `analyze` CLI backend and the
//! `static-agreement` gate comparing ahead-of-time verdicts against
//! dynamic discovery observations.
//!
//! The agreement gate holds the analyzer's soundness line as a
//! regression check: a [`StaticVerdict::StaticImmutable`] AR must never
//! produce a discovery decision with `immutable == false`. Any such
//! observation counts as a failure (non-zero exit) *and* is pinned to
//! zero in `goldens/static-agreement.json`.

use super::{opts_json, size_str, ExperimentOutput};
use crate::json::Json;
use crate::pool;
use crate::suite::{run_benchmark, SuiteOptions};
use clear_analysis::{
    analyze_workload, workload_plans, ArReport, LockPrediction, OverflowPrediction, StaticBudget,
    StaticVerdict, WorkloadReport,
};
use clear_core::{ObservedClass, PlanAddr, PlanClass, RetryMode, StaticPlan, StaticPlanSet};
use clear_machine::{BackendId, MachineConfig, Preset, RunStats, TraceEvent};
use clear_workloads::{by_name, Size, BENCHMARK_NAMES};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Sampling context pinned for the gate, matching `table1-measured`'s
/// dynamic run: Small input, 16 cores, retry threshold 5, seed 5.
const SAMPLE_THREADS: usize = 16;
const SAMPLE_SEED: u64 = 5;

/// Observed classes in fixed column order (also the majority tie-break).
const OBSERVED: [ObservedClass; 4] = [
    ObservedClass::Immutable,
    ObservedClass::Mutable,
    ObservedClass::Overflowed,
    ObservedClass::Unlockable,
];

fn observed_idx(class: ObservedClass) -> usize {
    OBSERVED
        .iter()
        .position(|&o| o == class)
        .expect("in OBSERVED")
}

fn overflow_str(p: OverflowPrediction) -> &'static str {
    match p {
        OverflowPrediction::Fits => "fits",
        OverflowPrediction::Overflow => "overflow",
        OverflowPrediction::Unknown => "unknown",
    }
}

fn lock_str(p: LockPrediction) -> &'static str {
    match p {
        LockPrediction::Lockable => "lockable",
        LockPrediction::Unlockable => "unlockable",
        LockPrediction::Unknown => "unknown",
    }
}

/// Static side of the gate: sample and analyze one benchmark under the
/// pinned context.
fn static_side(name: &str) -> WorkloadReport {
    analyze(name, Size::Small, SAMPLE_THREADS, SAMPLE_SEED)
        .unwrap_or_else(|e| panic!("static analysis of {name} failed: {e}"))
}

/// Samples and statically analyzes one benchmark.
fn analyze(name: &str, size: Size, threads: usize, seed: u64) -> Result<WorkloadReport, String> {
    let mut w = by_name(name, size, seed).ok_or_else(|| format!("unknown benchmark {name}"))?;
    analyze_workload(&mut *w, threads, &StaticBudget::default())
}

/// Folds every discovery `Decision` of one traced run of `name` — the
/// pinned sampling context — into a per-AR accumulator, passing each
/// decision's mode and immutability, and returns the run's stats with
/// it. The dynamic side of both this gate and `table1-measured`.
pub(super) fn fold_decisions<T: Default>(
    name: &str,
    mut fold: impl FnMut(&mut T, RetryMode, bool),
) -> (RunStats, HashMap<u32, T>) {
    let cfg = MachineConfig {
        seed: SAMPLE_SEED,
        ..Preset::C.config(SAMPLE_THREADS, 5)
    };
    let (stats, m) = run_benchmark(name, Size::Small, cfg, true);
    let mut per_ar: HashMap<u32, T> = HashMap::new();
    for r in m.trace().records() {
        if let TraceEvent::Decision {
            ar,
            mode,
            immutable,
            ..
        } = r.event
        {
            fold(per_ar.entry(ar.0).or_default(), mode, immutable);
        }
    }
    (stats, per_ar)
}

/// Dynamic side of the gate: per-AR counts of observed classes derived
/// from every discovery decision of one traced run.
fn dynamic_side(name: &str) -> HashMap<u32, [u64; 4]> {
    fold_decisions(name, |counts: &mut [u64; 4], mode, immutable| {
        counts[observed_idx(ObservedClass::from_mode(mode, immutable))] += 1;
    })
    .1
}

/// The observed class seen most often (ties break in `OBSERVED` order);
/// `None` when the AR never reached a discovery decision.
fn majority(counts: &[u64; 4]) -> Option<ObservedClass> {
    let mut best = OBSERVED[0];
    for &c in &OBSERVED[1..] {
        if counts[observed_idx(c)] > counts[observed_idx(best)] {
            best = c;
        }
    }
    (counts[observed_idx(best)] > 0).then_some(best)
}

pub(super) fn static_agreement(opts: &SuiteOptions) -> ExperimentOutput {
    let per_bench = pool::run_indexed(BENCHMARK_NAMES.len(), opts.workers, |i| {
        let name = BENCHMARK_NAMES[i];
        (static_side(name), dynamic_side(name))
    });

    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== static-agreement: ahead-of-time verdicts vs dynamic discovery ==="
    );
    let _ = writeln!(
        text,
        "{:14} {:16} {:18} {:18} {:>6} {:>9}  {:10} {:>5}",
        "benchmark", "AR", "declared", "static verdict", "lines", "decisions", "majority", "agree"
    );

    let mut rows = Vec::new();
    // confusion[verdict][observed-or-none]
    let mut confusion = [[0u64; 5]; 4];
    let mut ars = 0u64;
    let mut with_decisions = 0u64;
    let mut agreeing = 0u64;
    let mut unsound = 0u64;

    for (name, (report, dynamics)) in BENCHMARK_NAMES.iter().zip(&per_bench) {
        for ar in &report.ars {
            ars += 1;
            let verdict = ar.analysis.verdict;
            let counts = dynamics.get(&ar.spec.id.0).copied().unwrap_or_default();
            let decisions: u64 = counts.iter().sum();
            let maj = majority(&counts);
            let agree = maj.map(|m| verdict.agrees_with(m));
            let vi = StaticVerdict::ALL
                .iter()
                .position(|&v| v == verdict)
                .expect("in ALL");
            match maj {
                Some(m) => {
                    with_decisions += 1;
                    confusion[vi][observed_idx(m)] += 1;
                    if agree == Some(true) {
                        agreeing += 1;
                    }
                }
                None => confusion[vi][4] += 1,
            }
            if verdict == StaticVerdict::StaticImmutable {
                // Soundness: every immutable==false observation of a
                // proved-immutable AR is an analyzer bug.
                unsound += counts[observed_idx(ObservedClass::Mutable)];
            }

            let lines_txt = match ar.analysis.footprint.lines {
                Some(n) => n.to_string(),
                None => "-".into(),
            };
            let _ = writeln!(
                text,
                "{:14} {:16} {:18} {:18} {:>6} {:>9}  {:10} {:>5}",
                name,
                ar.spec.name,
                ar.spec.mutability.to_string(),
                verdict.to_string(),
                lines_txt,
                decisions,
                maj.map(|m| m.to_string()).unwrap_or_else(|| "-".into()),
                match agree {
                    Some(true) => "yes",
                    Some(false) => "NO",
                    None => "-",
                },
            );
            rows.push(agreement_row_json(name, ar, &counts, decisions, maj, agree));
        }
    }

    let agreement_pct = if with_decisions == 0 {
        f64::NAN
    } else {
        100.0 * agreeing as f64 / with_decisions as f64
    };
    let _ = writeln!(
        text,
        "\nARs: {ars}   with decisions: {with_decisions}   agreeing: {agreeing} \
         ({agreement_pct:.1}%)   unsound immutable observations: {unsound}"
    );
    let _ = writeln!(
        text,
        "note: non-convertible is an upper-bound prediction; a mutable majority \
         means this run never reached the bound (imprecision, not unsoundness)."
    );
    let _ = writeln!(text, "\nconfusion (static verdict x observed majority):");
    let _ = writeln!(
        text,
        "{:18} {:>10} {:>10} {:>10} {:>10} {:>6}",
        "verdict", "immutable", "mutable", "overflowed", "unlockable", "none"
    );
    let mut confusion_json = Vec::new();
    for (vi, verdict) in StaticVerdict::ALL.iter().enumerate() {
        let c = &confusion[vi];
        let _ = writeln!(
            text,
            "{:18} {:>10} {:>10} {:>10} {:>10} {:>6}",
            verdict.name(),
            c[0],
            c[1],
            c[2],
            c[3],
            c[4]
        );
        confusion_json.push(Json::obj([
            ("verdict", Json::from(verdict.name())),
            ("immutable", Json::from(c[0])),
            ("mutable", Json::from(c[1])),
            ("overflowed", Json::from(c[2])),
            ("unlockable", Json::from(c[3])),
            ("none", Json::from(c[4])),
        ]));
    }

    let json = Json::obj([
        ("experiment", Json::from("static-agreement")),
        ("options", opts_json(opts)),
        ("sample_threads", Json::from(SAMPLE_THREADS)),
        ("sample_seed", Json::from(SAMPLE_SEED)),
        ("rows", Json::Arr(rows)),
        ("confusion", Json::Arr(confusion_json)),
        ("ars", Json::from(ars)),
        ("ars_with_decisions", Json::from(with_decisions)),
        ("agreeing", Json::from(agreeing)),
        ("agreement_pct", Json::from(agreement_pct)),
        ("unsound_immutable_observations", Json::from(unsound)),
    ]);
    let mut out = ExperimentOutput::new(text, json);
    out.failures = unsound as usize;
    out
}

fn agreement_row_json(
    name: &str,
    ar: &ArReport,
    counts: &[u64; 4],
    decisions: u64,
    maj: Option<ObservedClass>,
    agree: Option<bool>,
) -> Json {
    Json::obj([
        ("benchmark", Json::from(name)),
        ("ar", Json::from(ar.spec.name.clone())),
        ("declared", Json::from(ar.spec.mutability.to_string())),
        ("verdict", Json::from(ar.analysis.verdict.name())),
        (
            "lines",
            ar.analysis
                .footprint
                .lines
                .map(Json::from)
                .unwrap_or(Json::Null),
        ),
        ("max_depth", Json::from(u64::from(ar.analysis.max_depth))),
        ("overflow", Json::from(overflow_str(ar.analysis.overflow))),
        ("lockability", Json::from(lock_str(ar.analysis.lockability))),
        ("decisions", Json::from(decisions)),
        (
            "observed",
            Json::obj([
                ("immutable", Json::from(counts[0])),
                ("mutable", Json::from(counts[1])),
                ("overflowed", Json::from(counts[2])),
                ("unlockable", Json::from(counts[3])),
            ]),
        ),
        (
            "majority",
            maj.map(|m| Json::from(m.to_string())).unwrap_or(Json::Null),
        ),
        ("agree", agree.map(Json::from).unwrap_or(Json::Null)),
    ])
}

/// Renders a [`PlanAddr`] the way the analyzer thinks about it:
/// `r<reg>+<delta>` for entry-relative sites, a hex byte address for
/// constant ones.
fn plan_addr_str(a: &PlanAddr) -> String {
    match a {
        PlanAddr::Abs(addr) => format!("{addr:#x}"),
        PlanAddr::Sym { reg, delta } => format!("r{reg}+{delta}"),
    }
}

fn plan_class_str(c: PlanClass) -> &'static str {
    match c {
        PlanClass::Immutable => "immutable",
        PlanClass::LikelyImmutable => "likely-immutable",
    }
}

/// Per-backend budget fit of one plan: every built-in backend's
/// `rw_limits` answer against the plan's static line bounds.
fn plan_budget(plan: &StaticPlan) -> Vec<(&'static str, bool, bool)> {
    BackendId::ALL
        .iter()
        .map(|&id| {
            let limits = id.backend().rw_limits();
            let fits = plan.fits_rw(
                limits.as_ref().map(|l| l.read_lines),
                limits.as_ref().map(|l| l.write_lines),
            );
            (id.name(), limits.is_some(), fits)
        })
        .collect()
}

fn plan_json(ar_id: u32, ar_name: &str, plan: &StaticPlan) -> Json {
    let addrs = |set: &[PlanAddr]| Json::arr(set.iter().map(|a| Json::from(plan_addr_str(a))));
    Json::obj([
        ("id", Json::from(u64::from(ar_id))),
        ("ar", Json::from(ar_name)),
        ("class", Json::from(plan_class_str(plan.class))),
        ("complete", Json::from(plan.complete)),
        ("bound_lines", Json::from(plan.bound_lines)),
        ("bound_written", Json::from(plan.bound_written)),
        ("lock_set", addrs(&plan.lock_set)),
        ("written", addrs(&plan.written)),
        ("root_slots", addrs(&plan.root_slots)),
        (
            "budget",
            Json::arr(plan_budget(plan).into_iter().map(|(name, tracked, fits)| {
                Json::obj([
                    ("backend", Json::from(name)),
                    ("tracked", Json::from(tracked)),
                    ("fits", Json::from(fits)),
                ])
            })),
        ),
    ])
}

/// Derives the [`StaticPlanSet`] of one benchmark under the CLI context.
fn plans_for(name: &str, size: Size, threads: usize, seed: u64) -> Result<StaticPlanSet, String> {
    let mut w = by_name(name, size, seed).ok_or_else(|| format!("unknown benchmark {name}"))?;
    workload_plans(&mut *w, threads, &StaticBudget::default())
}

/// Backend of `clear-harness analyze <workload>`: full per-AR static
/// report for one benchmark, or for every registered benchmark when
/// `name` is `all`. Uses the CLI's size/cores/seed, so the same command
/// inspects any input scale. With `with_plans` (`analyze --plan`) each
/// workload section additionally prints the emitted [`StaticPlan`]s —
/// lock set, written subset, root slots, and the per-backend budget fit —
/// and the JSON document carries them under `plans`.
///
/// # Errors
///
/// Reports unknown benchmark names and sampling failures (an AR that
/// never appears within the pull budget at this size/thread count).
pub fn analyze_output(
    name: &str,
    opts: &SuiteOptions,
    with_plans: bool,
) -> Result<ExperimentOutput, String> {
    let names: Vec<&str> = if name == "all" {
        BENCHMARK_NAMES.to_vec()
    } else {
        vec![*BENCHMARK_NAMES
            .iter()
            .find(|&&n| n == name)
            .ok_or_else(|| format!("unknown benchmark {name} (try `all`)"))?]
    };
    let seed = opts.seeds[0];
    let reports = names
        .iter()
        .map(|n| analyze(n, opts.size, opts.cores, seed))
        .collect::<Result<Vec<_>, String>>()?;
    let plan_sets: Vec<Option<StaticPlanSet>> = names
        .iter()
        .map(|n| {
            with_plans
                .then(|| plans_for(n, opts.size, opts.cores, seed))
                .transpose()
        })
        .collect::<Result<_, String>>()?;

    let mut text = String::new();
    let mut workloads = Vec::new();
    for (report, plan_set) in reports.iter().zip(&plan_sets) {
        let _ = writeln!(
            text,
            "=== static analysis of {} ({} input, {} threads, seed {}) ===",
            report.name,
            size_str(opts.size),
            opts.cores,
            seed
        );
        let _ = writeln!(text, "mapped memory: {} bytes", report.mapped_bytes);
        let _ = writeln!(
            text,
            "{:16} {:18} {:18} {:>6} {:>6} {:>6} {:>9} {:>11}",
            "AR", "declared", "verdict", "insns", "blocks", "lines", "overflow", "lockability"
        );
        let mut ars = Vec::new();
        for ar in &report.ars {
            let lines_txt = match ar.analysis.footprint.lines {
                Some(n) => n.to_string(),
                None => "-".into(),
            };
            let _ = writeln!(
                text,
                "{:16} {:18} {:18} {:>6} {:>6} {:>6} {:>9} {:>11}",
                ar.spec.name,
                ar.spec.mutability.to_string(),
                ar.analysis.verdict.to_string(),
                ar.analysis.instructions,
                ar.analysis.blocks,
                lines_txt,
                overflow_str(ar.analysis.overflow),
                lock_str(ar.analysis.lockability),
            );
            for lint in &ar.analysis.lints {
                let _ = writeln!(text, "    lint: {lint}");
            }
            ars.push(analyze_ar_json(ar));
        }
        let mut fields = vec![
            ("benchmark".to_string(), Json::from(report.name.clone())),
            ("mapped_bytes".to_string(), Json::from(report.mapped_bytes)),
            ("ars".to_string(), Json::Arr(ars)),
        ];
        if let Some(plans) = plan_set {
            let _ = writeln!(text, "static plans (fast-path lock sets):");
            let mut plan_rows = Vec::new();
            for ar in &report.ars {
                match plans.get(ar.spec.id.0) {
                    Some(plan) => {
                        let _ = writeln!(
                            text,
                            "  {}: {} plan, {} ({} site lock set, {} written, \
                             bound {} lines / {} written)",
                            ar.spec.name,
                            plan_class_str(plan.class),
                            if plan.complete { "complete" } else { "partial" },
                            plan.lock_set.len(),
                            plan.written.len(),
                            plan.bound_lines,
                            plan.bound_written,
                        );
                        let set_line = |label: &str, set: &[PlanAddr]| {
                            if set.is_empty() {
                                None
                            } else {
                                Some(format!(
                                    "    {label}: {}",
                                    set.iter().map(plan_addr_str).collect::<Vec<_>>().join(" ")
                                ))
                            }
                        };
                        for line in [
                            set_line("lock set", &plan.lock_set),
                            set_line("written", &plan.written),
                            set_line("root slots", &plan.root_slots),
                        ]
                        .into_iter()
                        .flatten()
                        {
                            let _ = writeln!(text, "{line}");
                        }
                        let budget = plan_budget(plan)
                            .into_iter()
                            .map(|(name, tracked, fits)| {
                                let word = match (tracked, fits) {
                                    (false, _) => "untracked",
                                    (true, true) => "fits",
                                    (true, false) => "EXCEEDS",
                                };
                                format!("{name} {word}")
                            })
                            .collect::<Vec<_>>()
                            .join(", ");
                        let _ = writeln!(text, "    budget: {budget}");
                        plan_rows.push(plan_json(ar.spec.id.0, &ar.spec.name, plan));
                    }
                    None => {
                        let _ = writeln!(
                            text,
                            "  {}: no plan ({} verdict takes the discovery path)",
                            ar.spec.name, ar.analysis.verdict
                        );
                    }
                }
            }
            fields.push(("plans".to_string(), Json::Arr(plan_rows)));
        }
        let _ = writeln!(text);
        workloads.push(Json::Obj(fields));
    }

    let lint_count: usize = reports
        .iter()
        .flat_map(|r| &r.ars)
        .map(|a| a.analysis.lints.len())
        .sum();
    let json = Json::obj([
        ("command", Json::from("analyze")),
        ("options", opts_json(opts)),
        ("plan", Json::from(with_plans)),
        ("workloads", Json::Arr(workloads)),
        ("lints", Json::from(lint_count)),
    ]);
    let mut out = ExperimentOutput::new(text, json);
    // A lint in a registered workload is a defect: fail the invocation.
    out.failures = lint_count;
    Ok(out)
}

fn analyze_ar_json(ar: &ArReport) -> Json {
    let fp = &ar.analysis.footprint;
    let opt = |v: Option<usize>| v.map(Json::from).unwrap_or(Json::Null);
    Json::obj([
        ("id", Json::from(u64::from(ar.spec.id.0))),
        ("ar", Json::from(ar.spec.name.clone())),
        ("declared", Json::from(ar.spec.mutability.to_string())),
        ("verdict", Json::from(ar.analysis.verdict.name())),
        ("instructions", Json::from(ar.analysis.instructions)),
        ("blocks", Json::from(ar.analysis.blocks)),
        ("reachable_blocks", Json::from(ar.analysis.reachable_blocks)),
        ("lines", opt(fp.lines)),
        ("written_lines", opt(fp.written_lines)),
        ("exact_lines", Json::from(fp.exact_lines)),
        ("unknown_sites", Json::from(fp.unknown_sites)),
        ("concrete", Json::from(fp.concrete)),
        ("max_depth", Json::from(u64::from(ar.analysis.max_depth))),
        ("indirect_sites", Json::from(ar.analysis.indirect_sites)),
        (
            "dependent_branches",
            Json::from(ar.analysis.dependent_branches),
        ),
        ("overflow", Json::from(overflow_str(ar.analysis.overflow))),
        ("lockability", Json::from(lock_str(ar.analysis.lockability))),
        (
            "lints",
            Json::arr(ar.analysis.lints.iter().map(|l| Json::from(l.to_string()))),
        ),
        (
            "declared_footprint_matches",
            ar.declared_footprint_matches
                .map(Json::from)
                .unwrap_or(Json::Null),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> SuiteOptions {
        SuiteOptions {
            size: Size::Tiny,
            cores: 4,
            seeds: vec![1],
            retry_sweep: vec![5],
            benchmarks: vec!["mwobject"],
            workers: 2,
            ..SuiteOptions::default()
        }
    }

    #[test]
    fn analyze_reports_one_workload() {
        let out = analyze_output("mwobject", &tiny_opts(), false).unwrap();
        assert!(out.text.contains("static analysis of mwobject"));
        assert_eq!(out.failures, 0, "registered workload has lints");
        let Json::Obj(fields) = &out.json else {
            panic!("not an object")
        };
        assert!(fields.iter().any(|(k, _)| k == "workloads"));
        assert!(
            !out.text.contains("static plans"),
            "plan section must be opt-in"
        );
    }

    #[test]
    fn analyze_rejects_unknown_names() {
        let err = analyze_output("no-such-benchmark", &tiny_opts(), false).unwrap_err();
        assert!(err.contains("unknown benchmark"), "{err}");
    }

    #[test]
    fn analyze_plan_prints_lock_sets_and_budget_fit() {
        // mwobject's AR is proved immutable: the plan section must show a
        // complete lock set and a per-backend budget verdict.
        let out = analyze_output("mwobject", &tiny_opts(), true).unwrap();
        assert!(out.text.contains("static plans"), "{}", out.text);
        assert!(out.text.contains("lock set:"), "{}", out.text);
        assert!(out.text.contains("budget:"), "{}", out.text);
        for id in BackendId::ALL {
            assert!(out.text.contains(id.name()), "missing {id}:\n{}", out.text);
        }
        let Some(Json::Arr(workloads)) = out.json.get("workloads") else {
            panic!("workloads missing");
        };
        let Some(Json::Arr(plans)) = workloads[0].get("plans") else {
            panic!("plans missing under --plan");
        };
        assert!(!plans.is_empty(), "mwobject should carry at least one plan");
        for p in plans {
            let Some(Json::Arr(budget)) = p.get("budget") else {
                panic!("budget missing");
            };
            assert_eq!(budget.len(), BackendId::ALL.len());
            let Some(Json::Arr(lock_set)) = p.get("lock_set") else {
                panic!("lock_set missing");
            };
            assert!(!lock_set.is_empty());
        }
    }

    #[test]
    fn majority_breaks_ties_and_handles_empty() {
        assert_eq!(majority(&[0, 0, 0, 0]), None);
        assert_eq!(majority(&[2, 2, 0, 0]), Some(ObservedClass::Immutable));
        assert_eq!(majority(&[0, 1, 5, 0]), Some(ObservedClass::Overflowed));
    }
}
