//! The `fuzz` subcommand backend and the `litmus-backends` gate.
//!
//! `fuzz_output` drives the clear-fuzz differential oracle over a seeded
//! case range, every case under every speculation backend, shrinks every
//! failure to a minimal reproducer, and renders a fully deterministic
//! report with one row per backend. `replay_output` re-runs a checked-in
//! regression corpus through the same oracle and report. `litmus_backends` is the atomicity
//! conformance gate: the classic SB/LB/MP/IRIW shapes across every
//! backend id and a seed sweep, with each forbidden relaxed outcome
//! pinned to zero in the golden.

use super::{opts_json, ExperimentOutput};
use crate::json::Json;
use crate::pool;
use crate::suite::SuiteOptions;
use clear_fuzz::litmus::{cases, outcome_from, LitmusWorkload};
use clear_fuzz::{check_case, shrink_with, CaseReport, Divergence, FuzzCase, Shrunk};
use clear_machine::{BackendId, Machine, MachineConfig, ModeCommits};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Parses a seed argument: decimal, `0x`-prefixed hex, or — for mnemonic
/// seeds like `0xC1EAR` that are not valid hex — a deterministic FNV-1a
/// fold of the bytes. Never fails, so any string names a reproducible
/// corpus.
pub fn parse_seed(s: &str) -> u64 {
    if let Ok(v) = s.parse::<u64>() {
        return v;
    }
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        if let Ok(v) = u64::from_str_radix(hex, 16) {
            return v;
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `u64` values (seeds, digests) travel as hex strings: JSON integers are
/// `i64` and seeds use the full range.
fn hex(v: u64) -> Json {
    Json::from(format!("{v:#x}"))
}

/// One fuzzed case's outcome as the report keeps it.
struct CaseOutcome {
    report: CaseReport,
    shrunk: Option<Shrunk>,
}

/// Runs one generated case; `cores = 0` keeps the case's own
/// contended thread count, anything else overrides it (the
/// `fuzz --cores` flag — wide-machine oracle runs). A failure is shrunk
/// against the same check that failed, at the same width.
fn run_case(master_seed: u64, index: u64, cores: usize) -> CaseOutcome {
    let case = Arc::new(FuzzCase::generate(master_seed, index));
    let check = |c: &Arc<FuzzCase>| check_case(c, if cores == 0 { c.threads } else { cores });
    let report = check(&case);
    let shrunk = (!report.passed()).then(|| shrink_with(case, |c| !check(c).passed()));
    CaseOutcome { report, shrunk }
}

/// The `--repro-dir` files of a report: one `(name, failure)` pair per
/// failure object, named `repro-<command>-<seed>-<index>.json` from the
/// report's command (`fuzz` and `fuzz --replay` may share a directory)
/// and the failure's own seed and index.
pub fn reproducers(report: &Json) -> Vec<(String, &Json)> {
    let (Some(Json::Str(command)), Some(Json::Arr(failures))) =
        (report.get("command"), report.get("failures"))
    else {
        return Vec::new();
    };
    let name = |f: &Json| match (f.get("seed"), f.get("index")) {
        (Some(Json::Str(seed)), Some(Json::Int(index))) => {
            let seed = seed.trim_start_matches("0x");
            Some(format!("repro-{command}-{seed}-{index}.json"))
        }
        _ => None,
    };
    failures
        .iter()
        .filter_map(|f| Some((name(f)?, f)))
        .collect()
}

/// One failure object of a report: the failing case, the contended width
/// it failed at, the backend it hit under, the divergence, and the shrunk
/// reproducer if there is one.
fn failure_json(
    index: u64,
    seed: u64,
    cores: usize,
    backend: &str,
    d: &Divergence,
    shrunk: Option<&Shrunk>,
) -> Json {
    let mut fields = vec![
        ("index", Json::from(index)),
        ("seed", hex(seed)),
        ("cores", Json::from(cores)),
        ("backend", Json::from(backend)),
        ("kind", Json::from(d.kind())),
        ("detail", Json::from(d.to_string())),
    ];
    if let Some(s) = shrunk {
        let program = s.case.program.instrs().iter().map(|i| i.to_string());
        fields.push((
            "shrunk",
            Json::obj([
                ("threads", Json::from(s.case.threads)),
                ("invocations", Json::from(s.case.invocations)),
                ("shapes", Json::from(s.case.shapes.len())),
                ("attempts", Json::from(s.attempts)),
                ("program", Json::arr(program.map(Json::from))),
            ]),
        ));
    }
    Json::obj(fields)
}

/// One backend's sums over a run: commits, aborts, capacity aborts,
/// R/W-set overflows, elided discovery runs and diverged cases.
type BackendSums = (u64, u64, u64, u64, u64, u64);

/// Aggregates a slice of case outcomes into the deterministic report
/// document shared by `fuzz` and `fuzz --replay`. The contended and
/// fast-path counts are CLEAR's; `backends` has one row per backend.
fn aggregate(
    command: &str,
    seed_str: &str,
    master_seed: u64,
    outcomes: &[CaseOutcome],
) -> ExperimentOutput {
    let mut rejected = 0u64;
    let mut machine_instructions = 0u64;
    let mut reference_steps = 0u64;
    let mut commits = ModeCommits::default();
    let mut aborts = 0u64;
    let mut verdicts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut soundness = 0u64;
    let mut planned_cases = 0u64;
    let mut elided = 0u64;
    let mut partial = 0u64;
    let mut per_backend = [BackendSums::default(); BackendId::ALL.len()];
    let mut failures = Vec::new();
    let (mut len_min, mut len_max, mut len_sum) = (usize::MAX, 0usize, 0u64);

    for o in outcomes {
        let r = &o.report;
        let clear = r.clear();
        rejected += u64::from(r.rejected);
        machine_instructions += clear.instructions;
        reference_steps += r.reference_steps;
        commits.speculative += clear.commits.speculative;
        commits.nscl += clear.commits.nscl;
        commits.scl += clear.commits.scl;
        commits.fallback += clear.commits.fallback;
        aborts += clear.aborts;
        planned_cases += u64::from(r.planned_ars > 0);
        elided += clear.fastpath_elided;
        partial += clear.fastpath_partial;
        *verdicts.entry(r.verdict).or_default() += 1;
        len_min = len_min.min(r.program_len);
        len_max = len_max.max(r.program_len);
        len_sum += r.program_len as u64;
        for (slot, b) in per_backend.iter_mut().zip(&r.backends) {
            slot.0 += b.commits.total();
            slot.1 += b.aborts;
            slot.2 += b.capacity_aborts;
            slot.3 += b.lrws_capacity_aborts;
            slot.4 += b.fastpath_elided;
            slot.5 += u64::from(b.divergence.is_some());
        }
        if let Some((backend, d)) = r.divergence() {
            *kinds.entry(d.kind()).or_default() += 1;
            if d.kind() == "soundness-violation" {
                soundness += 1;
            }
            let shrunk = o.shrunk.as_ref();
            failures.push(failure_json(r.index, r.seed, r.threads, backend, d, shrunk));
        }
    }
    let diverged = failures.len();
    let cases = outcomes.len();
    let n_backends = BackendId::ALL.len();

    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== {command}: {cases} cases x {n_backends} backends, seed {seed_str} ({master_seed:#x}) ==="
    );
    let _ = writeln!(
        text,
        "rejected drafts: {rejected}   machine instructions: {machine_instructions}   \
         reference steps: {reference_steps}"
    );
    let _ = writeln!(
        text,
        "contended commits: speculative {} / NS-CL {} / S-CL {} / fallback {}   aborts: {aborts}",
        commits.speculative, commits.nscl, commits.scl, commits.fallback
    );
    let verdict_line = verdicts
        .iter()
        .map(|(v, n)| format!("{v} {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(text, "static verdicts: {verdict_line}");
    let _ = writeln!(
        text,
        "static fast path: {planned_cases} planned cases, {elided} discovery runs elided, \
         {partial} shortened to root confirmation"
    );
    let _ = writeln!(
        text,
        "{:8} {:>9} {:>8} {:>9} {:>9} {:>8} {:>10}",
        "backend", "commits", "aborts", "capacity", "rw-ovfl", "elided", "diverged"
    );
    for (id, (commits, aborts, capacity, lrws, elided, div)) in
        BackendId::ALL.iter().zip(per_backend)
    {
        let _ = writeln!(
            text,
            "{:8} {commits:>9} {aborts:>8} {capacity:>9} {lrws:>9} {elided:>8} {div:>10}",
            id.name()
        );
    }
    if diverged == 0 {
        let _ = writeln!(
            text,
            "oracle: all {cases} cases agree across {n_backends} backends (0 divergences)"
        );
    } else {
        let _ = writeln!(text, "oracle: {diverged} DIVERGENCES:");
        for (kind, n) in &kinds {
            let _ = writeln!(text, "  {kind}: {n}");
        }
    }

    let backend_json = BackendId::ALL.iter().zip(per_backend).map(|(id, sums)| {
        let (commits, aborts, capacity, lrws, elided, div) = sums;
        Json::obj([
            ("backend", Json::from(id.name())),
            ("commits", Json::from(commits)),
            ("aborts", Json::from(aborts)),
            ("capacity_aborts", Json::from(capacity)),
            ("lrws_capacity_aborts", Json::from(lrws)),
            ("discovery_runs_elided", Json::from(elided)),
            ("diverged_cases", Json::from(div)),
        ])
    });
    let json = Json::obj([
        ("command", Json::from(command)),
        ("seed", Json::from(seed_str)),
        ("seed_value", hex(master_seed)),
        ("cases", Json::from(cases)),
        ("rejected_drafts", Json::from(rejected)),
        ("divergences", Json::from(diverged)),
        ("soundness_violations", Json::from(soundness)),
        ("planned_cases", Json::from(planned_cases)),
        ("discovery_runs_elided", Json::from(elided)),
        ("partial_discovery_runs", Json::from(partial)),
        ("machine_instructions", Json::from(machine_instructions)),
        ("reference_steps", Json::from(reference_steps)),
        (
            "contended_commits",
            Json::obj([
                ("speculative", Json::from(commits.speculative)),
                ("nscl", Json::from(commits.nscl)),
                ("scl", Json::from(commits.scl)),
                ("fallback", Json::from(commits.fallback)),
            ]),
        ),
        ("aborts", Json::from(aborts)),
        (
            "verdicts",
            Json::Obj(
                verdicts
                    .iter()
                    .map(|(v, n)| (v.to_string(), Json::from(*n)))
                    .collect(),
            ),
        ),
        (
            "program_len",
            Json::obj([
                (
                    "min",
                    Json::from(if cases == 0 { 0 } else { len_min as u64 }),
                ),
                ("max", Json::from(len_max as u64)),
                (
                    "mean",
                    Json::Float(if cases == 0 {
                        0.0
                    } else {
                        len_sum as f64 / cases as f64
                    }),
                ),
            ]),
        ),
        ("backends", Json::arr(backend_json)),
        ("failures", Json::Arr(failures)),
    ]);
    let mut out = ExperimentOutput::new(text, json);
    out.failures = diverged;
    out
}

/// Runs `count` seeded cases through the differential oracle in parallel
/// and renders the deterministic fuzz report. Failing cases are shrunk to
/// minimal reproducers embedded in the `failures` array. `cores = 0` runs
/// each case at its own generated thread count; a nonzero value widens
/// every contended leg to that many simulated cores (`fuzz --cores`).
pub fn fuzz_output(seed_str: &str, count: u64, workers: usize, cores: usize) -> ExperimentOutput {
    let master_seed = parse_seed(seed_str);
    let outcomes = pool::run_indexed(count as usize, workers, |i| {
        run_case(master_seed, i as u64, cores)
    });
    let mut out = aggregate("fuzz", seed_str, master_seed, &outcomes);
    if let Json::Obj(fields) = &mut out.json {
        fields.insert(3, ("cores_override".to_string(), Json::from(cores)));
    }
    out
}

/// Replays an explicit `(master_seed, index)` list — the checked-in
/// regression corpus — through the oracle. Entries keep their original
/// master seed, so a corpus survives changes to the default CLI seed.
pub fn replay_output(entries: &[(String, u64, u64)], workers: usize) -> ExperimentOutput {
    let outcomes = pool::run_indexed(entries.len(), workers, |i| {
        let (_, master_seed, index) = &entries[i];
        // Corpus entries replay at their original thread counts: a pinned
        // regression must reproduce the machine shape it was found on.
        run_case(*master_seed, *index, 0)
    });
    let mut out = aggregate("replay", "corpus", 0, &outcomes);
    // Name each replayed entry in the text so CI logs read well.
    let mut text = String::new();
    for ((name, seed, index), o) in entries.iter().zip(&outcomes) {
        let verdict = match o.report.divergence() {
            None => "ok".to_string(),
            Some((backend, d)) => format!("DIVERGED under {backend}: {d}"),
        };
        let _ = writeln!(
            text,
            "replay {name} (seed {seed:#x}, index {index}): {verdict}"
        );
    }
    out.text = format!("{text}{}", out.text);
    out
}

/// Pinned options for the `litmus-backends` golden: six seeds, retry
/// threshold 5, every backend id — the five swept ones plus
/// `clear-powertm` (preset W). Cores-per-run always equals the case's
/// thread count, so `cores` here is only documentation.
pub(super) fn litmus_opts() -> SuiteOptions {
    SuiteOptions {
        size: clear_workloads::Size::Tiny,
        cores: 4,
        seeds: (1..=6).collect(),
        retry_sweep: vec![5],
        benchmarks: vec![],
        workers: pool::default_workers(),
        backends: super::every_backend(),
    }
}

/// The `litmus-backends` experiment: SB, LB, MP and IRIW across every
/// backend in `opts.backends` × seed (the `--backend` flag restricts the
/// sweep), with outcome histograms, the forbidden relaxed outcome of each
/// shape and every broken run counted as a failure. This gate proves the
/// atomicity argument is backend-independent — including under the
/// limited-R/W-set backend's capacity aborts.
pub(super) fn litmus_backends(opts: &SuiteOptions) -> ExperimentOutput {
    let sweep: Vec<BackendId> = opts
        .backends
        .iter()
        .map(|n| BackendId::from_name(n).expect("SuiteOptions validated the backend names"))
        .collect();
    let catalogue = cases();
    let grid: Vec<(usize, usize, u64)> = (0..catalogue.len())
        .flat_map(|ci| {
            (0..sweep.len()).flat_map(move |k| opts.seeds.iter().map(move |&s| (ci, k, s)))
        })
        .collect();

    let results = pool::run_indexed(grid.len(), opts.workers, |g| {
        let (ci, k, seed) = grid[g];
        let case = Arc::new(cases().swap_remove(ci));
        let threads = case.threads.len();
        let workload = LitmusWorkload::new(Arc::clone(&case), seed);
        let layout = workload.layout_handle();
        let cfg = MachineConfig {
            seed,
            ..sweep[k].config(threads, opts.first_retries())
        };
        let mut machine = Machine::new(cfg, Box::new(workload));
        let stats = machine.run();
        let layout = layout.get().expect("setup published the layout");
        let outcome = outcome_from(&case, &layout, machine.memory());
        let label = case.label(&outcome);
        let forbidden = (case.forbidden)(&outcome);
        let committed = stats.commits_by_mode.total() == threads as u64;
        (ci, k, stats.timed_out, committed, forbidden, label)
    });

    // (case, label) -> outcome histogram + violation counters.
    type RowAccum = (BTreeMap<String, u64>, u64, u64);
    let mut rows: BTreeMap<(usize, &str), RowAccum> = BTreeMap::new();
    for (ci, k, timed_out, committed, forbidden, label) in &results {
        let slot = rows.entry((*ci, sweep[*k].name())).or_default();
        *slot.0.entry(label.clone()).or_default() += 1;
        if *forbidden {
            slot.1 += 1;
        }
        if *timed_out || !committed {
            slot.2 += 1;
        }
    }

    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== litmus-backends: atomic outcomes across speculation backends ==="
    );
    let _ = writeln!(
        text,
        "{:6} {:13} {:>6} {:>10} {:>7}  outcomes",
        "case", "backend", "runs", "forbidden", "broken"
    );
    let mut row_json = Vec::new();
    let mut total_forbidden = 0u64;
    let mut total_broken = 0u64;
    for ((ci, label), (hist, forbidden, broken)) in &rows {
        let case = &catalogue[*ci];
        let runs: u64 = hist.values().sum();
        total_forbidden += forbidden;
        total_broken += broken;
        let outcomes = hist
            .iter()
            .map(|(l, n)| format!("{l} x{n}"))
            .collect::<Vec<_>>()
            .join("; ");
        let _ = writeln!(
            text,
            "{:6} {:13} {:>6} {:>10} {:>7}  {outcomes}",
            case.name, label, runs, forbidden, broken
        );
        row_json.push(Json::obj([
            ("case", Json::from(case.name)),
            ("backend", Json::from(*label)),
            ("runs", Json::from(runs)),
            ("forbidden", Json::from(*forbidden)),
            ("broken_runs", Json::from(*broken)),
            (
                "outcomes",
                Json::Obj(
                    hist.iter()
                        .map(|(l, n)| (l.clone(), Json::from(*n)))
                        .collect(),
                ),
            ),
        ]));
    }
    let _ = writeln!(
        text,
        "\ntotal forbidden outcomes: {total_forbidden}   broken runs: {total_broken}"
    );
    let _ = writeln!(
        text,
        "(serializability is a backend contract: no backend may admit a relaxed outcome)"
    );

    let fields = [
        ("experiment", Json::from("litmus-backends")),
        ("options", opts_json(opts)),
        (
            "backends",
            Json::arr(sweep.iter().map(|id| Json::from(id.name()))),
        ),
        (
            "cases",
            Json::arr(catalogue.iter().map(|c| {
                Json::obj([
                    ("name", Json::from(c.name)),
                    ("threads", Json::from(c.threads.len())),
                    ("about", Json::from(c.about)),
                ])
            })),
        ),
        ("rows", Json::Arr(row_json)),
        ("forbidden_outcomes", Json::from(total_forbidden)),
        ("broken_runs", Json::from(total_broken)),
    ];
    let mut out = ExperimentOutput::new(text, Json::obj(fields));
    out.failures = (total_forbidden + total_broken) as usize;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_parsing_covers_decimal_hex_and_mnemonics() {
        assert_eq!(parse_seed("42"), 42);
        assert_eq!(parse_seed("0xff"), 255);
        assert_eq!(parse_seed("0XFF"), 255);
        // `0xC1EAR` is not valid hex (R); it folds deterministically.
        let m = parse_seed("0xC1EAR");
        assert_eq!(m, parse_seed("0xC1EAR"));
        assert_ne!(m, parse_seed("0xC1EAS"));
        assert_ne!(m, 0);
    }

    /// The `backends` rows of a fuzz report.
    fn backend_rows(out: &ExperimentOutput) -> Vec<Json> {
        match out.json.get("backends") {
            Some(Json::Arr(rows)) => rows.clone(),
            other => panic!("expected backends array, got {other:?}"),
        }
    }

    fn int(row: &Json, key: &str) -> i64 {
        match row.get(key) {
            Some(Json::Int(v)) => *v,
            other => panic!("{key}: expected an integer, got {other:?}"),
        }
    }

    #[test]
    fn small_fuzz_run_is_clean_and_deterministic() {
        let a = fuzz_output("0xC1EAR", 24, 4, 0);
        assert_eq!(a.failures, 0, "{}", a.text);
        let b = fuzz_output("0xC1EAR", 24, 1, 0);
        assert_eq!(a.json.to_pretty(), b.json.to_pretty());
        assert_eq!(a.text, b.text);
        assert!(a.text.contains("all 24 cases agree across 5 backends"));
        // Every backend committed work; only lrws may overflow buffers,
        // and only CLEAR's plans elide discovery.
        let rows = backend_rows(&a);
        let names: Vec<Json> = rows
            .iter()
            .filter_map(|r| r.get("backend").cloned())
            .collect();
        let want: Vec<Json> = BackendId::ALL
            .iter()
            .map(|id| Json::from(id.name()))
            .collect();
        assert_eq!(names, want);
        for row in &rows {
            assert!(int(row, "commits") > 0, "{row:?}");
            assert_eq!(int(row, "diverged_cases"), 0, "{row:?}");
            if row.get("backend") != Some(&Json::from("lrws")) {
                assert_eq!(int(row, "lrws_capacity_aborts"), 0, "{row:?}");
            }
            if row.get("backend") != Some(&Json::from("clear")) {
                assert_eq!(int(row, "discovery_runs_elided"), 0, "{row:?}");
            }
        }
        // CLEAR's row is the run's contended CLEAR leg.
        let clear = &rows[BackendId::ALL
            .iter()
            .position(|&id| id == BackendId::Clear)
            .unwrap()];
        assert_eq!(clear.get("aborts"), a.json.get("aborts"));
        assert_eq!(
            clear.get("discovery_runs_elided"),
            a.json.get("discovery_runs_elided")
        );
    }

    #[test]
    fn wide_cores_override_scales_the_contended_phase() {
        let out = fuzz_output("0xC1EAR", 4, 4, 128);
        assert_eq!(out.failures, 0, "{}", out.text);
        assert_eq!(out.json.get("cores_override"), Some(&Json::Int(128)));
        // 4 cases x 128 threads x >= 1 invocation each, all committed in
        // some mode under every backend: each row commits at least 512.
        let rows = backend_rows(&out);
        assert_eq!(rows.len(), BackendId::ALL.len());
        for row in &rows {
            let commits = int(row, "commits");
            assert!(commits >= 512, "expected >=512 wide commits, got {row:?}");
        }
        let clear = out.json.get("contended_commits").expect("commits");
        let total: i64 = ["speculative", "nscl", "scl", "fallback"]
            .iter()
            .map(|k| int(clear, k))
            .sum();
        assert!(
            total >= 512,
            "expected >=512 wide CLEAR commits, got {total}"
        );
    }

    #[test]
    fn failure_objects_record_width_and_backend() {
        let d = Divergence::TimedOut { phase: "lrws+plan" };
        let f = failure_json(3, 0x10, 128, "lrws", &d, None);
        let keys: Vec<&str> = match &f {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("expected an object, got {other:?}"),
        };
        assert_eq!(
            keys,
            ["index", "seed", "cores", "backend", "kind", "detail"]
        );
        assert_eq!(f.get("cores"), Some(&Json::Int(128)));
        assert_eq!(f.get("backend"), Some(&Json::from("lrws")));
        assert_eq!(
            f.get("detail"),
            Some(&Json::from("lrws+plan run timed out"))
        );
    }

    #[test]
    fn reproducers_are_named_by_their_own_seed_and_index() {
        let d = Divergence::TimedOut { phase: "clear" };
        let failures =
            [12_648_430, 0xdecaf].map(|seed| failure_json(3, seed, 4, "clear", &d, None));
        let report = Json::obj([
            ("command", Json::from("replay")),
            ("failures", Json::arr(failures)),
        ]);
        let names: Vec<String> = reproducers(&report).into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            ["repro-replay-c0ffee-3.json", "repro-replay-decaf-3.json"]
        );
    }

    #[test]
    fn replay_reports_entries_by_name() {
        let entries = vec![
            ("sb-regression".to_string(), parse_seed("0xC1EAR"), 0),
            ("probe".to_string(), 7, 3),
        ];
        let out = replay_output(&entries, 2);
        assert_eq!(out.failures, 0, "{}", out.text);
        assert!(out.text.contains("replay sb-regression"));
        assert!(out.text.contains("replay probe"));
    }

    #[test]
    fn litmus_backends_gate_pins_forbidden_outcomes_to_zero() {
        let opts = SuiteOptions {
            seeds: vec![1, 2],
            workers: 4,
            ..litmus_opts()
        };
        let out = litmus_backends(&opts);
        assert_eq!(out.failures, 0, "{}", out.text);
        // Every backend id shows up as a row label.
        for id in BackendId::ALL.into_iter().chain([BackendId::ClearPowerTm]) {
            assert!(out.text.contains(id.name()), "missing {id}:\n{}", out.text);
        }
        assert!(out.text.contains("IRIW"));
    }

    #[test]
    fn backend_flag_restricts_the_litmus_backend_sweep() {
        let opts = SuiteOptions {
            seeds: vec![1],
            workers: 2,
            backends: vec!["tsx", "lrws"],
            ..litmus_opts()
        };
        let out = litmus_backends(&opts);
        assert_eq!(out.failures, 0, "{}", out.text);
        let backends = out.json.get("backends").expect("backends array");
        assert_eq!(
            backends.to_pretty(),
            Json::arr(["tsx", "lrws"].iter().map(|b| Json::from(*b))).to_pretty()
        );
        assert!(!out.text.contains("powertm"));
    }
}
