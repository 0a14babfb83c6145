//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs passes of one workload for `--seconds` and prints a report whose
//! last line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, or the per-layer
//! metrics of a traced run with `--trace 1`, which also writes its spans
//! to `.bench_out/`. README.md describes the workloads and every metric.

mod micro;
mod passes;
mod spans;

use clear_harness::json::Json;
use clear_harness::serve::ServeReport;
use passes::{ratio, Kind, Mode, PassOut, Totals};
use spans::Spans;
use std::fmt;
use std::process::ExitCode;
use std::time::Instant;

/// Fewest measured passes per run, however long each one takes.
const MIN_PASSES: usize = 3;

/// Set-up-only repetitions per run, at least this many and for at least
/// `SETUP_SECONDS`; `setup_s` is their median.
const SETUP_REPS: usize = 9;
const SETUP_SECONDS: f64 = 0.5;

/// Span layers and the metric reporting each one's self time per pass.
const SELF_TIME: [(&str, &str); 5] = [
    ("bench", "trace.self_bench_s"),
    ("workloads", "trace.self_workloads_s"),
    ("analysis", "trace.self_analysis_s"),
    ("machine", "trace.self_machine_s"),
    ("metrics", "trace.self_metrics_s"),
];

const USAGE: &str =
    "usage: perfbench --workload <nscl-planned|stamp-contended|serve-queue|wide-256> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |why: &dyn fmt::Display| format!("{flag} {value}: {why}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::from_name(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 || seconds > 3600.0 {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 3600"));
    }
    let kind = kind.ok_or_else(|| "--workload is required".to_string())?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// Where a result was measured.
struct Host {
    cpu: String,
    nproc: usize,
    rustc: String,
    commit: String,
}

impl Host {
    fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines().find_map(|l| {
                    l.strip_prefix("model name")
                        .and_then(|rest| rest.split_once(':'))
                        .map(|(_, model)| model.trim().to_string())
                })
            })
            .unwrap_or_else(|| "unknown".to_string());
        // An exported source tree has no git metadata.
        let commit = if std::path::Path::new(".git").exists() {
            first_line("git", &["rev-parse", "--short=12", "HEAD"])
        } else {
            "unknown".to_string()
        };
        Host {
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: first_line("rustc", &["--version"]),
            commit,
        }
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu='{}' nproc={} rustc='{}' commit={}",
            self.cpu, self.nproc, self.rustc, self.commit
        )
    }
}

/// The first line a command prints, or `unknown`. Waits for it to exit.
fn first_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The metrics and checks of one run.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failures: Vec<String>,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.failures.push(format!("{name} is not a finite number"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    fn absorb(&mut self, pass: &PassOut) {
        self.attempted += pass.attempted;
        self.failures.extend(pass.failures.iter().cloned());
    }

    /// Every pass of a run simulates the same inputs, so every pass must
    /// produce the same simulated result.
    fn expect_same(&mut self, what: &str, a: u64, b: u64) {
        if a != b {
            self.failures.push(format!(
                "{what}: simulated-result digest {b:016x} differs from {a:016x}"
            ));
        }
    }

    fn attempted(&self) -> u64 {
        self.attempted.max(1)
    }

    fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted())
    }

    /// The result line.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted(),
            self.failed(),
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host {host}");
    let mut report = Report::default();
    if args.trace {
        per_layer(&args, &host, &mut report);
    } else {
        end_to_end(&args, &mut report);
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:38} {value:>18.6} {unit}");
    }
    println!(
        "error_rate {} ({} failed of {} attempted)",
        ratio(report.failed(), report.attempted()),
        report.failed(),
        report.attempted()
    );
    for failure in &report.failures {
        println!("FAILED {failure}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

/// `--trace 0`: set-up repetitions, untraced timed passes, then one
/// untimed audit pass for the checks and the time-to-commit samples.
fn end_to_end(args: &Args, report: &mut Report) {
    let kind = args.kind;
    let mut setup = Vec::new();
    let start = Instant::now();
    while setup.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        setup.push(passes::setup_only(kind, args.seed));
    }
    let mut spans = Spans::new(false);
    let mut timed = Vec::new();
    let start = Instant::now();
    while timed.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        timed.push(passes::pass(kind, args.seed, Mode::Timed, &mut spans));
    }
    // Read before the audit pass, whose traces are not part of the workload.
    let rss_mib = peak_rss_mib();
    let audit = passes::pass(kind, args.seed, Mode::Audit, &mut spans);
    for pass in &timed {
        report.absorb(pass);
        report.expect_same("timed pass", timed[0].digest, pass.digest);
    }
    report.absorb(&audit);
    if kind == Kind::ServeQueue {
        // serve_session runs its batches inside the harness; the audit pass
        // replays them one by one and must reach the same registry.
        if !passes::same_outcome(&timed[0].registry, &audit.registry) {
            report
                .failures
                .push("serve_session and its audited replay disagree".to_string());
        }
    } else {
        report.expect_same("audit pass", timed[0].digest, audit.digest);
    }
    println!("{} timed passes of {} ARs", timed.len(), timed[0].commits);
    let mut ars_per_s: Vec<f64> = timed.iter().map(|p| p.commits as f64 / p.wall_s).collect();
    report.push("ars_per_s", median(&mut ars_per_s), "ARs/s");
    report.push("setup_s", median(&mut setup), "s");
    report.push("peak_rss_mb", rss_mib, "MiB");
    let t = &audit.totals;
    report.push("sim_cycles_per_commit", t.per_commit(t.cycles), "cycles");
    report.push("sim_aborts_per_commit", t.per_commit(t.aborts), "aborts");
    // The exact median is a plain cycle count that many commits share (on
    // nscl-planned it is the same for every seed), so the end-to-end figure
    // is the mean; the median is the per-layer `machine.ttc_p50_cycles`.
    let ttc = &audit.ttc;
    println!(
        "time-to-commit: {} samples, {} beyond p999",
        ttc.len(),
        ttc.len().saturating_sub(rank(ttc.len(), 0.999) + 1)
    );
    let mean = ttc.iter().sum::<u64>() as f64 / ttc.len().max(1) as f64;
    report.push("ttc_mean_cycles", mean, "cycles");
    report.push("ttc_p999_cycles", quantile(ttc, 0.999), "cycles");
}

/// `--trace 1`: untraced and traced passes alternate, then an audit pass,
/// the layer microbenchmarks and the attribution table.
fn per_layer(args: &Args, host: &Host, report: &mut Report) {
    let kind = args.kind;
    let mut quiet = Spans::new(false);
    let mut traced = Spans::new(true);
    let (mut plain, mut with_spans) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while with_spans.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        plain.push(passes::pass(kind, args.seed, Mode::Replica, &mut quiet));
        with_spans.push(passes::pass(kind, args.seed, Mode::Replica, &mut traced));
    }
    let audit = passes::pass(kind, args.seed, Mode::Audit, &mut quiet);
    for pass in plain.iter().chain(&with_spans).chain([&audit]) {
        report.absorb(pass);
        report.expect_same("traced run", plain[0].digest, pass.digest);
    }
    let session =
        (kind == Kind::ServeQueue).then(|| passes::pass(kind, args.seed, Mode::Timed, &mut quiet));
    if let Some(session) = &session {
        report.absorb(session);
        if !passes::same_outcome(&session.registry, &plain[0].registry) {
            report
                .failures
                .push("serve_session and the benchmark's replay disagree".to_string());
        }
    }
    let micro = micro::run(kind, args.seed);

    let t = &plain[0].totals;
    let n_traced = with_spans.len() as f64;
    let per_pass_ms = |name: &str| traced.total_s(name) / n_traced * 1e3;
    let run_s = median(&mut plain.iter().map(|p| p.run_s).collect::<Vec<_>>());
    let executed = t.retired + t.wasted;
    let requests = t.l1_hits + t.misses;
    report.push("workloads.build_ms", per_pass_ms("workloads.by_name"), "ms");
    report.push(
        "workloads.validate_ms",
        per_pass_ms("workloads.validate"),
        "ms",
    );
    report.push(
        "analysis.plan_ms",
        per_pass_ms("analysis.benchmark_plans"),
        "ms",
    );
    report.push("machine.new_ms", per_pass_ms("machine.new"), "ms");
    report.push("machine.run_s", run_s, "s");
    report.push("machine.steps_per_s", t.steps as f64 / run_s, "1/s");
    report.push("machine.ns_per_step", run_s * 1e9 / t.steps as f64, "ns");
    report.push("machine.steps_per_commit", t.per_commit(t.steps), "count");
    report.push(
        "machine.sched_updates_per_step",
        ratio(t.sched_updates, t.steps),
        "ratio",
    );
    report.push(
        "machine.useful_instr_ratio",
        ratio(t.retired, executed),
        "ratio",
    );
    report.push(
        "machine.ttc_p50_cycles",
        quantile(&audit.ttc, 0.5),
        "cycles",
    );
    report.push("isa.instr_per_commit", t.per_commit(executed), "count");
    report.push("isa.vm_step_ns", micro.vm_step, "ns");
    report.push(
        "coherence.requests_per_commit",
        t.per_commit(requests),
        "count",
    );
    report.push(
        "coherence.l1_hit_ratio",
        ratio(t.l1_hits, requests),
        "ratio",
    );
    report.push(
        "coherence.invalidations_per_commit",
        t.per_commit(t.invalidations),
        "count",
    );
    report.push(
        "coherence.lock_ops_per_commit",
        t.per_commit(t.lock_ops),
        "count",
    );
    report.push(
        "coherence.lock_nacks_per_commit",
        t.per_commit(t.lock_nacks),
        "count",
    );
    report.push("coherence.read_hit_ns", micro.read_hit, "ns");
    report.push("coherence.remote_write_ns", micro.remote_write, "ns");
    report.push("coherence.probe_32_sharers_ns", micro.probe_32, "ns");
    report.push("coherence.probe_256_sharers_ns", micro.probe_256, "ns");
    report.push("coherence.lock_unlock_ns", micro.lock_unlock, "ns");
    report.push("coherence.lock_group_32_ns", micro.lock_group_32, "ns");
    report.push(
        "core.discovery_elided_per_commit",
        t.per_commit(t.discovery_elided),
        "count",
    );
    report.push(
        "core.partial_discovery_per_commit",
        t.per_commit(t.partial_discovery),
        "count",
    );
    report.push("core.nscl_commit_share", ratio(t.nscl, t.commits), "ratio");
    report.push("core.scl_commit_share", ratio(t.scl, t.commits), "ratio");
    report.push("core.ert_lookup_ns", micro.ert_lookup, "ns");
    report.push("core.alt_observe_ns", micro.alt_observe, "ns");
    report.push("core.alt_lock_list_ns", micro.alt_lock_list, "ns");
    report.push("core.crt_record_take_ns", micro.crt_record_take, "ns");
    report.push(
        "htm.conflict_aborts_per_commit",
        t.per_commit(t.conflict_aborts),
        "count",
    );
    report.push(
        "htm.capacity_aborts_per_commit",
        t.per_commit(t.capacity_aborts),
        "count",
    );
    report.push("htm.fallback_share", ratio(t.fallback, t.commits), "ratio");
    report.push(
        "htm.lock_spin_cycles_per_commit",
        t.per_commit(t.lock_spin_cycles),
        "cycles",
    );
    report.push(
        "htm.fallback_wait_cycles_per_commit",
        t.per_commit(t.fallback_wait_cycles),
        "cycles",
    );
    report.push(
        "htm.pending_stall_cycles_per_commit",
        t.per_commit(t.pending_stall_cycles),
        "cycles",
    );
    report.push("htm.resolve_conflict_ns", micro.resolve_conflict, "ns");
    report.push("metrics.observe_ns", micro.observe, "ns");
    report.push("metrics.merge_ms", per_pass_ms("metrics.merge"), "ms");

    // Serve-loop figures come from the one `serve_session` of serve-queue;
    // the other workloads have no serve loop and report zero.
    let serve = session.as_ref().and_then(|p| p.serve.as_ref());
    let mut batch_ms = serve.map_or_else(Vec::new, batch_wall_ms);
    batch_ms.sort_by(f64::total_cmp);
    let pick = |q| {
        batch_ms
            .get(rank(batch_ms.len(), q))
            .copied()
            .unwrap_or(0.0)
    };
    report.push("serve.batches", batch_ms.len() as f64, "count");
    report.push("serve.batch_ms_p50", pick(0.5), "ms");
    report.push("serve.batch_ms_p95", pick(0.95), "ms");
    report.push(
        "serve.backpressure_events",
        serve.map_or(0.0, |r| r.backpressure_events as f64),
        "count",
    );
    report.push(
        "serve.queue_max_depth",
        serve.map_or(0.0, |r| r.queue_max_depth as f64),
        "count",
    );

    attribution(t, &micro, run_s, report);

    let mut plain_wall: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let mut traced_wall: Vec<f64> = with_spans.iter().map(|p| p.wall_s).collect();
    report.push(
        "trace.overhead_frac",
        median(&mut traced_wall) / median(&mut plain_wall) - 1.0,
        "ratio",
    );
    let self_time = traced.self_time_by_layer();
    println!("self time per pass of the traced run:");
    for (layer, metric) in SELF_TIME {
        let secs = self_time.get(layer).copied().unwrap_or(0.0) / n_traced;
        println!("  {layer:10} {secs:>10.6} s");
        report.push(metric, secs, "s");
    }
    write_spans(args, host, &traced);
}

/// Host milliseconds of each batch of a session, from the cumulative wall
/// clock of its per-batch trajectory rows.
fn batch_wall_ms(report: &ServeReport) -> Vec<f64> {
    let mut prev = 0i64;
    report
        .trajectory
        .iter()
        .map(|row| {
            let wall = match row.get("wall_ns") {
                Some(Json::Int(ns)) => *ns,
                _ => prev,
            };
            let ms = (wall - prev) as f64 / 1e6;
            prev = wall;
            ms
        })
        .collect()
}

/// Predicts each layer's share of `machine.run_s` as its deterministic op
/// count times its microbenchmarked ns/op. The scheduler heap and step
/// dispatch are private to the machine and cannot be priced from outside,
/// so their cost lands in the unexplained remainder.
fn attribution(t: &Totals, m: &micro::Micro, run_s: f64, report: &mut Report) {
    let secs = |ops: u64, ns: f64| ops as f64 * ns * 1e-9;
    let rows = [
        (
            "vm",
            "attrib.vm_frac",
            format!("{} instructions", t.retired + t.wasted),
            secs(t.retired + t.wasted, m.vm_step),
        ),
        (
            "coherence",
            "attrib.coherence_frac",
            format!(
                "{} L1 hits, {} misses, {} locks",
                t.l1_hits, t.misses, t.locks
            ),
            secs(t.l1_hits, m.read_hit)
                + secs(t.misses, m.remote_write)
                + secs(t.locks, m.lock_unlock),
        ),
        (
            "core",
            "attrib.core_frac",
            format!(
                "{} attempts, {} locks, {} locked commits",
                t.clear_attempts, t.clear_locks, t.clear_cl_commits
            ),
            secs(t.clear_attempts, m.ert_lookup + m.crt_record_take)
                + secs(t.clear_locks, m.alt_observe)
                + secs(t.clear_cl_commits, m.alt_lock_list),
        ),
        (
            "htm",
            "attrib.htm_frac",
            format!("{} conflicts", t.conflicts),
            secs(t.conflicts, m.resolve_conflict),
        ),
        (
            "metrics",
            "attrib.metrics_frac",
            format!("{} hook calls", t.metric_ops),
            secs(t.metric_ops, m.observe),
        ),
    ];
    println!("attribution of machine.run_s = {run_s:.4} s (op count x ns/op):");
    let mut explained = 0.0;
    for (layer, metric, ops, predicted) in rows {
        explained += predicted;
        println!(
            "  {layer:12} {predicted:>9.4} s {:>6.1}%  {ops}",
            100.0 * predicted / run_s
        );
        report.push(metric, predicted / run_s, "ratio");
    }
    let rest = run_s - explained;
    println!(
        "  {:12} {rest:>9.4} s {:>6.1}%  scheduler heap, step dispatch and the rest of the private run loop",
        "unexplained",
        100.0 * rest / run_s
    );
    report.push("attrib.unexplained_frac", rest / run_s, "ratio");
}

/// Writes the traced run's spans, with its provenance, under `.bench_out/`.
fn write_spans(args: &Args, host: &Host, spans: &Spans) {
    let path = format!(
        ".bench_out/spans-{}-seed{}.json",
        args.kind.name(),
        args.seed
    );
    let doc = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host\": \"{host}\", \"spans\": {}}}\n",
        args.kind.name(),
        args.seed,
        spans.to_json()
    );
    match std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => println!("spans written to {path}"),
        Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
    }
}

/// The process's high-water resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                let kib = l
                    .strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim();
                kib.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median (the mean of the middle two for an even count); 0 when empty.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q` quantile of time-to-commit samples, in cycles.
fn quantile(samples: &[u64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted.get(rank(sorted.len(), q)).map_or(0.0, |&v| v as f64)
}

/// Index of the nearest-rank `q` quantile among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
}
