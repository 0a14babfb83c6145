//! The `clear-harness` CLI: list experiments, run them, and manage the
//! golden regression baselines.
//!
//! ```text
//! clear-harness list
//! clear-harness run <name>|all [suite options] [--json]
//! clear-harness trace <workload> [suite options] [--chrome FILE] [--events N] [--json]
//! clear-harness analyze <workload>|all [suite options] [--plan] [--json]
//! clear-harness golden update [names...]
//! clear-harness check [names...]
//! ```

use clear_harness::experiments::{
    analyze_output, find, fuzz_output, parse_seed, replay_output, reproducers, Experiment,
    EXPERIMENTS,
};
use clear_harness::json::Json;
use clear_harness::serve::{serve_session, ServeOptions};
use clear_harness::{golden, metrics_export, run_benchmark, trace_export, SuiteOptions};
use clear_machine::{MachineConfig, Preset};
use clear_workloads::BENCHMARK_NAMES;
use std::num::NonZeroUsize;

fn usage() -> ! {
    eprintln!(
        "usage:\n  clear-harness list\n  clear-harness run <name>|all \
         [--size tiny|small|medium] [--cores N] [--seeds N]\n      \
         [--sweep full|quick|none] [--bench NAME] [--workers N] [--json]\n  \
         clear-harness serve <workload> [--size ...] [--cores N] [--seeds N]\n      \
         [--ars N] [--batch N] [--queue N] [--rate CYCLES] [--replay FILE]\n      \
         [--snapshot-out FILE] [--prom-out FILE] [--json]\n  \
         clear-harness trace <workload> [--size ...] [--cores N] [--seeds N]\n      \
         [--chrome FILE] [--arrivals FILE] [--events N] [--json]\n  \
         clear-harness analyze <workload>|all [--size ...] [--cores N] [--seeds N]\n      \
         [--plan] [--json]\n  \
         clear-harness fuzz [--seed S] [--count N] [--cores N] [--workers N] [--json]\n      \
         [--out FILE] [--repro-dir DIR] [--replay FILE]\n  \
         clear-harness golden update [names...]\n  clear-harness check [names...]"
    );
    std::process::exit(2);
}

/// Prints `message` and exits 2, the usage-error status.
fn usage_error(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Prints `message` and exits 1, the failure status.
fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}

/// The suite options in `args`; a usage error exits 2.
fn suite_options(args: &[String]) -> SuiteOptions {
    SuiteOptions::from_arg_slice(args).unwrap_or_else(|e| usage_error(e))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => list(),
        Some("run") => run(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("trace") => trace(&args[1..]),
        Some("analyze") => analyze(&args[1..]),
        Some("fuzz") => fuzz(&args[1..]),
        Some("golden") if args.get(1).map(String::as_str) == Some("update") => update(&args[2..]),
        Some("check") => check(&args[1..]),
        _ => usage(),
    }
}

/// Removes `flag` and the value after it from `rest`, exiting 2 when the
/// value is missing.
fn take_value(rest: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = rest.iter().position(|a| a == flag)?;
    if i + 1 >= rest.len() {
        usage_error(format!("missing value for {flag}"));
    }
    let v = rest.remove(i + 1);
    rest.remove(i);
    Some(v)
}

/// [`take_value`], parsed; a malformed value exits 2.
fn take_parsed<T: std::str::FromStr>(rest: &mut Vec<String>, flag: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    let v = take_value(rest, flag)?;
    Some(
        v.parse()
            .unwrap_or_else(|e| usage_error(format!("bad value for {flag}: {v} ({e})"))),
    )
}

/// Removes the switch `flag` from `rest`, reporting whether it was given.
fn take_switch(rest: &mut Vec<String>, flag: &str) -> bool {
    rest.iter()
        .position(|a| a == flag)
        .map(|i| rest.remove(i))
        .is_some()
}

/// The benchmark `trace` and `serve` run: the first argument, which must
/// name a registered workload (exit 2 otherwise).
fn workload_arg(args: &[String]) -> &str {
    let Some(name) = args.first() else { usage() };
    if !BENCHMARK_NAMES.contains(&name.as_str()) {
        let known = BENCHMARK_NAMES.join(", ");
        usage_error(format!("unknown benchmark {name} (known: {known})"));
    }
    name
}

/// `clear-harness fuzz`: differential fuzzing of the AR semantics — the
/// clear-isa VM vs the full machine under every speculation backend vs
/// the static analyzer. The report is deterministic.
fn fuzz(args: &[String]) {
    let mut rest: Vec<String> = args.to_vec();
    let seed_str = take_value(&mut rest, "--seed").unwrap_or_else(|| "0xC1EAR".to_string());
    let count: u64 = take_parsed(&mut rest, "--count").unwrap_or(256);
    let workers = take_parsed(&mut rest, "--workers")
        .map(|w: usize| w.max(1))
        .unwrap_or_else(clear_harness::pool::default_workers);
    // 0 (the default) keeps each case's own contended thread count; a
    // positive value widens every contended leg to that many cores.
    let cores: usize = take_parsed(&mut rest, "--cores").unwrap_or(0);
    let out_path = take_value(&mut rest, "--out");
    let repro_dir = take_value(&mut rest, "--repro-dir");
    let replay_path = take_value(&mut rest, "--replay");
    let as_json = take_switch(&mut rest, "--json");
    if !rest.is_empty() {
        usage_error(format!("unknown fuzz option {}", rest[0]));
    }

    let out = match &replay_path {
        Some(path) => replay_output(&read_corpus(path), workers),
        None => fuzz_output(&seed_str, count, workers, cores),
    };

    if as_json {
        println!("{}", out.json.to_pretty());
    } else {
        print!("{}", out.text);
    }
    if let Some(path) = &out_path {
        write_file(path, &out.json.to_pretty());
        eprintln!("wrote {path}");
    }
    if let Some(dir) = &repro_dir {
        let repros = reproducers(&out.json);
        if !repros.is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| fail(format!("cannot create {dir}: {e}")));
        }
        for (name, failure) in repros {
            let path = format!("{dir}/{name}");
            write_file(&path, &failure.to_pretty());
            eprintln!("wrote reproducer {path}");
        }
    }
    if out.failures > 0 {
        std::process::exit(1);
    }
}

/// The `key` array of the `what` JSON document at `path`; an unreadable
/// file, invalid JSON or a missing array exits 2.
fn read_json_array(path: &str, what: &str, key: &str) -> Vec<Json> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(format!("cannot read {what} {path}: {e}")));
    let doc = Json::parse(&text)
        .unwrap_or_else(|e| usage_error(format!("{what} {path} is not valid JSON: {e}")));
    match doc.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        _ => usage_error(format!("{what} {path}: missing {key} array")),
    }
}

/// A JSON integer as a `u64`; `None` for a negative one or a non-integer.
fn as_u64(v: &Json) -> Option<u64> {
    match v {
        Json::Int(v) => u64::try_from(*v).ok(),
        _ => None,
    }
}

/// Reads a regression-corpus JSON file: `{"entries": [{"name", "seed",
/// "index"}, ...]}`, with seeds in any `parse_seed` spelling or as
/// non-negative integers.
fn read_corpus(path: &str) -> Vec<(String, u64, u64)> {
    read_json_array(path, "corpus", "entries")
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let name = match e.get("name") {
                Some(Json::Str(s)) => s.clone(),
                _ => format!("entry-{i}"),
            };
            let seed = match e.get("seed") {
                Some(Json::Str(s)) => parse_seed(s),
                v => v.and_then(as_u64).unwrap_or_else(|| {
                    usage_error(format!(
                        "corpus {path}: entry {i} has no seed string or non-negative integer seed"
                    ))
                }),
            };
            let index = e.get("index").and_then(as_u64).unwrap_or_else(|| {
                usage_error(format!(
                    "corpus {path}: entry {i} has no non-negative integer index"
                ))
            });
            (name, seed, index)
        })
        .collect()
}

fn write_file(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
}

/// `clear-harness serve <workload>`: the bounded-memory trace-replay /
/// open-loop service loop with streaming time-to-commit percentiles.
/// Memory use is independent of `--ars`, so million-AR sessions are fine.
fn serve(args: &[String]) {
    let workload = workload_arg(args);
    let mut rest: Vec<String> = args[1..].to_vec();
    let total_ars: u64 = take_parsed(&mut rest, "--ars").unwrap_or(4096);
    let batch = take_parsed(&mut rest, "--batch").map_or(256, NonZeroUsize::get);
    let queue = take_parsed(&mut rest, "--queue").map_or(512, NonZeroUsize::get);
    let rate: u64 = take_parsed(&mut rest, "--rate").unwrap_or(24);
    let replay_gaps = take_value(&mut rest, "--replay").map(|path| read_gaps(&path));
    let snapshot_path = take_value(&mut rest, "--snapshot-out");
    let prom_path = take_value(&mut rest, "--prom-out");
    let as_json = take_switch(&mut rest, "--json");
    let opts = suite_options(&rest);
    let sopts = ServeOptions {
        workload: workload.to_string(),
        size: opts.size,
        cores: opts.cores,
        seed: opts.seeds[0],
        total_ars,
        batch,
        queue,
        rate,
        replay_gaps,
        snapshot_every: 8,
        max_retries: 5,
        ..ServeOptions::default()
    };
    let report = serve_session(&sopts);
    if as_json {
        println!("{}", report.json.to_pretty());
    } else {
        print!("{}", report.text);
    }
    if let Some(path) = &snapshot_path {
        write_file(path, &report.json.to_pretty());
        eprintln!("wrote {path}");
    }
    if let Some(path) = &prom_path {
        let text = metrics_export::prometheus_text(&report.registry.snapshot());
        // Self-validate the exposition before writing, exactly like the
        // Chrome-trace exporter does for its output.
        let summary = metrics_export::validate_prometheus(&text)
            .unwrap_or_else(|e| fail(format!("prometheus exposition failed validation: {e}")));
        write_file(path, &text);
        eprintln!(
            "wrote {path}: {} samples across {} families (validated)",
            summary.samples, summary.families
        );
    }
}

/// Reads a `trace --arrivals` document (`{"workload", "seed", "gaps"}`)
/// back into the gap list `serve --replay` cycles through.
fn read_gaps(path: &str) -> Vec<u64> {
    let gaps: Vec<u64> = read_json_array(path, "arrivals", "gaps")
        .iter()
        .enumerate()
        .map(|(i, g)| {
            as_u64(g).unwrap_or_else(|| {
                usage_error(format!(
                    "arrivals {path}: gap {i} is not a non-negative integer"
                ))
            })
        })
        .collect();
    if gaps.is_empty() {
        usage_error(format!("arrivals {path}: no usable gaps"));
    }
    gaps
}

/// `clear-harness trace <workload>`: run one benchmark with tracing on,
/// print the timeline and derived metrics, and optionally export the
/// stream as Chrome Trace Event Format JSON (Perfetto-loadable).
fn trace(args: &[String]) {
    let workload = workload_arg(args);
    let mut rest: Vec<String> = args[1..].to_vec();
    let chrome_path = take_value(&mut rest, "--chrome");
    let arrivals_path = take_value(&mut rest, "--arrivals");
    let events_limit: usize = take_parsed(&mut rest, "--events").unwrap_or(400);
    let as_json = take_switch(&mut rest, "--json");
    let opts = suite_options(&rest);
    let seed = opts.seeds[0];
    let cfg = MachineConfig {
        seed,
        ..Preset::C.config(opts.cores, 5)
    };
    let (_, m) = run_benchmark(workload, opts.size, cfg, true);
    let metrics = trace_export::derive_metrics(&m, 8);

    if let Some(path) = &chrome_path {
        let doc = trace_export::chrome_trace(&m, workload, seed);
        let text = doc.to_pretty();
        // Re-validating the written bytes through the in-tree parser keeps
        // the export honest: CI's smoke step relies on this check.
        let summary = trace_export::validate_chrome_trace(&text)
            .unwrap_or_else(|e| fail(format!("exported chrome trace failed validation: {e}")));
        write_file(path, &text);
        eprintln!(
            "wrote {path}: {} chrome events across {} cores (validated)",
            summary.events, summary.cores
        );
    }

    if let Some(path) = &arrivals_path {
        let doc = trace_export::arrival_gaps(&m, workload, seed);
        let gaps = match doc.get("gaps") {
            Some(Json::Arr(g)) => g.len(),
            _ => 0,
        };
        write_file(path, &doc.to_pretty());
        eprintln!("wrote {path}: {gaps} inter-arrival gaps (serve --replay input)");
    }

    if as_json {
        let doc = Json::obj([
            ("benchmark", Json::from(workload)),
            ("cores", Json::from(opts.cores)),
            ("seed", Json::from(seed)),
            ("events_recorded", Json::from(m.trace().recorded())),
            ("events_dropped", Json::from(m.trace().dropped())),
            (
                "digest",
                Json::from(trace_export::digest_hex(m.trace().digest())),
            ),
            ("derived", metrics.to_json()),
        ]);
        println!("{}", doc.to_pretty());
    } else {
        println!(
            "=== trace of {workload} under CLEAR ({} cores, {} input, seed {seed}) ===\n",
            opts.cores,
            clear_harness::experiments::size_str(opts.size),
        );
        print!("{}", trace_export::timeline_text(&m, events_limit));
        println!();
        print!("{}", metrics.to_text());
    }
}

/// `clear-harness analyze <workload>|all`: ahead-of-time static analysis
/// of every AR a workload registers — verdicts, footprint bounds and
/// lints — without executing anything. Exits non-zero when a lint fires.
fn analyze(args: &[String]) {
    let Some(workload) = args.first() else {
        usage()
    };
    let mut rest: Vec<String> = args[1..].to_vec();
    let as_json = take_switch(&mut rest, "--json");
    // `--plan`: also emit the analyzer's StaticPlans (fast-path lock
    // sets, written subsets, root slots, per-backend budget fit).
    let with_plans = take_switch(&mut rest, "--plan");
    let opts = suite_options(&rest);
    let out = analyze_output(workload, &opts, with_plans).unwrap_or_else(|e| usage_error(e));
    if as_json {
        println!("{}", out.json.to_pretty());
    } else {
        print!("{}", out.text);
    }
    if out.failures > 0 {
        std::process::exit(1);
    }
}

fn list() {
    println!("{:16} {:20} {:>7}  about", "name", "artifact", "golden");
    for e in EXPERIMENTS {
        let gated = if e.golden.is_some() { "yes" } else { "-" };
        println!("{:16} {:20} {:>7}  {}", e.name, e.artifact, gated, e.about);
    }
}

fn run(args: &[String]) {
    let Some(name) = args.first() else { usage() };
    let mut rest: Vec<String> = args[1..].to_vec();
    let as_json = take_switch(&mut rest, "--json");
    let opts = suite_options(&rest);
    let selected: Vec<&Experiment> = if name == "all" {
        EXPERIMENTS.iter().collect()
    } else {
        vec![find(name).unwrap_or_else(|| {
            usage_error(format!(
                "unknown experiment {name} (try `clear-harness list`)"
            ))
        })]
    };
    let mut failures = 0;
    for e in selected {
        let out = (e.run)(&opts);
        if as_json {
            // The metrics side-channel is appended to the *printed*
            // document only, never to the golden-compared `out.json`.
            let mut doc = out.json.clone();
            if let (Json::Obj(fields), Some(m)) = (&mut doc, &out.metrics) {
                fields.push(("metrics".to_string(), m.clone()));
            }
            println!("{}", doc.to_pretty());
        } else {
            print!("{}", out.text);
        }
        failures += out.failures;
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Resolves the gated experiments named on the command line (all of them
/// when the list is empty).
fn gated(names: &[String]) -> Vec<&'static Experiment> {
    let all: Vec<&Experiment> = EXPERIMENTS.iter().filter(|e| e.golden.is_some()).collect();
    if names.is_empty() {
        return all;
    }
    names
        .iter()
        .map(|n| {
            *all.iter().find(|e| e.name == *n).unwrap_or_else(|| {
                let gated = gated_names(&all);
                usage_error(format!("{n} is not a gated experiment (gated: {gated})"))
            })
        })
        .collect()
}

fn gated_names(all: &[&Experiment]) -> String {
    all.iter().map(|e| e.name).collect::<Vec<_>>().join(", ")
}

fn update(names: &[String]) {
    for e in gated(names) {
        let opts = (e.golden.expect("gated"))();
        eprintln!("regenerating golden for {} ({})...", e.name, e.artifact);
        let out = (e.run)(&opts);
        match golden::store(e.name, &out.json) {
            Ok(path) => eprintln!("  wrote {}", path.display()),
            Err(e) => fail(format!("  {e}")),
        }
    }
}

fn check(names: &[String]) {
    // Only a full check knows every owner, so only it can call a file stale.
    let stale = if names.is_empty() {
        let owned: Vec<&str> = gated(names).iter().map(|e| e.name).collect();
        golden::stale(&golden::goldens_dir(), &owned)
    } else {
        Vec::new()
    };
    for file in &stale {
        eprintln!("goldens/{file}: no gated experiment owns it (delete it)");
    }
    let mut drifted = 0usize;
    for e in gated(names) {
        let baseline = match golden::load(e.name) {
            Ok(b) => b,
            Err(msg) => {
                eprintln!("{}: {msg}", e.name);
                eprintln!(
                    "  (run `clear-harness golden update {}` to create it)",
                    e.name
                );
                drifted += 1;
                continue;
            }
        };
        let opts = (e.golden.expect("gated"))();
        eprintln!(
            "checking {} against {}...",
            e.name,
            golden::golden_path(e.name).display()
        );
        let out = (e.run)(&opts);
        let drifts = golden::compare(&baseline, &out.json);
        if drifts.is_empty() {
            eprintln!("  ok");
        } else {
            drifted += 1;
            eprintln!("  {} drift(s):", drifts.len());
            for d in drifts.iter().take(25) {
                eprintln!("    {d}");
            }
            if drifts.len() > 25 {
                eprintln!("    ... {} more", drifts.len() - 25);
            }
        }
    }
    if drifted > 0 || !stale.is_empty() {
        eprintln!(
            "\ngolden check FAILED: {drifted} experiment(s) drifted, {} stale golden(s)",
            stale.len()
        );
        std::process::exit(1);
    }
    eprintln!("\nall golden checks passed");
}
