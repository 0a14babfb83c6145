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
    analyze_output, find, fuzz_output, matrix_output, parse_seed, replay_output, Experiment,
    EXPERIMENTS,
};
use clear_harness::json::Json;
use clear_harness::serve::{serve_session, ServeOptions};
use clear_harness::{bench_out, golden, metrics_export, run_benchmark, trace_export, SuiteOptions};
use clear_machine::{MachineConfig, Preset};
use clear_workloads::BENCHMARK_NAMES;

fn usage() -> ! {
    eprintln!(
        "usage:\n  clear-harness list\n  clear-harness run <name>|all \
         [--size tiny|small|medium] [--cores N] [--seeds N]\n      \
         [--sweep full|quick|none] [--bench NAME] [--workers N] [--json]\n  \
         clear-harness serve <workload> [--size ...] [--cores N] [--seeds N]\n      \
         [--ars N] [--batch N] [--queue N] [--rate CYCLES] [--replay FILE]\n      \
         [--snapshot-out FILE] [--prom-out FILE] [--bench-out FILE] [--json]\n  \
         clear-harness trace <workload> [--size ...] [--cores N] [--seeds N]\n      \
         [--chrome FILE] [--arrivals FILE] [--events N] [--json]\n  \
         clear-harness analyze <workload>|all [--size ...] [--cores N] [--seeds N]\n      \
         [--plan] [--json]\n  \
         clear-harness fuzz [--seed S] [--count N] [--cores N] [--workers N] [--json]\n      \
         [--matrix] [--out FILE] [--bench-out FILE] [--repro-dir DIR] [--replay FILE]\n  \
         clear-harness golden update [names...]\n  clear-harness check [names...]"
    );
    std::process::exit(2);
}

/// The suite options in `args`; a usage error exits 2.
fn suite_options(args: &[String]) -> SuiteOptions {
    SuiteOptions::from_arg_slice(args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
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
        eprintln!("missing value for {flag}");
        std::process::exit(2);
    }
    let v = rest.remove(i + 1);
    rest.remove(i);
    Some(v)
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
        eprintln!(
            "unknown benchmark {name} (known: {})",
            BENCHMARK_NAMES.join(", ")
        );
        std::process::exit(2);
    }
    name
}

/// `clear-harness fuzz`: differential fuzzing of the AR semantics — the
/// clear-isa VM vs the full machine under contention vs the static
/// analyzer. The report itself is deterministic; only `BENCH_fuzz.json`
/// carries wall-clock throughput.
fn fuzz(args: &[String]) {
    let mut rest: Vec<String> = args.to_vec();
    let seed_str = take_value(&mut rest, "--seed").unwrap_or_else(|| "0xC1EAR".to_string());
    let count: u64 = take_value(&mut rest, "--count")
        .map(|v| v.parse().expect("--count N"))
        .unwrap_or(256);
    let workers: usize = take_value(&mut rest, "--workers")
        .map(|v| v.parse::<usize>().expect("--workers N").max(1))
        .unwrap_or_else(clear_harness::pool::default_workers);
    // 0 (the default) keeps each case's own contended thread count; a
    // positive value widens every contended phase to that many cores.
    let cores: usize = take_value(&mut rest, "--cores")
        .map(|v| v.parse::<usize>().expect("--cores N"))
        .unwrap_or(0);
    let out_path = take_value(&mut rest, "--out");
    let bench_path = take_value(&mut rest, "--bench-out");
    let repro_dir = take_value(&mut rest, "--repro-dir");
    let replay_path = take_value(&mut rest, "--replay");
    let as_json = take_switch(&mut rest, "--json");
    // `--matrix`: run each case through every speculation backend via the
    // backend-differential oracle instead of the single-config oracle.
    let matrix = take_switch(&mut rest, "--matrix");
    if !rest.is_empty() {
        eprintln!("unknown fuzz option {}", rest[0]);
        std::process::exit(2);
    }
    if matrix && (replay_path.is_some() || cores != 0) {
        eprintln!("--matrix runs cases at their own thread counts; drop --replay/--cores");
        std::process::exit(2);
    }

    let started = std::time::Instant::now();
    let (out, cases_run) = match &replay_path {
        Some(path) => {
            let entries = read_corpus(path);
            let n = entries.len() as u64;
            (replay_output(&entries, workers), n)
        }
        None if matrix => (matrix_output(&seed_str, count, workers), count),
        None => (fuzz_output(&seed_str, count, workers, cores), count),
    };
    let wall = started.elapsed();

    if as_json {
        println!("{}", out.json.to_pretty());
    } else {
        print!("{}", out.text);
    }
    if let Some(path) = &out_path {
        write_file(path, &out.json.to_pretty());
        eprintln!("wrote {path}");
    }
    if let Some(path) = &bench_path {
        let steps =
            int_field(&out.json, "machine_instructions") + int_field(&out.json, "reference_steps");
        let secs = wall.as_secs_f64().max(1e-9);
        let row = Json::obj([
            ("cases", Json::from(cases_run)),
            ("workers", Json::from(workers)),
            ("wall_ns", Json::from(wall.as_nanos() as u64)),
            ("steps", Json::from(steps)),
            ("programs_per_sec", Json::Float(cases_run as f64 / secs)),
            ("steps_per_sec", Json::Float(steps as f64 / secs)),
        ]);
        let bench = bench_out::bench_doc(
            if matrix { "fuzz-matrix" } else { "fuzz" },
            "programs/s",
            &seed_str,
            vec![row],
        );
        write_file(path, &bench.to_pretty());
        eprintln!("wrote {path}");
    }
    if let Some(dir) = &repro_dir {
        if let Some(Json::Arr(failures)) = out.json.get("failures") {
            if !failures.is_empty() {
                std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                    eprintln!("cannot create {dir}: {e}");
                    std::process::exit(1);
                });
                // `fuzz` and `fuzz --matrix` may share one directory, so
                // the report's command is part of the name.
                let command = match out.json.get("command") {
                    Some(Json::Str(c)) => c.as_str(),
                    _ => "fuzz",
                };
                for f in failures {
                    let Some(Json::Int(index)) = f.get("index") else {
                        continue;
                    };
                    let seed = seed_str.replace("0x", "");
                    let path = format!("{dir}/repro-{command}-{seed}-{index}.json");
                    write_file(&path, &f.to_pretty());
                    eprintln!("wrote reproducer {path}");
                }
            }
        }
    }
    if out.failures > 0 {
        std::process::exit(1);
    }
}

/// Reads a regression-corpus JSON file: `{"entries": [{"name", "seed",
/// "index"}, ...]}`, with seeds in any `parse_seed` spelling.
fn read_corpus(path: &str) -> Vec<(String, u64, u64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read corpus {path}: {e}");
        std::process::exit(2);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("corpus {path} is not valid JSON: {e}");
        std::process::exit(2);
    });
    let Some(Json::Arr(entries)) = doc.get("entries") else {
        eprintln!("corpus {path}: missing entries array");
        std::process::exit(2);
    };
    entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let name = match e.get("name") {
                Some(Json::Str(s)) => s.clone(),
                _ => format!("entry-{i}"),
            };
            let seed = match e.get("seed") {
                Some(Json::Str(s)) => parse_seed(s),
                Some(Json::Int(v)) => *v as u64,
                _ => {
                    eprintln!("corpus {path}: entry {i} has no seed");
                    std::process::exit(2);
                }
            };
            let index = match e.get("index") {
                Some(Json::Int(v)) => *v as u64,
                _ => {
                    eprintln!("corpus {path}: entry {i} has no index");
                    std::process::exit(2);
                }
            };
            (name, seed, index)
        })
        .collect()
}

fn int_field(doc: &Json, key: &str) -> u64 {
    match doc.get(key) {
        Some(Json::Int(v)) => *v as u64,
        _ => 0,
    }
}

fn write_file(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
}

/// `clear-harness serve <workload>`: the bounded-memory trace-replay /
/// open-loop service loop with streaming time-to-commit percentiles.
/// Memory use is independent of `--ars`, so million-AR sessions are fine.
fn serve(args: &[String]) {
    let workload = workload_arg(args);
    let mut rest: Vec<String> = args[1..].to_vec();
    let total_ars: u64 = take_value(&mut rest, "--ars")
        .map(|v| v.parse().expect("--ars N"))
        .unwrap_or(4096);
    let batch: usize = take_value(&mut rest, "--batch")
        .map(|v| v.parse().expect("--batch N"))
        .unwrap_or(256);
    let queue: usize = take_value(&mut rest, "--queue")
        .map(|v| v.parse().expect("--queue N"))
        .unwrap_or(512);
    let rate: u64 = take_value(&mut rest, "--rate")
        .map(|v| v.parse().expect("--rate CYCLES"))
        .unwrap_or(24);
    let replay_gaps = take_value(&mut rest, "--replay").map(|path| read_gaps(&path));
    let snapshot_path = take_value(&mut rest, "--snapshot-out");
    let prom_path = take_value(&mut rest, "--prom-out");
    let bench_path = take_value(&mut rest, "--bench-out");
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
        let summary = metrics_export::validate_prometheus(&text).unwrap_or_else(|e| {
            eprintln!("prometheus exposition failed validation: {e}");
            std::process::exit(1);
        });
        write_file(path, &text);
        eprintln!(
            "wrote {path}: {} samples across {} families (validated)",
            summary.samples, summary.families
        );
    }
    if let Some(path) = &bench_path {
        let doc = bench_out::bench_doc(
            "serve",
            "ars/s",
            &sopts.seed.to_string(),
            report.trajectory.iter().map(|row| row.to_json()).collect(),
        );
        write_file(path, &doc.to_pretty());
        eprintln!("wrote {path}");
    }
}

/// Reads a `trace --arrivals` document (`{"workload", "seed", "gaps"}`)
/// back into the gap list `serve --replay` cycles through.
fn read_gaps(path: &str) -> Vec<u64> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read arrivals {path}: {e}");
        std::process::exit(2);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("arrivals {path} is not valid JSON: {e}");
        std::process::exit(2);
    });
    let Some(Json::Arr(gaps)) = doc.get("gaps") else {
        eprintln!("arrivals {path}: missing gaps array");
        std::process::exit(2);
    };
    let gaps: Vec<u64> = gaps
        .iter()
        .filter_map(|g| match g {
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        })
        .collect();
    if gaps.is_empty() {
        eprintln!("arrivals {path}: no usable gaps");
        std::process::exit(2);
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
    let events_limit: usize = take_value(&mut rest, "--events")
        .map(|v| v.parse().expect("--events N"))
        .unwrap_or(400);
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
        let summary = trace_export::validate_chrome_trace(&text).unwrap_or_else(|e| {
            eprintln!("exported chrome trace failed validation: {e}");
            std::process::exit(1);
        });
        std::fs::write(path, &text).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
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
    let out = analyze_output(workload, &opts, with_plans).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
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
            eprintln!("unknown experiment {name} (try `clear-harness list`)");
            std::process::exit(2);
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
                eprintln!(
                    "{n} is not a gated experiment (gated: {})",
                    gated_names(&all)
                );
                std::process::exit(2);
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
            Err(e) => {
                eprintln!("  {e}");
                std::process::exit(1);
            }
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
