//! Consumers of the machine's execution trace: a Chrome Trace Event
//! Format exporter (loadable in Perfetto / `chrome://tracing`), a
//! deterministic plain-text timeline renderer, and a per-AR derived
//! metrics pass (attempt-latency histograms by retry mode, time to first
//! commit, conflict hot lines).
//!
//! Everything here is a pure function of the recorded
//! [`Trace`](clear_machine::Trace), so all three outputs are
//! byte-reproducible across runs and hosts. The exporter emits through
//! the in-tree [`Json`] writer; the round trip through [`Json::parse`]
//! doubles as a structural self-check in tests and in CI's trace smoke
//! step.

use crate::json::Json;
use clear_core::RetryMode;
use clear_machine::{Machine, TraceEvent};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Exports the trace's AR arrival process as an inter-arrival gap
/// document for `clear-harness serve --replay`: every `ArFetched` cycle
/// across all cores, globally sorted, reduced to consecutive deltas. The
/// recorded workload's own fetch schedule thereby becomes a replayable
/// open-loop arrival trace (`{"workload", "seed", "gaps": [...]}`).
pub fn arrival_gaps(m: &Machine, benchmark: &str, seed: u64) -> Json {
    let mut cycles: Vec<u64> = m
        .trace()
        .records()
        .filter(|r| matches!(r.event, TraceEvent::ArFetched { .. }))
        .map(|r| r.cycle)
        .collect();
    cycles.sort_unstable();
    let gaps: Vec<Json> = cycles.windows(2).map(|w| Json::from(w[1] - w[0])).collect();
    Json::obj([
        ("workload", Json::from(benchmark)),
        ("seed", Json::from(seed)),
        ("gaps", Json::Arr(gaps)),
    ])
}

/// Exports the recorded trace as a Chrome Trace Event Format document.
///
/// Attempts become duration slices (`ph:"B"`/`ph:"E"`) on one thread
/// track per core; every other event is a thread-scoped instant
/// (`ph:"i"`). Timestamps are simulated cycles used directly as `ts`
/// values, so per-core timestamps are monotonically non-decreasing by
/// construction (each core's clock only advances).
pub fn chrome_trace(m: &Machine, benchmark: &str, seed: u64) -> Json {
    let mut events: Vec<Json> = Vec::new();
    let mut cores_seen: Vec<usize> = m.trace().records().map(|r| r.core).collect();
    cores_seen.sort_unstable();
    cores_seen.dedup();
    for &core in &cores_seen {
        events.push(Json::obj([
            ("name", Json::from("thread_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(0u64)),
            ("tid", Json::from(core)),
            (
                "args",
                Json::obj([("name", Json::from(format!("core{core}")))]),
            ),
        ]));
    }
    // Per-core stack of open attempt slices, so every `E` carries the
    // matching `B`'s name even though abort events do not repeat the mode.
    let mut open: HashMap<usize, Vec<String>> = HashMap::new();
    let mut last_cycle: HashMap<usize, u64> = HashMap::new();
    let common = |name: String, ph: &str, cycle: u64, core: usize| {
        vec![
            ("name".to_string(), Json::from(name)),
            ("ph".to_string(), Json::from(ph)),
            ("ts".to_string(), Json::from(cycle)),
            ("pid".to_string(), Json::from(0u64)),
            ("tid".to_string(), Json::from(core)),
        ]
    };
    let instant = |name: String, cycle: u64, core: usize, args: Json| {
        let mut pairs = common(name, "i", cycle, core);
        pairs.push(("s".to_string(), Json::from("t")));
        pairs.push(("args".to_string(), args));
        Json::Obj(pairs)
    };
    for r in m.trace().records() {
        last_cycle.insert(r.core, r.cycle);
        match &r.event {
            TraceEvent::AttemptStart { mode } => {
                let name = format!("attempt {mode}");
                let mut pairs = common(name.clone(), "B", r.cycle, r.core);
                pairs.push((
                    "args".to_string(),
                    Json::obj([("mode", Json::from(mode.to_string()))]),
                ));
                events.push(Json::Obj(pairs));
                open.entry(r.core).or_default().push(name);
            }
            TraceEvent::Commit { mode, retries } => {
                let args = Json::obj([
                    ("outcome", Json::from("commit")),
                    ("mode", Json::from(mode.to_string())),
                    ("retries", Json::from(*retries)),
                ]);
                match open.get_mut(&r.core).and_then(Vec::pop) {
                    Some(name) => {
                        let mut pairs = common(name, "E", r.cycle, r.core);
                        pairs.push(("args".to_string(), args));
                        events.push(Json::Obj(pairs));
                    }
                    None => events.push(instant("commit".to_string(), r.cycle, r.core, args)),
                }
            }
            TraceEvent::Abort { kind, span } => {
                let args = Json::obj([
                    ("outcome", Json::from("abort")),
                    ("kind", Json::from(kind.name())),
                    ("span_cycles", Json::from(*span)),
                ]);
                match open.get_mut(&r.core).and_then(Vec::pop) {
                    Some(name) => {
                        let mut pairs = common(name, "E", r.cycle, r.core);
                        pairs.push(("args".to_string(), args));
                        events.push(Json::Obj(pairs));
                    }
                    None => events.push(instant("abort".to_string(), r.cycle, r.core, args)),
                }
            }
            TraceEvent::ArFetched { ar } => {
                events.push(instant(
                    format!("fetch {ar}"),
                    r.cycle,
                    r.core,
                    Json::obj([("ar", Json::from(ar.to_string()))]),
                ));
            }
            TraceEvent::ConflictReceived { line, aggressor } => {
                events.push(instant(
                    "conflict".to_string(),
                    r.cycle,
                    r.core,
                    Json::obj([
                        ("line", Json::from(line.to_string())),
                        ("aggressor", Json::from(*aggressor)),
                    ]),
                ));
            }
            TraceEvent::EnterFailedMode => {
                events.push(instant(
                    "enter-failed-mode".to_string(),
                    r.cycle,
                    r.core,
                    Json::obj(Vec::<(&str, Json)>::new()),
                ));
            }
            TraceEvent::Decision {
                ar,
                mode,
                footprint,
                immutable,
            } => {
                events.push(instant(
                    format!("decide {ar}"),
                    r.cycle,
                    r.core,
                    Json::obj([
                        ("ar", Json::from(ar.to_string())),
                        ("mode", Json::from(mode.to_string())),
                        ("footprint", Json::from(*footprint)),
                        ("immutable", Json::from(*immutable)),
                    ]),
                ));
            }
            TraceEvent::DiscoveryElided { ar, eager } => {
                events.push(instant(
                    format!("elide-discovery {ar}"),
                    r.cycle,
                    r.core,
                    Json::obj([
                        ("ar", Json::from(ar.to_string())),
                        ("eager", Json::from(*eager)),
                    ]),
                ));
            }
            TraceEvent::LockAcquired { line, wait_cycles } => {
                events.push(instant(
                    "lock".to_string(),
                    r.cycle,
                    r.core,
                    Json::obj([
                        ("line", Json::from(line.to_string())),
                        ("wait_cycles", Json::from(*wait_cycles)),
                    ]),
                ));
            }
        }
    }
    // A truncated ring can leave attempts without their closing event;
    // close them at the core's last seen cycle so the document stays
    // balanced for slice-based viewers.
    let mut dangling: Vec<usize> = open
        .iter()
        .filter(|(_, stack)| !stack.is_empty())
        .map(|(&core, _)| core)
        .collect();
    dangling.sort_unstable();
    for core in dangling {
        let cycle = last_cycle.get(&core).copied().unwrap_or(0);
        while let Some(name) = open.get_mut(&core).and_then(Vec::pop) {
            let mut pairs = common(name, "E", cycle, core);
            pairs.push((
                "args".to_string(),
                Json::obj([("outcome", Json::from("truncated"))]),
            ));
            events.push(Json::Obj(pairs));
        }
    }
    Json::obj([
        ("displayTimeUnit", Json::from("ns")),
        (
            "otherData",
            Json::obj([
                ("benchmark", Json::from(benchmark)),
                ("seed", Json::from(seed)),
                ("events_recorded", Json::from(m.trace().recorded())),
                ("events_dropped", Json::from(m.trace().dropped())),
                ("digest", Json::from(digest_hex(m.trace().digest()))),
            ]),
        ),
        ("traceEvents", Json::Arr(events)),
    ])
}

/// Renders the first `limit` retained records as a fixed-width timeline,
/// followed by a recorded/dropped/digest footer.
pub fn timeline_text(m: &Machine, limit: usize) -> String {
    let mut text = String::new();
    let total = m.trace().len();
    let shown = total.min(limit);
    let _ = writeln!(text, "{:>10}  {:6}  event", "cycle", "core");
    for r in m.trace().records().take(shown) {
        let _ = writeln!(text, "{:>10}  core{:<2}  {}", r.cycle, r.core, r.event);
    }
    if total > shown {
        let _ = writeln!(text, "... {} more retained records", total - shown);
    }
    let _ = writeln!(
        text,
        "{} events recorded, {} dropped by the ring, digest {}",
        m.trace().recorded(),
        m.trace().dropped(),
        digest_hex(m.trace().digest()),
    );
    text
}

/// A `u64` digest in its canonical textual form (16 hex digits): JSON
/// integers are `i64`, so digests travel as strings.
pub fn digest_hex(d: u64) -> String {
    format!("{d:016x}")
}

/// Per-mode attempt-latency aggregate.
#[derive(Clone, Debug, Default)]
pub struct ModeLatency {
    /// Attempts started in this mode.
    pub attempts: u64,
    /// Attempts that committed.
    pub commits: u64,
    /// Attempts that aborted.
    pub aborts: u64,
    /// Sum of finished-attempt latencies in cycles.
    pub total_cycles: u64,
    /// Shortest finished attempt.
    pub min_cycles: u64,
    /// Longest finished attempt.
    pub max_cycles: u64,
    /// Log2-bucketed latency histogram: bucket `i` counts finished
    /// attempts with latency in `[2^i, 2^(i+1))` (bucket 0 also holds
    /// zero-cycle attempts).
    pub hist_log2: [u64; 32],
}

impl ModeLatency {
    fn add(&mut self, latency: u64) {
        self.total_cycles += latency;
        if self.commits + self.aborts == 1 || latency < self.min_cycles {
            self.min_cycles = latency;
        }
        self.max_cycles = self.max_cycles.max(latency);
        let bucket = (64 - latency.leading_zeros()).saturating_sub(1).min(31);
        self.hist_log2[bucket as usize] += 1;
    }
}

/// Per-AR outcome aggregate.
#[derive(Clone, Debug, Default)]
pub struct ArOutcome {
    /// Invocations fetched.
    pub fetched: u64,
    /// Invocations committed.
    pub commits: u64,
    /// Cycle of the first commit of this AR anywhere in the run.
    pub first_commit_cycle: Option<u64>,
    /// Sum of fetch-to-commit latencies.
    pub total_fetch_to_commit: u64,
}

/// One contended cacheline.
#[derive(Clone, Debug)]
pub struct HotLine {
    /// The line, rendered as the machine prints it (`L0x…`).
    pub line: String,
    /// Conflicts received for this line.
    pub conflicts: u64,
    /// The core that caused the most of them (lowest id wins ties).
    pub top_aggressor: usize,
}

/// Derived metrics computed in one pass over the trace.
#[derive(Clone, Debug)]
pub struct DerivedMetrics {
    /// Latency aggregates in fixed mode order (speculative, NS-CL, S-CL,
    /// fallback).
    pub by_mode: [(RetryMode, ModeLatency); 4],
    /// Per-AR outcomes, ordered by AR id.
    pub per_ar: Vec<(u32, ArOutcome)>,
    /// The `top_k` most conflicted lines, most contended first.
    pub hot_lines: Vec<HotLine>,
}

const MODE_ORDER: [RetryMode; 4] = [
    RetryMode::SpeculativeRetry,
    RetryMode::NsCl,
    RetryMode::SCl,
    RetryMode::Fallback,
];

/// Computes the derived metrics for a finished traced run.
pub fn derive_metrics(m: &Machine, top_k: usize) -> DerivedMetrics {
    let mode_slot = |mode: RetryMode| MODE_ORDER.iter().position(|&o| o == mode).expect("mode");
    let mut by_mode: [(RetryMode, ModeLatency); 4] =
        MODE_ORDER.map(|mode| (mode, ModeLatency::default()));
    // Per-core in-flight state: the running attempt and the fetched AR.
    let mut attempt: HashMap<usize, (RetryMode, u64)> = HashMap::new();
    let mut fetched: HashMap<usize, (u32, u64)> = HashMap::new();
    let mut per_ar: HashMap<u32, ArOutcome> = HashMap::new();
    let mut lines: HashMap<u64, (String, u64, HashMap<usize, u64>)> = HashMap::new();
    for r in m.trace().records() {
        match &r.event {
            TraceEvent::ArFetched { ar } => {
                fetched.insert(r.core, (ar.0, r.cycle));
                per_ar.entry(ar.0).or_default().fetched += 1;
            }
            TraceEvent::AttemptStart { mode } => {
                attempt.insert(r.core, (*mode, r.cycle));
                by_mode[mode_slot(*mode)].1.attempts += 1;
            }
            TraceEvent::Abort { kind: _, span } => {
                if let Some((mode, _)) = attempt.remove(&r.core) {
                    let agg = &mut by_mode[mode_slot(mode)].1;
                    agg.aborts += 1;
                    agg.add(*span);
                }
            }
            TraceEvent::Commit { .. } => {
                if let Some((mode, start)) = attempt.remove(&r.core) {
                    let agg = &mut by_mode[mode_slot(mode)].1;
                    agg.commits += 1;
                    agg.add(r.cycle.saturating_sub(start));
                }
                if let Some((ar, fetch_cycle)) = fetched.remove(&r.core) {
                    let slot = per_ar.entry(ar).or_default();
                    slot.commits += 1;
                    slot.total_fetch_to_commit += r.cycle.saturating_sub(fetch_cycle);
                    slot.first_commit_cycle = Some(match slot.first_commit_cycle {
                        Some(c) => c.min(r.cycle),
                        None => r.cycle,
                    });
                }
            }
            TraceEvent::ConflictReceived { line, aggressor } => {
                let slot = lines
                    .entry(line.0)
                    .or_insert_with(|| (line.to_string(), 0, HashMap::new()));
                slot.1 += 1;
                *slot.2.entry(*aggressor).or_default() += 1;
            }
            _ => {}
        }
    }
    let mut per_ar: Vec<(u32, ArOutcome)> = per_ar.into_iter().collect();
    per_ar.sort_unstable_by_key(|(ar, _)| *ar);
    let mut hot: Vec<(u64, String, u64, HashMap<usize, u64>)> = lines
        .into_iter()
        .map(|(addr, (text, count, aggs))| (addr, text, count, aggs))
        .collect();
    // Most contended first; the address breaks ties deterministically.
    hot.sort_unstable_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
    hot.truncate(top_k);
    let hot_lines = hot
        .into_iter()
        .map(|(_, line, conflicts, aggs)| {
            let top_aggressor = aggs
                .iter()
                .map(|(&core, &n)| (n, std::cmp::Reverse(core)))
                .max()
                .map(|(_, std::cmp::Reverse(core))| core)
                .expect("nonzero conflicts");
            HotLine {
                line,
                conflicts,
                top_aggressor,
            }
        })
        .collect();
    DerivedMetrics {
        by_mode,
        per_ar,
        hot_lines,
    }
}

impl DerivedMetrics {
    /// The metrics as an insertion-ordered JSON document (the shape the
    /// `trace` subcommand embeds in its `--json` output).
    pub fn to_json(&self) -> Json {
        let modes = self.by_mode.iter().map(|(mode, agg)| {
            let finished = agg.commits + agg.aborts;
            let mean = if finished == 0 {
                0.0
            } else {
                agg.total_cycles as f64 / finished as f64
            };
            let top = agg
                .hist_log2
                .iter()
                .rposition(|&n| n > 0)
                .map_or(0, |i| i + 1);
            Json::obj([
                ("mode", Json::from(mode.to_string())),
                ("attempts", Json::from(agg.attempts)),
                ("commits", Json::from(agg.commits)),
                ("aborts", Json::from(agg.aborts)),
                ("min_cycles", Json::from(agg.min_cycles)),
                ("max_cycles", Json::from(agg.max_cycles)),
                ("mean_cycles", Json::Float(mean)),
                (
                    "hist_log2",
                    Json::arr(agg.hist_log2[..top].iter().map(|&n| Json::from(n))),
                ),
            ])
        });
        let ars = self.per_ar.iter().map(|(ar, o)| {
            let mean = if o.commits == 0 {
                0.0
            } else {
                o.total_fetch_to_commit as f64 / o.commits as f64
            };
            Json::obj([
                ("ar", Json::from(format!("AR{ar}"))),
                ("fetched", Json::from(o.fetched)),
                ("commits", Json::from(o.commits)),
                (
                    "first_commit_cycle",
                    o.first_commit_cycle.map_or(Json::Null, Json::from),
                ),
                ("mean_fetch_to_commit", Json::Float(mean)),
            ])
        });
        let hot = self.hot_lines.iter().map(|h| {
            Json::obj([
                ("line", Json::from(h.line.clone())),
                ("conflicts", Json::from(h.conflicts)),
                ("top_aggressor", Json::from(h.top_aggressor)),
            ])
        });
        Json::obj([
            ("attempt_latency_by_mode", Json::arr(modes)),
            ("per_ar", Json::arr(ars)),
            ("hot_lines", Json::arr(hot)),
        ])
    }

    /// A compact human-readable rendering of [`DerivedMetrics::to_json`].
    pub fn to_text(&self) -> String {
        let mut text = String::new();
        let _ = writeln!(text, "--- attempt latency by mode ---");
        let _ = writeln!(
            text,
            "{:12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
            "mode", "attempts", "commits", "aborts", "min", "max", "mean"
        );
        for (mode, agg) in &self.by_mode {
            if agg.attempts == 0 {
                continue;
            }
            let finished = agg.commits + agg.aborts;
            let mean = if finished == 0 {
                0.0
            } else {
                agg.total_cycles as f64 / finished as f64
            };
            let _ = writeln!(
                text,
                "{:12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10.1}",
                mode.to_string(),
                agg.attempts,
                agg.commits,
                agg.aborts,
                agg.min_cycles,
                agg.max_cycles,
                mean
            );
        }
        let _ = writeln!(text, "--- per AR ---");
        let _ = writeln!(
            text,
            "{:6} {:>9} {:>9} {:>14} {:>16}",
            "ar", "fetched", "commits", "first-commit", "mean-to-commit"
        );
        for (ar, o) in &self.per_ar {
            let mean = if o.commits == 0 {
                0.0
            } else {
                o.total_fetch_to_commit as f64 / o.commits as f64
            };
            let first = o
                .first_commit_cycle
                .map_or("-".to_string(), |c| c.to_string());
            let _ = writeln!(
                text,
                "{:6} {:>9} {:>9} {:>14} {:>16.1}",
                format!("AR{ar}"),
                o.fetched,
                o.commits,
                first,
                mean
            );
        }
        if !self.hot_lines.is_empty() {
            let _ = writeln!(text, "--- conflict hot lines ---");
            let _ = writeln!(
                text,
                "{:12} {:>10} {:>14}",
                "line", "conflicts", "top aggressor"
            );
            for h in &self.hot_lines {
                let _ = writeln!(
                    text,
                    "{:12} {:>10} {:>14}",
                    h.line,
                    h.conflicts,
                    format!("core{}", h.top_aggressor)
                );
            }
        }
        text
    }
}

/// Structural validation of an exported Chrome-trace document, used by
/// the `trace` subcommand after writing the file and by CI's smoke step:
/// the in-tree parser must accept it, every participating core must have
/// at least one event, and per-core timestamps must be monotonically
/// non-decreasing.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceSummary, String> {
    let doc = Json::parse(text)?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("missing traceEvents array".to_string());
    };
    let mut last_ts: HashMap<i64, i64> = HashMap::new();
    let mut per_core: HashMap<i64, u64> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        let Some(Json::Str(ph)) = e.get("ph") else {
            return Err(format!("event {i}: missing ph"));
        };
        let Some(Json::Int(tid)) = e.get("tid") else {
            return Err(format!("event {i}: missing tid"));
        };
        if ph == "M" {
            continue;
        }
        let Some(Json::Int(ts)) = e.get("ts") else {
            return Err(format!("event {i}: missing ts"));
        };
        if let Some(prev) = last_ts.get(tid) {
            if ts < prev {
                return Err(format!(
                    "event {i}: core {tid} timestamp went backwards ({prev} -> {ts})"
                ));
            }
        }
        last_ts.insert(*tid, *ts);
        *per_core.entry(*tid).or_default() += 1;
    }
    if per_core.is_empty() {
        return Err("no timed events".to_string());
    }
    if let Some((&core, _)) = per_core.iter().find(|(_, &n)| n == 0) {
        return Err(format!("core {core} has no events"));
    }
    Ok(ChromeTraceSummary {
        events: events.len(),
        cores: per_core.len(),
    })
}

/// What [`validate_chrome_trace`] measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Total events in the document (including metadata records).
    pub events: usize,
    /// Distinct cores with at least one timed event.
    pub cores: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::run_benchmark;
    use clear_machine::Preset;
    use clear_workloads::Size;

    fn traced() -> Machine {
        run_benchmark("arrayswap", Size::Tiny, Preset::C.config(8, 5), true).1
    }

    #[test]
    fn chrome_export_roundtrips_and_validates() {
        let m = traced();
        let doc = chrome_trace(&m, "arrayswap", 1);
        let text = doc.to_pretty();
        let summary = validate_chrome_trace(&text).expect("valid document");
        assert!(summary.events > 0);
        assert!(summary.cores >= 2, "8-core arrayswap must involve cores");
        // Round trip through the in-tree parser is lossless.
        assert_eq!(Json::parse(&text).expect("parse"), doc);
    }

    #[test]
    fn chrome_slices_balance_per_core() {
        let m = traced();
        let doc = chrome_trace(&m, "arrayswap", 1);
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("missing traceEvents");
        };
        let mut depth: HashMap<i64, i64> = HashMap::new();
        for e in events {
            let Some(Json::Int(tid)) = e.get("tid") else {
                panic!("missing tid");
            };
            match e.get("ph") {
                Some(Json::Str(ph)) if ph == "B" => *depth.entry(*tid).or_default() += 1,
                Some(Json::Str(ph)) if ph == "E" => {
                    let d = depth.entry(*tid).or_default();
                    *d -= 1;
                    assert!(*d >= 0, "E without B on core {tid}");
                }
                _ => {}
            }
        }
        assert!(depth.values().all(|&d| d == 0), "unbalanced slices");
    }

    #[test]
    fn derived_metrics_are_consistent_with_stats() {
        let m = traced();
        let d = derive_metrics(&m, 8);
        let commits: u64 = d.by_mode.iter().map(|(_, a)| a.commits).sum();
        assert!(commits > 0);
        // Histogram mass equals finished attempts.
        for (_, agg) in &d.by_mode {
            let mass: u64 = agg.hist_log2.iter().sum();
            assert_eq!(mass, agg.commits + agg.aborts);
        }
        // Every AR that committed has a first-commit cycle.
        for (ar, o) in &d.per_ar {
            if o.commits > 0 {
                assert!(o.first_commit_cycle.is_some(), "AR{ar}");
            }
            assert!(o.commits <= o.fetched, "AR{ar}");
        }
        // Hot lines come most-contended first.
        for pair in d.hot_lines.windows(2) {
            assert!(pair[0].conflicts >= pair[1].conflicts);
        }
        let json = d.to_json();
        assert!(json.get("attempt_latency_by_mode").is_some());
        assert!(!d.to_text().is_empty());
    }

    #[test]
    fn timeline_truncates_at_limit() {
        let m = traced();
        let full = timeline_text(&m, usize::MAX);
        let short = timeline_text(&m, 5);
        assert!(short.len() < full.len());
        assert!(short.contains("more retained records"));
        assert!(short.contains("digest"));
    }

    #[test]
    fn validator_rejects_backwards_timestamps() {
        let doc = Json::obj([(
            "traceEvents",
            Json::arr([
                Json::obj([
                    ("name", Json::from("a")),
                    ("ph", Json::from("i")),
                    ("ts", Json::from(10u64)),
                    ("pid", Json::from(0u64)),
                    ("tid", Json::from(1u64)),
                ]),
                Json::obj([
                    ("name", Json::from("b")),
                    ("ph", Json::from("i")),
                    ("ts", Json::from(9u64)),
                    ("pid", Json::from(0u64)),
                    ("tid", Json::from(1u64)),
                ]),
            ]),
        )]);
        let err = validate_chrome_trace(&doc.to_pretty()).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn digest_hex_is_fixed_width() {
        assert_eq!(digest_hex(0), "0000000000000000");
        assert_eq!(digest_hex(u64::MAX), "ffffffffffffffff");
        assert_eq!(digest_hex(0xdead_beef), "00000000deadbeef");
    }
}
