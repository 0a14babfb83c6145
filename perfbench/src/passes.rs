//! The benchmark's four workloads: what one pass builds, runs and checks.
//!
//! A pass reaches the workspace only through public calls, each inside a
//! span: `clear_workloads::by_name`, `clear_harness::suite::benchmark_plans`,
//! `Machine::new`/`run`/`take_metrics`, `Workload::validate`,
//! `MetricsRegistry::merge` and `clear_harness::serve::serve_session`.

use crate::spans::Spans;
use clear_harness::json::Json;
use clear_harness::serve::{serve_session, ServeOptions, ServeReport};
use clear_harness::suite::benchmark_plans;
use clear_htm::AbortKind;
use clear_isa::{ArInvocation, Workload, WorkloadMeta};
use clear_machine::{BackendId, Machine, MachineConfig, RunStats, TraceEvent};
use clear_mem::rng::Xoshiro256PlusPlus;
use clear_mem::Memory;
use clear_metrics::{families, Log2Hist, MetricKey, MetricValue, MetricsRegistry};
use clear_workloads::{by_name, Size};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// Retry threshold of every machine (the harness default).
const MAX_RETRIES: u32 = 5;

/// Trace ring capacity of audit runs. No run of the benchmark comes near
/// it, and a dropped record fails the run.
const TRACE_CAPACITY: usize = 1 << 26;

/// The benchmark's workloads; README.md says why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    NsclPlanned,
    StampContended,
    ServeQueue,
    Wide256,
}

impl Kind {
    const ALL: [Kind; 4] = [
        Kind::NsclPlanned,
        Kind::StampContended,
        Kind::ServeQueue,
        Kind::Wide256,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::NsclPlanned => "nscl-planned",
            Kind::StampContended => "stamp-contended",
            Kind::ServeQueue => "serve-queue",
            Kind::Wide256 => "wide-256",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One machine of a pass: benchmark, backend and machine shape.
#[derive(Clone, Copy, Debug)]
pub struct Leg {
    pub bench: &'static str,
    pub backend: BackendId,
    pub size: Size,
    pub cores: usize,
    /// Installs the analyzer's static plans before the run.
    pub planned: bool,
    /// Added to the run's seed, so that legs repeating one benchmark
    /// simulate different inputs.
    pub seed_offset: u64,
}

/// The machines one pass of `kind` builds; for serve-queue, the shape of
/// every batch machine.
pub fn legs(kind: Kind) -> Vec<Leg> {
    let leg =
        |bench: &'static str, backend: BackendId, size: Size, cores: usize, planned: bool| Leg {
            bench,
            backend,
            size,
            cores,
            planned,
            seed_offset: 0,
        };
    // Four instances with different seeds: with one, the rare aborts and
    // slow commits of these inputs would make the per-commit figures
    // depend on the seed.
    let instances = |base: &[Leg]| -> Vec<Leg> {
        (0..4u64)
            .flat_map(|i| {
                base.iter().map(move |l| Leg {
                    seed_offset: i << 32,
                    ..*l
                })
            })
            .collect()
    };
    match kind {
        Kind::NsclPlanned => instances(
            &["arrayswap", "mwobject"].map(|b| leg(b, BackendId::Clear, Size::Medium, 32, true)),
        ),
        Kind::StampContended => ["intruder", "genome", "vacation-h", "yada"]
            .into_iter()
            .flat_map(|b| {
                [BackendId::Tsx, BackendId::Clear].map(|be| leg(b, be, Size::Medium, 32, false))
            })
            .collect(),
        Kind::ServeQueue => vec![leg("queue", BackendId::Clear, Size::Tiny, 32, false)],
        Kind::Wide256 => instances(&[leg("genome", BackendId::Clear, Size::Tiny, 256, false)]),
    }
}

/// The serve session: 40,000 synthetic open-loop arrivals (mean gap 24
/// cycles) in 64-AR batches, i.e. 625 fresh machines, so p999
/// time-to-commit has 40 samples beyond it.
pub fn serve_options(seed: u64) -> ServeOptions {
    ServeOptions {
        workload: "queue".to_string(),
        size: Size::Tiny,
        cores: 32,
        seed,
        total_ars: 40_000,
        batch: 64,
        queue: 256,
        rate: 24,
        replay_gaps: None,
        sim_threads: 1,
        snapshot_every: 1,
        max_retries: MAX_RETRIES,
    }
}

/// How a pass runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Metrics hooks and machine traces off; serve-queue runs
    /// `serve_session`.
    Timed,
    /// As `Timed`, but serve-queue runs the benchmark's copy of the serve
    /// loop, which has spans and a validation per batch.
    Replica,
    /// Metrics hooks and machine traces on, for the checks and the
    /// time-to-commit samples. Never timed.
    Audit,
}

/// Deterministic counters summed over a pass's machine runs.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    pub commits: u64,
    pub aborts: u64,
    pub cycles: u64,
    pub fallback: u64,
    pub nscl: u64,
    pub scl: u64,
    pub retired: u64,
    pub wasted: u64,
    pub steps: u64,
    pub sched_updates: u64,
    pub l1_hits: u64,
    /// Requests served beyond the L1: L2, L3 or a remote cache, memory.
    pub misses: u64,
    pub invalidations: u64,
    pub locks: u64,
    pub lock_ops: u64,
    pub lock_nacks: u64,
    pub conflict_aborts: u64,
    pub capacity_aborts: u64,
    pub lock_spin_cycles: u64,
    pub fallback_wait_cycles: u64,
    pub pending_stall_cycles: u64,
    pub discovery_elided: u64,
    pub partial_discovery: u64,
    /// Conflicts arbitrated by the HTM policy.
    pub conflicts: u64,
    /// CLEAR machines only: attempts, line locks and cacheline-locked
    /// commits, the ERT/CRT, ALT-insert and ALT-lock-list op counts.
    pub clear_attempts: u64,
    pub clear_locks: u64,
    pub clear_cl_commits: u64,
    /// Metrics-hook calls on machines with metrics on: three per commit,
    /// one per abort.
    pub metric_ops: u64,
}

impl Totals {
    fn add(&mut self, s: &RunStats, clear: bool, metrics: bool) {
        let c = &s.coherence;
        let (commits, aborts) = (s.commits(), s.aborts.total());
        self.commits += commits;
        self.aborts += aborts;
        self.cycles += s.total_cycles;
        self.fallback += s.commits_by_mode.fallback;
        self.nscl += s.commits_by_mode.nscl;
        self.scl += s.commits_by_mode.scl;
        self.retired += s.instructions_retired;
        self.wasted += s.instructions_wasted;
        self.steps += s.perf.steps;
        self.sched_updates += s.perf.sched_updates;
        self.l1_hits += c.l1_hits;
        self.misses += c.l2_hits + c.l3_serves + c.mem_serves;
        self.invalidations += c.invalidations;
        self.locks += c.locks;
        self.lock_ops += s.lock_ops;
        self.lock_nacks += c.lock_conflicts;
        self.conflict_aborts +=
            s.aborts.get(AbortKind::MemoryConflict) + s.aborts.get(AbortKind::Nacked);
        self.capacity_aborts += s.aborts.get(AbortKind::Capacity);
        self.lock_spin_cycles += s.lock_spin_cycles;
        self.fallback_wait_cycles += s.fallback_wait_cycles;
        self.pending_stall_cycles += s.pending_stall_cycles;
        self.discovery_elided += s.discovery_runs_elided;
        self.partial_discovery += s.partial_discovery_runs;
        self.conflicts += s.conflicts_from_access + s.conflicts_from_locks;
        if clear {
            self.clear_attempts += commits + aborts;
            self.clear_locks += c.locks;
            self.clear_cl_commits += s.commits_by_mode.nscl + s.commits_by_mode.scl;
        }
        if metrics {
            self.metric_ops += 3 * commits + aborts;
        }
    }

    /// `x` per committed AR.
    pub fn per_commit(&self, x: u64) -> f64 {
        ratio(x, self.commits)
    }
}

/// `a / b`, or 0 for an empty base.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// What one pass measured and checked.
#[derive(Default)]
pub struct PassOut {
    /// Host seconds of the whole pass: set-up, runs and validation.
    pub wall_s: f64,
    /// Host seconds inside `Machine::run`.
    pub run_s: f64,
    /// ARs committed.
    pub commits: u64,
    /// Machine runs (serve: batches) checked.
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Fingerprint of the simulated result: every run's deterministic
    /// `RunStats`, or the session document of `serve_session`.
    pub digest: u64,
    pub totals: Totals,
    /// Merged registry of the machines with metrics on.
    pub registry: MetricsRegistry,
    /// Exact time-to-commit of every commit, from the machine traces.
    pub ttc: Vec<u64>,
    pub serve: Option<ServeReport>,
}

/// Forwards to a benchmark workload and counts the invocations it issues,
/// which the run must all commit. With `gaps` it also rations the stream
/// to the admitted arrivals exactly as the serve loop does: each issued
/// invocation consumes one gap, which becomes its think time.
struct Counted {
    inner: Box<dyn Workload>,
    issued: Rc<Cell<u64>>,
    gaps: Option<Rc<RefCell<VecDeque<u64>>>>,
}

impl Workload for Counted {
    fn meta(&self) -> WorkloadMeta {
        self.inner.meta()
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.inner.setup(mem, threads);
    }

    fn next_ar(&mut self, tid: usize, mem: &Memory) -> Option<ArInvocation> {
        if self.gaps.as_ref().is_some_and(|g| g.borrow().is_empty()) {
            return None;
        }
        let mut inv = self.inner.next_ar(tid, mem)?;
        if let Some(gaps) = &self.gaps {
            inv.think_cycles = gaps.borrow_mut().pop_front()?;
        }
        self.issued.set(self.issued.get() + 1);
        Some(inv)
    }

    fn validate(&self, mem: &Memory) -> Result<(), String> {
        self.inner.validate(mem)
    }
}

/// The workload instance and machine configuration of one leg, with the
/// analyzer's plans installed when the leg asks for them, and the host
/// seconds `by_name` and `benchmark_plans` took.
fn prepare(leg: &Leg, seed: u64, spans: &mut Spans) -> (Box<dyn Workload>, MachineConfig, f64) {
    let (workload, mut secs) = spans.time("workloads.by_name", || {
        by_name(leg.bench, leg.size, seed).expect("the benchmark's workload names exist")
    });
    let mut cfg = leg.backend.config(leg.cores, MAX_RETRIES);
    cfg.seed = seed;
    cfg.sim_threads = 1;
    if leg.planned {
        let (plans, t) = spans.time("analysis.benchmark_plans", || {
            benchmark_plans(leg.bench, leg.size, seed, 1)
        });
        cfg.static_plans = Some(plans);
        secs += t;
    }
    (workload, cfg, secs)
}

/// Builds, runs and checks one machine; returns the invocations it issued.
fn run_leg(
    leg: &Leg,
    seed: u64,
    gaps: Option<Rc<RefCell<VecDeque<u64>>>>,
    mode: Mode,
    spans: &mut Spans,
    out: &mut PassOut,
) -> u64 {
    let label = format!(
        "{}/{} at {} cores, seed {seed}",
        leg.bench, leg.backend, leg.cores
    );
    // Serve batches run with metrics on, as `serve_session` runs them.
    let metrics = mode == Mode::Audit || gaps.is_some();
    let (inner, cfg, _) = prepare(leg, seed, spans);
    let issued = Rc::new(Cell::new(0));
    let workload = Counted {
        inner,
        issued: Rc::clone(&issued),
        gaps,
    };
    let (mut machine, _) = spans.time("machine.new", || Machine::new(cfg, Box::new(workload)));
    if metrics {
        machine.enable_metrics();
    }
    if mode == Mode::Audit {
        machine.enable_tracing_with_capacity(TRACE_CAPACITY);
    }
    let (stats, run_s) = spans.time("machine.run", || machine.run());
    let (valid, _) = spans.time("workloads.validate", || {
        machine.workload().validate(machine.memory())
    });
    out.run_s += run_s;
    out.attempted += 1;
    if stats.timed_out {
        out.failures.push(format!("{label}: stopped at max_cycles"));
    }
    if let Err(e) = valid {
        out.failures
            .push(format!("{label}: validation failed: {e}"));
    }
    if stats.commits() != issued.get() {
        out.failures.push(format!(
            "{label}: {} commits for {} invocations",
            stats.commits(),
            issued.get()
        ));
    }
    if mode == Mode::Audit {
        audit_trace(&machine, leg.cores, &label, out);
    }
    if metrics {
        let (registry, _) = spans.time("machine.take_metrics", || {
            machine.take_metrics().expect("metrics are on")
        });
        spans.time("metrics.merge", || out.registry.merge(&registry));
    }
    out.digest = out.digest.rotate_left(5) ^ stats_digest(&stats);
    out.commits += stats.commits();
    out.totals
        .add(&stats, leg.backend == BackendId::Clear, metrics);
    issued.get()
}

/// Checks the paper's bound on one run, that no attempt started in a mode
/// the backend guarantees to commit ever aborts, and collects the exact
/// time-to-commit of every commit (first attempt start to commit, the
/// span the metrics hook measures).
fn audit_trace(machine: &Machine, cores: usize, label: &str, out: &mut PassOut) {
    let trace = machine.trace();
    if trace.dropped() > 0 {
        out.failures.push(format!(
            "{label}: {} trace records dropped",
            trace.dropped()
        ));
    }
    let backend = machine.backend();
    let mut mode = vec![None; cores];
    let mut first_start = vec![None; cores];
    let mut violations = 0u64;
    for r in trace.records() {
        match r.event {
            TraceEvent::ArFetched { .. } => first_start[r.core] = None,
            TraceEvent::AttemptStart { mode: m } => {
                mode[r.core] = Some(m);
                first_start[r.core].get_or_insert(r.cycle);
            }
            TraceEvent::Abort { .. }
                if mode[r.core].is_some_and(|m| backend.guarantees_commit(m)) =>
            {
                violations += 1;
            }
            TraceEvent::Commit { .. } => {
                let start = first_start[r.core].take().unwrap_or(r.cycle);
                out.ttc.push(r.cycle.saturating_sub(start));
            }
            _ => {}
        }
    }
    if violations > 0 {
        out.failures.push(format!(
            "{label}: {violations} attempts aborted after starting in a mode that guarantees commit"
        ));
    }
}

/// Hash of every deterministic `RunStats` field: wall time and the trace
/// record counts (audit runs trace, timed runs do not) are left out.
fn stats_digest(stats: &RunStats) -> u64 {
    let mut s = stats.clone();
    s.perf.run_wall_ns = 0;
    s.perf.trace_events_recorded = 0;
    s.perf.trace_events_dropped = 0;
    let mut h = DefaultHasher::new();
    h.write(format!("{s:?}").as_bytes());
    h.finish()
}

/// One `serve_session`, checked from outside: every admitted AR served,
/// no starvation, one commit counted per AR.
fn serve_timed(seed: u64, spans: &mut Spans, out: &mut PassOut) {
    let opts = serve_options(seed);
    let (result, _) = spans.time("harness.serve_session", || {
        catch_unwind(AssertUnwindSafe(|| serve_session(&opts)))
    });
    let Ok(report) = result else {
        out.attempted += 1;
        out.failures.push("serve_session panicked".to_string());
        return;
    };
    out.attempted += report.trajectory.len() as u64;
    let committed: u64 = report
        .registry
        .iter()
        .filter(|(key, _)| key.name == families::COMMITS)
        .map(|(_, value)| match value {
            MetricValue::Counter(n) => *n,
            _ => 0,
        })
        .sum();
    if report.ars != opts.total_ars
        || committed != report.ars
        || report.json.get("starved") != Some(&Json::Bool(false))
    {
        out.failures.push(format!(
            "serve_session: {} of {} ARs served, {committed} commits counted",
            report.ars, opts.total_ars
        ));
    }
    let mut h = DefaultHasher::new();
    h.write(report.json.to_pretty().as_bytes());
    out.digest = h.finish();
    out.commits = report.ars;
    out.registry = report.registry.clone();
    out.serve = Some(report);
}

/// The benchmark's copy of the `serve_session` loop: the same arrivals,
/// admission queue, batch seeds and machines, built from public calls so
/// that every batch gets its own spans, validation and checks.
fn serve_replica(seed: u64, mode: Mode, spans: &mut Spans, out: &mut PassOut) {
    let opts = serve_options(seed);
    let leg = legs(Kind::ServeQueue)[0];
    let mut arrivals = Xoshiro256PlusPlus::seed_from_u64(opts.seed);
    let mut queue: VecDeque<u64> = VecDeque::new();
    let (mut generated, mut served, mut batches) = (0u64, 0u64, 0u64);
    while served < opts.total_ars {
        while queue.len() < opts.queue && generated < opts.total_ars {
            queue.push_back(arrivals.gen_range(0..2 * opts.rate + 1));
            generated += 1;
        }
        let take = queue.len().min(opts.batch);
        if take == 0 {
            break;
        }
        let gaps = Rc::new(RefCell::new(queue.drain(..take).collect::<VecDeque<u64>>()));
        let batch = spans.enter("bench.batch");
        let batch_seed = opts.seed.wrapping_add(batches);
        let consumed = run_leg(&leg, batch_seed, Some(Rc::clone(&gaps)), mode, spans, out);
        spans.exit(batch);
        // Arrivals the batch did not consume go back to the queue front.
        for gap in gaps.borrow_mut().drain(..).rev() {
            queue.push_front(gap);
        }
        if consumed == 0 {
            out.failures
                .push(format!("serve replay: batch {batches} issued no AR"));
            break;
        }
        served += consumed;
        batches += 1;
    }
}

/// One pass of `kind`: every machine built, run and checked once.
pub fn pass(kind: Kind, seed: u64, mode: Mode, spans: &mut Spans) -> PassOut {
    spans.next_pass();
    let open = spans.enter("bench.pass");
    let mut out = PassOut::default();
    match (kind, mode) {
        (Kind::ServeQueue, Mode::Timed) => serve_timed(seed, spans, &mut out),
        (Kind::ServeQueue, _) => serve_replica(seed, mode, spans, &mut out),
        _ => {
            for leg in legs(kind) {
                let leg_seed = seed.wrapping_add(leg.seed_offset);
                run_leg(&leg, leg_seed, None, mode, spans, &mut out);
            }
        }
    }
    out.wall_s = spans.exit(open);
    if mode == Mode::Audit {
        check_ttc(&mut out);
    }
    out
}

/// Builds every machine one pass builds without running any, and returns
/// the host seconds spent in `by_name`, `benchmark_plans` and
/// `Machine::new`.
pub fn setup_only(kind: Kind, seed: u64) -> f64 {
    let mut spans = Spans::new(false);
    let machines: Vec<(Leg, u64)> = match kind {
        Kind::ServeQueue => {
            let opts = serve_options(seed);
            let batches = opts.total_ars.div_ceil(opts.batch as u64);
            (0..batches)
                .map(|b| (legs(kind)[0], seed.wrapping_add(b)))
                .collect()
        }
        _ => legs(kind)
            .into_iter()
            .map(|leg| (leg, seed.wrapping_add(leg.seed_offset)))
            .collect(),
    };
    let mut secs = 0.0;
    for (leg, seed) in machines {
        let (workload, cfg, t) = prepare(&leg, seed, &mut spans);
        let (machine, t_new) = spans.time("machine.new", || Machine::new(cfg, workload));
        secs += t + t_new;
        drop(machine);
    }
    secs
}

/// The trace-derived time-to-commit samples must be exactly the
/// distribution the metrics hooks recorded.
fn check_ttc(out: &mut PassOut) {
    let mut from_trace = Log2Hist::new();
    for &t in &out.ttc {
        from_trace.observe(t);
    }
    let mut from_registry = Log2Hist::new();
    for (key, value) in out.registry.iter() {
        if let (true, MetricValue::Hist(h)) = (key.name == families::TTC_CYCLES, value) {
            from_registry.merge(h);
        }
    }
    if from_trace != from_registry {
        out.failures.push(format!(
            "time-to-commit from traces ({} samples) differs from the metrics registry ({} samples)",
            from_trace.count(),
            from_registry.count()
        ));
    }
}

/// Two registries agree on everything the simulation produced. The
/// trace-record gauges are left out: they differ by design between traced
/// and untraced runs.
pub fn same_outcome(a: &MetricsRegistry, b: &MetricsRegistry) -> bool {
    let simulated = |(key, _): &(&MetricKey, &MetricValue)| {
        !(key.name == families::SIM_PERF
            && key
                .labels
                .iter()
                .any(|(_, v)| v.starts_with("trace_events")))
    };
    a.iter().filter(simulated).eq(b.iter().filter(simulated))
}
