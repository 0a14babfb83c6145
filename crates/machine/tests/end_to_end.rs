//! End-to-end machine tests: tiny synthetic workloads driven through every
//! preset, checking atomicity and the expected mode behaviour.

use clear_core::{PlanAddr, PlanClass, StaticPlan, StaticPlanSet};
use clear_htm::AbortKind;
use clear_isa::{
    ArId, ArInvocation, ArSpec, Mutability, Program, ProgramBuilder, Reg, Workload, WorkloadMeta,
};
use clear_machine::{
    AbortCounts, ArStatsEntry, Machine, MachineConfig, ModeCommits, Preset, RunStats, TraceEvent,
};
use clear_mem::{Addr, Memory};
use clear_metrics::{families, MetricValue, MetricsRegistry};
use clear_workloads::{by_name, Size};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Builds the canonical increment program: `mem[r0] += 1`.
fn inc_program() -> Arc<Program> {
    let mut p = ProgramBuilder::new();
    p.ld(Reg(1), Reg(0), 0)
        .addi(Reg(1), Reg(1), 1)
        .st(Reg(0), 0, Reg(1))
        .xend();
    Arc::new(p.build())
}

/// N threads increment a single shared counter `ops` times each: the
/// highest-contention immutable AR possible.
struct SharedCounter {
    addr: Addr,
    remaining: Vec<u32>,
    ops: u32,
    program: Arc<Program>,
}

impl SharedCounter {
    fn new(ops: u32) -> Self {
        SharedCounter {
            addr: Addr::NULL,
            remaining: vec![],
            ops,
            program: inc_program(),
        }
    }
}

impl Workload for SharedCounter {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "shared-counter".into(),
            ars: vec![ArSpec {
                id: ArId(0),
                name: "inc".into(),
                mutability: Mutability::Immutable,
            }],
        }
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.addr = mem.alloc_words(1);
        self.remaining = vec![self.ops; threads];
    }

    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining[tid] == 0 {
            return None;
        }
        self.remaining[tid] -= 1;
        Some(ArInvocation {
            ar: ArId(0),
            program: Arc::clone(&self.program),
            args: vec![(Reg(0), self.addr.0)],
            think_cycles: 15,
        })
    }

    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let v = mem.load_word(self.addr);
        let expect = self.ops as u64 * self.remaining.len() as u64;
        if v == expect {
            Ok(())
        } else {
            Err(format!("counter is {v}, expected {expect}"))
        }
    }
}

/// Each thread increments its own counter: zero contention.
struct PrivateCounters {
    addrs: Vec<Addr>,
    remaining: Vec<u32>,
    ops: u32,
    program: Arc<Program>,
}

impl PrivateCounters {
    fn new(ops: u32) -> Self {
        PrivateCounters {
            addrs: vec![],
            remaining: vec![],
            ops,
            program: inc_program(),
        }
    }
}

impl Workload for PrivateCounters {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "private-counters".into(),
            ars: vec![ArSpec {
                id: ArId(0),
                name: "inc".into(),
                mutability: Mutability::Immutable,
            }],
        }
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.addrs = (0..threads).map(|_| mem.alloc_words(1)).collect();
        self.remaining = vec![self.ops; threads];
    }

    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining[tid] == 0 {
            return None;
        }
        self.remaining[tid] -= 1;
        Some(ArInvocation {
            ar: ArId(0),
            program: Arc::clone(&self.program),
            args: vec![(Reg(0), self.addrs[tid].0)],
            think_cycles: 10,
        })
    }

    fn validate(&self, mem: &Memory) -> Result<(), String> {
        for (t, &a) in self.addrs.iter().enumerate() {
            let v = mem.load_word(a);
            if v != self.ops as u64 {
                return Err(format!("thread {t} counter is {v}, expected {}", self.ops));
            }
        }
        Ok(())
    }
}

fn run(preset: Preset, cores: usize, w: Box<dyn Workload>) -> (Machine, clear_machine::RunStats) {
    let mut cfg = preset.config(cores, 4);
    cfg.seed = 42;
    let mut m = Machine::new(cfg, w);
    let stats = m.run();
    (m, stats)
}

#[test]
fn shared_counter_conserved_under_all_presets() {
    for preset in Preset::ALL {
        let (m, stats) = run(preset, 4, Box::new(SharedCounter::new(40)));
        assert!(!stats.timed_out, "{preset}: timed out");
        assert_eq!(stats.commits(), 160, "{preset}: wrong commit count");
        m.workload()
            .validate(m.memory())
            .unwrap_or_else(|e| panic!("{preset}: atomicity violated: {e}"));
    }
}

#[test]
fn private_counters_commit_speculatively_without_aborts() {
    for preset in Preset::ALL {
        let (m, stats) = run(preset, 4, Box::new(PrivateCounters::new(50)));
        assert!(!stats.timed_out);
        assert_eq!(stats.commits(), 200, "{preset}");
        m.workload().validate(m.memory()).unwrap();
        assert_eq!(
            stats.commits_by_mode.speculative, 200,
            "{preset}: low contention should commit speculatively"
        );
        assert_eq!(stats.aborts.total(), 0, "{preset}: no conflicts expected");
        assert_eq!(stats.commits_by_retries.get(&0), Some(&200), "{preset}");
    }
}

#[test]
fn contended_baseline_aborts_and_clear_uses_cl_modes() {
    let (_, b) = run(Preset::B, 4, Box::new(SharedCounter::new(40)));
    assert!(b.aborts.total() > 0, "high contention must abort");
    assert_eq!(b.commits_by_mode.nscl + b.commits_by_mode.scl, 0);

    let (_, c) = run(Preset::C, 4, Box::new(SharedCounter::new(40)));
    assert!(
        c.commits_by_mode.nscl > 0,
        "immutable AR under CLEAR should commit in NS-CL: {:?}",
        c.commits_by_mode
    );
}

#[test]
fn clear_reduces_aborts_per_commit_under_contention() {
    let (_, b) = run(Preset::B, 8, Box::new(SharedCounter::new(30)));
    let (_, c) = run(Preset::C, 8, Box::new(SharedCounter::new(30)));
    assert!(
        c.aborts_per_commit() < b.aborts_per_commit(),
        "CLEAR should reduce aborts/commit: B={:.2} C={:.2}",
        b.aborts_per_commit(),
        c.aborts_per_commit()
    );
}

#[test]
fn clear_improves_first_retry_share() {
    let (_, b) = run(Preset::B, 8, Box::new(SharedCounter::new(30)));
    let (_, c) = run(Preset::C, 8, Box::new(SharedCounter::new(30)));
    assert!(
        c.first_retry_share() >= b.first_retry_share(),
        "B={:.2} C={:.2}",
        b.first_retry_share(),
        c.first_retry_share()
    );
}

#[test]
fn runs_are_deterministic() {
    let (_, a) = run(Preset::W, 4, Box::new(SharedCounter::new(25)));
    let (_, b) = run(Preset::W, 4, Box::new(SharedCounter::new(25)));
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.aborts.total(), b.aborts.total());
    assert_eq!(a.commits_by_mode, b.commits_by_mode);
}

#[test]
fn shard_counters_surface_directory_occupancy() {
    let (_, s) = run(
        Preset::C,
        8,
        by_name("hashmap", Size::Tiny, 7).expect("known benchmark"),
    );
    assert!(s.perf.shards > 0);
    assert!(s.perf.shard_lines >= s.perf.shards, "entries fill shards");
    assert!(s.perf.shard_lines_max <= s.perf.shard_lines);
    assert!(s.perf.shard_lines_max * s.perf.shards >= s.perf.shard_lines);
}

#[test]
fn energy_is_positive_and_includes_both_components() {
    let (_, s) = run(Preset::B, 2, Box::new(SharedCounter::new(10)));
    assert!(s.energy.static_energy > 0.0);
    assert!(s.energy.dynamic_energy > 0.0);
    assert!(s.energy.total() > s.energy.static_energy);
}

#[test]
fn single_core_never_conflicts() {
    let (m, s) = run(Preset::B, 1, Box::new(SharedCounter::new(100)));
    assert_eq!(s.commits(), 100);
    assert_eq!(s.aborts.total(), 0);
    m.workload().validate(m.memory()).unwrap();
}

/// A single AR that executes far more instructions than the ROB holds.
struct BigAr {
    addr: Addr,
    remaining: Vec<u32>,
    program: Arc<Program>,
}

impl BigAr {
    fn new(instrs: u32) -> Self {
        let mut p = ProgramBuilder::new();
        // A long compute loop followed by one shared increment.
        let top = p.label();
        let done = p.label();
        p.li(Reg(2), 0).li(Reg(3), instrs as u64);
        p.bind(top)
            .branch(clear_isa::Cond::Ge, Reg(2), Reg(3), done)
            .addi(Reg(2), Reg(2), 1)
            .jmp(top)
            .bind(done)
            .ld(Reg(1), Reg(0), 0)
            .addi(Reg(1), Reg(1), 1)
            .st(Reg(0), 0, Reg(1))
            .xend();
        BigAr {
            addr: Addr::NULL,
            remaining: vec![],
            program: Arc::new(p.build()),
        }
    }
}

impl Workload for BigAr {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "big-ar".into(),
            ars: vec![ArSpec {
                id: ArId(0),
                name: "long".into(),
                mutability: Mutability::Immutable,
            }],
        }
    }
    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.addr = mem.alloc_words(1);
        self.remaining = vec![8; threads];
    }
    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining[tid] == 0 {
            return None;
        }
        self.remaining[tid] -= 1;
        Some(ArInvocation {
            ar: ArId(0),
            program: Arc::clone(&self.program),
            args: vec![(Reg(0), self.addr.0)],
            think_cycles: 10,
        })
    }
    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let v = mem.load_word(self.addr);
        let want = 8 * self.remaining.len() as u64;
        (v == want)
            .then_some(())
            .ok_or_else(|| format!("counter {v} != {want}"))
    }
}

#[test]
fn in_core_speculation_bounds_ar_size_to_the_rob() {
    use clear_machine::{ClearBackend, SpeculationKind};
    // ~600 retired instructions per AR: exceeds the 352-entry ROB.
    let w = BigAr::new(200);
    let mut cfg = Preset::C.config(4, 3);
    cfg.seed = 5;
    cfg.backend = std::sync::Arc::new(ClearBackend {
        speculation: SpeculationKind::InCore,
        ..ClearBackend::default()
    });
    let mut m = Machine::new(cfg, Box::new(w));
    let s = m.run();
    assert!(!s.timed_out);
    assert_eq!(s.commits(), 32);
    m.workload().validate(m.memory()).unwrap();
    // Every AR overflows the window: no speculative or CL commits at all.
    assert_eq!(
        s.commits_by_mode.speculative + s.commits_by_mode.nscl + s.commits_by_mode.scl,
        0,
        "oversized ARs cannot commit inside an in-core window: {:?}",
        s.commits_by_mode
    );
    assert_eq!(s.commits_by_mode.fallback, 32);
}

#[test]
fn htm_speculation_commits_the_same_ar_speculatively() {
    let w = BigAr::new(200);
    let mut cfg = Preset::C.config(4, 3);
    cfg.seed = 5;
    let mut m = Machine::new(cfg, Box::new(w));
    let s = m.run();
    assert!(s.commits_by_mode.fallback < 32, "HTM is not ROB-bounded");
    m.workload().validate(m.memory()).unwrap();
}

#[test]
fn in_core_small_ars_still_speculate() {
    use clear_machine::SleBackend;
    let mut cfg = Preset::B.config(4, 4);
    cfg.seed = 2;
    cfg.backend = std::sync::Arc::new(SleBackend::default());
    let mut m = Machine::new(cfg, Box::new(PrivateCounters::new(30)));
    let s = m.run();
    assert_eq!(s.commits_by_mode.speculative, 120);
    assert_eq!(s.aborts.total(), 0);
    m.workload().validate(m.memory()).unwrap();
}

#[test]
fn trace_records_the_clear_protocol_sequence() {
    let mut cfg = Preset::C.config(4, 4);
    cfg.seed = 42;
    let mut m = Machine::new(cfg, Box::new(SharedCounter::new(40)));
    m.enable_tracing();
    let stats = m.run();
    assert!(stats.commits_by_mode.nscl > 0);

    assert!(!m.trace().is_empty());
    // Somewhere: a conflict leads to failed mode, then an NS-CL decision,
    // then locks, then an NS-CL commit.
    let has = |f: &dyn Fn(&TraceEvent) -> bool| m.trace().records().any(|r| f(&r.event));
    assert!(has(&|e| matches!(e, TraceEvent::ConflictReceived { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::EnterFailedMode)));
    assert!(has(&|e| matches!(
        e,
        TraceEvent::Decision {
            mode: clear_core::RetryMode::NsCl,
            immutable: true,
            ..
        }
    )));
    assert!(has(&|e| matches!(e, TraceEvent::LockAcquired { .. })));
    assert!(has(&|e| matches!(
        e,
        TraceEvent::Commit {
            mode: clear_core::RetryMode::NsCl,
            retries: 1
        }
    )));

    // Per-core ordering: a Decision for NS-CL is followed (eventually) by
    // an NS-CL AttemptStart on the same core.
    for core in 0..4 {
        let evs: Vec<_> = m.trace().core_events(core).collect();
        for (i, e) in evs.iter().enumerate() {
            if let TraceEvent::Decision {
                mode: clear_core::RetryMode::NsCl,
                ..
            } = e
            {
                assert!(
                    evs[i..].iter().any(|e2| matches!(
                        e2,
                        TraceEvent::AttemptStart {
                            mode: clear_core::RetryMode::NsCl
                        }
                    )),
                    "NS-CL decision without NS-CL attempt on core {core}"
                );
            }
        }
    }
}

/// `RunStats` as text, minus the host wall time and the trace-only
/// counters: the fields every sink combination must leave unchanged.
fn stats_digest(s: &RunStats) -> String {
    let mut s = s.clone();
    s.perf.run_wall_ns = 0;
    s.perf.trace_events_recorded = 0;
    s.perf.trace_events_dropped = 0;
    format!("{s:?}")
}

/// Runs `cfg` four times — plain, traced, metrics on, both — asserts the
/// four `RunStats` agree, and returns the run with both sinks on.
fn run_every_sink(
    cfg: &MachineConfig,
    workload: impl Fn() -> Box<dyn Workload>,
) -> (Machine, RunStats) {
    let mut runs = Vec::new();
    for (tracing, metrics) in [(false, false), (true, false), (false, true), (true, true)] {
        let mut m = Machine::new(cfg.clone(), workload());
        if tracing {
            m.enable_tracing();
        }
        if metrics {
            m.enable_metrics();
        }
        let s = m.run();
        assert!(!s.timed_out);
        assert_eq!(m.trace().is_empty(), !tracing, "tracing is opt-in");
        assert_eq!(m.metrics().is_some(), metrics, "metrics are opt-in");
        if tracing {
            assert_eq!(s.perf.trace_events_recorded, m.trace().recorded());
        } else {
            // Tracing off costs nothing and counts nothing.
            assert_eq!(s.perf.trace_events_recorded, 0);
            assert_eq!(s.perf.trace_events_dropped, 0);
        }
        runs.push((m, s));
    }
    let plain = stats_digest(&runs[0].1);
    for (i, (_, s)) in runs.iter().enumerate() {
        assert_eq!(stats_digest(s), plain, "sink set {i} perturbed RunStats");
    }
    runs.pop().expect("four runs")
}

#[test]
fn tracing_disabled_by_default_and_does_not_change_results() {
    let mut cfg = Preset::C.config(4, 4);
    cfg.seed = 42;
    run_every_sink(&cfg, || Box::new(SharedCounter::new(40)));
}

fn counter(reg: &MetricsRegistry, family: &str, labels: &[(&str, &str)]) -> u64 {
    match reg.get(family, labels) {
        Some(MetricValue::Counter(n)) => *n,
        None => 0,
        Some(other) => panic!("{family} is not a counter: {other:?}"),
    }
}

/// Folds the trace of a run with both sinks on and checks that the trace,
/// `RunStats` and the metrics registry saw the same commits, aborts, lock
/// waits and discovery elisions.
fn assert_sinks_agree(m: &Machine, s: &RunStats) {
    let reg = m.metrics().expect("metrics enabled");
    assert_eq!(m.trace().dropped(), 0, "the whole stream is retained");
    // Core → the AR it fetched last, which every later event belongs to.
    let mut fetched: BTreeMap<usize, u32> = BTreeMap::new();
    let mut commits = ModeCommits::default();
    let mut aborts = AbortCounts::default();
    let mut per_ar: BTreeMap<u32, ArStatsEntry> = BTreeMap::new();
    let (mut lock_wait, mut elided) = (0u64, 0u64);
    for r in m.trace().records() {
        let ar = fetched.get(&r.core).copied();
        match r.event {
            TraceEvent::ArFetched { ar } => {
                fetched.insert(r.core, ar.0);
            }
            TraceEvent::Commit { mode, .. } => {
                commits.record(mode);
                let e = per_ar.entry(ar.expect("fetched")).or_default();
                e.commits += 1;
                e.by_mode.record(mode);
            }
            TraceEvent::Abort { kind, .. } => {
                aborts.record(kind);
                per_ar.entry(ar.expect("fetched")).or_default().aborts += 1;
            }
            TraceEvent::LockAcquired { wait_cycles, .. } => lock_wait += wait_cycles,
            TraceEvent::DiscoveryElided { .. } => elided += 1,
            _ => {}
        }
    }
    assert_eq!(commits, s.commits_by_mode);
    for (label, want) in [
        ("speculative", commits.speculative),
        ("scl", commits.scl),
        ("nscl", commits.nscl),
        ("fallback", commits.fallback),
    ] {
        let got = counter(reg, families::COMMITS, &[("mode", label)]);
        assert_eq!(got, want, "{label} commits");
    }
    for kind in AbortKind::ALL {
        // Explicit-fallback aborts are counted only in `RunStats`.
        let want = if kind == AbortKind::ExplicitFallback {
            0
        } else {
            s.aborts.get(kind)
        };
        assert_eq!(aborts.get(kind), want, "{kind} abort records");
        assert_eq!(
            counter(reg, families::ABORTS, &[("cause", kind.name())]),
            want,
            "{kind} abort metric"
        );
    }
    assert_eq!(per_ar, s.ar_stats, "per-AR commits and aborts");
    let wait_hist = reg.hist(families::LOCK_WAIT_CYCLES, &[]);
    assert_eq!(
        wait_hist.map_or(0, |h| h.sum()),
        lock_wait,
        "lock wait cycles"
    );
    assert_eq!(elided, s.discovery_runs_elided, "discovery elisions");
}

#[test]
fn trace_stats_and_metrics_agree_on_every_event() {
    // Contended CLEAR: failed-mode discovery, NS-CL locks, aborts.
    let mut cfg = Preset::C.config(8, 4);
    cfg.seed = 7;
    let (m, s) = run_every_sink(&cfg, || Box::new(SharedCounter::new(30)));
    assert!(s.commits_by_mode.nscl > 0 && s.aborts.total() > 0);
    assert_sinks_agree(&m, &s);

    // A STAMP model: several ARs, S-CL and the fallback path.
    let mut cfg = Preset::C.config(8, 2);
    cfg.seed = 3;
    let (m, s) = run_every_sink(&cfg, || {
        by_name("intruder", Size::Tiny, 3).expect("known benchmark")
    });
    assert!(s.ar_stats.len() > 1);
    assert_sinks_agree(&m, &s);

    // A proved-immutable static plan: discovery is elided.
    let mut plans = StaticPlanSet::new();
    let counter_line = PlanAddr::Sym { reg: 0, delta: 0 };
    plans.insert(
        0,
        StaticPlan {
            class: PlanClass::Immutable,
            lock_set: vec![counter_line],
            written: vec![counter_line],
            root_slots: vec![],
            complete: true,
            bound_lines: 1,
            bound_written: 1,
        },
    );
    let mut cfg = Preset::C.config(8, 4);
    cfg.seed = 7;
    cfg.static_plans = Some(Arc::new(plans));
    let (m, s) = run_every_sink(&cfg, || Box::new(SharedCounter::new(30)));
    assert!(s.discovery_runs_elided > 0);
    assert_sinks_agree(&m, &s);
}
