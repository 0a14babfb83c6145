//! Static-plan fast-path tests: discovery elision for proved-immutable
//! plans, the partial-discovery upgrade for likely-immutable plans, the
//! NS-CL soundness guard against a hostile analysis, lock-set containment,
//! and determinism of plan-driven runs.

use clear_core::{PlanAddr, PlanClass, StaticPlan, StaticPlanSet};
use clear_htm::AbortKind;
use clear_isa::{
    ArId, ArInvocation, ArSpec, Mutability, Program, ProgramBuilder, Reg, Workload, WorkloadMeta,
};
use clear_machine::{Machine, MachineConfig, Preset, RunStats, TraceEvent};
use clear_mem::{Addr, Memory};
use std::sync::Arc;

/// `mem[r0] += 1; mem[r1] += 1` — two statically-known lines.
fn two_counter_program() -> Arc<Program> {
    let mut p = ProgramBuilder::new();
    p.ld(Reg(2), Reg(0), 0)
        .addi(Reg(2), Reg(2), 1)
        .st(Reg(0), 0, Reg(2))
        .ld(Reg(3), Reg(1), 0)
        .addi(Reg(3), Reg(3), 1)
        .st(Reg(1), 0, Reg(3))
        .xend();
    Arc::new(p.build())
}

/// `mem[mem[r0]] += 1` — a pointer chase: the root slot at `r0` holds the
/// target address, so the footprint is only likely-immutable statically
/// and the dynamic assessment sees an indirection (S-CL territory).
fn pointer_chase_program() -> Arc<Program> {
    let mut p = ProgramBuilder::new();
    p.ld(Reg(1), Reg(0), 0)
        .ld(Reg(2), Reg(1), 0)
        .addi(Reg(2), Reg(2), 1)
        .st(Reg(1), 0, Reg(2))
        .xend();
    Arc::new(p.build())
}

/// N threads hammer the same two shared counters. The allocated addresses
/// are published through `placed` so tests can resolve plans themselves.
struct TwoCounters {
    addrs: [Addr; 2],
    placed: Arc<std::sync::OnceLock<[Addr; 2]>>,
    remaining: Vec<u32>,
    ops: u32,
    program: Arc<Program>,
}

impl TwoCounters {
    fn new(ops: u32) -> Self {
        TwoCounters {
            addrs: [Addr::NULL; 2],
            placed: Arc::new(std::sync::OnceLock::new()),
            remaining: vec![],
            ops,
            program: two_counter_program(),
        }
    }

    fn placement(&self) -> Arc<std::sync::OnceLock<[Addr; 2]>> {
        Arc::clone(&self.placed)
    }
}

impl Workload for TwoCounters {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "two-counters".into(),
            ars: vec![ArSpec {
                id: ArId(0),
                name: "inc2".into(),
                mutability: Mutability::Immutable,
            }],
        }
    }
    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.addrs = [mem.alloc_words(1), mem.alloc_words(1)];
        let _ = self.placed.set(self.addrs);
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
            args: vec![(Reg(0), self.addrs[0].0), (Reg(1), self.addrs[1].0)],
            think_cycles: 15,
        })
    }
    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let want = self.ops as u64 * self.remaining.len() as u64;
        for &a in &self.addrs {
            let v = mem.load_word(a);
            if v != want {
                return Err(format!("counter at {a} is {v}, expected {want}"));
            }
        }
        Ok(())
    }
}

/// N threads chase the same pointer slot to the same target counter.
struct PointerChase {
    slot: Addr,
    target: Addr,
    remaining: Vec<u32>,
    ops: u32,
    program: Arc<Program>,
}

impl PointerChase {
    fn new(ops: u32) -> Self {
        PointerChase {
            slot: Addr::NULL,
            target: Addr::NULL,
            remaining: vec![],
            ops,
            program: pointer_chase_program(),
        }
    }
}

impl Workload for PointerChase {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "pointer-chase".into(),
            ars: vec![ArSpec {
                id: ArId(0),
                name: "chase".into(),
                mutability: Mutability::LikelyImmutable,
            }],
        }
    }
    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.slot = mem.alloc_words(1);
        self.target = mem.alloc_words(1);
        mem.store_word(self.slot, self.target.0);
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
            args: vec![(Reg(0), self.slot.0)],
            think_cycles: 15,
        })
    }
    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let want = self.ops as u64 * self.remaining.len() as u64;
        let v = mem.load_word(self.target);
        if v != want {
            return Err(format!("target is {v}, expected {want}"));
        }
        if mem.load_word(self.slot) != self.target.0 {
            return Err("pointer slot was clobbered".into());
        }
        Ok(())
    }
}

/// The plan `clear_analysis::static_plan` would emit for the two-counter
/// program: both lines proved, both written.
fn two_counter_plan() -> StaticPlan {
    StaticPlan {
        class: PlanClass::Immutable,
        lock_set: vec![
            PlanAddr::Sym { reg: 0, delta: 0 },
            PlanAddr::Sym { reg: 1, delta: 0 },
        ],
        written: vec![
            PlanAddr::Sym { reg: 0, delta: 0 },
            PlanAddr::Sym { reg: 1, delta: 0 },
        ],
        root_slots: vec![],
        complete: true,
        bound_lines: 2,
        bound_written: 2,
    }
}

/// A deliberately wrong analysis: claims the two-counter region is proved
/// immutable with a one-line footprint, hiding the second counter.
fn hostile_plan() -> StaticPlan {
    StaticPlan {
        class: PlanClass::Immutable,
        lock_set: vec![PlanAddr::Sym { reg: 0, delta: 0 }],
        written: vec![PlanAddr::Sym { reg: 0, delta: 0 }],
        root_slots: vec![],
        complete: true,
        bound_lines: 1,
        bound_written: 1,
    }
}

/// The likely-immutable plan for the pointer chase: only the root slot is
/// statically resolvable.
fn chase_plan() -> StaticPlan {
    StaticPlan {
        class: PlanClass::LikelyImmutable,
        lock_set: vec![PlanAddr::Sym { reg: 0, delta: 0 }],
        written: vec![],
        root_slots: vec![PlanAddr::Sym { reg: 0, delta: 0 }],
        complete: false,
        bound_lines: 2,
        bound_written: 1,
    }
}

fn plan_set(plan: StaticPlan) -> Arc<StaticPlanSet> {
    let mut s = StaticPlanSet::new();
    s.insert(0, plan);
    Arc::new(s)
}

fn cfg_with(plans: Option<Arc<StaticPlanSet>>, seed: u64) -> MachineConfig {
    let mut cfg = Preset::C.config(4, 4);
    cfg.seed = seed;
    cfg.static_plans = plans;
    cfg
}

fn run_machine(cfg: MachineConfig, w: Box<dyn Workload>) -> (Machine, RunStats) {
    let mut m = Machine::new(cfg, w);
    let stats = m.run();
    (m, stats)
}

#[test]
fn proved_immutable_plan_elides_discovery_and_matches_baseline() {
    let (mb, base) = run_machine(cfg_with(None, 42), Box::new(TwoCounters::new(40)));
    let (mp, plan) = run_machine(
        cfg_with(Some(plan_set(two_counter_plan())), 42),
        Box::new(TwoCounters::new(40)),
    );
    for (m, s) in [(&mb, &base), (&mp, &plan)] {
        assert!(!s.timed_out);
        assert_eq!(s.commits(), 160);
        m.workload().validate(m.memory()).unwrap();
    }
    assert_eq!(base.discovery_runs_elided, 0);
    assert!(
        plan.discovery_runs_elided > 0,
        "contended proved-immutable AR should skip discovery"
    );
    assert_eq!(plan.static_plan_violations, 0, "the plan is correct");
    assert!(plan.commits_by_mode.nscl > 0);
    assert_eq!(
        mb.memory().words(),
        mp.memory().words(),
        "fast path must not change the final memory image"
    );
}

#[test]
fn plan_applies_both_reactively_and_eagerly() {
    let mut m = Machine::new(
        cfg_with(Some(plan_set(two_counter_plan())), 42),
        Box::new(TwoCounters::new(40)),
    );
    m.enable_tracing();
    let s = m.run();
    assert!(s.discovery_runs_elided > 0);
    let has_elide = |eager_want: bool| {
        m.trace().records().any(
            |r| matches!(r.event, TraceEvent::DiscoveryElided { eager, .. } if eager == eager_want),
        )
    };
    assert!(
        has_elide(false),
        "the first conflict should elide reactively in place of failed mode"
    );
    assert!(
        has_elide(true),
        "later fetches of a contended AR should apply the plan at fetch"
    );
}

#[test]
fn hostile_immutable_plan_cannot_commit_a_mutation() {
    let (m, s) = run_machine(
        cfg_with(Some(plan_set(hostile_plan())), 42),
        Box::new(TwoCounters::new(40)),
    );
    assert!(!s.timed_out);
    assert_eq!(s.commits(), 160);
    // Atomicity survived the lie: both counters have every increment.
    m.workload().validate(m.memory()).unwrap();
    assert!(
        s.static_plan_violations > 0,
        "the guard must catch the unlocked access"
    );
    assert!(s.aborts.get(AbortKind::PlanViolation) > 0);
    // Poisoning stops the fast path: violations cannot exceed the number
    // of cores that could be mid-plan when the first one fired.
    assert!(s.static_plan_violations <= 4);
}

#[test]
fn plan_lock_set_contains_observed_footprint() {
    let w = TwoCounters::new(40);
    let placed = w.placement();
    let mut m = Machine::new(
        cfg_with(Some(plan_set(two_counter_plan())), 42),
        Box::new(w),
    );
    m.enable_tracing();
    let s = m.run();
    assert!(s.discovery_runs_elided > 0);
    // Zero guard trips means every access of every plan-driven NS-CL
    // attempt hit a line the plan had locked: lock set ⊇ observed
    // footprint.
    assert_eq!(s.static_plan_violations, 0);
    // And the lines this workload ever locks — plan-driven or learned by
    // discovery — stay inside the plan's resolved lock set.
    let addrs = placed.get().expect("setup ran");
    let resolved = StaticPlan::resolve_lines(&two_counter_plan().lock_set, &|r: u8| {
        Some(addrs[r as usize].0)
    })
    .expect("plan resolves against the real placement");
    for r in m.trace().records() {
        if let TraceEvent::LockAcquired { line, .. } = r.event {
            assert!(
                resolved.contains(&line),
                "locked line {line} outside the plan lock set {resolved:?}"
            );
        }
    }
}

#[test]
fn likely_immutable_plan_shortens_discovery_to_root_confirmation() {
    let (mb, base) = run_machine(cfg_with(None, 42), Box::new(PointerChase::new(40)));
    let (mp, plan) = run_machine(
        cfg_with(Some(plan_set(chase_plan())), 42),
        Box::new(PointerChase::new(40)),
    );
    for (m, s) in [(&mb, &base), (&mp, &plan)] {
        assert!(!s.timed_out);
        assert_eq!(s.commits(), 160);
        m.workload().validate(m.memory()).unwrap();
    }
    assert_eq!(base.partial_discovery_runs, 0);
    assert!(
        plan.partial_discovery_runs > 0,
        "stable root slots should upgrade the S-CL retry"
    );
    assert_eq!(
        plan.discovery_runs_elided, 0,
        "no proved-immutable plan here"
    );
    assert_eq!(
        mb.memory().words(),
        mp.memory().words(),
        "partial discovery must not change the final memory image"
    );
}

#[test]
fn fast_path_is_deterministic_across_runs() {
    let run = || {
        run_machine(
            cfg_with(Some(plan_set(two_counter_plan())), 7),
            Box::new(TwoCounters::new(30)),
        )
    };
    let (m1, a) = run();
    let (m2, b) = run();
    for s in [&a, &b] {
        assert!(s.discovery_runs_elided > 0);
    }
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.aborts.total(), b.aborts.total());
    assert_eq!(a.commits_by_mode, b.commits_by_mode);
    assert_eq!(a.discovery_runs_elided, b.discovery_runs_elided);
    assert_eq!(m1.memory().words(), m2.memory().words());
}
