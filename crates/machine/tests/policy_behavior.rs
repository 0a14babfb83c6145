//! Behavioural tests of the machine's policy layer: fallback semantics,
//! PowerTM, ERT learning and CLEAR mode selection, observed through stats
//! and traces.

use clear_core::{PlanAddr, PlanClass, StaticPlan, StaticPlanSet};
use clear_isa::{
    ArId, ArInvocation, ArSpec, Mutability, Program, ProgramBuilder, Reg, Workload, WorkloadMeta,
};
use clear_machine::{
    Machine, MachineConfig, MadBackend, Preset, SpeculationBackend, TraceEvent, TsxBackend,
};
use clear_mem::{Addr, Memory};
use clear_workloads::{by_name, Size};
use std::sync::Arc;

fn inc_program() -> Arc<Program> {
    let mut p = ProgramBuilder::new();
    p.ld(Reg(1), Reg(0), 0)
        .addi(Reg(1), Reg(1), 1)
        .st(Reg(0), 0, Reg(1))
        .xend();
    Arc::new(p.build())
}

/// Shared counter with an indirection: the counter address is loaded from a
/// pointer slot inside the AR, so CLEAR can only ever choose S-CL.
struct IndirectCounter {
    slot: Addr,
    counter: Addr,
    remaining: Vec<u32>,
    ops: u32,
    program: Arc<Program>,
}

impl IndirectCounter {
    fn new(ops: u32) -> Self {
        let mut p = ProgramBuilder::new();
        p.ld(Reg(1), Reg(0), 0) // counter address (indirection)
            .ld(Reg(2), Reg(1), 0)
            .addi(Reg(2), Reg(2), 1)
            .st(Reg(1), 0, Reg(2))
            .xend();
        IndirectCounter {
            slot: Addr::NULL,
            counter: Addr::NULL,
            remaining: vec![],
            ops,
            program: Arc::new(p.build()),
        }
    }
}

impl Workload for IndirectCounter {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "indirect-counter".into(),
            ars: vec![ArSpec {
                id: ArId(0),
                name: "inc".into(),
                mutability: Mutability::LikelyImmutable,
            }],
        }
    }
    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.slot = mem.alloc_words(1);
        self.counter = mem.alloc_words(1);
        mem.store_word(self.slot, self.counter.0);
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
            think_cycles: 12,
        })
    }
    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let v = mem.load_word(self.counter);
        let want = self.ops as u64 * self.remaining.len() as u64;
        (v == want)
            .then_some(())
            .ok_or_else(|| format!("{v} != {want}"))
    }
}

/// Plain shared counter (immutable footprint).
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
            think_cycles: 12,
        })
    }
    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let v = mem.load_word(self.addr);
        let want = self.ops as u64 * self.remaining.len() as u64;
        (v == want)
            .then_some(())
            .ok_or_else(|| format!("{v} != {want}"))
    }
}

#[test]
fn indirect_footprint_converts_to_scl_never_nscl() {
    let mut cfg = Preset::C.config(6, 5);
    cfg.seed = 3;
    let mut m = Machine::new(cfg, Box::new(IndirectCounter::new(30)));
    m.enable_tracing();
    let s = m.run();
    m.workload().validate(m.memory()).unwrap();
    assert_eq!(s.commits_by_mode.nscl, 0, "indirections forbid NS-CL");
    assert!(
        s.commits_by_mode.scl > 0,
        "contended likely-immutable AR should use S-CL"
    );
    // Every decision must classify the AR as not immutable.
    for r in m.trace().records() {
        if let TraceEvent::Decision { immutable, .. } = &r.event {
            assert!(
                !immutable,
                "indirection must clear the immutable assessment"
            );
        }
    }
}

#[test]
fn tiny_retry_budget_forces_fallback_commits() {
    let mut cfg = Preset::B.config(8, 1);
    cfg.seed = 11;
    let mut m = Machine::new(cfg, Box::new(SharedCounter::new(30)));
    let s = m.run();
    m.workload().validate(m.memory()).unwrap();
    assert!(
        s.commits_by_mode.fallback > 0,
        "with max_retries=1 under contention some ARs must fall back"
    );
    assert!(s.aborts.get(clear_htm::AbortKind::ExplicitFallback) > 0);
}

#[test]
fn powertm_reduces_aborts_vs_requester_wins() {
    let run = |preset: Preset| {
        let mut cfg = preset.config(8, 5);
        cfg.seed = 17;
        let mut m = Machine::new(cfg, Box::new(SharedCounter::new(40)));
        let s = m.run();
        m.workload().validate(m.memory()).unwrap();
        s
    };
    let b = run(Preset::B);
    let p = run(Preset::P);
    // The paper notes PowerTM may *increase* raw abort counts as a side
    // effect; the win is in execution time and fallback pressure. Power
    // NACKs must appear, and the power transaction's priority should keep
    // performance in the baseline's neighbourhood.
    assert!(
        p.aborts.get(clear_htm::AbortKind::Nacked) > 0,
        "power NACKs must appear"
    );
    assert!(
        p.total_cycles as f64 <= b.total_cycles as f64 * 1.3,
        "PowerTM should not collapse: B={} P={}",
        b.total_cycles,
        p.total_cycles
    );
    // (Fallback counts at this tiny scale are noisy in either direction —
    // the suite-level Fig. 13 harness shows the average trend.)
}

#[test]
fn clear_decisions_match_ar_immutability() {
    let mut cfg = Preset::C.config(6, 5);
    cfg.seed = 23;
    let mut m = Machine::new(cfg, Box::new(SharedCounter::new(30)));
    m.enable_tracing();
    let s = m.run();
    m.workload().validate(m.memory()).unwrap();
    assert!(s.commits_by_mode.nscl > 0);
    assert_eq!(
        s.commits_by_mode.scl, 0,
        "a direct-address AR never needs S-CL"
    );
    for r in m.trace().records() {
        if let TraceEvent::Decision {
            immutable,
            footprint,
            ..
        } = &r.event
        {
            assert!(immutable);
            // Counter line + fallback-lock subscription is not part of the
            // AR body; footprint is exactly one line.
            assert_eq!(*footprint, 1);
        }
    }
}

#[test]
fn fallback_executions_are_serialized() {
    // With retries=1 everything funnels through fallback quickly; the lock
    // is exclusive, so commits still conserve the counter and no two
    // fallback commits can race (validated by the final value).
    let mut cfg = Preset::B.config(16, 1);
    cfg.seed = 29;
    let mut m = Machine::new(cfg, Box::new(SharedCounter::new(20)));
    let s = m.run();
    m.workload().validate(m.memory()).unwrap();
    assert_eq!(s.commits(), 320);
}

#[test]
fn abort_penalty_shows_up_in_wasted_instructions() {
    let mut cfg = Preset::B.config(8, 5);
    cfg.seed = 31;
    let mut m = Machine::new(cfg, Box::new(SharedCounter::new(30)));
    let s = m.run();
    assert!(s.instructions_wasted > 0, "contended runs waste work");
    assert!(
        s.instructions_retired >= s.commits() * 4,
        "4 instructions per committed inc"
    );
}

/// Plans for ARs `0..ars`, each of `class` over the lines entry registers
/// `0..regs` hold, all written; likely-immutable plans hinge on all of
/// them as root slots.
fn plan_set(ars: u32, regs: u8, class: PlanClass, complete: bool) -> Option<Arc<StaticPlanSet>> {
    let lines: Vec<_> = (0..regs)
        .map(|reg| PlanAddr::Sym { reg, delta: 0 })
        .collect();
    let likely = class == PlanClass::LikelyImmutable;
    let mut plans = StaticPlanSet::new();
    for ar in 0..ars {
        let plan = StaticPlan {
            class,
            lock_set: lines.clone(),
            written: lines.clone(),
            root_slots: if likely { lines.clone() } else { vec![] },
            complete,
            bound_lines: lines.len(),
            bound_written: lines.len(),
        };
        plans.insert(ar, plan);
    }
    Some(Arc::new(plans))
}

/// Preset B's machine with `backend` and `plans` installed.
fn with_plans(
    backend: Arc<dyn SpeculationBackend>,
    cores: usize,
    plans: Option<Arc<StaticPlanSet>>,
) -> MachineConfig {
    MachineConfig {
        backend,
        static_plans: plans,
        ..Preset::B.config(cores, 5)
    }
}

#[test]
fn mad_backend_runs_planned_ars_in_nscl_from_the_start() {
    let plans = plan_set(1, 1, PlanClass::Immutable, true);
    let mut cfg = with_plans(Arc::new(MadBackend), 4, plans);
    cfg.seed = 13;
    let mut m = Machine::new(cfg, Box::new(SharedCounter::new(25)));
    let s = m.run();
    m.workload().validate(m.memory()).unwrap();
    assert_eq!(s.commits(), 100);
    assert_eq!(
        s.commits_by_mode.nscl, 100,
        "every planned AR must run NS-CL from its first attempt: {:?}",
        s.commits_by_mode
    );
    assert_eq!(
        s.aborts.total(),
        0,
        "non-speculative execution cannot abort"
    );
}

#[test]
fn mad_backend_ignores_plan_free_ars() {
    let mut cfg = with_plans(Arc::new(MadBackend), 4, None);
    cfg.seed = 13;
    let mut m = Machine::new(cfg, Box::new(SharedCounter::new(25)));
    let s = m.run();
    m.workload().validate(m.memory()).unwrap();
    assert_eq!(s.commits_by_mode.nscl, 0, "no plan, no a-priori NS-CL");
}

#[test]
fn mad_backend_adds_only_the_up_front_lock() {
    // Without a proved-immutable, complete plan, MadBackend is TsxBackend:
    // a contended arrayswap runs step for step the same, trace included.
    // Both ARs (swap, sum) take their addresses from registers 0 and 1.
    let set = |class, complete| plan_set(2, 2, class, complete);
    let run = |backend: Arc<dyn SpeculationBackend>, plans| {
        let w = by_name("arrayswap", Size::Tiny, 7).expect("known benchmark");
        let mut m = Machine::new(with_plans(backend, 8, plans), w);
        m.enable_tracing();
        let mut s = m.run();
        m.workload().validate(m.memory()).unwrap();
        s.perf.run_wall_ns = 0;
        (format!("{s:?}"), m.trace().digest(), s.aborts.total())
    };
    for plans in [
        None,
        set(PlanClass::LikelyImmutable, true),
        set(PlanClass::Immutable, false),
    ] {
        let tsx = run(Arc::new(TsxBackend), plans.clone());
        assert!(tsx.2 > 0, "the workload must be contended");
        assert_eq!(run(Arc::new(MadBackend), plans), tsx);
    }
    let mad = run(Arc::new(MadBackend), set(PlanClass::Immutable, true));
    assert_eq!(
        mad.2, 0,
        "a complete immutable plan locks every AR up front"
    );
}

#[test]
fn explicit_abort_retries_until_data_allows_commit() {
    // Thread 0 spins on a flag with XAbort (a program-level conditional
    // retry, as in STAMP); thread 1 eventually sets the flag. Exercises the
    // Explicit abort path everywhere, including on the fallback path.
    struct FlagWait {
        flag: Addr,
        done: Addr,
        issued: [bool; 2],
        waiter: Arc<Program>,
        setter: Arc<Program>,
    }
    impl Workload for FlagWait {
        fn meta(&self) -> WorkloadMeta {
            WorkloadMeta {
                name: "flag-wait".into(),
                ars: vec![
                    ArSpec {
                        id: ArId(0),
                        name: "wait".into(),
                        mutability: Mutability::Mutable,
                    },
                    ArSpec {
                        id: ArId(1),
                        name: "set".into(),
                        mutability: Mutability::Immutable,
                    },
                ],
            }
        }
        fn setup(&mut self, mem: &mut Memory, _threads: usize) {
            self.flag = mem.alloc_words(1);
            self.done = mem.alloc_words(1);
        }
        fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
            if self.issued[tid] {
                return None;
            }
            self.issued[tid] = true;
            if tid == 0 {
                Some(ArInvocation {
                    ar: ArId(0),
                    program: Arc::clone(&self.waiter),
                    args: vec![(Reg(0), self.flag.0), (Reg(1), self.done.0), (Reg(5), 0)],
                    think_cycles: 1,
                })
            } else {
                Some(ArInvocation {
                    ar: ArId(1),
                    program: Arc::clone(&self.setter),
                    args: vec![(Reg(0), self.flag.0)],
                    // The setter arrives late so the waiter aborts a few
                    // times first (speculatively and then in fallback).
                    think_cycles: 2_000,
                })
            }
        }
        fn validate(&self, mem: &Memory) -> Result<(), String> {
            (mem.load_word(self.done) == 1)
                .then_some(())
                .ok_or_else(|| "waiter never completed".into())
        }
    }

    // waiter: if flag == 0 { xabort } else { done = 1 }
    let mut wp = ProgramBuilder::new();
    let go = wp.label();
    wp.ld(Reg(2), Reg(0), 0)
        .branch(clear_isa::Cond::Ne, Reg(2), Reg(5), go)
        .xabort(1)
        .bind(go)
        .li(Reg(3), 1)
        .st(Reg(1), 0, Reg(3))
        .xend();
    // setter: flag = 1
    let mut sp = ProgramBuilder::new();
    sp.li(Reg(2), 1).st(Reg(0), 0, Reg(2)).xend();

    let w = FlagWait {
        flag: Addr::NULL,
        done: Addr::NULL,
        issued: [false; 2],
        waiter: Arc::new(wp.build()),
        setter: Arc::new(sp.build()),
    };
    let mut cfg = Preset::B.config(2, 2);
    cfg.seed = 37;
    let mut m = Machine::new(cfg, Box::new(w));
    let s = m.run();
    assert!(
        !s.timed_out,
        "fallback XAbort must not deadlock the machine"
    );
    m.workload().validate(m.memory()).unwrap();
    assert!(
        s.aborts.get(clear_htm::AbortKind::Explicit) > 0,
        "the waiter must have explicitly aborted at least once: {:?}",
        s.aborts
    );
    assert_eq!(s.commits(), 2);
}
