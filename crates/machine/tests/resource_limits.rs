//! Tests of the resource-exhaustion paths: ALT overflow, store-queue
//! overflow during failed-mode discovery, simulated faults, and the
//! largest `max_cycles` the scheduler's packed keys hold.

use clear_isa::{
    ArId, ArInvocation, ArSpec, Mutability, Program, ProgramBuilder, Reg, Workload, WorkloadMeta,
};
use clear_machine::{Machine, Preset, TraceEvent};
use clear_mem::{Addr, Memory, LINE_BYTES};
use std::sync::Arc;

/// An AR touching `lines` distinct cachelines (reads) plus one contended
/// counter (RMW), so it both overflows structures and conflicts.
struct WideAr {
    lines: u64,
    region: Addr,
    counter: Addr,
    remaining: Vec<u32>,
    program: Arc<Program>,
}

impl WideAr {
    fn new(lines: u64) -> Self {
        let mut p = ProgramBuilder::new();
        for i in 0..lines as i64 {
            p.ld(Reg(2), Reg(0), i * LINE_BYTES as i64);
        }
        p.ld(Reg(3), Reg(1), 0)
            .addi(Reg(3), Reg(3), 1)
            .st(Reg(1), 0, Reg(3))
            .xend();
        WideAr {
            lines,
            region: Addr::NULL,
            counter: Addr::NULL,
            remaining: vec![],
            program: Arc::new(p.build()),
        }
    }
}

impl Workload for WideAr {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "wide-ar".into(),
            ars: vec![ArSpec {
                id: ArId(0),
                name: "wide".into(),
                mutability: Mutability::Immutable,
            }],
        }
    }
    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.region = mem.alloc_words(self.lines * 8);
        self.counter = mem.alloc_words(1);
        self.remaining = vec![20; threads];
    }
    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining[tid] == 0 {
            return None;
        }
        self.remaining[tid] -= 1;
        Some(ArInvocation {
            ar: ArId(0),
            program: Arc::clone(&self.program),
            args: vec![(Reg(0), self.region.0), (Reg(1), self.counter.0)],
            think_cycles: 8,
        })
    }
    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let v = mem.load_word(self.counter);
        let want = 20 * self.remaining.len() as u64;
        (v == want)
            .then_some(())
            .ok_or_else(|| format!("{v} != {want}"))
    }
}

/// An AR issuing `stores` store instructions (to few lines) plus one
/// contended RMW — exercises the failed-mode SQ bound.
struct StoreHeavyAr {
    stores: u64,
    region: Addr,
    counter: Addr,
    remaining: Vec<u32>,
    program: Arc<Program>,
}

impl StoreHeavyAr {
    fn new(stores: u64) -> Self {
        // The contended RMW comes FIRST so a conflict (losing the counter
        // line to another core) lands while the long store tail is still
        // running — i.e. inside failed-mode discovery.
        let mut p = ProgramBuilder::new();
        p.ld(Reg(3), Reg(1), 0)
            .addi(Reg(3), Reg(3), 1)
            .st(Reg(1), 0, Reg(3));
        p.li(Reg(2), 7);
        for i in 0..stores as i64 {
            p.st(Reg(0), (i % 8) * 8, Reg(2));
        }
        p.xend();
        StoreHeavyAr {
            stores,
            region: Addr::NULL,
            counter: Addr::NULL,
            remaining: vec![],
            program: Arc::new(p.build()),
        }
    }
}

impl Workload for StoreHeavyAr {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "store-heavy".into(),
            ars: vec![ArSpec {
                id: ArId(0),
                name: "stores".into(),
                mutability: Mutability::Immutable,
            }],
        }
    }
    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.region = mem.alloc_words(8);
        self.counter = mem.alloc_words(1);
        self.remaining = vec![15; threads];
        let _ = self.stores;
    }
    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining[tid] == 0 {
            return None;
        }
        self.remaining[tid] -= 1;
        Some(ArInvocation {
            ar: ArId(0),
            program: Arc::clone(&self.program),
            args: vec![(Reg(0), self.region.0), (Reg(1), self.counter.0)],
            think_cycles: 8,
        })
    }
    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let v = mem.load_word(self.counter);
        let want = 15 * self.remaining.len() as u64;
        (v == want)
            .then_some(())
            .ok_or_else(|| format!("{v} != {want}"))
    }
}

#[test]
fn alt_overflowing_ar_never_converts() {
    // 40 lines > 32 ALT entries.
    let mut cfg = Preset::C.config(6, 4);
    cfg.seed = 19;
    let mut m = Machine::new(cfg, Box::new(WideAr::new(40)));
    m.enable_tracing();
    let s = m.run();
    m.workload().validate(m.memory()).unwrap();
    assert_eq!(
        s.commits_by_mode.nscl + s.commits_by_mode.scl,
        0,
        "oversized footprint must stay unconverted: {:?}",
        s.commits_by_mode
    );
    // No decision event can choose a CL mode.
    for r in m.trace().records() {
        if let TraceEvent::Decision { mode, .. } = &r.event {
            assert_eq!(*mode, clear_core::RetryMode::SpeculativeRetry);
        }
    }
}

#[test]
fn small_footprint_wide_enough_ar_converts() {
    // Control: the same shape with 8 lines converts to NS-CL.
    let mut cfg = Preset::C.config(6, 4);
    cfg.seed = 19;
    let mut m = Machine::new(cfg, Box::new(WideAr::new(8)));
    let s = m.run();
    m.workload().validate(m.memory()).unwrap();
    assert!(s.commits_by_mode.nscl > 0, "{:?}", s.commits_by_mode);
}

#[test]
fn sq_overflow_in_failed_mode_aborts_discovery() {
    // 200 stores far exceed the 72-entry SQ once discovery enters failed
    // mode near the leading RMW.
    let mut cfg = Preset::C.config(6, 4);
    cfg.seed = 21;
    let mut m = Machine::new(cfg, Box::new(StoreHeavyAr::new(200)));
    m.enable_tracing();
    let _ = m.run();
    m.workload().validate(m.memory()).unwrap();
    let mut entered_failed = 0;
    let mut decisions = 0;
    for r in m.trace().records() {
        match &r.event {
            TraceEvent::EnterFailedMode => entered_failed += 1,
            TraceEvent::Decision { .. } => decisions += 1,
            _ => {}
        }
    }
    assert!(entered_failed > 0, "contended run must enter failed mode");
    assert!(
        decisions < entered_failed,
        "SQ overflow must cut some discoveries short \
         ({decisions} decisions from {entered_failed} failed discoveries)"
    );
}

#[test]
fn store_heavy_but_within_sq_still_converts() {
    let mut cfg = Preset::C.config(6, 4);
    cfg.seed = 21;
    let mut m = Machine::new(cfg, Box::new(StoreHeavyAr::new(40)));
    let s = m.run();
    m.workload().validate(m.memory()).unwrap();
    assert!(
        s.commits_by_mode.nscl > 0,
        "40 stores fit the SQ; the AR is immutable and small: {:?}",
        s.commits_by_mode
    );
    assert_eq!(s.commits(), 90);
}

/// An AR that dereferences a null pointer: a workload bug that must be
/// caught loudly once the AR reaches the non-speculative fallback path.
struct FaultyAr {
    remaining: u32,
    program: Arc<Program>,
}

impl Workload for FaultyAr {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "faulty".into(),
            ars: vec![ArSpec {
                id: ArId(0),
                name: "null-deref".into(),
                mutability: Mutability::Immutable,
            }],
        }
    }
    fn setup(&mut self, _mem: &mut Memory, _threads: usize) {}
    fn next_ar(&mut self, _tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(ArInvocation {
            ar: ArId(0),
            program: Arc::clone(&self.program),
            args: vec![(Reg(0), 0)], // null base
            think_cycles: 5,
        })
    }
}

#[test]
#[should_panic(expected = "fault")]
fn persistent_fault_panics_on_the_fallback_path() {
    let mut p = ProgramBuilder::new();
    p.ld(Reg(1), Reg(0), 0).xend();
    let w = FaultyAr {
        remaining: 5,
        program: Arc::new(p.build()),
    };
    let mut cfg = Preset::B.config(1, 2);
    cfg.seed = 1;
    // Speculative attempts abort with kind Other; after the retry budget
    // the AR enters fallback, where the fault is a hard error.
    Machine::new(cfg, Box::new(w)).run();
}

#[test]
fn max_cycles_up_to_the_packed_key_limit_is_accepted() {
    // 2 cores leave 63 clock bits, 1024 cores 54: the limit is
    // 2^(64 - bits) - 2.
    let mut cfg = Preset::B.config(2, 2);
    cfg.max_cycles = (1 << 63) - 3;
    let s = Machine::new(cfg, Box::new(WideAr::new(1))).run();
    assert!(!s.timed_out);
    let mut cfg = Preset::B.config(1024, 2);
    cfg.max_cycles = (1 << 54) - 3;
    Machine::new(cfg, Box::new(WideAr::new(1)));
}

#[test]
#[should_panic(expected = "packed keys")]
fn max_cycles_past_the_packed_key_limit_panics() {
    let mut cfg = Preset::B.config(1024, 2);
    cfg.max_cycles = (1 << 54) - 2;
    Machine::new(cfg, Box::new(WideAr::new(1)));
}
