//! Parking of waiting cores: a core whose lock, fallback-lock or pending
//! load/store poll fails leaves the scheduler heap and is woken by the
//! release it waits on, with the skipped polls credited. Runs must stay
//! step-for-step identical to per-poll spinning, so the pinned values below
//! were recorded with schedulers that still ran those polls: the lock and
//! fallback-lock pins with the per-poll spinning scheduler, the pending,
//! conflict and herd pins with the one that re-sent every pending load and
//! store and let every woken core poll, the live-queue stop pin with the
//! one that woke every waiter on a release and re-parked the blocked, and
//! the fallback-convoy pin with the one that still woke every fallback
//! waiter on a fallback release.

use clear_isa::{
    ArId, ArInvocation, ArSpec, Mutability, Program, ProgramBuilder, Reg, Workload, WorkloadMeta,
};
use clear_machine::{Machine, MachineConfig, Preset, RunStats};
use clear_mem::{Addr, Memory};
use clear_workloads::{by_name, Size};
use std::sync::Arc;

/// Two increments per thread of one shared word, each holding the word's
/// line locked (a-priori NS-CL) across a 4000-cycle compute.
struct LongLockedInc {
    addr: Addr,
    remaining: Vec<u32>,
    program: Arc<Program>,
}

impl LongLockedInc {
    fn new() -> Self {
        let mut p = ProgramBuilder::new();
        p.ld(Reg(1), Reg(0), 0)
            .addi(Reg(1), Reg(1), 1)
            .compute(4000)
            .st(Reg(0), 0, Reg(1))
            .xend();
        LongLockedInc {
            addr: Addr::NULL,
            remaining: vec![],
            program: Arc::new(p.build()),
        }
    }
}

impl Workload for LongLockedInc {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "long-locked-inc".into(),
            ars: vec![ArSpec {
                id: ArId(0),
                name: "inc".into(),
                mutability: Mutability::Immutable,
            }],
        }
    }
    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.addr = mem.alloc_words(1);
        self.remaining = vec![2; threads];
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
            think_cycles: 0,
            static_footprint: Some(vec![self.addr.line()]),
        })
    }
    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let v = mem.load_word(self.addr);
        let want = 2 * self.remaining.len() as u64;
        (v == want)
            .then_some(())
            .ok_or_else(|| format!("{v} != {want}"))
    }
}

fn bench(name: &str, cfg: MachineConfig) -> RunStats {
    let w = by_name(name, Size::Tiny, 7).expect("known benchmark");
    Machine::new(cfg, w).run()
}

/// The counters parking must reproduce: outcome, clocks, scheduler work
/// and wait accounting.
fn pinned(s: &RunStats) -> [u64; 12] {
    [
        s.timed_out as u64,
        s.total_cycles,
        s.commits(),
        s.aborts.total(),
        s.perf.steps,
        s.perf.sched_updates,
        s.perf.allocs_avoided,
        s.lock_spin_cycles,
        s.fallback_wait_cycles,
        s.instructions_retired,
        s.pending_stall_cycles,
        s.discovery_failed_cycles,
    ]
}

/// Runs `workload` traced and checks it. Returns the run's stats and
/// trace digest.
fn traced(workload: Box<dyn Workload>, cfg: MachineConfig) -> (RunStats, u64) {
    let mut m = Machine::new(cfg, workload);
    m.enable_tracing();
    let s = m.run();
    m.workload().validate(m.memory()).unwrap();
    (s, m.trace().digest())
}

#[test]
fn a_max_cycles_stop_materialises_parked_lock_waiters() {
    // Core 0 locks the line first and computes past the stop; cores 1 and
    // 2 are parked on its lock when the run times out, and must come out
    // at their first poll past `max_cycles`.
    let mut cfg = Preset::B.config(3, 5);
    cfg.a_priori_locking = true;
    cfg.max_cycles = 2000;
    let s = Machine::new(cfg, Box::new(LongLockedInc::new())).run();
    assert_eq!(
        pinned(&s),
        [1, 4083, 0, 0, 282, 282, 269, 4020, 0, 0, 0, 0],
        "{s:?}"
    );
    // Two waiters, one real poll each; every other poll was skipped.
    assert_eq!(s.perf.polls_elided, 4020 / 15 - 2);
}

#[test]
fn a_max_cycles_stop_mid_fallback_convoy_matches_per_poll_spinning() {
    let mut cfg = Preset::B.config(32, 2);
    cfg.max_cycles = 20_000;
    let s = bench("genome", cfg);
    assert_eq!(
        pinned(&s),
        [1, 20065, 71, 991, 39602, 40108, 508, 0, 476385, 2010, 0, 0],
        "{s:?}"
    );
    assert!(s.perf.polls_elided > 0);
}

#[test]
fn a_fallback_convoy_elects_one_waiter_at_a_time() {
    // 32 cores of genome on the baseline: every wait is on the fallback
    // lock (no lock-spin or pending-stall cycles), run to completion.
    // A release elects one waiter of each fallback queue, the next only
    // once that one has polled and left the lock free for the rest, so no
    // woken waiter finds the lock taken again and parks a second time.
    let (s, digest) = traced(
        by_name("genome", Size::Tiny, 7).expect("known benchmark"),
        Preset::B.config(32, 2),
    );
    assert_eq!(
        pinned(&s),
        [0, 125019, 384, 5211, 222581, 225173, 2752, 0, 2710650, 11394, 0, 0],
        "{s:?}"
    );
    assert_eq!(digest, 0x7212_4fce_4bb8_9aeb);
    assert_eq!(s.perf.wakes, 2935, "{:?}", s.perf);
}

#[test]
fn long_lock_holds_finish_with_every_increment() {
    let mut cfg = Preset::B.config(3, 5);
    cfg.a_priori_locking = true;
    let mut m = Machine::new(cfg, Box::new(LongLockedInc::new()));
    let s = m.run();
    m.workload().validate(m.memory()).unwrap();
    assert!(!s.timed_out);
    assert_eq!(s.commits_by_mode.nscl, 6);
    assert!(s.perf.polls_elided > 0);
}

#[test]
fn a_wide_parked_run_matches_per_poll_spinning() {
    // 80 cores of genome under CLEAR: many cores sit parked at once, and
    // every counter must equal the per-poll schedule's.
    let s = bench("genome", Preset::C.config(80, 5));
    assert_eq!(
        pinned(&s),
        [0, 191250, 960, 1822, 686063, 686227, 36242, 379350, 8716470, 28881, 101715, 98850]
    );
    assert!(s.perf.polls_elided > 0);
}

#[test]
fn polls_elided_counts_only_contended_waits() {
    let contended = bench("genome", Preset::B.config(32, 2));
    assert!(contended.perf.polls_elided > 0);
    assert!(contended.perf.polls_elided < contended.perf.steps);
    let alone = bench("genome", Preset::B.config(1, 2));
    assert!(alone.commits() > 0);
    assert_eq!(alone.perf.polls_elided, 0, "a lone core never waits");
    assert_eq!(alone.perf.materialized, 0);
}

#[test]
fn pending_loads_and_stores_park_like_per_poll_resends() {
    // A contended queue: about a fifth of its steps are pending re-sends
    // of loads and stores to lines other cores hold locked.
    let (s, digest) = traced(
        by_name("queue", Size::Tiny, 7).expect("known benchmark"),
        Preset::C.config(32, 5),
    );
    assert_eq!(
        pinned(&s),
        [0, 57029, 384, 594, 89052, 89116, 42363, 591645, 311640, 3581, 267720, 17058],
        "{s:?}"
    );
    assert_eq!(digest, 0x5c6a_77db_1ca9_7bcf);
    assert!(s.perf.materialized > 0, "{:?}", s.perf);
}

#[test]
fn a_conflict_reaching_a_parked_pending_core_matches_per_poll_resends() {
    // The smallest genome run in which a conflict reaches a core parked on
    // a pending access: the victim is brought back to its next poll
    // before the conflict aborts it or sends it into failed mode.
    let (s, digest) = traced(
        by_name("genome", Size::Tiny, 7).expect("known benchmark"),
        Preset::C.config(8, 5),
    );
    assert_eq!(
        pinned(&s),
        [0, 13615, 96, 83, 6244, 6249, 772, 420, 10755, 2778, 2415, 4901],
        "{s:?}"
    );
    assert_eq!(digest, 0x557c_714d_82c4_c0c7);
    assert!(s.perf.materialized > 0, "{:?}", s.perf);
}

#[test]
fn a_released_herd_wakes_one_head() {
    // Eight cores lock one line in a-priori NS-CL: an unlock elects one
    // waiter of the line's queue, that head takes the line, and the rest
    // never leave the queue, so nothing is woken only to park again.
    let mut cfg = Preset::B.config(8, 5);
    cfg.a_priori_locking = true;
    let (s, digest) = traced(Box::new(LongLockedInc::new()), cfg);
    assert_eq!(
        pinned(&s),
        [0, 65012, 16, 0, 21021, 21013, 20877, 312795, 0, 80, 0, 0],
        "{s:?}"
    );
    assert_eq!(digest, 0x343a_331a_d870_c64a);
    assert!(s.perf.wakes <= s.commits(), "{:?}", s.perf);
    assert_eq!(s.perf.materialized, 0, "NS-CL cores never speculate");
}

#[test]
fn a_max_cycles_stop_between_a_release_and_its_heads_poll() {
    // Core 0 releases the line at cycle 4084 and the waiters' first polls
    // after that release fall past 4090: the stop lands while the line's
    // queue is live and its elected head has not polled, so the head and
    // the members all stop at the poll that release scheduled.
    let mut cfg = Preset::B.config(8, 5);
    cfg.a_priori_locking = true;
    cfg.max_cycles = 4090;
    let s = Machine::new(cfg, Box::new(LongLockedInc::new())).run();
    assert_eq!(
        pinned(&s),
        [1, 4096, 1, 0, 1942, 1942, 1912, 28665, 0, 5, 0, 0],
        "{s:?}"
    );
    assert_eq!(s.perf.polls_elided, 1904);
}
