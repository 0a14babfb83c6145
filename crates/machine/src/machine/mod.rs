//! The multicore machine: drives AR programs through HTM, CLEAR, the
//! coherence protocol, timing and statistics.
//!
//! # Execution model
//!
//! Each simulated core owns a clock; the machine repeatedly advances the
//! core with the smallest clock (ties broken by core id — fully
//! deterministic) by one *step*: one retired instruction, one lock
//! acquisition, one failed lock, fallback-lock or pending poll, or one
//! phase transition. Every load and store takes one access path
//! (`Machine::access`), where the attempt's [`RetryMode`] alone picks how
//! the store queue, the CLEAR discovery logic, the cacheline locks and the
//! two-phase coherence API serve it; conflicting remote transactions are
//! resolved by the HTM policy (requester-wins / PowerTM / §5.2 NACK
//! rules).
//!
//! A core whose lock-group poll, fallback-lock poll or pending load or
//! store re-send fails does not re-poll every `spin_interval` cycles: it
//! parks off the scheduler tree, in the queue of the line it is blocked on
//! or in one of the fallback lock's two queues, and resumes at the first
//! poll the polling schedule would have run after the release it waits
//! for, each skipped poll credited to the step, re-key and wait counters
//! exactly as if it had run. A release wakes one waiter per queue it
//! frees, the queue's head, the one whose poll comes first, and the next
//! only once that head has polled and left the lock free for the rest. A
//! woken head's first poll always runs; if it fails, the head parks again
//! like any failed poll. A conflict that reaches a parked pending core
//! first brings it back to that poll (see the `sched` module).
//!
//! # Simplifications vs. the paper (documented per DESIGN.md)
//!
//! * NS-CL/S-CL acquire all their locks *before* executing the body rather
//!   than overlapping locking with execution; this only shifts a small
//!   constant of latency.
//! * Speculative store data is buffered in the store queue until commit
//!   (lazy data, eager conflict detection), which is observationally
//!   equivalent for other cores.

use crate::perf::PerfCounters;
use crate::{
    compute_energy, MachineConfig, RunStats, SpeculationBackend, SpeculationKind, Trace, TraceEvent,
};
use clear_coherence::{Access, CoherenceSystem, CoreId, LockFail, RemoteImpact, TxTrack};
use clear_core::{decide, Alt, ClearConfig, Crt, Discovery, Ert, RetryMode};
use clear_htm::{
    AbortKind, FallbackLock, LrwsConfig, PowerToken, Resolution, RwSetOverflow, RwSetTracker,
    TxInfo,
};
use clear_isa::{ArInvocation, Effect, Vm, Workload};
use clear_mem::rng::Xoshiro256PlusPlus;
use clear_mem::{Addr, FxHashMap, FxHashSet, LineAddr, LineSet, Memory};
use sched::{CoreTree, WaitList};
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Fetch the next AR from the workload.
    Idle,
    /// Non-AR think time until the given cycle.
    Think { until: u64 },
    /// Begin the next attempt in the planned mode.
    StartAttempt,
    /// CL modes: acquiring the lock list in lexicographical order.
    LockAcquire { idx: usize },
    /// Executing the AR body.
    Running,
    /// The thread has no more ARs.
    Finished,
}

/// One load or store: a store carries its value. A load or store parked
/// on a line another core holds locked keeps its `MemOp` for the re-send.
#[derive(Clone, Copy, Debug)]
struct MemOp {
    addr: Addr,
    store: Option<u64>,
    indirect: bool,
}

/// Bulk per-core state. The two hottest fields — the clock (the scheduler
/// key, read every step for every re-key and the debug cross-check scan)
/// and the phase (scanned for liveness) — live in dedicated
/// struct-of-arrays vectors on [`Machine`] (`clocks` / `phases`) so the
/// scheduler walks dense arrays instead of striding over this struct.
struct Core {
    vm: Option<Vm>,
    inv: Option<ArInvocation>,
    /// Retry mode of the current attempt.
    mode: RetryMode,
    pending: Option<MemOp>,
    /// Speculative store buffer: word address -> value.
    sq: FxHashMap<u64, u64>,
    /// Abort held while failed-mode discovery continues (§4.1).
    held_abort: Option<AbortKind>,
    discovery: Option<Discovery>,
    /// Mode chosen for the next attempt.
    planned: RetryMode,
    /// Learned footprint for CL-mode retries.
    alt: Option<Alt>,
    lock_list: Vec<LineAddr>,
    retries_counted: u32,
    retries_total: u32,
    power: bool,
    explicit_fb_recorded: bool,
    ert: Ert,
    crt: Crt,
    /// Footprint of the current attempt (Fig. 1 instrumentation).
    fp_cur: LineSet,
    /// Footprint of the first (aborted) attempt of this invocation.
    fp_first: Option<LineSet>,
    /// Cycle at which the current attempt started (trace attribution:
    /// the `Abort` event reports the attempt's cycle span).
    attempt_started_at: u64,
    /// Cycle at which the *first* attempt of the current invocation
    /// started (metrics: time-to-commit spans every retry and back-off).
    first_attempt_at: Option<u64>,
    /// Cycles spent spinning in the current lock-acquisition phase,
    /// reported by the next `LockAcquired` trace event.
    lock_wait_acc: u64,
    /// Bounded read/write-set buffers of the limited-R/W-set backend;
    /// `None` for every backend without [`SpeculationBackend::rw_limits`].
    lrws: Option<Box<RwSetTracker>>,
    /// The current attempt (or planned retry) is NS-CL driven by a static
    /// plan: the access path re-checks line locks and aborts with
    /// [`AbortKind::PlanViolation`] on a miss instead of trusting the
    /// discovery-built exactness invariant.
    plan_nscl: bool,
    /// Resolved root-slot lines of this invocation's likely-immutable
    /// plan; empty when no such plan applies.
    plan_roots: Vec<LineAddr>,
    /// A store of this invocation landed in a root-slot line: the
    /// partial-discovery confirmation failed, no S-CL upgrade.
    plan_root_dirty: bool,
}

impl Core {
    fn new(cc: &ClearConfig, rw_limits: Option<LrwsConfig>) -> Self {
        Core {
            vm: None,
            inv: None,
            mode: RetryMode::SpeculativeRetry,
            pending: None,
            sq: FxHashMap::default(),
            held_abort: None,
            discovery: None,
            planned: RetryMode::SpeculativeRetry,
            alt: None,
            lock_list: Vec::new(),
            retries_counted: 0,
            retries_total: 0,
            power: false,
            explicit_fb_recorded: false,
            ert: Ert::new(cc.ert_entries),
            crt: Crt::new(cc.crt_sets, cc.crt_ways),
            fp_cur: LineSet::new(),
            fp_first: None,
            attempt_started_at: 0,
            first_attempt_at: None,
            lock_wait_acc: 0,
            lrws: rw_limits.map(|l| Box::new(RwSetTracker::new(l))),
            plan_nscl: false,
            plan_roots: Vec::new(),
            plan_root_dirty: false,
        }
    }
}

/// The simulated multicore machine.
///
/// # Examples
///
/// See the crate-level docs and the repository `examples/` directory; the
/// unit tests below exercise single-workload runs end to end.
pub struct Machine {
    config: MachineConfig,
    cores: Vec<Core>,
    /// Per-core clocks, indexed by core id (SoA twin of `cores`; see
    /// [`Core`]).
    clocks: Vec<u64>,
    /// Per-core phases, indexed by core id (SoA twin of `cores`).
    phases: Vec<Phase>,
    coherence: CoherenceSystem,
    fallback: FallbackLock,
    power_token: PowerToken,
    memory: Memory,
    workload: Box<dyn Workload>,
    stats: RunStats,
    rng: Xoshiro256PlusPlus,
    trace: Trace,
    /// Cores whose clocks were pushed forward by a remote abort since the
    /// last scheduler step; the run loop re-keys their tree leaves.
    sched_touched: Vec<usize>,
    /// Cores parked off the tree on a failed lock, fallback-lock or
    /// pending poll, in per-line and fallback-lock queues, plus the
    /// releases and locks of the current step (see the `sched` module).
    waits: WaitList,
    /// Simulator-kernel counters for the current run (see [`crate::perf`]).
    perf: PerfCounters,
    /// Opt-in metrics registry, fed by [`Machine::emit`] (see the `events`
    /// module).
    metrics: Option<Box<events::MachineMetrics>>,
    /// ARs whose static plan tripped the NS-CL guard: the fast path is
    /// disabled for them for the rest of the run.
    poisoned_plans: FxHashSet<u32>,
    /// Reused buffers for per-access/per-lock victim collection, lock
    /// groups and woken cores; taken, filled, and put back on the hot path.
    scratch_victims: Vec<TxInfo>,
    scratch_group: Vec<LineAddr>,
    scratch_wakes: Vec<sched::Wake>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.config.cores)
            .field("workload", &self.workload.meta().name)
            .finish()
    }
}

impl Machine {
    /// Builds a machine, lays out the workload in simulated memory and
    /// allocates the fallback lock line. The machine runs the
    /// configuration's [`MachineConfig::backend`].
    ///
    /// # Panics
    ///
    /// Panics when `max_cycles` is at least `2^(64 - bits) - 2`, `bits =
    /// max(1, ceil(log2 cores))`: the scheduler's packed keys hold no
    /// larger clock (2^54 - 2 at 1024 cores).
    pub fn new(config: MachineConfig, mut workload: Box<dyn Workload>) -> Self {
        assert!(
            config.max_cycles < CoreTree::clock_limit(config.cores),
            "max_cycles {} does not fit the scheduler's packed keys for {} cores",
            config.max_cycles,
            config.cores
        );
        let mut memory = Memory::new();
        let fallback_line = memory.alloc_line().line();
        workload.setup(&mut memory, config.cores);
        let cc = config.backend.clear().copied().unwrap_or_default();
        let cores = (0..config.cores)
            .map(|_| Core::new(&cc, config.backend.rw_limits()))
            .collect();
        let rng = Xoshiro256PlusPlus::seed_from_u64(config.seed);
        Machine {
            coherence: CoherenceSystem::new(config.coherence),
            fallback: FallbackLock::new(fallback_line),
            power_token: PowerToken::new(),
            memory,
            workload,
            cores,
            clocks: vec![0; config.cores],
            phases: vec![Phase::Idle; config.cores],
            stats: RunStats::default(),
            rng,
            trace: Trace::new(),
            sched_touched: Vec::new(),
            waits: WaitList::new(config.cores),
            perf: PerfCounters::default(),
            metrics: None,
            poisoned_plans: FxHashSet::default(),
            scratch_victims: Vec::new(),
            scratch_group: Vec::new(),
            scratch_wakes: Vec::new(),
            config,
        }
    }

    /// Enables event tracing (see [`Trace`]). Call before [`Machine::run`].
    pub fn enable_tracing(&mut self) {
        self.trace.enable();
    }

    /// Enables event tracing with an explicit ring-buffer capacity; once
    /// full, each new record evicts the oldest and counts as dropped.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn enable_tracing_with_capacity(&mut self, capacity: usize) {
        self.trace = Trace::with_capacity(capacity);
        self.trace.enable();
    }

    /// The recorded trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The final committed memory state.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The workload under simulation.
    pub fn workload(&self) -> &dyn Workload {
        self.workload.as_ref()
    }

    /// The speculation backend driving this machine.
    pub fn backend(&self) -> &dyn SpeculationBackend {
        self.config.backend.as_ref()
    }

    /// Runs the workload to completion (or to the `max_cycles` safety stop)
    /// and returns the collected statistics.
    ///
    /// Core selection uses a tournament tree over packed `(clock, core_id)`
    /// keys — a total order, so every step advances the exact same core a
    /// linear `min_by_key` scan would pick, and a re-key rewrites one
    /// leaf-to-root path, O(log cores). Cores waiting on a held lock, or
    /// on a line another core holds locked, are parked off the tree in
    /// keyed queues. A release puts one waiter of each queue it frees back
    /// into the tree, the next once that one has polled, and the skipped
    /// polls are credited, not executed. A woken core's first poll runs
    /// like any other step. This loop is the only way a core advances:
    /// every step runs on the calling thread, one core at a time.
    pub fn run(&mut self) -> RunStats {
        let started = std::time::Instant::now();
        let mut sched = CoreTree::new(self.cores.len());
        for (i, &phase) in self.phases.iter().enumerate() {
            if phase != Phase::Finished {
                sched.push(i, self.clocks[i]);
            }
        }
        self.sched_touched.clear();
        loop {
            let Some(c) = sched.peek() else {
                // Every live core is parked and nothing is left to release
                // them: the polling schedule would spin to the stop.
                if !self.waits.is_empty() {
                    self.time_out_parked();
                }
                break;
            };
            // Before the cross-check: past `max_cycles`, a saturated key
            // can beat the true minimum (`CoreTree::clock_limit`).
            if self.clocks[c] > self.config.max_cycles {
                self.time_out_parked();
                break;
            }
            #[cfg(debug_assertions)]
            self.debug_assert_sched_min(c);
            self.waits.begin_step(c, (self.clocks[c], c));
            self.step_core(c);
            self.perf.steps += 1;
            if self.phases[c] == Phase::Finished {
                sched.remove(c);
            } else if self.waits.is_parked(c) {
                // A failed poll parked the core; it still made the re-key
                // the polling schedule counts.
                sched.remove(c);
                self.perf.sched_updates += 1;
            } else if sched.update(c, self.clocks[c]) {
                self.perf.sched_updates += 1;
            }
            // Parked victims a conflict brought back re-enter the tree
            // first, so the re-keys below count as they would have.
            self.push_materialized(&mut sched);
            // Remote aborts pushed victim clocks forward; re-key them.
            if !self.sched_touched.is_empty() {
                for i in 0..self.sched_touched.len() {
                    let v = self.sched_touched[i];
                    debug_assert!(!self.waits.is_parked(v), "parked core {v} was touched");
                    if v != c && sched.update(v, self.clocks[v]) {
                        self.perf.sched_updates += 1;
                    }
                }
                self.sched_touched.clear();
            }
            self.wake_released(&mut sched);
        }
        self.perf.run_wall_ns += started.elapsed().as_nanos() as u64;
        self.finalize_stats();
        self.stats.clone()
    }

    /// Debug-build cross-check: the tree's minimum must be exactly what
    /// the replaced linear scan over live, unparked cores would have
    /// picked.
    #[cfg(debug_assertions)]
    fn debug_assert_sched_min(&self, picked: usize) {
        let scan = self
            .phases
            .iter()
            .zip(&self.clocks)
            .enumerate()
            .filter(|(i, (&p, _))| p != Phase::Finished && !self.waits.is_parked(*i))
            .min_by_key(|(i, (_, &clock))| (clock, *i))
            .map(|(i, _)| i);
        debug_assert_eq!(scan, Some(picked), "tree disagrees with linear scan");
    }

    fn finalize_stats(&mut self) {
        self.stats.total_cycles = self.clocks.iter().copied().max().unwrap_or(0);
        self.stats.coherence = self.coherence.stats();
        self.perf.coherence_requests = self.stats.coherence.requests();
        self.perf.shards = self.coherence.shard_count() as u64;
        self.perf.shard_lines = self.coherence.shard_lines();
        self.perf.shard_lines_max = self.coherence.shard_lines_max();
        self.perf.trace_events_recorded = self.trace.recorded();
        self.perf.trace_events_dropped = self.trace.dropped();
        self.stats.perf = self.perf;
        self.stats.lock_ops = self.stats.coherence.locks + self.stats.coherence.unlocks;
        self.stats.energy = compute_energy(
            &self.config.energy,
            self.config.cores,
            self.stats.total_cycles,
            self.stats.instructions_retired + self.stats.instructions_wasted,
            self.stats.aborts.total(),
            self.stats.lock_ops,
            &self.stats.coherence,
        );
        self.finalize_metrics();
    }

    fn jitter(&mut self) -> u64 {
        if self.config.timing.backoff_jitter == 0 {
            0
        } else {
            self.rng.gen_range(0..self.config.timing.backoff_jitter)
        }
    }

    fn clear_enabled(&self) -> bool {
        self.config.backend.clear().is_some()
    }

    fn tx_info(&self, c: usize) -> TxInfo {
        TxInfo {
            core: CoreId(c),
            power: self.cores[c].power,
            scl: self.cores[c].mode == RetryMode::SCl
                && matches!(self.phases[c], Phase::Running | Phase::LockAcquire { .. }),
        }
    }

    fn step_core(&mut self, c: usize) {
        match self.phases[c] {
            Phase::Finished => {}
            Phase::Idle => self.fetch_next(c),
            Phase::Think { until } => {
                self.clocks[c] = until;
                self.phases[c] = Phase::StartAttempt;
            }
            Phase::StartAttempt => self.start_attempt(c),
            Phase::LockAcquire { idx } => self.lock_step(c, idx),
            Phase::Running => self.run_step(c),
        }
    }

    fn fetch_next(&mut self, c: usize) {
        match self.workload.next_ar(c, &self.memory) {
            None => self.phases[c] = Phase::Finished,
            Some(inv) => {
                let ar = inv.ar;
                self.emit(c, TraceEvent::ArFetched { ar });
                let until = self.clocks[c] + inv.think_cycles;
                // Static plans: under a backend that locks up front (the
                // §2.2 a-priori locking comparator) an AR with a
                // proved-immutable plan starts in NS-CL with the plan's lock
                // set, bypassing speculation entirely; under CLEAR the plan
                // applies eagerly once this AR has shown contention, so no
                // discovery run ever happens.
                let up_front = self.config.backend.locks_up_front();
                let contended = self.clear_enabled()
                    && self.stats.ar_stats.get(&ar.0).is_some_and(|e| e.aborts > 0);
                let plan_alt = if up_front || contended {
                    self.plan_nscl_alt(&inv)
                } else {
                    None
                };
                let plan_roots = if plan_alt.is_none() {
                    self.plan_root_lines(&inv)
                } else {
                    Vec::new()
                };
                let core = &mut self.cores[c];
                core.inv = Some(inv);
                core.alt = None;
                core.planned = RetryMode::SpeculativeRetry;
                core.plan_nscl = false;
                core.plan_roots = plan_roots;
                core.plan_root_dirty = false;
                core.retries_counted = 0;
                core.retries_total = 0;
                core.fp_first = None;
                core.first_attempt_at = None;
                match plan_alt {
                    Some((alt, _)) if up_front => {
                        core.alt = Some(alt);
                        core.planned = RetryMode::NsCl;
                    }
                    Some(plan) => self.elide_discovery(c, ar, plan, true),
                    None => {}
                }
                self.phases[c] = Phase::Think { until };
            }
        }
    }

    fn arm_vm(&mut self, c: usize) {
        let inv = self.cores[c].inv.as_ref().expect("invocation present");
        let mut vm = Vm::new(Arc::clone(&inv.program));
        for &(r, v) in &inv.args {
            vm.set_reg(r, v);
        }
        let core = &mut self.cores[c];
        core.vm = Some(vm);
        core.pending = None;
        core.sq.clear();
        core.held_abort = None;
        core.fp_cur.clear();
        if let Some(t) = core.lrws.as_mut() {
            t.clear();
        }
    }
}

mod attempt;
mod conflicts;
mod events;
mod locking;
mod memops;
mod plans;
mod sched;
