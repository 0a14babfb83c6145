//! The differential oracle: one fuzz case, three semantics, one verdict.
//!
//! Each case is judged by cross-checking
//!
//! 1. **the clear-isa VM** ([`crate::exec`]) as the sequential reference —
//!    final memory after replaying every committed invocation serially
//!    must equal the machine's final memory, both solo and contended;
//! 2. **the full machine** — commit/abort accounting must close (every
//!    invocation commits exactly once, no explicit or fault aborts), and
//!    the paper's single-retry bound must hold: an attempt started in a
//!    mode the backend's
//!    [`SpeculationBackend::guarantees_commit`](clear_machine::SpeculationBackend::guarantees_commit)
//!    vouches for must commit, never abort;
//! 3. **the static analyzer** — a `static-immutable` verdict on a program
//!    whose failed-mode discovery later observes a mutable footprint is a
//!    soundness violation, full stop.
//!
//! [`check_case_matrix`] widens check 1 and 2 across every built-in
//! [`BackendId`]: the same case runs under all five speculation backends
//! and each final memory image is cross-checked against the serial VM
//! replay. The single-retry scan rides the backend's own
//! `guarantees_commit` answer (only CLEAR promises the bound), and the
//! limited-R/W-set backend's capacity-abort counters must reconcile with
//! the abort taxonomy.
//!
//! Check 4 — **the static fast path** — re-runs the contended
//! configuration with [`clear_analysis::static_plan`]'s plan installed in
//! the machine: the fast-path run must land on the byte-identical final
//! memory, the same commit count, the single-retry bound, and zero
//! plan-guard violations. A plan whose proved-immutable AR dynamically
//! mutates trips the NS-CL guard and is an instant
//! [`Divergence::PlanViolation`]. The matrix oracle runs the same check
//! under every backend (plans are inert off-CLEAR, which the leg then
//! doubles as a control for).
//!
//! Every check reports a structured [`Divergence`] instead of panicking,
//! so the harness can shrink the case and file a reproducer.

use crate::exec::{run_invocation, RefOutcome};
use crate::gen::FuzzCase;
use crate::workload::{initial_image, FuzzWorkload, Layout};
use clear_analysis::{static_plan, StaticBudget, StaticVerdict};
use clear_core::{RetryMode, StaticPlanSet};
use clear_htm::AbortKind;
use clear_machine::{BackendId, Machine, Preset, TraceEvent};
use clear_mem::{Addr, Memory, WORD_BYTES};
use std::fmt;
use std::sync::Arc;

/// Retry budget for oracle runs (the paper's default sweep midpoint).
const MAX_RETRIES: u32 = 5;

/// One way a fuzz case can fail the oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Divergence {
    /// The run under test never finished.
    TimedOut {
        /// `"solo"` or `"contended"`.
        phase: &'static str,
    },
    /// The trace ring dropped events, so the replay order is incomplete.
    TraceDropped {
        /// Events lost.
        dropped: u64,
    },
    /// Commit count differs from the invocation count.
    CommitCount {
        /// `"solo"` or `"contended"`.
        phase: &'static str,
        /// Commits observed.
        got: u64,
        /// Commits expected.
        want: u64,
    },
    /// The machine reported explicit aborts for a program with no `XAbort`.
    ExplicitAbort {
        /// Explicit aborts counted.
        count: u64,
    },
    /// The machine reported fault-class aborts ([`AbortKind::Other`]).
    FaultAbort {
        /// Such aborts counted.
        count: u64,
    },
    /// A guaranteed-commit attempt aborted: the single-retry bound broke.
    SingleRetryViolated {
        /// The offending core.
        core: usize,
        /// The mode the doomed attempt started in.
        mode: RetryMode,
    },
    /// Final memory differs between machine and reference replay.
    MemoryMismatch {
        /// `"solo"` or `"contended"`.
        phase: &'static str,
        /// First differing byte address.
        addr: Addr,
        /// The machine's word there.
        machine: u64,
        /// The reference replay's word there.
        reference: u64,
    },
    /// The reference VM faulted on a lint-clean program.
    ReferenceFault {
        /// The offending byte address.
        addr: Addr,
    },
    /// The reference VM retired `XAbort` (the generator never emits one).
    ReferenceAbort {
        /// Program-supplied code.
        code: u64,
    },
    /// The reference VM exceeded its step cap.
    ReferenceRunaway,
    /// Static `static-immutable` verdict, but discovery observed a mutable
    /// footprint at runtime.
    SoundnessViolation {
        /// Dynamic decisions that contradicted the static verdict.
        decisions: u64,
    },
    /// A static plan tripped its runtime guard: the analyzer called an AR
    /// immutable whose execution touched a line outside the precomputed
    /// lock set.
    PlanViolation {
        /// Guard trips counted.
        count: u64,
    },
    /// Limited-R/W-set buffer counters disagree with the abort taxonomy:
    /// either a backend without bounded buffers reported buffer overflows,
    /// or the buffers overflowed more often than capacity aborts were
    /// recorded.
    CapacityAccounting {
        /// The offending backend's name.
        backend: &'static str,
        /// Buffer-overflow capacity aborts the tracker counted.
        lrws: u64,
        /// Capacity aborts in the taxonomy.
        capacity: u64,
    },
}

impl Divergence {
    /// A stable kind tag for JSON reports and histograms.
    pub fn kind(&self) -> &'static str {
        match self {
            Divergence::TimedOut { .. } => "timed-out",
            Divergence::TraceDropped { .. } => "trace-dropped",
            Divergence::CommitCount { .. } => "commit-count",
            Divergence::ExplicitAbort { .. } => "explicit-abort",
            Divergence::FaultAbort { .. } => "fault-abort",
            Divergence::SingleRetryViolated { .. } => "single-retry-violated",
            Divergence::MemoryMismatch { .. } => "memory-mismatch",
            Divergence::ReferenceFault { .. } => "reference-fault",
            Divergence::ReferenceAbort { .. } => "reference-abort",
            Divergence::ReferenceRunaway => "reference-runaway",
            Divergence::SoundnessViolation { .. } => "soundness-violation",
            Divergence::PlanViolation { .. } => "plan-violation",
            Divergence::CapacityAccounting { .. } => "capacity-accounting",
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::TimedOut { phase } => write!(f, "{phase} run timed out"),
            Divergence::TraceDropped { dropped } => {
                write!(f, "trace ring dropped {dropped} events")
            }
            Divergence::CommitCount { phase, got, want } => {
                write!(f, "{phase} run committed {got} ARs, expected {want}")
            }
            Divergence::ExplicitAbort { count } => {
                write!(f, "{count} explicit aborts from a program with no xabort")
            }
            Divergence::FaultAbort { count } => {
                write!(f, "{count} fault-class aborts on a lint-clean program")
            }
            Divergence::SingleRetryViolated { core, mode } => {
                write!(
                    f,
                    "core {core}: {mode} attempt aborted (single-retry bound)"
                )
            }
            Divergence::MemoryMismatch {
                phase,
                addr,
                machine,
                reference,
            } => write!(
                f,
                "{phase} memory diverged at {addr}: machine {machine:#x}, reference {reference:#x}"
            ),
            Divergence::ReferenceFault { addr } => {
                write!(f, "reference VM faulted at {addr}")
            }
            Divergence::ReferenceAbort { code } => {
                write!(f, "reference VM hit xabort({code})")
            }
            Divergence::ReferenceRunaway => f.write_str("reference VM exceeded its step cap"),
            Divergence::SoundnessViolation { decisions } => write!(
                f,
                "static-immutable verdict contradicted by {decisions} mutable dynamic decisions"
            ),
            Divergence::PlanViolation { count } => write!(
                f,
                "static plan tripped its runtime guard {count} times (analyzer unsound)"
            ),
            Divergence::CapacityAccounting {
                backend,
                lrws,
                capacity,
            } => write!(
                f,
                "{backend}: {lrws} R/W-set overflows vs {capacity} capacity aborts"
            ),
        }
    }
}

/// The oracle's full account of one case.
#[derive(Clone, Debug)]
pub struct CaseReport {
    /// Case index within the run.
    pub index: u64,
    /// Per-case seed.
    pub seed: u64,
    /// Lowered program length in instructions.
    pub program_len: usize,
    /// Drafts the lint filter rejected before this case.
    pub rejected: u32,
    /// Static verdict name.
    pub verdict: &'static str,
    /// Threads in the contended phase.
    pub threads: usize,
    /// Invocations per thread.
    pub invocations: usize,
    /// Instructions the machine retired across both phases.
    pub machine_instructions: u64,
    /// Steps the reference VM retired across both phases.
    pub reference_steps: u64,
    /// Machine commits by mode in the contended phase
    /// `(speculative, nscl, scl, fallback)`.
    pub mode_commits: (u64, u64, u64, u64),
    /// Machine aborts in the contended phase.
    pub aborts: u64,
    /// ARs the analyzer emitted a static plan for (0 or 1 — every case
    /// has exactly one AR).
    pub planned_ars: usize,
    /// Discovery runs the fast-path leg elided outright.
    pub fastpath_elided: u64,
    /// Discovery runs the fast-path leg shortened to root confirmation.
    pub fastpath_partial: u64,
    /// The first divergence found, if any. `None` means the case passed.
    pub divergence: Option<Divergence>,
}

/// The analyzer's plan set for a case: [`static_plan`] on the single AR
/// program, keyed by its static id. Plans are symbolic in the entry
/// registers, so the canonical layout serves every machine shape. An
/// empty set is the analyzer declining — the fast-path leg still runs
/// (the machinery must be a no-op then).
fn case_plans(case: &FuzzCase) -> Arc<StaticPlanSet> {
    let mut plans = StaticPlanSet::default();
    if let Some(plan) = static_plan(
        &case.program,
        &case.entry_ctx(&Layout::canonical()),
        &StaticBudget::default(),
    ) {
        plans.insert(0, plan);
    }
    Arc::new(plans)
}

/// Replays `n` reference invocations serially on `mem`; returns total
/// steps or the divergence.
fn replay(case: &FuzzCase, layout: &Layout, mem: &mut Memory, n: usize) -> Result<u64, Divergence> {
    let args = case.args(layout);
    let mut steps = 0;
    for _ in 0..n {
        match run_invocation(&case.program, &args, mem) {
            RefOutcome::Committed { steps: s } => steps += s,
            RefOutcome::Fault { addr } => return Err(Divergence::ReferenceFault { addr }),
            RefOutcome::ExplicitAbort { code } => return Err(Divergence::ReferenceAbort { code }),
            RefOutcome::Runaway => return Err(Divergence::ReferenceRunaway),
        }
    }
    Ok(steps)
}

/// Compares two memory images from `start` up; missing trailing words read
/// as zero, matching [`Memory::load_word`].
fn compare_images(
    phase: &'static str,
    start: Addr,
    machine: &Memory,
    reference: &Memory,
) -> Option<Divergence> {
    let (m, r) = (machine.words(), reference.words());
    let len = m.len().max(r.len());
    for w in start.word_index()..len {
        let mv = m.get(w).copied().unwrap_or(0);
        let rv = r.get(w).copied().unwrap_or(0);
        if mv != rv {
            return Some(Divergence::MemoryMismatch {
                phase,
                addr: Addr(w as u64 * WORD_BYTES),
                machine: mv,
                reference: rv,
            });
        }
    }
    None
}

/// Scans one core's event stream for an attempt that aborted despite
/// starting in a mode `guarantees` vouches for. The predicate is the
/// machine backend's `guarantees_commit`, so the scan is armed exactly
/// where the design promises the bound (CLEAR's NS-CL) and can never
/// silently pass for a backend that promises nothing.
fn single_retry_violation(
    events: impl Iterator<Item = TraceEvent>,
    core: usize,
    guarantees: impl Fn(RetryMode) -> bool,
) -> Option<Divergence> {
    let mut pending: Option<RetryMode> = None;
    for e in events {
        match e {
            TraceEvent::AttemptStart { mode } => pending = Some(mode),
            TraceEvent::Commit { .. } => pending = None,
            TraceEvent::Abort { .. } => {
                if let Some(mode) = pending.take() {
                    if guarantees(mode) {
                        return Some(Divergence::SingleRetryViolated { core, mode });
                    }
                }
            }
            _ => {}
        }
    }
    None
}

/// Runs the full differential oracle on one case at the case's own
/// contended-phase thread count.
pub fn check_case(case: &Arc<FuzzCase>) -> CaseReport {
    check_case_at(case, case.threads)
}

/// [`check_case`] with the contended phase widened (or narrowed) to an
/// explicit core count. The workload hands every machine thread the full
/// `invocations` quota, so the expected commit count scales to
/// `cores * invocations` — this is how the oracle and the single-retry
/// bound are exercised beyond the generator's native thread range (e.g.
/// on 128-core sharded-directory configurations).
///
/// # Panics
///
/// Panics if `cores` is zero.
pub fn check_case_at(case: &Arc<FuzzCase>, cores: usize) -> CaseReport {
    assert!(cores > 0, "contended phase needs at least one core");
    let analysis = case.analysis();
    let mut report = CaseReport {
        index: case.index,
        seed: case.seed,
        program_len: case.program.len(),
        rejected: case.rejected,
        verdict: analysis.verdict.name(),
        threads: cores,
        invocations: case.invocations,
        machine_instructions: 0,
        reference_steps: 0,
        mode_commits: (0, 0, 0, 0),
        aborts: 0,
        planned_ars: 0,
        fastpath_elided: 0,
        fastpath_partial: 0,
        divergence: None,
    };

    // Phase 1: solo — one core, no contention. Any abort at all here is
    // suspicious, but the binding check is the memory image.
    {
        let mut cfg = Preset::C.config(1, MAX_RETRIES);
        cfg.seed = case.seed;
        let mut machine = Machine::new(cfg, Box::new(FuzzWorkload::new(Arc::clone(case))));
        let stats = machine.run();
        report.machine_instructions += stats.instructions_retired;
        if stats.timed_out {
            report.divergence = Some(Divergence::TimedOut { phase: "solo" });
            return report;
        }
        let want = case.invocations as u64;
        if stats.commits_by_mode.total() != want {
            report.divergence = Some(Divergence::CommitCount {
                phase: "solo",
                got: stats.commits_by_mode.total(),
                want,
            });
            return report;
        }
        let (mut ref_mem, layout) = initial_image(case, 1);
        match replay(case, &layout, &mut ref_mem, case.invocations) {
            Ok(steps) => report.reference_steps += steps,
            Err(d) => {
                report.divergence = Some(d);
                return report;
            }
        }
        if let Some(d) = compare_images("solo", layout.start, machine.memory(), &ref_mem) {
            report.divergence = Some(d);
            return report;
        }
    }

    // Phase 2: contended — every thread hammers the same lines, tracing on.
    let mut cfg = Preset::C.config(cores, MAX_RETRIES);
    cfg.seed = case.seed;
    let mut machine = Machine::new(cfg, Box::new(FuzzWorkload::new(Arc::clone(case))));
    machine.enable_tracing();
    let stats = machine.run();
    report.machine_instructions += stats.instructions_retired;
    report.mode_commits = (
        stats.commits_by_mode.speculative,
        stats.commits_by_mode.nscl,
        stats.commits_by_mode.scl,
        stats.commits_by_mode.fallback,
    );
    report.aborts = stats.aborts.total();
    if stats.timed_out {
        report.divergence = Some(Divergence::TimedOut { phase: "contended" });
        return report;
    }
    if machine.trace().dropped() > 0 {
        report.divergence = Some(Divergence::TraceDropped {
            dropped: machine.trace().dropped(),
        });
        return report;
    }
    let explicit = stats.aborts.get(AbortKind::Explicit);
    if explicit > 0 {
        report.divergence = Some(Divergence::ExplicitAbort { count: explicit });
        return report;
    }
    let faults = stats.aborts.get(AbortKind::Other);
    if faults > 0 {
        report.divergence = Some(Divergence::FaultAbort { count: faults });
        return report;
    }
    let want = (cores * case.invocations) as u64;
    let committed = machine.trace().commits().count() as u64;
    if stats.commits_by_mode.total() != want || committed != want {
        report.divergence = Some(Divergence::CommitCount {
            phase: "contended",
            got: stats.commits_by_mode.total().min(committed),
            want,
        });
        return report;
    }
    for core in 0..cores {
        if let Some(d) =
            single_retry_violation(machine.trace().core_events(core).cloned(), core, |m| {
                machine.backend().guarantees_commit(m)
            })
        {
            report.divergence = Some(d);
            return report;
        }
    }
    // Serialization replay: commit-event order is the serialization order
    // (see `Trace::commits`); every invocation runs the same program with
    // the same args, so replaying `want` of them serially must land on
    // exactly the machine's final image if the ARs were atomic.
    let (mut ref_mem, layout) = initial_image(case, cores);
    match replay(case, &layout, &mut ref_mem, want as usize) {
        Ok(steps) => report.reference_steps += steps,
        Err(d) => {
            report.divergence = Some(d);
            return report;
        }
    }
    if let Some(d) = compare_images("contended", layout.start, machine.memory(), &ref_mem) {
        report.divergence = Some(d);
        return report;
    }

    // Phase 3: static-verdict soundness against the traced decisions.
    if analysis.verdict == StaticVerdict::StaticImmutable {
        let contradicted = machine
            .trace()
            .records()
            .filter(|r| {
                matches!(
                    r.event,
                    TraceEvent::Decision {
                        immutable: false,
                        ..
                    }
                )
            })
            .count() as u64;
        if contradicted > 0 {
            report.divergence = Some(Divergence::SoundnessViolation {
                decisions: contradicted,
            });
            return report;
        }
    }

    // Phase 4: the static fast path. The same contended configuration
    // with the analyzer's plan installed must be indistinguishable from
    // discovery: identical final memory, the same commit count, the
    // single-retry bound, and no plan-guard trips. A fast-path AR that
    // dynamically mutates is an instant divergence.
    let plans = case_plans(case);
    report.planned_ars = plans.len();
    let mut cfg = Preset::C.config(cores, MAX_RETRIES);
    cfg.seed = case.seed;
    cfg.static_plans = Some(plans);
    let mut machine = Machine::new(cfg, Box::new(FuzzWorkload::new(Arc::clone(case))));
    machine.enable_tracing();
    let stats = machine.run();
    report.machine_instructions += stats.instructions_retired;
    report.fastpath_elided = stats.discovery_runs_elided;
    report.fastpath_partial = stats.partial_discovery_runs;
    if stats.timed_out {
        report.divergence = Some(Divergence::TimedOut { phase: "fastpath" });
        return report;
    }
    if stats.static_plan_violations > 0 {
        report.divergence = Some(Divergence::PlanViolation {
            count: stats.static_plan_violations,
        });
        return report;
    }
    if machine.trace().dropped() > 0 {
        report.divergence = Some(Divergence::TraceDropped {
            dropped: machine.trace().dropped(),
        });
        return report;
    }
    if stats.commits_by_mode.total() != want {
        report.divergence = Some(Divergence::CommitCount {
            phase: "fastpath",
            got: stats.commits_by_mode.total(),
            want,
        });
        return report;
    }
    for core in 0..cores {
        if let Some(d) =
            single_retry_violation(machine.trace().core_events(core).cloned(), core, |m| {
                machine.backend().guarantees_commit(m)
            })
        {
            report.divergence = Some(d);
            return report;
        }
    }
    // Every invocation runs the same program with the same args, so the
    // fast-path serialization replays to the same image the baseline
    // replay already produced.
    if let Some(d) = compare_images("fastpath", layout.start, machine.memory(), &ref_mem) {
        report.divergence = Some(d);
        return report;
    }

    report
}

/// One backend's verdict on a matrix case.
#[derive(Clone, Debug)]
pub struct BackendOutcome {
    /// The backend's stable name.
    pub backend: &'static str,
    /// Commits in the contended run.
    pub commits: u64,
    /// Aborts of any kind in the contended run.
    pub aborts: u64,
    /// Capacity aborts in the taxonomy.
    pub capacity_aborts: u64,
    /// Capacity aborts charged to the limited R/W-set buffers.
    pub lrws_capacity_aborts: u64,
    /// Discovery runs the fast-path leg elided (nonzero only under
    /// CLEAR — plans are inert everywhere else).
    pub fastpath_elided: u64,
    /// The first divergence under this backend; `None` means it passed.
    pub divergence: Option<Divergence>,
}

/// Phase label for the fast-path leg of one backend's matrix run.
fn fastpath_phase(id: BackendId) -> &'static str {
    match id {
        BackendId::Tsx => "tsx+plan",
        BackendId::PowerTm => "powertm+plan",
        BackendId::Sle => "sle+plan",
        BackendId::Clear => "clear+plan",
        BackendId::Lrws => "lrws+plan",
        BackendId::ClearPowerTm => "clear-powertm+plan",
    }
}

/// The backend-matrix oracle's account of one case: one
/// [`BackendOutcome`] per built-in backend, in [`BackendId::ALL`] order.
#[derive(Clone, Debug)]
pub struct MatrixReport {
    /// Case index within the run.
    pub index: u64,
    /// Per-case seed.
    pub seed: u64,
    /// Threads in every contended run.
    pub threads: usize,
    /// Invocations per thread.
    pub invocations: usize,
    /// Per-backend verdicts.
    pub outcomes: Vec<BackendOutcome>,
}

impl MatrixReport {
    /// The first diverging backend, if any.
    pub fn divergence(&self) -> Option<(&'static str, &Divergence)> {
        self.outcomes
            .iter()
            .find_map(|o| o.divergence.as_ref().map(|d| (o.backend, d)))
    }

    /// `true` when every backend passed every check.
    pub fn passed(&self) -> bool {
        self.divergence().is_none()
    }
}

/// Runs one fuzz case under every built-in speculation backend
/// ([`BackendId::ALL`]) at the case's own thread count, cross-checking
/// each backend's final memory image against the serial VM replay.
///
/// Per backend: the run must finish, trace nothing away, commit exactly
/// `threads * invocations` ARs (both by the statistics and by the trace),
/// raise no explicit or fault-class aborts, uphold the single-retry bound
/// wherever its own `guarantees_commit` promises one, and reconcile the
/// limited-R/W-set buffer counters with the Capacity bucket of the abort
/// taxonomy (non-bounded backends must report zero buffer overflows).
pub fn check_case_matrix(case: &Arc<FuzzCase>) -> MatrixReport {
    let mut report = MatrixReport {
        index: case.index,
        seed: case.seed,
        threads: case.threads,
        invocations: case.invocations,
        outcomes: Vec::with_capacity(BackendId::ALL.len()),
    };
    for id in BackendId::ALL {
        report.outcomes.push(check_backend(case, id));
    }
    report
}

/// One backend's leg of the matrix: contended run + full check battery.
fn check_backend(case: &Arc<FuzzCase>, id: BackendId) -> BackendOutcome {
    let name = id.name();
    let mut cfg = id.config(case.threads, MAX_RETRIES);
    cfg.seed = case.seed;
    let mut machine = Machine::new(cfg, Box::new(FuzzWorkload::new(Arc::clone(case))));
    debug_assert_eq!(machine.backend().name(), name);
    machine.enable_tracing();
    let stats = machine.run();
    let mut outcome = BackendOutcome {
        backend: name,
        commits: stats.commits_by_mode.total(),
        aborts: stats.aborts.total(),
        capacity_aborts: stats.aborts.get(AbortKind::Capacity),
        lrws_capacity_aborts: stats.lrws_capacity_aborts(),
        fastpath_elided: 0,
        divergence: None,
    };
    if stats.timed_out {
        outcome.divergence = Some(Divergence::TimedOut { phase: name });
        return outcome;
    }
    if machine.trace().dropped() > 0 {
        outcome.divergence = Some(Divergence::TraceDropped {
            dropped: machine.trace().dropped(),
        });
        return outcome;
    }
    let explicit = stats.aborts.get(AbortKind::Explicit);
    if explicit > 0 {
        outcome.divergence = Some(Divergence::ExplicitAbort { count: explicit });
        return outcome;
    }
    let faults = stats.aborts.get(AbortKind::Other);
    if faults > 0 {
        outcome.divergence = Some(Divergence::FaultAbort { count: faults });
        return outcome;
    }
    let want = (case.threads * case.invocations) as u64;
    let committed = machine.trace().commits().count() as u64;
    if stats.commits_by_mode.total() != want || committed != want {
        outcome.divergence = Some(Divergence::CommitCount {
            phase: name,
            got: stats.commits_by_mode.total().min(committed),
            want,
        });
        return outcome;
    }
    // Capacity accounting: buffer overflows are a subset of the Capacity
    // bucket, and only the bounded backend may report any.
    let lrws = stats.lrws_capacity_aborts();
    let capacity = stats.aborts.get(AbortKind::Capacity);
    let bounded = machine.backend().rw_limits().is_some();
    if (bounded && lrws > capacity) || (!bounded && lrws > 0) {
        outcome.divergence = Some(Divergence::CapacityAccounting {
            backend: name,
            lrws,
            capacity,
        });
        return outcome;
    }
    for core in 0..case.threads {
        if let Some(d) =
            single_retry_violation(machine.trace().core_events(core).cloned(), core, |m| {
                machine.backend().guarantees_commit(m)
            })
        {
            outcome.divergence = Some(d);
            return outcome;
        }
    }
    let (mut ref_mem, layout) = initial_image(case, case.threads);
    if let Err(d) = replay(case, &layout, &mut ref_mem, want as usize) {
        outcome.divergence = Some(d);
        return outcome;
    }
    if let Some(d) = compare_images(name, layout.start, machine.memory(), &ref_mem) {
        outcome.divergence = Some(d);
        return outcome;
    }

    // The fast-path leg: same backend, plan installed. Under CLEAR it
    // must elide discovery without changing anything observable; under
    // every other backend it must be a strict no-op.
    let phase = fastpath_phase(id);
    let mut cfg = id.config(case.threads, MAX_RETRIES);
    cfg.seed = case.seed;
    cfg.static_plans = Some(case_plans(case));
    let mut machine = Machine::new(cfg, Box::new(FuzzWorkload::new(Arc::clone(case))));
    machine.enable_tracing();
    let stats = machine.run();
    outcome.fastpath_elided = stats.discovery_runs_elided;
    if stats.timed_out {
        outcome.divergence = Some(Divergence::TimedOut { phase });
        return outcome;
    }
    if stats.static_plan_violations > 0 {
        outcome.divergence = Some(Divergence::PlanViolation {
            count: stats.static_plan_violations,
        });
        return outcome;
    }
    if stats.commits_by_mode.total() != want {
        outcome.divergence = Some(Divergence::CommitCount {
            phase,
            got: stats.commits_by_mode.total(),
            want,
        });
        return outcome;
    }
    for core in 0..case.threads {
        if let Some(d) =
            single_retry_violation(machine.trace().core_events(core).cloned(), core, |m| {
                machine.backend().guarantees_commit(m)
            })
        {
            outcome.divergence = Some(d);
            return outcome;
        }
    }
    outcome.divergence = compare_images(phase, layout.start, machine.memory(), &ref_mem);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_batch_of_generated_cases_passes_the_oracle() {
        let mut planned = 0usize;
        for i in 0..12 {
            let case = Arc::new(FuzzCase::generate(0xFACE, i));
            let r = check_case(&case);
            assert!(
                r.divergence.is_none(),
                "case {i} diverged: {}",
                r.divergence.unwrap()
            );
            assert!(r.machine_instructions > 0);
            assert!(r.reference_steps > 0);
            planned += r.planned_ars;
        }
        // Phase 4 only bites when the analyzer actually emits plans; the
        // generator must keep producing plannable programs.
        assert!(planned > 0, "no generated case produced a static plan");
    }

    #[test]
    fn wide_contention_upholds_oracle_and_single_retry_bound() {
        // 128 cores exceeds the inline width of every per-core bitset and
        // spans many directory shards: the oracle, the commit accounting
        // and the single-retry bound must all survive the wide machine.
        for i in 0..2 {
            let case = Arc::new(FuzzCase::generate(0xFACE, i));
            let r = check_case_at(&case, 128);
            assert!(
                r.divergence.is_none(),
                "wide case {i} diverged: {}",
                r.divergence.unwrap()
            );
            assert_eq!(r.threads, 128);
            assert_eq!(
                r.mode_commits.0 + r.mode_commits.1 + r.mode_commits.2 + r.mode_commits.3,
                128 * case.invocations as u64
            );
        }
    }

    #[test]
    fn reports_are_deterministic() {
        let case = Arc::new(FuzzCase::generate(0xFACE, 3));
        let (a, b) = (check_case(&case), check_case(&case));
        assert_eq!(a.machine_instructions, b.machine_instructions);
        assert_eq!(a.reference_steps, b.reference_steps);
        assert_eq!(a.mode_commits, b.mode_commits);
        assert_eq!(a.aborts, b.aborts);
    }

    #[test]
    fn single_retry_scan_flags_nscl_abort() {
        use clear_htm::AbortKind;
        let events = vec![
            TraceEvent::AttemptStart {
                mode: RetryMode::NsCl,
            },
            TraceEvent::Abort {
                kind: AbortKind::MemoryConflict,
                span: 10,
            },
        ];
        let d = single_retry_violation(events.into_iter(), 2, |m| m == RetryMode::NsCl)
            .expect("violation");
        assert_eq!(
            d,
            Divergence::SingleRetryViolated {
                core: 2,
                mode: RetryMode::NsCl
            }
        );
        assert_eq!(d.kind(), "single-retry-violated");
    }

    #[test]
    fn single_retry_scan_accepts_speculative_aborts() {
        use clear_htm::AbortKind;
        let events = vec![
            TraceEvent::AttemptStart {
                mode: RetryMode::SpeculativeRetry,
            },
            TraceEvent::Abort {
                kind: AbortKind::MemoryConflict,
                span: 10,
            },
            TraceEvent::AttemptStart {
                mode: RetryMode::NsCl,
            },
            TraceEvent::Commit {
                mode: RetryMode::NsCl,
                retries: 1,
            },
        ];
        assert!(single_retry_violation(events.into_iter(), 0, |m| m == RetryMode::NsCl).is_none());
    }

    #[test]
    fn single_retry_scan_is_disarmed_for_non_bounding_backends() {
        use clear_htm::AbortKind;
        // The same NS-CL abort that flags CLEAR passes when the backend
        // guarantees nothing (the scan asks the backend, not the mode).
        let events = vec![
            TraceEvent::AttemptStart {
                mode: RetryMode::NsCl,
            },
            TraceEvent::Abort {
                kind: AbortKind::MemoryConflict,
                span: 10,
            },
        ];
        assert!(single_retry_violation(events.into_iter(), 0, |_| false).is_none());
    }

    #[test]
    fn a_batch_of_generated_cases_passes_the_backend_matrix() {
        for i in 0..4 {
            let case = Arc::new(FuzzCase::generate(0xFACE, i));
            let r = check_case_matrix(&case);
            assert_eq!(r.outcomes.len(), BackendId::ALL.len());
            for (o, id) in r.outcomes.iter().zip(BackendId::ALL) {
                assert_eq!(o.backend, id.name());
                assert_eq!(
                    o.commits,
                    (case.threads * case.invocations) as u64,
                    "{} commit count",
                    o.backend
                );
                if id != BackendId::Lrws {
                    assert_eq!(o.lrws_capacity_aborts, 0, "{}", o.backend);
                }
            }
            assert!(
                r.passed(),
                "case {i} diverged under {:?}",
                r.divergence().map(|(b, d)| format!("{b}: {d}"))
            );
        }
    }

    #[test]
    fn matrix_reports_are_deterministic() {
        let case = Arc::new(FuzzCase::generate(0xFACE, 5));
        let (a, b) = (check_case_matrix(&case), check_case_matrix(&case));
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.backend, y.backend);
            assert_eq!(x.commits, y.commits);
            assert_eq!(x.aborts, y.aborts);
            assert_eq!(x.capacity_aborts, y.capacity_aborts);
            assert_eq!(x.lrws_capacity_aborts, y.lrws_capacity_aborts);
        }
    }

    #[test]
    fn image_compare_reports_first_mismatch() {
        let mut a = Memory::new();
        let base = a.alloc_words(8);
        let mut b = a.clone();
        a.store_word(base.add_words(2), 7);
        b.store_word(base.add_words(2), 9);
        let d = compare_images("solo", base, &a, &b).expect("mismatch");
        match d {
            Divergence::MemoryMismatch {
                addr,
                machine,
                reference,
                ..
            } => {
                assert_eq!(addr, base.add_words(2));
                assert_eq!((machine, reference), (7, 9));
            }
            other => panic!("{other:?}"),
        }
    }
}
