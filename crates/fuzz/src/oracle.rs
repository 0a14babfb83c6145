//! The differential oracle: one fuzz case, three semantics, one verdict.
//!
//! Each case is judged by cross-checking
//!
//! 1. **the clear-isa VM** ([`crate::exec`]) as the sequential reference —
//!    final memory after replaying every committed invocation serially
//!    must equal the machine's final memory;
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
//! Every machine run is one *leg*: a backend, a core count, an optional
//! static plan set and a phase label. Every leg runs the same check
//! battery in one fixed order — the run finished, no plan-guard trips, no
//! dropped trace events, no explicit or fault aborts, the commit count by
//! the statistics and by the trace, capacity accounting (limited-R/W-set
//! buffer overflows are a subset of the capacity aborts, and only a
//! bounded backend reports any), the per-core single-retry scan, and the
//! final memory against the serial VM replay — and reports the first
//! failure tagged with its phase.
//!
//! [`check_case`] runs a CLEAR `solo` leg on one core, then two legs per
//! built-in [`BackendId`] at the contended width (the `lrws` legs with
//! buffers smaller than a generated case's footprint): `<backend>` (every
//! thread on the same lines) and `<backend>+plan`, the same run with
//! [`clear_analysis::static_plan`]'s plan installed. A plan whose
//! proved-immutable AR dynamically mutates trips the NS-CL guard and is an
//! instant [`Divergence::PlanViolation`]; plans are inert off-CLEAR, which
//! the plan leg then doubles as a control for. The soundness scan reads
//! CLEAR's plain trace. The single-retry scan rides each backend's own
//! `guarantees_commit` answer (only CLEAR promises the bound).
//!
//! Every check reports a structured [`Divergence`] instead of panicking,
//! so the harness can shrink the case and file a reproducer.

use crate::exec::{run_invocation, RefOutcome};
use crate::gen::FuzzCase;
use crate::workload::{initial_image, FuzzWorkload, Layout};
use clear_analysis::{static_plan, StaticBudget, StaticVerdict};
use clear_core::{RetryMode, StaticPlanSet};
use clear_htm::{AbortKind, LrwsConfig};
use clear_machine::{BackendId, LrwsBackend, Machine, ModeCommits, RunStats, TraceEvent};
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
        /// The leg's phase: `solo`, `<backend>` or `<backend>+plan`.
        phase: &'static str,
    },
    /// The trace ring dropped events, so the replay order is incomplete.
    TraceDropped {
        /// Events lost.
        dropped: u64,
    },
    /// Commit count differs from the invocation count.
    CommitCount {
        /// The leg's phase: `solo`, `<backend>` or `<backend>+plan`.
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
        /// The leg's phase: `solo`, `<backend>` or `<backend>+plan`.
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

/// One backend's row of a case report: its plain and `+plan` legs at the
/// contended width. CLEAR's row also holds the solo leg and the soundness
/// scan.
#[derive(Clone, Debug)]
pub struct BackendOutcome {
    /// The backend's stable name.
    pub backend: &'static str,
    /// Commits by mode in the plain leg.
    pub commits: ModeCommits,
    /// Aborts of any kind in the plain leg.
    pub aborts: u64,
    /// Capacity aborts in the taxonomy.
    pub capacity_aborts: u64,
    /// Capacity aborts charged to the limited R/W-set buffers.
    pub lrws_capacity_aborts: u64,
    /// Discovery runs the `+plan` leg elided outright (nonzero only under
    /// CLEAR — plans are inert everywhere else).
    pub fastpath_elided: u64,
    /// Discovery runs the `+plan` leg shortened to root confirmation.
    pub fastpath_partial: u64,
    /// Instructions the machine retired across the row's legs.
    pub instructions: u64,
    /// The first divergence under this backend; `None` means it passed.
    pub divergence: Option<Divergence>,
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
    /// Threads in every contended leg.
    pub threads: usize,
    /// Invocations per thread.
    pub invocations: usize,
    /// Steps the reference VM retired replaying the solo and the contended
    /// widths (every contended leg shares one replay).
    pub reference_steps: u64,
    /// ARs the analyzer emitted a static plan for (0 or 1 — every case
    /// has exactly one AR).
    pub planned_ars: usize,
    /// One row per built-in backend, in [`BackendId::ALL`] order.
    pub backends: Vec<BackendOutcome>,
}

impl CaseReport {
    /// CLEAR's row.
    pub fn clear(&self) -> &BackendOutcome {
        let i = BackendId::ALL.iter().position(|&id| id == BackendId::Clear);
        &self.backends[i.expect("CLEAR is a built-in backend")]
    }

    /// The first diverging backend and its divergence, if any.
    pub fn divergence(&self) -> Option<(&'static str, &Divergence)> {
        self.backends
            .iter()
            .find_map(|o| o.divergence.as_ref().map(|d| (o.backend, d)))
    }

    /// `true` when every leg passed every check.
    pub fn passed(&self) -> bool {
        self.divergence().is_none()
    }
}

/// The analyzer's plan set for a case: [`static_plan`] on the single AR
/// program, keyed by its static id. Plans are symbolic in the entry
/// registers, so the canonical layout serves every machine shape. An
/// empty set is the analyzer declining — each `+plan` leg still runs
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

/// The serial VM replay a leg's final memory must equal.
struct Reference {
    layout: Layout,
    memory: Memory,
    /// Steps the reference VM retired.
    steps: u64,
}

/// Replays `cores * invocations` invocations serially on the initial
/// image for `cores` threads. Commit-event order is the serialization
/// order (see `Trace::commits`), and every invocation runs the same
/// program with the same args, so an atomic run on `cores` cores must
/// land on exactly this image.
fn reference(case: &Arc<FuzzCase>, cores: usize) -> Result<Reference, Divergence> {
    let (mut memory, layout) = initial_image(case, cores);
    let args = case.args(&layout);
    let mut steps = 0;
    for _ in 0..cores * case.invocations {
        match run_invocation(&case.program, &args, &mut memory) {
            RefOutcome::Committed { steps: s } => steps += s,
            RefOutcome::Fault { addr } => return Err(Divergence::ReferenceFault { addr }),
            RefOutcome::ExplicitAbort { code } => return Err(Divergence::ReferenceAbort { code }),
            RefOutcome::Runaway => return Err(Divergence::ReferenceRunaway),
        }
    }
    Ok(Reference {
        layout,
        memory,
        steps,
    })
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

/// One traced machine run of a case and the check battery's verdict.
struct Leg {
    stats: RunStats,
    /// The finished machine, kept for its trace.
    machine: Machine,
    /// The first check the run failed; `None` means it passed them all.
    divergence: Option<Divergence>,
}

/// Runs `case` on `cores` cores of backend `id`, traced and with `plans`
/// installed if given, then applies the check battery against
/// `reference`. A divergence carries `phase` where it names one.
fn leg(
    case: &Arc<FuzzCase>,
    id: BackendId,
    cores: usize,
    plans: Option<Arc<StaticPlanSet>>,
    phase: &'static str,
    reference: &Result<Reference, Divergence>,
) -> Leg {
    let mut cfg = id.config(cores, MAX_RETRIES);
    if id == BackendId::Lrws {
        // A case touches up to 8 data lines, which the default buffers
        // always hold: smaller ones make the capacity check see overflows.
        let limits = LrwsConfig {
            read_lines: 4,
            write_lines: 2,
        };
        cfg.backend = Arc::new(LrwsBackend { limits });
    }
    cfg.seed = case.seed;
    cfg.static_plans = plans;
    let mut machine = Machine::new(cfg, Box::new(FuzzWorkload::new(Arc::clone(case))));
    machine.enable_tracing();
    let stats = machine.run();
    let want = (cores * case.invocations) as u64;
    let divergence = battery(&machine, &stats, id.name(), phase, cores, want, reference).err();
    Leg {
        stats,
        machine,
        divergence,
    }
}

/// The check battery every leg runs, in its one fixed order.
fn battery(
    machine: &Machine,
    run: &RunStats,
    backend: &'static str,
    phase: &'static str,
    cores: usize,
    want: u64,
    reference: &Result<Reference, Divergence>,
) -> Result<(), Divergence> {
    if run.timed_out {
        return Err(Divergence::TimedOut { phase });
    }
    if run.static_plan_violations > 0 {
        return Err(Divergence::PlanViolation {
            count: run.static_plan_violations,
        });
    }
    let trace = machine.trace();
    if trace.dropped() > 0 {
        return Err(Divergence::TraceDropped {
            dropped: trace.dropped(),
        });
    }
    let explicit = run.aborts.get(AbortKind::Explicit);
    if explicit > 0 {
        return Err(Divergence::ExplicitAbort { count: explicit });
    }
    let faults = run.aborts.get(AbortKind::Other);
    if faults > 0 {
        return Err(Divergence::FaultAbort { count: faults });
    }
    let (counted, traced) = (run.commits_by_mode.total(), trace.commits().count() as u64);
    if counted != want || traced != want {
        return Err(Divergence::CommitCount {
            phase,
            got: counted.min(traced),
            want,
        });
    }
    // Buffer overflows are a subset of the Capacity bucket, and only a
    // bounded backend may report any.
    let lrws = run.lrws_capacity_aborts();
    let capacity = run.aborts.get(AbortKind::Capacity);
    let bounded = machine.backend().rw_limits().is_some();
    if (bounded && lrws > capacity) || (!bounded && lrws > 0) {
        return Err(Divergence::CapacityAccounting {
            backend,
            lrws,
            capacity,
        });
    }
    for core in 0..cores {
        let events = trace.core_events(core).cloned();
        if let Some(d) =
            single_retry_violation(events, core, |m| machine.backend().guarantees_commit(m))
        {
            return Err(d);
        }
    }
    let Reference { layout, memory, .. } = reference.as_ref().map_err(Clone::clone)?;
    compare_images(phase, layout.start, machine.memory(), memory).map_or(Ok(()), Err)
}

/// Runs the full differential oracle on one case with every contended
/// leg at `cores` cores. The workload hands every machine thread the full
/// `invocations` quota, so the expected commit count scales to
/// `cores * invocations` — this is how the oracle and the single-retry
/// bound are exercised beyond the generator's native thread range (e.g.
/// on 128-core sharded-directory configurations).
///
/// # Panics
///
/// Panics if `cores` is zero.
pub fn check_case(case: &Arc<FuzzCase>, cores: usize) -> CaseReport {
    assert!(cores > 0, "contended legs need at least one core");
    let verdict = case.analysis().verdict;
    let immutable = verdict == StaticVerdict::StaticImmutable;
    let solo_ref = reference(case, 1);
    let solo = leg(case, BackendId::Clear, 1, None, "solo", &solo_ref);
    let contended_ref = reference(case, cores);
    let plans = case_plans(case);
    let steps = |reference: &Result<Reference, _>| reference.as_ref().map_or(0, |r| r.steps);
    let backends = BackendId::ALL
        .into_iter()
        .map(|id| {
            let clear = id == BackendId::Clear;
            let mut row = backend_row(case, id, cores, &plans, &contended_ref, clear && immutable);
            if clear {
                // The solo leg is CLEAR's too, and it ran first.
                row.instructions += solo.stats.instructions_retired;
                row.divergence = solo.divergence.clone().or(row.divergence);
            }
            row
        })
        .collect();
    CaseReport {
        index: case.index,
        seed: case.seed,
        program_len: case.program.len(),
        rejected: case.rejected,
        verdict: verdict.name(),
        threads: cores,
        invocations: case.invocations,
        reference_steps: steps(&solo_ref) + steps(&contended_ref),
        planned_ars: plans.len(),
        backends,
    }
}

/// Counts the mutable discovery decisions in a run's trace: under a
/// `static-immutable` verdict any one of them is a soundness violation.
fn soundness_violation(machine: &Machine) -> Option<Divergence> {
    let mutable = machine
        .trace()
        .records()
        .filter(|r| matches!(r.event, TraceEvent::Decision { immutable: m, .. } if !m));
    let decisions = mutable.count() as u64;
    (decisions > 0).then_some(Divergence::SoundnessViolation { decisions })
}

/// One backend's row: the plain leg, then the soundness scan of its trace
/// if `scan_soundness`, then the `+plan` leg if nothing diverged yet.
fn backend_row(
    case: &Arc<FuzzCase>,
    id: BackendId,
    cores: usize,
    plans: &Arc<StaticPlanSet>,
    reference: &Result<Reference, Divergence>,
    scan_soundness: bool,
) -> BackendOutcome {
    let plain = leg(case, id, cores, None, id.name(), reference);
    let stats = &plain.stats;
    let mut outcome = BackendOutcome {
        backend: id.name(),
        commits: stats.commits_by_mode,
        aborts: stats.aborts.total(),
        capacity_aborts: stats.aborts.get(AbortKind::Capacity),
        lrws_capacity_aborts: stats.lrws_capacity_aborts(),
        fastpath_elided: 0,
        fastpath_partial: 0,
        instructions: stats.instructions_retired,
        divergence: plain.divergence,
    };
    if scan_soundness && outcome.divergence.is_none() {
        outcome.divergence = soundness_violation(&plain.machine);
    }
    if outcome.divergence.is_none() {
        let phase = match id {
            BackendId::Tsx => "tsx+plan",
            BackendId::PowerTm => "powertm+plan",
            BackendId::Sle => "sle+plan",
            BackendId::Clear => "clear+plan",
            BackendId::Lrws => "lrws+plan",
            BackendId::ClearPowerTm => "clear-powertm+plan",
        };
        let plans = Some(Arc::clone(plans));
        let planned = leg(case, id, cores, plans, phase, reference);
        outcome.fastpath_elided = planned.stats.discovery_runs_elided;
        outcome.fastpath_partial = planned.stats.partial_discovery_runs;
        outcome.instructions += planned.stats.instructions_retired;
        outcome.divergence = planned.divergence;
    }
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
            let r = check_case(&case, case.threads);
            assert!(r.passed(), "case {i} diverged: {:?}", r.divergence());
            assert!(r.clear().instructions > 0);
            assert!(r.reference_steps > 0);
            planned += r.planned_ars;
        }
        // The plan legs only bite when the analyzer actually emits plans;
        // the generator must keep producing plannable programs.
        assert!(planned > 0, "no generated case produced a static plan");
    }

    #[test]
    fn every_backend_row_commits_every_invocation() {
        for i in 0..4 {
            let case = Arc::new(FuzzCase::generate(0xFACE, i));
            let r = check_case(&case, case.threads);
            assert_eq!(r.backends.len(), BackendId::ALL.len());
            for (o, id) in r.backends.iter().zip(BackendId::ALL) {
                assert_eq!(o.backend, id.name());
                assert_eq!(
                    o.commits.total(),
                    (case.threads * case.invocations) as u64,
                    "{} commit count",
                    o.backend
                );
                if id != BackendId::Lrws {
                    assert_eq!(o.lrws_capacity_aborts, 0, "{}", o.backend);
                }
                if id != BackendId::Clear {
                    assert_eq!(o.fastpath_elided + o.fastpath_partial, 0, "{}", o.backend);
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
    fn wide_contention_upholds_oracle_and_single_retry_bound() {
        // 128 cores exceeds the inline width of every per-core bitset and
        // spans many directory shards: the oracle, the commit accounting
        // and the single-retry bound must all survive the wide machine,
        // under every backend.
        for i in 0..2 {
            let case = Arc::new(FuzzCase::generate(0xFACE, i));
            let r = check_case(&case, 128);
            assert!(r.passed(), "wide case {i} diverged: {:?}", r.divergence());
            assert_eq!(r.threads, 128);
            for o in &r.backends {
                assert_eq!(
                    o.commits.total(),
                    128 * case.invocations as u64,
                    "{}",
                    o.backend
                );
            }
        }
    }

    #[test]
    fn reports_are_deterministic() {
        let case = Arc::new(FuzzCase::generate(0xFACE, 3));
        let (a, b) = (
            check_case(&case, case.threads),
            check_case(&case, case.threads),
        );
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
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
