//! Ahead-of-time sampling of a workload's atomic-region programs.
//!
//! Workloads stream [`ArInvocation`]s rather than exposing their programs
//! directly, so the analyzer obtains one representative invocation per
//! static AR by setting the workload up in a scratch [`Memory`] and
//! pulling invocations round-robin across threads — *without executing
//! anything*. Entry arguments are computed outside the AR by construction
//! (they are indirection-free), so the first sampled invocation gives the
//! analyzer a concrete, legitimate entry context for each AR.

use crate::verdict::{analyze_program, static_plan, ArAnalysis, EntryCtx, StaticBudget};
use clear_core::StaticPlanSet;
use clear_isa::{ArInvocation, ArSpec, Program, Reg, Workload, WorkloadMeta};
use clear_mem::Memory;
use std::sync::Arc;

/// Default cap on invocation pulls while hunting for every AR.
pub const DEFAULT_MAX_PULLS: usize = 10_000;

/// One sampled invocation of a static AR.
#[derive(Clone, Debug)]
pub struct SampledAr {
    /// The AR's static description.
    pub spec: ArSpec,
    /// The region program (shared with the workload).
    pub program: Arc<Program>,
    /// Entry register values of the sampled invocation.
    pub args: Vec<(Reg, u64)>,
}

/// Everything sampled from one workload.
#[derive(Debug)]
pub struct WorkloadSample {
    /// The workload's static description.
    pub meta: WorkloadMeta,
    /// Bytes of simulated memory mapped after setup.
    pub mapped_bytes: u64,
    /// One sample per AR, in [`WorkloadMeta::ars`] order.
    pub ars: Vec<SampledAr>,
}

/// Round-robin pull loop shared by the strict and best-effort samplers:
/// one `Option<SampledAr>` slot per declared AR (in metadata order), plus
/// the pull count for error messages.
#[allow(clippy::type_complexity)]
fn sample_found(
    workload: &mut dyn Workload,
    threads: usize,
    max_pulls: usize,
) -> Result<(WorkloadMeta, u64, Vec<Option<SampledAr>>, usize), String> {
    let meta = workload.meta();
    let mut mem = Memory::new();
    workload.setup(&mut mem, threads);

    let mut found: Vec<Option<SampledAr>> = vec![None; meta.ars.len()];
    let mut missing = meta.ars.len();
    let mut done = vec![false; threads];
    let mut pulls = 0usize;

    'outer: while missing > 0 && pulls < max_pulls {
        let mut progressed = false;
        for (tid, thread_done) in done.iter_mut().enumerate() {
            if *thread_done {
                continue;
            }
            let Some(inv) = workload.next_ar(tid, &mem) else {
                *thread_done = true;
                continue;
            };
            progressed = true;
            pulls += 1;
            record(&meta, &mut found, &mut missing, &inv)?;
            if missing == 0 || pulls >= max_pulls {
                break 'outer;
            }
        }
        if !progressed {
            break;
        }
    }

    Ok((meta, mem.allocated_bytes(), found, pulls))
}

/// Samples one invocation of every AR the workload declares.
///
/// # Errors
///
/// Returns an error if some declared AR never appeared within
/// `max_pulls` invocations (or before every thread ran dry), or if an
/// invocation carries an AR id missing from the metadata.
pub fn sample_workload(
    workload: &mut dyn Workload,
    threads: usize,
    max_pulls: usize,
) -> Result<WorkloadSample, String> {
    let (meta, mapped_bytes, found, pulls) = sample_found(workload, threads, max_pulls)?;
    let ars: Vec<SampledAr> = meta
        .ars
        .iter()
        .zip(found)
        .map(|(spec, s)| {
            s.ok_or_else(|| {
                format!(
                    "workload {}: AR {} ({}) never produced an invocation in {pulls} pulls",
                    meta.name, spec.id, spec.name
                )
            })
        })
        .collect::<Result<_, String>>()?;

    Ok(WorkloadSample {
        meta,
        mapped_bytes,
        ars,
    })
}

fn record(
    meta: &WorkloadMeta,
    found: &mut [Option<SampledAr>],
    missing: &mut usize,
    inv: &ArInvocation,
) -> Result<(), String> {
    let idx = meta
        .ars
        .iter()
        .position(|a| a.id == inv.ar)
        .ok_or_else(|| {
            format!(
                "workload {}: invocation for undeclared AR {}",
                meta.name, inv.ar
            )
        })?;
    if found[idx].is_none() {
        found[idx] = Some(SampledAr {
            spec: meta.ars[idx].clone(),
            program: Arc::clone(&inv.program),
            args: inv.args.clone(),
        });
        *missing -= 1;
    }
    Ok(())
}

/// The static analysis of one sampled AR.
#[derive(Clone, Debug)]
pub struct ArReport {
    /// The AR's static description.
    pub spec: ArSpec,
    /// The analysis result.
    pub analysis: ArAnalysis,
}

/// The static analysis of one whole workload.
#[derive(Debug)]
pub struct WorkloadReport {
    /// Benchmark name.
    pub name: String,
    /// Bytes of simulated memory mapped after setup.
    pub mapped_bytes: u64,
    /// Per-AR reports, in metadata order.
    pub ars: Vec<ArReport>,
}

/// Samples and analyzes every AR of a workload.
///
/// # Errors
///
/// Propagates sampling failures (an AR that never appears).
pub fn analyze_workload(
    workload: &mut dyn Workload,
    threads: usize,
    budget: &StaticBudget,
) -> Result<WorkloadReport, String> {
    let sample = sample_workload(workload, threads, DEFAULT_MAX_PULLS)?;
    let ars = sample
        .ars
        .iter()
        .map(|ar| {
            let mut entry = EntryCtx::from_args(&ar.args);
            entry.mapped_bytes = Some(sample.mapped_bytes);
            ArReport {
                spec: ar.spec.clone(),
                analysis: analyze_program(&ar.program, &entry, budget),
            }
        })
        .collect();
    Ok(WorkloadReport {
        name: sample.meta.name.clone(),
        mapped_bytes: sample.mapped_bytes,
        ars,
    })
}

/// Emits the [`StaticPlanSet`] of a workload: one
/// [`StaticPlan`](clear_core::StaticPlan) per AR whose verdict supports a
/// static fast path ([`static_plan`]), keyed by static AR id. ARs without
/// a plan simply take the normal discovery path, so an empty set is a
/// valid (if useless) result. Unlike [`analyze_workload`], sampling is
/// best-effort: an AR that never produces an invocation within the pull
/// budget (e.g. a late-phase AR of a workload whose threads run dry at
/// small sizes) just carries no plan.
///
/// # Errors
///
/// Returns an error only on a malformed workload (an invocation carrying
/// an AR id missing from the metadata).
pub fn workload_plans(
    workload: &mut dyn Workload,
    threads: usize,
    budget: &StaticBudget,
) -> Result<StaticPlanSet, String> {
    let (_, _, found, _) = sample_found(workload, threads, DEFAULT_MAX_PULLS)?;
    let mut plans = StaticPlanSet::new();
    for ar in found.iter().flatten() {
        let entry = EntryCtx::from_args(&ar.args);
        if let Some(plan) = static_plan(&ar.program, &entry, budget) {
            plans.insert(ar.spec.id.0, plan);
        }
    }
    Ok(plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clear_isa::{ArId, Mutability, ProgramBuilder};

    /// A two-AR toy workload: one AR per thread parity, thread 1 finite.
    struct Toy {
        programs: Vec<Arc<Program>>,
        base: u64,
        left: [usize; 2],
    }

    impl Toy {
        fn new() -> Toy {
            let mut a = ProgramBuilder::new();
            a.st(Reg(0), 0, Reg(1)).xend();
            let mut b = ProgramBuilder::new();
            b.ld(Reg(1), Reg(0), 0).xend();
            Toy {
                programs: vec![Arc::new(a.build()), Arc::new(b.build())],
                base: 0,
                left: [3, 2],
            }
        }
    }

    impl Workload for Toy {
        fn meta(&self) -> WorkloadMeta {
            WorkloadMeta {
                name: "toy".into(),
                ars: vec![
                    ArSpec {
                        id: ArId(0),
                        name: "store".into(),
                        mutability: Mutability::Immutable,
                    },
                    ArSpec {
                        id: ArId(1),
                        name: "load".into(),
                        mutability: Mutability::Immutable,
                    },
                ],
            }
        }

        fn setup(&mut self, mem: &mut Memory, _threads: usize) {
            self.base = mem.alloc_words(8).0;
        }

        fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
            let t = tid.min(1);
            if self.left[t] == 0 {
                return None;
            }
            self.left[t] -= 1;
            Some(ArInvocation {
                ar: ArId(t as u32),
                program: Arc::clone(&self.programs[t]),
                args: vec![(Reg(0), self.base), (Reg(1), 7)],
                think_cycles: 0,
            })
        }
    }

    #[test]
    fn sampling_finds_every_ar() {
        let mut w = Toy::new();
        let s = sample_workload(&mut w, 2, 100).unwrap();
        assert_eq!(s.ars.len(), 2);
        assert_eq!(s.ars[0].spec.id, ArId(0));
        assert_eq!(s.ars[1].spec.id, ArId(1));
        assert!(s.mapped_bytes > 0);
    }

    #[test]
    fn sampling_reports_missing_ars() {
        let mut w = Toy::new();
        // Only thread 0 runs: AR1 never appears.
        let err = sample_workload(&mut w, 1, 100).unwrap_err();
        assert!(err.contains("AR1"), "{err}");
    }

    #[test]
    fn workload_plans_cover_plannable_ars() {
        use clear_core::{PlanAddr, PlanClass};
        let mut w = Toy::new();
        let plans = workload_plans(&mut w, 2, &StaticBudget::default()).unwrap();
        // Both toy ARs are entry-addressed straight-line regions: planned.
        assert_eq!(plans.len(), 2);
        let p0 = plans.get(0).unwrap();
        assert_eq!(p0.class, PlanClass::Immutable);
        assert!(p0.complete);
        // Symbolic, not the sampled concrete base address.
        assert_eq!(p0.lock_set, vec![PlanAddr::Sym { reg: 0, delta: 0 }]);
        assert!(plans.get(1).is_some());
        assert!(plans.get(9).is_none());
    }

    #[test]
    fn workload_plans_tolerate_unsampled_ars() {
        let mut w = Toy::new();
        // Only thread 0 runs, so AR1 never appears: strict sampling
        // errors, but plan derivation just skips the unsampled AR.
        let plans = workload_plans(&mut w, 1, &StaticBudget::default()).unwrap();
        assert_eq!(plans.len(), 1);
        assert!(plans.get(0).is_some());
        assert!(plans.get(1).is_none());
    }

    #[test]
    fn analyze_workload_reports_every_ar() {
        let mut w = Toy::new();
        let r = analyze_workload(&mut w, 2, &StaticBudget::default()).unwrap();
        assert_eq!(r.name, "toy");
        assert_eq!(r.ars.len(), 2);
        for ar in &r.ars {
            assert_eq!(ar.analysis.verdict, crate::StaticVerdict::StaticImmutable);
            assert!(ar.analysis.lints.is_empty());
        }
    }
}
