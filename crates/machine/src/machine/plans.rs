//! Static-plan execution: applying analyzer-emitted [`StaticPlan`]s so
//! proved-immutable ARs skip the discovery run (NS-CL straight from the
//! plan's lock set) and likely-immutable ARs upgrade their S-CL retry
//! after a shortened, root-slot-stability-only discovery.
//!
//! Plans are hints with a guard: every resolution and budget check is
//! re-done per invocation here, and the NS-CL access path re-checks at
//! run time that each touched line is locked
//! ([`Machine::plan_violation`]). A wrong plan costs one extra retry and
//! poisons itself; it can never commit a mutation.
use super::*;
use clear_core::{PlanClass, StaticPlan};

impl Machine {
    /// Resolves a proved-immutable plan for `inv` into a ready NS-CL ALT,
    /// when the plan applies to this invocation: the plan must exist, be
    /// complete, not be poisoned, resolve every address against the entry
    /// arguments, and fit the ALT, the directory and the backend's
    /// read/write-set budgets. Returns the ALT plus the resolved line
    /// count (the `Decision` trace footprint). CLEAR elides discovery with
    /// it; [`crate::MadBackend`] locks it before the first attempt.
    pub(super) fn plan_nscl_alt(&self, inv: &ArInvocation) -> Option<(Alt, usize)> {
        let plans = self.config.static_plans.as_ref()?;
        let ar = inv.ar.0;
        if self.poisoned_plans.contains(&ar) {
            return None;
        }
        let plan = plans.get(ar)?;
        if plan.class != PlanClass::Immutable || !plan.complete {
            return None;
        }
        let lookup = plan_lookup(inv);
        let lines = StaticPlan::resolve_lines(&plan.lock_set, &lookup)?;
        let written = StaticPlan::resolve_lines(&plan.written, &lookup)?;
        if let Some(limits) = self.config.backend.rw_limits() {
            if !plan.fits_rw(Some(limits.read_lines), Some(limits.write_lines)) {
                return None;
            }
        }
        if !self.coherence.fits_locked(&lines) {
            return None;
        }
        let cc = self.config.backend.clear().copied().unwrap_or_default();
        let mut alt = Alt::new(cc.alt_entries, self.coherence.dir_geometry());
        for &l in &lines {
            if alt.observe(l, written.binary_search(&l).is_ok()).is_err() {
                return None;
            }
        }
        // NS-CL locks its whole footprint, reads included.
        alt.mark_all_needs_locking();
        Some((alt, lines.len()))
    }

    /// The resolved root-slot lines of a likely-immutable plan for `inv`,
    /// or empty when no such plan applies. A nonempty result arms the
    /// partial-discovery confirmation: the next discovery run tracks
    /// whether the region itself stores into any of these lines, and a
    /// clean run upgrades the S-CL retry to lock the whole learned
    /// footprint ([`Machine::decision_abort`]).
    pub(super) fn plan_root_lines(&self, inv: &ArInvocation) -> Vec<LineAddr> {
        if !self.clear_enabled() {
            return Vec::new();
        }
        let Some(plans) = self.config.static_plans.as_ref() else {
            return Vec::new();
        };
        let ar = inv.ar.0;
        if self.poisoned_plans.contains(&ar) {
            return Vec::new();
        }
        let Some(plan) = plans.get(ar) else {
            return Vec::new();
        };
        if plan.class != PlanClass::LikelyImmutable || plan.root_slots.is_empty() {
            return Vec::new();
        }
        StaticPlan::resolve_lines(&plan.root_slots, &plan_lookup(inv)).unwrap_or_default()
    }

    /// The NS-CL soundness guard fired: a plan-driven attempt touched a
    /// line its lock set had not locked. Poison the plan (this AR never
    /// takes the fast path again), count the violation, and abort back to
    /// the ordinary speculative path — crucially *before* the unlocked
    /// access performed any memory operation.
    pub(super) fn plan_violation(&mut self, c: usize) {
        let ar = self.cores[c].inv.as_ref().expect("invocation present").ar.0;
        self.poisoned_plans.insert(ar);
        self.stats.static_plan_violations += 1;
        let core = &mut self.cores[c];
        core.plan_nscl = false;
        core.planned = RetryMode::SpeculativeRetry;
        core.alt = None;
        self.perform_abort(c, AbortKind::PlanViolation);
    }
}

/// Entry-register lookup for resolving a plan against one invocation.
fn plan_lookup(inv: &ArInvocation) -> impl Fn(u8) -> Option<u64> + '_ {
    move |r: u8| {
        inv.args
            .iter()
            .find(|&&(reg, _)| reg.index() as u8 == r)
            .map(|&(_, v)| v)
    }
}
