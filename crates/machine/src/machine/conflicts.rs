//! Conflict delivery: applying accesses that steal remote transactional
//! copies, CRT learning, and victim notification (failed-mode entry vs
//! immediate abort).
use super::*;

impl Machine {
    pub(super) fn force_apply(
        &mut self,
        c: usize,
        line: LineAddr,
        access: Access,
        tx: TxTrack,
    ) -> Vec<RemoteImpact> {
        match self.coherence.apply(CoreId(c), line, access, tx) {
            Ok(ok) => {
                self.clocks[c] += ok.latency;
                ok.remote_impacts
            }
            Err(LockFail::Capacity) => {
                // The line could not be installed together with existing
                // pinned lines. For non-transactional accesses we model the
                // access as bypassing the L1 (uncached), which cannot
                // conflict because the impacted copies were already handled
                // by probe-time policy. Charge memory latency.
                self.clocks[c] += self.config.coherence.lat_mem;
                Vec::new()
            }
            Err(LockFail::LockedBy(_)) => unreachable!("caller routed locked lines"),
        }
    }

    /// Aborts every victim whose transactional copy was stolen.
    pub(super) fn abort_victims_tagged(
        &mut self,
        requester: usize,
        line: LineAddr,
        impacts: &[RemoteImpact],
        kind: AbortKind,
        from_lock: bool,
    ) {
        for imp in impacts {
            let v = imp.core.0;
            if v == requester || !(imp.tx_read || imp.tx_write) {
                continue;
            }
            // CRT learning: a read-only line that caused a conflict abort.
            // Lock-acquisition invalidations are excluded: recording them
            // would make every victim lock the same line on its own S-CL
            // retry, a positive-feedback serialization loop (the lock
            // already prevents the conflict from recurring).
            if imp.tx_read && !imp.tx_write && !from_lock {
                self.cores[v].crt.record(line);
            }
            if from_lock {
                self.stats.conflicts_from_locks += 1;
            } else {
                self.stats.conflicts_from_access += 1;
            }
            // Trace attribution uses the impact's own line (exact even for
            // group locks, where `line` is the conservative group head).
            self.signal_conflict(v, kind, imp.line, requester);
        }
    }

    pub(super) fn abort_victims(
        &mut self,
        requester: usize,
        line: LineAddr,
        impacts: &[RemoteImpact],
        kind: AbortKind,
    ) {
        self.abort_victims_tagged(requester, line, impacts, kind, false);
    }

    /// Delivers a conflict to a victim core: enter failed-mode discovery
    /// (CLEAR) or abort immediately (baseline). `line` and `aggressor`
    /// attribute the conflict for the trace: which cacheline was stolen,
    /// and by which core.
    pub(super) fn signal_conflict(
        &mut self,
        v: usize,
        kind: AbortKind,
        line: LineAddr,
        aggressor: usize,
    ) {
        match self.cores[v].mode {
            ExecMode::Speculative if self.phases[v] == Phase::Running => {
                // A parked pending victim first moves to the poll it would
                // be waiting at under per-poll spinning.
                self.materialize(v);
                self.emit(v, TraceEvent::ConflictReceived { line, aggressor });
                // Reactive elide: where the baseline would enter failed-mode
                // discovery, a proved-immutable plan already knows the
                // footprint — decide NS-CL on the spot and abort straight
                // into the locked retry. Overflowed discovery contradicts a
                // fitting plan, so it stays on the dynamic path.
                let elide = {
                    let core = &self.cores[v];
                    match (core.discovery.as_ref(), core.inv.as_ref()) {
                        (Some(d), Some(inv)) if !d.in_failed_mode() && !d.overflowed() => {
                            self.plan_nscl_alt(inv)
                        }
                        _ => None,
                    }
                };
                if let Some(plan) = elide {
                    let ar = self.cores[v].inv.as_ref().expect("invocation present").ar;
                    {
                        let core = &mut self.cores[v];
                        let e = core.ert.entry(ar.0);
                        e.is_convertible = true;
                        e.is_immutable = true;
                        core.discovery = None;
                    }
                    self.elide_discovery(v, ar, plan, false);
                    self.perform_abort(v, kind);
                    return;
                }
                let core = &mut self.cores[v];
                if let Some(d) = core.discovery.as_mut() {
                    if !d.in_failed_mode() && !d.overflowed() {
                        d.on_conflict();
                        core.held_abort = Some(kind);
                        self.emit(v, TraceEvent::EnterFailedMode);
                        return;
                    }
                    if d.in_failed_mode() {
                        // Already failed: the abort is already held.
                        return;
                    }
                }
                self.perform_abort(v, kind);
            }
            ExecMode::SCl if self.phases[v] == Phase::Running => {
                self.emit(v, TraceEvent::ConflictReceived { line, aggressor });
                self.perform_abort(v, kind);
            }
            // NS-CL and fallback hold no transactional lines; lock-phase
            // CL cores have not yet installed any either.
            _ => {}
        }
    }
}
