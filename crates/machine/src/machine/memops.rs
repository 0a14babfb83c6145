//! Per-instruction execution: the run loop body, one access path that
//! serves every load and store by the attempt's retry mode (store queue,
//! discovery, cacheline locks, coherence and conflict policy), and
//! simulated-fault handling.
use super::sched::WaitOn;
use super::*;

impl Machine {
    pub(super) fn in_failed_mode(&self, c: usize) -> bool {
        self.cores[c]
            .discovery
            .as_ref()
            .map(|d| d.in_failed_mode())
            .unwrap_or(false)
    }

    pub(super) fn run_step(&mut self, c: usize) {
        let before = self.clocks[c];
        // Retry a stalled memory operation first.
        if let Some(op) = self.cores[c].pending.take() {
            self.access(c, op);
        } else {
            // Safety caps.
            let retired = self.cores[c].vm.as_ref().map(|v| v.retired()).unwrap_or(0);
            if self.in_failed_mode(c) && retired > self.config.failed_instr_cap {
                self.abort_held(c, AbortKind::Other);
                return;
            }
            assert!(
                retired <= self.config.attempt_instr_cap,
                "attempt instruction cap exceeded: non-terminating AR (workload bug?)"
            );
            // In-core (SLE) speculation: the ROB delimits the speculative
            // window, so speculative attempts and S-CL alike abort when the
            // AR outgrows it (§4.1 assessment 1); the AR is then
            // non-convertible.
            if self.config.backend.speculation() == SpeculationKind::InCore
                && matches!(
                    self.cores[c].mode,
                    RetryMode::SpeculativeRetry | RetryMode::SCl
                )
            {
                let vm = self.cores[c].vm.as_ref().expect("vm armed");
                if vm.retired() > self.config.rob_size || vm.stores_retired() > self.config.sq_size
                {
                    let ar = self.cores[c].inv.as_ref().unwrap().ar.0;
                    self.cores[c].ert.entry(ar).is_convertible = false;
                    self.cores[c].discovery = None;
                    self.cores[c].planned = RetryMode::SpeculativeRetry;
                    self.cores[c].alt = None;
                    self.abort_held(c, AbortKind::Capacity);
                    return;
                }
            }
            let effect = self.cores[c].vm.as_mut().expect("vm armed").step();
            match effect {
                Effect::Compute { cycles } => {
                    self.clocks[c] += cycles.max(1) as u64;
                }
                Effect::Branch { cond_indirect, .. } => {
                    self.clocks[c] += 1;
                    if let Some(d) = self.cores[c].discovery.as_mut() {
                        d.on_branch(cond_indirect);
                    }
                }
                Effect::Load {
                    addr,
                    addr_indirect,
                    ..
                } => self.access(
                    c,
                    MemOp {
                        addr,
                        store: None,
                        indirect: addr_indirect,
                    },
                ),
                Effect::Store {
                    addr,
                    value,
                    addr_indirect,
                } => self.access(
                    c,
                    MemOp {
                        addr,
                        store: Some(value),
                        indirect: addr_indirect,
                    },
                ),
                Effect::Commit => {
                    self.clocks[c] += 1;
                    if self.cores[c].held_abort.is_some() {
                        self.decision_abort(c);
                    } else {
                        self.commit(c);
                    }
                    return;
                }
                Effect::Abort { .. } => {
                    self.clocks[c] += 1;
                    self.abort_held(c, AbortKind::Explicit);
                    return;
                }
            }
        }
        // Account failed-mode execution time (Fig. 8 overlay).
        if self.in_failed_mode(c) {
            let spent = self.clocks[c] - before;
            self.stats.discovery_failed_cycles += spent;
        }
    }

    /// Admits `line` into the bounded read/write-set buffers when the
    /// backend limits them ([`SpeculationBackend::rw_limits`]); a no-op
    /// `true` otherwise. Returns `false` when the access overflowed a
    /// buffer: the attempt has been capacity-aborted and the caller must
    /// stop executing it.
    fn lrws_track(&mut self, c: usize, line: LineAddr, is_write: bool) -> bool {
        let Some(t) = self.cores[c].lrws.as_mut() else {
            return true;
        };
        match t.track(line, is_write) {
            Ok(()) => true,
            Err(over) => {
                match over {
                    RwSetOverflow::Reads => self.stats.lrws_read_capacity_aborts += 1,
                    RwSetOverflow::Writes => self.stats.lrws_write_capacity_aborts += 1,
                }
                self.perform_abort(c, AbortKind::Capacity);
                false
            }
        }
    }

    /// Aborts `c` with the abort failed-mode discovery holds, or with
    /// `default` when none is held.
    pub(super) fn abort_held(&mut self, c: usize, default: AbortKind) {
        let kind = self.cores[c].held_abort.take().unwrap_or(default);
        self.perform_abort(c, kind);
    }

    /// Serves one load or store of core `c`. The attempt's retry mode
    /// alone decides how: NS-CL and S-CL own-lock accesses are
    /// conflict-free, failed-mode discovery reads without aborting anyone
    /// (§5.1), and every other access takes the coherent path — park on a
    /// line another core holds locked (the retried request of Fig. 6),
    /// arbitrate against the remote transactions it would steal from,
    /// apply, and abort the victims. The fallback path is never arbitrated
    /// nor R/W-set tracked, so it always makes progress.
    pub(super) fn access(&mut self, c: usize, op: MemOp) {
        let MemOp {
            addr,
            store,
            indirect,
        } = op;
        if addr == Addr::NULL || !addr.is_word_aligned() || addr.line() >= LineAddr::END {
            match self.cores[c].mode {
                RetryMode::Fallback | RetryMode::NsCl => panic!(
                    "fault at {addr} in non-speculative mode: workload bug (mode {:?})",
                    self.cores[c].mode
                ),
                _ => self.abort_held(c, AbortKind::Other),
            }
            return;
        }
        let line = addr.line();
        let is_write = store.is_some();
        let core = &mut self.cores[c];
        core.fp_cur.insert(line);
        // Partial-discovery confirmation for a likely-immutable plan: a
        // store into a root slot means the footprint roots are not stable
        // after all, so the S-CL lock-all upgrade is off.
        if is_write && !core.plan_roots.is_empty() && core.plan_roots.contains(&line) {
            core.plan_root_dirty = true;
        }
        if let Some(d) = core.discovery.as_mut() {
            d.on_access(line, is_write, indirect);
            if is_write && d.in_failed_mode() && d.stores_in_failed() > self.config.sq_size {
                d.on_sq_overflow();
                let ar = core.inv.as_ref().unwrap().ar.0;
                core.ert.entry(ar).bump_sq_full();
                self.abort_held(c, AbortKind::Capacity);
                return;
            }
            if d.overflowed() {
                self.on_discovery_overflow(c);
                if self.phases[c] != Phase::Running {
                    return;
                }
            }
        }

        // Store-to-load forwarding from the speculative store buffer (the
        // emptiness check skips the hash for the common no-prior-store case).
        if !is_write && !self.cores[c].sq.is_empty() {
            if let Some(&v) = self.cores[c].sq.get(&addr.0) {
                self.clocks[c] += 1;
                self.cores[c].vm.as_mut().unwrap().finish_load(v);
                return;
            }
        }

        match self.cores[c].mode {
            RetryMode::NsCl => {
                // Plan-driven NS-CL trusts an analyzer, not a discovery run:
                // verify the lock before touching memory and bail to the
                // dynamic path on a miss, so the attempt stays abortable
                // until the guard has seen every access. Discovery-built
                // ALTs are exact, so the debug assertion below stays for
                // them.
                if self.cores[c].plan_nscl && self.coherence.locked_by(line) != Some(CoreId(c)) {
                    self.plan_violation(c);
                    return;
                }
                debug_assert_eq!(
                    self.coherence.locked_by(line),
                    Some(CoreId(c)),
                    "NS-CL accessed an unlocked line: immutability violated"
                );
                self.clocks[c] += 1;
                self.complete(c, addr, store);
            }
            RetryMode::SCl if self.coherence.locked_by(line) == Some(CoreId(c)) => {
                self.clocks[c] += 1;
                self.complete(c, addr, store);
            }
            RetryMode::SpeculativeRetry if self.in_failed_mode(c) => {
                // Failed mode: no coherence state change (§5.1); stores stay
                // in the SQ.
                self.clocks[c] += if is_write {
                    1
                } else {
                    self.coherence.read_untracked(CoreId(c), line)
                };
                self.complete(c, addr, store);
            }
            mode => {
                let (access, tx) = match (is_write, mode) {
                    (false, RetryMode::Fallback) => (Access::Read, TxTrack::None),
                    (true, RetryMode::Fallback) => (Access::Write, TxTrack::None),
                    (false, _) => (Access::Read, TxTrack::Read),
                    (true, _) => (Access::Write, TxTrack::Write),
                };
                // Limited-R/W-set backend: admit the line into the bounded
                // read or write buffer before issuing the access; overflow
                // is a capacity abort.
                if mode == RetryMode::SpeculativeRetry && !self.lrws_track(c, line, is_write) {
                    return;
                }
                let probe = self.coherence.probe(CoreId(c), line, access);
                if probe.locked_by_other.is_some() {
                    if mode == RetryMode::SCl {
                        // A non-locking S-CL access reaching a locked line is
                        // NACKed and aborts (§4.4.2, Fig. 5).
                        self.perform_abort(c, AbortKind::Nacked);
                    } else {
                        // Retried request (Fig. 6): requester re-sends.
                        self.cores[c].pending = Some(op);
                        self.park(c, WaitOn::Pending { line });
                    }
                    return;
                }
                if mode != RetryMode::Fallback {
                    // Collect conflicting victims into the reused scratch list.
                    let mut victims = std::mem::take(&mut self.scratch_victims);
                    victims.clear();
                    for i in probe
                        .remote_impacts
                        .iter()
                        .filter(|i| i.is_tx_conflict(is_write))
                    {
                        victims.push(self.tx_info(i.core.0));
                    }
                    let nacked = !victims.is_empty() && {
                        let me = self.tx_info(c);
                        self.config.backend.resolve(me, &victims) == Resolution::NackRequester
                    };
                    self.scratch_victims = victims;
                    if nacked {
                        self.perform_abort(c, AbortKind::Nacked);
                        return;
                    }
                }
                // Coherence state is unchanged since the probe, so the
                // apply can consume it instead of re-probing.
                match self
                    .coherence
                    .apply_probed(CoreId(c), line, access, tx, probe)
                {
                    Ok(ok) => {
                        self.clocks[c] += ok.latency;
                        // Filtered in place: the apply result is consumed,
                        // not copied.
                        let mut conflicts = ok.remote_impacts;
                        conflicts.retain(|i| i.is_tx_conflict(is_write));
                        self.abort_victims(c, line, &conflicts, AbortKind::MemoryConflict, false);
                        self.complete(c, addr, store);
                    }
                    Err(LockFail::Capacity) if mode == RetryMode::Fallback => {
                        // Uncached access; the fallback path cannot abort.
                        self.clocks[c] += self.config.coherence.lat_mem;
                        self.complete(c, addr, store);
                    }
                    Err(LockFail::Capacity) => self.perform_abort(c, AbortKind::Capacity),
                    Err(LockFail::LockedBy(_)) => unreachable!(),
                }
            }
        }
    }

    /// Finishes a served access: a load's word goes to the VM register; a
    /// store goes straight to memory on the non-speculative paths (the
    /// fallback path and discovery-built NS-CL) and to the store queue
    /// otherwise, which commit drains.
    fn complete(&mut self, c: usize, addr: Addr, store: Option<u64>) {
        let core = &mut self.cores[c];
        match store {
            None => {
                let v = self.memory.load_word(addr);
                core.vm.as_mut().unwrap().finish_load(v);
            }
            Some(v) => match core.mode {
                RetryMode::Fallback => self.memory.store_word(addr, v),
                RetryMode::NsCl if !core.plan_nscl => self.memory.store_word(addr, v),
                _ => {
                    core.sq.insert(addr.0, v);
                }
            },
        }
    }
}
