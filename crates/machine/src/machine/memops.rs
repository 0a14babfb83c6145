//! Per-instruction execution: the run loop body, loads and stores routed
//! through the store queue, discovery, coherence and conflict policy, and
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
        if let Some(p) = self.cores[c].pending.take() {
            match p {
                PendingOp::Load { addr, indirect } => self.do_load(c, addr, indirect),
                PendingOp::Store {
                    addr,
                    value,
                    indirect,
                } => self.do_store(c, addr, value, indirect),
            }
        } else {
            // Safety caps.
            let retired = self.cores[c].vm.as_ref().map(|v| v.retired()).unwrap_or(0);
            if self.in_failed_mode(c) && retired > self.config.failed_instr_cap {
                let kind = self.cores[c].held_abort.take().unwrap_or(AbortKind::Other);
                self.perform_abort(c, kind);
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
                && matches!(self.cores[c].mode, ExecMode::Speculative | ExecMode::SCl)
            {
                let vm = self.cores[c].vm.as_ref().expect("vm armed");
                if vm.retired() > self.config.rob_size || vm.stores_retired() > self.config.sq_size
                {
                    let ar = self.cores[c].inv.as_ref().unwrap().ar.0;
                    self.cores[c].ert.entry(ar).is_convertible = false;
                    self.cores[c].discovery = None;
                    self.cores[c].planned = RetryMode::SpeculativeRetry;
                    self.cores[c].alt = None;
                    let kind = self.cores[c]
                        .held_abort
                        .take()
                        .unwrap_or(AbortKind::Capacity);
                    self.perform_abort(c, kind);
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
                } => self.do_load(c, addr, addr_indirect),
                Effect::Store {
                    addr,
                    value,
                    addr_indirect,
                } => self.do_store(c, addr, value, addr_indirect),
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
                    let kind = self.cores[c]
                        .held_abort
                        .take()
                        .unwrap_or(AbortKind::Explicit);
                    self.perform_abort(c, kind);
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

    pub(super) fn fault(&self, addr: Addr) -> bool {
        addr == Addr::NULL || !addr.is_word_aligned()
    }

    pub(super) fn handle_fault(&mut self, c: usize, addr: Addr) {
        match self.cores[c].mode {
            ExecMode::Fallback | ExecMode::NsCl => panic!(
                "fault at {addr} in non-speculative mode: workload bug (mode {:?})",
                self.cores[c].mode
            ),
            _ => {
                let kind = self.cores[c].held_abort.take().unwrap_or(AbortKind::Other);
                self.perform_abort(c, kind);
            }
        }
    }

    pub(super) fn do_load(&mut self, c: usize, addr: Addr, indirect: bool) {
        if self.fault(addr) {
            self.handle_fault(c, addr);
            return;
        }
        let line = addr.line();
        self.cores[c].fp_cur.insert(line);
        if let Some(d) = self.cores[c].discovery.as_mut() {
            d.on_access(line, false, indirect);
            if d.overflowed() {
                self.on_discovery_overflow(c);
                if self.phases[c] != Phase::Running {
                    return;
                }
            }
        }

        // Store-to-load forwarding from the speculative store buffer (the
        // emptiness check skips the hash for the common no-prior-store case).
        if !self.cores[c].sq.is_empty() {
            if let Some(&v) = self.cores[c].sq.get(&addr.0) {
                self.clocks[c] += 1;
                self.cores[c].vm.as_mut().unwrap().finish_load(v);
                return;
            }
        }

        match self.cores[c].mode {
            ExecMode::NsCl => {
                // Plan-driven NS-CL trusts an analyzer, not a discovery run:
                // verify the lock before touching memory and bail to the
                // dynamic path on a miss. Discovery-built ALTs are exact, so
                // the debug assertion below stays for them.
                if self.cores[c].plan_nscl && self.coherence.locked_by(line) != Some(CoreId(c)) {
                    self.plan_violation(c);
                    return;
                }
                debug_assert_eq!(
                    self.coherence.locked_by(line),
                    Some(CoreId(c)),
                    "NS-CL accessed an unlocked line: immutability violated"
                );
                let v = self.memory.load_word(addr);
                self.clocks[c] += 1;
                self.cores[c].vm.as_mut().unwrap().finish_load(v);
            }
            ExecMode::SCl if self.coherence.locked_by(line) == Some(CoreId(c)) => {
                let v = self.memory.load_word(addr);
                self.clocks[c] += 1;
                self.cores[c].vm.as_mut().unwrap().finish_load(v);
            }
            ExecMode::Speculative if self.in_failed_mode(c) => {
                // Non-aborting read: no coherence state change (§5.1).
                let lat = self.coherence.read_untracked(CoreId(c), line);
                let v = self.memory.load_word(addr);
                self.clocks[c] += lat;
                self.cores[c].vm.as_mut().unwrap().finish_load(v);
            }
            mode => {
                // Limited-R/W-set backend: admit the line into the bounded
                // read buffer before issuing the access; overflow is a
                // capacity abort (the fallback path is never tracked, so it
                // always makes progress).
                if mode == ExecMode::Speculative && !self.lrws_track(c, line, false) {
                    return;
                }
                let probe = self.coherence.probe(CoreId(c), line, Access::Read);
                if probe.locked_by_other.is_some() {
                    if mode == ExecMode::SCl {
                        // Non-locking S-CL load reaching a locked line is
                        // NACKed and aborts (§4.4.2, Fig. 5).
                        self.perform_abort(c, AbortKind::Nacked);
                    } else {
                        // Retried request (Fig. 6): requester re-sends.
                        self.cores[c].pending = Some(PendingOp::Load { addr, indirect });
                        self.park(c, WaitOn::Pending { line });
                    }
                    return;
                }
                // Collect conflicting victims into the reused scratch list.
                let mut victims = std::mem::take(&mut self.scratch_victims);
                victims.clear();
                for i in probe
                    .remote_impacts
                    .iter()
                    .filter(|i| i.is_tx_conflict(false))
                {
                    victims.push(self.tx_info(i.core.0));
                }
                let nacked = !victims.is_empty() && {
                    let me = self.tx_info(c);
                    self.config.backend.resolve(me, &victims) == Resolution::NackRequester
                };
                self.scratch_victims = victims;
                if nacked {
                    if mode == ExecMode::Fallback {
                        // Fallback cannot abort; force through.
                    } else {
                        self.perform_abort(c, AbortKind::Nacked);
                        return;
                    }
                }
                let tx = if mode == ExecMode::Fallback {
                    TxTrack::None
                } else {
                    TxTrack::Read
                };
                // Coherence state is unchanged since the probe, so the
                // apply can consume it instead of re-probing.
                match self
                    .coherence
                    .apply_probed(CoreId(c), line, Access::Read, tx, probe)
                {
                    Ok(ok) => {
                        self.clocks[c] += ok.latency;
                        // Read conflicts: remote write-set holders abort.
                        // Filtered in place — the apply result is consumed,
                        // not copied.
                        let mut conflicts = ok.remote_impacts;
                        conflicts.retain(|i| i.is_tx_conflict(false));
                        self.abort_victims(c, line, &conflicts, AbortKind::MemoryConflict);
                        let v = self.memory.load_word(addr);
                        self.cores[c].vm.as_mut().unwrap().finish_load(v);
                    }
                    Err(LockFail::Capacity) => {
                        if mode == ExecMode::Fallback {
                            // Uncached access; cannot abort.
                            self.clocks[c] += self.config.coherence.lat_mem;
                            let v = self.memory.load_word(addr);
                            self.cores[c].vm.as_mut().unwrap().finish_load(v);
                        } else {
                            self.perform_abort(c, AbortKind::Capacity);
                        }
                    }
                    Err(LockFail::LockedBy(_)) => unreachable!(),
                }
            }
        }
    }

    pub(super) fn do_store(&mut self, c: usize, addr: Addr, value: u64, indirect: bool) {
        if self.fault(addr) {
            self.handle_fault(c, addr);
            return;
        }
        let line = addr.line();
        self.cores[c].fp_cur.insert(line);
        // Partial-discovery confirmation for a likely-immutable plan: a
        // store into a root slot means the footprint roots are not stable
        // after all, so the S-CL lock-all upgrade is off.
        if !self.cores[c].plan_roots.is_empty() && self.cores[c].plan_roots.contains(&line) {
            self.cores[c].plan_root_dirty = true;
        }
        if let Some(d) = self.cores[c].discovery.as_mut() {
            d.on_access(line, true, indirect);
            let sq_over = d.in_failed_mode() && d.stores_in_failed() > self.config.sq_size;
            if sq_over {
                d.on_sq_overflow();
                let ar = self.cores[c].inv.as_ref().unwrap().ar.0;
                self.cores[c].ert.entry(ar).bump_sq_full();
                let kind = self.cores[c]
                    .held_abort
                    .take()
                    .unwrap_or(AbortKind::Capacity);
                self.perform_abort(c, kind);
                return;
            }
            if d.overflowed() {
                self.on_discovery_overflow(c);
                if self.phases[c] != Phase::Running {
                    return;
                }
            }
        }

        match self.cores[c].mode {
            ExecMode::Fallback => {
                let probe = self.coherence.probe(CoreId(c), line, Access::Write);
                if probe.locked_by_other.is_some() {
                    self.cores[c].pending = Some(PendingOp::Store {
                        addr,
                        value,
                        indirect,
                    });
                    self.park(c, WaitOn::Pending { line });
                    return;
                }
                let mut conflicts = self.force_apply(c, line, Access::Write, TxTrack::None);
                conflicts.retain(|i| i.is_tx_conflict(true));
                self.abort_victims(c, line, &conflicts, AbortKind::MemoryConflict);
                self.memory.store_word(addr, value);
            }
            ExecMode::NsCl if self.cores[c].plan_nscl => {
                // Plan-driven NS-CL trusts an analyzer, not a discovery
                // run, so the attempt must stay abortable until the guard
                // has seen every access: verify the lock before anything
                // else and buffer the store in the SQ (store-to-load
                // forwarding above keeps it visible to this core). A guard
                // trip then rolls the whole attempt back; commit drains the
                // buffer exactly like S-CL.
                if self.coherence.locked_by(line) != Some(CoreId(c)) {
                    self.plan_violation(c);
                    return;
                }
                self.cores[c].sq.insert(addr.0, value);
                self.clocks[c] += 1;
            }
            ExecMode::NsCl => {
                debug_assert_eq!(
                    self.coherence.locked_by(line),
                    Some(CoreId(c)),
                    "NS-CL stored to an unlocked line: immutability violated"
                );
                self.memory.store_word(addr, value);
                self.clocks[c] += 1;
            }
            ExecMode::SCl if self.coherence.locked_by(line) == Some(CoreId(c)) => {
                // Locked line: conflict-free, but S-CL stays speculative, so
                // the data waits in the store buffer.
                self.cores[c].sq.insert(addr.0, value);
                self.clocks[c] += 1;
            }
            ExecMode::Speculative if self.in_failed_mode(c) => {
                // Failed mode: stores stay in the SQ, no coherence traffic.
                self.cores[c].sq.insert(addr.0, value);
                self.clocks[c] += 1;
            }
            mode => {
                // Limited-R/W-set backend: the write buffer bounds the
                // speculative write set.
                if mode == ExecMode::Speculative && !self.lrws_track(c, line, true) {
                    return;
                }
                let probe = self.coherence.probe(CoreId(c), line, Access::Write);
                if probe.locked_by_other.is_some() {
                    if mode == ExecMode::SCl {
                        self.perform_abort(c, AbortKind::Nacked);
                    } else {
                        self.cores[c].pending = Some(PendingOp::Store {
                            addr,
                            value,
                            indirect,
                        });
                        self.park(c, WaitOn::Pending { line });
                    }
                    return;
                }
                // Collect conflicting victims into the reused scratch list.
                let mut victims = std::mem::take(&mut self.scratch_victims);
                victims.clear();
                for i in probe
                    .remote_impacts
                    .iter()
                    .filter(|i| i.is_tx_conflict(true))
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
                // Coherence state is unchanged since the probe, so the
                // apply can consume it instead of re-probing.
                match self.coherence.apply_probed(
                    CoreId(c),
                    line,
                    Access::Write,
                    TxTrack::Write,
                    probe,
                ) {
                    Ok(ok) => {
                        self.clocks[c] += ok.latency;
                        let mut conflicts = ok.remote_impacts;
                        conflicts.retain(|i| i.is_tx_conflict(true));
                        self.abort_victims(c, line, &conflicts, AbortKind::MemoryConflict);
                        self.cores[c].sq.insert(addr.0, value);
                    }
                    Err(LockFail::Capacity) => {
                        self.perform_abort(c, AbortKind::Capacity);
                    }
                    Err(LockFail::LockedBy(_)) => unreachable!(),
                }
            }
        }
    }
}
