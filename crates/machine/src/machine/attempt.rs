//! Attempt lifecycle: starting attempts in each mode, aborting with the
//! Fig. 2 decision, committing, and the Fig. 1 footprint instrumentation.
use super::sched::WaitOn;
use super::*;

impl Machine {
    /// Starts an attempt in the planned mode, or — when the fallback lock
    /// bars the mode — fails the poll and parks until a release.
    pub(super) fn start_attempt(&mut self, c: usize) {
        if let Some(on) = self.fallback_blocker(c) {
            if self.cores[c].planned == RetryMode::SpeculativeRetry
                && !self.cores[c].explicit_fb_recorded
            {
                self.stats.aborts.record(AbortKind::ExplicitFallback);
                self.cores[c].explicit_fb_recorded = true;
            }
            self.park(c, on);
            return;
        }
        match self.cores[c].planned {
            RetryMode::Fallback => {
                self.take_fallback(c, true);
                // Acquiring the lock writes its line, aborting every
                // subscribed speculative AR through conflict detection.
                let line = self.fallback.line();
                let impacts = self.force_apply(c, line, Access::Write, TxTrack::None);
                self.abort_victims(c, line, &impacts, AbortKind::OtherFallback);
                self.arm_vm(c);
                self.cores[c].mode = ExecMode::Fallback;
                self.emit(
                    c,
                    TraceEvent::AttemptStart {
                        mode: RetryMode::Fallback,
                    },
                );
                self.phases[c] = Phase::Running;
                self.clocks[c] += self.config.timing.xbegin_cost;
            }
            RetryMode::NsCl | RetryMode::SCl => {
                self.take_fallback(c, false);
                let mode = if self.cores[c].planned == RetryMode::NsCl {
                    ExecMode::NsCl
                } else {
                    ExecMode::SCl
                };
                // Refresh the S-CL lock list with lines the CRT has learned
                // about since the ALT was built (§5.1). The list reuses the
                // core's previous lock-list buffer.
                let mut lock_list = std::mem::take(&mut self.cores[c].lock_list);
                {
                    let core = &mut self.cores[c];
                    let alt = core.alt.as_mut().expect("CL mode requires ALT");
                    alt.reset_lock_state();
                    if mode == ExecMode::SCl {
                        let lines: Vec<LineAddr> = alt.footprint();
                        for l in lines {
                            if core.crt.take(l) {
                                alt.mark_needs_locking(l);
                            }
                        }
                    }
                    alt.lock_list_into(&mut lock_list);
                }
                self.arm_vm(c);
                self.emit(
                    c,
                    TraceEvent::AttemptStart {
                        mode: mode.commit_bucket(),
                    },
                );
                let core = &mut self.cores[c];
                core.mode = mode;
                core.lock_list = lock_list;
                core.lock_wait_acc = 0;
                self.phases[c] = Phase::LockAcquire { idx: 0 };
                // S-CL checkpoints like a transaction; NS-CL does not.
                self.clocks[c] += if mode == ExecMode::SCl {
                    self.config.timing.xbegin_cost
                } else {
                    1
                };
            }
            RetryMode::SpeculativeRetry => {
                self.cores[c].explicit_fb_recorded = false;
                self.arm_vm(c);
                self.cores[c].mode = ExecMode::Speculative;
                self.emit(
                    c,
                    TraceEvent::AttemptStart {
                        mode: RetryMode::SpeculativeRetry,
                    },
                );
                // Subscribe to the fallback lock line (read set).
                let line = self.fallback.line();
                let impacts = self.force_apply(c, line, Access::Read, TxTrack::Read);
                debug_assert!(impacts.iter().all(|i| !i.is_tx_conflict(false)));
                // Arm discovery unless the ERT forbids it.
                if self.clear_enabled() {
                    let ar = self.cores[c].inv.as_ref().unwrap().ar.0;
                    let enabled = self.cores[c].ert.entry(ar).discovery_enabled();
                    if enabled {
                        let cc = *self
                            .config
                            .backend
                            .clear()
                            .expect("clear_enabled implies config");
                        let mut d = Discovery::new(&cc, self.coherence.dir_geometry());
                        d.rearm();
                        self.cores[c].discovery = Some(d);
                    } else {
                        self.cores[c].discovery = None;
                    }
                } else {
                    self.cores[c].discovery = None;
                }
                self.phases[c] = Phase::Running;
                self.clocks[c] += self.config.timing.xbegin_cost;
            }
        }
    }

    /// What the fallback lock fails `c`'s attempt start on, if anything:
    /// the read-only test of the start's lock poll. The fallback path needs
    /// the lock free of its writer and all readers; NS-CL, S-CL and
    /// speculative starts only need it free of its writer.
    pub(super) fn fallback_blocker(&self, c: usize) -> Option<WaitOn> {
        let writer = self.fallback.writer();
        match self.cores[c].planned {
            RetryMode::Fallback => writer
                .map_or(self.fallback.has_readers(), |w| w != CoreId(c))
                .then_some(WaitOn::FallbackIdle),
            RetryMode::NsCl | RetryMode::SCl | RetryMode::SpeculativeRetry => {
                writer.is_some().then_some(WaitOn::FallbackWriter)
            }
        }
    }

    /// Aborts core `c`'s current attempt: records statistics, rolls back
    /// all speculative and lock state, and applies the S-CL
    /// non-discoverability rule (§4.4.2).
    pub(super) fn perform_abort(&mut self, c: usize, kind: AbortKind) {
        // The abort penalty below advances `c`'s clock, possibly while `c`
        // is a *victim* of the core being stepped: tell the scheduler so
        // it re-keys this core after the current step.
        self.sched_touched.push(c);
        let span = self.clocks[c].saturating_sub(self.cores[c].attempt_started_at);
        self.emit(c, TraceEvent::Abort { kind, span });
        let was_scl = self.cores[c].mode == ExecMode::SCl;
        self.note_attempt_end(c, true);

        // Roll back all speculative and lock state.
        self.cores[c].sq.clear();
        self.cores[c].pending = None;
        self.cores[c].held_abort = None;
        self.cores[c].discovery = None;
        self.coherence.clear_tx(CoreId(c));
        self.release_cl_locks(c);
        // An explicit abort on the fallback path (a program-level retry
        // loop) must release the write lock too, or every other thread
        // deadlocks behind it.
        if self.fallback.writer() == Some(CoreId(c)) {
            self.release_fallback_write(c);
        }

        // S-CL aborts for non-conflict reasons mark the AR non-discoverable
        // (§4.4.2).
        if was_scl
            && matches!(
                kind,
                AbortKind::Capacity | AbortKind::Explicit | AbortKind::Other
            )
        {
            if let Some(inv) = self.cores[c].inv.as_ref() {
                let ar = inv.ar.0;
                self.cores[c].ert.entry(ar).is_convertible = false;
            }
            self.cores[c].planned = RetryMode::SpeculativeRetry;
            self.cores[c].alt = None;
        }

        if kind.counts_toward_retry_limit() {
            self.cores[c].retries_counted += 1;
        }
        self.cores[c].retries_total += 1;

        // PowerTM: a transaction that failed once may enter power mode.
        if self.config.backend.acquires_power_token()
            && !self.cores[c].power
            && self.power_token.try_acquire(CoreId(c))
        {
            self.cores[c].power = true;
        }

        if self
            .config
            .backend
            .must_fall_back(&self.config.retry, self.cores[c].retries_counted)
        {
            self.cores[c].planned = RetryMode::Fallback;
        }

        let penalty = self.config.timing.abort_penalty + self.jitter();
        self.clocks[c] += penalty;
        self.phases[c] = Phase::StartAttempt;
    }

    /// Fig. 1 instrumentation: called at the end of every attempt.
    pub(super) fn note_attempt_end(&mut self, c: usize, aborting: bool) {
        let core = &mut self.cores[c];
        if core.retries_total == 0 {
            if aborting {
                core.fp_first = Some(core.fp_cur.clone());
            }
        } else if core.retries_total == 1 {
            if let Some(first) = core.fp_first.take() {
                self.stats.retried_ars += 1;
                // The aborted first attempt may have been truncated at the
                // conflict, so "same footprint" is observed as: everything
                // it did access is accessed again by the retry, and the
                // retry's footprint is small (Fig. 1's ≤ 32 lines).
                if core.fp_cur.len() <= 32 && first.is_subset(&core.fp_cur) {
                    self.stats.immutable_small_retries += 1;
                }
            }
        }
    }

    /// Failed-mode discovery reached the end of the AR: assess, decide the
    /// retry mode (Fig. 2), then complete the held abort.
    pub(super) fn decision_abort(&mut self, c: usize) {
        let kind = self.cores[c]
            .held_abort
            .take()
            .unwrap_or(AbortKind::MemoryConflict);
        let discovery = self.cores[c].discovery.take();
        if let Some(d) = discovery {
            let assessment = d.assess(|fp| self.coherence.fits_locked(fp));
            let ar = self.cores[c].inv.as_ref().unwrap().ar.0;
            {
                let e = self.cores[c].ert.entry(ar);
                e.is_convertible = assessment.lockable;
                e.is_immutable = assessment.immutable;
            }
            let mode = decide(&assessment);
            self.emit(
                c,
                TraceEvent::Decision {
                    ar: clear_isa::ArId(ar),
                    mode,
                    footprint: assessment.footprint.len(),
                    immutable: assessment.immutable,
                },
            );
            match mode {
                RetryMode::NsCl => {
                    let mut alt = d.into_alt();
                    alt.mark_all_needs_locking();
                    self.cores[c].alt = Some(alt);
                    self.cores[c].planned = RetryMode::NsCl;
                    self.cores[c].plan_nscl = false;
                }
                RetryMode::SCl => {
                    let mut alt = d.into_alt();
                    // The paper's choice locks the write set plus CRT reads
                    // (added at attempt start); the rejected "lock all"
                    // alternative is kept as an ablation (§4.4.2).
                    if self.config.backend.clear().map(|cc| cc.scl_lock_policy)
                        == Some(clear_core::SclLockPolicy::AllAccessed)
                    {
                        alt.mark_all_needs_locking();
                    } else if !self.cores[c].plan_roots.is_empty() && !self.cores[c].plan_root_dirty
                    {
                        // Partial-discovery confirmation succeeded: the
                        // likely-immutable plan's root slots stayed stable,
                        // so lock the whole learned footprint. Still S-CL
                        // (not NS-CL): a concurrent writer may invalidate a
                        // root between this decision and the retry, and
                        // S-CL keeps the abort escape hatch.
                        alt.mark_all_needs_locking();
                        self.stats.partial_discovery_runs += 1;
                    }
                    self.cores[c].alt = Some(alt);
                    self.cores[c].planned = RetryMode::SCl;
                }
                _ => {
                    self.cores[c].planned = RetryMode::SpeculativeRetry;
                    self.cores[c].alt = None;
                }
            }
        }
        self.perform_abort(c, kind);
    }

    pub(super) fn commit(&mut self, c: usize) {
        self.note_attempt_end(c, false);
        let mode = self.cores[c].mode;
        self.emit(
            c,
            TraceEvent::Commit {
                mode: mode.commit_bucket(),
                retries: self.cores[c].retries_total,
            },
        );
        // Publish buffered stores straight out of the store queue (each
        // word address is distinct, so drain order is unobservable).
        for (word_addr, value) in self.cores[c].sq.drain() {
            self.memory.store_word(Addr(word_addr), value);
        }
        self.coherence.clear_tx(CoreId(c));
        match mode {
            ExecMode::SCl | ExecMode::NsCl => self.release_cl_locks(c),
            ExecMode::Fallback => self.release_fallback_write(c),
            ExecMode::Speculative => {}
        }
        if self.cores[c].power {
            self.power_token.release(CoreId(c));
            self.cores[c].power = false;
        }
        if self.clear_enabled() {
            let ar = self.cores[c].inv.as_ref().unwrap().ar.0;
            self.cores[c].ert.entry(ar).decay_sq_full();
        }
        let core = &mut self.cores[c];
        core.discovery = None;
        core.alt = None;
        core.inv = None;
        core.vm = None;
        core.plan_nscl = false;
        self.phases[c] = Phase::Idle;
        self.clocks[c] += self.config.timing.commit_cost;
    }

    /// The learned footprint exceeded the ALT (assessment 1, §4.1): mark
    /// the AR non-convertible; abort immediately if already failed,
    /// otherwise just disarm discovery and let the attempt continue.
    pub(super) fn on_discovery_overflow(&mut self, c: usize) {
        let ar = self.cores[c].inv.as_ref().unwrap().ar.0;
        self.cores[c].ert.entry(ar).is_convertible = false;
        let failed = self.in_failed_mode(c);
        if failed {
            let kind = self.cores[c]
                .held_abort
                .take()
                .unwrap_or(AbortKind::Capacity);
            self.perform_abort(c, kind);
        } else {
            self.cores[c].discovery = None;
        }
    }
}
