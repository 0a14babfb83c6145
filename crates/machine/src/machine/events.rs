//! The single emission point for simulated events: [`Machine::emit`]
//! stamps an event with the core's clock and folds it into every sink —
//! the core's attempt bookkeeping, [`RunStats`], the opt-in metrics
//! registry and the opt-in trace ring — so each attempt start, abort,
//! commit, lock acquisition and discovery elision is recorded at one site.
//!
//! `RunStats` folds unconditionally: the machine reads `ar_stats` to make
//! decisions, so statistics must come out the same with tracing and
//! metrics on or off. Metrics record only simulated-deterministic values
//! (cycles, counts — never wall-clock time), so an enabled registry
//! snapshot is byte-reproducible across hosts and worker counts. The
//! machine steps one core at a time on one thread, so no sink needs
//! synchronization.
//!
//! Counters that only one sink sees (`conflicts_from_*`, wait-cycle
//! credits, `lrws_*`, plan violations, partial-discovery runs, and the
//! `explicit-fallback` abort count) stay at their own sites.

use super::*;
use clear_isa::{ArId, Mutability};
use clear_metrics::{families, MetricsRegistry};

/// The static mutability class of an AR as a metric label (Table 1
/// taxonomy; the serve loop's "per AR class" percentiles key on this).
fn class_label(m: Mutability) -> &'static str {
    match m {
        Mutability::Immutable => "immutable",
        Mutability::LikelyImmutable => "likely-immutable",
        Mutability::Mutable => "mutable",
    }
}

/// A [`RetryMode`] as a metric label.
fn mode_label(mode: RetryMode) -> &'static str {
    match mode {
        RetryMode::SpeculativeRetry => "speculative",
        RetryMode::NsCl => "nscl",
        RetryMode::SCl => "scl",
        RetryMode::Fallback => "fallback",
    }
}

/// Metrics state carried by an enabled machine.
pub(super) struct MachineMetrics {
    registry: MetricsRegistry,
    /// AR id → static mutability class, from the workload's metadata.
    ar_class: FxHashMap<u32, &'static str>,
    /// The speculation backend's stable name, stamped on every
    /// time-to-commit sample.
    backend: &'static str,
}

impl Machine {
    /// Emits one event of core `c` at `c`'s current clock.
    ///
    /// * `AttemptStart` opens the attempt (the `Abort` span and the
    ///   time-to-commit both start here).
    /// * `Abort` counts the cause, the AR's abort and the wasted
    ///   instructions, plus the cause counter metric.
    /// * `Commit` counts the mode, the AR's commit, the retries and the
    ///   retired instructions, plus the time-to-commit histograms and the
    ///   mode counter metric.
    /// * `LockAcquired` feeds one lock-wait sample per acquired group.
    /// * `DiscoveryElided` counts the skipped discovery run.
    pub(super) fn emit(&mut self, c: usize, event: TraceEvent) {
        let now = self.clocks[c];
        match event {
            TraceEvent::AttemptStart { .. } => {
                let core = &mut self.cores[c];
                core.attempt_started_at = now;
                core.first_attempt_at.get_or_insert(now);
            }
            TraceEvent::Abort { kind, .. } => {
                let core = &self.cores[c];
                self.stats.aborts.record(kind);
                if let Some(inv) = core.inv.as_ref() {
                    self.stats.ar_stats.entry(inv.ar.0).or_default().aborts += 1;
                }
                if let Some(vm) = core.vm.as_ref() {
                    self.stats.instructions_wasted += vm.retired();
                }
                if let Some(mx) = self.metrics.as_mut() {
                    mx.registry
                        .inc(families::ABORTS, &[("cause", kind.name())], 1);
                }
            }
            TraceEvent::Commit { mode, retries } => {
                let core = &self.cores[c];
                self.stats.commits_by_mode.record(mode);
                let ar = core.inv.as_ref().map(|inv| inv.ar.0);
                if let Some(ar) = ar {
                    let e = self.stats.ar_stats.entry(ar).or_default();
                    e.commits += 1;
                    e.by_mode.record(mode);
                }
                if mode != RetryMode::Fallback {
                    *self.stats.commits_by_retries.entry(retries).or_insert(0) += 1;
                }
                if let Some(vm) = core.vm.as_ref() {
                    self.stats.instructions_retired += vm.retired();
                }
                if let Some(mx) = self.metrics.as_mut() {
                    // Time to commit spans the invocation's first attempt,
                    // every retry and back-off included.
                    let ttc = now.saturating_sub(core.first_attempt_at.unwrap_or(now));
                    let label = mode_label(mode);
                    mx.registry.observe(
                        families::TTC_CYCLES,
                        &[("mode", label), ("backend", mx.backend)],
                        ttc,
                    );
                    if let Some(class) = ar.and_then(|id| mx.ar_class.get(&id)) {
                        mx.registry
                            .observe(families::TTC_CLASS_CYCLES, &[("class", class)], ttc);
                    }
                    mx.registry.inc(families::COMMITS, &[("mode", label)], 1);
                }
            }
            TraceEvent::LockAcquired { line, wait_cycles } => {
                if let Some(mx) = self.metrics.as_mut() {
                    // One sample per group: the group's head line — the lock
                    // list entry the current lock phase points at — carries
                    // the whole group's wait.
                    let head = match self.phases[c] {
                        Phase::LockAcquire { idx } => self.cores[c].lock_list.get(idx),
                        _ => None,
                    };
                    if head == Some(&line) {
                        mx.registry
                            .observe(families::LOCK_WAIT_CYCLES, &[], wait_cycles);
                    }
                }
            }
            TraceEvent::DiscoveryElided { .. } => self.stats.discovery_runs_elided += 1,
            TraceEvent::ArFetched { .. }
            | TraceEvent::ConflictReceived { .. }
            | TraceEvent::EnterFailedMode
            | TraceEvent::Decision { .. } => {}
        }
        self.trace.record(now, c, event);
    }

    /// A proved-immutable static plan stands in for `c`'s discovery run of
    /// `ar`: emits the elision and its NS-CL decision and installs the
    /// plan's ALT (with its resolved line count) for the next attempt.
    pub(super) fn elide_discovery(
        &mut self,
        c: usize,
        ar: ArId,
        (alt, footprint): (Alt, usize),
        eager: bool,
    ) {
        self.emit(c, TraceEvent::DiscoveryElided { ar, eager });
        self.emit(
            c,
            TraceEvent::Decision {
                ar,
                mode: RetryMode::NsCl,
                footprint,
                immutable: true,
            },
        );
        let core = &mut self.cores[c];
        core.alt = Some(alt);
        core.planned = RetryMode::NsCl;
        core.plan_nscl = true;
    }

    /// Enables metrics collection (see [`clear_metrics`]). Call before
    /// [`Machine::run`]; the registry fills during the run and finalizes
    /// with shard-occupancy gauges and the simulator perf counters. The
    /// registry stores only simulated-deterministic values, so snapshots
    /// are byte-identical across hosts and worker counts.
    pub fn enable_metrics(&mut self) {
        let mut ar_class = FxHashMap::default();
        for ar in self.workload.meta().ars {
            ar_class.insert(ar.id.0, class_label(ar.mutability));
        }
        self.metrics = Some(Box::new(MachineMetrics {
            registry: MetricsRegistry::new(),
            ar_class,
            backend: self.config.backend.name(),
        }));
    }

    /// The collected metrics (`None` unless [`Machine::enable_metrics`]
    /// was called).
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref().map(|m| &m.registry)
    }

    /// Takes the collected metrics out of the machine, for merging across
    /// runs (`None` unless enabled).
    pub fn take_metrics(&mut self) -> Option<MetricsRegistry> {
        self.metrics.take().map(|m| m.registry)
    }

    /// Run end: simulator perf counters as gauges (wall-clock time
    /// excluded by design) and the coherence layer's per-shard occupancy /
    /// lock-traffic profile. Reads the finalized `RunStats`.
    pub(super) fn finalize_metrics(&mut self) {
        let Some(mx) = self.metrics.as_mut() else {
            return;
        };
        let reg = &mut mx.registry;
        let stats = &self.stats;
        // Only exported when static plans are configured, so runs without
        // them keep their metrics snapshots byte-identical.
        let plan_counters = self.config.static_plans.is_some().then_some([
            ("discovery_runs_elided", stats.discovery_runs_elided),
            ("partial_discovery_runs", stats.partial_discovery_runs),
            ("static_plan_violations", stats.static_plan_violations),
        ]);
        for (counter, value) in stats
            .sim_perf_gauges()
            .into_iter()
            .chain(plan_counters.into_iter().flatten())
        {
            reg.set_gauge(families::SIM_PERF, &[("counter", counter)], value);
        }
        for p in self.coherence.shard_profiles() {
            let shard = p.shard.to_string();
            let labels: [(&str, &str); 1] = [("shard", &shard)];
            reg.set_gauge(families::SHARD_LINES, &labels, p.lines);
            if p.locks > 0 {
                reg.inc(families::SHARD_LOCKS, &labels, p.locks);
            }
            if p.lock_nacks > 0 {
                reg.inc(families::SHARD_LOCK_NACKS, &labels, p.lock_nacks);
            }
        }
    }
}
