//! Machine-side metrics collection: lightweight hooks on the attempt /
//! commit / abort / lock paths feeding a [`clear_metrics`] registry.
//!
//! Collection is strictly opt-in ([`Machine::enable_metrics`]) and records
//! only simulated-deterministic values (cycles, counts — never wall-clock
//! time), so an enabled registry snapshot is byte-reproducible across
//! hosts, worker counts and `sim_threads` modes, and a disabled machine
//! pays nothing but a branch per hook. Every hook sits on a sequential
//! path of the run loop — commits, aborts and lock acquisitions are never
//! executed inside parallel step batches — so no synchronization is
//! needed.

use super::*;
use clear_isa::Mutability;
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

impl MachineMetrics {
    fn new(backend: &'static str, ar_class: FxHashMap<u32, &'static str>) -> Self {
        MachineMetrics {
            registry: MetricsRegistry::new(),
            ar_class,
            backend,
        }
    }

    fn on_commit(&mut self, mode: RetryMode, ttc: u64, ar: Option<u32>) {
        let mode = mode_label(mode);
        self.registry.observe(
            families::TTC_CYCLES,
            &[("mode", mode), ("backend", self.backend)],
            ttc,
        );
        if let Some(class) = ar.and_then(|id| self.ar_class.get(&id)) {
            self.registry
                .observe(families::TTC_CLASS_CYCLES, &[("class", class)], ttc);
        }
        self.registry.inc(families::COMMITS, &[("mode", mode)], 1);
    }

    fn on_abort(&mut self, kind: AbortKind) {
        let cause = kind.to_string();
        self.registry.inc(families::ABORTS, &[("cause", &cause)], 1);
    }

    fn on_locks_acquired(&mut self, wait_cycles: u64) {
        self.registry
            .observe(families::LOCK_WAIT_CYCLES, &[], wait_cycles);
    }
}

impl Machine {
    /// Enables metrics collection (see [`clear_metrics`]). Call before
    /// [`Machine::run`]; the registry fills during the run and finalizes
    /// with shard-occupancy gauges and the simulator perf counters. The
    /// registry stores only simulated-deterministic values, so snapshots
    /// are byte-identical across hosts and thread counts (two multi-
    /// threaded runs agree on the `par_batch_*` gauges too, exactly as
    /// [`PerfCounters`] documents).
    pub fn enable_metrics(&mut self) {
        let mut ar_class = FxHashMap::default();
        for ar in self.workload.meta().ars {
            ar_class.insert(ar.id.0, class_label(ar.mutability));
        }
        self.metrics = Some(Box::new(MachineMetrics::new(
            self.config.backend.name(),
            ar_class,
        )));
    }

    /// The collected metrics (`None` unless [`Machine::enable_metrics`]
    /// was called).
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref().map(|m| &m.registry)
    }

    /// Takes the collected metrics out of the machine, for merging across
    /// runs/batches (`None` unless enabled).
    pub fn take_metrics(&mut self) -> Option<MetricsRegistry> {
        self.metrics.take().map(|m| m.registry)
    }

    /// Commit hook: time-to-commit histograms (per mode × backend and per
    /// AR class) plus the per-mode commit counter. `ttc` spans from the
    /// first attempt of the invocation (retries and back-off included) to
    /// the committing step.
    pub(super) fn metrics_on_commit(&mut self, c: usize, mode: RetryMode) {
        if self.metrics.is_none() {
            return;
        }
        let started = self.cores[c].first_attempt_at.unwrap_or(self.clocks[c]);
        let ttc = self.clocks[c].saturating_sub(started);
        let ar = self.cores[c].inv.as_ref().map(|inv| inv.ar.0);
        self.metrics
            .as_mut()
            .expect("checked above")
            .on_commit(mode, ttc, ar);
    }

    /// Abort hook: the abort-cause taxonomy counter.
    pub(super) fn metrics_on_abort(&mut self, kind: AbortKind) {
        if let Some(mx) = self.metrics.as_mut() {
            mx.on_abort(kind);
        }
    }

    /// Lock-acquisition hook: one lock-wait sample per acquired conflict
    /// group (the spin cycles accumulated while the group was contended).
    pub(super) fn metrics_on_locks_acquired(&mut self, wait_cycles: u64) {
        if let Some(mx) = self.metrics.as_mut() {
            mx.on_locks_acquired(wait_cycles);
        }
    }

    /// Run-end hook: simulator perf counters as gauges (wall-clock time
    /// excluded by design) and the coherence layer's per-shard occupancy /
    /// lock-traffic profile.
    pub(super) fn metrics_on_finalize(&mut self) {
        if self.metrics.is_none() {
            return;
        }
        let perf = self.perf;
        let lrws_reads = self.stats.lrws_read_capacity_aborts;
        let lrws_writes = self.stats.lrws_write_capacity_aborts;
        // Only exported when static plans are configured, so runs without
        // them keep their metrics snapshots byte-identical.
        let plan_counters = self.config.static_plans.is_some().then_some([
            ("discovery_runs_elided", self.stats.discovery_runs_elided),
            ("partial_discovery_runs", self.stats.partial_discovery_runs),
            ("static_plan_violations", self.stats.static_plan_violations),
        ]);
        let profiles: Vec<clear_coherence::ShardProfile> =
            self.coherence.shard_profiles().collect();
        let reg = &mut self.metrics.as_mut().expect("checked above").registry;
        for (counter, value) in [
            ("steps", perf.steps),
            ("sched_updates", perf.sched_updates),
            ("coherence_requests", perf.coherence_requests),
            ("allocs_avoided", perf.allocs_avoided),
            ("trace_events_recorded", perf.trace_events_recorded),
            ("trace_events_dropped", perf.trace_events_dropped),
            ("shards", perf.shards),
            ("shard_lines", perf.shard_lines),
            ("shard_lines_max", perf.shard_lines_max),
            ("par_batches", perf.par_batches),
            ("par_batch_steps", perf.par_batch_steps),
            ("par_batch_max", perf.par_batch_max),
            ("lrws_read_capacity_aborts", lrws_reads),
            ("lrws_write_capacity_aborts", lrws_writes),
        ] {
            reg.set_gauge(families::SIM_PERF, &[("counter", counter)], value);
        }
        for (counter, value) in plan_counters.into_iter().flatten() {
            reg.set_gauge(families::SIM_PERF, &[("counter", counter)], value);
        }
        for p in profiles {
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
