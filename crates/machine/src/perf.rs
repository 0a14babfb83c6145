//! Zero-dependency performance counters for the simulation kernel itself.
//!
//! These measure the *simulator*, not the simulated machine: how many
//! scheduler steps a run took, how much coherence traffic it generated,
//! how many heap allocations the scratch-buffer reuse avoided, and how
//! long the run took in wall-clock time. They surface through
//! [`RunStats::perf`](crate::RunStats::perf), the harness JSON, and the
//! rows of the gated `backend-shootout` and `scaling-wide` experiments, so
//! kernel changes that alter the simulated schedule are tracked like any
//! other golden metric.
//!
//! Every counter except [`PerfCounters::run_wall_ns`] is a pure function
//! of the simulated run and therefore byte-reproducible across hosts;
//! wall-clock time is explicitly excluded from golden comparisons.

/// Counters describing one [`Machine::run`](crate::Machine::run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Scheduler steps (instructions, lock acquisitions, failed polls,
    /// phase transitions — one per core advance). Includes the polls a
    /// parked core skipped ([`PerfCounters::polls_elided`]), so the count
    /// is the same as if every poll had run.
    pub steps: u64,
    /// Scheduler heap re-keys (one per step plus one per remote abort).
    pub sched_updates: u64,
    /// Coherence requests served at any level (L1/L2/L3/memory).
    pub coherence_requests: u64,
    /// Heap allocations avoided by reusing scratch buffers (victim lists,
    /// lock lists, conflict filters, store-queue drains).
    pub allocs_avoided: u64,
    /// Trace records emitted (retained or dropped); zero unless tracing
    /// was enabled. A pure function of the run, so golden-gated.
    pub trace_events_recorded: u64,
    /// Trace records evicted by ring-buffer overflow; also deterministic
    /// and golden-gated.
    pub trace_events_dropped: u64,
    /// Directory shards instantiated by the run (each shard covers a
    /// 64-line address range).
    pub shards: u64,
    /// Directory entries instantiated across all shards (occupancy).
    pub shard_lines: u64,
    /// Directory entries in the fullest shard (imbalance indicator; equal
    /// to `shard_lines / shards` only for a perfectly uniform footprint).
    pub shard_lines_max: u64,
    /// Lock, fallback-lock and pending polls a parked core skipped and had
    /// credited on wake instead of executing (part of `steps`). Kept out of the
    /// harness JSON and the metrics gauges, so no golden depends on it.
    pub polls_elided: u64,
    /// Cores a release put back into the heap: queue heads elected, one
    /// per queue the release made live (a line's, or the fallback lock's
    /// writer and idle queues), then one per head that polled and left the
    /// lock free for the rest. Kept out of the harness JSON and the metrics
    /// gauges, like `polls_elided`.
    pub wakes: u64,
    /// Parked pending cores a conflict brought back to their next poll
    /// before delivery. Only a pending core is parked inside a running
    /// speculative attempt, so no lock or fallback waiter is counted. Kept
    /// out of the harness JSON and the metrics gauges, like `polls_elided`.
    pub materialized: u64,
    /// Wall-clock nanoseconds spent inside `Machine::run`. Host-dependent:
    /// never compared against goldens.
    pub run_wall_ns: u64,
}
