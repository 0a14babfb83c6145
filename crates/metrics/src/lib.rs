//! Deterministic, zero-dependency metrics for the CLEAR reproduction.
//!
//! CLEAR's value claim is latency-shaped — bounding an atomic region to a
//! single retry is a *tail-latency* guarantee — so the repo needs more
//! than end-of-run aggregates: streaming distributions whose percentiles
//! can be gated in golden files. This crate provides the three metric
//! kinds the simulator emits:
//!
//! - [`MetricsRegistry`] counters (abort causes, commits per mode,
//!   per-shard lock/NACK traffic),
//! - gauges (directory-shard occupancy, simulator perf counters), and
//! - [`Log2Hist`] streaming histograms (time-to-commit per retry mode /
//!   backend / AR class, lock-wait cycles).
//!
//! Everything is a pure function of simulated events: no wall-clock values
//! are ever stored, observation order within a series is irrelevant, and
//! [`MetricsRegistry::merge`] is commutative — so per-worker, per-batch or
//! per-shard partial registries always fold back to the exact registry a
//! sequential run would have produced. That is what lets the harness gate
//! p50/p99/p999 time-to-commit byte-exactly in `goldens/slo-latency.json`
//! while still collecting metrics across worker pools.
//!
//! Serialization lives upstream in `clear-harness` (the in-tree JSON layer
//! and the Prometheus text exposition); this crate only exposes the
//! ordered [`Snapshot`] view they render.
//!
//! # Examples
//!
//! ```
//! use clear_metrics::{families, MetricsRegistry};
//!
//! let mut worker_a = MetricsRegistry::new();
//! let mut worker_b = MetricsRegistry::new();
//! worker_a.observe(families::TTC_CYCLES, &[("mode", "speculative")], 120);
//! worker_b.observe(families::TTC_CYCLES, &[("mode", "speculative")], 4000);
//!
//! let mut merged = MetricsRegistry::new();
//! merged.merge(&worker_b); // any order
//! merged.merge(&worker_a);
//! let h = merged
//!     .hist(families::TTC_CYCLES, &[("mode", "speculative")])
//!     .unwrap();
//! assert_eq!(h.count(), 2);
//! assert!(h.quantile(0.99) >= h.quantile(0.5));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod hist;
mod registry;

pub use hist::{bucket_lower, bucket_of, Log2Hist, BUCKETS};
pub use registry::{MetricKey, MetricValue, MetricsRegistry, SeriesSnapshot, Snapshot};

/// The typed metric families the machine and coherence layers emit.
///
/// Keeping the names here (rather than scattered as string literals) makes
/// the registry's schema greppable and keeps the JSON/Prometheus exports,
/// the serve loop's percentile rows and the golden gate all reading the
/// same series.
pub mod families {
    /// Histogram, labels `mode`, `backend`: simulated cycles from the
    /// first attempt of an AR invocation to its commit.
    pub const TTC_CYCLES: &str = "clear_ttc_cycles";
    /// Histogram, label `class`: the same time-to-commit keyed by the
    /// AR's static mutability class (Table 1 taxonomy).
    pub const TTC_CLASS_CYCLES: &str = "clear_ttc_class_cycles";
    /// Counter, label `mode`: committed ARs per execution mode.
    pub const COMMITS: &str = "clear_commits_total";
    /// Counter, label `cause`: aborts by the machine's abort taxonomy.
    pub const ABORTS: &str = "clear_aborts_total";
    /// Histogram, no labels: cycles spent spinning per CL-mode lock-list
    /// acquisition (one sample per acquired conflict group).
    pub const LOCK_WAIT_CYCLES: &str = "clear_lock_wait_cycles";
    /// Gauge, label `shard`: directory entries instantiated per shard.
    pub const SHARD_LINES: &str = "clear_shard_lines";
    /// Counter, label `shard`: cacheline locks acquired per shard.
    pub const SHARD_LOCKS: &str = "clear_shard_locks_total";
    /// Counter, label `shard`: lock requests NACKed (refused because
    /// another core held a group line locked) per shard.
    pub const SHARD_LOCK_NACKS: &str = "clear_shard_lock_nacks_total";
    /// Gauge, label `counter`: the simulator-kernel perf counters (the
    /// `clear_machine::PerfCounters` fields), excluding wall-clock time,
    /// which is never stored in a registry, and the parking counters
    /// (`polls_elided`, `wakes`, `reparks`, `materialized`).
    pub const SIM_PERF: &str = "clear_sim_perf";
}
