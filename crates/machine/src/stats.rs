//! Run statistics: everything the paper's figures are built from.

use crate::{EnergyBreakdown, PerfCounters};
use clear_coherence::CoherenceStats;
use clear_core::RetryMode;
use clear_htm::AbortKind;
use std::collections::BTreeMap;

/// Commit counters broken down by execution mode (Fig. 12).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModeCommits {
    /// Committed in plain speculative execution.
    pub speculative: u64,
    /// Committed in S-CL mode.
    pub scl: u64,
    /// Committed in NS-CL mode.
    pub nscl: u64,
    /// Committed on the fallback path.
    pub fallback: u64,
}

impl ModeCommits {
    /// Total commits.
    pub fn total(&self) -> u64 {
        self.speculative + self.scl + self.nscl + self.fallback
    }

    /// Increments the counter for `mode`.
    pub fn record(&mut self, mode: RetryMode) {
        match mode {
            RetryMode::SpeculativeRetry => self.speculative += 1,
            RetryMode::SCl => self.scl += 1,
            RetryMode::NsCl => self.nscl += 1,
            RetryMode::Fallback => self.fallback += 1,
        }
    }
}

/// Abort counters by kind (Fig. 11).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AbortCounts {
    counts: BTreeMap<&'static str, u64>,
}

impl AbortCounts {
    /// Increments the counter for `kind`.
    pub fn record(&mut self, kind: AbortKind) {
        *self.counts.entry(kind.name()).or_insert(0) += 1;
    }

    /// Count for `kind`.
    pub fn get(&self, kind: AbortKind) -> u64 {
        self.counts.get(kind.name()).copied().unwrap_or(0)
    }

    /// Total aborts.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }
}

/// Per-static-AR counters: connects Table 1's static classification to the
/// dynamic outcome of each atomic region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArStatsEntry {
    /// Commits of this AR.
    pub commits: u64,
    /// Aborts suffered by this AR.
    pub aborts: u64,
    /// Commits by execution mode.
    pub by_mode: ModeCommits,
}

/// Everything measured during one run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Simulated execution time of the region of interest: the maximum core
    /// clock when the last thread finishes.
    pub total_cycles: u64,
    /// Committed ARs by execution mode (Fig. 12).
    pub commits_by_mode: ModeCommits,
    /// Aborts by kind (Fig. 11).
    pub aborts: AbortCounts,
    /// Commit counts indexed by the number of retries the AR took
    /// (0 = first try). Fallback commits are *not* included here (Fig. 13
    /// reports them separately via [`ModeCommits::fallback`]).
    pub commits_by_retries: BTreeMap<u32, u64>,
    /// Instructions retired on committed work.
    pub instructions_retired: u64,
    /// Instructions retired on attempts that later aborted (wasted work).
    pub instructions_wasted: u64,
    /// Cycles spent executing in failed-mode discovery (the Fig. 8
    /// "Time Running Aborted in Discovery" overlay), summed over cores.
    pub discovery_failed_cycles: u64,
    /// Cycles spent stalled re-sending requests to locked cachelines.
    pub pending_stall_cycles: u64,
    /// Cycles spent spinning while acquiring cacheline locks.
    pub lock_spin_cycles: u64,
    /// Cycles spent waiting on the fallback mutex (any mode).
    pub fallback_wait_cycles: u64,
    /// Victim aborts triggered by CL-mode lock acquisitions.
    pub conflicts_from_locks: u64,
    /// Victim aborts triggered by ordinary data accesses.
    pub conflicts_from_access: u64,
    /// Cacheline lock + unlock operations performed.
    pub lock_ops: u64,
    /// Fig. 1 instrumentation: AR executions that aborted their first
    /// attempt.
    pub retried_ars: u64,
    /// Fig. 1 instrumentation: of those, executions whose first-retry
    /// footprint was identical to the first attempt's and ≤ 32 lines.
    pub immutable_small_retries: u64,
    /// Limited-R/W-set backend: capacity aborts raised by read-set buffer
    /// overflow. Zero for every other backend.
    pub lrws_read_capacity_aborts: u64,
    /// Limited-R/W-set backend: capacity aborts raised by write-set buffer
    /// overflow. Zero for every other backend.
    pub lrws_write_capacity_aborts: u64,
    /// Discovery runs skipped outright because a proved-immutable
    /// [`StaticPlan`](clear_core::StaticPlan) supplied the lock set.
    pub discovery_runs_elided: u64,
    /// Discovery runs shortened to a root-slot stability confirmation by a
    /// likely-immutable static plan.
    pub partial_discovery_runs: u64,
    /// Static-plan guard trips: NS-CL attempts that touched a line outside
    /// the plan's lock set and aborted to the dynamic path.
    pub static_plan_violations: u64,
    /// Per-AR counters keyed by the AR's static id.
    pub ar_stats: BTreeMap<u32, ArStatsEntry>,
    /// Coherence event counters.
    pub coherence: CoherenceStats,
    /// Energy totals.
    pub energy: EnergyBreakdown,
    /// Simulator-kernel performance counters (see [`crate::perf`]).
    pub perf: PerfCounters,
    /// The run hit the `max_cycles` safety stop before the workload
    /// finished.
    pub timed_out: bool,
}

impl RunStats {
    /// Total committed ARs.
    pub fn commits(&self) -> u64 {
        self.commits_by_mode.total()
    }

    /// Aborts per committed transaction (Fig. 9).
    pub fn aborts_per_commit(&self) -> f64 {
        if self.commits() == 0 {
            0.0
        } else {
            self.aborts.total() as f64 / self.commits() as f64
        }
    }

    /// Of the ARs that needed at least one retry (including those that
    /// ended in fallback), the fraction committing on exactly the first
    /// retry (Fig. 13's headline number).
    pub fn first_retry_share(&self) -> f64 {
        let retried: u64 = self
            .commits_by_retries
            .iter()
            .filter(|(&r, _)| r >= 1)
            .map(|(_, &c)| c)
            .sum::<u64>()
            + self.commits_by_mode.fallback;
        if retried == 0 {
            return 0.0;
        }
        self.commits_by_retries.get(&1).copied().unwrap_or(0) as f64 / retried as f64
    }

    /// Of the ARs that needed at least one retry, the fraction that ended
    /// on the fallback path (Fig. 13).
    pub fn fallback_share(&self) -> f64 {
        let retried: u64 = self
            .commits_by_retries
            .iter()
            .filter(|(&r, _)| r >= 1)
            .map(|(_, &c)| c)
            .sum::<u64>()
            + self.commits_by_mode.fallback;
        if retried == 0 {
            return 0.0;
        }
        self.commits_by_mode.fallback as f64 / retried as f64
    }

    /// Total capacity aborts raised by the limited-R/W-set buffers; a
    /// subset of the Capacity bucket in [`RunStats::aborts`].
    pub fn lrws_capacity_aborts(&self) -> u64 {
        self.lrws_read_capacity_aborts + self.lrws_write_capacity_aborts
    }

    /// The `clear_sim_perf` gauges: the simulator perf counters (wall
    /// time excluded) plus the LRWS capacity-abort tallies, in export
    /// order.
    pub fn sim_perf_gauges(&self) -> [(&'static str, u64); 10] {
        let p = &self.perf;
        [
            ("steps", p.steps),
            ("sched_updates", p.sched_updates),
            ("coherence_requests", p.coherence_requests),
            ("trace_events_recorded", p.trace_events_recorded),
            ("trace_events_dropped", p.trace_events_dropped),
            ("shards", p.shards),
            ("shard_lines", p.shard_lines),
            ("shard_lines_max", p.shard_lines_max),
            ("lrws_read_capacity_aborts", self.lrws_read_capacity_aborts),
            (
                "lrws_write_capacity_aborts",
                self.lrws_write_capacity_aborts,
            ),
        ]
    }

    /// Fig. 1 ratio: retrying ARs whose footprint stayed immutable and
    /// small on the first retry.
    pub fn immutable_retry_ratio(&self) -> f64 {
        if self.retried_ars == 0 {
            0.0
        } else {
            self.immutable_small_retries as f64 / self.retried_ars as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_commits_total() {
        let mut m = ModeCommits::default();
        m.record(RetryMode::SpeculativeRetry);
        m.record(RetryMode::NsCl);
        m.record(RetryMode::NsCl);
        m.record(RetryMode::Fallback);
        assert_eq!(m.total(), 4);
        assert_eq!(m.nscl, 2);
    }

    #[test]
    fn abort_counts_by_kind() {
        let mut a = AbortCounts::default();
        a.record(AbortKind::MemoryConflict);
        a.record(AbortKind::MemoryConflict);
        a.record(AbortKind::Capacity);
        assert_eq!(a.get(AbortKind::MemoryConflict), 2);
        assert_eq!(a.get(AbortKind::Capacity), 1);
        assert_eq!(a.get(AbortKind::Explicit), 0);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn aborts_per_commit_handles_zero() {
        let s = RunStats::default();
        assert_eq!(s.aborts_per_commit(), 0.0);
    }

    #[test]
    fn retry_shares() {
        let mut s = RunStats::default();
        s.commits_by_retries.insert(0, 100); // excluded
        s.commits_by_retries.insert(1, 6);
        s.commits_by_retries.insert(2, 2);
        s.commits_by_mode.fallback = 2;
        assert!((s.first_retry_share() - 0.6).abs() < 1e-9);
        assert!((s.fallback_share() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn immutable_retry_ratio() {
        let s = RunStats {
            retried_ars: 10,
            immutable_small_retries: 6,
            ..RunStats::default()
        };
        assert!((s.immutable_retry_ratio() - 0.6).abs() < 1e-9);
    }
}
