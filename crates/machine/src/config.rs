//! Machine configuration and the four evaluated presets.

use clear_coherence::CoherenceConfig;
use clear_core::StaticPlanSet;
use clear_htm::RetryPolicy;
use std::sync::Arc;

use crate::{BackendId, EnergyConfig, SpeculationBackend, TsxBackend};

/// How far speculation can extend (§4.1 vs §4.2 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpeculationKind {
    /// Out-of-core speculation backed by HTM facilities: speculative state
    /// is tracked at the private cache, instructions retire inside the AR,
    /// and only the store queue bounds failed-mode discovery (§4.2).
    Htm,
    /// In-core speculation only (SLE-style, §4.1): the speculative window
    /// is delimited by the reorder buffer, so both ordinary speculative
    /// attempts and failed-mode discovery abort when the AR exceeds the
    /// ROB (or the SQ for stores). NS-CL is unaffected — it retires
    /// non-speculatively.
    InCore,
}

/// Fixed micro-architectural costs charged by the timing model (cycles).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimingConfig {
    /// Starting a speculative attempt (`XBegin`: checkpoint + RAS save).
    pub xbegin_cost: u64,
    /// Committing (`XEnd`: write-set publication).
    pub commit_cost: u64,
    /// Abort penalty (pipeline flush + checkpoint restore).
    pub abort_penalty: u64,
    /// Re-poll interval while spinning on the fallback lock or on a locked
    /// cacheline (the Fig. 6 retried-request interval).
    pub spin_interval: u64,
    /// Maximum random jitter added to the abort penalty (desynchronises
    /// convoys; deterministic via the run seed).
    pub backoff_jitter: u64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            xbegin_cost: 5,
            commit_cost: 10,
            abort_penalty: 100,
            spin_interval: 15,
            backoff_jitter: 16,
        }
    }
}

/// Full configuration of a simulated machine run.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of cores/threads (the paper evaluates 32).
    pub cores: usize,
    /// Coherence substrate configuration.
    pub coherence: CoherenceConfig,
    /// The speculation policy: conflict arbitration, CLEAR and its
    /// structure sizes, speculation kind and R/W-set bounds (see
    /// [`SpeculationBackend`]; [`BackendId::backend`] builds the built-in
    /// ones).
    pub backend: Arc<dyn SpeculationBackend>,
    /// Bounded-retry policy before the fallback path.
    pub retry: RetryPolicy,
    /// Analyzer-emitted static plans (`clear_analysis::workload_plans`):
    /// proved-immutable ARs skip the discovery run on their first abort
    /// (or eagerly once contention was observed) and enter NS-CL with the
    /// plan's lock set; likely-immutable ARs take a shortened discovery
    /// that only confirms root-slot stability. `None` (the default, and
    /// every preset) runs pure dynamic discovery. Read by CLEAR backends
    /// and [`crate::MadBackend`]; ignored otherwise.
    pub static_plans: Option<Arc<StaticPlanSet>>,
    /// Reorder-buffer size in instructions (Table 2: 352). Bounds every
    /// speculative attempt under [`SpeculationKind::InCore`].
    pub rob_size: u64,
    /// Store-queue entries (Table 2: 72). Bounds failed-mode discovery.
    pub sq_size: u64,
    /// Safety cap on instructions per failed-mode discovery continuation
    /// (failed executions may observe torn data and loop; real hardware is
    /// bounded by physical queues).
    pub failed_instr_cap: u64,
    /// Safety cap on instructions per attempt (workload-bug guard).
    pub attempt_instr_cap: u64,
    /// Timing constants.
    pub timing: TimingConfig,
    /// Energy model coefficients.
    pub energy: EnergyConfig,
    /// Run seed (backoff jitter; workloads carry their own seeds).
    pub seed: u64,
    /// Hard stop after this many cycles on any core (deadlock guard).
    /// Must be below `2^(64 - bits) - 2`, `bits = max(1, ceil(log2
    /// cores))`, so the scheduler's packed `(clock, core_id)` keys order
    /// every clock up to the stop exactly; [`crate::Machine::new`] panics
    /// otherwise.
    pub max_cycles: u64,
    /// Ignored: the machine always steps one core at a time on the
    /// calling thread. The field stays only because the repository
    /// benchmark still sets it, and goes when the benchmark stops setting
    /// it.
    pub sim_threads: usize,
}

impl MachineConfig {
    /// Table 2 baseline with the given core count, running the
    /// requester-wins [`TsxBackend`].
    pub fn table2(cores: usize) -> Self {
        MachineConfig {
            cores,
            coherence: CoherenceConfig::table2(cores),
            backend: Arc::new(TsxBackend),
            retry: RetryPolicy::default(),
            static_plans: None,
            rob_size: 352,
            sq_size: 72,
            failed_instr_cap: 50_000,
            attempt_instr_cap: 2_000_000,
            timing: TimingConfig::default(),
            energy: EnergyConfig::default(),
            seed: 1,
            max_cycles: 2_000_000_000,
            sim_threads: 1,
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::table2(32)
    }
}

/// The four configurations of the paper's figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Preset {
    /// **B** — requester-wins baseline.
    B,
    /// **P** — PowerTM.
    P,
    /// **C** — CLEAR over requester-wins.
    C,
    /// **W** — CLEAR over PowerTM.
    W,
}

impl Preset {
    /// All presets in figure order.
    pub const ALL: [Preset; 4] = [Preset::B, Preset::P, Preset::C, Preset::W];

    /// Single-letter label used in the figures.
    pub fn letter(self) -> char {
        match self {
            Preset::B => 'B',
            Preset::P => 'P',
            Preset::C => 'C',
            Preset::W => 'W',
        }
    }

    /// The backend this preset runs.
    pub fn backend(self) -> BackendId {
        match self {
            Preset::B => BackendId::Tsx,
            Preset::P => BackendId::PowerTm,
            Preset::C => BackendId::Clear,
            Preset::W => BackendId::ClearPowerTm,
        }
    }

    /// Builds a machine configuration for this preset.
    pub fn config(self, cores: usize, max_retries: u32) -> MachineConfig {
        self.backend().config(cores, max_retries)
    }
}

impl std::fmt::Display for Preset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.letter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_letters() {
        let s: String = Preset::ALL.iter().map(|p| p.letter()).collect();
        assert_eq!(s, "BPCW");
    }

    #[test]
    fn table2_defaults() {
        let m = MachineConfig::default();
        assert_eq!(m.cores, 32);
        assert_eq!(m.sq_size, 72);
        assert_eq!(m.rob_size, 352);
        assert_eq!(m.backend.name(), "tsx");
        assert_eq!(m.retry.max_retries, 5);
    }
}
