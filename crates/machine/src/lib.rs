//! The deterministic multicore machine of the CLEAR reproduction.
//!
//! Substitutes for the paper's gem5 full-system environment: drives the 19
//! workloads' atomic regions through the mini-ISA VM, the MESI/locking
//! coherence substrate, the HTM policy layer and CLEAR itself, producing
//! the statistics every figure of the paper is computed from.
//!
//! See [`Machine`] for the execution model and [`Preset`] for the four
//! evaluated configurations (B/P/C/W).
//!
//! # Examples
//!
//! Run one of the paper's benchmarks under CLEAR and inspect the headline
//! statistics:
//!
//! ```
//! use clear_machine::{Machine, Preset};
//! use clear_workloads::{by_name, Size};
//!
//! let workload = by_name("mwobject", Size::Tiny, 7).expect("known benchmark");
//! let mut machine = Machine::new(Preset::C.config(4, 5), workload);
//! let stats = machine.run();
//! machine.workload().validate(machine.memory()).expect("atomicity holds");
//! assert!(stats.commits() > 0);
//! assert!(stats.first_retry_share() <= 1.0);
//! ```
//!
//! A complete tour lives in the repository `examples/` directory; the
//! integration tests under `tests/` exercise atomicity invariants across
//! all presets.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod config;
mod energy;
mod machine;
pub mod perf;
mod stats;
mod trace;

pub use backend::{
    BackendId, ClearBackend, LrwsBackend, MadBackend, PowerTmBackend, SleBackend,
    SpeculationBackend, TsxBackend,
};
pub use config::{MachineConfig, Preset, SpeculationKind, TimingConfig};
pub use energy::{compute_energy, EnergyBreakdown, EnergyConfig};
pub use machine::Machine;
pub use perf::PerfCounters;
pub use stats::{AbortCounts, ArStatsEntry, ModeCommits, RunStats};
pub use trace::{Trace, TraceEvent, TraceRecord};
