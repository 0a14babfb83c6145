//! `clear-harness`: the experiment runner for the CLEAR reproduction.
//!
//! The harness owns everything between "a simulator exists" and "the
//! paper's figures are reproduced and regression-checked":
//!
//! - [`experiments`]: a registry of named experiments, one per reproduced
//!   figure/table/study; `clear-harness run <name>` prints any of them.
//! - [`suite`]: the one run path ([`run_benchmark`]: build, run and check
//!   a named benchmark under a [`MachineConfig`](clear_machine::MachineConfig))
//!   and the one (benchmark × preset × retry × seed) [`Grid`] with the
//!   paper's best-of retry sweep and trimmed-mean aggregation.
//! - [`pool`]: a scoped worker pool that spreads the grid over threads
//!   while keeping results bit-identical to a sequential run.
//! - [`json`]: a small hand-rolled JSON document model (emit + parse), so
//!   the harness needs no external crates.
//! - [`golden`]: versioned golden baselines under `goldens/`, holding
//!   simulated values only and compared by one rule for every gate; the
//!   CLI's `check` exits nonzero on any drift, which is what CI gates on.
//! - [`trace_export`]: consumers of the machine's execution trace — the
//!   Chrome-trace exporter behind `clear-harness trace`, the plain-text
//!   timeline, and the per-AR derived-metrics pass.
//! - [`metrics_export`]: serializers for [`clear_metrics`] snapshots —
//!   harness JSON (with p50/p99/p999 per histogram) and Prometheus text
//!   exposition, plus a round-trip validator.
//! - [`serve`]: the bounded-memory trace-replay / open-loop service loop
//!   behind `clear-harness serve`, reporting streaming time-to-commit
//!   percentiles per AR class.
//!
//! ```text
//! cargo run --release -p clear-harness -- list
//! cargo run --release -p clear-harness -- run fig08 --size small
//! cargo run --release -p clear-harness -- serve arrayswap --ars 100000
//! cargo run --release -p clear-harness -- check
//! ```

pub mod experiments;
pub mod golden;
pub mod json;
pub mod metrics_export;
pub mod pool;
pub mod serve;
pub mod suite;
pub mod trace_export;

pub use suite::{
    bar, format_table, geomean, run_benchmark, run_suite, trimmed_mean, CellResult, Grid,
    SuiteOptions,
};
