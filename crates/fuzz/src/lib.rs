//! Differential fuzzing for the CLEAR reproduction.
//!
//! Three independent implementations of atomic-region semantics live in
//! this workspace: the clear-isa [`Vm`](clear_isa::Vm), the full
//! [`Machine`](clear_machine::Machine), and the static analyzer in
//! [`clear_analysis`]. This crate cross-checks them at scale:
//!
//! - [`gen`] emits seeded, random-but-lint-clean AR programs (weighted
//!   instruction mixes, bounded loops, pointer chases up to the ALT
//!   depth);
//! - [`exec`] is the sequential reference executor over the VM;
//! - [`oracle`] runs each program through the machine in *legs* — a
//!   CLEAR solo leg, then a plain and a static-plan leg per built-in
//!   speculation backend ([`check_case`]) — and applies one check battery
//!   to every leg: memory image against the serial VM replay, commit/abort
//!   accounting, the paper's single-retry bound, capacity-abort
//!   accounting and plan-guard trips, plus static-verdict soundness over
//!   CLEAR's plain trace;
//! - [`shrink`](mod@shrink) reduces failing cases to minimal reproducers;
//! - [`litmus`] pins the classic relaxed-memory shapes (SB, LB, MP, IRIW)
//!   to their atomic outcomes — the harness's `litmus-backends` gate.
//!
//! Everything is a pure function of `(master_seed, index)`: corpus files
//! persist only those two numbers, and reports are byte-reproducible
//! across runs and worker counts.

#![warn(missing_docs)]

pub mod exec;
pub mod gen;
pub mod litmus;
pub mod oracle;
pub mod shrink;
pub mod workload;

pub use exec::{run_invocation, RefOutcome};
pub use gen::{case_seed, FuzzCase, Shape};
pub use litmus::{
    cases as litmus_cases, wide_cases as litmus_wide_cases, LitmusCase, LitmusWorkload,
};
pub use oracle::{check_case, BackendOutcome, CaseReport, Divergence};
pub use shrink::{shrink_with, Shrunk};
pub use workload::{initial_image, FuzzWorkload, Layout, SharedSlot};
