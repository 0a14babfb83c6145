//! The workload interface: how benchmarks feed atomic regions to the machine.

use crate::{Program, Reg};
use clear_mem::Memory;
use std::fmt;
use std::sync::Arc;

/// Static identity of an atomic region.
///
/// Plays the role of the *Program Counter* field of the paper's Explored
/// Region Table: two invocations of the same source-level AR share the id,
/// so what discovery learned about one execution can steer the next.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArId(pub u32);

impl fmt::Display for ArId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AR{}", self.0)
    }
}

/// Static footprint-mutability class of an AR (Table 1 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mutability {
    /// The AR always accesses the same cachelines on a retry: addresses are
    /// computed outside the AR, no indirections inside (Listing 1).
    Immutable,
    /// Addresses are computed through indirections whose values are not
    /// modified by concurrent ARs (Listing 2).
    LikelyImmutable,
    /// The indirection values can change between executions, so the
    /// footprint can change on a retry (Listing 3).
    Mutable,
}

impl fmt::Display for Mutability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Mutability::Immutable => "immutable",
            Mutability::LikelyImmutable => "likely-immutable",
            Mutability::Mutable => "mutable",
        };
        f.write_str(s)
    }
}

/// Static description of one AR of a workload, used by the Table 1 harness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArSpec {
    /// Identity shared by all invocations of this AR.
    pub id: ArId,
    /// Human-readable name (e.g. `"swap"`, `"enqueue"`).
    pub name: String,
    /// Static mutability class per the paper's §3 criteria.
    pub mutability: Mutability,
}

/// Static description of a workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadMeta {
    /// Benchmark name as it appears in the paper's figures.
    pub name: String,
    /// The ARs the workload executes at least once (Table 1, column 2).
    pub ars: Vec<ArSpec>,
}

/// One dynamic invocation of an atomic region.
///
/// It carries no footprint: a line set known before execution is the
/// static analyzer's plan for the AR, resolved against
/// [`ArInvocation::args`] (`clear-core`'s `StaticPlan`).
#[derive(Clone, Debug)]
pub struct ArInvocation {
    /// Static AR identity (ERT key).
    pub ar: ArId,
    /// The AR body. Shared so retries re-run the identical program.
    pub program: Arc<Program>,
    /// Entry register values, computed *outside* the AR (indirection-free).
    pub args: Vec<(Reg, u64)>,
    /// Non-AR cycles the thread spends before entering this AR (models the
    /// code between atomic regions).
    pub think_cycles: u64,
}

/// A benchmark: lays out simulated memory and streams AR invocations to each
/// simulated thread.
///
/// Implementations must be deterministic for a fixed construction seed: the
/// machine drives threads in a reproducible order and expects identical runs
/// for identical seeds.
pub trait Workload {
    /// Static description (name + AR classification).
    fn meta(&self) -> WorkloadMeta;

    /// Lays out the benchmark's data structures in simulated memory.
    /// Called exactly once before any [`Workload::next_ar`].
    fn setup(&mut self, mem: &mut Memory, threads: usize);

    /// Produces the next AR for simulated thread `tid`, or `None` when the
    /// thread has finished its share of work.
    ///
    /// `mem` exposes committed memory state; implementations may read it to
    /// parameterise the next operation (like the non-transactional code
    /// between ARs in the original benchmarks) but must not write it.
    fn next_ar(&mut self, tid: usize, mem: &Memory) -> Option<ArInvocation>;

    /// Post-run invariant check over final committed memory, used by
    /// integration tests to verify that atomicity was actually preserved.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let _ = mem;
        Ok(())
    }
}

impl fmt::Debug for dyn Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Workload({})", self.meta().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutability_display() {
        assert_eq!(Mutability::Immutable.to_string(), "immutable");
        assert_eq!(Mutability::LikelyImmutable.to_string(), "likely-immutable");
        assert_eq!(Mutability::Mutable.to_string(), "mutable");
    }

    #[test]
    fn ar_id_display() {
        assert_eq!(ArId(3).to_string(), "AR3");
    }

    #[test]
    fn default_validate_accepts() {
        struct W;
        impl Workload for W {
            fn meta(&self) -> WorkloadMeta {
                WorkloadMeta {
                    name: "w".into(),
                    ars: vec![],
                }
            }
            fn setup(&mut self, _: &mut Memory, _: usize) {}
            fn next_ar(&mut self, _: usize, _: &Memory) -> Option<ArInvocation> {
                None
            }
        }
        assert!(W.validate(&Memory::new()).is_ok());
    }
}
