//! Classic litmus shapes (SB, LB, MP, IRIW) as machine-level atomicity
//! conformance checks.
//!
//! Each litmus thread wraps its whole observable program in one atomic
//! region, so outcomes that weak memory models famously permit must be
//! **impossible** here: ARs serialize, and every relaxed outcome requires
//! interleaving inside a region. The forbidden predicate of each case is
//! exactly that relaxed outcome; observing it even once means atomicity
//! broke. The harness's `litmus-backends` experiment runs every case
//! across every backend id and a seed sweep and pins the forbidden counts
//! to zero in a golden file.

use crate::workload::SharedSlot;
use clear_isa::{
    ArId, ArInvocation, ArSpec, Mutability, Program, ProgramBuilder, Reg, Workload, WorkloadMeta,
};
use clear_mem::rng::SplitMix64;
use clear_mem::{Addr, Memory, WORD_BYTES};
use std::sync::Arc;

/// Entry register holding this thread's first variable address.
const R_VAR0: Reg = Reg(0);
/// Entry register holding this thread's second variable address.
const R_VAR1: Reg = Reg(1);
/// Entry register holding this thread's private result-line address.
const R_RES: Reg = Reg(2);
/// Scratch: the constant one.
const R_ONE: Reg = Reg(8);
/// Scratch: first loaded value.
const R_L0: Reg = Reg(9);
/// Scratch: second loaded value.
const R_L1: Reg = Reg(10);

/// The two shared variables every litmus shape is written over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Var {
    /// The first shared line (`data` in MP).
    X,
    /// The second shared line (`flag` in MP).
    Y,
}

/// One litmus thread: an AR program plus the variable-to-register binding
/// it runs under (`vars.0` lands in register 0, `vars.1` in register 1).
#[derive(Clone, Debug)]
pub struct LitmusThread {
    /// The thread's single atomic region.
    pub program: Arc<Program>,
    /// Which shared variable each address register carries.
    pub vars: (Var, Var),
}

/// One litmus case.
#[derive(Clone, Debug)]
pub struct LitmusCase {
    /// Short canonical name (`"SB"`, `"LB"`, `"MP"`, `"IRIW"`).
    pub name: &'static str,
    /// One-line description of the forbidden outcome.
    pub about: &'static str,
    /// The participating threads.
    pub threads: Vec<LitmusThread>,
    /// Words each thread's result line contributes to the outcome.
    pub result_words: usize,
    /// `true` when an outcome (per-thread result vectors) is forbidden
    /// under AR atomicity.
    pub forbidden: fn(&[Vec<u64>]) -> bool,
}

impl LitmusCase {
    /// Renders an outcome as a stable histogram label, e.g. `t0=[1] t1=[0]`.
    pub fn label(&self, outcome: &[Vec<u64>]) -> String {
        outcome
            .iter()
            .enumerate()
            .map(|(t, words)| {
                let inner = words
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(",");
                format!("t{t}=[{inner}]")
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Store-buffering thread: `var0 <- 1; r <- var1; result[0] <- r`.
fn sb_thread(vars: (Var, Var)) -> LitmusThread {
    let mut b = ProgramBuilder::new();
    b.li(R_ONE, 1)
        .st(R_VAR0, 0, R_ONE)
        .ld(R_L0, R_VAR1, 0)
        .st(R_RES, 0, R_L0)
        .xend();
    LitmusThread {
        program: Arc::new(b.build()),
        vars,
    }
}

/// Load-buffering thread: `r <- var1; var0 <- 1; result[0] <- r`.
fn lb_thread(vars: (Var, Var)) -> LitmusThread {
    let mut b = ProgramBuilder::new();
    b.ld(R_L0, R_VAR1, 0)
        .li(R_ONE, 1)
        .st(R_VAR0, 0, R_ONE)
        .st(R_RES, 0, R_L0)
        .xend();
    LitmusThread {
        program: Arc::new(b.build()),
        vars,
    }
}

/// Writer thread: `var0 <- 1`.
fn writer_thread(vars: (Var, Var)) -> LitmusThread {
    let mut b = ProgramBuilder::new();
    b.li(R_ONE, 1).st(R_VAR0, 0, R_ONE).xend();
    LitmusThread {
        program: Arc::new(b.build()),
        vars,
    }
}

/// MP producer: `var0(data) <- 1; var1(flag) <- 1`.
fn mp_producer() -> LitmusThread {
    let mut b = ProgramBuilder::new();
    b.li(R_ONE, 1)
        .st(R_VAR0, 0, R_ONE)
        .st(R_VAR1, 0, R_ONE)
        .xend();
    LitmusThread {
        program: Arc::new(b.build()),
        vars: (Var::X, Var::Y),
    }
}

/// Reader thread: `result[0] <- var0; result[1] <- var1` (var0 first).
fn reader_thread(vars: (Var, Var)) -> LitmusThread {
    let mut b = ProgramBuilder::new();
    b.ld(R_L0, R_VAR0, 0)
        .ld(R_L1, R_VAR1, 0)
        .st(R_RES, 0, R_L0)
        .st(R_RES, WORD_BYTES as i64, R_L1)
        .xend();
    LitmusThread {
        program: Arc::new(b.build()),
        vars,
    }
}

/// The catalogue, in canonical order.
pub fn cases() -> Vec<LitmusCase> {
    vec![
        LitmusCase {
            name: "SB",
            about: "store buffering: both threads reading 0 is forbidden",
            threads: vec![sb_thread((Var::X, Var::Y)), sb_thread((Var::Y, Var::X))],
            result_words: 1,
            forbidden: |r| r[0][0] == 0 && r[1][0] == 0,
        },
        LitmusCase {
            name: "LB",
            about: "load buffering: both threads reading 1 is forbidden",
            threads: vec![lb_thread((Var::X, Var::Y)), lb_thread((Var::Y, Var::X))],
            result_words: 1,
            forbidden: |r| r[0][0] == 1 && r[1][0] == 1,
        },
        LitmusCase {
            name: "MP",
            about: "message passing: flag=1 with data=0 is forbidden",
            threads: vec![mp_producer(), reader_thread((Var::Y, Var::X))],
            result_words: 2,
            // Reader loads flag (var0=Y) into word 0, data (var1=X) into 1.
            forbidden: |r| r[1][0] == 1 && r[1][1] == 0,
        },
        LitmusCase {
            name: "IRIW",
            about: "independent readers seeing the writes in opposite orders is forbidden",
            threads: vec![
                writer_thread((Var::X, Var::Y)),
                writer_thread((Var::Y, Var::X)),
                reader_thread((Var::X, Var::Y)),
                reader_thread((Var::Y, Var::X)),
            ],
            result_words: 2,
            // Reader t2 saw x=1,y=0; reader t3 saw y=1,x=0: the readers
            // disagree on the write order.
            forbidden: |r| r[2] == [1, 0] && r[3] == [1, 0],
        },
    ]
}

/// Reader count of the wide IRIW variant: 126 readers plus the two
/// writers give a 128-thread case, past the inline width of every
/// per-core bitset and across many directory shards.
pub const IRIW_WIDE_READERS: usize = 126;

/// Wide litmus variants exercising the many-core machine. Kept out of
/// [`cases`] so the golden-gated `litmus-backends` corpus and its
/// baseline stay byte-identical; the harness and unit tests run these
/// directly at 128 simulated cores.
///
/// `IRIW-wide` scales IRIW to [`IRIW_WIDE_READERS`] readers: threads 0
/// and 1 write `x` and `y`, then readers alternate observation order —
/// even reader indices load `(x, y)`, odd ones `(y, x)`. Any even reader
/// seeing `x=1,y=0` while any odd reader sees `y=1,x=0` means two
/// readers disagreed on the write order, which AR atomicity forbids.
pub fn wide_cases() -> Vec<LitmusCase> {
    let mut threads = vec![
        writer_thread((Var::X, Var::Y)),
        writer_thread((Var::Y, Var::X)),
    ];
    for r in 0..IRIW_WIDE_READERS {
        threads.push(if r % 2 == 0 {
            reader_thread((Var::X, Var::Y))
        } else {
            reader_thread((Var::Y, Var::X))
        });
    }
    vec![LitmusCase {
        name: "IRIW-wide",
        about: "any two of 126 independent readers disagreeing on the write order is forbidden",
        threads,
        result_words: 2,
        forbidden: |r| {
            let saw_first = |parity: usize| {
                r.iter()
                    .enumerate()
                    .skip(2)
                    .any(|(t, words)| t % 2 == parity && words == &[1, 0])
            };
            saw_first(0) && saw_first(1)
        },
    }]
}

/// Runtime addresses of a litmus run's shared variables and result lines.
#[derive(Clone, Debug)]
pub struct LitmusLayout {
    /// Address of `x`.
    pub x: Addr,
    /// Address of `y`.
    pub y: Addr,
    /// Per-thread result line addresses.
    pub results: Vec<Addr>,
}

/// Drives one [`LitmusCase`]: each thread runs its AR exactly once, with
/// seed-jittered think time so different seeds explore different arrival
/// interleavings.
#[derive(Debug)]
pub struct LitmusWorkload {
    case: Arc<LitmusCase>,
    seed: u64,
    layout: SharedSlot<LitmusLayout>,
    fired: Vec<bool>,
}

impl LitmusWorkload {
    /// Creates the workload for `case` under `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the machine is configured with fewer cores than the case
    /// has threads (extra cores simply idle).
    pub fn new(case: Arc<LitmusCase>, seed: u64) -> LitmusWorkload {
        LitmusWorkload {
            case,
            seed,
            layout: SharedSlot::new(),
            fired: Vec::new(),
        }
    }

    /// Handle to the layout published at `setup` time.
    pub fn layout_handle(&self) -> SharedSlot<LitmusLayout> {
        self.layout.clone()
    }

    /// Reads the per-thread result vectors out of a final memory image.
    pub fn outcome(&self, mem: &Memory) -> Vec<Vec<u64>> {
        outcome_from(&self.case, &self.layout.get().expect("setup ran"), mem)
    }
}

/// Reads a case's per-thread result vectors from a final memory image,
/// given the layout published at setup (callers that box the workload
/// into a machine keep a [`SharedSlot`] handle for this).
pub fn outcome_from(case: &LitmusCase, layout: &LitmusLayout, mem: &Memory) -> Vec<Vec<u64>> {
    layout
        .results
        .iter()
        .map(|&base| {
            (0..case.result_words)
                .map(|w| mem.load_word(base.add_words(w as u64)))
                .collect()
        })
        .collect()
}

impl Workload for LitmusWorkload {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: format!("litmus-{}", self.case.name),
            ars: self
                .case
                .threads
                .iter()
                .enumerate()
                .map(|(t, _)| ArSpec {
                    id: ArId(t as u32),
                    name: format!("t{t}"),
                    // Addresses come straight from entry registers: the
                    // footprint is immutable by construction.
                    mutability: Mutability::Immutable,
                })
                .collect(),
        }
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        assert!(
            threads >= self.case.threads.len(),
            "litmus {} needs {} threads, machine has {threads}",
            self.case.name,
            self.case.threads.len()
        );
        let x = mem.alloc_line();
        let y = mem.alloc_line();
        let results = (0..self.case.threads.len())
            .map(|_| mem.alloc_line())
            .collect();
        self.fired = vec![false; threads];
        self.layout.set(LitmusLayout { x, y, results });
    }

    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if tid >= self.case.threads.len() || self.fired[tid] {
            return None;
        }
        self.fired[tid] = true;
        let layout = self.layout.get().expect("setup ran");
        let thread = &self.case.threads[tid];
        let addr = |v: Var| match v {
            Var::X => layout.x.0,
            Var::Y => layout.y.0,
        };
        let mut jitter =
            SplitMix64::new(self.seed ^ (tid as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        Some(ArInvocation {
            ar: ArId(tid as u32),
            program: Arc::clone(&thread.program),
            args: vec![
                (R_VAR0, addr(thread.vars.0)),
                (R_VAR1, addr(thread.vars.1)),
                (R_RES, layout.results[tid].0),
            ],
            think_cycles: jitter.below(60),
        })
    }

    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let outcome = self.outcome(mem);
        if (self.case.forbidden)(&outcome) {
            return Err(format!(
                "litmus {}: forbidden outcome observed: {} ({})",
                self.case.name,
                self.case.label(&outcome),
                self.case.about
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clear_machine::{Machine, Preset};

    fn run(case: LitmusCase, seed: u64) -> (Vec<Vec<u64>>, String) {
        let case = Arc::new(case);
        let threads = case.threads.len();
        let workload = LitmusWorkload::new(Arc::clone(&case), seed);
        let handle = workload.layout_handle();
        let mut cfg = Preset::C.config(threads, 5);
        cfg.seed = seed;
        let mut machine = Machine::new(cfg, Box::new(workload));
        let stats = machine.run();
        assert!(!stats.timed_out);
        assert_eq!(stats.commits_by_mode.total(), threads as u64);
        let layout = handle.get().expect("layout");
        let outcome: Vec<Vec<u64>> = layout
            .results
            .iter()
            .map(|&base| {
                (0..case.result_words)
                    .map(|w| machine.memory().load_word(base.add_words(w as u64)))
                    .collect()
            })
            .collect();
        let label = case.label(&outcome);
        assert!(!(case.forbidden)(&outcome), "{}: {label}", case.name);
        (outcome, label)
    }

    #[test]
    fn all_cases_avoid_forbidden_outcomes_across_seeds() {
        for seed in 1..=8 {
            for case in cases() {
                run(case, seed);
            }
        }
    }

    #[test]
    fn wide_iriw_runs_clean_on_a_128_core_machine() {
        let mut wide = wide_cases();
        assert_eq!(wide.len(), 1);
        let case = wide.pop().unwrap();
        assert_eq!(case.threads.len(), 2 + IRIW_WIDE_READERS);
        let (outcome, _) = run(case, 5);
        // Both writers committed, so every reader saw a final 1 somewhere.
        assert!(outcome
            .iter()
            .skip(2)
            .all(|words| words.contains(&1) || words == &[0, 0]));
    }

    #[test]
    fn wide_iriw_forbidden_predicate_needs_disagreeing_parities() {
        let case = wide_cases().pop().unwrap();
        let mut outcome = vec![vec![0, 0]; 2 + IRIW_WIDE_READERS];
        assert!(!(case.forbidden)(&outcome));
        outcome[2] = vec![1, 0]; // even reader: x before y
        assert!(!(case.forbidden)(&outcome), "one parity alone is allowed");
        outcome[7] = vec![1, 0]; // odd reader: y before x
        assert!((case.forbidden)(&outcome), "disagreeing readers forbidden");
    }

    #[test]
    fn sb_threads_observe_each_other_when_serialized() {
        // Under atomicity at least one SB thread reads the other's store.
        let (outcome, _) = run(cases().remove(0), 3);
        assert!(outcome[0][0] == 1 || outcome[1][0] == 1);
    }

    #[test]
    fn labels_are_stable() {
        let case = cases().remove(3);
        assert_eq!(case.name, "IRIW");
        let outcome = vec![vec![0, 0], vec![0, 0], vec![1, 0], vec![0, 1]];
        assert_eq!(case.label(&outcome), "t0=[0,0] t1=[0,0] t2=[1,0] t3=[0,1]");
    }

    #[test]
    fn forbidden_predicates_fire_on_the_canonical_relaxed_outcomes() {
        let all = cases();
        assert!((all[0].forbidden)(&[vec![0], vec![0]]));
        assert!(!(all[0].forbidden)(&[vec![0], vec![1]]));
        assert!((all[1].forbidden)(&[vec![1], vec![1]]));
        assert!((all[2].forbidden)(&[vec![0, 0], vec![1, 0]]));
        assert!(!(all[2].forbidden)(&[vec![0, 0], vec![1, 1]]));
        assert!((all[3].forbidden)(&[
            vec![0, 0],
            vec![0, 0],
            vec![1, 0],
            vec![1, 0]
        ]));
    }
}
