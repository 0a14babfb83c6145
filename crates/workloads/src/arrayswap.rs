//! `arrayswap` — the paper's Listing 1: swap two array elements whose
//! addresses are computed outside the AR. Both ARs are **immutable**.

use crate::common::{Size, ThreadRngs};
use clear_isa::{
    ArId, ArInvocation, ArSpec, Mutability, Program, ProgramBuilder, Reg, Workload, WorkloadMeta,
};
use clear_mem::{Addr, Memory, LINE_BYTES, WORD_BYTES};
use std::sync::Arc;

const AR_SWAP: ArId = ArId(0);
const AR_SUM: ArId = ArId(1);

/// The `arrayswap` microbenchmark \[15\].
///
/// An array of line-spaced `u64` slots; each operation picks two random
/// slots outside the AR and either swaps them or reads both. Initialised
/// with `slot[i] = i`, so the multiset of values — and hence the sum — is
/// conserved by every committed swap.
#[derive(Debug)]
pub struct ArraySwap {
    size: Size,
    rngs: ThreadRngs,
    base: Addr,
    slots: usize,
    remaining: Vec<u32>,
    swap: Arc<Program>,
    sum: Arc<Program>,
}

impl ArraySwap {
    /// Creates the benchmark.
    pub fn new(size: Size, seed: u64) -> Self {
        // atomic { ea = *a; eb = *b; *a = eb; *b = ea; }
        let mut p = ProgramBuilder::new();
        p.ld(Reg(2), Reg(0), 0)
            .ld(Reg(3), Reg(1), 0)
            .st(Reg(0), 0, Reg(3))
            .st(Reg(1), 0, Reg(2))
            .xend();
        let swap = Arc::new(p.build());

        // atomic { s = *a + *b; } (result discarded)
        let mut p = ProgramBuilder::new();
        p.ld(Reg(2), Reg(0), 0)
            .ld(Reg(3), Reg(1), 0)
            .add(Reg(4), Reg(2), Reg(3))
            .xend();
        let sum = Arc::new(p.build());

        ArraySwap {
            size,
            rngs: ThreadRngs::new(seed),
            base: Addr::NULL,
            slots: 16 * size.scale(),
            remaining: vec![],
            swap,
            sum,
        }
    }

    fn slot(&self, i: usize) -> Addr {
        Addr(self.base.0 + (i as u64) * LINE_BYTES)
    }

    /// Sum of all slots (for the conservation invariant).
    fn total(&self, mem: &Memory) -> u64 {
        (0..self.slots)
            .map(|i| mem.load_word(self.slot(i)))
            .fold(0u64, u64::wrapping_add)
    }

    fn expected_total(&self) -> u64 {
        (0..self.slots as u64).fold(0u64, u64::wrapping_add)
    }
}

impl Workload for ArraySwap {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "arrayswap".into(),
            ars: vec![
                ArSpec {
                    id: AR_SWAP,
                    name: "swap".into(),
                    mutability: Mutability::Immutable,
                },
                ArSpec {
                    id: AR_SUM,
                    name: "sum".into(),
                    mutability: Mutability::Immutable,
                },
            ],
        }
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.base = mem.alloc_words(self.slots as u64 * (LINE_BYTES / WORD_BYTES));
        for i in 0..self.slots {
            mem.store_word(self.slot(i), i as u64);
        }
        self.remaining = vec![self.size.ops_per_thread(); threads];
        self.rngs.init(threads);
    }

    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining[tid] == 0 {
            return None;
        }
        self.remaining[tid] -= 1;
        let slots = self.slots;
        let rng = self.rngs.get(tid);
        let a = rng.gen_range(0..slots);
        let mut b = rng.gen_range(0..slots);
        if b == a {
            b = (b + 1) % slots;
        }
        let is_swap = rng.gen_ratio(3, 4);
        let think = rng.gen_range(10..40);
        let (ar, program) = if is_swap {
            (AR_SWAP, Arc::clone(&self.swap))
        } else {
            (AR_SUM, Arc::clone(&self.sum))
        };
        Some(ArInvocation {
            ar,
            program,
            args: vec![(Reg(0), self.slot(a).0), (Reg(1), self.slot(b).0)],
            think_cycles: think,
        })
    }

    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let got = self.total(mem);
        let want = self.expected_total();
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "arrayswap sum {got} != initial sum {want}: swaps were torn"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_immutable_ars() {
        let w = ArraySwap::new(Size::Tiny, 1);
        let m = w.meta();
        assert_eq!(m.ars.len(), 2);
        assert!(m.ars.iter().all(|a| a.mutability == Mutability::Immutable));
    }

    #[test]
    fn setup_initialises_identity_values() {
        let mut w = ArraySwap::new(Size::Tiny, 1);
        let mut mem = Memory::new();
        w.setup(&mut mem, 2);
        assert_eq!(mem.load_word(w.slot(0)), 0);
        assert_eq!(mem.load_word(w.slot(5)), 5);
        assert!(w.validate(&mem).is_ok());
    }

    #[test]
    fn next_ar_exhausts_after_ops() {
        let mut w = ArraySwap::new(Size::Tiny, 3);
        let mut mem = Memory::new();
        w.setup(&mut mem, 1);
        let mut n = 0;
        while w.next_ar(0, &mem).is_some() {
            n += 1;
        }
        assert_eq!(n, Size::Tiny.ops_per_thread());
    }

    #[test]
    fn args_are_distinct_line_aligned_slots() {
        let mut w = ArraySwap::new(Size::Tiny, 3);
        let mut mem = Memory::new();
        w.setup(&mut mem, 1);
        let inv = w.next_ar(0, &mem).unwrap();
        let a = Addr(inv.args[0].1);
        let b = Addr(inv.args[1].1);
        assert_ne!(a.line(), b.line());
        assert_eq!(a.offset_in_line(), 0);
    }

    #[test]
    fn validate_detects_torn_swap() {
        let mut w = ArraySwap::new(Size::Tiny, 1);
        let mut mem = Memory::new();
        w.setup(&mut mem, 1);
        // Simulate a lost update: duplicate a value.
        let v = mem.load_word(w.slot(1));
        mem.store_word(w.slot(0), v);
        assert!(w.validate(&mem).is_err());
    }
}
