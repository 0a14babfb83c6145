//! `stack` — a shared array LIFO \[20\]: push/pop at a single top index.
//! Top is loaded inside the AR (indirection); pop branches on it (empty
//! check).

use crate::common::{Size, ThreadRngs};
use clear_isa::{
    ArId, ArInvocation, ArSpec, Cond, Mutability, Program, ProgramBuilder, Reg, Workload,
    WorkloadMeta,
};
use clear_mem::{Addr, Memory};
use std::sync::Arc;

const AR_PUSH: ArId = ArId(0);
const AR_POP: ArId = ArId(1);

/// Push program: `slot[top] = value; top += 1`.
///
/// Entry registers: `r0 = &top`, `r1 = slots base`, `r2 = value`.
fn push_program() -> Program {
    let mut p = ProgramBuilder::new();
    p.ld(Reg(3), Reg(0), 0)
        .alui(clear_isa::AluOp::Shl, Reg(4), Reg(3), 3)
        .add(Reg(4), Reg(4), Reg(1))
        .st(Reg(4), 0, Reg(2))
        .addi(Reg(3), Reg(3), 1)
        .st(Reg(0), 0, Reg(3))
        .xend();
    p.build()
}

/// Pop program: `if top != 0 { top -= 1; acc += slot[top] }`.
///
/// Entry registers: `r0 = &top`, `r1 = slots base`, `r2 = &accumulator`,
/// `r3 = 0` (zero comparand).
fn pop_program() -> Program {
    let mut p = ProgramBuilder::new();
    let empty = p.label();
    p.ld(Reg(4), Reg(0), 0)
        .branch(Cond::Eq, Reg(4), Reg(3), empty)
        .subi(Reg(4), Reg(4), 1)
        .alui(clear_isa::AluOp::Shl, Reg(5), Reg(4), 3)
        .add(Reg(5), Reg(5), Reg(1))
        .ld(Reg(6), Reg(5), 0)
        .st(Reg(0), 0, Reg(4))
        .ld(Reg(7), Reg(2), 0)
        .add(Reg(7), Reg(7), Reg(6))
        .st(Reg(2), 0, Reg(7))
        .bind(empty)
        .xend();
    p.build()
}

/// The shared-stack benchmark with the push/pop conservation invariant.
#[derive(Debug)]
pub struct Stack {
    size: Size,
    rngs: ThreadRngs,
    top: Addr,
    slots: Addr,
    accs: Vec<Addr>,
    remaining: Vec<u32>,
    pushed_sum: u64,
    initial_elems: u64,
    push: Arc<Program>,
    pop: Arc<Program>,
}

impl Stack {
    /// Creates the benchmark.
    pub fn new(size: Size, seed: u64) -> Self {
        Stack {
            size,
            rngs: ThreadRngs::new(seed),
            top: Addr::NULL,
            slots: Addr::NULL,
            accs: vec![],
            remaining: vec![],
            pushed_sum: 0,
            initial_elems: 8,
            push: Arc::new(push_program()),
            pop: Arc::new(pop_program()),
        }
    }
}

impl Workload for Stack {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "stack".into(),
            ars: vec![
                ArSpec {
                    id: AR_PUSH,
                    name: "push".into(),
                    mutability: Mutability::LikelyImmutable,
                },
                ArSpec {
                    id: AR_POP,
                    name: "pop".into(),
                    mutability: Mutability::Mutable,
                },
            ],
        }
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        let capacity = self.initial_elems + threads as u64 * self.size.ops_per_thread() as u64 + 1;
        self.top = mem.alloc_words(1);
        self.slots = mem.alloc_words(capacity);
        self.accs = (0..threads).map(|_| mem.alloc_words(1)).collect();
        for i in 0..self.initial_elems {
            mem.store_word(self.slots.add_words(i), 2000 + i);
            self.pushed_sum = self.pushed_sum.wrapping_add(2000 + i);
        }
        mem.store_word(self.top, self.initial_elems);
        self.remaining = vec![self.size.ops_per_thread(); threads];
        self.rngs.init(threads);
    }

    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining[tid] == 0 {
            return None;
        }
        self.remaining[tid] -= 1;
        let rng = self.rngs.get(tid);
        let is_push = rng.gen_bool(0.5);
        let value = rng.gen_range(1..1_000u64);
        let think = rng.gen_range(10..40);
        if is_push {
            self.pushed_sum = self.pushed_sum.wrapping_add(value);
            Some(ArInvocation {
                ar: AR_PUSH,
                program: Arc::clone(&self.push),
                args: vec![
                    (Reg(0), self.top.0),
                    (Reg(1), self.slots.0),
                    (Reg(2), value),
                ],
                think_cycles: think,
            })
        } else {
            Some(ArInvocation {
                ar: AR_POP,
                program: Arc::clone(&self.pop),
                args: vec![
                    (Reg(0), self.top.0),
                    (Reg(1), self.slots.0),
                    (Reg(2), self.accs[tid].0),
                    (Reg(3), 0),
                ],
                think_cycles: think,
            })
        }
    }

    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let top = mem.load_word(self.top);
        let live: u64 = (0..top)
            .map(|i| mem.load_word(self.slots.add_words(i)))
            .fold(0u64, u64::wrapping_add);
        let consumed: u64 = self
            .accs
            .iter()
            .map(|&a| mem.load_word(a))
            .fold(0u64, u64::wrapping_add);
        let got = live.wrapping_add(consumed);
        if got == self.pushed_sum {
            Ok(())
        } else {
            Err(format!(
                "stack conservation broken: live+consumed {got} != pushed {}",
                self.pushed_sum
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_classification() {
        let m = Stack::new(Size::Tiny, 1).meta();
        assert_eq!(m.ars.len(), 2);
        assert_eq!(m.ars[0].mutability, Mutability::LikelyImmutable);
        assert_eq!(m.ars[1].mutability, Mutability::Mutable);
    }

    #[test]
    fn initial_state_validates() {
        let mut w = Stack::new(Size::Tiny, 1);
        let mut mem = Memory::new();
        w.setup(&mut mem, 2);
        assert!(w.validate(&mem).is_ok());
    }

    #[test]
    fn manual_pop_conserves() {
        let mut w = Stack::new(Size::Tiny, 1);
        let mut mem = Memory::new();
        w.setup(&mut mem, 1);
        let top = mem.load_word(w.top);
        let v = mem.load_word(w.slots.add_words(top - 1));
        mem.store_word(w.top, top - 1);
        mem.store_word(w.accs[0], v);
        assert!(w.validate(&mem).is_ok());
        mem.store_word(w.accs[0], v + 1);
        assert!(w.validate(&mem).is_err());
    }
}
