//! `queue` — a shared array FIFO \[20, 33\]: enqueue at the tail, dequeue
//! at the head. Slot addresses are computed from indices *loaded inside*
//! the AR, so both ARs carry indirections; dequeue additionally branches on
//! loaded data (empty check).

use crate::common::{Size, ThreadRngs};
use clear_isa::{
    ArId, ArInvocation, ArSpec, Cond, Mutability, Program, ProgramBuilder, Reg, Workload,
    WorkloadMeta,
};
use clear_mem::{Addr, Memory};
use std::sync::Arc;

const AR_ENQ: ArId = ArId(0);
const AR_DEQ: ArId = ArId(1);

/// Builds the enqueue program:
/// `slot[tail] = value; tail += 1` with `tail` loaded inside the AR.
///
/// Entry registers: `r0 = &tail`, `r1 = slots base`, `r2 = value`.
pub(crate) fn enqueue_program() -> Program {
    let mut p = ProgramBuilder::new();
    p.ld(Reg(3), Reg(0), 0) // tail
        .alui(clear_isa::AluOp::Shl, Reg(4), Reg(3), 3)
        .add(Reg(4), Reg(4), Reg(1)) // &slot[tail]
        .st(Reg(4), 0, Reg(2))
        .addi(Reg(3), Reg(3), 1)
        .st(Reg(0), 0, Reg(3))
        .xend();
    p.build()
}

/// Builds the dequeue program:
/// `if head != tail { v = slot[head]; head += 1; acc += v }`.
///
/// Entry registers: `r0 = &head`, `r1 = &tail`, `r2 = slots base`,
/// `r3 = &accumulator` (thread private).
pub(crate) fn dequeue_program() -> Program {
    let mut p = ProgramBuilder::new();
    let empty = p.label();
    p.ld(Reg(4), Reg(0), 0) // head
        .ld(Reg(5), Reg(1), 0) // tail
        .branch(Cond::Eq, Reg(4), Reg(5), empty)
        .alui(clear_isa::AluOp::Shl, Reg(6), Reg(4), 3)
        .add(Reg(6), Reg(6), Reg(2)) // &slot[head]
        .ld(Reg(7), Reg(6), 0) // value
        .addi(Reg(4), Reg(4), 1)
        .st(Reg(0), 0, Reg(4))
        .ld(Reg(8), Reg(3), 0)
        .add(Reg(8), Reg(8), Reg(7))
        .st(Reg(3), 0, Reg(8)) // acc += value
        .bind(empty)
        .xend();
    p.build()
}

/// The shared-queue benchmark with a conservation invariant: every value
/// ever enqueued is either still in the live region or accumulated by some
/// dequeuer.
#[derive(Debug)]
pub struct Queue {
    size: Size,
    rngs: ThreadRngs,
    head: Addr,
    tail: Addr,
    slots: Addr,
    accs: Vec<Addr>,
    remaining: Vec<u32>,
    enqueued_sum: u64,
    initial_elems: u64,
    enq: Arc<Program>,
    deq: Arc<Program>,
}

impl Queue {
    /// Creates the benchmark.
    pub fn new(size: Size, seed: u64) -> Self {
        Queue {
            size,
            rngs: ThreadRngs::new(seed),
            head: Addr::NULL,
            tail: Addr::NULL,
            slots: Addr::NULL,
            accs: vec![],
            remaining: vec![],
            enqueued_sum: 0,
            initial_elems: 8,
            enq: Arc::new(enqueue_program()),
            deq: Arc::new(dequeue_program()),
        }
    }
}

impl Workload for Queue {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "queue".into(),
            ars: vec![
                ArSpec {
                    id: AR_ENQ,
                    name: "enqueue".into(),
                    mutability: Mutability::LikelyImmutable,
                },
                ArSpec {
                    id: AR_DEQ,
                    name: "dequeue".into(),
                    mutability: Mutability::Mutable,
                },
            ],
        }
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        let capacity = self.initial_elems + threads as u64 * self.size.ops_per_thread() as u64 + 1;
        self.head = mem.alloc_words(1);
        self.tail = mem.alloc_words(1);
        self.slots = mem.alloc_words(capacity);
        self.accs = (0..threads).map(|_| mem.alloc_words(1)).collect();
        for i in 0..self.initial_elems {
            mem.store_word(self.slots.add_words(i), 1000 + i);
            self.enqueued_sum = self.enqueued_sum.wrapping_add(1000 + i);
        }
        mem.store_word(self.tail, self.initial_elems);
        self.remaining = vec![self.size.ops_per_thread(); threads];
        self.rngs.init(threads);
    }

    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining[tid] == 0 {
            return None;
        }
        self.remaining[tid] -= 1;
        let rng = self.rngs.get(tid);
        let is_enq = rng.gen_bool(0.5);
        let value = rng.gen_range(1..1_000u64);
        let think = rng.gen_range(10..40);
        if is_enq {
            self.enqueued_sum = self.enqueued_sum.wrapping_add(value);
            Some(ArInvocation {
                ar: AR_ENQ,
                program: Arc::clone(&self.enq),
                args: vec![
                    (Reg(0), self.tail.0),
                    (Reg(1), self.slots.0),
                    (Reg(2), value),
                ],
                think_cycles: think,
            })
        } else {
            Some(ArInvocation {
                ar: AR_DEQ,
                program: Arc::clone(&self.deq),
                args: vec![
                    (Reg(0), self.head.0),
                    (Reg(1), self.tail.0),
                    (Reg(2), self.slots.0),
                    (Reg(3), self.accs[tid].0),
                ],
                think_cycles: think,
            })
        }
    }

    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let head = mem.load_word(self.head);
        let tail = mem.load_word(self.tail);
        if head > tail {
            return Err(format!("queue indices crossed: head {head} > tail {tail}"));
        }
        let live: u64 = (head..tail)
            .map(|i| mem.load_word(self.slots.add_words(i)))
            .fold(0u64, u64::wrapping_add);
        let consumed: u64 = self
            .accs
            .iter()
            .map(|&a| mem.load_word(a))
            .fold(0u64, u64::wrapping_add);
        let got = live.wrapping_add(consumed);
        if got == self.enqueued_sum {
            Ok(())
        } else {
            Err(format!(
                "queue conservation broken: live+consumed {got} != enqueued {}",
                self.enqueued_sum
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_classification() {
        let m = Queue::new(Size::Tiny, 1).meta();
        assert_eq!(m.ars[0].mutability, Mutability::LikelyImmutable);
        assert_eq!(m.ars[1].mutability, Mutability::Mutable);
    }

    #[test]
    fn initial_state_validates() {
        let mut w = Queue::new(Size::Tiny, 1);
        let mut mem = Memory::new();
        w.setup(&mut mem, 2);
        assert!(w.validate(&mem).is_ok());
        assert_eq!(mem.load_word(w.head), 0);
        assert_eq!(mem.load_word(w.tail), w.initial_elems);
    }

    #[test]
    fn manual_enqueue_dequeue_round_trip() {
        let mut w = Queue::new(Size::Tiny, 1);
        let mut mem = Memory::new();
        w.setup(&mut mem, 1);
        // Dequeue one element by hand into acc 0.
        let head = mem.load_word(w.head);
        let v = mem.load_word(w.slots.add_words(head));
        mem.store_word(w.head, head + 1);
        mem.store_word(w.accs[0], v);
        assert!(w.validate(&mem).is_ok());
        // Losing the value breaks conservation.
        mem.store_word(w.accs[0], 0);
        assert!(w.validate(&mem).is_err());
    }

    #[test]
    fn enqueue_tracking_updates_expected_sum() {
        let mut w = Queue::new(Size::Tiny, 5);
        let mut mem = Memory::new();
        w.setup(&mut mem, 1);
        let before = w.enqueued_sum;
        let mut saw_enq = false;
        while let Some(inv) = w.next_ar(0, &mem) {
            if inv.ar == AR_ENQ {
                saw_enq = true;
            }
        }
        assert!(saw_enq);
        assert!(w.enqueued_sum > before);
    }
}
