//! `deque` — work-stealing deques in the style of Chase–Lev \[7, 24, 25\]:
//! each thread pushes work onto the back of its own deque and steals from
//! the front of a random victim's.

use crate::common::{Size, ThreadRngs};
use crate::queue::{dequeue_program, enqueue_program};
use clear_isa::{ArId, ArInvocation, ArSpec, Mutability, Program, Reg, Workload, WorkloadMeta};
use clear_mem::{Addr, Memory};
use std::sync::Arc;

const AR_PUSH: ArId = ArId(0);
const AR_STEAL: ArId = ArId(1);

/// Per-thread deque state laid out in simulated memory.
#[derive(Debug, Clone, Copy)]
struct DequeMem {
    front: Addr,
    back: Addr,
    slots: Addr,
}

/// Work-stealing deque benchmark.
///
/// Reuses the queue substrate: pushing to the back is an enqueue on the
/// owner's deque; stealing is a dequeue from the front of a victim's deque.
/// The conservation invariant spans all deques and all stealers'
/// accumulators.
#[derive(Debug)]
pub struct Deque {
    size: Size,
    rngs: ThreadRngs,
    deques: Vec<DequeMem>,
    accs: Vec<Addr>,
    remaining: Vec<u32>,
    pushed_sum: u64,
    push: Arc<Program>,
    steal: Arc<Program>,
}

impl Deque {
    /// Creates the benchmark.
    pub fn new(size: Size, seed: u64) -> Self {
        Deque {
            size,
            rngs: ThreadRngs::new(seed),
            deques: vec![],
            accs: vec![],
            remaining: vec![],
            pushed_sum: 0,
            push: Arc::new(enqueue_program()),
            steal: Arc::new(dequeue_program()),
        }
    }
}

impl Workload for Deque {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "deque".into(),
            ars: vec![
                ArSpec {
                    id: AR_PUSH,
                    name: "push-back".into(),
                    mutability: Mutability::LikelyImmutable,
                },
                ArSpec {
                    id: AR_STEAL,
                    name: "steal-front".into(),
                    mutability: Mutability::Mutable,
                },
            ],
        }
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        let capacity = self.size.ops_per_thread() as u64 + 2;
        self.deques = (0..threads)
            .map(|_| DequeMem {
                front: mem.alloc_words(1),
                back: mem.alloc_words(1),
                slots: mem.alloc_words(capacity),
            })
            .collect();
        self.accs = (0..threads).map(|_| mem.alloc_words(1)).collect();
        self.remaining = vec![self.size.ops_per_thread(); threads];
        self.rngs.init(threads);
    }

    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining[tid] == 0 {
            return None;
        }
        self.remaining[tid] -= 1;
        let threads = self.deques.len();
        let rng = self.rngs.get(tid);
        let is_push = rng.gen_bool(0.5);
        let value = rng.gen_range(1..1_000u64);
        let victim = rng.gen_range(0..threads);
        let think = rng.gen_range(10..40);
        if is_push {
            self.pushed_sum = self.pushed_sum.wrapping_add(value);
            let d = self.deques[tid];
            Some(ArInvocation {
                ar: AR_PUSH,
                program: Arc::clone(&self.push),
                args: vec![(Reg(0), d.back.0), (Reg(1), d.slots.0), (Reg(2), value)],
                think_cycles: think,
            })
        } else {
            let d = self.deques[victim];
            Some(ArInvocation {
                ar: AR_STEAL,
                program: Arc::clone(&self.steal),
                args: vec![
                    (Reg(0), d.front.0),
                    (Reg(1), d.back.0),
                    (Reg(2), d.slots.0),
                    (Reg(3), self.accs[tid].0),
                ],
                think_cycles: think,
            })
        }
    }

    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let mut total = 0u64;
        for (t, d) in self.deques.iter().enumerate() {
            let front = mem.load_word(d.front);
            let back = mem.load_word(d.back);
            if front > back {
                return Err(format!("deque {t} indices crossed: {front} > {back}"));
            }
            for i in front..back {
                total = total.wrapping_add(mem.load_word(d.slots.add_words(i)));
            }
        }
        for &a in &self.accs {
            total = total.wrapping_add(mem.load_word(a));
        }
        if total == self.pushed_sum {
            Ok(())
        } else {
            Err(format!(
                "deque conservation broken: live+stolen {total} != pushed {}",
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
        let m = Deque::new(Size::Tiny, 1).meta();
        assert_eq!(m.ars.len(), 2);
        assert_eq!(m.ars[0].mutability, Mutability::LikelyImmutable);
        assert_eq!(m.ars[1].mutability, Mutability::Mutable);
    }

    #[test]
    fn per_thread_deques_allocated() {
        let mut w = Deque::new(Size::Tiny, 1);
        let mut mem = Memory::new();
        w.setup(&mut mem, 3);
        assert_eq!(w.deques.len(), 3);
        assert!(w.validate(&mem).is_ok());
    }

    #[test]
    fn steal_targets_any_deque() {
        let mut w = Deque::new(Size::Tiny, 11);
        let mut mem = Memory::new();
        w.setup(&mut mem, 4);
        let mut fronts = std::collections::HashSet::new();
        for tid in 0..4 {
            while let Some(inv) = w.next_ar(tid, &mem) {
                if inv.ar == AR_STEAL {
                    fronts.insert(inv.args[0].1);
                }
            }
        }
        assert!(fronts.len() > 1, "steals should hit multiple victims");
    }
}
