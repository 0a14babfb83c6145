//! `sorted-list` — a singly-linked sorted list \[20\]. The traversal ARs
//! are the paper's Listing 3: addresses come from `curr->next`
//! indirections whose values change as the list mutates — **mutable** ARs.
//! A third AR bumps a statistics counter at a fixed address (immutable),
//! matching Table 1's 1/0/2 split.

use crate::common::{Size, ThreadRngs};
use clear_isa::{
    ArId, ArInvocation, ArSpec, Cond, Mutability, Program, ProgramBuilder, Reg, Workload,
    WorkloadMeta,
};
use clear_mem::{Addr, Memory};
use std::sync::Arc;

const AR_INSERT: ArId = ArId(0);
const AR_COUNT: ArId = ArId(1);
const AR_BUMP: ArId = ArId(2);

/// Node layout: `[value, next]`, one node per cacheline.
const VALUE_OFF: i64 = 0;
const NEXT_OFF: i64 = 8;

/// Insert program. Entry: `r0 = head sentinel`, `r1 = new node`,
/// `r2 = value`, `r5 = 0`.
fn insert_program() -> Program {
    let mut p = ProgramBuilder::new();
    let (lp, place) = {
        let lp = p.label();
        let place = p.label();
        (lp, place)
    };
    p.mv(Reg(3), Reg(0)) // prev = head
        .ld(Reg(4), Reg(3), NEXT_OFF) // cur = prev.next
        .bind(lp)
        .branch(Cond::Eq, Reg(4), Reg(5), place) // cur == null
        .ld(Reg(6), Reg(4), VALUE_OFF)
        .branch(Cond::Ge, Reg(6), Reg(2), place) // cur.value >= v
        .mv(Reg(3), Reg(4)) // prev = cur
        .ld(Reg(4), Reg(3), NEXT_OFF)
        .jmp(lp)
        .bind(place)
        .st(Reg(1), VALUE_OFF, Reg(2)) // node.value = v
        .st(Reg(1), NEXT_OFF, Reg(4)) // node.next = cur
        .st(Reg(3), NEXT_OFF, Reg(1)) // prev.next = node
        .xend();
    p.build()
}

/// Count-occurrences program (Listing 3), exploiting sortedness to stop at
/// the first value greater than the target. Entry: `r0 = head sentinel`,
/// `r1 = value`, `r5 = 0`.
fn count_program() -> Program {
    let mut p = ProgramBuilder::new();
    let lp = p.label();
    let skip = p.label();
    let done = p.label();
    p.ld(Reg(4), Reg(0), NEXT_OFF) // cur = head.next
        .li(Reg(3), 0)
        .bind(lp)
        .branch(Cond::Eq, Reg(4), Reg(5), done)
        .ld(Reg(6), Reg(4), VALUE_OFF)
        .branch(Cond::Lt, Reg(1), Reg(6), done) // cur.value > target: stop
        .branch(Cond::Ne, Reg(6), Reg(1), skip)
        .addi(Reg(3), Reg(3), 1)
        .bind(skip)
        .ld(Reg(4), Reg(4), NEXT_OFF)
        .jmp(lp)
        .bind(done)
        .xend();
    p.build()
}

/// Statistics-bump program (immutable): `*counter += 1`. Entry:
/// `r0 = &counter`.
fn bump_program() -> Program {
    let mut p = ProgramBuilder::new();
    p.ld(Reg(1), Reg(0), 0)
        .addi(Reg(1), Reg(1), 1)
        .st(Reg(0), 0, Reg(1))
        .xend();
    p.build()
}

/// The sorted-list benchmark with structural validation: the final list is
/// sorted, contains exactly the committed inserts, and the statistics
/// counter matches the committed bumps.
#[derive(Debug)]
pub struct SortedList {
    size: Size,
    rngs: ThreadRngs,
    head: Addr,
    counter: Addr,
    pool: Vec<Addr>,
    next_node: usize,
    remaining: Vec<u32>,
    inserted: Vec<u64>,
    bumps: u64,
    insert: Arc<Program>,
    count: Arc<Program>,
    bump: Arc<Program>,
}

impl SortedList {
    /// Creates the benchmark.
    pub fn new(size: Size, seed: u64) -> Self {
        SortedList {
            size,
            rngs: ThreadRngs::new(seed),
            head: Addr::NULL,
            counter: Addr::NULL,
            pool: vec![],
            next_node: 0,
            remaining: vec![],
            inserted: vec![],
            bumps: 0,
            insert: Arc::new(insert_program()),
            count: Arc::new(count_program()),
            bump: Arc::new(bump_program()),
        }
    }

    fn walk(&self, mem: &Memory) -> Vec<u64> {
        let mut vals = Vec::new();
        let mut cur = mem.load_word(Addr(self.head.0 + NEXT_OFF as u64));
        while cur != 0 {
            vals.push(mem.load_word(Addr(cur)));
            cur = mem.load_word(Addr(cur + NEXT_OFF as u64));
            assert!(vals.len() < 1_000_000, "cycle in list");
        }
        vals
    }
}

impl Workload for SortedList {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "sorted-list".into(),
            ars: vec![
                ArSpec {
                    id: AR_INSERT,
                    name: "insert".into(),
                    mutability: Mutability::Mutable,
                },
                ArSpec {
                    id: AR_COUNT,
                    name: "count".into(),
                    mutability: Mutability::Mutable,
                },
                ArSpec {
                    id: AR_BUMP,
                    name: "bump".into(),
                    mutability: Mutability::Immutable,
                },
            ],
        }
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.head = mem.alloc_words(2);
        self.counter = mem.alloc_words(1);
        let max_inserts = threads * self.size.ops_per_thread() as usize;
        self.pool = (0..max_inserts).map(|_| mem.alloc_words(2)).collect();
        // A few initial elements keep early traversals non-trivial.
        for v in [100u64, 300, 500, 700] {
            let node = mem.alloc_words(2);
            let mut prev = self.head;
            let mut cur = mem.load_word(Addr(prev.0 + NEXT_OFF as u64));
            while cur != 0 && mem.load_word(Addr(cur)) < v {
                prev = Addr(cur);
                cur = mem.load_word(Addr(cur + NEXT_OFF as u64));
            }
            mem.store_word(node, v);
            mem.store_word(Addr(node.0 + NEXT_OFF as u64), cur);
            mem.store_word(Addr(prev.0 + NEXT_OFF as u64), node.0);
            self.inserted.push(v);
        }
        self.remaining = vec![self.size.ops_per_thread(); threads];
        self.rngs.init(threads);
    }

    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining[tid] == 0 {
            return None;
        }
        self.remaining[tid] -= 1;
        let rng = self.rngs.get(tid);
        let dice = rng.gen_f64();
        let value = rng.gen_range(1..1_000u64);
        let think = rng.gen_range(15..50);
        if dice < 0.15 {
            let node = self.pool[self.next_node];
            self.next_node += 1;
            self.inserted.push(value);
            Some(ArInvocation {
                ar: AR_INSERT,
                program: Arc::clone(&self.insert),
                args: vec![
                    (Reg(0), self.head.0),
                    (Reg(1), node.0),
                    (Reg(2), value),
                    (Reg(5), 0),
                ],
                think_cycles: think,
            })
        } else if dice < 0.55 {
            Some(ArInvocation {
                ar: AR_COUNT,
                program: Arc::clone(&self.count),
                args: vec![(Reg(0), self.head.0), (Reg(1), value), (Reg(5), 0)],
                think_cycles: think,
            })
        } else {
            self.bumps += 1;
            Some(ArInvocation {
                ar: AR_BUMP,
                program: Arc::clone(&self.bump),
                args: vec![(Reg(0), self.counter.0)],
                think_cycles: think,
            })
        }
    }

    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let vals = self.walk(mem);
        if !vals.windows(2).all(|w| w[0] <= w[1]) {
            return Err("list not sorted".into());
        }
        let mut want = self.inserted.clone();
        want.sort_unstable();
        if vals != want {
            return Err(format!(
                "list contents wrong: {} nodes, expected {}",
                vals.len(),
                want.len()
            ));
        }
        let bumps = mem.load_word(self.counter);
        if bumps != self.bumps {
            return Err(format!("counter {bumps} != committed bumps {}", self.bumps));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_classification() {
        let m = SortedList::new(Size::Tiny, 1).meta();
        let count = |mu| m.ars.iter().filter(|a| a.mutability == mu).count();
        assert_eq!(count(Mutability::Immutable), 1);
        assert_eq!(count(Mutability::Mutable), 2);
    }

    #[test]
    fn initial_list_is_sorted_and_validates() {
        let mut w = SortedList::new(Size::Tiny, 1);
        let mut mem = Memory::new();
        w.setup(&mut mem, 1);
        assert_eq!(w.walk(&mem), vec![100, 300, 500, 700]);
        assert!(w.validate(&mem).is_ok());
    }

    #[test]
    fn validate_catches_unsorted_list() {
        let mut w = SortedList::new(Size::Tiny, 1);
        let mut mem = Memory::new();
        w.setup(&mut mem, 1);
        // Corrupt the first node's value above its successor.
        let first = mem.load_word(Addr(w.head.0 + NEXT_OFF as u64));
        mem.store_word(Addr(first), 9999);
        assert!(w.validate(&mem).is_err());
    }

    #[test]
    fn insert_args_use_fresh_pool_nodes() {
        let mut w = SortedList::new(Size::Tiny, 3);
        let mut mem = Memory::new();
        w.setup(&mut mem, 1);
        let mut nodes = std::collections::HashSet::new();
        while let Some(inv) = w.next_ar(0, &mem) {
            if inv.ar == AR_INSERT {
                assert!(nodes.insert(inv.args[1].1), "node reused");
            }
        }
    }
}
