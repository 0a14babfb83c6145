//! `bst` — an unbalanced binary search tree \[20, 33\]. All three ARs
//! (insert, contains, update) traverse child pointers loaded inside the
//! AR — **mutable** per Table 1, though while the tree is small S-CL often
//! still succeeds (the paper remarks on exactly this for bst, Fig. 12).

use crate::common::{Size, ThreadRngs};
use clear_isa::{
    ArId, ArInvocation, ArSpec, Cond, Mutability, Program, ProgramBuilder, Reg, Workload,
    WorkloadMeta,
};
use clear_mem::{Addr, Memory};
use std::sync::Arc;

const AR_INSERT: ArId = ArId(0);
const AR_CONTAINS: ArId = ArId(1);
const AR_UPDATE: ArId = ArId(2);

/// Node layout: `[key, left, right]` in the first line; the mutable value
/// lives in the node's *second* cacheline so value updates do not
/// false-share with the traversal pointers (as in padded C implementations).
const KEY_OFF: i64 = 0;
const LEFT_OFF: i64 = 8;
const RIGHT_OFF: i64 = 16;
const VAL_OFF: i64 = 64;

/// Insert program. Entry: `r0 = &root slot`, `r1 = node`, `r2 = key`,
/// `r5 = 0`. Keys are unique, so the equal case never occurs.
fn insert_program() -> Program {
    let mut p = ProgramBuilder::new();
    let lp = p.label();
    let left = p.label();
    let set_root = p.label();
    let set_left = p.label();
    let set_right = p.label();
    let end = p.label();
    p.st(Reg(1), KEY_OFF, Reg(2))
        .st(Reg(1), VAL_OFF, Reg(5))
        .st(Reg(1), LEFT_OFF, Reg(5))
        .st(Reg(1), RIGHT_OFF, Reg(5))
        .ld(Reg(4), Reg(0), 0) // cur = root
        .branch(Cond::Eq, Reg(4), Reg(5), set_root)
        .bind(lp)
        .ld(Reg(6), Reg(4), KEY_OFF)
        .branch(Cond::Lt, Reg(2), Reg(6), left)
        .ld(Reg(7), Reg(4), RIGHT_OFF)
        .branch(Cond::Eq, Reg(7), Reg(5), set_right)
        .mv(Reg(4), Reg(7))
        .jmp(lp)
        .bind(left)
        .ld(Reg(7), Reg(4), LEFT_OFF)
        .branch(Cond::Eq, Reg(7), Reg(5), set_left)
        .mv(Reg(4), Reg(7))
        .jmp(lp)
        .bind(set_root)
        .st(Reg(0), 0, Reg(1))
        .jmp(end)
        .bind(set_left)
        .st(Reg(4), LEFT_OFF, Reg(1))
        .jmp(end)
        .bind(set_right)
        .st(Reg(4), RIGHT_OFF, Reg(1))
        .bind(end)
        .xend();
    p.build()
}

/// Traversal program shared by contains/update. Entry: `r0 = &root slot`,
/// `r1 = key`, `r2 = &acc` (contains) , `r5 = 0`. `bump_value` selects
/// whether a hit increments the node's value (update) or the accumulator
/// (contains).
fn search_program(bump_value: bool) -> Program {
    let mut p = ProgramBuilder::new();
    let lp = p.label();
    let left = p.label();
    let found = p.label();
    let done = p.label();
    p.ld(Reg(4), Reg(0), 0)
        .bind(lp)
        .branch(Cond::Eq, Reg(4), Reg(5), done)
        .ld(Reg(6), Reg(4), KEY_OFF)
        .branch(Cond::Eq, Reg(6), Reg(1), found)
        .branch(Cond::Lt, Reg(1), Reg(6), left)
        .ld(Reg(4), Reg(4), RIGHT_OFF)
        .jmp(lp)
        .bind(left)
        .ld(Reg(4), Reg(4), LEFT_OFF)
        .jmp(lp)
        .bind(found);
    if bump_value {
        p.ld(Reg(7), Reg(4), VAL_OFF)
            .addi(Reg(7), Reg(7), 1)
            .st(Reg(4), VAL_OFF, Reg(7));
    } else {
        p.ld(Reg(7), Reg(2), 0)
            .addi(Reg(7), Reg(7), 1)
            .st(Reg(2), 0, Reg(7));
    }
    p.bind(done).xend();
    p.build()
}

/// The BST benchmark with full structural validation (BST property, node
/// count, hit counters).
#[derive(Debug)]
pub struct Bst {
    size: Size,
    rngs: ThreadRngs,
    root: Addr,
    pool: Vec<Addr>,
    next_node: usize,
    accs: Vec<Addr>,
    remaining: Vec<u32>,
    inserted_keys: Vec<Vec<u64>>,
    lookups: u64,
    updates: u64,
    insert: Arc<Program>,
    contains: Arc<Program>,
    update: Arc<Program>,
}

impl Bst {
    /// Creates the benchmark.
    pub fn new(size: Size, seed: u64) -> Self {
        Bst {
            size,
            rngs: ThreadRngs::new(seed),
            root: Addr::NULL,
            pool: vec![],
            next_node: 0,
            accs: vec![],
            remaining: vec![],
            inserted_keys: vec![],
            lookups: 0,
            updates: 0,
            insert: Arc::new(insert_program()),
            contains: Arc::new(search_program(false)),
            update: Arc::new(search_program(true)),
        }
    }

    /// Unique keys spread pseudo-randomly: mixes tid and index.
    fn key_for(&self, tid: usize, n: usize) -> u64 {
        let x = (tid as u64) << 32 | n as u64;
        // Fibonacci hash keeps the tree reasonably balanced.
        x.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16
    }

    fn check_subtree(
        &self,
        mem: &Memory,
        node: u64,
        lo: u64,
        hi: u64,
        count: &mut usize,
        values: &mut u64,
    ) -> Result<(), String> {
        if node == 0 {
            return Ok(());
        }
        *count += 1;
        if *count > self.pool.len() + 1 {
            return Err("cycle or overcount in tree".into());
        }
        let key = mem.load_word(Addr(node));
        if key < lo || key >= hi {
            return Err(format!("BST property violated at key {key}"));
        }
        *values += mem.load_word(Addr(node + VAL_OFF as u64));
        self.check_subtree(
            mem,
            mem.load_word(Addr(node + LEFT_OFF as u64)),
            lo,
            key,
            count,
            values,
        )?;
        self.check_subtree(
            mem,
            mem.load_word(Addr(node + RIGHT_OFF as u64)),
            key + 1,
            hi,
            count,
            values,
        )
    }
}

impl Workload for Bst {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "bst".into(),
            ars: vec![
                ArSpec {
                    id: AR_INSERT,
                    name: "insert".into(),
                    mutability: Mutability::Mutable,
                },
                ArSpec {
                    id: AR_CONTAINS,
                    name: "contains".into(),
                    mutability: Mutability::Mutable,
                },
                ArSpec {
                    id: AR_UPDATE,
                    name: "update".into(),
                    mutability: Mutability::Mutable,
                },
            ],
        }
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.root = mem.alloc_words(1);
        let max_nodes = threads * self.size.ops_per_thread() as usize;
        self.pool = (0..max_nodes).map(|_| mem.alloc_words(16)).collect();
        self.accs = (0..threads).map(|_| mem.alloc_words(1)).collect();
        self.remaining = vec![self.size.ops_per_thread(); threads];
        self.inserted_keys = vec![vec![]; threads];
        self.rngs.init(threads);
    }

    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining[tid] == 0 {
            return None;
        }
        self.remaining[tid] -= 1;
        let have_keys = !self.inserted_keys[tid].is_empty();
        let rng = self.rngs.get(tid);
        let dice = rng.gen_f64();
        let think = rng.gen_range(5..20);
        if dice < 0.2 || !have_keys {
            let n = self.inserted_keys[tid].len();
            let key = self.key_for(tid, n);
            let node = self.pool[self.next_node];
            self.next_node += 1;
            self.inserted_keys[tid].push(key);
            Some(ArInvocation {
                ar: AR_INSERT,
                program: Arc::clone(&self.insert),
                args: vec![
                    (Reg(0), self.root.0),
                    (Reg(1), node.0),
                    (Reg(2), key),
                    (Reg(5), 0),
                ],
                think_cycles: think,
            })
        } else {
            let idx = rng.gen_range(0..self.inserted_keys[tid].len());
            let key = self.inserted_keys[tid][idx];
            let (ar, program) = if dice < 0.5 {
                self.lookups += 1;
                (AR_CONTAINS, Arc::clone(&self.contains))
            } else {
                self.updates += 1;
                (AR_UPDATE, Arc::clone(&self.update))
            };
            Some(ArInvocation {
                ar,
                program,
                args: vec![
                    (Reg(0), self.root.0),
                    (Reg(1), key),
                    (Reg(2), self.accs[tid].0),
                    (Reg(5), 0),
                ],
                think_cycles: think,
            })
        }
    }

    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let mut count = 0usize;
        let mut values = 0u64;
        self.check_subtree(
            mem,
            mem.load_word(self.root),
            0,
            u64::MAX,
            &mut count,
            &mut values,
        )?;
        let want: usize = self.inserted_keys.iter().map(Vec::len).sum();
        if count != want {
            return Err(format!("{count} nodes in tree, expected {want}"));
        }
        if values != self.updates {
            return Err(format!(
                "Σvalues {values} != committed updates {}",
                self.updates
            ));
        }
        let acc: u64 = self.accs.iter().map(|&a| mem.load_word(a)).sum();
        if acc != self.lookups {
            return Err(format!("Σaccs {acc} != committed lookups {}", self.lookups));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_mutable_ars() {
        let m = Bst::new(Size::Tiny, 1).meta();
        assert_eq!(m.ars.len(), 3);
        assert!(m.ars.iter().all(|a| a.mutability == Mutability::Mutable));
    }

    #[test]
    fn keys_are_unique_across_threads() {
        let w = Bst::new(Size::Tiny, 1);
        let mut seen = std::collections::HashSet::new();
        for t in 0..4 {
            for n in 0..100 {
                assert!(seen.insert(w.key_for(t, n)));
            }
        }
    }

    #[test]
    fn manual_insert_validates() {
        let mut w = Bst::new(Size::Tiny, 1);
        let mut mem = Memory::new();
        w.setup(&mut mem, 1);
        let inv = w.next_ar(0, &mem).unwrap();
        assert_eq!(inv.ar, AR_INSERT);
        let (root, node, key) = (inv.args[0].1, inv.args[1].1, inv.args[2].1);
        mem.store_word(Addr(node), key);
        mem.store_word(Addr(root), node);
        assert!(w.validate(&mem).is_ok());
    }

    #[test]
    fn validate_catches_bst_violation() {
        let mut w = Bst::new(Size::Tiny, 1);
        let mut mem = Memory::new();
        w.setup(&mut mem, 1);
        // Build a two-node tree violating the order: right child smaller.
        let a = w.pool[0];
        let b = w.pool[1];
        mem.store_word(a, 100);
        mem.store_word(Addr(a.0 + RIGHT_OFF as u64), b.0);
        mem.store_word(b, 50); // right child must be > 100
        mem.store_word(w.root, a.0);
        w.inserted_keys[0] = vec![100, 50];
        assert!(w.validate(&mem).is_err());
    }
}
