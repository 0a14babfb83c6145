//! `hashmap` — a chained hash table \[8, 18\]: insert traverses the bucket
//! chain to append, lookup and update traverse comparing keys. All three
//! ARs chase `node->next` pointers — **mutable** per Table 1.

use crate::common::{Size, ThreadRngs};
use clear_isa::{
    ArId, ArInvocation, ArSpec, Cond, Mutability, Program, ProgramBuilder, Reg, Workload,
    WorkloadMeta,
};
use clear_mem::{Addr, Memory};
use std::sync::Arc;

const AR_INSERT: ArId = ArId(0);
const AR_LOOKUP: ArId = ArId(1);
const AR_UPDATE: ArId = ArId(2);

/// Node layout: `[key, next]` in the first line; the mutable value lives in
/// the node's second cacheline so updates do not false-share with chain
/// traversals (padded-node C idiom).
const KEY_OFF: i64 = 0;
const NEXT_OFF: i64 = 8;
const VAL_OFF: i64 = 64;

/// Insert program: initialise the node and append it at the end of its
/// bucket chain. Entry: `r0 = &bucket head`, `r1 = node`, `r2 = key`,
/// `r5 = 0`.
fn insert_program() -> Program {
    let mut p = ProgramBuilder::new();
    let lp = p.label();
    let append = p.label();
    let set_head = p.label();
    let end = p.label();
    p.st(Reg(1), KEY_OFF, Reg(2))
        .st(Reg(1), VAL_OFF, Reg(5))
        .st(Reg(1), NEXT_OFF, Reg(5))
        .ld(Reg(4), Reg(0), 0) // cur = head
        .branch(Cond::Eq, Reg(4), Reg(5), set_head)
        .bind(lp)
        .ld(Reg(6), Reg(4), NEXT_OFF)
        .branch(Cond::Eq, Reg(6), Reg(5), append)
        .mv(Reg(4), Reg(6))
        .jmp(lp)
        .bind(append)
        .st(Reg(4), NEXT_OFF, Reg(1))
        .jmp(end)
        .bind(set_head)
        .st(Reg(0), 0, Reg(1))
        .bind(end)
        .xend();
    p.build()
}

/// Lookup program: count key hits into a private accumulator. Entry:
/// `r0 = &bucket head`, `r1 = key`, `r2 = &acc`, `r5 = 0`.
fn lookup_program() -> Program {
    let mut p = ProgramBuilder::new();
    let lp = p.label();
    let next = p.label();
    let done = p.label();
    p.ld(Reg(4), Reg(0), 0)
        .bind(lp)
        .branch(Cond::Eq, Reg(4), Reg(5), done)
        .ld(Reg(6), Reg(4), KEY_OFF)
        .branch(Cond::Ne, Reg(6), Reg(1), next)
        .ld(Reg(7), Reg(2), 0)
        .addi(Reg(7), Reg(7), 1)
        .st(Reg(2), 0, Reg(7))
        .bind(next)
        .ld(Reg(4), Reg(4), NEXT_OFF)
        .jmp(lp)
        .bind(done)
        .xend();
    p.build()
}

/// Update program: find the key and increment its value. Entry:
/// `r0 = &bucket head`, `r1 = key`, `r5 = 0`.
fn update_program() -> Program {
    let mut p = ProgramBuilder::new();
    let lp = p.label();
    let next = p.label();
    let done = p.label();
    p.ld(Reg(4), Reg(0), 0)
        .bind(lp)
        .branch(Cond::Eq, Reg(4), Reg(5), done)
        .ld(Reg(6), Reg(4), KEY_OFF)
        .branch(Cond::Ne, Reg(6), Reg(1), next)
        .ld(Reg(7), Reg(4), VAL_OFF)
        .addi(Reg(7), Reg(7), 1)
        .st(Reg(4), VAL_OFF, Reg(7))
        .jmp(done)
        .bind(next)
        .ld(Reg(4), Reg(4), NEXT_OFF)
        .jmp(lp)
        .bind(done)
        .xend();
    p.build()
}

/// The chained-hash-table benchmark. Keys are unique per insertion
/// (`tid * 1e6 + n`); lookups and updates target keys the same thread
/// already inserted, so every probe is a guaranteed hit — which makes
/// `Σ accumulators == committed lookups` and `Σ values == committed
/// updates` exact invariants.
#[derive(Debug)]
pub struct HashMapBench {
    size: Size,
    rngs: ThreadRngs,
    buckets: Addr,
    n_buckets: usize,
    pool: Vec<Addr>,
    next_node: usize,
    accs: Vec<Addr>,
    remaining: Vec<u32>,
    inserted_keys: Vec<Vec<u64>>,
    lookups: u64,
    updates: u64,
    insert: Arc<Program>,
    lookup: Arc<Program>,
    update: Arc<Program>,
}

impl HashMapBench {
    /// Creates the benchmark.
    pub fn new(size: Size, seed: u64) -> Self {
        HashMapBench {
            size,
            rngs: ThreadRngs::new(seed),
            buckets: Addr::NULL,
            n_buckets: 8 * size.scale(),
            pool: vec![],
            next_node: 0,
            accs: vec![],
            remaining: vec![],
            inserted_keys: vec![],
            lookups: 0,
            updates: 0,
            insert: Arc::new(insert_program()),
            lookup: Arc::new(lookup_program()),
            update: Arc::new(update_program()),
        }
    }

    fn bucket_addr(&self, key: u64) -> Addr {
        self.buckets.add_words(key % self.n_buckets as u64)
    }

    fn key_for(&self, tid: usize, n: usize) -> u64 {
        tid as u64 * 1_000_000 + n as u64
    }
}

impl Workload for HashMapBench {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "hashmap".into(),
            ars: vec![
                ArSpec {
                    id: AR_INSERT,
                    name: "insert".into(),
                    mutability: Mutability::Mutable,
                },
                ArSpec {
                    id: AR_LOOKUP,
                    name: "lookup".into(),
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
        self.buckets = mem.alloc_words(self.n_buckets as u64);
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
        let think = rng.gen_range(15..50);
        if dice < 0.4 || !have_keys {
            let n = self.inserted_keys[tid].len();
            let key = self.key_for(tid, n);
            let node = self.pool[self.next_node];
            self.next_node += 1;
            self.inserted_keys[tid].push(key);
            Some(ArInvocation {
                ar: AR_INSERT,
                program: Arc::clone(&self.insert),
                args: vec![
                    (Reg(0), self.bucket_addr(key).0),
                    (Reg(1), node.0),
                    (Reg(2), key),
                    (Reg(5), 0),
                ],
                think_cycles: think,
            })
        } else {
            let idx = rng.gen_range(0..self.inserted_keys[tid].len());
            let key = self.inserted_keys[tid][idx];
            if dice < 0.75 {
                self.lookups += 1;
                Some(ArInvocation {
                    ar: AR_LOOKUP,
                    program: Arc::clone(&self.lookup),
                    args: vec![
                        (Reg(0), self.bucket_addr(key).0),
                        (Reg(1), key),
                        (Reg(2), self.accs[tid].0),
                        (Reg(5), 0),
                    ],
                    think_cycles: think,
                })
            } else {
                self.updates += 1;
                Some(ArInvocation {
                    ar: AR_UPDATE,
                    program: Arc::clone(&self.update),
                    args: vec![
                        (Reg(0), self.bucket_addr(key).0),
                        (Reg(1), key),
                        (Reg(5), 0),
                    ],
                    think_cycles: think,
                })
            }
        }
    }

    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let mut nodes = 0usize;
        let mut value_sum = 0u64;
        for b in 0..self.n_buckets {
            let mut cur = mem.load_word(self.buckets.add_words(b as u64));
            let mut steps = 0;
            while cur != 0 {
                let key = mem.load_word(Addr(cur + KEY_OFF as u64));
                if key % self.n_buckets as u64 != b as u64 {
                    return Err(format!("key {key} in wrong bucket {b}"));
                }
                value_sum += mem.load_word(Addr(cur + VAL_OFF as u64));
                cur = mem.load_word(Addr(cur + NEXT_OFF as u64));
                nodes += 1;
                steps += 1;
                if steps > self.pool.len() + 1 {
                    return Err(format!("cycle in bucket {b}"));
                }
            }
        }
        let want_nodes: usize = self.inserted_keys.iter().map(Vec::len).sum();
        if nodes != want_nodes {
            return Err(format!("{nodes} nodes reachable, expected {want_nodes}"));
        }
        if value_sum != self.updates {
            return Err(format!(
                "Σvalues {value_sum} != committed updates {}",
                self.updates
            ));
        }
        let acc_sum: u64 = self.accs.iter().map(|&a| mem.load_word(a)).sum();
        if acc_sum != self.lookups {
            return Err(format!(
                "Σaccs {acc_sum} != committed lookups {}",
                self.lookups
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_mutable_ars() {
        let m = HashMapBench::new(Size::Tiny, 1).meta();
        assert_eq!(m.ars.len(), 3);
        assert!(m.ars.iter().all(|a| a.mutability == Mutability::Mutable));
    }

    #[test]
    fn empty_table_validates() {
        let mut w = HashMapBench::new(Size::Tiny, 1);
        let mut mem = Memory::new();
        w.setup(&mut mem, 2);
        assert!(w.validate(&mem).is_ok());
    }

    #[test]
    fn manual_insert_is_reachable() {
        let mut w = HashMapBench::new(Size::Tiny, 1);
        let mut mem = Memory::new();
        w.setup(&mut mem, 1);
        let inv = w.next_ar(0, &mem).unwrap();
        assert_eq!(inv.ar, AR_INSERT);
        let (bucket, node, key) = (inv.args[0].1, inv.args[1].1, inv.args[2].1);
        // Apply the insert by hand (empty bucket case).
        mem.store_word(Addr(node), key);
        mem.store_word(Addr(node + NEXT_OFF as u64), 0);
        mem.store_word(Addr(node + VAL_OFF as u64), 0);
        mem.store_word(Addr(bucket), node);
        assert!(w.validate(&mem).is_ok());
    }

    #[test]
    fn first_op_is_always_insert() {
        for seed in 0..5 {
            let mut w = HashMapBench::new(Size::Tiny, seed);
            let mut mem = Memory::new();
            w.setup(&mut mem, 1);
            assert_eq!(w.next_ar(0, &mem).unwrap().ar, AR_INSERT);
        }
    }

    #[test]
    fn keys_are_thread_unique() {
        let w = HashMapBench::new(Size::Tiny, 1);
        assert_ne!(w.key_for(0, 5), w.key_for(1, 5));
        assert_ne!(w.key_for(0, 5), w.key_for(0, 6));
    }
}
