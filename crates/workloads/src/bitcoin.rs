//! `bitcoin` — the paper's Listing 2: transfer between two wallets reached
//! through an indirection (`users` pointer loaded inside the AR). One
//! **likely-immutable** AR: the indirection value never changes, but the
//! hardware cannot prove it.

use crate::common::{Size, ThreadRngs};
use clear_isa::{
    ArId, ArInvocation, ArSpec, Mutability, Program, ProgramBuilder, Reg, Workload, WorkloadMeta,
};
use clear_mem::{Addr, Memory, LINE_BYTES, WORD_BYTES};
use std::sync::Arc;

const AR_TRANSFER: ArId = ArId(0);

/// Emulates wallet-to-wallet transfers over the bitcoin network dataset
/// \[23\]: `users[from].bitcoins -= amount; users[to].bitcoins += amount;`.
///
/// The wallet table base pointer is stored in memory and loaded *inside*
/// the AR, so both wallet addresses carry the indirection bit even though
/// the pointer is never modified — the canonical likely-immutable AR.
#[derive(Debug)]
pub struct Bitcoin {
    size: Size,
    rngs: ThreadRngs,
    /// Memory slot holding the wallet-table base pointer.
    users_slot: Addr,
    wallets: usize,
    remaining: Vec<u32>,
    program: Arc<Program>,
    initial_balance: u64,
}

impl Bitcoin {
    /// Creates the benchmark.
    pub fn new(size: Size, seed: u64) -> Self {
        // r0 = &users_slot, r1 = from*64, r2 = to*64, r3 = amount
        let mut p = ProgramBuilder::new();
        p.ld(Reg(4), Reg(0), 0) // users base (indirection)
            .add(Reg(5), Reg(4), Reg(1)) // &users[from]
            .add(Reg(6), Reg(4), Reg(2)) // &users[to]
            .ld(Reg(7), Reg(5), 0)
            .alu(clear_isa::AluOp::Sub, Reg(7), Reg(7), Reg(3))
            .st(Reg(5), 0, Reg(7))
            .ld(Reg(8), Reg(6), 0)
            .add(Reg(8), Reg(8), Reg(3))
            .st(Reg(6), 0, Reg(8))
            .xend();
        Bitcoin {
            size,
            rngs: ThreadRngs::new(seed),
            users_slot: Addr::NULL,
            wallets: 24 * size.scale(),
            remaining: vec![],
            program: Arc::new(p.build()),
            initial_balance: 1_000_000,
        }
    }

    fn wallet(&self, mem: &Memory, i: usize) -> Addr {
        let base = mem.load_word(self.users_slot);
        Addr(base + (i as u64) * LINE_BYTES)
    }
}

impl Workload for Bitcoin {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "bitcoin".into(),
            ars: vec![ArSpec {
                id: AR_TRANSFER,
                name: "transfer".into(),
                mutability: Mutability::LikelyImmutable,
            }],
        }
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.users_slot = mem.alloc_words(1);
        let table = mem.alloc_words(self.wallets as u64 * (LINE_BYTES / WORD_BYTES));
        mem.store_word(self.users_slot, table.0);
        for i in 0..self.wallets {
            mem.store_word(
                Addr(table.0 + (i as u64) * LINE_BYTES),
                self.initial_balance,
            );
        }
        self.remaining = vec![self.size.ops_per_thread(); threads];
        self.rngs.init(threads);
    }

    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining[tid] == 0 {
            return None;
        }
        self.remaining[tid] -= 1;
        let wallets = self.wallets;
        let rng = self.rngs.get(tid);
        let from = rng.gen_range(0..wallets);
        let mut to = rng.gen_range(0..wallets);
        if to == from {
            to = (to + 1) % wallets;
        }
        let amount = rng.gen_range(1..100u64);
        let think = rng.gen_range(15..50);
        Some(ArInvocation {
            ar: AR_TRANSFER,
            program: Arc::clone(&self.program),
            args: vec![
                (Reg(0), self.users_slot.0),
                (Reg(1), from as u64 * LINE_BYTES),
                (Reg(2), to as u64 * LINE_BYTES),
                (Reg(3), amount),
            ],
            think_cycles: think,
        })
    }

    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let total: u64 = (0..self.wallets)
            .map(|i| mem.load_word(self.wallet(mem, i)))
            .fold(0u64, u64::wrapping_add);
        let want = self.initial_balance.wrapping_mul(self.wallets as u64);
        if total == want {
            Ok(())
        } else {
            Err(format!("bitcoins not conserved: {total} != {want}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_likely_immutable_ar() {
        let m = Bitcoin::new(Size::Tiny, 1).meta();
        assert_eq!(m.ars.len(), 1);
        assert_eq!(m.ars[0].mutability, Mutability::LikelyImmutable);
    }

    #[test]
    fn transfer_conserves_when_applied_atomically() {
        let mut w = Bitcoin::new(Size::Tiny, 2);
        let mut mem = Memory::new();
        w.setup(&mut mem, 1);
        assert!(w.validate(&mem).is_ok());
        // Apply a transfer by hand.
        let a = w.wallet(&mem, 0);
        let b = w.wallet(&mem, 1);
        mem.store_word(a, mem.load_word(a) - 50);
        mem.store_word(b, mem.load_word(b) + 50);
        assert!(w.validate(&mem).is_ok());
        // A half-applied transfer is caught.
        mem.store_word(a, mem.load_word(a) - 10);
        assert!(w.validate(&mem).is_err());
    }

    #[test]
    fn from_and_to_differ() {
        let mut w = Bitcoin::new(Size::Tiny, 9);
        let mut mem = Memory::new();
        w.setup(&mut mem, 1);
        for _ in 0..Size::Tiny.ops_per_thread() {
            let inv = w.next_ar(0, &mem).unwrap();
            assert_ne!(inv.args[1].1, inv.args[2].1);
        }
    }
}
