//! Build your own atomic-region workload against the public API.
//!
//! This example implements a tiny bank: N accounts, each AR transfers
//! between two accounts chosen outside the AR (an *immutable* footprint, so
//! CLEAR converts retries to NS-CL), and checks the conservation invariant
//! at the end.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use clear_isa::{
    ArId, ArInvocation, ArSpec, Mutability, Program, ProgramBuilder, Reg, Workload, WorkloadMeta,
};
use clear_machine::{Machine, Preset};
use clear_mem::rng::Xoshiro256PlusPlus;
use clear_mem::{Addr, Memory, LINE_BYTES, WORD_BYTES};
use std::sync::Arc;

struct Bank {
    accounts: usize,
    base: Addr,
    remaining: Vec<u32>,
    rngs: Vec<Xoshiro256PlusPlus>,
    program: Arc<Program>,
}

impl Bank {
    fn new(accounts: usize) -> Self {
        // r0 = &from, r1 = &to, r2 = amount
        let mut p = ProgramBuilder::new();
        p.ld(Reg(3), Reg(0), 0)
            .alu(clear_isa::AluOp::Sub, Reg(3), Reg(3), Reg(2))
            .st(Reg(0), 0, Reg(3))
            .ld(Reg(4), Reg(1), 0)
            .add(Reg(4), Reg(4), Reg(2))
            .st(Reg(1), 0, Reg(4))
            .xend();
        Bank {
            accounts,
            base: Addr::NULL,
            remaining: vec![],
            rngs: vec![],
            program: Arc::new(p.build()),
        }
    }

    fn account(&self, i: usize) -> Addr {
        Addr(self.base.0 + i as u64 * LINE_BYTES)
    }
}

impl Workload for Bank {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "bank".into(),
            ars: vec![ArSpec {
                id: ArId(0),
                name: "transfer".into(),
                mutability: Mutability::Immutable,
            }],
        }
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.base = mem.alloc_words(self.accounts as u64 * (LINE_BYTES / WORD_BYTES));
        for i in 0..self.accounts {
            mem.store_word(self.account(i), 10_000);
        }
        self.remaining = vec![150; threads];
        self.rngs = (0..threads)
            .map(|t| Xoshiro256PlusPlus::seed_from_u64(0xBA2C + t as u64))
            .collect();
    }

    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining[tid] == 0 {
            return None;
        }
        self.remaining[tid] -= 1;
        let n = self.accounts;
        let (from, to, amount, think) = {
            let rng = &mut self.rngs[tid];
            let from = rng.gen_range(0..n);
            let to = (from + rng.gen_range(1..n)) % n;
            (from, to, rng.gen_range(1..100), rng.gen_range(10..30))
        };
        Some(ArInvocation {
            ar: ArId(0),
            program: Arc::clone(&self.program),
            args: vec![
                (Reg(0), self.account(from).0),
                (Reg(1), self.account(to).0),
                (Reg(2), amount),
            ],
            think_cycles: think,
        })
    }

    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let total: u64 = (0..self.accounts)
            .map(|i| mem.load_word(self.account(i)))
            .sum();
        let want = 10_000 * self.accounts as u64;
        (total == want)
            .then_some(())
            .ok_or_else(|| format!("money not conserved: {total} != {want}"))
    }
}

fn main() {
    for preset in Preset::ALL {
        let mut config = preset.config(16, 5);
        config.seed = 7;
        let mut machine = Machine::new(config, Box::new(Bank::new(12)));
        let stats = machine.run();
        machine
            .workload()
            .validate(machine.memory())
            .expect("conservation");
        println!(
            "{}: {:>9} cycles, {:>6} commits ({} NS-CL, {} S-CL, {} fallback), {:.2} aborts/commit",
            preset.letter(),
            stats.total_cycles,
            stats.commits(),
            stats.commits_by_mode.nscl,
            stats.commits_by_mode.scl,
            stats.commits_by_mode.fallback,
            stats.aborts_per_commit()
        );
    }
    println!("\nall four configurations conserved the total balance");
}
