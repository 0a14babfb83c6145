//! `mwobject` — four additions to four different words in the *same*
//! cacheline \[12, 13\]: the highest-contention immutable AR in the suite
//! and the flagship NS-CL case (Fig. 12).

use crate::common::{Size, ThreadRngs};
use clear_isa::{
    ArId, ArInvocation, ArSpec, Mutability, Program, ProgramBuilder, Reg, Workload, WorkloadMeta,
};
use clear_mem::{Addr, Memory};
use std::sync::Arc;

const AR_UPDATE: ArId = ArId(0);

/// The multi-word-object benchmark: every thread atomically increments the
/// four words of one shared object that fits in a single cacheline.
#[derive(Debug)]
pub struct MwObject {
    size: Size,
    rngs: ThreadRngs,
    object: Addr,
    remaining: Vec<u32>,
    issued: u64,
    program: Arc<Program>,
}

impl MwObject {
    /// Creates the benchmark.
    pub fn new(size: Size, seed: u64) -> Self {
        let mut p = ProgramBuilder::new();
        for i in 0..4i64 {
            p.ld(Reg(1), Reg(0), i * 8)
                .addi(Reg(1), Reg(1), 1)
                .st(Reg(0), i * 8, Reg(1));
        }
        p.xend();
        MwObject {
            size,
            rngs: ThreadRngs::new(seed),
            object: Addr::NULL,
            remaining: vec![],
            issued: 0,
            program: Arc::new(p.build()),
        }
    }
}

impl Workload for MwObject {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "mwobject".into(),
            ars: vec![ArSpec {
                id: AR_UPDATE,
                name: "add4".into(),
                mutability: Mutability::Immutable,
            }],
        }
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.object = mem.alloc_line();
        self.remaining = vec![self.size.ops_per_thread(); threads];
        self.rngs.init(threads);
    }

    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining[tid] == 0 {
            return None;
        }
        self.remaining[tid] -= 1;
        self.issued += 1;
        let think = self.rngs.get(tid).gen_range(5..25);
        Some(ArInvocation {
            ar: AR_UPDATE,
            program: Arc::clone(&self.program),
            args: vec![(Reg(0), self.object.0)],
            think_cycles: think,
        })
    }

    fn validate(&self, mem: &Memory) -> Result<(), String> {
        for i in 0..4 {
            let v = mem.load_word(self.object.add_words(i));
            if v != self.issued {
                return Err(format!(
                    "word {i} is {v}, expected {} (lost or torn update)",
                    self.issued
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_immutable_ar() {
        let m = MwObject::new(Size::Tiny, 1).meta();
        assert_eq!(m.ars.len(), 1);
        assert_eq!(m.ars[0].mutability, Mutability::Immutable);
    }

    #[test]
    fn object_fits_one_line() {
        let mut w = MwObject::new(Size::Tiny, 1);
        let mut mem = Memory::new();
        w.setup(&mut mem, 1);
        assert_eq!(w.object.line(), w.object.add_words(3).line());
    }

    #[test]
    fn validate_counts_issued_updates() {
        let mut w = MwObject::new(Size::Tiny, 1);
        let mut mem = Memory::new();
        w.setup(&mut mem, 1);
        let inv = w.next_ar(0, &mem).unwrap();
        assert_eq!(inv.args[0].1, w.object.0);
        // Apply the update by hand.
        for i in 0..4 {
            let a = w.object.add_words(i);
            let v = mem.load_word(a);
            mem.store_word(a, v + 1);
        }
        assert!(w.validate(&mem).is_ok());
        // A lost word fails.
        mem.store_word(w.object, 0);
        assert!(w.validate(&mem).is_err());
    }
}
