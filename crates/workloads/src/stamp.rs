//! STAMP application models.
//!
//! The STAMP suite \[30\] is tens of thousands of lines of C; porting it
//! verbatim is out of scope (and the paper's evaluation does not depend on
//! its computation, only on its *atomic regions*). Each application is
//! modelled as a set of AR generators whose per-AR footprint size,
//! indirection structure, write ratio, contention and AR count match the
//! paper's Table 1 characterisation and the qualitative behaviour reported
//! in §7 (e.g. labyrinth's footprints overflow the ALT; kmeans' centre
//! updates are small and hot; intruder is large-but-S-CL-able).
//!
//! Three AR shapes cover the Table 1 classes:
//!
//! * [`ArKind::Block`] — *immutable*: unrolled accesses to a contiguous
//!   block whose base is computed outside the AR;
//! * [`ArKind::Indirect`] — *likely-immutable*: the same, but the region
//!   base is loaded from a pointer slot inside the AR (the pointer never
//!   changes);
//! * [`ArKind::Chase`] — *mutable*: a pointer chase through a shared
//!   permutation table, a read-modify-write of a cell selected by the final
//!   index, then an atomic swap of two table entries (which mutates other
//!   chasers' footprints — and makes "the table is still a permutation" a
//!   strong atomicity invariant).

use crate::common::{Size, ThreadRngs};
use clear_isa::{
    AluOp, ArId, ArInvocation, ArSpec, Mutability, Program, ProgramBuilder, Reg, Workload,
    WorkloadMeta,
};
use clear_mem::{Addr, Memory, LINE_BYTES, WORD_BYTES};
use std::sync::Arc;

/// Shape of one modelled atomic region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArKind {
    /// Read `lines` contiguous cachelines; increment the first `writes`.
    /// The block base is an entry argument — no indirection.
    Block {
        /// Cachelines accessed.
        lines: u32,
        /// Of those, lines read-modify-written (+1 each).
        writes: u32,
    },
    /// Like `Block`, but the region base is loaded from a (never-written)
    /// pointer slot inside the AR.
    Indirect {
        /// Cachelines accessed (excluding the pointer slot line).
        lines: u32,
        /// Lines read-modify-written.
        writes: u32,
    },
    /// Chase `steps` hops through the permutation table, increment the
    /// cell indexed by the final hop, then swap two table entries.
    Chase {
        /// Pointer-chase hops (≈ footprint in lines).
        steps: u32,
    },
    /// Read-only chase: `steps` hops, accumulating the visited indices into
    /// a thread-private cell — a lookup whose footprint mutates with the
    /// table but which writes nothing shared.
    ChaseRead {
        /// Pointer-chase hops.
        steps: u32,
    },
}

/// Static description of one modelled AR.
#[derive(Clone, Copy, Debug)]
pub struct ArModel {
    /// Display name.
    pub name: &'static str,
    /// Table 1 class.
    pub mutability: Mutability,
    /// Relative selection weight.
    pub weight: u32,
    /// Shape.
    pub kind: ArKind,
}

/// Per-application parameters.
#[derive(Clone, Debug)]
pub struct StampParams {
    /// Benchmark name as in the figures.
    pub name: &'static str,
    /// The modelled ARs (count and classes match Table 1).
    pub ars: Vec<ArModel>,
    /// Shared data-region size in lines (contention knob: smaller = hotter).
    pub data_lines: u32,
    /// Permutation table size in entries (one line each).
    pub perm_entries: u32,
    /// Inter-AR think time range (models the sequential phase).
    pub think: (u64, u64),
}

fn block_ar(name: &'static str, lines: u32, writes: u32, weight: u32) -> ArModel {
    ArModel {
        name,
        mutability: Mutability::Immutable,
        weight,
        kind: ArKind::Block { lines, writes },
    }
}

fn indirect_ar(name: &'static str, lines: u32, writes: u32, weight: u32) -> ArModel {
    ArModel {
        name,
        mutability: Mutability::LikelyImmutable,
        weight,
        kind: ArKind::Indirect { lines, writes },
    }
}

fn chase_ar(name: &'static str, steps: u32, weight: u32) -> ArModel {
    ArModel {
        name,
        mutability: Mutability::Mutable,
        weight,
        kind: ArKind::Chase { steps },
    }
}

fn chase_read_ar(name: &'static str, steps: u32, weight: u32) -> ArModel {
    ArModel {
        name,
        mutability: Mutability::Mutable,
        weight,
        kind: ArKind::ChaseRead { steps },
    }
}

impl StampParams {
    /// The per-application parameter table.
    pub fn by_name(name: &str) -> Option<StampParams> {
        let p = match name {
            // 14 ARs: 5 likely-immutable, 9 mutable. Large learner ARs;
            // moderate contention.
            "bayes" => StampParams {
                name: "bayes",
                ars: vec![
                    indirect_ar("adtree-q1", 4, 1, 4),
                    indirect_ar("adtree-q2", 6, 2, 4),
                    indirect_ar("score-rd", 3, 0, 6),
                    indirect_ar("score-wr", 4, 2, 3),
                    indirect_ar("task-pop", 2, 1, 6),
                    chase_read_ar("learn-s1", 6, 3),
                    chase_ar("learn-s2", 8, 3),
                    chase_ar("learn-s3", 10, 3),
                    chase_ar("learn-s4", 14, 2),
                    chase_ar("learn-s5", 18, 2),
                    chase_ar("learn-s6", 24, 2),
                    chase_ar("learn-s7", 30, 1),
                    chase_ar("learn-s8", 38, 1),
                    chase_ar("learn-s9", 44, 1),
                ],
                data_lines: 96,
                perm_entries: 96,
                think: (60, 200),
            },
            // 5 mutable ARs: segment/hashtable inserts, medium footprints.
            "genome" => StampParams {
                name: "genome",
                ars: vec![
                    chase_ar("seg-insert", 5, 6),
                    chase_ar("table-ins", 7, 6),
                    chase_read_ar("dedup", 4, 4),
                    chase_read_ar("overlap", 9, 3),
                    chase_ar("build", 12, 2),
                ],
                data_lines: 128,
                perm_entries: 128,
                think: (40, 120),
            },
            // 3 ARs (2 likely, 1 mutable): shared queues, high contention,
            // large-but-lockable footprints (the peak discovery-overhead app).
            "intruder" => StampParams {
                name: "intruder",
                ars: vec![
                    indirect_ar("pkt-deq", 6, 3, 6),
                    indirect_ar("frag-map", 10, 5, 4),
                    chase_ar("detect", 16, 3),
                ],
                data_lines: 24,
                perm_entries: 48,
                think: (15, 45),
            },
            // 3 ARs (1 immutable, 2 likely): tiny centre updates, high
            // contention.
            "kmeans-h" => StampParams {
                name: "kmeans-h",
                ars: vec![
                    block_ar("center-upd", 2, 2, 6),
                    indirect_ar("len-upd", 2, 1, 4),
                    indirect_ar("delta", 1, 1, 3),
                ],
                data_lines: 8,
                perm_entries: 16,
                think: (80, 200),
            },
            // Same shapes, larger centre array: low contention.
            "kmeans-l" => StampParams {
                name: "kmeans-l",
                ars: vec![
                    block_ar("center-upd", 2, 2, 6),
                    indirect_ar("len-upd", 2, 1, 4),
                    indirect_ar("delta", 1, 1, 3),
                ],
                data_lines: 64,
                perm_entries: 64,
                think: (80, 200),
            },
            // 3 mutable ARs with huge footprints: path copies overflow the
            // ALT, so CLEAR cannot convert them (fallback-heavy, §7).
            "labyrinth" => StampParams {
                name: "labyrinth",
                ars: vec![
                    chase_ar("path-s", 36, 2),
                    chase_ar("path-m", 48, 2),
                    chase_ar("path-l", 60, 1),
                ],
                data_lines: 256,
                perm_entries: 128,
                think: (400, 900),
            },
            // 3 ARs (2 immutable, 1 likely): tiny graph updates, large
            // graph, low contention.
            "ssca2" => StampParams {
                name: "ssca2",
                ars: vec![
                    block_ar("edge-add", 1, 1, 6),
                    block_ar("weight", 2, 1, 4),
                    indirect_ar("adj-upd", 2, 1, 3),
                ],
                data_lines: 192,
                perm_entries: 64,
                think: (20, 60),
            },
            // 3 ARs (1 likely, 2 mutable): reservation trees.
            "vacation-h" => StampParams {
                name: "vacation-h",
                ars: vec![
                    indirect_ar("customer", 4, 2, 4),
                    chase_read_ar("reserve", 8, 5),
                    chase_ar("update-tbl", 12, 3),
                ],
                data_lines: 48,
                perm_entries: 64,
                think: (50, 140),
            },
            "vacation-l" => StampParams {
                name: "vacation-l",
                ars: vec![
                    indirect_ar("customer", 4, 2, 4),
                    chase_read_ar("reserve", 8, 5),
                    chase_ar("update-tbl", 12, 3),
                ],
                data_lines: 160,
                perm_entries: 160,
                think: (50, 140),
            },
            // 6 ARs (1 immutable, 5 mutable): mesh cavities of varying size.
            "yada" => StampParams {
                name: "yada",
                ars: vec![
                    block_ar("bound-upd", 2, 1, 3),
                    chase_ar("cavity-1", 8, 4),
                    chase_ar("cavity-2", 14, 3),
                    chase_ar("cavity-3", 22, 2),
                    chase_ar("cavity-4", 34, 2),
                    chase_ar("cavity-5", 46, 1),
                ],
                data_lines: 96,
                perm_entries: 96,
                think: (120, 320),
            },
            _ => return None,
        };
        Some(p)
    }
}

/// Builds the unrolled block program for `lines`/`writes`.
/// Entry: `r0 = block base`.
fn block_program(lines: u32, writes: u32) -> Program {
    let mut p = ProgramBuilder::new();
    for i in 0..lines as i64 {
        let off = i * LINE_BYTES as i64;
        p.ld(Reg(1), Reg(0), off);
        if (i as u32) < writes {
            p.addi(Reg(1), Reg(1), 1).st(Reg(0), off, Reg(1));
        }
    }
    p.compute(lines.max(2)).xend();
    p.build()
}

/// Builds the indirect-block program: load the region pointer, add the
/// host-chosen offset, then run the block. Entry: `r0 = &ptr slot`,
/// `r1 = byte offset`.
fn indirect_program(lines: u32, writes: u32) -> Program {
    let mut p = ProgramBuilder::new();
    p.ld(Reg(2), Reg(0), 0).add(Reg(2), Reg(2), Reg(1));
    for i in 0..lines as i64 {
        let off = i * LINE_BYTES as i64;
        p.ld(Reg(3), Reg(2), off);
        if (i as u32) < writes {
            p.addi(Reg(3), Reg(3), 1).st(Reg(2), off, Reg(3));
        }
    }
    p.compute(lines.max(2)).xend();
    p.build()
}

/// Builds the chase program: `steps` hops through the permutation table
/// (line-spaced entries), a +1 RMW of `cells[final]`, then an atomic swap
/// of two table entries. Entry: `r0 = perm base`, `r1 = start index`,
/// `r2 = cells base`, `r3 = &perm[i]`, `r4 = &perm[j]`.
fn chase_program(steps: u32) -> Program {
    let mut p = ProgramBuilder::new();
    p.mv(Reg(6), Reg(1));
    for _ in 0..steps {
        // idx = perm[idx]; entries are line-spaced: addr = base + idx*64.
        p.alui(AluOp::Shl, Reg(7), Reg(6), 6)
            .add(Reg(7), Reg(7), Reg(0))
            .ld(Reg(6), Reg(7), 0);
    }
    // cells[idx] += 1 (cells are line-spaced too).
    p.alui(AluOp::Shl, Reg(7), Reg(6), 6)
        .add(Reg(7), Reg(7), Reg(2))
        .ld(Reg(8), Reg(7), 0)
        .addi(Reg(8), Reg(8), 1)
        .st(Reg(7), 0, Reg(8));
    // Atomic swap of two permutation entries.
    p.ld(Reg(9), Reg(3), 0)
        .ld(Reg(10), Reg(4), 0)
        .st(Reg(3), 0, Reg(10))
        .st(Reg(4), 0, Reg(9))
        .compute(steps.max(2))
        .xend();
    p.build()
}

/// Builds the read-only chase program: `steps` hops, then `acc += idx`.
/// Entry: `r0 = perm base`, `r1 = start index`, `r2 = &private acc`.
fn chase_read_program(steps: u32) -> Program {
    let mut p = ProgramBuilder::new();
    p.mv(Reg(6), Reg(1));
    for _ in 0..steps {
        p.alui(AluOp::Shl, Reg(7), Reg(6), 6)
            .add(Reg(7), Reg(7), Reg(0))
            .ld(Reg(6), Reg(7), 0);
    }
    p.ld(Reg(8), Reg(2), 0)
        .add(Reg(8), Reg(8), Reg(6))
        .st(Reg(2), 0, Reg(8))
        .compute(steps.max(2))
        .xend();
    p.build()
}

/// A STAMP application model.
#[derive(Debug)]
pub struct StampModel {
    params: StampParams,
    size: Size,
    rngs: ThreadRngs,
    programs: Vec<Arc<Program>>,
    data: Addr,
    ptr_slot: Addr,
    perm: Addr,
    cells: Addr,
    remaining: Vec<u32>,
    accs: Vec<Addr>,
    expected_data_increments: u64,
    expected_cell_increments: u64,
}

impl StampModel {
    /// Creates the model for a STAMP application name; `None` for unknown
    /// names.
    pub fn by_name(name: &str, size: Size, seed: u64) -> Option<Self> {
        let params = StampParams::by_name(name)?;
        let programs = params
            .ars
            .iter()
            .map(|m| {
                Arc::new(match m.kind {
                    ArKind::Block { lines, writes } => block_program(lines, writes),
                    ArKind::Indirect { lines, writes } => indirect_program(lines, writes),
                    ArKind::Chase { steps } => chase_program(steps),
                    ArKind::ChaseRead { steps } => chase_read_program(steps),
                })
            })
            .collect();
        Some(StampModel {
            params,
            size,
            rngs: ThreadRngs::new(seed),
            programs,
            data: Addr::NULL,
            ptr_slot: Addr::NULL,
            perm: Addr::NULL,
            cells: Addr::NULL,
            remaining: vec![],
            accs: vec![],
            expected_data_increments: 0,
            expected_cell_increments: 0,
        })
    }

    /// The parameter table entry for this model.
    pub fn params(&self) -> &StampParams {
        &self.params
    }

    fn line_addr(base: Addr, i: u64) -> Addr {
        Addr(base.0 + i * LINE_BYTES)
    }

    fn pick_ar(&mut self, tid: usize) -> usize {
        let total: u32 = self.params.ars.iter().map(|a| a.weight).sum();
        let mut roll = self.rngs.get(tid).gen_range(0..total);
        for (i, a) in self.params.ars.iter().enumerate() {
            if roll < a.weight {
                return i;
            }
            roll -= a.weight;
        }
        unreachable!("weights sum checked")
    }
}

impl Workload for StampModel {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: self.params.name.into(),
            ars: self
                .params
                .ars
                .iter()
                .enumerate()
                .map(|(i, m)| ArSpec {
                    id: ArId(i as u32),
                    name: m.name.into(),
                    mutability: m.mutability,
                })
                .collect(),
        }
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        let words_per_line = LINE_BYTES / WORD_BYTES;
        self.data = mem.alloc_words(self.params.data_lines as u64 * words_per_line);
        self.ptr_slot = mem.alloc_words(1);
        mem.store_word(self.ptr_slot, self.data.0);
        self.perm = mem.alloc_words(self.params.perm_entries as u64 * words_per_line);
        self.cells = mem.alloc_words(self.params.perm_entries as u64 * words_per_line);
        // Initialise the permutation as a single cycle i -> i+1 so chases
        // traverse distinct lines.
        for i in 0..self.params.perm_entries as u64 {
            let next = (i + 1) % self.params.perm_entries as u64;
            mem.store_word(Self::line_addr(self.perm, i), next);
        }
        self.accs = (0..threads).map(|_| mem.alloc_words(1)).collect();
        self.remaining = vec![self.size.ops_per_thread(); threads];
        self.rngs.init(threads);
    }

    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining[tid] == 0 {
            return None;
        }
        self.remaining[tid] -= 1;
        let idx = self.pick_ar(tid);
        let model = self.params.ars[idx];
        let think_range = self.params.think;
        let data_lines = self.params.data_lines as u64;
        let perm_entries = self.params.perm_entries as u64;
        let (data, ptr_slot, perm, cells) = (self.data, self.ptr_slot, self.perm, self.cells);
        let rng = self.rngs.get(tid);
        let think = rng.gen_range(think_range.0..think_range.1);
        let args = match model.kind {
            ArKind::Block { lines, writes } => {
                let span = data_lines.saturating_sub(lines as u64).max(1);
                let start = rng.gen_range(0..span);
                self.expected_data_increments += writes as u64;
                vec![(Reg(0), Self::line_addr(data, start).0)]
            }
            ArKind::Indirect { lines, writes } => {
                let span = data_lines.saturating_sub(lines as u64).max(1);
                let start = rng.gen_range(0..span);
                self.expected_data_increments += writes as u64;
                vec![(Reg(0), ptr_slot.0), (Reg(1), start * LINE_BYTES)]
            }
            ArKind::ChaseRead { .. } => {
                let start = rng.gen_range(0..perm_entries);
                vec![
                    (Reg(0), perm.0),
                    (Reg(1), start),
                    (Reg(2), self.accs[tid].0),
                ]
            }
            ArKind::Chase { .. } => {
                let start = rng.gen_range(0..perm_entries);
                let i = rng.gen_range(0..perm_entries);
                let mut j = rng.gen_range(0..perm_entries);
                if j == i {
                    j = (j + 1) % perm_entries;
                }
                self.expected_cell_increments += 1;
                vec![
                    (Reg(0), perm.0),
                    (Reg(1), start),
                    (Reg(2), cells.0),
                    (Reg(3), Self::line_addr(perm, i).0),
                    (Reg(4), Self::line_addr(perm, j).0),
                ]
            }
        };
        Some(ArInvocation {
            ar: ArId(idx as u32),
            program: Arc::clone(&self.programs[idx]),
            args,
            think_cycles: think,
        })
    }

    fn validate(&self, mem: &Memory) -> Result<(), String> {
        // 1. The table is still a permutation of 0..P (atomic swaps).
        let p = self.params.perm_entries as u64;
        let mut seen = vec![false; p as usize];
        for i in 0..p {
            let v = mem.load_word(Self::line_addr(self.perm, i));
            if v >= p {
                return Err(format!("perm[{i}] = {v} out of range"));
            }
            if seen[v as usize] {
                return Err(format!("perm value {v} duplicated: torn swap"));
            }
            seen[v as usize] = true;
        }
        // 2. Cell increments conserved.
        let cells: u64 = (0..p)
            .map(|i| mem.load_word(Self::line_addr(self.cells, i)))
            .sum();
        if cells != self.expected_cell_increments {
            return Err(format!(
                "Σcells {cells} != committed chase increments {}",
                self.expected_cell_increments
            ));
        }
        // 3. Data-region increments conserved.
        let data: u64 = (0..self.params.data_lines as u64)
            .map(|i| mem.load_word(Self::line_addr(self.data, i)))
            .sum();
        if data != self.expected_data_increments {
            return Err(format!(
                "Σdata {data} != committed block increments {}",
                self.expected_data_increments
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_stamp_names_resolve() {
        for n in [
            "bayes",
            "genome",
            "intruder",
            "kmeans-h",
            "kmeans-l",
            "labyrinth",
            "ssca2",
            "vacation-h",
            "vacation-l",
            "yada",
        ] {
            assert!(StampModel::by_name(n, Size::Tiny, 1).is_some(), "{n}");
        }
        assert!(StampModel::by_name("quake", Size::Tiny, 1).is_none());
    }

    #[test]
    fn labyrinth_footprints_exceed_alt() {
        let m = StampModel::by_name("labyrinth", Size::Tiny, 1).unwrap();
        assert!(m.params().ars.iter().all(|a| match a.kind {
            ArKind::Chase { steps } => steps > 32,
            _ => false,
        }));
    }

    #[test]
    fn kmeans_h_is_hotter_than_kmeans_l() {
        let h = StampModel::by_name("kmeans-h", Size::Tiny, 1).unwrap();
        let l = StampModel::by_name("kmeans-l", Size::Tiny, 1).unwrap();
        assert!(h.params().data_lines < l.params().data_lines);
    }

    #[test]
    fn initial_permutation_validates() {
        let mut m = StampModel::by_name("genome", Size::Tiny, 1).unwrap();
        let mut mem = Memory::new();
        m.setup(&mut mem, 2);
        assert!(m.validate(&mem).is_ok());
    }

    #[test]
    fn torn_swap_is_detected() {
        let mut m = StampModel::by_name("genome", Size::Tiny, 1).unwrap();
        let mut mem = Memory::new();
        m.setup(&mut mem, 1);
        // Duplicate one permutation value (a torn swap).
        let v = mem.load_word(StampModel::line_addr(m.perm, 0));
        mem.store_word(StampModel::line_addr(m.perm, 1), v);
        assert!(m.validate(&mem).is_err());
    }

    #[test]
    fn chase_args_in_range() {
        let mut m = StampModel::by_name("yada", Size::Tiny, 3).unwrap();
        let mut mem = Memory::new();
        m.setup(&mut mem, 1);
        while let Some(inv) = m.next_ar(0, &mem) {
            if inv.args.len() == 5 {
                let start = inv.args[1].1;
                assert!(start < m.params().perm_entries as u64);
                assert_ne!(inv.args[3].1, inv.args[4].1, "swap addresses must differ");
            }
        }
    }

    #[test]
    fn weights_cover_all_ars_eventually() {
        let mut m = StampModel::by_name("bayes", Size::Medium, 7).unwrap();
        let mut mem = Memory::new();
        m.setup(&mut mem, 4);
        let mut seen = std::collections::HashSet::new();
        for tid in 0..4 {
            while let Some(inv) = m.next_ar(tid, &mem) {
                seen.insert(inv.ar);
            }
        }
        assert!(
            seen.len() >= 10,
            "most of bayes' 14 ARs should appear, saw {}",
            seen.len()
        );
    }
}
