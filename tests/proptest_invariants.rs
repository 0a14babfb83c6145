//! Property-based tests over the core data structures and the end-to-end
//! machine.
//!
//! The generators are driven by the in-tree [`SplitMix64`] PRNG instead of
//! an external property-testing crate: each test derives one sub-generator
//! per case from a fixed test seed, so every run explores the same input
//! space deterministically and a failing case is reproducible from its
//! index alone.

use clear_core::{Alt, Crt, Ert};
use clear_isa::{AluOp, ProgramBuilder, Reg, Vm};
use clear_mem::rng::SplitMix64;
use clear_mem::{lock_order, CacheGeometry, LexKey, LineAddr, SetAssocCache};
use std::collections::HashSet;
use std::sync::Arc;

/// Number of generated cases per property.
const CASES: u64 = 96;

/// One independent generator per (test, case) pair.
fn case_rng(test_seed: u64, case: u64) -> SplitMix64 {
    SplitMix64::new(test_seed ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn vec_of(rng: &mut SplitMix64, min: usize, max: usize, bound: u64) -> Vec<u64> {
    let len = min + rng.index(max - min);
    (0..len).map(|_| rng.below(bound)).collect()
}

/// lock_order: sorted by (directory set, line), duplicate-free, with
/// exactly one group-terminator per directory set.
#[test]
fn lock_order_is_sorted_deduped_grouped() {
    for case in 0..CASES {
        let mut rng = case_rng(0x10c0, case);
        let lines = vec_of(&mut rng, 0, 40, 512);
        let sets_log = 1 + rng.below(5) as u32;

        let dir = CacheGeometry::new(1 << sets_log, 4);
        let lines: Vec<LineAddr> = lines.into_iter().map(LineAddr).collect();
        let order = lock_order(dir, &lines);

        // Sorted & unique.
        let keys: Vec<LexKey> = order.iter().map(|(l, _)| LexKey::new(dir, *l)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "case {case}");

        // Same line set as the (deduped) input.
        let in_set: HashSet<u64> = lines.iter().map(|l| l.0).collect();
        let out_set: HashSet<u64> = order.iter().map(|(l, _)| l.0).collect();
        assert_eq!(in_set, out_set, "case {case}");

        // One terminator per contiguous group.
        let mut terminators_per_set = std::collections::HashMap::new();
        for (l, last) in &order {
            if *last {
                *terminators_per_set.entry(dir.set_index(*l)).or_insert(0) += 1;
            }
        }
        let distinct_sets: HashSet<usize> = order.iter().map(|(l, _)| dir.set_index(*l)).collect();
        assert_eq!(
            terminators_per_set.len(),
            distinct_sets.len(),
            "case {case}"
        );
        assert!(terminators_per_set.values().all(|&c| c == 1), "case {case}");
    }
}

/// SetAssocCache never exceeds per-set capacity and always finds what
/// it inserted most recently within a set's capacity window.
#[test]
fn cache_respects_capacity() {
    for case in 0..CASES {
        let mut rng = case_rng(0xcac4e, case);
        let ops = vec_of(&mut rng, 1, 200, 64);
        let ways = 1 + rng.index(3);

        let geom = CacheGeometry::new(8, ways);
        let mut cache: SetAssocCache<u64> = SetAssocCache::new(geom);
        for (i, &line) in ops.iter().enumerate() {
            cache.insert(LineAddr(line), i as u64);
            assert!(cache.len() <= geom.lines(), "case {case}");
            // Just-inserted line is always resident with its payload.
            assert_eq!(cache.get(LineAddr(line)), Some(&(i as u64)), "case {case}");
        }
    }
}

/// fits_simultaneously agrees with actually inserting pinned lines.
#[test]
fn fits_matches_pinned_insertion() {
    for case in 0..CASES {
        let mut rng = case_rng(0xf175, case);
        let want = 1 + rng.index(19);
        let mut set = HashSet::new();
        while set.len() < want {
            set.insert(rng.below(64));
        }
        let ways = 1 + rng.index(3);

        let geom = CacheGeometry::new(4, ways);
        let lines: Vec<LineAddr> = set.into_iter().map(LineAddr).collect();
        let fits = SetAssocCache::<()>::fits_simultaneously(geom, lines.iter().copied());
        let mut cache: SetAssocCache<()> = SetAssocCache::new(geom);
        let mut all_ok = true;
        for &l in &lines {
            if cache.insert_respecting(l, (), |_| true).is_err() {
                all_ok = false;
                break;
            }
        }
        assert_eq!(fits, all_ok, "case {case}");
    }
}

/// ALT keeps entries in lexicographical order with sticky write bits
/// and bounded size, for any observation sequence.
#[test]
fn alt_order_and_stickiness() {
    for case in 0..CASES {
        let mut rng = case_rng(0xa17, case);
        let len = 1 + rng.index(63);
        let obs: Vec<(u64, bool)> = (0..len).map(|_| (rng.below(128), rng.flip())).collect();

        let dir = CacheGeometry::new(16, 4);
        let mut alt = Alt::new(32, dir);
        let mut written_lines = HashSet::new();
        for (line, written) in &obs {
            if alt.observe(LineAddr(*line), *written).is_ok() && *written {
                written_lines.insert(*line);
            }
        }
        assert!(alt.len() <= 32, "case {case}");
        let keys: Vec<LexKey> = alt.iter().map(|e| LexKey::new(dir, e.line)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "case {case}");
        for e in alt.iter() {
            assert_eq!(
                e.needs_locking,
                written_lines.contains(&e.line.0),
                "case {case}"
            );
        }
    }
}

/// CoreBitSet agrees with a BTreeSet model for any operation sequence over
/// core ids spanning the inline word and the spilled words (0..~1000), and
/// its iterators always yield ascending ids.
#[test]
fn corebitset_matches_set_model_across_inline_and_spill() {
    use clear_mem::CoreBitSet;
    use std::collections::BTreeSet;

    for case in 0..CASES {
        let mut rng = case_rng(0xb175e7, case);
        let mut set = CoreBitSet::new();
        let mut model: BTreeSet<usize> = BTreeSet::new();
        let nops = 1 + rng.index(120);
        for _ in 0..nops {
            let id = rng.below(1000) as usize;
            match rng.below(4) {
                0 => {
                    set.insert(id);
                    model.insert(id);
                }
                1 => {
                    set.remove(id);
                    model.remove(&id);
                }
                2 => {
                    set.set_only(id);
                    model.clear();
                    model.insert(id);
                }
                _ => {
                    // Pure queries between mutations.
                    assert_eq!(set.contains(id), model.contains(&id), "case {case}");
                }
            }
            assert_eq!(set.len(), model.len(), "case {case}");
            assert_eq!(set.is_empty(), model.is_empty(), "case {case}");
            let probe = rng.below(1000) as usize;
            assert_eq!(
                set.contains_other_than(probe),
                model.iter().any(|&m| m != probe),
                "case {case}"
            );
            assert_eq!(
                set.iter().collect::<Vec<_>>(),
                model.iter().copied().collect::<Vec<_>>(),
                "case {case}: iteration must be ascending and exact"
            );
            assert_eq!(
                set.iter_without(probe).collect::<Vec<_>>(),
                model
                    .iter()
                    .copied()
                    .filter(|&m| m != probe)
                    .collect::<Vec<_>>(),
                "case {case}"
            );
        }
        let rebuilt: CoreBitSet = model.iter().copied().collect();
        assert_eq!(
            rebuilt.iter().collect::<Vec<_>>(),
            model.iter().copied().collect::<Vec<_>>(),
            "case {case}: FromIterator round-trip"
        );
        set.clear();
        assert!(set.is_empty(), "case {case}: clear must empty the set");
    }
}

/// ERT is bounded and sq-full counters saturate within [0, 3].
#[test]
fn ert_bounded_and_saturating() {
    for case in 0..CASES {
        let mut rng = case_rng(0xe47, case);
        let keys: Vec<u32> = vec_of(&mut rng, 1, 100, 64)
            .into_iter()
            .map(|k| k as u32)
            .collect();
        let nbumps = 1 + rng.index(99);
        let bumps: Vec<bool> = (0..nbumps).map(|_| rng.flip()).collect();

        let mut ert = Ert::new(16);
        for (k, b) in keys.iter().zip(bumps.iter().cycle()) {
            let e = ert.entry(*k);
            if *b {
                e.bump_sq_full();
            } else {
                e.decay_sq_full();
            }
            assert!(e.sq_full() <= 3, "case {case}");
        }
        assert!(ert.len() <= 16, "case {case}");
    }
}

/// CRT: record-then-take round-trips; take empties.
#[test]
fn crt_record_take_roundtrip() {
    for case in 0..CASES {
        let mut rng = case_rng(0xc47, case);
        let lines = vec_of(&mut rng, 1, 64, 256);

        let mut crt = Crt::new(8, 8);
        for &l in &lines {
            crt.record(LineAddr(l));
            assert!(crt.contains(LineAddr(l)), "case {case}");
            assert!(crt.take(LineAddr(l)), "case {case}");
            assert!(!crt.contains(LineAddr(l)), "case {case}");
            assert!(!crt.take(LineAddr(l)), "case {case}");
        }
        assert!(crt.is_empty(), "case {case}");
    }
}

/// The VM computes ALU chains exactly like the host.
#[test]
fn vm_matches_host_arithmetic() {
    for case in 0..CASES {
        let mut rng = case_rng(0xa1b, case);
        let a = rng.next_u64();
        let b = rng.next_u64();
        let nops = 1 + rng.index(19);
        let ops: Vec<u8> = (0..nops).map(|_| rng.below(9) as u8).collect();

        let all = [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Mul,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Shl,
            AluOp::Shr,
            AluOp::Rem,
        ];
        let mut builder = ProgramBuilder::new();
        let mut expect = a;
        for &o in &ops {
            let op = all[o as usize];
            builder.alu(op, Reg(0), Reg(0), Reg(1));
            expect = op.apply(expect, b);
        }
        builder.xend();
        let mut vm = Vm::new(Arc::new(builder.build()));
        vm.set_reg(Reg(0), a);
        vm.set_reg(Reg(1), b);
        for _ in 0..ops.len() {
            vm.step();
        }
        assert_eq!(vm.reg(Reg(0)), expect, "case {case}");
    }
}

/// Indirection bits propagate through any ALU dag: a register is
/// indirect iff a load feeds it transitively.
#[test]
fn indirection_propagation_is_transitive() {
    for case in 0..CASES {
        let mut rng = case_rng(0x1d1, case);
        let nedges = 1 + rng.index(23);
        let edges: Vec<(u8, u8, u8)> = (0..nedges)
            .map(|_| (rng.below(8) as u8, rng.below(8) as u8, rng.below(8) as u8))
            .collect();

        let mut builder = ProgramBuilder::new();
        // r7 becomes indirect via a load; r0..r6 start direct.
        builder.ld(Reg(7), Reg(6), 0);
        let mut indirect = [false; 8];
        indirect[7] = true;
        for (d, s1, s2) in &edges {
            builder.add(Reg(*d), Reg(*s1), Reg(*s2));
            indirect[*d as usize] = indirect[*s1 as usize] || indirect[*s2 as usize];
        }
        builder.xend();
        let mut vm = Vm::new(Arc::new(builder.build()));
        let mut mem = clear_mem::Memory::new();
        let addr = mem.alloc_words(1);
        vm.set_reg(Reg(6), addr.0);
        match vm.step() {
            clear_isa::Effect::Load { addr, .. } => vm.finish_load(mem.load_word(addr)),
            e => panic!("expected load, got {e:?}"),
        }
        for _ in 0..edges.len() {
            vm.step();
        }
        for r in 0..8u8 {
            assert_eq!(
                vm.reg_indirect(Reg(r)),
                indirect[r as usize],
                "case {case} r{r}"
            );
        }
    }
}

mod machine_props {
    use super::*;
    use clear_isa::{ArId, ArInvocation, ArSpec, Mutability, Program, Workload, WorkloadMeta};
    use clear_machine::{Machine, Preset};
    use clear_mem::{Addr, Memory};

    /// Random mix of private and shared counter increments.
    struct MixedCounters {
        shared: Addr,
        private: Vec<Addr>,
        plan: Vec<Vec<bool>>, // per thread: true = shared op
        cursor: Vec<usize>,
        program: Arc<Program>,
        shared_ops: u64,
    }

    impl Workload for MixedCounters {
        fn meta(&self) -> WorkloadMeta {
            WorkloadMeta {
                name: "mixed-counters".into(),
                ars: vec![ArSpec {
                    id: ArId(0),
                    name: "inc".into(),
                    mutability: Mutability::Immutable,
                }],
            }
        }
        fn setup(&mut self, mem: &mut Memory, threads: usize) {
            self.shared = mem.alloc_words(1);
            self.private = (0..threads).map(|_| mem.alloc_words(1)).collect();
            self.cursor = vec![0; threads];
        }
        fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
            let i = self.cursor[tid];
            let shared = *self.plan[tid].get(i)?;
            self.cursor[tid] += 1;
            if shared {
                self.shared_ops += 1;
            }
            let target = if shared {
                self.shared
            } else {
                self.private[tid]
            };
            Some(ArInvocation {
                ar: ArId(0),
                program: Arc::clone(&self.program),
                args: vec![(Reg(0), target.0)],
                think_cycles: 7,
            })
        }
        fn validate(&self, mem: &Memory) -> Result<(), String> {
            let shared = mem.load_word(self.shared);
            if shared != self.shared_ops {
                return Err(format!("shared {shared} != {}", self.shared_ops));
            }
            for (t, &p) in self.private.iter().enumerate() {
                let got = mem.load_word(p);
                let want = self.plan[t].iter().filter(|s| !**s).count() as u64;
                if got != want {
                    return Err(format!("private[{t}] {got} != {want}"));
                }
            }
            Ok(())
        }
    }

    fn inc_program() -> Arc<Program> {
        let mut p = ProgramBuilder::new();
        p.ld(Reg(1), Reg(0), 0)
            .addi(Reg(1), Reg(1), 1)
            .st(Reg(0), 0, Reg(1))
            .xend();
        Arc::new(p.build())
    }

    /// Any random plan of shared/private increments is conserved under
    /// every preset — the fundamental atomicity property, fuzzed.
    ///
    /// The whole-machine property keeps the former `proptest` case count
    /// (16), which is why it loops less than the data-structure tests.
    #[test]
    fn random_plans_conserve_counters() {
        for case in 0..16 {
            let mut rng = case_rng(0x3ac41e, case);
            let threads = 2 + rng.index(3);
            let plan: Vec<Vec<bool>> = (0..threads)
                .map(|_| {
                    let len = 1 + rng.index(19);
                    (0..len).map(|_| rng.flip()).collect()
                })
                .collect();
            let preset = Preset::ALL[rng.index(4)];
            let seed = rng.below(1000);

            let w = MixedCounters {
                shared: Addr::NULL,
                private: vec![],
                plan,
                cursor: vec![],
                program: inc_program(),
                shared_ops: 0,
            };
            let mut cfg = preset.config(threads, 3);
            cfg.seed = seed;
            let mut m = Machine::new(cfg, Box::new(w));
            let stats = m.run();
            assert!(!stats.timed_out, "case {case} {preset}");
            m.workload()
                .validate(m.memory())
                .unwrap_or_else(|e| panic!("case {case} {preset}: {e}"));
        }
    }

    /// The same conservation property quantified over the *backend* axis:
    /// every [`clear_machine::SpeculationBackend`] — CLEAR, TSX, PowerTM,
    /// SLE and the limited-R/W-set scheme — serializes random schedules of
    /// shared/private increments. Non-bounded backends must additionally
    /// report zero R/W-set buffer overflows.
    #[test]
    fn random_plans_conserve_counters_under_every_backend() {
        use clear_machine::BackendId;

        for case in 0..8 {
            let mut rng = case_rng(0xbacc, case);
            let threads = 2 + rng.index(3);
            let plan: Vec<Vec<bool>> = (0..threads)
                .map(|_| {
                    let len = 1 + rng.index(19);
                    (0..len).map(|_| rng.flip()).collect()
                })
                .collect();
            let seed = rng.below(1000);

            for id in BackendId::ALL {
                let w = MixedCounters {
                    shared: Addr::NULL,
                    private: vec![],
                    plan: plan.clone(),
                    cursor: vec![],
                    program: inc_program(),
                    shared_ops: 0,
                };
                let mut cfg = id.config(threads, 3);
                cfg.seed = seed;
                let mut m = Machine::new(cfg, Box::new(w));
                let stats = m.run();
                assert!(!stats.timed_out, "case {case} {id}");
                if id != BackendId::Lrws {
                    assert_eq!(stats.lrws_capacity_aborts(), 0, "case {case} {id}");
                }
                m.workload()
                    .validate(m.memory())
                    .unwrap_or_else(|e| panic!("case {case} {id}: {e}"));
            }
        }
    }

    /// A backend defined *outside* the built-in registry — hostile
    /// arbitration (every conflict NACKs the requester) and a fallback
    /// after a single counted retry — still serializes random schedules
    /// when plugged in as the configuration's backend. This is the
    /// pluggability contract: atomicity lives in the shared machine
    /// layers, not in any particular backend.
    #[test]
    fn a_custom_hostile_backend_still_serializes() {
        use clear_htm::{Resolution, RetryPolicy, TxInfo};
        use clear_machine::SpeculationBackend;

        #[derive(Debug)]
        struct HostileBackend;

        impl SpeculationBackend for HostileBackend {
            fn name(&self) -> &'static str {
                "hostile"
            }
            fn resolve(&self, _requester: TxInfo, _victims: &[TxInfo]) -> Resolution {
                Resolution::NackRequester
            }
            fn must_fall_back(&self, _policy: &RetryPolicy, counted_retries: u32) -> bool {
                counted_retries >= 1
            }
        }

        for case in 0..8 {
            let mut rng = case_rng(0x4057, case);
            let threads = 2 + rng.index(3);
            let plan: Vec<Vec<bool>> = (0..threads)
                .map(|_| {
                    let len = 1 + rng.index(14);
                    (0..len).map(|_| rng.flip()).collect()
                })
                .collect();
            let seed = rng.below(1000);

            let w = MixedCounters {
                shared: Addr::NULL,
                private: vec![],
                plan,
                cursor: vec![],
                program: inc_program(),
                shared_ops: 0,
            };
            let mut cfg = Preset::B.config(threads, 3);
            cfg.seed = seed;
            cfg.backend = std::sync::Arc::new(HostileBackend);
            let mut m = Machine::new(cfg, Box::new(w));
            assert_eq!(m.backend().name(), "hostile");
            let stats = m.run();
            assert!(!stats.timed_out, "case {case}");
            m.workload()
                .validate(m.memory())
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
        }
    }
}

/// RwSetTracker against a two-BTreeSet model for any access sequence and
/// any small capacity bounds: admission, overflow verdicts, the
/// write-set-pins-reads rule, and attempt-boundary clears all agree with
/// the model exactly.
#[test]
fn rwset_tracker_matches_set_model() {
    use clear_htm::{LrwsConfig, RwSetOverflow, RwSetTracker};
    use std::collections::BTreeSet;

    for case in 0..CASES {
        let mut rng = case_rng(0x125e7, case);
        let cfg = LrwsConfig {
            read_lines: 1 + rng.index(6),
            write_lines: 1 + rng.index(4),
        };
        let mut tracker = RwSetTracker::new(cfg);
        let mut reads: BTreeSet<u64> = BTreeSet::new();
        let mut writes: BTreeSet<u64> = BTreeSet::new();
        let nops = 1 + rng.index(120);
        for _ in 0..nops {
            // Occasionally hit an attempt boundary.
            if rng.below(16) == 0 {
                tracker.clear();
                reads.clear();
                writes.clear();
            }
            let line = rng.below(12);
            let is_write = rng.flip();
            let expect = if is_write {
                if writes.contains(&line) || writes.len() < cfg.write_lines {
                    writes.insert(line);
                    Ok(())
                } else {
                    Err(RwSetOverflow::Writes)
                }
            } else if writes.contains(&line) {
                // Written lines read for free and never charge the
                // read-set budget.
                Ok(())
            } else if reads.contains(&line) || reads.len() < cfg.read_lines {
                reads.insert(line);
                Ok(())
            } else {
                Err(RwSetOverflow::Reads)
            };
            let got = tracker.track(LineAddr(line), is_write);
            assert_eq!(got, expect, "case {case} line {line} write {is_write}");
            assert_eq!(tracker.read_lines(), reads.len(), "case {case}");
            assert_eq!(tracker.write_lines(), writes.len(), "case {case}");
            assert!(tracker.read_lines() <= cfg.read_lines, "case {case}");
            assert!(tracker.write_lines() <= cfg.write_lines, "case {case}");
        }
    }
}

/// ALT under random observe/mark/reset sequences: entries stay in strict
/// directory-set lexicographic order and every Conflict bit says exactly
/// "my successor shares my directory set" — the group-escalation
/// delimiter of §5 survives any interleaving of discovery, CRT upgrades,
/// lock progress, and lock-pass resets.
#[test]
fn alt_random_sequences_keep_order_and_group_bits() {
    for case in 0..CASES {
        let mut rng = case_rng(0xa17b175, case);
        let dir = CacheGeometry::new(1 << (1 + rng.below(4) as u32), 4);
        let mut alt = Alt::new(16, dir);
        let nops = 1 + rng.index(79);
        for _ in 0..nops {
            let line = LineAddr(rng.below(96));
            match rng.below(6) {
                0 | 1 => {
                    let _ = alt.observe(line, rng.flip());
                }
                2 => alt.mark_needs_locking(line),
                3 => alt.mark_locked(line),
                4 => alt.mark_hit(line, rng.flip()),
                _ => alt.reset_lock_state(),
            }
        }

        let keys: Vec<LexKey> = alt.iter().map(|e| LexKey::new(dir, e.line)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "case {case}");

        let entries: Vec<_> = alt.iter().copied().collect();
        for (i, e) in entries.iter().enumerate() {
            let next_same_set = entries
                .get(i + 1)
                .is_some_and(|n| dir.set_index(n.line) == dir.set_index(e.line));
            assert_eq!(e.conflict, next_same_set, "case {case} entry {i}");
            // group_of returns the whole contiguous same-set run.
            let group = alt.group_of(e.line);
            let expect: Vec<LineAddr> = entries
                .iter()
                .filter(|o| dir.set_index(o.line) == dir.set_index(e.line))
                .map(|o| o.line)
                .collect();
            assert_eq!(group, expect, "case {case} entry {i}");
        }
    }
}

/// Locking an ALT's lock list and then bulk-unlocking at XEnd releases
/// exactly the locked set: the requester holds every Needs-Locking line
/// while the region runs, holds nothing afterwards, and a second core's
/// unrelated locks are untouched throughout.
#[test]
fn alt_lock_list_bulk_unlocks_exactly_locked_set_at_xend() {
    use clear_coherence::{CoherenceConfig, CoherenceSystem, CoreId};

    for case in 0..CASES {
        let mut rng = case_rng(0xb01d, case);
        let mut sys = CoherenceSystem::new(CoherenceConfig::table2(2));
        let dir_geom = sys.config().directory;

        // Core 0's footprint: distinct lines in 0..64, random write bits.
        let mut alt = Alt::new(32, dir_geom);
        let mut picked = HashSet::new();
        for _ in 0..1 + rng.index(12) {
            let l = rng.below(64);
            if picked.insert(l) {
                alt.observe(LineAddr(l), rng.flip()).unwrap();
            }
        }
        // Core 1 holds a disjoint set of locks (lines 64..128).
        let other: Vec<LineAddr> = (0..1 + rng.index(6))
            .map(|_| LineAddr(64 + rng.below(64)))
            .collect();
        for &l in &other {
            sys.lock_line(CoreId(1), l).unwrap();
        }
        let other_locked = sys.locked_count(CoreId(1));

        let list = alt.lock_list();
        for &l in &list {
            sys.lock_line(CoreId(0), l).unwrap();
            alt.mark_locked(l);
        }
        assert_eq!(sys.locked_count(CoreId(0)), list.len(), "case {case}");
        for &l in &list {
            assert_eq!(sys.locked_by(l), Some(CoreId(0)), "case {case}");
        }
        assert!(
            alt.iter().filter(|e| e.needs_locking).all(|e| e.locked),
            "case {case}"
        );

        // XEnd: one bulk release.
        sys.unlock_all(CoreId(0));
        assert_eq!(sys.locked_count(CoreId(0)), 0, "case {case}");
        for &l in &list {
            assert_eq!(sys.locked_by(l), None, "case {case}");
        }
        // The other core's locks survive untouched.
        assert_eq!(sys.locked_count(CoreId(1)), other_locked, "case {case}");
        for &l in &other {
            assert_eq!(sys.locked_by(l), Some(CoreId(1)), "case {case}");
        }
        // A second XEnd is a no-op.
        sys.unlock_all(CoreId(0));
        assert_eq!(sys.locked_count(CoreId(1)), other_locked, "case {case}");
    }
}
