//! The [`Workload`] adapter that drives a [`FuzzCase`] through the full
//! machine, plus the arena layout shared with the oracle.

use crate::gen::{FuzzCase, DATA_LINES, PTR2_SLOTS, PTR_SLOTS};
use clear_isa::{ArId, ArInvocation, ArSpec, Mutability, Workload, WorkloadMeta};
use clear_mem::{Addr, Memory, LINE_BYTES, WORD_BYTES};
use std::sync::{Arc, Mutex};

/// A write-once slot shared between a workload (which learns addresses at
/// `setup` time, after the machine has boxed it) and the oracle outside
/// the machine.
#[derive(Clone, Debug, Default)]
pub struct SharedSlot<T>(Arc<Mutex<Option<T>>>);

impl<T: Clone> SharedSlot<T> {
    /// Creates an empty slot.
    pub fn new() -> Self {
        SharedSlot(Arc::new(Mutex::new(None)))
    }

    /// Stores a value (replacing any previous one).
    pub fn set(&self, value: T) {
        *self.0.lock().expect("shared slot poisoned") = Some(value);
    }

    /// Clones the stored value out, if set.
    pub fn get(&self) -> Option<T> {
        self.0.lock().expect("shared slot poisoned").clone()
    }
}

/// The fuzz arena layout: two data regions the programs may store to, and
/// two read-only pointer tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    /// First data region base (4 lines).
    pub data_a: Addr,
    /// Second data region base (4 lines).
    pub data_b: Addr,
    /// First-level pointer table base (one slot per line).
    pub ptr: Addr,
    /// Second-level pointer table base (one slot per line).
    pub ptr2: Addr,
    /// First byte of the arena.
    pub start: Addr,
    /// One past the last mapped byte.
    pub end: Addr,
}

impl Layout {
    /// Computes the layout for an arena starting at `start`, mirroring the
    /// allocation order of [`FuzzWorkload::setup`].
    pub fn compute(start: Addr) -> Layout {
        let data_a = start;
        let data_b = Addr(data_a.0 + DATA_LINES * LINE_BYTES);
        let ptr = Addr(data_b.0 + DATA_LINES * LINE_BYTES);
        let ptr2 = Addr(ptr.0 + PTR_SLOTS * LINE_BYTES);
        let end = Addr(ptr2.0 + PTR2_SLOTS * LINE_BYTES);
        Layout {
            data_a,
            data_b,
            ptr,
            ptr2,
            start,
            end,
        }
    }

    /// The layout under the machine's canonical memory map: the null line,
    /// then the fallback-lock line the machine allocates before workload
    /// setup, then the arena.
    pub fn canonical() -> Layout {
        Layout::compute(Addr(2 * LINE_BYTES))
    }
}

/// Drives one [`FuzzCase`]: every thread runs the same program with the
/// same arguments `invocations` times, maximising contention on the
/// shared arena.
#[derive(Debug)]
pub struct FuzzWorkload {
    case: Arc<FuzzCase>,
    layout: SharedSlot<Layout>,
    remaining: Vec<usize>,
}

impl FuzzWorkload {
    /// Creates the workload for `case`.
    pub fn new(case: Arc<FuzzCase>) -> FuzzWorkload {
        FuzzWorkload {
            case,
            layout: SharedSlot::new(),
            remaining: Vec::new(),
        }
    }

    /// Handle to the layout published at `setup` time.
    pub fn layout_handle(&self) -> SharedSlot<Layout> {
        self.layout.clone()
    }
}

impl Workload for FuzzWorkload {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: self.case.name(),
            ars: vec![ArSpec {
                id: ArId(0),
                name: "fuzzed".into(),
                mutability: Mutability::Mutable,
            }],
        }
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        let data_a = mem.alloc_words(DATA_LINES * (LINE_BYTES / WORD_BYTES));
        let layout = Layout::compute(data_a);
        let data_b = mem.alloc_words(DATA_LINES * (LINE_BYTES / WORD_BYTES));
        let ptr = mem.alloc_words(PTR_SLOTS * (LINE_BYTES / WORD_BYTES));
        let ptr2 = mem.alloc_words(PTR2_SLOTS * (LINE_BYTES / WORD_BYTES));
        assert_eq!(
            (data_b, ptr, ptr2),
            (layout.data_b, layout.ptr, layout.ptr2),
            "arena allocation diverged from Layout::compute"
        );

        // Distinct data values so lost updates are visible in the image.
        for w in 0..(2 * DATA_LINES * (LINE_BYTES / WORD_BYTES)) {
            mem.store_word(data_a.add_words(w), 0x1000 + w);
        }
        // Pointer tables: written once here, never stored to by programs.
        for (i, (region, line)) in self.case.ptr_targets.iter().enumerate() {
            let base = match region {
                crate::gen::DataRegion::A => layout.data_a,
                crate::gen::DataRegion::B => layout.data_b,
            };
            let target = Addr(base.0 + *line as u64 * LINE_BYTES);
            mem.store_word(Addr(ptr.0 + i as u64 * LINE_BYTES), target.0);
        }
        for (j, slot) in self.case.ptr2_targets.iter().enumerate() {
            let target = Addr(ptr.0 + *slot as u64 * LINE_BYTES);
            mem.store_word(Addr(ptr2.0 + j as u64 * LINE_BYTES), target.0);
        }

        self.remaining = vec![self.case.invocations; threads];
        self.layout.set(layout);
    }

    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining[tid] == 0 {
            return None;
        }
        let k = self.case.invocations - self.remaining[tid];
        self.remaining[tid] -= 1;
        let layout = self.layout.get().expect("setup ran");
        Some(ArInvocation {
            ar: ArId(0),
            program: Arc::clone(&self.case.program),
            args: self.case.args(&layout),
            think_cycles: self.case.think_cycles(tid, k),
        })
    }

    fn validate(&self, _mem: &Memory) -> Result<(), String> {
        // The differential oracle, not an in-workload invariant, judges
        // final memory; anything committed is acceptable here.
        Ok(())
    }
}

/// Builds the initial memory image exactly as the machine does: the null
/// line is unmapped, the machine's fallback-lock line comes first, then
/// the workload arena. Returns the image and the published layout.
pub fn initial_image(case: &Arc<FuzzCase>, threads: usize) -> (Memory, Layout) {
    let mut w = FuzzWorkload::new(Arc::clone(case));
    let mut mem = Memory::new();
    mem.alloc_line(); // the machine's fallback-lock line
    w.setup(&mut mem, threads);
    let layout = w.layout_handle().get().expect("setup published layout");
    (mem, layout)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_matches_canonical_under_machine_memory_map() {
        let case = Arc::new(FuzzCase::generate(11, 0));
        let (_, layout) = initial_image(&case, 2);
        assert_eq!(layout, Layout::canonical());
        assert_eq!(layout.start.0, 2 * LINE_BYTES);
        assert!(layout.end.0 > layout.ptr2.0);
    }

    #[test]
    fn pointer_tables_hold_valid_data_addresses() {
        let case = Arc::new(FuzzCase::generate(11, 1));
        let (mem, layout) = initial_image(&case, 2);
        for i in 0..PTR_SLOTS {
            let p = mem.load_word(Addr(layout.ptr.0 + i * LINE_BYTES));
            assert!(p >= layout.data_a.0 && p < layout.ptr.0, "slot {i}: {p:#x}");
            assert_eq!(p % LINE_BYTES, 0);
        }
        for j in 0..PTR2_SLOTS {
            let q = mem.load_word(Addr(layout.ptr2.0 + j * LINE_BYTES));
            assert!(q >= layout.ptr.0 && q < layout.ptr2.0, "slot {j}: {q:#x}");
        }
    }

    #[test]
    fn next_ar_exhausts_after_invocations() {
        let case = Arc::new(FuzzCase::generate(11, 2));
        let mut w = FuzzWorkload::new(Arc::clone(&case));
        let mut mem = Memory::new();
        mem.alloc_line();
        w.setup(&mut mem, 3);
        for tid in 0..3 {
            let mut n = 0;
            while w.next_ar(tid, &mem).is_some() {
                n += 1;
            }
            assert_eq!(n, case.invocations, "thread {tid}");
        }
    }
}
