//! Layer microbenchmarks: host nanoseconds per call of single public
//! operations, the prices of the attribution table.
//!
//! Coherence costs follow the serving level and MESI state of the access:
//! an L1 hit, a write to a line another core holds Modified, probes
//! against 32 and 256 sharers, single-line and grouped line locking.

use crate::passes::{legs, Kind};
use clear_coherence::{Access, CoherenceConfig, CoherenceSystem, CoreId, TxTrack};
use clear_core::{Alt, Crt, Ert};
use clear_htm::{resolve_conflict, HtmFlavor, TxInfo};
use clear_isa::{ArInvocation, Effect, Vm};
use clear_mem::{Addr, CacheGeometry, LineAddr, Memory};
use clear_metrics::{families, MetricsRegistry};
use clear_workloads::by_name;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Host ns per operation.
#[derive(Clone, Copy, Debug)]
pub struct Micro {
    pub read_hit: f64,
    pub remote_write: f64,
    pub probe_32: f64,
    pub probe_256: f64,
    pub lock_unlock: f64,
    pub lock_group_32: f64,
    pub ert_lookup: f64,
    pub alt_observe: f64,
    pub alt_lock_list: f64,
    pub crt_record_take: f64,
    pub vm_step: f64,
    pub resolve_conflict: f64,
    pub observe: f64,
}

pub fn run(kind: Kind, seed: u64) -> Micro {
    Micro {
        read_hit: read_hit(),
        remote_write: remote_write(),
        probe_32: probe_sharers(32),
        probe_256: probe_sharers(256),
        lock_unlock: lock_unlock(),
        lock_group_32: lock_group_32(),
        ert_lookup: ert_lookup(),
        alt_observe: alt_observe(),
        alt_lock_list: alt_lock_list(),
        crt_record_take: crt_record_take(),
        vm_step: vm_step(kind, seed),
        resolve_conflict: resolve(),
        observe: observe(),
    }
}

/// Median ns per call over five rounds of `iters` calls, after one
/// warm-up round.
fn ns_per_op(iters: u32, mut op: impl FnMut()) -> f64 {
    let mut round = || {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        start.elapsed().as_nanos() as f64 / f64::from(iters)
    };
    round();
    let mut rounds: Vec<f64> = (0..5).map(|_| round()).collect();
    crate::median(&mut rounds)
}

fn table2(cores: usize) -> CoherenceSystem {
    CoherenceSystem::new(CoherenceConfig::table2(cores))
}

fn directory() -> CacheGeometry {
    CoherenceConfig::table2(32).directory
}

/// A read served by the requester's own L1 copy.
fn read_hit() -> f64 {
    let mut sys = table2(32);
    let line = LineAddr(100);
    sys.apply(CoreId(0), line, Access::Read, TxTrack::None)
        .expect("a cold read fits");
    ns_per_op(200_000, || {
        let ok = sys.apply(CoreId(0), black_box(line), Access::Read, TxTrack::None);
        black_box(ok.expect("an L1 hit").latency);
    })
}

/// A write to a line the other core holds Modified: an invalidation and
/// a remote transfer (two cores pass the line back and forth).
fn remote_write() -> f64 {
    let mut sys = table2(32);
    let line = LineAddr(5);
    let mut core = 0;
    ns_per_op(100_000, || {
        core ^= 1;
        let ok = sys.apply(CoreId(core), black_box(line), Access::Write, TxTrack::None);
        black_box(ok.expect("an unpinned write").latency);
    })
}

/// Probing a write against a line every core holds in its read set.
fn probe_sharers(cores: usize) -> f64 {
    let mut sys = table2(cores);
    let line = LineAddr(9);
    for c in 0..cores {
        sys.apply(CoreId(c), line, Access::Read, TxTrack::Read)
            .expect("a shared read");
    }
    ns_per_op(20_000, || {
        black_box(
            sys.probe(CoreId(0), black_box(line), Access::Write)
                .remote_impacts
                .len(),
        );
    })
}

/// Locking and unlocking one uncontended line.
fn lock_unlock() -> f64 {
    let mut sys = table2(32);
    let line = LineAddr(42);
    ns_per_op(100_000, || {
        sys.lock_line(CoreId(0), black_box(line))
            .expect("an uncontended lock");
        sys.unlock_line(CoreId(0), line);
    })
}

/// A 32-line lock list taken as lexicographical groups, 4 lines in each
/// of 8 directory sets, then released in bulk, as an NS-CL lock pass and
/// its commit do.
fn lock_group_32() -> f64 {
    let cfg = CoherenceConfig::table2(32);
    let sets = cfg.directory.sets as u64;
    let groups: Vec<Vec<LineAddr>> = (0..8)
        .map(|set| (0..4).map(|k| LineAddr(16 + set + k * sets)).collect())
        .collect();
    let mut sys = CoherenceSystem::new(cfg);
    ns_per_op(10_000, || {
        for group in &groups {
            sys.lock_group(CoreId(1), group)
                .expect("an uncontended group");
        }
        sys.unlock_all(CoreId(1));
    })
}

fn ert_lookup() -> f64 {
    let mut ert = Ert::new(16);
    for key in 0..16 {
        ert.entry(key);
    }
    ns_per_op(1_000_000, || {
        black_box(ert.lookup(black_box(7)).is_some());
    })
}

/// Per line of a 32-line ALT fill, as a discovery run builds it.
fn alt_observe() -> f64 {
    let dir = directory();
    ns_per_op(20_000, || {
        let mut alt = Alt::new(32, dir);
        for i in 0..32u64 {
            alt.observe(LineAddr(i * 37), i % 3 == 0)
                .expect("32 lines fit");
        }
        black_box(alt.len());
    }) / 32.0
}

fn alt_lock_list() -> f64 {
    let mut alt = Alt::new(32, directory());
    for i in 0..32u64 {
        alt.observe(LineAddr(i * 37), i % 2 == 0)
            .expect("32 lines fit");
    }
    let mut list = Vec::new();
    ns_per_op(200_000, || {
        alt.lock_list_into(&mut list);
        black_box(list.len());
    })
}

fn crt_record_take() -> f64 {
    let mut crt = Crt::new(8, 8);
    let mut i = 0u64;
    ns_per_op(500_000, || {
        i = i.wrapping_add(1);
        crt.record(LineAddr(i % 128));
        black_box(crt.take(LineAddr((i + 64) % 128)));
    })
}

fn resolve() -> f64 {
    let tx = |core| TxInfo {
        core: CoreId(core),
        power: false,
        scl: false,
    };
    let victims = [tx(1), tx(2)];
    ns_per_op(1_000_000, || {
        black_box(resolve_conflict(
            HtmFlavor::RequesterWins,
            black_box(tx(0)),
            black_box(&victims),
        ));
    })
}

/// One time-to-commit sample, as the machine's commit hook records it.
fn observe() -> f64 {
    let mut registry = MetricsRegistry::new();
    let mut value = 0u64;
    ns_per_op(200_000, || {
        value = (value + 97) & 0xffff;
        registry.observe(
            families::TTC_CYCLES,
            &[("mode", "nscl"), ("backend", "clear")],
            black_box(value),
        );
    })
}

/// Longest solo execution accepted before an AR counts as stuck.
const STEP_CAP: u64 = 1_000_000;

/// `Vm::step` over the workload's own AR programs: the first invocations a
/// fresh instance of each benchmark issues to every thread, executed solo
/// against its initial memory image.
fn vm_step(kind: Kind, seed: u64) -> f64 {
    let mut programs: Vec<(Memory, Vec<ArInvocation>)> = Vec::new();
    let mut seen = Vec::new();
    for leg in legs(kind) {
        if seen.contains(&leg.bench) {
            continue;
        }
        seen.push(leg.bench);
        let mut workload =
            by_name(leg.bench, leg.size, seed).expect("the benchmark's workload names exist");
        let mut memory = Memory::new();
        workload.setup(&mut memory, leg.cores);
        let mut invocations = Vec::new();
        for _ in 0..4 {
            for tid in 0..leg.cores {
                invocations.extend(workload.next_ar(tid, &memory));
            }
        }
        programs.push((memory, invocations));
    }
    let (mut steps, start) = (0u64, Instant::now());
    while start.elapsed().as_secs_f64() < 0.2 {
        for (memory, invocations) in &programs {
            for inv in invocations {
                steps += execute(inv, memory);
            }
        }
        if steps == 0 {
            return 0.0;
        }
    }
    start.elapsed().as_nanos() as f64 / steps as f64
}

/// Runs one invocation to its end; loads read `memory` and stores are
/// dropped. Returns the instructions retired.
fn execute(inv: &ArInvocation, memory: &Memory) -> u64 {
    let mut vm = Vm::new(Arc::clone(&inv.program));
    for &(reg, value) in &inv.args {
        vm.set_reg(reg, value);
    }
    for steps in 1..=STEP_CAP {
        match vm.step() {
            Effect::Load { addr, .. } => {
                // A simulated fault ends the attempt.
                if addr == Addr::NULL || !addr.is_word_aligned() {
                    return steps;
                }
                vm.finish_load(memory.load_word(addr));
            }
            Effect::Commit | Effect::Abort { .. } => return steps,
            _ => {}
        }
    }
    STEP_CAP
}
