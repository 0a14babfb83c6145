//! Execution tracing: a per-core, cycle-timestamped stream of AR
//! lifecycle events with conflict attribution.
//!
//! Disabled by default (zero overhead beyond a branch); enable with
//! [`Machine::enable_tracing`](crate::Machine::enable_tracing) to record
//! every attempt start, conflict (with the conflicting line and aggressor
//! core), discovery transition, decision, lock acquisition (with wait
//! cycles), commit and abort (with the attempt's cycle span) as
//! [`TraceRecord`]s.
//!
//! Records flow through a bounded ring buffer: once `capacity` records
//! are retained, each new record evicts the oldest and bumps an
//! overflow-drop counter, so a runaway run degrades into a flight
//! recorder of the most recent events instead of exhausting memory. The
//! recorded/dropped totals surface through
//! [`PerfCounters`](crate::PerfCounters).
//!
//! The stream is a pure function of the simulated run, so
//! [`Trace::digest`] — an FxHash over every deterministic field — is a
//! byte-stable fingerprint of the whole protocol state machine: the
//! harness's `backend-shootout` experiment gates it per (benchmark,
//! backend) cell against a golden, and the `trace` subcommand exports the
//! stream as a Chrome-trace JSON timeline.

use clear_core::RetryMode;
use clear_htm::AbortKind;
use clear_isa::ArId;
use clear_mem::{FxHasher, LineAddr};
use std::fmt;
use std::hash::{Hash, Hasher};

/// One traced event.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// A new AR invocation was fetched from the workload.
    ArFetched {
        /// Static AR identity.
        ar: ArId,
    },
    /// An attempt began in the given mode.
    AttemptStart {
        /// The planned mode of this attempt.
        mode: RetryMode,
    },
    /// A conflict reached this core while it was speculating.
    ConflictReceived {
        /// The line whose transactional copy was stolen.
        line: LineAddr,
        /// The core whose access (or lock acquisition) caused the steal.
        aggressor: usize,
    },
    /// The core entered failed-mode discovery instead of aborting (§4.1).
    EnterFailedMode,
    /// Discovery finished and the Fig. 2 decision tree chose a retry mode.
    Decision {
        /// The AR the decision is for.
        ar: ArId,
        /// The chosen mode.
        mode: RetryMode,
        /// Lines in the learned footprint.
        footprint: usize,
        /// Whether the footprint was assessed immutable.
        immutable: bool,
    },
    /// A cacheline lock was acquired (NS-CL / S-CL lock pass).
    LockAcquired {
        /// The locked line.
        line: LineAddr,
        /// Cycles spent spinning before this acquisition succeeded.
        /// Attributed to the first line of a lexicographical lock group;
        /// the rest of the group reports zero.
        wait_cycles: u64,
    },
    /// The attempt aborted.
    Abort {
        /// Why.
        kind: AbortKind,
        /// Cycles from the attempt's start to the abort.
        span: u64,
    },
    /// The AR committed.
    Commit {
        /// The mode it committed in.
        mode: RetryMode,
        /// Total retries the invocation took.
        retries: u32,
    },
    /// A static plan supplied the lock set and the discovery run was
    /// skipped: the AR goes straight to NS-CL.
    ///
    /// Declared last on purpose: [`Trace::digest`] hashes the derived
    /// discriminant, so appending (rather than inserting) new variants
    /// keeps plan-free runs' digests byte-identical to prior goldens.
    DiscoveryElided {
        /// The planned AR.
        ar: ArId,
        /// `true` when the plan was applied at fetch (observed contention)
        /// rather than in reaction to a conflict.
        eager: bool,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::ArFetched { ar } => write!(f, "fetch {ar}"),
            TraceEvent::AttemptStart { mode } => write!(f, "start {mode}"),
            TraceEvent::ConflictReceived { line, aggressor } => {
                write!(f, "conflict {line} from core{aggressor}")
            }
            TraceEvent::EnterFailedMode => write!(f, "enter-failed-mode"),
            TraceEvent::Decision {
                ar,
                mode,
                footprint,
                immutable,
            } => {
                write!(
                    f,
                    "decide {ar} -> {mode} (fp={footprint}, immutable={immutable})"
                )
            }
            TraceEvent::DiscoveryElided { ar, eager } => {
                write!(f, "elide-discovery {ar} (eager={eager})")
            }
            TraceEvent::LockAcquired { line, wait_cycles } => {
                write!(f, "lock {line} (waited {wait_cycles})")
            }
            TraceEvent::Abort { kind, span } => write!(f, "abort {kind} after {span} cycles"),
            TraceEvent::Commit { mode, retries } => {
                write!(f, "commit {mode} after {retries} retries")
            }
        }
    }
}

impl TraceEvent {
    /// Short category label, stable across formatting changes — the name
    /// Chrome-trace exporters and histograms group by.
    pub fn label(&self) -> &'static str {
        match self {
            TraceEvent::ArFetched { .. } => "fetch",
            TraceEvent::AttemptStart { .. } => "attempt",
            TraceEvent::ConflictReceived { .. } => "conflict",
            TraceEvent::EnterFailedMode => "enter-failed-mode",
            TraceEvent::Decision { .. } => "decision",
            TraceEvent::DiscoveryElided { .. } => "elide-discovery",
            TraceEvent::LockAcquired { .. } => "lock",
            TraceEvent::Abort { .. } => "abort",
            TraceEvent::Commit { .. } => "commit",
        }
    }
}

/// One recorded event with its cycle timestamp and core.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// Core-local cycle at which the event was emitted.
    pub cycle: u64,
    /// The emitting core.
    pub core: usize,
    /// What happened.
    pub event: TraceEvent,
}

/// A recorded trace: a bounded ring buffer of [`TraceRecord`]s.
#[derive(Clone, Debug)]
pub struct Trace {
    enabled: bool,
    capacity: usize,
    buf: Vec<TraceRecord>,
    /// Index of the oldest retained record once the buffer has wrapped.
    head: usize,
    recorded: u64,
    dropped: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl Trace {
    /// Default ring capacity: large enough that the bundled workloads at
    /// every harness size retain their full streams.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Creates a disabled trace with the default ring capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a disabled trace retaining at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be nonzero");
        Trace {
            enabled: false,
            capacity,
            buf: Vec::new(),
            head: 0,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Turns recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// `true` when recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records an event (no-op while disabled). Once the ring is full the
    /// oldest record is evicted and counted as dropped.
    pub(crate) fn record(&mut self, cycle: u64, core: usize, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.recorded += 1;
        let rec = TraceRecord { cycle, core, event };
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Total records emitted while enabled (retained or dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Records evicted by ring-buffer overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained records.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Retained records in emission order, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Events of one core, in order.
    pub fn core_events(&self, core: usize) -> impl Iterator<Item = &TraceEvent> {
        self.records()
            .filter(move |r| r.core == core)
            .map(|r| &r.event)
    }

    /// Commit events in serialization order.
    ///
    /// [`crate::Machine`] records a [`TraceEvent::Commit`] at the instant
    /// an attempt's stores become globally visible (speculative modes
    /// drain the store queue immediately after; locked and fallback modes
    /// wrote to memory earlier, but under locks that are only released
    /// here), so the order of commit events across cores *is* a valid
    /// serialization of the run's atomic regions. Differential oracles
    /// replay invocations sequentially in this order. Yields
    /// `(core, mode, retries)` per commit.
    pub fn commits(&self) -> impl Iterator<Item = (usize, RetryMode, u32)> + '_ {
        self.records().filter_map(|r| match r.event {
            TraceEvent::Commit { mode, retries } => Some((r.core, mode, retries)),
            _ => None,
        })
    }

    /// FxHash fingerprint of the stream: every deterministic field of
    /// every retained record plus the recorded/dropped totals. Two runs
    /// with the same options produce the same digest; any reordering of
    /// the protocol state machine changes it even when aggregate
    /// statistics coincide.
    pub fn digest(&self) -> u64 {
        let mut h = FxHasher::default();
        self.recorded.hash(&mut h);
        self.dropped.hash(&mut h);
        for r in self.records() {
            r.hash(&mut h);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new();
        t.record(
            1,
            0,
            TraceEvent::ConflictReceived {
                line: LineAddr(1),
                aggressor: 2,
            },
        );
        assert!(t.is_empty());
        assert_eq!(t.recorded(), 0);
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::new();
        t.enable();
        t.record(
            5,
            1,
            TraceEvent::ConflictReceived {
                line: LineAddr(4),
                aggressor: 0,
            },
        );
        t.record(9, 0, TraceEvent::EnterFailedMode);
        assert_eq!(t.len(), 2);
        assert_eq!(t.records().next().unwrap().cycle, 5);
        assert_eq!(t.core_events(1).count(), 1);
        assert_eq!(t.core_events(0).count(), 1);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let mut t = Trace::with_capacity(2);
        t.enable();
        for cycle in 0..5 {
            t.record(cycle, 0, TraceEvent::EnterFailedMode);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.dropped(), 3);
        let cycles: Vec<u64> = t.records().map(|r| r.cycle).collect();
        assert_eq!(cycles, [3, 4], "oldest evicted, order preserved");
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mk = |cycles: &[u64]| {
            let mut t = Trace::new();
            t.enable();
            for &c in cycles {
                t.record(c, 1, TraceEvent::EnterFailedMode);
            }
            t.digest()
        };
        assert_eq!(mk(&[1, 2, 3]), mk(&[1, 2, 3]));
        assert_ne!(mk(&[1, 2, 3]), mk(&[1, 3, 2]), "reordering must show");
        assert_ne!(mk(&[1, 2]), mk(&[1, 2, 3]));
    }

    #[test]
    fn events_display() {
        let e = TraceEvent::Decision {
            ar: ArId(2),
            mode: RetryMode::NsCl,
            footprint: 3,
            immutable: true,
        };
        assert_eq!(e.to_string(), "decide AR2 -> NS-CL (fp=3, immutable=true)");
        assert_eq!(
            TraceEvent::LockAcquired {
                line: LineAddr(2),
                wait_cycles: 7
            }
            .to_string(),
            "lock L0x2 (waited 7)"
        );
        assert_eq!(
            TraceEvent::ConflictReceived {
                line: LineAddr(3),
                aggressor: 5
            }
            .to_string(),
            "conflict L0x3 from core5"
        );
        assert_eq!(
            TraceEvent::Abort {
                kind: AbortKind::Nacked,
                span: 42
            }
            .to_string(),
            "abort nacked after 42 cycles"
        );
    }
}
