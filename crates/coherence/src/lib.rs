//! Directory-based MESI coherence with cacheline locking for the CLEAR
//! reproduction.
//!
//! This crate models the coherence substrate the paper's hardware runs on
//! (gem5 Ruby, three-level MESI, Table 2), at the granularity CLEAR
//! interacts with:
//!
//! * per-core private caches tracked as set-associative tag stores with
//!   MESI state, **cacheline-lock** bit and HTM read/write-set bits;
//! * a directory recording owner/sharers and which core holds each line
//!   locked;
//! * a **two-phase access API**: [`CoherenceSystem::probe`] reports what an
//!   access *would* do (which remote transactional copies it would
//!   invalidate, whether it hits a locked line), so the HTM/CLEAR policy
//!   layer can decide between proceeding ([`CoherenceSystem::apply`]),
//!   NACKing the requester, or retrying — the Fig. 5/6 deadlock-avoidance
//!   behaviours;
//! * latency classification per Table 2 (L1 1, L2 10, L3 45, memory 80
//!   cycles) with an L2-shadow / LLC presence model.
//!
//! Data never lives in the modelled caches — all values reside in the flat
//! [`clear_mem::Memory`]; the caches track *permission and ownership* only.
//! This is safe because speculative store data is buffered in the store
//! queue (machine layer) until commit, so no other core can ever observe
//! uncommitted data through this crate.
//!
//! # Examples
//!
//! ```
//! use clear_coherence::{Access, CoherenceConfig, CoherenceSystem, CoreId, TxTrack};
//! use clear_mem::LineAddr;
//!
//! let mut sys = CoherenceSystem::new(CoherenceConfig::small(2));
//! let l = LineAddr(5);
//! // Core 0 writes the line transactionally.
//! sys.apply(CoreId(0), l, Access::Write, TxTrack::Write).unwrap();
//! // Core 1 probing a write sees it would hit core 0's write set.
//! let p = sys.probe(CoreId(1), l, Access::Write);
//! assert!(p.remote_impacts.iter().any(|i| i.core == CoreId(0) && i.tx_write));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod system;
mod types;

pub use config::CoherenceConfig;
pub use system::{
    ApplyOk, CoherenceStats, CoherenceSystem, ProbeResult, RemoteImpact, ShardProfile,
};
pub use types::{Access, CoreId, LockFail, MesiState, ServedBy, TxTrack};
