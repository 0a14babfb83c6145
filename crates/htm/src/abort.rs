//! Abort taxonomy (Fig. 11 of the paper).

use std::fmt;

/// Why an atomic region aborted, ordered roughly from cheap to expensive
/// (the grouping of Fig. 11).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortKind {
    /// A transactional memory conflict (remote access hit the read/write
    /// set, or this AR lost requester-wins arbitration).
    MemoryConflict,
    /// The thread attempted to start a speculative AR but found the
    /// fallback lock taken.
    ExplicitFallback,
    /// The AR was running speculatively when another thread took the
    /// fallback lock (the subscribed lock line was invalidated).
    OtherFallback,
    /// Speculative resources overflowed: the read/write set no longer fits
    /// the L1, or the store queue filled during failed-mode discovery.
    Capacity,
    /// A request was NACKed by a power-mode or S-CL transaction (§5.2) or
    /// by a locked cacheline (§4.4.2), aborting the requester.
    Nacked,
    /// The program executed `XAbort`.
    Explicit,
    /// A static-plan guard fired: an NS-CL attempt driven by an
    /// analyzer-emitted lock set touched a line the plan had not locked.
    /// The plan is poisoned and the AR falls back to normal discovery.
    PlanViolation,
    /// Everything else (exceptions, interrupts, non-memory aborts).
    Other,
}

impl AbortKind {
    /// Whether this abort increments the bounded-retry counter.
    ///
    /// The paper notes that fallback-lock-related aborts do not advance the
    /// counter toward the fallback threshold (which is why some apps show
    /// more than `max_retries` retries in Fig. 13).
    pub fn counts_toward_retry_limit(self) -> bool {
        !matches!(self, AbortKind::ExplicitFallback | AbortKind::OtherFallback)
    }

    /// All abort kinds, in Fig. 11 display order.
    pub const ALL: [AbortKind; 8] = [
        AbortKind::MemoryConflict,
        AbortKind::ExplicitFallback,
        AbortKind::OtherFallback,
        AbortKind::Capacity,
        AbortKind::Nacked,
        AbortKind::Explicit,
        AbortKind::PlanViolation,
        AbortKind::Other,
    ];

    /// Stable display name (metrics labels and JSON keys use it without
    /// allocating).
    pub fn name(self) -> &'static str {
        match self {
            AbortKind::MemoryConflict => "memory-conflict",
            AbortKind::ExplicitFallback => "explicit-fallback",
            AbortKind::OtherFallback => "other-fallback",
            AbortKind::Capacity => "capacity",
            AbortKind::Nacked => "nacked",
            AbortKind::Explicit => "explicit",
            AbortKind::PlanViolation => "plan-violation",
            AbortKind::Other => "other",
        }
    }
}

impl fmt::Display for AbortKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_matches_display_for_every_kind() {
        for kind in AbortKind::ALL {
            assert_eq!(kind.name(), kind.to_string());
        }
    }

    #[test]
    fn fallback_aborts_do_not_count() {
        assert!(!AbortKind::ExplicitFallback.counts_toward_retry_limit());
        assert!(!AbortKind::OtherFallback.counts_toward_retry_limit());
    }

    #[test]
    fn conflict_and_capacity_count() {
        assert!(AbortKind::MemoryConflict.counts_toward_retry_limit());
        assert!(AbortKind::Capacity.counts_toward_retry_limit());
        assert!(AbortKind::Nacked.counts_toward_retry_limit());
        assert!(AbortKind::Explicit.counts_toward_retry_limit());
        assert!(AbortKind::PlanViolation.counts_toward_retry_limit());
        assert!(AbortKind::Other.counts_toward_retry_limit());
    }

    #[test]
    fn all_lists_every_kind_once() {
        let mut v = AbortKind::ALL.to_vec();
        v.dedup();
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn display_is_kebab() {
        assert_eq!(AbortKind::MemoryConflict.to_string(), "memory-conflict");
        assert_eq!(AbortKind::Nacked.to_string(), "nacked");
    }
}
