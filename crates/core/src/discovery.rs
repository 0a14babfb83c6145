//! The discovery phase (§4.1/§4.2): learning an AR's footprint and
//! mutability during its speculative execution.

use crate::{Alt, ClearConfig, RetryMode};
use clear_mem::{CacheGeometry, LineAddr};
use std::fmt;

/// The coarse dynamic class of one discovery decision, in the vocabulary
/// shared with the static analyzer (`clear-analysis`): what the machine
/// *observed* about an AR execution, comparable against what the analyzer
/// *predicted* from program text alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObservedClass {
    /// The footprint overflowed a core structure (ALT/L1/SQ) — the AR is
    /// non-convertible (assessment 1).
    Overflowed,
    /// The footprint fit but cannot be simultaneously locked
    /// (assessment 2).
    Unlockable,
    /// No indirections observed: the footprint is immutable on a retry
    /// (assessment 3) — the AR is NS-CL eligible.
    Immutable,
    /// Indirections (or dependent branches) observed: the footprint can
    /// mutate on a retry — at best S-CL.
    Mutable,
}

impl ObservedClass {
    /// The class implied by a Fig. 2 retry-mode decision. `Fallback` maps
    /// to `Overflowed`: the retry policy only takes that path once the AR
    /// cannot be converted.
    pub fn from_mode(mode: RetryMode, immutable: bool) -> ObservedClass {
        match mode {
            RetryMode::NsCl => ObservedClass::Immutable,
            RetryMode::SCl => ObservedClass::Mutable,
            RetryMode::SpeculativeRetry | RetryMode::Fallback => {
                if immutable {
                    ObservedClass::Overflowed
                } else {
                    ObservedClass::Mutable
                }
            }
        }
    }
}

impl fmt::Display for ObservedClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObservedClass::Overflowed => "overflowed",
            ObservedClass::Unlockable => "unlockable",
            ObservedClass::Immutable => "immutable",
            ObservedClass::Mutable => "mutable",
        };
        f.write_str(s)
    }
}

/// The verdict of a completed discovery, feeding the Fig. 2 decision tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiscoveryAssessment {
    /// Assessment 1 — the AR overflowed the speculation window (ALT
    /// capacity, L1 footprint or SQ during failed mode). Non-convertible.
    pub overflowed: bool,
    /// Assessment 2 — the learned footprint can be simultaneously locked
    /// (no cache/directory conflicts among the lines).
    pub lockable: bool,
    /// Assessment 3 — no indirections and no dependent branches were
    /// observed: the footprint is immutable on a retry.
    pub immutable: bool,
    /// The learned footprint in lock order (empty when overflowed).
    pub footprint: Vec<LineAddr>,
    /// The subset of the footprint that was written.
    pub written: Vec<LineAddr>,
}

impl DiscoveryAssessment {
    /// Collapses the three assessments into the [`ObservedClass`]
    /// vocabulary shared with the static analyzer, in the same priority
    /// order as the Fig. 2 decision tree.
    pub fn observed_class(&self) -> ObservedClass {
        if self.overflowed {
            ObservedClass::Overflowed
        } else if !self.lockable {
            ObservedClass::Unlockable
        } else if self.immutable {
            ObservedClass::Immutable
        } else {
            ObservedClass::Mutable
        }
    }
}

/// Per-execution discovery state.
///
/// One `Discovery` is (re-)armed at each AR invocation (`XBegin`) unless
/// the ERT says the AR is non-convertible. The machine feeds it every
/// retired memory access and branch; after the AR ends (commit, `XEnd` in
/// failed mode, explicit abort or resource exhaustion) it is
/// [assessed](Discovery::assess).
///
/// # Examples
///
/// ```
/// use clear_core::{ClearConfig, Discovery};
/// use clear_mem::{CacheGeometry, LineAddr};
///
/// let mut d = Discovery::new(&ClearConfig::default(), CacheGeometry::new(64, 16));
/// d.on_access(LineAddr(1), true, false);
/// d.on_access(LineAddr(2), false, true); // indirect read
/// let a = d.assess(|_| true);
/// assert!(!a.immutable);
/// assert!(a.lockable);
/// ```
#[derive(Clone, Debug)]
pub struct Discovery {
    alt: Alt,
    /// A conflict arrived: the execution continues in *failed mode*.
    failed: bool,
    /// An indirect address or dependent branch was retired.
    has_indirection: bool,
    /// Footprint exceeded the ALT or the SQ overflowed in failed mode.
    overflowed: bool,
    /// Stores retired while in failed mode (bounded by the SQ).
    stores_in_failed: u64,
}

impl Discovery {
    /// Arms a fresh discovery.
    pub fn new(config: &ClearConfig, dir: CacheGeometry) -> Self {
        Discovery {
            alt: Alt::new(config.alt_entries, dir),
            failed: false,
            has_indirection: false,
            overflowed: false,
            stores_in_failed: 0,
        }
    }

    /// Re-arms for a new AR invocation, keeping the allocated ALT storage.
    pub fn rearm(&mut self) {
        self.alt.clear();
        self.failed = false;
        self.has_indirection = false;
        self.overflowed = false;
        self.stores_in_failed = 0;
    }

    /// `true` once a conflict has been observed (failed mode, §4.1).
    pub fn in_failed_mode(&self) -> bool {
        self.failed
    }

    /// `true` if discovery gave up due to resource exhaustion.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Stores retired since failed mode began.
    pub fn stores_in_failed(&self) -> u64 {
        self.stores_in_failed
    }

    /// The ALT being populated.
    pub fn alt(&self) -> &Alt {
        &self.alt
    }

    /// Consumes discovery, yielding the populated ALT for the retry.
    pub fn into_alt(self) -> Alt {
        self.alt
    }

    /// Records a retired memory access: its cacheline, whether it was a
    /// store, and whether its address base register carried the indirection
    /// bit.
    pub fn on_access(&mut self, line: LineAddr, written: bool, addr_indirect: bool) {
        if addr_indirect {
            self.has_indirection = true;
        }
        if self.alt.observe(line, written).is_err() {
            self.overflowed = true;
        }
        if self.failed && written {
            self.stores_in_failed += 1;
        }
    }

    /// Records a retired conditional branch whose comparands carried the
    /// indirection bit — a control dependence on loaded data (§3).
    pub fn on_branch(&mut self, cond_indirect: bool) {
        if cond_indirect {
            self.has_indirection = true;
        }
    }

    /// A conflict arrived: hold the abort and continue in failed mode.
    pub fn on_conflict(&mut self) {
        self.failed = true;
    }

    /// Failed-mode stores exceeded the store queue: discovery is hopeless
    /// (assessment 1); the ERT SQ-Full counter should be bumped.
    pub fn on_sq_overflow(&mut self) {
        self.overflowed = true;
    }

    /// Produces the final assessment. `fits_locked` is the coherence-layer
    /// test that the footprint can be held locked simultaneously
    /// (cache/directory conflict check, assessment 2).
    pub fn assess<F>(&self, fits_locked: F) -> DiscoveryAssessment
    where
        F: FnOnce(&[LineAddr]) -> bool,
    {
        let footprint = self.alt.footprint();
        let lockable = !self.overflowed && fits_locked(&footprint);
        DiscoveryAssessment {
            overflowed: self.overflowed,
            lockable,
            immutable: !self.has_indirection,
            written: self
                .alt
                .iter()
                .filter(|e| e.needs_locking)
                .map(|e| e.line)
                .collect(),
            footprint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disc() -> Discovery {
        Discovery::new(&ClearConfig::default(), CacheGeometry::new(16, 4))
    }

    #[test]
    fn clean_small_footprint_is_immutable_and_lockable() {
        let mut d = disc();
        d.on_access(LineAddr(1), true, false);
        d.on_access(LineAddr(2), false, false);
        d.on_branch(false);
        let a = d.assess(|_| true);
        assert!(!a.overflowed);
        assert!(a.lockable);
        assert!(a.immutable);
        assert_eq!(a.footprint.len(), 2);
        assert_eq!(a.written, vec![LineAddr(1)]);
    }

    #[test]
    fn indirect_address_clears_immutable() {
        let mut d = disc();
        d.on_access(LineAddr(1), false, true);
        let a = d.assess(|_| true);
        assert!(!a.immutable);
        assert!(a.lockable);
    }

    #[test]
    fn dependent_branch_clears_immutable() {
        let mut d = disc();
        d.on_access(LineAddr(1), false, false);
        d.on_branch(true);
        assert!(!d.assess(|_| true).immutable);
    }

    #[test]
    fn alt_overflow_marks_overflowed() {
        let cfg = ClearConfig {
            alt_entries: 2,
            ..ClearConfig::default()
        };
        let mut d = Discovery::new(&cfg, CacheGeometry::new(16, 4));
        for l in 0..3u64 {
            d.on_access(LineAddr(l), false, false);
        }
        let a = d.assess(|_| true);
        assert!(a.overflowed);
        assert!(!a.lockable);
    }

    #[test]
    fn unlockable_footprint_reported() {
        let mut d = disc();
        d.on_access(LineAddr(1), true, false);
        let a = d.assess(|_| false);
        assert!(!a.lockable);
        assert!(!a.overflowed);
    }

    #[test]
    fn failed_mode_counts_stores() {
        let mut d = disc();
        d.on_access(LineAddr(1), true, false);
        assert_eq!(d.stores_in_failed(), 0);
        d.on_conflict();
        assert!(d.in_failed_mode());
        d.on_access(LineAddr(2), true, false);
        d.on_access(LineAddr(3), false, false);
        assert_eq!(d.stores_in_failed(), 1);
    }

    #[test]
    fn sq_overflow_is_overflow() {
        let mut d = disc();
        d.on_conflict();
        d.on_sq_overflow();
        assert!(d.overflowed());
        assert!(d.assess(|_| true).overflowed);
    }

    #[test]
    fn observed_class_follows_decision_priority() {
        let mut d = disc();
        d.on_access(LineAddr(1), true, false);
        assert_eq!(
            d.assess(|_| true).observed_class(),
            ObservedClass::Immutable
        );
        assert_eq!(
            d.assess(|_| false).observed_class(),
            ObservedClass::Unlockable
        );
        d.on_access(LineAddr(2), false, true);
        assert_eq!(d.assess(|_| true).observed_class(), ObservedClass::Mutable);
        d.on_sq_overflow();
        assert_eq!(
            d.assess(|_| true).observed_class(),
            ObservedClass::Overflowed
        );
    }

    #[test]
    fn observed_class_from_mode_matches_decide() {
        use crate::decide;
        // Every (mode, immutable) pair recoverable from a Decision trace
        // event maps back to a class consistent with the assessment that
        // produced the mode.
        for overflowed in [false, true] {
            for lockable in [false, true] {
                for immutable in [false, true] {
                    let a = DiscoveryAssessment {
                        overflowed,
                        lockable,
                        immutable,
                        footprint: vec![],
                        written: vec![],
                    };
                    let from_mode = ObservedClass::from_mode(decide(&a), immutable);
                    let exact = a.observed_class();
                    // Unlockable is indistinguishable from Overflowed at
                    // the mode level (both retry speculatively).
                    let expect = match exact {
                        ObservedClass::Unlockable if immutable => ObservedClass::Overflowed,
                        ObservedClass::Unlockable => ObservedClass::Mutable,
                        ObservedClass::Overflowed if !immutable => ObservedClass::Mutable,
                        c => c,
                    };
                    assert_eq!(
                        from_mode, expect,
                        "ov={overflowed} lk={lockable} im={immutable}"
                    );
                }
            }
        }
    }

    #[test]
    fn observed_class_display() {
        assert_eq!(ObservedClass::Overflowed.to_string(), "overflowed");
        assert_eq!(ObservedClass::Unlockable.to_string(), "unlockable");
        assert_eq!(ObservedClass::Immutable.to_string(), "immutable");
        assert_eq!(ObservedClass::Mutable.to_string(), "mutable");
    }

    #[test]
    fn rearm_resets_everything() {
        let mut d = disc();
        d.on_access(LineAddr(1), true, true);
        d.on_conflict();
        d.on_sq_overflow();
        d.rearm();
        assert!(!d.in_failed_mode());
        assert!(!d.overflowed());
        let a = d.assess(|_| true);
        assert!(a.immutable);
        assert!(a.footprint.is_empty());
    }
}
