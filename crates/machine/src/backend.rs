//! Pluggable speculation backends: the attempt/conflict/fallback policy
//! surface of the machine as a trait.
//!
//! The machine's mechanism — coherence, scheduling, workloads,
//! statistics — is shared by every HTM design point; what differs between
//! CLEAR, requester-wins TSX, PowerTM, SLE and the FORTH limited
//! read/write-set scheme is *policy*: how conflicts are arbitrated, when
//! an AR gives up and takes the fallback path, whether cacheline-locked
//! re-execution (CLEAR) is available, how far speculation may extend, and
//! which structural bounds raise capacity aborts. [`SpeculationBackend`]
//! captures exactly that surface, so a new backend is one `impl` instead
//! of a fork of the attempt/conflict/locking paths.
//!
//! The configuration carries its backend
//! ([`MachineConfig::backend`]) and [`Machine::new`](crate::Machine::new)
//! runs whatever it finds there, built-in or custom. Each built-in
//! backend struct carries its own settings (CLEAR structure sizes, the
//! substrate flavour, the speculation kind, the R/W-set bounds), so only
//! valid combinations can be written down. [`BackendId`] names the
//! built-in backends; the paper's presets map onto it
//! ([`Preset::backend`](crate::Preset::backend)).

use crate::{MachineConfig, SpeculationKind};
use clear_core::{ClearConfig, RetryMode};
use clear_htm::{resolve_conflict, HtmFlavor, LrwsConfig, Resolution, RetryPolicy, TxInfo};
use std::sync::Arc;

/// The policy surface of one speculation design point.
///
/// Implementations must be deterministic pure functions of their inputs:
/// the machine calls these on the hot path and replays must be
/// byte-identical. The default methods encode the common best-effort-HTM
/// behaviour; backends override only where they differ.
pub trait SpeculationBackend: std::fmt::Debug + Send + Sync {
    /// Short stable name (report keys, trace phases, CLI selection).
    fn name(&self) -> &'static str;

    /// CLEAR configuration when cacheline-locked re-execution (NS-CL/S-CL
    /// discovery, ERT/ALT/CRT) is part of this backend; `None` disables
    /// the whole CLEAR path.
    fn clear(&self) -> Option<&ClearConfig> {
        None
    }

    /// How far speculation extends: HTM-backed (cache-tracked) or in-core
    /// only (ROB/SQ-delimited, SLE-style).
    fn speculation(&self) -> SpeculationKind {
        SpeculationKind::Htm
    }

    /// Arbitrates a transactional conflict between `requester` and the
    /// conflicting `victims`.
    fn resolve(&self, requester: TxInfo, victims: &[TxInfo]) -> Resolution;

    /// `true` when a once-aborted transaction competes for the global
    /// PowerTM power token on its retry.
    fn acquires_power_token(&self) -> bool {
        false
    }

    /// `true` when an AR with `counted_retries` failed attempts must take
    /// the fallback path instead of retrying speculatively.
    fn must_fall_back(&self, policy: &RetryPolicy, counted_retries: u32) -> bool {
        policy.must_fall_back(counted_retries)
    }

    /// `true` for re-execution modes whose attempts cannot abort once
    /// started — the paper's single-retry bound. Only CLEAR's NS-CL mode
    /// makes that promise (every footprint line is held locked and the
    /// body retires non-speculatively); best-effort backends guarantee
    /// nothing, so conformance oracles scanning for a violated bound get
    /// an honest `false` instead of a CLEAR-specific enum check that
    /// silently passes.
    fn guarantees_commit(&self, mode: RetryMode) -> bool {
        self.clear().is_some() && mode == RetryMode::NsCl
    }

    /// Read/write-set capacity bounds when this backend tracks
    /// speculative footprints in limited dedicated buffers (the FORTH
    /// scheme); `None` leaves footprint tracking to the cache hierarchy.
    fn rw_limits(&self) -> Option<LrwsConfig> {
        None
    }

    /// `true` when an AR with a proved-immutable, complete static plan locks
    /// its lock set up front and runs non-speculatively (a-priori locking).
    fn locks_up_front(&self) -> bool {
        false
    }
}

/// Intel-TSX-like requester-wins best-effort HTM (preset **B**).
#[derive(Clone, Copy, Debug, Default)]
pub struct TsxBackend;

impl SpeculationBackend for TsxBackend {
    fn name(&self) -> &'static str {
        "tsx"
    }

    fn resolve(&self, requester: TxInfo, victims: &[TxInfo]) -> Resolution {
        resolve_conflict(HtmFlavor::RequesterWins, requester, victims)
    }
}

/// PowerTM: requester-wins plus a single global power token whose holder
/// wins every conflict (preset **P**).
#[derive(Clone, Copy, Debug, Default)]
pub struct PowerTmBackend;

impl SpeculationBackend for PowerTmBackend {
    fn name(&self) -> &'static str {
        "powertm"
    }

    fn resolve(&self, requester: TxInfo, victims: &[TxInfo]) -> Resolution {
        resolve_conflict(HtmFlavor::PowerTm, requester, victims)
    }

    fn acquires_power_token(&self) -> bool {
        true
    }
}

/// SLE-style in-core speculation: the reorder buffer delimits every
/// speculative window (§4.1), conflicts resolve requester-wins.
#[derive(Clone, Copy, Debug)]
pub struct SleBackend {
    /// Conflict arbitration underneath the in-core window (requester-wins
    /// unless a PowerTM substrate is being modelled).
    pub flavor: HtmFlavor,
}

impl Default for SleBackend {
    fn default() -> Self {
        SleBackend {
            flavor: HtmFlavor::RequesterWins,
        }
    }
}

impl SpeculationBackend for SleBackend {
    fn name(&self) -> &'static str {
        "sle"
    }

    fn speculation(&self) -> SpeculationKind {
        SpeculationKind::InCore
    }

    fn resolve(&self, requester: TxInfo, victims: &[TxInfo]) -> Resolution {
        resolve_conflict(self.flavor, requester, victims)
    }

    fn acquires_power_token(&self) -> bool {
        self.flavor == HtmFlavor::PowerTm
    }
}

/// CLEAR over a best-effort substrate: single-retry bounding via
/// discovery and cacheline-locked re-execution (presets **C**/**W**, and
/// the CLEAR-SLE extension when `speculation` is in-core).
#[derive(Clone, Copy, Debug)]
pub struct ClearBackend {
    /// CLEAR structure sizes and policies.
    pub clear: ClearConfig,
    /// The substrate HTM flavour (requester-wins for C, PowerTM for W).
    pub flavor: HtmFlavor,
    /// The substrate speculation kind (HTM-backed or in-core).
    pub speculation: SpeculationKind,
}

impl Default for ClearBackend {
    fn default() -> Self {
        ClearBackend {
            clear: ClearConfig::default(),
            flavor: HtmFlavor::RequesterWins,
            speculation: SpeculationKind::Htm,
        }
    }
}

impl SpeculationBackend for ClearBackend {
    fn name(&self) -> &'static str {
        "clear"
    }

    fn clear(&self) -> Option<&ClearConfig> {
        Some(&self.clear)
    }

    fn speculation(&self) -> SpeculationKind {
        self.speculation
    }

    fn resolve(&self, requester: TxInfo, victims: &[TxInfo]) -> Resolution {
        resolve_conflict(self.flavor, requester, victims)
    }

    fn acquires_power_token(&self) -> bool {
        self.flavor == HtmFlavor::PowerTm
    }
}

/// The FORTH limited read/write-set HTM: speculative footprints live in
/// two small dedicated per-core buffers; overflowing either raises a
/// capacity abort. No ISA or coherence-protocol changes — conflicts still
/// resolve requester-wins over the unmodified protocol, and the bounded
/// retry policy plus the non-speculative fallback guarantee progress.
#[derive(Clone, Copy, Debug, Default)]
pub struct LrwsBackend {
    /// The buffer bounds, in cachelines.
    pub limits: LrwsConfig,
}

impl SpeculationBackend for LrwsBackend {
    fn name(&self) -> &'static str {
        "lrws"
    }

    fn resolve(&self, requester: TxInfo, victims: &[TxInfo]) -> Resolution {
        resolve_conflict(HtmFlavor::RequesterWins, requester, victims)
    }

    fn rw_limits(&self) -> Option<LrwsConfig> {
        Some(self.limits)
    }
}

/// The a-priori locking comparator of §2.2 (MCAS \[33\] / MAD atomics
/// \[16\]): requester-wins HTM that [locks up
/// front](SpeculationBackend::locks_up_front), exclusively and read-only
/// lines included, the lock set of every AR with a proved-immutable,
/// complete plan in [`MachineConfig::static_plans`]. Not a [`BackendId`].
#[derive(Clone, Copy, Debug, Default)]
pub struct MadBackend;

impl SpeculationBackend for MadBackend {
    fn name(&self) -> &'static str {
        "mad"
    }

    fn resolve(&self, requester: TxInfo, victims: &[TxInfo]) -> Resolution {
        resolve_conflict(HtmFlavor::RequesterWins, requester, victims)
    }

    fn locks_up_front(&self) -> bool {
        true
    }
}

/// The built-in backends by name: the single name → backend map that the
/// presets, the CLI's `--backend` flag and the harness sweeps share.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendId {
    /// Requester-wins TSX baseline.
    Tsx,
    /// PowerTM.
    PowerTm,
    /// In-core (SLE) speculation.
    Sle,
    /// CLEAR over requester-wins.
    Clear,
    /// Limited read/write-set HTM.
    Lrws,
    /// CLEAR over PowerTM (preset **W**).
    ClearPowerTm,
}

impl BackendId {
    /// The built-in backends the design-space sweeps cover, in shootout
    /// column order. [`BackendId::ClearPowerTm`] is reachable by name but
    /// not swept.
    pub const ALL: [BackendId; 5] = [
        BackendId::Tsx,
        BackendId::PowerTm,
        BackendId::Sle,
        BackendId::Clear,
        BackendId::Lrws,
    ];

    /// The backend's stable name.
    pub fn name(self) -> &'static str {
        match self {
            BackendId::Tsx => "tsx",
            BackendId::PowerTm => "powertm",
            BackendId::Sle => "sle",
            BackendId::Clear => "clear",
            BackendId::Lrws => "lrws",
            BackendId::ClearPowerTm => "clear-powertm",
        }
    }

    /// Resolves a name back to a backend.
    pub fn from_name(name: &str) -> Option<Self> {
        BackendId::ALL
            .into_iter()
            .chain([BackendId::ClearPowerTm])
            .find(|b| b.name() == name)
    }

    /// The backend this name stands for, with default structure sizes.
    pub fn backend(self) -> Arc<dyn SpeculationBackend> {
        match self {
            BackendId::Tsx => Arc::new(TsxBackend),
            BackendId::PowerTm => Arc::new(PowerTmBackend),
            BackendId::Sle => Arc::new(SleBackend::default()),
            BackendId::Clear => Arc::new(ClearBackend::default()),
            BackendId::Lrws => Arc::new(LrwsBackend::default()),
            BackendId::ClearPowerTm => Arc::new(ClearBackend {
                flavor: HtmFlavor::PowerTm,
                ..ClearBackend::default()
            }),
        }
    }

    /// Builds the Table 2 machine configuration running this backend.
    pub fn config(self, cores: usize, max_retries: u32) -> MachineConfig {
        MachineConfig {
            backend: self.backend(),
            retry: RetryPolicy::new(max_retries),
            ..MachineConfig::table2(cores)
        }
    }
}

impl std::fmt::Display for BackendId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Preset;

    /// The name → backend map, pinned for every name and preset:
    /// (id, trait name, CLEAR, power token, speculation, R/W limits).
    #[test]
    fn backend_ids_and_presets_map_to_their_backends() {
        use SpeculationKind::{Htm, InCore};
        let lrws = Some(LrwsConfig::default());
        let table = [
            (BackendId::Tsx, "tsx", false, false, Htm, None),
            (BackendId::PowerTm, "powertm", false, true, Htm, None),
            (BackendId::Sle, "sle", false, false, InCore, None),
            (BackendId::Clear, "clear", true, false, Htm, None),
            (BackendId::Lrws, "lrws", false, false, Htm, lrws),
            (BackendId::ClearPowerTm, "clear", true, true, Htm, None),
        ];
        for (id, name, clear, power, speculation, limits) in table {
            assert_eq!(BackendId::from_name(id.name()), Some(id));
            let cfg = id.config(8, 3);
            assert_eq!((cfg.cores, cfg.retry.max_retries), (8, 3));
            for b in [id.backend(), cfg.backend] {
                assert_eq!(b.name(), name, "{id}");
                assert_eq!(b.clear().is_some(), clear, "{id}");
                assert_eq!(b.acquires_power_token(), power, "{id}");
                assert_eq!(b.speculation(), speculation, "{id}");
                assert_eq!(b.rw_limits(), limits, "{id}");
            }
        }
        assert_eq!(BackendId::from_name("no-such"), None);
        let presets = [
            (Preset::B, BackendId::Tsx),
            (Preset::P, BackendId::PowerTm),
            (Preset::C, BackendId::Clear),
            (Preset::W, BackendId::ClearPowerTm),
        ];
        assert_eq!(presets.map(|(p, _)| p), Preset::ALL);
        for (preset, id) in presets {
            assert_eq!(preset.backend(), id);
            let (a, b) = (preset.config(4, 5).backend, id.backend());
            assert_eq!(a.name(), b.name(), "{preset}");
            assert_eq!(a.acquires_power_token(), b.acquires_power_token());
        }
    }

    #[test]
    fn only_clear_guarantees_nscl_commits() {
        let clear = ClearBackend::default();
        assert!(clear.guarantees_commit(RetryMode::NsCl));
        assert!(!clear.guarantees_commit(RetryMode::SCl));
        assert!(!clear.guarantees_commit(RetryMode::Fallback));
        for b in [
            Box::new(TsxBackend) as Box<dyn SpeculationBackend>,
            Box::new(PowerTmBackend),
            Box::new(SleBackend::default()),
            Box::new(LrwsBackend::default()),
        ] {
            assert!(
                !b.guarantees_commit(RetryMode::NsCl),
                "{} claims a bound it cannot enforce",
                b.name()
            );
        }
    }

    #[test]
    fn backend_resolution_matches_the_flavor_policy() {
        use clear_coherence::CoreId;
        let plain = |core| TxInfo {
            core: CoreId(core),
            power: false,
            scl: false,
        };
        let mut power_victim = plain(1);
        power_victim.power = true;
        // Requester-wins backends ignore the power bit.
        for b in [
            Box::new(TsxBackend) as Box<dyn SpeculationBackend>,
            Box::new(SleBackend::default()),
            Box::new(LrwsBackend::default()),
            Box::new(ClearBackend::default()),
        ] {
            assert_eq!(
                b.resolve(plain(0), &[power_victim]),
                Resolution::AbortVictims,
                "{}",
                b.name()
            );
        }
        assert_eq!(
            PowerTmBackend.resolve(plain(0), &[power_victim]),
            Resolution::NackRequester
        );
    }
}
