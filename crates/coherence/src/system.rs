//! The central coherence system: private caches + a sharded directory.
//!
//! # Sharding (many-core scaling)
//!
//! Directory state — per-line sharer sets, owners, lock holders and LLC
//! presence — is partitioned into [`DirShard`]s by line-address range:
//! shard `s` covers lines `[s·64, (s+1)·64)`, so each shard's LLC presence
//! is exactly one `u64` word and a line's shard/slot is a shift/mask.
//! Per-core state (the private cache, L2 shadow and the tx/lock tracking
//! lists) is grouped into [`PerCore`].
//!
//! Sharer sets are [`CoreBitSet`]s: allocation-free at ≤64 cores, growable
//! beyond, iterating in the same ascending-core-id order the previous
//! fixed-width `u64` masks produced.

use crate::{Access, CoherenceConfig, CoreId, LockFail, MesiState, ServedBy, TxTrack};
use clear_mem::{CacheGeometry, CoreBitSet, LineAddr, LineBitSet, SetAssocCache};

/// Lines per directory shard (one `u64` of LLC presence per shard).
const SHARD_LINES_LOG2: u64 = 6;

/// Per-line metadata in a private cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LineMeta {
    mesi: MesiState,
    /// Cacheline lock held by this core (NS-CL/S-CL execution, §4.4).
    locked: bool,
    /// Line is in the core's transactional read set.
    tx_read: bool,
    /// Line is in the core's transactional write set.
    tx_write: bool,
}

impl LineMeta {
    fn pinned(&self) -> bool {
        self.locked || self.tx_read || self.tx_write
    }
}

/// Directory entry for one line.
#[derive(Clone, Debug, Default)]
struct DirEntry {
    /// Core holding the line in M/E, if any.
    owner: Option<CoreId>,
    /// Cores holding the line (including the owner).
    sharers: CoreBitSet,
    /// Core holding the line *locked*, if any.
    locked_by: Option<CoreId>,
}

/// One directory shard: the entries and LLC presence bits for a 64-line
/// address range.
#[derive(Debug, Default)]
struct DirShard {
    /// Entries indexed by `line & 63`, grown on demand.
    entries: Vec<DirEntry>,
    /// LLC presence, one bit per line in the shard's range.
    llc: u64,
    /// Cacheline locks acquired on this shard's lines (metrics hook; see
    /// [`CoherenceSystem::shard_profiles`]).
    locks: u64,
    /// Lock requests refused because another core held a line of this
    /// shard locked.
    lock_nacks: u64,
}

/// All coherence state owned by a single core.
#[derive(Debug)]
struct PerCore {
    cache: SetAssocCache<LineMeta>,
    /// L2 shadow: lines evicted from L1 still "near" the core.
    l2_shadow: LineBitSet,
    /// Lines whose transactional bits were set since the last
    /// [`CoherenceSystem::clear_tx`]: lets commit/abort clear exactly those
    /// lines instead of sweeping every cache way. May hold stale entries
    /// for lines since invalidated — clearing skips them.
    tx_touched: Vec<LineAddr>,
    /// Lines locked since the last [`CoherenceSystem::unlock_all`] (same
    /// idea; unlocking a stale or already-released entry is a no-op).
    locks_held: Vec<LineAddr>,
}

/// Effect an access would have on one remote core's copy of the line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteImpact {
    /// The line whose remote copy is impacted. Single-line accesses only
    /// ever produce impacts for the accessed line; group lock acquisitions
    /// return impacts spanning the group, and this field attributes each
    /// one to its exact line (conflict attribution in the trace).
    pub line: LineAddr,
    /// The remote core.
    pub core: CoreId,
    /// Line is in the remote core's transactional read set.
    pub tx_read: bool,
    /// Line is in the remote core's transactional write set.
    pub tx_write: bool,
    /// The remote copy would be invalidated (write) rather than merely
    /// downgraded to Shared (read hitting an exclusive owner).
    pub would_invalidate: bool,
}

impl RemoteImpact {
    /// `true` if the impacted copy belongs to a transactional set, i.e. the
    /// access is a *transactional conflict* under eager conflict detection.
    pub fn is_tx_conflict(&self, requester_writes: bool) -> bool {
        if requester_writes {
            self.tx_read || self.tx_write
        } else {
            self.tx_write
        }
    }
}

/// Result of [`CoherenceSystem::probe`]: what an access would do.
#[derive(Clone, Debug)]
pub struct ProbeResult {
    /// Level that would serve the access.
    pub served_by: ServedBy,
    /// Latency in cycles if the access proceeds.
    pub latency: u64,
    /// Core currently holding the line locked, when it is not the
    /// requester. Such accesses must not be applied — the policy layer
    /// retries or NACKs them.
    pub locked_by_other: Option<CoreId>,
    /// Remote copies this access would invalidate or downgrade.
    pub remote_impacts: Vec<RemoteImpact>,
    /// Way index of the requester's own copy, so a fused probe/apply pair
    /// skips the second set scan. Only valid while the requester's cache
    /// is unmutated, which the probe/apply contract already guarantees.
    pub(crate) own_way: Option<usize>,
}

/// Result of a successfully applied access.
#[derive(Clone, Debug)]
pub struct ApplyOk {
    /// Level that served the access.
    pub served_by: ServedBy,
    /// Latency in cycles.
    pub latency: u64,
    /// Remote copies that were invalidated or downgraded, with their
    /// transactional bits as they were *before* the access. The policy
    /// layer aborts the corresponding transactions.
    pub remote_impacts: Vec<RemoteImpact>,
}

/// Event counters for the energy model and traffic statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// Accesses served by the requester's L1.
    pub l1_hits: u64,
    /// Accesses served by the L2 shadow.
    pub l2_hits: u64,
    /// Accesses served by L3 / a remote cache.
    pub l3_serves: u64,
    /// Accesses served by main memory.
    pub mem_serves: u64,
    /// Remote copies invalidated or downgraded.
    pub invalidations: u64,
    /// Cacheline lock acquisitions.
    pub locks: u64,
    /// Cacheline lock releases.
    pub unlocks: u64,
    /// Lock attempts refused because another core held the line locked.
    pub lock_conflicts: u64,
}

impl CoherenceStats {
    /// Total coherence requests served, at any level (the simulator's
    /// perf-counter notion of "coherence traffic volume").
    pub fn requests(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.l3_serves + self.mem_serves
    }
}

/// Occupancy and lock traffic of one directory shard (see
/// [`CoherenceSystem::shard_profiles`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardProfile {
    /// Shard index (`line >> 6`).
    pub shard: usize,
    /// Directory entries instantiated in the shard.
    pub lines: u64,
    /// Cacheline locks acquired on the shard's lines.
    pub locks: u64,
    /// Lock requests refused because a line of the shard was held locked
    /// by another core.
    pub lock_nacks: u64,
}

/// The coherence substrate: one private cache per core plus a sharded
/// directory.
///
/// See the [crate docs](crate) for the probe/apply protocol and the module
/// docs for the shard layout.
#[derive(Debug)]
pub struct CoherenceSystem {
    config: CoherenceConfig,
    /// Per-core state, indexed by core id.
    per_core: Vec<PerCore>,
    /// Directory shards indexed by `line >> 6`. [`clear_mem::Memory`]
    /// bump-allocates, so live lines are a dense prefix and a flat vector
    /// of shards (grown on demand) beats any hash map on the hot path.
    shards: Vec<DirShard>,
    stats: CoherenceStats,
}

#[inline]
fn slot(line: LineAddr) -> (usize, usize) {
    (
        (line.0 >> SHARD_LINES_LOG2) as usize,
        (line.0 & ((1 << SHARD_LINES_LOG2) - 1)) as usize,
    )
}

impl CoherenceSystem {
    /// Creates the system for `config.cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero cores.
    pub fn new(config: CoherenceConfig) -> Self {
        assert!(config.cores > 0, "at least one core required");
        CoherenceSystem {
            config,
            per_core: (0..config.cores)
                .map(|_| PerCore {
                    cache: SetAssocCache::new(config.l1),
                    l2_shadow: LineBitSet::new(),
                    tx_touched: Vec::new(),
                    locks_held: Vec::new(),
                })
                .collect(),
            shards: Vec::new(),
            stats: CoherenceStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoherenceConfig {
        &self.config
    }

    /// Directory geometry (defines the lexicographical lock order).
    pub fn dir_geometry(&self) -> CacheGeometry {
        self.config.directory
    }

    /// Accumulated event counters.
    pub fn stats(&self) -> CoherenceStats {
        self.stats
    }

    /// The directory shard covering `line` (lines partition into shards by
    /// 64-line address ranges).
    pub fn shard_of(line: LineAddr) -> usize {
        slot(line).0
    }

    /// Number of directory shards instantiated so far.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total directory entries instantiated across all shards (shard
    /// occupancy numerator).
    pub fn shard_lines(&self) -> u64 {
        self.shards.iter().map(|s| s.entries.len() as u64).sum()
    }

    /// Directory entries in the fullest shard (imbalance indicator).
    pub fn shard_lines_max(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.entries.len() as u64)
            .max()
            .unwrap_or(0)
    }

    /// Per-shard occupancy and lock-traffic profile, in shard order. Feeds
    /// the machine's metrics registry (shard occupancy gauges plus lock /
    /// NACK counters); shards with no instantiated entries are skipped so
    /// a sparse footprint does not emit empty series.
    pub fn shard_profiles(&self) -> impl Iterator<Item = ShardProfile> + '_ {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, sh)| !sh.entries.is_empty())
            .map(|(i, sh)| ShardProfile {
                shard: i,
                lines: sh.entries.len() as u64,
                locks: sh.locks,
                lock_nacks: sh.lock_nacks,
            })
    }

    /// Attributes one acquired lock to `line`'s shard. The shard exists by
    /// the time a lock succeeds (the apply instantiated the entry).
    fn note_lock(&mut self, line: LineAddr) {
        if let Some(sh) = self.shards.get_mut(slot(line).0) {
            sh.locks += 1;
        }
    }

    /// Attributes one refused (NACKed) lock request to `line`'s shard. A
    /// refusal implies a directory entry records the holder, so the shard
    /// exists.
    fn note_lock_nack(&mut self, line: LineAddr) {
        if let Some(sh) = self.shards.get_mut(slot(line).0) {
            sh.lock_nacks += 1;
        }
    }

    fn dir_ref(&self, line: LineAddr) -> Option<&DirEntry> {
        let (s, i) = slot(line);
        self.shards.get(s).and_then(|sh| sh.entries.get(i))
    }

    fn dir_get_mut(&mut self, line: LineAddr) -> Option<&mut DirEntry> {
        let (s, i) = slot(line);
        self.shards.get_mut(s).and_then(|sh| sh.entries.get_mut(i))
    }

    fn ensure_shard(&mut self, s: usize) {
        if s >= self.shards.len() {
            self.shards.resize_with(s + 1, DirShard::default);
        }
    }

    fn dir_mut(&mut self, line: LineAddr) -> &mut DirEntry {
        let (s, i) = slot(line);
        self.ensure_shard(s);
        let shard = &mut self.shards[s];
        if i >= shard.entries.len() {
            shard.entries.resize(i + 1, DirEntry::default());
        }
        &mut shard.entries[i]
    }

    fn llc_insert(&mut self, line: LineAddr) {
        let (s, i) = slot(line);
        self.ensure_shard(s);
        self.shards[s].llc |= 1 << i;
    }

    fn llc_contains(&self, line: LineAddr) -> bool {
        let (s, i) = slot(line);
        self.shards.get(s).is_some_and(|sh| sh.llc & (1 << i) != 0)
    }

    /// Which core holds `line` locked, if any.
    pub fn locked_by(&self, line: LineAddr) -> Option<CoreId> {
        self.dir_ref(line).and_then(|e| e.locked_by)
    }

    /// `true` if `core` has `line` cached with write permission — the ALT
    /// *Hit*-bit probe used by group locking (§5).
    pub fn has_exclusive(&self, core: CoreId, line: LineAddr) -> bool {
        self.per_core[core.0]
            .cache
            .get(line)
            .map(|m| m.mesi.is_exclusive())
            .unwrap_or(false)
    }

    /// `true` if `core` currently caches `line` (any state).
    pub fn is_cached(&self, core: CoreId, line: LineAddr) -> bool {
        self.per_core[core.0].cache.contains(line)
    }

    /// Number of lines `core` holds locked.
    pub fn locked_count(&self, core: CoreId) -> usize {
        self.per_core[core.0]
            .cache
            .iter()
            .filter(|(_, m)| m.locked)
            .count()
    }

    fn classify_miss(&self, core: CoreId, line: LineAddr) -> ServedBy {
        if self.per_core[core.0].l2_shadow.contains(line) {
            ServedBy::L2
        } else if self.dir_ref(line).is_some_and(|e| !e.sharers.is_empty())
            || self.llc_contains(line)
        {
            ServedBy::L3
        } else {
            ServedBy::Memory
        }
    }

    fn latency_of(&self, served_by: ServedBy, impacts: usize) -> u64 {
        let base = match served_by {
            ServedBy::L1 => self.config.lat_l1,
            ServedBy::L2 => self.config.lat_l2,
            ServedBy::L3 => self.config.lat_l3,
            ServedBy::Memory => self.config.lat_mem,
        };
        base + impacts as u64 * self.config.lat_inval
    }

    fn collect_impacts(&self, core: CoreId, line: LineAddr, access: Access) -> Vec<RemoteImpact> {
        let Some(dir) = self.dir_ref(line) else {
            return Vec::new();
        };
        let mut impacts = Vec::new();
        // Walk only the set sharer bits (ascending core id, same order as
        // the equivalent 0..cores scan) instead of every core.
        for c in dir.sharers.iter_without(core.0) {
            let Some(meta) = self.per_core[c].cache.get(line) else {
                continue;
            };
            match access {
                Access::Write => impacts.push(RemoteImpact {
                    line,
                    core: CoreId(c),
                    tx_read: meta.tx_read,
                    tx_write: meta.tx_write,
                    would_invalidate: true,
                }),
                Access::Read => {
                    if meta.mesi.is_exclusive() {
                        impacts.push(RemoteImpact {
                            line,
                            core: CoreId(c),
                            tx_read: meta.tx_read,
                            tx_write: meta.tx_write,
                            would_invalidate: false,
                        });
                    }
                }
            }
        }
        impacts
    }

    /// Reports what an access by `core` would do, without changing state.
    pub fn probe(&self, core: CoreId, line: LineAddr, access: Access) -> ProbeResult {
        let locked_by_other = self
            .dir_ref(line)
            .and_then(|e| e.locked_by)
            .filter(|&c| c != core);
        let own_way = self.per_core[core.0].cache.find_way(line);
        let own = own_way.map(|w| self.per_core[core.0].cache.payload_at(w));
        let hit = match (own, access) {
            (Some(_), Access::Read) => true,
            (Some(m), Access::Write) => m.mesi.is_exclusive(),
            (None, _) => false,
        };
        let remote_impacts = if hit {
            Vec::new()
        } else {
            self.collect_impacts(core, line, access)
        };
        let served_by = if hit {
            ServedBy::L1
        } else if own.is_some() {
            // Upgrade S->M: data is local but the directory round-trip and
            // invalidations cost an L3-class transaction.
            ServedBy::L3
        } else {
            self.classify_miss(core, line)
        };
        let latency = self.latency_of(served_by, remote_impacts.len());
        ProbeResult {
            served_by,
            latency,
            locked_by_other,
            remote_impacts,
            own_way,
        }
    }

    fn record_serve(&mut self, served_by: ServedBy) {
        match served_by {
            ServedBy::L1 => self.stats.l1_hits += 1,
            ServedBy::L2 => self.stats.l2_hits += 1,
            ServedBy::L3 => self.stats.l3_serves += 1,
            ServedBy::Memory => self.stats.mem_serves += 1,
        }
    }

    fn invalidate_remote(&mut self, victim: CoreId, line: LineAddr) {
        self.per_core[victim.0].cache.remove(line);
        self.per_core[victim.0].l2_shadow.remove(line);
        let e = self.dir_mut(line);
        e.sharers.remove(victim.0);
        if e.owner == Some(victim) {
            e.owner = None;
        }
    }

    fn downgrade_remote(&mut self, victim: CoreId, line: LineAddr) {
        if let Some(m) = self.per_core[victim.0].cache.get_mut(line) {
            m.mesi = MesiState::Shared;
        }
        let e = self.dir_mut(line);
        if e.owner == Some(victim) {
            e.owner = None;
        }
    }

    /// Applies an access, updating caches and the directory.
    ///
    /// The caller must have routed away accesses to lines locked by another
    /// core (see [`CoherenceSystem::probe`]); applying one is a logic error.
    /// Remote transactional copies *are* invalidated/downgraded here — the
    /// policy layer is responsible for aborting the affected transactions
    /// (it decided to proceed).
    ///
    /// # Errors
    ///
    /// Returns `Err(LockFail::Capacity)` when the requester's cache cannot
    /// hold the line without evicting a pinned (locked or transactional)
    /// line; for a transactional access this is a capacity abort.
    ///
    /// # Panics
    ///
    /// Panics if the line is locked by another core.
    pub fn apply(
        &mut self,
        core: CoreId,
        line: LineAddr,
        access: Access,
        tx: TxTrack,
    ) -> Result<ApplyOk, LockFail> {
        self.apply_inner(core, line, access, tx, false)
    }

    /// Like [`CoherenceSystem::apply`], but consumes a [`ProbeResult`]
    /// already obtained from [`CoherenceSystem::probe`] for the same
    /// `(core, line, access)` instead of re-probing — the hot-path fusion
    /// used by the simulation kernel. The caller must not have mutated
    /// coherence state between the probe and this call, or the cached
    /// verdict (lock status, impacts, latency) is stale.
    ///
    /// # Errors
    ///
    /// Returns `Err(LockFail::Capacity)` exactly as [`CoherenceSystem::apply`]
    /// does.
    ///
    /// # Panics
    ///
    /// Panics if the probe saw the line locked by another core.
    pub fn apply_probed(
        &mut self,
        core: CoreId,
        line: LineAddr,
        access: Access,
        tx: TxTrack,
        probe: ProbeResult,
    ) -> Result<ApplyOk, LockFail> {
        self.finish_apply(core, line, access, tx, false, probe)
    }

    fn apply_inner(
        &mut self,
        core: CoreId,
        line: LineAddr,
        access: Access,
        tx: TxTrack,
        lock: bool,
    ) -> Result<ApplyOk, LockFail> {
        let probe = self.probe(core, line, access);
        self.finish_apply(core, line, access, tx, lock, probe)
    }

    fn finish_apply(
        &mut self,
        core: CoreId,
        line: LineAddr,
        access: Access,
        tx: TxTrack,
        lock: bool,
        probe: ProbeResult,
    ) -> Result<ApplyOk, LockFail> {
        assert!(
            probe.locked_by_other.is_none(),
            "apply() on a line locked by another core"
        );
        let ProbeResult {
            served_by,
            latency,
            remote_impacts: impacts,
            own_way,
            ..
        } = probe;

        // Update remote copies.
        for imp in &impacts {
            if imp.would_invalidate {
                self.invalidate_remote(imp.core, line);
            } else {
                self.downgrade_remote(imp.core, line);
            }
            self.stats.invalidations += 1;
        }

        // Update (or install) the requester's copy.
        let others_share = self
            .dir_ref(line)
            .is_some_and(|e| e.sharers.contains_other_than(core.0));
        let new_mesi = match access {
            Access::Write => MesiState::Modified,
            Access::Read => {
                if others_share {
                    MesiState::Shared
                } else {
                    MesiState::Exclusive
                }
            }
        };
        if let Some(w) = own_way {
            let pc = &mut self.per_core[core.0];
            let meta = pc.cache.touch_at(w);
            meta.mesi = match access {
                Access::Write => MesiState::Modified,
                Access::Read => meta.mesi, // keep stronger state on read hit
            };
            if lock && !meta.locked {
                meta.locked = true;
                pc.locks_held.push(line);
            }
            if tx != TxTrack::None && !meta.tx_read && !meta.tx_write {
                pc.tx_touched.push(line);
            }
            match tx {
                TxTrack::None => {}
                TxTrack::Read => meta.tx_read = true,
                TxTrack::Write => meta.tx_write = true,
            }
        } else {
            let meta = LineMeta {
                mesi: new_mesi,
                locked: lock,
                tx_read: tx == TxTrack::Read,
                tx_write: tx == TxTrack::Write,
            };
            match self.per_core[core.0]
                .cache
                .insert_respecting(line, meta, LineMeta::pinned)
            {
                Ok(outcome) => {
                    if let clear_mem::EvictionOutcome::Evicted(victim) = outcome {
                        // Victim drops to the L2 shadow; directory forgets it.
                        let e = self.dir_mut(victim);
                        e.sharers.remove(core.0);
                        if e.owner == Some(core) {
                            e.owner = None;
                        }
                        self.per_core[core.0].l2_shadow.insert(victim);
                    }
                    let pc = &mut self.per_core[core.0];
                    if lock {
                        pc.locks_held.push(line);
                    }
                    if tx != TxTrack::None {
                        pc.tx_touched.push(line);
                    }
                }
                Err(clear_mem::PinnedSetFull) => return Err(LockFail::Capacity),
            }
        }

        // Update the directory for the accessed line.
        let e = self.dir_mut(line);
        e.sharers.insert(core.0);
        match access {
            Access::Write => {
                e.owner = Some(core);
                e.sharers.set_only(core.0);
            }
            Access::Read => {
                if !others_share {
                    e.owner = Some(core);
                }
            }
        }
        if lock {
            e.locked_by = Some(core);
        }

        self.llc_insert(line);
        self.per_core[core.0].l2_shadow.remove(line);
        self.record_serve(served_by);
        Ok(ApplyOk {
            served_by,
            latency,
            remote_impacts: impacts,
        })
    }

    /// A failed-mode discovery read (§5.1): a *non-aborting* request. It
    /// never invalidates, downgrades or conflicts with remote copies, but —
    /// like the paper's failed-mode loads, which are ordinary cache fills
    /// flagged non-aborting — it installs a Shared copy in the requester's
    /// cache when no remote core holds the line exclusively. This warming
    /// is what makes the subsequent S-CL lock pass hit the ALT Hit-bit
    /// fast path.
    pub fn read_untracked(&mut self, core: CoreId, line: LineAddr) -> u64 {
        if self.per_core[core.0].cache.contains(line) {
            self.record_serve(ServedBy::L1);
            return self.latency_of(ServedBy::L1, 0);
        }
        let served_by = self.classify_miss(core, line);
        // Any remote M/E holder is, by the directory invariant, exactly the
        // recorded owner — an O(1) check replacing the previous O(cores)
        // scan of every private cache.
        let (owner, locked) = self
            .dir_ref(line)
            .map(|e| (e.owner, e.locked_by.is_some()))
            .unwrap_or((None, false));
        let remote_exclusive = owner.is_some_and(|o| {
            o != core
                && self.per_core[o.0]
                    .cache
                    .get(line)
                    .map(|m| m.mesi.is_exclusive())
                    .unwrap_or(false)
        });
        if !remote_exclusive && !locked {
            let meta = LineMeta {
                mesi: MesiState::Shared,
                locked: false,
                tx_read: false,
                tx_write: false,
            };
            if let Ok(outcome) =
                self.per_core[core.0]
                    .cache
                    .insert_respecting(line, meta, LineMeta::pinned)
            {
                if let clear_mem::EvictionOutcome::Evicted(victim) = outcome {
                    let e = self.dir_mut(victim);
                    e.sharers.remove(core.0);
                    if e.owner == Some(core) {
                        e.owner = None;
                    }
                    self.per_core[core.0].l2_shadow.insert(victim);
                }
                let e = self.dir_mut(line);
                e.sharers.insert(core.0);
                self.llc_insert(line);
                self.per_core[core.0].l2_shadow.remove(line);
            }
        }
        self.record_serve(served_by);
        self.latency_of(served_by, 0)
    }

    /// Acquires the cacheline lock on `line` for `core` (NS-CL/S-CL, §4.4):
    /// exclusive ownership plus the lock bit, invalidating remote copies.
    ///
    /// # Errors
    ///
    /// * [`LockFail::LockedBy`] — another core holds the line locked; the
    ///   requester must retry later (the directory entry is *not* left in a
    ///   transient state, per the Fig. 6 fix).
    /// * [`LockFail::Capacity`] — the requester's cache cannot pin the line.
    pub fn lock_line(&mut self, core: CoreId, line: LineAddr) -> Result<ApplyOk, LockFail> {
        if let Some(holder) = self.locked_by(line) {
            if holder != core {
                self.stats.lock_conflicts += 1;
                self.note_lock_nack(line);
                return Err(LockFail::LockedBy(holder));
            }
        }
        let r = self.apply_inner(core, line, Access::Write, TxTrack::None, true)?;
        self.stats.locks += 1;
        self.note_lock(line);
        Ok(r)
    }

    /// Acquires the locks of a whole lexicographical conflict group — ALT
    /// entries sharing one directory set — as a single transaction (§5).
    ///
    /// If every line already has the *Hit* bit (exclusive in the private
    /// cache), the group locks silently at one cycle per line; otherwise a
    /// single directory-set lock transaction is modelled: one L3-class
    /// round trip charged once, plus invalidation costs for every remote
    /// copy stolen across the group.
    ///
    /// # Errors
    ///
    /// * [`LockFail::LockedBy`] if any group line is locked by another
    ///   core (nothing is acquired — the requester retries);
    /// * [`LockFail::Capacity`] if a line cannot be pinned.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is empty or the lines span different directory
    /// sets.
    pub fn lock_group(&mut self, core: CoreId, lines: &[LineAddr]) -> Result<ApplyOk, LockFail> {
        assert!(!lines.is_empty(), "empty lock group");
        let set = self.config.directory.set_index(lines[0]);
        assert!(
            lines
                .iter()
                .all(|&l| self.config.directory.set_index(l) == set),
            "lock group spans directory sets"
        );
        // All-or-nothing admission check.
        for &l in lines {
            if let Some(holder) = self.locked_by(l) {
                if holder != core {
                    self.stats.lock_conflicts += 1;
                    self.note_lock_nack(l);
                    return Err(LockFail::LockedBy(holder));
                }
            }
        }
        let all_hit = lines.iter().all(|&l| self.has_exclusive(core, l));
        let mut impacts = Vec::new();
        let mut invalidations = 0usize;
        for &l in lines {
            let r = self.apply_inner(core, l, Access::Write, TxTrack::None, true)?;
            invalidations += r.remote_impacts.len();
            impacts.extend(r.remote_impacts);
            self.stats.locks += 1;
            self.note_lock(l);
        }
        let latency = if all_hit {
            lines.len() as u64 * self.config.lat_l1
        } else {
            // One set-lock round trip amortised over the group.
            self.config.lat_l3 + invalidations as u64 * self.config.lat_inval
        };
        Ok(ApplyOk {
            served_by: if all_hit { ServedBy::L1 } else { ServedBy::L3 },
            latency,
            remote_impacts: impacts,
        })
    }

    /// Releases the lock `core` holds on `line`. No-op if not held.
    pub fn unlock_line(&mut self, core: CoreId, line: LineAddr) {
        if let Some(m) = self.per_core[core.0].cache.get_mut(line) {
            if m.locked {
                m.locked = false;
                self.stats.unlocks += 1;
            }
        }
        if let Some(e) = self.dir_get_mut(line) {
            if e.locked_by == Some(core) {
                e.locked_by = None;
            }
        }
    }

    /// The lines `core` has locked since its last [`Self::unlock_all`], in
    /// acquisition order: the lines that call will release. A line
    /// released alone since, by [`Self::unlock_line`], is still listed.
    pub fn locks_held(&self, core: CoreId) -> &[LineAddr] {
        &self.per_core[core.0].locks_held
    }

    /// Bulk-releases every lock `core` holds (the XEnd bulk unlock of §5.1).
    pub fn unlock_all(&mut self, core: CoreId) {
        // Drain the tracked lock list instead of sweeping every cache way;
        // stale entries (released individually since) unlock as no-ops.
        let mut held = std::mem::take(&mut self.per_core[core.0].locks_held);
        for l in held.drain(..) {
            self.unlock_line(core, l);
        }
        self.per_core[core.0].locks_held = held;
    }

    /// Clears `core`'s transactional read/write bits (commit or abort).
    /// Lines stay cached; lock bits are untouched.
    pub fn clear_tx(&mut self, core: CoreId) {
        // Only the lines tracked since the last clear can hold tx bits;
        // entries invalidated in the meantime are simply absent.
        let mut touched = std::mem::take(&mut self.per_core[core.0].tx_touched);
        for l in touched.drain(..) {
            if let Some(m) = self.per_core[core.0].cache.get_mut(l) {
                m.tx_read = false;
                m.tx_write = false;
            }
        }
        self.per_core[core.0].tx_touched = touched;
    }

    /// Lines currently in `core`'s transactional read or write set.
    pub fn tx_lines(&self, core: CoreId) -> Vec<LineAddr> {
        self.per_core[core.0]
            .cache
            .iter()
            .filter(|(_, m)| m.tx_read || m.tx_write)
            .map(|(l, _)| l)
            .collect()
    }

    /// Checks whether `lines` can be simultaneously resident (and therefore
    /// simultaneously locked) in one private cache — discovery assessment 2
    /// of §4.1.
    pub fn fits_locked(&self, lines: &[LineAddr]) -> bool {
        SetAssocCache::<LineMeta>::fits_simultaneously(self.config.l1, lines.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(cores: usize) -> CoherenceSystem {
        CoherenceSystem::new(CoherenceConfig::small(cores))
    }

    #[test]
    fn first_access_served_by_memory_then_l1() {
        let mut s = sys(2);
        let l = LineAddr(10);
        let r = s.apply(CoreId(0), l, Access::Read, TxTrack::None).unwrap();
        assert_eq!(r.served_by, ServedBy::Memory);
        let p = s.probe(CoreId(0), l, Access::Read);
        assert_eq!(p.served_by, ServedBy::L1);
        assert_eq!(p.latency, 1);
    }

    #[test]
    fn second_core_read_served_by_l3() {
        let mut s = sys(2);
        let l = LineAddr(10);
        s.apply(CoreId(0), l, Access::Read, TxTrack::None).unwrap();
        let r = s.apply(CoreId(1), l, Access::Read, TxTrack::None).unwrap();
        assert_eq!(r.served_by, ServedBy::L3);
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut s = sys(3);
        let l = LineAddr(4);
        s.apply(CoreId(0), l, Access::Read, TxTrack::None).unwrap();
        s.apply(CoreId(1), l, Access::Read, TxTrack::None).unwrap();
        let r = s.apply(CoreId(2), l, Access::Write, TxTrack::None).unwrap();
        assert_eq!(r.remote_impacts.len(), 2);
        assert!(r.remote_impacts.iter().all(|i| i.would_invalidate));
        assert!(!s.is_cached(CoreId(0), l));
        assert!(!s.is_cached(CoreId(1), l));
        assert!(s.has_exclusive(CoreId(2), l));
    }

    #[test]
    fn read_downgrades_exclusive_owner() {
        let mut s = sys(2);
        let l = LineAddr(4);
        s.apply(CoreId(0), l, Access::Write, TxTrack::None).unwrap();
        let r = s.apply(CoreId(1), l, Access::Read, TxTrack::None).unwrap();
        assert_eq!(r.remote_impacts.len(), 1);
        assert!(!r.remote_impacts[0].would_invalidate);
        assert!(s.is_cached(CoreId(0), l));
        assert!(!s.has_exclusive(CoreId(0), l));
    }

    #[test]
    fn tx_bits_reported_in_impacts() {
        let mut s = sys(2);
        let l = LineAddr(4);
        s.apply(CoreId(0), l, Access::Read, TxTrack::Read).unwrap();
        let p = s.probe(CoreId(1), l, Access::Write);
        assert_eq!(p.remote_impacts.len(), 1);
        assert!(p.remote_impacts[0].tx_read);
        assert!(p.remote_impacts[0].is_tx_conflict(true));
        assert!(!p.remote_impacts[0].is_tx_conflict(false));
    }

    #[test]
    fn reader_conflicts_only_with_remote_write_set() {
        let mut s = sys(2);
        let l = LineAddr(4);
        s.apply(CoreId(0), l, Access::Write, TxTrack::Write)
            .unwrap();
        let p = s.probe(CoreId(1), l, Access::Read);
        assert!(p.remote_impacts[0].is_tx_conflict(false));
    }

    #[test]
    fn capacity_error_when_set_full_of_pinned_lines() {
        let mut s = sys(1);
        // Geometry 4 sets x 2 ways; lines 0,4,8 share set 0.
        s.apply(CoreId(0), LineAddr(0), Access::Read, TxTrack::Read)
            .unwrap();
        s.apply(CoreId(0), LineAddr(4), Access::Read, TxTrack::Read)
            .unwrap();
        let e = s.apply(CoreId(0), LineAddr(8), Access::Read, TxTrack::Read);
        assert_eq!(e.unwrap_err(), LockFail::Capacity);
    }

    #[test]
    fn unpinned_lines_evict_quietly() {
        let mut s = sys(1);
        s.apply(CoreId(0), LineAddr(0), Access::Read, TxTrack::None)
            .unwrap();
        s.apply(CoreId(0), LineAddr(4), Access::Read, TxTrack::None)
            .unwrap();
        let r = s.apply(CoreId(0), LineAddr(8), Access::Read, TxTrack::None);
        assert!(r.is_ok());
        // Victim went to the L2 shadow: a re-access is served by L2.
        let revisit = [LineAddr(0), LineAddr(4)]
            .into_iter()
            .find(|&l| !s.is_cached(CoreId(0), l))
            .unwrap();
        let p = s.probe(CoreId(0), revisit, Access::Read);
        assert_eq!(p.served_by, ServedBy::L2);
    }

    #[test]
    fn lock_line_excludes_other_lockers() {
        let mut s = sys(2);
        let l = LineAddr(6);
        s.lock_line(CoreId(0), l).unwrap();
        assert_eq!(s.locked_by(l), Some(CoreId(0)));
        assert_eq!(
            s.lock_line(CoreId(1), l).unwrap_err(),
            LockFail::LockedBy(CoreId(0))
        );
        assert_eq!(s.stats().lock_conflicts, 1);
    }

    #[test]
    fn relock_by_holder_is_idempotent() {
        let mut s = sys(2);
        let l = LineAddr(6);
        s.lock_line(CoreId(0), l).unwrap();
        assert!(s.lock_line(CoreId(0), l).is_ok());
        assert_eq!(s.locked_by(l), Some(CoreId(0)));
    }

    #[test]
    fn probe_reports_locked_by_other() {
        let mut s = sys(2);
        let l = LineAddr(6);
        s.lock_line(CoreId(0), l).unwrap();
        let p = s.probe(CoreId(1), l, Access::Read);
        assert_eq!(p.locked_by_other, Some(CoreId(0)));
        let own = s.probe(CoreId(0), l, Access::Read);
        assert_eq!(own.locked_by_other, None);
    }

    #[test]
    fn unlock_all_releases_every_lock() {
        let mut s = sys(2);
        s.lock_line(CoreId(0), LineAddr(1)).unwrap();
        s.lock_line(CoreId(0), LineAddr(2)).unwrap();
        assert_eq!(s.locked_count(CoreId(0)), 2);
        s.unlock_all(CoreId(0));
        assert_eq!(s.locked_count(CoreId(0)), 0);
        assert_eq!(s.locked_by(LineAddr(1)), None);
        assert!(s.lock_line(CoreId(1), LineAddr(1)).is_ok());
    }

    #[test]
    fn locking_steals_remote_copies() {
        let mut s = sys(2);
        let l = LineAddr(3);
        s.apply(CoreId(1), l, Access::Read, TxTrack::Read).unwrap();
        let r = s.lock_line(CoreId(0), l).unwrap();
        assert_eq!(r.remote_impacts.len(), 1);
        assert!(r.remote_impacts[0].tx_read);
        assert!(!s.is_cached(CoreId(1), l));
    }

    #[test]
    fn clear_tx_unpins() {
        let mut s = sys(1);
        s.apply(CoreId(0), LineAddr(0), Access::Read, TxTrack::Read)
            .unwrap();
        s.apply(CoreId(0), LineAddr(4), Access::Write, TxTrack::Write)
            .unwrap();
        assert_eq!(s.tx_lines(CoreId(0)).len(), 2);
        s.clear_tx(CoreId(0));
        assert!(s.tx_lines(CoreId(0)).is_empty());
        // Set 0 no longer pinned: a third line can come in.
        assert!(s
            .apply(CoreId(0), LineAddr(8), Access::Read, TxTrack::Read)
            .is_ok());
    }

    #[test]
    fn read_untracked_changes_nothing() {
        let mut s = sys(2);
        let l = LineAddr(9);
        s.apply(CoreId(0), l, Access::Write, TxTrack::Write)
            .unwrap();
        let lat = s.read_untracked(CoreId(1), l);
        assert!(lat >= 45);
        assert!(!s.is_cached(CoreId(1), l));
        assert!(s.has_exclusive(CoreId(0), l));
        // Untracked read of own cached line is an L1 hit.
        assert_eq!(s.read_untracked(CoreId(0), l), 1);
    }

    #[test]
    fn fits_locked_uses_l1_geometry() {
        let s = sys(1);
        // 4 sets x 2 ways: three same-set lines do not fit.
        assert!(!s.fits_locked(&[LineAddr(0), LineAddr(4), LineAddr(8)]));
        assert!(s.fits_locked(&[LineAddr(0), LineAddr(1), LineAddr(2), LineAddr(3)]));
    }

    #[test]
    fn write_upgrade_from_shared_counts_as_l3() {
        let mut s = sys(2);
        let l = LineAddr(2);
        s.apply(CoreId(0), l, Access::Read, TxTrack::None).unwrap();
        s.apply(CoreId(1), l, Access::Read, TxTrack::None).unwrap();
        let p = s.probe(CoreId(0), l, Access::Write);
        assert_eq!(p.served_by, ServedBy::L3);
        assert_eq!(p.remote_impacts.len(), 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = sys(2);
        s.apply(CoreId(0), LineAddr(1), Access::Read, TxTrack::None)
            .unwrap();
        s.apply(CoreId(0), LineAddr(1), Access::Read, TxTrack::None)
            .unwrap();
        s.lock_line(CoreId(0), LineAddr(2)).unwrap();
        s.unlock_all(CoreId(0));
        let st = s.stats();
        assert_eq!(st.mem_serves, 2); // line 1 first touch + lock of line 2
        assert_eq!(st.l1_hits, 1);
        assert_eq!(st.locks, 1);
        assert_eq!(st.unlocks, 1);
    }

    #[test]
    fn lock_group_all_or_nothing() {
        let mut s = sys(2);
        // Directory has 8 sets; lines 1 and 9 share set 1.
        let (a, b) = (LineAddr(1), LineAddr(9));
        s.lock_line(CoreId(1), b).unwrap();
        assert_eq!(
            s.lock_group(CoreId(0), &[a, b]).unwrap_err(),
            LockFail::LockedBy(CoreId(1))
        );
        assert_eq!(s.locked_by(a), None, "nothing acquired on failure");
        s.unlock_all(CoreId(1));
        assert!(s.lock_group(CoreId(0), &[a, b]).is_ok());
        assert_eq!(s.locked_by(a), Some(CoreId(0)));
        assert_eq!(s.locked_by(b), Some(CoreId(0)));
    }

    #[test]
    fn lock_group_hit_fast_path_is_cheap() {
        let mut s = sys(2);
        let (a, b) = (LineAddr(1), LineAddr(9));
        // Warm both lines exclusive.
        s.apply(CoreId(0), a, Access::Write, TxTrack::None).unwrap();
        s.apply(CoreId(0), b, Access::Write, TxTrack::None).unwrap();
        let r = s.lock_group(CoreId(0), &[a, b]).unwrap();
        assert_eq!(r.latency, 2, "all-Hit group locks at 1 cycle per line");
        s.unlock_all(CoreId(0));
        // Cold path costs a set-lock round trip.
        let mut s2 = sys(2);
        let r2 = s2.lock_group(CoreId(0), &[a, b]).unwrap();
        assert!(r2.latency >= 45);
    }

    #[test]
    fn lock_group_steals_remote_tx_copies() {
        let mut s = sys(2);
        let (a, b) = (LineAddr(1), LineAddr(9));
        s.apply(CoreId(1), a, Access::Read, TxTrack::Read).unwrap();
        let r = s.lock_group(CoreId(0), &[a, b]).unwrap();
        assert_eq!(r.remote_impacts.len(), 1);
        assert!(r.remote_impacts[0].tx_read);
    }

    #[test]
    #[should_panic(expected = "spans directory sets")]
    fn lock_group_rejects_mixed_sets() {
        let mut s = sys(2);
        let _ = s.lock_group(CoreId(0), &[LineAddr(1), LineAddr(2)]);
    }

    #[test]
    #[should_panic(expected = "locked by another core")]
    fn apply_on_foreign_locked_line_panics() {
        let mut s = sys(2);
        let l = LineAddr(6);
        s.lock_line(CoreId(0), l).unwrap();
        let _ = s.apply(CoreId(1), l, Access::Read, TxTrack::None);
    }

    #[test]
    fn wide_machines_support_more_than_64_cores() {
        let mut s = sys(100);
        let l = LineAddr(4);
        // Sharers across both bitset words, including beyond core 63.
        for c in [0usize, 63, 64, 99] {
            s.apply(CoreId(c), l, Access::Read, TxTrack::Read).unwrap();
        }
        let p = s.probe(CoreId(70), l, Access::Write);
        assert_eq!(p.remote_impacts.len(), 4);
        let victims: Vec<usize> = p.remote_impacts.iter().map(|i| i.core.0).collect();
        assert_eq!(victims, vec![0, 63, 64, 99], "ascending core-id order");
        s.apply(CoreId(70), l, Access::Write, TxTrack::Write)
            .unwrap();
        for c in [0usize, 63, 64, 99] {
            assert!(!s.is_cached(CoreId(c), l));
        }
        assert!(s.has_exclusive(CoreId(70), l));
    }

    #[test]
    fn read_untracked_owner_check_sees_wide_owners() {
        let mut s = sys(80);
        let l = LineAddr(9);
        s.apply(CoreId(77), l, Access::Write, TxTrack::Write)
            .unwrap();
        let lat = s.read_untracked(CoreId(2), l);
        assert!(lat >= 45);
        assert!(
            !s.is_cached(CoreId(2), l),
            "remote M/E (held beyond core 64) must suppress the install"
        );
        assert!(s.has_exclusive(CoreId(77), l));
    }

    #[test]
    fn shards_partition_by_line_range() {
        let mut s = sys(2);
        assert_eq!(CoherenceSystem::shard_of(LineAddr(0)), 0);
        assert_eq!(CoherenceSystem::shard_of(LineAddr(63)), 0);
        assert_eq!(CoherenceSystem::shard_of(LineAddr(64)), 1);
        assert_eq!(CoherenceSystem::shard_of(LineAddr(200)), 3);
        for l in [LineAddr(0), LineAddr(63), LineAddr(64), LineAddr(200)] {
            s.apply(CoreId(0), l, Access::Read, TxTrack::None).unwrap();
        }
        assert_eq!(s.shard_count(), 4);
        assert!(s.shard_lines() >= 4);
        assert!(s.shard_lines_max() <= s.shard_lines());
        // A line in an untouched shard range is still classified correctly.
        assert_eq!(
            s.probe(CoreId(1), LineAddr(500), Access::Read).served_by,
            ServedBy::Memory
        );
    }
}
