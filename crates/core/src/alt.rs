//! The Addresses to Lock Table (ALT, Fig. 7 ③).

use clear_mem::{CacheGeometry, LexKey, LineAddr};
use std::fmt;

/// One ALT entry: a cacheline learned during discovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AltEntry {
    /// The cacheline address.
    pub line: LineAddr,
    /// Must be locked before re-execution: set for written lines, and for
    /// read lines found in the CRT (S-CL), or every line (NS-CL).
    pub needs_locking: bool,
    /// The lock has been acquired.
    pub locked: bool,
    /// Group-locking probe found the line already exclusive in the private
    /// cache (§5: if all entries of a group hit, the group locks without
    /// any communication).
    pub hit: bool,
    /// This entry shares its directory set with the *next* entry —
    /// i.e. every member of a lexicographical conflict group is marked
    /// except the last, which delimits the group (§5).
    pub conflict: bool,
}

/// Error returned when the discovered footprint exceeds the ALT capacity;
/// the AR is then non-convertible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AltOverflow;

impl fmt::Display for AltOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ALT capacity exceeded: footprint too large to convert")
    }
}

impl std::error::Error for AltOverflow {}

/// The Addresses to Lock Table: the cacheline footprint of an AR, kept
/// sorted in the deadlock-free lexicographical lock order (directory set
/// index, §5), organised as a CAM with priority search in hardware.
///
/// # Examples
///
/// ```
/// use clear_core::Alt;
/// use clear_mem::{CacheGeometry, LineAddr};
///
/// let mut alt = Alt::new(32, CacheGeometry::new(64, 16));
/// alt.observe(LineAddr(9), false).unwrap();
/// alt.observe(LineAddr(3), true).unwrap();
/// let order: Vec<_> = alt.iter().map(|e| e.line).collect();
/// assert_eq!(order, vec![LineAddr(3), LineAddr(9)]);
/// assert!(alt.iter().find(|e| e.line == LineAddr(3)).unwrap().needs_locking);
/// ```
#[derive(Clone, Debug)]
pub struct Alt {
    capacity: usize,
    dir: CacheGeometry,
    entries: Vec<AltEntry>,
}

impl Alt {
    /// Creates an empty ALT with `capacity` entries (paper: 32) using the
    /// directory geometry `dir` for the lexicographical order.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, dir: CacheGeometry) -> Self {
        assert!(capacity > 0, "ALT capacity must be non-zero");
        Alt {
            capacity,
            dir,
            entries: Vec::new(),
        }
    }

    fn key(&self, line: LineAddr) -> LexKey {
        LexKey::new(self.dir, line)
    }

    /// Records an access to `line` observed during discovery. `written`
    /// lines get their Needs-Locking bit set; a line written on any access
    /// keeps the bit. Entries stay sorted in lock order and group Conflict
    /// bits are maintained.
    ///
    /// # Errors
    ///
    /// Returns [`AltOverflow`] if a new line would exceed capacity; the
    /// table keeps its previous contents.
    pub fn observe(&mut self, line: LineAddr, written: bool) -> Result<(), AltOverflow> {
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            e.needs_locking |= written;
            return Ok(());
        }
        if self.entries.len() == self.capacity {
            return Err(AltOverflow);
        }
        let key = self.key(line);
        let pos = self.entries.partition_point(|e| self.key_of(e) < key);
        self.entries.insert(
            pos,
            AltEntry {
                line,
                needs_locking: written,
                locked: false,
                hit: false,
                conflict: false,
            },
        );
        self.refresh_conflict_bits();
        Ok(())
    }

    /// `true` if `line` already has an entry.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.entries.iter().any(|e| e.line == line)
    }

    fn key_of(&self, e: &AltEntry) -> LexKey {
        LexKey::new(self.dir, e.line)
    }

    fn refresh_conflict_bits(&mut self) {
        // Allocation-free: each entry only compares its set with its
        // successor's, so a pairwise walk suffices.
        let n = self.entries.len();
        for i in 0..n {
            self.entries[i].conflict = i + 1 < n
                && self.key_of(&self.entries[i]).dir_set
                    == self.key_of(&self.entries[i + 1]).dir_set;
        }
    }

    /// Marks `line` as Needs-Locking (CRT hit before an S-CL retry, §5).
    /// No-op if the line is not in the table.
    pub fn mark_needs_locking(&mut self, line: LineAddr) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            e.needs_locking = true;
        }
    }

    /// Sets every entry's Needs-Locking bit (NS-CL locks the whole
    /// footprint).
    pub fn mark_all_needs_locking(&mut self) {
        for e in &mut self.entries {
            e.needs_locking = true;
        }
    }

    /// Marks `line` as locked.
    pub fn mark_locked(&mut self, line: LineAddr) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            e.locked = true;
        }
    }

    /// Sets the Hit bit of `line` (group-locking cache probe, §5).
    pub fn mark_hit(&mut self, line: LineAddr, hit: bool) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            e.hit = hit;
        }
    }

    /// Iterates entries in lock (lexicographical) order.
    pub fn iter(&self) -> impl Iterator<Item = &AltEntry> {
        self.entries.iter()
    }

    /// The lines that must be locked, in lock order.
    pub fn lock_list(&self) -> Vec<LineAddr> {
        let mut out = Vec::new();
        self.lock_list_into(&mut out);
        out
    }

    /// Writes the lock list into `out` (cleared first), reusing its
    /// allocation — the per-attempt variant of [`Alt::lock_list`].
    pub fn lock_list_into(&self, out: &mut Vec<LineAddr>) {
        out.clear();
        out.extend(
            self.entries
                .iter()
                .filter(|e| e.needs_locking)
                .map(|e| e.line),
        );
    }

    /// The lines of the lexicographical conflict group containing `line`
    /// (all entries sharing its directory set), in lock order.
    pub fn group_of(&self, line: LineAddr) -> Vec<LineAddr> {
        let set = self.key(line).dir_set;
        self.entries
            .iter()
            .filter(|e| self.key_of(e).dir_set == set)
            .map(|e| e.line)
            .collect()
    }

    /// All recorded lines in lock order (the learned footprint).
    pub fn footprint(&self) -> Vec<LineAddr> {
        self.entries.iter().map(|e| e.line).collect()
    }

    /// Number of recorded lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no lines are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Clears lock progress (Locked/Hit bits) keeping the footprint — used
    /// between a failed lock pass and a retry.
    pub fn reset_lock_state(&mut self) {
        for e in &mut self.entries {
            e.locked = false;
            e.hit = false;
        }
    }

    /// Empties the table for a new discovery.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alt(cap: usize) -> Alt {
        // 4-set directory: lines 0,4,8 share set 0; 1,5 share set 1.
        Alt::new(cap, CacheGeometry::new(4, 4))
    }

    #[test]
    fn entries_kept_in_lock_order() {
        let mut a = alt(8);
        for l in [6u64, 1, 4, 0] {
            a.observe(LineAddr(l), false).unwrap();
        }
        let lines: Vec<u64> = a.iter().map(|e| e.line.0).collect();
        // Order by (dir_set, line): set0: 0,4; set1: 1; set2: 6.
        assert_eq!(lines, vec![0, 4, 1, 6]);
    }

    #[test]
    fn conflict_bits_mark_groups() {
        let mut a = alt(8);
        for l in [0u64, 4, 8, 1, 6] {
            a.observe(LineAddr(l), false).unwrap();
        }
        let flags: Vec<(u64, bool)> = a.iter().map(|e| (e.line.0, e.conflict)).collect();
        // Group {0,4,8}: first two marked, last clear; singletons clear.
        assert_eq!(
            flags,
            vec![(0, true), (4, true), (8, false), (1, false), (6, false)]
        );
    }

    #[test]
    fn written_sets_needs_locking_sticky() {
        let mut a = alt(4);
        a.observe(LineAddr(2), false).unwrap();
        a.observe(LineAddr(2), true).unwrap();
        a.observe(LineAddr(2), false).unwrap();
        assert!(a.iter().next().unwrap().needs_locking);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn overflow_is_reported() {
        let mut a = alt(2);
        a.observe(LineAddr(0), false).unwrap();
        a.observe(LineAddr(1), false).unwrap();
        assert_eq!(a.observe(LineAddr(2), false), Err(AltOverflow));
        assert_eq!(a.len(), 2);
        // Re-observing an existing line still works.
        assert!(a.observe(LineAddr(0), true).is_ok());
    }

    #[test]
    fn lock_list_filters_needs_locking() {
        let mut a = alt(8);
        a.observe(LineAddr(0), true).unwrap();
        a.observe(LineAddr(1), false).unwrap();
        a.observe(LineAddr(2), true).unwrap();
        assert_eq!(a.lock_list(), vec![LineAddr(0), LineAddr(2)]);
        a.mark_all_needs_locking();
        assert_eq!(a.lock_list().len(), 3);
    }

    #[test]
    fn group_of_returns_same_set_lines() {
        let mut a = alt(8);
        for l in [0u64, 4, 8, 1] {
            a.observe(LineAddr(l), false).unwrap();
        }
        assert_eq!(
            a.group_of(LineAddr(4)),
            vec![LineAddr(0), LineAddr(4), LineAddr(8)]
        );
        assert_eq!(a.group_of(LineAddr(1)), vec![LineAddr(1)]);
    }

    #[test]
    fn mark_and_reset_lock_state() {
        let mut a = alt(4);
        a.observe(LineAddr(3), true).unwrap();
        a.mark_locked(LineAddr(3));
        a.mark_hit(LineAddr(3), true);
        let e = *a.iter().next().unwrap();
        assert!(e.locked && e.hit);
        a.reset_lock_state();
        let e = *a.iter().next().unwrap();
        assert!(!e.locked && !e.hit);
        assert!(e.needs_locking); // footprint info retained
    }

    #[test]
    fn crt_marking_upgrades_reads() {
        let mut a = alt(4);
        a.observe(LineAddr(5), false).unwrap();
        assert!(a.lock_list().is_empty());
        a.mark_needs_locking(LineAddr(5));
        assert_eq!(a.lock_list(), vec![LineAddr(5)]);
    }

    #[test]
    fn clear_empties() {
        let mut a = alt(4);
        a.observe(LineAddr(5), true).unwrap();
        a.clear();
        assert!(a.is_empty());
    }
}
