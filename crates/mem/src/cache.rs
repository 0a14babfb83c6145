//! A generic set-associative tag store with LRU replacement.

use crate::{CacheGeometry, LineAddr};
use std::fmt;

/// Error returned by [`SetAssocCache::insert_respecting`] when every way of
/// the target set holds a pinned (non-evictable) line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PinnedSetFull;

impl fmt::Display for PinnedSetFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("all ways of the set hold pinned lines")
    }
}

impl std::error::Error for PinnedSetFull {}

/// Outcome of inserting a line into a [`SetAssocCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionOutcome {
    /// The line was already present (its LRU position was refreshed).
    Hit,
    /// The line was inserted into a free way.
    Inserted,
    /// The line was inserted, evicting the returned victim.
    Evicted(LineAddr),
}

/// A set-associative tag store with true-LRU replacement, carrying a payload
/// of type `T` per line.
///
/// This models the *presence* side of a cache (tags + replacement); data
/// lives in the flat [`Memory`](crate::Memory). The payload `T` carries
/// per-line metadata such as MESI state or HTM read/write membership.
///
/// The ways are stored the way hardware lays out a tag array: one `u32`
/// tag, one recency-rank byte and one payload per way, in three flat
/// arrays. A tag is the line address above the set-index bits, plus one,
/// so 0 marks a free way. The ranks of a set's occupied ways are a
/// permutation of `0..occupied`, 0 being the most recently used: exact true
/// LRU, evicting the same victims as per-way timestamps would.
///
/// # Examples
///
/// ```
/// use clear_mem::{CacheGeometry, LineAddr, SetAssocCache, EvictionOutcome};
///
/// let mut c: SetAssocCache<()> = SetAssocCache::new(CacheGeometry::new(2, 2));
/// assert_eq!(c.insert(LineAddr(0), ()), EvictionOutcome::Inserted);
/// assert_eq!(c.insert(LineAddr(2), ()), EvictionOutcome::Inserted); // same set
/// assert_eq!(c.insert(LineAddr(4), ()), EvictionOutcome::Evicted(LineAddr(0)));
/// assert!(c.get(LineAddr(2)).is_some());
/// ```
#[derive(Clone)]
pub struct SetAssocCache<T> {
    geometry: CacheGeometry,
    /// `log2(sets)`: the line-address bits the set index consumes.
    set_bits: u32,
    /// `sets × ways` tags, `(line >> set_bits) + 1`; 0 = free way. The
    /// three way arrays are left empty until the first insert, so a cache
    /// that is never written costs no way storage (a many-core machine
    /// builds one L1 per core, most of which stay cold in short runs);
    /// every read path treats the empty store as all-free.
    tags: Vec<u32>,
    /// Recency rank per way: 0 = most recently used within the set;
    /// [`FREE_RANK`] on a free way.
    ranks: Vec<u8>,
    /// Payload per way; a free way's payload is stale and never read.
    payloads: Vec<T>,
}

/// The line an occupied way of set `set` holds under tag `tag`.
fn tag_line(tag: u32, set: usize, set_bits: u32) -> LineAddr {
    LineAddr(((u64::from(tag) - 1) << set_bits) | set as u64)
}

/// Rank of a free way. It sorts after every occupied way's rank (at most
/// `ways - 1`, below it), so promoting a way ages exactly the occupied ways
/// more recent than it, and a free way is never an eviction victim.
const FREE_RANK: u8 = u8::MAX;

impl<T> SetAssocCache<T> {
    /// Creates an empty cache with the given geometry. Way storage is
    /// allocated by the first insert.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than 254 ways: a rank is one byte,
    /// and rank 255 marks a free way.
    pub fn new(geometry: CacheGeometry) -> Self {
        assert!(
            geometry.ways < FREE_RANK as usize,
            "at most {} ways per set",
            FREE_RANK - 1
        );
        SetAssocCache {
            geometry,
            set_bits: geometry.sets.trailing_zeros(),
            tags: Vec::new(),
            ranks: Vec::new(),
            payloads: Vec::new(),
        }
    }

    /// The geometry this cache was created with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// First way index of `line`'s set.
    fn set_start(&self, line: LineAddr) -> usize {
        self.geometry.set_index(line) * self.geometry.ways
    }

    /// `line`'s tag, or `None` if it is too high for any tag: such a line
    /// can never be resident.
    fn tag_of(&self, line: LineAddr) -> Option<u32> {
        u32::try_from(line.0 >> self.set_bits).ok()?.checked_add(1)
    }

    /// The line held in occupied way `way`.
    fn line_at(&self, way: usize) -> LineAddr {
        tag_line(self.tags[way], way / self.geometry.ways, self.set_bits)
    }

    /// Makes `way` its set's most recently used way. The ways more recent
    /// than it age by one; for a free way (rank [`FREE_RANK`]) that is
    /// every occupied way of the set.
    fn promote(&mut self, way: usize) {
        let start = way - way % self.geometry.ways;
        let rank = self.ranks[way];
        for r in &mut self.ranks[start..start + self.geometry.ways] {
            *r += u8::from(*r < rank);
        }
        self.ranks[way] = 0;
    }

    /// Returns a reference to the payload of `line` if present, refreshing
    /// its LRU position.
    pub fn touch(&mut self, line: LineAddr) -> Option<&mut T> {
        let way = self.find_way(line)?;
        Some(self.touch_at(way))
    }

    /// Index of `line`'s way in the backing store, if cached — lets a
    /// probe/apply pair share one lookup via [`SetAssocCache::payload_at`]
    /// and [`SetAssocCache::touch_at`] instead of re-scanning the set.
    /// The index stays valid until the cache is mutated.
    pub fn find_way(&self, line: LineAddr) -> Option<usize> {
        let tag = self.tag_of(line)?;
        let start = self.set_start(line);
        let set = self.tags.get(start..start + self.geometry.ways)?;
        set.iter().position(|&t| t == tag).map(|i| start + i)
    }

    /// Payload at a way index obtained from [`SetAssocCache::find_way`].
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range or the way is free.
    pub fn payload_at(&self, way: usize) -> &T {
        assert!(self.tags[way] != 0, "occupied way");
        &self.payloads[way]
    }

    /// Refreshes the LRU position of the entry at `way` (same effect as
    /// [`SetAssocCache::touch`] on its line) and returns its payload.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range or the way is free.
    pub fn touch_at(&mut self, way: usize) -> &mut T {
        assert!(self.tags[way] != 0, "occupied way");
        self.promote(way);
        &mut self.payloads[way]
    }

    /// Returns a reference to the payload of `line` if present, without
    /// touching LRU state.
    pub fn get(&self, line: LineAddr) -> Option<&T> {
        self.find_way(line).map(|w| &self.payloads[w])
    }

    /// Returns a mutable reference to the payload of `line` if present,
    /// without touching LRU state.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        self.find_way(line).map(|w| &mut self.payloads[w])
    }

    /// Returns `true` if `line` is present.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find_way(line).is_some()
    }

    /// Inserts `line` with `payload`, evicting the LRU way of its set if the
    /// set is full. If the line is already present its payload is replaced
    /// and `Hit` is returned.
    ///
    /// # Panics
    ///
    /// Panics if `line` is too high for a `u32` tag. Every line below
    /// [`LineAddr::END`] has one, whatever the geometry; the machine faults
    /// an access at or above it before it reaches a cache.
    pub fn insert(&mut self, line: LineAddr, payload: T) -> EvictionOutcome
    where
        T: Default,
    {
        self.insert_respecting(line, payload, |_| false)
            .expect("an unpinned set always has a victim")
    }

    /// Inserts `line` only if it does not require evicting a *pinned* entry.
    ///
    /// `pinned` decides, from the payload, whether a resident line may be
    /// evicted.
    ///
    /// # Errors
    ///
    /// Returns [`PinnedSetFull`] (and leaves the cache unchanged) when all
    /// ways of the set are occupied by pinned lines. This models the fact
    /// that locked or transactionally-tracked lines cannot be silently
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if `line` is too high for a `u32` tag, as
    /// [`SetAssocCache::insert`] does.
    pub fn insert_respecting<F>(
        &mut self,
        line: LineAddr,
        payload: T,
        pinned: F,
    ) -> Result<EvictionOutcome, PinnedSetFull>
    where
        T: Default,
        F: Fn(&T) -> bool,
    {
        let tag = self.tag_of(line).expect("line address fits a u32 tag");
        if self.tags.is_empty() {
            let lines = self.geometry.lines();
            self.tags.resize(lines, 0);
            self.ranks.resize(lines, FREE_RANK);
            self.payloads.resize_with(lines, T::default);
        }
        let start = self.set_start(line);
        let set = start..start + self.geometry.ways;

        let (way, outcome) = if let Some(i) = self.tags[set.clone()].iter().position(|&t| t == tag)
        {
            (start + i, EvictionOutcome::Hit)
        } else if let Some(i) = self.tags[set.clone()].iter().position(|&t| t == 0) {
            (start + i, EvictionOutcome::Inserted)
        } else {
            // The set is full: evict its least recently used unpinned way.
            let victim = set
                .filter(|&w| !pinned(&self.payloads[w]))
                .max_by_key(|&w| self.ranks[w])
                .ok_or(PinnedSetFull)?;
            (victim, EvictionOutcome::Evicted(self.line_at(victim)))
        };
        self.tags[way] = tag;
        self.payloads[way] = payload;
        self.promote(way);
        Ok(outcome)
    }

    /// Removes `line`, returning its payload if it was present.
    pub fn remove(&mut self, line: LineAddr) -> Option<T>
    where
        T: Default,
    {
        let way = self.find_way(line)?;
        let start = way - way % self.geometry.ways;
        let rank = self.ranks[way];
        self.tags[way] = 0;
        self.ranks[way] = FREE_RANK;
        for r in &mut self.ranks[start..start + self.geometry.ways] {
            *r -= u8::from(*r > rank && *r != FREE_RANK);
        }
        Some(std::mem::take(&mut self.payloads[way]))
    }

    /// Iterates over all resident `(line, payload)` pairs, in way order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.payloads
            .iter()
            .enumerate()
            .filter(|&(w, _)| self.tags[w] != 0)
            .map(|(w, p)| (self.line_at(w), p))
    }

    /// Iterates mutably over all resident `(line, payload)` pairs.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (LineAddr, &mut T)> {
        let (ways, set_bits) = (self.geometry.ways, self.set_bits);
        self.tags
            .iter()
            .zip(&mut self.payloads)
            .enumerate()
            .filter(|(_, (&tag, _))| tag != 0)
            .map(move |(w, (&tag, p))| (tag_line(tag, w / ways, set_bits), p))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.tags.iter().filter(|&&t| t != 0).count()
    }

    /// Returns `true` if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every resident line.
    pub fn clear(&mut self) {
        self.tags.fill(0);
        self.ranks.fill(FREE_RANK);
    }

    /// Checks whether a *set of lines* can be resident simultaneously:
    /// i.e., no set receives more lines than it has ways. This is the
    /// discovery-phase lockability test of §4.1 (assessment 2).
    pub fn fits_simultaneously<I>(geometry: CacheGeometry, lines: I) -> bool
    where
        I: IntoIterator<Item = LineAddr>,
    {
        let mut counts = vec![0usize; geometry.sets];
        for l in lines {
            let s = geometry.set_index(l);
            counts[s] += 1;
            if counts[s] > geometry.ways {
                return false;
            }
        }
        true
    }
}

impl<T: fmt::Debug> fmt::Debug for SetAssocCache<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("geometry", &self.geometry)
            .field("resident", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache<u32> {
        SetAssocCache::new(CacheGeometry::new(2, 2))
    }

    #[test]
    fn insert_then_get() {
        let mut c = small();
        assert_eq!(c.insert(LineAddr(1), 7), EvictionOutcome::Inserted);
        assert_eq!(c.get(LineAddr(1)), Some(&7));
        assert!(c.contains(LineAddr(1)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_is_hit_and_replaces_payload() {
        let mut c = small();
        c.insert(LineAddr(1), 7);
        assert_eq!(c.insert(LineAddr(1), 8), EvictionOutcome::Hit);
        assert_eq!(c.get(LineAddr(1)), Some(&8));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_picks_oldest() {
        let mut c = small();
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        c.insert(LineAddr(0), 0);
        c.insert(LineAddr(2), 2);
        c.touch(LineAddr(0)); // 2 becomes LRU
        assert_eq!(
            c.insert(LineAddr(4), 4),
            EvictionOutcome::Evicted(LineAddr(2))
        );
        assert!(c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(4)));
    }

    #[test]
    fn remove_returns_payload() {
        let mut c = small();
        c.insert(LineAddr(3), 9);
        assert_eq!(c.remove(LineAddr(3)), Some(9));
        assert_eq!(c.remove(LineAddr(3)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn insert_respecting_refuses_when_all_pinned() {
        let mut c = small();
        c.insert(LineAddr(0), 1); // set 0
        c.insert(LineAddr(2), 1); // set 0
        let r = c.insert_respecting(LineAddr(4), 1, |&p| p == 1);
        assert_eq!(r, Err(PinnedSetFull));
        assert!(c.contains(LineAddr(0)) && c.contains(LineAddr(2)));
    }

    #[test]
    fn insert_respecting_evicts_unpinned() {
        let mut c = small();
        c.insert(LineAddr(0), 1); // pinned
        c.insert(LineAddr(2), 0); // not pinned
        let r = c.insert_respecting(LineAddr(4), 2, |&p| p == 1);
        assert_eq!(r, Ok(EvictionOutcome::Evicted(LineAddr(2))));
    }

    #[test]
    fn fits_simultaneously_respects_associativity() {
        let g = CacheGeometry::new(2, 2);
        // 0, 2, 4 map to set 0: three lines in a 2-way set do not fit.
        assert!(!SetAssocCache::<()>::fits_simultaneously(
            g,
            [LineAddr(0), LineAddr(2), LineAddr(4)]
        ));
        assert!(SetAssocCache::<()>::fits_simultaneously(
            g,
            [LineAddr(0), LineAddr(2), LineAddr(1), LineAddr(3)]
        ));
        // The L1's 768 ways fit, one more line does not, nor 13 lines in
        // one 12-way set.
        let l1 = CacheGeometry::default();
        let lines = |n: u64| (0..n).map(LineAddr);
        assert!(SetAssocCache::<()>::fits_simultaneously(l1, lines(768)));
        assert!(!SetAssocCache::<()>::fits_simultaneously(l1, lines(769)));
        assert!(!SetAssocCache::<()>::fits_simultaneously(
            l1,
            (0..13).map(|i| LineAddr(i * 64))
        ));
    }

    #[test]
    fn iter_visits_all() {
        let mut c = small();
        c.insert(LineAddr(0), 10);
        c.insert(LineAddr(1), 11);
        let mut v: Vec<_> = c.iter().map(|(l, &p)| (l.0, p)).collect();
        v.sort();
        assert_eq!(v, vec![(0, 10), (1, 11)]);
    }

    #[test]
    fn never_written_cache_reads_as_empty() {
        let mut c = small();
        assert_eq!(c.get(LineAddr(1)), None);
        assert_eq!(c.get_mut(LineAddr(1)), None);
        assert_eq!(c.touch(LineAddr(1)), None);
        assert_eq!(c.find_way(LineAddr(1)), None);
        assert_eq!(c.remove(LineAddr(1)), None);
        assert!(!c.contains(LineAddr(1)));
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
        assert_eq!(c.iter().count(), 0);
        assert_eq!(c.iter_mut().count(), 0);
        c.clear();
        assert!(c.is_empty());
        // The first write allocates and behaves like any other insert.
        assert_eq!(c.insert(LineAddr(1), 5), EvictionOutcome::Inserted);
        assert_eq!(c.get(LineAddr(1)), Some(&5));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn first_write_may_be_a_respecting_insert() {
        let mut c = small();
        assert_eq!(
            c.insert_respecting(LineAddr(2), 3, |_| true),
            Ok(EvictionOutcome::Inserted)
        );
        assert_eq!(c.find_way(LineAddr(2)).map(|w| *c.payload_at(w)), Some(3));
    }

    #[test]
    fn way_storage_is_six_bytes_per_way_with_a_one_byte_payload() {
        // A 48 KiB, 12-way L1 (64 × 12) with a one-byte payload: a u32 tag,
        // a rank byte and the payload byte per way, so a field regrowing the
        // way arrays fails here.
        let mut c: SetAssocCache<u8> = SetAssocCache::new(CacheGeometry::default());
        c.insert(LineAddr(7), 1);
        let ways = c.geometry().lines();
        assert_eq!(ways, 768);
        let bytes = c.tags.capacity() * std::mem::size_of::<u32>()
            + c.ranks.capacity()
            + c.payloads.capacity() * std::mem::size_of::<u8>();
        assert!(bytes <= 6 * ways, "{bytes} bytes for {ways} ways");
    }

    #[test]
    fn ranks_stay_a_permutation_of_the_occupied_ways() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1, 4));
        let check = |c: &SetAssocCache<u32>| {
            let mut ranks: Vec<u8> = (0..4)
                .filter(|&w| c.tags[w] != 0)
                .map(|w| c.ranks[w])
                .collect();
            ranks.sort_unstable();
            assert_eq!(ranks, (0..ranks.len() as u8).collect::<Vec<_>>());
        };
        for l in [3, 1, 4, 1, 5, 9, 2, 6] {
            c.insert(LineAddr(l), 0);
            check(&c);
        }
        c.touch(LineAddr(9));
        check(&c);
        c.remove(LineAddr(5));
        check(&c);
        c.insert(LineAddr(8), 0);
        check(&c);
        // 2 and 6 are older than 9 and 8; 2 is the oldest.
        assert_eq!(
            c.insert(LineAddr(10), 0),
            EvictionOutcome::Evicted(LineAddr(2))
        );
    }

    #[test]
    fn lines_beyond_the_tag_range_are_never_resident() {
        let mut c = small();
        c.insert(LineAddr(1), 1);
        assert_eq!(c.get(LineAddr(u64::MAX)), None);
        assert_eq!(c.remove(LineAddr(1 + (2 << 32))), None);
        // The highest line with a tag round-trips through `iter`.
        let top = LineAddr(((u64::from(u32::MAX) - 1) << 1) | 1);
        assert_eq!(c.insert(top, 2), EvictionOutcome::Inserted);
        assert!(c.iter().any(|(l, &p)| l == top && p == 2));
    }

    #[test]
    fn every_line_below_the_address_space_end_has_a_tag() {
        let last = LineAddr(LineAddr::END.0 - 1);
        for sets in [1, 8, 64] {
            let mut c: SetAssocCache<u8> = SetAssocCache::new(CacheGeometry::new(sets, 1));
            assert_eq!(c.insert(last, 1), EvictionOutcome::Inserted);
            assert_eq!(c.iter().collect::<Vec<_>>(), [(last, &1)]);
        }
    }

    #[test]
    #[should_panic(expected = "fits a u32 tag")]
    fn insert_beyond_the_tag_range_panics() {
        small().insert(LineAddr(u64::MAX), 0);
    }

    #[test]
    fn clear_empties() {
        let mut c = small();
        c.insert(LineAddr(0), 1);
        c.clear();
        assert!(c.is_empty());
    }
}
