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
    /// `sets × ways` entries; `None` = free way. Left empty until the first
    /// insert, so a cache that is never written costs no way storage (a
    /// many-core machine builds one L1 per core, most of which stay cold
    /// in short runs); every read path treats the empty store as all-free.
    ways: Vec<Option<Entry<T>>>,
    /// Monotonic counter for LRU timestamps.
    tick: u64,
}

#[derive(Clone, Debug)]
struct Entry<T> {
    line: LineAddr,
    last_use: u64,
    payload: T,
}

impl<T> SetAssocCache<T> {
    /// Creates an empty cache with the given geometry. Way storage is
    /// allocated by the first insert.
    pub fn new(geometry: CacheGeometry) -> Self {
        SetAssocCache {
            geometry,
            ways: Vec::new(),
            tick: 0,
        }
    }

    /// The geometry this cache was created with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let set = self.geometry.set_index(line);
        let start = set * self.geometry.ways;
        start..start + self.geometry.ways
    }

    /// The ways of `line`'s set; empty while no way storage exists.
    fn set_ways(&self, line: LineAddr) -> &[Option<Entry<T>>] {
        self.ways.get(self.set_range(line)).unwrap_or_default()
    }

    /// Mutable [`SetAssocCache::set_ways`].
    fn set_ways_mut(&mut self, line: LineAddr) -> &mut [Option<Entry<T>>] {
        let range = self.set_range(line);
        self.ways.get_mut(range).unwrap_or_default()
    }

    /// Allocates the way storage on first use.
    fn allocate(&mut self) {
        if self.ways.is_empty() {
            self.ways.resize_with(self.geometry.lines(), || None);
        }
    }

    /// Returns a reference to the payload of `line` if present, refreshing
    /// its LRU position.
    pub fn touch(&mut self, line: LineAddr) -> Option<&mut T> {
        self.tick += 1;
        let tick = self.tick;
        self.set_ways_mut(line)
            .iter_mut()
            .flatten()
            .find(|e| e.line == line)
            .map(|e| {
                e.last_use = tick;
                &mut e.payload
            })
    }

    /// Index of `line`'s way in the backing store, if cached — lets a
    /// probe/apply pair share one lookup via [`SetAssocCache::payload_at`]
    /// and [`SetAssocCache::touch_at`] instead of re-scanning the set.
    /// The index stays valid until the cache is mutated.
    pub fn find_way(&self, line: LineAddr) -> Option<usize> {
        let start = self.set_range(line).start;
        self.set_ways(line)
            .iter()
            .position(|e| e.as_ref().is_some_and(|e| e.line == line))
            .map(|i| start + i)
    }

    /// Payload at a way index obtained from [`SetAssocCache::find_way`].
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range or the way is free.
    pub fn payload_at(&self, way: usize) -> &T {
        &self.ways[way].as_ref().expect("occupied way").payload
    }

    /// Refreshes the LRU position of the entry at `way` (same effect as
    /// [`SetAssocCache::touch`] on its line) and returns its payload.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range or the way is free.
    pub fn touch_at(&mut self, way: usize) -> &mut T {
        self.tick += 1;
        let e = self.ways[way].as_mut().expect("occupied way");
        e.last_use = self.tick;
        &mut e.payload
    }

    /// Returns a reference to the payload of `line` if present, without
    /// touching LRU state.
    pub fn get(&self, line: LineAddr) -> Option<&T> {
        self.set_ways(line)
            .iter()
            .flatten()
            .find(|e| e.line == line)
            .map(|e| &e.payload)
    }

    /// Returns a mutable reference to the payload of `line` if present,
    /// without touching LRU state.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        self.set_ways_mut(line)
            .iter_mut()
            .flatten()
            .find(|e| e.line == line)
            .map(|e| &mut e.payload)
    }

    /// Returns `true` if `line` is present.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.get(line).is_some()
    }

    /// Inserts `line` with `payload`, evicting the LRU way of its set if the
    /// set is full. If the line is already present its payload is replaced
    /// and `Hit` is returned.
    pub fn insert(&mut self, line: LineAddr, payload: T) -> EvictionOutcome {
        self.allocate();
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(line);

        // Already present?
        if let Some(e) = self.ways[range.clone()]
            .iter_mut()
            .flatten()
            .find(|e| e.line == line)
        {
            e.last_use = tick;
            e.payload = payload;
            return EvictionOutcome::Hit;
        }

        // Free way?
        if let Some(slot) = self.ways[range.clone()].iter_mut().find(|w| w.is_none()) {
            *slot = Some(Entry {
                line,
                last_use: tick,
                payload,
            });
            return EvictionOutcome::Inserted;
        }

        // Evict LRU.
        let victim_idx = range
            .clone()
            .min_by_key(|&i| self.ways[i].as_ref().map(|e| e.last_use).unwrap_or(0))
            .expect("non-empty set");
        let victim = self.ways[victim_idx]
            .replace(Entry {
                line,
                last_use: tick,
                payload,
            })
            .expect("victim way occupied");
        EvictionOutcome::Evicted(victim.line)
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
    pub fn insert_respecting<F>(
        &mut self,
        line: LineAddr,
        payload: T,
        pinned: F,
    ) -> Result<EvictionOutcome, PinnedSetFull>
    where
        F: Fn(&T) -> bool,
    {
        self.allocate();
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(line);

        if let Some(e) = self.ways[range.clone()]
            .iter_mut()
            .flatten()
            .find(|e| e.line == line)
        {
            e.last_use = tick;
            e.payload = payload;
            return Ok(EvictionOutcome::Hit);
        }

        if let Some(slot) = self.ways[range.clone()].iter_mut().find(|w| w.is_none()) {
            *slot = Some(Entry {
                line,
                last_use: tick,
                payload,
            });
            return Ok(EvictionOutcome::Inserted);
        }

        let victim_idx = range
            .clone()
            .filter(|&i| {
                self.ways[i]
                    .as_ref()
                    .map(|e| !pinned(&e.payload))
                    .unwrap_or(true)
            })
            .min_by_key(|&i| self.ways[i].as_ref().map(|e| e.last_use).unwrap_or(0));

        match victim_idx {
            Some(i) => {
                let victim = self.ways[i]
                    .replace(Entry {
                        line,
                        last_use: tick,
                        payload,
                    })
                    .expect("victim way occupied");
                Ok(EvictionOutcome::Evicted(victim.line))
            }
            None => Err(PinnedSetFull),
        }
    }

    /// Removes `line`, returning its payload if it was present.
    pub fn remove(&mut self, line: LineAddr) -> Option<T> {
        self.set_ways_mut(line)
            .iter_mut()
            .find(|w| w.as_ref().is_some_and(|e| e.line == line))
            .and_then(|w| w.take())
            .map(|e| e.payload)
    }

    /// Iterates over all resident `(line, payload)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.ways.iter().flatten().map(|e| (e.line, &e.payload))
    }

    /// Iterates mutably over all resident `(line, payload)` pairs.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (LineAddr, &mut T)> {
        self.ways
            .iter_mut()
            .flatten()
            .map(|e| (e.line, &mut e.payload))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.ways.iter().flatten().count()
    }

    /// Returns `true` if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every resident line.
    pub fn clear(&mut self) {
        self.ways.iter_mut().for_each(|w| *w = None);
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
    fn clear_empties() {
        let mut c = small();
        c.insert(LineAddr(0), 1);
        c.clear();
        assert!(c.is_empty());
    }
}
