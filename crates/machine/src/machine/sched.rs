//! The core scheduler: an indexed binary min-heap over `(clock, core_id)`,
//! plus the wait list of cores parked off it.
//!
//! [`Machine::run`](super::Machine::run) must always advance the core with
//! the smallest clock, ties broken by core id. A linear scan is O(cores)
//! per simulated step; this heap makes it O(log cores) while selecting the
//! *exact same* core every step, because `(clock, core_id)` is a total
//! order. Clocks only ever increase, so re-keying after a step or a remote
//! abort is a sift-down plus a defensive sift-up.
//!
//! # Parking
//!
//! Three kinds of wait would otherwise re-poll every `spin_interval`
//! cycles: a lock-group poll, a fallback-lock poll, and the re-send of a
//! pending load or store whose line another core holds locked (Fig. 6).
//! Every one of those polls fails again until some other core releases
//! what the poller waits on, and a failed poll changes no state but the
//! poller's own clock and wait counters. So after one real failed poll the
//! core leaves the heap and parks on the [`WaitList`], keeping its next
//! poll time as its clock. Its later polls are never executed; they are
//! *credited* when it wakes.
//!
//! A step that releases something a parked core polls for wakes it: a
//! cacheline-lock release wakes the cores whose lock group or pending
//! line that holder blocks, a fallback write release wakes every fallback
//! waiter, and a read release that leaves no readers wakes the
//! fallback-mode waiters. If the releasing step ran at heap key `(r, R)`,
//! the woken core `w` re-enters the heap at its first poll time `t` with
//! `(t, w) > (r, R)` — the first poll the polling scheduler would have run
//! after the release, since pops come in non-decreasing key order — and
//! every poll it skipped is credited exactly as the executed poll would
//! have counted it. A spurious wake is harmless (the core just polls for
//! real at `t`, as it would have), so wake conditions only have to be
//! complete, not exact. Runs are therefore step-for-step identical to
//! per-poll spinning, counters included.
//!
//! Two more rules keep it that way:
//!
//! * **Materialise.** A pending core is still inside a speculative
//!   attempt, so a remote conflict can reach it while it is parked. The
//!   conflict reads the victim's clock, so before it is delivered the
//!   victim is unparked at its first poll after the current step (the
//!   skipped polls credited) and re-enters the heap after that step.
//! * **Re-park.** An unlock wakes every core its holder blocks, but the
//!   first poller to run may take the lock again, and then every other
//!   woken core's poll fails. So after a step that wakes a core or
//!   acquires a lock (a cacheline-lock group, or the fallback lock for
//!   read or write), each woken core whose first poll has not run yet is
//!   re-checked with that poll's own read-only blocker predicate. If it is
//!   still blocked it leaves the heap and parks again without a charge:
//!   its clock already holds its next poll time, and that poll repeats one
//!   that already failed, so nothing a first poll does is skipped.

use super::{Machine, Phase};
use clear_coherence::CoreId;

/// Indexed min-heap of core ids keyed by `(clock, core_id)`.
#[derive(Debug)]
pub(super) struct CoreHeap {
    /// Heap array of core ids.
    heap: Vec<usize>,
    /// `pos[core]` = index of `core` in `heap`, or [`CoreHeap::ABSENT`].
    pos: Vec<usize>,
    /// `clock[core]` = the key the heap currently believes.
    clock: Vec<u64>,
}

impl CoreHeap {
    const ABSENT: usize = usize::MAX;

    /// An empty heap able to hold cores `0..n`.
    pub(super) fn new(n: usize) -> Self {
        CoreHeap {
            heap: Vec::with_capacity(n),
            pos: vec![Self::ABSENT; n],
            clock: vec![0; n],
        }
    }

    fn key(&self, core: usize) -> (u64, usize) {
        (self.clock[core], core)
    }

    /// Inserts `core` with the given clock. Must not already be present.
    pub(super) fn push(&mut self, core: usize, clock: u64) {
        debug_assert_eq!(self.pos[core], Self::ABSENT, "core {core} already queued");
        self.clock[core] = clock;
        self.pos[core] = self.heap.len();
        self.heap.push(core);
        self.sift_up(self.heap.len() - 1);
    }

    /// The core with the smallest `(clock, core_id)`, if any.
    pub(super) fn peek(&self) -> Option<usize> {
        self.heap.first().copied()
    }

    /// Updates `core`'s clock and restores heap order. Returns `false`
    /// (and does nothing) if the core is not in the heap.
    pub(super) fn update(&mut self, core: usize, clock: u64) -> bool {
        let i = self.pos[core];
        if i == Self::ABSENT {
            return false;
        }
        if clock == self.clock[core] {
            return true; // key unchanged, heap order intact
        }
        let grew = clock > self.clock[core];
        self.clock[core] = clock;
        if grew {
            // Clocks are monotonic in the machine, so sifting down suffices.
            self.sift_down(i);
        } else {
            let i = self.sift_down(i);
            self.sift_up(i);
        }
        true
    }

    /// Removes `core` from the heap. No-op if absent.
    pub(super) fn remove(&mut self, core: usize) {
        let i = self.pos[core];
        if i == Self::ABSENT {
            return;
        }
        self.pos[core] = Self::ABSENT;
        let last = self.heap.pop().expect("non-empty heap");
        if last != core {
            self.heap[i] = last;
            self.pos[last] = i;
            let i = self.sift_down(i);
            self.sift_up(i);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.key(self.heap[i]) >= self.key(self.heap[parent]) {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) -> usize {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < self.heap.len() && self.key(self.heap[l]) < self.key(self.heap[smallest]) {
                smallest = l;
            }
            if r < self.heap.len() && self.key(self.heap[r]) < self.key(self.heap[smallest]) {
                smallest = r;
            }
            if smallest == i {
                return i;
            }
            self.swap(i, smallest);
            i = smallest;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a]] = a;
        self.pos[self.heap[b]] = b;
    }
}

/// What a parked core waits for; the wake rule keys on it.
///
/// A `holder` only selects which unlock wakes the core: any core holding a
/// line the poll needs fails the poll until it releases, so it need not be
/// the holder a real poll would have named.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum WaitOn {
    /// A lock-group line held by core `holder` (a lock-acquire spin).
    Line { holder: usize },
    /// The line of a pending load or store, held by core `holder` (a
    /// retried request, Fig. 6).
    Pending { holder: usize },
    /// The fallback lock's writer to leave (CL-mode and speculative
    /// attempt starts).
    FallbackWriter,
    /// The fallback lock to be free of its writer and all readers
    /// (fallback-path entry).
    FallbackIdle,
}

/// Where a core stands on the wait list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// In the heap, or finished.
    Free,
    /// Parked off the heap on the wait.
    Parked(WaitOn),
    /// Woken from the wait and back in the heap, its first poll not yet
    /// run: a candidate for a re-park.
    Woken(WaitOn),
}

/// Cores parked off the [`CoreHeap`] and the releases the current step
/// made, which the run loop turns into wakes.
#[derive(Debug)]
pub(super) struct WaitList {
    /// `slots[core]` = where `core` stands.
    slots: Vec<Slot>,
    /// Parked core ids (any order: wakes re-key by `(clock, core_id)`).
    parked: Vec<usize>,
    /// Cores woken since the last re-check, possibly stale (a core that
    /// polled meanwhile is [`Slot::Free`] again) or repeated.
    woken: Vec<usize>,
    /// Cores a conflict unparked during the current step.
    materialized: Vec<usize>,
    /// Heap key of the step being run.
    now: (u64, usize),
    /// Cores that dropped their cacheline locks during the current step.
    unlocked: Vec<usize>,
    /// The current step released the fallback write lock.
    writer_left: bool,
    /// The current step released the last fallback read lock.
    readers_left: bool,
    /// The current step acquired a cacheline-lock group or the fallback
    /// lock, or woke a core: a woken core may be blocked again.
    recheck: bool,
}

impl WaitList {
    /// An empty wait list for cores `0..n`.
    pub(super) fn new(n: usize) -> Self {
        WaitList {
            slots: vec![Slot::Free; n],
            parked: Vec::new(),
            woken: Vec::new(),
            materialized: Vec::new(),
            now: (0, 0),
            unlocked: Vec::new(),
            writer_left: false,
            readers_left: false,
            recheck: false,
        }
    }

    /// Parks `core` on `on`. Must not already be parked.
    pub(super) fn park(&mut self, core: usize, on: WaitOn) {
        debug_assert!(!self.is_parked(core), "core {core} already parked");
        self.slots[core] = Slot::Parked(on);
        self.parked.push(core);
    }

    /// Unparks `core`, returning what it waited on; `None` if it was not
    /// parked. A woken core loses its re-park candidacy either way: the
    /// caller is about to change its state.
    fn unpark(&mut self, core: usize) -> Option<WaitOn> {
        match std::mem::replace(&mut self.slots[core], Slot::Free) {
            Slot::Parked(on) => {
                let i = self.parked.iter().position(|&p| p == core).expect("parked");
                self.parked.swap_remove(i);
                Some(on)
            }
            Slot::Free | Slot::Woken(_) => None,
        }
    }

    /// `true` if `core` is parked.
    pub(super) fn is_parked(&self, core: usize) -> bool {
        matches!(self.slots[core], Slot::Parked(_))
    }

    /// `true` if no core is parked.
    pub(super) fn is_empty(&self) -> bool {
        self.parked.is_empty()
    }

    /// Opens the step of `core` at heap key `now`: a woken core's first
    /// poll is about to run, so it stops being a re-park candidate.
    pub(super) fn begin_step(&mut self, core: usize, now: (u64, usize)) {
        self.now = now;
        if let Slot::Woken(_) = self.slots[core] {
            self.slots[core] = Slot::Free;
        }
    }

    /// Notes that `core` released its cacheline locks (a no-op unless
    /// some core is parked).
    pub(super) fn note_unlock(&mut self, core: usize) {
        if !self.parked.is_empty() {
            self.unlocked.push(core);
        }
    }

    /// Notes a fallback write-lock release.
    pub(super) fn note_writer_left(&mut self) {
        self.writer_left = true;
    }

    /// Notes a fallback read-lock release that left no readers.
    pub(super) fn note_readers_left(&mut self) {
        self.readers_left = true;
    }

    /// Notes a cacheline-lock group or fallback-lock acquisition, which
    /// may block a woken core again.
    pub(super) fn note_acquire(&mut self) {
        self.recheck = true;
    }

    /// Unparks every core the current step's releases may have unblocked,
    /// appending `(core, wait)` to `out`, and forgets the releases.
    pub(super) fn take_woken(&mut self, out: &mut Vec<(usize, WaitOn)>) {
        if self.unlocked.is_empty() && !self.writer_left && !self.readers_left {
            return;
        }
        let (unlocked, writer, readers) = (&self.unlocked, self.writer_left, self.readers_left);
        let (slots, woken, recheck) = (&mut self.slots, &mut self.woken, &mut self.recheck);
        // Drop stale candidates first, so each core is listed at most once.
        woken.retain(|&c| matches!(slots[c], Slot::Woken(_)));
        self.parked.retain(|&c| {
            let Slot::Parked(on) = slots[c] else {
                unreachable!("parked core {c} has a wait")
            };
            let wake = match on {
                WaitOn::Line { holder } | WaitOn::Pending { holder } => unlocked.contains(&holder),
                WaitOn::FallbackWriter => writer,
                WaitOn::FallbackIdle => writer || readers,
            };
            if wake {
                *recheck = true;
                slots[c] = Slot::Woken(on);
                woken.push(c);
                out.push((c, on));
            }
            !wake
        });
        self.unlocked.clear();
        self.writer_left = false;
        self.readers_left = false;
    }

    /// Unparks every core, appending `(core, wait)` to `out`.
    pub(super) fn take_all(&mut self, out: &mut Vec<(usize, WaitOn)>) {
        for c in self.parked.drain(..) {
            let Slot::Parked(on) = std::mem::replace(&mut self.slots[c], Slot::Free) else {
                unreachable!("parked core {c} has a wait")
            };
            out.push((c, on));
        }
    }

    /// `true` if the current step acquired a lock or woke a core and some
    /// woken core may not have polled yet; forgets the step's note.
    fn take_recheck(&mut self) -> bool {
        std::mem::take(&mut self.recheck) && !self.woken.is_empty()
    }
}

/// The number of polls a parked core skips before waking: its polls fall
/// at `next_poll`, `next_poll + spin`, …, and it resumes at the first one
/// ordered after the releasing step `after = (r, releaser)` in heap-key
/// order, i.e. the first poll time `t` with `(t, core) > (r, releaser)`.
/// `spin` must be non-zero.
pub(super) fn polls_skipped(next_poll: u64, spin: u64, core: usize, after: (u64, usize)) -> u64 {
    let (r, releaser) = after;
    if (next_poll, core) > after {
        return 0;
    }
    // Polls at next_poll + i * spin for i in 0..=k fall at or before r.
    let k = (r - next_poll) / spin;
    if next_poll + k * spin == r && core > releaser {
        k
    } else {
        k + 1
    }
}

impl Machine {
    /// A failed lock, fallback-lock or pending poll by core `c`: charges the
    /// poll's wait interval, then parks `c` until a release (see the module
    /// docs). The caller's step still counts as a real scheduler step.
    ///
    /// # Panics
    ///
    /// Panics on a zero `spin_interval`, which would re-poll at the same
    /// clock forever.
    pub(super) fn park(&mut self, c: usize, on: WaitOn) {
        assert!(
            self.config.timing.spin_interval > 0,
            "a zero spin_interval never advances a waiting core"
        );
        self.charge_polls(c, on, 1);
        self.waits.park(c, on);
    }

    /// The clock and wait counters `polls` failed polls of `c` advance.
    fn charge_polls(&mut self, c: usize, on: WaitOn, polls: u64) {
        let cycles = polls * self.config.timing.spin_interval;
        self.clocks[c] += cycles;
        match on {
            WaitOn::Line { .. } => {
                self.cores[c].lock_wait_acc += cycles;
                self.stats.lock_spin_cycles += cycles;
            }
            WaitOn::Pending { .. } => self.stats.pending_stall_cycles += cycles,
            WaitOn::FallbackWriter | WaitOn::FallbackIdle => {
                self.stats.fallback_wait_cycles += cycles;
            }
        }
    }

    /// Credits `polls` skipped polls of parked core `w` exactly as the
    /// executed polls would have counted: each is one scheduler step and
    /// one heap re-key, and a lock poll reuses the group scratch buffer (a
    /// failed re-send uses none).
    fn credit_skipped(&mut self, w: usize, on: WaitOn, polls: u64) {
        self.charge_polls(w, on, polls);
        self.perf.steps += polls;
        self.perf.sched_updates += polls;
        self.perf.polls_elided += polls;
        if let WaitOn::Line { .. } = on {
            self.perf.allocs_avoided += polls;
        }
    }

    /// Drops `c`'s cacheline locks and its fallback read lock, noting both
    /// releases for the wake pass.
    pub(super) fn release_cl_locks(&mut self, c: usize) {
        self.coherence.unlock_all(CoreId(c));
        self.waits.note_unlock(c);
        if self.fallback.is_reader(CoreId(c)) {
            self.fallback.release_read(CoreId(c));
            if !self.fallback.has_readers() {
                self.waits.note_readers_left();
            }
        }
    }

    /// Drops `c`'s fallback write lock, noting the release for the wake
    /// pass.
    pub(super) fn release_fallback_write(&mut self, c: usize) {
        self.fallback.release_write(CoreId(c));
        self.waits.note_writer_left();
    }

    /// Brings parked core `v` back before a conflict is delivered to it:
    /// the conflict reads `v`'s clock, so `v` moves to its first poll after
    /// the current step, skipped polls credited, and re-enters the heap
    /// after the step ([`Machine::push_materialized`]). A woken core that
    /// has not polled stops being a re-park candidate, since the conflict
    /// changes what its next step does.
    pub(super) fn materialize(&mut self, v: usize) {
        if let Some(on) = self.waits.unpark(v) {
            self.catch_up(v, on, self.waits.now);
            self.waits.materialized.push(v);
            self.perf.materialized += 1;
        }
    }

    /// Pushes the cores the current step materialised back into the heap.
    pub(super) fn push_materialized(&mut self, sched: &mut CoreHeap) {
        for v in self.waits.materialized.drain(..) {
            sched.push(v, self.clocks[v]);
        }
    }

    /// The wake pass after the current step: every core its releases may
    /// have unblocked re-enters the heap at its first poll ordered after
    /// that step, skipped polls credited. Then, if the step acquired a lock
    /// or woke a core, the re-park pass.
    pub(super) fn wake_released(&mut self, sched: &mut CoreHeap) {
        let mut woken = std::mem::take(&mut self.scratch_woken);
        self.waits.take_woken(&mut woken);
        for (w, on) in woken.drain(..) {
            self.catch_up(w, on, self.waits.now);
            sched.push(w, self.clocks[w]);
        }
        self.scratch_woken = woken;
        if self.waits.take_recheck() {
            self.repark_blocked(sched);
        }
    }

    /// Sends every woken core whose first poll has not run and would fail
    /// back to the wait list, uncharged: its clock already holds that
    /// poll's time, and the wake that ends the new wait credits it.
    fn repark_blocked(&mut self, sched: &mut CoreHeap) {
        let mut woken = std::mem::take(&mut self.waits.woken);
        woken.retain(|&w| {
            let Slot::Woken(on) = self.waits.slots[w] else {
                return false;
            };
            let Some(again) = self.poll_blocker(w) else {
                return true;
            };
            debug_assert_eq!(
                std::mem::discriminant(&on),
                std::mem::discriminant(&again),
                "core {w} re-checked against another kind of wait"
            );
            sched.remove(w);
            self.waits.slots[w] = Slot::Free;
            self.waits.park(w, again);
            self.perf.reparks += 1;
            false
        });
        self.waits.woken = woken;
    }

    /// What core `c`'s next poll would fail on if it ran now, by the same
    /// read-only predicate the poll itself decides with; `None` when its
    /// next step is no poll or would succeed.
    fn poll_blocker(&self, c: usize) -> Option<WaitOn> {
        match self.phases[c] {
            Phase::StartAttempt => self.fallback_blocker(c),
            Phase::LockAcquire { idx } => self
                .group_blocker(c, idx)
                .map(|holder| WaitOn::Line { holder }),
            Phase::Running => self
                .pending_blocker(c)
                .map(|holder| WaitOn::Pending { holder }),
            Phase::Idle | Phase::Think { .. } | Phase::Finished => None,
        }
    }

    /// The `max_cycles` stop: the polling scheduler would have run every
    /// poll at or before `max_cycles`, so each parked core materialises at
    /// its first poll past it (those polls credited), and the run is marked
    /// timed out.
    pub(super) fn time_out_parked(&mut self) {
        let mut woken = std::mem::take(&mut self.scratch_woken);
        self.waits.take_all(&mut woken);
        for (w, on) in woken.drain(..) {
            self.catch_up(w, on, (self.config.max_cycles, usize::MAX));
        }
        self.scratch_woken = woken;
        self.stats.timed_out = true;
    }

    /// Advances unparked core `w` to its first poll after heap key
    /// `after`, crediting the polls skipped on the way.
    fn catch_up(&mut self, w: usize, on: WaitOn, after: (u64, usize)) {
        let spin = self.config.timing.spin_interval;
        let polls = polls_skipped(self.clocks[w], spin, w, after);
        self.credit_skipped(w, on, polls);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(h: &mut CoreHeap) -> Vec<usize> {
        let mut out = Vec::new();
        while let Some(c) = h.peek() {
            out.push(c);
            h.remove(c);
        }
        out
    }

    #[test]
    fn pops_in_clock_then_id_order() {
        let mut h = CoreHeap::new(4);
        h.push(0, 30);
        h.push(1, 10);
        h.push(2, 10);
        h.push(3, 20);
        assert_eq!(drain(&mut h), vec![1, 2, 3, 0]);
    }

    #[test]
    fn update_rekeys() {
        let mut h = CoreHeap::new(3);
        for c in 0..3 {
            h.push(c, 0);
        }
        assert_eq!(h.peek(), Some(0));
        assert!(h.update(0, 100));
        assert_eq!(h.peek(), Some(1));
        assert!(h.update(1, 50));
        assert_eq!(h.peek(), Some(2));
        h.remove(2);
        assert_eq!(drain(&mut h), vec![1, 0]);
    }

    #[test]
    fn update_or_remove_of_absent_core_is_a_noop() {
        let mut h = CoreHeap::new(2);
        h.push(0, 5);
        assert!(!h.update(1, 9));
        h.remove(1);
        assert_eq!(drain(&mut h), vec![0]);
    }

    /// The polling schedule, run poll by poll: the number of polls at
    /// `next_poll + i * spin` that precede the release key `after`.
    fn reference_polls(next_poll: u64, spin: u64, core: usize, after: (u64, usize)) -> u64 {
        let mut polls = 0;
        let mut t = next_poll;
        while (t, core) < after {
            polls += 1;
            t += spin;
        }
        polls
    }

    #[test]
    fn wake_arithmetic_matches_a_reference_poller() {
        use clear_mem::rng::SplitMix64;
        let mut rng = SplitMix64::new(0x9A2C);
        for _ in 0..20_000 {
            let spin = 1 + rng.below(20);
            let next_poll = rng.below(200);
            let core = rng.index(8);
            let releaser = rng.index(8);
            // Bias releases onto poll boundaries, where ties decide.
            let r = if rng.flip() {
                next_poll + spin * rng.below(10)
            } else {
                rng.below(400)
            };
            if core == releaser {
                continue;
            }
            let after = (r, releaser);
            assert_eq!(
                polls_skipped(next_poll, spin, core, after),
                reference_polls(next_poll, spin, core, after),
                "next_poll {next_poll} spin {spin} core {core} after {after:?}"
            );
        }
    }

    #[test]
    fn wakes_on_a_poll_boundary_follow_the_core_id_tie_break() {
        // Polls at 100, 115, 130, …; the release lands on the 130 poll.
        // A higher-id core polls right after the releasing step, at 130.
        assert_eq!(polls_skipped(100, 15, 5, (130, 3)), 2);
        // A lower-id core's 130 poll ran before the release: next is 145.
        assert_eq!(polls_skipped(100, 15, 2, (130, 3)), 3);
        // A release exactly at the next poll time.
        assert_eq!(polls_skipped(100, 15, 5, (100, 3)), 0);
        assert_eq!(polls_skipped(100, 15, 2, (100, 3)), 1);
        // A release before the next poll, and one between polls.
        assert_eq!(polls_skipped(100, 15, 2, (40, 3)), 0);
        assert_eq!(polls_skipped(100, 15, 2, (121, 3)), 2);
        // The max_cycles stop: every poll at or before the bound ran.
        assert_eq!(polls_skipped(100, 15, 2, (130, usize::MAX)), 3);
    }

    #[test]
    fn releases_wake_exactly_their_waiters() {
        let mut w = WaitList::new(5);
        w.park(1, WaitOn::Line { holder: 0 });
        w.park(2, WaitOn::Line { holder: 4 });
        w.park(3, WaitOn::FallbackWriter);
        w.park(4, WaitOn::FallbackIdle);
        let mut out = Vec::new();
        w.take_woken(&mut out);
        assert!(out.is_empty(), "no release, no wake");

        w.note_unlock(0);
        w.take_woken(&mut out);
        assert_eq!(out, vec![(1, WaitOn::Line { holder: 0 })]);
        assert!(!w.is_parked(1) && w.is_parked(2));

        out.clear();
        w.note_readers_left();
        w.take_woken(&mut out);
        assert_eq!(out, vec![(4, WaitOn::FallbackIdle)]);

        out.clear();
        w.park(4, WaitOn::FallbackIdle);
        w.note_writer_left();
        w.take_woken(&mut out);
        out.sort_by_key(|&(c, _)| c);
        assert_eq!(
            out,
            vec![(3, WaitOn::FallbackWriter), (4, WaitOn::FallbackIdle)]
        );
        assert!(w.is_parked(2) && !w.is_empty());

        out.clear();
        w.take_all(&mut out);
        assert_eq!(out, vec![(2, WaitOn::Line { holder: 4 })]);
        assert!(w.is_empty());
    }

    #[test]
    fn an_unlock_wakes_pending_waiters_on_that_holder() {
        let mut w = WaitList::new(4);
        w.park(1, WaitOn::Pending { holder: 0 });
        w.park(2, WaitOn::Pending { holder: 3 });
        w.note_unlock(0);
        let mut out = Vec::new();
        w.take_woken(&mut out);
        assert_eq!(out, vec![(1, WaitOn::Pending { holder: 0 })]);
        assert!(w.is_parked(2));
    }

    #[test]
    fn woken_cores_stay_repark_candidates_until_they_poll() {
        let mut w = WaitList::new(4);
        assert!(!w.take_recheck(), "nothing acquired or woken");
        w.note_acquire();
        assert!(!w.take_recheck(), "no woken core to re-check");
        w.park(1, WaitOn::FallbackWriter);
        w.park(2, WaitOn::FallbackWriter);
        w.note_writer_left();
        let mut out = Vec::new();
        w.take_woken(&mut out);
        assert_eq!(out.len(), 2);
        assert!(w.take_recheck(), "a wake re-checks the woken");
        assert!(!w.take_recheck(), "the note is forgotten");
        w.begin_step(1, (0, 1));
        assert_eq!(w.slots[1], Slot::Free, "its first poll is running");
        assert_eq!(w.slots[2], Slot::Woken(WaitOn::FallbackWriter));
        assert_eq!(w.unpark(2), None, "a woken core is not parked");
        assert_eq!(w.slots[2], Slot::Free, "a conflict ends candidacy");
        w.park(3, WaitOn::Line { holder: 0 });
        assert_eq!(w.unpark(3), Some(WaitOn::Line { holder: 0 }));
        assert!(w.is_empty());
    }

    #[test]
    fn unlocks_are_only_noted_while_someone_waits() {
        let mut w = WaitList::new(3);
        w.note_unlock(0);
        w.park(1, WaitOn::Line { holder: 0 });
        let mut out = Vec::new();
        w.take_woken(&mut out);
        assert!(out.is_empty(), "an unlock before the park is stale");
    }

    #[test]
    fn matches_linear_scan_on_random_schedule() {
        use clear_mem::rng::SplitMix64;
        let n = 9;
        let mut rng = SplitMix64::new(0xC0FE);
        let mut clocks: Vec<Option<u64>> = (0..n).map(|_| Some(0)).collect();
        let mut h = CoreHeap::new(n);
        for c in 0..n {
            h.push(c, 0);
        }
        for _ in 0..2000 {
            let expect = clocks
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.map(|v| (v, i)))
                .min()
                .map(|(_, i)| i);
            assert_eq!(h.peek(), expect);
            let Some(c) = expect else { break };
            if rng.below(20) == 0 {
                clocks[c] = None;
                h.remove(c);
            } else {
                let bump = rng.below(50);
                let v = clocks[c].unwrap() + bump;
                clocks[c] = Some(v);
                h.update(c, v);
                // Occasionally a "remote abort" bumps another core too.
                if rng.flip() {
                    let other = rng.index(n);
                    if let Some(o) = clocks[other] {
                        clocks[other] = Some(o + 7);
                        h.update(other, o + 7);
                    }
                }
            }
        }
    }
}
