//! The core scheduler: an indexed binary min-heap over `(clock, core_id)`,
//! plus the wait queues of cores parked off it.
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
//! Every waiter parks in one keyed queue: a lock or pending waiter in the
//! queue of the *line* its poll failed on, a fallback waiter in one of the
//! fallback lock's two queues, [`QueueKey::FallbackWriter`] (waiting for
//! the writer to leave) or [`QueueKey::FallbackIdle`] (waiting for the
//! writer and every reader to leave). If the step that releases what a
//! core `w` waits on ran at heap key `(r, R)`, the next poll per-poll
//! spinning would run for `w` is its first poll time `t` with
//! `(t, w) > (r, R)`, since pops come in non-decreasing key order. A woken
//! core re-enters the heap at `t`, and every poll it skipped is credited
//! exactly as the executed poll would have counted it. A spurious wake is
//! harmless (the core just polls for real at `t`, as it would have), so
//! wake conditions only have to be complete, not exact. Runs are therefore
//! step-for-step identical to per-poll spinning, counters included. These
//! rules keep it that way:
//!
//! * **Queues.** A release turns a queue *live* at the release key: a line
//!   release its line's queue, a fallback write release both fallback
//!   queues, and a read release that leaves no readers the
//!   `FallbackIdle` queue. One member, the *head*, goes back into the
//!   heap: the one with the smallest first-poll key. Per-poll spinning
//!   would run the members' polls in that key order. Each poll either
//!   takes the lock (a lock poll, a fallback-path entry) or leaves it free
//!   for the rest of the queue (a pending re-send, a lock poll that
//!   another group line fails, a speculative start, or a CL-mode start,
//!   whose read lock does not bar the writer queue), so when the head has
//!   stepped and the queue is still live, the next head is elected from
//!   the same release key, and it polls after the head did. A lock that
//!   fails every member's poll makes the queue *dormant*: a line lock its
//!   line's queue, a fallback write lock both fallback queues, a read
//!   lock the `FallbackIdle` queue. A dormant queue elects no one, but a
//!   head it already elected stays in the heap until its first poll runs.
//!   If that poll fails, on this lock or on another line of its lock
//!   group, the head parks like every failed poll: charged once, in the
//!   queue of whatever blocks it now. Per-poll spinning runs that poll
//!   too, so this is exact; the queue only has to stop electing heads
//!   whose polls would fail one after another.
//! * **Deferred catch-up.** Only a head is caught up. A member keeps its
//!   stale clock across any number of releases: catching up from it to
//!   the first poll after a later release credits the same polls as
//!   catching up at each release in turn, because every poll before the
//!   earlier release key also precedes the later one.
//! * **Materialise.** A pending core is still inside a speculative
//!   attempt, so a remote conflict can reach it while it is parked. The
//!   conflict reads the victim's clock, so before it is delivered the
//!   victim is unparked at its first poll after the current step (the
//!   skipped polls credited) and re-enters the heap after that step. For
//!   a member of a live queue that is the poll its release scheduled,
//!   which lies after the current step. A head is already in the heap: it
//!   leaves its queue, and the queue elects the next head.
//! * **Time-out.** At the `max_cycles` stop, the members of a live queue
//!   catch up to its release key, and the members of a dormant queue to
//!   their first poll past `max_cycles`.

use super::Machine;
use clear_coherence::CoreId;
use clear_mem::{FxHashMap, LineAddr};

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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum WaitOn {
    /// A lock-group line another core holds locked (a lock-acquire spin).
    Line { line: LineAddr },
    /// The line of a pending load or store, which another core holds
    /// locked (a retried request, Fig. 6).
    Pending { line: LineAddr },
    /// The fallback lock's writer to leave (CL-mode and speculative
    /// attempt starts).
    FallbackWriter,
    /// The fallback lock to be free of its writer and all readers
    /// (fallback-path entry).
    FallbackIdle,
}

impl WaitOn {
    /// The queue the wait joins.
    fn key(self) -> QueueKey {
        match self {
            WaitOn::Line { line } | WaitOn::Pending { line } => QueueKey::Line(line),
            WaitOn::FallbackWriter => QueueKey::FallbackWriter,
            WaitOn::FallbackIdle => QueueKey::FallbackIdle,
        }
    }
}

/// A wait queue: a line's, shared by lock and pending waits, or one of the
/// fallback lock's two. A release makes a queue live, a lock dormant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(super) enum QueueKey {
    /// Waits until the line is unlocked.
    Line(LineAddr),
    /// Waits until the fallback lock's writer leaves: a write release
    /// makes it live, a write lock dormant.
    FallbackWriter,
    /// Waits until the fallback lock's writer and every reader have left:
    /// a write release, or a read release that leaves no readers, makes it
    /// live, and a write or read lock dormant.
    FallbackIdle,
}

/// Where a core stands on the wait list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// In the heap, or finished.
    Free,
    /// Parked off the heap, a member of its wait's queue.
    Parked(WaitOn),
    /// Back in the heap with its first poll since the wake not yet run:
    /// its queue's head.
    Woken(WaitOn),
}

/// The cores parked on one [`QueueKey`].
#[derive(Debug, Default)]
struct WaitQueue {
    /// Parked members, any order. Their clocks may be stale: a member is
    /// caught up only when it is elected or brought back.
    members: Vec<usize>,
    /// The elected member in the heap whose first poll has not run.
    head: Option<usize>,
    /// Heap key of the release that made the queue live; `None` (dormant)
    /// while every member's poll would fail.
    live: Option<(u64, usize)>,
}

/// A core a wake pass puts back into the heap at its first poll after
/// heap key `after`, the polls it skipped credited.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Wake {
    pub(super) core: usize,
    pub(super) on: WaitOn,
    pub(super) after: (u64, usize),
}

/// Cores parked off the [`CoreHeap`] in keyed queues with one live head,
/// plus what the current step released and locked, which the wake pass
/// turns into wakes.
#[derive(Debug)]
pub(super) struct WaitList {
    /// `slots[core]` = where `core` stands.
    slots: Vec<Slot>,
    /// Number of [`Slot::Parked`] cores.
    parked: usize,
    /// The queue of every key some core waits on or heads. A queue with
    /// no member and no head is dropped.
    queues: FxHashMap<QueueKey, WaitQueue>,
    /// Member buffers of dropped queues, reused by new ones.
    spare: Vec<Vec<usize>>,
    /// Queues the wake pass must settle: released ones and ones whose
    /// head or a member left. May repeat.
    touched: Vec<QueueKey>,
    /// Cores a conflict unparked during the current step.
    materialized: Vec<usize>,
    /// Heap key of the step being run.
    now: (u64, usize),
}

impl WaitList {
    /// An empty wait list for cores `0..n`.
    pub(super) fn new(n: usize) -> Self {
        WaitList {
            slots: vec![Slot::Free; n],
            parked: 0,
            queues: FxHashMap::default(),
            spare: Vec::new(),
            touched: Vec::new(),
            materialized: Vec::new(),
            now: (0, 0),
        }
    }

    /// Parks `core` on `on`, in the queue of its key, which is locked and
    /// so dormant. Must not already be parked.
    pub(super) fn park(&mut self, core: usize, on: WaitOn) {
        debug_assert!(!self.is_parked(core), "core {core} already parked");
        self.slots[core] = Slot::Parked(on);
        self.parked += 1;
        let spare = &mut self.spare;
        let q = self.queues.entry(on.key()).or_insert_with(|| WaitQueue {
            members: spare.pop().unwrap_or_default(),
            ..WaitQueue::default()
        });
        debug_assert!(q.live.is_none(), "core {core} parked on a live queue");
        q.members.push(core);
    }

    /// Takes woken `core` out of its queue's head seat.
    fn leave_head(&mut self, core: usize, on: WaitOn) {
        let key = on.key();
        let q = self.queues.get_mut(&key).expect("a head has a queue");
        debug_assert_eq!(q.head, Some(core), "core {core} is not its queue's head");
        q.head = None;
        self.touched.push(key);
    }

    /// Unparks `core` for a conflict. Returns what it waited on, and
    /// `true` unless it sat in a live queue; `None` if it was not parked.
    /// A head, already in the heap, leaves its queue.
    fn unpark(&mut self, core: usize) -> Option<(WaitOn, bool)> {
        match std::mem::replace(&mut self.slots[core], Slot::Free) {
            Slot::Parked(on) => {
                self.parked -= 1;
                let key = on.key();
                let q = self.queues.get_mut(&key).expect("a member has a queue");
                let i = q.members.iter().position(|&m| m == core).expect("listed");
                q.members.swap_remove(i);
                self.touched.push(key);
                Some((on, q.live.is_none()))
            }
            Slot::Woken(on) => {
                self.leave_head(core, on);
                None
            }
            Slot::Free => None,
        }
    }

    /// `true` if `core` is parked.
    pub(super) fn is_parked(&self, core: usize) -> bool {
        matches!(self.slots[core], Slot::Parked(_))
    }

    /// `true` if no core is parked.
    pub(super) fn is_empty(&self) -> bool {
        self.parked == 0
    }

    /// Opens the step of `core` at heap key `now`. A woken core's first
    /// poll is about to run: a head leaves its queue, which elects its
    /// next head after the step if the line is still free.
    pub(super) fn begin_step(&mut self, core: usize, now: (u64, usize)) {
        self.now = now;
        if let Slot::Woken(on) = self.slots[core] {
            self.slots[core] = Slot::Free;
            self.leave_head(core, on);
        }
    }

    /// Notes that the current step released what the queues `keys` wait
    /// on: those queues turn live at the step's key.
    pub(super) fn note_released(&mut self, keys: impl IntoIterator<Item = QueueKey>) {
        if self.queues.is_empty() {
            return;
        }
        for key in keys {
            if let Some(q) = self.queues.get_mut(&key) {
                q.live = Some(self.now);
                self.touched.push(key);
            }
        }
    }

    /// Notes that the current step took a lock that fails every poll of
    /// the queues `keys`: they turn dormant and elect no further head. A
    /// head already in the heap stays there until its poll runs.
    pub(super) fn note_locked(&mut self, keys: impl IntoIterator<Item = QueueKey>) {
        for key in keys {
            if let Some(q) = self.queues.get_mut(&key) {
                q.live = None;
            }
        }
    }

    /// `true` if the current step left nothing for the wake pass.
    fn is_settled(&self) -> bool {
        self.touched.is_empty()
    }

    /// The wake pass of the current step: each touched live queue without
    /// a head elects the member with the smallest first-poll key after its
    /// release, appending it to `out`. `clocks` are the cores' clocks and
    /// `spin` the poll interval.
    pub(super) fn take_wakes(&mut self, clocks: &[u64], spin: u64, out: &mut Vec<Wake>) {
        for key in self.touched.drain(..) {
            let Some(q) = self.queues.get_mut(&key) else {
                continue;
            };
            if let (Some(after), None) = (q.live, q.head) {
                let first_poll = |&m: &usize| {
                    (
                        clocks[m] + polls_skipped(clocks[m], spin, m, after) * spin,
                        m,
                    )
                };
                let elected = q
                    .members
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, m)| first_poll(m));
                if let Some((i, _)) = elected {
                    let head = q.members.swap_remove(i);
                    let Slot::Parked(on) = self.slots[head] else {
                        unreachable!("member {head} is not parked")
                    };
                    self.slots[head] = Slot::Woken(on);
                    self.parked -= 1;
                    q.head = Some(head);
                    out.push(Wake {
                        core: head,
                        on,
                        after,
                    });
                }
            }
            if q.head.is_none() && q.members.is_empty() {
                let q = self.queues.remove(&key).expect("queue present");
                self.spare.push(q.members);
            }
        }
    }

    /// Unparks every core for the stop at heap key `stop`, appending each
    /// to `out`: a member of a live queue catches up to its release key,
    /// every other parked core to `stop`. Heads, already caught up, just
    /// leave their queues.
    pub(super) fn take_all(&mut self, stop: (u64, usize), out: &mut Vec<Wake>) {
        for (_, mut q) in self.queues.drain() {
            if let Some(head) = q.head {
                self.slots[head] = Slot::Free;
            }
            let after = q.live.unwrap_or(stop);
            for c in q.members.drain(..) {
                let Slot::Parked(on) = std::mem::replace(&mut self.slots[c], Slot::Free) else {
                    unreachable!("member {c} is not parked")
                };
                out.push(Wake { core: c, on, after });
            }
            self.spare.push(q.members);
        }
        self.parked = 0;
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
        let held = self.coherence.locks_held(CoreId(c));
        debug_assert!(
            held.iter()
                .all(|&l| self.coherence.locked_by(l) == Some(CoreId(c))),
            "core {c} lists a line it does not hold"
        );
        self.waits
            .note_released(held.iter().map(|&l| QueueKey::Line(l)));
        self.coherence.unlock_all(CoreId(c));
        if self.fallback.is_reader(CoreId(c)) {
            self.fallback.release_read(CoreId(c));
            if !self.fallback.has_readers() {
                self.waits.note_released([QueueKey::FallbackIdle]);
            }
        }
    }

    /// Takes the fallback lock for `c`, for writing (a fallback-path entry)
    /// or reading (a CL-mode start), noting the queues it makes dormant:
    /// a write lock bars both, a read lock only the idle queue.
    pub(super) fn take_fallback(&mut self, c: usize, write: bool) {
        if write {
            let won = self.fallback.try_write(CoreId(c));
            debug_assert!(won, "fallback_blocker passed a held lock");
            self.waits
                .note_locked([QueueKey::FallbackWriter, QueueKey::FallbackIdle]);
        } else {
            let won = self.fallback.try_read(CoreId(c));
            debug_assert!(won, "fallback_blocker passed a write-held lock");
            self.waits.note_locked([QueueKey::FallbackIdle]);
        }
    }

    /// Drops `c`'s fallback write lock, noting the release for the wake
    /// pass.
    pub(super) fn release_fallback_write(&mut self, c: usize) {
        self.fallback.release_write(CoreId(c));
        self.waits
            .note_released([QueueKey::FallbackWriter, QueueKey::FallbackIdle]);
    }

    /// Brings parked core `v` back before a conflict is delivered to it:
    /// the conflict reads `v`'s clock, so `v` moves to its first poll after
    /// the current step, skipped polls credited, and re-enters the heap
    /// after the step ([`Machine::push_materialized`]). For a member of a
    /// live queue that is the poll its release scheduled. A head stays in
    /// the heap and leaves its queue.
    pub(super) fn materialize(&mut self, v: usize) {
        if let Some((on, parked)) = self.waits.unpark(v) {
            self.catch_up(v, on, self.waits.now);
            self.waits.materialized.push(v);
            if parked {
                self.perf.materialized += 1;
            }
        }
    }

    /// Pushes the cores the current step materialised back into the heap.
    pub(super) fn push_materialized(&mut self, sched: &mut CoreHeap) {
        for v in self.waits.materialized.drain(..) {
            sched.push(v, self.clocks[v]);
        }
    }

    /// The wake pass after the current step: every core
    /// [`WaitList::take_wakes`] wakes re-enters the heap at its first poll
    /// after its release, skipped polls credited.
    pub(super) fn wake_released(&mut self, sched: &mut CoreHeap) {
        if self.waits.is_settled() {
            return;
        }
        let mut wakes = std::mem::take(&mut self.scratch_wakes);
        let spin = self.config.timing.spin_interval;
        self.waits.take_wakes(&self.clocks, spin, &mut wakes);
        for Wake { core, on, after } in wakes.drain(..) {
            self.catch_up(core, on, after);
            sched.push(core, self.clocks[core]);
            self.perf.wakes += 1;
        }
        self.scratch_wakes = wakes;
    }

    /// The `max_cycles` stop: the polling scheduler would have run every
    /// poll at or before `max_cycles`, so each parked core materialises at
    /// its first poll past it, or, in a live queue, at the poll its release
    /// scheduled (those polls credited), and the run is marked timed out.
    pub(super) fn time_out_parked(&mut self) {
        let mut wakes = std::mem::take(&mut self.scratch_wakes);
        self.waits
            .take_all((self.config.max_cycles, usize::MAX), &mut wakes);
        for Wake { core, on, after } in wakes.drain(..) {
            self.catch_up(core, on, after);
        }
        self.scratch_wakes = wakes;
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
    fn a_catch_up_from_a_stale_clock_equals_two_successive_catch_ups() {
        use clear_mem::rng::SplitMix64;
        let mut rng = SplitMix64::new(0x5747);
        let releaser = |rng: &mut SplitMix64, core: usize| loop {
            let r = if rng.below(8) == 0 {
                usize::MAX
            } else {
                rng.index(8)
            };
            if r != core {
                return r;
            }
        };
        for _ in 0..20_000 {
            let spin = 1 + rng.below(20);
            let stale = rng.below(200);
            let core = rng.index(8);
            let first = (rng.below(400), releaser(&mut rng, core));
            let second = (
                first.0 + rng.below(3) * spin + rng.below(40),
                releaser(&mut rng, core),
            );
            let (first, second) = (first.min(second), first.max(second));
            let k1 = polls_skipped(stale, spin, core, first);
            let k2 = polls_skipped(stale + k1 * spin, spin, core, second);
            assert_eq!(
                polls_skipped(stale, spin, core, second),
                k1 + k2,
                "stale {stale} spin {spin} core {core} after {first:?} then {second:?}"
            );
        }
    }

    const A: LineAddr = LineAddr(1);
    const B: LineAddr = LineAddr(2);
    const FALLBACK: [QueueKey; 2] = [QueueKey::FallbackWriter, QueueKey::FallbackIdle];

    /// Runs the wake pass with every clock at `clocks`, returning the
    /// wakes.
    fn settle(w: &mut WaitList, clocks: &[u64], spin: u64) -> Vec<Wake> {
        let mut out = Vec::new();
        w.take_wakes(clocks, spin, &mut out);
        out
    }

    /// `true` if `core` heads its queue: back in the heap, its first poll
    /// since the wake not yet run.
    fn woken(w: &WaitList, core: usize) -> bool {
        matches!(w.slots[core], Slot::Woken(_))
    }

    fn wake(core: usize, on: WaitOn, after: (u64, usize)) -> Wake {
        Wake { core, on, after }
    }

    #[test]
    fn releases_wake_exactly_their_waiters() {
        let (writer, idle) = (WaitOn::FallbackWriter, WaitOn::FallbackIdle);
        let clocks = [0; 6];
        let mut w = WaitList::new(6);
        w.park(1, WaitOn::Line { line: A });
        w.park(2, WaitOn::Line { line: B });
        w.park(3, writer);
        w.park(4, idle);
        w.park(5, idle);
        assert!(w.is_settled(), "no release, nothing to do");

        w.begin_step(0, (90, 0));
        w.note_released([QueueKey::Line(A)]);
        let out = settle(&mut w, &clocks, 15);
        assert_eq!(out, vec![wake(1, WaitOn::Line { line: A }, (90, 0))]);
        assert!(woken(&w, 1) && !w.is_parked(1) && w.is_parked(2));

        // The last reader leaves: one idle waiter is elected, not both.
        w.begin_step(1, (90, 1));
        w.note_released([QueueKey::FallbackIdle]);
        let out = settle(&mut w, &clocks, 15);
        assert_eq!(out, vec![wake(4, idle, (90, 1))]);
        assert!(w.is_parked(3) && w.is_parked(5));

        // Its poll takes the write lock: nobody else is elected.
        w.begin_step(4, (90, 4));
        w.note_locked(FALLBACK);
        assert!(settle(&mut w, &clocks, 15).is_empty());

        // The write release makes both fallback queues live: each elects
        // one head from the same release key.
        w.begin_step(4, (200, 4));
        w.note_released(FALLBACK);
        let out = settle(&mut w, &clocks, 15);
        assert_eq!(
            out,
            vec![wake(3, writer, (200, 4)), wake(5, idle, (200, 4))]
        );
        assert!(w.is_parked(2) && !w.is_empty());

        let mut out = Vec::new();
        w.take_all((500, usize::MAX), &mut out);
        assert_eq!(
            out,
            vec![wake(2, WaitOn::Line { line: B }, (500, usize::MAX))]
        );
        assert!(w.is_empty() && w.queues.is_empty());
    }

    #[test]
    fn a_read_lock_makes_only_the_idle_queue_dormant() {
        let (writer, idle) = (WaitOn::FallbackWriter, WaitOn::FallbackIdle);
        let clocks = [0, 10, 20, 30, 0];
        let mut w = WaitList::new(5);
        for c in [1, 2] {
            w.park(c, writer);
        }
        w.park(3, idle);
        w.begin_step(0, (5, 0));
        w.note_released(FALLBACK);
        let out = settle(&mut w, &clocks, 15);
        assert_eq!(out, vec![wake(1, writer, (5, 0)), wake(3, idle, (5, 0))]);
        // Core 1's CL-mode start takes a read lock: the idle queue turns
        // dormant and keeps its unpolled head in the heap, and the writer
        // queue, still live, elects core 2.
        w.begin_step(1, (10, 1));
        w.note_locked([QueueKey::FallbackIdle]);
        let out = settle(&mut w, &clocks, 15);
        assert_eq!(out, vec![wake(2, writer, (5, 0))]);
        assert!(woken(&w, 3) && !w.is_parked(3));
        // The head's poll runs and fails on the read lock: it parks again,
        // and the dormant queue elects nobody.
        w.begin_step(3, (30, 3));
        w.park(3, idle);
        assert!(settle(&mut w, &clocks, 15).is_empty());
        assert!(w.is_parked(3));
        // The read release that leaves no readers elects it again.
        w.begin_step(4, (60, 4));
        w.note_released([QueueKey::FallbackIdle]);
        let out = settle(&mut w, &clocks, 15);
        assert_eq!(out, vec![wake(3, idle, (60, 4))]);
    }

    #[test]
    fn a_release_wakes_pending_waiters_on_that_line() {
        let mut w = WaitList::new(4);
        w.park(1, WaitOn::Pending { line: A });
        w.park(2, WaitOn::Pending { line: B });
        w.begin_step(0, (7, 0));
        w.note_released([QueueKey::Line(A)]);
        let out = settle(&mut w, &[0; 4], 15);
        assert_eq!(out, vec![wake(1, WaitOn::Pending { line: A }, (7, 0))]);
        assert!(w.is_parked(2));
    }

    #[test]
    fn a_release_elects_the_member_that_polls_first() {
        // Polls every 10 cycles; the release runs at key (100, 3).
        let on = WaitOn::Pending { line: A };
        let clocks = [0, 95, 100, 0, 3, 100];
        let mut w = WaitList::new(6);
        for c in [1, 2, 4, 5] {
            w.park(c, on);
        }
        w.begin_step(3, (100, 3));
        w.note_released([QueueKey::Line(A)]);
        // First polls after the release: core 1 at 105, core 2 at 110
        // (its 100 poll ran before core 3's step), core 4 at 103, and
        // core 5 at 100 (it polls right after core 3 at the same clock).
        let mut order = Vec::new();
        for _ in 0..4 {
            let out = settle(&mut w, &clocks, 10);
            let [k] = out[..] else {
                panic!("one head at a time: {out:?}")
            };
            assert_eq!(k.after, (100, 3), "every head catches up to the release");
            assert!(woken(&w, k.core));
            order.push(k.core);
            // The head's re-send leaves the line free: the next is elected.
            w.begin_step(k.core, (clocks[k.core], k.core));
        }
        assert_eq!(order, vec![5, 4, 1, 2]);
        let out = settle(&mut w, &clocks, 10);
        assert!(out.is_empty() && w.is_empty());
        assert!(w.queues.is_empty(), "an empty queue is dropped");
    }

    #[test]
    fn a_lock_makes_a_queue_dormant_and_keeps_its_head() {
        let on = WaitOn::Line { line: A };
        let mut clocks = [0, 30, 40, 0];
        let mut w = WaitList::new(4);
        w.park(1, on);
        w.park(2, on);
        w.begin_step(0, (20, 0));
        w.note_released([QueueKey::Line(A)]);
        let out = settle(&mut w, &clocks, 15);
        assert_eq!(out, vec![wake(1, on, (20, 0))]);
        // Core 3 takes the line before the head polls: the queue turns
        // dormant, the head stays in the heap, and nothing is left to
        // settle.
        w.begin_step(3, (25, 3));
        w.note_locked([QueueKey::Line(A)]);
        assert!(w.is_settled());
        assert!(woken(&w, 1) && w.is_parked(2));
        // The head's poll runs, fails and is charged; it parks again, and
        // the dormant queue elects nobody.
        w.begin_step(1, (30, 1));
        clocks[1] += 15;
        w.park(1, on);
        assert!(settle(&mut w, &clocks, 15).is_empty());
        assert!(w.is_parked(1) && w.is_parked(2));
        // The next release elects from both again.
        w.begin_step(3, (50, 3));
        w.note_released([QueueKey::Line(A)]);
        let out = settle(&mut w, &clocks, 15);
        assert_eq!(out, vec![wake(2, on, (50, 3))], "55 polls before 60");
    }

    #[test]
    fn materialising_a_member_or_a_head() {
        let on = WaitOn::Pending { line: A };
        let clocks = [0, 10, 20, 30, 0, 40];
        let mut w = WaitList::new(6);
        for c in [1, 2, 3, 5] {
            w.park(c, on);
        }
        w.park(4, WaitOn::FallbackWriter);
        w.begin_step(0, (5, 0));
        // Members of dormant queues, a line's and the fallback writer's.
        assert_eq!(w.unpark(3), Some((on, true)));
        assert_eq!(w.unpark(4), Some((WaitOn::FallbackWriter, true)));
        assert_eq!(w.unpark(4), None, "no longer parked");
        w.note_released([QueueKey::Line(A)]);
        let out = settle(&mut w, &clocks, 15);
        assert_eq!(out, vec![wake(1, on, (5, 0))]);
        assert!(!w.queues.contains_key(&QueueKey::FallbackWriter));
        // A member of a live queue sits where its release scheduled it.
        w.begin_step(0, (8, 0));
        assert_eq!(w.unpark(2), Some((on, false)));
        // A head stays in the heap and leaves its queue, which elects the
        // next head from the same release.
        assert_eq!(w.unpark(1), None);
        assert!(!woken(&w, 1) && !w.is_parked(1));
        let out = settle(&mut w, &clocks, 15);
        assert_eq!(out, vec![wake(5, on, (5, 0))]);
        // With no member left, the queue is dropped once its head goes.
        assert_eq!(w.unpark(5), None);
        let out = settle(&mut w, &clocks, 15);
        assert!(out.is_empty() && w.queues.is_empty() && w.is_empty());
    }

    #[test]
    fn a_head_whose_first_poll_fails_parks_on_its_new_blocker() {
        let (on, writer) = (WaitOn::Line { line: A }, WaitOn::FallbackWriter);
        let mut w = WaitList::new(5);
        w.park(1, writer);
        w.park(2, writer);
        w.park(3, on);
        w.begin_step(0, (0, 0));
        w.note_released(FALLBACK);
        w.note_released([QueueKey::Line(A)]);
        let out = settle(&mut w, &[0; 5], 15);
        assert_eq!(out, vec![wake(1, writer, (0, 0)), wake(3, on, (0, 0))]);
        assert!(woken(&w, 1) && woken(&w, 3) && w.is_parked(2));
        w.begin_step(1, (0, 1));
        assert!(!woken(&w, 1), "its first poll is running");
        // Its speculative start leaves the writer seat free: core 2 next.
        let out = settle(&mut w, &[0; 5], 15);
        assert_eq!(out, vec![wake(2, writer, (0, 0))]);
        // A lock group's poll fails on another line: the head parks in
        // that line's queue, and its old queue, now empty, is dropped.
        w.begin_step(3, (0, 3));
        w.park(3, WaitOn::Line { line: B });
        assert!(settle(&mut w, &[0; 5], 15).is_empty());
        let line = |l| &w.queues[&QueueKey::Line(l)];
        assert!(!w.queues.contains_key(&QueueKey::Line(A)) && line(B).members == [3]);
        // A fallback head whose poll now fails on the other fallback queue's
        // wait moves to that queue.
        w.begin_step(2, (0, 2));
        w.park(2, WaitOn::FallbackIdle);
        assert!(settle(&mut w, &[0; 5], 15).is_empty() && w.is_parked(2));
        assert!(!w.queues.contains_key(&QueueKey::FallbackWriter));
        assert_eq!(w.queues[&QueueKey::FallbackIdle].members, [2]);
    }

    #[test]
    fn releases_are_only_noted_for_queues_someone_waits_on() {
        let mut w = WaitList::new(3);
        w.note_released([QueueKey::Line(A)]);
        w.note_released(FALLBACK);
        assert!(w.is_settled(), "no queue, nothing to note");
        w.park(1, WaitOn::Line { line: A });
        w.note_released([QueueKey::Line(B), QueueKey::FallbackIdle]);
        assert!(w.is_settled(), "nobody waits on B or the fallback lock");
        let out = settle(&mut w, &[0; 3], 15);
        assert!(out.is_empty(), "a release before the park is stale");
        assert!(w.is_parked(1));
    }

    /// One step of a [`Toy`] core's script.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Op {
        /// Lock `lines[..n]` at once (one directory-set group), hold them
        /// for `hold` cycles and release them. Taking the locks delivers a
        /// conflict to core `hit`, if it is waiting to peek.
        Lock {
            lines: [LineAddr; 2],
            n: usize,
            hold: u64,
            hit: Option<usize>,
        },
        /// Re-send an access to `line` until no other core holds it locked
        /// (a pending load or store).
        Peek { line: LineAddr },
        /// Take the fallback lock for writing (a fallback-path entry, which
        /// waits for the writer and every reader to leave) or reading (a
        /// CL-mode start, which waits for the writer), hold it for `hold`
        /// cycles and release it. A write delivers a conflict to core
        /// `hit`, if it is waiting to peek.
        Fallback {
            write: bool,
            hold: u64,
            hit: Option<usize>,
        },
        /// Wait for the fallback lock's writer to leave, taking nothing (a
        /// speculative start).
        Subscribe,
    }

    /// What one [`Toy`] step did.
    enum Outcome {
        Ran,
        /// The poll failed on `on`, a line the second core holds, or the
        /// fallback lock (`None`).
        Blocked(WaitOn, Option<usize>),
        /// The step locked these queues and hit this core.
        Locked(Vec<QueueKey>, Option<usize>),
        Released(Vec<QueueKey>),
        Finished,
    }

    /// A machine small enough to run under both wake rules: cores run
    /// scripts of lock holds, peeks and fallback-lock entries over a few
    /// lines.
    #[derive(Clone, Debug, PartialEq)]
    struct Toy {
        spin: u64,
        max_cycles: u64,
        script: Vec<Vec<Op>>,
        pc: Vec<usize>,
        /// Whether a core holds the locks of its current op.
        holding: Vec<bool>,
        clocks: Vec<u64>,
        owner: FxHashMap<LineAddr, usize>,
        writer: Option<usize>,
        readers: Vec<bool>,
        /// Polls credited to each core instead of run.
        credited: Vec<u64>,
        /// Failed polls each core ran.
        failed: Vec<u64>,
        /// Every executed step but a failed poll, as `(core, clock)`.
        executed: Vec<(usize, u64)>,
    }

    impl Toy {
        fn random(rng: &mut clear_mem::rng::SplitMix64) -> Toy {
            let cores = 2 + rng.index(7);
            let lines = 1 + rng.below(4);
            let line = |rng: &mut clear_mem::rng::SplitMix64| LineAddr(rng.below(lines));
            let hit = |rng: &mut clear_mem::rng::SplitMix64| {
                (rng.below(3) == 0).then(|| rng.index(cores))
            };
            let script = (0..cores)
                .map(|_| {
                    (0..1 + rng.index(4))
                        .map(|_| match rng.below(10) {
                            0..5 => {
                                let (a, b) = (line(rng), line(rng));
                                Op::Lock {
                                    lines: [a.min(b), a.max(b)],
                                    n: if a == b { 1 } else { 2 },
                                    hold: rng.below(60),
                                    hit: hit(rng),
                                }
                            }
                            5..7 => Op::Peek { line: line(rng) },
                            7..9 => {
                                let write = rng.flip();
                                Op::Fallback {
                                    write,
                                    hold: rng.below(60),
                                    hit: if write { hit(rng) } else { None },
                                }
                            }
                            _ => Op::Subscribe,
                        })
                        .collect()
                })
                .collect();
            Toy {
                spin: 1 + rng.below(20),
                max_cycles: if rng.flip() {
                    u64::MAX / 2
                } else {
                    rng.below(300)
                },
                script,
                pc: vec![0; cores],
                holding: vec![false; cores],
                clocks: (0..cores).map(|_| rng.below(20)).collect(),
                owner: FxHashMap::default(),
                writer: None,
                readers: vec![false; cores],
                credited: vec![0; cores],
                failed: vec![0; cores],
                executed: Vec::new(),
            }
        }

        /// The read-only test of `c`'s next poll: the wait it would fail
        /// on and the core holding that line (`None` for the fallback lock).
        fn blocker(&self, c: usize) -> Option<(WaitOn, Option<usize>)> {
            if self.holding[c] {
                return None;
            }
            let held = |line: &LineAddr| self.owner.get(line).filter(|&&h| h != c).copied();
            let writer = self.writer.is_some();
            match *self.script[c].get(self.pc[c])? {
                Op::Lock { lines, n, .. } => lines[..n]
                    .iter()
                    .find_map(|l| held(l).map(|h| (WaitOn::Line { line: *l }, Some(h)))),
                Op::Peek { line } => held(&line).map(|h| (WaitOn::Pending { line }, Some(h))),
                Op::Fallback { write: true, .. } => {
                    (writer || self.readers.contains(&true)).then_some((WaitOn::FallbackIdle, None))
                }
                Op::Fallback { write: false, .. } | Op::Subscribe => {
                    writer.then_some((WaitOn::FallbackWriter, None))
                }
            }
        }

        fn step(&mut self, c: usize) -> Outcome {
            if let Some((on, holder)) = self.blocker(c) {
                self.failed[c] += 1;
                self.clocks[c] += self.spin;
                return Outcome::Blocked(on, holder);
            }
            self.executed.push((c, self.clocks[c]));
            let Some(&op) = self.script[c].get(self.pc[c]) else {
                return Outcome::Finished;
            };
            self.clocks[c] += 1;
            let release = self.holding[c];
            let mut keys = Vec::new();
            let (hold, hit) = match op {
                Op::Peek { .. } | Op::Subscribe => {
                    self.pc[c] += 1;
                    return Outcome::Ran;
                }
                Op::Lock {
                    lines,
                    n,
                    hold,
                    hit,
                } => {
                    for &l in &lines[..n] {
                        if release {
                            self.owner.remove(&l);
                        } else {
                            self.owner.insert(l, c);
                        }
                        keys.push(QueueKey::Line(l));
                    }
                    (hold, hit)
                }
                Op::Fallback { write, hold, hit } => {
                    if write {
                        self.writer = (!release).then_some(c);
                        keys.extend(FALLBACK);
                    } else {
                        self.readers[c] = !release;
                        // A read lock bars the idle queue; a read release
                        // frees it only once no reader is left.
                        if !(release && self.readers.contains(&true)) {
                            keys.push(QueueKey::FallbackIdle);
                        }
                    }
                    (hold, hit)
                }
            };
            if release {
                self.holding[c] = false;
                self.pc[c] += 1;
                return Outcome::Released(keys);
            }
            self.holding[c] = true;
            self.clocks[c] += hold;
            Outcome::Locked(keys, hit.filter(|&v| self.peeking(v) && v != c))
        }

        fn peeking(&self, v: usize) -> bool {
            matches!(self.script[v].get(self.pc[v]), Some(Op::Peek { .. }))
        }

        /// A conflict aborts the hit core's peek and charges a penalty.
        fn abort(&mut self, v: usize) {
            self.pc[v] += 1;
            self.clocks[v] += 7;
        }

        fn catch_up(&mut self, c: usize, after: (u64, usize)) {
            let polls = polls_skipped(self.clocks[c], self.spin, c, after);
            self.clocks[c] += polls * self.spin;
            self.credited[c] += polls;
        }

        /// Each core's failed polls, run or credited, and the rest of the
        /// state: one wake rule may run a failed poll the other credits.
        fn split_polls(mut self) -> (Vec<u64>, Toy) {
            let polls = self.failed.iter().zip(&self.credited);
            let polls = polls.map(|(f, c)| f + c).collect();
            self.failed.fill(0);
            self.credited.fill(0);
            (polls, self)
        }

        fn heap(&self) -> CoreHeap {
            let mut heap = CoreHeap::new(self.clocks.len());
            for (c, &clock) in self.clocks.iter().enumerate() {
                heap.push(c, clock);
            }
            heap
        }
    }

    /// Runs `t` under [`WaitList`], the way `Machine::run` drives it.
    /// Also returns the number of fallback-lock waiters elected and of
    /// heads whose first poll failed.
    fn run_queues(mut t: Toy) -> (Toy, u64, u64) {
        let (mut fallback_wakes, mut failed_heads) = (0, 0);
        let mut settle = |t: &mut Toy, w: &mut WaitList, heap: &mut CoreHeap| {
            let mut wakes = Vec::new();
            w.take_wakes(&t.clocks, t.spin, &mut wakes);
            for k in wakes {
                if !matches!(k.on.key(), QueueKey::Line(_)) {
                    fallback_wakes += 1;
                }
                t.catch_up(k.core, k.after);
                heap.push(k.core, t.clocks[k.core]);
            }
        };
        let mut heap = t.heap();
        let mut w = WaitList::new(t.clocks.len());
        while let Some(c) = heap.peek() {
            if t.clocks[c] > t.max_cycles {
                break;
            }
            let head = woken(&w, c);
            w.begin_step(c, (t.clocks[c], c));
            let mut touched = None;
            match t.step(c) {
                Outcome::Finished => heap.remove(c),
                Outcome::Blocked(on, _) => {
                    failed_heads += u64::from(head);
                    heap.remove(c);
                    w.park(c, on);
                }
                Outcome::Locked(keys, hit) => {
                    w.note_locked(keys);
                    if let Some(v) = hit {
                        if w.unpark(v).is_some() {
                            t.catch_up(v, w.now);
                            w.materialized.push(v);
                        }
                        t.abort(v);
                        touched = Some(v);
                    }
                }
                Outcome::Released(keys) => w.note_released(keys),
                Outcome::Ran => {}
            }
            heap.update(c, t.clocks[c]);
            for v in w.materialized.drain(..) {
                heap.push(v, t.clocks[v]);
            }
            if let Some(v) = touched {
                heap.update(v, t.clocks[v]);
            }
            settle(&mut t, &mut w, &mut heap);
        }
        let mut wakes = Vec::new();
        w.take_all((t.max_cycles, usize::MAX), &mut wakes);
        for k in wakes {
            t.catch_up(k.core, k.after);
        }
        (t, fallback_wakes, failed_heads)
    }

    /// Runs `t` under the wake-all rule this scheduler replaced: a line
    /// release wakes every core parked on the releasing holder, a fallback
    /// release every fallback waiter, and every step that takes a lock or
    /// wakes a core re-checks each woken core whose first poll has not
    /// run, parking the blocked ones again.
    fn run_wake_all(mut t: Toy) -> Toy {
        let mut heap = t.heap();
        // Parked cores and the line holder they wait on (`None`: the
        // fallback lock).
        let mut parked: Vec<(usize, Option<usize>)> = Vec::new();
        let mut woken: Vec<usize> = Vec::new();
        while let Some(c) = heap.peek() {
            if t.clocks[c] > t.max_cycles {
                break;
            }
            woken.retain(|&w| w != c);
            let now = (t.clocks[c], c);
            let (mut recheck, mut touched, mut materialized, mut released) =
                (false, None, None, None);
            match t.step(c) {
                Outcome::Finished => heap.remove(c),
                Outcome::Blocked(_, holder) => {
                    heap.remove(c);
                    parked.push((c, holder));
                }
                Outcome::Locked(_, hit) => {
                    recheck = true;
                    if let Some(v) = hit {
                        if let Some(i) = parked.iter().position(|&(p, _)| p == v) {
                            parked.remove(i);
                            t.catch_up(v, now);
                            materialized = Some(v);
                        }
                        woken.retain(|&w| w != v);
                        t.abort(v);
                        touched = Some(v);
                    }
                }
                Outcome::Released(keys) => {
                    let fallback = keys.iter().any(|k| !matches!(k, QueueKey::Line(_)));
                    released = Some(if fallback { None } else { Some(c) });
                }
                Outcome::Ran => {}
            }
            heap.update(c, t.clocks[c]);
            if let Some(v) = materialized {
                heap.push(v, t.clocks[v]);
            }
            if let Some(v) = touched {
                heap.update(v, t.clocks[v]);
            }
            if let Some(waker) = released {
                for (w, _) in parked
                    .extract_if(.., |&mut (_, h)| h == waker)
                    .collect::<Vec<_>>()
                {
                    t.catch_up(w, now);
                    heap.push(w, t.clocks[w]);
                    woken.push(w);
                    recheck = true;
                }
            }
            if recheck {
                for w in std::mem::take(&mut woken) {
                    match t.blocker(w) {
                        Some((_, holder)) => {
                            heap.remove(w);
                            parked.push((w, holder));
                        }
                        None => woken.push(w),
                    }
                }
            }
        }
        for (w, _) in parked {
            t.catch_up(w, (t.max_cycles, usize::MAX));
        }
        t
    }

    #[test]
    fn wait_queues_run_exactly_like_waking_every_waiter() {
        use clear_mem::rng::SplitMix64;
        let mut rng = SplitMix64::new(0x11E5);
        let (mut credited, mut fallback_wakes, mut failed_heads) = (0, 0, 0);
        for case in 0..3000 {
            let toy = Toy::random(&mut rng);
            let (queues, fallback, failed) = run_queues(toy.clone());
            credited += queues.credited.iter().sum::<u64>();
            fallback_wakes += fallback;
            failed_heads += failed;
            let (polls, queues) = queues.split_polls();
            let (want_polls, wake_all) = run_wake_all(toy.clone()).split_polls();
            assert_eq!(polls, want_polls, "case {case}: {toy:?}");
            assert_eq!(queues, wake_all, "case {case}: {toy:?}");
        }
        assert!(credited > 0, "no case skipped a poll");
        assert!(fallback_wakes > 0, "no case woke a fallback waiter");
        assert!(failed_heads > 0, "no head's first poll failed");
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
