//! The NS-CL/S-CL lock-acquisition phase: lexicographical order, group
//! locking with the ALT Hit-bit fast path, and lock-conflict policy.
use super::sched::{QueueKey, WaitOn};
use super::*;

impl Machine {
    pub(super) fn lock_step(&mut self, c: usize, idx: usize) {
        if idx >= self.cores[c].lock_list.len() {
            self.phases[c] = Phase::Running;
            return;
        }
        if let Some(line) = self.group_blocker(c, idx) {
            // Another core holds a group line locked: retried request
            // (Fig. 6). Every re-poll fails until that line is released.
            self.park(c, WaitOn::Line { line });
            return;
        }
        // Lexicographical conflict groups (same directory set) are locked
        // together (§5): entries are lex-sorted, so a group is a maximal
        // consecutive run with one set index.
        let dir = self.coherence.dir_geometry();
        // The group and victim lists reuse per-machine scratch buffers; both
        // are restored before every exit from this function.
        let mut group = std::mem::take(&mut self.scratch_group);
        group.clear();
        {
            let list = &self.cores[c].lock_list;
            let set = dir.set_index(list[idx]);
            group.extend(
                list[idx..]
                    .iter()
                    .take_while(|l| dir.set_index(**l) == set)
                    .copied(),
            );
        }

        // Policy check over the whole group before stealing anything.
        let mut victims = std::mem::take(&mut self.scratch_victims);
        victims.clear();
        for &line in &group {
            let probe = self.coherence.probe(CoreId(c), line, Access::Write);
            debug_assert!(
                probe.locked_by_other.is_none(),
                "group_blocker missed a lock"
            );
            for i in probe
                .remote_impacts
                .iter()
                .filter(|i| i.is_tx_conflict(true))
            {
                victims.push(self.tx_info(i.core.0));
            }
        }
        let nacked = !victims.is_empty() && {
            let me = self.tx_info(c);
            self.config.backend.resolve(me, &victims) == Resolution::NackRequester
        };
        self.scratch_victims = victims;
        if nacked {
            self.perform_abort(c, AbortKind::Nacked);
            self.scratch_group = group;
            return;
        }
        // Record the ALT Hit bits (group-locking probe of §5).
        for &line in &group {
            let hit = self.coherence.has_exclusive(CoreId(c), line);
            if let Some(alt) = self.cores[c].alt.as_mut() {
                alt.mark_hit(line, hit);
            }
        }
        let result = if group.len() == 1 {
            self.coherence.lock_line(CoreId(c), group[0])
        } else {
            self.coherence.lock_group(CoreId(c), &group)
        };
        match result {
            Ok(ok) => {
                self.waits
                    .note_locked(group.iter().map(|&l| QueueKey::Line(l)));
                self.clocks[c] += ok.latency;
                let impacts = ok.remote_impacts;
                // The accumulated spin wait paid for the whole group; it is
                // attributed to the group's first lock to keep per-line
                // totals additive.
                let mut wait_cycles = std::mem::take(&mut self.cores[c].lock_wait_acc);
                for &line in &group {
                    if let Some(alt) = self.cores[c].alt.as_mut() {
                        alt.mark_locked(line);
                    }
                    self.emit(c, TraceEvent::LockAcquired { line, wait_cycles });
                    wait_cycles = 0;
                }
                // The impacts list of a group lock spans lines; CRT
                // attribution uses the first group line, which is exact for
                // single-line groups and conservative otherwise.
                self.abort_victims_tagged(c, group[0], &impacts, AbortKind::MemoryConflict, true);
                self.phases[c] = Phase::LockAcquire {
                    idx: idx + group.len(),
                };
            }
            Err(LockFail::LockedBy(_)) => {
                unreachable!("group_blocker found every group line unlocked")
            }
            Err(LockFail::Capacity) => {
                // Should not happen (discovery verified the fit); treat as a
                // capacity abort and fall back to a speculative retry.
                self.cores[c].planned = RetryMode::SpeculativeRetry;
                self.cores[c].alt = None;
                self.perform_abort(c, AbortKind::Capacity);
            }
        }
        self.scratch_group = group;
    }

    /// The first line in lock order of `c`'s lock group at `idx` that
    /// another core holds locked, if any: the read-only test that fails a
    /// lock-acquire poll.
    pub(super) fn group_blocker(&self, c: usize, idx: usize) -> Option<LineAddr> {
        let list = &self.cores[c].lock_list;
        let dir = self.coherence.dir_geometry();
        let set = dir.set_index(*list.get(idx)?);
        list[idx..]
            .iter()
            .take_while(|l| dir.set_index(**l) == set)
            .copied()
            .find(|&l| self.coherence.locked_by(l).is_some_and(|h| h.0 != c))
    }
}
