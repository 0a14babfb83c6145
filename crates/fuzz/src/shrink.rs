//! Delta-debugging shrinker: reduces a failing case to a (locally)
//! minimal reproducer while staying inside the generator's validity
//! envelope — every candidate is re-lowered and re-linted via
//! [`FuzzCase::with_shapes`], so a shrunk reproducer is still a program
//! the generator could have emitted.

use crate::gen::{FuzzCase, Shape};
use std::sync::Arc;

/// Oracle-run budget per shrink; a shrink never runs the machine more
/// often than this.
pub const MAX_ATTEMPTS: u32 = 300;

/// A shrinking result.
#[derive(Clone, Debug)]
pub struct Shrunk {
    /// The smallest still-failing case found.
    pub case: Arc<FuzzCase>,
    /// Oracle runs spent.
    pub attempts: u32,
}

/// Shrinks `case` against a failure predicate — the oracle check that
/// failed, at the width it failed at (tests inject cheap predicates
/// here). `fails(&case)` must be true on entry; the result is the
/// smallest candidate for which it stayed true.
pub fn shrink_with(case: Arc<FuzzCase>, fails: impl Fn(&Arc<FuzzCase>) -> bool) -> Shrunk {
    let mut best = case;
    let mut attempts = 0u32;

    // A candidate is admitted only if it lints clean AND still fails.
    let try_candidate = |best: &Arc<FuzzCase>,
                         attempts: &mut u32,
                         shapes: Vec<Shape>,
                         threads: usize,
                         invocations: usize| {
        if *attempts >= MAX_ATTEMPTS {
            return None;
        }
        let candidate = Arc::new(best.with_shapes(shapes, threads, invocations)?);
        *attempts += 1;
        fails(&candidate).then_some(candidate)
    };

    // Pass 1: schedule first — a 2-thread single-invocation reproducer is
    // worth more than a short program under a wide schedule.
    for (threads, invocations) in [(2, 1), (2, best.invocations), (best.threads, 1)] {
        if threads == best.threads && invocations == best.invocations {
            continue;
        }
        if let Some(c) = try_candidate(
            &best,
            &mut attempts,
            best.shapes.clone(),
            threads,
            invocations,
        ) {
            best = c;
            break; // candidates are ordered most-reduced first
        }
    }

    // Pass 2: ddmin over top-level shapes — drop chunks, halving the
    // chunk size, restarting whenever a removal sticks.
    let mut chunk = (best.shapes.len() / 2).max(1);
    while chunk >= 1 && attempts < MAX_ATTEMPTS {
        let mut start = 0;
        let mut removed_any = false;
        while start < best.shapes.len() && attempts < MAX_ATTEMPTS {
            let end = (start + chunk).min(best.shapes.len());
            let mut shapes = best.shapes.clone();
            shapes.drain(start..end);
            match try_candidate(&best, &mut attempts, shapes, best.threads, best.invocations) {
                Some(c) => {
                    best = c;
                    removed_any = true;
                    // Do not advance: the next chunk slid into `start`.
                }
                None => start += chunk,
            }
        }
        if !removed_any {
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
    }

    // Pass 3: structural simplification — inline compound bodies and
    // flatten loops to one trip, one shape at a time.
    let mut i = 0;
    while i < best.shapes.len() && attempts < MAX_ATTEMPTS {
        let replacement: Option<Vec<Shape>> = match &best.shapes[i] {
            Shape::Loop { trips, body } if *trips > 1 => Some(vec![Shape::Loop {
                trips: 1,
                body: body.clone(),
            }]),
            Shape::Loop { trips: 1, body } => Some(body.clone()),
            Shape::Skip { body, .. } => Some(body.clone()),
            _ => None,
        };
        if let Some(replacement) = replacement {
            let mut shapes = best.shapes.clone();
            shapes.splice(i..=i, replacement);
            if let Some(c) =
                try_candidate(&best, &mut attempts, shapes, best.threads, best.invocations)
            {
                best = c;
                continue; // retry the same index: it may simplify further
            }
        }
        i += 1;
    }

    Shrunk {
        case: best,
        attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::max_dynamic_stores;

    /// A predicate with a stable "interesting" core: the case fails while
    /// it still contains at least one store shape.
    fn has_store(case: &Arc<FuzzCase>) -> bool {
        max_dynamic_stores(&case.shapes) > 0
    }

    fn case_with_store() -> Arc<FuzzCase> {
        (0..64)
            .map(|i| Arc::new(FuzzCase::generate(0xD0, i)))
            .find(|c| has_store(c) && c.shapes.len() > 4)
            .expect("some generated case stores")
    }

    #[test]
    fn shrinking_preserves_failure_and_shrinks() {
        let case = case_with_store();
        let before = case.shapes.len();
        let s = shrink_with(Arc::clone(&case), has_store);
        assert!(has_store(&s.case), "shrunk case lost the failure");
        assert!(s.case.shapes.len() <= before);
        assert!(s.attempts <= MAX_ATTEMPTS);
        assert!(
            s.case.lints().is_empty(),
            "shrunk case must stay lint-clean"
        );
        // The schedule shrinks too.
        assert_eq!((s.case.threads, s.case.invocations), (2, 1));
    }

    #[test]
    fn shrinking_is_deterministic() {
        let case = case_with_store();
        let a = shrink_with(Arc::clone(&case), has_store);
        let b = shrink_with(case, has_store);
        assert_eq!(a.case.shapes, b.case.shapes);
        assert_eq!(a.attempts, b.attempts);
    }

    #[test]
    fn passing_cases_shrink_to_themselves_under_a_never_failing_predicate() {
        // `shrink_with` contract: `fails` is true on entry. With a
        // predicate that always fails, the minimum is a single shape.
        let case = case_with_store();
        let s = shrink_with(case, |_| true);
        assert!(s.case.shapes.len() <= 2);
    }
}
