//! Delta debugging: shrink a failing schedule to a locally minimal one.
//!
//! Classic `ddmin` over the schedule's entries: repeatedly try dropping
//! chunks (coarse halves first, finer slices as drops stop landing) and
//! keep any subset that still fails the predicate. The result is
//! 1-minimal — removing any single remaining entry makes the failure
//! disappear — which is what makes a repro file readable: every line in
//! it is load-bearing.
//!
//! The predicate is "any oracle fires", not "the identical report
//! reproduces": a shrunk schedule often trips a *simpler* violation than
//! the original (e.g. the end-snapshot oracle without the continuous one),
//! and insisting on report equality would refuse perfectly good smaller
//! witnesses. The repro records the shrunk schedule's own re-run verdict,
//! so replay equality still holds exactly.

use verme_sim::fault::Fault;

/// What [`ddmin`] found, plus the effort it spent.
#[derive(Clone, Debug)]
pub struct ShrinkOutcome {
    /// The locally minimal failing schedule.
    pub schedule: Vec<Fault>,
    /// Number of accepted reductions (schedule replacements).
    pub steps: usize,
    /// Number of predicate evaluations (trial runs).
    pub tests_run: usize,
}

/// Shrinks `schedule` to a 1-minimal subsequence that still satisfies
/// `fails`. The caller guarantees `fails(&schedule)` is true on entry;
/// the returned schedule satisfies it too (at worst it is the input).
pub fn ddmin(schedule: &[Fault], mut fails: impl FnMut(&[Fault]) -> bool) -> ShrinkOutcome {
    let mut current: Vec<Fault> = schedule.to_vec();
    let mut steps = 0usize;
    let mut tests_run = 0usize;
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0usize;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            // The complement: everything except current[start..end].
            let candidate: Vec<Fault> =
                current[..start].iter().chain(current[end..].iter()).cloned().collect();
            if candidate.is_empty() {
                start = end;
                continue;
            }
            tests_run += 1;
            if fails(&candidate) {
                current = candidate;
                steps += 1;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if granularity >= current.len() {
                break; // 1-minimal: no single entry can be dropped.
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    ShrinkOutcome { schedule: current, steps, tests_run }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verme_sim::{SimDuration, SimTime};

    fn burst(n: u64) -> Fault {
        Fault::KillBurst {
            at: SimTime::ZERO + SimDuration::from_secs(n),
            window: SimDuration::from_secs(1),
            selector: format!("span:{n}:1"),
        }
    }

    #[test]
    fn shrinks_to_the_single_culprit() {
        let schedule: Vec<Fault> = (0..16).map(burst).collect();
        let culprit = burst(11);
        let out = ddmin(&schedule, |s| s.contains(&culprit));
        assert_eq!(out.schedule, vec![culprit]);
        assert!(out.steps >= 1);
        assert!(out.tests_run >= out.steps);
    }

    #[test]
    fn shrinks_to_a_required_pair() {
        let schedule: Vec<Fault> = (0..12).map(burst).collect();
        let a = burst(2);
        let b = burst(9);
        let out = ddmin(&schedule, |s| s.contains(&a) && s.contains(&b));
        assert_eq!(out.schedule, vec![a, b], "pair must survive in order");
    }

    #[test]
    fn preserves_relative_order() {
        let schedule: Vec<Fault> = (0..8).map(burst).collect();
        let out = ddmin(&schedule, |s| s.len() >= 3);
        assert_eq!(out.schedule.len(), 3);
        let times: Vec<_> = out.schedule.iter().map(Fault::start).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted, "ddmin must keep subsequence order");
    }

    #[test]
    fn already_minimal_input_is_untouched() {
        let schedule = vec![burst(1)];
        let out = ddmin(&schedule, |_| true);
        assert_eq!(out.schedule, schedule);
        assert_eq!(out.steps, 0);
    }
}
