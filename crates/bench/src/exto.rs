//! Extension experiment O: chaos search — generative fault schedules,
//! oracle checking, and shrinking to minimal replayable repros.
//!
//! Four arms, each an independent [`verme_chaos::explore`] run over a
//! seeded envelope:
//!
//! * **ring/legacy** — the known-buggy positive control. The explorer
//!   must rediscover the stale-merge ring hazard from random schedules
//!   alone; its violation rate calibrates the search (a chaos harness
//!   that cannot find a bug known to exist is measuring nothing).
//! * **ring/corrected** — the proof-backed protocol under the *same*
//!   schedule generator. Any finding here is a real regression.
//! * **durability/repair-off** — the second positive control: sustained
//!   churn and amnesiac restarts bleed replicas until blocks vanish.
//! * **durability/repair-on** — the repair plane must absorb the same
//!   attrition.
//!
//! Every failing trial is delta-debugged to a locally minimal schedule
//! and packaged as a `CHAOS_repro_<hash>.json`; the table reports trials,
//! violations per 1 000 trials, and shrink sizes (wall-clock throughput
//! goes to stderr). Determinism follows the extG pattern: arms run on
//! worker threads but every exploration is a pure function of the master
//! seed, so the rows are independent of thread scheduling.

use verme_chaos::{explore, ChaosProfile, Exploration, ExplorerConfig, Repro, Scenario};
use verme_chord::MaintenanceMode;
use verme_obs::chaos as chaos_keys;
use verme_sim::MetricsSink;

use crate::testbed::par_map;

/// Parameters for one extO run.
#[derive(Clone, Debug)]
pub struct ExtOParams {
    /// Trials per ring arm.
    pub ring_trials: usize,
    /// Trials per durability arm.
    pub durability_trials: usize,
    /// Overlay size for every scenario.
    pub nodes: usize,
    /// Successor-list length for the ring arms.
    pub num_successors: usize,
    /// Replica count assumed by the durability envelope.
    pub replicas: usize,
    /// Master seed.
    pub seed: u64,
}

impl ExtOParams {
    /// Paper-scale configuration.
    pub fn full(seed: u64) -> Self {
        ExtOParams {
            ring_trials: 1_000,
            durability_trials: 300,
            nodes: 48,
            num_successors: 3,
            replicas: 6,
            seed,
        }
    }

    /// Laptop-quick configuration.
    pub fn quick(seed: u64) -> Self {
        ExtOParams {
            ring_trials: 150,
            durability_trials: 60,
            nodes: 48,
            num_successors: 3,
            replicas: 6,
            seed,
        }
    }
}

/// One arm's results.
#[derive(Clone, Debug)]
pub struct ExtORow {
    /// Table label (`ring/legacy`, `durability/repair-on`, …).
    pub label: String,
    /// True for the two arms where findings are expected (the positive
    /// controls); the gate inverts for the other two.
    pub expect_failures: bool,
    /// The raw exploration.
    pub exploration: Exploration,
    /// Wall-clock seconds the arm took.
    pub wall_s: f64,
    /// `chaos.*` counters accumulated by the explorer.
    pub trials: u64,
    /// Trials with at least one oracle finding.
    pub violations: u64,
    /// Accepted ddmin reductions across all discoveries.
    pub shrink_steps: u64,
    /// Smallest and largest shrunk schedule, when any discovery exists.
    pub shrunk_min: Option<usize>,
    /// Largest shrunk schedule.
    pub shrunk_max: Option<usize>,
}

impl ExtORow {
    /// Findings per 1 000 trials.
    pub fn per_1k(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.violations as f64 * 1_000.0 / self.trials as f64
        }
    }

    /// Schedules explored per wall-clock second.
    pub fn schedules_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.trials as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// The packaged repros, smallest schedule first.
    pub fn repros(&self) -> Vec<&Repro> {
        let mut rs: Vec<&Repro> = self.exploration.discoveries.iter().map(|d| &d.repro).collect();
        rs.sort_by_key(|r| r.schedule.len());
        rs
    }
}

/// The four arms in fixed report order.
fn arms(params: &ExtOParams) -> Vec<(Scenario, ChaosProfile, usize, bool)> {
    let ring_profile = ChaosProfile::ring(params.nodes, params.num_successors);
    let dur_profile = ChaosProfile::durability(params.nodes, params.replicas);
    vec![
        (
            Scenario::Ring {
                mode: MaintenanceMode::Legacy,
                nodes: params.nodes,
                num_successors: params.num_successors,
            },
            ring_profile.clone(),
            params.ring_trials,
            true,
        ),
        (
            Scenario::Ring {
                mode: MaintenanceMode::Corrected,
                nodes: params.nodes,
                num_successors: params.num_successors,
            },
            ring_profile,
            params.ring_trials,
            false,
        ),
        (
            Scenario::Durability { repair: false, nodes: params.nodes, blocks: 12 },
            dur_profile.clone(),
            params.durability_trials,
            true,
        ),
        (
            Scenario::Durability { repair: true, nodes: params.nodes, blocks: 12 },
            dur_profile,
            params.durability_trials,
            false,
        ),
    ]
}

/// Runs one arm to completion.
fn run_arm(
    scenario: &Scenario,
    profile: &ChaosProfile,
    trials: usize,
    expect_failures: bool,
    seed: u64,
) -> ExtORow {
    let cfg = ExplorerConfig { trials, stop_on_failure: false, shrink: true };
    let mut sink = MetricsSink::new();
    let started = std::time::Instant::now();
    let exploration = explore(scenario, profile, seed, &cfg, Some(&mut sink));
    let wall_s = started.elapsed().as_secs_f64();
    let lens: Vec<usize> = exploration.discoveries.iter().map(|d| d.repro.schedule.len()).collect();
    ExtORow {
        label: scenario.label(),
        expect_failures,
        wall_s,
        trials: sink.counter(chaos_keys::TRIALS),
        violations: sink.counter(chaos_keys::VIOLATIONS),
        shrink_steps: sink.counter(chaos_keys::SHRINK_STEPS),
        shrunk_min: lens.iter().copied().min(),
        shrunk_max: lens.iter().copied().max(),
        exploration,
    }
}

/// Runs all four arms. Arms execute on worker threads ([`par_map`]); rows
/// come back in fixed arm order and each is a pure function of the master
/// seed.
pub fn run_exto(params: &ExtOParams) -> Vec<ExtORow> {
    par_map(&arms(params), |(scenario, profile, trials, expect)| {
        run_arm(scenario, profile, *trials, *expect, params.seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_has_expected_shape() {
        let params = ExtOParams {
            ring_trials: 12,
            durability_trials: 4,
            nodes: 48,
            num_successors: 3,
            replicas: 6,
            seed: 42,
        };
        let rows = run_exto(&params);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].label, "ring/legacy");
        assert_eq!(rows[1].label, "ring/corrected");
        assert!(rows[0].expect_failures && !rows[1].expect_failures);
        assert_eq!(rows[0].trials, 12);
        // The corrected protocol survives the (small) budget.
        assert_eq!(rows[1].violations, 0, "{:?}", rows[1].exploration.discoveries);
        // The legacy arm finds at least one violation even in 12 trials
        // (the scouted failure rate is ~45%), and its repro verifies.
        assert!(rows[0].violations > 0);
        for d in &rows[0].exploration.discoveries {
            assert!(d.repro.verify(), "repro must replay to its recorded verdict");
        }
    }

    #[test]
    fn arms_are_reproducible() {
        let params = ExtOParams {
            ring_trials: 6,
            durability_trials: 2,
            nodes: 48,
            num_successors: 3,
            replicas: 6,
            seed: 7,
        };
        let a = run_exto(&params);
        let b = run_exto(&params);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.violations, y.violations);
            assert_eq!(
                x.exploration.discoveries.len(),
                y.exploration.discoveries.len(),
                "{}: explorations must be thread-schedule independent",
                x.label
            );
            for (dx, dy) in x.exploration.discoveries.iter().zip(&y.exploration.discoveries) {
                assert_eq!(dx.repro, dy.repro);
            }
        }
    }
}
