//! `chaos_trials`: `verme_chaos::explore` without shrinking, unrolled so
//! the schedules are generated in set-up and every trial is one timed
//! `run_trial` call: build a 48-node ring, run a generated fault schedule
//! through it with the step assertor live, judge it with the oracles,
//! tear it down.

use std::time::Instant;

use verme_chaos::{run_trial, sample_plan, trial_seed, ChaosProfile, Scenario};
use verme_chord::MaintenanceMode;
use verme_sim::Fault;

use super::{Outcome, PhaseClock};
use crate::probe::{Overlay, Probe};

/// Successor-list length of the ring scenario and replica count of the
/// durability envelope (the extO sizes).
const NUM_SUCCESSORS: usize = 3;
const REPLICAS: usize = 6;
/// Overlay size of `Scenario::ring` / `Scenario::durability`.
const NODES: usize = 48;

/// Sizes of one iteration.
#[derive(Clone, Debug)]
pub struct Params {
    /// Trials of `Scenario::ring(Corrected)`.
    pub ring_trials: usize,
    /// Trials of `Scenario::durability(true)`.
    pub durability_trials: usize,
}

impl Params {
    /// The benchmark's size.
    pub fn bench() -> Self {
        Params { ring_trials: 360, durability_trials: 120 }
    }

    /// The size the unit tests run.
    pub fn tiny() -> Self {
        Params { ring_trials: 18, durability_trials: 6 }
    }
}

/// The probe keys one arm reports under.
struct ArmKeys {
    span: &'static str,
    arm_s: &'static str,
    trials: &'static str,
    trial_ms: &'static str,
}

const RING: ArmKeys = ArmKeys {
    span: "arm.ring",
    arm_s: "chaos.ring.arm_s",
    trials: "chaos.ring.trials",
    trial_ms: "chaos.ring.trial_ms",
};
const DURABILITY: ArmKeys = ArmKeys {
    span: "arm.durability",
    arm_s: "chaos.durability.arm_s",
    trials: "chaos.durability.trials",
    trial_ms: "chaos.durability.trial_ms",
};

/// One arm's generated inputs.
struct Plan {
    keys: ArmKeys,
    scenario: Scenario,
    /// `(trial seed, schedule)` per trial.
    trials: Vec<(u64, Vec<Fault>)>,
}

fn plan(keys: ArmKeys, scenario: Scenario, profile: &ChaosProfile, seed: u64, n: usize) -> Plan {
    let trials = (0..n)
        .map(|t| {
            let ts = trial_seed(seed, t);
            (ts, sample_plan(profile, ts))
        })
        .collect();
    Plan { keys, scenario, trials }
}

/// Runs both arms once.
pub fn run(tiny: bool, seed: u64, probe: &mut Probe) -> Outcome {
    let params = if tiny { Params::tiny() } else { Params::bench() };
    let mut clock = PhaseClock::default();
    let mut out = Outcome::default();

    let t_setup = Instant::now();
    let setup = probe.enter("setup");
    let span = probe.enter("chaos.plan");
    let plans = [
        plan(
            RING,
            Scenario::ring(MaintenanceMode::Corrected),
            &ChaosProfile::ring(NODES, NUM_SUCCESSORS),
            seed,
            params.ring_trials,
        ),
        plan(
            DURABILITY,
            Scenario::durability(true),
            &ChaosProfile::durability(NODES, REPLICAS),
            seed,
            params.durability_trials,
        ),
    ];
    probe.exit(span);
    probe.exit(setup);
    clock.setup_done(t_setup);

    let t_run = Instant::now();
    let run = probe.enter("run");
    let mut fragments = Vec::new();
    for p in &plans {
        let arm = probe.enter(p.keys.span);
        let t_arm = Instant::now();
        probe.profile_begin();
        let mut findings = 0u64;
        let mut faults = 0usize;
        let mut oracles: Vec<&'static str> = Vec::new();
        for (ts, schedule) in &p.trials {
            let t_trial = Instant::now();
            let call = probe.enter("chaos.run_trial");
            let report = run_trial(&p.scenario, schedule, *ts);
            probe.exit(call);
            probe.sample(p.keys.trial_ms, t_trial.elapsed().as_secs_f64() * 1e3);
            faults += schedule.len();
            if !report.pass() {
                findings += 1;
                oracles.extend(report.oracles());
            }
        }
        probe.profile_end(Overlay::Chord);
        probe.add(p.keys.arm_s, t_arm.elapsed().as_secs_f64());
        probe.add(p.keys.trials, p.trials.len() as f64);
        probe.add("chaos.findings", findings as f64);
        probe.exit(arm);
        oracles.sort_unstable();
        oracles.dedup();
        out.attempted += p.trials.len() as u64;
        out.failed += findings;
        out.failed_by_design += findings;
        fragments.push(format!(
            "{}: trials={} faults={faults} findings={findings} oracles={oracles:?}",
            p.scenario.label(),
            p.trials.len()
        ));
    }
    probe.exit(run);
    clock.run_done(t_run);

    // The repair-on arm is known not to be clean (see README): a trial
    // with a finding counts as failed, and nothing gates on zero. The
    // trial itself ran and was judged, so the finding is a result of the
    // injected schedule, not a failed operation of the run.
    clock.store(&mut out);
    out.sim_stats = fragments.join(" | ");
    out
}
