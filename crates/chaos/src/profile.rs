//! The generation envelope: profiles and schedule sampling.
//!
//! A [`ChaosProfile`] is pure data describing *what kinds* of adversity a
//! schedule may contain and *how hard* each kind may hit. [`sample_plan`]
//! maps `(profile, seed)` to a concrete schedule deterministically: the
//! same pair always yields the same `Vec<Fault>`, on any machine, so an
//! exploration is replayable from its seed alone.

use rand::rngs::StdRng;
use rand::Rng;

use verme_sim::fault::Fault;
use verme_sim::{Recovery, SeedSource, SimDuration, SimTime};

/// When generated faults may start: scenarios settle the overlay
/// fault-free until this point on the virtual clock.
pub fn schedule_start() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(10)
}

/// The fault palette a profile samples from. Each entry maps to one
/// [`Fault`] variant; the profile's field ranges bound its parameters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Poisson churn with graceful/crash mix and replacement joins.
    Churn,
    /// Correlated kill of a consecutive ring arc.
    KillBurst,
    /// Elevated message loss for a window.
    LossBurst,
    /// Multiplied latency for a window.
    LatencySpike,
    /// Message duplication for a window.
    Duplicate,
    /// Bounded delivery reordering for a window.
    Reorder,
    /// Crash-then-rejoin of the same identifiers.
    Restart,
}

/// Bounds for generative schedule sampling. All rates are maxima; each
/// sampled value is drawn from `[0.1 × max, max]` so entries are never
/// degenerate no-ops.
#[derive(Clone, Debug)]
pub struct ChaosProfile {
    /// Overlay size the schedules target (selector spans wrap modulo it).
    pub nodes: usize,
    /// Window after [`schedule_start`] in which entries land.
    pub horizon: SimDuration,
    /// Fewest entries per schedule.
    pub min_entries: usize,
    /// Most entries per schedule.
    pub max_entries: usize,
    /// Kinds to sample, uniformly. Repeat a kind to weight it.
    pub palette: Vec<FaultKind>,
    /// Max Poisson departure rate (nodes per simulated second).
    pub churn_rate_max: f64,
    /// Shortest killed/restarted arc.
    pub span_min: usize,
    /// Longest killed/restarted arc.
    pub span_max: usize,
    /// Max message-loss probability during a loss burst.
    pub loss_rate_max: f64,
    /// Max latency multiplier during a spike.
    pub latency_factor_max: f64,
    /// Max per-message duplication probability.
    pub dup_rate_max: f64,
    /// Max per-message reorder probability.
    pub reorder_rate_max: f64,
    /// Max reorder jitter window.
    pub reorder_window_max: SimDuration,
    /// Longest time a restarted node stays down.
    pub restart_down_max: SimDuration,
}

impl ChaosProfile {
    /// The ring-safety envelope: heavy on correlated arc kills (the
    /// known legacy-maintenance hazard needs two staggered arcs at least
    /// as long as the successor list), with churn, network mischief, and
    /// same-identifier restarts riding along. Tuned so a finger-starved
    /// Legacy cell fails within a double-digit trial budget while the
    /// corrected protocol survives the same schedules.
    pub fn ring(nodes: usize, num_successors: usize) -> Self {
        ChaosProfile {
            nodes,
            horizon: SimDuration::from_secs(90),
            min_entries: 2,
            max_entries: 6,
            palette: vec![
                FaultKind::KillBurst,
                FaultKind::KillBurst,
                FaultKind::KillBurst,
                FaultKind::Churn,
                FaultKind::Restart,
                FaultKind::LossBurst,
                FaultKind::LatencySpike,
                FaultKind::Duplicate,
                FaultKind::Reorder,
            ],
            churn_rate_max: 0.08,
            span_min: num_successors + 1,
            span_max: 2 * num_successors + 2,
            loss_rate_max: 0.2,
            latency_factor_max: 6.0,
            dup_rate_max: 0.5,
            reorder_rate_max: 0.5,
            reorder_window_max: SimDuration::from_secs(2),
            restart_down_max: SimDuration::from_secs(25),
        }
    }

    /// The durability envelope: sustained churn and amnesiac restarts —
    /// the attrition the repair plane exists to absorb — with arcs kept
    /// *below* the replica count so no single entry can wipe every holder
    /// of a key at once and any loss is attributable to unrepaired
    /// attrition.
    pub fn durability(nodes: usize, replicas: usize) -> Self {
        ChaosProfile {
            nodes,
            horizon: SimDuration::from_secs(120),
            min_entries: 2,
            max_entries: 5,
            palette: vec![
                FaultKind::Churn,
                FaultKind::Churn,
                FaultKind::KillBurst,
                FaultKind::Restart,
                FaultKind::Restart,
                FaultKind::Duplicate,
                FaultKind::Reorder,
            ],
            churn_rate_max: 0.6,
            span_min: 1,
            span_max: replicas.saturating_sub(1).max(1),
            loss_rate_max: 0.1,
            latency_factor_max: 4.0,
            dup_rate_max: 0.5,
            reorder_rate_max: 0.5,
            reorder_window_max: SimDuration::from_secs(2),
            restart_down_max: SimDuration::from_secs(30),
        }
    }

    /// Validates the envelope's internal consistency.
    fn assert_valid(&self) {
        assert!(self.nodes > 0 && !self.palette.is_empty());
        assert!(self.min_entries >= 1 && self.min_entries <= self.max_entries);
        assert!(self.span_min >= 1 && self.span_min <= self.span_max);
        assert!(!self.horizon.is_zero());
    }
}

/// A fraction in `[0.1, 1.0]` — sampled intensities never collapse to a
/// no-op entry (a zero-rate window would be dead weight the shrinker has
/// to discover and remove).
fn intensity(rng: &mut StdRng) -> f64 {
    0.1 + 0.9 * rng.gen::<f64>()
}

/// Samples one concrete fault schedule from the envelope. Pure: the same
/// `(profile, seed)` yields the same schedule on any machine. Entries are
/// emitted in generation order, not sorted by time — the fault runner's
/// agenda orders execution, and keeping generation order makes shrunk
/// schedules line up with what the sampler produced.
pub fn sample_plan(profile: &ChaosProfile, seed: u64) -> Vec<Fault> {
    profile.assert_valid();
    let mut rng = SeedSource::new(seed).stream("chaos-plan");
    let start = schedule_start();
    let horizon = profile.horizon;
    let count = rng.gen_range(profile.min_entries..=profile.max_entries);
    let mut plan = Vec::with_capacity(count);
    for _ in 0..count {
        let kind = profile.palette[rng.gen_range(0..profile.palette.len())];
        let at = start + horizon.mul_f64(rng.gen::<f64>());
        let span = |rng: &mut StdRng| {
            let len = rng.gen_range(profile.span_min..=profile.span_max);
            let pos = rng.gen_range(0..profile.nodes);
            format!("span:{pos}:{len}")
        };
        plan.push(match kind {
            FaultKind::Churn => Fault::Churn {
                // Start in the first half so the window has time to act.
                start: start + horizon.mul_f64(0.5 * rng.gen::<f64>()),
                duration: horizon.mul_f64(0.25 + 0.5 * rng.gen::<f64>()),
                leave_rate_per_sec: intensity(&mut rng) * profile.churn_rate_max,
                graceful_fraction: 0.5,
                rejoin_after: Some(SimDuration::from_secs(rng.gen_range(5..=25))),
            },
            FaultKind::KillBurst => Fault::KillBurst {
                at,
                window: SimDuration::from_millis(rng.gen_range(200..=2_000)),
                selector: span(&mut rng),
            },
            FaultKind::LossBurst => Fault::LossBurst {
                at,
                duration: SimDuration::from_secs(rng.gen_range(5..=30)),
                rate: intensity(&mut rng) * profile.loss_rate_max,
            },
            FaultKind::LatencySpike => Fault::LatencySpike {
                at,
                duration: SimDuration::from_secs(rng.gen_range(5..=30)),
                factor: 1.0 + intensity(&mut rng) * (profile.latency_factor_max - 1.0),
            },
            FaultKind::Duplicate => Fault::Duplicate {
                at,
                duration: SimDuration::from_secs(rng.gen_range(5..=30)),
                rate: intensity(&mut rng) * profile.dup_rate_max,
            },
            FaultKind::Reorder => Fault::Reorder {
                at,
                duration: SimDuration::from_secs(rng.gen_range(5..=30)),
                rate: intensity(&mut rng) * profile.reorder_rate_max,
                window: profile.reorder_window_max.mul_f64(intensity(&mut rng)),
            },
            FaultKind::Restart => Fault::Restart {
                at,
                down_for: profile.restart_down_max.mul_f64(intensity(&mut rng)),
                selector: span(&mut rng),
                recovery: if rng.gen::<bool>() { Recovery::Amnesia } else { Recovery::Persisted },
            },
        });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use verme_sim::FaultPlan;

    #[test]
    fn sampled_plans_are_deterministic_and_valid() {
        let profile = ChaosProfile::ring(48, 3);
        for seed in 0..200 {
            let a = sample_plan(&profile, seed);
            let b = sample_plan(&profile, seed);
            assert_eq!(a, b, "seed {seed} must resample identically");
            assert!(a.len() >= profile.min_entries && a.len() <= profile.max_entries);
            let mut plan = FaultPlan::new();
            for f in a {
                plan = plan.with(f);
            }
            // Every generated schedule must pass the runner's validator.
            plan.validate().expect("generated schedules are valid fault plans");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let profile = ChaosProfile::ring(48, 3);
        let plans: Vec<_> = (0..20).map(|s| sample_plan(&profile, s)).collect();
        let distinct = plans.iter().filter(|p| **p != plans[0]).count();
        assert!(distinct >= 15, "schedules should vary across seeds, got {distinct} distinct");
    }

    #[test]
    fn sampled_faults_end_past_the_schedule_start() {
        let profile = ChaosProfile::durability(48, 6);
        for seed in 0..50 {
            for f in sample_plan(&profile, seed) {
                assert!(f.end() >= schedule_start(), "{f:?}");
            }
        }
    }
}
