//! Extension experiment I: data durability under churn, with and without
//! the replica-repair plane.
//!
//! Sweeps Poisson churn rate × repair interval (off / fast / slow) and
//! measures what fraction of the seeded blocks survive — with zero live
//! holders counted as *lost* — for DHash-over-Chord and
//! Fast-VerDi-over-Verme. The background data-stabilization timer is set
//! far beyond the window so the only thing standing between churn and
//! data loss is the PR's repair plane: epoch-triggered repair rounds,
//! hinted handoff on graceful departures, and read-repair on the get
//! path.
//!
//! The fault script is pure churn (half graceful, half crash, with
//! replacement joins) plus one small kill burst — deliberately smaller
//! than the replica set, so no key can lose every holder in a single
//! blow and any loss is attributable to *unrepaired attrition*, which is
//! exactly what the repair plane eliminates.
//!
//! Every cell is an independent simulation; the cell seed depends on the
//! setting and repetition but not on the repair arm, so all arms of a
//! repetition face bit-identical fault scripts.

use verme_dht::DhtConfig;
use verme_sim::fault::{Fault, FaultPlan};
use verme_sim::SimDuration;

pub use crate::testbed::CENSUS_TARGET;
use crate::testbed::{cell_seed, pooled, run_churn_cell, sweep, CellOutcome, DhtCell, DhtSystem};

/// One repair arm of the sweep: disabled, or enabled at an interval.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RepairArm {
    /// `repair_enabled = false` — the pre-repair baseline.
    Off,
    /// `repair_enabled = true` at the given periodic interval (the
    /// reactive epoch kick stays at its fixed 2 s fuse).
    On(SimDuration),
}

impl RepairArm {
    /// Table label.
    pub fn label(self) -> String {
        match self {
            RepairArm::Off => "off".into(),
            RepairArm::On(iv) => format!("{}s", iv.as_secs_f64() as u64),
        }
    }
}

/// Parameters for one extI sweep.
#[derive(Clone, Debug)]
pub struct ExtIParams {
    /// The cell: gets are issued while the fault script runs (driving
    /// read-repair).
    pub cell: DhtCell,
    /// Swept Poisson departure rates (nodes per simulated second).
    pub churn_rates: Vec<f64>,
    /// Swept repair arms.
    pub repair_arms: Vec<RepairArm>,
    /// Kill-burst size (kept below the replica count — see module doc).
    pub burst_size: usize,
    /// Background data-stabilization interval (set beyond the window so
    /// it cannot mask the repair plane).
    pub stabilize_interval: SimDuration,
    /// Independent repetitions per cell; counts are pooled across reps.
    pub reps: u64,
    /// Master seed.
    pub seed: u64,
}

impl ExtIParams {
    /// Paper-scale configuration.
    pub fn full(seed: u64) -> Self {
        ExtIParams {
            cell: DhtCell {
                nodes: 256,
                sections: 16,
                block_size: 8192,
                blocks: 32,
                gets: 64,
                window: SimDuration::from_mins(5),
            },
            churn_rates: vec![0.2, 0.5, 1.0],
            repair_arms: vec![
                RepairArm::Off,
                RepairArm::On(SimDuration::from_secs(10)),
                RepairArm::On(SimDuration::from_secs(30)),
            ],
            burst_size: 4,
            stabilize_interval: SimDuration::from_secs(3_600),
            reps: 3,
            seed,
        }
    }

    /// Laptop-quick configuration.
    pub fn quick(seed: u64) -> Self {
        ExtIParams {
            cell: DhtCell {
                nodes: 96,
                sections: 8,
                block_size: 1024,
                blocks: 16,
                gets: 32,
                window: SimDuration::from_mins(4),
            },
            churn_rates: vec![0.3, 0.6],
            repair_arms: vec![
                RepairArm::Off,
                RepairArm::On(SimDuration::from_secs(10)),
                RepairArm::On(SimDuration::from_secs(30)),
            ],
            burst_size: 4,
            stabilize_interval: SimDuration::from_secs(3_600),
            reps: 2,
            seed,
        }
    }
}

fn arm_config(arm: RepairArm, stabilize: SimDuration) -> DhtConfig {
    let base = DhtConfig { data_stabilize_interval: stabilize, ..DhtConfig::default() };
    match arm {
        RepairArm::Off => DhtConfig { repair_enabled: false, ..base },
        RepairArm::On(iv) => DhtConfig { repair_enabled: true, repair_interval: iv, ..base },
    }
}

/// Runs one cell of the sweep: the shared churn cell
/// ([`run_churn_cell`]) under pure churn plus one small kill burst, the
/// gets driving read-repair, judged by the durability census over the
/// survivors' block stores.
pub fn run_exti_cell(
    system: DhtSystem,
    params: &ExtIParams,
    churn_rate: f64,
    arm: RepairArm,
    cell_seed: u64,
) -> CellOutcome {
    let cfg = arm_config(arm, params.stabilize_interval);
    let window = params.cell.window;
    run_churn_cell(system, &params.cell, cfg, cell_seed, |start| {
        FaultPlan::new()
            .with(Fault::Churn {
                start,
                duration: window,
                leave_rate_per_sec: churn_rate,
                graceful_fraction: 0.5,
                rejoin_after: Some(SimDuration::from_secs(20)),
            })
            .with(Fault::KillBurst {
                at: start + window / 3,
                window: SimDuration::from_secs(2),
                selector: format!("arc:{}", params.burst_size),
            })
    })
}

/// One row of the sweep: a `(system, churn)` setting measured under every
/// repair arm, in the order given by `params.repair_arms`.
#[derive(Clone, Debug)]
pub struct ExtIRow {
    /// System under test.
    pub system: DhtSystem,
    /// Churn rate for this row.
    pub churn_rate: f64,
    /// One pooled cell per repair arm.
    pub arms: Vec<(RepairArm, CellOutcome)>,
}

impl ExtIRow {
    /// The cell for the `Off` arm, if swept.
    pub fn off(&self) -> Option<&CellOutcome> {
        self.arms.iter().find(|(a, _)| *a == RepairArm::Off).map(|(_, c)| c)
    }

    /// The cell for the fastest `On` arm, if swept.
    pub fn best_on(&self) -> Option<&CellOutcome> {
        self.arms
            .iter()
            .filter_map(|(a, c)| match a {
                RepairArm::On(iv) => Some((iv, c)),
                RepairArm::Off => None,
            })
            .min_by_key(|(iv, _)| **iv)
            .map(|(_, c)| c)
    }
}

/// Runs the full sweep of DHash and Fast-VerDi. Cells execute on worker
/// threads ([`sweep`]) and come back in job order, so rows and pooled
/// counts are independent of thread scheduling.
pub fn run_exti(params: &ExtIParams) -> Vec<ExtIRow> {
    let arms = &params.repair_arms;
    let settings: Vec<_> = [DhtSystem::Dhash, DhtSystem::FastVerDi]
        .into_iter()
        .flat_map(|system| params.churn_rates.iter().map(move |&churn| (system, churn)))
        .collect();
    let jobs: Vec<_> =
        (1..).zip(&settings).flat_map(|(n, &s)| arms.iter().map(move |&a| (n, s, a))).collect();
    let cells = sweep(&jobs, params.reps, |&(n, (system, churn_rate), arm), rep| {
        run_exti_cell(system, params, churn_rate, arm, cell_seed(params.seed, n, rep))
    });
    settings
        .into_iter()
        .zip(cells.chunks(arms.len()))
        .map(|((system, churn_rate), row)| ExtIRow {
            system,
            churn_rate,
            arms: arms.iter().zip(row).map(|(&a, r)| (a, pooled(r, CellOutcome::merge))).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use verme_dht::keys::{REPAIR_PUSHED, REPAIR_ROUNDS};

    use super::*;

    fn tiny() -> ExtIParams {
        ExtIParams {
            cell: DhtCell {
                nodes: 64,
                sections: 8,
                block_size: 256,
                blocks: 10,
                gets: 16,
                window: SimDuration::from_mins(3),
            },
            churn_rates: vec![0.5],
            repair_arms: vec![RepairArm::Off, RepairArm::On(SimDuration::from_secs(10))],
            burst_size: 4,
            stabilize_interval: SimDuration::from_secs(3_600),
            reps: 1,
            seed: 11,
        }
    }

    #[test]
    fn exti_repair_preserves_blocks_lost_without_it() {
        let params = tiny();
        let off = run_exti_cell(DhtSystem::Dhash, &params, 0.5, RepairArm::Off, 11);
        let on = run_exti_cell(
            DhtSystem::Dhash,
            &params,
            0.5,
            RepairArm::On(SimDuration::from_secs(10)),
            11,
        );
        let (lost_off, lost_on) = (off.census.lost, on.census.lost);
        assert_eq!(off.census.keys, on.census.keys, "both arms census the same seeded keys");
        assert!(lost_off > 0, "sustained churn without repair must lose blocks, got {off:?}");
        assert!(lost_on < lost_off, "repair must save blocks: on={lost_on} off={lost_off}");
        assert!(on.count(REPAIR_ROUNDS) > 0, "churn must trigger repair rounds");
        assert!(on.count(REPAIR_PUSHED) > 0, "repair rounds must push blocks");
        assert_eq!(off.count(REPAIR_ROUNDS), 0, "disabled repair must never probe");
    }

    #[test]
    fn exti_cells_are_reproducible() {
        let params = tiny();
        let arm = RepairArm::On(SimDuration::from_secs(10));
        let a = run_exti_cell(DhtSystem::FastVerDi, &params, 0.5, arm, 11);
        let b = run_exti_cell(DhtSystem::FastVerDi, &params, 0.5, arm, 11);
        assert_eq!(a, b, "same seed must reproduce the cell exactly");
    }
}
