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
use verme_sim::fault::{keys as fault_keys, Fault, FaultPlan};
use verme_sim::SimDuration;

use crate::testbed::{departures, par_map, pooled, run_churn_cell, DhtCell};
pub use crate::testbed::{ChurnSystem, CENSUS_TARGET};

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
    /// Overlay size.
    pub nodes: usize,
    /// Verme section count.
    pub sections: u128,
    /// Stored block size in bytes.
    pub block_size: usize,
    /// Blocks seeded before the faults start.
    pub blocks: usize,
    /// Gets issued while the fault script runs (drives read-repair).
    pub gets: usize,
    /// Swept Poisson departure rates (nodes per simulated second).
    pub churn_rates: Vec<f64>,
    /// Swept repair arms.
    pub repair_arms: Vec<RepairArm>,
    /// Kill-burst size (kept below the replica count — see module doc).
    pub burst_size: usize,
    /// Length of the churn window.
    pub window: SimDuration,
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
            nodes: 256,
            sections: 16,
            block_size: 8192,
            blocks: 32,
            gets: 64,
            churn_rates: vec![0.2, 0.5, 1.0],
            repair_arms: vec![
                RepairArm::Off,
                RepairArm::On(SimDuration::from_secs(10)),
                RepairArm::On(SimDuration::from_secs(30)),
            ],
            burst_size: 4,
            window: SimDuration::from_mins(5),
            stabilize_interval: SimDuration::from_secs(3_600),
            reps: 3,
            seed,
        }
    }

    /// Laptop-quick configuration.
    pub fn quick(seed: u64) -> Self {
        ExtIParams {
            nodes: 96,
            sections: 8,
            block_size: 1024,
            blocks: 16,
            gets: 32,
            churn_rates: vec![0.3, 0.6],
            repair_arms: vec![
                RepairArm::Off,
                RepairArm::On(SimDuration::from_secs(10)),
                RepairArm::On(SimDuration::from_secs(30)),
            ],
            burst_size: 4,
            window: SimDuration::from_mins(4),
            stabilize_interval: SimDuration::from_secs(3_600),
            reps: 2,
            seed,
        }
    }
}

/// One sweep cell's measurements: the final durability census plus the
/// repair-plane and workload counters from the fault window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExtICell {
    /// Blocks that survived fault-free seeding (the census population).
    pub keys: u64,
    /// Blocks with zero live holders at the end of the run.
    pub lost: u64,
    /// Blocks below [`CENSUS_TARGET`] live holders (but not lost).
    pub under_replicated: u64,
    /// Gets issued during the fault window.
    pub issued: u64,
    /// Gets that completed successfully.
    pub completed: u64,
    /// Repair rounds that actually probed (epoch changed).
    pub repair_rounds: u64,
    /// Blocks pushed by the repair plane.
    pub repair_pushed: u64,
    /// Read-repair writes triggered on the get path.
    pub read_repairs: u64,
    /// Blocks handed off by gracefully leaving nodes.
    pub handoff_blocks: u64,
    /// Replacement nodes that joined during churn.
    pub joins: u64,
    /// Nodes lost to crashes, graceful leaves, and the kill burst.
    pub departures: u64,
}

impl ExtICell {
    /// Fraction of seeded blocks with zero live holders, in `[0, 1]`.
    pub fn loss_fraction(&self) -> f64 {
        if self.keys == 0 {
            return 0.0;
        }
        self.lost as f64 / self.keys as f64
    }

    /// Fraction of issued gets that completed.
    pub fn success_rate(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.completed as f64 / self.issued as f64
    }

    /// Pools another repetition's counts into this cell.
    pub fn merge(&mut self, other: &ExtICell) {
        self.keys += other.keys;
        self.lost += other.lost;
        self.under_replicated += other.under_replicated;
        self.issued += other.issued;
        self.completed += other.completed;
        self.repair_rounds += other.repair_rounds;
        self.repair_pushed += other.repair_pushed;
        self.read_repairs += other.read_repairs;
        self.handoff_blocks += other.handoff_blocks;
        self.joins += other.joins;
        self.departures += other.departures;
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
    system: ChurnSystem,
    params: &ExtIParams,
    churn_rate: f64,
    arm: RepairArm,
    cell_seed: u64,
) -> ExtICell {
    let cell = DhtCell {
        nodes: params.nodes,
        sections: params.sections,
        block_size: params.block_size,
        blocks: params.blocks,
        gets: params.gets,
        window: params.window,
    };
    let cfg = arm_config(arm, params.stabilize_interval);
    let window = params.window;
    let out = run_churn_cell(system, &cell, cfg, cell_seed, |start| {
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
    });
    ExtICell {
        keys: out.census.keys as u64,
        lost: out.census.lost as u64,
        under_replicated: out.census.under_replicated as u64,
        issued: out.issued,
        completed: out.count(verme_dht::keys::GET_COMPLETED),
        repair_rounds: out.count(verme_dht::keys::REPAIR_ROUNDS),
        repair_pushed: out.count(verme_dht::keys::REPAIR_PUSHED),
        read_repairs: out.count(verme_dht::keys::READ_REPAIR),
        handoff_blocks: out.count(verme_dht::keys::HANDOFF_BLOCKS),
        joins: out.count(fault_keys::JOIN),
        departures: departures(&out.delta),
    }
}

/// One row of the sweep: a `(system, churn)` setting measured under every
/// repair arm, in the order given by `params.repair_arms`.
#[derive(Clone, Debug)]
pub struct ExtIRow {
    /// System under test.
    pub system: ChurnSystem,
    /// Churn rate for this row.
    pub churn_rate: f64,
    /// One pooled cell per repair arm.
    pub arms: Vec<(RepairArm, ExtICell)>,
}

impl ExtIRow {
    /// The cell for the `Off` arm, if swept.
    pub fn off(&self) -> Option<&ExtICell> {
        self.arms.iter().find(|(a, _)| *a == RepairArm::Off).map(|(_, c)| c)
    }

    /// The cell for the fastest `On` arm, if swept.
    pub fn best_on(&self) -> Option<&ExtICell> {
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

/// Runs the full sweep. Cells execute on worker threads ([`par_map`]) and
/// come back in job order, so rows and pooled counts are independent of
/// thread scheduling.
pub fn run_exti(params: &ExtIParams) -> Vec<ExtIRow> {
    let reps = params.reps.max(1);
    let arms = &params.repair_arms;
    let mut jobs = Vec::new();
    let mut settings = Vec::new();
    for &system in &ChurnSystem::ALL {
        for &churn_rate in &params.churn_rates {
            settings.push((system, churn_rate));
            for &arm in arms {
                for rep in 0..reps {
                    // The seed depends on the setting and rep but not the
                    // arm: all repair arms of a rep face the same fault
                    // script.
                    let cell_seed = params
                        .seed
                        .wrapping_add(settings.len() as u64 * 7919)
                        .wrapping_add(rep * 15_485_863);
                    jobs.push((system, churn_rate, arm, cell_seed));
                }
            }
        }
    }
    let cells = par_map(&jobs, |&(system, churn_rate, arm, cell_seed)| {
        run_exti_cell(system, params, churn_rate, arm, cell_seed)
    });

    // Each setting's jobs are adjacent: `reps` cells per arm, arm by arm.
    settings
        .into_iter()
        .zip(cells.chunks(arms.len() * reps as usize))
        .map(|((system, churn_rate), of_setting)| ExtIRow {
            system,
            churn_rate,
            arms: arms
                .iter()
                .zip(of_setting.chunks(reps as usize))
                .map(|(&arm, of_arm)| (arm, pooled(of_arm, ExtICell::merge)))
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExtIParams {
        ExtIParams {
            nodes: 64,
            sections: 8,
            block_size: 256,
            blocks: 10,
            gets: 16,
            churn_rates: vec![0.5],
            repair_arms: vec![RepairArm::Off, RepairArm::On(SimDuration::from_secs(10))],
            burst_size: 4,
            window: SimDuration::from_mins(3),
            stabilize_interval: SimDuration::from_secs(3_600),
            reps: 1,
            seed: 11,
        }
    }

    #[test]
    fn exti_repair_preserves_blocks_lost_without_it() {
        let params = tiny();
        let off = run_exti_cell(ChurnSystem::Dhash, &params, 0.5, RepairArm::Off, 11);
        let on = run_exti_cell(
            ChurnSystem::Dhash,
            &params,
            0.5,
            RepairArm::On(SimDuration::from_secs(10)),
            11,
        );
        assert_eq!(off.keys, on.keys, "both arms census the same seeded keys");
        assert!(off.lost > 0, "sustained churn without repair must lose blocks, got {off:?}");
        assert!(on.lost < off.lost, "repair must save blocks: on={} off={}", on.lost, off.lost);
        assert!(on.repair_rounds > 0, "churn must trigger repair rounds");
        assert!(on.repair_pushed > 0, "repair rounds must push blocks");
        assert_eq!(off.repair_rounds, 0, "disabled repair must never probe");
    }

    #[test]
    fn exti_cells_are_reproducible() {
        let params = tiny();
        let arm = RepairArm::On(SimDuration::from_secs(10));
        let a = run_exti_cell(ChurnSystem::FastVerDi, &params, 0.5, arm, 11);
        let b = run_exti_cell(ChurnSystem::FastVerDi, &params, 0.5, arm, 11);
        assert_eq!(a, b, "same seed must reproduce the cell exactly");
    }
}
