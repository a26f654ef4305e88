//! Extension experiment G: end-to-end churn + kill-burst resilience.
//!
//! Sweeps Poisson churn rate × correlated kill-burst size and measures the
//! DHT-level get success rate for DHash-over-Chord vs Fast-VerDi-over-Verme,
//! each with end-to-end retries enabled (`max_retries = 3`) and disabled
//! (`max_retries = 0`). The fault script — background churn with rejoins, a
//! consecutive-arc kill burst, and a message-loss burst — is driven by
//! [`verme_sim::fault::FaultRunner`], so a given seed replays bit for bit.
//!
//! Every cell is an independent simulation with a seed derived from the
//! master seed and the cell index; the cells come back in job order and
//! the table is rendered in fixed sweep order, so two runs with the same
//! seed produce byte-identical output regardless of how the worker threads
//! interleave.

use verme_dht::DhtConfig;
use verme_sim::fault::{keys as fault_keys, Fault, FaultPlan};
use verme_sim::SimDuration;

pub use crate::testbed::ChurnSystem;
use crate::testbed::{departures, par_map, pooled, run_churn_cell, DhtCell};

/// Parameters for one extG sweep.
#[derive(Clone, Debug)]
pub struct ExtGParams {
    /// Overlay size.
    pub nodes: usize,
    /// Verme section count.
    pub sections: u128,
    /// Stored block size in bytes.
    pub block_size: usize,
    /// Blocks seeded before the faults start.
    pub blocks: usize,
    /// Gets issued while the fault script runs.
    pub gets: usize,
    /// Swept Poisson departure rates (nodes per simulated second).
    pub churn_rates: Vec<f64>,
    /// Swept kill-burst sizes (consecutive ring nodes crashed at once).
    pub burst_sizes: Vec<usize>,
    /// Message-loss probability during the scripted loss burst.
    pub loss_rate: f64,
    /// Length of the churn window.
    pub window: SimDuration,
    /// Independent repetitions per cell; counts are pooled across reps.
    pub reps: u64,
    /// Master seed.
    pub seed: u64,
}

impl ExtGParams {
    /// Paper-scale configuration.
    pub fn full(seed: u64) -> Self {
        ExtGParams {
            nodes: 512,
            sections: 16,
            block_size: 8192,
            blocks: 48,
            gets: 96,
            churn_rates: vec![0.02, 0.05, 0.10],
            burst_sizes: vec![16, 32, 64],
            loss_rate: 0.15,
            window: SimDuration::from_mins(6),
            reps: 5,
            seed,
        }
    }

    /// Laptop-quick configuration.
    pub fn quick(seed: u64) -> Self {
        ExtGParams {
            nodes: 128,
            sections: 8,
            block_size: 1024,
            blocks: 20,
            gets: 48,
            churn_rates: vec![0.02, 0.05],
            burst_sizes: vec![8, 16],
            loss_rate: 0.15,
            window: SimDuration::from_mins(4),
            reps: 4,
            seed,
        }
    }
}

/// One sweep cell's measurements.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExtGCell {
    /// Gets issued during the fault window.
    pub issued: u64,
    /// Gets that completed successfully.
    pub completed: u64,
    /// Operations that failed outright.
    pub failed: u64,
    /// End-to-end retry attempts made.
    pub retries: u64,
    /// Operations that failed at least one attempt but still succeeded.
    pub recovered: u64,
    /// Replacement nodes that joined during churn.
    pub joins: u64,
    /// Nodes lost to crashes, graceful leaves, and the kill burst.
    pub departures: u64,
    /// Milliseconds from the end of the kill burst until every joined
    /// survivor again had a live first successor, if observed.
    pub reconverge_ms: Option<f64>,
}

impl ExtGCell {
    /// Fraction of issued gets that completed.
    pub fn success_rate(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.completed as f64 / self.issued as f64
    }

    /// Pools another repetition's counts into this cell. Reconvergence
    /// times average over the reps that observed one.
    pub fn merge(&mut self, other: &ExtGCell) {
        self.issued += other.issued;
        self.completed += other.completed;
        self.failed += other.failed;
        self.retries += other.retries;
        self.recovered += other.recovered;
        self.joins += other.joins;
        self.departures += other.departures;
        self.reconverge_ms = match (self.reconverge_ms, other.reconverge_ms) {
            (Some(a), Some(b)) => Some((a + b) / 2.0),
            (a, b) => a.or(b),
        };
    }
}

/// Runs one cell of the sweep: the shared churn cell
/// ([`run_churn_cell`]) under background churn with rejoins, a
/// consecutive-arc kill burst a third of the way in — the worst case for
/// successor-list repair — and a message-loss burst over the middle half.
pub fn run_extg_cell(
    system: ChurnSystem,
    params: &ExtGParams,
    churn_rate: f64,
    burst_size: usize,
    max_retries: u32,
    cell_seed: u64,
) -> ExtGCell {
    let cell = DhtCell {
        nodes: params.nodes,
        sections: params.sections,
        block_size: params.block_size,
        blocks: params.blocks,
        gets: params.gets,
        window: params.window,
    };
    let cfg = DhtConfig { max_retries, ..DhtConfig::default() };
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
                selector: format!("arc:{burst_size}"),
            })
            .with(Fault::LossBurst {
                at: start + window / 4,
                duration: window / 2,
                rate: params.loss_rate,
            })
    });
    ExtGCell {
        issued: out.issued,
        completed: out.count(verme_dht::keys::GET_COMPLETED),
        failed: out.count(verme_dht::keys::OP_FAILED),
        retries: out.count(verme_dht::keys::OP_RETRIES),
        recovered: out.count(verme_dht::keys::OP_RECOVERED),
        joins: out.count(fault_keys::JOIN),
        departures: departures(&out.delta),
        reconverge_ms: out
            .report
            .bursts
            .first()
            .and_then(|b| b.reconverged_after)
            .map(|d| d.as_millis_f64()),
    }
}

/// One row of the sweep: a `(system, churn, burst)` setting measured with
/// retries on and off.
#[derive(Clone, Debug)]
pub struct ExtGRow {
    /// System under test.
    pub system: ChurnSystem,
    /// Churn rate for this row.
    pub churn_rate: f64,
    /// Kill-burst size for this row.
    pub burst_size: usize,
    /// Cell measured with `max_retries = 3`.
    pub with_retries: ExtGCell,
    /// Cell measured with `max_retries = 0`.
    pub no_retries: ExtGCell,
}

/// Retry setting used for the retry-enabled arm.
pub const EXTG_RETRIES: u32 = 3;

/// Runs the full sweep. Cells execute on worker threads ([`par_map`]) and
/// come back in job order, so rows and pooled counts are independent of
/// thread scheduling.
pub fn run_extg(params: &ExtGParams) -> Vec<ExtGRow> {
    let reps = params.reps.max(1);
    let mut jobs = Vec::new();
    let mut settings = Vec::new();
    for &system in &ChurnSystem::ALL {
        for &churn_rate in &params.churn_rates {
            for &burst_size in &params.burst_sizes {
                settings.push((system, churn_rate, burst_size));
                for max_retries in [EXTG_RETRIES, 0] {
                    for rep in 0..reps {
                        // The seed depends on the setting and rep but not
                        // the arm: both retry arms of a rep face the same
                        // fault script.
                        let cell_seed = params
                            .seed
                            .wrapping_add(settings.len() as u64 * 7919)
                            .wrapping_add(burst_size as u64 * 104_729)
                            .wrapping_add(rep * 15_485_863);
                        jobs.push((system, churn_rate, burst_size, max_retries, cell_seed));
                    }
                }
            }
        }
    }
    let cells = par_map(&jobs, |&(system, churn_rate, burst_size, max_retries, cell_seed)| {
        run_extg_cell(system, params, churn_rate, burst_size, max_retries, cell_seed)
    });

    // Each setting's jobs are adjacent: `reps` retry cells, then `reps`
    // no-retry cells.
    settings
        .into_iter()
        .zip(cells.chunks(2 * reps as usize))
        .map(|((system, churn_rate, burst_size), arms)| {
            let (with, without) = arms.split_at(reps as usize);
            ExtGRow {
                system,
                churn_rate,
                burst_size,
                with_retries: pooled(with, ExtGCell::merge),
                no_retries: pooled(without, ExtGCell::merge),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extg_retries_recover_failed_attempts() {
        let params = ExtGParams {
            nodes: 96,
            sections: 8,
            block_size: 256,
            blocks: 12,
            gets: 32,
            churn_rates: vec![0.05],
            burst_sizes: vec![12],
            loss_rate: 0.3,
            window: SimDuration::from_mins(3),
            reps: 1,
            seed: 5,
        };
        let with = run_extg_cell(ChurnSystem::Dhash, &params, 0.05, 12, EXTG_RETRIES, 5);
        let without = run_extg_cell(ChurnSystem::Dhash, &params, 0.05, 12, 0, 5);
        assert!(with.issued > 0 && without.issued > 0);
        assert!(without.failed > 0, "fault script should break some no-retry gets");
        assert!(with.retries > 0, "faults should trigger retries");
        assert!(with.recovered > 0, "some retried gets should recover");
        assert!(
            with.success_rate() > without.success_rate(),
            "retries should lift success: {} vs {}",
            with.success_rate(),
            without.success_rate()
        );
    }

    #[test]
    fn extg_cells_are_reproducible() {
        let params = ExtGParams {
            nodes: 64,
            sections: 8,
            block_size: 256,
            blocks: 8,
            gets: 16,
            churn_rates: vec![0.05],
            burst_sizes: vec![8],
            loss_rate: 0.3,
            window: SimDuration::from_mins(2),
            reps: 1,
            seed: 9,
        };
        let a = run_extg_cell(ChurnSystem::FastVerDi, &params, 0.05, 8, EXTG_RETRIES, 9);
        let b = run_extg_cell(ChurnSystem::FastVerDi, &params, 0.05, 8, EXTG_RETRIES, 9);
        assert_eq!(a, b, "same seed must reproduce the cell exactly");
    }
}
