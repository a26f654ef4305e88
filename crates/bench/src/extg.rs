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
use verme_sim::fault::{Fault, FaultPlan};
use verme_sim::{Histogram, SimDuration};

use crate::testbed::{cell_seed, pooled, run_churn_cell, sweep, CellOutcome, DhtCell, DhtSystem};

/// Parameters for one extG sweep.
#[derive(Clone, Debug)]
pub struct ExtGParams {
    /// The cell: gets are issued while the fault script runs.
    pub cell: DhtCell,
    /// Swept Poisson departure rates (nodes per simulated second).
    pub churn_rates: Vec<f64>,
    /// Swept kill-burst sizes (consecutive ring nodes crashed at once).
    pub burst_sizes: Vec<usize>,
    /// Message-loss probability during the scripted loss burst.
    pub loss_rate: f64,
    /// Independent repetitions per cell; counts are pooled across reps.
    pub reps: u64,
    /// Master seed.
    pub seed: u64,
}

impl ExtGParams {
    /// Paper-scale configuration.
    pub fn full(seed: u64) -> Self {
        ExtGParams {
            cell: DhtCell {
                nodes: 512,
                sections: 16,
                block_size: 8192,
                blocks: 48,
                gets: 96,
                window: SimDuration::from_mins(6),
            },
            churn_rates: vec![0.02, 0.05, 0.10],
            burst_sizes: vec![16, 32, 64],
            loss_rate: 0.15,
            reps: 5,
            seed,
        }
    }

    /// Laptop-quick configuration.
    pub fn quick(seed: u64) -> Self {
        ExtGParams {
            cell: DhtCell {
                nodes: 128,
                sections: 8,
                block_size: 1024,
                blocks: 20,
                gets: 48,
                window: SimDuration::from_mins(4),
            },
            churn_rates: vec![0.02, 0.05],
            burst_sizes: vec![8, 16],
            loss_rate: 0.15,
            reps: 4,
            seed,
        }
    }
}

/// Milliseconds from the end of the kill burst until every joined
/// survivor again had a live first successor, averaged over the
/// repetitions that observed one (`None` if none did). The plan has one
/// burst, so a pooled cell's [`CellOutcome::reconverge_ms`] holds one
/// sample per such repetition.
pub fn reconverge_ms(samples: &Histogram) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.mean())
}

/// Runs one cell of the sweep: the shared churn cell
/// ([`run_churn_cell`]) under background churn with rejoins, a
/// consecutive-arc kill burst a third of the way in — the worst case for
/// successor-list repair — and a message-loss burst over the middle half.
pub fn run_extg_cell(
    system: DhtSystem,
    params: &ExtGParams,
    churn_rate: f64,
    burst_size: usize,
    max_retries: u32,
    cell_seed: u64,
) -> CellOutcome {
    let cfg = DhtConfig { max_retries, ..DhtConfig::default() };
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
                selector: format!("arc:{burst_size}"),
            })
            .with(Fault::LossBurst {
                at: start + window / 4,
                duration: window / 2,
                rate: params.loss_rate,
            })
    })
}

/// One row of the sweep: a `(system, churn, burst)` setting measured with
/// retries on and off.
#[derive(Clone, Debug)]
pub struct ExtGRow {
    /// System under test.
    pub system: DhtSystem,
    /// Churn rate for this row.
    pub churn_rate: f64,
    /// Kill-burst size for this row.
    pub burst_size: usize,
    /// Cell measured with `max_retries = 3`.
    pub with_retries: CellOutcome,
    /// Cell measured with `max_retries = 0`.
    pub no_retries: CellOutcome,
}

/// Retry setting used for the retry-enabled arm.
pub const EXTG_RETRIES: u32 = 3;

/// Runs the full sweep of DHash and Fast-VerDi. Cells execute on worker
/// threads ([`sweep`]) and come back in job order, so rows and pooled
/// counts are independent of thread scheduling.
pub fn run_extg(params: &ExtGParams) -> Vec<ExtGRow> {
    let settings: Vec<_> = [DhtSystem::Dhash, DhtSystem::FastVerDi]
        .into_iter()
        .flat_map(|system| params.churn_rates.iter().map(move |&churn| (system, churn)))
        .flat_map(|(system, churn)| params.burst_sizes.iter().map(move |&b| (system, churn, b)))
        .collect();
    let jobs: Vec<_> =
        (1..).zip(&settings).flat_map(|(n, &s)| [(n, s, EXTG_RETRIES), (n, s, 0)]).collect();
    let cells = sweep(&jobs, params.reps, |&(n, (system, churn, burst), retries), rep| {
        let seed = params.seed.wrapping_add(burst as u64 * 104_729);
        run_extg_cell(system, params, churn, burst, retries, cell_seed(seed, n, rep))
    });
    settings
        .into_iter()
        .zip(cells.chunks(2))
        .map(|((system, churn_rate, burst_size), arms)| ExtGRow {
            system,
            churn_rate,
            burst_size,
            with_retries: pooled(&arms[0], CellOutcome::merge),
            no_retries: pooled(&arms[1], CellOutcome::merge),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use verme_dht::keys::{GET_COMPLETED, OP_FAILED, OP_RECOVERED, OP_RETRIES};

    use super::*;

    fn tiny() -> ExtGParams {
        ExtGParams {
            cell: DhtCell {
                nodes: 96,
                sections: 8,
                block_size: 256,
                blocks: 12,
                gets: 32,
                window: SimDuration::from_mins(3),
            },
            churn_rates: vec![0.05],
            burst_sizes: vec![12],
            loss_rate: 0.3,
            reps: 1,
            seed: 5,
        }
    }

    #[test]
    fn extg_retries_recover_failed_attempts() {
        let params = tiny();
        let with = run_extg_cell(DhtSystem::Dhash, &params, 0.05, 12, EXTG_RETRIES, 5);
        let without = run_extg_cell(DhtSystem::Dhash, &params, 0.05, 12, 0, 5);
        assert!(with.issued > 0 && without.issued > 0);
        assert!(without.count(OP_FAILED) > 0, "fault script should break some no-retry gets");
        assert!(with.count(OP_RETRIES) > 0, "faults should trigger retries");
        assert!(with.count(OP_RECOVERED) > 0, "some retried gets should recover");
        assert!(
            with.per_get(GET_COMPLETED) > without.per_get(GET_COMPLETED),
            "retries should lift success: {} vs {}",
            with.per_get(GET_COMPLETED),
            without.per_get(GET_COMPLETED)
        );
    }

    #[test]
    fn reconvergence_is_the_mean_over_the_reps_that_observed_one() {
        let rep = |ms: Option<f64>| {
            let mut cell = CellOutcome::default();
            ms.into_iter().for_each(|ms| cell.reconverge_ms.record(ms));
            cell
        };
        let reps = [Some(100.0), None, Some(200.0), Some(600.0)].map(rep);
        assert_eq!(reconverge_ms(&pooled(&reps, CellOutcome::merge).reconverge_ms), Some(300.0));
        assert_eq!(reconverge_ms(&rep(None).reconverge_ms), None);
    }

    #[test]
    fn extg_cells_are_reproducible() {
        let params = tiny();
        let a = run_extg_cell(DhtSystem::FastVerDi, &params, 0.05, 12, EXTG_RETRIES, 9);
        let b = run_extg_cell(DhtSystem::FastVerDi, &params, 0.05, 12, EXTG_RETRIES, 9);
        assert_eq!(a, b, "same seed must reproduce the cell exactly");
    }
}
