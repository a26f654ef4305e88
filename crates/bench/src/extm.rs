//! Extension experiment M: ring-maintenance safety — legacy stabilization
//! vs the Zave-corrected protocol under churn and correlated arc kills.
//!
//! Every cell runs a converged overlay (plain Chord or the Verme section
//! variant) with the continuous ring-invariant assertor attached: after
//! every processed event the runtime snapshots all live nodes'
//! [`RingStance`]s and evaluates [`check_ring`], counting hard safety
//! violations under `ring.invariant.violations` and sampling the
//! `ring.wedged` / `ring.appendage_nodes` gauges.
//!
//! The fault script is the double-wedge hazard from Zave's counterexample
//! family, scaled to the wire protocol: background Poisson churn with
//! rejoins, plus two staggered kill bursts each wiping a *consecutive
//! arc* at least as long as the successor list. The cells run
//! **finger-starved** (empty finger tables), the regime where an emptied
//! successor list has no forward reseed — legacy maintenance then refills
//! backwards off the next notify and partitions the ring into disjoint
//! cycles, while the corrected protocol wedges the survivors safely and
//! never violates the invariant.
//!
//! Determinism follows the extG pattern: every cell is an independent
//! simulation seeded from the master seed and its sweep position, results
//! come back in job order, and rows render in fixed sweep order.

use verme_chaos::{chord_hooks, ring_assertor};
use verme_chord::{
    check_ring, ChordConfig, ChordNode, MaintenanceMode, RingNode, RingStance, StaticRing,
};
use verme_core::{SectionLayout, VermeConfig, VermeNode, VermeStaticRing};
use verme_crypto::CertificateAuthority;
use verme_obs::ring as ring_keys;
use verme_sim::fault::{keys as fault_keys, Fault, FaultHooks, FaultPlan, FaultRunner};
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, Node, Runtime, SeedSource, SimDuration, SimTime};

use crate::testbed::{cell_seed, churn_hooks, pooled, sweep, verme_joiner, HOP};

/// Which overlay variant a cell runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ExtMVariant {
    /// Plain Chord: single predecessor pointer.
    Chord,
    /// The Verme section variant: symmetric predecessor lists.
    Verme,
}

impl ExtMVariant {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            ExtMVariant::Chord => "Chord",
            ExtMVariant::Verme => "Verme",
        }
    }

    /// Both variants, baseline first.
    pub const ALL: [ExtMVariant; 2] = [ExtMVariant::Chord, ExtMVariant::Verme];
}

/// Parameters for one extM sweep.
#[derive(Clone, Debug)]
pub struct ExtMParams {
    /// Overlay size.
    pub nodes: usize,
    /// Verme section count.
    pub sections: u128,
    /// Successor-list (and Verme predecessor-list) length. Kept short so
    /// a burst arc can plausibly exceed it.
    pub num_successors: usize,
    /// Swept Poisson departure rates (nodes per simulated second).
    pub churn_rates: Vec<f64>,
    /// Length of each killed arc (must be ≥ `num_successors` for the
    /// burst to wedge the arc's predecessor).
    pub burst: usize,
    /// Length of the churn window.
    pub window: SimDuration,
    /// Independent repetitions per cell; counts are pooled across reps.
    pub reps: u64,
    /// Master seed.
    pub seed: u64,
}

impl ExtMParams {
    /// Paper-scale configuration.
    pub fn full(seed: u64) -> Self {
        ExtMParams {
            nodes: 256,
            sections: 16,
            num_successors: 4,
            churn_rates: vec![0.02, 0.05, 0.10],
            burst: 8,
            window: SimDuration::from_mins(6),
            reps: 3,
            seed,
        }
    }

    /// Laptop-quick configuration.
    pub fn quick(seed: u64) -> Self {
        ExtMParams {
            nodes: 96,
            sections: 8,
            num_successors: 3,
            churn_rates: vec![0.02, 0.05],
            burst: 6,
            window: SimDuration::from_mins(3),
            reps: 2,
            seed,
        }
    }
}

/// One sweep cell's measurements.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExtMCell {
    /// Invariant evaluations the assertor actually ran (cheap-skip
    /// fingerprint changes).
    pub assert_points: u64,
    /// Hard invariant violations counted across all assertion points.
    pub violations: u64,
    /// Peak simultaneous wedged nodes observed.
    pub max_wedged: f64,
    /// Peak simultaneous appendage nodes observed.
    pub max_appendages: f64,
    /// Replacement nodes that joined during churn.
    pub joins: u64,
    /// Violations still present in the final snapshot.
    pub end_violations: u64,
    /// True when the final snapshot contains ≥ 2 disjoint cycles.
    pub end_partitioned: bool,
    /// Wedged survivors in the final snapshot.
    pub end_wedged: u64,
}

impl ExtMCell {
    /// Pools another repetition's counts into this cell.
    pub fn merge(&mut self, other: &ExtMCell) {
        self.assert_points += other.assert_points;
        self.violations += other.violations;
        self.max_wedged = self.max_wedged.max(other.max_wedged);
        self.max_appendages = self.max_appendages.max(other.max_appendages);
        self.joins += other.joins;
        self.end_violations += other.end_violations;
        self.end_partitioned |= other.end_partitioned;
        self.end_wedged += other.end_wedged;
    }
}

/// Runs one cell of the sweep.
pub fn run_extm_cell(
    variant: ExtMVariant,
    mode: MaintenanceMode,
    params: &ExtMParams,
    churn_rate: f64,
    cell_seed: u64,
) -> ExtMCell {
    match variant {
        ExtMVariant::Chord => run_chord_cell(params, mode, churn_rate, cell_seed),
        ExtMVariant::Verme => run_verme_cell(params, mode, churn_rate, cell_seed),
    }
}

/// The shared fault schedule: settle, then run churn with two staggered
/// arc kill bursts, and let maintenance play out.
fn fault_plan(params: &ExtMParams, churn_rate: f64, start: SimTime) -> FaultPlan {
    let window = params.window;
    let mid = params.nodes / 2;
    let burst = params.burst;
    FaultPlan::new()
        .with(Fault::Churn {
            start,
            duration: window,
            leave_rate_per_sec: churn_rate,
            graceful_fraction: 0.5,
            rejoin_after: Some(SimDuration::from_secs(20)),
        })
        // Two arcs, far apart, each spanning a whole successor list:
        // positions 1..=burst wedge node 0, positions mid+1..=mid+burst
        // wedge node mid. Staggered so each wedge-and-refill resolves
        // before the next forms — the partition needs both, not
        // simultaneity.
        .with(Fault::KillBurst {
            at: start + window / 3,
            window: SimDuration::from_secs(1),
            selector: format!("span:1:{burst}"),
        })
        .with(Fault::KillBurst {
            at: start + window / 3 + SimDuration::from_secs(15),
            window: SimDuration::from_secs(1),
            selector: format!("span:{}:{burst}", mid + 1),
        })
}

fn run_chord_cell(
    params: &ExtMParams,
    mode: MaintenanceMode,
    churn_rate: f64,
    cell_seed: u64,
) -> ExtMCell {
    let cfg = ChordConfig {
        num_successors: params.num_successors,
        maintenance: mode,
        // The starved regime: finger refresh never fires inside the
        // window, so an emptied successor list has no forward reseed and
        // the maintenance rules alone decide the outcome.
        fix_fingers_interval: params.window * 8,
        ..ChordConfig::default()
    };
    let ring = StaticRing::random(params.nodes, cell_seed);
    let mut rt = Runtime::new(UniformLatency::new(params.nodes, HOP), cell_seed);
    // Finger-starved: the hazard regime where an emptied successor list
    // has no forward reseed until fix-fingers repopulates.
    let addrs = ring.spawn(&mut rt, |pos| {
        let pred = Some(ring.node(ring.predecessor_index(pos)));
        let succs = ring.successors_of(pos, cfg.num_successors);
        ChordNode::with_state(ring.node(pos).id, cfg.clone(), pred, &succs, &[])
    });
    let hooks = chord_hooks(&addrs, cell_seed, cfg, |n| n, |overlay| overlay);
    drive_cell(rt, addrs, hooks, params, churn_rate, cell_seed, ChordNode::ring_stance)
}

fn run_verme_cell(
    params: &ExtMParams,
    mode: MaintenanceMode,
    churn_rate: f64,
    cell_seed: u64,
) -> ExtMCell {
    let layout = SectionLayout::with_sections(params.sections, 2);
    let cfg = VermeConfig {
        num_successors: params.num_successors,
        num_predecessors: params.num_successors,
        maintenance: mode,
        // Starved, as in the Chord cell.
        fix_fingers_interval: params.window * 8,
        ..VermeConfig::new(layout)
    };
    let ring = VermeStaticRing::generate(layout, params.nodes, cell_seed);
    let mut ca = CertificateAuthority::new(cell_seed);
    let mut rt = Runtime::new(UniformLatency::new(params.nodes, HOP), cell_seed);
    // Finger-starved, as in the Chord cell.
    let addrs = ring.spawn(&mut rt, |i| {
        let (cert, keys) = ca.issue(ring.node(i).id.raw(), ring.type_of_index(i));
        let succs = ring.successors_of(i, cfg.num_successors);
        let preds = ring.predecessors_of(i, cfg.num_predecessors);
        VermeNode::with_state(cfg.clone(), cert, keys, ca.verifier(), &preds, &succs, &[])
    });
    let hooks = churn_hooks(&addrs, cell_seed, verme_joiner(cfg, ca));
    drive_cell(rt, addrs, hooks, params, churn_rate, cell_seed, VermeNode::<()>::ring_stance)
}

/// Runs the fault schedule over a spawned cell with the continuous
/// ring-invariant assertor attached, `stance` reading a node's ring
/// pointers for the end snapshot.
fn drive_cell<N: Node + RingNode + 'static>(
    mut rt: Runtime<N, UniformLatency>,
    addrs: Vec<Addr>,
    hooks: FaultHooks<N, UniformLatency>,
    params: &ExtMParams,
    churn_rate: f64,
    cell_seed: u64,
    stance: fn(&N) -> RingStance,
) -> ExtMCell {
    rt.set_step_assertor(ring_assertor());
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(5));
    let start = rt.now() + SimDuration::from_secs(5);
    let plan = fault_plan(params, churn_rate, start);
    let mut runner =
        FaultRunner::new(plan, hooks, SeedSource::new(cell_seed), addrs).expect("valid extM plan");
    // Let the fault window play out, then give maintenance a settling
    // tail: stabilization either repairs the ring or the damage is
    // permanent (a legacy partition, a corrected wedge).
    runner.run_until(&mut rt, start + params.window + SimDuration::from_secs(120));
    drop(runner);

    let end_stances: Vec<RingStance> =
        rt.alive_addrs().filter_map(|a| rt.node(a)).map(stance).collect();
    let end = check_ring(&end_stances);
    let violations = rt.metrics().counter(ring_keys::INVARIANT_VIOLATIONS);
    let joins = rt.metrics().counter(fault_keys::JOIN);
    let (assert_points, max_wedged) = rt
        .metrics_mut()
        .histogram_mut(ring_keys::WEDGED)
        .map(|h| {
            let s = h.summary();
            (s.count, s.max)
        })
        .unwrap_or((0, 0.0));
    let max_appendages = rt
        .metrics_mut()
        .histogram_mut(ring_keys::APPENDAGE_NODES)
        .map(|h| h.summary().max)
        .unwrap_or(0.0);
    ExtMCell {
        assert_points,
        violations,
        max_wedged,
        max_appendages,
        joins,
        end_violations: end.violations.len() as u64,
        end_partitioned: end
            .violations
            .iter()
            .any(|v| v.kind == verme_chord::ViolationKind::MultipleRings),
        end_wedged: end.wedged,
    }
}

/// One row of the sweep: a `(variant, churn)` setting measured under both
/// maintenance modes against the same fault script.
#[derive(Clone, Debug)]
pub struct ExtMRow {
    /// Overlay variant.
    pub variant: ExtMVariant,
    /// Churn rate for this row.
    pub churn_rate: f64,
    /// Cell measured under legacy stabilization.
    pub legacy: ExtMCell,
    /// Cell measured under the corrected protocol.
    pub corrected: ExtMCell,
}

/// Runs the full sweep. Cells execute on worker threads ([`sweep`]) and
/// come back in job order, so rows and pooled counts are independent of
/// thread scheduling.
pub fn run_extm(params: &ExtMParams) -> Vec<ExtMRow> {
    let settings: Vec<_> = ExtMVariant::ALL
        .iter()
        .flat_map(|&variant| params.churn_rates.iter().map(move |&churn| (variant, churn)))
        .collect();
    let modes = [MaintenanceMode::Legacy, MaintenanceMode::Corrected];
    let jobs: Vec<_> =
        (1..).zip(&settings).flat_map(|(n, &setting)| modes.map(|m| (n, setting, m))).collect();
    let cells = sweep(&jobs, params.reps, |&(n, (variant, churn_rate), mode), rep| {
        run_extm_cell(variant, mode, params, churn_rate, cell_seed(params.seed, n, rep))
    });
    settings
        .into_iter()
        .zip(cells.chunks(2))
        .map(|((variant, churn_rate), arms)| ExtMRow {
            variant,
            churn_rate,
            legacy: pooled(&arms[0], ExtMCell::merge),
            corrected: pooled(&arms[1], ExtMCell::merge),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> ExtMParams {
        ExtMParams {
            nodes: 64,
            sections: 8,
            num_successors: 3,
            churn_rates: vec![0.02],
            burst: 5,
            window: SimDuration::from_mins(2),
            reps: 1,
            seed,
        }
    }

    #[test]
    fn legacy_starved_burst_violates_and_corrected_does_not() {
        let params = tiny(11);
        let legacy = run_extm_cell(ExtMVariant::Chord, MaintenanceMode::Legacy, &params, 0.02, 11);
        let corrected =
            run_extm_cell(ExtMVariant::Chord, MaintenanceMode::Corrected, &params, 0.02, 11);
        assert!(legacy.assert_points > 0 && corrected.assert_points > 0);
        assert!(
            legacy.violations > 0,
            "the double arc burst should partition the legacy ring: {legacy:?}"
        );
        assert_eq!(
            corrected.violations, 0,
            "corrected maintenance must never violate the invariant: {corrected:?}"
        );
        assert!(
            corrected.max_wedged >= 1.0,
            "the burst should wedge corrected survivors safely: {corrected:?}"
        );
    }

    #[test]
    fn extm_cells_are_reproducible() {
        let params = tiny(23);
        let a = run_extm_cell(ExtMVariant::Verme, MaintenanceMode::Corrected, &params, 0.02, 23);
        let b = run_extm_cell(ExtMVariant::Verme, MaintenanceMode::Corrected, &params, 0.02, 23);
        assert_eq!(a, b, "same seed must reproduce the cell exactly");
    }
}
