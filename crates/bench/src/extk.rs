//! Extension experiment K: lookup degradation under a Byzantine routing
//! adversary.
//!
//! Sweeps the adversary fraction (0–30% of the overlay) for all four
//! variants — DHash over Chord, Fast-VerDi, Secure-VerDi and
//! Compromise-VerDi over Verme — and measures what fraction of gets fail
//! or are hijacked. Adversaries are flipped mid-run by a scripted
//! [`Fault::Byzantine`] entry: each corrupted node keeps the honest state
//! machine but routes through a [`Byzantine`] behaviour policy that
//! drops, misroutes or hijacks relayed lookups and poisons its
//! stabilization advertisements.
//!
//! Placement is eclipse-style, mirroring the §6.1 threat model: the
//! adversary concentrates its identities around one victim section
//! ([`verme_core::VermeStaticRing::eclipse_cluster`]) — or, on the
//! sectionless Chord ring, around one victim key — rather than scattering
//! them uniformly.
//!
//! Every variant runs with the honest defenses on (per-hop suspicion
//! rerouting); Secure-VerDi additionally fans each attempt out over
//! disjoint first hops. The adversary draws from a private RNG stream, so
//! the 0% column is byte-identical to a run with no adversary plane at
//! all.
//!
//! Every cell is an independent simulation; the cell seed depends on the
//! variant, fraction and repetition, and the same seed replays the cell
//! byte for byte.

use rand::Rng;

use verme_chord::{Byzantine, ByzantineConfig, Id, RingNode};
use verme_dht::{DhtConfig, DhtEngine, Variant};
use verme_sim::fault::{Fault, FaultHooks, FaultPlan};
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, SeedSource, SimDuration};

use crate::testbed::{
    cell_seed, dht_ring, drive_dht_cell, pooled, sweep, CellOutcome, DhtCell, DhtRing, DhtSystem,
    OnDhtRing, Overlay, HOP,
};

/// Parameters for one extK sweep.
#[derive(Clone, Debug)]
pub struct ExtKParams {
    /// The cell: gets are issued from honest nodes while the adversaries
    /// run.
    pub cell: DhtCell,
    /// Swept adversary fractions of the overlay, in `[0, 0.5)`.
    pub adversary_fractions: Vec<f64>,
    /// Independent repetitions per cell; counts are pooled across reps.
    pub reps: u64,
    /// Master seed.
    pub seed: u64,
}

impl ExtKParams {
    /// Paper-scale configuration.
    pub fn full(seed: u64) -> Self {
        ExtKParams {
            cell: DhtCell {
                nodes: 256,
                sections: 16,
                block_size: 4096,
                blocks: 24,
                gets: 96,
                window: SimDuration::from_mins(4),
            },
            adversary_fractions: vec![0.0, 0.05, 0.10, 0.20, 0.30],
            reps: 3,
            seed,
        }
    }

    /// Laptop-quick configuration.
    pub fn quick(seed: u64) -> Self {
        ExtKParams {
            cell: DhtCell {
                nodes: 96,
                sections: 8,
                block_size: 1024,
                blocks: 12,
                gets: 48,
                window: SimDuration::from_mins(3),
            },
            adversary_fractions: vec![0.0, 0.05, 0.10, 0.20, 0.30],
            reps: 2,
            seed,
        }
    }
}

/// The attack corrupted nodes run: `ByzantineConfig::default()`'s blend of
/// drops, misroutes, hijacks and poisoned adverts.
pub const ATTACK: &str = "mixed";

/// Secure-VerDi's redundant-path fan-out (disjoint first hops per
/// attempt). The other variants always use 1.
pub const SECURE_FANOUT: usize = 2;

/// Defended DHT configuration for a variant: per-hop suspicion on
/// everywhere, redundant-path fan-out on Secure-VerDi only.
fn defended_config(system: DhtSystem) -> DhtConfig {
    DhtConfig {
        hop_suspicion: true,
        lookup_fanout: if system == DhtSystem::SecureVerDi { SECURE_FANOUT } else { 1 },
        ..DhtConfig::default()
    }
}

/// The order the adversary takes its positions in, drawn once per cell
/// seed. On a Verme ring, the eclipse cluster of one target section's own
/// type, nearest the section first (exactly the positions that serve the
/// section's keys); on the sectionless Chord ring, the members by circular
/// id distance from one victim key.
fn eclipse_order(overlay: &Overlay, members: &[Addr], cell_seed: u64) -> Vec<Addr> {
    let mut rng = SeedSource::new(cell_seed).stream("eclipse-target");
    let positions = match overlay {
        Overlay::Verme(ring) => {
            let layout = *ring.layout();
            let target_section = rng.gen_range(0..layout.num_sections());
            let ty = layout.type_of(layout.section_start(target_section));
            let avail = (0..ring.len()).filter(|&i| ring.type_of_index(i) == ty).count();
            ring.eclipse_cluster(target_section, ty, avail)
        }
        Overlay::Chord(ring) => {
            let target = Id::random(&mut rng).raw();
            let mut idx: Vec<usize> = (0..ring.len()).collect();
            idx.sort_by_key(|&i| {
                let d = ring.node(i).id.raw().wrapping_sub(target);
                d.min(0u128.wrapping_sub(d))
            });
            idx
        }
    };
    positions.into_iter().map(|i| members[i]).collect()
}

/// Runs one cell of the sweep: the shared cell ([`drive_dht_cell`]) with
/// the adversary's binding. The first `fraction` of the eclipse order is
/// flipped Byzantine when the window opens, selectors read that order, and
/// gets come from honest nodes only.
pub fn run_extk_cell(
    system: DhtSystem,
    params: &ExtKParams,
    fraction: f64,
    cell_seed: u64,
) -> CellOutcome {
    struct Adversarial<'a> {
        params: &'a ExtKParams,
        fraction: f64,
        cell_seed: u64,
    }
    impl OnDhtRing<UniformLatency> for Adversarial<'_> {
        type Out = CellOutcome;
        fn run<V: Variant>(self, ring: DhtRing<V, UniformLatency>) -> CellOutcome {
            let Adversarial { params, fraction, cell_seed } = self;
            let DhtRing { rt, members, overlay, .. } = ring;
            let order = eclipse_order(&overlay, &members, cell_seed);
            assert!((0.0..0.5).contains(&fraction), "adversary fraction out of range: {fraction}");
            let count = (params.cell.nodes as f64 * fraction).round() as usize;
            let adversaries: Vec<Addr> = order.iter().copied().take(count).collect();
            let hooks: FaultHooks<DhtEngine<V>, UniformLatency> = FaultHooks {
                victim_order: order,
                corrupt: Box::new(move |rt, targets| {
                    for &a in targets {
                        // Each corrupted node draws from a private stream.
                        let seed =
                            cell_seed.wrapping_add(a.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15));
                        let cfg = ByzantineConfig { seed, ..ByzantineConfig::default() };
                        let node = rt.node_mut(a).expect("corrupt targets are alive");
                        node.set_behaviour(Box::new(Byzantine::new(cfg)));
                    }
                }),
                ..FaultHooks::inert()
            };
            let plan = |at| match adversaries.len() {
                0 => FaultPlan::new(),
                n => {
                    FaultPlan::new().with(Fault::Byzantine { at, selector: format!("eclipse:{n}") })
                }
            };
            let honest: Vec<Addr> =
                members.iter().copied().filter(|a| !adversaries.contains(a)).collect();
            let cell = &params.cell;
            drive_dht_cell(rt, members, hooks, cell, cell_seed, plan, |_, _, rng| {
                Some(honest[rng.gen_range(0..honest.len())])
            })
        }
    }
    let (cell, then) = (&params.cell, Adversarial { params, fraction, cell_seed });
    let net = UniformLatency::new(cell.nodes, HOP);
    dht_ring(system, cell.nodes, cell.sections, net, cell_seed, defended_config(system), then)
}

/// One row of the sweep: a variant measured at every adversary fraction,
/// in the order given by `params.adversary_fractions`.
#[derive(Clone, Debug)]
pub struct ExtKRow {
    /// Variant under test.
    pub system: DhtSystem,
    /// One pooled cell per swept fraction.
    pub cells: Vec<(f64, CellOutcome)>,
}

/// Runs the full sweep. Cells execute on worker threads ([`sweep`]) and
/// come back in job order, so rows and pooled counts are independent of
/// thread scheduling.
pub fn run_extk(params: &ExtKParams) -> Vec<ExtKRow> {
    let fractions = &params.adversary_fractions;
    let settings = DhtSystem::ALL.iter().flat_map(|&s| fractions.iter().map(move |&f| (s, f)));
    let jobs: Vec<_> = (1..).zip(settings).collect();
    let cells = sweep(&jobs, params.reps, |&(n, (system, fraction)), rep| {
        run_extk_cell(system, params, fraction, cell_seed(params.seed, n, rep))
    });
    // A system's settings are adjacent, one per fraction.
    let mut pooled_cells =
        jobs.iter().zip(&cells).map(|(&(_, (_, f)), reps)| (f, pooled(reps, CellOutcome::merge)));
    let mut row = || pooled_cells.by_ref().take(fractions.len()).collect();
    DhtSystem::ALL.iter().map(|&system| ExtKRow { system, cells: row() }).collect()
}

#[cfg(test)]
mod tests {
    use verme_chord::keys::RING_POISONED as POISONED;
    use verme_dht::keys::LOOKUPS_HIJACKED as HIJACKED;
    use verme_sim::fault::keys::BYZANTINE;

    use super::*;

    fn tiny() -> ExtKParams {
        ExtKParams {
            cell: DhtCell {
                nodes: 64,
                sections: 8,
                block_size: 256,
                blocks: 8,
                gets: 24,
                window: SimDuration::from_mins(2),
            },
            adversary_fractions: vec![0.0, 0.25],
            reps: 1,
            seed: 13,
        }
    }

    #[test]
    fn extk_cells_are_reproducible() {
        let params = tiny();
        for &system in &[DhtSystem::FastVerDi, DhtSystem::SecureVerDi] {
            let a = run_extk_cell(system, &params, 0.25, 13);
            let b = run_extk_cell(system, &params, 0.25, 13);
            assert_eq!(a, b, "same seed must reproduce the {} cell exactly", system.label());
        }
    }

    #[test]
    fn extk_adversaries_degrade_lookups_and_trip_detectors() {
        let params = tiny();
        let quiet = run_extk_cell(DhtSystem::FastVerDi, &params, 0.0, 13);
        let loud = run_extk_cell(DhtSystem::FastVerDi, &params, 0.25, 13);
        let detected = |c: &CellOutcome| c.count(HIJACKED) + c.count(POISONED);
        assert_eq!(quiet.count(BYZANTINE), 0);
        assert_eq!(quiet.count(HIJACKED), 0, "no hijack detections without adversaries");
        assert_eq!(quiet.count(POISONED), 0, "no poison rejections without adversaries");
        assert!(loud.count(BYZANTINE) > 0, "the Byzantine fault must fire");
        assert!(
            loud.failed_fraction() > quiet.failed_fraction(),
            "adversaries must degrade gets: loud {:?} quiet {:?}",
            loud,
            quiet
        );
        assert!(detected(&loud) > 0, "attacks must trip a detector: {loud:?}");
    }
}
