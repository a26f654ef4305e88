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
//! ([`VermeStaticRing::eclipse_cluster`]) — or, on the sectionless Chord
//! ring, around one victim key — rather than scattering them uniformly.
//!
//! Every variant runs with the PR's honest defenses on (per-hop suspicion
//! rerouting); Secure-VerDi additionally fans each attempt out over
//! disjoint first hops. The adversary draws from a private RNG stream, so
//! the 0% column is byte-identical to a run with no adversary plane at
//! all.
//!
//! Every cell is an independent simulation; the cell seed depends on the
//! variant, fraction and repetition, and the same seed replays the cell
//! byte for byte.

use rand::Rng;

use verme_chord::{Behaviour, Byzantine, ByzantineConfig, ChordConfig, Id, StaticRing};
use verme_core::{Payload, SectionLayout, VermeConfig, VermeNode, VermeStaticRing};
use verme_dht::{Compromise, DhashNode, DhtConfig, DhtEngine, DhtNode, Fast, Secure, Variant};
use verme_sim::fault::{keys as fault_keys, ordered_selector, Fault, FaultHooks, FaultPlan};
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, Runtime, SeedSource, SimDuration};

use crate::testbed::{
    cell_seed, chord_ring, drive_dht_cell, pooled, sweep, verme_ring, DhtCell, DhtSystem, HOP,
};

/// Parameters for one extK sweep.
#[derive(Clone, Debug)]
pub struct ExtKParams {
    /// Overlay size.
    pub nodes: usize,
    /// Verme section count.
    pub sections: u128,
    /// Stored block size in bytes.
    pub block_size: usize,
    /// Blocks seeded before the adversaries activate.
    pub blocks: usize,
    /// Gets issued (from honest nodes) while the adversaries run.
    pub gets: usize,
    /// Swept adversary fractions of the overlay, in `[0, 0.5)`.
    pub adversary_fractions: Vec<f64>,
    /// Attack mix installed on corrupted nodes (see [`attack_config`]).
    pub attack: String,
    /// Secure-VerDi redundant-path fan-out (disjoint first hops per
    /// attempt). The other variants always use 1.
    pub fanout: usize,
    /// Length of the adversarial window.
    pub window: SimDuration,
    /// Independent repetitions per cell; counts are pooled across reps.
    pub reps: u64,
    /// Master seed.
    pub seed: u64,
}

impl ExtKParams {
    /// Paper-scale configuration.
    pub fn full(seed: u64) -> Self {
        ExtKParams {
            nodes: 256,
            sections: 16,
            block_size: 4096,
            blocks: 24,
            gets: 96,
            adversary_fractions: vec![0.0, 0.05, 0.10, 0.20, 0.30],
            attack: "mixed".into(),
            fanout: 2,
            window: SimDuration::from_mins(4),
            reps: 3,
            seed,
        }
    }

    /// Laptop-quick configuration.
    pub fn quick(seed: u64) -> Self {
        ExtKParams {
            nodes: 96,
            sections: 8,
            block_size: 1024,
            blocks: 12,
            gets: 48,
            adversary_fractions: vec![0.0, 0.05, 0.10, 0.20, 0.30],
            attack: "mixed".into(),
            fanout: 2,
            window: SimDuration::from_mins(3),
            reps: 2,
            seed,
        }
    }
}

/// The attack mix a [`Fault::Byzantine`] `attack` string names.
///
/// `"mixed"` is the default drop/misroute/hijack/poison blend; the other
/// names isolate one behaviour for targeted checks.
///
/// # Panics
///
/// Panics on an unknown attack name.
pub fn attack_config(attack: &str, seed: u64) -> ByzantineConfig {
    let pure = |drop: f64, mis: f64, hij: f64, poison: bool| ByzantineConfig {
        drop_fraction: drop,
        misroute_fraction: mis,
        hijack_fraction: hij,
        poison,
        seed,
    };
    match attack {
        "mixed" => ByzantineConfig { seed, ..ByzantineConfig::default() },
        "drop" => pure(1.0, 0.0, 0.0, false),
        "misroute" => pure(0.0, 1.0, 0.0, false),
        "hijack" => pure(0.0, 0.0, 1.0, false),
        "poison" => pure(0.0, 0.0, 0.0, true),
        other => panic!("unknown attack {other:?}"),
    }
}

/// One sweep cell's pooled measurements.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExtKCell {
    /// Nodes flipped Byzantine (pooled over reps).
    pub adversaries: u64,
    /// Gets issued from honest nodes during the window.
    pub issued: u64,
    /// Gets that completed successfully.
    pub completed: u64,
    /// Data-verification failures after a completed lookup — the
    /// signature of a hijacked path (`dht.lookups.hijacked`).
    pub hijacked: u64,
    /// Poisoned advertisement entries rejected by honest nodes
    /// (`ring.poisoned_entries`).
    pub poisoned: u64,
    /// First hops blacklisted by the per-hop suspicion counter
    /// (`dht.op.suspect_reroutes`).
    pub suspect_reroutes: u64,
}

impl ExtKCell {
    /// Fraction of issued gets that never completed, in `[0, 1]`.
    pub fn failed_fraction(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.issued.saturating_sub(self.completed) as f64 / self.issued as f64
    }

    /// Hijack detections per issued get (can exceed 1: each retry of a
    /// hijacked operation can trip the detector again).
    pub fn hijacked_per_get(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.hijacked as f64 / self.issued as f64
    }

    /// Pools another repetition's counts into this cell.
    pub fn merge(&mut self, other: &ExtKCell) {
        self.adversaries += other.adversaries;
        self.issued += other.issued;
        self.completed += other.completed;
        self.hijacked += other.hijacked;
        self.poisoned += other.poisoned;
        self.suspect_reroutes += other.suspect_reroutes;
    }
}

/// Defended DHT configuration for a variant: per-hop suspicion on
/// everywhere, redundant-path fan-out on Secure-VerDi only.
fn defended_config(system: DhtSystem, params: &ExtKParams) -> DhtConfig {
    DhtConfig {
        hop_suspicion: true,
        lookup_fanout: if system == DhtSystem::SecureVerDi { params.fanout.max(1) } else { 1 },
        ..DhtConfig::default()
    }
}

/// Adversary positions on a Verme ring: the eclipse cluster of the
/// target section's own type, nearest the section first (corrupting
/// exactly the positions that serve the section's keys). The target
/// section is drawn once per cell seed.
fn verme_adversary_order(ring: &VermeStaticRing, addrs: &[Addr], cell_seed: u64) -> Vec<Addr> {
    let mut rng = SeedSource::new(cell_seed).stream("eclipse-target");
    let layout = *ring.layout();
    let target_section = rng.gen_range(0..layout.num_sections());
    let ty = layout.type_of(layout.section_start(target_section));
    let avail = (0..ring.len()).filter(|&i| ring.type_of_index(i) == ty).count();
    ring.eclipse_cluster(target_section, ty, avail).into_iter().map(|i| addrs[i]).collect()
}

/// Adversary positions on a sectionless Chord ring: members ordered by
/// circular id distance from a per-seed victim key.
fn chord_adversary_order(ring: &StaticRing, addrs: &[Addr], cell_seed: u64) -> Vec<Addr> {
    let mut rng = SeedSource::new(cell_seed).stream("eclipse-target");
    let target = Id::random(&mut rng);
    let mut idx: Vec<usize> = (0..ring.len()).collect();
    idx.sort_by_key(|&i| {
        let d = ring.node(i).id.raw().wrapping_sub(target.raw());
        d.min(0u128.wrapping_sub(d))
    });
    idx.into_iter().map(|i| addrs[i]).collect()
}

/// The adversary head-count for a fraction of the overlay.
fn adversary_count(params: &ExtKParams, fraction: f64) -> usize {
    assert!((0.0..0.5).contains(&fraction), "adversary fraction out of range: {fraction}");
    (params.nodes as f64 * fraction).round() as usize
}

/// The per-node seed for a corrupted node's private adversary stream.
fn adversary_seed(cell_seed: u64, addr: Addr) -> u64 {
    cell_seed.wrapping_add(addr.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs one cell of the sweep.
pub fn run_extk_cell(
    system: DhtSystem,
    params: &ExtKParams,
    fraction: f64,
    cell_seed: u64,
) -> ExtKCell {
    fn verdi<V: Variant<Overlay = VermeNode<P>>, P: Payload + 'static>(
        params: &ExtKParams,
        cfg: DhtConfig,
        net: UniformLatency,
        fraction: f64,
        cell_seed: u64,
    ) -> ExtKCell {
        let layout = SectionLayout::with_sections(params.sections, 2);
        let ring = VermeStaticRing::generate(layout, params.nodes, cell_seed);
        let vcfg = VermeConfig::new(layout);
        let (rt, addrs, _) =
            verme_ring(&ring, net, cell_seed, &vcfg, |o| DhtEngine::<V>::new(o, cfg.clone()));
        let order = verme_adversary_order(&ring, &addrs, cell_seed);
        let corrupt = |n: &mut DhtEngine<V>, b| n.overlay_mut().set_behaviour(b);
        drive_cell(rt, addrs, order, corrupt, params, fraction, cell_seed)
    }
    let cfg = defended_config(system, params);
    let net = UniformLatency::new(params.nodes, HOP);
    match system {
        DhtSystem::Dhash => {
            let ring = StaticRing::random(params.nodes, cell_seed);
            let (rt, addrs) = chord_ring(&ring, net, cell_seed, &ChordConfig::default(), |o| {
                DhashNode::new(o, cfg.clone())
            });
            let order = chord_adversary_order(&ring, &addrs, cell_seed);
            let corrupt = |n: &mut DhashNode, b| n.overlay_mut().set_behaviour(b);
            drive_cell(rt, addrs, order, corrupt, params, fraction, cell_seed)
        }
        DhtSystem::FastVerDi => verdi::<Fast, _>(params, cfg, net, fraction, cell_seed),
        DhtSystem::SecureVerDi => verdi::<Secure, _>(params, cfg, net, fraction, cell_seed),
        DhtSystem::CompromiseVerDi => verdi::<Compromise, _>(params, cfg, net, fraction, cell_seed),
    }
}

/// The shared cell ([`drive_dht_cell`]) with the adversary's binding:
/// the first `fraction` of the eclipse `order` is flipped Byzantine
/// (through `corrupt`, which installs a behaviour on one node) when the
/// window opens, selectors read that order, and gets come from honest
/// nodes only.
fn drive_cell<N: DhtNode>(
    rt: Runtime<N, UniformLatency>,
    addrs: Vec<Addr>,
    order: Vec<Addr>,
    corrupt: impl Fn(&mut N, Box<dyn Behaviour>) + 'static,
    params: &ExtKParams,
    fraction: f64,
    cell_seed: u64,
) -> ExtKCell {
    let adversaries: Vec<Addr> =
        order.iter().copied().take(adversary_count(params, fraction)).collect();
    // An `…+churn` attack suffix additionally schedules adversarial
    // churn timed against the repair plane: small kill bursts of the
    // honest nodes nearest the victim section, phased just after each
    // repair-round boundary so the holes sit unrepaired for nearly a
    // full interval.
    let (attack, phased_kills) = match params.attack.strip_suffix("+churn") {
        Some(prefix) => (prefix.to_string(), !adversaries.is_empty()),
        None => (params.attack.clone(), false),
    };
    let attack_name = attack.clone();
    let hooks: FaultHooks<N, UniformLatency> = FaultHooks {
        select_victims: ordered_selector(order),
        corrupt: Box::new(move |rt, attack, targets| {
            debug_assert_eq!(attack, attack_name);
            for &a in targets {
                let cfg = attack_config(attack, adversary_seed(cell_seed, a));
                let node = rt.node_mut(a).expect("corrupt targets are alive");
                corrupt(node, Box::new(Byzantine::new(cfg)));
            }
        }),
        ..FaultHooks::inert()
    };
    let cell = DhtCell {
        nodes: params.nodes,
        sections: params.sections,
        block_size: params.block_size,
        blocks: params.blocks,
        gets: params.gets,
        window: params.window,
    };
    let plan = |start| {
        let mut plan = FaultPlan::new();
        if !adversaries.is_empty() {
            plan = plan.with(Fault::Byzantine {
                at: start,
                selector: format!("eclipse:{}", adversaries.len()),
                attack,
            });
        }
        if phased_kills {
            let interval = DhtConfig::default().repair_interval;
            let rounds = (params.window.as_nanos() / interval.as_nanos().max(1)).min(4) as u32;
            plan = plan.with_repair_phased_kills(
                start + interval,
                interval,
                SimDuration::from_secs(2),
                rounds,
                &format!("eclipse-skip:{}:1", adversaries.len()),
            );
        }
        plan
    };
    let honest: Vec<Addr> = addrs.iter().copied().filter(|a| !adversaries.contains(a)).collect();
    let out = drive_dht_cell(rt, addrs, hooks, &cell, cell_seed, plan, |rt, _, rng| {
        // Redraw until the issuer is alive — a no-op draw-for-draw unless
        // a `+churn` attack has eroded the honest population.
        loop {
            let candidate = honest[rng.gen_range(0..honest.len())];
            if rt.is_alive(candidate) {
                break Some(candidate);
            }
        }
    });
    ExtKCell {
        adversaries: out.count(fault_keys::BYZANTINE),
        issued: out.issued,
        completed: out.count(verme_dht::keys::GET_COMPLETED),
        hijacked: out.count(verme_dht::keys::LOOKUPS_HIJACKED),
        poisoned: out.count(verme_chord::keys::RING_POISONED),
        suspect_reroutes: out.count(verme_dht::keys::SUSPECT_REROUTES),
    }
}

/// One row of the sweep: a variant measured at every adversary fraction,
/// in the order given by `params.adversary_fractions`.
#[derive(Clone, Debug)]
pub struct ExtKRow {
    /// Variant under test.
    pub system: DhtSystem,
    /// One pooled cell per swept fraction.
    pub cells: Vec<(f64, ExtKCell)>,
}

impl ExtKRow {
    /// The pooled cell at a given fraction, if swept.
    pub fn at(&self, fraction: f64) -> Option<&ExtKCell> {
        self.cells.iter().find(|(f, _)| (*f - fraction).abs() < 1e-9).map(|(_, c)| c)
    }
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
        jobs.iter().zip(&cells).map(|(&(_, (_, f)), reps)| (f, pooled(reps, ExtKCell::merge)));
    let mut row = || pooled_cells.by_ref().take(fractions.len()).collect();
    DhtSystem::ALL.iter().map(|&system| ExtKRow { system, cells: row() }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExtKParams {
        ExtKParams {
            nodes: 64,
            sections: 8,
            block_size: 256,
            blocks: 8,
            gets: 24,
            adversary_fractions: vec![0.0, 0.25],
            attack: "mixed".into(),
            fanout: 2,
            window: SimDuration::from_mins(2),
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
        assert_eq!(quiet.adversaries, 0);
        assert_eq!(quiet.hijacked, 0, "no hijack detections without adversaries");
        assert_eq!(quiet.poisoned, 0, "no poison rejections without adversaries");
        assert!(loud.adversaries > 0, "the Byzantine fault must fire");
        assert!(
            loud.failed_fraction() > quiet.failed_fraction(),
            "adversaries must degrade gets: loud {:?} quiet {:?}",
            loud,
            quiet
        );
        assert!(loud.hijacked + loud.poisoned > 0, "attacks must trip a detector: {loud:?}");
    }

    /// The `+churn` attack suffix — adversarial churn timed against the
    /// repair cadence — runs deterministically and still flips the
    /// Byzantine cluster alongside the phased kill bursts.
    #[test]
    fn extk_repair_phased_churn_is_deterministic() {
        let mut params = tiny();
        params.attack = "mixed+churn".into();
        let a = run_extk_cell(DhtSystem::FastVerDi, &params, 0.25, 13);
        let b = run_extk_cell(DhtSystem::FastVerDi, &params, 0.25, 13);
        assert_eq!(a, b, "phased-churn cell must replay identically");
        assert!(a.adversaries > 0, "the Byzantine flip must still fire");
        assert_eq!(a.issued, params.gets as u64, "every get finds a live issuer");
        let plain = run_extk_cell(DhtSystem::FastVerDi, &tiny(), 0.25, 13);
        assert_ne!(a, plain, "phased kills must actually change the run");
    }
}
