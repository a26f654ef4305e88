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

use bytes::Bytes;
use rand::Rng;

use verme_chord::{Byzantine, ByzantineConfig, ChordConfig, Id, NodeHandle, StaticRing};
use verme_core::{Payload, SectionLayout, VermeConfig, VermeNode, VermeStaticRing};
use verme_crypto::CertificateAuthority;
use verme_dht::{Compromise, DhashNode, DhtConfig, DhtEngine, DhtNode, Fast, Secure, Variant};
use verme_sim::fault::{keys as fault_keys, Fault, FaultHooks, FaultPlan, FaultRunner};
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, HostId, Runtime, SeedSource, SimDuration, SimTime};

/// Per-hop one-way latency of the uniform network.
const HOP: SimDuration = SimDuration::from_millis(20);

/// The four variants compared.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ExtKSystem {
    /// DHash over Chord.
    Dhash,
    /// Fast-VerDi over Verme.
    FastVerDi,
    /// Secure-VerDi over Verme (certified lookups + redundant paths).
    SecureVerDi,
    /// Compromise-VerDi over Verme (relayed one-hop operations).
    CompromiseVerDi,
}

impl ExtKSystem {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            ExtKSystem::Dhash => "DHash/Chord",
            ExtKSystem::FastVerDi => "Fast-VerDi",
            ExtKSystem::SecureVerDi => "Secure-VerDi",
            ExtKSystem::CompromiseVerDi => "Compromise-VerDi",
        }
    }

    /// All four variants, baseline first.
    pub const ALL: [ExtKSystem; 4] = [
        ExtKSystem::Dhash,
        ExtKSystem::FastVerDi,
        ExtKSystem::SecureVerDi,
        ExtKSystem::CompromiseVerDi,
    ];
}

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
fn defended_config(system: ExtKSystem, params: &ExtKParams) -> DhtConfig {
    DhtConfig {
        hop_suspicion: true,
        lookup_fanout: if system == ExtKSystem::SecureVerDi { params.fanout.max(1) } else { 1 },
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

/// Interprets the `"eclipse:N"` selector: the first `N` still-live
/// positions of the precomputed eclipse ordering.
fn eclipse_selector<N, L>(
    order: Vec<Addr>,
) -> impl FnMut(&Runtime<N, L>, &str, &[Addr]) -> Vec<Addr>
where
    N: verme_sim::Node,
    L: verme_sim::LatencyModel,
{
    move |_rt, selector, population| {
        if let Some(rest) = selector.strip_prefix("eclipse-skip:") {
            // `eclipse-skip:S:N` — skip the first S of the eclipse order
            // (the adversary cluster itself), then take the next N still
            // alive: the honest nodes nearest the victim section, eroded
            // progressively across repeated kill bursts.
            let (skip, take) = rest.split_once(':').expect("eclipse-skip:S:N selector");
            let skip: usize = skip.parse().expect("eclipse-skip skip count");
            let take: usize = take.parse().expect("eclipse-skip take count");
            return order
                .iter()
                .copied()
                .skip(skip)
                .filter(|a| population.contains(a))
                .take(take)
                .collect();
        }
        let n: usize = selector
            .strip_prefix("eclipse:")
            .and_then(|s| s.parse().ok())
            .expect("extK uses eclipse:N selectors");
        order.iter().copied().filter(|a| population.contains(a)).take(n).collect()
    }
}

/// Runs one cell of the sweep.
pub fn run_extk_cell(
    system: ExtKSystem,
    params: &ExtKParams,
    fraction: f64,
    cell_seed: u64,
) -> ExtKCell {
    match system {
        ExtKSystem::Dhash => run_dhash_cell(params, fraction, cell_seed),
        ExtKSystem::FastVerDi => run_verme_cell::<Fast, _>(system, params, fraction, cell_seed),
        ExtKSystem::SecureVerDi => run_verme_cell::<Secure, _>(system, params, fraction, cell_seed),
        ExtKSystem::CompromiseVerDi => {
            run_verme_cell::<Compromise, _>(system, params, fraction, cell_seed)
        }
    }
}

fn run_dhash_cell(params: &ExtKParams, fraction: f64, cell_seed: u64) -> ExtKCell {
    let cfg = defended_config(ExtKSystem::Dhash, params);
    let mut rng = SeedSource::new(cell_seed).stream("ids");
    let handles: Vec<NodeHandle> = (0..params.nodes)
        .map(|i| NodeHandle::new(Id::random(&mut rng), Addr::from_raw(i as u64 + 1)))
        .collect();
    let ring = StaticRing::new(handles);
    let mut rt = Runtime::new(UniformLatency::new(params.nodes, HOP), cell_seed);
    let mut by_addr: Vec<(u64, usize)> =
        (0..params.nodes).map(|i| (ring.node(i).addr.raw(), i)).collect();
    by_addr.sort_unstable();
    let mut addrs = vec![Addr::NULL; params.nodes];
    for (raw, pos) in by_addr {
        let node = DhashNode::new(ring.build_node(pos, ChordConfig::default()), cfg.clone());
        addrs[pos] = rt.spawn(HostId(raw as usize - 1), node);
    }

    let order = chord_adversary_order(&ring, &addrs, cell_seed);
    let adversaries: Vec<Addr> =
        order.iter().copied().take(adversary_count(params, fraction)).collect();
    let attack_name = params.attack.strip_suffix("+churn").unwrap_or(&params.attack).to_string();
    let hooks: FaultHooks<DhashNode, UniformLatency> = FaultHooks {
        join: Box::new(|_, _| None),
        select_victims: Box::new(eclipse_selector(order)),
        ring_converged: Box::new(|_| true),
        corrupt: Box::new(move |rt, attack, targets| {
            debug_assert_eq!(attack, attack_name);
            for &a in targets {
                let cfg = attack_config(attack, adversary_seed(cell_seed, a));
                rt.node_mut(a)
                    .expect("corrupt targets are alive")
                    .overlay_mut()
                    .set_behaviour(Box::new(Byzantine::new(cfg)));
            }
        }),
        restart: Box::new(|_, _, _, _, _| None),
    };
    drive_cell(rt, addrs, adversaries, hooks, params, cell_seed)
}

fn run_verme_cell<V, P>(
    system: ExtKSystem,
    params: &ExtKParams,
    fraction: f64,
    cell_seed: u64,
) -> ExtKCell
where
    V: Variant<Overlay = VermeNode<P>>,
    P: Payload + 'static,
{
    let cfg = defended_config(system, params);
    let layout = SectionLayout::with_sections(params.sections, 2);
    let ring = VermeStaticRing::generate(layout, params.nodes, cell_seed);
    let mut ca = CertificateAuthority::new(cell_seed);
    let mut rt = Runtime::new(UniformLatency::new(params.nodes, HOP), cell_seed);
    let mut addrs = Vec::with_capacity(params.nodes);
    for i in 0..params.nodes {
        let overlay = ring.build_node(i, VermeConfig::new(layout), &mut ca);
        addrs.push(rt.spawn(HostId(i), DhtEngine::<V>::new(overlay, cfg.clone())));
    }

    let order = verme_adversary_order(&ring, &addrs, cell_seed);
    let adversaries: Vec<Addr> =
        order.iter().copied().take(adversary_count(params, fraction)).collect();
    let attack_name = params.attack.strip_suffix("+churn").unwrap_or(&params.attack).to_string();
    let hooks: FaultHooks<DhtEngine<V>, UniformLatency> = FaultHooks {
        join: Box::new(|_, _| None),
        select_victims: Box::new(eclipse_selector(order)),
        ring_converged: Box::new(|_| true),
        corrupt: Box::new(move |rt, attack, targets| {
            debug_assert_eq!(attack, attack_name);
            for &a in targets {
                let cfg = attack_config(attack, adversary_seed(cell_seed, a));
                rt.node_mut(a)
                    .expect("corrupt targets are alive")
                    .overlay_mut()
                    .set_behaviour(Box::new(Byzantine::new(cfg)));
            }
        }),
        restart: Box::new(|_, _, _, _, _| None),
    };
    drive_cell(rt, addrs, adversaries, hooks, params, cell_seed)
}

/// The shared schedule: settle, seed blocks fault-free, flip the
/// adversaries, issue gets from honest nodes across the window, drain,
/// then read the counters.
fn drive_cell<N: DhtNode>(
    mut rt: Runtime<N, UniformLatency>,
    addrs: Vec<Addr>,
    adversaries: Vec<Addr>,
    hooks: FaultHooks<N, UniformLatency>,
    params: &ExtKParams,
    cell_seed: u64,
) -> ExtKCell {
    let mut rng = SeedSource::new(cell_seed).stream("workload");
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(5));

    // Seed the blocks while the overlay is still honest.
    let mut seeded: Vec<Id> = Vec::with_capacity(params.blocks);
    for blkno in 0..params.blocks {
        let who = addrs[rng.gen_range(0..addrs.len())];
        let mut value = vec![0u8; params.block_size];
        value[..8].copy_from_slice(&(blkno as u64).to_le_bytes());
        let value = Bytes::from(value);
        let key = verme_dht::block_key(&value);
        rt.invoke(who, |n, ctx| n.start_put(value, ctx)).expect("alive");
        rt.run_until(rt.now() + SimDuration::from_secs(5));
        let outs = rt.node_mut(who).expect("alive").take_op_outcomes();
        if outs.iter().any(|o| o.ok) {
            seeded.push(key);
        }
    }
    assert!(!seeded.is_empty(), "no block survived honest seeding");

    // Everything after this snapshot is attributed to the adversaries.
    let baseline = rt.metrics().counter_snapshot();

    let start = rt.now() + SimDuration::from_secs(5);
    // An `…+churn` attack suffix additionally schedules adversarial
    // churn timed against the repair plane: small kill bursts of the
    // honest nodes nearest the victim section, phased just after each
    // repair-round boundary so the holes sit unrepaired for nearly a
    // full interval.
    let (attack, phased_kills) = match params.attack.strip_suffix("+churn") {
        Some(prefix) => (prefix.to_string(), !adversaries.is_empty()),
        None => (params.attack.clone(), false),
    };
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
    let mut runner = FaultRunner::new(plan, hooks, SeedSource::new(cell_seed), addrs.clone())
        .expect("valid extK plan");

    let honest: Vec<Addr> = addrs.iter().copied().filter(|a| !adversaries.contains(a)).collect();
    let window = params.window;
    let mut issued = 0u64;
    for i in 0..params.gets {
        let at = start + window / params.gets as u64 * i as u64;
        runner.run_until(&mut rt, at);
        // Redraw until the issuer is alive — a no-op draw-for-draw unless
        // a `+churn` attack has eroded the honest population.
        let who = loop {
            let candidate = honest[rng.gen_range(0..honest.len())];
            if rt.is_alive(candidate) {
                break candidate;
            }
        };
        let key = seeded[rng.gen_range(0..seeded.len())];
        rt.invoke(who, |n, ctx| n.start_get(key, ctx)).expect("alive");
        issued += 1;
    }
    // Drain: let retries, deadlines and suspicion reroutes resolve.
    runner.run_until(&mut rt, start + window + SimDuration::from_secs(120));

    let delta = rt.metrics().counter_delta(&baseline);
    let get = |key: &str| delta.get(key).copied().unwrap_or(0);

    ExtKCell {
        adversaries: get(fault_keys::BYZANTINE),
        issued,
        completed: get(verme_dht::keys::GET_COMPLETED),
        hijacked: get(verme_dht::keys::LOOKUPS_HIJACKED),
        poisoned: get(verme_chord::keys::RING_POISONED),
        suspect_reroutes: get(verme_dht::keys::SUSPECT_REROUTES),
    }
}

/// One row of the sweep: a variant measured at every adversary fraction,
/// in the order given by `params.adversary_fractions`.
#[derive(Clone, Debug)]
pub struct ExtKRow {
    /// Variant under test.
    pub system: ExtKSystem,
    /// One pooled cell per swept fraction.
    pub cells: Vec<(f64, ExtKCell)>,
}

impl ExtKRow {
    /// The pooled cell at a given fraction, if swept.
    pub fn at(&self, fraction: f64) -> Option<&ExtKCell> {
        self.cells.iter().find(|(f, _)| (*f - fraction).abs() < 1e-9).map(|(_, c)| c)
    }
}

/// Runs the full sweep. Cells execute on worker threads, but every result
/// lands in its pre-assigned slot and rows come back in fixed sweep
/// order, so the output is independent of thread scheduling.
pub fn run_extk(params: &ExtKParams) -> Vec<ExtKRow> {
    struct Job {
        slot: usize,
        system: ExtKSystem,
        fraction: f64,
        cell_seed: u64,
    }
    let reps = params.reps.max(1);
    let fractions = params.adversary_fractions.clone();
    let mut jobs = Vec::new();
    let mut settings = Vec::new();
    for &system in &ExtKSystem::ALL {
        for &fraction in &fractions {
            settings.push((system, fraction));
            for rep in 0..reps {
                let slot = jobs.len();
                let cell_seed = params
                    .seed
                    .wrapping_add(settings.len() as u64 * 7919)
                    .wrapping_add(rep * 15_485_863);
                jobs.push(Job { slot, system, fraction, cell_seed });
            }
        }
    }

    let mut slots: Vec<Option<ExtKCell>> = vec![None; jobs.len()];
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8);
    let (job_tx, job_rx) = crossbeam::channel::unbounded::<Job>();
    let (res_tx, res_rx) = crossbeam::channel::unbounded::<(usize, ExtKCell)>();
    for job in jobs {
        job_tx.send(job).expect("queueing extK jobs");
    }
    drop(job_tx);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let job_rx = job_rx.clone();
            let res_tx = res_tx.clone();
            scope.spawn(move || {
                while let Ok(j) = job_rx.recv() {
                    let cell = run_extk_cell(j.system, params, j.fraction, j.cell_seed);
                    res_tx.send((j.slot, cell)).expect("returning extK result");
                }
            });
        }
        drop(res_tx);
        for (slot, cell) in res_rx.iter() {
            slots[slot] = Some(cell);
        }
    });

    // Pool each fraction's reps in fixed slot order.
    let per_system = fractions.len() * reps as usize;
    ExtKSystem::ALL
        .iter()
        .enumerate()
        .map(|(si, &system)| ExtKRow {
            system,
            cells: fractions
                .iter()
                .enumerate()
                .map(|(fi, &fraction)| {
                    let mut acc = ExtKCell::default();
                    let first = per_system * si + fi * reps as usize;
                    for slot in slots.iter_mut().skip(first).take(reps as usize) {
                        acc.merge(&slot.take().expect("cell computed"));
                    }
                    (fraction, acc)
                })
                .collect(),
        })
        .collect()
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
        for &system in &[ExtKSystem::FastVerDi, ExtKSystem::SecureVerDi] {
            let a = run_extk_cell(system, &params, 0.25, 13);
            let b = run_extk_cell(system, &params, 0.25, 13);
            assert_eq!(a, b, "same seed must reproduce the {} cell exactly", system.label());
        }
    }

    #[test]
    fn extk_adversaries_degrade_lookups_and_trip_detectors() {
        let params = tiny();
        let quiet = run_extk_cell(ExtKSystem::FastVerDi, &params, 0.0, 13);
        let loud = run_extk_cell(ExtKSystem::FastVerDi, &params, 0.25, 13);
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
        let a = run_extk_cell(ExtKSystem::FastVerDi, &params, 0.25, 13);
        let b = run_extk_cell(ExtKSystem::FastVerDi, &params, 0.25, 13);
        assert_eq!(a, b, "phased-churn cell must replay identically");
        assert!(a.adversaries > 0, "the Byzantine flip must still fire");
        assert_eq!(a.issued, params.gets as u64, "every get finds a live issuer");
        let plain = run_extk_cell(ExtKSystem::FastVerDi, &tiny(), 0.25, 13);
        assert_ne!(a, plain, "phased kills must actually change the run");
    }
}
