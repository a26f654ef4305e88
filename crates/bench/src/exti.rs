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

use bytes::Bytes;
use rand::Rng;

use verme_chord::{ring_converged, ChordConfig, ChordNode, Id, NodeHandle, StaticRing};
use verme_core::{SectionLayout, VermeConfig, VermeNode, VermeStaticRing};
use verme_crypto::{CertificateAuthority, NodeType};
use verme_dht::{DhashNode, DhtConfig, DhtNode, DurabilityCensus, FastVerDiNode};
use verme_sim::fault::{keys as fault_keys, Fault, FaultHooks, FaultPlan, FaultRunner};
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, HostId, Runtime, SeedSource, SimDuration, SimTime};

/// Per-hop one-way latency of the uniform network.
const HOP: SimDuration = SimDuration::from_millis(20);

/// Census bar: a block is *under-replicated* below this many live
/// holders and *lost* at zero.
pub const CENSUS_TARGET: usize = 2;

/// The two systems compared.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ExtISystem {
    /// DHash over Chord.
    Dhash,
    /// Fast-VerDi over Verme.
    FastVerDi,
}

impl ExtISystem {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            ExtISystem::Dhash => "DHash/Chord",
            ExtISystem::FastVerDi => "Fast-VerDi/Verme",
        }
    }

    /// Both systems, baseline first.
    pub const ALL: [ExtISystem; 2] = [ExtISystem::Dhash, ExtISystem::FastVerDi];
}

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

/// Runs one cell of the sweep.
pub fn run_exti_cell(
    system: ExtISystem,
    params: &ExtIParams,
    churn_rate: f64,
    arm: RepairArm,
    cell_seed: u64,
) -> ExtICell {
    match system {
        ExtISystem::Dhash => run_dhash_cell(params, churn_rate, arm, cell_seed),
        ExtISystem::FastVerDi => run_fast_cell(params, churn_rate, arm, cell_seed),
    }
}

fn run_dhash_cell(
    params: &ExtIParams,
    churn_rate: f64,
    arm: RepairArm,
    cell_seed: u64,
) -> ExtICell {
    let cfg = arm_config(arm, params.stabilize_interval);
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

    let chord_cfg = ChordConfig::default();
    let mut join_rng = SeedSource::new(cell_seed).stream("joins");
    let boot_candidates = addrs.clone();
    let join_cfg = cfg.clone();
    let hooks: FaultHooks<DhashNode, UniformLatency> = FaultHooks {
        join: Box::new(move |rt, _rng| {
            let live: Vec<Addr> =
                boot_candidates.iter().copied().filter(|&a| rt.is_alive(a)).collect();
            let bootstrap = *live.get(join_rng.gen_range(0..live.len().max(1)))?;
            let id = Id::random(&mut join_rng);
            let node = DhashNode::new(
                ChordNode::joining(id, chord_cfg.clone(), bootstrap),
                join_cfg.clone(),
            );
            Some(rt.spawn(HostId(0), node))
        }),
        select_victims: Box::new(arc_selector(addrs.clone())),
        ring_converged: Box::new(ring_converged),
        corrupt: Box::new(|_, _, _| {}),
        restart: Box::new(|_, _, _, _, _| None),
    };

    drive_cell(rt, addrs, hooks, params, churn_rate, cell_seed)
}

fn run_fast_cell(params: &ExtIParams, churn_rate: f64, arm: RepairArm, cell_seed: u64) -> ExtICell {
    let cfg = arm_config(arm, params.stabilize_interval);
    let layout = SectionLayout::with_sections(params.sections, 2);
    let ring = VermeStaticRing::generate(layout, params.nodes, cell_seed);
    let mut ca = CertificateAuthority::new(cell_seed);
    let mut rt = Runtime::new(UniformLatency::new(params.nodes, HOP), cell_seed);
    let mut addrs = Vec::with_capacity(params.nodes);
    for i in 0..params.nodes {
        let overlay = ring.build_node(i, VermeConfig::new(layout), &mut ca);
        addrs.push(rt.spawn(HostId(i), FastVerDiNode::new(overlay, cfg.clone())));
    }

    let mut join_rng = SeedSource::new(cell_seed).stream("joins");
    let boot_candidates = addrs.clone();
    let join_cfg = cfg.clone();
    let hooks: FaultHooks<FastVerDiNode, UniformLatency> = FaultHooks {
        join: Box::new(move |rt, _rng| {
            let live: Vec<Addr> =
                boot_candidates.iter().copied().filter(|&a| rt.is_alive(a)).collect();
            let bootstrap = *live.get(join_rng.gen_range(0..live.len().max(1)))?;
            let ty = if join_rng.gen::<bool>() { NodeType::A } else { NodeType::B };
            let id = layout.assign_id(&mut join_rng, ty);
            let (cert, keys) = ca.issue(id.raw(), ty);
            let overlay =
                VermeNode::joining(VermeConfig::new(layout), cert, keys, ca.verifier(), bootstrap);
            Some(rt.spawn(HostId(0), FastVerDiNode::new(overlay, join_cfg.clone())))
        }),
        select_victims: Box::new(arc_selector(addrs.clone())),
        ring_converged: Box::new(ring_converged),
        corrupt: Box::new(|_, _, _| {}),
        restart: Box::new(|_, _, _, _, _| None),
    };

    drive_cell(rt, addrs, hooks, params, churn_rate, cell_seed)
}

/// Interprets a `"arc:N"` selector exactly as extG does: the first `N`
/// still-live nodes of the original ring, in ring order.
fn arc_selector<N, L>(
    ring_order: Vec<Addr>,
) -> impl FnMut(&Runtime<N, L>, &str, &[Addr]) -> Vec<Addr>
where
    N: verme_sim::Node,
    L: verme_sim::LatencyModel,
{
    move |_rt, selector, population| {
        let n: usize = selector
            .strip_prefix("arc:")
            .and_then(|s| s.parse().ok())
            .expect("extI uses arc:N selectors");
        ring_order.iter().copied().filter(|a| population.contains(a)).take(n).collect()
    }
}

/// The shared schedule: settle, seed blocks, run the churn script while
/// issuing gets, drain, then take the durability census over the
/// survivors' block stores.
fn drive_cell<N: DhtNode>(
    mut rt: Runtime<N, UniformLatency>,
    addrs: Vec<Addr>,
    hooks: FaultHooks<N, UniformLatency>,
    params: &ExtIParams,
    churn_rate: f64,
    cell_seed: u64,
) -> ExtICell {
    let mut rng = SeedSource::new(cell_seed).stream("workload");
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(5));

    // Seed the blocks while the overlay is still fault-free.
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
    assert!(!seeded.is_empty(), "no block survived fault-free seeding");

    // Everything after this snapshot is attributed to the fault window.
    let baseline = rt.metrics().counter_snapshot();

    let start = rt.now() + SimDuration::from_secs(5);
    let window = params.window;
    let plan = FaultPlan::new()
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
        });
    let mut runner = FaultRunner::new(plan, hooks, SeedSource::new(cell_seed), addrs.clone())
        .expect("valid extI plan");

    // Gets spread evenly across the window — these drive read-repair.
    let mut issued = 0u64;
    for i in 0..params.gets {
        let at = start + window / params.gets as u64 * i as u64;
        runner.run_until(&mut rt, at);
        let live: Vec<Addr> = addrs.iter().copied().filter(|&a| rt.is_alive(a)).collect();
        if live.is_empty() {
            break;
        }
        let who = live[rng.gen_range(0..live.len())];
        let key = seeded[rng.gen_range(0..seeded.len())];
        rt.invoke(who, |n, ctx| n.start_get(key, ctx)).expect("alive");
        issued += 1;
    }
    // Drain: let in-flight operations resolve and the repair plane
    // finish whatever the last departures kicked off.
    runner.run_until(&mut rt, start + window + SimDuration::from_secs(120));

    let delta = rt.metrics().counter_delta(&baseline);
    let get = |key: &str| delta.get(key).copied().unwrap_or(0);

    // The census is order-independent (per-key holder counts), so the
    // unsorted alive_addrs() iteration is safe.
    let live: Vec<Addr> = rt.alive_addrs().collect();
    let stores: Vec<_> = live.iter().map(|&a| rt.node(a).expect("alive").store()).collect();
    let census = DurabilityCensus::take(seeded.iter().copied(), stores, CENSUS_TARGET);

    ExtICell {
        keys: census.keys as u64,
        lost: census.lost as u64,
        under_replicated: census.under_replicated as u64,
        issued,
        completed: get(verme_dht::keys::GET_COMPLETED),
        repair_rounds: get(verme_dht::keys::REPAIR_ROUNDS),
        repair_pushed: get(verme_dht::keys::REPAIR_PUSHED),
        read_repairs: get(verme_dht::keys::READ_REPAIR),
        handoff_blocks: get(verme_dht::keys::HANDOFF_BLOCKS),
        joins: get(fault_keys::JOIN),
        departures: get(fault_keys::LEAVE_CRASH)
            + get(fault_keys::LEAVE_GRACEFUL)
            + get(fault_keys::BURST_KILL),
    }
}

/// One row of the sweep: a `(system, churn)` setting measured under every
/// repair arm, in the order given by `params.repair_arms`.
#[derive(Clone, Debug)]
pub struct ExtIRow {
    /// System under test.
    pub system: ExtISystem,
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

/// Runs the full sweep. Cells execute on worker threads, but every result
/// lands in its pre-assigned slot and rows come back in fixed sweep
/// order, so the output is independent of thread scheduling.
pub fn run_exti(params: &ExtIParams) -> Vec<ExtIRow> {
    struct Job {
        slot: usize,
        system: ExtISystem,
        churn_rate: f64,
        arm: RepairArm,
        cell_seed: u64,
    }
    let reps = params.reps.max(1);
    let arms = params.repair_arms.clone();
    let mut jobs = Vec::new();
    let mut settings = Vec::new();
    for &system in &ExtISystem::ALL {
        for &churn_rate in &params.churn_rates {
            settings.push((system, churn_rate));
            for &arm in &arms {
                for rep in 0..reps {
                    let slot = jobs.len();
                    // The seed depends on the setting and rep but not the
                    // arm: all repair arms of a rep face the same fault
                    // script.
                    let cell_seed = params
                        .seed
                        .wrapping_add(settings.len() as u64 * 7919)
                        .wrapping_add(rep * 15_485_863);
                    jobs.push(Job { slot, system, churn_rate, arm, cell_seed });
                }
            }
        }
    }

    let mut slots: Vec<Option<ExtICell>> = vec![None; jobs.len()];
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8);
    let (job_tx, job_rx) = crossbeam::channel::unbounded::<Job>();
    let (res_tx, res_rx) = crossbeam::channel::unbounded::<(usize, ExtICell)>();
    for job in jobs {
        job_tx.send(job).expect("queueing extI jobs");
    }
    drop(job_tx);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let job_rx = job_rx.clone();
            let res_tx = res_tx.clone();
            scope.spawn(move || {
                while let Ok(j) = job_rx.recv() {
                    let cell = run_exti_cell(j.system, params, j.churn_rate, j.arm, j.cell_seed);
                    res_tx.send((j.slot, cell)).expect("returning extI result");
                }
            });
        }
        drop(res_tx);
        for (slot, cell) in res_rx.iter() {
            slots[slot] = Some(cell);
        }
    });

    // Pool each arm's reps in fixed slot order.
    let per_setting = arms.len() * reps as usize;
    settings
        .into_iter()
        .enumerate()
        .map(|(i, (system, churn_rate))| ExtIRow {
            system,
            churn_rate,
            arms: arms
                .iter()
                .enumerate()
                .map(|(ai, &arm)| {
                    let mut acc = ExtICell::default();
                    let first = per_setting * i + ai * reps as usize;
                    for slot in slots.iter_mut().skip(first).take(reps as usize) {
                        acc.merge(&slot.take().expect("cell computed"));
                    }
                    (arm, acc)
                })
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
        let off = run_exti_cell(ExtISystem::Dhash, &params, 0.5, RepairArm::Off, 11);
        let on = run_exti_cell(
            ExtISystem::Dhash,
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
        let a = run_exti_cell(ExtISystem::FastVerDi, &params, 0.5, arm, 11);
        let b = run_exti_cell(ExtISystem::FastVerDi, &params, 0.5, arm, 11);
        assert_eq!(a, b, "same seed must reproduce the cell exactly");
    }
}
