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
//! master seed and the cell index; per-cell results are written into
//! pre-indexed slots and the table is rendered in fixed sweep order, so two
//! runs with the same seed produce byte-identical output regardless of how
//! the worker threads interleave.

use bytes::Bytes;
use rand::Rng;

use verme_chord::{ring_converged, ChordConfig, ChordNode, Id, NodeHandle, StaticRing};
use verme_core::{SectionLayout, VermeConfig, VermeNode, VermeStaticRing};
use verme_crypto::{CertificateAuthority, NodeType};
use verme_dht::{DhashNode, DhtConfig, DhtNode, FastVerDiNode};
use verme_sim::fault::{keys as fault_keys, Fault, FaultHooks, FaultPlan, FaultRunner};
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, HostId, Runtime, SeedSource, SimDuration, SimTime};

/// Per-hop one-way latency of the uniform network.
const HOP: SimDuration = SimDuration::from_millis(20);

/// The two systems compared: the baseline and the paper's fast variant.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ExtGSystem {
    /// DHash over Chord.
    Dhash,
    /// Fast-VerDi over Verme.
    FastVerDi,
}

impl ExtGSystem {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            ExtGSystem::Dhash => "DHash/Chord",
            ExtGSystem::FastVerDi => "Fast-VerDi/Verme",
        }
    }

    /// Both systems, baseline first.
    pub const ALL: [ExtGSystem; 2] = [ExtGSystem::Dhash, ExtGSystem::FastVerDi];
}

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

/// Runs one cell of the sweep.
pub fn run_extg_cell(
    system: ExtGSystem,
    params: &ExtGParams,
    churn_rate: f64,
    burst_size: usize,
    max_retries: u32,
    cell_seed: u64,
) -> ExtGCell {
    match system {
        ExtGSystem::Dhash => run_dhash_cell(params, churn_rate, burst_size, max_retries, cell_seed),
        ExtGSystem::FastVerDi => {
            run_fast_cell(params, churn_rate, burst_size, max_retries, cell_seed)
        }
    }
}

fn run_dhash_cell(
    params: &ExtGParams,
    churn_rate: f64,
    burst_size: usize,
    max_retries: u32,
    cell_seed: u64,
) -> ExtGCell {
    let cfg = DhtConfig { max_retries, ..DhtConfig::default() };
    let mut rng = SeedSource::new(cell_seed).stream("ids");
    let handles: Vec<NodeHandle> = (0..params.nodes)
        .map(|i| NodeHandle::new(Id::random(&mut rng), Addr::from_raw(i as u64 + 1)))
        .collect();
    let ring = StaticRing::new(handles);
    let mut rt = Runtime::new(UniformLatency::new(params.nodes, HOP), cell_seed);
    // Spawn in address order so addresses are assigned predictably, but
    // keep `addrs` indexed by ring position (ascending id) — that order is
    // both the deterministic churn population and the arc-selection order.
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

    drive_cell(rt, addrs, hooks, params, churn_rate, burst_size, cell_seed)
}

fn run_fast_cell(
    params: &ExtGParams,
    churn_rate: f64,
    burst_size: usize,
    max_retries: u32,
    cell_seed: u64,
) -> ExtGCell {
    let cfg = DhtConfig { max_retries, ..DhtConfig::default() };
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
            // Replacements alternate types to keep the split balanced.
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

    drive_cell(rt, addrs, hooks, params, churn_rate, burst_size, cell_seed)
}

/// Interprets a `"arc:N"` selector: the first `N` still-live nodes of the
/// original ring, in ring (ascending-id) order — a consecutive arc, the
/// worst case for successor-list repair.
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
            .expect("extG uses arc:N selectors");
        ring_order.iter().copied().filter(|a| population.contains(a)).take(n).collect()
    }
}

/// The shared schedule: settle, seed blocks, then run the fault script
/// while issuing gets spread evenly across the churn window.
fn drive_cell<N: DhtNode>(
    mut rt: Runtime<N, UniformLatency>,
    addrs: Vec<Addr>,
    hooks: FaultHooks<N, UniformLatency>,
    params: &ExtGParams,
    churn_rate: f64,
    burst_size: usize,
    cell_seed: u64,
) -> ExtGCell {
    let mut rng = SeedSource::new(cell_seed).stream("workload");
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(5));

    // Seed the blocks while the overlay is still fault-free.
    let mut keys: Vec<Id> = Vec::with_capacity(params.blocks);
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
            keys.push(key);
        }
    }
    assert!(!keys.is_empty(), "no block survived fault-free seeding");

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
            selector: format!("arc:{burst_size}"),
        })
        .with(Fault::LossBurst {
            at: start + window / 4,
            duration: window / 2,
            rate: params.loss_rate,
        });
    let mut runner = FaultRunner::new(plan, hooks, SeedSource::new(cell_seed), addrs.clone())
        .expect("valid extG plan");

    // Gets spread evenly across the window, each from a random live node
    // of the original population.
    let mut issued = 0u64;
    for i in 0..params.gets {
        let at = start + window / params.gets as u64 * i as u64;
        runner.run_until(&mut rt, at);
        let live: Vec<Addr> = addrs.iter().copied().filter(|&a| rt.is_alive(a)).collect();
        if live.is_empty() {
            break;
        }
        let who = live[rng.gen_range(0..live.len())];
        let key = keys[rng.gen_range(0..keys.len())];
        rt.invoke(who, |n, ctx| n.start_get(key, ctx)).expect("alive");
        issued += 1;
    }
    // Let in-flight operations resolve (the hard deadline is 30 s) and the
    // post-burst convergence poll conclude.
    runner.run_until(&mut rt, start + window + SimDuration::from_secs(120));

    let report = runner.into_report();
    let delta = rt.metrics().counter_delta(&baseline);
    let get = |key: &str| delta.get(key).copied().unwrap_or(0);
    ExtGCell {
        issued,
        completed: get(verme_dht::keys::GET_COMPLETED),
        failed: get(verme_dht::keys::OP_FAILED),
        retries: get(verme_dht::keys::OP_RETRIES),
        recovered: get(verme_dht::keys::OP_RECOVERED),
        joins: get(fault_keys::JOIN),
        departures: get(fault_keys::LEAVE_CRASH)
            + get(fault_keys::LEAVE_GRACEFUL)
            + get(fault_keys::BURST_KILL),
        reconverge_ms: report
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
    pub system: ExtGSystem,
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

/// Runs the full sweep. Cells execute on worker threads, but every result
/// lands in its pre-assigned slot and rows come back in fixed sweep order,
/// so the output is independent of thread scheduling.
pub fn run_extg(params: &ExtGParams) -> Vec<ExtGRow> {
    struct Job {
        slot: usize,
        system: ExtGSystem,
        churn_rate: f64,
        burst_size: usize,
        max_retries: u32,
        cell_seed: u64,
    }
    let reps = params.reps.max(1);
    let mut jobs = Vec::new();
    let mut settings = Vec::new();
    for &system in &ExtGSystem::ALL {
        for &churn_rate in &params.churn_rates {
            for &burst_size in &params.burst_sizes {
                settings.push((system, churn_rate, burst_size));
                for max_retries in [EXTG_RETRIES, 0] {
                    for rep in 0..reps {
                        let slot = jobs.len();
                        // The seed depends on the setting and rep but not
                        // the arm: both retry arms of a rep face the same
                        // fault script.
                        let cell_seed = params
                            .seed
                            .wrapping_add(settings.len() as u64 * 7919)
                            .wrapping_add(burst_size as u64 * 104_729)
                            .wrapping_add(rep * 15_485_863);
                        jobs.push(Job {
                            slot,
                            system,
                            churn_rate,
                            burst_size,
                            max_retries,
                            cell_seed,
                        });
                    }
                }
            }
        }
    }

    let mut slots: Vec<Option<ExtGCell>> = vec![None; jobs.len()];
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8);
    let (job_tx, job_rx) = crossbeam::channel::unbounded::<Job>();
    let (res_tx, res_rx) = crossbeam::channel::unbounded::<(usize, ExtGCell)>();
    for job in jobs {
        job_tx.send(job).expect("queueing extG jobs");
    }
    drop(job_tx);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let job_rx = job_rx.clone();
            let res_tx = res_tx.clone();
            scope.spawn(move || {
                while let Ok(j) = job_rx.recv() {
                    let cell = run_extg_cell(
                        j.system,
                        params,
                        j.churn_rate,
                        j.burst_size,
                        j.max_retries,
                        j.cell_seed,
                    );
                    res_tx.send((j.slot, cell)).expect("returning extG result");
                }
            });
        }
        drop(res_tx);
        for (slot, cell) in res_rx.iter() {
            slots[slot] = Some(cell);
        }
    });

    // Pool each arm's reps in fixed slot order.
    let pool = |slots: &mut [Option<ExtGCell>], first: usize| {
        let mut acc = ExtGCell::default();
        for slot in slots.iter_mut().skip(first).take(reps as usize) {
            acc.merge(&slot.take().expect("cell computed"));
        }
        acc
    };
    let per_setting = 2 * reps as usize;
    settings
        .into_iter()
        .enumerate()
        .map(|(i, (system, churn_rate, burst_size))| ExtGRow {
            system,
            churn_rate,
            burst_size,
            with_retries: pool(&mut slots, per_setting * i),
            no_retries: pool(&mut slots, per_setting * i + reps as usize),
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
        let with = run_extg_cell(ExtGSystem::Dhash, &params, 0.05, 12, EXTG_RETRIES, 5);
        let without = run_extg_cell(ExtGSystem::Dhash, &params, 0.05, 12, 0, 5);
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
        let a = run_extg_cell(ExtGSystem::FastVerDi, &params, 0.05, 8, EXTG_RETRIES, 9);
        let b = run_extg_cell(ExtGSystem::FastVerDi, &params, 0.05, 8, EXTG_RETRIES, 9);
        assert_eq!(a, b, "same seed must reproduce the cell exactly");
    }
}
