//! The one testbed the experiments and check bins are built on.
//!
//! Paper §7.1–7.2 measure every system on one harness and vary only the
//! protocol. What a cell is built from exists once, in the lowest crate
//! that can express it: the `"ids"`-stream population and the
//! address-order spawn in [`verme_chord::StaticRing`] /
//! [`verme_core::VermeStaticRing`], the selector grammar and the join
//! hook in [`verme_sim::fault`], the ring-invariant assertor and block
//! seeding in [`verme_chaos`]. This module holds what is left — the
//! pieces that need Verme certificates, the King matrix or a thread pool:
//!
//! * [`verme_joiner`] and [`churn_hooks`] — the fault-plane binding of a
//!   churn cell;
//! * [`dhash_ring`] — the DHash ring the DHT cells and check bins start
//!   from;
//! * [`king_chord_ring`], [`lookup_workload`], [`chord_lookup`] — the
//!   fault-free lookup run the observer check bins compare against itself;
//! * [`DhtCell`], [`drive_dht_cell`], [`run_churn_cell`], [`departures`] —
//!   the cell of the DHT fault sweeps (extG, extI, extK): seed blocks,
//!   run a fault plan under gets spread evenly across the window, drain,
//!   read the counters and the durability census;
//! * [`Checks`], [`run_fingerprint`], [`same_bytes`] — a check bin's
//!   verdict lines, exit status and byte-identity comparison;
//! * [`artifact_dir`] — where a bin's side files land;
//! * [`par_map`], [`pooled`], [`mean_of`] — the sweep fan-out and the
//!   folds of a setting's repetitions.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::Rng;

use verme_chaos::seed_blocks;
use verme_chord::{ring_converged, ChordConfig, ChordNode, Id, LookupMode, RingNode, StaticRing};
use verme_core::{Payload, SectionLayout, VermeConfig, VermeNode, VermeStaticRing};
use verme_crypto::{CertificateAuthority, NodeType};
use verme_dht::{DhashNode, DhtConfig, DhtNode, DurabilityCensus, FastVerDiNode};
use verme_net::KingMatrix;
use verme_obs::Registry;
use verme_sim::fault::{
    join_via_live_bootstrap, keys as fault_keys, ordered_selector, FaultHooks, FaultPlan,
    FaultReport, FaultRunner,
};
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, LatencyModel, MetricDesc, Node, Runtime, SeedSource, SimDuration, SimTime};

/// Per-hop one-way latency of the uniform network.
pub const HOP: SimDuration = SimDuration::from_millis(20);

/// How a replacement Verme node comes to be: draw its type (an even
/// coin, which keeps the split balanced), let the layout assign an id of
/// that type, have `ca` certify it, and start it joining through the
/// given bootstrap — all draws from the caller's RNG, in that order.
pub fn verme_joiner<P: Payload>(
    cfg: VermeConfig,
    mut ca: CertificateAuthority,
) -> impl FnMut(&mut StdRng, Addr) -> VermeNode<P> {
    move |rng, bootstrap| {
        let ty = if rng.gen::<bool>() { NodeType::A } else { NodeType::B };
        let id = cfg.layout.assign_id(rng, ty);
        let (cert, keys) = ca.issue(id.raw(), ty);
        VermeNode::joining(cfg.clone(), cert, keys, ca.verifier(), bootstrap)
    }
}

/// The fault-plane binding of a churn cell over the ring whose members,
/// by ring position, are `ring_order`: replacements bootstrap through a
/// live original member drawn from `seed`'s `"joins"` stream and are
/// built by `joiner` from the same stream, selectors read `ring_order`
/// ([`verme_sim::fault::Selector`]), and a burst counts as healed once
/// [`ring_converged`].
pub fn churn_hooks<N, L>(
    ring_order: &[Addr],
    seed: u64,
    joiner: impl FnMut(&mut StdRng, Addr) -> N + 'static,
) -> FaultHooks<N, L>
where
    N: Node + RingNode + 'static,
    L: LatencyModel + 'static,
{
    FaultHooks {
        join: join_via_live_bootstrap(
            ring_order.to_vec(),
            SeedSource::new(seed).stream("joins"),
            joiner,
        ),
        select_victims: ordered_selector(ring_order.to_vec()),
        ring_converged: Box::new(ring_converged),
        ..FaultHooks::inert()
    }
}

/// A converged DHash-over-Chord ring of `nodes` nodes under `cfg` on the
/// uniform network, with its members' addresses by ring position.
pub fn dhash_ring(
    nodes: usize,
    seed: u64,
    cfg: &DhtConfig,
) -> (Runtime<DhashNode, UniformLatency>, Vec<Addr>) {
    let ring = StaticRing::random(nodes, seed);
    let mut rt = Runtime::new(UniformLatency::new(nodes, HOP), seed);
    let addrs = ring.spawn(&mut rt, |pos| {
        DhashNode::new(ring.build_node(pos, ChordConfig::default()), cfg.clone())
    });
    (rt, addrs)
}

/// A converged recursive-lookup Chord ring, one node per host of a
/// synthetic King matrix, with its members' addresses by ring position.
/// The timeouts are generous so the matrix's latency tail never trips
/// one: the run is reroute-free and its hop counts are exact.
pub fn king_chord_ring(nodes: usize, seed: u64) -> (Runtime<ChordNode, KingMatrix>, Vec<Addr>) {
    let cfg = ChordConfig {
        lookup_mode: LookupMode::Recursive,
        hop_timeout: SimDuration::from_secs(20),
        lookup_deadline: SimDuration::from_secs(60),
        ..ChordConfig::default()
    };
    let ring = StaticRing::random(nodes, seed);
    let king = KingMatrix::synthetic(nodes, verme_net::king::KING_MEAN_RTT_MS, seed);
    let mut rt = Runtime::new(king, seed);
    let addrs = ring.spawn(&mut rt, |pos| ring.build_node(pos, cfg.clone()));
    (rt, addrs)
}

/// Starts a lookup for `key` at `addr` if that node has joined.
pub fn chord_lookup<L: LatencyModel>(rt: &mut Runtime<ChordNode, L>, addr: Addr, key: Id) {
    rt.invoke(addr, |node, ctx| {
        if node.is_joined() {
            node.start_lookup(key, ctx);
        }
    });
}

/// The standard fault-free lookup run: 90 s of maintenance warm-up, then
/// one lookup per simulated second — source drawn from `sources`, then
/// the key, both from `rng` — handed to `issue`, then a 120 s drain.
/// `sources` is the member list the ring's `spawn` returned, so the
/// schedule is a function of the seed alone.
pub fn lookup_workload<N: Node, L: LatencyModel>(
    rt: &mut Runtime<N, L>,
    sources: &[Addr],
    mut rng: StdRng,
    lookups: usize,
    issue: impl Fn(&mut Runtime<N, L>, Addr, Id),
) {
    let at = |s: usize| SimTime::ZERO + SimDuration::from_secs(90 + s as u64);
    for i in 0..lookups {
        rt.run_until(at(i));
        let source = sources[rng.gen_range(0..sources.len())];
        let key = Id::random(&mut rng);
        issue(rt, source, key);
    }
    rt.run_until(at(lookups + 120));
}

/// Census bar of a DHT cell: a block is *under-replicated* below this
/// many live holders and *lost* at zero.
pub const CENSUS_TARGET: usize = 2;

/// The sizes every DHT fault-sweep cell shares.
#[derive(Clone, Debug)]
pub struct DhtCell {
    /// Overlay size.
    pub nodes: usize,
    /// Verme section count.
    pub sections: u128,
    /// Stored block size in bytes.
    pub block_size: usize,
    /// Blocks seeded before the faults start.
    pub blocks: usize,
    /// Gets issued while the fault plan runs.
    pub gets: usize,
    /// Length of the fault window the gets are spread across.
    pub window: SimDuration,
}

/// What one DHT cell measured.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Gets issued during the fault window.
    pub issued: u64,
    /// Per-counter increase since seeding ended: everything the fault
    /// window and the drain caused.
    pub delta: BTreeMap<&'static str, u64>,
    /// What the fault runner observed.
    pub report: FaultReport,
    /// Live holders of the seeded blocks after the drain, against
    /// [`CENSUS_TARGET`].
    pub census: DurabilityCensus,
}

impl CellOutcome {
    /// The increase of counter `key` over the fault window (0 if the run
    /// never touched it).
    pub fn count(&self, key: &str) -> u64 {
        self.delta.get(key).copied().unwrap_or(0)
    }
}

/// The schedule every DHT cell follows: settle 5 s, seed the blocks
/// fault-free, then — 5 s later, at the instant handed to `plan` — run
/// the plan while issuing `cell.gets` gets spread evenly across the
/// window, and drain for 120 s (the hard operation deadline is 30 s).
/// Before each get `issuer` picks who asks, given the original members
/// by ring position and the cell's `"workload"` stream (`None` ends the
/// gets early: nobody is left to ask); the key is drawn after it.
///
/// # Panics
///
/// Panics if no block survives seeding, the plan is invalid or `issuer`
/// names a dead node.
pub fn drive_dht_cell<N: DhtNode>(
    mut rt: Runtime<N, UniformLatency>,
    members: Vec<Addr>,
    hooks: FaultHooks<N, UniformLatency>,
    cell: &DhtCell,
    seed: u64,
    plan: impl FnOnce(SimTime) -> FaultPlan,
    mut issuer: impl FnMut(&Runtime<N, UniformLatency>, &[Addr], &mut StdRng) -> Option<Addr>,
) -> CellOutcome {
    let mut rng = SeedSource::new(seed).stream("workload");
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(5));
    let seeded = seed_blocks(&mut rt, &members, &mut rng, cell.blocks, cell.block_size);
    assert!(!seeded.is_empty(), "no block survived fault-free seeding");

    let baseline = rt.metrics().counter_snapshot();
    let start = rt.now() + SimDuration::from_secs(5);
    let mut runner = FaultRunner::new(plan(start), hooks, SeedSource::new(seed), members.clone())
        .expect("valid fault plan");
    let mut issued = 0;
    for i in 0..cell.gets {
        runner.run_until(&mut rt, start + cell.window / cell.gets as u64 * i as u64);
        let Some(who) = issuer(&rt, &members, &mut rng) else { break };
        let key = seeded[rng.gen_range(0..seeded.len())];
        rt.invoke(who, |n, ctx| n.start_get(key, ctx)).expect("alive");
        issued += 1;
    }
    runner.run_until(&mut rt, start + cell.window + SimDuration::from_secs(120));

    let stores: Vec<_> = rt.alive_addrs().map(|a| rt.node(a).expect("alive").store()).collect();
    CellOutcome {
        issued,
        delta: rt.metrics().counter_delta(&baseline),
        report: runner.into_report(),
        census: DurabilityCensus::take(seeded.iter().copied(), stores, CENSUS_TARGET),
    }
}

/// The two systems the churn sweeps (extG, extI) compare: the baseline
/// and the paper's fast variant.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ChurnSystem {
    /// DHash over Chord.
    Dhash,
    /// Fast-VerDi over Verme.
    FastVerDi,
}

impl ChurnSystem {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            ChurnSystem::Dhash => "DHash/Chord",
            ChurnSystem::FastVerDi => "Fast-VerDi/Verme",
        }
    }

    /// Both systems, baseline first.
    pub const ALL: [ChurnSystem; 2] = [ChurnSystem::Dhash, ChurnSystem::FastVerDi];
}

/// One churn cell: a converged ring of `system` under `cfg` with
/// [`churn_hooks`], driven by [`drive_dht_cell`] with each get asked by a
/// random live member of the original population.
pub fn run_churn_cell(
    system: ChurnSystem,
    cell: &DhtCell,
    cfg: DhtConfig,
    seed: u64,
    plan: impl FnOnce(SimTime) -> FaultPlan,
) -> CellOutcome {
    fn live_member<N: Node>(
        rt: &Runtime<N, UniformLatency>,
        members: &[Addr],
        rng: &mut StdRng,
    ) -> Option<Addr> {
        let live: Vec<Addr> = members.iter().copied().filter(|&a| rt.is_alive(a)).collect();
        (!live.is_empty()).then(|| live[rng.gen_range(0..live.len())])
    }
    match system {
        ChurnSystem::Dhash => {
            let (rt, addrs) = dhash_ring(cell.nodes, seed, &cfg);
            let hooks = churn_hooks(&addrs, seed, move |rng, bootstrap| {
                let overlay =
                    ChordNode::joining(Id::random(rng), ChordConfig::default(), bootstrap);
                DhashNode::new(overlay, cfg.clone())
            });
            drive_dht_cell(rt, addrs, hooks, cell, seed, plan, live_member)
        }
        ChurnSystem::FastVerDi => {
            let vcfg = VermeConfig::new(SectionLayout::with_sections(cell.sections, 2));
            let ring = VermeStaticRing::generate(vcfg.layout, cell.nodes, seed);
            let mut ca = CertificateAuthority::new(seed);
            let mut rt = Runtime::new(UniformLatency::new(cell.nodes, HOP), seed);
            let addrs = ring.spawn(&mut rt, |i| {
                FastVerDiNode::new(ring.build_node(i, vcfg.clone(), &mut ca), cfg.clone())
            });
            let mut joiner = verme_joiner(vcfg, ca);
            let hooks = churn_hooks(&addrs, seed, move |rng, bootstrap| {
                FastVerDiNode::new(joiner(rng, bootstrap), cfg.clone())
            });
            drive_dht_cell(rt, addrs, hooks, cell, seed, plan, live_member)
        }
    }
}

/// Nodes lost to churn crashes, graceful leaves and kill bursts, out of a
/// counter snapshot or delta.
pub fn departures(delta: &BTreeMap<&'static str, u64>) -> u64 {
    [fault_keys::LEAVE_CRASH, fault_keys::LEAVE_GRACEFUL, fault_keys::BURST_KILL]
        .iter()
        .map(|k| delta.get(k).copied().unwrap_or(0))
        .sum()
}

/// One sweep setting's repetitions pooled into a single cell, in slot
/// order (a merge may average, so the order is part of the result).
pub fn pooled<C: Default>(reps: &[C], merge: impl Fn(&mut C, &C)) -> C {
    let mut acc = C::default();
    for cell in reps {
        merge(&mut acc, cell);
    }
    acc
}

/// The mean of `metric` over a point's repetitions, summed in slot order
/// (0 for no repetitions).
pub fn mean_of<T>(reps: &[T], metric: impl Fn(&T) -> f64) -> f64 {
    reps.iter().fold(0.0, |sum, r| sum + metric(r)) / reps.len().max(1) as f64
}

/// The verdicts of a `*_check` bin.
#[derive(Debug, Default)]
pub struct Checks {
    failures: u32,
}

impl Checks {
    /// Records one named check and prints its verdict line.
    pub fn check(&mut self, name: &str, result: Result<String, String>) {
        match result {
            Ok(detail) => println!("ok   {name}: {detail}"),
            Err(why) => {
                self.failures += 1;
                println!("FAIL {name}: {why}");
            }
        }
    }

    /// How many checks have failed so far.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Prints the closing line and returns the process's exit status:
    /// failure if any check failed.
    pub fn finish(self) -> ExitCode {
        if self.failures > 0 {
            eprintln!("{} check(s) failed", self.failures);
            return ExitCode::FAILURE;
        }
        println!("all checks passed");
        ExitCode::SUCCESS
    }
}

/// A deterministic fingerprint of everything the protocol layers under
/// `descriptors` produced: final clock, network statistics and the full
/// metrics export.
pub fn run_fingerprint<N: Node, L: LatencyModel>(
    rt: &Runtime<N, L>,
    descriptors: &[&[MetricDesc]],
) -> String {
    let mut registry = Registry::new();
    for descs in descriptors {
        registry.register_all(descs);
    }
    format!("{:?}|{:?}|{}", rt.now(), rt.stats(), registry.export_ndjson(rt.metrics()))
}

/// Compares two fingerprints: `Ok` with their length when equal, else
/// where they first differ and what each side says there.
pub fn same_bytes(a: &str, b: &str) -> Result<usize, String> {
    if a == b {
        return Ok(a.len());
    }
    let at = a.bytes().zip(b.bytes()).position(|(x, y)| x != y).unwrap_or(a.len().min(b.len()));
    let around = |s: &str| {
        String::from_utf8_lossy(&s.as_bytes()[at.saturating_sub(40)..(at + 40).min(s.len())])
            .into_owned()
    };
    Err(format!("byte {at}: ..{:?} vs ..{:?}", around(a), around(b)))
}

/// Where a bin's side files land (chaos repros, the extN exports):
/// `$VERME_BENCH_DIR`, created if missing, or the current directory when
/// the variable is unset or empty. A directory that cannot be created
/// shows up as the caller's write error.
pub fn artifact_dir() -> PathBuf {
    let dir = std::env::var_os("VERME_BENCH_DIR").map(PathBuf::from).unwrap_or_default();
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// `f` over `items` on a bounded pool of scoped threads — one per core,
/// at most 8, never more than there are items — with the results in item
/// order whatever order the jobs finish in, so a fold over the returned
/// `Vec` does not depend on thread scheduling.
///
/// # Panics
///
/// Panics if a job panics.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get()).min(8);
    // Relaxed: the counter hands out indices and publishes nothing else
    // (`items` is shared before the threads start, results come back
    // through `join`).
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let pool: Vec<_> = (0..workers.min(items.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break done };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for worker in pool {
            for (i, result) in worker.join().expect("a par_map job panicked") {
                slots[i] = Some(result);
            }
        }
    });
    slots.into_iter().map(|slot| slot.expect("every item was claimed by one worker")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_keeps_item_order_when_jobs_finish_out_of_order() {
        let items: Vec<usize> = (0..40).collect();
        let parallel = std::thread::available_parallelism().map_or(4, |n| n.get()) > 1;
        let finished = AtomicUsize::new(0);
        let out = par_map(&items, |&i| {
            // With a second worker to drain the queue, the first job is
            // held back until every other job has finished: the slowest
            // possible first slot, forced rather than slept for.
            while parallel && i == 0 && finished.load(Ordering::SeqCst) < items.len() - 1 {
                std::thread::yield_now();
            }
            finished.fetch_add(1, Ordering::SeqCst);
            i * i
        });
        assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(par_map(&[] as &[usize], |&i| i), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "a par_map job panicked")]
    fn par_map_fails_when_a_job_panics() {
        par_map(&[1, 2, 3], |&i| assert_ne!(i, 2, "job 2 fails"));
    }

    #[test]
    fn checks_exit_status_follows_the_failures() {
        let mut checks = Checks::default();
        checks.check("first", Ok("fine".into()));
        assert_eq!(checks.failures(), 0);
        assert_eq!(checks.finish(), ExitCode::SUCCESS);

        let mut checks = Checks::default();
        checks.check("first", Ok("fine".into()));
        checks.check("second", Err("broken".into()));
        checks.check("third", Err("also broken".into()));
        assert_eq!(checks.failures(), 2);
        assert_eq!(checks.finish(), ExitCode::FAILURE);
    }

    #[test]
    fn same_bytes_reports_length_or_first_difference() {
        assert_eq!(same_bytes("abc", "abc"), Ok(3));
        let err = same_bytes("0123456789", "01234x6789").unwrap_err();
        assert!(err.starts_with("byte 5:"), "{err}");
        // A strict prefix differs at its end; a multi-byte character cut
        // by the 40-byte context window does not panic.
        assert!(same_bytes("abc", "abcd").unwrap_err().starts_with("byte 3:"));
        let long = "é".repeat(60);
        assert!(same_bytes(&long, &format!("{long}x")).is_err());
        assert!(same_bytes(&format!("{long}a{long}"), &format!("{long}b{long}")).is_err());
    }

    #[test]
    fn departures_sum_the_three_ways_a_node_is_lost() {
        let delta = BTreeMap::from([
            (fault_keys::LEAVE_CRASH, 3),
            (fault_keys::BURST_KILL, 5),
            (fault_keys::JOIN, 100),
        ]);
        assert_eq!(departures(&delta), 8);
        assert_eq!(departures(&BTreeMap::new()), 0);
    }
}
