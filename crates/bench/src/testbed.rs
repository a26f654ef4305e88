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
//! * [`chord_ring`], [`verme_ring`] — a converged ring of either overlay
//!   family on any network, each member wrapped by the caller (bare, or
//!   under a DHT variant);
//! * [`DhtSystem`] and [`dht_ring`] — the four DHT systems, in the paper's
//!   order, and the one place a system becomes a converged ring of its
//!   nodes, handed to the caller's [`OnDhtRing`] continuation;
//! * [`verme_joiner`] and [`churn_hooks`] — the fault-plane binding of a
//!   Verme churn cell (a Chord cell's is [`verme_chaos::chord_hooks`]);
//! * [`king`], [`lookup_run_config`], [`lookup_workload`], [`chord_lookup`] —
//!   the fault-free lookup run the observer check bins compare against itself;
//! * [`DhtCell`], [`drive_dht_cell`], [`run_churn_cell`], [`CellOutcome`] —
//!   the cell of the DHT fault sweeps (extG, extI, extK): seed blocks,
//!   run a fault plan under gets spread evenly across the window, drain,
//!   read the counters and the durability census; a sweep pools a
//!   setting's repetitions with [`CellOutcome::merge`];
//! * [`Checks`], [`run_fingerprint`], [`same_bytes`] — a check bin's
//!   verdict lines, exit status and byte-identity comparison;
//! * [`artifact_dir`] — where a bin's side files land;
//! * [`sweep`], [`cell_seed`], [`pooled`], [`mean_of`] — every sweep's
//!   jobs × repetitions fan-out, the seed rule most of them share, and the
//!   folds of a setting's repetitions; [`par_map`] is the pool under it.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::Rng;

use verme_chaos::{chord_hooks, seed_blocks};
use verme_chord::{ring_converged, ChordConfig, ChordNode, Id, LookupMode, RingNode, StaticRing};
use verme_core::{Payload, SectionLayout, VermeConfig, VermeNode, VermeStaticRing};
use verme_crypto::{CertificateAuthority, NodeType};
use verme_dht::{
    Compromise, DhashNode, DhtConfig, DhtEngine, DhtNode, DurabilityCensus, Fast, Secure, Variant,
};
use verme_net::KingMatrix;
use verme_obs::Registry;
use verme_sim::fault::keys::RECONVERGE_MS;
use verme_sim::fault::{join_via_live_bootstrap, FaultHooks, FaultPlan, FaultRunner};
use verme_sim::runtime::UniformLatency;
use verme_sim::{
    Addr, Histogram, LatencyModel, MetricDesc, Node, Runtime, SeedSource, SimDuration, SimTime,
};

/// Per-hop one-way latency of the uniform network.
pub const HOP: SimDuration = SimDuration::from_millis(20);

/// A converged Chord ring on `net`: every member of `ring` built under
/// `cfg` and wrapped by `wrap` (`|o| o` for bare Chord, `|o|
/// DhashNode::new(o, dht.clone())` for DHash), spawned in address order
/// on a runtime seeded with `seed`. Returns the runtime and the members'
/// addresses by ring position.
pub fn chord_ring<N: Node, L: LatencyModel>(
    ring: &StaticRing,
    net: L,
    seed: u64,
    cfg: &ChordConfig,
    mut wrap: impl FnMut(ChordNode) -> N,
) -> (Runtime<N, L>, Vec<Addr>) {
    let mut rt = Runtime::new(net, seed);
    let addrs = ring.spawn(&mut rt, |pos| wrap(ring.build_node(pos, cfg.clone())));
    (rt, addrs)
}

/// The Verme counterpart of [`chord_ring`]: members are certified, in
/// ring order, by an authority seeded with `seed`, which comes back with
/// the runtime so replacements can be certified by it too
/// ([`verme_joiner`]).
pub fn verme_ring<P: Payload, N: Node, L: LatencyModel>(
    ring: &VermeStaticRing,
    net: L,
    seed: u64,
    cfg: &VermeConfig,
    mut wrap: impl FnMut(VermeNode<P>) -> N,
) -> (Runtime<N, L>, Vec<Addr>, CertificateAuthority) {
    let mut ca = CertificateAuthority::new(seed);
    let mut rt = Runtime::new(net, seed);
    let addrs = ring.spawn(&mut rt, |i| wrap(ring.build_node(i, cfg.clone(), &mut ca)));
    (rt, addrs, ca)
}

/// The four DHT systems the paper compares (§7.2).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DhtSystem {
    /// DHash over Chord (the baseline).
    Dhash,
    /// Fast-VerDi over Verme.
    FastVerDi,
    /// Secure-VerDi over Verme (certified lookups, data on the lookup).
    SecureVerDi,
    /// Compromise-VerDi over Verme (relayed operations).
    CompromiseVerDi,
}

impl DhtSystem {
    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            DhtSystem::Dhash => "DHash",
            DhtSystem::FastVerDi => "Fast-VerDi",
            DhtSystem::SecureVerDi => "Secure-VerDi",
            DhtSystem::CompromiseVerDi => "Compromise-VerDi",
        }
    }

    /// All four systems, in the paper's order.
    pub const ALL: [DhtSystem; 4] = [
        DhtSystem::Dhash,
        DhtSystem::FastVerDi,
        DhtSystem::SecureVerDi,
        DhtSystem::CompromiseVerDi,
    ];
}

/// The overlay under a [`DhtRing`], as [`dht_ring`] laid it out: what a
/// caller that picks members by identifier reads (extK's eclipse order).
pub enum Overlay {
    /// DHash's Chord ring.
    Chord(StaticRing),
    /// A VerDi variant's Verme ring.
    Verme(VermeStaticRing),
}

/// A converged ring of one [`DhtSystem`]'s nodes, as [`dht_ring`] hands it
/// over.
pub struct DhtRing<V: Variant, L: LatencyModel> {
    /// The runtime, every member spawned.
    pub rt: Runtime<DhtEngine<V>, L>,
    /// The members' addresses, by ring position.
    pub members: Vec<Addr>,
    /// The overlay's layout.
    pub overlay: Overlay,
    /// Builds the ring's churn binding on demand —
    /// [`verme_chaos::chord_hooks`] or [`churn_hooks`], with replacements
    /// running the members' configurations.
    pub churn: Box<dyn FnOnce() -> FaultHooks<DhtEngine<V>, UniformLatency>>,
}

/// What a caller of [`dht_ring`] does with the ring, written once for all
/// four systems.
pub trait OnDhtRing<L: LatencyModel> {
    /// What the caller makes of the ring.
    type Out;

    /// The configuration a Verme ring's members run, given the default for
    /// its layout. (A Chord ring's members run `ChordConfig::default()`.)
    fn verme_config(&self, default: VermeConfig) -> VermeConfig {
        default
    }

    /// Runs on the converged ring.
    fn run<V: Variant>(self, ring: DhtRing<V, L>) -> Self::Out;
}

/// A converged ring of `nodes` members of `system`, each running `cfg`, on
/// `net` under `seed`, handed to `then`: DHash on a random Chord ring
/// ([`chord_ring`]), a VerDi variant on a Verme ring of `sections`
/// sections ([`verme_ring`]).
pub fn dht_ring<L: LatencyModel, K: OnDhtRing<L>>(
    system: DhtSystem,
    nodes: usize,
    sections: u128,
    net: L,
    seed: u64,
    cfg: DhtConfig,
    then: K,
) -> K::Out {
    fn on_verme<V, P, L, K>(
        nodes: usize,
        sections: u128,
        net: L,
        seed: u64,
        cfg: DhtConfig,
        then: K,
    ) -> K::Out
    where
        V: Variant<Overlay = VermeNode<P>>,
        P: Payload + 'static,
        L: LatencyModel,
        K: OnDhtRing<L>,
    {
        let layout = SectionLayout::with_sections(sections, 2);
        let vcfg = then.verme_config(VermeConfig::new(layout));
        let ring = VermeStaticRing::generate(layout, nodes, seed);
        let (rt, members, ca) =
            verme_ring(&ring, net, seed, &vcfg, |o| DhtEngine::<V>::new(o, cfg.clone()));
        let order = members.clone();
        let churn = Box::new(move || {
            let mut joiner = verme_joiner(vcfg, ca);
            churn_hooks(&order, seed, move |rng, bootstrap| {
                DhtEngine::<V>::new(joiner(rng, bootstrap), cfg.clone())
            })
        });
        then.run(DhtRing { rt, members, overlay: Overlay::Verme(ring), churn })
    }
    match system {
        DhtSystem::Dhash => {
            let ring = StaticRing::random(nodes, seed);
            let chord = ChordConfig::default();
            let (rt, members) =
                chord_ring(&ring, net, seed, &chord, |o| DhashNode::new(o, cfg.clone()));
            let order = members.clone();
            let churn = Box::new(move || {
                let wrap = move |o| DhashNode::new(o, cfg.clone());
                chord_hooks(&order, seed, chord, DhashNode::overlay, wrap)
            });
            then.run(DhtRing { rt, members, overlay: Overlay::Chord(ring), churn })
        }
        DhtSystem::FastVerDi => on_verme::<Fast, _, _, _>(nodes, sections, net, seed, cfg, then),
        DhtSystem::SecureVerDi => {
            on_verme::<Secure, _, _, _>(nodes, sections, net, seed, cfg, then)
        }
        DhtSystem::CompromiseVerDi => {
            on_verme::<Compromise, _, _, _>(nodes, sections, net, seed, cfg, then)
        }
    }
}

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

/// The fault-plane binding of a Verme churn cell over the ring whose
/// members, by ring position, are `ring_order`: replacements bootstrap
/// through a live original member drawn from `seed`'s `"joins"` stream and
/// are built by `joiner` ([`verme_joiner`], maybe wrapped) from the same
/// stream, selectors read `ring_order` ([`verme_sim::fault::Selector`]),
/// and a burst counts as healed once [`ring_converged`]. A Chord cell's
/// binding is [`verme_chaos::chord_hooks`], the same one over Chord
/// joiners.
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
        victim_order: ring_order.to_vec(),
        ring_converged: Box::new(ring_converged),
        ..FaultHooks::inert()
    }
}

/// The synthetic King matrix of `nodes` hosts at the paper's mean RTT.
pub fn king(nodes: usize, seed: u64) -> KingMatrix {
    KingMatrix::synthetic(nodes, verme_net::king::KING_MEAN_RTT_MS, seed)
}

/// The Chord side of the fault-free lookup run: recursive, with timeouts
/// so generous that the King matrix's latency tail never trips one, so
/// the run is reroute-free and its hop counts are exact.
pub fn lookup_run_config() -> ChordConfig {
    ChordConfig {
        lookup_mode: LookupMode::Recursive,
        hop_timeout: SimDuration::from_secs(20),
        lookup_deadline: SimDuration::from_secs(60),
        ..ChordConfig::default()
    }
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

/// What one DHT cell measured, or — [merged](CellOutcome::merge) — a
/// sweep setting's repetitions pooled.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellOutcome {
    /// Gets issued during the fault window.
    pub issued: u64,
    /// Per-counter increase since seeding ended: everything the fault
    /// window and the drain caused.
    pub delta: BTreeMap<&'static str, u64>,
    /// The fault runner's `fault.reconverge_ms` samples, in repetition
    /// order: milliseconds from a kill burst's end until the ring healed,
    /// one per burst that did.
    pub reconverge_ms: Histogram,
    /// Live holders of the seeded blocks after the drain, against
    /// [`CENSUS_TARGET`]. Pooled, only its counts are meaningful.
    pub census: DurabilityCensus,
}

impl CellOutcome {
    /// The increase of counter `key` over the fault window (0 if the run
    /// never touched it).
    pub fn count(&self, key: &str) -> u64 {
        self.delta.get(key).copied().unwrap_or(0)
    }

    /// `count(key)` per issued get (0 when none was issued).
    pub fn per_get(&self, key: &str) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.count(key) as f64 / self.issued as f64
    }

    /// Fraction of issued gets that never completed, in `[0, 1]`.
    pub fn failed_fraction(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.issued.saturating_sub(self.count(verme_dht::keys::GET_COMPLETED)) as f64
            / self.issued as f64
    }

    /// Pools another repetition into this outcome: issued gets, counter
    /// deltas and census counts add, and its reconvergence samples follow
    /// ours.
    pub fn merge(&mut self, other: &CellOutcome) {
        self.issued += other.issued;
        for (&key, n) in &other.delta {
            *self.delta.entry(key).or_default() += n;
        }
        self.reconverge_ms.merge(&other.reconverge_ms);
        self.census.keys += other.census.keys;
        self.census.lost += other.census.lost;
        self.census.under_replicated += other.census.under_replicated;
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
        reconverge_ms: rt.metrics().histogram(RECONVERGE_MS).cloned().unwrap_or_default(),
        census: DurabilityCensus::take(seeded.iter().copied(), stores, CENSUS_TARGET),
    }
}

/// One churn cell: a converged ring of `system` under `cfg` with its
/// churn binding, driven by [`drive_dht_cell`] with each get asked by a
/// random live member of the original population.
pub fn run_churn_cell(
    system: DhtSystem,
    cell: &DhtCell,
    cfg: DhtConfig,
    seed: u64,
    plan: impl FnOnce(SimTime) -> FaultPlan,
) -> CellOutcome {
    struct Churn<'a, P> {
        cell: &'a DhtCell,
        seed: u64,
        plan: P,
    }
    impl<P: FnOnce(SimTime) -> FaultPlan> OnDhtRing<UniformLatency> for Churn<'_, P> {
        type Out = CellOutcome;
        fn run<V: Variant>(self, ring: DhtRing<V, UniformLatency>) -> CellOutcome {
            let hooks = (ring.churn)();
            drive_dht_cell(
                ring.rt,
                ring.members,
                hooks,
                self.cell,
                self.seed,
                self.plan,
                |rt, members, rng| {
                    let live: Vec<Addr> =
                        members.iter().copied().filter(|&a| rt.is_alive(a)).collect();
                    (!live.is_empty()).then(|| live[rng.gen_range(0..live.len())])
                },
            )
        }
    }
    let net = UniformLatency::new(cell.nodes, HOP);
    dht_ring(system, cell.nodes, cell.sections, net, seed, cfg, Churn { cell, seed, plan })
}

/// `cell(job, rep)` for every job × repetition `0..reps`, on [`par_map`]'s
/// pool: `out[j]` holds job `j`'s results in repetition order, whatever
/// order the cells finish in.
pub fn sweep<J: Sync, C: Send>(
    jobs: &[J],
    reps: u64,
    cell: impl Fn(&J, u64) -> C + Sync,
) -> Vec<Vec<C>> {
    let runs: Vec<(&J, u64)> = jobs.iter().flat_map(|j| (0..reps).map(move |r| (j, r))).collect();
    let mut out = par_map(&runs, |&(job, rep)| cell(job, rep)).into_iter();
    jobs.iter().map(|_| out.by_ref().take(reps as usize).collect()).collect()
}

/// The seed of repetition `rep` of a sweep's `setting`-th setting
/// (counted from 1) under master seed `seed`. Every arm of a setting
/// shares it, so the arms of a repetition face the same fault script.
pub fn cell_seed(seed: u64, setting: usize, rep: u64) -> u64 {
    seed.wrapping_add(setting as u64 * 7919).wrapping_add(rep * 15_485_863)
}

/// One sweep setting's repetitions pooled into a single cell, in slot
/// order (a merge may keep per-repetition detail, so order matters).
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
    use bytes::Bytes;

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
    fn sweep_groups_results_per_job_in_rep_order() {
        let parallel = std::thread::available_parallelism().map_or(4, |n| n.get()) > 1;
        let jobs = ["first", "second", "third"];
        let finished = AtomicUsize::new(0);
        let out = sweep(&jobs, 3, |&job, rep| {
            // The first job's first cell is held back until every other
            // cell has finished, so the first job completes last.
            while parallel && (job, rep) == ("first", 0) && finished.load(Ordering::SeqCst) < 8 {
                std::thread::yield_now();
            }
            finished.fetch_add(1, Ordering::SeqCst);
            format!("{job}/{rep}")
        });
        let want: Vec<Vec<String>> =
            jobs.iter().map(|j| (0..3).map(|r| format!("{j}/{r}")).collect()).collect();
        assert_eq!(out, want);

        let single = sweep(&jobs, 1, |&job, rep| (job, rep));
        assert_eq!(single, vec![vec![("first", 0)], vec![("second", 0)], vec![("third", 0)]]);
        assert_eq!(sweep(&[] as &[u8], 3, |&j, _| j), Vec::<Vec<u8>>::new());
        // The seeds every extG/I/K/M table was printed with.
        assert_eq!(cell_seed(42, 1, 0), 7_961);
        assert_eq!(cell_seed(42, 2, 1), 15_501_743);
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
    fn dht_ring_converges_every_system_in_ring_order() {
        struct Check(DhtSystem);
        impl OnDhtRing<UniformLatency> for Check {
            type Out = ();
            fn run<V: Variant>(self, ring: DhtRing<V, UniformLatency>) {
                let (system, DhtRing { mut rt, members, .. }) = (self.0.label(), ring);
                let ring_of = |a: Addr| rt.node(a).expect("alive").ring();
                let ids: Vec<Id> = members.iter().map(|&a| ring_of(a).id()).collect();
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "{system}: not in ring order");
                assert!(members.iter().all(|&a| ring_of(a).is_joined()), "{system}: unjoined");
                assert!(ring_converged(&rt), "{system}: not converged");

                let value = Bytes::from(vec![7u8; 512]);
                let key = verme_dht::block_key(&value);
                let (writer, reader) = (members[0], members[members.len() / 2]);
                rt.invoke(writer, |n, ctx| n.start_put(value, ctx)).expect("alive");
                rt.run_until(rt.now() + SimDuration::from_secs(45));
                rt.invoke(reader, |n, ctx| n.start_get(key, ctx)).expect("alive");
                rt.run_until(rt.now() + SimDuration::from_secs(45));
                for who in [writer, reader] {
                    let outs = rt.node_mut(who).expect("alive").take_op_outcomes();
                    assert!(outs.iter().any(|o| o.ok), "{system}: op at {who:?} failed");
                }
            }
        }
        for system in DhtSystem::ALL {
            let net = UniformLatency::new(32, HOP);
            dht_ring(system, 32, 4, net, 3, DhtConfig::default(), Check(system));
        }
    }
}
