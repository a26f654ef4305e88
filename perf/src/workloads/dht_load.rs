//! `dht_load`: the DHT layer under production-shaped traffic. A seeded
//! open-loop schedule (Zipf keys, Poisson arrivals, 32 client sessions,
//! 80% gets / 20% re-puts) replays on the virtual clock against DHash and
//! then Fast-VerDi with the serving plane on: holder service queue,
//! hot-block cache, get coalescing and lookup memo.

use std::time::Instant;

use bytes::Bytes;
use verme_chord::Id;
use verme_core::VermeConfig;
use verme_dht::{block_key, keys, DhtConfig, DhtNode, FastVerDiNode};
use verme_load::{generate_schedule, LoadProfile, WorkloadEvent};
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, Runtime, SeedSource, SimDuration, SimTime};

use super::dht_ops::{spawn_dhash, spawn_verdi};
use super::{mean_p50, net_fragment, Outcome, PhaseClock};
use crate::probe::{Overlay, Probe};
use crate::stats::quantile_sorted;

/// Per-hop one-way latency of the uniform network.
const HOP: SimDuration = SimDuration::from_millis(20);
/// Per-request deadline: far above any queueing delay the load builds, so
/// saturation shows as latency and never as failures.
const OP_DEADLINE: SimDuration = SimDuration::from_secs(120);
/// Simulated time after the last arrival, past every deadline.
const DRAIN: SimDuration = SimDuration::from_secs(150);
/// Seeding puts issued per wave, and the simulated time each wave gets.
const SEED_WAVE: usize = 32;
const SEED_WAVE_TIME: SimDuration = SimDuration::from_secs(10);

/// Sizes of one iteration.
#[derive(Clone, Debug)]
pub struct Params {
    /// Overlay size.
    pub nodes: usize,
    /// Verme section count.
    pub sections: u128,
    /// Key universe: blocks seeded before the load starts.
    pub blocks: usize,
    /// Block size in bytes.
    pub block_size: usize,
    /// Offered load, operations per simulated second.
    pub rate: f64,
    /// Length of the arrival window.
    pub window: SimDuration,
}

impl Params {
    /// The benchmark's size.
    pub fn bench() -> Self {
        Params {
            nodes: 192,
            sections: 16,
            blocks: 256,
            block_size: 8192,
            rate: 200.0,
            window: SimDuration::from_secs(120),
        }
    }

    /// The size the unit tests run.
    pub fn tiny() -> Self {
        Params {
            nodes: 48,
            sections: 8,
            blocks: 32,
            block_size: 2048,
            rate: 40.0,
            window: SimDuration::from_secs(30),
        }
    }

    fn profile(&self) -> LoadProfile {
        LoadProfile {
            blocks: self.blocks,
            clients: 32,
            read_fraction: 0.8,
            ..LoadProfile::zipf_poisson(self.rate)
        }
    }

    fn dht_cfg(&self) -> DhtConfig {
        DhtConfig {
            fetch_service_time: SimDuration::from_millis(160),
            op_deadline: OP_DEADLINE,
            cache_enabled: true,
            cache_capacity: (self.blocks / 2).max(8),
            coalesce_gets: true,
            memo_enabled: true,
            ..DhtConfig::default()
        }
    }
}

struct ArmStats {
    label: &'static str,
    offered: u64,
    completed: u64,
    failed: u64,
    cache_hits: u64,
    cache_misses: u64,
    fg_bytes: u64,
    fragment: String,
}

/// The block published under popularity rank `rank`.
fn rank_value(rank: usize, block_size: usize) -> Bytes {
    let mut v = vec![0u8; block_size.max(9)];
    v[..8].copy_from_slice(&(rank as u64).to_le_bytes());
    v[8] = 0xBE;
    Bytes::from(v)
}

/// The node that client session `client` talks through.
fn client_node(addrs: &[Addr], client: usize) -> Addr {
    addrs[(client * 13 + 7) % addrs.len()]
}

/// Publishes every rank's block, in waves, before the load starts. A put
/// can fail transiently on a fresh ring (a client without a live
/// opposite-type finger yet), so an unstored rank moves to another client
/// in the next wave; returns the key of each rank.
fn seed_blocks<N: DhtNode>(
    rt: &mut Runtime<N, UniformLatency>,
    addrs: &[Addr],
    params: &Params,
    probe: &mut Probe,
) -> Vec<Id> {
    let span = probe.enter("dht.seed");
    let keys_by_rank: Vec<Id> =
        (0..params.blocks).map(|r| block_key(&rank_value(r, params.block_size))).collect();
    let mut todo: Vec<usize> = (0..params.blocks).collect();
    for round in 0..4 {
        let mut next = Vec::new();
        for wave in todo.chunks(SEED_WAVE) {
            for (slot, &rank) in wave.iter().enumerate() {
                let who = client_node(addrs, slot + round * 5);
                let value = rank_value(rank, params.block_size);
                rt.invoke(who, |n, ctx| n.start_put(value, ctx)).expect("static ring: alive");
            }
            let until = rt.now() + SEED_WAVE_TIME;
            probe.advance(rt, until);
            let mut stored: Vec<Id> = Vec::new();
            for slot in 0..wave.len() {
                let who = client_node(addrs, slot + round * 5);
                let outs = rt.node_mut(who).expect("alive").take_op_outcomes();
                stored.extend(outs.into_iter().filter(|o| o.ok).map(|o| o.key));
            }
            next.extend(wave.iter().copied().filter(|&r| !stored.contains(&keys_by_rank[r])));
        }
        todo = next;
        if todo.is_empty() {
            break;
        }
    }
    assert!(todo.is_empty(), "fault-free seeding left ranks {todo:?} unstored");
    // Let background replication settle before the load starts.
    let until = rt.now() + SimDuration::from_secs(30);
    probe.advance(rt, until);
    probe.exit(span);
    keys_by_rank
}

/// Open-loop replay: arrivals never wait for completions.
fn replay<N: DhtNode>(
    label: &'static str,
    rt: &mut Runtime<N, UniformLatency>,
    addrs: &[Addr],
    keys_by_rank: &[Id],
    schedule: &[WorkloadEvent],
    params: &Params,
    probe: &mut Probe,
) -> ArmStats {
    let start = rt.now();
    for ev in schedule {
        probe.advance(rt, start + ev.at);
        let who = client_node(addrs, ev.client);
        if ev.read {
            let key = keys_by_rank[ev.key_rank];
            probe.invoke(rt, who, |n, ctx| n.start_get(key, ctx)).expect("static ring: alive");
        } else {
            let value = rank_value(ev.key_rank, params.block_size);
            probe.invoke(rt, who, |n, ctx| n.start_put(value, ctx)).expect("static ring: alive");
        }
    }
    probe.advance(rt, start + params.window + DRAIN);

    let offered = schedule.len() as u64;
    let mut completed = 0u64;
    let mut not_ok = 0u64;
    let mut latency_ms: Vec<f64> = Vec::with_capacity(schedule.len());
    for &a in addrs {
        for o in rt.node_mut(a).expect("alive").take_op_outcomes() {
            if o.ok {
                completed += 1;
                latency_ms.push(o.latency.as_millis_f64());
            } else {
                not_ok += 1;
            }
        }
    }
    // An offered request with no outcome after the drain was lost.
    let failed = not_ok + offered.saturating_sub(completed + not_ok);
    latency_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let (get_ms, _) = mean_p50(rt.metrics_mut(), keys::GET_LATENCY_MS);
    let m = rt.metrics();
    let cache_hits = m.counter(keys::CACHE_HITS);
    let cache_misses = m.counter(keys::CACHE_MISSES);
    let fg_bytes = m.counter("bytes.lookup") + m.counter(keys::BYTES_DATA);
    let fragment = format!(
        "{label}: offered={offered} completed={completed} failed={failed} p50={:.6} p99={:.6} \
         get_ms={get_ms:.6} hits={cache_hits} misses={cache_misses} coalesced={} memo={} \
         retries={} fg_bytes={fg_bytes} {}",
        quantile_sorted(&latency_ms, 0.5),
        quantile_sorted(&latency_ms, 0.99),
        m.counter(keys::GETS_COALESCED),
        m.counter(keys::LOOKUP_MEMO_HITS),
        m.counter(keys::OP_RETRIES),
        net_fragment(rt)
    );
    ArmStats { label, offered, completed, failed, cache_hits, cache_misses, fg_bytes, fragment }
}

/// One variant: ring, seeded blocks and schedule (set-up), replay (run).
#[allow(clippy::too_many_arguments)]
fn arm<N: DhtNode>(
    label: &'static str,
    run_key: &'static str,
    overlay: Overlay,
    params: &Params,
    seed: u64,
    probe: &mut Probe,
    clock: &mut PhaseClock,
    spawn: impl FnOnce(&mut Runtime<N, UniformLatency>, &mut Probe) -> Vec<Addr>,
) -> ArmStats {
    let arm = probe.enter(label);
    let t_setup = Instant::now();
    let setup = probe.enter("setup");
    let net = probe.enter("net.build");
    let mut rt = Runtime::new(UniformLatency::new(params.nodes, HOP), seed);
    probe.exit(net);
    let addrs = spawn(&mut rt, probe);
    probe.advance(&mut rt, SimTime::ZERO + SimDuration::from_secs(1));
    let keys_by_rank = seed_blocks(&mut rt, &addrs, params, probe);
    let sched = probe.enter("load.schedule");
    let schedule =
        generate_schedule(&params.profile(), &SeedSource::new(seed ^ 0x11AD), params.window);
    probe.exit(sched);
    probe.add("load.schedule_ops", schedule.len() as f64);
    probe.exit(setup);
    clock.setup_done(t_setup);

    let t_run = Instant::now();
    let run = probe.enter("run");
    probe.profile_begin();
    let stats = replay(label, &mut rt, &addrs, &keys_by_rank, &schedule, params, probe);
    probe.profile_end(overlay);
    probe.net_stats(&rt);
    let m = rt.metrics();
    probe.add("dht.gets_coalesced", m.counter(keys::GETS_COALESCED) as f64);
    probe.add("dht.memo_hits", m.counter(keys::LOOKUP_MEMO_HITS) as f64);
    probe.add("dht.op_retries", m.counter(keys::OP_RETRIES) as f64);
    probe.add("dht.cache_hits", stats.cache_hits as f64);
    probe.add("dht.cache_misses", stats.cache_misses as f64);
    if overlay == Overlay::Chord {
        probe.add("chord.bytes_maint", m.counter(verme_chord::keys::BYTES_MAINT) as f64);
    }
    probe.teardown(rt);
    probe.exit(run);
    probe.add(run_key, t_run.elapsed().as_secs_f64());
    clock.run_done(t_run);
    probe.exit(arm);
    stats
}

/// Runs both variants once.
pub fn run(tiny: bool, seed: u64, probe: &mut Probe) -> Outcome {
    let params = if tiny { Params::tiny() } else { Params::bench() };
    let mut clock = PhaseClock::default();
    let cfg = params.dht_cfg();
    let (n, sections) = (params.nodes, params.sections);

    let dhash = arm(
        "arm.dhash",
        "dht.dhash.run_s",
        Overlay::Chord,
        &params,
        seed,
        probe,
        &mut clock,
        |rt, probe| spawn_dhash(rt, n, seed, &cfg, probe),
    );
    let fast = arm(
        "arm.fast",
        "dht.fast.run_s",
        Overlay::Verme,
        &params,
        seed,
        probe,
        &mut clock,
        |rt, probe| {
            // The overlay's lookup deadline must not censor queueing
            // delay: raise it to the op deadline.
            let vcfg =
                |layout| VermeConfig { lookup_deadline: OP_DEADLINE, ..VermeConfig::new(layout) };
            let wrap = |o| FastVerDiNode::new(o, cfg.clone());
            spawn_verdi(rt, n, sections, seed, vcfg, wrap, probe)
        },
    );

    let mut out = Outcome::default();
    clock.store(&mut out);
    for a in [&dhash, &fast] {
        out.check(a.completed + a.failed == a.offered, || {
            format!("{}: completed + failed != offered", a.label)
        });
        out.check(a.cache_hits > 0, || format!("{}: the hot head never hit the cache", a.label));
        out.attempted += a.offered;
        out.failed += a.failed;
        probe.add("dht.fg_bytes", a.fg_bytes as f64);
    }
    probe.add("dht.ops", out.attempted as f64);
    out.sim_stats = format!("{} | {}", dhash.fragment, fast.fragment);
    out
}
