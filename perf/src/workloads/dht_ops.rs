//! `dht_ops`: the fig6+7 shape. One closed-loop client puts then gets
//! 8 KiB blocks on a transit-stub network, 45 simulated seconds per
//! operation, against all four DHT variants. The operations ride on long
//! stretches of idle-ring maintenance, which is what this workload times.

use std::time::Instant;

use bytes::Bytes;
use rand::Rng;
use verme_chord::{ChordConfig, Id, NodeHandle, StaticRing};
use verme_core::{Payload, SectionLayout, VermeConfig, VermeNode, VermeStaticRing};
use verme_crypto::CertificateAuthority;
use verme_dht::{
    block_key, keys, CompromiseVerDiNode, DhashNode, DhtConfig, DhtNode, FastVerDiNode,
    SecureVerDiNode,
};
use verme_net::{TransitStub, TransitStubConfig};
use verme_sim::{Addr, HostId, LatencyModel, Runtime, SeedSource, SimDuration, SimTime};

use super::{mean_p50, net_fragment, Outcome, PhaseClock};
use crate::probe::{Overlay, Probe};

/// Simulated time the client waits for each operation.
const OP_WINDOW: SimDuration = SimDuration::from_secs(45);

/// Sizes of one iteration.
#[derive(Clone, Debug)]
pub struct Params {
    /// Overlay size.
    pub nodes: usize,
    /// Verme section count.
    pub sections: u128,
    /// Block size in bytes (DHash's 8 KiB).
    pub block_size: usize,
    /// Puts, then as many gets, per variant.
    pub operations: usize,
}

impl Params {
    /// The benchmark's size.
    pub fn bench() -> Self {
        Params { nodes: 256, sections: 16, block_size: 8192, operations: 12 }
    }

    /// The size the unit tests run.
    pub fn tiny() -> Self {
        Params { nodes: 128, sections: 8, block_size: 8192, operations: 6 }
    }
}

/// What one variant's arm measured (simulated, exact for a seed).
struct ArmStats {
    label: &'static str,
    started: u64,
    completed: u64,
    failed: u64,
    get_bytes_per_op: f64,
    fg_bytes: u64,
    fragment: String,
}

fn network(params: &Params, seed: u64, probe: &mut Probe) -> TransitStub {
    let span = probe.enter("net.build");
    let net = TransitStub::generate(
        TransitStubConfig { hosts: params.nodes, ..TransitStubConfig::default() },
        seed ^ 0x6E7,
    );
    probe.exit(span);
    net
}

/// A converged DHash-over-Chord ring on `rt`; returns the node addresses.
pub fn spawn_dhash<L: LatencyModel>(
    rt: &mut Runtime<DhashNode, L>,
    nodes: usize,
    seed: u64,
    cfg: &DhtConfig,
    probe: &mut Probe,
) -> Vec<Addr> {
    let build = probe.enter("chord.ring_build");
    let mut rng = SeedSource::new(seed).stream("ids");
    let handles: Vec<NodeHandle> = (0..nodes)
        .map(|i| NodeHandle::new(Id::random(&mut rng), Addr::from_raw(i as u64 + 1)))
        .collect();
    let ring = StaticRing::new(handles);
    let mut by_addr: Vec<(u64, usize)> = (0..nodes).map(|i| (ring.node(i).addr.raw(), i)).collect();
    by_addr.sort_unstable();
    let built: Vec<(u64, usize, DhashNode)> = by_addr
        .into_iter()
        .map(|(raw, pos)| {
            (raw, pos, DhashNode::new(ring.build_node(pos, ChordConfig::default()), cfg.clone()))
        })
        .collect();
    probe.exit(build);
    let mut addrs = vec![Addr::NULL; nodes];
    for (raw, pos, node) in built {
        addrs[pos] = probe.spawn(rt, HostId(raw as usize - 1), node);
    }
    addrs
}

/// A converged VerDi-over-Verme ring on `rt`; `wrap` picks the variant
/// (and with it the overlay payload type `P`).
pub fn spawn_verdi<N: DhtNode, P: Payload, L: LatencyModel>(
    rt: &mut Runtime<N, L>,
    nodes: usize,
    sections: u128,
    seed: u64,
    vcfg: impl Fn(SectionLayout) -> VermeConfig,
    wrap: impl Fn(VermeNode<P>) -> N,
    probe: &mut Probe,
) -> Vec<Addr> {
    let build = probe.enter("core.ring_build");
    let layout = SectionLayout::with_sections(sections, 2);
    let ring = VermeStaticRing::generate(layout, nodes, seed);
    let mut ca = CertificateAuthority::new(seed);
    let built: Vec<N> =
        (0..nodes).map(|i| wrap(ring.build_node(i, vcfg(layout), &mut ca))).collect();
    probe.exit(build);
    built.into_iter().enumerate().map(|(i, node)| probe.spawn(rt, HostId(i), node)).collect()
}

/// Whether a VerDi client can start an operation on `key` at all. A node
/// that is the key's own predecessor has no finger preceding the key, so
/// Compromise-VerDi finds no relay and fails the operation after its
/// retries (about one client in N per key; see README). The benchmark
/// draws its clients among the nodes that can route.
fn verme_can_route<P: Payload>(overlay: &VermeNode<P>, key: Id) -> bool {
    overlay.route_first_hop(key).is_some()
}

/// The measurement schedule shared by all variants: `operations` puts
/// from random nodes, then gets of those keys from other random nodes.
fn measure<N: DhtNode>(
    label: &'static str,
    rt: &mut Runtime<N, TransitStub>,
    addrs: &[Addr],
    can_route: impl Fn(&N, Id) -> bool,
    params: &Params,
    seed: u64,
    probe: &mut Probe,
) -> ArmStats {
    let mut rng = SeedSource::new(seed).stream("workload");
    probe.advance(rt, SimTime::ZERO + SimDuration::from_secs(1));
    let fg_bytes = |rt: &Runtime<N, TransitStub>| {
        rt.metrics().counter("bytes.lookup") + rt.metrics().counter(keys::BYTES_DATA)
    };

    let mut started = 0u64;
    let mut puts_not_ok = 0u64;
    let mut stored: Vec<Id> = Vec::with_capacity(params.operations);
    for opno in 0..params.operations {
        let mut value = vec![0u8; params.block_size];
        value[..8].copy_from_slice(&(opno as u64).to_le_bytes());
        let value = Bytes::from(value);
        let key = block_key(&value);
        let who = loop {
            let who = addrs[rng.gen_range(0..addrs.len())];
            if can_route(rt.node(who).expect("alive"), key) {
                break who;
            }
        };
        probe.invoke(rt, who, |n, ctx| n.start_put(value, ctx)).expect("static ring: alive");
        started += 1;
        let until = rt.now() + OP_WINDOW;
        probe.advance(rt, until);
        let outs = rt.node_mut(who).expect("alive").take_op_outcomes();
        if outs.iter().any(|o| o.ok) {
            stored.push(key);
        } else {
            puts_not_ok += 1;
        }
    }

    let before_gets = fg_bytes(rt);
    for (i, &key) in stored.iter().enumerate() {
        let who = loop {
            let who = addrs[(rng.gen_range(0..addrs.len()) + i) % addrs.len()];
            if can_route(rt.node(who).expect("alive"), key) {
                break who;
            }
        };
        probe.invoke(rt, who, |n, ctx| n.start_get(key, ctx)).expect("static ring: alive");
        started += 1;
        let until = rt.now() + OP_WINDOW;
        probe.advance(rt, until);
        let _ = rt.node_mut(who).expect("alive").take_op_outcomes();
    }
    let get_bytes = fg_bytes(rt) - before_gets;

    let completed =
        rt.metrics().counter(keys::GET_COMPLETED) + rt.metrics().counter(keys::PUT_COMPLETED);
    let op_failed = rt.metrics().counter(keys::OP_FAILED);
    let (get_ms, _) = mean_p50(rt.metrics_mut(), keys::GET_LATENCY_MS);
    let (put_ms, _) = mean_p50(rt.metrics_mut(), keys::PUT_LATENCY_MS);
    let get_bytes_per_op = get_bytes as f64 / stored.len().max(1) as f64;
    let fragment = format!(
        "{label}: completed={completed} failed={op_failed} get_ms={get_ms:.6} put_ms={put_ms:.6} \
         get_bytes_per_op={get_bytes_per_op:.3} fg_bytes={} retries={} {}",
        fg_bytes(rt),
        rt.metrics().counter(keys::OP_RETRIES),
        net_fragment(rt)
    );
    ArmStats {
        label,
        started,
        completed,
        // A put that never reported `ok` is failed even if the node did
        // not count it; `max` avoids counting one put under both rules.
        failed: op_failed.max(puts_not_ok),
        get_bytes_per_op,
        fg_bytes: fg_bytes(rt),
        fragment,
    }
}

/// One variant: build the network and ring (set-up), measure (run).
#[allow(clippy::too_many_arguments)]
fn arm<N: DhtNode>(
    label: &'static str,
    run_key: &'static str,
    overlay: Overlay,
    params: &Params,
    seed: u64,
    probe: &mut Probe,
    clock: &mut PhaseClock,
    spawn: impl FnOnce(&mut Runtime<N, TransitStub>, &mut Probe) -> Vec<Addr>,
    can_route: impl Fn(&N, Id) -> bool,
) -> ArmStats {
    let arm = probe.enter(label);
    let t_setup = Instant::now();
    let setup = probe.enter("setup");
    let mut rt = Runtime::new(network(params, seed, probe), seed);
    let addrs = spawn(&mut rt, probe);
    probe.exit(setup);
    clock.setup_done(t_setup);

    let t_run = Instant::now();
    let run = probe.enter("run");
    probe.profile_begin();
    let stats = measure(label, &mut rt, &addrs, can_route, params, seed, probe);
    probe.profile_end(overlay);
    probe.net_stats(&rt);
    probe.add("dht.op_retries", rt.metrics().counter(keys::OP_RETRIES) as f64);
    if overlay == Overlay::Chord {
        probe.add("chord.bytes_maint", rt.metrics().counter(verme_chord::keys::BYTES_MAINT) as f64);
    }
    probe.teardown(rt);
    probe.exit(run);
    probe.add(run_key, t_run.elapsed().as_secs_f64());
    clock.run_done(t_run);
    probe.exit(arm);
    stats
}

/// Runs all four variants once.
pub fn run(tiny: bool, seed: u64, probe: &mut Probe) -> Outcome {
    let params = if tiny { Params::tiny() } else { Params::bench() };
    let mut clock = PhaseClock::default();
    let cfg = DhtConfig::default();
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
        |_, _| true,
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
            let wrap = |o| FastVerDiNode::new(o, cfg.clone());
            spawn_verdi(rt, n, sections, seed, VermeConfig::new, wrap, probe)
        },
        |n: &FastVerDiNode, key| verme_can_route(n.overlay(), key),
    );
    let secure = arm(
        "arm.secure",
        "dht.secure.run_s",
        Overlay::Verme,
        &params,
        seed,
        probe,
        &mut clock,
        |rt, probe| {
            let wrap = |o| SecureVerDiNode::new(o, cfg.clone());
            spawn_verdi(rt, n, sections, seed, VermeConfig::new, wrap, probe)
        },
        |n: &SecureVerDiNode, key| verme_can_route(n.overlay(), key),
    );
    let compromise = arm(
        "arm.compromise",
        "dht.compromise.run_s",
        Overlay::Verme,
        &params,
        seed,
        probe,
        &mut clock,
        |rt, probe| {
            let wrap = |o| CompromiseVerDiNode::new(o, cfg.clone());
            spawn_verdi(rt, n, sections, seed, VermeConfig::new, wrap, probe)
        },
        |n: &CompromiseVerDiNode, key| verme_can_route(n.overlay(), key),
    );

    let mut out = Outcome::default();
    clock.store(&mut out);
    let arms = [&dhash, &fast, &secure, &compromise];
    let want = 2 * params.operations as u64;
    for a in arms {
        out.check(a.completed == want, || {
            format!("{}: {} of {want} operations completed", a.label, a.completed)
        });
        out.attempted += a.started;
        out.failed += a.failed;
    }
    // The fig7 ordering of bytes per get: DHash ≈ Fast < Compromise < Secure.
    out.check(fast.get_bytes_per_op < 1.5 * dhash.get_bytes_per_op, || {
        "fig7: Fast-VerDi get bytes should be under 1.5x DHash".into()
    });
    out.check(compromise.get_bytes_per_op > 1.5 * dhash.get_bytes_per_op, || {
        "fig7: Compromise-VerDi get bytes should exceed 1.5x DHash".into()
    });
    out.check(secure.get_bytes_per_op > compromise.get_bytes_per_op, || {
        "fig7: Secure-VerDi get bytes should exceed Compromise-VerDi".into()
    });
    let fg: u64 = arms.iter().map(|a| a.fg_bytes).sum();
    probe.add("dht.fg_bytes", fg as f64);
    probe.add("dht.ops", out.attempted as f64);
    out.sim_stats = arms.iter().map(|a| a.fragment.as_str()).collect::<Vec<_>>().join(" | ");
    out
}
