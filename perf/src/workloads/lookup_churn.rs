//! `lookup_churn`: the fig5 shape at the paper's N. Recursive Chord, then
//! Verme, on the synthetic King matrix, with exponential node lifetimes,
//! immediate replacement joins and per-node exponential lookup arrivals
//! (an open loop on the virtual clock: arrivals never wait for answers).

use std::time::Instant;

use rand::Rng;
use verme_chord::{keys, ChordConfig, ChordNode, Id, LookupMode, NodeHandle, StaticRing};
use verme_core::{SectionLayout, VermeConfig, VermeNode, VermeStaticRing};
use verme_crypto::{CertificateAuthority, NodeType};
use verme_net::KingMatrix;
use verme_sim::rng::exp_duration;
use verme_sim::{
    Addr, EventQueue, FlightRecorder, HostId, LatencyModel, Node, Runtime, SeedSource, SimDuration,
    SimTime,
};

use super::{mean_p50, net_fragment, Outcome, PhaseClock};
use crate::probe::{Overlay, Probe};

/// Mean RTT of the King data set the paper uses, milliseconds.
const KING_MEAN_RTT_MS: f64 = 198.0;

/// Sizes of one iteration.
#[derive(Clone, Debug)]
pub struct Params {
    /// Overlay size (the paper's 1740, one node per King host).
    pub nodes: usize,
    /// Verme section count.
    pub sections: u128,
    /// Mean node lifetime.
    pub mean_lifetime: SimDuration,
    /// Mean interval between one node's lookups.
    pub lookup_mean: SimDuration,
    /// Simulated duration.
    pub sim_time: SimDuration,
}

impl Params {
    /// The benchmark's size: the paper's population and churn, three
    /// simulated minutes.
    pub fn bench() -> Self {
        Params {
            nodes: 1740,
            sections: 128,
            mean_lifetime: SimDuration::from_mins(15),
            lookup_mean: SimDuration::from_secs(30),
            sim_time: SimDuration::from_secs(180),
        }
    }

    /// The size the unit tests run.
    pub fn tiny() -> Self {
        Params {
            nodes: 160,
            sections: 8,
            mean_lifetime: SimDuration::from_mins(15),
            lookup_mean: SimDuration::from_secs(15),
            sim_time: SimDuration::from_secs(120),
        }
    }
}

/// What one system's arm measured (all simulated, exact for a seed).
struct ArmStats {
    issued: u64,
    completed: u64,
    failed: u64,
    joins: u64,
    mean_latency_ms: f64,
    fragment: String,
}

enum DriverEv {
    Lookup(Addr),
    Death(Addr),
}

/// Replays churn and lookups against a converged ring until `sim_time`.
///
/// `alive` stays sorted by address — fresh addresses only grow — so
/// choosing a bootstrap is an index into it rather than a collect-and-sort
/// of the runtime's node map per death; the benchmark's own time between
/// layer calls must stay negligible.
fn drive<N, L>(
    rt: &mut Runtime<N, L>,
    params: &Params,
    seed: u64,
    probe: &mut Probe,
    mut replacement: impl FnMut(Addr) -> N,
    mut lookup: impl FnMut(&mut Runtime<N, L>, &mut Probe, Addr, Id),
) -> u64
where
    N: Node,
    L: LatencyModel,
{
    let mut rng = SeedSource::new(seed).stream("driver");
    let lifetime_s = params.mean_lifetime.as_secs_f64();
    let lookup_s = params.lookup_mean.as_secs_f64();
    let end = SimTime::ZERO + params.sim_time;

    let mut alive: Vec<Addr> = rt.alive_addrs().collect();
    alive.sort_unstable_by_key(|a| a.raw());
    let mut agenda: EventQueue<DriverEv> = EventQueue::with_capacity(2 * alive.len());
    for &addr in &alive {
        agenda.schedule(SimTime::ZERO + exp_duration(&mut rng, lookup_s), DriverEv::Lookup(addr));
        agenda.schedule(SimTime::ZERO + exp_duration(&mut rng, lifetime_s), DriverEv::Death(addr));
    }

    let mut joins = 0u64;
    while agenda.peek_time().is_some_and(|at| at <= end) {
        let (now, ev) = agenda.pop().expect("peeked above");
        probe.advance(rt, now);
        match ev {
            DriverEv::Lookup(addr) => {
                if rt.is_alive(addr) {
                    let key = Id::random(&mut rng);
                    lookup(rt, probe, addr, key);
                    agenda.schedule(now + exp_duration(&mut rng, lookup_s), DriverEv::Lookup(addr));
                }
            }
            DriverEv::Death(addr) => {
                let Ok(pos) = alive.binary_search_by_key(&addr.raw(), |a| a.raw()) else {
                    continue;
                };
                let host = rt.host_of(addr).expect("spawned node has a host");
                probe.kill(rt, addr);
                alive.remove(pos);
                if alive.is_empty() {
                    continue;
                }
                // A replacement joins at once through a random live node,
                // keeping the population constant (p2psim-style churn).
                let bootstrap = alive[rng.gen_range(0..alive.len())];
                let fresh = probe.spawn(rt, host, replacement(bootstrap));
                alive.push(fresh);
                joins += 1;
                agenda.schedule(now + exp_duration(&mut rng, lookup_s), DriverEv::Lookup(fresh));
                agenda.schedule(now + exp_duration(&mut rng, lifetime_s), DriverEv::Death(fresh));
            }
        }
    }
    probe.advance(rt, end);
    joins
}

fn collect<N: Node, L: LatencyModel>(rt: &mut Runtime<N, L>, joins: u64) -> ArmStats {
    let issued = rt.metrics().counter(keys::LOOKUP_ISSUED);
    let completed = rt.metrics().counter(keys::LOOKUP_COMPLETED);
    let failed = rt.metrics().counter(keys::LOOKUP_FAILED);
    let maint = rt.metrics().counter(keys::BYTES_MAINT);
    let (mean_latency_ms, p50) = mean_p50(rt.metrics_mut(), keys::LOOKUP_LATENCY_MS);
    let (hops, _) = mean_p50(rt.metrics_mut(), keys::LOOKUP_HOPS);
    let fragment = format!(
        "issued={issued} completed={completed} failed={failed} joins={joins} maint={maint} \
         lat_mean={mean_latency_ms:.6} lat_p50={p50:.6} hops={hops:.6} {}",
        net_fragment(rt)
    );
    ArmStats { issued, completed, failed, joins, mean_latency_ms, fragment }
}

fn king(params: &Params, seed: u64, probe: &mut Probe) -> KingMatrix {
    let span = probe.enter("net.build");
    let king = KingMatrix::synthetic(params.nodes, KING_MEAN_RTT_MS, seed);
    probe.exit(span);
    king
}

fn chord_arm(params: &Params, seed: u64, probe: &mut Probe, clock: &mut PhaseClock) -> ArmStats {
    let arm = probe.enter("arm.chord_recursive");
    let t_setup = Instant::now();
    let setup = probe.enter("setup");
    let src = SeedSource::new(seed);
    let mut rt: Runtime<ChordNode, KingMatrix> = Runtime::new(king(params, seed, probe), seed);
    let cfg = ChordConfig { lookup_mode: LookupMode::Recursive, ..ChordConfig::default() };

    // Converged initial population, one node per King host.
    let build = probe.enter("chord.ring_build");
    let mut idrng = src.stream("ids");
    let handles: Vec<NodeHandle> = (0..params.nodes)
        .map(|i| NodeHandle::new(Id::random(&mut idrng), Addr::from_raw(i as u64 + 1)))
        .collect();
    let ring = StaticRing::new(handles);
    let mut by_addr: Vec<(u64, usize)> =
        (0..params.nodes).map(|i| (ring.node(i).addr.raw(), i)).collect();
    by_addr.sort_unstable();
    let nodes: Vec<(u64, ChordNode)> =
        by_addr.into_iter().map(|(raw, pos)| (raw, ring.build_node(pos, cfg.clone()))).collect();
    probe.exit(build);
    for (raw, node) in nodes {
        let addr = probe.spawn(&mut rt, HostId(raw as usize - 1), node);
        debug_assert_eq!(addr.raw(), raw);
    }
    probe.exit(setup);
    clock.setup_done(t_setup);

    let t_run = Instant::now();
    let run = probe.enter("run");
    probe.profile_begin();
    let mut join_rng = src.stream("join-ids");
    let joins = drive(
        &mut rt,
        params,
        seed,
        probe,
        |bootstrap| ChordNode::joining(Id::random(&mut join_rng), cfg.clone(), bootstrap),
        |rt, probe, addr, key| {
            probe.invoke(rt, addr, |node, ctx| {
                if node.is_joined() {
                    node.start_lookup(key, ctx);
                }
            });
        },
    );
    probe.profile_end(Overlay::Chord);
    let stats = collect(&mut rt, joins);
    probe.net_stats(&rt);
    probe.add("chord.bytes_maint", rt.metrics().counter(keys::BYTES_MAINT) as f64);
    probe.teardown(rt);
    probe.exit(run);
    clock.run_done(t_run);
    probe.exit(arm);
    stats
}

/// The Verme arm. `recorder` installs a flight-recorder tracer for the
/// `obs.tracer_overhead_frac` measurement; the simulation is identical
/// either way.
fn verme_arm(
    params: &Params,
    seed: u64,
    probe: &mut Probe,
    clock: &mut PhaseClock,
    recorder: Option<&FlightRecorder>,
) -> ArmStats {
    let arm = probe.enter("arm.verme");
    let t_setup = Instant::now();
    let setup = probe.enter("setup");
    let src = SeedSource::new(seed);
    let layout = SectionLayout::with_sections(params.sections, 2);
    let mut rt: Runtime<VermeNode<()>, KingMatrix> = Runtime::new(king(params, seed, probe), seed);
    rt.set_tracer(recorder.map(FlightRecorder::tracer));
    let mut ca = CertificateAuthority::new(seed);

    let build = probe.enter("core.ring_build");
    let ring = VermeStaticRing::generate(layout, params.nodes, seed);
    let nodes: Vec<VermeNode<()>> =
        (0..params.nodes).map(|i| ring.build_node(i, VermeConfig::new(layout), &mut ca)).collect();
    probe.exit(build);
    for (i, node) in nodes.into_iter().enumerate() {
        let addr = probe.spawn(&mut rt, HostId(i), node);
        debug_assert_eq!(addr, ring.node(i).addr);
    }
    probe.exit(setup);
    clock.setup_done(t_setup);

    let t_run = Instant::now();
    let run = probe.enter("run");
    probe.profile_begin();
    let mut join_rng = src.stream("join-ids");
    let joins = drive(
        &mut rt,
        params,
        seed,
        probe,
        |bootstrap| {
            // Replacements keep the type balance: a fair coin per join.
            let ty = if join_rng.gen::<bool>() { NodeType::A } else { NodeType::B };
            let id = layout.assign_id(&mut join_rng, ty);
            let (cert, keys) = ca.issue(id.raw(), ty);
            VermeNode::joining(VermeConfig::new(layout), cert, keys, ca.verifier(), bootstrap)
        },
        |rt, probe, addr, key| {
            probe.invoke(rt, addr, |node, ctx| {
                if node.is_joined() {
                    node.start_measured_lookup(key, ctx);
                }
            });
        },
    );
    probe.profile_end(Overlay::Verme);
    let stats = collect(&mut rt, joins);
    probe.net_stats(&rt);
    probe.teardown(rt);
    probe.exit(run);
    clock.run_done(t_run);
    probe.exit(arm);
    stats
}

fn failed_frac(a: &ArmStats) -> f64 {
    let done = a.completed + a.failed;
    if done == 0 {
        0.0
    } else {
        a.failed as f64 / done as f64
    }
}

/// Runs both systems once.
pub fn run(tiny: bool, seed: u64, probe: &mut Probe) -> Outcome {
    let params = if tiny { Params::tiny() } else { Params::bench() };
    let mut clock = PhaseClock::default();
    let chord = chord_arm(&params, seed, probe, &mut clock);
    let verme = verme_arm(&params, seed, probe, &mut clock, None);

    let mut out = Outcome::default();
    clock.store(&mut out);
    probe.add("core.joins", verme.joins as f64);
    probe.add("chord.lookups_failed_frac", failed_frac(&chord));
    probe.add("core.lookups_failed_frac", failed_frac(&verme));

    // Churn kills paths, so some lookups time out: the workload is not
    // clean by design. The count is exact for a seed; the check below
    // bounds it and `--compare` refuses a change that raises it. Churn is
    // the only cause, so none of them is a failed operation of the run.
    for (label, a) in [("chord", &chord), ("verme", &verme)] {
        let finished = a.completed + a.failed;
        out.check(finished <= a.issued, || format!("{label}: finished more lookups than issued"));
        out.check(a.completed * 10 > finished * 9, || {
            format!("{label}: only {} of {} finished lookups completed", a.completed, finished)
        });
    }
    let ratio = chord.mean_latency_ms / verme.mean_latency_ms;
    out.check((0.6..=1.6).contains(&ratio), || {
        format!("chord-recursive / verme mean latency ratio {ratio:.3} outside [0.6, 1.6]")
    });
    out.attempted = chord.issued + verme.issued;
    out.failed = chord.failed + verme.failed;
    out.failed_by_design = out.failed;
    out.sim_stats = format!("chord[{}] verme[{}]", chord.fragment, verme.fragment);
    out
}

/// `obs.tracer_overhead_frac`: the Verme arm with a flight-recorder tracer
/// installed, over the same arm without one. Both runs are untraced by the
/// probe so only the tracer differs.
pub fn tracer_overhead_frac(tiny: bool, seed: u64) -> (&'static str, f64) {
    let params = if tiny { Params::tiny() } else { Params::bench() };
    let timed = |recorder: Option<&FlightRecorder>| {
        let mut clock = PhaseClock::default();
        let mut out = Outcome::default();
        verme_arm(&params, seed, &mut Probe::off(), &mut clock, recorder);
        clock.store(&mut out);
        out.run_s
    };
    let plain = timed(None);
    let recorder = FlightRecorder::new(8192);
    let traced = timed(Some(&recorder));
    ("obs.tracer_overhead_frac", (traced - plain) / plain)
}
