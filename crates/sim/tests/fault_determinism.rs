//! Integration test: a full fault script — churn with rejoins, a kill
//! burst, a loss burst, a latency spike, and a partition — replays bit for
//! bit under the same seed, through the public `verme-sim` API only.

use rand::Rng;

use verme_sim::fault::{keys, Fault, FaultHooks, FaultPlan, FaultRunner};
use verme_sim::runtime::UniformLatency;
use verme_sim::{
    Addr, Ctx, HostId, MetricsSink, Node, Runtime, SeedSource, SimDuration, SimTime, Wire,
};

/// A small gossip protocol whose traffic pattern depends on message
/// arrival order and RNG draws — any nondeterminism in the runtime or the
/// fault runner shows up in its counters.
struct GossipNode {
    peers: Vec<Addr>,
    rumor: u64,
}

#[derive(Clone)]
enum Msg {
    Rumor(u64),
    Farewell,
}

impl Wire for Msg {
    fn wire_size(&self) -> usize {
        24
    }
}

impl Node for GossipNode {
    type Msg = Msg;
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg, ()>) {
        ctx.set_timer(SimDuration::from_millis(500), ());
    }

    fn on_message(&mut self, _from: Addr, msg: Msg, ctx: &mut Ctx<'_, Msg, ()>) {
        match msg {
            Msg::Rumor(v) => {
                ctx.metrics().count("gossip.heard", 1);
                if v > self.rumor {
                    self.rumor = v;
                    ctx.metrics().count("gossip.adopted", 1);
                }
            }
            Msg::Farewell => ctx.metrics().count("gossip.farewell", 1),
        }
    }

    fn on_timer(&mut self, _t: (), ctx: &mut Ctx<'_, Msg, ()>) {
        if !self.peers.is_empty() {
            let idx = ctx.rng().gen_range(0..self.peers.len());
            let bump = ctx.rng().gen_range(0..3u64);
            ctx.send(self.peers[idx], Msg::Rumor(self.rumor + bump));
        }
        ctx.set_timer(SimDuration::from_millis(500), ());
    }

    fn on_shutdown(&mut self, ctx: &mut Ctx<'_, Msg, ()>) {
        for &p in &self.peers {
            ctx.send(p, Msg::Farewell);
        }
    }
}

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn full_plan() -> FaultPlan {
    FaultPlan::new()
        .with(Fault::Churn {
            start: secs(5),
            duration: SimDuration::from_secs(90),
            leave_rate_per_sec: 0.2,
            graceful_fraction: 0.4,
            rejoin_after: Some(SimDuration::from_secs(10)),
        })
        .with(Fault::KillBurst {
            at: secs(20),
            window: SimDuration::from_secs(2),
            selector: "arc:4".into(),
        })
        .with(Fault::LossBurst { at: secs(35), duration: SimDuration::from_secs(10), rate: 0.5 })
        .with(Fault::LatencySpike {
            at: secs(50),
            duration: SimDuration::from_secs(10),
            factor: 8.0,
        })
        .with(Fault::Partition {
            at: secs(65),
            duration: SimDuration::from_secs(10),
            side: vec![HostId(0), HostId(1), HostId(2)],
        })
}

/// Executes the full plan against a fresh 16-node runtime and returns its
/// metrics sink, where the runner records what it did.
fn run(seed: u64) -> MetricsSink {
    const N: usize = 16;
    let mut rt = Runtime::new(UniformLatency::new(N, SimDuration::from_millis(15)), seed);
    let addrs: Vec<Addr> =
        (0..N).map(|i| rt.spawn(HostId(i), GossipNode { peers: Vec::new(), rumor: 0 })).collect();
    for (i, &a) in addrs.iter().enumerate() {
        let peers: Vec<Addr> =
            addrs.iter().copied().enumerate().filter(|&(j, _)| j != i).map(|(_, p)| p).collect();
        rt.node_mut(a).expect("just spawned").peers = peers;
    }

    let base = addrs.clone();
    let hooks: FaultHooks<GossipNode, UniformLatency> = FaultHooks {
        join: Box::new(move |rt, rng| {
            // Replacements gossip with whichever original nodes are alive.
            let peers: Vec<Addr> = base.iter().copied().filter(|&a| rt.is_alive(a)).collect();
            if peers.is_empty() {
                return None;
            }
            let rumor = rng.gen_range(0..100);
            Some(rt.spawn(HostId(0), GossipNode { peers, rumor }))
        }),
        victim_order: addrs.clone(),
        ring_converged: Box::new(|rt| rt.now() >= secs(30)),
        ..FaultHooks::inert()
    };

    let mut runner =
        FaultRunner::new(full_plan(), hooks, SeedSource::new(seed), addrs).expect("valid plan");
    runner.run_until(&mut rt, secs(120));
    rt.metrics().clone()
}

#[test]
fn same_seed_and_plan_replay_bit_for_bit() {
    let (mut a, mut b) = (run(1234), run(1234));
    assert_eq!(a.render_snapshot(), b.render_snapshot(), "metrics must be byte-identical");

    // Sanity: the plan actually perturbed the run.
    assert!(a.counter(keys::LEAVE_CRASH) + a.counter(keys::LEAVE_GRACEFUL) > 0, "no churn");
    assert_eq!(a.counter(keys::BURST_KILL), 4);
    assert!(a.counter(keys::JOIN) > 0, "no replacement ever joined");
}

#[test]
fn different_seed_diverges() {
    assert_ne!(
        run(1234).render_snapshot(),
        run(4321).render_snapshot(),
        "different seeds should not replay identically"
    );
}
