//! Figure 5 harness: lookup latency under churn — Chord (transitive and
//! recursive) vs Verme on the King latency matrix.
//!
//! Paper setup (§7.1.1): 1740 nodes, King matrix (198 ms average RTT), 10
//! successors, stabilization every 30 s, finger refresh every 60 s,
//! lookups with random keys per node at exp(30 s) intervals, 128 sections,
//! mean node lifetime ∈ {15 m, 30 m, 1 h, 4 h, 8 h}, 12 h simulated, 8
//! repetitions.
//!
//! The same harness also produces the Extension A (lookup failure rate)
//! and Extension B (maintenance bandwidth) numbers, which the paper
//! reports only in summary form.

use rand::Rng;

use verme_chord::{ChordConfig, ChordNode, Id, LookupMode, StaticRing};
use verme_core::{SectionLayout, VermeConfig, VermeNode, VermeStaticRing};
use verme_sim::rng::exp_duration;
use verme_sim::{
    Addr, EventQueue, HostId, LatencyModel, Node, Runtime, SeedSource, SimDuration, SimTime,
};

use crate::testbed::{chord_lookup, chord_ring, king, sweep, verme_joiner, verme_ring};
use crate::CliArgs;

/// Which overlay/lookup configuration a Figure 5 series uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Fig5System {
    /// Chord with transitive lookups (reply short-cuts to the initiator).
    ChordTransitive,
    /// Chord with recursive lookups.
    ChordRecursive,
    /// Verme (recursive by design).
    Verme,
}

impl Fig5System {
    /// Figure legend label.
    pub fn label(self) -> &'static str {
        match self {
            Fig5System::ChordTransitive => "Chord (transitive)",
            Fig5System::ChordRecursive => "Chord (recursive)",
            Fig5System::Verme => "Verme",
        }
    }

    /// All three series of the figure.
    pub const ALL: [Fig5System; 3] =
        [Fig5System::ChordTransitive, Fig5System::ChordRecursive, Fig5System::Verme];
}

/// Parameters for one Figure 5 run.
#[derive(Clone, Debug)]
pub struct Fig5Params {
    /// Overlay size (paper: 1740, the King matrix size).
    pub nodes: usize,
    /// Mean node lifetime (x-axis of the figure).
    pub mean_lifetime: SimDuration,
    /// Simulated duration (paper: 12 h).
    pub sim_time: SimDuration,
    /// Mean interval between one node's lookups (paper: 30 s).
    pub lookup_mean: SimDuration,
    /// Verme section count (paper: 128).
    pub sections: u128,
    /// Seed for this run.
    pub seed: u64,
}

impl Fig5Params {
    /// The paper's full-scale configuration.
    pub fn paper(mean_lifetime: SimDuration, seed: u64) -> Self {
        Fig5Params {
            nodes: 1740,
            mean_lifetime,
            sim_time: SimDuration::from_hours(12),
            lookup_mean: SimDuration::from_secs(30),
            sections: 128,
            seed,
        }
    }

    /// A laptop-quick configuration with the same structure.
    pub fn quick(mean_lifetime: SimDuration, seed: u64) -> Self {
        Fig5Params {
            nodes: 400,
            mean_lifetime,
            sim_time: SimDuration::from_mins(20),
            lookup_mean: SimDuration::from_secs(30),
            sections: 16,
            seed,
        }
    }
}

/// Aggregated measurements from one run.
#[derive(Copy, Clone, Debug, Default)]
pub struct Fig5Result {
    /// Mean application-lookup latency, milliseconds.
    pub mean_latency_ms: f64,
    /// Median latency, milliseconds.
    pub p50_latency_ms: f64,
    /// Lookups issued.
    pub issued: u64,
    /// Lookups completed.
    pub completed: u64,
    /// Lookups failed (deadline missed / no route).
    pub failed: u64,
    /// Maintenance bytes sent per node per second.
    pub maint_bytes_per_node_s: f64,
    /// Mean completed-lookup hop count.
    pub mean_hops: f64,
}

impl Fig5Result {
    /// Failure fraction among finished lookups.
    pub fn failure_rate(&self) -> f64 {
        let done = self.completed + self.failed;
        if done == 0 {
            0.0
        } else {
            self.failed as f64 / done as f64
        }
    }
}

enum DriverEv {
    Lookup { addr: Addr },
    Death { addr: Addr },
}

/// Runs one Figure 5 series point and returns the aggregate result.
pub fn run_fig5(system: Fig5System, params: &Fig5Params) -> Fig5Result {
    match system {
        Fig5System::ChordTransitive => run_chord(params, LookupMode::Transitive),
        Fig5System::ChordRecursive => run_chord(params, LookupMode::Recursive),
        Fig5System::Verme => run_verme(params),
    }
}

/// The sweep behind Figure 5 and Extensions A and B: one [`run_fig5`] per
/// (lifetime, system, repetition), quick or paper scale as `args` says,
/// on worker threads. `sweep[l][s]` holds the repetitions of lifetime `l`
/// under system `s` in repetition order, so folds over it do not depend
/// on thread scheduling.
pub fn run_sweep(
    lifetimes: &[SimDuration],
    systems: &[Fig5System],
    reps: u64,
    args: &CliArgs,
) -> Vec<Vec<Vec<Fig5Result>>> {
    let jobs: Vec<(usize, Fig5System)> =
        (0..lifetimes.len()).flat_map(|li| systems.iter().map(move |&sys| (li, sys))).collect();
    let mut points = sweep(&jobs, reps, |&(li, sys), rep| {
        let seed = args.seed.wrapping_add(rep * 7919).wrapping_add(li as u64 * 104729);
        let scale = if args.full { Fig5Params::paper } else { Fig5Params::quick };
        let mut params = scale(lifetimes[li], seed);
        if let Some(h) = args.hours {
            params.sim_time = SimDuration::from_hours(h);
        }
        run_fig5(sys, &params)
    })
    .into_iter();
    lifetimes.iter().map(|_| points.by_ref().take(systems.len()).collect()).collect()
}

/// Generic churn + workload driver.
///
/// `spawn_replacement` creates a joining node for the given host using
/// `bootstrap`; `issue_lookup` injects one random-key lookup at `addr`.
fn drive<N, L, FSpawn, FLookup>(
    rt: &mut Runtime<N, L>,
    params: &Fig5Params,
    mut spawn_replacement: FSpawn,
    mut issue_lookup: FLookup,
) where
    N: Node,
    L: LatencyModel,
    FSpawn: FnMut(&mut Runtime<N, L>, HostId, Addr) -> Addr,
    FLookup: FnMut(&mut Runtime<N, L>, Addr, Id),
{
    let src = SeedSource::new(params.seed);
    let mut rng = src.stream("driver");
    let lifetime_s = params.mean_lifetime.as_secs_f64();
    let lookup_s = params.lookup_mean.as_secs_f64();
    let end = SimTime::ZERO + params.sim_time;

    let mut agenda: EventQueue<DriverEv> = EventQueue::new();
    // Ascending address order: every process draws the same lookup/death
    // schedule from the same seed.
    for addr in rt.alive_addrs() {
        agenda
            .schedule(SimTime::ZERO + exp_duration(&mut rng, lookup_s), DriverEv::Lookup { addr });
        agenda
            .schedule(SimTime::ZERO + exp_duration(&mut rng, lifetime_s), DriverEv::Death { addr });
    }

    while let Some(at) = agenda.peek_time() {
        if at > end {
            break;
        }
        rt.run_until(at);
        let Some((now, ev)) = agenda.pop() else {
            break;
        };
        match ev {
            DriverEv::Lookup { addr } => {
                if rt.is_alive(addr) {
                    let key = Id::random(&mut rng);
                    issue_lookup(rt, addr, key);
                    agenda.schedule(
                        now + exp_duration(&mut rng, lookup_s),
                        DriverEv::Lookup { addr },
                    );
                }
            }
            DriverEv::Death { addr } => {
                if !rt.is_alive(addr) {
                    continue;
                }
                let host = rt.host_of(addr).expect("spawned node has a host");
                rt.kill(addr);
                // A replacement joins immediately through a random alive
                // node, keeping the population constant (p2psim-style
                // churn).
                if rt.num_alive() == 0 {
                    continue;
                }
                let pick = rng.gen_range(0..rt.num_alive());
                let bootstrap = rt.alive_addrs().nth(pick).expect("pick < num_alive");
                let fresh = spawn_replacement(rt, host, bootstrap);
                agenda.schedule(
                    now + exp_duration(&mut rng, lookup_s),
                    DriverEv::Lookup { addr: fresh },
                );
                agenda.schedule(
                    now + exp_duration(&mut rng, lifetime_s),
                    DriverEv::Death { addr: fresh },
                );
            }
        }
    }
    rt.run_until(end);
}

fn collect<N: Node, L: LatencyModel>(rt: &mut Runtime<N, L>, params: &Fig5Params) -> Fig5Result {
    let issued = rt.metrics().counter("lookup.issued");
    let completed = rt.metrics().counter("lookup.completed");
    let failed = rt.metrics().counter("lookup.failed");
    let maint = rt.metrics().counter("bytes.maint");
    let (mean_latency_ms, p50_latency_ms) = rt
        .metrics_mut()
        .histogram_mut("lookup.latency_ms")
        .map(|h| {
            let s = h.summary();
            (s.mean, s.p50)
        })
        .unwrap_or((0.0, 0.0));
    let mean_hops =
        rt.metrics_mut().histogram_mut("lookup.hops").map(|h| h.summary().mean).unwrap_or(0.0);
    Fig5Result {
        mean_latency_ms,
        p50_latency_ms,
        issued,
        completed,
        failed,
        maint_bytes_per_node_s: maint as f64 / params.nodes as f64 / params.sim_time.as_secs_f64(),
        mean_hops,
    }
}

fn run_chord(params: &Fig5Params, mode: LookupMode) -> Fig5Result {
    let src = SeedSource::new(params.seed);
    let cfg = ChordConfig { lookup_mode: mode, ..ChordConfig::default() };
    // Converged initial population, one node per King host.
    let ring = StaticRing::random(params.nodes, params.seed);
    let net = king(params.nodes, params.seed);
    let (mut rt, _) = chord_ring(&ring, net, params.seed, &cfg, |o| o);

    let mut join_rng = src.stream("join-ids");
    drive(
        &mut rt,
        params,
        move |rt, host, bootstrap| {
            let id = Id::random(&mut join_rng);
            rt.spawn(host, ChordNode::joining(id, cfg.clone(), bootstrap))
        },
        chord_lookup,
    );
    collect(&mut rt, params)
}

fn run_verme(params: &Fig5Params) -> Fig5Result {
    let src = SeedSource::new(params.seed);
    let cfg = VermeConfig::new(SectionLayout::with_sections(params.sections, 2));
    let ring = VermeStaticRing::generate(cfg.layout, params.nodes, params.seed);
    let net = king(params.nodes, params.seed);
    let (mut rt, _, ca) = verme_ring(&ring, net, params.seed, &cfg, |o: VermeNode<()>| o);

    let mut join_rng = src.stream("join-ids");
    let mut joiner = verme_joiner(cfg, ca);
    drive(
        &mut rt,
        params,
        move |rt, host, bootstrap| rt.spawn(host, joiner(&mut join_rng, bootstrap)),
        |rt, addr, key| {
            rt.invoke(addr, |node, ctx| {
                if node.is_joined() {
                    node.start_measured_lookup(key, ctx);
                }
            });
        },
    );
    collect(&mut rt, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig5_shapes_hold() {
        let life = SimDuration::from_mins(30);
        let p = |seed| Fig5Params {
            nodes: 200,
            mean_lifetime: life,
            sim_time: SimDuration::from_mins(6),
            lookup_mean: SimDuration::from_secs(15),
            sections: 8,
            seed,
        };
        let tra = run_fig5(Fig5System::ChordTransitive, &p(1));
        let rec = run_fig5(Fig5System::ChordRecursive, &p(1));
        let ver = run_fig5(Fig5System::Verme, &p(1));
        assert!(tra.completed > 100, "transitive produced {} lookups", tra.completed);
        assert!(rec.completed > 100);
        assert!(ver.completed > 100);
        // The paper's headline: transitive Chord beats Verme; recursive
        // Chord is comparable to Verme.
        assert!(
            tra.mean_latency_ms < ver.mean_latency_ms,
            "transitive ({:.0} ms) should beat verme ({:.0} ms)",
            tra.mean_latency_ms,
            ver.mean_latency_ms
        );
        let ratio = rec.mean_latency_ms / ver.mean_latency_ms;
        assert!(
            (0.6..=1.6).contains(&ratio),
            "recursive chord and verme should be comparable, ratio {ratio:.2}"
        );
        // Failure rates stay low at this gentle churn.
        assert!(ver.failure_rate() < 0.1, "verme failure rate {:.3}", ver.failure_rate());
        assert!(rec.failure_rate() < 0.1);
    }
}
