//! `ring_scale`: one large static Verme ring on a uniform network, no
//! churn. Measured lookups are spread evenly over the run on the virtual
//! clock (an open loop); everything else is steady-state maintenance of
//! 20 000 nodes, so per-event cost at scale and per-node memory dominate.

use std::time::Instant;

use verme_chord::{keys, Id};
use verme_core::{SectionLayout, VermeConfig, VermeNode, VermeStaticRing};
use verme_crypto::CertificateAuthority;
use verme_sim::runtime::UniformLatency;
use verme_sim::{HostId, Runtime, SeedSource, SimDuration, SimTime};

use super::{mean_p50, net_fragment, Outcome, PhaseClock};
use crate::probe::{Overlay, Probe};

/// Per-hop one-way latency of the uniform network.
const HOP: SimDuration = SimDuration::from_millis(50);
/// No lookup is issued in the last stretch of the run, so every one can
/// finish (a lookup takes well under a second on this network).
const QUIET_TAIL: SimDuration = SimDuration::from_secs(3);

/// Sizes of one iteration.
#[derive(Clone, Debug)]
pub struct Params {
    /// Overlay size.
    pub nodes: usize,
    /// Verme section count.
    pub sections: u128,
    /// Simulated duration.
    pub sim_time: SimDuration,
    /// Measured lookups, each from a different node.
    pub lookups: usize,
}

impl Params {
    /// The benchmark's size: one lookup per node per 40 simulated seconds.
    pub fn bench() -> Self {
        Params {
            nodes: 20_000,
            sections: 1024,
            sim_time: SimDuration::from_secs(8),
            lookups: 4_000,
        }
    }

    /// The size the unit tests run.
    pub fn tiny() -> Self {
        Params { nodes: 1_000, sections: 64, sim_time: SimDuration::from_secs(8), lookups: 200 }
    }
}

/// Runs the ring once.
pub fn run(tiny: bool, seed: u64, probe: &mut Probe) -> Outcome {
    let params = if tiny { Params::tiny() } else { Params::bench() };
    let mut clock = PhaseClock::default();
    let mut out = Outcome::default();

    let arm = probe.enter("arm.verme");
    let t_setup = Instant::now();
    let setup = probe.enter("setup");
    let net = probe.enter("net.build");
    let mut rt: Runtime<VermeNode<()>, UniformLatency> =
        Runtime::new(UniformLatency::new(params.nodes, HOP), seed);
    probe.exit(net);
    let build = probe.enter("core.ring_build");
    let layout = SectionLayout::with_sections(params.sections, 2);
    let ring = VermeStaticRing::generate(layout, params.nodes, seed);
    let mut ca = CertificateAuthority::new(seed);
    let nodes: Vec<VermeNode<()>> =
        (0..params.nodes).map(|i| ring.build_node(i, VermeConfig::new(layout), &mut ca)).collect();
    probe.exit(build);
    let addrs: Vec<_> = nodes
        .into_iter()
        .enumerate()
        .map(|(i, node)| probe.spawn(&mut rt, HostId(i), node))
        .collect();
    probe.exit(setup);
    clock.setup_done(t_setup);

    let t_run = Instant::now();
    let run = probe.enter("run");
    probe.profile_begin();
    let mut rng = SeedSource::new(seed).stream("workload");
    let first = SimTime::ZERO + SimDuration::from_secs(1);
    let span_s = params.sim_time.saturating_sub(QUIET_TAIL).as_secs_f64() - 1.0;
    // Issuers stride through the ring so they spread over every section.
    let stride = (params.nodes / params.lookups).max(1);
    for i in 0..params.lookups {
        let at = first + SimDuration::from_secs_f64(span_s * i as f64 / params.lookups as f64);
        probe.advance(&mut rt, at);
        let key = Id::random(&mut rng);
        let who = addrs[(i * stride) % addrs.len()];
        probe.invoke(&mut rt, who, |node, ctx| node.start_measured_lookup(key, ctx));
    }
    probe.advance(&mut rt, SimTime::ZERO + params.sim_time);
    probe.profile_end(Overlay::Verme);

    let issued = rt.metrics().counter(keys::LOOKUP_ISSUED);
    let completed = rt.metrics().counter(keys::LOOKUP_COMPLETED);
    let failed = rt.metrics().counter(keys::LOOKUP_FAILED);
    let (lat_mean, lat_p50) = mean_p50(rt.metrics_mut(), keys::LOOKUP_LATENCY_MS);
    let (hops, _) = mean_p50(rt.metrics_mut(), keys::LOOKUP_HOPS);
    out.sim_stats = format!(
        "issued={issued} completed={completed} failed={failed} lat_mean={lat_mean:.6} \
         lat_p50={lat_p50:.6} hops={hops:.6} maint={} {}",
        rt.metrics().counter(keys::BYTES_MAINT),
        net_fragment(&rt)
    );
    probe.net_stats(&rt);
    probe.add("core.lookups_failed_frac", failed as f64 / (completed + failed).max(1) as f64);
    probe.teardown(rt);
    probe.exit(run);
    clock.run_done(t_run);
    probe.exit(arm);

    // Nothing dies on a static ring, so every lookup must complete: one
    // that failed or never finished is an operation the program failed.
    out.check(issued == params.lookups as u64, || {
        format!("issued {issued} lookups, scheduled {}", params.lookups)
    });
    out.check(completed + failed == issued, || {
        format!("{} of {issued} lookups never finished", issued - completed - failed)
    });
    out.attempted = params.lookups as u64;
    out.failed = out.attempted - completed.min(out.attempted);
    clock.store(&mut out);
    out
}
