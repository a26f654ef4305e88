//! Extension L harness: latency vs offered load under the `verme-load`
//! workload plane, serving features off vs on.
//!
//! Each sweep point replays a seeded open-loop workload — Zipf-popular
//! keys, Poisson/bursty/diurnal arrivals, per-client sessions — against
//! a fresh ring of one DHT variant. The serving bottleneck is the
//! config-gated `fetch_service_time` FIFO queue at block holders: offered
//! load beyond a holder's service capacity builds queueing delay, so p99
//! get latency rises superlinearly past saturation. The "serving on" arm
//! adds the hot-block cache, get coalescing, and lookup memoization,
//! which shed exactly the hot-key traffic that saturates holders.
//!
//! Open-loop matters: arrivals never wait for completions (the paper's
//! closed-loop Figure 6 workload cannot saturate anything), so the sweep
//! exposes the knee the way a real client population would.
//!
//! Every cell is an independent simulation; same seed → byte-identical
//! curves. Writes re-put an existing block (content addressing keeps the
//! key universe fixed) and exercise the invalidation path at holders.

use bytes::Bytes;
use verme_chord::Id;
use verme_core::VermeConfig;
use verme_dht::{keys as dht_keys, DhtConfig, DhtNode, Variant};
use verme_load::{generate_schedule, keys as load_keys, LoadProfile};
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, Runtime, SeedSource, SimDuration, SimTime};

use crate::testbed::{dht_ring, DhtRing, DhtSystem, OnDhtRing, HOP};

/// Parameters for one Ext. L sweep.
#[derive(Clone, Debug)]
pub struct ExtLParams {
    /// Overlay size.
    pub nodes: usize,
    /// Verme section count.
    pub sections: u128,
    /// Stored block size in bytes.
    pub block_size: usize,
    /// Base workload profile; `blocks` below overrides its key universe
    /// and each sweep point rescales its arrival rate.
    pub profile: LoadProfile,
    /// Key-universe size at this scale.
    pub blocks: usize,
    /// Swept offered loads, operations per simulated second.
    pub rates: Vec<f64>,
    /// Measurement window length.
    pub window: SimDuration,
    /// Per-fetch service slot at block holders — the saturating resource.
    pub fetch_service_time: SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl ExtLParams {
    /// Paper-scale configuration.
    pub fn full(seed: u64) -> Self {
        ExtLParams {
            nodes: 192,
            sections: 16,
            block_size: 8192,
            profile: LoadProfile::zipf_poisson(10.0),
            blocks: 64,
            rates: vec![2.0, 6.0, 18.0, 54.0, 108.0],
            window: SimDuration::from_secs(120),
            fetch_service_time: SimDuration::from_millis(160),
            seed,
        }
    }

    /// Laptop-quick configuration.
    pub fn quick(seed: u64) -> Self {
        ExtLParams {
            nodes: 64,
            sections: 8,
            block_size: 2048,
            profile: LoadProfile::zipf_poisson(10.0),
            blocks: 24,
            rates: vec![2.0, 6.0, 18.0, 54.0],
            window: SimDuration::from_secs(60),
            fetch_service_time: SimDuration::from_millis(160),
            seed,
        }
    }
}

/// Measurements at one offered load for one variant and serving arm.
#[derive(Clone, Debug, Default)]
pub struct LoadPoint {
    /// Offered load, ops per simulated second.
    pub rate: f64,
    /// Operations the generator issued (`load.offered`).
    pub offered: u64,
    /// Operations that completed (`load.completed`).
    pub completed: u64,
    /// Operations that failed (`load.failed`).
    pub failed: u64,
    /// Mean client-observed latency, milliseconds.
    pub mean_ms: f64,
    /// Median client-observed latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile client-observed latency, milliseconds.
    pub p99_ms: f64,
    /// Hot-block cache hits (`dht.cache.hits`).
    pub cache_hits: u64,
    /// Gets parked behind an in-flight leader (`dht.gets.coalesced`).
    pub coalesced: u64,
    /// Lookup memoization hits (`dht.lookup.memo_hits`).
    pub memo_hits: u64,
    /// Foreground lookup + data bytes moved during the window.
    pub fg_bytes: u64,
}

/// The DHT configuration for one arm. The deadline is raised far above
/// any queueing delay the sweep can build, so saturation shows up as
/// *latency*, not as deadline failures that would censor the tail. The
/// per-attempt retry slice (deadline / attempts) is likewise far above
/// queueing delay, so retries only fire on real failures — e.g. a
/// client momentarily lacking an opposite-type relay finger — never as
/// a load amplifier.
fn dht_cfg(params: &ExtLParams, serving: bool) -> DhtConfig {
    let mut cfg = DhtConfig {
        fetch_service_time: params.fetch_service_time,
        op_deadline: SimDuration::from_secs(600),
        ..DhtConfig::default()
    };
    if serving {
        cfg.cache_enabled = true;
        cfg.cache_capacity = (params.blocks / 2).max(8);
        cfg.coalesce_gets = true;
        cfg.memo_enabled = true;
    }
    cfg
}

/// Runs one variant at one offered load, serving features off or on.
pub fn run_point(system: DhtSystem, params: &ExtLParams, rate: f64, serving: bool) -> LoadPoint {
    struct Loaded<'a> {
        params: &'a ExtLParams,
        rate: f64,
        deadline: SimDuration,
    }
    impl OnDhtRing<UniformLatency> for Loaded<'_> {
        type Out = LoadPoint;
        /// Secure-VerDi's data rides the lookup, so the overlay's lookup
        /// deadline must not censor queueing delay: raise it to the op
        /// deadline — the experiment measures latency, not timeout-driven
        /// load shedding.
        fn verme_config(&self, default: VermeConfig) -> VermeConfig {
            VermeConfig { lookup_deadline: self.deadline, ..default }
        }
        fn run<V: Variant>(self, ring: DhtRing<V, UniformLatency>) -> LoadPoint {
            run_loaded(self.params, self.rate, self.deadline, ring.rt, ring.members)
        }
    }
    let cfg = dht_cfg(params, serving);
    let net = UniformLatency::new(params.nodes, HOP);
    let then = Loaded { params, rate, deadline: cfg.op_deadline };
    dht_ring(system, params.nodes, params.sections, net, params.seed, cfg, then)
}

/// Sweeps all rates for one variant and arm.
pub fn run_extl(system: DhtSystem, params: &ExtLParams, serving: bool) -> Vec<LoadPoint> {
    params.rates.iter().map(|&r| run_point(system, params, r, serving)).collect()
}

/// A stable one-line fingerprint of a curve, for determinism checks.
pub fn curve_fingerprint(points: &[LoadPoint]) -> String {
    points
        .iter()
        .map(|p| {
            format!(
                "{:.3}:{}:{}:{}:{:.6}:{:.6}:{:.6}:{}:{}:{}:{}",
                p.rate,
                p.offered,
                p.completed,
                p.failed,
                p.mean_ms,
                p.p50_ms,
                p.p99_ms,
                p.cache_hits,
                p.coalesced,
                p.memo_hits,
                p.fg_bytes
            )
        })
        .collect::<Vec<_>>()
        .join("|")
}

/// The block published under rank `rank`: the rank tag keeps keys
/// distinct, the rest is zero fill up to `block_size`.
fn rank_value(rank: usize, block_size: usize) -> Bytes {
    let mut v = vec![0u8; block_size.max(9)];
    v[..8].copy_from_slice(&(rank as u64).to_le_bytes());
    v[8] = 0xEC; // Ext. L namespace, so keys never collide with other harnesses
    Bytes::from(v)
}

/// Seeds the key universe, replays the schedule open-loop, drains, and
/// reads the load metrics back out.
fn run_loaded<N: DhtNode>(
    params: &ExtLParams,
    rate: f64,
    deadline: SimDuration,
    mut rt: Runtime<N, UniformLatency>,
    addrs: Vec<Addr>,
) -> LoadPoint {
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));

    // Scale the profile to this sweep point: same shape, same universe,
    // different offered rate.
    let mut profile = params.profile.clone();
    profile.blocks = params.blocks;
    profile.arrival = profile.arrival.scaled(rate / profile.arrival.mean_rate());
    profile.validate().expect("swept profile is valid");

    // Seed every rank's block fault-free and remember its key. A put can
    // fail transiently (a client without a live opposite-type relay
    // finger yet), so fall back to other client nodes before giving up.
    let mut keys_by_rank: Vec<Id> = Vec::with_capacity(params.blocks);
    for rank in 0..params.blocks {
        let key = verme_dht::block_key(&rank_value(rank, params.block_size));
        let seeded = (0..3).any(|try_no| {
            let value = rank_value(rank, params.block_size);
            let who = addrs[(rank * 7 + 3 + try_no * 11) % addrs.len()];
            rt.invoke(who, |n, ctx| n.start_put(value, ctx)).expect("alive");
            rt.run_until(rt.now() + SimDuration::from_secs(30));
            rt.node_mut(who).unwrap().take_op_outcomes().iter().any(|o| o.ok)
        });
        assert!(seeded, "fault-free seeding put failed on every client");
        keys_by_rank.push(key);
    }
    // Let background replication settle before measuring.
    rt.run_until(rt.now() + SimDuration::from_secs(30));

    // Open-loop replay: walk the precomputed schedule on the virtual
    // clock; arrivals never wait for completions.
    let schedule =
        generate_schedule(&profile, &SeedSource::new(params.seed ^ 0x11AD), params.window);
    let start = rt.now();
    for ev in &schedule {
        rt.run_until(start + ev.at);
        let who = addrs[(ev.client * 13 + 7) % addrs.len()];
        rt.metrics_mut().count(load_keys::LOAD_OFFERED, 1);
        if ev.read {
            let key = keys_by_rank[ev.key_rank];
            rt.invoke(who, |n, ctx| n.start_get(key, ctx)).expect("alive");
        } else {
            let value = rank_value(ev.key_rank, params.block_size);
            rt.invoke(who, |n, ctx| n.start_put(value, ctx)).expect("alive");
        }
    }
    // Drain: past the window plus the raised deadline, so every queued
    // fetch either completes or conclusively fails.
    rt.run_until(start + params.window + deadline + SimDuration::from_secs(60));

    for &a in &addrs {
        let outs = rt.node_mut(a).unwrap().take_op_outcomes();
        for o in outs {
            if o.ok {
                rt.metrics_mut().count(load_keys::LOAD_COMPLETED, 1);
                rt.metrics_mut().record(load_keys::LOAD_LATENCY_MS, o.latency.as_millis_f64());
            } else {
                rt.metrics_mut().count(load_keys::LOAD_FAILED, 1);
            }
        }
    }

    let summary = rt
        .metrics_mut()
        .histogram_mut(load_keys::LOAD_LATENCY_MS)
        .map(|h| h.summary())
        .unwrap_or_default();
    LoadPoint {
        rate,
        offered: rt.metrics().counter(load_keys::LOAD_OFFERED),
        completed: rt.metrics().counter(load_keys::LOAD_COMPLETED),
        failed: rt.metrics().counter(load_keys::LOAD_FAILED),
        mean_ms: summary.mean,
        p50_ms: summary.p50,
        p99_ms: summary.p99,
        cache_hits: rt.metrics().counter(dht_keys::CACHE_HITS),
        coalesced: rt.metrics().counter(dht_keys::GETS_COALESCED),
        memo_hits: rt.metrics().counter(dht_keys::LOOKUP_MEMO_HITS),
        fg_bytes: rt.metrics().counter("bytes.lookup") + rt.metrics().counter("bytes.data"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_sweep_saturates_and_serving_helps_at_small_scale() {
        let params = ExtLParams {
            nodes: 48,
            blocks: 12,
            rates: vec![2.0, 48.0],
            window: SimDuration::from_secs(30),
            ..ExtLParams::quick(7)
        };
        let off = run_extl(DhtSystem::Dhash, &params, false);
        let on = run_extl(DhtSystem::Dhash, &params, true);
        assert!(off[0].completed > 0 && off[1].completed > 0, "workload must complete");
        // Queueing delay at the hot holders pushes the tail up with load.
        assert!(
            off[1].p99_ms > 2.0 * off[0].p99_ms,
            "p99 should rise with offered load: {:.0} ms vs {:.0} ms",
            off[0].p99_ms,
            off[1].p99_ms
        );
        // The serving plane sheds hot-key traffic at the top of the sweep.
        assert!(
            on[1].p99_ms < off[1].p99_ms,
            "serving-on p99 {:.0} ms must beat serving-off {:.0} ms",
            on[1].p99_ms,
            off[1].p99_ms
        );
        assert!(on[1].cache_hits > 0, "the hot head must hit the cache");
        // Same seed, same curve, byte for byte.
        let rerun = run_extl(DhtSystem::Dhash, &params, false);
        assert_eq!(curve_fingerprint(&off), curve_fingerprint(&rerun));
    }
}
