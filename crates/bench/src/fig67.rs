//! Figures 6 and 7 harness: DHT get/put latency and bandwidth — DHash vs
//! Fast/Secure/Compromise VerDi on a GT-ITM transit-stub network.
//!
//! Paper setup (§7.2): the King matrix lacks bandwidth, so the DHT data
//! experiments use a GT-ITM model; operations move 8 KiB DHash-style
//! blocks. Figure 6 reports get/put latency, Figure 7 the bytes consumed
//! per operation (excluding background replication).

use bytes::Bytes;
use rand::Rng;

use verme_chord::Id;
use verme_dht::{DhtConfig, DhtNode, Variant};
use verme_net::{TransitStub, TransitStubConfig};
use verme_sim::{Addr, Runtime, SeedSource, SimDuration, SimTime};

use crate::testbed::{dht_ring, sweep, DhtRing, DhtSystem, OnDhtRing};
use crate::CliArgs;

/// Parameters for one Figure 6/7 run.
#[derive(Clone, Debug)]
pub struct Fig67Params {
    /// Overlay size.
    pub nodes: usize,
    /// Verme section count.
    pub sections: u128,
    /// Block size in bytes (8 KiB, DHash's block size).
    pub block_size: usize,
    /// Number of measured operations per kind.
    pub operations: usize,
    /// Seed.
    pub seed: u64,
}

impl Fig67Params {
    /// Paper-scale configuration (1740 nodes as in §7.1's population).
    pub fn paper(seed: u64) -> Self {
        Fig67Params { nodes: 1740, sections: 128, block_size: 8192, operations: 300, seed }
    }

    /// Laptop-quick configuration.
    pub fn quick(seed: u64) -> Self {
        Fig67Params { nodes: 256, sections: 16, block_size: 8192, operations: 60, seed }
    }
}

/// Measurements for one system: the two figure panels.
#[derive(Copy, Clone, Debug, Default)]
pub struct Fig67Result {
    /// Mean get latency, milliseconds (Figure 6, left group).
    pub get_latency_ms: f64,
    /// Mean put latency, milliseconds (Figure 6, right group).
    pub put_latency_ms: f64,
    /// Bytes per get operation (Figure 7), excluding background
    /// replication.
    pub get_bytes_per_op: f64,
    /// Bytes per put operation (Figure 7).
    pub put_bytes_per_op: f64,
    /// Operations that completed.
    pub completed: u64,
    /// Operations that failed.
    pub failed: u64,
}

/// Runs one system's Figure 6/7 measurement.
pub fn run_fig67(system: DhtSystem, params: &Fig67Params) -> Fig67Result {
    struct Measure<'a>(&'a Fig67Params);
    impl OnDhtRing<TransitStub> for Measure<'_> {
        type Out = Fig67Result;
        fn run<V: Variant>(self, ring: DhtRing<V, TransitStub>) -> Fig67Result {
            measure(self.0, ring.rt, ring.members)
        }
    }
    let hosts = TransitStubConfig { hosts: params.nodes };
    let net = TransitStub::generate(hosts, params.seed ^ 0x6E7);
    let (nodes, sections, seed) = (params.nodes, params.sections, params.seed);
    dht_ring(system, nodes, sections, net, seed, DhtConfig::default(), Measure(params))
}

/// The sweep behind Figures 6 and 7: `reps` runs of every system, quick
/// or paper scale as `args` says, on worker threads. `sweep[s]` holds the
/// repetitions of `DhtSystem::ALL[s]` in repetition order, so folds over
/// it do not depend on thread scheduling.
pub fn run_sweep(reps: u64, args: &CliArgs) -> Vec<Vec<Fig67Result>> {
    sweep(&DhtSystem::ALL, reps, |&sys, rep| {
        let seed = args.seed.wrapping_add(rep * 6151);
        let params = if args.full { Fig67Params::paper(seed) } else { Fig67Params::quick(seed) };
        run_fig67(sys, &params)
    })
}

/// The measurement schedule, shared by all systems:
/// 1. `operations` puts from random nodes (measured);
/// 2. `operations` gets of those keys from *other* random nodes
///    (measured).
///
/// Per-figure accounting: latency from the op histograms; bandwidth as
/// the delta of `bytes.lookup + bytes.data` across each phase divided by
/// the operation count (background `bytes.replication` excluded, as in
/// the paper).
fn measure<N: DhtNode>(
    params: &Fig67Params,
    mut rt: Runtime<N, TransitStub>,
    addrs: Vec<Addr>,
) -> Fig67Result {
    let mut rng = SeedSource::new(params.seed).stream("workload");
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));

    let fg_bytes = |rt: &Runtime<N, TransitStub>| {
        rt.metrics().counter("bytes.lookup") + rt.metrics().counter("bytes.data")
    };

    // Phase 1: puts.
    let put_bytes_before = fg_bytes(&rt);
    let mut keys: Vec<Id> = Vec::with_capacity(params.operations);
    for opno in 0..params.operations {
        let who = addrs[rng.gen_range(0..addrs.len())];
        let mut value = vec![0u8; params.block_size];
        value[..8].copy_from_slice(&(opno as u64).to_le_bytes());
        let value = Bytes::from(value);
        let key = verme_dht::block_key(&value);
        rt.invoke(who, |n, ctx| n.start_put(value, ctx)).expect("alive");
        rt.run_until(rt.now() + SimDuration::from_secs(45));
        let outs = rt.node_mut(who).unwrap().take_op_outcomes();
        if outs.iter().any(|o| o.ok) {
            keys.push(key);
        }
    }
    let put_bytes = fg_bytes(&rt) - put_bytes_before;

    // Phase 2: gets.
    let get_bytes_before = fg_bytes(&rt);
    for (i, &key) in keys.iter().enumerate() {
        let who = addrs[(rng.gen_range(0..addrs.len()) + i) % addrs.len()];
        rt.invoke(who, |n, ctx| n.start_get(key, ctx)).expect("alive");
        rt.run_until(rt.now() + SimDuration::from_secs(45));
        let _ = rt.node_mut(who).unwrap().take_op_outcomes();
    }
    let get_bytes = fg_bytes(&rt) - get_bytes_before;

    let get_latency_ms = rt
        .metrics_mut()
        .histogram_mut("dht.get.latency_ms")
        .map(|h| h.summary().mean)
        .unwrap_or(0.0);
    let put_latency_ms = rt
        .metrics_mut()
        .histogram_mut("dht.put.latency_ms")
        .map(|h| h.summary().mean)
        .unwrap_or(0.0);
    let completed =
        rt.metrics().counter("dht.get.completed") + rt.metrics().counter("dht.put.completed");
    let failed = rt.metrics().counter("dht.op.failed");
    let n_puts = params.operations.max(1) as f64;
    let n_gets = keys.len().max(1) as f64;
    Fig67Result {
        get_latency_ms,
        put_latency_ms,
        get_bytes_per_op: get_bytes as f64 / n_gets,
        put_bytes_per_op: put_bytes as f64 / n_puts,
        completed,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig67_orderings_hold_at_small_scale() {
        let params =
            Fig67Params { nodes: 220, sections: 8, operations: 25, ..Fig67Params::quick(3) };
        let dhash = run_fig67(DhtSystem::Dhash, &params);
        let fast = run_fig67(DhtSystem::FastVerDi, &params);
        let secure = run_fig67(DhtSystem::SecureVerDi, &params);
        let comp = run_fig67(DhtSystem::CompromiseVerDi, &params);

        for (label, r) in [("dhash", dhash), ("fast", fast), ("secure", secure), ("comp", comp)] {
            assert!(r.completed >= 40, "{label}: only {} ops completed", r.completed);
            assert!(
                r.failed * 10 <= r.completed,
                "{label}: too many failures ({}/{})",
                r.failed,
                r.completed
            );
        }

        // Figure 7 (bandwidth) shapes — these are the robust ones:
        // gets: DHash ≈ Fast < Compromise (~2x) < Secure.
        assert!(fast.get_bytes_per_op < 1.5 * dhash.get_bytes_per_op);
        assert!(comp.get_bytes_per_op > 1.5 * dhash.get_bytes_per_op);
        assert!(secure.get_bytes_per_op > comp.get_bytes_per_op);
        // puts: Fast and Compromise pay the extra cross-section copy.
        assert!(fast.put_bytes_per_op > 1.5 * dhash.put_bytes_per_op);
        assert!(secure.put_bytes_per_op > dhash.put_bytes_per_op);

        // Figure 6 (latency) shapes that hold at this reduced scale: Fast
        // close to DHash for gets; Compromise pays its indirection; Fast
        // puts pay the cross-section copy. (Secure's put latency only
        // exceeds DHash's once paths are long enough that per-hop
        // serialization dominates — the paper-scale fig6 binary shows
        // that crossover.)
        assert!(fast.get_latency_ms < 2.0 * dhash.get_latency_ms);
        assert!(comp.get_latency_ms > fast.get_latency_ms);
        assert!(fast.put_latency_ms > 1.5 * dhash.put_latency_ms);
    }
}
