//! Per-layer micro-timings: single public operations of one layer in a
//! tight loop, so a change to that operation has a number of its own.
//! Each kernel runs for a fixed time budget split into five batches and
//! reports the median batch, nanoseconds per operation (build kernels:
//! seconds per build). Results pass through `black_box`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use verme_crypto::{CertificateAuthority, NodeType, Sealed};
use verme_load::{generate_schedule, LoadProfile};
use verme_net::{KingMatrix, TransitStub, TransitStubConfig};
use verme_obs::Registry;
use verme_sim::runtime::UniformLatency;
use verme_sim::{
    Addr, Ctx, EventQueue, HostId, LatencyModel, MetricKind, MetricsSink, Node, Runtime,
    SeedSource, SimDuration, SimTime, Wire,
};

use crate::stats::median;

/// Batches per kernel; the median batch is reported.
const BATCHES: usize = 5;

/// The metrics [`run_all`] reports, in catalogue order.
pub const NAMES: &[&str] = &[
    "sim.queue.hold_ns_d4k",
    "sim.queue.hold_ns_d64k",
    "sim.null_event_ns_n1740",
    "sim.null_event_ns_n20k",
    "sim.metrics.record_ns",
    "net.king.build_s",
    "net.king.delay_ns",
    "net.transit_stub.build_s",
    "net.transit_stub.delay_ns",
    "crypto.issue_ns",
    "crypto.verify_ns",
    "crypto.seal_open_ns",
    "load.schedule_ns_per_op",
    "obs.export_ns_per_key",
];

/// Times `op(n)` (which performs `n` operations) and returns the median
/// nanoseconds per operation over [`BATCHES`] batches filling `budget`.
fn ns_per_op(budget: Duration, mut op: impl FnMut(u64)) -> f64 {
    // Calibrate: grow the batch until it is long enough to time, then
    // size batches to a fifth of the budget.
    let mut n = 64u64;
    let per_op = loop {
        let t = Instant::now();
        op(n);
        let dt = t.elapsed();
        if dt >= Duration::from_millis(2) || n >= 1 << 30 {
            break dt.as_secs_f64() / n as f64;
        }
        n *= 4;
    };
    let batch = ((budget.as_secs_f64() / BATCHES as f64 / per_op) as u64).max(1);
    let readings: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            op(batch);
            t.elapsed().as_secs_f64() * 1e9 / batch as f64
        })
        .collect();
    median(&readings)
}

/// Median seconds of [`BATCHES`] calls of `build`.
fn build_s<T>(mut build: impl FnMut() -> T) -> f64 {
    let readings: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            black_box(build());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&readings)
}

/// The classic hold model: pop the earliest event, schedule one a random
/// increment later, at constant queue depth.
fn queue_hold_ns(depth: usize, seed: u64, budget: Duration) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth + 1);
    for i in 0..depth as u64 {
        q.schedule(SimTime::ZERO + SimDuration::from_micros(rng.gen_range(0..1_000_000)), i);
    }
    ns_per_op(budget, |n| {
        for _ in 0..n {
            let (at, ev) = q.pop().expect("depth stays constant");
            q.schedule(at + SimDuration::from_micros(rng.gen_range(1..1_000_000)), black_box(ev));
        }
    })
}

/// A node that does nothing but pass a token on: what is left when the
/// runtime dispatches an event is pure `Runtime` cost.
struct PingNode {
    peers: u64,
    hops: u64,
}

#[derive(Clone)]
struct Ping;

impl Wire for Ping {
    fn wire_size(&self) -> usize {
        40
    }
}

impl Node for PingNode {
    type Msg = Ping;
    type Timer = ();

    fn on_start(&mut self, _ctx: &mut Ctx<'_, Ping, ()>) {}

    fn on_message(&mut self, _from: Addr, msg: Ping, ctx: &mut Ctx<'_, Ping, ()>) {
        // A multiplicative stride scatters the token over the node map.
        self.hops += 1;
        let me = ctx.self_addr().raw();
        let next = (me.wrapping_mul(2_654_435_761).wrapping_add(self.hops)) % self.peers + 1;
        ctx.send(Addr::from_raw(next), msg);
    }

    fn on_timer(&mut self, _timer: (), _ctx: &mut Ctx<'_, Ping, ()>) {}
}

/// `n` no-op nodes with one token each in flight. The tokens start once
/// every node exists: a send to an address not yet spawned is dropped.
fn ping_ring(n: usize, seed: u64) -> Runtime<PingNode, UniformLatency> {
    let mut rt = Runtime::new(UniformLatency::new(n, SimDuration::from_millis(10)), seed);
    let addrs: Vec<Addr> =
        (0..n).map(|i| rt.spawn(HostId(i), PingNode { peers: n as u64, hops: 0 })).collect();
    for (i, &a) in addrs.iter().enumerate() {
        rt.invoke(a, |_, ctx| ctx.send(addrs[(i + 1) % n], Ping));
    }
    rt
}

/// Nanoseconds per dispatched event with `n` no-op nodes and `n` tokens
/// in flight.
fn null_event_ns(n: usize, seed: u64, budget: Duration) -> f64 {
    let mut rt = ping_ring(n, seed);
    ns_per_op(budget, |events| {
        for _ in 0..events {
            black_box(rt.step());
        }
    })
}

fn delay_ns<L: LatencyModel>(model: &mut L, seed: u64, budget: Duration) -> f64 {
    let hosts = model.num_hosts();
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs: Vec<(HostId, HostId)> = (0..4096)
        .map(|_| (HostId(rng.gen_range(0..hosts)), HostId(rng.gen_range(0..hosts))))
        .collect();
    ns_per_op(budget, |n| {
        for i in 0..n as usize {
            let (a, b) = pairs[i % pairs.len()];
            black_box(model.delay(a, b, 8192));
        }
    })
}

/// A sink holding every chord and DHT metric, as a finished run leaves it.
fn populated_sink(registry: &Registry) -> MetricsSink {
    let mut sink = MetricsSink::new();
    for (i, d) in registry.entries().iter().enumerate() {
        match d.kind {
            MetricKind::Counter => sink.count(d.name, 1000 + i as u64),
            MetricKind::Histogram => {
                for v in 0..2000 {
                    sink.record(d.name, f64::from(v) * 0.37);
                }
            }
        }
    }
    sink
}

/// Runs every kernel; `per_kernel` is each one's time budget.
pub fn run_all(seed: u64, per_kernel: Duration) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let b = per_kernel;

    out.insert("sim.queue.hold_ns_d4k", queue_hold_ns(4096, seed, b));
    out.insert("sim.queue.hold_ns_d64k", queue_hold_ns(65_536, seed, b));
    out.insert("sim.null_event_ns_n1740", null_event_ns(1740, seed, b));
    out.insert("sim.null_event_ns_n20k", null_event_ns(20_000, seed, b));

    let mut sink = MetricsSink::new();
    out.insert(
        "sim.metrics.record_ns",
        ns_per_op(b, |n| {
            for i in 0..n {
                sink.count("lookup.issued", 1);
                sink.record("lookup.latency_ms", i as f64);
            }
            // Bound the histogram so the kernel times recording, not growth.
            sink = MetricsSink::new();
        }) / 2.0,
    );

    out.insert("net.king.build_s", build_s(|| KingMatrix::synthetic(1740, 198.0, seed)));
    let mut king = KingMatrix::synthetic(1740, 198.0, seed);
    out.insert("net.king.delay_ns", delay_ns(&mut king, seed, b));
    let ts_cfg = || TransitStubConfig { hosts: 256, ..TransitStubConfig::default() };
    out.insert("net.transit_stub.build_s", build_s(|| TransitStub::generate(ts_cfg(), seed)));
    let mut stub = TransitStub::generate(ts_cfg(), seed);
    out.insert("net.transit_stub.delay_ns", delay_ns(&mut stub, seed, b));

    let mut ca = CertificateAuthority::new(seed);
    let mut next_id = 0u128;
    out.insert(
        "crypto.issue_ns",
        ns_per_op(b, |n| {
            for _ in 0..n {
                next_id += 1;
                black_box(ca.issue(next_id, NodeType::A));
            }
        }),
    );
    let (cert, pair) = ca.issue(7, NodeType::B);
    let verifier = ca.verifier();
    out.insert(
        "crypto.verify_ns",
        ns_per_op(b, |n| {
            for _ in 0..n {
                black_box(black_box(&cert).verify(&verifier));
            }
        }),
    );
    out.insert(
        "crypto.seal_open_ns",
        ns_per_op(b, |n| {
            for i in 0..n {
                let sealed = Sealed::seal(pair.public(), black_box(i));
                black_box(sealed.open(&pair).expect("sealed for this key"));
            }
        }),
    );

    let profile = LoadProfile {
        blocks: 256,
        clients: 32,
        read_fraction: 0.8,
        ..LoadProfile::zipf_poisson(200.0)
    };
    let seeds = SeedSource::new(seed);
    let horizon = SimDuration::from_secs(10);
    let ops_per_call = generate_schedule(&profile, &seeds, horizon).len().max(1) as f64;
    out.insert(
        "load.schedule_ns_per_op",
        ns_per_op(b, |n| {
            for _ in 0..n {
                black_box(generate_schedule(&profile, &seeds, horizon));
            }
        }) / ops_per_call,
    );

    let mut registry = Registry::new();
    registry.register_all(verme_chord::keys::descriptors());
    registry.register_all(verme_dht::keys::descriptors());
    let sink = populated_sink(&registry);
    let keys = registry.entries().len().max(1) as f64;
    out.insert(
        "obs.export_ns_per_key",
        ns_per_op(b, |n| {
            for _ in 0..n {
                black_box(registry.export_ndjson(&sink));
            }
        }) / keys,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_reports_a_positive_finite_time() {
        let out = run_all(3, Duration::from_millis(10));
        let mut names = NAMES.to_vec();
        names.sort_unstable();
        assert_eq!(out.keys().copied().collect::<Vec<_>>(), names);
        for (name, v) in out {
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
    }

    #[test]
    fn ping_nodes_keep_one_token_each_in_flight() {
        let n = 50;
        let mut rt = ping_ring(n, 1);
        for _ in 0..1000 {
            assert!(rt.step());
            assert_eq!(rt.pending_events(), n);
        }
    }
}
