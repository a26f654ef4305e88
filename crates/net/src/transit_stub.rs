//! A GT-ITM-style transit-stub topology with bandwidth.
//!
//! The paper's §7.2 (DHT get/put) experiments switched from the King matrix
//! to "the GT-ITM model \[26\]" because King has no bandwidth information.
//! This module implements the transit-stub structural model of Zegura,
//! Calvert and Bhattacharjee from scratch:
//!
//! * a core of *transit domains*, internally meshed and interconnected;
//! * *stub domains* hanging off each transit router;
//! * end hosts attached to stub routers by access links.
//!
//! Pairwise delay is the shortest router path plus both access links;
//! bulk transfers additionally pay `bytes / bottleneck_bandwidth`
//! serialization time along that path. Both quantities are precomputed with
//! Floyd–Warshall at construction.

use rand::Rng;

use verme_sim::{HostId, LatencyModel, SeedSource, SimDuration};

/// Number of transit (core) domains.
const TRANSIT_DOMAINS: usize = 4;
/// Routers per transit domain.
const TRANSIT_NODES_PER_DOMAIN: usize = 4;
/// Stub domains attached to each transit router.
const STUB_DOMAINS_PER_TRANSIT: usize = 3;
/// Routers per stub domain.
const STUB_NODES_PER_DOMAIN: usize = 4;
/// Number of transit routers.
const TRANSIT_ROUTERS: usize = TRANSIT_DOMAINS * TRANSIT_NODES_PER_DOMAIN;
/// Total number of routers, transit and stub.
const ROUTERS: usize =
    TRANSIT_ROUTERS + TRANSIT_ROUTERS * STUB_DOMAINS_PER_TRANSIT * STUB_NODES_PER_DOMAIN;
/// Latency of an inter-domain core link, in milliseconds.
const TRANSIT_TRANSIT_MS: f64 = 34.0;
/// Latency of an intra-domain core link, in milliseconds.
const TRANSIT_INTRA_MS: f64 = 10.0;
/// Latency of a transit→stub uplink, in milliseconds.
const TRANSIT_STUB_MS: f64 = 8.0;
/// Latency of an intra-stub link, in milliseconds.
const STUB_INTRA_MS: f64 = 2.0;
/// Latency of a host access link, in milliseconds.
const HOST_ACCESS_MS: f64 = 1.0;
/// Bandwidth of core links, bits per second.
const CORE_BW_BPS: f64 = 1e9;
/// Bandwidth of stub links, bits per second.
const STUB_BW_BPS: f64 = 100e6;
/// Bandwidth of host access links, bits per second.
const ACCESS_BW_BPS: f64 = 256e3;
/// Multiplicative jitter applied to each link's latency, drawn once per
/// link from `U(1-JITTER, 1+JITTER)`.
const JITTER: f64 = 0.2;

/// The one parameter of a [`TransitStub`] topology: how many end hosts
/// attach to it.
///
/// The routers and links are fixed: a 2009-flavoured Internet with a
/// 16-router core, 192 stub routers, 1 Gbit/s core links, 100 Mbit/s
/// stub links and 256 kbit/s access links. The access figure is the
/// residential ADSL *uplink* of the period — the binding constraint for
/// peer-to-peer transfers — and it is what makes an 8 KiB DHash block
/// cost ~256 ms per hop it crosses, the effect Figures 6/7 measure.
#[derive(Clone, Debug, PartialEq)]
pub struct TransitStubConfig {
    /// Number of end hosts (attached at random to stub routers).
    pub hosts: usize,
}

impl Default for TransitStubConfig {
    fn default() -> Self {
        TransitStubConfig { hosts: 1024 }
    }
}

/// A transit-stub latency + bandwidth model.
///
/// # Example
///
/// ```
/// use verme_net::{TransitStub, TransitStubConfig};
/// use verme_sim::{HostId, LatencyModel};
///
/// let cfg = TransitStubConfig { hosts: 64 };
/// let mut net = TransitStub::generate(cfg, 7);
/// let small = net.delay(HostId(0), HostId(63), 100);
/// let bulk = net.delay(HostId(0), HostId(63), 8192);
/// assert!(bulk > small, "bulk transfers pay serialization time");
/// ```
#[derive(Clone, Debug)]
pub struct TransitStub {
    hosts: usize,
    /// Stub router each host attaches to.
    host_router: Vec<usize>,
    /// Per-host access latency (ms), jittered.
    host_access_ms: Vec<f32>,
    access_bw_bps: f64,
    /// Router-pair shortest-path latency (ms), row-major `R×R`.
    dist_ms: Vec<f32>,
    /// Bottleneck bandwidth (bps) along the shortest path, row-major `R×R`.
    path_bw: Vec<f32>,
}

impl TransitStub {
    /// Generates a topology from `config`, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `config.hosts` is zero.
    pub fn generate(config: TransitStubConfig, seed: u64) -> Self {
        assert!(config.hosts > 0, "invalid transit-stub config: need at least one host");
        let mut rng = SeedSource::new(seed).stream("transit-stub");

        const INF: f32 = f32::INFINITY;
        let mut dist = vec![INF; ROUTERS * ROUTERS];
        let mut bw = vec![0f32; ROUTERS * ROUTERS];
        let add_edge = |dist: &mut Vec<f32>,
                        bw: &mut Vec<f32>,
                        a: usize,
                        b: usize,
                        ms: f64,
                        link_bw: f64,
                        rng: &mut rand::rngs::StdRng| {
            let jit = 1.0 + JITTER * (rng.gen::<f64>() * 2.0 - 1.0);
            let ms = (ms * jit) as f32;
            let idx1 = a * ROUTERS + b;
            let idx2 = b * ROUTERS + a;
            if ms < dist[idx1] {
                dist[idx1] = ms;
                dist[idx2] = ms;
                bw[idx1] = link_bw as f32;
                bw[idx2] = link_bw as f32;
            }
        };

        // Transit domains: full mesh inside each domain.
        for d in 0..TRANSIT_DOMAINS {
            let base = d * TRANSIT_NODES_PER_DOMAIN;
            for i in 0..TRANSIT_NODES_PER_DOMAIN {
                for j in (i + 1)..TRANSIT_NODES_PER_DOMAIN {
                    add_edge(
                        &mut dist,
                        &mut bw,
                        base + i,
                        base + j,
                        TRANSIT_INTRA_MS,
                        CORE_BW_BPS,
                        &mut rng,
                    );
                }
            }
        }
        // Inter-domain core links: one random representative pair per
        // domain pair, which keeps the core connected and small-diameter.
        for d1 in 0..TRANSIT_DOMAINS {
            for d2 in (d1 + 1)..TRANSIT_DOMAINS {
                let a = d1 * TRANSIT_NODES_PER_DOMAIN + rng.gen_range(0..TRANSIT_NODES_PER_DOMAIN);
                let b = d2 * TRANSIT_NODES_PER_DOMAIN + rng.gen_range(0..TRANSIT_NODES_PER_DOMAIN);
                add_edge(&mut dist, &mut bw, a, b, TRANSIT_TRANSIT_MS, CORE_BW_BPS, &mut rng);
            }
        }
        // Stub domains: ring + gateway uplink to the parent transit router.
        let mut stub_router = TRANSIT_ROUTERS;
        for t in 0..TRANSIT_ROUTERS {
            for _ in 0..STUB_DOMAINS_PER_TRANSIT {
                let base = stub_router;
                let n = STUB_NODES_PER_DOMAIN;
                for i in 0..n {
                    for j in (i + 1)..n {
                        add_edge(
                            &mut dist,
                            &mut bw,
                            base + i,
                            base + j,
                            STUB_INTRA_MS,
                            STUB_BW_BPS,
                            &mut rng,
                        );
                    }
                }
                // The first router of the domain is the gateway.
                add_edge(&mut dist, &mut bw, base, t, TRANSIT_STUB_MS, STUB_BW_BPS, &mut rng);
                stub_router += n;
            }
        }
        debug_assert_eq!(stub_router, ROUTERS);

        // Floyd–Warshall on latency; carry bottleneck bandwidth along the
        // chosen shortest path.
        for r in 0..ROUTERS {
            dist[r * ROUTERS + r] = 0.0;
            bw[r * ROUTERS + r] = f32::INFINITY;
        }
        for k in 0..ROUTERS {
            for i in 0..ROUTERS {
                let dik = dist[i * ROUTERS + k];
                if dik.is_infinite() {
                    continue;
                }
                for j in 0..ROUTERS {
                    let through = dik + dist[k * ROUTERS + j];
                    if through < dist[i * ROUTERS + j] {
                        dist[i * ROUTERS + j] = through;
                        bw[i * ROUTERS + j] = bw[i * ROUTERS + k].min(bw[k * ROUTERS + j]);
                    }
                }
            }
        }
        debug_assert!(dist.iter().all(|d| d.is_finite()), "topology must be connected");

        // Attach hosts to stub routers (uniformly at random).
        let stub_range = TRANSIT_ROUTERS..ROUTERS;
        let mut host_router = Vec::with_capacity(config.hosts);
        let mut host_access_ms = Vec::with_capacity(config.hosts);
        for _ in 0..config.hosts {
            host_router.push(rng.gen_range(stub_range.clone()));
            let jit = 1.0 + JITTER * (rng.gen::<f64>() * 2.0 - 1.0);
            host_access_ms.push((HOST_ACCESS_MS * jit) as f32);
        }

        TransitStub {
            hosts: config.hosts,
            host_router,
            host_access_ms,
            access_bw_bps: ACCESS_BW_BPS,
            dist_ms: dist,
            path_bw: bw,
        }
    }

    /// One-way propagation latency between two hosts in milliseconds
    /// (excluding serialization time).
    ///
    /// # Panics
    ///
    /// Panics if either host is out of range.
    pub fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        assert!(a.0 < self.hosts && b.0 < self.hosts, "host out of range");
        if a == b {
            return 0.05;
        }
        let (ra, rb) = (self.host_router[a.0], self.host_router[b.0]);
        self.host_access_ms[a.0] as f64
            + self.dist_ms[ra * ROUTERS + rb] as f64
            + self.host_access_ms[b.0] as f64
    }

    /// Bottleneck bandwidth between two hosts in bits per second.
    pub fn bottleneck_bps(&self, a: HostId, b: HostId) -> f64 {
        assert!(a.0 < self.hosts && b.0 < self.hosts, "host out of range");
        if a == b {
            return f64::INFINITY;
        }
        let (ra, rb) = (self.host_router[a.0], self.host_router[b.0]);
        let path = self.path_bw[ra * ROUTERS + rb] as f64;
        path.min(self.access_bw_bps)
    }

    /// Number of routers in the generated topology.
    pub fn num_routers(&self) -> usize {
        ROUTERS
    }
}

impl LatencyModel for TransitStub {
    fn delay(&mut self, from: HostId, to: HostId, bytes: usize) -> SimDuration {
        let prop_ms = self.latency_ms(from, to);
        let ser_s =
            if from == to { 0.0 } else { bytes as f64 * 8.0 / self.bottleneck_bps(from, to) };
        SimDuration::from_secs_f64(prop_ms / 1e3 + ser_s)
    }

    fn num_hosts(&self) -> usize {
        self.hosts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TransitStub {
        TransitStub::generate(TransitStubConfig { hosts: 32 }, 11)
    }

    #[test]
    fn generates_expected_router_count() {
        let net = small();
        assert_eq!(net.num_routers(), 16 + 16 * 3 * 4);
        assert_eq!(net.num_hosts(), 32);
    }

    #[test]
    fn connected_and_symmetric() {
        let net = small();
        for a in 0..32 {
            for b in 0..32 {
                let l = net.latency_ms(HostId(a), HostId(b));
                assert!(l.is_finite() && l > 0.0);
                assert_eq!(l, net.latency_ms(HostId(b), HostId(a)));
            }
        }
    }

    #[test]
    fn triangle_inequality_holds_on_router_paths() {
        // Shortest paths must satisfy d(a,c) <= d(a,b) + d(b,c) at the
        // router level (host access links add equally to both sides, so
        // test via router distances directly).
        let net = small();
        let r = ROUTERS;
        for i in (0..r).step_by(7) {
            for j in (0..r).step_by(5) {
                for k in (0..r).step_by(11) {
                    let dij = net.dist_ms[i * r + j];
                    let dik = net.dist_ms[i * r + k];
                    let dkj = net.dist_ms[k * r + j];
                    assert!(dij <= dik + dkj + 1e-3);
                }
            }
        }
    }

    #[test]
    fn bulk_transfers_pay_serialization() {
        let mut net = small();
        let (a, b) = (HostId(0), HostId(31));
        let small_d = net.delay(a, b, 100);
        let bulk_d = net.delay(a, b, 8192);
        // 8 KiB at a 256 kbit/s access bottleneck is ~250 ms extra.
        let extra_ms = bulk_d.as_millis_f64() - small_d.as_millis_f64();
        assert!(extra_ms > 200.0, "expected ≥200 ms serialization, got {extra_ms}");
    }

    #[test]
    fn bottleneck_is_access_link() {
        let net = small();
        let bw = net.bottleneck_bps(HostId(0), HostId(1));
        assert!(bw <= 256e3 + 1.0, "access link should be the bottleneck");
        assert!(net.bottleneck_bps(HostId(3), HostId(3)).is_infinite());
    }

    #[test]
    fn deterministic_by_seed() {
        let a = TransitStub::generate(TransitStubConfig { hosts: 16 }, 5);
        let b = TransitStub::generate(TransitStubConfig { hosts: 16 }, 5);
        let c = TransitStub::generate(TransitStubConfig { hosts: 16 }, 6);
        assert_eq!(a.latency_ms(HostId(0), HostId(15)), b.latency_ms(HostId(0), HostId(15)));
        // Different seeds virtually always differ on some pair.
        let diff = (0..16)
            .any(|i| a.latency_ms(HostId(0), HostId(i)) != c.latency_ms(HostId(0), HostId(i)));
        assert!(diff);
    }

    #[test]
    fn local_delay_is_tiny() {
        let mut net = small();
        assert!(net.delay(HostId(2), HostId(2), 1 << 20).as_millis_f64() < 1.0);
    }
}
