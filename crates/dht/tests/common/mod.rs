//! Ring builders shared by the integration tests: a converged static
//! Chord ring of DHash nodes, and a converged static Verme ring of any
//! VerDi variant.
#![allow(dead_code)] // each test file uses its own subset

use verme_chord::{ChordConfig, StaticRing};
use verme_core::{Payload, SectionLayout, VermeConfig, VermeNode, VermeStaticRing};
use verme_crypto::CertificateAuthority;
use verme_dht::{DhashNode, DhtConfig, DhtEngine, Variant};
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, LatencyModel, Runtime, SimDuration};

/// Per-hop one-way latency of the uniform test network.
pub const HOP: SimDuration = SimDuration::from_millis(20);

/// A spawned ring: the runtime and the nodes' addresses in ring order.
pub type Ring<N, L = UniformLatency> = (Runtime<N, L>, Vec<Addr>);

/// Eight sections, two node types.
pub fn layout() -> SectionLayout {
    SectionLayout::with_sections(8, 2)
}

/// `n` DHash nodes on a converged Chord ring; `addrs[i]` is ring position `i`.
pub fn spawn_dhash(n: usize, seed: u64, cfg: &DhtConfig) -> Ring<DhashNode> {
    let ring = StaticRing::random(n, seed);
    let mut rt = Runtime::new(UniformLatency::new(n, HOP), seed);
    let addrs = ring.spawn(&mut rt, |pos| {
        DhashNode::new(ring.build_node(pos, ChordConfig::default()), cfg.clone())
    });
    (rt, addrs)
}

/// `n` nodes of VerDi variant `V` on a converged Verme ring over `net`;
/// `addrs[i]` is ring position `i`.
pub fn spawn_verdi_on<V, P, L>(
    net: L,
    n: usize,
    seed: u64,
    cfg: &DhtConfig,
) -> Ring<DhtEngine<V>, L>
where
    V: Variant<Overlay = VermeNode<P>>,
    P: Payload,
    L: LatencyModel,
{
    let ring = VermeStaticRing::generate(layout(), n, seed);
    let mut ca = CertificateAuthority::new(seed);
    let mut rt = Runtime::new(net, seed);
    let addrs = ring.spawn(&mut rt, |i| {
        DhtEngine::<V>::new(ring.build_node(i, VermeConfig::new(layout()), &mut ca), cfg.clone())
    });
    (rt, addrs)
}

/// [`spawn_verdi_on`] the uniform test network.
pub fn spawn_verdi<V, P>(n: usize, seed: u64, cfg: &DhtConfig) -> Ring<DhtEngine<V>>
where
    V: Variant<Overlay = VermeNode<P>>,
    P: Payload,
{
    spawn_verdi_on(UniformLatency::new(n, HOP), n, seed, cfg)
}

/// True if the ring [`spawn_verdi`] builds for `(n, seed)` has a member in
/// every section. On a small ring a section can come out empty, and a put
/// whose replica point falls there fails by design.
pub fn every_section_populated(n: usize, seed: u64) -> bool {
    let lay = layout();
    let ring = VermeStaticRing::generate(lay, n, seed);
    let populated: std::collections::BTreeSet<u128> =
        (0..n).map(|i| lay.section_of(ring.node(i).id)).collect();
    populated.len() as u128 == lay.num_sections()
}
