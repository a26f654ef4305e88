//! The routing-table poisoning defense, on Verme: the properties of
//! `crates/chord/tests/adversary_props.rs` for `VermeNode`, whose
//! stabilization rebuilds *two* lists from every advertisement.
//!
//! Same regime: twelve nodes over four sections of two types, successor
//! and predecessor lists both spanning the whole membership, so every
//! addr→id binding is known everywhere and `sanitize_advert` gives a total
//! guarantee — provided a poisoning neighbor cannot *shrink* the lists the
//! check relies on. Rejecting its rebound entries empties the advertised
//! tail; without the refill from previously vetted entries the rebuilt
//! list collapses to its head, the forgotten addresses are no longer
//! known, and the next poisoned advert rebinds them.

use proptest::prelude::*;

use verme_chord::{keys, Byzantine, ByzantineConfig, NodeHandle};
use verme_core::{SectionLayout, VermeConfig, VermeNode, VermeStaticRing};
use verme_crypto::CertificateAuthority;
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, HostId, Runtime, SimDuration, SimTime};

const N: usize = 12;

type Ring = Runtime<VermeNode<()>, UniformLatency>;

/// Spawns a converged static ring whose successor and predecessor lists
/// both span the whole membership, returning the runtime and the
/// ground-truth handles (addresses `1..=N` in id order).
fn spawn_full_knowledge(seed: u64) -> (Ring, Vec<NodeHandle>) {
    let layout = SectionLayout::with_sections(4, 2);
    let cfg =
        VermeConfig { num_successors: N - 1, num_predecessors: N - 1, ..VermeConfig::new(layout) };
    let ring = VermeStaticRing::generate(layout, N, seed);
    let mut ca = CertificateAuthority::new(seed);
    let mut rt = Runtime::new(UniformLatency::new(N, SimDuration::from_millis(20)), seed);
    for i in 0..N {
        let addr = rt.spawn(HostId(i), ring.build_node(i, cfg.clone(), &mut ca));
        assert_eq!(addr, ring.node(i).addr, "spawn order must reproduce addresses");
    }
    (rt, ring.nodes().to_vec())
}

/// Asserts every binding in `node`'s routing state matches ground truth,
/// and that its successor list still spans the membership.
fn assert_bindings_clean(node: &VermeNode<()>, truth: &[NodeHandle]) {
    let lookup = |addr: Addr| truth.iter().find(|h| h.addr == addr).map(|h| h.id);
    let check = |h: &NodeHandle, where_: &str| {
        assert_eq!(
            lookup(h.addr),
            Some(h.id),
            "{where_} of {:?} holds a rebound entry: {h:?} vs ground truth {:?}",
            node.handle(),
            lookup(h.addr)
        );
    };
    for h in node.successor_list() {
        check(h, "successor list");
    }
    for h in node.predecessor_list() {
        check(h, "predecessor list");
    }
    for h in node.finger_table().distinct() {
        check(&h, "finger table");
    }
    assert_eq!(
        node.successor_list().len(),
        N - 1,
        "{:?}: a poisoning successor shrank the list the binding check relies on",
        node.handle()
    );
}

proptest! {
    /// Poisoning adversaries (pure poison: no drops, misroutes, or
    /// hijacks, so routing state is shaped only by advertisements) never
    /// rebind a known address on any honest node, never shorten an honest
    /// successor list — and each poisoned advert is counted by the
    /// `ring.poisoned_entries` detector.
    #[test]
    fn poisoned_advertisements_are_rejected(
        seed in 0u64..1_000_000,
        // Non-empty, not-all-ones adversary bitmask over the N nodes.
        mask in 1u16..((1u16 << N) - 1),
        epochs in 2u64..6,
    ) {
        let (mut rt, truth) = spawn_full_knowledge(seed);
        let adversaries: Vec<Addr> = (0..N)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| Addr::from_raw(i as u64 + 1))
            .collect();
        for &a in &adversaries {
            let cfg = ByzantineConfig {
                drop_fraction: 0.0,
                misroute_fraction: 0.0,
                hijack_fraction: 0.0,
                poison: true,
                seed: seed ^ a.raw(),
            };
            rt.node_mut(a).unwrap().set_behaviour(Box::new(Byzantine::new(cfg)));
        }
        // Let several stabilization rounds (30 s cadence) flow poisoned
        // advertisements at every honest node.
        rt.run_until(SimTime::ZERO + SimDuration::from_secs(30 * epochs + 5));

        for i in 0..N {
            let addr = Addr::from_raw(i as u64 + 1);
            if adversaries.contains(&addr) {
                continue; // Adversaries poison their *own* state freely.
            }
            assert_bindings_clean(rt.node(addr).unwrap(), &truth);
        }
        // At least one honest node stabilized against an adversary (any
        // adversary run has an honest neighbor), so the detector must
        // have counted.
        prop_assert!(
            rt.metrics().counter(keys::RING_POISONED) > 0,
            "no poisoned advertisement was ever rejected"
        );
    }

    /// The honest control: with no adversary installed the same rings
    /// stay clean and the poison detector never materializes a count.
    #[test]
    fn honest_rings_never_trip_the_poison_detector(seed in 0u64..1_000_000) {
        let (mut rt, truth) = spawn_full_knowledge(seed);
        rt.run_until(SimTime::ZERO + SimDuration::from_secs(95));
        for i in 0..N {
            assert_bindings_clean(rt.node(Addr::from_raw(i as u64 + 1)).unwrap(), &truth);
        }
        prop_assert_eq!(rt.metrics().counter(keys::RING_POISONED), 0);
    }
}
