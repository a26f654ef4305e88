//! Property tests for the routing-table poisoning defense: on a ring
//! where every node's successor list covers the whole membership (so
//! every addr→id binding is *known* everywhere), an arbitrary subset of
//! poisoning adversaries running for arbitrary stabilization epochs can
//! never rebind a single entry in any honest node's routing state.
//!
//! The full-knowledge setup is the regime where `sanitize_advert` gives a
//! total guarantee: a poisoned entry always conflicts with a known
//! binding and is dropped before integration. (With partial knowledge
//! the filter is best-effort — the `extK_adversary` bench measures how
//! much leaks through at scale.)

use proptest::prelude::*;

use verme_chord::{
    keys, Byzantine, ByzantineConfig, ChordConfig, ChordNode, NodeHandle, RingNode, StaticRing,
};
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, Runtime, SimDuration, SimTime};

const N: usize = 12;

/// Spawns a converged static ring whose successor lists span the whole
/// membership, returning the runtime and the ground-truth handles.
fn spawn_full_knowledge(seed: u64) -> (Runtime<ChordNode, UniformLatency>, Vec<NodeHandle>) {
    let cfg = ChordConfig { num_successors: N - 1, ..ChordConfig::default() };
    let mut rt = Runtime::new(UniformLatency::new(N, SimDuration::from_millis(20)), seed);
    let ring = StaticRing::random(N, seed);
    ring.spawn(&mut rt, |pos| ring.build_node(pos, cfg.clone()));
    (rt, ring.nodes().to_vec())
}

/// Asserts every binding in `node`'s routing state matches ground truth,
/// and that its successor list still spans the membership.
fn assert_bindings_clean(node: &ChordNode, truth: &[NodeHandle]) {
    let lookup = |addr: Addr| truth.iter().find(|h| h.addr == addr).map(|h| h.id);
    let check = |h: &NodeHandle, where_: &str| {
        assert_eq!(
            lookup(h.addr),
            Some(h.id),
            "{where_} holds a rebound entry: {:?} vs ground truth {:?}",
            h,
            lookup(h.addr)
        );
    };
    for h in node.successor_list() {
        check(h, "successor list");
    }
    if let Some(p) = node.predecessor() {
        check(&p, "predecessor");
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
        // adversary run has an honest predecessor), so the detector must
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
