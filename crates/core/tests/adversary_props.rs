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
//!
//! And the misrouting relay: whatever it diverts a lookup to is one of its
//! forward routing peers, as on Chord.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use verme_chord::{keys, Byzantine, ByzantineConfig, Id, NodeHandle};
use verme_core::{SectionLayout, VermeConfig, VermeNode, VermeStaticRing};
use verme_crypto::CertificateAuthority;
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, HostId, ProtoEvent, Runtime, SeedSource, SimDuration, SimTime, TraceKind};

const N: usize = 12;

type Ring = Runtime<VermeNode<()>, UniformLatency>;

/// Spawns a converged static ring whose successor and predecessor lists
/// both span the whole membership, returning the runtime and the
/// ground-truth handles (addresses `1..=N` in id order).
fn spawn_full_knowledge(seed: u64) -> (Ring, Vec<NodeHandle>) {
    spawn_ring(seed, N - 1)
}

/// As [`spawn_full_knowledge`], with `list_len` successors and as many
/// predecessors a node.
fn spawn_ring(seed: u64, list_len: usize) -> (Ring, Vec<NodeHandle>) {
    let layout = SectionLayout::with_sections(4, 2);
    let cfg = VermeConfig {
        num_successors: list_len,
        num_predecessors: list_len,
        ..VermeConfig::new(layout)
    };
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

    /// A relay that misroutes every lookup it is handed diverts it to a
    /// successor-list or finger entry — a next hop it could defend —
    /// never to a node it only knows as a predecessor. Lists are two
    /// entries long, so a node's predecessors are not its successors.
    #[test]
    fn a_misrouting_relay_diverts_to_forward_routing_peers_only(
        seed in 0u64..1_000_000,
        relay in 0..N,
    ) {
        let (mut rt, truth) = spawn_ring(seed, 2);
        let relay = truth[relay].addr;
        let cfg = ByzantineConfig {
            drop_fraction: 0.0,
            misroute_fraction: 1.0,
            hijack_fraction: 0.0,
            poison: false,
            seed,
        };
        rt.node_mut(relay).unwrap().set_behaviour(Box::new(Byzantine::new(cfg)));
        // Hop 0 is a node's own lookup leaving; anything later, it relays.
        let relayed: Rc<RefCell<Vec<Addr>>> = Rc::default();
        let sink = relayed.clone();
        rt.set_tracer(Some(Box::new(move |ev| {
            if let TraceKind::Proto { node, event: ProtoEvent::LookupHop { to, hop, .. } } = ev.kind {
                if node == relay && hop > 0 {
                    sink.borrow_mut().push(to);
                }
            }
        })));
        let mut rng = SeedSource::new(seed).stream("keys");
        for source in truth.iter().map(|h| h.addr).filter(|&a| a != relay) {
            for _ in 0..4 {
                let key = Id::random(&mut rng);
                rt.invoke(source, |n, ctx| n.start_replica_lookup(key, None, ctx)).unwrap();
            }
        }
        rt.run_until(SimTime::ZERO + SimDuration::from_secs(10));

        let node = rt.node(relay).unwrap();
        let mut forward = node.successor_list().to_vec();
        forward.extend(node.finger_table().distinct());
        prop_assume!(!relayed.borrow().is_empty());
        for to in relayed.borrow().iter() {
            prop_assert!(
                forward.iter().any(|h| h.addr == *to),
                "relay {relay:?} diverted to {to:?}, not among its successors and fingers {forward:?}"
            );
        }
    }
}
