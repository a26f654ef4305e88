//! Property-based tests over the core data structures and the paper's
//! invariants, spanning all workspace crates.

use proptest::prelude::*;

use verme::chord::{Id, NeighborList, NodeHandle};
use verme::core::{SectionLayout, VermeStaticRing};
use verme::crypto::{CertificateAuthority, NodeType, Sealed};
use verme::dht::{block_key, verify_block, Block};
use verme::sim::Addr;

proptest! {
    // ------------------------------------------------------------------
    // Identifier arithmetic
    // ------------------------------------------------------------------

    #[test]
    fn distance_is_inverse_of_add(a: u128, d: u128) {
        let id = Id::new(a);
        prop_assert_eq!(id.distance_to(id.wrapping_add(d)), d);
        prop_assert_eq!(id.wrapping_add(d).wrapping_sub(d), id);
    }

    #[test]
    fn interval_membership_is_consistent(x: u128, a: u128, b: u128) {
        let (x, a, b) = (Id::new(x), Id::new(a), Id::new(b));
        // (a,b] = (a,b) ∪ {b} for distinct endpoints; the whole circle
        // when a == b.
        let expect = if a == b { true } else { x.in_open_open(a, b) || x == b };
        prop_assert_eq!(x.in_open_closed(a, b), expect);
        // x ∈ (a,b) ⇒ x ∉ [b,a) — the two arcs are disjoint.
        if a != b && x.in_open_open(a, b) {
            prop_assert!(!x.in_closed_open(b, a));
        }
    }

    #[test]
    fn exactly_one_arc_contains_every_point(x: u128, a: u128, b: u128) {
        prop_assume!(a != b);
        let (x, a, b) = (Id::new(x), Id::new(a), Id::new(b));
        prop_assume!(x != a && x != b);
        // The circle splits into (a,b) and (b,a) plus the endpoints.
        prop_assert!(x.in_open_open(a, b) ^ x.in_open_open(b, a));
    }

    // ------------------------------------------------------------------
    // Neighbor lists
    // ------------------------------------------------------------------

    #[test]
    fn successor_list_is_sorted_and_bounded(owner: u128, ids in prop::collection::vec(any::<u128>(), 0..40)) {
        let owner = Id::new(owner);
        let mut list = NeighborList::successors(owner, 10);
        for (i, id) in ids.iter().enumerate() {
            list.integrate(NodeHandle::new(Id::new(*id), Addr::from_raw(i as u64 + 1)));
        }
        prop_assert!(list.len() <= 10);
        let dists: Vec<u128> =
            list.iter().map(|h| owner.distance_to(h.id)).collect();
        for w in dists.windows(2) {
            prop_assert!(w[0] < w[1], "list must be strictly ordered by distance");
        }
        prop_assert!(list.iter().all(|h| h.id != owner));
    }

    #[test]
    fn predecessor_list_mirrors_successor_order(owner: u128, ids in prop::collection::vec(any::<u128>(), 1..40)) {
        let owner = Id::new(owner);
        let mut preds = NeighborList::predecessors(owner, 10);
        for (i, id) in ids.iter().enumerate() {
            preds.integrate(NodeHandle::new(Id::new(*id), Addr::from_raw(i as u64 + 1)));
        }
        let dists: Vec<u128> = preds.iter().map(|h| h.id.distance_to(owner)).collect();
        for w in dists.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    // ------------------------------------------------------------------
    // Section layout invariants (paper §3/§4.3)
    // ------------------------------------------------------------------

    #[test]
    fn assigned_ids_round_trip_their_type(section_bits_sel in 0u32..5, raw: u128, ty_a: bool) {
        let sections = 16u128 << section_bits_sel;
        let layout = SectionLayout::with_sections(sections, 2);
        let ty = if ty_a { NodeType::A } else { NodeType::B };
        let id = layout.embed_type(Id::new(raw), ty);
        prop_assert_eq!(layout.type_of(id), ty);
        prop_assert!(layout.section_of(id) < layout.num_sections());
    }

    #[test]
    fn adjacent_sections_differ_in_type(section_bits_sel in 0u32..5, s: u128) {
        let sections = 16u128 << section_bits_sel;
        let layout = SectionLayout::with_sections(sections, 2);
        let s = s % layout.num_sections();
        let here = layout.type_of(layout.section_start(s));
        let next = layout.type_of(layout.section_start((s + 1) % layout.num_sections()));
        prop_assert_ne!(here, next);
    }

    #[test]
    fn long_finger_targets_are_opposite_typed(raw: u128, ty_a: bool, bit_off in 0u32..6) {
        let layout = SectionLayout::with_sections(256, 2);
        let ty = if ty_a { NodeType::A } else { NodeType::B };
        let id = layout.embed_type(Id::new(raw), ty);
        let i = layout.section_bits() + 1 + bit_off;
        prop_assume!(i < Id::BITS);
        let target = layout.finger_target(id, i);
        prop_assert_ne!(layout.type_of(target), ty);
    }

    #[test]
    fn paired_replica_points_differ_in_type(raw: u128) {
        let layout = SectionLayout::with_sections(64, 2);
        let key = Id::new(raw);
        prop_assert_ne!(
            layout.type_of(key),
            layout.type_of(layout.paired_replica_point(key))
        );
    }

    // ------------------------------------------------------------------
    // Static ring ground truth
    // ------------------------------------------------------------------

    #[test]
    fn replicas_always_share_key_section_type(seed: u64, raw: u128) {
        let layout = SectionLayout::with_sections(8, 2);
        let ring = VermeStaticRing::generate(layout, 128, seed);
        let key = Id::new(raw);
        for idx in ring.replica_indices(key, 3) {
            prop_assert_eq!(ring.type_of_index(idx), layout.type_of(key));
            prop_assert!(layout.same_section(ring.node(idx).id, key));
        }
    }

    #[test]
    fn corner_responsible_is_in_key_section(seed: u64, raw: u128) {
        let layout = SectionLayout::with_sections(8, 2);
        let ring = VermeStaticRing::generate(layout, 128, seed);
        let key = Id::new(raw);
        if let Some(i) = ring.corner_responsible_index(key) {
            prop_assert!(layout.same_section(ring.node(i).id, key));
        }
    }

    #[test]
    fn worm_view_invariant_on_random_rings(seed: u64) {
        // §3: no routing entry may name a same-type node outside the
        // owner's section.
        let layout = SectionLayout::with_sections(8, 2);
        let ring = VermeStaticRing::generate(layout, 192, seed);
        for i in 0..ring.len() {
            let my_ty = ring.type_of_index(i);
            let my_sec = ring.section_of_index(i);
            for j in ring.distinct_finger_indices(i) {
                if ring.type_of_index(j) == my_ty {
                    prop_assert_eq!(ring.section_of_index(j), my_sec);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Crypto and blocks
    // ------------------------------------------------------------------

    #[test]
    fn sealed_envelopes_only_open_for_their_recipient(seed: u64, payload: u64) {
        let mut ca = CertificateAuthority::new(seed);
        let (_c1, k1) = ca.issue(1, NodeType::A);
        let (_c2, k2) = ca.issue(2, NodeType::B);
        let env = Sealed::seal(k1.public(), payload);
        prop_assert!(env.clone().open(&k2).is_err());
        prop_assert_eq!(env.open(&k1).unwrap(), payload);
    }

    #[test]
    fn certificates_never_verify_across_cas(seed_a: u64, seed_b: u64, id: u128) {
        prop_assume!(seed_a != seed_b);
        let mut ca_a = CertificateAuthority::new(seed_a);
        let ca_b = CertificateAuthority::new(seed_b);
        let (cert, _) = ca_a.issue(id, NodeType::A);
        prop_assert!(cert.verify(&ca_a.verifier()));
        prop_assert!(!cert.verify(&ca_b.verifier()));
    }

    #[test]
    fn block_hashing_is_injective_in_practice(a in prop::collection::vec(any::<u8>(), 0..64),
                                              b in prop::collection::vec(any::<u8>(), 0..64)) {
        let (ba, bb) = (bytes::Bytes::from(a.clone()), bytes::Bytes::from(b.clone()));
        let (ka, kb) = (block_key(&ba), block_key(&bb));
        prop_assert_eq!(a == b, ka == kb);
        prop_assert!(verify_block(ka, &ba));
        if a != b {
            prop_assert!(!verify_block(ka, &bb));
        }
    }

    #[test]
    fn block_agrees_with_the_free_functions(v in prop::collection::vec(any::<u8>(), 0..64),
                                            other in prop::collection::vec(any::<u8>(), 0..64)) {
        let (v, other) = (bytes::Bytes::from(v), bytes::Bytes::from(other));
        let block = Block::new(v.clone());
        prop_assert_eq!(block.key(), block_key(&v));
        // Against its own key and against a key it was not built from.
        for k in [block_key(&v), block_key(&other)] {
            prop_assert_eq!(block.verifies(k), verify_block(k, &v));
        }
        prop_assert_eq!(&block.clone(), &block);
        prop_assert_eq!(block.len(), v.len());
        prop_assert_eq!(block.into_value(), v);
    }
}

proptest! {
    #[test]
    fn tracker_invariant_holds_for_any_population(
        n in 4usize..200,
        island in 2usize..40,
        seed: u64,
    ) {
        use verme::core::{assign_type_aware, TrackerConfig};
        use verme::crypto::NodeType;
        let types: Vec<NodeType> =
            (0..n).map(|i| if i % 2 == 0 { NodeType::A } else { NodeType::B }).collect();
        let cfg = TrackerConfig {
            island_size: island,
            same_type_neighbors: (island - 1).min(6),
            cross_type_neighbors: 4,
        };
        let a = assign_type_aware(&types, &cfg, seed);
        prop_assert!(a.invariant_violations(&types).is_empty());
        // Every neighbor index is in range and never self.
        for (i, list) in a.neighbors.iter().enumerate() {
            for &j in list {
                prop_assert!((j as usize) < n && j as usize != i);
            }
        }
    }
}
