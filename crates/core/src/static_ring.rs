//! Instant construction of fully-converged Verme rings.
//!
//! A [`VermeStaticRing`] is a [`StaticRing`] whose finger rule is its
//! [`SectionLayout`]: the one finger walk, aimed one section further and
//! resolved by the §4.4 corner rule, gives every member its *type-aware*
//! finger table. What only Verme has sits here: typed id generation,
//! converged nodes with their certificates, and the ground-truth queries
//! the experiments need (responsible node, replica sets, section
//! membership, eclipse clusters).

use std::collections::HashSet;

use rand::Rng;

use verme_chord::{Id, NodeHandle, StaticRing};
use verme_crypto::{CertificateAuthority, NodeType};
use verme_sim::{Addr, SeedSource};

use crate::layout::SectionLayout;
use crate::node::VermeNode;
use crate::proto::{Payload, VermeConfig};

/// A sorted Verme ring membership with ground-truth routing queries: a
/// [`StaticRing`] under the layout that types its sections, which it
/// dereferences to for membership, successor search, finger tables and
/// [`spawn`](StaticRing::spawn).
///
/// # Example
///
/// ```
/// use verme_core::{audit_static_ring, SectionLayout, VermeStaticRing};
///
/// let layout = SectionLayout::with_sections(64, 2);
/// let ring = VermeStaticRing::generate(layout, 256, 42);
/// assert_eq!(ring.len(), 256);
/// // No finger names a same-type node outside its owner's section.
/// assert!(audit_static_ring(&ring, 0).is_clean());
/// ```
#[derive(Clone, Debug)]
pub struct VermeStaticRing {
    members: StaticRing<SectionLayout>,
}

impl std::ops::Deref for VermeStaticRing {
    type Target = StaticRing<SectionLayout>;

    fn deref(&self) -> &StaticRing<SectionLayout> {
        &self.members
    }
}

impl VermeStaticRing {
    /// Generates `n` members with an even split across the layout's types,
    /// ids drawn deterministically from `seed`, and addresses
    /// `1..=n` **in id order** ([`spawn`](StaticRing::spawn) reproduces
    /// them under a fresh runtime, in ring order, so a shared
    /// [`CertificateAuthority`] issues in ring order).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn generate(layout: SectionLayout, n: usize, seed: u64) -> Self {
        assert!(n > 0, "a ring needs at least one node");
        let types = layout.type_count() as usize;
        Self::generate_by(layout, n, seed, |i| NodeType::new((i % types) as u8))
    }

    /// Like [`generate`](VermeStaticRing::generate), but with an uneven
    /// two-type split: a fraction `frac_a` of members get type A (the
    /// §7.1.1 "uneven distribution of node types" experiment).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `frac_a` is outside `(0, 1)`.
    pub fn generate_with_split(layout: SectionLayout, n: usize, frac_a: f64, seed: u64) -> Self {
        assert!(frac_a > 0.0 && frac_a < 1.0, "split fraction must be in (0,1)");
        let cut = (n as f64 * frac_a).round() as usize;
        Self::generate_by(layout, n, seed, move |i| if i < cut { NodeType::A } else { NodeType::B })
    }

    fn generate_by(
        layout: SectionLayout,
        n: usize,
        seed: u64,
        type_of: impl Fn(usize) -> NodeType,
    ) -> Self {
        assert!(n > 0, "a ring needs at least one node");
        let mut rng = SeedSource::new(seed).stream("verme-ring-ids");
        let mut ids = distinct_ids(n, |slot| layout.assign_id(&mut rng, type_of(slot)));
        ids.sort_by_key(|id| id.raw());
        let handles = ids
            .into_iter()
            .enumerate()
            .map(|(i, id)| NodeHandle::new(id, Addr::from_raw(i as u64 + 1)))
            .collect();
        Self::from_handles(layout, handles)
    }

    /// Builds a ring from pre-assigned handles (ids must embed their types
    /// under `layout`).
    ///
    /// # Panics
    ///
    /// Panics if `handles` is empty or contains duplicate ids.
    pub fn from_handles(layout: SectionLayout, handles: Vec<NodeHandle>) -> Self {
        VermeStaticRing { members: StaticRing::with_rule(layout, handles) }
    }

    /// The layout this ring was built under.
    pub fn layout(&self) -> &SectionLayout {
        self.rule()
    }

    /// The platform type of member `i`.
    pub fn type_of_index(&self, i: usize) -> NodeType {
        self.layout().type_of(self.node(i).id)
    }

    /// The section number of member `i`.
    pub fn section_of_index(&self, i: usize) -> u128 {
        self.layout().section_of(self.node(i).id)
    }

    /// §4.4 responsibility: the successor of `key` if it lies in `key`'s
    /// section; otherwise the predecessor. Returns `None` when neither
    /// lies in `key`'s section (an unpopulated section).
    pub fn corner_responsible_index(&self, key: Id) -> Option<usize> {
        let s = self.successor_index(key);
        self.layout().corner_owner(key, s, Some(self.predecessor_index(s)), |&j| self.node(j).id)
    }

    /// §5.2 replica placement for `key`: up to `r` member indices, within
    /// `key`'s section, successors-first with the predecessor corner rule.
    pub fn replica_indices(&self, key: Id, r: usize) -> Vec<usize> {
        let (n, start) = (self.len(), self.successor_index(key));
        let in_section = |i: &usize| self.layout().same_section(self.node(*i).id, key);
        let fwd: Vec<usize> =
            (0..n).map(|d| (start + d) % n).take_while(in_section).take(r).collect();
        if !fwd.is_empty() {
            return fwd;
        }
        // Corner: replicate toward predecessors.
        (1..n).map(|d| (start + n - d) % n).take_while(in_section).take(r).collect()
    }

    /// Member indices belonging to `section`, in id order.
    pub fn section_members(&self, section: u128) -> Vec<usize> {
        let (n, first) = (self.len(), self.successor_index(self.layout().section_start(section)));
        (0..n)
            .map(|d| (first + d) % n)
            .take_while(|&i| self.section_of_index(i) == section)
            .collect()
    }

    /// Builds a fully-converged [`VermeNode`] for position `i`, issuing
    /// its certificate from `ca`.
    pub fn build_node<P: Payload>(
        &self,
        i: usize,
        cfg: VermeConfig,
        ca: &mut CertificateAuthority,
    ) -> VermeNode<P> {
        let me = self.node(i);
        let ty = self.layout().type_of(me.id);
        let (cert, keys) = ca.issue(me.id.raw(), ty);
        let succs = self.successors_of(i, cfg.num_successors);
        let preds = self.predecessors_of(i, cfg.num_predecessors);
        let fingers = self.fingers_of(i);
        VermeNode::with_state(cfg, cert, keys, ca.verifier(), &preds, &succs, &fingers)
    }

    /// The `k` member indices of type `ty` nearest (by circular id
    /// distance) to the midpoint of `target_section`, nearest first.
    ///
    /// This is the eclipse-cluster placement used by the adversary
    /// experiments: an attacker concentrating Sybil identities around one
    /// section corrupts exactly these positions, saturating the routing
    /// entries that point into the section. Draws no randomness — the
    /// same ring and arguments always yield the same cluster.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `k` members have type `ty` or the section is
    /// out of range.
    pub fn eclipse_cluster(&self, target_section: u128, ty: NodeType, k: usize) -> Vec<usize> {
        let width = 1u128 << self.layout().section_bits();
        let mid = self.layout().section_start(target_section).raw().wrapping_add(width / 2);
        let mut of_type: Vec<usize> =
            (0..self.len()).filter(|&i| self.type_of_index(i) == ty).collect();
        assert!(of_type.len() >= k, "only {} members of type {ty}, need {k}", of_type.len());
        of_type.sort_by_key(|&i| {
            let d = self.node(i).id.raw().wrapping_sub(mid);
            d.min(0u128.wrapping_sub(d))
        });
        of_type.truncate(k);
        of_type
    }

    /// A uniformly random member index of the given type.
    ///
    /// # Panics
    ///
    /// Panics if no member has that type.
    pub fn random_index_of_type(&self, ty: NodeType, rng: &mut impl Rng) -> usize {
        assert!((0..self.len()).any(|i| self.type_of_index(i) == ty), "no member of type {ty}");
        loop {
            let i = rng.gen_range(0..self.len());
            if self.type_of_index(i) == ty {
                return i;
            }
        }
    }
}

/// Draws until `n` distinct ids are held: `draw(slot)` proposes an id for
/// position `slot` of the (still unsorted) result, and a proposal already
/// held is discarded and the slot drawn again. The set only answers "seen
/// before?" and is freed on return, before the caller sorts.
fn distinct_ids(n: usize, mut draw: impl FnMut(usize) -> Id) -> Vec<Id> {
    let mut ids: Vec<Id> = Vec::with_capacity(n);
    let mut seen: HashSet<u128> = HashSet::with_capacity(n);
    while ids.len() < n {
        let id = draw(ids.len());
        if seen.insert(id.raw()) {
            ids.push(id);
        }
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::audit_static_ring;
    use proptest::prelude::*;
    use verme_sim::Runtime;

    /// The id assignment this module used before the linear one: the
    /// duplicate check is a scan of the ids drawn so far (O(n²)).
    fn reference_distinct_ids(n: usize, mut draw: impl FnMut(usize) -> Id) -> Vec<Id> {
        let mut ids: Vec<Id> = Vec::with_capacity(n);
        while ids.len() < n {
            let id = draw(ids.len());
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        ids
    }

    /// `generate_by` over [`reference_distinct_ids`].
    fn reference_generate(
        layout: SectionLayout,
        n: usize,
        seed: u64,
        type_of: impl Fn(usize) -> NodeType,
    ) -> Vec<NodeHandle> {
        let mut rng = SeedSource::new(seed).stream("verme-ring-ids");
        let mut ids = reference_distinct_ids(n, |slot| layout.assign_id(&mut rng, type_of(slot)));
        ids.sort_by_key(|id| id.raw());
        ids.into_iter()
            .enumerate()
            .map(|(i, id)| NodeHandle::new(id, Addr::from_raw(i as u64 + 1)))
            .collect()
    }

    fn ring_sizes() -> impl Strategy<Value = usize> {
        prop::sample::select(vec![1usize, 2, 3, 17, 256, 2_000])
    }

    proptest! {
        #[test]
        fn linear_id_assignment_equals_the_quadratic_reference(
            n in ring_sizes(),
            seed: u64,
            split_permille in 1u32..1000,
        ) {
            let two = SectionLayout::with_sections(64, 2);
            prop_assert_eq!(
                VermeStaticRing::generate(two, n, seed).nodes().to_vec(),
                reference_generate(two, n, seed, |i| NodeType::new((i % 2) as u8))
            );
            let four = SectionLayout::with_sections(64, 4);
            prop_assert_eq!(
                VermeStaticRing::generate(four, n, seed).nodes().to_vec(),
                reference_generate(four, n, seed, |i| NodeType::new((i % 4) as u8))
            );
            let frac_a = f64::from(split_permille) / 1000.0;
            let cut = (n as f64 * frac_a).round() as usize;
            prop_assert_eq!(
                VermeStaticRing::generate_with_split(two, n, frac_a, seed).nodes().to_vec(),
                reference_generate(two, n, seed, |i| if i < cut { NodeType::A } else { NodeType::B })
            );
        }

        /// 128-bit draws never collide in practice, so the redraw arm is
        /// driven here from a space small enough that most draws do.
        #[test]
        fn colliding_draws_are_redrawn_like_the_reference(
            n in 1usize..60,
            draws in prop::collection::vec(0u128..64, 4_000..4_001),
        ) {
            let propose = |k: &mut usize, slot: usize| {
                *k += 1;
                Id::new(draws[*k - 1] * 2 + (slot % 2) as u128)
            };
            let (mut k_new, mut k_ref) = (0, 0);
            prop_assert_eq!(
                distinct_ids(n, |slot| propose(&mut k_new, slot)),
                reference_distinct_ids(n, |slot| propose(&mut k_ref, slot))
            );
            prop_assert_eq!(k_new, k_ref, "both consumed the same number of draws");
        }
    }

    /// An accidental return to quadratic id assignment or per-bit searches
    /// must fail here, not wait for the benchmark: 20 000 members took
    /// 0.09 s to assign alone before, and take a few milliseconds now.
    #[test]
    fn generating_twenty_thousand_members_is_fast() {
        if cfg!(debug_assertions) {
            return; // unoptimised builds are an order of magnitude slower
        }
        let started = std::time::Instant::now();
        let ring = VermeStaticRing::generate(SectionLayout::with_sections(1024, 2), 20_000, 42);
        let took = started.elapsed();
        assert_eq!(ring.len(), 20_000);
        assert!(took.as_secs_f64() < 0.25, "generate(20 000) took {took:?}");
    }

    fn small() -> VermeStaticRing {
        VermeStaticRing::generate(SectionLayout::with_sections(32, 2), 256, 7)
    }

    #[test]
    fn generation_is_deterministic_and_balanced() {
        let a = VermeStaticRing::generate(SectionLayout::with_sections(32, 2), 100, 3);
        let b = VermeStaticRing::generate(SectionLayout::with_sections(32, 2), 100, 3);
        assert_eq!(a.nodes(), b.nodes());
        let type_a = (0..100).filter(|&i| a.type_of_index(i) == NodeType::A).count();
        assert_eq!(type_a, 50);
    }

    #[test]
    fn long_fingers_are_type_safe() {
        assert!(audit_static_ring(&small(), 0).is_clean());
    }

    #[test]
    fn successor_lists_span_at_most_two_sections() {
        // §4.3: with properly sized sections (the paper provisions 13–24
        // nodes per section against 10-entry successor lists), successor
        // lists never span more than two sections — so a worm reading
        // them learns only its own section plus opposite-type nodes.
        let ring = VermeStaticRing::generate(SectionLayout::with_sections(16, 2), 256, 7);
        for i in 0..ring.len() {
            let succs = ring.successors_of(i, 10);
            let mut sections: Vec<u128> =
                succs.iter().map(|h| ring.layout().section_of(h.id)).collect();
            sections.push(ring.section_of_index(i));
            sections.sort_unstable();
            sections.dedup();
            assert!(
                sections.len() <= 3,
                "node {i}'s successor list spans {} sections",
                sections.len()
            );
        }
    }

    #[test]
    fn corner_rule_keeps_responsibility_in_section() {
        let ring = small();
        let mut rng = SeedSource::new(5).stream("keys");
        for _ in 0..200 {
            let key = Id::random(&mut rng);
            if let Some(r) = ring.corner_responsible_index(key) {
                assert!(
                    ring.layout().same_section(ring.node(r).id, key),
                    "responsible node is outside the key's section"
                );
            }
        }
    }

    #[test]
    fn replicas_stay_in_section_and_prefer_successors() {
        let ring = small();
        let mut rng = SeedSource::new(9).stream("keys");
        for _ in 0..200 {
            let key = Id::random(&mut rng);
            let reps = ring.replica_indices(key, 3);
            for &r in &reps {
                assert!(ring.layout().same_section(ring.node(r).id, key));
            }
            // All replicas share the key's section type.
            for &r in &reps {
                assert_eq!(ring.type_of_index(r), ring.layout().type_of(key));
            }
        }
    }

    #[test]
    fn section_members_partition_the_ring() {
        let ring = small();
        let mut total = 0;
        for s in 0..ring.layout().num_sections() {
            let members = ring.section_members(s);
            for &m in &members {
                assert_eq!(ring.section_of_index(m), s);
            }
            total += members.len();
        }
        assert_eq!(total, ring.len());
    }

    #[test]
    fn predecessors_mirror_successors() {
        let ring = small();
        let p = ring.predecessors_of(10, 3);
        assert_eq!(p[0], ring.node(9));
        assert_eq!(p[1], ring.node(8));
        assert_eq!(p[2], ring.node(7));
    }

    #[test]
    fn distinct_fingers_are_opposite_type_mostly() {
        let ring = small();
        for i in (0..ring.len()).step_by(17) {
            let my_ty = ring.type_of_index(i);
            let d = ring.distinct_finger_indices(i);
            assert!(!d.is_empty());
            // Long fingers (the overwhelming majority) must be opposite
            // type; short fingers may reach the next (opposite) section
            // or stay in-section. Count violations of "same type AND
            // different section" — there must be none.
            for &j in &d {
                if ring.type_of_index(j) == my_ty {
                    assert_eq!(
                        ring.section_of_index(j),
                        ring.section_of_index(i),
                        "same-type finger outside own section"
                    );
                }
            }
        }
    }

    #[test]
    fn build_node_is_converged_and_type_checked() {
        let ring = small();
        let mut ca = CertificateAuthority::new(1);
        let node: VermeNode = ring.build_node(5, VermeConfig::new(*ring.layout()), &mut ca);
        assert!(node.is_joined());
        assert_eq!(node.id(), ring.node(5).id);
        assert_eq!(node.node_type(), ring.type_of_index(5));
        assert_eq!(node.successor_list()[0], ring.node(6));
        assert_eq!(node.predecessor_list()[0], ring.node(4));
    }

    /// At the benchmark's `ring_scale` size a table of 128 whole handles
    /// (4 KiB) would be most of a node; a member has ~15 distinct fingers,
    /// which take 168 bytes inline and 24 a handle for a capacity of 16.
    #[test]
    fn a_node_of_twenty_thousand_holds_its_fingers_in_a_kibibyte() {
        let layout = SectionLayout::with_sections(1024, 2);
        let ring = VermeStaticRing::generate(layout, 20_000, 42);
        let mut ca = CertificateAuthority::new(42);
        for i in [0, 1, 9_999, 19_999] {
            let node: VermeNode = ring.build_node(i, VermeConfig::new(layout), &mut ca);
            let fingers = node.finger_table();
            assert!(fingers.distinct().len() >= 10, "member {i}: a converged table is populated");
            assert!(
                fingers.footprint_bytes() <= 168 + 16 * 24,
                "member {i}: {} distinct fingers in {} bytes",
                fingers.distinct().len(),
                fingers.footprint_bytes()
            );
        }
    }

    #[test]
    fn uneven_split_produces_requested_fractions() {
        let ring =
            VermeStaticRing::generate_with_split(SectionLayout::with_sections(16, 2), 200, 0.3, 5);
        let a = (0..200).filter(|&i| ring.type_of_index(i) == NodeType::A).count();
        assert_eq!(a, 60);
        assert!(audit_static_ring(&ring, 0).is_clean());
    }

    #[test]
    fn eclipse_cluster_is_deterministic_nearest_first_and_typed() {
        let ring = small();
        let a = ring.eclipse_cluster(3, NodeType::A, 8);
        let b = ring.eclipse_cluster(3, NodeType::A, 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        let width = 1u128 << ring.layout().section_bits();
        let mid = ring.layout().section_start(3).raw().wrapping_add(width / 2);
        let dist = |i: usize| {
            let d = ring.node(i).id.raw().wrapping_sub(mid);
            d.min(0u128.wrapping_sub(d))
        };
        for (x, y) in a.iter().zip(a.iter().skip(1)) {
            assert!(dist(*x) <= dist(*y), "cluster not ordered nearest-first");
        }
        for &i in &a {
            assert_eq!(ring.type_of_index(i), NodeType::A);
        }
        let furthest = dist(*a.last().unwrap());
        for i in 0..ring.len() {
            if ring.type_of_index(i) == NodeType::A && !a.contains(&i) {
                assert!(dist(i) >= furthest, "excluded a closer type-A member");
            }
        }
    }

    #[test]
    fn random_index_of_type_returns_that_type() {
        let ring = small();
        let mut rng = SeedSource::new(11).stream("pick");
        for _ in 0..20 {
            let i = ring.random_index_of_type(NodeType::B, &mut rng);
            assert_eq!(ring.type_of_index(i), NodeType::B);
        }
    }

    /// The one type-A member of 20 000 is found whatever the draws: a cap
    /// of 10 000 draws missed it for about three seeds in five.
    #[test]
    fn random_index_of_type_finds_a_lone_member() {
        let layout = SectionLayout::with_sections(16, 2);
        let ring = VermeStaticRing::generate_with_split(layout, 20_000, 1.0 / 20_000.0, 3);
        let lone = (0..ring.len()).find(|&i| ring.type_of_index(i) == NodeType::A);
        for seed in 0..8 {
            let mut rng = SeedSource::new(seed).stream("pick");
            assert_eq!(Some(ring.random_index_of_type(NodeType::A, &mut rng)), lone, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "no member of type")]
    fn random_index_of_type_panics_without_a_member() {
        let ring = VermeStaticRing::generate(SectionLayout::with_sections(16, 2), 1, 3);
        ring.random_index_of_type(NodeType::B, &mut SeedSource::new(1).stream("pick"));
    }

    fn runtime(hosts: usize) -> Runtime<VermeNode<()>, verme_sim::runtime::UniformLatency> {
        let net = verme_sim::runtime::UniformLatency::new(hosts, verme_sim::SimDuration::ZERO);
        Runtime::new(net, 1)
    }

    #[test]
    fn spawn_returns_the_handles_addresses_by_ring_position() {
        // Handles whose addresses run against ring order: the first
        // spawned is the last ring position.
        let generated = small();
        let n = generated.len();
        let reversed = generated
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, h)| NodeHandle::new(h.id, Addr::from_raw((n - i) as u64)))
            .collect();
        let ring = VermeStaticRing::from_handles(*generated.layout(), reversed);
        let mut ca = CertificateAuthority::new(5);
        let mut rt = runtime(n);
        let mut built = Vec::new();
        let addrs = ring.spawn(&mut rt, |pos| {
            built.push(pos);
            ring.build_node(pos, VermeConfig::new(*ring.layout()), &mut ca)
        });
        assert_eq!(built, (0..n).rev().collect::<Vec<_>>(), "built in address order");
        assert_eq!(addrs, ring.nodes().iter().map(|h| h.addr).collect::<Vec<_>>());
        for (pos, &addr) in addrs.iter().enumerate() {
            assert_eq!(rt.node(addr).expect("spawned").handle(), ring.node(pos));
            assert_eq!(rt.host_of(addr), Some(verme_sim::HostId(addr.raw() as usize - 1)));
        }
    }

    #[test]
    #[should_panic(expected = "runtime assigned a different address")]
    fn spawn_into_a_used_runtime_panics() {
        let ring = small();
        let cfg = VermeConfig::new(*ring.layout());
        let mut ca = CertificateAuthority::new(5);
        let mut rt = runtime(ring.len());
        rt.spawn(verme_sim::HostId(0), ring.build_node(0, cfg.clone(), &mut ca));
        ring.spawn(&mut rt, |pos| ring.build_node(pos, cfg.clone(), &mut ca));
    }
}
