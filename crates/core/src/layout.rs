//! Verme's sectioned identifier layout (paper §4.3, Figure 2).
//!
//! A Verme identifier has three parts, from most to least significant:
//!
//! ```text
//! [ random high bits | type bits | random low bits ]
//! ```
//!
//! The low `section_bits` are random and define the *length* of a section;
//! the middle `type_bits` encode the platform type; the high bits are
//! random. The concatenation `high ‖ type` is the *section number*, so
//! walking the ring, consecutive sections cycle through every type — with
//! one type bit they strictly alternate A, B, A, B, … exactly as Figure 2
//! requires ("neighboring sections must always belong to different types").
//!
//! The same layout defines the modified finger rule of §4.4: a finger at
//! distance `2^i` would land in a *same-type* section whenever
//! `2^i ≥ 2 · section_len` (adding a multiple of twice the section length
//! preserves the type bits), so those targets are shifted forward by one
//! section length to flip the type. Shorter fingers land in the node's own
//! section or the subsequent (opposite-type) one and are left alone.

use rand::Rng;
use serde::{Deserialize, Serialize};
use verme_chord::{FingerRule, Id};
use verme_crypto::NodeType;

/// The bit-field layout dividing the ring into typed sections.
///
/// # Example
///
/// ```
/// use verme_core::SectionLayout;
/// use verme_crypto::NodeType;
///
/// // The paper's Figure 8 setup: 4096 sections, two types.
/// let layout = SectionLayout::with_sections(4096, 2);
/// assert_eq!(layout.num_sections(), 4096);
/// let mut rng = rand::thread_rng();
/// let id = layout.assign_id(&mut rng, NodeType::A);
/// assert_eq!(layout.type_of(id), NodeType::A);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SectionLayout {
    section_bits: u32,
    type_bits: u32,
}

impl SectionLayout {
    /// Creates a layout with the given number of random low bits per
    /// section and type bits (type count = 2^type_bits).
    ///
    /// # Panics
    ///
    /// Panics unless `type_bits ≥ 1` and
    /// `section_bits + type_bits < Id::BITS`.
    pub fn new(section_bits: u32, type_bits: u32) -> Self {
        assert!(type_bits >= 1, "need at least one type bit");
        assert!(type_bits <= 7, "type count beyond 128 is unsupported");
        assert!(
            section_bits + type_bits < Id::BITS,
            "section and type bits must leave room for high bits"
        );
        SectionLayout { section_bits, type_bits }
    }

    /// Creates a layout with exactly `sections` sections (must be a power
    /// of two) and `types` platform types (must be a power of two dividing
    /// `sections`).
    ///
    /// # Panics
    ///
    /// Panics if either argument is not a power of two, `types < 2`, or
    /// `sections < 2 · types` (the high bits above the type bits need at
    /// least one bit).
    pub fn with_sections(sections: u128, types: u8) -> Self {
        assert!(sections.is_power_of_two(), "section count must be a power of two");
        assert!(types >= 2 && types.is_power_of_two(), "type count must be a power of two ≥ 2");
        assert!(sections > types as u128, "need at least two sections per type");
        let prefix_bits = sections.trailing_zeros();
        let type_bits = types.trailing_zeros();
        SectionLayout::new(Id::BITS - prefix_bits, type_bits)
    }

    /// Number of random low bits (log2 of the section length).
    pub fn section_bits(&self) -> u32 {
        self.section_bits
    }

    /// Number of type bits.
    pub fn type_bits(&self) -> u32 {
        self.type_bits
    }

    /// Number of platform types.
    pub fn type_count(&self) -> u8 {
        1u8 << self.type_bits
    }

    /// The identifier-space length of one section.
    pub fn section_len(&self) -> u128 {
        1u128 << self.section_bits
    }

    /// Total number of sections on the ring.
    pub fn num_sections(&self) -> u128 {
        1u128 << (Id::BITS - self.section_bits)
    }

    /// Draws a fresh identifier for a node of type `ty`: random high bits,
    /// the type in the middle, random low bits.
    pub fn assign_id(&self, rng: &mut impl Rng, ty: NodeType) -> Id {
        assert!(ty.index() < self.type_count(), "type {ty} out of range");
        let raw: u128 = rng.gen();
        self.embed_type(Id::new(raw), ty)
    }

    /// Overwrites the type bits of `id` with `ty` (used by tests and by
    /// deterministic id construction).
    pub fn embed_type(&self, id: Id, ty: NodeType) -> Id {
        let tb = self.type_bits as u128;
        let sb = self.section_bits as u128;
        let type_mask = ((1u128 << tb) - 1) << sb;
        let raw = (id.raw() & !type_mask) | ((ty.index() as u128) << sb);
        Id::new(raw)
    }

    /// The platform type encoded in `id`'s middle bits.
    pub fn type_of(&self, id: Id) -> NodeType {
        let ty = (id.raw() >> self.section_bits) & ((1u128 << self.type_bits) - 1);
        NodeType::new(ty as u8)
    }

    /// The section number `id` belongs to (high bits ‖ type bits).
    pub fn section_of(&self, id: Id) -> u128 {
        id.raw() >> self.section_bits
    }

    /// The first identifier of section `section`.
    ///
    /// # Panics
    ///
    /// Panics if `section` is out of range.
    pub fn section_start(&self, section: u128) -> Id {
        assert!(section < self.num_sections(), "section out of range");
        Id::new(section << self.section_bits)
    }

    /// True if `a` and `b` lie in the same section.
    pub fn same_section(&self, a: Id, b: Id) -> bool {
        self.section_of(a) == self.section_of(b)
    }

    /// Verme's finger target for bit `i` (paper §4.4): `id + 2^i`, shifted
    /// forward by one section length when the plain target would land in a
    /// same-type section (that is, whenever `2^i ≥ 2 · section_len`).
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ Id::BITS`.
    pub fn finger_target(&self, id: Id, i: u32) -> Id {
        assert!(i < Id::BITS, "finger index {i} out of range");
        let base = id.wrapping_add(1u128 << i);
        if i > self.section_bits {
            base.wrapping_add(self.section_len())
        } else {
            base
        }
    }

    /// Verme's finger rule (§4.4), written only here: `target`'s finger is
    /// its plain `successor` if that lies in the target's section, else the
    /// successor's `predecessor` if it does, else nobody (the next section
    /// is never named). `id` reads a candidate's identifier; a finger
    /// answer is checked as the successor, with no predecessor.
    pub fn corner_owner<T>(
        &self,
        target: Id,
        successor: T,
        predecessor: Option<T>,
        id: impl Fn(&T) -> Id,
    ) -> Option<T> {
        if self.same_section(id(&successor), target) {
            return Some(successor);
        }
        predecessor.filter(|p| self.same_section(id(p), target))
    }

    /// The §3 containment check: `owner` may name `entry` in its routing
    /// state unless `entry` is a same-type node outside `owner`'s section.
    pub fn admissible(&self, owner: Id, entry: Id) -> bool {
        self.type_of(entry) != self.type_of(owner) || self.same_section(entry, owner)
    }

    /// The bit `i` whose [`finger_target`](Self::finger_target) of `of` is
    /// `key`, if any, in closed form. With `d = key − of`, a bit up to
    /// `section_bits` has `d = 2^i`, and a longer one `d = 2^i +
    /// section_len` — two set bits, never a power of two — so at most one
    /// bit matches.
    pub fn finger_index(&self, of: Id, key: Id) -> Option<u32> {
        let d = of.distance_to(key);
        if d.is_power_of_two() && d.trailing_zeros() <= self.section_bits {
            return Some(d.trailing_zeros());
        }
        let long = d.wrapping_sub(self.section_len());
        (long.is_power_of_two() && long.trailing_zeros() > self.section_bits)
            .then(|| long.trailing_zeros())
    }

    /// True if `key` equals some legal Verme finger target of `of` —
    /// the check a replier performs on finger-refresh lookups (§4.5).
    pub fn is_finger_target(&self, of: Id, key: Id) -> bool {
        self.finger_index(of, key).is_some()
    }

    /// The replica point paired with `key`: the same offset in the
    /// subsequent section (which has a different type). VerDi replicates
    /// `n/2` copies at `key` and `n/2` here (paper §5.2, Figure 4).
    pub fn paired_replica_point(&self, key: Id) -> Id {
        key.wrapping_add(self.section_len())
    }

    /// Given a key and the type that must *not* be returned (the
    /// initiator's claimed type), picks the replica point whose section
    /// type differs: `key` itself, or the paired point (Fast-VerDi's
    /// "adds the section length to the id being looked up if necessary").
    pub fn replica_point_avoiding(&self, key: Id, avoid: NodeType) -> Id {
        if self.type_of(key) == avoid {
            self.paired_replica_point(key)
        } else {
            key
        }
    }
}

/// Verme's finger rule: [`finger_target`](SectionLayout::finger_target)'s
/// targets, one section further than Chord's once they span a section
/// pair, resolved by [`corner_owner`](SectionLayout::corner_owner).
impl FingerRule for SectionLayout {
    fn target(&self, id: Id, b: u32) -> Id {
        self.finger_target(id, b)
    }

    fn resolve<T>(&self, target: Id, s: T, p: Option<T>, id: impl Fn(&T) -> Id) -> Option<T> {
        self.corner_owner(target, s, p, id)
    }

    /// The rest of `id`'s own section: a target there is resolved within it.
    fn alike_reach(&self, id: Id) -> u128 {
        let low = self.section_len() - 1;
        low - (id.raw() & low)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn with_sections_matches_paper_setups() {
        // §7.1: 128 sections; §7.3: 4096 sections.
        let fig5 = SectionLayout::with_sections(128, 2);
        assert_eq!(fig5.num_sections(), 128);
        assert_eq!(fig5.type_count(), 2);
        assert_eq!(fig5.section_bits(), 121);
        let fig8 = SectionLayout::with_sections(4096, 2);
        assert_eq!(fig8.num_sections(), 4096);
        assert_eq!(fig8.section_bits(), 116);
    }

    #[test]
    fn assigned_ids_carry_their_type() {
        let l = SectionLayout::with_sections(256, 2);
        let mut r = rng();
        for _ in 0..100 {
            let a = l.assign_id(&mut r, NodeType::A);
            let b = l.assign_id(&mut r, NodeType::B);
            assert_eq!(l.type_of(a), NodeType::A);
            assert_eq!(l.type_of(b), NodeType::B);
        }
    }

    #[test]
    fn neighboring_sections_alternate_types() {
        let l = SectionLayout::with_sections(64, 2);
        for s in 0..l.num_sections() {
            let here = l.type_of(l.section_start(s));
            let next = l.type_of(l.section_start((s + 1) % l.num_sections()));
            assert_ne!(here, next, "sections {s} and {} share a type", s + 1);
        }
    }

    #[test]
    fn four_types_cycle() {
        let l = SectionLayout::with_sections(64, 4);
        assert_eq!(l.type_count(), 4);
        let types: Vec<u8> = (0..8).map(|s| l.type_of(l.section_start(s)).index()).collect();
        assert_eq!(types, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn section_of_respects_boundaries() {
        let l = SectionLayout::with_sections(16, 2);
        let s3 = l.section_start(3);
        assert_eq!(l.section_of(s3), 3);
        assert_eq!(l.section_of(Id::new(s3.raw() + l.section_len() - 1)), 3);
        assert_eq!(l.section_of(Id::new(s3.raw() + l.section_len())), 4);
        assert!(l.same_section(s3, Id::new(s3.raw() + 17)));
    }

    #[test]
    fn long_fingers_flip_type_short_fingers_do_not() {
        let l = SectionLayout::with_sections(1024, 2);
        let mut r = rng();
        for _ in 0..50 {
            let id = l.assign_id(&mut r, NodeType::A);
            for i in 0..Id::BITS {
                let target = l.finger_target(id, i);
                if i > l.section_bits() {
                    // Long finger: the *region* at the target must be
                    // opposite-typed.
                    assert_eq!(
                        l.type_of(target),
                        NodeType::B,
                        "finger {i} of a type-A node landed in a type-A section"
                    );
                } else if i == l.section_bits() {
                    // Exactly one section ahead: already opposite.
                    assert_eq!(l.type_of(target), NodeType::B);
                }
                // Shorter fingers stay in the own or the subsequent
                // section; both are permitted by §4.4.
            }
        }
    }

    #[test]
    fn short_fingers_stay_nearby() {
        let l = SectionLayout::with_sections(1024, 2);
        let mut r = rng();
        let id = l.assign_id(&mut r, NodeType::A);
        let my_section = l.section_of(id);
        for i in 0..l.section_bits() {
            let target = l.finger_target(id, i);
            let sec = l.section_of(target);
            let next = (my_section + 1) % l.num_sections();
            assert!(sec == my_section || sec == next, "short finger {i} jumped to section {sec}");
        }
    }

    #[test]
    fn finger_target_check_accepts_all_real_targets() {
        let l = SectionLayout::with_sections(128, 2);
        let mut r = rng();
        let id = l.assign_id(&mut r, NodeType::B);
        for i in 0..Id::BITS {
            assert!(l.is_finger_target(id, l.finger_target(id, i)));
            assert_eq!(l.finger_index(id, l.finger_target(id, i)), Some(i), "bit {i}");
        }
        assert!(!l.is_finger_target(id, id.wrapping_add(3)));
    }

    #[test]
    fn replica_points_have_opposite_types() {
        let l = SectionLayout::with_sections(512, 2);
        let mut r = rng();
        for _ in 0..50 {
            let key = Id::random(&mut r);
            let pair = l.paired_replica_point(key);
            assert_ne!(l.type_of(key), l.type_of(pair));
            // Avoiding either type lands on the other.
            for ty in [NodeType::A, NodeType::B] {
                let p = l.replica_point_avoiding(key, ty);
                assert_ne!(l.type_of(p), ty);
            }
        }
    }

    #[test]
    fn embed_type_only_touches_type_bits() {
        let l = SectionLayout::with_sections(256, 2);
        let id = Id::new(0xDEAD_BEEF_DEAD_BEEF_DEAD_BEEF_DEAD_BEEF);
        let a = l.embed_type(id, NodeType::A);
        let b = l.embed_type(id, NodeType::B);
        assert_eq!(l.type_of(a), NodeType::A);
        assert_eq!(l.type_of(b), NodeType::B);
        // Low and high random bits unchanged.
        let low_mask = l.section_len() - 1;
        assert_eq!(a.raw() & low_mask, id.raw() & low_mask);
        assert_eq!(b.raw() & low_mask, id.raw() & low_mask);
        assert_eq!(a.raw() >> (l.section_bits() + 1), id.raw() >> (l.section_bits() + 1));
    }

    /// Keys on, beside and between the targets of `of`: every target, the
    /// unshifted `of + 2^i`, ±1 around both, and uniform draws.
    fn keys_around(l: SectionLayout, of: Id, uniform: &[u128]) -> Vec<Id> {
        let near = (0..Id::BITS).flat_map(|i| [l.finger_target(of, i), of.finger_target(i)]);
        near.flat_map(|t| [t.wrapping_sub(1), t, t.wrapping_add(1)])
            .chain(uniform.iter().map(|&k| Id::new(k)))
            .chain([of])
            .collect()
    }

    proptest! {
        /// The closed form against the 128-step search it replaced, on
        /// layouts from two sections a type up to one id a section.
        #[test]
        fn finger_index_equals_the_search_over_every_bit(
            (section_bits, type_bits) in (1u32..=7).prop_flat_map(|t| (0..Id::BITS - t, Just(t))),
            of: u128,
            uniform in prop::collection::vec(any::<u128>(), 0..8),
        ) {
            let l = SectionLayout::new(section_bits, type_bits);
            let of = Id::new(of);
            for key in keys_around(l, of, &uniform) {
                let search = (0..Id::BITS).find(|&i| l.finger_target(of, i) == key);
                prop_assert_eq!(l.finger_index(of, key), search, "key {:x}", key);
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sections() {
        let _ = SectionLayout::with_sections(100, 2);
    }

    #[test]
    #[should_panic(expected = "two sections per type")]
    fn rejects_one_section_per_type_of_two() {
        let _ = SectionLayout::with_sections(2, 2);
    }

    #[test]
    #[should_panic(expected = "two sections per type")]
    fn rejects_one_section_per_type_of_four() {
        let _ = SectionLayout::with_sections(4, 4);
    }

    #[test]
    fn corner_owner_prefers_an_in_section_successor_then_its_predecessor() {
        let l = SectionLayout::with_sections(16, 2);
        let target = l.section_start(3).wrapping_add(10);
        let in_section = target.wrapping_add(5);
        let before = target.wrapping_sub(5);
        let next_section = l.section_start(4);
        let id = |&x: &Id| x;
        assert_eq!(l.corner_owner(target, in_section, Some(before), id), Some(in_section));
        assert_eq!(l.corner_owner(target, next_section, Some(before), id), Some(before));
        let prior_section = l.section_start(2);
        assert_eq!(l.corner_owner(target, next_section, Some(prior_section), id), None);
        assert_eq!(l.corner_owner(target, next_section, None, id), None);
    }

    #[test]
    fn admissible_refuses_only_same_type_entries_outside_the_section() {
        let l = SectionLayout::with_sections(16, 2);
        let owner = l.section_start(2).wrapping_add(7);
        assert!(l.admissible(owner, owner.wrapping_add(1)), "own section");
        assert!(l.admissible(owner, l.section_start(3)), "opposite type");
        assert!(!l.admissible(owner, l.section_start(4)), "same type, next island");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn assign_rejects_bad_type() {
        let l = SectionLayout::with_sections(16, 2);
        let _ = l.assign_id(&mut rng(), NodeType::new(2));
    }
}
