//! Circular identifier-space arithmetic.
//!
//! Chord assigns nodes and keys 160-bit identifiers ordered on a circle.
//! This reproduction uses a 128-bit space (`u128` arithmetic stays in
//! native registers and is collision-free at every simulated scale — see
//! DESIGN.md §4); everything here is width-independent modular arithmetic.

use std::fmt;

use rand::Rng;
use serde::{Deserialize, Serialize};

/// An identifier on the circular id space, wrapping at 2¹²⁸.
///
/// # Example
///
/// ```
/// use verme_chord::Id;
///
/// let a = Id::new(10);
/// let b = Id::new(20);
/// assert!(Id::new(15).in_open_open(a, b));
/// assert!(Id::new(20).in_open_closed(a, b));
/// // Intervals wrap around the top of the space:
/// let hi = Id::new(u128::MAX - 5);
/// assert!(Id::new(3).in_open_open(hi, a));
/// ```
///
/// The id is aligned to 8 bytes, not to `u128`'s 16, so a `NodeHandle`
/// (an id and an 8-byte address) takes 24 bytes instead of padding to 32.
#[derive(
    Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[repr(C, packed(8))]
pub struct Id(u128);

impl Id {
    /// Number of bits in the identifier space.
    pub const BITS: u32 = 128;

    /// The identifier 0.
    pub const ZERO: Id = Id(0);

    /// Creates an identifier from its raw value.
    pub const fn new(raw: u128) -> Self {
        Id(raw)
    }

    /// The raw value.
    pub const fn raw(self) -> u128 {
        self.0
    }

    /// A uniformly random identifier.
    pub fn random(rng: &mut impl Rng) -> Self {
        Id(rng.gen())
    }

    /// `self + offset` on the circle.
    pub const fn wrapping_add(self, offset: u128) -> Id {
        Id(self.0.wrapping_add(offset))
    }

    /// `self - offset` on the circle.
    pub const fn wrapping_sub(self, offset: u128) -> Id {
        Id(self.0.wrapping_sub(offset))
    }

    /// Clockwise distance from `self` to `other` (how far `other` is
    /// *ahead* of `self` on the circle).
    pub const fn distance_to(self, other: Id) -> u128 {
        other.0.wrapping_sub(self.0)
    }

    /// The classic Chord finger target: `self + 2^i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= Id::BITS`.
    pub fn finger_target(self, i: u32) -> Id {
        assert!(i < Id::BITS, "finger index {i} out of range");
        self.wrapping_add(1u128 << i)
    }

    /// True if `self` lies strictly inside the cyclic interval `(a, b)`.
    ///
    /// When `a == b` the interval is the whole circle minus `a` (Chord's
    /// standard single-node convention).
    pub fn in_open_open(self, a: Id, b: Id) -> bool {
        if a == b {
            self != a
        } else {
            a.distance_to(self) > 0 && a.distance_to(self) < a.distance_to(b)
        }
    }

    /// True if `self` lies in the cyclic interval `(a, b]`.
    ///
    /// When `a == b` the interval is the whole circle (a single node owns
    /// every key).
    pub fn in_open_closed(self, a: Id, b: Id) -> bool {
        if a == b {
            true
        } else {
            a.distance_to(self) > 0 && a.distance_to(self) <= a.distance_to(b)
        }
    }

    /// True if `self` lies in the cyclic interval `[a, b)`.
    pub fn in_closed_open(self, a: Id, b: Id) -> bool {
        if a == b {
            true
        } else {
            a.distance_to(self) < a.distance_to(b)
        }
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Leading 16 hex digits identify an id unambiguously in any log.
        write!(f, "{:016x}..", (self.0 >> 64) as u64)
    }
}

impl fmt::LowerHex for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let raw = self.0;
        fmt::LowerHex::fmt(&raw, f)
    }
}

impl From<u128> for Id {
    fn from(raw: u128) -> Self {
        Id(raw)
    }
}

impl From<Id> for u128 {
    fn from(id: Id) -> u128 {
        id.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn distance_wraps() {
        let a = Id::new(u128::MAX);
        let b = Id::new(4);
        assert_eq!(a.distance_to(b), 5);
        assert_eq!(b.distance_to(a), u128::MAX - 4);
        assert_eq!(a.distance_to(a), 0);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = Id::new(u128::MAX - 1);
        assert_eq!(a.wrapping_add(3), Id::new(1));
        assert_eq!(a.wrapping_add(3).wrapping_sub(3), a);
    }

    #[test]
    fn open_open_interval() {
        let (a, b) = (Id::new(10), Id::new(20));
        assert!(Id::new(11).in_open_open(a, b));
        assert!(Id::new(19).in_open_open(a, b));
        assert!(!Id::new(10).in_open_open(a, b));
        assert!(!Id::new(20).in_open_open(a, b));
        assert!(!Id::new(25).in_open_open(a, b));
        // Wrapping interval.
        let (a, b) = (Id::new(u128::MAX - 2), Id::new(2));
        assert!(Id::new(0).in_open_open(a, b));
        assert!(Id::new(u128::MAX).in_open_open(a, b));
        assert!(!Id::new(2).in_open_open(a, b));
        assert!(!Id::new(5).in_open_open(a, b));
    }

    #[test]
    fn open_closed_interval() {
        let (a, b) = (Id::new(10), Id::new(20));
        assert!(Id::new(20).in_open_closed(a, b));
        assert!(!Id::new(10).in_open_closed(a, b));
        assert!(Id::new(15).in_open_closed(a, b));
        assert!(!Id::new(21).in_open_closed(a, b));
    }

    #[test]
    fn closed_open_interval() {
        let (a, b) = (Id::new(10), Id::new(20));
        assert!(Id::new(10).in_closed_open(a, b));
        assert!(!Id::new(20).in_closed_open(a, b));
    }

    #[test]
    fn degenerate_intervals() {
        let a = Id::new(7);
        // (a, a) = everything but a.
        assert!(Id::new(8).in_open_open(a, a));
        assert!(!a.in_open_open(a, a));
        // (a, a] = whole circle.
        assert!(a.in_open_closed(a, a));
        assert!(Id::new(0).in_open_closed(a, a));
        // [a, a) = whole circle.
        assert!(a.in_closed_open(a, a));
    }

    #[test]
    fn finger_targets() {
        let id = Id::new(100);
        assert_eq!(id.finger_target(0), Id::new(101));
        assert_eq!(id.finger_target(4), Id::new(116));
        assert_eq!(Id::new(u128::MAX).finger_target(0), Id::ZERO);
    }

    #[test]
    #[should_panic(expected = "finger index 128 out of range")]
    fn finger_target_bounds() {
        let _ = Id::new(0).finger_target(128);
    }

    #[test]
    fn random_ids_are_distinct() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = Id::random(&mut rng);
        let b = Id::random(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn an_id_aligns_to_eight_bytes() {
        assert_eq!(std::mem::align_of::<Id>(), 8);
        assert_eq!(std::mem::size_of::<Id>(), 16);
    }

    #[test]
    fn display_formats() {
        let id = Id::new(0xABCD << 100);
        assert!(format!("{id}").contains(".."));
        assert!(!format!("{id:x}").is_empty());
    }
}
