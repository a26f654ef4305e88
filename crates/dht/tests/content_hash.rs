//! `block_key` against a byte-serial FNV-1a-128 reference, bit for bit.
//!
//! `block_key` folds each run of all-zero 64-byte chunks into the hash in
//! closed form (one multiply by `PRIME^(2^j)` per set bit of the run's
//! length) instead of stepping byte by byte. The reference below is the
//! plain per-byte loop with the same SplitMix64 finish, kept here so the
//! shortcut is checked against the definition rather than against itself:
//! random zero runs, runs on and off the 8- and 64-byte edges, all-zero
//! values, a single non-zero byte at every offset, and the tag-plus-zero
//! blocks every harness stores. The pinned digests were taken from the
//! per-byte implementation before the shortcut existed.

use bytes::Bytes;
use proptest::prelude::*;
use verme_chord::Id;
use verme_dht::block_key;

/// FNV-1a-128 one byte at a time, then two SplitMix64 mixes.
fn reference(value: &[u8]) -> Id {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;
    let mut h = OFFSET;
    for &b in value {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let lo = mix(h as u64);
    let hi = mix((h >> 64) as u64 ^ lo);
    Id::new(((hi as u128) << 64) | lo as u128)
}

fn key(value: &[u8]) -> Id {
    block_key(&Bytes::from(value.to_vec()))
}

/// An 8-byte little-endian tag, an optional ninth namespace byte, zero
/// fill up to `size`: the blocks fig6/7, Ext. L, the load harness and
/// chaos durability seeding store.
fn tagged(tag: u64, namespace: Option<u8>, size: usize) -> Vec<u8> {
    let mut v = vec![0u8; size.max(9)];
    v[..8].copy_from_slice(&tag.to_le_bytes());
    if let Some(ns) = namespace {
        v[8] = ns;
    }
    v
}

#[test]
fn pinned_digests() {
    let pins: [(&[u8], u128); 4] = [
        (b"", 0xaacb_9fc6_7332_c17a_bada_9fd7_9951_a20f),
        (b"hello", 0xdef6_997e_b062_b018_fb3c_35c9_b3be_d4ca),
        (&tagged(1, None, 8192), 0x7837_9010_261e_f3ad_75cc_7148_d50a_73fb),
        (&tagged(3, Some(0xEC), 8192), 0x0b02_0d34_7eab_5a3d_6b58_11ea_cb29_6f6d),
    ];
    for (i, (value, pin)) in pins.into_iter().enumerate() {
        assert_eq!(key(value).raw(), pin, "pin {i}: {:#034x}", key(value).raw());
        assert_eq!(reference(value).raw(), pin, "reference, pin {i}");
    }
}

#[test]
fn all_zero_values() {
    for len in (0..=1100).chain([4095, 4096, 4097, 8191, 8192, 8193, 65_536 + 63]) {
        let v = vec![0u8; len];
        assert_eq!(key(&v), reference(&v), "{len} zero bytes");
    }
}

#[test]
fn one_non_zero_byte_at_every_offset() {
    for len in [63, 64, 65, 128] {
        for at in 0..len {
            for b in [0x01, 0x80, 0xFF] {
                let mut v = vec![0u8; len];
                v[at] = b;
                assert_eq!(key(&v), reference(&v), "{b:#04x} at {at} of {len}");
            }
        }
    }
}

proptest! {
    /// Random bytes of length 0..=600 with up to five random zero runs
    /// written over them.
    #[test]
    fn random_zero_runs(
        bytes in prop::collection::vec(any::<u8>(), 0..=600),
        runs in prop::collection::vec((any::<usize>(), 0usize..=300), 0..=5),
    ) {
        let mut v = bytes;
        if !v.is_empty() {
            for (start, len) in runs {
                let start = start % v.len();
                let end = (start + len).min(v.len());
                v[start..end].fill(0);
            }
        }
        prop_assert_eq!(key(&v), reference(&v));
    }

    /// A zero run in non-zero fill whose start and end each sit on an 8- or
    /// 64-byte edge or one byte either side of it.
    #[test]
    fn zero_runs_on_word_and_chunk_edges(
        fill in prop::collection::vec(1u8..=255, 0..=600),
        edge in prop::sample::select(vec![8usize, 64]),
        (a, b) in (0usize..=10, 0usize..=10),
        (da, db) in (-1isize..=1, -1isize..=1),
    ) {
        let mut v = fill;
        let at = |m: usize, d: isize| (m * edge).saturating_add_signed(d).min(v.len());
        let (start, end) = (at(a.min(b), da), at(a.max(b), db));
        if start < end {
            v[start..end].fill(0);
        }
        prop_assert_eq!(key(&v), reference(&v));
    }

    /// Tag-plus-zero blocks up to 8 KB, with and without a namespace byte.
    #[test]
    fn tag_plus_zero_blocks(
        tag in any::<u64>(),
        namespace in (any::<bool>(), any::<u8>()),
        (full, size) in (any::<bool>(), 9usize..=8192),
    ) {
        let namespace = namespace.0.then_some(namespace.1);
        let v = tagged(tag, namespace, if full { 8192 } else { size });
        prop_assert_eq!(key(&v), reference(&v));
    }
}
