//! Self-verifying data blocks and the per-node block store.
//!
//! DHash (and VerDi, which inherits its data model) stores immutable,
//! content-addressed blocks: `key = H(value)`. Whoever receives a block
//! checks it against the key it asked for, so a malicious replica cannot
//! substitute data (paper §5.1).
//!
//! # One hash per buffer
//!
//! A [`Block`] is a value together with its content key. Its only
//! constructor, [`Block::new`], hashes the bytes; its fields are private
//! and nothing hands out `&mut`, so `block.key() == block_key(block.value())`
//! holds for every `Block` that exists. Messages, the operation table, the
//! store and the cache all carry `Block`s, and every receive site keeps
//! its check — it compares the key the block travels under with the
//! block's content-derived key ([`Block::verifies`], sixteen bytes) where
//! it used to hash the payload again.
//!
//! That is the same check. The bytes are immutable and ref-counted, and
//! sender and receiver live in one process: hashing the buffer when it
//! arrives can only recompute what hashing the very same buffer at
//! construction produced. A node that wants to lie cannot attach a key of
//! its choice to bytes of its choice — a forged block is one built from
//! forged bytes through `Block::new`, which hashes *those*, and the
//! receiver turns it away exactly where a re-hash would have. The carried
//! key is host-side bookkeeping: it is not on the modelled wire, and no
//! `wire_size` counts it.

use std::collections::BTreeMap;

use bytes::Bytes;
use verme_chord::Id;

/// Content hash: maps a value to its 128-bit block key.
///
/// The paper uses SHA-1; inside the simulation a keyed-avalanche hash with
/// the same collision behaviour at simulated scales suffices (and keeps
/// the repository dependency-free). The function is a 128-bit FNV-1a
/// variant finished with two SplitMix64 mixes.
///
/// # Zero runs in closed form
///
/// An FNV-1a step is `h ← (h ⊕ b)·P mod 2¹²⁸`. For `b = 0` the XOR is the
/// identity, so a run of `k` zero bytes is `h ← h·Pᵏ`, and `Pᵏ` is the
/// product of the table entries `P^(2^j)` at the set bits of `k`. That is
/// exact, not an approximation: multiplication mod 2¹²⁸ is associative,
/// so regrouping the `k` multiplies by `P` changes no bit of `h`. The
/// scan looks at 64-byte chunks; a run of all-zero chunks costs one
/// multiply per set bit of its length, every other byte takes the
/// per-byte step. An 8 KB block of an 8-byte tag and zero fill, what the
/// harnesses store, takes 64 byte steps and seven multiplies instead of
/// 8 192 byte steps.
///
/// # Example
///
/// ```
/// use bytes::Bytes;
/// use verme_dht::block_key;
///
/// let k1 = block_key(&Bytes::from_static(b"hello"));
/// let k2 = block_key(&Bytes::from_static(b"hello"));
/// let k3 = block_key(&Bytes::from_static(b"world"));
/// assert_eq!(k1, k2);
/// assert_ne!(k1, k3);
/// ```
pub fn block_key(value: &Bytes) -> Id {
    #[cfg(test)]
    CONTENT_HASHES.with(|n| n.set(n.get() + 1));
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    let mut h = OFFSET;
    let mut chunks = value.chunks_exact(64);
    // Zero bytes seen but not yet folded into `h`.
    let mut zeros = 0usize;
    for chunk in &mut chunks {
        if is_zero(chunk) {
            zeros += chunk.len();
        } else {
            h = fnv_zeros(h, zeros);
            zeros = 0;
            h = fnv_bytes(h, chunk);
        }
    }
    h = fnv_bytes(fnv_zeros(h, zeros), chunks.remainder());
    // Finish with SplitMix64 on both halves for avalanche.
    let lo = mix(h as u64);
    let hi = mix((h >> 64) as u64 ^ lo);
    Id::new(((hi as u128) << 64) | lo as u128)
}

/// The 128-bit FNV prime.
const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// `PRIME^(2^j) mod 2¹²⁸` at index `j`, for every bit of a `usize`.
const PRIME_POW2: [u128; usize::BITS as usize] = {
    let mut t = [PRIME; usize::BITS as usize];
    let mut j = 1;
    while j < t.len() {
        t[j] = t[j - 1].wrapping_mul(t[j - 1]);
        j += 1;
    }
    t
};

/// The FNV-1a step over every byte of `bytes`.
fn fnv_bytes(mut h: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The FNV-1a step over `k` zero bytes: `h·PRIMEᵏ`, one multiply per set
/// bit of `k`.
fn fnv_zeros(mut h: u128, mut k: usize) -> u128 {
    while k != 0 {
        h = h.wrapping_mul(PRIME_POW2[k.trailing_zeros() as usize]);
        k &= k - 1;
    }
    h
}

/// True if the 64 bytes of `chunk` are all zero, read as eight OR-ed words.
fn is_zero(chunk: &[u8]) -> bool {
    chunk
        .chunks_exact(8)
        .fold(0u64, |acc, w| acc | u64::from_ne_bytes(w.try_into().expect("8-byte word")))
        == 0
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
thread_local! {
    /// Calls of [`block_key`] on this thread (each test runs on its own).
    pub(crate) static CONTENT_HASHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// An immutable value together with its content key; see the
/// [module docs](self) for the invariant and why it makes the receive-side
/// check a key comparison.
///
/// # Example
///
/// ```
/// use bytes::Bytes;
/// use verme_dht::{block_key, Block};
///
/// let value = Bytes::from_static(b"hello");
/// let block = Block::new(value.clone());
/// assert_eq!(block.key(), block_key(&value));
/// assert!(block.verifies(block_key(&value)));
/// assert!(!Block::new(Bytes::from_static(b"world")).verifies(block.key()));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    key: Id,
    value: Bytes,
}

impl Block {
    /// Hashes `value` and wraps it with its key: the one place the data
    /// plane computes a content hash.
    pub fn new(value: Bytes) -> Self {
        Block { key: block_key(&value), value }
    }

    /// The content key, `block_key(self.value())`.
    pub fn key(&self) -> Id {
        self.key
    }

    /// The contents.
    pub fn value(&self) -> &Bytes {
        &self.value
    }

    /// Unwraps the contents.
    pub fn into_value(self) -> Bytes {
        self.value
    }

    /// Length of the contents in bytes (what the block adds to a message's
    /// wire size).
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True if the contents are empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// True if the contents hash to `key`: the check a receiver makes of a
    /// block that arrived under `key`.
    pub fn verifies(&self, key: Id) -> bool {
        self.key == key
    }
}

/// A node's local store of blocks it replicates.
///
/// Backed by a `BTreeMap` so iteration order is the key order — background
/// re-replication walks the store, and a hash-seeded order would leak
/// process-level randomness into the simulation's message schedule.
///
/// Every entry sits under its own content key: the only way in is
/// [`put`](BlockStore::put), which files a [`Block`] under `block.key()`.
#[derive(Clone, Debug, Default)]
pub struct BlockStore {
    blocks: BTreeMap<Id, Block>,
}

impl BlockStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        BlockStore::default()
    }

    /// Stores `block` under its content key. Returns true if the key was
    /// new.
    pub fn put(&mut self, block: Block) -> bool {
        self.blocks.insert(block.key(), block).is_none()
    }

    /// Reads the block stored under `key`.
    pub fn get(&self, key: Id) -> Option<&Block> {
        self.blocks.get(&key)
    }

    /// True if `key` is stored here.
    pub fn contains(&self, key: Id) -> bool {
        self.blocks.contains_key(&key)
    }

    /// Number of stored blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Iterates over the stored blocks in key order.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.values()
    }

    /// Total bytes stored.
    pub fn stored_bytes(&self) -> usize {
        self.blocks.values().map(Block::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_distinct() {
        let a = block_key(&Bytes::from_static(b"block a"));
        let b = block_key(&Bytes::from_static(b"block b"));
        assert_ne!(a, b);
        assert_eq!(a, block_key(&Bytes::from_static(b"block a")));
    }

    #[test]
    fn single_bit_flips_change_the_key() {
        let base = vec![0u8; 64];
        let k0 = block_key(&Bytes::from(base.clone()));
        for bit in [0usize, 100, 511] {
            let mut v = base.clone();
            v[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(block_key(&Bytes::from(v)), k0, "bit {bit} did not change key");
        }
    }

    #[test]
    fn verification_accepts_genuine_rejects_substituted() {
        let v = Bytes::from_static(b"genuine");
        let key = block_key(&v);
        assert_eq!(block_key(&v), key);
        assert_ne!(block_key(&Bytes::from_static(b"forged!")), key);
    }

    #[test]
    fn block_carries_the_key_of_its_bytes_and_hashes_once() {
        let v = Bytes::from_static(b"genuine");
        let key = block_key(&v);
        let before = CONTENT_HASHES.get();
        let b = Block::new(v.clone());
        assert_eq!((b.key(), b.value(), b.len(), b.is_empty()), (key, &v, 7, false));
        assert!(b.verifies(key));
        assert!(!b.verifies(block_key(&Bytes::from_static(b"forged!"))));
        // A forger has to go through the constructor, which hashes what it
        // is given, not what the forger claims.
        assert!(!Block::new(Bytes::from_static(b"forged!")).verifies(key));
        assert_eq!(b.clone(), b);
        assert_eq!(b.into_value(), v);
        assert_eq!(CONTENT_HASHES.get() - before, 3, "one hash per `new`, one for the forged key");
    }

    #[test]
    fn store_round_trip() {
        let mut s = BlockStore::new();
        assert!(s.is_empty());
        let b = Block::new(Bytes::from_static(b"data"));
        let k = b.key();
        assert!(s.put(b.clone()));
        assert!(!s.put(b.clone()), "second put of same key is an update");
        assert_eq!(s.get(k), Some(&b));
        assert!(s.contains(k));
        assert_eq!(s.len(), 1);
        assert_eq!(s.stored_bytes(), 4);
        assert_eq!(s.iter().count(), 1);
    }

    #[test]
    fn store_walks_in_key_order() {
        let mut s = BlockStore::new();
        for i in 0..32u8 {
            s.put(Block::new(Bytes::from(vec![i; 8])));
        }
        let keys: Vec<Id> = s.iter().map(Block::key).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_block_hashes() {
        let k = block_key(&Bytes::new());
        assert_eq!(block_key(&Bytes::new()), k);
        assert_ne!(block_key(&Bytes::from_static(&[0])), k, "a zero byte is a byte");
    }
}
