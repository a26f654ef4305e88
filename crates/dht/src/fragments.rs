//! Erasure-coded fragments — the DHash optimization the paper cites but
//! does not evaluate (§5.1: "a more recent paper has proposed the use of
//! erasure coded fragments instead of full replicas of the data \[9\] but
//! we will not consider that optimization in this paper").
//!
//! This module implements it as an extension: a systematic Reed–Solomon
//! code over GF(2⁸) in the style Dabek et al. used for DHash — a block is
//! split into `k` data fragments plus `n − k` parity fragments, and *any*
//! `k` of the `n` suffice to reconstruct. Fragments are stored as ordinary
//! self-verifying blocks (each fragment gets its own content key), so the
//! codec composes with every DHT in this crate without protocol changes:
//!
//! ```
//! use bytes::Bytes;
//! use verme_dht::fragments::{decode, encode};
//!
//! let data = Bytes::from(vec![42u8; 1000]);
//! let frags = encode(&data, 4, 7).unwrap();
//! // Lose any three fragments:
//! let subset: Vec<_> = frags.into_iter().skip(3).collect();
//! let back = decode(&subset, 4, 1000).unwrap();
//! assert_eq!(back, data);
//! ```

use std::fmt;

use bytes::Bytes;

/// One erasure-coded fragment of a block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fragment {
    /// Fragment index in `0..n`. Indices `0..k` are systematic (raw data
    /// stripes); `k..n` are parity.
    pub index: u8,
    /// The fragment payload (`ceil(len / k)` bytes).
    pub payload: Bytes,
}

/// Errors from the fragment codec.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// `k`/`n` outside `1 ≤ k ≤ n ≤ 255`.
    BadParameters,
    /// Fewer than `k` distinct fragments supplied.
    NotEnoughFragments,
    /// Fragments disagree in length or carry out-of-range indices.
    InconsistentFragments,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadParameters => write!(f, "require 1 <= k <= n <= 255"),
            CodecError::NotEnoughFragments => write!(f, "need at least k distinct fragments"),
            CodecError::InconsistentFragments => {
                write!(f, "fragments have mismatched lengths or invalid indices")
            }
        }
    }
}

impl std::error::Error for CodecError {}

// ----------------------------------------------------------------------
// GF(2^8) arithmetic over the classic Reed–Solomon polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), for which x = 2 is a primitive
// element (unlike the AES polynomial, where 2 has order 51).
// ----------------------------------------------------------------------

const GF_POLY: u16 = 0x11D;

/// Log/antilog tables built once per process.
struct Tables {
    log: [u8; 256],
    exp: [u8; 512],
}

fn tables() -> &'static Tables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Tables { log: [0; 256], exp: [0; 512] };
        let mut x: u16 = 1;
        for i in 0..255 {
            t.exp[i] = x as u8;
            t.log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= GF_POLY;
            }
        }
        for i in 255..512 {
            t.exp[i] = t.exp[i - 255];
        }
        t
    })
}

#[inline]
fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

#[inline]
fn gf_inv(a: u8) -> u8 {
    debug_assert_ne!(a, 0, "zero has no inverse");
    let t = tables();
    t.exp[255 - t.log[a as usize] as usize]
}

/// Evaluation point for fragment `index` in the Vandermonde encoding.
/// Systematic rows use an identity construction instead.
#[inline]
fn gf_pow(base: u8, mut e: u32) -> u8 {
    let mut acc = 1u8;
    let mut b = base;
    while e > 0 {
        if e & 1 == 1 {
            acc = gf_mul(acc, b);
        }
        b = gf_mul(b, b);
        e >>= 1;
    }
    acc
}

// ----------------------------------------------------------------------
// Codec
// ----------------------------------------------------------------------

fn check_params(k: usize, n: usize) -> Result<(), CodecError> {
    if k == 0 || k > n || n > 255 {
        return Err(CodecError::BadParameters);
    }
    Ok(())
}

/// Splits `data` into `k` stripes, padding the tail with zeros.
fn stripes(data: &Bytes, k: usize) -> Vec<Vec<u8>> {
    let frag_len = data.len().div_ceil(k).max(1);
    (0..k)
        .map(|i| {
            let mut s = vec![0u8; frag_len];
            let start = i * frag_len;
            if start < data.len() {
                let end = (start + frag_len).min(data.len());
                s[..end - start].copy_from_slice(&data[start..end]);
            }
            s
        })
        .collect()
}

/// Encodes `data` into `n` fragments, any `k` of which reconstruct it.
///
/// The code is *systematic*: fragments `0..k` are the raw data stripes
/// (so an undamaged read needs no decoding work), and fragments `k..n`
/// are Reed–Solomon parity rows evaluated at distinct nonzero points.
///
/// # Errors
///
/// Returns [`CodecError::BadParameters`] unless `1 ≤ k ≤ n ≤ 255`.
pub fn encode(data: &Bytes, k: usize, n: usize) -> Result<Vec<Fragment>, CodecError> {
    check_params(k, n)?;
    let stripes = stripes(data, k);
    let frag_len = stripes[0].len();
    let mut out = Vec::with_capacity(n);
    for (i, s) in stripes.iter().enumerate() {
        out.push(Fragment { index: i as u8, payload: Bytes::from(s.clone()) });
    }
    for row in k..n {
        // Parity row `row`: evaluate the data polynomial at x = row + 1
        // (1-based so the point is never zero).
        let x = (row + 1) as u8;
        let mut payload = vec![0u8; frag_len];
        for (j, s) in stripes.iter().enumerate() {
            let coef = gf_pow(x, j as u32);
            for (p, &b) in payload.iter_mut().zip(s.iter()) {
                *p ^= gf_mul(coef, b);
            }
        }
        out.push(Fragment { index: row as u8, payload: Bytes::from(payload) });
    }
    Ok(out)
}

/// Reconstructs the original `len`-byte block from any `k` distinct
/// fragments of an `encode(data, k, n)` run.
///
/// # Errors
///
/// * [`CodecError::NotEnoughFragments`] — fewer than `k` distinct indices.
/// * [`CodecError::InconsistentFragments`] — mismatched payload lengths.
/// * [`CodecError::BadParameters`] — invalid `k`.
pub fn decode(fragments: &[Fragment], k: usize, len: usize) -> Result<Bytes, CodecError> {
    check_params(k, k.max(1))?;
    // De-duplicate by index, keep the first k.
    let mut chosen: Vec<&Fragment> = Vec::with_capacity(k);
    for f in fragments {
        if chosen.iter().any(|c| c.index == f.index) {
            continue;
        }
        chosen.push(f);
        if chosen.len() == k {
            break;
        }
    }
    if chosen.len() < k {
        return Err(CodecError::NotEnoughFragments);
    }
    let frag_len = chosen[0].payload.len();
    if frag_len == 0 || chosen.iter().any(|f| f.payload.len() != frag_len) {
        return Err(CodecError::InconsistentFragments);
    }

    // Build the k×k system: each chosen fragment is a linear combination
    // of the k data stripes. Systematic rows are unit vectors; parity row
    // r has coefficients x^j with x = r + 1.
    let mut matrix = vec![vec![0u8; k]; k];
    for (r, f) in chosen.iter().enumerate() {
        let idx = f.index as usize;
        if idx < k {
            matrix[r][idx] = 1;
        } else {
            let x = (idx + 1) as u8;
            for (j, cell) in matrix[r].iter_mut().enumerate() {
                *cell = gf_pow(x, j as u32);
            }
        }
    }
    // Gauss–Jordan over GF(256), applied simultaneously to the payloads.
    let mut rows: Vec<Vec<u8>> = chosen.iter().map(|f| f.payload.to_vec()).collect();
    for col in 0..k {
        // Pivot.
        let pivot =
            (col..k).find(|&r| matrix[r][col] != 0).ok_or(CodecError::InconsistentFragments)?;
        matrix.swap(col, pivot);
        rows.swap(col, pivot);
        let inv = gf_inv(matrix[col][col]);
        for cell in matrix[col].iter_mut() {
            *cell = gf_mul(*cell, inv);
        }
        for b in rows[col].iter_mut() {
            *b = gf_mul(*b, inv);
        }
        for r in 0..k {
            if r == col || matrix[r][col] == 0 {
                continue;
            }
            let factor = matrix[r][col];
            let (head, tail) = if r < col {
                let (h, t) = matrix.split_at_mut(col);
                (&mut h[r], &t[0])
            } else {
                let (h, t) = matrix.split_at_mut(r);
                (&mut t[0], &h[col])
            };
            for (a, &b) in head.iter_mut().zip(tail.iter()) {
                *a ^= gf_mul(factor, b);
            }
            let (rh, rt) = if r < col {
                let (h, t) = rows.split_at_mut(col);
                (&mut h[r], &t[0])
            } else {
                let (h, t) = rows.split_at_mut(r);
                (&mut t[0], &h[col])
            };
            for (a, &b) in rh.iter_mut().zip(rt.iter()) {
                *a ^= gf_mul(factor, b);
            }
        }
    }
    // Rows are now the data stripes in order; concatenate and trim.
    let mut out = Vec::with_capacity(k * frag_len);
    for r in rows {
        out.extend_from_slice(&r);
    }
    out.truncate(len);
    Ok(Bytes::from(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize) -> Bytes {
        Bytes::from((0..len).map(|i| (i * 31 % 251) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn round_trips_with_all_fragments() {
        let data = sample(1000);
        let frags = encode(&data, 4, 7).unwrap();
        assert_eq!(frags.len(), 7);
        assert_eq!(decode(&frags, 4, 1000).unwrap(), data);
    }

    #[test]
    fn any_k_subset_reconstructs() {
        let data = sample(517); // not a multiple of k: padding exercised
        let (k, n) = (3usize, 6usize);
        let frags = encode(&data, k, n).unwrap();
        // Every 3-subset of the 6 fragments.
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let subset = vec![frags[a].clone(), frags[b].clone(), frags[c].clone()];
                    assert_eq!(
                        decode(&subset, k, 517).unwrap(),
                        data,
                        "subset ({a},{b},{c}) failed"
                    );
                }
            }
        }
    }

    #[test]
    fn systematic_prefix_is_raw_data() {
        let data = sample(400);
        let frags = encode(&data, 4, 7).unwrap();
        let mut joined = Vec::new();
        for f in &frags[..4] {
            joined.extend_from_slice(&f.payload);
        }
        assert_eq!(&joined[..400], &data[..]);
    }

    #[test]
    fn too_few_fragments_is_an_error() {
        let data = sample(100);
        let frags = encode(&data, 4, 7).unwrap();
        assert_eq!(decode(&frags[..3], 4, 100), Err(CodecError::NotEnoughFragments));
        // Duplicates do not count twice.
        let dups = vec![frags[0].clone(), frags[0].clone(), frags[1].clone(), frags[2].clone()];
        assert_eq!(decode(&dups, 4, 100), Err(CodecError::NotEnoughFragments));
    }

    #[test]
    fn mismatched_lengths_are_rejected() {
        let data = sample(100);
        let mut frags = encode(&data, 2, 4).unwrap();
        frags[1] = Fragment { index: 1, payload: Bytes::from_static(b"short") };
        assert_eq!(decode(&frags[..2], 2, 100), Err(CodecError::InconsistentFragments));
    }

    #[test]
    fn parameter_validation() {
        let data = sample(10);
        assert_eq!(encode(&data, 0, 4), Err(CodecError::BadParameters));
        assert_eq!(encode(&data, 5, 4), Err(CodecError::BadParameters));
        assert!(encode(&data, 1, 1).is_ok());
    }

    #[test]
    fn single_fragment_code_is_identity() {
        let data = sample(64);
        let frags = encode(&data, 1, 3).unwrap();
        for f in &frags[..1] {
            assert_eq!(f.payload, data);
        }
        assert_eq!(decode(&frags[2..], 1, 64).unwrap(), data);
    }

    #[test]
    fn empty_block_round_trips() {
        let data = Bytes::new();
        let frags = encode(&data, 3, 5).unwrap();
        assert_eq!(decode(&frags[1..4], 3, 0).unwrap(), data);
    }

    #[test]
    fn gf_arithmetic_sanity() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "inverse of {a}");
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(a, 0), 0);
        }
        // Commutativity and a known product: in GF(256)/0x11D,
        // 2 · 0x80 = 0x100 mod 0x11D = 0x1D.
        assert_eq!(gf_mul(0x02, 0x80), 0x1D);
        assert_eq!(gf_mul(0x80, 0x02), 0x1D);
    }
}

// ----------------------------------------------------------------------
// CFS-style manifests: storing fragmented blocks in a content-addressed
// DHT.
// ----------------------------------------------------------------------

use verme_chord::Id;

use crate::block::Block;

/// The root block of a fragmented object, in the style of CFS: it lists
/// the content keys of the `n` fragments plus the parameters needed to
/// reconstruct. Store the serialized manifest as an ordinary block; its
/// content key is the object's handle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Stripes needed to reconstruct.
    pub k: u8,
    /// Original object length in bytes.
    pub len: u64,
    /// Content keys of the fragment blobs, in fragment-index order.
    pub fragment_keys: Vec<Id>,
}

const MANIFEST_MAGIC: &[u8; 4] = b"VRMF";

impl Manifest {
    /// Serializes the manifest to its block representation.
    pub fn to_bytes(&self) -> Bytes {
        let mut out = Vec::with_capacity(4 + 1 + 8 + 2 + 16 * self.fragment_keys.len());
        out.extend_from_slice(MANIFEST_MAGIC);
        out.push(self.k);
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&(self.fragment_keys.len() as u16).to_le_bytes());
        for key in &self.fragment_keys {
            out.extend_from_slice(&key.raw().to_le_bytes());
        }
        Bytes::from(out)
    }

    /// Parses a manifest block.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn parse(bytes: &Bytes) -> Result<Manifest, String> {
        if bytes.len() < 15 || &bytes[..4] != MANIFEST_MAGIC {
            return Err("not a fragment manifest".into());
        }
        let k = bytes[4];
        let len = u64::from_le_bytes(bytes[5..13].try_into().expect("sized"));
        let count = u16::from_le_bytes(bytes[13..15].try_into().expect("sized")) as usize;
        if k == 0 || count < k as usize {
            return Err(format!("inconsistent manifest: k={k}, count={count}"));
        }
        let need = 15 + 16 * count;
        if bytes.len() != need {
            return Err(format!("manifest truncated: {} of {need} bytes", bytes.len()));
        }
        let mut fragment_keys = Vec::with_capacity(count);
        for c in 0..count {
            let off = 15 + 16 * c;
            let raw = u128::from_le_bytes(bytes[off..off + 16].try_into().expect("sized"));
            fragment_keys.push(Id::new(raw));
        }
        Ok(Manifest { k, len, fragment_keys })
    }
}

/// Prepares an object for fragmented storage: returns the fragment blobs
/// (each prefixed by its index byte so identical stripes cannot collide),
/// the manifest blob, and the manifest's content key — the handle a
/// client shares.
///
/// Store every returned blob with an ordinary DHT `put`; fetch with
/// `get(manifest_key)`, parse the [`Manifest`], fetch any `k` fragment
/// blobs, and call [`reassemble`].
///
/// # Errors
///
/// Propagates [`CodecError::BadParameters`].
pub fn prepare_fragmented(
    data: &Bytes,
    k: usize,
    n: usize,
) -> Result<(Vec<Bytes>, Bytes, Id), CodecError> {
    let frags = encode(data, k, n)?;
    let mut blobs = Vec::with_capacity(n);
    let mut keys = Vec::with_capacity(n);
    for f in &frags {
        let mut blob = Vec::with_capacity(1 + f.payload.len());
        blob.push(f.index);
        blob.extend_from_slice(&f.payload);
        let blob = Block::new(Bytes::from(blob));
        keys.push(blob.key());
        blobs.push(blob.into_value());
    }
    let manifest = Manifest { k: k as u8, len: data.len() as u64, fragment_keys: keys };
    let manifest = Block::new(manifest.to_bytes());
    let handle = manifest.key();
    Ok((blobs, manifest.into_value(), handle))
}

/// Reassembles an object from its manifest and any `k` retrieved fragment
/// blobs (as produced by [`prepare_fragmented`]).
///
/// # Errors
///
/// Returns codec errors for malformed or insufficient fragments.
pub fn reassemble(manifest: &Manifest, blobs: &[Bytes]) -> Result<Bytes, CodecError> {
    let fragments: Vec<Fragment> = blobs
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| Fragment { index: b[0], payload: b.slice(1..) })
        .collect();
    decode(&fragments, manifest.k as usize, manifest.len as usize)
}

#[cfg(test)]
mod manifest_tests {
    use super::*;
    use crate::block::block_key;

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            k: 4,
            len: 99_999,
            fragment_keys: (0..7u128).map(|i| Id::new(i * 7919)).collect(),
        };
        let bytes = m.to_bytes();
        assert_eq!(Manifest::parse(&bytes).unwrap(), m);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Manifest::parse(&Bytes::from_static(b"nope")).is_err());
        assert!(Manifest::parse(&Bytes::from_static(b"VRMF\x00aaaaaaaaaa")).is_err());
        let m = Manifest { k: 3, len: 10, fragment_keys: vec![Id::new(1); 5] };
        let mut truncated = m.to_bytes().to_vec();
        truncated.pop();
        assert!(Manifest::parse(&Bytes::from(truncated)).unwrap_err().contains("truncated"));
        // count < k is inconsistent.
        let bad = Manifest { k: 6, len: 10, fragment_keys: vec![Id::new(1); 3] };
        assert!(Manifest::parse(&bad.to_bytes()).unwrap_err().contains("inconsistent"));
    }

    #[test]
    fn prepare_and_reassemble_end_to_end() {
        let data = Bytes::from((0..5000).map(|i| (i % 250) as u8).collect::<Vec<u8>>());
        let (blobs, manifest_blob, handle) = prepare_fragmented(&data, 4, 7).unwrap();
        assert_eq!(blobs.len(), 7);
        assert_eq!(handle, block_key(&manifest_blob));
        let manifest = Manifest::parse(&manifest_blob).unwrap();
        // Each blob's content key matches the manifest entry.
        for (blob, key) in blobs.iter().zip(&manifest.fragment_keys) {
            assert_eq!(block_key(blob), *key);
        }
        // Any 4 blobs reconstruct.
        let back = reassemble(&manifest, &blobs[2..6]).unwrap();
        assert_eq!(back, data);
        // Fewer than k fail.
        assert!(reassemble(&manifest, &blobs[..3]).is_err());
    }
}
