//! # verme-crypto — simulated certificate infrastructure
//!
//! Verme's security argument (paper §4.1, §6.1) rests on three assumptions:
//!
//! 1. every node holds a **certificate** binding its overlay identifier to
//!    a public key and a platform **type**;
//! 2. lookup replies are **encrypted** to the initiator's public key, so
//!    relay nodes on the reverse path cannot read the addresses inside;
//! 3. in Compromise-VerDi, initiators **sign** a statement vouching for
//!    each operation.
//!
//! Inside a single-process simulation there is no adversary who can run
//! actual cryptanalysis, so this crate *models* those primitives instead of
//! implementing real ciphers: a [`Certificate`] can only be minted by a
//! [`CertificateAuthority`] value (signatures are a keyed hash that
//! [`Certificate::verify`] recomputes), and a [`Sealed`] envelope gives up
//! its payload only to the matching [`KeyPair`]. What matters for the
//! reproduction is that the *information-flow rules are enforced
//! mechanically*: code that should not be able to read an address simply
//! cannot obtain it from these types.
//!
//! The impersonation attack of §5.3.1 is modelled faithfully: an attacker
//! *legitimately* obtains a certificate whose claimed [`NodeType`] differs
//! from its real platform — the certificate itself is valid, which is
//! exactly why Fast-VerDi is vulnerable.

#![forbid(unsafe_code)]

use std::fmt;

use serde::{Deserialize, Serialize};

/// A platform type: two nodes may share vulnerabilities **iff** they have
/// the same type (paper §3).
///
/// The paper presents the two-type case; the companion thesis generalizes
/// to `k` types. `NodeType` supports both: [`NodeType::A`]/[`NodeType::B`]
/// for the common case, and arbitrary indices via [`NodeType::new`].
///
/// # Example
///
/// ```
/// use verme_crypto::NodeType;
///
/// assert_eq!(NodeType::A.opposite(), NodeType::B);
/// assert_ne!(NodeType::A, NodeType::B);
/// assert_eq!(NodeType::new(3).index(), 3);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeType(u8);

impl NodeType {
    /// The first of the two canonical types.
    pub const A: NodeType = NodeType(0);
    /// The second of the two canonical types.
    pub const B: NodeType = NodeType(1);

    /// A type with an arbitrary index (for the k-type generalization).
    pub const fn new(index: u8) -> Self {
        NodeType(index)
    }

    /// This type's index.
    pub const fn index(self) -> u8 {
        self.0
    }

    /// The other type, in the two-type configuration.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not `A` or `B` — with more than two types there
    /// is no single "opposite".
    pub fn opposite(self) -> NodeType {
        match self.0 {
            0 => NodeType::B,
            1 => NodeType::A,
            i => panic!("opposite() is only defined for 2 types (got index {i})"),
        }
    }
}

impl fmt::Display for NodeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 26 {
            write!(f, "{}", (b'A' + self.0) as char)
        } else {
            write!(f, "T{}", self.0)
        }
    }
}

/// The public half of a node's key pair.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PublicKey(u64);

/// A node's key pair. The secret half never leaves this struct; possession
/// of the `KeyPair` value is what "knowing the private key" means in the
/// simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyPair {
    public: PublicKey,
    secret: u64,
}

impl KeyPair {
    /// The public key, to be embedded in certificates and used for sealing.
    pub fn public(&self) -> PublicKey {
        self.public
    }
}

/// A signature over certificate contents, valid only if produced by the CA.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature(u64);

/// A certificate binding an overlay identifier to a public key and a
/// claimed platform type (paper §4.1).
///
/// The identifier is carried as a raw `u128`; the overlay crates wrap it in
/// their own `Id` newtype. Certificates are cheap to clone and are attached
/// to every Verme lookup message.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Certificate {
    id: u128,
    node_type: NodeType,
    public_key: PublicKey,
    signature: Signature,
}

impl Certificate {
    /// The overlay identifier this certificate binds.
    pub fn id(&self) -> u128 {
        self.id
    }

    /// The platform type the certificate *claims*. An impersonating node's
    /// certificate claims a type that differs from its real platform.
    pub fn node_type(&self) -> NodeType {
        self.node_type
    }

    /// The public key bound to the identifier.
    pub fn public_key(&self) -> PublicKey {
        self.public_key
    }

    /// Checks that this certificate was issued by the CA that `verifier`
    /// speaks for.
    pub fn verify(&self, verifier: &CaVerifier) -> bool {
        sign(verifier.secret, self.id, self.node_type, self.public_key) == self.signature
    }

    /// Modelled wire size of a certificate (id + type + key + signature,
    /// sized as a real X.509-lite blob would be).
    pub const WIRE_SIZE: usize = 128;
}

/// The verifying handle for a CA — distributed to every node so it can
/// check peers' certificates.
///
/// (In a real deployment this would be the CA's public key; here
/// verification recomputes the keyed hash, so the verifier carries the same
/// secret but exposes no issuing API.)
#[derive(Copy, Clone, Debug)]
pub struct CaVerifier {
    secret: u64,
}

/// The certificate authority. Only a value of this type can mint valid
/// certificates, which is what makes them unforgeable inside the
/// simulation.
#[derive(Debug)]
pub struct CertificateAuthority {
    secret: u64,
    next_key: u64,
}

impl CertificateAuthority {
    /// Creates a CA whose signatures are keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        CertificateAuthority { secret: mix(seed ^ 0xCACA_CACA), next_key: 1 }
    }

    /// The verifying handle to distribute to nodes.
    pub fn verifier(&self) -> CaVerifier {
        CaVerifier { secret: self.secret }
    }

    /// Issues a certificate binding `id` to a fresh key pair and the
    /// *claimed* type. Sybil limiting (paper §6.1) is out of scope of the
    /// CA itself: harnesses model it by bounding how many certificates an
    /// attacker may request.
    pub fn issue(&mut self, id: u128, claimed_type: NodeType) -> (Certificate, KeyPair) {
        let secret = mix(self.secret ^ self.next_key);
        self.next_key += 1;
        let public = PublicKey(mix(secret ^ 0x5EED_F00D));
        let keys = KeyPair { public, secret };
        let cert = Certificate {
            id,
            node_type: claimed_type,
            public_key: public,
            signature: sign(self.secret, id, claimed_type, public),
        };
        (cert, keys)
    }
}

/// Error opening a [`Sealed`] envelope with the wrong key.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WrongKeyError;

impl fmt::Display for WrongKeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sealed payload was encrypted for a different key")
    }
}

impl std::error::Error for WrongKeyError {}

/// A payload encrypted to one recipient's public key.
///
/// Models the encrypted lookup replies of §4.5: a `Sealed<T>` travelling
/// back along the reverse lookup path reveals nothing but its recipient;
/// only the holder of the matching [`KeyPair`] can [`open`](Sealed::open)
/// it. There is deliberately **no** accessor that leaks the payload.
///
/// # Example
///
/// ```
/// use verme_crypto::{CertificateAuthority, NodeType, Sealed};
///
/// let mut ca = CertificateAuthority::new(1);
/// let (_cert_a, keys_a) = ca.issue(10, NodeType::A);
/// let (_cert_b, keys_b) = ca.issue(11, NodeType::B);
///
/// let boxed = Sealed::seal(keys_a.public(), "secret address");
/// assert!(boxed.clone().open(&keys_b).is_err());
/// assert_eq!(boxed.open(&keys_a).unwrap(), "secret address");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sealed<T> {
    recipient: PublicKey,
    payload: T,
}

impl<T> Sealed<T> {
    /// Encrypts `payload` to `recipient`.
    pub fn seal(recipient: PublicKey, payload: T) -> Self {
        Sealed { recipient, payload }
    }

    /// Who this envelope is addressed to (visible on the wire, like a
    /// key id in a real hybrid-encryption header).
    pub fn recipient(&self) -> PublicKey {
        self.recipient
    }

    /// Decrypts with `keys`, consuming the envelope.
    ///
    /// # Errors
    ///
    /// Returns [`WrongKeyError`] if `keys` does not match the recipient.
    pub fn open(self, keys: &KeyPair) -> Result<T, WrongKeyError> {
        if keys.public == self.recipient {
            Ok(self.payload)
        } else {
            Err(WrongKeyError)
        }
    }
}

/// A statement signed by a node, carried alongside its certificate
/// (Compromise-VerDi's "vouching" statements, §5.3.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedStatement<T> {
    statement: T,
    signer: PublicKey,
    signature: u64,
}

impl<T: StatementDigest> SignedStatement<T> {
    /// Signs `statement` with `keys`.
    pub fn sign(keys: &KeyPair, statement: T) -> Self {
        let signature = mix(keys.secret ^ statement.digest());
        SignedStatement { statement, signer: keys.public(), signature }
    }

    /// Verifies the statement against the signer's certificate and returns
    /// the statement if genuine.
    ///
    /// # Errors
    ///
    /// Returns [`BadSignatureError`] if the certificate's key does not match
    /// the signer.
    pub fn verify(&self, cert: &Certificate) -> Result<&T, BadSignatureError> {
        if cert.public_key() != self.signer {
            return Err(BadSignatureError);
        }
        // `sign` is the only constructor, so a well-typed SignedStatement
        // whose signer key matches the certificate is genuine within the
        // simulation's threat model.
        Ok(&self.statement)
    }

    /// The public key that produced this signature.
    pub fn signer(&self) -> PublicKey {
        self.signer
    }
}

/// Error verifying a [`SignedStatement`] against a certificate.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BadSignatureError;

impl fmt::Display for BadSignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "statement signature does not match the presented certificate")
    }
}

impl std::error::Error for BadSignatureError {}

/// Digest hook for signable statements.
pub trait StatementDigest {
    /// A stable 64-bit digest of the statement contents.
    fn digest(&self) -> u64;
}

impl StatementDigest for u128 {
    fn digest(&self) -> u64 {
        mix((*self >> 64) as u64 ^ *self as u64)
    }
}

impl StatementDigest for (u128, u64) {
    fn digest(&self) -> u64 {
        mix(self.0.digest() ^ mix(self.1))
    }
}

fn sign(ca_secret: u64, id: u128, ty: NodeType, key: PublicKey) -> Signature {
    Signature(mix(ca_secret ^ mix(id as u64) ^ mix((id >> 64) as u64) ^ mix(ty.0 as u64) ^ key.0))
}

/// SplitMix64 finalizer (same mixer as verme-sim's seed derivation).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_type_basics() {
        assert_eq!(NodeType::A.opposite(), NodeType::B);
        assert_eq!(NodeType::B.opposite(), NodeType::A);
        assert_eq!(NodeType::A.to_string(), "A");
        assert_eq!(NodeType::new(2).to_string(), "C");
        assert_eq!(NodeType::new(30).to_string(), "T30");
    }

    #[test]
    #[should_panic(expected = "only defined for 2 types")]
    fn opposite_rejects_multitype() {
        let _ = NodeType::new(2).opposite();
    }

    #[test]
    fn certificates_verify_only_against_their_ca() {
        let mut ca1 = CertificateAuthority::new(1);
        let ca2 = CertificateAuthority::new(2);
        let (cert, _keys) = ca1.issue(42, NodeType::A);
        assert!(cert.verify(&ca1.verifier()));
        assert!(!cert.verify(&ca2.verifier()));
        assert_eq!(cert.id(), 42);
        assert_eq!(cert.node_type(), NodeType::A);
    }

    #[test]
    fn tampered_certificate_fails_verification() {
        let mut ca = CertificateAuthority::new(1);
        let (cert, _) = ca.issue(42, NodeType::A);
        let forged = Certificate {
            node_type: NodeType::B, // claim the other type
            ..cert
        };
        assert!(!forged.verify(&ca.verifier()));
    }

    #[test]
    fn impersonation_certs_are_valid_by_design() {
        // The Fast-VerDi attack: a type-A platform legitimately obtains a
        // certificate claiming type B. The certificate *verifies* — the
        // defence must come from the overlay design, not the PKI.
        let mut ca = CertificateAuthority::new(1);
        let (cert, _) = ca.issue(7, NodeType::B);
        assert!(cert.verify(&ca.verifier()));
        assert_eq!(cert.node_type(), NodeType::B);
    }

    #[test]
    fn distinct_nodes_get_distinct_keys() {
        let mut ca = CertificateAuthority::new(1);
        let (c1, k1) = ca.issue(1, NodeType::A);
        let (c2, k2) = ca.issue(2, NodeType::B);
        assert_ne!(c1.public_key(), c2.public_key());
        assert_ne!(k1.public(), k2.public());
    }

    #[test]
    fn sealed_envelope_enforces_recipient() {
        let mut ca = CertificateAuthority::new(3);
        let (_ca_cert, alice) = ca.issue(1, NodeType::A);
        let (_cb_cert, bob) = ca.issue(2, NodeType::B);
        let env = Sealed::seal(alice.public(), vec![1u8, 2, 3]);
        assert_eq!(env.recipient(), alice.public());
        assert_eq!(env.clone().open(&bob), Err(WrongKeyError));
        assert_eq!(env.open(&alice).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn signed_statements_bind_to_certificates() {
        let mut ca = CertificateAuthority::new(4);
        let (cert_a, alice) = ca.issue(1, NodeType::A);
        let (cert_b, _bob) = ca.issue(2, NodeType::B);
        let stmt = SignedStatement::sign(&alice, 77u128);
        assert_eq!(stmt.verify(&cert_a).unwrap(), &77);
        assert_eq!(stmt.verify(&cert_b), Err(BadSignatureError));
        assert_eq!(stmt.signer(), alice.public());
    }

    #[test]
    fn error_types_display() {
        assert!(!WrongKeyError.to_string().is_empty());
        assert!(!BadSignatureError.to_string().is_empty());
    }

    #[test]
    fn wire_size_is_plausible() {
        // Pin the modelled size so byte-accounting changes are deliberate.
        assert_eq!(Certificate::WIRE_SIZE, 128);
    }
}
