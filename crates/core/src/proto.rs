//! Verme's wire types and configuration, carried by the one
//! [`OverlayMsg`].
//!
//! Differences from Chord's protocol (paper §4.5):
//!
//! * lookups are **recursive only** — iterative and transitive traversals
//!   would reveal addresses to (or of) same-type nodes;
//! * every lookup carries the initiator's **certificate** and a stated
//!   **purpose**; the answering node verifies the initiator is entitled to
//!   this key before replying, and drops the lookup otherwise;
//! * lookup messages do **not** contain the initiator's network address —
//!   the reply retraces the reverse path, and lookup ids are opaque
//!   nonces;
//! * replies are **sealed** to the public key in the certificate, so relay
//!   nodes cannot read the handles inside;
//! * `Neighbors` advertises a whole predecessor list, which Verme
//!   maintains for the replica corner case of §5.2.
//!
//! Messages are generic over a piggyback payload `P` so that Secure-VerDi
//! can carry DHT operations (and their data) inside the lookup itself.

use verme_chord::{LookupKind, MaintenanceMode, NodeHandle, OverlayMsg, OverlayTimer, Timing};
use verme_crypto::{Certificate, Sealed};
use verme_sim::SimDuration;

use crate::layout::SectionLayout;
use crate::node::VermeRules;

/// A piggyback payload carried inside Verme lookups and replies.
///
/// `()` is the no-payload instantiation used when the overlay is run bare.
pub trait Payload: Clone + std::fmt::Debug {
    /// Modelled wire size of the payload in bytes.
    fn wire_size(&self) -> usize;
}

impl Payload for () {
    fn wire_size(&self) -> usize {
        0
    }
}

/// Why a lookup is being performed; the answering node verifies the
/// initiator's entitlement differently for each purpose (paper §4.5).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LookupPurpose {
    /// Joining the overlay: the key must equal the certificate's id.
    Join,
    /// Refreshing a finger: the key must be a legal Verme finger target of
    /// the certificate's id.
    Finger,
    /// A DHT-layer lookup for the replicas of a key: the initiator's
    /// certified type must differ from the key's section type.
    Replicas,
}

impl LookupKind for LookupPurpose {
    fn label(self) -> &'static str {
        match self {
            LookupPurpose::Join => "join",
            LookupPurpose::Finger => "finger",
            LookupPurpose::Replicas => "replicas",
        }
    }

    /// Replica lookups are application traffic; joins and finger
    /// refreshes are maintenance.
    fn is_app(self) -> bool {
        self == LookupPurpose::Replicas
    }
}

/// An opaque per-lookup nonce. Unlike Chord's [`LookupId`]
/// (which embeds the initiator's address), Verme lookup ids reveal
/// nothing; replies are routed by relay state held at each hop.
///
/// [`LookupId`]: verme_chord::LookupId
pub type VermeLookupId = u64;

/// The answer inside a sealed lookup reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VermeAnswer {
    /// Join answer: the joining node's predecessor (the answerer) and its
    /// successor list.
    Join {
        /// The answering node — the joiner's predecessor.
        predecessor: NodeHandle,
        /// The joiner's future successor list.
        successors: Vec<NodeHandle>,
    },
    /// Finger answer: the node responsible for the finger target under
    /// Verme's corner rule (§4.4).
    Finger {
        /// The finger entry.
        node: NodeHandle,
    },
    /// Replica answer: the in-section replica holders for the key (§5.2).
    /// May be empty if the key's section is unpopulated.
    Replicas {
        /// Replica holders, nearest first.
        replicas: Vec<NodeHandle>,
    },
    /// An answer that deliberately carries **no handles** — used for
    /// piggybacked (Secure-VerDi) operations, whose replies contain data,
    /// not addresses, and may therefore be served to initiators of any
    /// type (§5.3.2).
    Opaque,
}

impl VermeAnswer {
    fn handle_count(&self) -> usize {
        match self {
            VermeAnswer::Join { successors, .. } => 1 + successors.len(),
            VermeAnswer::Finger { .. } => 1,
            VermeAnswer::Replicas { replicas } => replicas.len(),
            VermeAnswer::Opaque => 0,
        }
    }
}

/// The full body of a sealed reply: the routing answer plus an optional
/// application payload (Secure-VerDi's piggybacked get results / put
/// acknowledgments).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnswerBody<P> {
    /// The routing-layer answer.
    pub answer: VermeAnswer,
    /// Application payload, if the lookup piggybacked an operation.
    pub app: Option<P>,
}

/// What a Verme lookup carries beside its key: the initiator's
/// certificate, never its network address, and why it asks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VermeTicket {
    /// The initiator's certificate (id, claimed type, public key).
    pub cert: Certificate,
    /// Why the initiator wants this key.
    pub purpose: LookupPurpose,
}

/// A Verme reply on the wire: the answer sealed to the initiator's key.
#[derive(Clone, Debug)]
pub struct SealedAnswer<P> {
    /// Answer sealed to the initiator's public key.
    pub body: Sealed<AnswerBody<P>>,
    /// Ciphertext length (visible on the wire, as any ciphertext's length
    /// would be); recorded by the sealer via [`answer_body_size`].
    pub size: usize,
}

/// Verme's wire messages, generic over the piggyback payload `P`.
pub type VermeMsg<P> = OverlayMsg<VermeRules<P>>;

/// Sealing overhead modelled for encrypted replies (key id + IV + MAC).
pub const SEAL_OVERHEAD: usize = 48;

/// Computes the modelled plaintext size of an answer body.
pub fn answer_body_size<P: Payload>(answer: &VermeAnswer, app: &Option<P>) -> usize {
    NodeHandle::WIRE_SIZE * answer.handle_count() + app.as_ref().map_or(0, |p| p.wire_size())
}

/// Timer tokens for the Verme node; a predecessor round's timer is its
/// token.
pub type VermeTimer = OverlayTimer<VermeLookupId, u64>;

/// Verme protocol parameters. Defaults mirror the paper's §7.1 setup plus
/// the Verme-specific knobs: 10 predecessors (like the 10 successors) and
/// the section layout.
#[derive(Clone, Debug, PartialEq)]
pub struct VermeConfig {
    /// The sectioned id layout.
    pub layout: SectionLayout,
    /// Successor-list length (paper: 10).
    pub num_successors: usize,
    /// Predecessor-list length (paper: 10).
    pub num_predecessors: usize,
    /// Interval between stabilization rounds.
    pub stabilize_interval: SimDuration,
    /// Interval between finger-refresh rounds.
    pub fix_fingers_interval: SimDuration,
    /// How long a hop waits for `HopAck` before rerouting.
    pub hop_timeout: SimDuration,
    /// Overall per-lookup deadline.
    pub lookup_deadline: SimDuration,
    /// Which ring-maintenance rules to run (corrected by default;
    /// `Legacy` is the Ext. M comparison arm).
    pub maintenance: MaintenanceMode,
}

impl VermeConfig {
    /// The parameters the shared node reads.
    pub fn timing(&self) -> Timing {
        Timing {
            stabilize_interval: self.stabilize_interval,
            fix_fingers_interval: self.fix_fingers_interval,
            hop_timeout: self.hop_timeout,
            lookup_deadline: self.lookup_deadline,
            maintenance: self.maintenance,
        }
    }

    /// Paper-default parameters over the given layout.
    pub fn new(layout: SectionLayout) -> Self {
        VermeConfig {
            layout,
            num_successors: 10,
            num_predecessors: 10,
            stabilize_interval: SimDuration::from_secs(30),
            fix_fingers_interval: SimDuration::from_secs(60),
            hop_timeout: SimDuration::from_millis(500),
            lookup_deadline: SimDuration::from_secs(8),
            maintenance: MaintenanceMode::default(),
        }
    }

    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns the first zero count or interval found.
    pub fn validate(&self) -> Result<(), verme_sim::InvalidConfig> {
        use verme_sim::config::ensure;
        ensure(self.num_successors > 0, "num_successors", "need at least one successor")?;
        ensure(self.num_predecessors > 0, "num_predecessors", "need at least one predecessor")?;
        ensure(!self.stabilize_interval.is_zero(), "stabilize_interval", "must be positive")?;
        ensure(!self.fix_fingers_interval.is_zero(), "fix_fingers_interval", "must be positive")?;
        ensure(!self.hop_timeout.is_zero(), "hop_timeout", "must be positive")?;
        ensure(!self.lookup_deadline.is_zero(), "lookup_deadline", "must be positive")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verme_chord::Id;
    use verme_crypto::{CertificateAuthority, NodeType};
    use verme_sim::Wire;

    #[test]
    fn lookup_size_includes_certificate_and_payload() {
        let mut ca = CertificateAuthority::new(1);
        let (cert, _keys) = ca.issue(5, NodeType::A);
        let bare: VermeMsg<()> = VermeMsg::Lookup {
            lid: 1,
            key: Id::new(5),
            ticket: VermeTicket { cert, purpose: LookupPurpose::Join },
            piggyback: None,
            hops: 0,
        };
        assert!(bare.wire_size() > Certificate::WIRE_SIZE);
    }

    /// A test payload of a given modelled size.
    #[derive(Clone, Debug)]
    struct Blob(usize);

    impl Payload for Blob {
        fn wire_size(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn wire_size_of_every_message_kind() {
        let mut ca = CertificateAuthority::new(1);
        let (cert, _keys) = ca.issue(5, NodeType::A);
        let h = NodeHandle::new(Id::new(1), verme_sim::Addr::NULL);
        // Every kind, with `n` handles in each list it carries; the reply
        // answers with `n` replica holders.
        let sizes = |n: usize| -> Vec<usize> {
            let s = vec![h; n];
            let reply = |app: Option<Blob>| {
                let answer = VermeAnswer::Replicas { replicas: s.clone() };
                let body_size = answer_body_size(&answer, &app);
                let body = Sealed::seal(cert.public_key(), AnswerBody { answer, app });
                VermeMsg::Reply { lid: 1, reply: SealedAnswer { body, size: body_size }, hops: 3 }
            };
            let (ticket, key) =
                (VermeTicket { cert, purpose: LookupPurpose::Replicas }, Id::new(5));
            [
                VermeMsg::Lookup { lid: 1, key, ticket, piggyback: None, hops: 0 },
                VermeMsg::Lookup { lid: 1, key, ticket, piggyback: Some(Blob(100)), hops: 0 },
                VermeMsg::HopAck { lid: 1 },
                reply(None),
                reply(Some(Blob(100))),
                VermeMsg::GetNeighbors { token: 1 },
                VermeMsg::Neighbors { token: 1, successors: s.clone(), predecessors: s.clone() },
                VermeMsg::Notify { node: h },
                VermeMsg::Leaving { node: h, successors: s.clone(), predecessors: s.clone() },
                VermeMsg::Ping { token: 1 },
                VermeMsg::Pong { token: 1 },
            ]
            .iter()
            .map(Wire::wire_size)
            .collect()
        };
        assert_eq!(sizes(0), [197, 297, 48, 100, 200, 48, 48, 62, 62, 48, 48]);
        assert_eq!(sizes(1), [197, 297, 48, 122, 222, 48, 92, 62, 106, 48, 48]);
        assert_eq!(sizes(10), [197, 297, 48, 320, 420, 48, 488, 62, 502, 48, 48]);
    }

    #[test]
    fn answer_body_size_scales() {
        let h = NodeHandle::new(Id::new(1), verme_sim::Addr::NULL);
        let small = VermeAnswer::Replicas { replicas: vec![h] };
        let big = VermeAnswer::Replicas { replicas: vec![h; 6] };
        let none: Option<()> = None;
        assert!(answer_body_size(&big, &none) > answer_body_size(&small, &none));
        let join = VermeAnswer::Join { predecessor: h, successors: vec![h; 10] };
        assert_eq!(answer_body_size(&join, &none), NodeHandle::WIRE_SIZE * 11);
    }

    #[test]
    fn config_defaults_match_paper() {
        let cfg = VermeConfig::new(SectionLayout::with_sections(128, 2));
        cfg.validate().expect("default config is valid");
        assert_eq!(cfg.num_successors, 10);
        assert_eq!(cfg.num_predecessors, 10);
        assert_eq!(cfg.stabilize_interval, SimDuration::from_secs(30));
    }

    #[test]
    fn config_validation() {
        let mut cfg = VermeConfig::new(SectionLayout::with_sections(128, 2));
        cfg.num_predecessors = 0;
        let err = cfg.validate().expect_err("zero predecessors must be rejected");
        assert_eq!(err.field, "num_predecessors");
    }
}
