//! The Verme rules (paper §4).
//!
//! A Verme node is the shared [`OverlayNode`] — Chord's ring half,
//! unchanged, and the hop-by-hop half of a lookup — run under
//! [`VermeRules`], which holds the type-aware modifications the paper
//! makes on top of them:
//!
//! * identifiers come from a [`SectionLayout`] and embed the node's type;
//! * finger targets are shifted by a section length so every long-range
//!   pointer names an **opposite-type** node (§4.4);
//! * the §4.4 corner rule ([`SectionLayout::corner_owner`]) assigns ids
//!   that fall after a section's last node to that node (the
//!   *predecessor*) instead of the next section's first node, and leaves a
//!   finger unset when the target's section holds neither;
//! * lookups are recursive only, carry the initiator's certificate and
//!   purpose, are verified by the answering node, and are answered with a
//!   reply **sealed** to the initiator's key (§4.5);
//! * a predecessor list is maintained alongside the successor list (§5.2).

use rand::Rng;

use verme_chord::node::keys;
use verme_chord::ring_core::{send_counted, take_waiting};
use verme_chord::{
    rebuild_list, Certified, Delivery, FingerRule, Id, InFlight, LookupKind, NeighborList,
    NodeHandle, OverlayCtx, OverlayMsg, OverlayNode, OverlayTimer, Pending, RingCore, Rules,
    Timing,
};
use verme_crypto::{CaVerifier, Certificate, KeyPair, NodeType, Sealed};
use verme_sim::{Addr, ProtoEvent, SimDuration, SimTime};

use crate::layout::SectionLayout;
use crate::proto::{
    answer_body_size, AnswerBody, LookupPurpose, Payload, SealedAnswer, VermeAnswer, VermeConfig,
    VermeLookupId, VermeTicket, SEAL_OVERHEAD,
};

/// Metric keys specific to Verme nodes. Most keys are shared with
/// [`verme_chord::node::keys`]; only the §4.5 verification counter is new.
pub mod verme_keys {
    use verme_sim::MetricDesc;

    /// Lookups dropped by the answering node's §4.5 verification.
    pub const LOOKUP_DENIED: &str = "lookup.denied";

    /// Descriptors for the Verme-specific metrics, for registry export.
    pub fn descriptors() -> &'static [MetricDesc] {
        const DESCS: &[MetricDesc] = &[MetricDesc::counter(
            LOOKUP_DENIED,
            "lookups",
            "lookups dropped by §4.5 entitlement verification",
        )];
        DESCS
    }
}

/// The observable outcome of a lookup initiated on this node, drained with
/// [`take_outcomes`](verme_chord::OverlayNode::take_outcomes).
#[derive(Clone, Debug)]
pub struct VermeOutcome<P> {
    /// Nonce returned by the `start_*` call.
    pub lid: VermeLookupId,
    /// The key that was looked up.
    pub key: Id,
    /// Why the lookup was issued.
    pub purpose: LookupPurpose,
    /// The routing answer, or `None` on failure (timeout, verification
    /// denial, or no route).
    pub answer: Option<VermeAnswer>,
    /// Piggybacked application payload from the replier, if any.
    pub app: Option<P>,
    /// Forward-path hops.
    pub hops: u32,
    /// Time from initiation to completion or failure.
    pub latency: SimDuration,
}

/// A piggybacked lookup that reached its responsible node and awaits the
/// embedding layer's answer (Secure-VerDi executes the DHT operation, then
/// calls [`send_answer`](verme_chord::OverlayNode::send_answer)).
#[derive(Clone, Debug)]
pub struct AnswerRequest<P> {
    /// The lookup nonce; pass back to
    /// [`send_answer`](verme_chord::OverlayNode::send_answer).
    pub lid: VermeLookupId,
    /// The key that was looked up.
    pub key: Id,
    /// The initiator's certificate (already verified).
    pub cert: Certificate,
    /// The piggybacked operation.
    pub payload: P,
    /// Forward-path hops so far.
    pub hops: u32,
}

/// A pending piggybacked answer: the responsible node has handed the
/// operation up and remembers where the reply must travel.
#[derive(Clone, Debug)]
struct AnswerState {
    ticket: VermeTicket,
    prev: Option<Addr>,
    hops: u32,
}

/// Verme's rules: the node's certified identity, its predecessor list,
/// and the piggybacked lookups it holds for the embedding layer.
#[derive(Clone, Debug)]
pub struct VermeRules<P> {
    cfg: VermeConfig,
    cert: Certificate,
    crypto_keys: KeyPair,
    verifier: CaVerifier,
    predecessors: NeighborList,
    answers: InFlight<VermeLookupId, AnswerState>,
    answer_requests: Vec<AnswerRequest<P>>,
    pred_stab_waiting: Option<(u64, NodeHandle)>,
    denied: u64,
}

/// A Verme overlay node.
///
/// Like [`ChordNode`](verme_chord::ChordNode), it is driven by a
/// [`Runtime`](verme_sim::Runtime); construct it with
/// [`first`](OverlayNode::first), [`joining`](OverlayNode::joining), or
/// [`with_state`](OverlayNode::with_state). The node owns its
/// [`Certificate`] and [`KeyPair`] and verifies peers against the
/// [`CaVerifier`].
pub type VermeNode<P = ()> = OverlayNode<VermeRules<P>>;

impl<P: Payload> VermeRules<P> {
    /// This node's platform type.
    pub fn node_type(&self) -> NodeType {
        self.cert.node_type()
    }

    /// This node's certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// The node's predecessor list, nearest first.
    pub fn predecessor_list(&self) -> &[NodeHandle] {
        self.predecessors.as_slice()
    }

    /// The section layout this node runs under.
    pub fn layout(&self) -> &SectionLayout {
        &self.cfg.layout
    }

    /// Lookups this node denied for failing verification.
    pub fn denied_lookups(&self) -> u64 {
        self.denied
    }

    /// The CA verifier this node checks peers against.
    pub fn verifier(&self) -> &CaVerifier {
        &self.verifier
    }

    /// Signs a statement with this node's key (Compromise-VerDi's
    /// operation vouching, §5.3.3).
    pub fn sign_statement<T: verme_crypto::StatementDigest>(
        &self,
        statement: T,
    ) -> verme_crypto::SignedStatement<T> {
        verme_crypto::SignedStatement::sign(&self.crypto_keys, statement)
    }

    /// Drains piggybacked operations awaiting an application-layer answer.
    pub fn take_answer_requests(&mut self) -> Vec<AnswerRequest<P>> {
        std::mem::take(&mut self.answer_requests)
    }

    /// Verifies an initiator's entitlement to look up `key` (§4.5).
    ///
    /// Piggybacked lookups (Secure-VerDi operations) are exempt from the
    /// §5.3.1 opposite-type rule: their replies carry data, never
    /// addresses, so any certified node may issue them (§5.3.2).
    fn verify_lookup(
        &self,
        key: Id,
        cert: &Certificate,
        purpose: LookupPurpose,
        piggybacked: bool,
    ) -> bool {
        if !cert.verify(&self.verifier) {
            return false;
        }
        let cert_id = Id::new(cert.id());
        // The id's embedded type must match the certified type.
        if self.cfg.layout.type_of(cert_id) != cert.node_type() {
            return false;
        }
        match purpose {
            LookupPurpose::Join => key == cert_id,
            LookupPurpose::Finger => self.cfg.layout.is_finger_target(cert_id, key),
            LookupPurpose::Replicas => {
                // §5.3.1: the initiator's type must differ from the type
                // of the section the replicas live in — unless the reply
                // will be opaque (piggybacked operation).
                piggybacked || cert.node_type() != self.cfg.layout.type_of(key)
            }
        }
    }

    /// Builds the answer for `key` under Verme's responsibility rules.
    fn make_answer(&self, ring: &RingCore, key: Id, purpose: LookupPurpose) -> VermeAnswer {
        match purpose {
            LookupPurpose::Join => VermeAnswer::Join {
                predecessor: ring.me(),
                successors: ring.successors().as_slice().to_vec(),
            },
            LookupPurpose::Finger => {
                VermeAnswer::Finger { node: self.corner_responsible(ring, key) }
            }
            LookupPurpose::Replicas => {
                VermeAnswer::Replicas { replicas: self.replicas_for(ring, key) }
            }
        }
    }

    /// The §4.4 rule on the arc this node owns: `key`'s successor is the
    /// first successor and its predecessor this node. When neither lies in
    /// `key`'s section this node still names itself, an answer outside
    /// the section that the asker's install turns into an empty slot.
    fn corner_responsible(&self, ring: &RingCore, key: Id) -> NodeHandle {
        let me = ring.me();
        let s1 = ring.successors().first().unwrap_or(me);
        self.cfg.layout.corner_owner(key, s1, Some(me), |h| h.id).unwrap_or(me)
    }

    /// §5.2 replica placement: the `n/2` nodes at-or-after `key` within
    /// its section; if the section end intervenes, replicate toward the
    /// predecessors instead.
    fn replicas_for(&self, ring: &RingCore, key: Id) -> Vec<NodeHandle> {
        // VerDi stores n/2 replicas per section; the reproduction models
        // n = 6.
        const R: usize = 3;
        let layout = &self.cfg.layout;
        let in_section = |h: &&NodeHandle| layout.same_section(h.id, key);
        let fwd: Vec<NodeHandle> =
            ring.successors().iter().filter(in_section).take(R).copied().collect();
        if !fwd.is_empty() {
            return fwd;
        }
        // Corner: no in-section successor — replicate toward predecessors,
        // this node first.
        let me = ring.me();
        [me].iter().chain(self.predecessors.iter()).filter(in_section).take(R).copied().collect()
    }
}

impl<P: Payload> Rules for VermeRules<P> {
    type Lid = VermeLookupId;
    type Kind = LookupPurpose;
    type Ticket = VermeTicket;
    type Payload = P;
    type Reply = SealedAnswer<P>;
    type Answer = AnswerBody<P>;
    type Outcome = VermeOutcome<P>;
    type PredTimer = u64;
    const JOIN: LookupPurpose = LookupPurpose::Join;
    const APP: LookupPurpose = LookupPurpose::Replicas;

    fn timing(&self) -> Timing {
        self.cfg.timing()
    }

    fn ticket(&self, _: NodeHandle, purpose: LookupPurpose) -> VermeTicket {
        VermeTicket { cert: self.cert, purpose }
    }

    fn bytes_key(ticket: &VermeTicket) -> &'static str {
        ticket.purpose.bytes_key()
    }

    /// Certificate, purpose, piggyback and hop count.
    fn lookup_size(_: &VermeTicket, piggyback: Option<&P>) -> usize {
        Certificate::WIRE_SIZE + 1 + piggyback.map_or(0, |p| p.wire_size()) + 4
    }

    fn reply_size(reply: &SealedAnswer<P>) -> usize {
        SEAL_OVERHEAD + reply.size
    }

    fn predecessor_slots(advertised: &[NodeHandle]) -> usize {
        advertised.len()
    }

    fn place(&self, id: Id) -> Option<(u8, u128)> {
        let layout = &self.cfg.layout;
        Some((layout.type_of(id).index(), layout.section_of(id)))
    }

    /// Seals the answer to the initiator's certified key.
    fn seal(ticket: &VermeTicket, answer: AnswerBody<P>) -> SealedAnswer<P> {
        let size = answer_body_size(&answer.answer, &answer.app);
        SealedAnswer { body: Sealed::seal(ticket.cert.public_key(), answer), size }
    }

    fn open(&self, reply: SealedAnswer<P>) -> Option<AnswerBody<P>> {
        reply.body.open(&self.crypto_keys).ok()
    }

    /// An opaque nonce: a Verme lookup id names no initiator.
    fn mint(&mut self, _: Addr, ctx: &mut OverlayCtx<'_, Self>) -> VermeLookupId {
        ctx.rng().gen()
    }

    fn op(lid: &VermeLookupId) -> u64 {
        *lid
    }

    fn answer(
        &mut self,
        ring: &RingCore,
        lid: VermeLookupId,
        key: Id,
        ticket: &VermeTicket,
        piggyback: Option<P>,
        prev: Option<Addr>,
        hops: u32,
        ctx: &mut OverlayCtx<'_, Self>,
    ) -> Option<AnswerBody<P>> {
        let VermeTicket { cert, purpose } = *ticket;
        if prev.is_some() && !self.verify_lookup(key, &cert, purpose, piggyback.is_some()) {
            // §4.5: drop illegitimate lookups. The initiator's deadline
            // will fire.
            self.denied += 1;
            ctx.metrics().count(verme_keys::LOOKUP_DENIED, 1);
            ctx.emit(ProtoEvent::Note { label: verme_keys::LOOKUP_DENIED, value: lid });
            return None;
        }
        if let Some(payload) = piggyback {
            // Hand the operation to the embedding layer; the reply leaves
            // in send_answer. An answer held for another node's lookup
            // expires as relay state does.
            let now = ctx.now();
            let expiry = prev.map_or(SimTime::MAX, |_| now + self.cfg.lookup_deadline * 2);
            self.answers.insert(lid, AnswerState { ticket: *ticket, prev, hops }, expiry, now);
            self.answer_requests.push(AnswerRequest { lid, key, cert, payload, hops });
            return None;
        }
        Some(AnswerBody { answer: self.make_answer(ring, key, purpose), app: None })
    }

    fn holds(&self, lid: &VermeLookupId, now: SimTime) -> bool {
        self.answers.contains_key(lid, now)
    }

    /// The initiator's certificate travels in the lookup, so a Byzantine
    /// relay can seal a perfectly valid-looking envelope — certificates
    /// authenticate *initiators*, not answers (DESIGN.md §7f).
    fn forged(me: NodeHandle, ticket: &VermeTicket, piggybacked: bool) -> AnswerBody<P> {
        let answer = match ticket.purpose {
            LookupPurpose::Join => VermeAnswer::Join { predecessor: me, successors: vec![me] },
            LookupPurpose::Finger => VermeAnswer::Finger { node: me },
            // Piggybacked replies are opaque; an empty forged answer body
            // fails the caller's payload check instead.
            LookupPurpose::Replicas if piggybacked => VermeAnswer::Opaque,
            LookupPurpose::Replicas => VermeAnswer::Replicas { replicas: vec![me] },
        };
        AnswerBody { answer, app: None }
    }

    fn deliver(
        &mut self,
        ring: &mut RingCore,
        lid: VermeLookupId,
        p: Pending<LookupPurpose>,
        reply: Option<(AnswerBody<P>, u32)>,
        latency: SimDuration,
    ) -> Delivery<VermeOutcome<P>> {
        let answer = reply.as_ref().map(|(body, _)| &body.answer);
        match (answer, p.kind) {
            (Some(VermeAnswer::Join { predecessor, successors }), LookupPurpose::Join) => {
                let mode = self.cfg.maintenance;
                // A trusted answerer (legacy one-phase join) becomes our
                // nearest predecessor; the corrected protocol leaves the
                // list to fill in through notifies.
                if let Some(p) = ring.complete_join(mode, *predecessor, successors) {
                    self.predecessors.integrate(p);
                }
                Delivery::Joined
            }
            (Some(VermeAnswer::Finger { node }), LookupPurpose::Finger) => {
                // The answerer resolved the target by the §4.4 rule; an
                // answer outside the target's section (its unpopulated
                // corner, or a forged one) clears the slot, as does one
                // failing the §3 check.
                let (layout, id) = (&self.cfg.layout, ring.id());
                let owner = layout
                    .resolve(p.key, *node, None, |h| h.id)
                    .filter(|h| layout.admissible(id, h.id));
                // Finger refreshes are keyed by target: re-derive which
                // finger index this target serves.
                if let Some(i) = layout.finger_index(id, p.key) {
                    ring.set_finger(i as usize, owner);
                }
                Delivery::Done
            }
            (None, LookupPurpose::Join) => Delivery::JoinFailed,
            (_, LookupPurpose::Replicas) => {
                let (answer, app, hops) =
                    reply.map_or((None, None, 0), |(b, h)| (Some(b.answer), b.app, h));
                let key = p.key;
                Delivery::Outcome(VermeOutcome {
                    lid,
                    key,
                    purpose: p.kind,
                    answer,
                    app,
                    hops,
                    latency,
                })
            }
            _ => Delivery::Done,
        }
    }

    /// §4.3's shifted targets under the §4.4 corner rule.
    fn fingers(&self) -> &impl FingerRule {
        &self.cfg.layout
    }

    /// A Verme finger refresh names its target, not its index.
    fn finger_kind(_: usize) -> LookupPurpose {
        LookupPurpose::Finger
    }

    fn predecessors(&self) -> &[NodeHandle] {
        self.predecessors.as_slice()
    }

    fn forget_predecessor(&mut self, addr: Addr) -> bool {
        self.predecessors.remove_addr(addr)
    }

    /// Asks the first successor, then stabilizes the predecessor list the
    /// same way through its first entry.
    fn stabilize(
        &mut self,
        ring: &mut RingCore,
        ctx: &mut OverlayCtx<'_, Self>,
        successor_round: impl FnOnce(&mut RingCore, &mut OverlayCtx<'_, Self>),
    ) {
        successor_round(ring, ctx);
        if let Some(p1) = self.predecessors.first() {
            let token = ring.fresh_token();
            self.pred_stab_waiting = Some((token, p1));
            send_counted(ctx, p1.addr, OverlayMsg::GetNeighbors { token }, keys::BYTES_MAINT);
            ctx.set_timer(self.cfg.hop_timeout * 2, OverlayTimer::Predecessor(token));
        }
    }

    fn take_predecessor_round(&mut self, token: u64) -> Option<NodeHandle> {
        take_waiting(&mut self.pred_stab_waiting, token)
    }

    /// The successor rebuild, mirrored counter-clockwise. A notifier that
    /// arrived while the round was open lies between us and p1 and
    /// survives it; else rounds in a fixed phase drop it forever.
    fn adopt_predecessors(
        &mut self,
        ring: &mut RingCore,
        p1: NodeHandle,
        advertised: &[NodeHandle],
        poisoned: bool,
    ) {
        let mode = self.cfg.maintenance;
        let between = self.predecessors.first();
        let fresh = rebuild_list(&self.predecessors, mode, p1, between, advertised, poisoned);
        if fresh != self.predecessors {
            ring.bump_epoch();
        }
        self.predecessors = fresh;
    }

    /// The symmetric predecessor list absorbs every notifier (both
    /// modes); stabilization prunes dead entries, so the legacy
    /// stale-incumbent hazard does not apply to the list side.
    fn notified(&mut self, ring: &mut RingCore, node: NodeHandle, _: &mut OverlayCtx<'_, Self>) {
        if node.id != ring.id() && self.predecessors.integrate(node) {
            ring.bump_epoch();
        }
    }

    /// Every handed predecessor joins the list; none counts as a notify.
    fn handed_predecessors(
        &mut self,
        ring: &mut RingCore,
        handed: Vec<NodeHandle>,
    ) -> Option<NodeHandle> {
        for h in handed {
            if self.predecessors.integrate(h) {
                ring.bump_epoch();
            }
        }
        None
    }

    fn predecessor_timeout(&mut self, ring: &mut RingCore, token: u64) {
        if let Some(p1) = take_waiting(&mut self.pred_stab_waiting, token) {
            let gone = self.forget_predecessor(p1.addr);
            ring.mark_dead(p1.addr, gone);
        }
    }

    /// Forward state does not keep piggybacked payloads (large data would
    /// be double-counted), so a piggybacked lookup cannot be rerouted at
    /// all; the initiator's deadline covers that rare case.
    fn pinned(piggyback: Option<&P>) -> bool {
        piggyback.map_or(0, |p| p.wire_size()) > 0
    }
}

impl<P: Payload> Certified for VermeRules<P> {
    type Config = VermeConfig;

    fn certified(
        cfg: VermeConfig,
        cert: Certificate,
        crypto_keys: KeyPair,
        verifier: CaVerifier,
        predecessors: &[NodeHandle],
    ) -> (RingCore, Self) {
        if let Err(e) = cfg.validate() {
            panic!("invalid Verme config: {e}");
        }
        let id = Id::new(cert.id());
        assert_eq!(
            cfg.layout.type_of(id),
            cert.node_type(),
            "certificate type does not match the id's embedded type"
        );
        assert_eq!(cert.public_key(), crypto_keys.public(), "key pair does not match certificate");
        let mut list = NeighborList::predecessors(id, cfg.num_predecessors);
        list.integrate_all(predecessors);
        let rules = VermeRules {
            predecessors: list,
            cert,
            crypto_keys,
            verifier,
            answers: InFlight::default(),
            answer_requests: Vec::new(),
            pred_stab_waiting: None,
            denied: 0,
            cfg,
        };
        (RingCore::new(id, rules.cfg.num_successors), rules)
    }

    /// The opposite-type replica point, as a data-bearing application
    /// would ask for.
    fn measured_key(&self, key: Id) -> Id {
        self.cfg.layout.replica_point_avoiding(key, self.cert.node_type())
    }

    /// Piggybacked replies never disclose handles (§5.3.2).
    fn answer_held(
        &mut self,
        lid: &VermeLookupId,
        app: Option<P>,
        now: SimTime,
    ) -> Option<(Option<Addr>, VermeTicket, u32, AnswerBody<P>)> {
        let st = self.answers.remove(lid, now)?;
        Some((st.prev, st.ticket, st.hops, AnswerBody { answer: VermeAnswer::Opaque, app }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{VermeMsg, VermeTimer};
    use verme_chord::RingNode;
    use verme_crypto::CertificateAuthority;
    use verme_sim::runtime::UniformLatency;
    use verme_sim::{HostId, Node, Runtime, SimTime};

    fn setup() -> (VermeConfig, CertificateAuthority) {
        (VermeConfig::new(SectionLayout::with_sections(16, 2)), CertificateAuthority::new(1))
    }

    fn node_of_type(ty: NodeType) -> (VermeNode<()>, CertificateAuthority) {
        let (cfg, mut ca) = setup();
        let mut rng = verme_sim::SeedSource::new(5).stream("t");
        let id = cfg.layout.assign_id(&mut rng, ty);
        let (cert, keys) = ca.issue(id.raw(), ty);
        (VermeNode::first(cfg, cert, keys, ca.verifier()), ca)
    }

    #[test]
    fn construction_checks_type_consistency() {
        let (node, _ca) = node_of_type(NodeType::A);
        assert_eq!(node.node_type(), NodeType::A);
        assert!(node.is_joined());
        assert_eq!(node.layout().type_of(node.id()), NodeType::A);
    }

    #[test]
    #[should_panic(expected = "certificate type does not match")]
    fn construction_rejects_mismatched_type_bits() {
        let (cfg, mut ca) = setup();
        let mut rng = verme_sim::SeedSource::new(5).stream("t");
        // Id embeds type A but the certificate claims B.
        let id = cfg.layout.assign_id(&mut rng, NodeType::A);
        let (cert, keys) = ca.issue(id.raw(), NodeType::B);
        let _: VermeNode<()> = VermeNode::first(cfg, cert, keys, ca.verifier());
    }

    #[test]
    fn verify_lookup_enforces_each_purpose() {
        let (node, mut ca) = node_of_type(NodeType::A);
        let layout = *node.layout();
        let mut rng = verme_sim::SeedSource::new(9).stream("peer");

        // A legitimate type-B peer.
        let peer_id = layout.assign_id(&mut rng, NodeType::B);
        let (peer_cert, _peer_keys) = ca.issue(peer_id.raw(), NodeType::B);

        // Join: only its own id.
        assert!(node.verify_lookup(peer_id, &peer_cert, LookupPurpose::Join, false));
        assert!(!node.verify_lookup(
            peer_id.wrapping_add(1),
            &peer_cert,
            LookupPurpose::Join,
            false
        ));

        // Finger: only legal finger targets.
        let ft = layout.finger_target(peer_id, 126);
        assert!(node.verify_lookup(ft, &peer_cert, LookupPurpose::Finger, false));
        assert!(!node.verify_lookup(ft.wrapping_add(1), &peer_cert, LookupPurpose::Finger, false));

        // Replicas: only keys in sections of the *other* type...
        let key_a = layout.embed_type(Id::new(12345), NodeType::A);
        let key_b = layout.embed_type(Id::new(12345), NodeType::B);
        assert!(node.verify_lookup(key_a, &peer_cert, LookupPurpose::Replicas, false));
        assert!(!node.verify_lookup(key_b, &peer_cert, LookupPurpose::Replicas, false));
        // ...unless the lookup is piggybacked (reply carries no handles).
        assert!(node.verify_lookup(key_b, &peer_cert, LookupPurpose::Replicas, true));
    }

    #[test]
    fn verify_lookup_rejects_foreign_and_inconsistent_certs() {
        let (node, _ca) = node_of_type(NodeType::A);
        let layout = *node.layout();
        let mut other_ca = CertificateAuthority::new(999);
        let mut rng = verme_sim::SeedSource::new(9).stream("peer");
        let id = layout.assign_id(&mut rng, NodeType::B);
        // Valid shape, wrong CA.
        let (foreign, _) = other_ca.issue(id.raw(), NodeType::B);
        assert!(!node.verify_lookup(id, &foreign, LookupPurpose::Join, false));
    }

    #[test]
    fn corner_responsible_prefers_in_section_successor() {
        let (cfg, mut ca) = setup();
        let layout = cfg.layout;
        let mut rng = verme_sim::SeedSource::new(7).stream("ids");
        let id = layout.assign_id(&mut rng, NodeType::A);
        let (cert, keys) = ca.issue(id.raw(), NodeType::A);
        // Successor in the same section as the key -> successor answers.
        let in_sec = Id::new(id.raw().wrapping_add(5));
        let succ = NodeHandle::new(in_sec, Addr::from_raw(77));
        let node: VermeNode<()> =
            VermeNode::with_state(cfg, cert, keys, ca.verifier(), &[], &[succ], &[]);
        let key = Id::new(id.raw().wrapping_add(2)); // same section, before succ
        assert_eq!(node.corner_responsible(node.ring(), key), succ);
        // Key in a section the successor is not in -> predecessor (self).
        let far_key = layout.paired_replica_point(id);
        if !layout.same_section(succ.id, far_key) {
            assert_eq!(node.corner_responsible(node.ring(), far_key).id, node.id());
        }
    }

    /// A type-A node five ids into section 2 whose first successor is
    /// seven ids into (type-B) section 3, spawned alone: every lookup it
    /// sends goes nowhere.
    fn node_before_a_section_end(
        fingers: &[(usize, NodeHandle)],
    ) -> (Runtime<VermeNode<()>, UniformLatency>, Addr, NodeHandle) {
        let (cfg, mut ca) = setup();
        let id = cfg.layout.section_start(2).wrapping_add(5);
        let succ = NodeHandle::new(cfg.layout.section_start(3).wrapping_add(7), Addr::from_raw(77));
        let (cert, keys) = ca.issue(id.raw(), NodeType::A);
        let node = VermeNode::with_state(cfg, cert, keys, ca.verifier(), &[], &[succ], fingers);
        let mut rt = Runtime::new(UniformLatency::new(1, SimDuration::from_millis(1)), 1);
        let addr = rt.spawn(HostId(0), node);
        (rt, addr, succ)
    }

    #[test]
    fn near_fingers_past_the_own_sections_last_member_stay_empty() {
        let (mut rt, addr, succ) = node_before_a_section_end(&[]);
        rt.invoke(addr, |n, ctx| n.on_timer(VermeTimer::FixFingers, ctx)).expect("alive");
        let node = rt.node(addr).expect("alive");
        let bits = node.layout().section_bits() as usize;
        // Every target below one section's length ahead lies in section 2,
        // past its last member: the plain successor is section 3's first
        // node, and its predecessor is the node itself.
        for b in 0..bits {
            assert_eq!(node.finger_table().get(b), None, "bit {b}");
        }
        // One section ahead, the target lies in section 3, before `succ`.
        assert_eq!(node.finger_table().get(bits), Some(succ));
    }

    #[test]
    fn a_finger_answer_outside_the_targets_section_clears_the_slot() {
        let (cfg, mut ca) = setup();
        let id = cfg.layout.section_start(2).wrapping_add(5);
        let target = cfg.layout.finger_target(id, 127);
        let in_section = NodeHandle::new(target.wrapping_add(1), Addr::from_raw(78));
        let succ = NodeHandle::new(cfg.layout.section_start(3).wrapping_add(7), Addr::from_raw(77));
        let (cert, keys) = ca.issue(id.raw(), NodeType::A);
        let (ring, mut rules) = VermeRules::<()>::certified(cfg, cert, keys, ca.verifier(), &[]);
        let mut ring = ring.with_state(&[succ], &[(127, in_section)]);
        // Two sections further on: the target's type, so §3 admits it.
        let beyond = target.wrapping_add(2 * rules.cfg.layout.section_len());
        let answer = VermeAnswer::Finger { node: NodeHandle::new(beyond, Addr::from_raw(79)) };
        assert!(rules.cfg.layout.admissible(id, beyond));
        let p = Pending { key: target, kind: LookupPurpose::Finger, started: SimTime::ZERO };
        let reply = Some((AnswerBody { answer, app: None }, 1));
        rules.deliver(&mut ring, 1, p, reply, SimDuration::ZERO);
        assert_eq!(ring.fingers().get(127), None);
    }

    #[test]
    fn a_notifier_arriving_during_a_predecessor_round_survives_it() {
        let (cfg, mut ca) = setup();
        let id = cfg.layout.section_start(2).wrapping_add(100);
        let p1 = NodeHandle::new(id.wrapping_sub(50), Addr::from_raw(5));
        let between = NodeHandle::new(id.wrapping_sub(10), Addr::from_raw(6));
        let (cert, keys) = ca.issue(id.raw(), NodeType::A);
        let node: VermeNode<()> =
            VermeNode::with_state(cfg, cert, keys, ca.verifier(), &[p1], &[], &[]);
        let mut rt = Runtime::new(UniformLatency::new(1, SimDuration::from_millis(1)), 1);
        let addr = rt.spawn(HostId(0), node);
        rt.invoke(addr, |n, ctx| {
            n.on_timer(VermeTimer::Stabilize, ctx);
            let (token, asked) = n.pred_stab_waiting.expect("a predecessor round is open");
            assert_eq!(asked, p1);
            // The notify lands before p1's reply, which cannot name it.
            n.on_message(between.addr, VermeMsg::Notify { node: between }, ctx);
            let reply = VermeMsg::Neighbors { token, successors: vec![], predecessors: vec![] };
            n.on_message(p1.addr, reply, ctx);
        })
        .expect("alive");
        assert_eq!(rt.node(addr).expect("alive").predecessor_list(), [between, p1]);
    }

    #[test]
    fn replicas_for_falls_back_to_predecessor_side() {
        let (cfg, mut ca) = setup();
        let layout = cfg.layout;
        let mut rng = verme_sim::SeedSource::new(13).stream("ids");
        let id = layout.assign_id(&mut rng, NodeType::A);
        let (cert, keys) = ca.issue(id.raw(), NodeType::A);
        // Predecessors in our section; successors all in the next section.
        let pred = NodeHandle::new(Id::new(id.raw().wrapping_sub(3)), Addr::from_raw(5));
        let next_sec = layout.paired_replica_point(id);
        let succ = NodeHandle::new(next_sec, Addr::from_raw(6));
        let node: VermeNode<()> =
            VermeNode::with_state(cfg, cert, keys, ca.verifier(), &[pred], &[succ], &[]);
        // A key just after us, still in our section, with no in-section
        // successor: replicate toward predecessors (self first).
        let key = Id::new(id.raw().wrapping_add(1));
        if layout.same_section(key, id) && !layout.same_section(succ.id, key) {
            let reps = node.replicas_for(node.ring(), key);
            assert!(!reps.is_empty());
            assert_eq!(reps[0].id, node.id());
            assert!(reps.iter().any(|r| r.id == pred.id));
        }
    }

    #[test]
    fn unsolicited_neighbors_are_not_vetted() {
        let (cfg, mut ca) = setup();
        let mut rng = verme_sim::SeedSource::new(7).stream("ids");
        let id = cfg.layout.assign_id(&mut rng, NodeType::A);
        let (cert, keys) = ca.issue(id.raw(), NodeType::A);
        let succ = NodeHandle::new(Id::new(id.raw().wrapping_add(5)), Addr::from_raw(77));
        let node: VermeNode<()> =
            VermeNode::with_state(cfg, cert, keys, ca.verifier(), &[], &[succ], &[]);
        let mut rt = Runtime::new(UniformLatency::new(1, SimDuration::from_millis(1)), 1);
        let addr = rt.spawn(HostId(0), node);
        // No stabilize round is open, so no token matches; the advert
        // rebinds the successor's address to another id.
        let rebound = NodeHandle::new(Id::new(succ.id.raw().wrapping_add(1)), succ.addr);
        let advert = VermeMsg::Neighbors {
            token: 999,
            successors: vec![rebound],
            predecessors: vec![rebound],
        };
        rt.invoke(addr, |n, ctx| n.on_message(succ.addr, advert, ctx)).expect("alive");
        assert_eq!(rt.metrics().counter(verme_chord::keys::RING_POISONED), 0);
        assert_eq!(rt.node(addr).expect("alive").successor_list(), [succ]);
    }
}
