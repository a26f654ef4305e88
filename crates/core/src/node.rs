//! The Verme node state machine (paper §4).
//!
//! The ring half — successor list, fingers, stabilize/notify, reseeding,
//! join completion, advert vetting — is Chord's, unchanged, and lives in
//! the embedded [`RingCore`]; so is the hop-by-hop half of a lookup —
//! acks, duplicate checks, reply relay, hop-timeout reroutes, relay GC —
//! in the embedded [`LookupTable`]. This file holds the type-aware
//! modifications the paper makes on top of them:
//!
//! * identifiers come from a [`SectionLayout`] and embed the node's type;
//! * finger targets are shifted by a section length so every long-range
//!   pointer names an **opposite-type** node (§4.4);
//! * the §4.4 corner rule assigns ids that fall after a section's last
//!   node to that node (the *predecessor*) instead of the next section's
//!   first same-type node;
//! * lookups are recursive only, carry the initiator's certificate and
//!   purpose, are verified by the answering node, and are answered with a
//!   reply **sealed** to the initiator's key (§4.5);
//! * a predecessor list is maintained alongside the successor list (§5.2).

use std::collections::HashMap;

use rand::Rng;

use verme_chord::node::keys;
use verme_chord::ring_core::{send_counted, take_waiting};
use verme_chord::{
    rebuild_list, Behaviour, FingerTable, Hop, HopTimeout, Id, LookupKind, LookupTable,
    MaintenanceMode, NeighborList, NodeHandle, Relay, RingCore, RingNode, RingStance,
};
use verme_crypto::{CaVerifier, Certificate, KeyPair, NodeType, Sealed};
use verme_sim::{Addr, Ctx, Node, ProfScope, ProtoEvent, Scope, SimDuration};

use crate::layout::SectionLayout;
use crate::proto::{
    answer_body_size, AnswerBody, LookupPurpose, Payload, VermeAnswer, VermeConfig, VermeLookupId,
    VermeMsg, VermeTimer,
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
/// [`VermeNode::take_outcomes`].
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
/// calls [`VermeNode::send_answer`]).
#[derive(Clone, Debug)]
pub struct AnswerRequest<P> {
    /// The lookup nonce; pass back to [`VermeNode::send_answer`].
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
struct AnswerState {
    cert: Certificate,
    prev: Option<Addr>,
    hops: u32,
}

/// A Verme overlay node.
///
/// Like [`ChordNode`](verme_chord::ChordNode), it is driven by a
/// [`Runtime`](verme_sim::Runtime); construct it with [`VermeNode::first`],
/// [`VermeNode::joining`], or [`VermeNode::with_state`]. The node owns its
/// [`Certificate`] and [`KeyPair`] and verifies peers against the
/// [`CaVerifier`].
pub struct VermeNode<P: Payload = ()> {
    cfg: VermeConfig,
    ring: RingCore,
    node_type: NodeType,
    cert: Certificate,
    crypto_keys: KeyPair,
    verifier: CaVerifier,
    predecessors: NeighborList,
    /// Lookups in flight; a forwarded one keeps the initiator's
    /// certificate, its purpose and its piggyback's size to be re-sent.
    lookups: LookupTable<VermeLookupId, LookupPurpose, (Certificate, LookupPurpose, usize)>,
    answers: HashMap<VermeLookupId, AnswerState>,
    answer_requests: Vec<AnswerRequest<P>>,
    outcomes: Vec<VermeOutcome<P>>,
    pred_stab_waiting: Option<(u64, NodeHandle)>,
    denied: u64,
}

impl<P: Payload> RingNode for VermeNode<P> {
    fn ring(&self) -> &RingCore {
        &self.ring
    }
}

impl<P: Payload> VermeNode<P> {
    /// Creates the first node of a new Verme ring.
    ///
    /// The certificate must bind this node's id (as produced by
    /// [`SectionLayout::assign_id`]) and its type.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, the certificate does not
    /// match `id`, or the id's embedded type disagrees with the
    /// certificate.
    pub fn first(
        cfg: VermeConfig,
        cert: Certificate,
        crypto_keys: KeyPair,
        verifier: CaVerifier,
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid Verme config: {e}");
        }
        let id = Id::new(cert.id());
        let node_type = cfg.layout.type_of(id);
        assert_eq!(
            node_type,
            cert.node_type(),
            "certificate type does not match the id's embedded type"
        );
        assert_eq!(cert.public_key(), crypto_keys.public(), "key pair does not match certificate");
        VermeNode {
            ring: RingCore::new(id, cfg.num_successors),
            predecessors: NeighborList::predecessors(id, cfg.num_predecessors),
            cfg,
            node_type,
            cert,
            crypto_keys,
            verifier,
            lookups: LookupTable::default(),
            answers: HashMap::new(),
            answer_requests: Vec::new(),
            outcomes: Vec::new(),
            pred_stab_waiting: None,
            denied: 0,
        }
    }

    /// Creates a node that joins an existing ring through `bootstrap`.
    ///
    /// # Panics
    ///
    /// As for [`VermeNode::first`].
    pub fn joining(
        cfg: VermeConfig,
        cert: Certificate,
        crypto_keys: KeyPair,
        verifier: CaVerifier,
        bootstrap: Addr,
    ) -> Self {
        let mut node = VermeNode::first(cfg, cert, crypto_keys, verifier);
        node.ring = node.ring.joining(bootstrap);
        node
    }

    /// Creates a node with pre-converged routing state.
    ///
    /// # Panics
    ///
    /// As for [`VermeNode::first`], or if a finger index is out of range.
    pub fn with_state(
        cfg: VermeConfig,
        cert: Certificate,
        crypto_keys: KeyPair,
        verifier: CaVerifier,
        predecessors: &[NodeHandle],
        successors: &[NodeHandle],
        fingers: &[(usize, NodeHandle)],
    ) -> Self {
        let mut node = VermeNode::first(cfg, cert, crypto_keys, verifier);
        node.ring = node.ring.with_state(successors, fingers);
        node.predecessors.integrate_all(predecessors);
        node
    }

    /// This node's identifier.
    pub fn id(&self) -> Id {
        self.ring.id()
    }

    /// This node's platform type.
    pub fn node_type(&self) -> NodeType {
        self.node_type
    }

    /// This node's certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// This node's handle (address populated once spawned).
    pub fn handle(&self) -> NodeHandle {
        self.ring.me()
    }

    /// True once the node has joined the ring.
    pub fn is_joined(&self) -> bool {
        self.ring.is_joined()
    }

    /// The node's successor list, nearest first.
    pub fn successor_list(&self) -> &[NodeHandle] {
        self.ring.successors().as_slice()
    }

    /// The node's predecessor list, nearest first.
    pub fn predecessor_list(&self) -> &[NodeHandle] {
        self.predecessors.as_slice()
    }

    /// The node's finger table.
    pub fn finger_table(&self) -> &FingerTable {
        self.ring.fingers()
    }

    /// Monotone counter bumped whenever this node's replica-relevant
    /// neighborhood (successor or predecessor list) actually changes.
    ///
    /// Storage layers poll it to trigger prompt replica repair after a
    /// join, crash, or graceful departure, without inspecting (or
    /// copying) the lists themselves.
    pub fn neighbor_epoch(&self) -> u64 {
        self.ring.neighbor_epoch()
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

    /// The first hop this node would route a lookup for `key` through —
    /// Compromise-VerDi's "appropriate finger table entry" (§5.3.3).
    pub fn route_first_hop(&self, key: Id) -> Option<NodeHandle> {
        self.ring.route_first_hop(key)
    }

    /// As [`route_first_hop`](VermeNode::route_first_hop), but refusing
    /// the listed addresses — the redundant-path and suspicion machinery
    /// uses this to force a disjoint first hop.
    pub fn route_first_hop_excluding(&self, key: Id, exclude: &[Addr]) -> Option<NodeHandle> {
        self.ring.route_first_hop_excluding(key, exclude)
    }

    /// Installs a routing [`Behaviour`] policy (Byzantine scripting).
    pub fn set_behaviour(&mut self, behaviour: Box<dyn Behaviour>) {
        self.ring.set_behaviour(behaviour);
    }

    /// True if this node runs an adversarial routing policy.
    pub fn is_byzantine(&self) -> bool {
        self.ring.is_byzantine()
    }

    /// Signs a statement with this node's key (Compromise-VerDi's
    /// operation vouching, §5.3.3).
    pub fn sign_statement<T: verme_crypto::StatementDigest>(
        &self,
        statement: T,
    ) -> verme_crypto::SignedStatement<T> {
        verme_crypto::SignedStatement::sign(&self.crypto_keys, statement)
    }

    /// This node's ring pointers for the global invariant checker
    /// ([`check_ring`](verme_chord::check_ring)); the whole predecessor
    /// list is contributed, nearest first.
    pub fn ring_stance(&self) -> RingStance {
        self.ring.ring_stance(self.predecessors.as_slice())
    }

    /// Which maintenance rules this node runs.
    pub fn maintenance_mode(&self) -> MaintenanceMode {
        self.cfg.maintenance
    }

    /// Samples this node's [`NodeHealth`](verme_chord::NodeHealth)
    /// gauges — the same shape [`ChordNode`](verme_chord::ChordNode)
    /// reports, so samplers treat both overlays uniformly.
    pub fn health(&self) -> verme_chord::NodeHealth {
        let (pending, forwarding) = self.lookups.counts();
        self.ring.health(self.predecessors.len(), pending, forwarding)
    }

    /// Every distinct peer in this node's routing state — what a worm on
    /// this node could harvest.
    pub fn known_peers(&self) -> Vec<NodeHandle> {
        self.ring.known_peers(self.predecessors.as_slice())
    }

    /// Drains outcomes of lookups this node initiated.
    pub fn take_outcomes(&mut self) -> Vec<VermeOutcome<P>> {
        std::mem::take(&mut self.outcomes)
    }

    /// Drains piggybacked operations awaiting an application-layer answer.
    pub fn take_answer_requests(&mut self) -> Vec<AnswerRequest<P>> {
        std::mem::take(&mut self.answer_requests)
    }

    /// Starts a replica lookup (the VerDi `Replicas` purpose), optionally
    /// piggybacking an application operation (Secure-VerDi). Returns the
    /// lookup nonce; the outcome appears in [`take_outcomes`].
    ///
    /// The caller is responsible for choosing the replica point (e.g.
    /// [`SectionLayout::replica_point_avoiding`]).
    ///
    /// [`take_outcomes`]: VermeNode::take_outcomes
    pub fn start_replica_lookup(
        &mut self,
        key: Id,
        piggyback: Option<P>,
        ctx: &mut Ctx<'_, VermeMsg<P>, VermeTimer>,
    ) -> VermeLookupId {
        self.start_replica_lookup_excluding(key, piggyback, &[], ctx)
    }

    /// As [`start_replica_lookup`](VermeNode::start_replica_lookup), but
    /// the first hop avoids the listed addresses. Secure-VerDi's
    /// redundant-path fan-out issues its extra lookups through this so
    /// each copy leaves on a disjoint first hop, and the OpTable's
    /// suspicion machinery routes retries around hops it distrusts.
    pub fn start_replica_lookup_excluding(
        &mut self,
        key: Id,
        piggyback: Option<P>,
        avoid: &[Addr],
        ctx: &mut Ctx<'_, VermeMsg<P>, VermeTimer>,
    ) -> VermeLookupId {
        ctx.metrics().count(keys::LOOKUP_ISSUED, 1);
        self.begin_lookup(key, LookupPurpose::Replicas, piggyback, avoid, ctx)
    }

    /// Starts a random-key measurement lookup (the Figure 5 workload).
    ///
    /// The key is first adjusted to the opposite-type replica point, as a
    /// data-bearing application would do, and the lookup is issued with
    /// the `Replicas` purpose.
    pub fn start_measured_lookup(
        &mut self,
        key: Id,
        ctx: &mut Ctx<'_, VermeMsg<P>, VermeTimer>,
    ) -> VermeLookupId {
        let adjusted = self.cfg.layout.replica_point_avoiding(key, self.node_type);
        self.start_replica_lookup(adjusted, None, ctx)
    }

    // ------------------------------------------------------------------
    // Lookup initiation / completion
    // ------------------------------------------------------------------

    fn begin_lookup(
        &mut self,
        key: Id,
        purpose: LookupPurpose,
        piggyback: Option<P>,
        avoid: &[Addr],
        ctx: &mut Ctx<'_, VermeMsg<P>, VermeTimer>,
    ) -> VermeLookupId {
        let lid: VermeLookupId = ctx.rng().gen();
        self.lookups.begin(lid, key, purpose, self.ring.id(), ctx);
        ctx.set_timer(self.cfg.lookup_deadline, VermeTimer::LookupDeadline { lid });

        let first_hop = if !self.ring.is_joined() {
            // The bootstrap address carries no id, so no hop is traced; the
            // checkers only run on `replicas` paths anyway.
            self.ring.bootstrap().map(|a| (a, None))
        } else if self.ring.owns(key) {
            // We can answer ourselves (no network round trip).
            if let Some(pb) = piggyback {
                self.answers.insert(lid, AnswerState { cert: self.cert, prev: None, hops: 0 });
                self.answer_requests.push(AnswerRequest {
                    lid,
                    key,
                    cert: self.cert,
                    payload: pb,
                    hops: 0,
                });
                return lid;
            }
            let answer = self.make_answer(key, purpose);
            self.end_lookup(lid, Some((answer, None, 0)), ctx);
            return lid;
        } else {
            self.ring.first_hop_avoiding(key, avoid).map(|h| (h.addr, Some(h.id)))
        };
        let Some((hop, hop_id)) = first_hop else {
            self.end_lookup(lid, None, ctx);
            return lid;
        };
        let piggyback_size = piggyback.as_ref().map_or(0, |p| p.wire_size());
        let hop = Hop::new(hop, key, (self.cert, purpose, piggyback_size), 1, purpose.bytes_key());
        self.lookups.forward(lid, hop, None);
        self.send_lookup(lid, hop, hop_id, piggyback, ctx);
        lid
    }

    /// Sends `hop` of lookup `lid` with its `piggyback` and arms its ack
    /// timer. A hop whose id is known is traced, tagged with both
    /// endpoints' types and sections — the fields the Verme opposite-type
    /// invariant checker needs.
    fn send_lookup(
        &self,
        lid: VermeLookupId,
        hop: Hop<(Certificate, LookupPurpose, usize)>,
        to_id: Option<Id>,
        piggyback: Option<P>,
        ctx: &mut Ctx<'_, VermeMsg<P>, VermeTimer>,
    ) {
        let Hop { next, attempt, key, carry: (cert, purpose, _), hops, bytes_key } = hop;
        if let Some(to_id) = to_id {
            let layout = &self.cfg.layout;
            ctx.emit(ProtoEvent::LookupHop {
                op: lid,
                to: next,
                to_id: to_id.raw(),
                hop: hops - 1,
                from_type: Some(self.node_type.index()),
                to_type: Some(layout.type_of(to_id).index()),
                from_section: Some(layout.section_of(self.ring.id())),
                to_section: Some(layout.section_of(to_id)),
            });
        }
        let lookup = VermeMsg::Lookup { lid, key, cert, purpose, piggyback, hops };
        send_counted(ctx, next, lookup, bytes_key);
        ctx.set_timer(self.cfg.hop_timeout, VermeTimer::HopTimeout { lid, attempt });
    }

    /// Ends lookup `lid`: answered with `(answer, app, hops)`, or failed.
    fn end_lookup(
        &mut self,
        lid: VermeLookupId,
        reply: Option<(VermeAnswer, Option<P>, u32)>,
        ctx: &mut Ctx<'_, VermeMsg<P>, VermeTimer>,
    ) {
        let Some(p) = self.lookups.finish(lid, &lid, reply.as_ref().map(|r| r.2), ctx) else {
            return;
        };
        match (&reply, p.kind) {
            (Some((VermeAnswer::Join { predecessor, successors }, ..)), LookupPurpose::Join) => {
                let mode = self.cfg.maintenance;
                // A trusted answerer (legacy one-phase join) becomes our
                // nearest predecessor; the corrected protocol leaves the
                // list to fill in through notifies.
                if let Some(p) = self.ring.complete_join(mode, *predecessor, successors) {
                    self.predecessors.integrate(p);
                }
                self.notify_successor(ctx);
            }
            (Some((VermeAnswer::Finger { node }, ..)), LookupPurpose::Finger)
                if admissible_finger(&self.cfg.layout, self.ring.id(), node) =>
            {
                // Finger refreshes are keyed by target: re-derive which
                // finger indexes this target serves.
                for i in 0..Id::BITS {
                    if self.cfg.layout.finger_target(self.ring.id(), i) == p.key {
                        self.ring.set_finger(i as usize, *node);
                    }
                }
            }
            (None, LookupPurpose::Join) => {
                ctx.set_timer(SimDuration::from_secs(2), VermeTimer::JoinRetry);
            }
            _ => {}
        }
        if p.kind.is_app() {
            let latency = ctx.now().saturating_since(p.started);
            let (answer, app, hops) =
                reply.map_or((None, None, 0), |(a, app, h)| (Some(a), app, h));
            self.outcomes.push(VermeOutcome {
                lid,
                key: p.key,
                purpose: p.kind,
                answer,
                app,
                hops,
                latency,
            });
        }
    }

    // ------------------------------------------------------------------
    // Answering
    // ------------------------------------------------------------------

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
    fn make_answer(&self, key: Id, purpose: LookupPurpose) -> VermeAnswer {
        match purpose {
            LookupPurpose::Join => VermeAnswer::Join {
                predecessor: self.ring.me(),
                successors: self.ring.successors().as_slice().to_vec(),
            },
            LookupPurpose::Finger => VermeAnswer::Finger { node: self.corner_responsible(key) },
            LookupPurpose::Replicas => VermeAnswer::Replicas { replicas: self.replicas_for(key) },
        }
    }

    /// §4.4 corner rule: the responsible node for `key` is its successor,
    /// unless that successor lies outside `key`'s section — then it is the
    /// predecessor (this node).
    fn corner_responsible(&self, key: Id) -> NodeHandle {
        match self.ring.successors().first() {
            Some(s1) if self.cfg.layout.same_section(s1.id, key) => s1,
            _ => self.ring.me(),
        }
    }

    /// §5.2 replica placement: the `n/2` nodes at-or-after `key` within
    /// its section; if the section end intervenes, replicate toward the
    /// predecessors instead.
    fn replicas_for(&self, key: Id) -> Vec<NodeHandle> {
        // VerDi stores n/2 replicas per section; the reproduction models
        // n = 6.
        const R: usize = 3;
        let layout = &self.cfg.layout;
        let in_section = |h: &&NodeHandle| layout.same_section(h.id, key);
        let fwd: Vec<NodeHandle> =
            self.ring.successors().iter().filter(in_section).take(R).copied().collect();
        if !fwd.is_empty() {
            return fwd;
        }
        // Corner: no in-section successor — replicate toward predecessors,
        // this node first.
        let me = self.ring.me();
        [me].iter().chain(self.predecessors.iter()).filter(in_section).take(R).copied().collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_lookup(
        &mut self,
        from: Addr,
        lid: VermeLookupId,
        key: Id,
        cert: Certificate,
        purpose: LookupPurpose,
        piggyback: Option<P>,
        hops: u32,
        ctx: &mut Ctx<'_, VermeMsg<P>, VermeTimer>,
    ) {
        let bytes_key = purpose.bytes_key();
        send_counted(ctx, from, VermeMsg::HopAck { lid }, bytes_key);
        if self.lookups.is_forwarding(&lid) || self.answers.contains_key(&lid) {
            return; // Duplicate delivery via a reroute.
        }
        let answer = if self.ring.owns(key) {
            if !self.verify_lookup(key, &cert, purpose, piggyback.is_some()) {
                // §4.5: drop illegitimate lookups. The initiator's
                // deadline will fire.
                self.denied += 1;
                ctx.metrics().count(verme_keys::LOOKUP_DENIED, 1);
                ctx.emit(ProtoEvent::Note { label: verme_keys::LOOKUP_DENIED, value: lid });
                return;
            }
            if let Some(pb) = piggyback {
                // Hand the operation to the embedding layer; the reply
                // leaves in send_answer.
                self.answers.insert(lid, AnswerState { cert, prev: Some(from), hops });
                self.answer_requests.push(AnswerRequest { lid, key, cert, payload: pb, hops });
                ctx.set_timer(self.cfg.lookup_deadline * 2, VermeTimer::RelayGc { lid });
                return;
            }
            self.make_answer(key, purpose)
        } else {
            match self.ring.relay_step(key) {
                Relay::To(next) => {
                    let carry = (cert, purpose, piggyback.as_ref().map_or(0, |p| p.wire_size()));
                    let hop = Hop::new(next.addr, key, carry, hops + 1, bytes_key);
                    self.lookups.forward(lid, hop, Some(from));
                    self.send_lookup(lid, hop, Some(next.id), piggyback, ctx);
                    ctx.set_timer(self.cfg.lookup_deadline * 2, VermeTimer::RelayGc { lid });
                    return;
                }
                Relay::Drop => return,
                // Forge a reply naming this node as responsible. The
                // initiator's certificate travels in the Lookup, so a
                // Byzantine relay can seal a perfectly valid-looking
                // envelope — certificates authenticate *initiators*, not
                // answers (DESIGN.md §7f). Only a data-layer integrity
                // check unmasks the hijack.
                Relay::Hijack => {
                    let me = self.ring.me();
                    match purpose {
                        LookupPurpose::Join => {
                            VermeAnswer::Join { predecessor: me, successors: vec![me] }
                        }
                        LookupPurpose::Finger => VermeAnswer::Finger { node: me },
                        // Piggybacked replies are opaque; an empty forged
                        // answer body fails the caller's payload check
                        // instead.
                        LookupPurpose::Replicas if piggyback.is_some() => VermeAnswer::Opaque,
                        LookupPurpose::Replicas => VermeAnswer::Replicas { replicas: vec![me] },
                    }
                }
            }
        };
        send_reply(lid, answer, None, &cert, from, hops, bytes_key, ctx);
    }

    /// Answers a piggybacked operation previously surfaced through
    /// [`VermeNode::take_answer_requests`]. `app` is the application-level
    /// reply (e.g. the data block for a get, or a store acknowledgment).
    ///
    /// Returns false if the request expired (relay state already gone).
    pub fn send_answer(
        &mut self,
        lid: VermeLookupId,
        app: Option<P>,
        ctx: &mut Ctx<'_, VermeMsg<P>, VermeTimer>,
    ) -> bool {
        let Some(st) = self.answers.remove(&lid) else {
            return false;
        };
        // Piggybacked replies never disclose handles (§5.3.2).
        let answer = VermeAnswer::Opaque;
        match st.prev {
            Some(prev) => {
                send_reply(lid, answer, app, &st.cert, prev, st.hops, keys::BYTES_LOOKUP, ctx);
            }
            None => {
                // We were both initiator and responsible node.
                self.end_lookup(lid, Some((answer, app, st.hops)), ctx);
            }
        }
        true
    }

    /// Purges a detected-dead address from all routing state. Takes the
    /// two fields apart so the lookup table's hop-timeout rule can purge
    /// through it while it holds the ring.
    fn mark_dead(ring: &mut RingCore, predecessors: &mut NeighborList, addr: Addr) {
        let predecessor_gone = predecessors.remove_addr(addr);
        ring.mark_dead(addr, predecessor_gone);
    }

    // ------------------------------------------------------------------
    // Stabilization (both directions)
    // ------------------------------------------------------------------

    fn stabilize_once(&mut self, ctx: &mut Ctx<'_, VermeMsg<P>, VermeTimer>) {
        if let Some((token, s1)) = self.ring.begin_stabilize() {
            send_counted(ctx, s1.addr, VermeMsg::GetNeighbors { token }, keys::BYTES_MAINT);
            ctx.set_timer(self.cfg.hop_timeout * 2, VermeTimer::StabTimeout { token });
        }
        if let Some(p1) = self.predecessors.first() {
            let token = self.ring.fresh_token();
            self.pred_stab_waiting = Some((token, p1));
            send_counted(ctx, p1.addr, VermeMsg::GetNeighbors { token }, keys::BYTES_MAINT);
            ctx.set_timer(self.cfg.hop_timeout * 2, VermeTimer::PredStabTimeout { token });
        }
    }

    fn handle_neighbors(
        &mut self,
        token: u64,
        mut succs: Vec<NodeHandle>,
        mut preds: Vec<NodeHandle>,
        ctx: &mut Ctx<'_, VermeMsg<P>, VermeTimer>,
    ) {
        // Match the reply token first, as `ChordNode` does: an unsolicited
        // or stale `Neighbors` is dropped unvetted.
        let s1 = self.ring.take_stab_waiting(token);
        let p1 = match s1 {
            Some(_) => None,
            None => take_waiting(&mut self.pred_stab_waiting, token),
        };
        if s1.is_none() && p1.is_none() {
            return;
        }
        let known = self.predecessors.as_slice();
        let poisoned = self.ring.sanitize_advert(known, &mut succs, ctx)
            | self.ring.sanitize_advert(known, &mut preds, ctx);
        let mode = self.cfg.maintenance;
        if let Some(s1) = s1 {
            // s1's best predecessor might sit between us and s1.
            self.ring.adopt_successors(mode, s1, preds.first().copied(), &succs, poisoned);
            self.notify_successor(ctx);
        } else if let Some(p1) = p1 {
            // The same rebuild, mirrored counter-clockwise.
            let fresh = rebuild_list(&self.predecessors, mode, p1, None, &preds, poisoned);
            if fresh != self.predecessors {
                self.ring.bump_epoch();
            }
            self.predecessors = fresh;
        }
    }

    fn notify_successor(&self, ctx: &mut Ctx<'_, VermeMsg<P>, VermeTimer>) {
        if let Some(s1) = self.ring.successors().first() {
            let notify = VermeMsg::Notify { node: self.ring.me() };
            send_counted(ctx, s1.addr, notify, keys::BYTES_MAINT);
        }
    }

    fn handle_notify(&mut self, node: NodeHandle) {
        // The symmetric predecessor list absorbs every notifier (both
        // modes); stabilization prunes dead entries, so the legacy
        // stale-incumbent hazard does not apply to the list side.
        if node.id != self.ring.id() && self.predecessors.integrate(node) {
            self.ring.bump_epoch();
        }
        self.ring.notify_refill(self.cfg.maintenance, node);
    }

    /// A neighbor announced a graceful departure: splice it out and absorb
    /// the neighbor lists it handed over, instead of waiting for the next
    /// stabilization round to time out on it.
    ///
    /// The handoff is direction-appropriate: the leaver's successors feed
    /// only our successor list and its predecessors only our predecessor
    /// list. The 6-slot model checker found that cross-integrating (each
    /// handle into both lists) lets a predecessor of the leaver land at
    /// the head of its first predecessor's freshly emptied successor
    /// list, and a later failure then resolves that entry into a
    /// backwards ring edge — a transient `DisorderedRing` snapshot.
    fn handle_leaving(
        &mut self,
        node: NodeHandle,
        successors: Vec<NodeHandle>,
        predecessors: Vec<NodeHandle>,
    ) {
        Self::mark_dead(&mut self.ring, &mut self.predecessors, node.addr);
        let me = self.ring.me().addr;
        for h in successors.into_iter().filter(|h| h.addr != me) {
            self.ring.absorb_successor(h);
        }
        for h in predecessors.into_iter().filter(|h| h.addr != me) {
            if self.predecessors.integrate(h) {
                self.ring.bump_epoch();
            }
        }
    }

    // ------------------------------------------------------------------
    // Fingers
    // ------------------------------------------------------------------

    fn fix_fingers(&mut self, ctx: &mut Ctx<'_, VermeMsg<P>, VermeTimer>) {
        let (layout, id) = (self.cfg.layout, self.ring.id());
        let remote = self.ring.fix_fingers(
            |id, i| layout.finger_target(id, i),
            |h| admissible_finger(&layout, id, h),
        );
        for (_, target) in remote {
            self.begin_lookup(target, LookupPurpose::Finger, None, &[], ctx);
        }
    }
}

/// §3 safety net: a node never installs a same-type finger from outside
/// its own section, even if a thin or stale successor list (or a forged
/// finger answer) suggests one.
fn admissible_finger(layout: &SectionLayout, owner: Id, h: &NodeHandle) -> bool {
    layout.type_of(h.id) != layout.type_of(owner) || layout.same_section(h.id, owner)
}

/// Seals `answer` (and any piggybacked `app` reply) to the initiator's
/// certified key and sends it one hop back toward the initiator.
#[allow(clippy::too_many_arguments)]
fn send_reply<P: Payload>(
    lid: VermeLookupId,
    answer: VermeAnswer,
    app: Option<P>,
    cert: &Certificate,
    to: Addr,
    hops: u32,
    bytes_key: &'static str,
    ctx: &mut Ctx<'_, VermeMsg<P>, VermeTimer>,
) {
    let body_size = answer_body_size(&answer, &app);
    let body = Sealed::seal(cert.public_key(), AnswerBody { answer, app });
    send_counted(ctx, to, VermeMsg::Reply { lid, body, body_size, hops }, bytes_key);
}

impl<P: Payload> Node for VermeNode<P> {
    type Msg = VermeMsg<P>;
    type Timer = VermeTimer;

    fn on_start(&mut self, ctx: &mut Ctx<'_, VermeMsg<P>, VermeTimer>) {
        let (stab_phase, fing_phase) =
            self.ring.on_start(ctx, self.cfg.stabilize_interval, self.cfg.fix_fingers_interval);
        ctx.set_timer(stab_phase, VermeTimer::Stabilize);
        ctx.set_timer(fing_phase, VermeTimer::FixFingers);
        if !self.ring.is_joined() {
            self.begin_lookup(self.ring.id(), LookupPurpose::Join, None, &[], ctx);
        }
    }

    fn on_message(
        &mut self,
        from: Addr,
        msg: VermeMsg<P>,
        ctx: &mut Ctx<'_, VermeMsg<P>, VermeTimer>,
    ) {
        let _span = ProfScope::enter(match &msg {
            VermeMsg::Lookup { .. } | VermeMsg::HopAck { .. } | VermeMsg::Reply { .. } => {
                Scope::ChordLookupRelay
            }
            _ => Scope::ChordStabilize,
        });
        match msg {
            VermeMsg::Lookup { lid, key, cert, purpose, piggyback, hops } => {
                self.handle_lookup(from, lid, key, cert, purpose, piggyback, hops, ctx);
            }
            VermeMsg::HopAck { lid } => self.lookups.ack(&lid, |_| false),
            VermeMsg::Reply { lid, body, body_size, hops } => {
                if self.lookups.is_pending(lid) {
                    // Ours: open the envelope. One sealed to someone else —
                    // a misrouted or forged reply — is a failure.
                    let opened = body.open(&self.crypto_keys).ok();
                    self.end_lookup(lid, opened.map(|b| (b.answer, b.app, hops)), ctx);
                } else if let Some((prev, bytes_key)) = self.lookups.reply_hop(&lid) {
                    // Relay toward the initiator. A relay cannot open the
                    // envelope — it only forwards it.
                    let reply = VermeMsg::Reply { lid, body, body_size, hops };
                    send_counted(ctx, prev, reply, bytes_key);
                }
            }
            VermeMsg::GetNeighbors { token } => {
                let mut successors = self.ring.successors().as_slice().to_vec();
                let mut predecessors = self.predecessors.as_slice().to_vec();
                if self.ring.is_byzantine() {
                    self.ring.advertise(&mut successors, &mut predecessors);
                }
                let reply = VermeMsg::Neighbors { token, successors, predecessors };
                send_counted(ctx, from, reply, keys::BYTES_MAINT);
            }
            VermeMsg::Neighbors { token, successors, predecessors } => {
                self.handle_neighbors(token, successors, predecessors, ctx);
            }
            VermeMsg::Notify { node } => self.handle_notify(node),
            VermeMsg::Leaving { node, successors, predecessors } => {
                self.handle_leaving(node, successors, predecessors);
            }
            VermeMsg::Ping { token } => {
                send_counted(ctx, from, VermeMsg::Pong { token }, keys::BYTES_MAINT);
            }
            VermeMsg::Pong { .. } => {}
        }
    }

    fn on_shutdown(&mut self, ctx: &mut Ctx<'_, VermeMsg<P>, VermeTimer>) {
        if !self.ring.is_joined() {
            return;
        }
        let msg = VermeMsg::Leaving {
            node: self.ring.me(),
            successors: self.ring.successors().as_slice().to_vec(),
            predecessors: self.predecessors.as_slice().to_vec(),
        };
        if let Some(p1) = self.predecessors.first() {
            send_counted(ctx, p1.addr, msg.clone(), keys::BYTES_MAINT);
        }
        if let Some(s1) = self.ring.successors().first() {
            send_counted(ctx, s1.addr, msg, keys::BYTES_MAINT);
        }
    }

    fn on_timer(&mut self, timer: VermeTimer, ctx: &mut Ctx<'_, VermeMsg<P>, VermeTimer>) {
        let _span = ProfScope::enter(match &timer {
            VermeTimer::HopTimeout { .. }
            | VermeTimer::LookupDeadline { .. }
            | VermeTimer::RelayGc { .. } => Scope::ChordLookupRelay,
            _ => Scope::ChordStabilize,
        });
        match timer {
            VermeTimer::Stabilize => {
                // Each periodic round is its own causal span; without this
                // every round would chain off the previous one forever.
                ctx.begin_cause();
                if self.ring.is_joined() {
                    self.stabilize_once(ctx);
                }
                ctx.set_timer(self.cfg.stabilize_interval, VermeTimer::Stabilize);
            }
            VermeTimer::FixFingers => {
                ctx.begin_cause();
                self.fix_fingers(ctx);
                ctx.set_timer(self.cfg.fix_fingers_interval, VermeTimer::FixFingers);
            }
            VermeTimer::StabTimeout { token } => {
                if let Some(s1) = self.ring.take_stab_waiting(token) {
                    Self::mark_dead(&mut self.ring, &mut self.predecessors, s1.addr);
                    self.stabilize_once(ctx);
                }
            }
            VermeTimer::PredStabTimeout { token } => {
                if let Some(p1) = take_waiting(&mut self.pred_stab_waiting, token) {
                    Self::mark_dead(&mut self.ring, &mut self.predecessors, p1.addr);
                }
            }
            VermeTimer::HopTimeout { lid, attempt } => {
                let predecessors = &mut self.predecessors;
                let purge = |ring: &mut RingCore, addr| Self::mark_dead(ring, predecessors, addr);
                // Forward state does not keep piggybacked payloads (large
                // data would be double-counted), so a piggybacked lookup
                // cannot be rerouted at all; the initiator's deadline covers
                // that rare case.
                let pinned = |&(_, _, piggyback_size): &_| piggyback_size > 0;
                let ring = &mut self.ring;
                match self.lookups.hop_timeout(lid, lid, attempt, ring, purge, pinned, ctx) {
                    HopTimeout::Stale | HopTimeout::GiveUp { initiator: false } => {}
                    HopTimeout::GiveUp { initiator: true } => self.end_lookup(lid, None, ctx),
                    // Re-emit the hop at its original index: the path record
                    // replaces the dead candidate rather than growing.
                    HopTimeout::Resend(hop, id) => self.send_lookup(lid, hop, Some(id), None, ctx),
                }
            }
            VermeTimer::LookupDeadline { lid } => self.end_lookup(lid, None, ctx),
            VermeTimer::RelayGc { lid } => {
                self.lookups.release(&lid);
                self.answers.remove(&lid);
            }
            VermeTimer::JoinRetry => {
                if !self.ring.is_joined() {
                    self.begin_lookup(self.ring.id(), LookupPurpose::Join, None, &[], ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verme_crypto::CertificateAuthority;

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
        assert_eq!(node.corner_responsible(key), succ);
        // Key in a section the successor is not in -> predecessor (self).
        let far_key = layout.paired_replica_point(id);
        if !layout.same_section(succ.id, far_key) {
            assert_eq!(node.corner_responsible(far_key).id, node.id());
        }
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
            let reps = node.replicas_for(key);
            assert!(!reps.is_empty());
            assert_eq!(reps[0].id, node.id());
            assert!(reps.iter().any(|r| r.id == pred.id));
        }
    }

    #[test]
    fn unsolicited_neighbors_are_not_vetted() {
        use verme_sim::runtime::UniformLatency;
        use verme_sim::{HostId, Runtime};
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
        rt.invoke(addr, |n, ctx| n.handle_neighbors(999, vec![rebound], vec![rebound], ctx))
            .expect("alive");
        assert_eq!(rt.metrics().counter(verme_chord::keys::RING_POISONED), 0);
        assert_eq!(rt.node(addr).expect("alive").successor_list(), [succ]);
    }
}
