//! The Chord node state machine.
//!
//! A [`RingCore`] and a [`LookupTable`] — the ring rules and the per-hop
//! lookup rules shared with Verme, failure detection and rerouting
//! included ("every time a node tried to contact a node that had failed
//! it chose another neighbor", paper §7.1.2) — plus what only Chord has:
//! the single predecessor pointer with its liveness ping and rectify
//! probe, and lookups in both traversal modes ([`LookupMode`]).

use verme_sim::{Addr, Ctx, Node, ProfScope, ProtoEvent, Scope, SimDuration};

use crate::behaviour::Behaviour;
use crate::id::Id;
use crate::maintain::{RectifyDecision, RingStance};
use crate::proto::{ChordConfig, ChordMsg, ChordTimer, LookupId, LookupMode, LookupResult};
use crate::relay::{Hop, HopTimeout, LookupKind, LookupTable};
use crate::ring::{FingerTable, NodeHandle};
use crate::ring_core::{send_counted, take_waiting, Relay, RingCore, RingNode};

/// Metric keys recorded by overlay nodes into the run's
/// [`MetricsSink`](verme_sim::MetricsSink).
pub mod keys {
    /// Latency of each completed application lookup, in milliseconds.
    pub const LOOKUP_LATENCY_MS: &str = "lookup.latency_ms";
    /// Forward-path hop count of each completed application lookup.
    pub const LOOKUP_HOPS: &str = "lookup.hops";
    /// Application lookups issued.
    pub const LOOKUP_ISSUED: &str = "lookup.issued";
    /// Application lookups completed successfully.
    pub const LOOKUP_COMPLETED: &str = "lookup.completed";
    /// Application lookups that missed their deadline or ran out of routes.
    pub const LOOKUP_FAILED: &str = "lookup.failed";
    /// Bytes sent for lookup traffic (requests, acks, replies).
    pub const BYTES_LOOKUP: &str = "bytes.lookup";
    /// Bytes sent for overlay maintenance (stabilize, notify, pings,
    /// finger-refresh lookups).
    pub const BYTES_MAINT: &str = "bytes.maint";
    /// Hop-level timeouts that triggered rerouting.
    pub const HOP_REROUTES: &str = "lookup.hop_reroutes";
    /// Advertised neighbor entries rejected by the addr→id binding sanity
    /// check (routing-table poisoning attempts that were caught).
    pub const RING_POISONED: &str = "ring.poisoned_entries";

    /// Registry descriptors for every metric a Chord node records.
    pub fn descriptors() -> &'static [verme_sim::MetricDesc] {
        use verme_sim::MetricDesc;
        const DESCS: &[MetricDesc] = &[
            MetricDesc::histogram(LOOKUP_LATENCY_MS, "ms", "application lookup latency"),
            MetricDesc::histogram(LOOKUP_HOPS, "hops", "application lookup forward-path hops"),
            MetricDesc::counter(LOOKUP_ISSUED, "ops", "application lookups issued"),
            MetricDesc::counter(LOOKUP_COMPLETED, "ops", "application lookups completed"),
            MetricDesc::counter(LOOKUP_FAILED, "ops", "application lookups failed"),
            MetricDesc::counter(BYTES_LOOKUP, "bytes", "lookup traffic sent"),
            MetricDesc::counter(BYTES_MAINT, "bytes", "maintenance traffic sent"),
            MetricDesc::counter(HOP_REROUTES, "ops", "hop timeouts that triggered rerouting"),
            MetricDesc::counter(RING_POISONED, "entries", "poisoned advertisements rejected"),
        ];
        DESCS
    }
}

/// The observable outcome of an application lookup, retrieved with
/// [`ChordNode::take_outcomes`]. Upper layers (the DHT) and test harnesses
/// drive their logic off these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LookupOutcome {
    /// Sequence number returned by [`ChordNode::start_lookup`].
    pub seq: u64,
    /// The key that was looked up.
    pub key: Id,
    /// The result, or `None` if the lookup failed.
    pub result: Option<LookupResult>,
    /// Forward-path hops (0 when answered locally or failed).
    pub hops: u32,
    /// Time from initiation to completion or failure.
    pub latency: SimDuration,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Kind {
    App,
    Join,
    FingerRefresh(usize),
}

impl LookupKind for Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::App => "app",
            Kind::Join => "join",
            Kind::FingerRefresh(_) => "finger",
        }
    }

    fn is_app(self) -> bool {
        self == Kind::App
    }
}

/// A point-in-time snapshot of one node's routing-state health.
///
/// Designed for the runtime's sampler hook
/// ([`SampleView::nodes`](verme_sim::SampleView::nodes)): a handful of
/// counter reads per node, strictly read-only. Samplers fold the
/// per-node snapshots into run-level gauges (minimum successor
/// redundancy, total in-flight lookups, ...) and feed them to a
/// `verme-obs` monitor. Both [`ChordNode`] and `verme-core`'s
/// `VermeNode` report through this one shape.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeHealth {
    /// Completed its join.
    pub joined: bool,
    /// Live successor-list entries.
    pub successors: usize,
    /// Live predecessor links (0 or 1 on Chord, up to the configured
    /// list length on Verme).
    pub predecessors: usize,
    /// Distinct peers in the finger table.
    pub distinct_fingers: usize,
    /// Lookups this node originated that are still in flight.
    pub pending_lookups: usize,
    /// Lookups this node is currently relaying for other nodes.
    pub forwarding: usize,
}

impl NodeHealth {
    /// True when the node is joined but its successor redundancy has
    /// dropped below `want` — the precursor to ring partition under
    /// churn.
    pub fn is_degraded(&self, want_successors: usize) -> bool {
        self.joined && self.successors < want_successors
    }
}

/// A Chord overlay node, to be driven by a
/// [`Runtime`](verme_sim::Runtime).
///
/// Construct with [`ChordNode::first`] (ring creator),
/// [`ChordNode::joining`] (joins via a bootstrap address), or
/// [`ChordNode::with_state`] (pre-converged routing state for static
/// experiments). Application lookups are injected with
/// [`ChordNode::start_lookup`] via
/// [`Runtime::invoke`](verme_sim::Runtime::invoke); results land in the
/// run's metrics sink under the [`keys`] namespace.
pub struct ChordNode {
    cfg: ChordConfig,
    ring: RingCore,
    predecessor: Option<NodeHandle>,
    next_seq: u64,
    /// Lookups in flight; a forwarded one keeps its origin and mode to be
    /// re-sent.
    lookups: LookupTable<LookupId, Kind, (NodeHandle, LookupMode)>,
    pred_waiting: Option<u64>,
    /// In-flight rectify probe: the incumbent predecessor is being pinged
    /// with this token; adopt the candidate on timeout (corrected mode).
    rectify_waiting: Option<(u64, NodeHandle)>,
    outcomes: Vec<LookupOutcome>,
}

impl RingNode for ChordNode {
    fn ring(&self) -> &RingCore {
        &self.ring
    }

    fn set_behaviour(&mut self, behaviour: Box<dyn Behaviour>) {
        self.ring.set_behaviour(behaviour);
    }
}

impl ChordNode {
    /// Creates the first node of a new ring.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn first(id: Id, cfg: ChordConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid Chord config: {e}");
        }
        ChordNode {
            ring: RingCore::new(id, cfg.num_successors),
            cfg,
            predecessor: None,
            next_seq: 0,
            lookups: LookupTable::default(),
            pred_waiting: None,
            rectify_waiting: None,
            outcomes: Vec::new(),
        }
    }

    /// Creates a node that joins an existing ring through `bootstrap`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn joining(id: Id, cfg: ChordConfig, bootstrap: Addr) -> Self {
        let mut node = ChordNode::first(id, cfg);
        node.ring = node.ring.joining(bootstrap);
        node
    }

    /// Creates a node with pre-converged routing state (static rings).
    ///
    /// `fingers` pairs each finger index with its handle.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or a finger index is out of
    /// range.
    pub fn with_state(
        id: Id,
        cfg: ChordConfig,
        predecessor: Option<NodeHandle>,
        successors: &[NodeHandle],
        fingers: &[(usize, NodeHandle)],
    ) -> Self {
        let mut node = ChordNode::first(id, cfg);
        node.predecessor = predecessor;
        node.ring = node.ring.with_state(successors, fingers);
        node
    }

    /// This node's identifier.
    pub fn id(&self) -> Id {
        self.ring.id()
    }

    /// This node's handle (address is populated once spawned).
    pub fn handle(&self) -> NodeHandle {
        self.ring.me()
    }

    /// True once the node has joined the ring.
    pub fn is_joined(&self) -> bool {
        self.ring.is_joined()
    }

    /// The node's current predecessor, if known.
    pub fn predecessor(&self) -> Option<NodeHandle> {
        self.predecessor
    }

    /// The node's successor list, nearest first.
    pub fn successor_list(&self) -> &[NodeHandle] {
        self.ring.successors().as_slice()
    }

    /// Monotone counter bumped whenever this node's replica-relevant
    /// neighborhood (successor list or predecessor) actually changes.
    ///
    /// Storage layers poll it to trigger prompt replica repair after a
    /// join, crash, or graceful departure, without inspecting (or
    /// copying) the lists themselves.
    pub fn neighbor_epoch(&self) -> u64 {
        self.ring.neighbor_epoch()
    }

    /// The node's finger table.
    pub fn finger_table(&self) -> &FingerTable {
        self.ring.fingers()
    }

    /// This node's ring pointers for the global invariant checker
    /// ([`check_ring`](crate::check_ring)).
    pub fn ring_stance(&self) -> RingStance {
        self.ring.ring_stance(self.predecessor.as_slice())
    }

    /// Samples this node's [`NodeHealth`] gauges.
    pub fn health(&self) -> NodeHealth {
        let (pending, forwarding) = self.lookups.counts();
        self.ring.health(usize::from(self.predecessor.is_some()), pending, forwarding)
    }

    /// Every distinct peer this node's routing state names — exactly the
    /// addresses a topological worm could harvest from the node's memory.
    pub fn known_peers(&self) -> Vec<NodeHandle> {
        self.ring.known_peers(self.predecessor.as_slice())
    }

    /// True when this node runs an adversarial routing policy.
    pub fn is_byzantine(&self) -> bool {
        self.ring.is_byzantine()
    }

    /// The greedy first hop this node would route a lookup for `key`
    /// through, skipping `exclude` (suspected-misroute failover).
    pub fn route_first_hop_excluding(&self, key: Id, exclude: &[Addr]) -> Option<NodeHandle> {
        self.ring.route_first_hop_excluding(key, exclude)
    }

    /// Injects an application lookup for `key`. Returns the lookup's local
    /// sequence number. Results are recorded in the metrics sink.
    pub fn start_lookup(&mut self, key: Id, ctx: &mut Ctx<'_, ChordMsg, ChordTimer>) -> u64 {
        self.start_lookup_excluding(key, &[], ctx)
    }

    /// Like [`ChordNode::start_lookup`], but never routes the first hop
    /// through an address in `avoid` — the OpTable's suspected-misroute
    /// escalation path. An empty `avoid` is byte-identical to
    /// [`ChordNode::start_lookup`].
    pub fn start_lookup_excluding(
        &mut self,
        key: Id,
        avoid: &[Addr],
        ctx: &mut Ctx<'_, ChordMsg, ChordTimer>,
    ) -> u64 {
        ctx.metrics().count(keys::LOOKUP_ISSUED, 1);
        self.begin_lookup(key, Kind::App, avoid, ctx)
    }

    /// Drains the outcomes of application lookups that finished since the
    /// last call.
    pub fn take_outcomes(&mut self) -> Vec<LookupOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    // ------------------------------------------------------------------
    // Lookup initiation and completion
    // ------------------------------------------------------------------

    fn begin_lookup(
        &mut self,
        key: Id,
        kind: Kind,
        avoid: &[Addr],
        ctx: &mut Ctx<'_, ChordMsg, ChordTimer>,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.lookups.begin(seq, key, kind, self.ring.id(), ctx);
        ctx.set_timer(self.cfg.lookup_deadline, ChordTimer::LookupDeadline { seq });

        // A joining node must route its first lookup through the bootstrap
        // (whose id it does not know yet, hence no hop id to trace).
        let first_hop = if !self.ring.is_joined() {
            self.ring.bootstrap().map(|a| (a, None))
        } else if let Some(result) = self.local_answer(key) {
            self.end_lookup(seq, Some((result, 0)), ctx);
            return seq;
        } else {
            // With an empty `avoid` this is exactly the plain greedy hop.
            self.ring.first_hop_avoiding(key, avoid).map(|h| (h.addr, Some(h.id)))
        };
        let Some((first_hop, first_hop_id)) = first_hop else {
            // No route at all (pathological); fail on the spot.
            self.end_lookup(seq, None, ctx);
            return seq;
        };
        let me = self.ring.me();
        let lid = LookupId { origin: me.addr, seq };
        let hop = Hop::new(first_hop, key, (me, self.cfg.lookup_mode), 1, kind.bytes_key());
        self.lookups.forward(lid, hop, None);
        self.send_lookup(lid, hop, first_hop_id, ctx);
        seq
    }

    /// Sends `hop` of lookup `lid` — traced when the next hop's id is
    /// known; Chord has no node types or sections to tag — and arms its
    /// ack timer.
    fn send_lookup(
        &self,
        lid: LookupId,
        hop: Hop<(NodeHandle, LookupMode)>,
        to_id: Option<Id>,
        ctx: &mut Ctx<'_, ChordMsg, ChordTimer>,
    ) {
        let Hop { next, attempt, key, carry: (origin, mode), hops, bytes_key } = hop;
        if let Some(to_id) = to_id {
            ctx.emit(ProtoEvent::LookupHop {
                op: lid.seq,
                to: next,
                to_id: to_id.raw(),
                hop: hops - 1,
                from_type: None,
                to_type: None,
                from_section: None,
                to_section: None,
            });
        }
        let maint = bytes_key == keys::BYTES_MAINT;
        let lookup = ChordMsg::Lookup { lid, key, origin, mode, hops, maint };
        send_counted(ctx, next, lookup, bytes_key);
        ctx.set_timer(self.cfg.hop_timeout, ChordTimer::HopTimeout { lid, attempt });
    }

    /// If this node can answer the lookup locally, produce the result.
    fn local_answer(&self, key: Id) -> Option<LookupResult> {
        self.ring.owns(key).then(|| {
            let me = self.ring.me();
            let mut successors = self.ring.successors().as_slice().to_vec();
            if successors.is_empty() {
                successors.push(me); // Singleton ring: we own everything.
            }
            LookupResult { predecessor: me, successors }
        })
    }

    /// Ends lookup `seq`: answered with `(result, hops)`, or failed.
    fn end_lookup(
        &mut self,
        seq: u64,
        answer: Option<(LookupResult, u32)>,
        ctx: &mut Ctx<'_, ChordMsg, ChordTimer>,
    ) {
        let lid = LookupId { origin: self.ring.me().addr, seq };
        let Some(p) = self.lookups.finish(seq, &lid, answer.as_ref().map(|a| a.1), ctx) else {
            return; // Late reply for an already-failed lookup.
        };
        match (p.kind, answer) {
            (Kind::App, answer) => {
                let latency = ctx.now().saturating_since(p.started);
                let (result, hops) = answer.map_or((None, 0), |(r, hops)| (Some(r), hops));
                self.outcomes.push(LookupOutcome { seq, key: p.key, result, hops, latency });
            }
            (Kind::Join, Some((result, _))) => {
                let mode = self.cfg.maintenance;
                let trusted = self.ring.complete_join(mode, result.predecessor, &result.successors);
                self.predecessor = trusted.or(self.predecessor);
                self.notify_successor(ctx);
            }
            (Kind::Join, None) => ctx.set_timer(SimDuration::from_secs(2), ChordTimer::JoinRetry),
            (Kind::FingerRefresh(i), Some((r, _))) => self.ring.set_finger(i, r.responsible()),
            (Kind::FingerRefresh(_), None) => {}
        }
    }

    // ------------------------------------------------------------------
    // Lookup forwarding (recursive / transitive)
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn handle_lookup(
        &mut self,
        from: Addr,
        lid: LookupId,
        key: Id,
        origin: NodeHandle,
        mode: LookupMode,
        hops: u32,
        maint: bool,
        ctx: &mut Ctx<'_, ChordMsg, ChordTimer>,
    ) {
        let bytes_key = if maint { keys::BYTES_MAINT } else { keys::BYTES_LOOKUP };
        send_counted(ctx, from, ChordMsg::HopAck { lid }, bytes_key);
        if self.lookups.is_forwarding(&lid) {
            return; // Duplicate (a reroute re-entered us); already handled.
        }
        let result = match self.local_answer(key) {
            Some(result) => result,
            None => match self.ring.relay_step(key) {
                Relay::To(next) => {
                    let hop = Hop::new(next.addr, key, (origin, mode), hops + 1, bytes_key);
                    self.lookups.forward(lid, hop, Some(from));
                    self.send_lookup(lid, hop, Some(next.id), ctx);
                    ctx.set_timer(self.cfg.lookup_deadline * 2, ChordTimer::RelayGc { lid });
                    return;
                }
                Relay::Drop => return,
                // Forge an authoritative answer naming this node as the
                // key's owner; the data layer's block verification is what
                // unmasks it (`dht.lookups.hijacked`).
                Relay::Hijack => {
                    let me = self.ring.me();
                    LookupResult { predecessor: me, successors: vec![me] }
                }
            },
        };
        let reply_to = if mode == LookupMode::Transitive { origin.addr } else { from };
        send_counted(ctx, reply_to, ChordMsg::LookupReply { lid, result, hops }, bytes_key);
    }

    /// Purges a detected-dead address from all routing state. Takes the
    /// two fields apart so the lookup table's hop-timeout rule can purge
    /// through it while it holds the ring.
    fn mark_dead(ring: &mut RingCore, predecessor: &mut Option<NodeHandle>, addr: Addr) {
        let predecessor_gone = predecessor.take_if(|p| p.addr == addr).is_some();
        ring.mark_dead(addr, predecessor_gone);
    }

    // ------------------------------------------------------------------
    // Stabilization
    // ------------------------------------------------------------------

    fn stabilize_once(&mut self, ctx: &mut Ctx<'_, ChordMsg, ChordTimer>) {
        // Probe the predecessor so a dead one gets cleared.
        if let Some(p) = self.predecessor {
            let token = self.ring.fresh_token();
            self.pred_waiting = Some(token);
            send_counted(ctx, p.addr, ChordMsg::Ping { token }, keys::BYTES_MAINT);
            ctx.set_timer(self.cfg.hop_timeout * 2, ChordTimer::PredTimeout { token });
        }
        let Some((token, s1)) = self.ring.begin_stabilize() else {
            return; // Singleton (or still joining).
        };
        send_counted(ctx, s1.addr, ChordMsg::GetNeighbors { token }, keys::BYTES_MAINT);
        ctx.set_timer(self.cfg.hop_timeout * 2, ChordTimer::StabTimeout { token });
    }

    fn handle_neighbors(
        &mut self,
        token: u64,
        predecessor: Option<NodeHandle>,
        mut succs: Vec<NodeHandle>,
        ctx: &mut Ctx<'_, ChordMsg, ChordTimer>,
    ) {
        let Some(s1) = self.ring.take_stab_waiting(token) else {
            return;
        };
        // Advertisement sanity check: drop entries whose addr→id binding
        // contradicts what we already know before they reach the list
        // (routing-table poisoning defense).
        let known = self.predecessor;
        let mut preds: Vec<NodeHandle> = predecessor.into_iter().collect();
        let poisoned = self.ring.sanitize_advert(known.as_slice(), &mut succs, ctx)
            | self.ring.sanitize_advert(known.as_slice(), &mut preds, ctx);
        let mode = self.cfg.maintenance;
        self.ring.adopt_successors(mode, s1, preds.first().copied(), &succs, poisoned);
        self.notify_successor(ctx);
    }

    fn notify_successor(&self, ctx: &mut Ctx<'_, ChordMsg, ChordTimer>) {
        if let Some(s1) = self.ring.successors().first() {
            let notify = ChordMsg::Notify { node: self.ring.me() };
            send_counted(ctx, s1.addr, notify, keys::BYTES_MAINT);
        }
    }

    fn handle_stab_timeout(&mut self, token: u64, ctx: &mut Ctx<'_, ChordMsg, ChordTimer>) {
        if let Some(s1) = self.ring.take_stab_waiting(token) {
            Self::mark_dead(&mut self.ring, &mut self.predecessor, s1.addr);
            // Repair immediately with the next live successor.
            self.stabilize_once(ctx);
        }
    }

    /// A neighbor announced a graceful departure: splice it out at once
    /// and absorb the routing state it handed over, instead of waiting for
    /// timeouts to discover the gap.
    fn handle_leaving(
        &mut self,
        node: NodeHandle,
        successors: Vec<NodeHandle>,
        predecessor: Option<NodeHandle>,
        ctx: &mut Ctx<'_, ChordMsg, ChordTimer>,
    ) {
        Self::mark_dead(&mut self.ring, &mut self.predecessor, node.addr);
        for h in successors {
            self.ring.absorb_successor(h);
        }
        if let Some(p) = predecessor.filter(|p| p.addr != self.ring.me().addr) {
            self.handle_notify(p, ctx);
        }
    }

    fn set_predecessor(&mut self, node: NodeHandle) {
        if self.predecessor != Some(node) {
            self.ring.bump_epoch();
        }
        self.predecessor = Some(node);
    }

    fn handle_notify(&mut self, node: NodeHandle, ctx: &mut Ctx<'_, ChordMsg, ChordTimer>) {
        let mode = self.cfg.maintenance;
        match (self.ring.predecessor_decision(mode, self.predecessor, node), self.predecessor) {
            (RectifyDecision::Adopt, _) => self.set_predecessor(node),
            (RectifyDecision::ProbePred, Some(incumbent)) => {
                // Rectify: the candidate is behind the incumbent. Probe
                // the incumbent and fall back to the candidate if the
                // probe times out, so a dead incumbent cannot strand the
                // predecessor pointer.
                let token = self.ring.fresh_token();
                self.rectify_waiting = Some((token, node));
                send_counted(ctx, incumbent.addr, ChordMsg::Ping { token }, keys::BYTES_MAINT);
                ctx.set_timer(self.cfg.hop_timeout * 2, ChordTimer::RectifyTimeout { token });
            }
            (RectifyDecision::Keep | RectifyDecision::ProbePred, _) => {}
        }
        self.ring.notify_refill(mode, node);
    }

    // ------------------------------------------------------------------
    // Finger maintenance
    // ------------------------------------------------------------------

    fn fix_fingers(&mut self, ctx: &mut Ctx<'_, ChordMsg, ChordTimer>) {
        // Targets beyond the successor list are refreshed through lookups.
        for (i, target) in self.ring.fix_fingers(Id::finger_target, |_, s, _| Some(s)) {
            self.begin_lookup(target, Kind::FingerRefresh(i), &[], ctx);
        }
    }
}

impl Node for ChordNode {
    type Msg = ChordMsg;
    type Timer = ChordTimer;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ChordMsg, ChordTimer>) {
        let (stab_phase, fing_phase) =
            self.ring.on_start(ctx, self.cfg.stabilize_interval, self.cfg.fix_fingers_interval);
        ctx.set_timer(stab_phase, ChordTimer::Stabilize);
        ctx.set_timer(fing_phase, ChordTimer::FixFingers);
        if !self.ring.is_joined() {
            self.begin_lookup(self.ring.id(), Kind::Join, &[], ctx);
        }
    }

    fn on_message(&mut self, from: Addr, msg: ChordMsg, ctx: &mut Ctx<'_, ChordMsg, ChordTimer>) {
        let _span = ProfScope::enter(match &msg {
            ChordMsg::Lookup { .. } | ChordMsg::HopAck { .. } | ChordMsg::LookupReply { .. } => {
                Scope::ChordLookupRelay
            }
            _ => Scope::ChordStabilize,
        });
        match msg {
            ChordMsg::Lookup { lid, key, origin, mode, hops, maint } => {
                self.handle_lookup(from, lid, key, origin, mode, hops, maint, ctx);
            }
            // A transitive middle hop: the reply will not pass back
            // through us, so the state can go now.
            ChordMsg::HopAck { lid } => self.lookups.ack(&lid, |f| f.1 == LookupMode::Transitive),
            ChordMsg::LookupReply { lid, result, hops } => {
                if lid.origin == self.ring.me().addr {
                    self.end_lookup(lid.seq, Some((result, hops)), ctx);
                } else if let Some((prev, bytes_key)) = self.lookups.reply_hop(&lid) {
                    // Relay back along the reverse path.
                    let reply = ChordMsg::LookupReply { lid, result, hops };
                    send_counted(ctx, prev, reply, bytes_key);
                }
            }
            ChordMsg::GetNeighbors { token } => {
                let mut successors = self.ring.successors().as_slice().to_vec();
                let mut predecessor = self.predecessor;
                if self.ring.is_byzantine() {
                    let mut preds: Vec<NodeHandle> = predecessor.into_iter().collect();
                    self.ring.advertise(&mut successors, &mut preds);
                    predecessor = preds.first().copied();
                }
                let reply = ChordMsg::Neighbors { token, predecessor, successors };
                send_counted(ctx, from, reply, keys::BYTES_MAINT);
            }
            ChordMsg::Neighbors { token, predecessor, successors } => {
                self.handle_neighbors(token, predecessor, successors, ctx);
            }
            ChordMsg::Notify { node } => self.handle_notify(node, ctx),
            ChordMsg::Leaving { node, successors, predecessor } => {
                self.handle_leaving(node, successors, predecessor, ctx);
            }
            ChordMsg::Ping { token } => {
                send_counted(ctx, from, ChordMsg::Pong { token }, keys::BYTES_MAINT);
            }
            ChordMsg::Pong { token } => {
                self.pred_waiting.take_if(|t| *t == token);
                // An incumbent predecessor that answers the rectify probe
                // is alive: keep it and drop the candidate.
                take_waiting(&mut self.rectify_waiting, token);
            }
        }
    }

    fn on_shutdown(&mut self, ctx: &mut Ctx<'_, ChordMsg, ChordTimer>) {
        if !self.ring.is_joined() {
            return;
        }
        let msg = ChordMsg::Leaving {
            node: self.ring.me(),
            successors: self.ring.successors().as_slice().to_vec(),
            predecessor: self.predecessor,
        };
        if let Some(p) = self.predecessor {
            send_counted(ctx, p.addr, msg.clone(), keys::BYTES_MAINT);
        }
        if let Some(s1) = self.ring.successors().first() {
            send_counted(ctx, s1.addr, msg, keys::BYTES_MAINT);
        }
    }

    fn on_timer(&mut self, timer: ChordTimer, ctx: &mut Ctx<'_, ChordMsg, ChordTimer>) {
        let _span = ProfScope::enter(match &timer {
            ChordTimer::HopTimeout { .. }
            | ChordTimer::LookupDeadline { .. }
            | ChordTimer::RelayGc { .. } => Scope::ChordLookupRelay,
            _ => Scope::ChordStabilize,
        });
        match timer {
            ChordTimer::Stabilize => {
                // Each maintenance tick is its own causal span; without
                // this the periodic timer would chain every future tick
                // onto whatever span armed the very first one.
                ctx.begin_cause();
                if self.ring.is_joined() {
                    self.stabilize_once(ctx);
                }
                ctx.set_timer(self.cfg.stabilize_interval, ChordTimer::Stabilize);
            }
            ChordTimer::FixFingers => {
                ctx.begin_cause();
                self.fix_fingers(ctx);
                ctx.set_timer(self.cfg.fix_fingers_interval, ChordTimer::FixFingers);
            }
            ChordTimer::StabTimeout { token } => self.handle_stab_timeout(token, ctx),
            ChordTimer::PredTimeout { token } => {
                if self.pred_waiting.take_if(|t| *t == token).is_some() {
                    self.predecessor = None;
                }
            }
            ChordTimer::RectifyTimeout { token } => {
                if let Some(cand) = take_waiting(&mut self.rectify_waiting, token) {
                    // The incumbent never answered: it is dead. Purge it
                    // and adopt the waiting candidate.
                    if let Some(p) = self.predecessor {
                        Self::mark_dead(&mut self.ring, &mut self.predecessor, p.addr);
                    }
                    if cand.id != self.ring.id() {
                        self.set_predecessor(cand);
                    }
                }
            }
            ChordTimer::HopTimeout { lid, attempt } => {
                let predecessor = &mut self.predecessor;
                let purge = |ring: &mut RingCore, addr| Self::mark_dead(ring, predecessor, addr);
                let ring = &mut self.ring;
                match self.lookups.hop_timeout(lid, lid.seq, attempt, ring, purge, |_| false, ctx) {
                    HopTimeout::Stale | HopTimeout::GiveUp { initiator: false } => {}
                    // No route left and no upstream: nothing more to try.
                    HopTimeout::GiveUp { initiator: true } => self.end_lookup(lid.seq, None, ctx),
                    HopTimeout::Resend(hop, id) => self.send_lookup(lid, hop, Some(id), ctx),
                }
            }
            ChordTimer::LookupDeadline { seq } => self.end_lookup(seq, None, ctx),
            ChordTimer::RelayGc { lid } => self.lookups.release(&lid),
            ChordTimer::JoinRetry => {
                if !self.ring.is_joined() {
                    self.begin_lookup(self.ring.id(), Kind::Join, &[], ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(id: u128, addr: u64) -> NodeHandle {
        NodeHandle::new(Id::new(id), Addr::from_raw(addr))
    }

    fn converged_node() -> ChordNode {
        ChordNode::with_state(
            Id::new(100),
            ChordConfig::default(),
            Some(h(50, 1)),
            &[h(200, 2), h(300, 3), h(400, 4)],
            &[(120, h(300, 3)), (125, h(900, 9))],
        )
    }

    #[test]
    fn health_reflects_routing_state() {
        let n = converged_node();
        let h = n.health();
        assert!(h.joined);
        assert_eq!(h.successors, 3);
        assert_eq!(h.predecessors, 1);
        assert_eq!(h.distinct_fingers, 2); // h(300,3) and h(900,9)
        assert_eq!(h.pending_lookups, 0);
        assert_eq!(h.forwarding, 0);
        assert!(!h.is_degraded(3));
        assert!(h.is_degraded(4));
        assert!(!NodeHealth::default().is_degraded(1), "an unjoined node is not degraded");
    }

    // The six tests below moved onto `RingCore` together with the rules
    // they check. They live on in this module, under their old names,
    // because the tier-1 floor lists them as `node::tests::*`; the
    // table-driven cases for the maintenance rules are in `ring_core.rs`.

    fn converged_ring() -> RingCore {
        RingCore::new(Id::new(100), 10)
            .with_state(&[h(200, 2), h(300, 3), h(400, 4)], &[(120, h(300, 3)), (125, h(900, 9))])
    }

    #[test]
    fn local_answer_covers_own_arc_only() {
        let ring = converged_ring();
        // (100, 200] is ours: the successor's id is inside, our own is not.
        for (key, owned) in [(150, true), (200, true), (250, false), (100, false)] {
            assert_eq!(ring.owns(Id::new(key)), owned, "key {key}");
        }
        // Chord's answer for an owned key: us, and our successor list.
        let n = converged_node();
        let r = n.local_answer(Id::new(150)).expect("answerable");
        assert_eq!(r.predecessor.id, Id::new(100));
        assert_eq!(r.responsible().id, Id::new(200));
        assert_eq!(r.successors.len(), 3);
        assert!(n.local_answer(Id::new(250)).is_none());
    }

    #[test]
    fn singleton_answers_everything() {
        assert!(RingCore::new(Id::new(7), 10).owns(Id::new(123456)));
        let n = ChordNode::first(Id::new(7), ChordConfig::default());
        let r = n.local_answer(Id::new(123456)).expect("singleton owns all");
        assert_eq!(r.responsible().id, Id::new(7));
        assert!(n.is_joined());
        assert!(n.predecessor().is_none());
    }

    #[test]
    fn joining_node_answers_nothing() {
        let ring = RingCore::new(Id::new(7), 10).joining(Addr::from_raw(9));
        assert!(!ring.is_joined() && !ring.owns(Id::new(8)));
        let n = ChordNode::joining(Id::new(7), ChordConfig::default(), Addr::from_raw(9));
        assert!(!n.is_joined());
        assert!(n.local_answer(Id::new(8)).is_none());
    }

    #[test]
    fn route_excluding_skips_excluded_and_picks_closest_preceding() {
        let ring = converged_ring();
        // Toward key 950: the finger at 900 is best.
        assert_eq!(ring.route_excluding(Id::new(950), &[]).unwrap().id, Id::new(900));
        // Excluding it falls back to 400 (successor list).
        let fallback = ring.route_excluding(Id::new(950), &[Addr::from_raw(9)]).unwrap();
        assert_eq!(fallback.id, Id::new(400));
        // Excluding everything preceding the key leaves nothing.
        let all = [Addr::from_raw(2), Addr::from_raw(3), Addr::from_raw(4), Addr::from_raw(9)];
        assert!(ring.route_excluding(Id::new(950), &all).is_none());
        // No exclusion: the plain greedy hop; an exclusion that leaves no
        // route falls back to it rather than failing a lookup we start.
        assert_eq!(ring.route_first_hop_excluding(Id::new(950), &[]).unwrap().id, Id::new(900));
        assert!(ring.route_first_hop_excluding(Id::new(950), &all).is_none());
        assert_eq!(ring.first_hop_avoiding(Id::new(950), &all).unwrap().id, Id::new(900));
    }

    #[test]
    fn mark_dead_purges_all_state() {
        let mut ring = converged_ring();
        ring.mark_dead(Addr::from_raw(3), false);
        assert!(ring.successors().iter().all(|s| s.addr != Addr::from_raw(3)));
        assert!(ring.fingers().distinct().iter().all(|f| f.addr != Addr::from_raw(3)));
        assert_eq!(ring.neighbor_epoch(), 1);
        // A finger-only peer leaves the replica-relevant neighborhood
        // alone, unless the node says its predecessor side lost it too.
        ring.mark_dead(Addr::from_raw(9), false);
        assert!(ring.fingers().is_empty());
        assert_eq!(ring.neighbor_epoch(), 1);
        ring.mark_dead(Addr::from_raw(9), true);
        assert_eq!(ring.neighbor_epoch(), 2);
        // Chord's predecessor side is its one pointer.
        let mut n = converged_node();
        ChordNode::mark_dead(&mut n.ring, &mut n.predecessor, Addr::from_raw(1));
        assert!(n.predecessor().is_none());
        assert_eq!(n.neighbor_epoch(), 1);
    }

    #[test]
    fn known_peers_deduplicates() {
        let ring = converged_ring();
        // 3 successors + 1 pred + finger 900 (300 duplicates a successor).
        let peers = ring.known_peers(&[h(50, 1)]);
        let ids: Vec<u128> = peers.iter().map(|p| p.id.raw()).collect();
        assert_eq!(ids, [200, 300, 400, 50, 900]);
        assert_eq!(converged_node().known_peers(), peers);
        // A relay's diversion pool is the forward routing peers only.
        let ids: Vec<u128> = ring.route_candidates().iter().map(|p| p.id.raw()).collect();
        assert_eq!(ids, [300, 900, 200, 400]);
    }
}
