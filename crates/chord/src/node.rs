//! One overlay node for both overlays.
//!
//! Paper §4 defines Verme as Chord with a different finger rule, typed
//! lookup admission and sealed replies. [`OverlayNode<R>`] is the node
//! both run — a [`RingCore`] and a [`LookupTable`] driven by one `impl
//! Node` — and a [`Rules`] policy supplies what differs: [`ChordRules`]
//! here, `VermeRules` in `verme-core`. Failure detection and rerouting are
//! shared ("every time a node tried to contact a node that had failed it
//! chose another neighbor", paper §7.1.2).

use std::convert::Infallible;
use std::fmt::Debug;
use std::ops::{Deref, DerefMut};

use verme_crypto::{CaVerifier, Certificate, KeyPair};
use verme_sim::{Addr, Ctx, Node, ProfScope, ProtoEvent, Scope, SimDuration, SimTime};

use crate::behaviour::Behaviour;
use crate::id::Id;
use crate::maintain::{MaintenanceMode, RectifyDecision, RingStance};
use crate::proto::{
    ChordConfig, ChordPredTimer, ChordTicket, LookupId, LookupMode, LookupResult, OverlayMsg,
    OverlayTimer,
};
use crate::relay::{Hop, HopTimeout, LookupKind, LookupTable, Pending};
use crate::ring::{FingerTable, NodeHandle};
use crate::ring_core::{send_counted, take_waiting, Relay, RingCore, RingNode};
use crate::static_ring::{ChordFingers, FingerRule};

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

/// A point-in-time snapshot of one node's routing-state health.
///
/// Designed for the runtime's sampler hook
/// ([`SampleView::nodes`](verme_sim::SampleView::nodes)): a handful of
/// counter reads per node, strictly read-only. Samplers fold the
/// per-node snapshots into run-level gauges (minimum successor
/// redundancy, total in-flight lookups, ...) and feed them to a
/// `verme-obs` monitor. Both overlays report through this one shape.
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

/// The protocol parameters the shared node reads from a configuration.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Interval between stabilization rounds.
    pub stabilize_interval: SimDuration,
    /// Interval between finger-refresh rounds.
    pub fix_fingers_interval: SimDuration,
    /// How long a hop waits for `HopAck`; a probe waits twice as long.
    pub hop_timeout: SimDuration,
    /// Overall per-lookup deadline.
    pub lookup_deadline: SimDuration,
    /// Which ring-maintenance rules to run.
    pub maintenance: MaintenanceMode,
}

/// How a finished lookup ends at its initiator ([`Rules::deliver`]).
pub enum Delivery<O> {
    /// An application outcome to hand up.
    Outcome(O),
    /// The join completed: notify the new first successor.
    Joined,
    /// The join failed: retry in two seconds.
    JoinFailed,
    /// Nothing more to do.
    Done,
}

/// The handler context of an [`OverlayNode<R>`].
pub type OverlayCtx<'a, R> =
    Ctx<'a, OverlayMsg<R>, OverlayTimer<<R as Rules>::Lid, <R as Rules>::PredTimer>>;

/// What one overlay supplies to the shared node: the rows of DESIGN's "A
/// node supplies" table. The value holds the state only its overlay has;
/// `Clone` and `Debug` let the message enum derive its own.
pub trait Rules: Clone + Debug + Sized {
    /// Lookup id: Chord's names the initiator, Verme's is a nonce.
    type Lid: Copy + Eq + Debug;
    /// Why a node starts a lookup.
    type Kind: LookupKind;
    /// What a lookup carries beside its key.
    type Ticket: Copy + Debug;
    /// An operation a lookup may carry to the key's node.
    type Payload: Clone + Debug;
    /// A reply on the wire.
    type Reply: Clone + Debug;
    /// A reply as its initiator reads it.
    type Answer;
    /// What an application lookup hands up when it ends.
    type Outcome;
    /// The predecessor side's probe timer.
    type PredTimer: Clone + Debug;
    /// The node's join.
    const JOIN: Self::Kind;
    /// An application lookup.
    const APP: Self::Kind;

    /// The shared protocol parameters.
    fn timing(&self) -> Timing;

    // --- wire carry and reply ---------------------------------------------

    /// The ticket of a lookup of `kind` that node `me` starts.
    fn ticket(&self, me: NodeHandle, kind: Self::Kind) -> Self::Ticket;
    /// The byte counter a lookup's traffic is charged to.
    fn bytes_key(ticket: &Self::Ticket) -> &'static str;
    /// Bytes of a `Lookup` after the header, lookup id and key.
    fn lookup_size(ticket: &Self::Ticket, piggyback: Option<&Self::Payload>) -> usize;
    /// Bytes of a `Reply` after the header, lookup id and hop count.
    fn reply_size(reply: &Self::Reply) -> usize;
    /// Handle slots a `Neighbors` spends on the advertised predecessors.
    fn predecessor_slots(advertised: &[NodeHandle]) -> usize;
    /// A node's (type, section) for the hop trace, on an overlay with types.
    fn place(&self, _id: Id) -> Option<(u8, u128)> {
        None
    }
    /// The reply carrying `answer` back to the lookup's initiator.
    fn seal(ticket: &Self::Ticket, answer: Self::Answer) -> Self::Reply;
    /// Where the key's node replies to a lookup received from `from`.
    fn reply_to(_ticket: &Self::Ticket, from: Addr) -> Addr {
        from
    }
    /// The initiator reads a reply; `None` if it cannot.
    fn open(&self, reply: Self::Reply) -> Option<Self::Answer>;

    // --- lookup id --------------------------------------------------------

    /// The id of a lookup node `me` starts.
    fn mint(&mut self, me: Addr, ctx: &mut OverlayCtx<'_, Self>) -> Self::Lid;
    /// The trace op number, which keys the initiator's pending entry.
    fn op(lid: &Self::Lid) -> u64;
    /// False if the id names an initiator other than `me`.
    fn started_here(_lid: &Self::Lid, _me: Addr) -> bool {
        true
    }

    // --- admission and answering on the own arc ---------------------------

    /// The key's node answers a lookup received from `prev`, or its own
    /// (`None`); no answer when it denies the lookup or holds it for the
    /// embedding layer.
    #[allow(clippy::too_many_arguments)]
    fn answer(
        &mut self,
        ring: &RingCore,
        lid: Self::Lid,
        key: Id,
        ticket: &Self::Ticket,
        piggyback: Option<Self::Payload>,
        prev: Option<Addr>,
        hops: u32,
        ctx: &mut OverlayCtx<'_, Self>,
    ) -> Option<Self::Answer>;
    /// True while an answer to `lid` is held (a re-delivery is a duplicate).
    fn holds(&self, _lid: &Self::Lid, _now: SimTime) -> bool {
        false
    }
    /// The answer a hijacking relay `me` forges.
    fn forged(me: NodeHandle, ticket: &Self::Ticket, piggybacked: bool) -> Self::Answer;

    // --- delivering a finished lookup -------------------------------------

    /// Lookup `lid` ended at its initiator, answered after some hops or
    /// failed.
    fn deliver(
        &mut self,
        ring: &mut RingCore,
        lid: Self::Lid,
        pending: Pending<Self::Kind>,
        answer: Option<(Self::Answer, u32)>,
        latency: SimDuration,
    ) -> Delivery<Self::Outcome>;

    // --- the finger rule --------------------------------------------------

    /// Where this overlay's fingers aim and whom they name: Chord's
    /// unless the rule set says otherwise.
    fn fingers(&self) -> &impl FingerRule {
        &ChordFingers
    }
    /// The lookup that refreshes finger `i`.
    fn finger_kind(i: usize) -> Self::Kind;

    // --- the predecessor side ---------------------------------------------

    /// The known predecessors, nearest first.
    fn predecessors(&self) -> &[NodeHandle];
    /// Drops `addr` from the predecessor side; true if it was there.
    fn forget_predecessor(&mut self, addr: Addr) -> bool;
    /// A stabilization round: the predecessor side's probe and the
    /// `successor_round`, in the rule set's order.
    fn stabilize(
        &mut self,
        ring: &mut RingCore,
        ctx: &mut OverlayCtx<'_, Self>,
        successor_round: impl FnOnce(&mut RingCore, &mut OverlayCtx<'_, Self>),
    );
    /// The predecessor whose round a `Neighbors` with `token` ends.
    fn take_predecessor_round(&mut self, _token: u64) -> Option<NodeHandle> {
        None
    }
    /// Rebuilds the predecessor side from `p1`'s vetted advertisement.
    fn adopt_predecessors(&mut self, _: &mut RingCore, _: NodeHandle, _: &[NodeHandle], _: bool) {}
    /// `node` believes it is this node's predecessor.
    fn notified(&mut self, ring: &mut RingCore, node: NodeHandle, ctx: &mut OverlayCtx<'_, Self>);
    /// Takes in a leaver's predecessors (none of them this node); returns
    /// one to treat as a notify.
    fn handed_predecessors(
        &mut self,
        ring: &mut RingCore,
        handed: Vec<NodeHandle>,
    ) -> Option<NodeHandle>;
    /// A predecessor-side probe timed out.
    fn predecessor_timeout(&mut self, ring: &mut RingCore, timer: Self::PredTimer);
    /// A `Pong` with `token` arrived.
    fn pong(&mut self, _token: u64) {}

    // --- the two reroute exceptions ---------------------------------------

    /// True if a relay drops its state once the next hop acks: the reply
    /// will not pass back through it.
    fn released_on_ack(_ticket: &Self::Ticket) -> bool {
        false
    }
    /// True if a lookup carrying `piggyback` must never be re-sent.
    fn pinned(_piggyback: Option<&Self::Payload>) -> bool {
        false
    }
}

/// Rules whose nodes hold a CA-issued identity (paper §4.5). Their
/// application lookups ask for a key's replica set and may carry an
/// operation the embedding layer answers.
pub trait Certified: Rules {
    /// The configuration the rules are built from.
    type Config;
    /// The ring state and rules of the node `cert` names, with
    /// `predecessors` known.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the identity inconsistent.
    fn certified(
        cfg: Self::Config,
        cert: Certificate,
        keys: KeyPair,
        verifier: CaVerifier,
        predecessors: &[NodeHandle],
    ) -> (RingCore, Self);
    /// The key a measured lookup for `key` resolves.
    fn measured_key(&self, key: Id) -> Id;
    /// Takes the answer held for `lid`, completed with `app`: the hop it
    /// goes to (`None` at the initiator), the ticket, the hops, the answer.
    #[allow(clippy::type_complexity)]
    fn answer_held(
        &mut self,
        lid: &Self::Lid,
        app: Option<Self::Payload>,
        now: SimTime,
    ) -> Option<(Option<Addr>, Self::Ticket, u32, Self::Answer)>;
}

/// An overlay node, driven by a [`Runtime`](verme_sim::Runtime).
///
/// It reads as its rules: the accessors a rule set defines for its own
/// state ([`ChordRules::predecessor`], `VermeRules::node_type`, …) are the
/// node's.
pub struct OverlayNode<R: Rules> {
    ring: RingCore,
    /// Lookups in flight; a forwarded one keeps its ticket and whether it
    /// is pinned.
    lookups: LookupTable<R::Lid, R::Kind, (R::Ticket, bool)>,
    outcomes: Vec<R::Outcome>,
    rules: R,
}

impl<R: Rules> Deref for OverlayNode<R> {
    type Target = R;

    fn deref(&self) -> &R {
        &self.rules
    }
}

impl<R: Rules> DerefMut for OverlayNode<R> {
    fn deref_mut(&mut self) -> &mut R {
        &mut self.rules
    }
}

impl<R: Rules> RingNode for OverlayNode<R> {
    fn ring(&self) -> &RingCore {
        &self.ring
    }

    fn set_behaviour(&mut self, behaviour: Box<dyn Behaviour>) {
        self.ring.set_behaviour(behaviour);
    }
}

impl<R: Rules> OverlayNode<R> {
    fn new(ring: RingCore, rules: R) -> Self {
        OverlayNode { ring, lookups: LookupTable::default(), outcomes: Vec::new(), rules }
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

    /// The node's successor list, nearest first.
    pub fn successor_list(&self) -> &[NodeHandle] {
        self.ring.successors().as_slice()
    }

    /// Monotone counter bumped whenever this node's replica-relevant
    /// neighborhood actually changes; storage layers poll it to repair
    /// replicas promptly.
    pub fn neighbor_epoch(&self) -> u64 {
        self.ring.neighbor_epoch()
    }

    /// The node's finger table.
    pub fn finger_table(&self) -> &FingerTable {
        self.ring.fingers()
    }

    /// This node's ring pointers for [`check_ring`](crate::check_ring),
    /// the whole predecessor side included.
    pub fn ring_stance(&self) -> RingStance {
        self.ring.ring_stance(self.rules.predecessors())
    }

    /// Samples this node's [`NodeHealth`] gauges at `now`.
    pub fn health(&self, now: SimTime) -> NodeHealth {
        let (pending, forwarding) = self.lookups.counts(now);
        self.ring.health(self.rules.predecessors().len(), pending, forwarding)
    }

    /// Every distinct peer this node's routing state names — exactly the
    /// addresses a topological worm could harvest from the node's memory.
    pub fn known_peers(&self) -> Vec<NodeHandle> {
        self.ring.known_peers(self.rules.predecessors())
    }

    /// The greedy first hop toward `key` — Compromise-VerDi's
    /// "appropriate finger table entry" (§5.3.3).
    pub fn route_first_hop(&self, key: Id) -> Option<NodeHandle> {
        self.ring.route_first_hop(key)
    }

    /// As [`route_first_hop`](Self::route_first_hop), refusing `exclude`
    /// (suspected-misroute failover, disjoint redundant paths).
    pub fn route_first_hop_excluding(&self, key: Id, exclude: &[Addr]) -> Option<NodeHandle> {
        self.ring.route_first_hop_excluding(key, exclude)
    }

    /// Drains the outcomes of application lookups finished since the last
    /// call.
    pub fn take_outcomes(&mut self) -> Vec<R::Outcome> {
        std::mem::take(&mut self.outcomes)
    }

    fn start_app_lookup(
        &mut self,
        key: Id,
        piggyback: Option<R::Payload>,
        avoid: &[Addr],
        ctx: &mut OverlayCtx<'_, R>,
    ) -> R::Lid {
        ctx.metrics().count(keys::LOOKUP_ISSUED, 1);
        self.begin_lookup(key, R::APP, piggyback, avoid, ctx)
    }

    fn begin_lookup(
        &mut self,
        key: Id,
        kind: R::Kind,
        piggyback: Option<R::Payload>,
        avoid: &[Addr],
        ctx: &mut OverlayCtx<'_, R>,
    ) -> R::Lid {
        let lid = self.rules.mint(self.ring.me().addr, ctx);
        self.lookups.begin(R::op(&lid), key, kind, self.ring.id(), ctx);
        ctx.set_timer(self.rules.timing().lookup_deadline, OverlayTimer::LookupDeadline { lid });
        let ticket = self.rules.ticket(self.ring.me(), kind);
        // A joining node routes through the bootstrap, whose id it does
        // not know yet (no hop id to trace).
        let first_hop = if !self.ring.is_joined() {
            self.ring.bootstrap().map(|a| (a, None))
        } else if self.ring.owns(key) {
            let ring = &self.ring;
            if let Some(a) = self.rules.answer(ring, lid, key, &ticket, piggyback, None, 0, ctx) {
                self.end_lookup(lid, Some((a, 0)), ctx);
            }
            return lid;
        } else {
            // With an empty `avoid` this is exactly the plain greedy hop.
            self.ring.first_hop_avoiding(key, avoid).map(|h| (h.addr, Some(h.id)))
        };
        let Some((next, next_id)) = first_hop else {
            self.end_lookup(lid, None, ctx); // No route at all.
            return lid;
        };
        let hop = Hop::new(next, key, (ticket, R::pinned(piggyback.as_ref())), 1, kind.bytes_key());
        self.lookups.forward(lid, hop, None, ctx.now());
        self.send_lookup(lid, hop, next_id, piggyback, ctx);
        lid
    }

    /// Sends `hop` of `lid` and arms its ack timer. A hop whose id is
    /// known is traced, with both ends' types and sections where the
    /// overlay has them (the Verme opposite-type checker reads them).
    fn send_lookup(
        &self,
        lid: R::Lid,
        hop: Hop<(R::Ticket, bool)>,
        to_id: Option<Id>,
        piggyback: Option<R::Payload>,
        ctx: &mut OverlayCtx<'_, R>,
    ) {
        let Hop { next, attempt, key, carry: (ticket, _), hops, bytes_key } = hop;
        if let Some(to_id) = to_id {
            let (from, to) = (self.rules.place(self.ring.id()), self.rules.place(to_id));
            ctx.emit(ProtoEvent::LookupHop {
                op: R::op(&lid),
                to: next,
                to_id: to_id.raw(),
                hop: hops - 1,
                from_type: from.map(|p| p.0),
                to_type: to.map(|p| p.0),
                from_section: from.map(|p| p.1),
                to_section: to.map(|p| p.1),
            });
        }
        send_counted(
            ctx,
            next,
            OverlayMsg::Lookup { lid, key, ticket, piggyback, hops },
            bytes_key,
        );
        ctx.set_timer(self.rules.timing().hop_timeout, OverlayTimer::HopTimeout { lid, attempt });
    }

    /// Ends lookup `lid`: answered with `(answer, hops)`, or failed.
    fn end_lookup(
        &mut self,
        lid: R::Lid,
        answer: Option<(R::Answer, u32)>,
        ctx: &mut OverlayCtx<'_, R>,
    ) {
        let hops = answer.as_ref().map(|a| a.1);
        let Some(p) = self.lookups.finish(R::op(&lid), &lid, hops, ctx) else {
            return; // Late reply for an already-failed lookup.
        };
        let latency = ctx.now().saturating_since(p.started);
        match self.rules.deliver(&mut self.ring, lid, p, answer, latency) {
            Delivery::Outcome(outcome) => self.outcomes.push(outcome),
            Delivery::Joined => self.notify_successor(ctx),
            Delivery::JoinFailed => {
                ctx.set_timer(SimDuration::from_secs(2), OverlayTimer::JoinRetry)
            }
            Delivery::Done => {}
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_lookup(
        &mut self,
        from: Addr,
        lid: R::Lid,
        key: Id,
        ticket: R::Ticket,
        piggyback: Option<R::Payload>,
        hops: u32,
        ctx: &mut OverlayCtx<'_, R>,
    ) {
        let bytes_key = R::bytes_key(&ticket);
        send_counted(ctx, from, OverlayMsg::HopAck { lid }, bytes_key);
        let now = ctx.now();
        if self.lookups.is_forwarding(&lid, now) || self.rules.holds(&lid, now) {
            return; // Duplicate (a reroute re-entered us); already handled.
        }
        let answer = if self.ring.owns(key) {
            let ring = &self.ring;
            match self.rules.answer(ring, lid, key, &ticket, piggyback, Some(from), hops, ctx) {
                Some(answer) => answer,
                None => return,
            }
        } else {
            match self.ring.relay_step(key) {
                Relay::To(next) => {
                    let carry = (ticket, R::pinned(piggyback.as_ref()));
                    let hop = Hop::new(next.addr, key, carry, hops + 1, bytes_key);
                    let expiry = now + self.rules.timing().lookup_deadline * 2;
                    self.lookups.forward(lid, hop, Some((from, expiry)), now);
                    self.send_lookup(lid, hop, Some(next.id), piggyback, ctx);
                    return;
                }
                Relay::Drop => return,
                // A forged answer naming this node; only a data-layer
                // integrity check unmasks it (`dht.lookups.hijacked`).
                Relay::Hijack => R::forged(self.ring.me(), &ticket, piggyback.is_some()),
            }
        };
        let reply = OverlayMsg::Reply { lid, reply: R::seal(&ticket, answer), hops };
        send_counted(ctx, R::reply_to(&ticket, from), reply, bytes_key);
    }

    /// Purges a detected-dead address from all routing state.
    fn mark_dead(&mut self, addr: Addr) {
        let predecessor_gone = self.rules.forget_predecessor(addr);
        self.ring.mark_dead(addr, predecessor_gone);
    }

    fn stabilize_once(&mut self, ctx: &mut OverlayCtx<'_, R>) {
        let wait = self.rules.timing().hop_timeout * 2;
        self.rules.stabilize(&mut self.ring, ctx, |ring, ctx| {
            if let Some((token, s1)) = ring.begin_stabilize() {
                send_counted(ctx, s1.addr, OverlayMsg::GetNeighbors { token }, keys::BYTES_MAINT);
                ctx.set_timer(wait, OverlayTimer::StabTimeout { token });
            }
        });
    }

    fn handle_neighbors(
        &mut self,
        token: u64,
        mut succs: Vec<NodeHandle>,
        mut preds: Vec<NodeHandle>,
        ctx: &mut OverlayCtx<'_, R>,
    ) {
        // Match the token first: an unsolicited or stale reply is dropped
        // unvetted.
        let s1 = self.ring.take_stab_waiting(token);
        let p1 = if s1.is_none() { self.rules.take_predecessor_round(token) } else { None };
        if s1.is_none() && p1.is_none() {
            return;
        }
        // Drop entries whose addr→id binding contradicts what we know
        // (routing-table poisoning defense).
        let known = self.rules.predecessors();
        let poisoned = self.ring.sanitize_advert(known, &mut succs, ctx)
            | self.ring.sanitize_advert(known, &mut preds, ctx);
        if let Some(s1) = s1 {
            // s1's best predecessor might sit between us and s1.
            let mode = self.rules.timing().maintenance;
            self.ring.adopt_successors(mode, s1, preds.first().copied(), &succs, poisoned);
            self.notify_successor(ctx);
        } else if let Some(p1) = p1 {
            self.rules.adopt_predecessors(&mut self.ring, p1, &preds, poisoned);
        }
    }

    fn notify_successor(&self, ctx: &mut OverlayCtx<'_, R>) {
        if let Some(s1) = self.ring.successors().first() {
            let notify = OverlayMsg::Notify { node: self.ring.me() };
            send_counted(ctx, s1.addr, notify, keys::BYTES_MAINT);
        }
    }

    fn handle_notify(&mut self, node: NodeHandle, ctx: &mut OverlayCtx<'_, R>) {
        self.rules.notified(&mut self.ring, node, ctx);
        self.ring.notify_refill(self.rules.timing().maintenance, node);
    }

    /// A neighbor leaves gracefully: splice it out at once and absorb what
    /// it handed over. Its successors feed only our successor list and its
    /// predecessors only our predecessor side: the 6-slot model checker
    /// found that cross-integrating them can leave a backwards ring edge.
    fn handle_leaving(
        &mut self,
        node: NodeHandle,
        successors: Vec<NodeHandle>,
        mut predecessors: Vec<NodeHandle>,
        ctx: &mut OverlayCtx<'_, R>,
    ) {
        self.mark_dead(node.addr);
        let me = self.ring.me().addr;
        for h in successors.into_iter().filter(|h| h.addr != me) {
            self.ring.absorb_successor(h);
        }
        predecessors.retain(|h| h.addr != me);
        if let Some(p) = self.rules.handed_predecessors(&mut self.ring, predecessors) {
            self.handle_notify(p, ctx);
        }
    }

    fn fix_fingers(&mut self, ctx: &mut OverlayCtx<'_, R>) {
        let remote = self.ring.fix_fingers(self.rules.fingers());
        // Targets beyond the successor list are refreshed through lookups.
        for (i, target) in remote {
            self.begin_lookup(target, R::finger_kind(i), None, &[], ctx);
        }
    }
}

impl<R: Certified> OverlayNode<R> {
    /// Creates the first node of a new ring; the certificate binds its id
    /// and type.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, or the certificate, its key
    /// pair and the id's embedded type disagree.
    pub fn first(cfg: R::Config, cert: Certificate, keys: KeyPair, verifier: CaVerifier) -> Self {
        let (ring, rules) = R::certified(cfg, cert, keys, verifier, &[]);
        OverlayNode::new(ring, rules)
    }

    /// Creates a node that joins an existing ring through `bootstrap`.
    ///
    /// # Panics
    ///
    /// As for [`first`](Self::first).
    pub fn joining(
        cfg: R::Config,
        cert: Certificate,
        keys: KeyPair,
        verifier: CaVerifier,
        bootstrap: Addr,
    ) -> Self {
        let (ring, rules) = R::certified(cfg, cert, keys, verifier, &[]);
        OverlayNode::new(ring.joining(bootstrap), rules)
    }

    /// Creates a node with pre-converged routing state.
    ///
    /// # Panics
    ///
    /// As for [`first`](Self::first), or if a finger index is out of range.
    pub fn with_state(
        cfg: R::Config,
        cert: Certificate,
        keys: KeyPair,
        verifier: CaVerifier,
        predecessors: &[NodeHandle],
        successors: &[NodeHandle],
        fingers: &[(usize, NodeHandle)],
    ) -> Self {
        let (ring, rules) = R::certified(cfg, cert, keys, verifier, predecessors);
        OverlayNode::new(ring.with_state(successors, fingers), rules)
    }

    /// Starts a replica lookup (the VerDi `Replicas` purpose) of a point
    /// the caller chose, optionally piggybacking an operation
    /// (Secure-VerDi); the outcome appears in
    /// [`take_outcomes`](Self::take_outcomes).
    pub fn start_replica_lookup(
        &mut self,
        key: Id,
        piggyback: Option<R::Payload>,
        ctx: &mut OverlayCtx<'_, R>,
    ) -> R::Lid {
        self.start_app_lookup(key, piggyback, &[], ctx)
    }

    /// As [`start_replica_lookup`](Self::start_replica_lookup), with a
    /// first hop that avoids `avoid`: disjoint redundant paths, and
    /// retries around distrusted hops.
    pub fn start_replica_lookup_excluding(
        &mut self,
        key: Id,
        piggyback: Option<R::Payload>,
        avoid: &[Addr],
        ctx: &mut OverlayCtx<'_, R>,
    ) -> R::Lid {
        self.start_app_lookup(key, piggyback, avoid, ctx)
    }

    /// Starts a random-key measurement lookup (the Figure 5 workload) of
    /// the point a data-bearing application would ask for.
    pub fn start_measured_lookup(&mut self, key: Id, ctx: &mut OverlayCtx<'_, R>) -> R::Lid {
        let key = self.rules.measured_key(key);
        self.start_replica_lookup(key, None, ctx)
    }

    /// Answers a held piggybacked operation with the application's `app`
    /// (a data block, a store acknowledgment). False if it expired.
    pub fn send_answer(
        &mut self,
        lid: R::Lid,
        app: Option<R::Payload>,
        ctx: &mut OverlayCtx<'_, R>,
    ) -> bool {
        let Some((prev, ticket, hops, answer)) = self.rules.answer_held(&lid, app, ctx.now())
        else {
            return false;
        };
        match prev {
            Some(prev) => {
                let reply = OverlayMsg::Reply { lid, reply: R::seal(&ticket, answer), hops };
                send_counted(ctx, prev, reply, keys::BYTES_LOOKUP);
            }
            // We were both initiator and responsible node.
            None => self.end_lookup(lid, Some((answer, hops)), ctx),
        }
        true
    }
}

impl<R: Rules> Node for OverlayNode<R> {
    type Msg = OverlayMsg<R>;
    type Timer = OverlayTimer<R::Lid, R::PredTimer>;

    fn on_start(&mut self, ctx: &mut OverlayCtx<'_, R>) {
        let timing = self.rules.timing();
        let (stab_phase, fing_phase) =
            self.ring.on_start(ctx, timing.stabilize_interval, timing.fix_fingers_interval);
        ctx.set_timer(stab_phase, OverlayTimer::Stabilize);
        ctx.set_timer(fing_phase, OverlayTimer::FixFingers);
        if !self.ring.is_joined() {
            self.begin_lookup(self.ring.id(), R::JOIN, None, &[], ctx);
        }
    }

    fn on_message(&mut self, from: Addr, msg: OverlayMsg<R>, ctx: &mut OverlayCtx<'_, R>) {
        let _span = ProfScope::enter(match &msg {
            OverlayMsg::Lookup { .. } | OverlayMsg::HopAck { .. } | OverlayMsg::Reply { .. } => {
                Scope::ChordLookupRelay
            }
            _ => Scope::ChordStabilize,
        });
        let now = ctx.now();
        match msg {
            OverlayMsg::Lookup { lid, key, ticket, piggyback, hops } => {
                self.handle_lookup(from, lid, key, ticket, piggyback, hops, ctx);
            }
            OverlayMsg::HopAck { lid } => self.lookups.ack(&lid, now, |c| R::released_on_ack(&c.0)),
            OverlayMsg::Reply { lid, reply, hops } => {
                let me = self.ring.me().addr;
                if R::started_here(&lid, me) && self.lookups.is_pending(R::op(&lid), now) {
                    // Ours; one we cannot open (misrouted, forged) fails.
                    let answer = self.rules.open(reply);
                    self.end_lookup(lid, answer.map(|a| (a, hops)), ctx);
                } else if let Some((prev, bytes_key)) = self.lookups.reply_hop(&lid, now) {
                    // Relay back along the reverse path.
                    send_counted(ctx, prev, OverlayMsg::Reply { lid, reply, hops }, bytes_key);
                }
            }
            OverlayMsg::GetNeighbors { token } => {
                let mut successors = self.ring.successors().as_slice().to_vec();
                let mut predecessors = self.rules.predecessors().to_vec();
                if self.ring.is_byzantine() {
                    self.ring.advertise(&mut successors, &mut predecessors);
                }
                let reply = OverlayMsg::Neighbors { token, successors, predecessors };
                send_counted(ctx, from, reply, keys::BYTES_MAINT);
            }
            OverlayMsg::Neighbors { token, successors, predecessors } => {
                self.handle_neighbors(token, successors, predecessors, ctx);
            }
            OverlayMsg::Notify { node } => self.handle_notify(node, ctx),
            OverlayMsg::Leaving { node, successors, predecessors } => {
                self.handle_leaving(node, successors, predecessors, ctx);
            }
            OverlayMsg::Ping { token } => {
                send_counted(ctx, from, OverlayMsg::Pong { token }, keys::BYTES_MAINT);
            }
            OverlayMsg::Pong { token } => self.rules.pong(token),
        }
    }

    fn on_shutdown(&mut self, ctx: &mut OverlayCtx<'_, R>) {
        if !self.ring.is_joined() {
            return;
        }
        let predecessors = self.rules.predecessors();
        let msg = OverlayMsg::Leaving {
            node: self.ring.me(),
            successors: self.ring.successors().as_slice().to_vec(),
            predecessors: predecessors.to_vec(),
        };
        if let Some(p1) = predecessors.first() {
            send_counted(ctx, p1.addr, msg.clone(), keys::BYTES_MAINT);
        }
        if let Some(s1) = self.ring.successors().first() {
            send_counted(ctx, s1.addr, msg, keys::BYTES_MAINT);
        }
    }

    fn on_timer(&mut self, timer: Self::Timer, ctx: &mut OverlayCtx<'_, R>) {
        let _span = ProfScope::enter(match &timer {
            OverlayTimer::HopTimeout { .. } | OverlayTimer::LookupDeadline { .. } => {
                Scope::ChordLookupRelay
            }
            _ => Scope::ChordStabilize,
        });
        match timer {
            OverlayTimer::Stabilize => {
                // Each maintenance tick is its own causal span, not chained
                // onto whatever span armed the first one.
                ctx.begin_cause();
                if self.ring.is_joined() {
                    self.stabilize_once(ctx);
                }
                ctx.set_timer(self.rules.timing().stabilize_interval, OverlayTimer::Stabilize);
            }
            OverlayTimer::FixFingers => {
                ctx.begin_cause();
                self.fix_fingers(ctx);
                ctx.set_timer(self.rules.timing().fix_fingers_interval, OverlayTimer::FixFingers);
            }
            OverlayTimer::StabTimeout { token } => {
                if let Some(s1) = self.ring.take_stab_waiting(token) {
                    self.mark_dead(s1.addr);
                    self.stabilize_once(ctx); // Repair with the next live successor.
                }
            }
            OverlayTimer::Predecessor(timer) => {
                self.rules.predecessor_timeout(&mut self.ring, timer)
            }
            OverlayTimer::HopTimeout { lid, attempt } => {
                let rules = &mut self.rules;
                let purge = |ring: &mut RingCore, addr| {
                    let predecessor_gone = rules.forget_predecessor(addr);
                    ring.mark_dead(addr, predecessor_gone);
                };
                let (op, ring) = (R::op(&lid), &mut self.ring);
                match self.lookups.hop_timeout(lid, op, attempt, ring, purge, |c| c.1, ctx) {
                    HopTimeout::Stale | HopTimeout::GiveUp { initiator: false } => {}
                    // No route left and no upstream: nothing more to try.
                    HopTimeout::GiveUp { initiator: true } => self.end_lookup(lid, None, ctx),
                    // Re-sent at its original hop index, with no payload.
                    HopTimeout::Resend(hop, id) => self.send_lookup(lid, hop, Some(id), None, ctx),
                }
            }
            OverlayTimer::LookupDeadline { lid } => self.end_lookup(lid, None, ctx),
            OverlayTimer::JoinRetry => {
                if !self.ring.is_joined() {
                    self.begin_lookup(self.ring.id(), R::JOIN, None, &[], ctx);
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Chord
// ----------------------------------------------------------------------

/// The outcome of a Chord application lookup, retrieved with
/// [`OverlayNode::take_outcomes`].
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

/// Why a Chord node starts a lookup.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ChordKind {
    /// An application lookup.
    App,
    /// The node's join.
    Join,
    /// The refresh of finger `.0`.
    FingerRefresh(usize),
}

impl LookupKind for ChordKind {
    fn label(self) -> &'static str {
        match self {
            ChordKind::App => "app",
            ChordKind::Join => "join",
            ChordKind::FingerRefresh(_) => "finger",
        }
    }

    fn is_app(self) -> bool {
        self == ChordKind::App
    }
}

/// Chord's rules: sequence-numbered lookups in both traversal modes
/// ([`LookupMode`]), plain fingers, no admission, and one predecessor
/// pointer with its liveness ping and rectify probe.
#[derive(Clone, Debug)]
pub struct ChordRules {
    cfg: ChordConfig,
    predecessor: Option<NodeHandle>,
    next_seq: u64,
    pred_waiting: Option<u64>,
    /// In-flight rectify probe: the incumbent predecessor is pinged with
    /// this token; the candidate is adopted on timeout.
    rectify_waiting: Option<(u64, NodeHandle)>,
}

/// A Chord overlay node: [`first`](ChordNode::first) creates a ring,
/// [`joining`](ChordNode::joining) joins one through a bootstrap, and
/// [`with_state`](ChordNode::with_state) starts converged. Lookups are
/// injected with [`start_lookup`](ChordNode::start_lookup) via
/// [`Runtime::invoke`](verme_sim::Runtime::invoke); results land in the
/// metrics sink under [`keys`].
pub type ChordNode = OverlayNode<ChordRules>;

impl ChordRules {
    /// The node's current predecessor, if known.
    pub fn predecessor(&self) -> Option<NodeHandle> {
        self.predecessor
    }

    fn set_predecessor(&mut self, ring: &mut RingCore, node: NodeHandle) {
        if self.predecessor != Some(node) {
            ring.bump_epoch();
        }
        self.predecessor = Some(node);
    }

    /// Pings `to` with `timer`'s token, and arms `timer` to fire if no
    /// `Pong` comes.
    fn ping(&self, to: Addr, timer: ChordPredTimer, ctx: &mut OverlayCtx<'_, Self>) {
        let (ChordPredTimer::Ping { token } | ChordPredTimer::Rectify { token }) = timer;
        send_counted(ctx, to, OverlayMsg::Ping { token }, keys::BYTES_MAINT);
        ctx.set_timer(self.cfg.hop_timeout * 2, OverlayTimer::Predecessor(timer));
    }
}

/// Chord's answer on the arc `ring` owns: this node and its successor list.
fn local_answer(ring: &RingCore, key: Id) -> Option<LookupResult> {
    ring.owns(key).then(|| {
        let me = ring.me();
        let mut successors = ring.successors().as_slice().to_vec();
        if successors.is_empty() {
            successors.push(me); // Singleton ring: we own everything.
        }
        LookupResult { predecessor: me, successors }
    })
}

impl Rules for ChordRules {
    type Lid = LookupId;
    type Kind = ChordKind;
    type Ticket = ChordTicket;
    type Payload = Infallible;
    type Reply = LookupResult;
    type Answer = LookupResult;
    type Outcome = LookupOutcome;
    type PredTimer = ChordPredTimer;
    const JOIN: ChordKind = ChordKind::Join;
    const APP: ChordKind = ChordKind::App;

    fn timing(&self) -> Timing {
        self.cfg.timing()
    }

    fn ticket(&self, me: NodeHandle, kind: ChordKind) -> ChordTicket {
        ChordTicket { origin: me, mode: self.cfg.lookup_mode, maint: !kind.is_app() }
    }

    fn bytes_key(ticket: &ChordTicket) -> &'static str {
        if ticket.maint {
            keys::BYTES_MAINT
        } else {
            keys::BYTES_LOOKUP
        }
    }

    fn lookup_size(_: &ChordTicket, _: Option<&Infallible>) -> usize {
        NodeHandle::WIRE_SIZE + 6
    }

    fn reply_size(reply: &LookupResult) -> usize {
        NodeHandle::WIRE_SIZE * (1 + reply.successors.len())
    }

    /// One slot for the predecessor pointer, set or not.
    fn predecessor_slots(_: &[NodeHandle]) -> usize {
        1
    }

    fn seal(_: &ChordTicket, answer: LookupResult) -> LookupResult {
        answer
    }

    /// The transitive reply short-cuts to the initiator.
    fn reply_to(ticket: &ChordTicket, from: Addr) -> Addr {
        if ticket.mode == LookupMode::Transitive {
            ticket.origin.addr
        } else {
            from
        }
    }

    fn open(&self, reply: LookupResult) -> Option<LookupResult> {
        Some(reply)
    }

    /// The node's next sequence number.
    fn mint(&mut self, me: Addr, _: &mut OverlayCtx<'_, Self>) -> LookupId {
        let seq = self.next_seq;
        self.next_seq += 1;
        LookupId { origin: me, seq }
    }

    fn op(lid: &LookupId) -> u64 {
        lid.seq
    }

    fn started_here(lid: &LookupId, me: Addr) -> bool {
        lid.origin == me
    }

    fn answer(
        &mut self,
        ring: &RingCore,
        _: LookupId,
        key: Id,
        _: &ChordTicket,
        _: Option<Infallible>,
        _: Option<Addr>,
        _: u32,
        _: &mut OverlayCtx<'_, Self>,
    ) -> Option<LookupResult> {
        local_answer(ring, key)
    }

    fn forged(me: NodeHandle, _: &ChordTicket, _: bool) -> LookupResult {
        LookupResult { predecessor: me, successors: vec![me] }
    }

    fn deliver(
        &mut self,
        ring: &mut RingCore,
        lid: LookupId,
        p: Pending<ChordKind>,
        answer: Option<(LookupResult, u32)>,
        latency: SimDuration,
    ) -> Delivery<LookupOutcome> {
        match (p.kind, answer) {
            (ChordKind::App, answer) => {
                let (result, hops) = answer.map_or((None, 0), |(r, hops)| (Some(r), hops));
                Delivery::Outcome(LookupOutcome { seq: lid.seq, key: p.key, result, hops, latency })
            }
            (ChordKind::Join, Some((r, _))) => {
                let mode = self.cfg.maintenance;
                let trusted = ring.complete_join(mode, r.predecessor, &r.successors);
                self.predecessor = trusted.or(self.predecessor);
                Delivery::Joined
            }
            (ChordKind::Join, None) => Delivery::JoinFailed,
            (ChordKind::FingerRefresh(i), Some((r, _))) => {
                ring.set_finger(i, r.responsible());
                Delivery::Done
            }
            (ChordKind::FingerRefresh(_), None) => Delivery::Done,
        }
    }

    fn finger_kind(i: usize) -> ChordKind {
        ChordKind::FingerRefresh(i)
    }

    fn predecessors(&self) -> &[NodeHandle] {
        self.predecessor.as_slice()
    }

    fn forget_predecessor(&mut self, addr: Addr) -> bool {
        self.predecessor.take_if(|p| p.addr == addr).is_some()
    }

    /// Pings the predecessor, so a dead one gets cleared, then asks the
    /// first successor.
    fn stabilize(
        &mut self,
        ring: &mut RingCore,
        ctx: &mut OverlayCtx<'_, Self>,
        successor_round: impl FnOnce(&mut RingCore, &mut OverlayCtx<'_, Self>),
    ) {
        if let Some(p) = self.predecessor {
            let token = ring.fresh_token();
            self.pred_waiting = Some(token);
            self.ping(p.addr, ChordPredTimer::Ping { token }, ctx);
        }
        successor_round(ring, ctx);
    }

    fn notified(&mut self, ring: &mut RingCore, node: NodeHandle, ctx: &mut OverlayCtx<'_, Self>) {
        let mode = self.cfg.maintenance;
        match (ring.predecessor_decision(mode, self.predecessor, node), self.predecessor) {
            (RectifyDecision::Adopt, _) => self.set_predecessor(ring, node),
            (RectifyDecision::ProbePred, Some(incumbent)) => {
                // Rectify: the candidate is behind the incumbent. Probe the
                // incumbent and fall back to the candidate on timeout, so a
                // dead incumbent cannot strand the pointer.
                let token = ring.fresh_token();
                self.rectify_waiting = Some((token, node));
                self.ping(incumbent.addr, ChordPredTimer::Rectify { token }, ctx);
            }
            (RectifyDecision::Keep | RectifyDecision::ProbePred, _) => {}
        }
    }

    /// The leaver's predecessor counts as a notify.
    fn handed_predecessors(
        &mut self,
        _: &mut RingCore,
        handed: Vec<NodeHandle>,
    ) -> Option<NodeHandle> {
        handed.first().copied()
    }

    fn predecessor_timeout(&mut self, ring: &mut RingCore, timer: ChordPredTimer) {
        match timer {
            ChordPredTimer::Ping { token } => {
                if self.pred_waiting.take_if(|t| *t == token).is_some() {
                    self.predecessor = None;
                }
            }
            ChordPredTimer::Rectify { token } => {
                let Some(cand) = take_waiting(&mut self.rectify_waiting, token) else { return };
                // The incumbent never answered: purge it, adopt the candidate.
                if let Some(p) = self.predecessor {
                    let gone = self.forget_predecessor(p.addr);
                    ring.mark_dead(p.addr, gone);
                }
                if cand.id != ring.id() {
                    self.set_predecessor(ring, cand);
                }
            }
        }
    }

    fn pong(&mut self, token: u64) {
        self.pred_waiting.take_if(|t| *t == token);
        // An incumbent that answers the rectify probe is alive: keep it.
        take_waiting(&mut self.rectify_waiting, token);
    }

    /// A transitive middle hop: the reply will not pass back through it.
    fn released_on_ack(ticket: &ChordTicket) -> bool {
        ticket.mode == LookupMode::Transitive
    }
}

impl OverlayNode<ChordRules> {
    /// Creates the first node of a new ring.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn first(id: Id, cfg: ChordConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid Chord config: {e}");
        }
        let ring = RingCore::new(id, cfg.num_successors);
        let rules = ChordRules {
            cfg,
            predecessor: None,
            next_seq: 0,
            pred_waiting: None,
            rectify_waiting: None,
        };
        OverlayNode::new(ring, rules)
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

    /// Creates a node with pre-converged routing state (static rings);
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
        node.rules.predecessor = predecessor;
        node.ring = node.ring.with_state(successors, fingers);
        node
    }

    /// Injects an application lookup for `key`; returns its sequence
    /// number. Results are recorded in the metrics sink.
    pub fn start_lookup(&mut self, key: Id, ctx: &mut OverlayCtx<'_, ChordRules>) -> u64 {
        self.start_lookup_excluding(key, &[], ctx)
    }

    /// As [`start_lookup`](ChordNode::start_lookup), but the first hop
    /// avoids `avoid` if it can (the OpTable's suspected-misroute path).
    pub fn start_lookup_excluding(
        &mut self,
        key: Id,
        avoid: &[Addr],
        ctx: &mut OverlayCtx<'_, ChordRules>,
    ) -> u64 {
        self.start_app_lookup(key, None, avoid, ctx).seq
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
        let h = n.health(SimTime::ZERO);
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
        let r = local_answer(n.ring(), Id::new(150)).expect("answerable");
        assert_eq!(r.predecessor.id, Id::new(100));
        assert_eq!(r.responsible().id, Id::new(200));
        assert_eq!(r.successors.len(), 3);
        assert!(local_answer(n.ring(), Id::new(250)).is_none());
    }

    #[test]
    fn singleton_answers_everything() {
        assert!(RingCore::new(Id::new(7), 10).owns(Id::new(123456)));
        let n = ChordNode::first(Id::new(7), ChordConfig::default());
        let r = local_answer(n.ring(), Id::new(123456)).expect("singleton owns all");
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
        assert!(local_answer(n.ring(), Id::new(8)).is_none());
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
        n.mark_dead(Addr::from_raw(1));
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
