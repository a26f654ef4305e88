//! The one DHT engine behind DHash and the three VerDi variants.
//!
//! The paper defines VerDi (§5.2–§5.3) as DHash with two changes: where
//! the replicas live, and how an operation reaches them. Everything else —
//! the operation lifecycle, serving, caching and coalescing, replication,
//! the repair plane, the graceful-leave hand-off — is the same protocol,
//! and is written once here as [`DhtEngine<V>`]. A [`Variant`] supplies
//! the rest: the overlay it wraps, how an attempt is routed and how a
//! lookup answer continues, which stored keys this node anchors and which
//! peers form its replica set, what happens between a store and its ack,
//! its extra wire cases, and its private state.
//!
//! Dispatch is static: each node type is a monomorphised
//! `DhtEngine<Variant>`, exported under its historical name as a type
//! alias ([`DhashNode`](crate::DhashNode) and friends).

use std::collections::BTreeSet;

use bytes::Bytes;
use rand::Rng;

use verme_chord::{Behaviour, Id, RingCore, RingNode};
use verme_sim::{Addr, Ctx, Node, ProfScope, Scope, SimDuration, Wire};

use crate::api::{keys, DhtConfig, DhtNode, OpKind, OpOutcome, OpReq, OpTable};
use crate::block::{Block, BlockStore};
use crate::serving::ServingPlane;

/// A variant's extra wire cases (cross-section copies, relay requests).
pub trait ExtMsg: Wire + Clone {
    /// The profiler scope handling this message is charged to.
    fn scope(&self) -> Scope;
}

/// The extension type of a variant with no extra wire cases.
#[derive(Clone, Debug)]
pub enum NoExt {}

impl Wire for NoExt {
    fn wire_size(&self) -> usize {
        match *self {}
    }
}

impl ExtMsg for NoExt {
    fn scope(&self) -> Scope {
        match *self {}
    }
}

/// A verified block this node just stored on a client's behalf, handed to
/// [`Placement::stored`] before the client is acknowledged.
#[derive(Clone, Debug)]
pub struct Stored {
    /// Requester's operation id, echoed in the ack.
    pub op: u64,
    /// Who to acknowledge.
    pub client: Addr,
    /// The block, stored under its own key.
    pub block: Block,
    /// Requester's retry attempt.
    pub attempt: u32,
    /// Read-repair write: the whole chain is background traffic.
    pub repair: bool,
}

/// A data-plane reply to an operation this node issued.
#[derive(Clone, Debug)]
pub enum DataReply {
    /// The fetched block, if the replica had it.
    Fetched(Option<Block>),
    /// Whether the store was accepted.
    Stored(bool),
}

/// What differs between DHash and the VerDi variants (paper §5.2–§5.3).
///
/// The implementing type is the variant's private per-node state; hooks
/// are associated functions over the whole engine so they can reach the
/// overlay, the shared state and their own state without borrow games.
/// Where the replicas live is the [`Placement`] half, which the two
/// dual-point variants share whole.
pub trait Variant: Placement<Self> + Clone + Default + Sized + 'static {
    /// The overlay node this variant wraps.
    type Overlay: Node + RingNode;
    /// Extra wire cases beyond the shared data plane.
    type Ext: ExtMsg;
    /// Bytes of a `RepairProbe` after the header, excluding the key list:
    /// the round plus whatever describes the prober's range.
    const PROBE_FIXED: usize;
    /// Bytes of a `RepairNeed` after the header, excluding the key lists.
    const NEED_FIXED: usize;

    // --- operation path ---------------------------------------------------

    /// Issues (or re-issues) the current attempt of pending operation
    /// `op` — which point it looks up, or which relay it asks — and arms
    /// the per-attempt timer.
    fn issue_attempt(eng: &mut DhtEngine<Self>, op: u64, ctx: &mut ECtx<'_, Self>);

    /// Turns overlay completions into data-plane actions (direct fetch or
    /// store, piggybacked payload, relay job). Called after every
    /// delegated overlay call.
    fn drain_overlay(eng: &mut DhtEngine<Self>, ctx: &mut ECtx<'_, Self>);

    /// The current attempt of `op` is over (the operation finished, or the
    /// attempt timed out): drop any per-attempt state.
    fn attempt_over(_eng: &mut DhtEngine<Self>, _op: u64) {}

    /// A `FetchReply`/`StoreAck` arrived. By default `op` is one of this
    /// node's own operations.
    fn on_data_reply(
        eng: &mut DhtEngine<Self>,
        op: u64,
        reply: DataReply,
        ctx: &mut ECtx<'_, Self>,
    ) {
        eng.op_reply(op, reply, ctx);
    }

    /// One of the variant's extra wire cases arrived.
    fn on_ext(eng: &mut DhtEngine<Self>, from: Addr, ext: Self::Ext, ctx: &mut ECtx<'_, Self>);

    /// Answers a get that arrived piggybacked on overlay lookup `lid`
    /// (the variant handed it to the engine's fetch queue with no client
    /// address).
    fn answer_piggybacked(
        _eng: &mut DhtEngine<Self>,
        _lid: u64,
        _value: Option<Block>,
        _ctx: &mut ECtx<'_, Self>,
    ) {
    }
}

/// Where variant `V` keeps a key's replicas (paper §5.1–§5.2), and what a
/// store does before its ack.
pub trait Placement<V: Variant> {
    /// Runs after a `Store` was verified, written and replicated, before
    /// the client is acknowledged. DHash acks at once; the dual-point
    /// variants first copy the block to the paired replica point (§5.3.1).
    fn stored(_eng: &mut DhtEngine<V>, s: Stored, ctx: &mut ECtx<'_, V>) {
        send_as(ctx, s.client, DhtMsg::StoreAck { op: s.op, ok: true }, s.repair);
    }

    /// True if this node anchors the replica set of `key`: it is the one
    /// that re-replicates, repairs and hands off the block.
    fn anchors(eng: &DhtEngine<V>, key: Id) -> bool;

    /// The nodes replicas can live on, nearest first: every successor for
    /// DHash, the in-section successors for VerDi.
    fn replica_candidates(eng: &DhtEngine<V>) -> Vec<Addr>;

    /// How many of the candidates hold a copy beside this node.
    fn replica_width(cfg: &DhtConfig) -> usize;

    /// Start of the range a repair probe invites orphan reports from. The
    /// VerDi variants send their own id: the range is their section.
    fn range_start(eng: &DhtEngine<V>) -> Id {
        eng.overlay.ring().id()
    }

    /// Responder side: true if `key` lies in the range the prober
    /// (`owner`, with range start `from`) answers for.
    fn in_probed_range(eng: &DhtEngine<V>, key: Id, from: Id, owner: Id) -> bool;

    /// Prober side: true if a reported orphan should be pulled back.
    fn reclaims(eng: &DhtEngine<V>, key: Id) -> bool {
        Self::anchors(eng, key)
    }

    /// Extra probing after the in-set probes of a repair round (the
    /// dual-point variants spot-check the paired replica point).
    fn repair_extra(_eng: &mut DhtEngine<V>, _anchored: &[Id], _ctx: &mut ECtx<'_, V>) {}

    /// Pushes a block a cross-section probe found missing. Only variants
    /// whose `repair_extra` probes cross-section ever see such replies.
    fn push_cross(_eng: &mut DhtEngine<V>, _to: Addr, _block: Block, _ctx: &mut ECtx<'_, V>) {}
}

/// The message type of variant `V`'s overlay.
pub type OMsg<V> = <<V as Variant>::Overlay as Node>::Msg;
/// The timer type of variant `V`'s overlay.
pub type OTimer<V> = <<V as Variant>::Overlay as Node>::Timer;
/// The handler context of a [`DhtEngine<V>`].
pub type ECtx<'a, V> = Ctx<'a, DhtMsg<V>, DhtTimer<OTimer<V>>>;

/// DHT wire messages: the overlay's own messages, the shared data and
/// repair plane, and the variant's extra cases.
#[derive(Clone)]
pub enum DhtMsg<V: Variant> {
    /// Encapsulated overlay message.
    Overlay(OMsg<V>),
    /// Direct block fetch from a replica.
    Fetch {
        /// Requester's operation (or relay-job) id, opaque to the replica.
        op: u64,
        /// Block key.
        key: Id,
    },
    /// Fetch response.
    FetchReply {
        /// Id from the request.
        op: u64,
        /// The block, if stored.
        value: Option<Block>,
    },
    /// Direct block store on the responsible node.
    Store {
        /// Requester's operation (or relay-job) id.
        op: u64,
        /// Block key.
        key: Id,
        /// The block; the receiver checks it against `key`.
        value: Block,
        /// Requester's retry attempt, so a dual-point responsible node
        /// rotates its cross-copy target across the replica list on retry.
        attempt: u32,
        /// True for internal read-repair writes: the whole store/ack chain
        /// is then charged to replication, keeping Figure-7 foreground
        /// counters clean.
        repair: bool,
    },
    /// Store acknowledgment (sent after [`Placement::stored`] ran).
    StoreAck {
        /// Id from the request.
        op: u64,
        /// Whether the store was accepted.
        ok: bool,
    },
    /// Background replication of a block to a replica-set peer.
    Replicate {
        /// Block key.
        key: Id,
        /// The block; the receiver checks it against `key`.
        value: Block,
    },
    /// Repair probe: a replica anchor tells a peer which keys it should
    /// hold. In-set probes also invite orphan reports from the prober's
    /// range; cross-section probes only diff.
    RepairProbe {
        /// Prober-local round number (stale replies are ignored for the
        /// in-flight gauge).
        round: u64,
        /// Start of the prober's range ([`Placement::range_start`]).
        from: Id,
        /// The prober's id.
        owner: Id,
        /// Keys the prober anchors and holds.
        keys: Vec<Id>,
        /// True when probing the opposite-type replica point.
        cross: bool,
    },
    /// Repair probe reply.
    RepairNeed {
        /// Round number echoed from the probe.
        round: u64,
        /// Probed keys this node does not hold (please push).
        missing: Vec<Id>,
        /// Keys this node holds inside the prober's range that were not in
        /// the probe — the prober lost (or never had) them.
        orphans: Vec<Id>,
        /// Echoed from the probe: push via cross copy, not replicate.
        cross: bool,
    },
    /// Pull request for orphaned blocks (answered with `Replicate`).
    RepairPull {
        /// Keys to send back.
        keys: Vec<Id>,
    },
    /// One of the variant's extra wire cases.
    Ext(V::Ext),
}

pub(crate) const HDR: usize = verme_chord::proto::HEADER_BYTES;

impl<V: Variant> Wire for DhtMsg<V> {
    fn wire_size(&self) -> usize {
        match self {
            DhtMsg::Overlay(m) => m.wire_size(),
            DhtMsg::Fetch { .. } => HDR + 8 + 16,
            DhtMsg::FetchReply { value, .. } => HDR + 8 + 1 + value.as_ref().map_or(0, |v| v.len()),
            DhtMsg::Store { value, .. } => HDR + 8 + 16 + value.len(),
            DhtMsg::StoreAck { .. } => HDR + 9,
            DhtMsg::Replicate { value, .. } => HDR + 16 + value.len(),
            DhtMsg::RepairProbe { keys, .. } => HDR + V::PROBE_FIXED + 16 * keys.len(),
            DhtMsg::RepairNeed { missing, orphans, .. } => {
                HDR + V::NEED_FIXED + 16 * (missing.len() + orphans.len())
            }
            DhtMsg::RepairPull { keys } => HDR + 16 * keys.len(),
            DhtMsg::Ext(x) => x.wire_size(),
        }
    }
}

/// DHT timers, generic over the wrapped overlay's timer type.
#[derive(Clone, Debug)]
pub enum DhtTimer<T> {
    /// Encapsulated overlay timer.
    Overlay(T),
    /// Operation deadline (hard per-request bound).
    OpDeadline {
        /// The guarded operation.
        op: u64,
    },
    /// One attempt's share of the deadline elapsed without an answer.
    AttemptTimeout {
        /// The guarded operation.
        op: u64,
        /// The attempt this timer guards (stale timers are ignored).
        attempt: u32,
    },
    /// Backoff elapsed; re-issue the operation.
    RetryOp {
        /// The operation to retry.
        op: u64,
    },
    /// Periodic background data stabilization.
    DataStabilize,
    /// Periodic repair-round check (probes only if the overlay
    /// neighborhood changed since the previous round).
    Repair,
    /// Short-fuse repair round scheduled right after a detected
    /// neighborhood change (join, crash, or graceful leave).
    RepairKick,
    /// A queued fetch finished its service slot; read the store and
    /// answer. Only armed when `fetch_service_time` is non-zero.
    Serve {
        /// Requester's id, echoed into the reply (an operation or
        /// relay-job id, or the overlay lookup a piggybacked get rode).
        id: u64,
        /// Block key to read at service completion.
        key: Id,
        /// Where to send the reply; `None` for a piggybacked get, whose
        /// answer rides lookup `id` back.
        client: Option<Addr>,
    },
}

/// Delay between a detected neighborhood change and the reactive repair
/// round, coalescing the flurry of changes a single join/leave causes.
const REPAIR_KICK_DELAY: SimDuration = SimDuration::from_secs(2);

/// Budget: blocks re-pushed (or pulled) per repair exchange. Missing
/// blocks beyond it wait for the next round, bounding the
/// `bytes.replication` burst a repair round can cause.
pub(crate) const REPAIR_BATCH: usize = 8;

/// A DHT node: the overlay node of variant `V` plus the block store, the
/// operation table, the serving plane and the repair plane.
///
/// Drive operations with [`DhtNode::start_get`]/[`DhtNode::start_put`] via
/// [`Runtime::invoke`](verme_sim::Runtime::invoke).
pub struct DhtEngine<V: Variant> {
    pub(crate) overlay: V::Overlay,
    pub(crate) cfg: DhtConfig,
    pub(crate) store: BlockStore,
    pub(crate) ops: OpTable,
    pub(crate) serving: ServingPlane,
    pub(crate) variant: V,
    /// Keys with a read-repair write in flight.
    repairing: BTreeSet<Id>,
    pub(crate) repair_round: u64,
    pub(crate) probes_outstanding: usize,
    last_epoch: u64,
    kick_armed: bool,
}

/// Sends foreground data-plane traffic (counted in Figure 7).
pub(crate) fn send_data<V: Variant>(ctx: &mut ECtx<'_, V>, to: Addr, msg: DhtMsg<V>) {
    ctx.metrics().count(keys::BYTES_DATA, msg.wire_size() as u64);
    ctx.send(to, msg);
}

/// Sends background replication/repair traffic (excluded from Figure 7).
pub(crate) fn send_background<V: Variant>(ctx: &mut ECtx<'_, V>, to: Addr, msg: DhtMsg<V>) {
    ctx.metrics().count(keys::BYTES_REPLICATION, msg.wire_size() as u64);
    ctx.send(to, msg);
}

/// Sends a background copy of `block` under its own key.
fn send_replica<V: Variant>(ctx: &mut ECtx<'_, V>, to: Addr, block: &Block) {
    send_background(ctx, to, DhtMsg::Replicate { key: block.key(), value: block.clone() });
}

/// Sends one link of an operation's chain: background for read-repair
/// writes, foreground otherwise.
pub(crate) fn send_as<V: Variant>(ctx: &mut ECtx<'_, V>, to: Addr, msg: DhtMsg<V>, repair: bool) {
    if repair {
        send_background(ctx, to, msg);
    } else {
        send_data(ctx, to, msg);
    }
}

impl<V: Variant> RingNode for DhtEngine<V> {
    fn ring(&self) -> &RingCore {
        self.overlay.ring()
    }

    fn set_behaviour(&mut self, behaviour: Box<dyn Behaviour>) {
        self.overlay.set_behaviour(behaviour);
    }
}

impl<V: Variant> DhtEngine<V> {
    /// Wraps an overlay node (converged or joining) with the DHT layer.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn new(overlay: V::Overlay, cfg: DhtConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid DHT config: {e}");
        }
        DhtEngine {
            overlay,
            cfg,
            store: BlockStore::new(),
            ops: OpTable::new(),
            serving: ServingPlane::new(),
            variant: V::default(),
            repairing: BTreeSet::new(),
            repair_round: 0,
            probes_outstanding: 0,
            last_epoch: 0,
            kick_armed: false,
        }
    }

    /// The underlying overlay node.
    pub fn overlay(&self) -> &V::Overlay {
        &self.overlay
    }

    /// Mutable access to the overlay (behaviour installation).
    pub fn overlay_mut(&mut self) -> &mut V::Overlay {
        &mut self.overlay
    }

    /// The local block store.
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Runs `f` on the overlay with a nested context whose messages and
    /// timers are wrapped on the way out.
    pub(crate) fn with_overlay<R>(
        &mut self,
        ctx: &mut ECtx<'_, V>,
        f: impl FnOnce(&mut V::Overlay, &mut Ctx<'_, OMsg<V>, OTimer<V>>) -> R,
    ) -> R {
        let overlay = &mut self.overlay;
        ctx.nested(|ictx| f(overlay, ictx), DhtMsg::Overlay, DhtTimer::Overlay)
    }

    // --- operation path ---------------------------------------------------

    /// One attempt failed: retry with backoff while the budget and the
    /// deadline allow, fail the operation otherwise.
    pub(crate) fn fail_attempt(&mut self, op: u64, ctx: &mut ECtx<'_, V>) {
        if self.ops.fail_attempt(op, &self.cfg, ctx) {
            self.finish_op(op, false, None, ctx);
        }
    }

    /// Arms the per-attempt timer (a slice of the deadline).
    pub(crate) fn arm_attempt_timer(&mut self, op: u64, attempt: u32, ctx: &mut ECtx<'_, V>) {
        if self.cfg.max_retries > 0 {
            ctx.set_timer(self.cfg.attempt_timeout(), DhtTimer::AttemptTimeout { op, attempt });
        }
    }

    /// The hops `op` refuses to route through; with suspicion tracking on,
    /// also records the first hop a lookup for `point` will take.
    pub(crate) fn route_avoiding(&mut self, op: u64, point: Id) -> Vec<Addr> {
        if !self.cfg.hop_suspicion {
            return Vec::new();
        }
        let avoid = self.ops.avoid(op).to_vec();
        let hop = self.overlay.ring().route_first_hop_excluding(point, &avoid).map(|h| h.addr);
        self.ops.note_first_hop(op, hop);
        avoid
    }

    /// Direct-fetch variants: a first get attempt with a fresh memoized
    /// replica address skips the overlay lookup and fetches directly (the
    /// attempt timer still guards the fetch); a retry never trusts the
    /// memo — the block or the ring moved — and drops it. Returns true if
    /// the attempt was issued from the memo.
    pub(crate) fn issue_from_memo(&mut self, op: u64, ctx: &mut ECtx<'_, V>) -> bool {
        let Some(p) = self.ops.get(op) else {
            return false;
        };
        let (key, attempt) = (p.key, p.attempt);
        if !self.cfg.memo_enabled || p.req.kind() != OpKind::Get {
            return false;
        }
        if attempt > 0 {
            self.serving.memo_invalidate(key);
            return false;
        }
        let Some(addr) = self.serving.memo_get(key, ctx.now()) else {
            return false;
        };
        ctx.metrics().count(keys::LOOKUP_MEMO_HITS, 1);
        self.arm_attempt_timer(op, attempt, ctx);
        send_data(ctx, addr, DhtMsg::Fetch { op, key });
        true
    }

    /// Sends pending operation `op` straight to `target`: a fetch for a
    /// get, a store for a put.
    pub(crate) fn send_direct(&mut self, op: u64, target: Addr, ctx: &mut ECtx<'_, V>) {
        let Some(p) = self.ops.get(op) else {
            return;
        };
        let (key, attempt, repair) = (p.key, p.attempt, p.repair);
        let msg = match &p.req {
            OpReq::Get => DhtMsg::Fetch { op, key },
            OpReq::Put(block) => DhtMsg::Store { op, key, value: block.clone(), attempt, repair },
        };
        send_as(ctx, target, msg, repair);
    }

    /// Applies a data-plane reply to this node's own operation `op`,
    /// failing the attempt if the reply was negative.
    pub(crate) fn op_reply(&mut self, op: u64, reply: DataReply, ctx: &mut ECtx<'_, V>) {
        if !self.accept_reply(op, reply, ctx) {
            self.fail_attempt(op, ctx);
        }
    }

    /// Applies a data-plane reply to pending operation `op`: a verified
    /// block or a positive ack completes it. Returns false if the reply was
    /// negative — the caller then fails the attempt its own way. A
    /// successful get that needed failover also starts a read-repair.
    pub(crate) fn accept_reply(
        &mut self,
        op: u64,
        reply: DataReply,
        ctx: &mut ECtx<'_, V>,
    ) -> bool {
        let value = match reply {
            DataReply::Stored(ok) => {
                if ok {
                    self.finish_op(op, true, None, ctx);
                }
                return ok;
            }
            DataReply::Fetched(value) => value,
        };
        let Some(p) = self.ops.get(op) else {
            return true;
        };
        let (key, attempt) = (p.key, p.attempt);
        match value {
            Some(block) if block.verifies(key) => {
                // Only a get that needed failover keeps a second handle, for
                // the re-store below.
                let spare = (attempt > 0 && self.cfg.repair_enabled).then(|| block.clone());
                self.finish_op(op, true, Some(block), ctx);
                if let Some(block) = spare.filter(|_| !self.repairing.contains(&key)) {
                    // The fetch needed failover, so the first-line replica
                    // set is incomplete: re-store the block through the
                    // variant's normal put path, as background traffic with
                    // the OpTable's retry/backoff (targeted read-repair).
                    self.repairing.insert(key);
                    let rop = self.ops.start(OpReq::Put(block), key, true, &self.cfg, ctx);
                    V::issue_attempt(self, rop, ctx);
                }
                true
            }
            _ => {
                // The replica lacked (or corrupted) the block; the caller
                // retries end to end — repair may have moved it meanwhile.
                // With defenses armed, a verification failure after a
                // completed lookup is a suspected hijack: the routing layer
                // named a responsible node that cannot prove it.
                if self.cfg.hop_suspicion {
                    ctx.metrics().count(keys::LOOKUPS_HIJACKED, 1);
                }
                false
            }
        }
    }

    /// Completes an operation, clears read-repair bookkeeping, settles
    /// coalesced waiters with the leader's result, and fills the cache.
    pub(crate) fn finish_op(
        &mut self,
        op: u64,
        ok: bool,
        block: Option<Block>,
        ctx: &mut ECtx<'_, V>,
    ) {
        V::attempt_over(self, op);
        let value = block.as_ref().map(|b| b.value().clone());
        if let Some(f) = self.ops.finish(op, ok, value, ctx) {
            if f.repair {
                self.repairing.remove(&f.key);
            }
            if f.kind == OpKind::Get && !f.repair {
                if self.cfg.coalesce_gets {
                    // Every parked get observes the leader's outcome —
                    // success, deadline, or retry exhaustion alike — so
                    // no waiter is ever lost.
                    for w in self.serving.finish_leader(f.key, op) {
                        self.finish_op(w, ok, block.clone(), ctx);
                    }
                }
                if self.cfg.cache_enabled && ok {
                    if let Some(block) = block {
                        self.serving.cache_fill(block, self.cfg.cache_capacity);
                    }
                }
            }
        }
    }

    // --- serve path -------------------------------------------------------

    /// Serves a fetch of `key`: at once, or — with a non-zero
    /// `fetch_service_time` — after every earlier fetch has been served
    /// (FIFO service queue). The store is read at service completion, not
    /// admission.
    pub(crate) fn serve_fetch(
        &mut self,
        id: u64,
        key: Id,
        client: Option<Addr>,
        ctx: &mut ECtx<'_, V>,
    ) {
        if self.cfg.fetch_service_time.is_zero() {
            self.answer_fetch(id, key, client, ctx);
        } else {
            let delay = self.serving.enqueue_service(ctx.now(), self.cfg.fetch_service_time);
            ctx.set_timer(delay, DhtTimer::Serve { id, key, client });
        }
    }

    fn answer_fetch(&mut self, id: u64, key: Id, client: Option<Addr>, ctx: &mut ECtx<'_, V>) {
        let value = self.store.get(key).cloned();
        match client {
            Some(client) => send_data(ctx, client, DhtMsg::FetchReply { op: id, value }),
            None => V::answer_piggybacked(self, id, value, ctx),
        }
    }

    /// Verifies a block that arrived under `key` and writes it to the
    /// store, dropping any cached copy: the block moved underneath the
    /// cache. Returns false (and stores nothing) if the block's contents do
    /// not hash to `key`.
    pub(crate) fn accept_block(&mut self, key: Id, block: &Block, ctx: &mut ECtx<'_, V>) -> bool {
        let ok = block.verifies(key);
        if ok {
            self.store.put(block.clone());
            self.invalidate_cached(key, ctx);
        }
        ok
    }

    /// Drops a block from the hot cache after it moved underneath us
    /// (repair push, replication, cross copy, or an incoming store).
    fn invalidate_cached(&mut self, key: Id, ctx: &mut ECtx<'_, V>) {
        if self.cfg.cache_enabled && self.serving.cache_invalidate(key) {
            ctx.metrics().count(keys::CACHE_INVALIDATIONS, 1);
        }
    }

    // --- replication and repair -------------------------------------------

    /// The peers holding this node's anchored blocks beside itself.
    fn replica_peers(&self) -> Vec<Addr> {
        let mut peers = V::replica_candidates(self);
        peers.truncate(V::replica_width(&self.cfg));
        peers
    }

    /// Copies `block` to the replica peers (background traffic).
    pub(crate) fn replicate(&self, block: &Block, ctx: &mut ECtx<'_, V>) {
        for addr in self.replica_peers() {
            send_replica(ctx, addr, block);
        }
    }

    /// The stored blocks this node anchors, in key order.
    fn anchored_blocks(&self) -> impl Iterator<Item = &Block> {
        self.store.iter().filter(|b| V::anchors(self, b.key()))
    }

    /// Arms a short-fuse repair round if the overlay neighborhood changed
    /// since the last round. Called after every overlay interaction.
    fn maybe_kick_repair(&mut self, ctx: &mut ECtx<'_, V>) {
        if self.cfg.repair_enabled
            && !self.kick_armed
            && self.overlay.ring().neighbor_epoch() != self.last_epoch
        {
            self.kick_armed = true;
            ctx.set_timer(REPAIR_KICK_DELAY, DhtTimer::RepairKick);
        }
    }

    /// Runs one repair round: diffs the anchored blocks against the
    /// current replica peers (telling them the prober's range, so they can
    /// report orphans), then lets the variant probe further. No-op when
    /// the neighborhood is unchanged — a quiet ring sends no repair
    /// traffic.
    fn run_repair_round(&mut self, ctx: &mut ECtx<'_, V>) {
        let epoch = self.overlay.ring().neighbor_epoch();
        if epoch == self.last_epoch && self.probes_outstanding == 0 {
            return;
        }
        // An unchanged epoch with probes still unanswered means the last
        // round lost a probe to a stale-dead target (a lookup can resolve
        // to a node the responder's section has not purged yet). Re-probe
        // until a full round completes cleanly; on a fault-free ring the
        // epoch never moves and no probe is ever sent, so this retry path
        // stays inert.
        self.last_epoch = epoch;
        ctx.begin_cause();
        ctx.metrics().count(keys::REPAIR_ROUNDS, 1);
        self.repair_round += 1;
        let round = self.repair_round;
        let (from, owner) = (V::range_start(self), self.overlay.ring().id());
        let anchored: Vec<Id> = self.anchored_blocks().map(Block::key).collect();
        let targets = self.replica_peers();
        self.probes_outstanding = targets.len();
        for addr in targets {
            let keys = anchored.clone();
            let msg = DhtMsg::RepairProbe { round, from, owner, keys, cross: false };
            send_background(ctx, addr, msg);
        }
        V::repair_extra(self, &anchored, ctx);
    }

    /// Handles a probe reply: pushes the blocks the responder lacks
    /// (via cross copy for paired-section targets) and pulls back orphans
    /// we should anchor but lost.
    fn handle_repair_need(
        &mut self,
        responder: Addr,
        round: u64,
        cross: bool,
        missing: Vec<Id>,
        orphans: Vec<Id>,
        ctx: &mut ECtx<'_, V>,
    ) {
        if round == self.repair_round {
            self.probes_outstanding = self.probes_outstanding.saturating_sub(1);
        }
        self.push_blocks(responder, missing, cross, ctx);
        let pulls: Vec<Id> = orphans
            .into_iter()
            .filter(|k| !self.store.contains(*k) && V::reclaims(self, *k))
            .take(REPAIR_BATCH)
            .collect();
        if !pulls.is_empty() {
            send_background(ctx, responder, DhtMsg::RepairPull { keys: pulls });
        }
    }

    /// Re-replicates to `to` up to [`REPAIR_BATCH`] of `wanted` that this
    /// node holds.
    fn push_blocks(&mut self, to: Addr, wanted: Vec<Id>, cross: bool, ctx: &mut ECtx<'_, V>) {
        let mut pushed = 0usize;
        for key in wanted {
            if pushed >= REPAIR_BATCH {
                break;
            }
            let Some(block) = self.store.get(key).cloned() else {
                continue;
            };
            if cross {
                V::push_cross(self, to, block, ctx);
            } else {
                send_replica(ctx, to, &block);
            }
            ctx.metrics().count(keys::REPAIR_PUSHED, 1);
            pushed += 1;
        }
    }
}

impl<V: Variant> DhtNode for DhtEngine<V> {
    fn start_put(&mut self, value: Bytes, ctx: &mut ECtx<'_, V>) -> u64 {
        let block = Block::new(value);
        let key = block.key();
        let op = self.ops.start(OpReq::Put(block), key, false, &self.cfg, ctx);
        V::issue_attempt(self, op, ctx);
        op
    }

    fn start_get(&mut self, key: Id, ctx: &mut ECtx<'_, V>) -> u64 {
        let op = self.ops.start(OpReq::Get, key, false, &self.cfg, ctx);
        if self.cfg.cache_enabled {
            if let Some(v) = self.serving.cache_lookup(key) {
                // Content addressing guarantees the value is the value;
                // answer locally, with no lookup, fetch or relay. The
                // already-armed deadline timer finds the op gone and
                // no-ops.
                ctx.metrics().count(keys::CACHE_HITS, 1);
                self.finish_op(op, true, Some(v), ctx);
                return op;
            }
            ctx.metrics().count(keys::CACHE_MISSES, 1);
        }
        if self.cfg.coalesce_gets {
            if let Some(leader) = self.serving.leader_for(key) {
                // Park behind the in-flight get: exactly one upstream
                // request is issued for the key.
                ctx.metrics().count(keys::GETS_COALESCED, 1);
                self.serving.add_waiter(leader, op);
                return op;
            }
            self.serving.set_leader(key, op);
        }
        V::issue_attempt(self, op, ctx);
        op
    }

    fn take_op_outcomes(&mut self) -> Vec<OpOutcome> {
        self.ops.take_outcomes()
    }

    fn stored_blocks(&self) -> usize {
        self.store.len()
    }

    fn store(&self) -> &BlockStore {
        &self.store
    }

    fn repair_inflight(&self) -> usize {
        self.probes_outstanding + self.ops.repairs_pending()
    }
}

impl<V: Variant> Node for DhtEngine<V> {
    type Msg = DhtMsg<V>;
    type Timer = DhtTimer<OTimer<V>>;

    fn on_start(&mut self, ctx: &mut ECtx<'_, V>) {
        self.with_overlay(ctx, |overlay, ictx| overlay.on_start(ictx));
        let phase_ns = self.cfg.data_stabilize_interval.as_nanos().max(1);
        let phase = SimDuration::from_nanos(ctx.rng().gen_range(0..phase_ns));
        ctx.set_timer(phase, DhtTimer::DataStabilize);
        if self.cfg.repair_enabled {
            // Deliberately no random phase: the repair timer must not
            // consume RNG draws, so a repair-enabled fault-free run stays
            // byte-identical to a repair-disabled one.
            ctx.set_timer(self.cfg.repair_interval, DhtTimer::Repair);
        }
        self.last_epoch = self.overlay.ring().neighbor_epoch();
    }

    fn on_message(&mut self, from: Addr, msg: DhtMsg<V>, ctx: &mut ECtx<'_, V>) {
        // Overlay traffic gets no span here: the nested overlay handler
        // enters its own chord.* scopes.
        let _span = match &msg {
            DhtMsg::Overlay(_) => None,
            DhtMsg::Fetch { .. } | DhtMsg::Store { .. } | DhtMsg::Replicate { .. } => {
                Some(ProfScope::enter(Scope::DhtServe))
            }
            DhtMsg::RepairProbe { .. } | DhtMsg::RepairNeed { .. } | DhtMsg::RepairPull { .. } => {
                Some(ProfScope::enter(Scope::DhtRepair))
            }
            DhtMsg::FetchReply { .. } | DhtMsg::StoreAck { .. } => {
                Some(ProfScope::enter(Scope::DhtOp))
            }
            DhtMsg::Ext(x) => Some(ProfScope::enter(x.scope())),
        };
        match msg {
            DhtMsg::Overlay(m) => {
                self.with_overlay(ctx, |overlay, ictx| overlay.on_message(from, m, ictx));
                V::drain_overlay(self, ctx);
                self.maybe_kick_repair(ctx);
            }
            DhtMsg::Fetch { op, key } => self.serve_fetch(op, key, Some(from), ctx),
            DhtMsg::FetchReply { op, value } => {
                V::on_data_reply(self, op, DataReply::Fetched(value), ctx);
            }
            DhtMsg::Store { op, key, value, attempt, repair } => {
                if self.accept_block(key, &value, ctx) {
                    self.replicate(&value, ctx);
                    let stored = Stored { op, client: from, block: value, attempt, repair };
                    V::stored(self, stored, ctx);
                } else {
                    send_as(ctx, from, DhtMsg::StoreAck { op, ok: false }, repair);
                }
            }
            DhtMsg::StoreAck { op, ok } => V::on_data_reply(self, op, DataReply::Stored(ok), ctx),
            DhtMsg::Replicate { key, value } => {
                self.accept_block(key, &value, ctx);
            }
            DhtMsg::RepairProbe { round, from: start, owner, keys: probed, cross } => {
                // Report the probed keys we lack, plus (for in-set probes)
                // any orphans: keys we hold inside the prober's range that
                // it did not list — it lost them, or just joined.
                let listed: BTreeSet<Id> = probed.iter().copied().collect();
                let missing: Vec<Id> =
                    probed.into_iter().filter(|k| !self.store.contains(*k)).collect();
                let orphans: Vec<Id> = if cross {
                    Vec::new()
                } else {
                    self.store
                        .iter()
                        .map(Block::key)
                        .filter(|k| {
                            V::in_probed_range(self, *k, start, owner) && !listed.contains(k)
                        })
                        .take(REPAIR_BATCH)
                        .collect()
                };
                // Always answer — an empty reply still drains the prober's
                // in-flight gauge.
                send_background(ctx, from, DhtMsg::RepairNeed { round, missing, orphans, cross });
            }
            DhtMsg::RepairNeed { round, missing, orphans, cross } => {
                self.handle_repair_need(from, round, cross, missing, orphans, ctx);
            }
            DhtMsg::RepairPull { keys: pulled } => self.push_blocks(from, pulled, false, ctx),
            DhtMsg::Ext(x) => V::on_ext(self, from, x, ctx),
        }
    }

    fn on_shutdown(&mut self, ctx: &mut ECtx<'_, V>) {
        if self.cfg.repair_enabled {
            // Hinted handoff (graceful departures only): this node's copies
            // die with it, so push every block it anchors to its heir — the
            // first replica candidate *outside* the current replica window,
            // which enters the set once we are gone. The current replicas
            // already hold their copies; this keeps the set at full
            // strength without a detection round-trip. Fire-and-forget (the
            // node is dead before any reply could arrive), and all of it
            // background replication, never Figure-7 foreground traffic.
            let candidates = V::replica_candidates(self);
            let heir = candidates.get(V::replica_width(&self.cfg)).or(candidates.last()).copied();
            if let Some(heir) = heir {
                ctx.begin_cause();
                for block in self.anchored_blocks() {
                    ctx.metrics().count(keys::HANDOFF_BLOCKS, 1);
                    send_replica(ctx, heir, block);
                }
            }
        }
        self.with_overlay(ctx, |overlay, ictx| overlay.on_shutdown(ictx));
    }

    fn on_timer(&mut self, timer: Self::Timer, ctx: &mut ECtx<'_, V>) {
        let _span = match &timer {
            DhtTimer::Overlay(_) => None,
            DhtTimer::DataStabilize | DhtTimer::Repair | DhtTimer::RepairKick => {
                Some(ProfScope::enter(Scope::DhtRepair))
            }
            DhtTimer::Serve { .. } => Some(ProfScope::enter(Scope::DhtServe)),
            _ => Some(ProfScope::enter(Scope::DhtOp)),
        };
        match timer {
            DhtTimer::Overlay(t) => {
                self.with_overlay(ctx, |overlay, ictx| overlay.on_timer(t, ictx));
                V::drain_overlay(self, ctx);
                self.maybe_kick_repair(ctx);
            }
            DhtTimer::OpDeadline { op } => self.finish_op(op, false, None, ctx),
            DhtTimer::AttemptTimeout { op, attempt } => {
                if self.ops.attempt_matches(op, attempt) {
                    V::attempt_over(self, op);
                    self.fail_attempt(op, ctx);
                }
            }
            DhtTimer::RetryOp { op } => V::issue_attempt(self, op, ctx),
            DhtTimer::DataStabilize => {
                // Each periodic round is its own causal span.
                ctx.begin_cause();
                // Re-replicate the blocks we anchor, so churn does not
                // erode the replication level. Only the anchor does this:
                // if every holder pushed copies to *its own* peers, a block
                // would creep across the whole ring over time.
                let peers = self.replica_peers();
                for block in self.anchored_blocks() {
                    for &addr in &peers {
                        send_replica(ctx, addr, block);
                    }
                }
                ctx.set_timer(self.cfg.data_stabilize_interval, DhtTimer::DataStabilize);
            }
            DhtTimer::Repair => {
                self.run_repair_round(ctx);
                ctx.set_timer(self.cfg.repair_interval, DhtTimer::Repair);
            }
            DhtTimer::RepairKick => {
                self.kick_armed = false;
                self.run_repair_round(ctx);
            }
            DhtTimer::Serve { id, key, client } => self.answer_fetch(id, key, client, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;

    use verme_chord::{ChordConfig, Id, NodeHandle, StaticRing};
    use verme_core::{SectionLayout, VermeConfig, VermeStaticRing};
    use verme_crypto::CertificateAuthority;
    use verme_sim::runtime::UniformLatency;
    use verme_sim::{Addr, HostId, Runtime, SeedSource, SimDuration};

    use super::*;
    use crate::block::CONTENT_HASHES;
    use crate::{Dhash, Fast};

    const N: usize = 48;
    const PUTS: usize = 6;
    const GETS: usize = 18;

    type Ring<V> = (Runtime<DhtEngine<V>, UniformLatency>, Vec<Addr>);

    fn net() -> UniformLatency {
        UniformLatency::new(N, SimDuration::from_millis(20))
    }

    fn dhash_ring(seed: u64) -> Ring<Dhash> {
        let mut rng = SeedSource::new(seed).stream("ids");
        let handles = (0..N)
            .map(|i| NodeHandle::new(Id::random(&mut rng), Addr::from_raw(i as u64 + 1)))
            .collect();
        let ring = StaticRing::new(handles);
        let mut rt = Runtime::new(net(), seed);
        // Spawn in address order so each node gets the address its handle names.
        let mut order: Vec<usize> = (0..N).collect();
        order.sort_unstable_by_key(|&i| ring.node(i).addr.raw());
        let addrs = order
            .into_iter()
            .map(|i| {
                let overlay = ring.build_node(i, ChordConfig::default());
                let host = HostId(ring.node(i).addr.raw() as usize - 1);
                let addr = rt.spawn(host, DhtEngine::new(overlay, DhtConfig::default()));
                assert_eq!(addr, ring.node(i).addr);
                addr
            })
            .collect();
        (rt, addrs)
    }

    fn fast_ring(seed: u64) -> Ring<Fast> {
        let layout = SectionLayout::with_sections(4, 2);
        let ring = VermeStaticRing::generate(layout, N, seed);
        let mut ca = CertificateAuthority::new(seed);
        let mut rt = Runtime::new(net(), seed);
        let addrs = (0..N)
            .map(|i| {
                let overlay = ring.build_node(i, VermeConfig::new(layout), &mut ca);
                rt.spawn(HostId(i), DhtEngine::new(overlay, DhtConfig::default()))
            })
            .collect();
        (rt, addrs)
    }

    /// Content hashes computed while `PUTS` blocks are written, fetched
    /// `GETS` times (no cache, no memo: every get travels) and pushed to
    /// their replicas by two data-stabilization rounds.
    fn hashes_of_a_busy_ring<V: Variant>((mut rt, addrs): Ring<V>) -> u64 {
        rt.run_until(rt.now() + SimDuration::from_secs(1));
        let before = CONTENT_HASHES.get();
        for i in 0..PUTS {
            let value = Bytes::from(vec![i as u8; 2048]);
            rt.invoke(addrs[i * 5], |n, ctx| n.start_put(value, ctx)).unwrap();
        }
        rt.run_until(rt.now() + SimDuration::from_secs(20));
        let puts: Vec<OpOutcome> =
            addrs.iter().flat_map(|&a| rt.node_mut(a).unwrap().take_op_outcomes()).collect();
        assert_eq!(puts.len(), PUTS);
        assert!(puts.iter().all(|o| o.ok), "every put lands");
        for g in 0..GETS {
            let key = puts[g % PUTS].key;
            rt.invoke(addrs[(7 * g + 3) % N], |n, ctx| n.start_get(key, ctx)).unwrap();
        }
        rt.run_until(rt.now() + SimDuration::from_secs(20));
        let gets: Vec<OpOutcome> =
            addrs.iter().flat_map(|&a| rt.node_mut(a).unwrap().take_op_outcomes()).collect();
        assert_eq!(gets.len(), GETS);
        assert!(gets.iter().all(|o| o.ok && o.value.as_ref().is_some_and(|v| v.len() == 2048)));
        // Two full stabilization periods: every anchor re-pushes its blocks
        // to every replica peer at least twice, and each copy is checked.
        let pushed = rt.metrics().counter(keys::BYTES_REPLICATION);
        rt.run_until(rt.now() + DhtConfig::default().data_stabilize_interval * 2);
        let copies = (rt.metrics().counter(keys::BYTES_REPLICATION) - pushed) / 2048;
        assert!(copies >= 2 * PUTS as u64, "stabilization pushed only {copies} copies");
        CONTENT_HASHES.get() - before
    }

    #[test]
    fn dhash_hashes_each_block_once() {
        assert_eq!(hashes_of_a_busy_ring(dhash_ring(21)), PUTS as u64);
    }

    #[test]
    fn fast_verdi_hashes_each_block_once_cross_copy_included() {
        assert_eq!(hashes_of_a_busy_ring(fast_ring(22)), PUTS as u64);
    }
}
