//! The lookup half of an overlay node, written once.
//!
//! Paper §4.5 changes a lookup's wire format, not the hop-by-hop protocol
//! beneath it: every hop acks what it receives, a hop that misses its ack
//! is marked dead and routed around, the reply retraces the path, and the
//! state of a lookup that never finishes is collected. [`LookupTable`] is
//! that protocol, the rule set a node runs beside [`RingCore`]'s ring
//! maintenance. It never builds a message: a send returns the [`Hop`] the
//! node builds one from.

use std::collections::HashMap;
use std::hash::Hash;

use verme_sim::{Addr, Ctx, ProtoEvent, SimTime};

use crate::id::Id;
use crate::node::keys;
use crate::ring_core::RingCore;

/// Hop timeouts a forwarding relay reroutes before it drops the lookup and
/// leaves rerouting to the hop upstream of it, which saw no ack either.
pub const MAX_HOP_ATTEMPTS: u32 = 4;

/// What the table needs to know about the kinds of lookup a node starts.
pub trait LookupKind: Copy {
    /// The `LookupStart` trace label.
    fn label(self) -> &'static str;

    /// True for application lookups, the ones the `lookup.*` outcome
    /// metrics count; joins and finger refreshes are maintenance.
    fn is_app(self) -> bool;

    /// The byte counter the lookup's traffic is charged to.
    fn bytes_key(self) -> &'static str {
        if self.is_app() {
            keys::BYTES_LOOKUP
        } else {
            keys::BYTES_MAINT
        }
    }
}

/// A lookup this node started, until it completes or fails.
pub struct Pending<K> {
    /// The key looked up.
    pub key: Id,
    /// Why the node looked it up.
    pub kind: K,
    /// When the lookup started.
    pub started: SimTime,
}

/// One send of a lookup, which the node builds its message from.
#[derive(Clone, Copy, Debug)]
pub struct Hop<C> {
    /// Where it goes.
    pub next: Addr,
    /// The attempt whose ack timer the node arms.
    pub attempt: u32,
    /// The key looked up.
    pub key: Id,
    /// What the node keeps to re-send the lookup, beyond the key.
    pub carry: C,
    /// The hop count `next` receives.
    pub hops: u32,
    /// The byte counter the send is charged to.
    pub bytes_key: &'static str,
}

impl<C> Hop<C> {
    /// The first send to `next`, attempt 0.
    pub fn new(next: Addr, key: Id, carry: C, hops: u32, bytes_key: &'static str) -> Self {
        Hop { next, attempt: 0, key, carry, hops, bytes_key }
    }
}

/// A lookup this node forwards — its own as well, with no `prev`.
struct Forward<C> {
    /// The last send.
    hop: Hop<C>,
    /// Upstream hop to relay the reply to (`None` at the initiator).
    prev: Option<Addr>,
    /// `hop.next` acked the lookup.
    acked: bool,
    /// Every hop the lookup was sent to.
    tried: Vec<Addr>,
}

/// What a hop timeout asks the node to do.
#[derive(Debug)]
pub enum HopTimeout<C> {
    /// The hop acked in time, the timer guards an older attempt, or the
    /// lookup is gone: nothing.
    Stale,
    /// No route or no budget left, and the forward state is gone. An
    /// `initiator` fails its lookup.
    GiveUp {
        /// The lookup is this node's own.
        initiator: bool,
    },
    /// Send the hop to its new `next`, whose id (for the trace) is the
    /// second field.
    Resend(Hop<C>, Id),
}

/// The lookups a node started (keyed by their trace op number) and the
/// lookups it forwards (keyed by lookup id `L`).
pub struct LookupTable<L, K, C> {
    pending: HashMap<u64, Pending<K>>,
    forwards: HashMap<L, Forward<C>>,
}

impl<L, K, C> Default for LookupTable<L, K, C> {
    fn default() -> Self {
        LookupTable { pending: HashMap::new(), forwards: HashMap::new() }
    }
}

impl<L: Copy + Eq + Hash, K: LookupKind, C: Copy> LookupTable<L, K, C> {
    /// Lookups this node started that are still in flight, and lookups it
    /// forwards — the two [`NodeHealth`](crate::NodeHealth) counts.
    pub fn counts(&self) -> (usize, usize) {
        (self.pending.len(), self.forwards.len())
    }

    /// True while lookup `op`, started here, is in flight.
    pub fn is_pending(&self, op: u64) -> bool {
        self.pending.contains_key(&op)
    }

    /// True while this node forwards `lid` — a re-delivery is a duplicate.
    pub fn is_forwarding(&self, lid: &L) -> bool {
        self.forwards.contains_key(lid)
    }

    /// Starts lookup `op` for `key` at the node `origin`. A root lookup (an
    /// application injection, the join on start) mints its own causal
    /// span; one begun inside a larger span (a finger refresh under a
    /// maintenance tick, a DHT operation) inherits it.
    pub fn begin<M, T>(&mut self, op: u64, key: Id, kind: K, origin: Id, ctx: &mut Ctx<'_, M, T>) {
        ctx.ensure_cause();
        ctx.emit(ProtoEvent::LookupStart {
            op,
            key: key.raw(),
            origin_id: origin.raw(),
            kind: kind.label(),
        });
        self.pending.insert(op, Pending { key, kind, started: ctx.now() });
    }

    /// Records that `lid`, received from `prev`, goes out as `hop`.
    pub fn forward(&mut self, lid: L, hop: Hop<C>, prev: Option<Addr>) {
        let tried = vec![hop.next];
        self.forwards.insert(lid, Forward { hop, prev, acked: false, tried });
    }

    /// The next hop acked `lid`. A relay whose reply will not pass back
    /// through it (`skipped`) releases the state at once.
    pub fn ack(&mut self, lid: &L, skipped: impl FnOnce(&C) -> bool) {
        if let Some(f) = self.forwards.get_mut(lid) {
            f.acked = true;
            if f.prev.is_some() && skipped(&f.hop.carry) {
                self.forwards.remove(lid);
            }
        }
    }

    /// A reply for `lid` passes: the state goes, and the reply continues to
    /// the upstream hop, charged to the returned counter (`None` at the
    /// initiator or when the state is already gone).
    pub fn reply_hop(&mut self, lid: &L) -> Option<(Addr, &'static str)> {
        let entry = self.forwards.remove(lid)?;
        Some((entry.prev?, entry.hop.bytes_key))
    }

    /// Forgets the forward state of `lid` (relay GC).
    pub fn release(&mut self, lid: &L) {
        self.forwards.remove(lid);
    }

    /// The ack for attempt `attempt` of `lid` (trace op `op`) did not come.
    /// The dead hop goes through `purge`; the lookup is then re-sent along
    /// the best untried route — unless `pinned` says it must never be
    /// re-sent, or it is relayed and has spent [`MAX_HOP_ATTEMPTS`]. The
    /// initiator has no upstream, so it reroutes for as long as untried
    /// routes remain; its lookup deadline bounds the total.
    #[allow(clippy::too_many_arguments)]
    pub fn hop_timeout<M, T>(
        &mut self,
        lid: L,
        op: u64,
        attempt: u32,
        ring: &mut RingCore,
        purge: impl FnOnce(&mut RingCore, Addr),
        pinned: impl FnOnce(&C) -> bool,
        ctx: &mut Ctx<'_, M, T>,
    ) -> HopTimeout<C> {
        let f = match self.forwards.get_mut(&lid) {
            Some(f) if !f.acked && f.hop.attempt == attempt => f,
            _ => return HopTimeout::Stale,
        };
        purge(ring, f.hop.next);
        ctx.metrics().count(keys::HOP_REROUTES, 1);
        let give_up = pinned(&f.hop.carry) || (f.prev.is_some() && attempt + 1 >= MAX_HOP_ATTEMPTS);
        let Some(next) = ring.route_excluding(f.hop.key, &f.tried).filter(|_| !give_up) else {
            let initiator = f.prev.is_none();
            self.forwards.remove(&lid);
            return HopTimeout::GiveUp { initiator };
        };
        f.hop.attempt += 1;
        f.hop.next = next.addr;
        f.tried.push(next.addr);
        ctx.emit(ProtoEvent::Reroute { op, to: next.addr });
        HopTimeout::Resend(f.hop, next.id)
    }

    /// Ends lookup `op` (forwarded as `lid`): completed after `hops` hops,
    /// or failed on `None`. Both entries go, `LookupEnd` is traced, an
    /// application lookup moves the outcome metrics, and the node gets the
    /// pending entry back to deliver the result its own way; `None` if the
    /// lookup already ended (a late reply, a deadline after completion).
    pub fn finish<M, T>(
        &mut self,
        op: u64,
        lid: &L,
        hops: Option<u32>,
        ctx: &mut Ctx<'_, M, T>,
    ) -> Option<Pending<K>> {
        let p = self.pending.remove(&op)?;
        self.forwards.remove(lid);
        ctx.emit(ProtoEvent::LookupEnd { op, ok: hops.is_some(), hops: hops.unwrap_or(0) });
        if p.kind.is_app() {
            match hops {
                Some(hops) => {
                    let latency = ctx.now().saturating_since(p.started);
                    let m = ctx.metrics();
                    m.record(keys::LOOKUP_LATENCY_MS, latency.as_millis_f64());
                    m.record(keys::LOOKUP_HOPS, hops as f64);
                    m.count(keys::LOOKUP_COMPLETED, 1);
                }
                None => ctx.metrics().count(keys::LOOKUP_FAILED, 1),
            }
        }
        Some(p)
    }
}
