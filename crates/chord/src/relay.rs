//! The lookup half of an overlay node, written once.
//!
//! Paper §4.5 changes a lookup's wire format, not the hop-by-hop protocol
//! beneath it: every hop acks what it receives, a hop that misses its ack
//! is marked dead and routed around, the reply retraces the path, and the
//! state of a lookup that never finishes expires. [`LookupTable`] is
//! that protocol, the rule set a node runs beside [`RingCore`]'s ring
//! maintenance. It never builds a message: a send returns the [`Hop`] the
//! node builds one from.

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

/// A small table of in-flight state keyed by lookup id: the keys, each
/// beside its expiry, in one `Vec` searched by a linear scan, and the
/// values at the same index in another.
///
/// A node holds few lookups at once — at seed 42 the peak per-node length
/// is 17 in `ring_scale`, 15 in `lookup_churn`, 14 in `chaos_trials` and 8
/// in `dht_ops` and `dht_load` — so a probe scans a few cache lines of
/// keys where a hash map pays a hash, a control-group load and a bucket
/// load, and only a hit touches its value (a Verme forward entry is 176
/// bytes). An empty table holds no heap memory: the removal or expiry that
/// empties it frees both buffers, so the thousands of idle nodes of a large
/// ring keep no capacity left over from their busiest moment. `insert`
/// overwrites an existing key as `HashMap::insert` does, and `remove` swaps
/// the last entry into the hole, so entry order is arbitrary: nothing may
/// iterate the table in an order the run depends on.
///
/// An entry lives while `now < expiry` (`SimTime::MAX`: for ever); reads
/// treat an expired entry as absent, and every write's scan drops it. A
/// timer armed when a relay sets its entry, for the `2 × lookup_deadline`
/// the entry lives, pops at the expiry ahead of every event scheduled after
/// it; so the strict `<` (an event at exactly the expiry finds the entry
/// gone) answers as that timer for any event scheduled less than
/// `2 × lookup_deadline` before it is handled.
#[derive(Clone, Debug)]
pub struct InFlight<L, V> {
    keys: Vec<(L, SimTime)>,
    values: Vec<V>,
}

impl<L, V> Default for InFlight<L, V> {
    fn default() -> Self {
        InFlight { keys: Vec::new(), values: Vec::new() }
    }
}

impl<L: Eq, V> InFlight<L, V> {
    /// Number of entries live at `now`.
    pub fn len(&self, now: SimTime) -> usize {
        self.keys.iter().filter(|(_, expiry)| now < *expiry).count()
    }

    /// The entries the key and the value buffer have room for.
    pub fn capacity(&self) -> (usize, usize) {
        (self.keys.capacity(), self.values.capacity())
    }

    /// True if `key` has an entry live at `now`.
    pub fn contains_key(&self, key: &L, now: SimTime) -> bool {
        self.keys.iter().any(|(k, expiry)| k == key && now < *expiry)
    }

    /// Drops every entry expired at `now`; the index of `key`'s entry.
    fn sweep(&mut self, key: &L, now: SimTime) -> Option<usize> {
        // Backwards, so the entry a removal swaps in is one already kept.
        for i in (0..self.keys.len()).rev() {
            if now >= self.keys[i].1 {
                self.take(i);
            }
        }
        self.keys.iter().position(|(k, _)| k == key)
    }

    /// Swaps entry `i` out, freeing both buffers if that empties the table.
    fn take(&mut self, i: usize) -> V {
        self.keys.swap_remove(i);
        let value = self.values.swap_remove(i);
        if self.keys.is_empty() {
            *self = InFlight::default();
        }
        value
    }

    /// The entry of `key` live at `now`, to change in place.
    pub fn get_mut(&mut self, key: &L, now: SimTime) -> Option<&mut V> {
        let i = self.sweep(key, now)?;
        Some(&mut self.values[i])
    }

    /// Sets the entry of `key` to `value`, live until `expiry`, returning
    /// the live value it replaced.
    pub fn insert(&mut self, key: L, value: V, expiry: SimTime, now: SimTime) -> Option<V> {
        if let Some(i) = self.sweep(&key, now) {
            self.keys[i].1 = expiry;
            return Some(std::mem::replace(&mut self.values[i], value));
        }
        self.keys.push((key, expiry));
        self.values.push(value);
        None
    }

    /// Takes the entry of `key` live at `now` out of the table.
    pub fn remove(&mut self, key: &L, now: SimTime) -> Option<V> {
        let i = self.sweep(key, now)?;
        Some(self.take(i))
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
    /// The hops that missed their ack, each pushed by the hop timeout that
    /// routes around it. A lookup never rerouted allocates nothing here.
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
    pending: InFlight<u64, Pending<K>>,
    forwards: InFlight<L, Forward<C>>,
}

impl<L, K, C> Default for LookupTable<L, K, C> {
    fn default() -> Self {
        LookupTable { pending: InFlight::default(), forwards: InFlight::default() }
    }
}

impl<L: Copy + Eq, K: LookupKind, C: Copy> LookupTable<L, K, C> {
    /// Lookups this node started that are still in flight, and lookups it
    /// forwards at `now` — the two [`NodeHealth`](crate::NodeHealth) counts.
    pub fn counts(&self, now: SimTime) -> (usize, usize) {
        (self.pending.len(now), self.forwards.len(now))
    }

    /// True while lookup `op`, started here, is in flight.
    pub fn is_pending(&self, op: u64, now: SimTime) -> bool {
        self.pending.contains_key(&op, now)
    }

    /// True while this node forwards `lid` — a re-delivery is a duplicate.
    pub fn is_forwarding(&self, lid: &L, now: SimTime) -> bool {
        self.forwards.contains_key(lid, now)
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
        self.pending.insert(op, Pending { key, kind, started: ctx.now() }, SimTime::MAX, ctx.now());
    }

    /// Records that `lid` goes out as `hop`: a relay's `prev` is its upstream and expiry.
    pub fn forward(&mut self, lid: L, hop: Hop<C>, prev: Option<(Addr, SimTime)>, now: SimTime) {
        let f = Forward { hop, prev: prev.map(|p| p.0), acked: false, tried: Vec::new() };
        self.forwards.insert(lid, f, prev.map_or(SimTime::MAX, |p| p.1), now);
    }

    /// The next hop acked `lid`. A relay whose reply will not pass back
    /// through it (`skipped`) releases the state at once.
    pub fn ack(&mut self, lid: &L, now: SimTime, skipped: impl FnOnce(&C) -> bool) {
        if let Some(f) = self.forwards.get_mut(lid, now) {
            f.acked = true;
            if f.prev.is_some() && skipped(&f.hop.carry) {
                self.forwards.remove(lid, now);
            }
        }
    }

    /// A reply for `lid` passes: the state goes, and the reply continues to
    /// the upstream hop, charged to the returned counter (`None` at the
    /// initiator or when the state is gone or expired).
    pub fn reply_hop(&mut self, lid: &L, now: SimTime) -> Option<(Addr, &'static str)> {
        let entry = self.forwards.remove(lid, now)?;
        Some((entry.prev?, entry.hop.bytes_key))
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
        let f = match self.forwards.get_mut(&lid, ctx.now()) {
            Some(f) if !f.acked && f.hop.attempt == attempt => f,
            _ => return HopTimeout::Stale,
        };
        purge(ring, f.hop.next);
        ctx.metrics().count(keys::HOP_REROUTES, 1);
        let give_up = pinned(&f.hop.carry) || (f.prev.is_some() && attempt + 1 >= MAX_HOP_ATTEMPTS);
        f.tried.push(f.hop.next);
        let Some(next) = ring.route_excluding(f.hop.key, &f.tried).filter(|_| !give_up) else {
            let initiator = f.prev.is_none();
            self.forwards.remove(&lid, ctx.now());
            return HopTimeout::GiveUp { initiator };
        };
        f.hop.attempt += 1;
        f.hop.next = next.addr;
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
        let p = self.pending.remove(&op, ctx.now())?;
        self.forwards.remove(lid, ctx.now());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy)]
    struct App;

    impl LookupKind for App {
        fn label(self) -> &'static str {
            "app"
        }

        fn is_app(self) -> bool {
            true
        }
    }

    #[test]
    fn a_drained_table_keeps_no_buffers() {
        let mut table: InFlight<u64, [u64; 4]> = InFlight::default();
        let now = SimTime::ZERO;
        for k in 0..17 {
            table.insert(k, [k; 4], SimTime::MAX, now);
        }
        for k in (0..17).rev().step_by(2).chain((0..17).skip(1).step_by(2)) {
            assert_eq!(table.remove(&k, now), Some([k; 4]));
        }
        assert_eq!(table.len(now), 0);
        assert_eq!(table.capacity(), (0, 0));
        assert_eq!(table.remove(&3, now), None);
    }

    #[test]
    fn a_forward_that_is_acked_never_allocates_its_tried_list() {
        let mut table: LookupTable<u64, App, ()> = LookupTable::default();
        let hop = Hop::new(Addr::from_raw(2), Id::new(7), (), 1, keys::BYTES_LOOKUP);
        let (now, expiry) = (SimTime::ZERO, SimTime::from_nanos(1));
        table.forward(9, hop, Some((Addr::from_raw(1), expiry)), now);
        table.ack(&9, now, |_| false);
        let f = table.forwards.get_mut(&9, now).expect("a relay keeps its state until the reply");
        assert!(f.acked);
        assert_eq!(f.tried.capacity(), 0);
    }
}
