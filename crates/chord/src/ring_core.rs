//! The ring half of an overlay node, written once.
//!
//! Paper §4 builds Verme *on* Chord: the identifier layout, the finger
//! rule and the lookup differ; successor lists, stabilize/notify, failure
//! splicing and reseeding are Chord's, unchanged. [`RingCore`] is that
//! unchanged half — the routing state the one
//! [`OverlayNode`](crate::OverlayNode) embeds, and every maintenance rule
//! both overlays run, as plain methods over it. What the paper says
//! differs is each overlay's [`Rules`](crate::Rules): Chord's single
//! predecessor with its rectify probe and lookup modes, Verme's
//! predecessor list, certificate check and sealed replies.
//!
//! The core never builds a message. A rule that ends in a send returns
//! what the node needs to build it (the peer to probe, the token), and
//! rules that involve the predecessor side take the node's known
//! predecessors as a slice — one entry at most on Chord, the whole list
//! on Verme.

use rand::Rng;

use verme_sim::{Addr, Ctx, LatencyModel, Node, Runtime, SimDuration, Wire};

use crate::behaviour::{Behaviour, Honest, RouteAction};
use crate::id::Id;
use crate::maintain::{predecessor_decision, MaintenanceMode, RectifyDecision, RingStance};
use crate::node::{keys, NodeHealth};
use crate::ring::{closest_preceding_hop, FingerTable, NeighborList, NodeHandle};
use crate::static_ring::FingerRule;

/// Routing state and ring-maintenance rules shared by both overlays.
pub struct RingCore {
    /// Our identifier, and our address once spawned.
    me: NodeHandle,
    successors: NeighborList,
    fingers: FingerTable,
    bootstrap: Option<Addr>,
    joined: bool,
    next_token: u64,
    stab_waiting: Option<(u64, NodeHandle)>,
    /// True once the successor list has ever held an entry — separates a
    /// bootstrap singleton (may seed its list from a notify) from a node
    /// whose list was emptied by failures (must only reseed *forward*).
    ever_had_successor: bool,
    neighbor_epoch: u64,
    /// Routing policy. [`Honest`] by default; nodes gate every relay
    /// consultation on [`RingCore::is_byzantine`], so the default draws no
    /// randomness and changes no message flow.
    behaviour: Box<dyn Behaviour>,
}

/// Where a relay sends a lookup it does not answer itself
/// ([`RingCore::relay_step`]).
#[derive(Clone, Copy, Debug)]
pub enum Relay {
    /// Forward it to this hop.
    To(NodeHandle),
    /// Absorb it after the ack: upstream never reroutes, the initiator's
    /// deadline fires.
    Drop,
    /// Answer it with a forged result naming this node.
    Hijack,
}

/// A node that embeds a [`RingCore`]: both overlay nodes and the DHT
/// engine wrapped around either.
pub trait RingNode {
    /// The node's ring state.
    fn ring(&self) -> &RingCore;

    /// Replaces the node's routing policy (adversary injection). The
    /// default is [`Honest`].
    fn set_behaviour(&mut self, behaviour: Box<dyn Behaviour>);
}

/// True when every live, joined node's first successor is alive — the
/// "ring healed" predicate the fault runner polls after a kill burst.
pub fn ring_converged<N: Node + RingNode, L: LatencyModel>(rt: &Runtime<N, L>) -> bool {
    rt.alive_addrs().filter_map(|a| rt.node(a)).all(|n| {
        let ring = n.ring();
        !ring.joined || ring.successors.first().is_some_and(|s| rt.is_alive(s.addr))
    })
}

/// Sends `msg`, charging its wire size to the `bytes_key` counter.
pub fn send_counted<M: Wire, T>(
    ctx: &mut Ctx<'_, M, T>,
    to: Addr,
    msg: M,
    bytes_key: &'static str,
) {
    ctx.metrics().count(bytes_key, msg.wire_size() as u64);
    ctx.send(to, msg);
}

/// Clears a `(token, peer)` probe slot if it is waiting on `token`,
/// returning the peer; stale and unsolicited tokens leave it untouched.
pub fn take_waiting(slot: &mut Option<(u64, NodeHandle)>, token: u64) -> Option<NodeHandle> {
    slot.take_if(|(expect, _)| *expect == token).map(|(_, peer)| peer)
}

/// Rebuilds a neighbor list from the live first neighbor's advertisement
/// `(between?) · head · tail`, where `between` — the head's own nearest
/// neighbor on our side, or one that reached us while the round was open —
/// only counts if it really lies between us.
///
/// Legacy pools the three and re-sorts by circular distance: a dead entry
/// deep in the peer's tail can leapfrog to the head of this list, and the
/// two ring neighbors then feed it back to each other forever. Corrected
/// is Zave's ordered update, adopted positionally — stale tails are
/// flushed one slot per round instead of resorted back in.
///
/// A poisoning neighbor must not be able to *shrink* the list: rejecting
/// its rebound entries would otherwise flush the very knowledge the
/// binding check depends on, and the next poisoned advert — now naming
/// addresses we no longer know — would slip through. So when the advert
/// was caught lying (`poisoned`), the list is refilled from its own
/// previously vetted entries. Honest adverts never conflict, so clean
/// runs are untouched.
pub fn rebuild_list(
    old: &NeighborList,
    mode: MaintenanceMode,
    head: NodeHandle,
    between: Option<NodeHandle>,
    tail: &[NodeHandle],
    poisoned: bool,
) -> NeighborList {
    let between = between.filter(|p| old.is_between(p.id, head.id));
    let mut fresh = old.emptied();
    match mode {
        MaintenanceMode::Legacy => {
            fresh.integrate(head);
            fresh.integrate_all(&between);
            fresh.integrate_all(tail);
        }
        MaintenanceMode::Corrected => {
            let mut chain = Vec::with_capacity(tail.len() + 2);
            chain.extend(between);
            chain.push(head);
            chain.extend_from_slice(tail);
            fresh.adopt_chain(&chain);
        }
    }
    if poisoned {
        fresh.integrate_all(old.as_slice());
    }
    fresh
}

/// True if a joined node at `me` with first successor `s1` is `key`'s
/// predecessor: `key ∈ (me, s1]`, or the node knows no successor — a
/// singleton ring, which owns everything.
pub fn owns_arc(me: Id, s1: Option<Id>, key: Id) -> bool {
    s1.is_none_or(|s1| key.in_open_closed(me, s1))
}

/// The successor list a join ends with, and the predecessor it trusts at
/// once. The join lookup's key was the joiner's own id, so the answer's
/// successor list is the joiner's (or, degenerately, the lone answerer
/// itself). The legacy one-phase join also adopts the answerer as
/// predecessor; under the corrected protocol the predecessor side fills in
/// once the true predecessor's stabilization notifies the joiner (Zave's
/// two-phase join).
pub fn joined_list(
    old: &NeighborList,
    mode: MaintenanceMode,
    answerer: NodeHandle,
    successors: &[NodeHandle],
) -> (NeighborList, Option<NodeHandle>) {
    let mut fresh = old.emptied();
    fresh.integrate_all(successors);
    if fresh.is_empty() {
        fresh.integrate(answerer);
    }
    (fresh, (mode == MaintenanceMode::Legacy).then_some(answerer))
}

/// What a notify from `notifier` seeds the *emptied* successor list of
/// the node at `me` with, if anything. Legacy refills *backwards* from the
/// notifier — the wrapped state that partitions rings. Corrected reseeds
/// forward only, from the nearest `forward_finger` as stabilization does,
/// except that a true bootstrap singleton (`ever_seeded` false) learns its
/// first peer through the joiner's notify; otherwise the node stays wedged
/// rather than wrap backwards, and the finger reseed (or a fresh finger)
/// repairs forward.
pub fn refill_seed(
    mode: MaintenanceMode,
    me: Id,
    ever_seeded: bool,
    forward_finger: Option<NodeHandle>,
    notifier: NodeHandle,
) -> Option<NodeHandle> {
    if notifier.id == me {
        return None;
    }
    match mode {
        MaintenanceMode::Legacy => Some(notifier),
        MaintenanceMode::Corrected => forward_finger.or_else(|| (!ever_seeded).then_some(notifier)),
    }
}

impl RingCore {
    /// The ring state of a ring creator: joined, knowing nobody.
    ///
    /// # Panics
    ///
    /// Panics if `num_successors` is zero.
    pub fn new(id: Id, num_successors: usize) -> Self {
        RingCore {
            me: NodeHandle::new(id, Addr::NULL),
            successors: NeighborList::successors(id, num_successors),
            fingers: FingerTable::new(id),
            bootstrap: None,
            joined: true,
            next_token: 0,
            stab_waiting: None,
            ever_had_successor: false,
            neighbor_epoch: 0,
            behaviour: Box::new(Honest),
        }
    }

    /// Turns a fresh core into one that still has to join through
    /// `bootstrap`.
    pub fn joining(mut self, bootstrap: Addr) -> Self {
        self.bootstrap = Some(bootstrap);
        self.joined = false;
        self
    }

    /// Installs pre-converged routing state (static rings).
    ///
    /// # Panics
    ///
    /// Panics if a finger index is out of range.
    pub fn with_state(
        mut self,
        successors: &[NodeHandle],
        fingers: &[(usize, NodeHandle)],
    ) -> Self {
        self.successors.integrate_all(successors);
        self.note_seeded();
        for &(i, h) in fingers {
            self.fingers.set(i, Some(h));
        }
        self
    }

    /// This node's identifier.
    pub fn id(&self) -> Id {
        self.me.id
    }

    /// This node's handle (address populated once spawned).
    pub fn me(&self) -> NodeHandle {
        self.me
    }

    /// True once the node has joined the ring.
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// The address to join through, until the join completes.
    pub fn bootstrap(&self) -> Option<Addr> {
        self.bootstrap
    }

    /// The successor list, nearest first.
    pub fn successors(&self) -> &NeighborList {
        &self.successors
    }

    /// The finger table.
    pub fn fingers(&self) -> &FingerTable {
        &self.fingers
    }

    /// Sets or clears finger `i` (a finger-refresh lookup came back). An
    /// entry naming this node clears it: routing never takes it, and the
    /// static rings leave it unset.
    pub fn set_finger(&mut self, i: usize, handle: impl Into<Option<NodeHandle>>) {
        self.fingers.set(i, handle.into().filter(|h| h.id != self.me.id));
    }

    /// Monotone counter bumped whenever the node's replica-relevant
    /// neighborhood (successor list or predecessor side) actually changes.
    pub fn neighbor_epoch(&self) -> u64 {
        self.neighbor_epoch
    }

    /// Records a change of the node's predecessor side, which lives
    /// outside the core but moves the same epoch.
    pub fn bump_epoch(&mut self) {
        self.neighbor_epoch += 1;
    }

    /// The next probe token (never zero, never repeated).
    pub fn fresh_token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    /// This node's ring pointers for [`check_ring`](crate::check_ring).
    pub fn ring_stance(&self, predecessors: &[NodeHandle]) -> RingStance {
        RingStance {
            id: self.me.id.raw(),
            joined: self.joined,
            successors: self.successors.iter().map(|h| h.id.raw()).collect(),
            predecessors: predecessors.iter().map(|h| h.id.raw()).collect(),
        }
    }

    /// Samples the [`NodeHealth`] gauges; the node supplies the counts of
    /// what it keeps outside the core.
    pub fn health(&self, predecessors: usize, pending: usize, forwarding: usize) -> NodeHealth {
        NodeHealth {
            joined: self.joined,
            successors: self.successors.len(),
            predecessors,
            distinct_fingers: self.fingers.iter_distinct().count(),
            pending_lookups: pending,
            forwarding,
        }
    }

    fn distinct_peers(&self, handles: impl Iterator<Item = NodeHandle>) -> Vec<NodeHandle> {
        let mut out: Vec<NodeHandle> = Vec::new();
        for h in handles {
            if h.addr != self.me.addr && !out.iter().any(|o| o.addr == h.addr) {
                out.push(h);
            }
        }
        out
    }

    /// Every distinct peer the routing state names (successors, then the
    /// given predecessors, then fingers) — exactly the addresses a
    /// topological worm could harvest from the node's memory.
    pub fn known_peers(&self, predecessors: &[NodeHandle]) -> Vec<NodeHandle> {
        let lists = self.successors.iter().chain(predecessors).copied();
        self.distinct_peers(lists.chain(self.fingers.iter_distinct()))
    }

    /// Every distinct forward routing peer (fingers, then successors).
    pub fn route_candidates(&self) -> Vec<NodeHandle> {
        self.distinct_peers(self.fingers.iter_distinct().chain(self.successors.iter().copied()))
    }

    /// Replaces the routing policy (adversary injection).
    pub fn set_behaviour(&mut self, behaviour: Box<dyn Behaviour>) {
        self.behaviour = behaviour;
    }

    /// True when the node runs an adversarial routing policy.
    pub fn is_byzantine(&self) -> bool {
        self.behaviour.is_byzantine()
    }

    /// Where a lookup for `key` that this node relays goes: the honest
    /// greedy hop, unless the routing policy drops, diverts or hijacks it.
    /// A node with no route drops it too; the initiator's deadline fires.
    pub fn relay_step(&mut self, key: Id) -> Relay {
        match self.route_first_hop(key) {
            None => Relay::Drop,
            Some(next) if !self.is_byzantine() => Relay::To(next),
            Some(next) => match self.route_action(key, next, &self.route_candidates()) {
                RouteAction::Honest => Relay::To(next),
                RouteAction::Divert(h) => Relay::To(h),
                RouteAction::Drop => Relay::Drop,
                RouteAction::Hijack => Relay::Hijack,
            },
        }
    }

    /// Asks the routing policy what to do with a lookup for `key` whose
    /// honest next hop is `next`.
    pub fn route_action(
        &mut self,
        key: Id,
        next: NodeHandle,
        candidates: &[NodeHandle],
    ) -> RouteAction {
        self.behaviour.route(key, next, candidates)
    }

    /// Lets the routing policy rewrite the lists about to be advertised
    /// to a stabilizing neighbor — the poisoning channel: the asker
    /// rebuilds its own lists from the reply.
    pub fn advertise(
        &mut self,
        successors: &mut Vec<NodeHandle>,
        predecessors: &mut Vec<NodeHandle>,
    ) {
        self.behaviour.advertise(self.me, successors, predecessors);
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// True if this node is `key`'s predecessor and so answers lookups
    /// for it: joined, and [`owns_arc`].
    pub fn owns(&self, key: Id) -> bool {
        self.joined && owns_arc(self.me.id, self.successors.first().map(|s1| s1.id), key)
    }

    /// The greedy next hop toward `key`: the known node that most closely
    /// precedes it.
    pub fn route_first_hop(&self, key: Id) -> Option<NodeHandle> {
        closest_preceding_hop(self.me.id, &self.fingers, &self.successors, key)
    }

    /// As [`route_first_hop`](Self::route_first_hop), skipping `exclude`
    /// (suspected-misroute failover, disjoint redundant paths).
    pub fn route_first_hop_excluding(&self, key: Id, exclude: &[Addr]) -> Option<NodeHandle> {
        if exclude.is_empty() {
            self.route_first_hop(key)
        } else {
            self.route_excluding(key, exclude)
        }
    }

    /// The first hop of a lookup this node starts: avoids `avoid` if it
    /// can, but falls back to the unrestricted greedy hop rather than
    /// failing outright when the exclusion leaves no route.
    pub fn first_hop_avoiding(&self, key: Id, avoid: &[Addr]) -> Option<NodeHandle> {
        self.route_first_hop_excluding(key, avoid).or_else(|| self.route_first_hop(key))
    }

    /// The distinct finger or successor that most closely precedes `key`
    /// among those not in `exclude` (fingers first; the first of equals
    /// wins) — the reroute after a hop timed out.
    pub fn route_excluding(&self, key: Id, exclude: &[Addr]) -> Option<NodeHandle> {
        self.fingers
            .iter_distinct()
            .chain(self.successors.iter().copied())
            .filter(|h| !exclude.contains(&h.addr) && h.id.in_open_open(self.me.id, key))
            .fold(None, |best: Option<NodeHandle>, h| match best {
                Some(b) if self.me.id.distance_to(b.id) >= self.me.id.distance_to(h.id) => best,
                _ => Some(h),
            })
    }

    /// The live finger nearest ahead of this node — the best emergency
    /// successor candidate after the whole successor list has died.
    fn nearest_forward_finger(&self) -> Option<NodeHandle> {
        self.fingers
            .iter_distinct()
            .filter(|h| h.addr != self.me.addr)
            .min_by_key(|h| self.me.id.distance_to(h.id))
    }

    // ------------------------------------------------------------------
    // Advertisement vetting
    // ------------------------------------------------------------------

    /// The identifier this node's own routing state binds `addr` to, if
    /// any — ground truth for the advertisement sanity check.
    fn known_binding(&self, predecessors: &[NodeHandle], addr: Addr) -> Option<Id> {
        if addr == self.me.addr {
            return Some(self.me.id);
        }
        self.successors
            .iter()
            .chain(predecessors)
            .find(|h| h.addr == addr)
            .map(|h| h.id)
            .or_else(|| self.fingers.id_at(addr))
    }

    /// Drops advertised entries that rebind an address this node already
    /// knows to a different identifier, or that bind one address to two
    /// identifiers within the same advertisement — the two lies a
    /// poisoning adversary must tell to redirect ring arcs. Honest
    /// advertisements never conflict (addr→id bindings are global
    /// constants in a run), so on a clean ring this filter passes
    /// everything through untouched and records nothing. Rejections are
    /// counted under `ring.poisoned_entries`; returns true if there were
    /// any.
    pub fn sanitize_advert<M, T>(
        &self,
        predecessors: &[NodeHandle],
        list: &mut Vec<NodeHandle>,
        ctx: &mut Ctx<'_, M, T>,
    ) -> bool {
        let advertised = list.len();
        let mut kept = 0;
        for i in 0..advertised {
            let h = list[i];
            let conflict = self.known_binding(predecessors, h.addr).is_some_and(|id| id != h.id)
                || list[..kept].iter().any(|c| c.addr == h.addr && c.id != h.id);
            if !conflict {
                list[kept] = h;
                kept += 1;
            }
        }
        list.truncate(kept);
        if kept < advertised {
            ctx.metrics().count(keys::RING_POISONED, (advertised - kept) as u64);
        }
        kept < advertised
    }

    // ------------------------------------------------------------------
    // Maintenance rules
    // ------------------------------------------------------------------

    /// Learns this node's address and draws the random phases that
    /// de-synchronize its two maintenance timers from everyone else's:
    /// `(stabilize, fix-fingers)`.
    pub fn on_start<M, T>(
        &mut self,
        ctx: &mut Ctx<'_, M, T>,
        stabilize_interval: SimDuration,
        fix_fingers_interval: SimDuration,
    ) -> (SimDuration, SimDuration) {
        self.me.addr = ctx.self_addr();
        let mut phase =
            |of: SimDuration| SimDuration::from_nanos(ctx.rng().gen_range(0..of.as_nanos().max(1)));
        (phase(stabilize_interval), phase(fix_fingers_interval))
    }

    /// Latches `ever_had_successor` once the successor list is non-empty.
    fn note_seeded(&mut self) {
        if !self.successors.is_empty() {
            self.ever_had_successor = true;
        }
    }

    /// Adds one peer to the successor list (a leaving neighbor's handoff,
    /// a reseed), moving the epoch if the list changed.
    pub fn absorb_successor(&mut self, handle: NodeHandle) {
        if self.successors.integrate(handle) {
            self.neighbor_epoch += 1;
        }
        self.note_seeded();
    }

    /// Purges a detected-dead address from successors and fingers;
    /// `predecessor_gone` says whether the node also dropped it from its
    /// predecessor side, which moves the same epoch.
    pub fn mark_dead(&mut self, addr: Addr, predecessor_gone: bool) {
        let successor_gone = self.successors.remove_addr(addr);
        self.fingers.remove_addr(addr);
        if successor_gone || predecessor_gone {
            self.neighbor_epoch += 1;
        }
    }

    /// Join completion: installs the [`joined_list`] and returns the
    /// predecessor to adopt at once (the answerer under the legacy
    /// one-phase join, nobody under the corrected protocol). The bootstrap
    /// address is dropped so a later crash leaves no residue of the join
    /// (keeps the model checker's fail transitions exact).
    pub fn complete_join(
        &mut self,
        mode: MaintenanceMode,
        answerer: NodeHandle,
        successors: &[NodeHandle],
    ) -> Option<NodeHandle> {
        let (fresh, trusted) = joined_list(&self.successors, mode, answerer, successors);
        self.successors = fresh;
        self.note_seeded();
        self.joined = true;
        self.bootstrap = None;
        trusted
    }

    /// Starts a stabilization round: returns the probe token and the
    /// first successor to ask for its neighbors, or `None` on a singleton
    /// (or while still joining).
    ///
    /// A correlated failure can kill every node in the successor list at
    /// once. The round then first re-acquires a forward pointer from the
    /// finger table and lets stabilization walk it back to the true
    /// successor. Without this the next notify from a predecessor would
    /// refill the list *backwards* and wedge this node in a wrapped state
    /// that answers lookups for the dead arc.
    pub fn begin_stabilize(&mut self) -> Option<(u64, NodeHandle)> {
        if self.successors.is_empty() {
            if let Some(f) = self.nearest_forward_finger() {
                self.absorb_successor(f);
            }
        }
        let s1 = self.successors.first()?;
        let token = self.fresh_token();
        self.stab_waiting = Some((token, s1));
        Some((token, s1))
    }

    /// The successor the stabilization round with `token` is waiting on,
    /// ending the round; `None` for a stale or unsolicited token.
    pub fn take_stab_waiting(&mut self, token: u64) -> Option<NodeHandle> {
        take_waiting(&mut self.stab_waiting, token)
    }

    /// Adopts the successor list rebuilt ([`rebuild_list`]) from the
    /// vetted reply of first successor `s1`: its nearest predecessor, if
    /// any, and its successor list. The node then notifies its (possibly
    /// new) first successor.
    pub fn adopt_successors(
        &mut self,
        mode: MaintenanceMode,
        s1: NodeHandle,
        s1_predecessor: Option<NodeHandle>,
        s1_successors: &[NodeHandle],
        poisoned: bool,
    ) {
        let fresh =
            rebuild_list(&self.successors, mode, s1, s1_predecessor, s1_successors, poisoned);
        if fresh != self.successors {
            self.neighbor_epoch += 1;
        }
        self.successors = fresh;
        self.note_seeded();
    }

    /// What a notify from `candidate` does to a single predecessor
    /// pointer: [`predecessor_decision`] over the handles' identifiers.
    pub fn predecessor_decision(
        &self,
        mode: MaintenanceMode,
        incumbent: Option<NodeHandle>,
        candidate: NodeHandle,
    ) -> RectifyDecision {
        let incumbent = incumbent.map(|p| p.id.raw());
        predecessor_decision(mode, self.me.id.raw(), incumbent, candidate.id.raw())
    }

    /// Notify-time refill of an emptied successor list, from the
    /// [`refill_seed`] if there is one.
    pub fn notify_refill(&mut self, mode: MaintenanceMode, notifier: NodeHandle) {
        if !self.successors.is_empty() {
            return;
        }
        let finger = self.nearest_forward_finger();
        if let Some(seed) = refill_seed(mode, self.me.id, self.ever_had_successor, finger, notifier)
        {
            self.absorb_successor(seed);
        }
    }

    /// One finger-refresh round. Fingers whose target the successor list
    /// covers are resolved on the spot; the rest are returned as
    /// `(index, target)` for the node to refresh through lookups. `rule`
    /// holds the two things §4.3–4.4 change: where finger `i` aims (Verme
    /// shifts targets by a section length) and whom the target's plain
    /// successor and that successor's predecessor resolve it to (Chord
    /// takes the successor). Under both rules a target's distance grows
    /// with its index, so the covered fingers are a prefix and all of them
    /// are set before the node's first lookup routes over the table.
    pub fn fix_fingers(&mut self, rule: &impl FingerRule) -> Vec<(usize, Id)> {
        let last = match self.successors.as_slice().last() {
            Some(&last) if self.joined => last,
            _ => return Vec::new(), // Still joining, or a singleton: no fingers needed.
        };
        let mut remote = Vec::new();
        for i in 0..Id::BITS {
            let target = rule.target(self.me.id, i);
            if target.in_open_closed(self.me.id, last.id) {
                // Each successor beside its predecessor, the node for the first.
                let list = self.successors.as_slice();
                let mut pairs = list.iter().zip(std::iter::once(&self.me).chain(list));
                let reach = self.me.id.distance_to(target);
                let owner = pairs.find(|(s, _)| self.me.id.distance_to(s.id) >= reach);
                let entry = owner.and_then(|(&s, &p)| rule.resolve(target, s, Some(p), |h| h.id));
                self.set_finger(i as usize, entry);
            } else {
                remote.push((i as usize, target));
            }
        }
        remote
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_ring::ChordFingers;
    use crate::{ChordConfig, ChordNode};
    use verme_sim::runtime::UniformLatency;
    use verme_sim::HostId;
    use MaintenanceMode::{Corrected, Legacy};

    fn h(id: u128, addr: u64) -> NodeHandle {
        NodeHandle::new(Id::new(id), Addr::from_raw(addr))
    }

    /// A core at id 100 with a three-slot successor list.
    fn core(successors: &[NodeHandle], fingers: &[(usize, NodeHandle)]) -> RingCore {
        RingCore::new(Id::new(100), 3).with_state(successors, fingers)
    }

    fn ids(list: &NeighborList) -> Vec<u128> {
        list.iter().map(|h| h.id.raw()).collect()
    }

    /// A core whose only successor died: list empty, `ever_had_successor`
    /// latched.
    fn emptied(fingers: &[(usize, NodeHandle)]) -> RingCore {
        let mut c = core(&[h(200, 2)], fingers);
        c.mark_dead(Addr::from_raw(2), false);
        assert!(c.successors().is_empty() && c.ever_had_successor);
        c
    }

    #[test]
    fn rebuild_legacy_lets_a_dead_tail_entry_leapfrog_and_corrected_flushes_it() {
        // PR 8's bug. 150 died and we purged it, but our successor 300
        // still carries it at the *tail* of its list (from 300 it is
        // almost a full circle away). One advert, both rules:
        let old = core(&[h(300, 3), h(400, 4)], &[]);
        let advert = [h(400, 4), h(500, 5), h(150, 15)];
        for (mode, expect) in [(Legacy, [150, 300, 400]), (Corrected, [300, 400, 500])] {
            let fresh = rebuild_list(old.successors(), mode, h(300, 3), None, &advert, false);
            assert_eq!(ids(&fresh), expect, "{mode:?}");
        }
    }

    #[test]
    fn rebuild_takes_the_heads_predecessor_only_if_it_lies_between() {
        let old = core(&[h(300, 3)], &[]);
        for mode in [Legacy, Corrected] {
            for (between, expect) in [
                (Some(h(200, 2)), vec![200, 300, 400]), // a joiner between us and 300
                (Some(h(100, 1)), vec![300, 400]),      // ourselves
                (Some(h(50, 5)), vec![300, 400]),       // behind us
                (None, vec![300, 400]),
            ] {
                let fresh =
                    rebuild_list(old.successors(), mode, h(300, 3), between, &[h(400, 4)], false);
                assert_eq!(ids(&fresh), expect, "{mode:?} {between:?}");
            }
        }
    }

    #[test]
    fn rebuild_mirrors_for_a_predecessor_list() {
        let old = NeighborList::predecessors(Id::new(100), 3);
        // 90's own predecessors, with a stale 95 at the tail of its list.
        let advert = [h(80, 8), h(70, 7), h(95, 9)];
        for (mode, expect) in [(Legacy, [95, 90, 80]), (Corrected, [90, 80, 70])] {
            let fresh = rebuild_list(&old, mode, h(90, 1), None, &advert, false);
            assert_eq!(ids(&fresh), expect, "{mode:?}");
        }
    }

    #[test]
    fn a_rejected_advert_entry_never_shortens_the_list() {
        // 200 is caught lying: every entry of its advert was rebound and
        // dropped, so the vetted tail is empty.
        let old = core(&[h(200, 2), h(300, 3), h(400, 4)], &[]);
        for mode in [Legacy, Corrected] {
            let flushed = rebuild_list(old.successors(), mode, h(200, 2), None, &[], false);
            assert_eq!(ids(&flushed), [200], "{mode:?}: without the refill the list collapses");
            let refilled = rebuild_list(old.successors(), mode, h(200, 2), None, &[], true);
            assert_eq!(ids(&refilled), [200, 300, 400], "{mode:?}");
        }
        // The refill only fills gaps: fresher vetted entries keep their
        // slots and capacity still holds.
        let fresh = rebuild_list(old.successors(), Corrected, h(200, 2), None, &[h(250, 5)], true);
        assert_eq!(ids(&fresh), [200, 250, 300]);
    }

    #[test]
    fn adopt_successors_moves_the_epoch_only_on_change() {
        let mut c = core(&[h(200, 2), h(300, 3)], &[]);
        c.adopt_successors(Corrected, h(200, 2), None, &[h(300, 3)], false);
        assert_eq!(c.neighbor_epoch(), 0, "same list, same epoch");
        c.adopt_successors(Corrected, h(200, 2), Some(h(150, 5)), &[h(300, 3)], false);
        assert_eq!(ids(c.successors()), [150, 200, 300]);
        assert_eq!(c.neighbor_epoch(), 1);
    }

    #[test]
    fn emptied_list_reseeds_from_the_nearest_forward_finger() {
        let mut c = emptied(&[(120, h(900, 9)), (110, h(300, 3)), (125, h(50, 5))]);
        let epoch = c.neighbor_epoch();
        let (token, s1) = c.begin_stabilize().expect("a finger to reseed from");
        assert_eq!(s1, h(300, 3), "300 is nearest ahead; 50 is almost a full circle away");
        assert_eq!(ids(c.successors()), [300]);
        assert_eq!(c.neighbor_epoch(), epoch + 1);
        // The round is now waiting on exactly that token.
        assert_eq!(c.take_stab_waiting(token + 1), None);
        assert_eq!(c.take_stab_waiting(token), Some(s1));
        assert_eq!(c.take_stab_waiting(token), None);
        // No finger, no reseed, no round.
        assert_eq!(emptied(&[]).begin_stabilize(), None);
    }

    #[test]
    fn notify_refill_is_forward_only_once_the_list_has_ever_been_seeded() {
        let notifier = h(50, 5); // behind us
        let cases: [(&str, MaintenanceMode, RingCore, Vec<u128>); 6] = [
            ("legacy wraps backwards", Legacy, emptied(&[]), vec![50]),
            ("bootstrap singleton learns its first peer", Corrected, core(&[], &[]), vec![50]),
            ("emptied list stays wedged", Corrected, emptied(&[]), vec![]),
            ("emptied list reseeds forward", Corrected, emptied(&[(110, h(300, 3))]), vec![300]),
            ("a live list is left alone", Corrected, core(&[h(200, 2)], &[]), vec![200]),
            ("a live list is left alone", Legacy, core(&[h(200, 2)], &[]), vec![200]),
        ];
        for (what, mode, mut c, expect) in cases {
            c.notify_refill(mode, notifier);
            assert_eq!(ids(c.successors()), expect, "{what}");
        }
        // Our own id is never a successor.
        let mut c = core(&[], &[]);
        c.notify_refill(Legacy, h(100, 7));
        assert!(c.successors().is_empty());
    }

    #[test]
    fn predecessor_decision_per_mode() {
        let c = core(&[], &[]);
        use RectifyDecision::{Adopt, Keep, ProbePred};
        for (incumbent, candidate, legacy, corrected) in [
            (None, 70, Adopt, Adopt),
            (Some(50), 70, Adopt, Adopt),
            // Behind the incumbent: legacy strands it, corrected probes.
            (Some(50), 30, Keep, ProbePred),
            (Some(50), 50, Keep, Keep),
            (Some(50), 100, Keep, Keep),
            (None, 100, Keep, Keep),
        ] {
            let incumbent = incumbent.map(|id| h(id, 1));
            let candidate = h(candidate, 2);
            assert_eq!(c.predecessor_decision(Legacy, incumbent, candidate), legacy);
            assert_eq!(c.predecessor_decision(Corrected, incumbent, candidate), corrected);
        }
    }

    #[test]
    fn join_completion_per_mode() {
        for (mode, trusted) in [(Legacy, Some(h(50, 5))), (Corrected, None)] {
            let mut c = RingCore::new(Id::new(100), 3).joining(Addr::from_raw(9));
            assert!(!c.is_joined() && !c.owns(Id::new(150)));
            assert_eq!(c.complete_join(mode, h(50, 5), &[h(200, 2), h(100, 7)]), trusted);
            assert!(c.is_joined() && c.bootstrap().is_none() && c.ever_had_successor);
            assert_eq!(ids(c.successors()), [200]);
        }
        // Degenerate: the only other node answered with an empty list.
        let mut c = RingCore::new(Id::new(100), 3).joining(Addr::from_raw(9));
        c.complete_join(Corrected, h(50, 5), &[]);
        assert_eq!(ids(c.successors()), [50]);
    }

    /// Chord's targets, each resolved to its successor's predecessor, and
    /// `unset` to nobody.
    struct Predecessors {
        unset: Id,
    }

    impl FingerRule for Predecessors {
        fn target(&self, id: Id, b: u32) -> Id {
            id.finger_target(b)
        }

        fn resolve<T>(&self, target: Id, _: T, p: Option<T>, _: impl Fn(&T) -> Id) -> Option<T> {
            p.filter(|_| target != self.unset)
        }

        fn alike_reach(&self, _: Id) -> u128 {
            0
        }
    }

    #[test]
    fn fix_fingers_resolves_the_covered_prefix_and_returns_the_rest() {
        let succs = [h(200, 2), h(300, 3), h(400, 4)];
        let mut c = core(&succs, &[]);
        let remote = c.fix_fingers(&ChordFingers);
        // 100 + 2^8 = 356 ≤ 400 is the last target the list covers.
        assert_eq!(remote.first(), Some(&(9, Id::new(100 + 512))));
        assert_eq!(remote.len(), 128 - 9);
        assert_eq!(c.fingers().get(0), Some(h(200, 2)), "101 → 200");
        assert_eq!(c.fingers().get(7), Some(h(300, 3)), "228 → 300");
        assert_eq!(c.fingers().get(8), Some(h(400, 4)), "356 → 400");
        // The resolver also sees the successor's predecessor; a resolved
        // owner that is the node itself, or none at all, clears the slot.
        let mut c = core(&succs, &[(0, h(200, 2)), (7, h(300, 3))]);
        c.fix_fingers(&Predecessors { unset: Id::new(228) });
        assert_eq!(c.fingers().get(0), None, "101 → 200, whose predecessor is the node");
        assert_eq!(c.fingers().get(7), None, "228 resolves to nobody");
        assert_eq!(c.fingers().get(8), Some(h(300, 3)), "356 → 400 → 300");
        // So does a refresh answer naming the node itself.
        c.set_finger(8, h(100, 1));
        assert_eq!(c.fingers().get(8), None);
        // Joining nodes and singletons have nothing to fix.
        assert!(core(&[], &[]).fix_fingers(&ChordFingers).is_empty());
        let mut joining = core(&succs, &[]).joining(Addr::from_raw(9));
        assert!(joining.fix_fingers(&ChordFingers).is_empty());
        assert!(joining.fingers().is_empty());
    }

    #[test]
    fn sanitize_advert_drops_and_counts_rebound_entries() {
        let mut rt: Runtime<ChordNode, UniformLatency> =
            Runtime::new(UniformLatency::new(1, SimDuration::from_millis(1)), 1);
        let node = ChordNode::with_state(
            Id::new(100),
            ChordConfig::default(),
            Some(h(50, 5)),
            &[h(200, 2)],
            &[(120, h(900, 9))],
        );
        let addr = rt.spawn(HostId(0), node);
        let cases: [(&str, Vec<NodeHandle>, Vec<u128>); 5] = [
            ("honest, known and new", vec![h(200, 2), h(300, 3)], vec![200, 300]),
            ("a successor rebound", vec![h(201, 2), h(300, 3)], vec![300]),
            ("the predecessor and a finger rebound", vec![h(51, 5), h(901, 9)], vec![]),
            ("ourselves rebound", vec![h(101, addr.raw())], vec![]),
            ("one address, two ids in one advert", vec![h(300, 3), h(301, 3)], vec![300]),
        ];
        let mut rejected = 0;
        for (what, mut list, expect) in cases {
            let dropped = list.len() - expect.len();
            let poisoned = rt
                .invoke(addr, |n, ctx| {
                    let known = n.predecessor();
                    n.ring().sanitize_advert(known.as_slice(), &mut list, ctx)
                })
                .expect("alive");
            assert_eq!(list.iter().map(|h| h.id.raw()).collect::<Vec<_>>(), expect, "{what}");
            assert_eq!(poisoned, dropped > 0, "{what}");
            rejected += dropped as u64;
            assert_eq!(rt.metrics().counter(keys::RING_POISONED), rejected, "{what}");
        }
    }
}
