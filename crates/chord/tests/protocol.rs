//! End-to-end protocol tests: full Chord rings running on the simulator.

use std::cell::RefCell;
use std::rc::Rc;

use rand::Rng;

use verme_chord::{
    ChordConfig, ChordMsg, ChordNode, ChordTicket, ChordTimer, Id, LookupId, LookupMode,
    LookupResult, NodeHandle, StaticRing,
};
use verme_sim::runtime::UniformLatency;
use verme_sim::{
    Addr, HostId, NetConditions, Node, ProtoEvent, Runtime, SeedSource, SimDuration, SimTime,
    TraceKind, Wire,
};

const HOP_MS: u64 = 20;

/// The forwarder reroute budget (`MAX_HOP_ATTEMPTS` in the relay rules).
const MAX_HOP_ATTEMPTS: u64 = 4;

type Rt = Runtime<ChordNode, UniformLatency>;

fn cfg(mode: LookupMode) -> ChordConfig {
    ChordConfig { lookup_mode: mode, ..ChordConfig::default() }
}

/// Periodic maintenance pushed past the test's window, so every lookup,
/// ack and reroute on the wire is the test's own; a 3.2 s lookup deadline
/// leaves room for six 500 ms hop timeouts.
fn quiet(mode: LookupMode) -> ChordConfig {
    ChordConfig {
        stabilize_interval: SimDuration::from_secs(3600),
        fix_fingers_interval: SimDuration::from_secs(3600),
        lookup_deadline: SimDuration::from_millis(3200),
        ..cfg(mode)
    }
}

/// Spawns a fully-converged static ring of `n` nodes and returns
/// (runtime, members in id order).
fn spawn_static(n: usize, mode: LookupMode, seed: u64) -> (Rt, Vec<NodeHandle>) {
    spawn_with(n, cfg(mode), seed)
}

fn spawn_with(n: usize, cfg: ChordConfig, seed: u64) -> (Rt, Vec<NodeHandle>) {
    let mut rt = Runtime::new(UniformLatency::new(n, SimDuration::from_millis(HOP_MS)), seed);
    let ring = StaticRing::random(n, seed);
    ring.spawn(&mut rt, |pos| ring.build_node(pos, cfg.clone()));
    let members = ring.nodes().to_vec();
    (rt, members)
}

/// Ground truth: the successor of `key` among `members` (sorted by id).
fn true_successor(members: &[NodeHandle], key: Id) -> NodeHandle {
    members.iter().copied().find(|h| h.id.raw() >= key.raw()).unwrap_or(members[0])
}

fn lookup_and_check_mode(mode: LookupMode) {
    let n = 48;
    let (mut rt, members) = spawn_static(n, mode, 7);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));

    let mut rng = SeedSource::new(99).stream("keys");
    let mut issued = 0;
    for i in 0..40 {
        let key = Id::random(&mut rng);
        let origin = members[i % members.len()].addr;
        rt.invoke(origin, |node, ctx| node.start_lookup(key, ctx)).unwrap();
        issued += 1;
        rt.run_until(rt.now() + SimDuration::from_secs(5));
        let outcomes = rt.node_mut(origin).unwrap().take_outcomes();
        assert_eq!(outcomes.len(), 1, "exactly one outcome per lookup");
        let o = &outcomes[0];
        let result =
            o.result.as_ref().unwrap_or_else(|| panic!("lookup {i} failed in mode {mode:?}"));
        let expect = true_successor(&members, key);
        assert_eq!(
            result.responsible().id,
            expect.id,
            "wrong responsible node for key {key} in mode {mode:?}"
        );
        // O(log n) routing: generous bound.
        assert!(o.hops <= 16, "too many hops: {}", o.hops);
    }
    let m = rt.metrics();
    assert_eq!(m.counter("lookup.completed"), issued);
    assert_eq!(m.counter("lookup.failed"), 0);
}

#[test]
fn recursive_lookups_find_true_successor() {
    lookup_and_check_mode(LookupMode::Recursive);
}

#[test]
fn transitive_lookups_find_true_successor() {
    lookup_and_check_mode(LookupMode::Transitive);
}

#[test]
fn transitive_is_faster_than_recursive() {
    // Same ring, same keys: the transitive reply takes one hop instead of
    // retracing the path, so mean latency must be strictly lower.
    let mean_latency = |mode| {
        let (mut rt, members) = spawn_static(64, mode, 21);
        let mut rng = SeedSource::new(5).stream("keys");
        for i in 0..60 {
            let key = Id::random(&mut rng);
            let origin = members[i % members.len()].addr;
            rt.invoke(origin, |node, ctx| node.start_lookup(key, ctx)).unwrap();
        }
        rt.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        rt.metrics_mut()
            .histogram_mut("lookup.latency_ms")
            .expect("lookups recorded")
            .summary()
            .mean
    };
    let rec = mean_latency(LookupMode::Recursive);
    let tra = mean_latency(LookupMode::Transitive);
    assert!(tra < rec, "transitive ({tra:.1} ms) should beat recursive ({rec:.1} ms)");
}

#[test]
fn nodes_join_one_by_one_and_converge() {
    let n = 12;
    let mut rng = SeedSource::new(3).stream("join-ids");
    let mut rt = Runtime::new(UniformLatency::new(n, SimDuration::from_millis(HOP_MS)), 3);
    // Faster maintenance so the test converges quickly.
    let cfgv = ChordConfig {
        stabilize_interval: SimDuration::from_secs(2),
        fix_fingers_interval: SimDuration::from_secs(4),
        ..ChordConfig::default()
    };

    let first_id = Id::random(&mut rng);
    let first = rt.spawn(HostId(0), ChordNode::first(first_id, cfgv.clone()));
    let mut ids = vec![first_id];
    for i in 1..n {
        let id = Id::random(&mut rng);
        ids.push(id);
        rt.spawn(HostId(i), ChordNode::joining(id, cfgv.clone(), first));
        rt.run_until(rt.now() + SimDuration::from_secs(10));
    }
    rt.run_until(rt.now() + SimDuration::from_secs(60));

    // Every node joined, and every node's first successor is the next id
    // on the ring.
    ids.sort_by_key(|id| id.raw());
    let addrs: Vec<Addr> = rt.alive_addrs().collect();
    for addr in addrs {
        let node = rt.node(addr).unwrap();
        assert!(node.is_joined(), "node {} never joined", node.id());
        let my = node.id();
        let pos = ids.iter().position(|&i| i == my).unwrap();
        let expect = ids[(pos + 1) % n];
        assert_eq!(node.successor_list()[0].id, expect, "node {my} has the wrong first successor");
        assert!(node.predecessor().is_some(), "node {my} has no predecessor");
    }
}

#[test]
fn ring_repairs_after_mass_failure() {
    let n = 64;
    let (mut rt, members) = spawn_static(n, LookupMode::Recursive, 13);
    // Kill every 4th node (25% failures).
    let mut dead = Vec::new();
    for (i, h) in members.iter().enumerate() {
        if i % 4 == 0 {
            rt.kill(h.addr);
            dead.push(h.addr);
        }
    }
    // Let stabilization repair (rounds every 30 s).
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(180));

    let survivors: Vec<NodeHandle> =
        members.iter().copied().filter(|h| !dead.contains(&h.addr)).collect();
    // Every survivor's first successor is the next *live* node.
    for h in &survivors {
        let node = rt.node(h.addr).unwrap();
        let expect =
            survivors.iter().copied().find(|s| s.id.raw() > h.id.raw()).unwrap_or(survivors[0]);
        assert_eq!(
            node.successor_list()[0].id,
            expect.id,
            "node {} did not repair its successor",
            h.id
        );
    }

    // Lookups still resolve correctly to live nodes.
    let mut rng = SeedSource::new(1).stream("keys");
    for i in 0..20 {
        let key = Id::random(&mut rng);
        let origin = survivors[i % survivors.len()].addr;
        rt.invoke(origin, |node, ctx| node.start_lookup(key, ctx)).unwrap();
        rt.run_until(rt.now() + SimDuration::from_secs(10));
        let outcomes = rt.node_mut(origin).unwrap().take_outcomes();
        let o = &outcomes[0];
        let result = o.result.as_ref().expect("lookup should succeed after repair");
        let expect = true_successor(&survivors, key);
        assert_eq!(result.responsible().id, expect.id);
    }
}

#[test]
fn lookups_route_around_fresh_failures() {
    // Kill nodes *without* giving stabilization time to notice, then issue
    // lookups: per-hop timeouts must reroute.
    let n = 64;
    let (mut rt, members) = spawn_static(n, LookupMode::Recursive, 17);
    rt.run_until(SimTime::ZERO + SimDuration::from_millis(100));
    let mut rng = SeedSource::new(2).stream("kill");
    let mut dead = Vec::new();
    for h in members.iter() {
        if rng.gen::<f64>() < 0.15 {
            rt.kill(h.addr);
            dead.push(h.addr);
        }
    }
    let survivors: Vec<NodeHandle> =
        members.iter().copied().filter(|h| !dead.contains(&h.addr)).collect();

    let mut completed = 0;
    let mut resolved_live = 0;
    for i in 0..30 {
        let key = Id::random(&mut rng);
        let origin = survivors[(i * 7) % survivors.len()].addr;
        rt.invoke(origin, |node, ctx| node.start_lookup(key, ctx)).unwrap();
        rt.run_until(rt.now() + SimDuration::from_secs(10));
        let outcomes = rt.node_mut(origin).unwrap().take_outcomes();
        if let Some(result) = &outcomes[0].result {
            completed += 1;
            // Stale successor lists may still name a dead responsible node
            // until stabilization notices — that is Chord's real behavior —
            // but the *majority* of answers should be live.
            if rt.is_alive(result.responsible().addr) {
                resolved_live += 1;
            }
        }
    }
    assert!(completed >= 27, "too many lookups failed under fresh failures: {completed}/30");
    assert!(
        resolved_live >= 20,
        "too many lookups resolved to dead nodes: {resolved_live}/{completed}"
    );
    assert!(rt.metrics().counter("lookup.hop_reroutes") > 0, "expected at least one hop reroute");
}

#[test]
fn maintenance_traffic_is_accounted() {
    let (mut rt, _members) = spawn_static(16, LookupMode::Recursive, 31);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(120));
    let m = rt.metrics();
    assert!(m.counter("bytes.maint") > 0, "stabilization should send bytes");
    let stats = rt.stats();
    assert!(stats.messages_delivered > 0);
    assert!(stats.bytes_sent > 0);
}

#[test]
fn lookups_survive_message_loss() {
    // 5% i.i.d. message loss: per-hop acks and retries must route around
    // the gaps, completing the vast majority of lookups.
    let n = 48;
    let (mut rt, members) = spawn_static(n, LookupMode::Recursive, 41);
    rt.set_net(NetConditions { loss_rate: 0.05, ..NetConditions::default() });
    let mut rng = SeedSource::new(77).stream("keys");
    let mut completed = 0;
    let total = 40;
    for i in 0..total {
        let key = Id::random(&mut rng);
        let origin = members[(i * 5) % members.len()].addr;
        rt.invoke(origin, |node, ctx| node.start_lookup(key, ctx)).unwrap();
        rt.run_until(rt.now() + SimDuration::from_secs(10));
        let outcomes = rt.node_mut(origin).unwrap().take_outcomes();
        if outcomes[0].result.is_some() {
            completed += 1;
        }
    }
    assert!(
        completed >= total * 8 / 10,
        "too many lookups lost under 5% message loss: {completed}/{total}"
    );
}

#[test]
fn stabilization_heals_after_message_loss() {
    // Under sustained 10% loss a node may transiently evict a live
    // successor (a lost stabilize reply is indistinguishable from a dead
    // peer); once the network is healthy again, the ring must converge
    // back to exactly the true successor ordering.
    let n = 32;
    let (mut rt, members) = spawn_static(n, LookupMode::Recursive, 43);
    rt.set_net(NetConditions { loss_rate: 0.10, ..NetConditions::default() });
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(240));
    // During the lossy phase, no node may ever point at anything but a
    // live member (there are no dead members to confuse it with).
    for h in &members {
        assert!(!rt.node(h.addr).unwrap().successor_list().is_empty());
    }
    rt.set_net(NetConditions::default());
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(480));
    for h in &members {
        let node = rt.node(h.addr).unwrap();
        let expect =
            members.iter().copied().find(|s| s.id.raw() > h.id.raw()).unwrap_or(members[0]);
        assert_eq!(node.successor_list()[0].id, expect.id, "node {} never healed", h.id);
    }
}

// ----------------------------------------------------------------------
// Relay rules: hop acks, reroutes, duplicates, relay state expiry
// ----------------------------------------------------------------------

fn deliver(rt: &mut Rt, to: Addr, from: Addr, msg: ChordMsg) {
    rt.invoke(to, |n, ctx| n.on_message(from, msg, ctx)).expect("recipient alive");
}

fn fire(rt: &mut Rt, at: Addr, timer: ChordTimer) {
    rt.invoke(at, |n, ctx| n.on_timer(timer, ctx)).expect("node alive");
}

fn relayed(lid: LookupId, key: Id, origin: NodeHandle, mode: LookupMode) -> ChordMsg {
    let ticket = ChordTicket { origin, mode, maint: false };
    ChordMsg::Lookup { lid, key, ticket, piggyback: None, hops: 1 }
}

/// Everything a hop timeout could touch at `at`: the reroute and lookup
/// byte counters, the node's health gauges and its routing state.
fn relay_state(rt: &Rt, at: Addr) -> (u64, u64, impl PartialEq + std::fmt::Debug) {
    let m = rt.metrics();
    let n = rt.node(at).expect("alive");
    let routing = (n.health(rt.now()), n.successor_list().to_vec(), n.finger_table().distinct());
    (m.counter("lookup.hop_reroutes"), m.counter("bytes.lookup"), routing)
}

fn forwarding(rt: &Rt, at: Addr) -> usize {
    rt.node(at).expect("alive").health(rt.now()).forwarding
}

/// The sends a node traced: the first hop it sent a lookup to, then every
/// hop a timeout rerouted that lookup to.
#[derive(Default)]
struct Sends {
    first: Option<Addr>,
    reroutes: Vec<Addr>,
}

impl Sends {
    /// A rerouting lookup never re-sends to a hop it already tried.
    fn assert_each_hop_tried_once(&self, expect_reroutes: usize) {
        let mut tried = vec![self.first.expect("the first hop is traced")];
        for &to in &self.reroutes {
            assert!(!tried.contains(&to), "rerouted to {to:?}, already tried: {tried:?}");
            tried.push(to);
        }
        assert_eq!(self.reroutes.len(), expect_reroutes);
    }
}

/// Records the [`Sends`] of node `at` from here on.
fn trace_sends(rt: &mut Rt, at: Addr) -> Rc<RefCell<Sends>> {
    let sends: Rc<RefCell<Sends>> = Rc::default();
    let sink = sends.clone();
    rt.set_tracer(Some(Box::new(move |ev| {
        let TraceKind::Proto { node, ref event } = ev.kind else { return };
        let mut s = sink.borrow_mut();
        match event {
            ProtoEvent::LookupHop { to, .. } if node == at && s.first.is_none() => {
                s.first = Some(*to)
            }
            ProtoEvent::Reroute { to, .. } if node == at => s.reroutes.push(*to),
            _ => {}
        }
    })));
    sends
}

fn advance(rt: &mut Rt, by: SimDuration) {
    rt.run_until(rt.now() + by);
}

#[test]
fn a_relay_stops_after_max_hop_attempts_while_the_initiator_reroutes_until_its_deadline() {
    let cfg = quiet(LookupMode::Recursive);
    let ack = ChordMsg::HopAck { lid: LookupId { origin: Addr::NULL, seq: 0 } }.wire_size() as u64;

    // A relay whose every route is dead, handed a lookup by a (dead)
    // upstream. The key sits just behind it, so every peer precedes it.
    let (mut rt, members) = spawn_with(32, cfg.clone(), 5);
    let (relay, upstream) = (members[0], members[16]);
    for h in &members[1..] {
        rt.kill(h.addr);
    }
    let key = relay.id.wrapping_sub(1);
    let lid = LookupId { origin: upstream.addr, seq: 7 };
    let lookup = relayed(lid, key, upstream, LookupMode::Recursive);
    let fwd = lookup.wire_size() as u64;
    let sends = trace_sends(&mut rt, relay.addr);
    deliver(&mut rt, relay.addr, upstream.addr, lookup);
    advance(&mut rt, SimDuration::from_secs(10));
    let m = rt.metrics();
    assert_eq!(m.counter("lookup.hop_reroutes"), MAX_HOP_ATTEMPTS);
    // One ack upstream; the first send and three re-sends downstream.
    assert_eq!(m.counter("bytes.lookup"), ack + MAX_HOP_ATTEMPTS * fwd);
    assert_eq!(forwarding(&rt, relay.addr), 0, "a relay that gave up keeps no state");
    sends.borrow().assert_each_hop_tried_once(MAX_HOP_ATTEMPTS as usize - 1);

    // The same ring from the initiator's side: it has no upstream to
    // reroute for it, so only its deadline stops it.
    let (mut rt, members) = spawn_with(32, cfg.clone(), 5);
    let origin = members[0];
    for h in &members[1..] {
        rt.kill(h.addr);
    }
    let sends = trace_sends(&mut rt, origin.addr);
    rt.invoke(origin.addr, |n, ctx| n.start_lookup(key, ctx)).expect("alive");
    advance(&mut rt, SimDuration::from_secs(10));
    // Timeouts at 0.5, 1.0, ..., 3.0 s: six reroutes, then the deadline.
    assert_eq!(rt.metrics().counter("lookup.hop_reroutes"), 6);
    sends.borrow().assert_each_hop_tried_once(6);
    let outcomes = rt.node_mut(origin.addr).expect("alive").take_outcomes();
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].result.is_none());
    assert_eq!(outcomes[0].latency, cfg.lookup_deadline);
    assert_eq!(rt.node(origin.addr).expect("alive").health(rt.now()).pending_lookups, 0);
}

#[test]
fn a_hop_timeout_after_the_ack_or_for_an_older_attempt_changes_nothing() {
    let (mut rt, members) = spawn_with(32, quiet(LookupMode::Recursive), 9);
    let (relay, upstream) = (members[0], members[16]);
    rt.kill(upstream.addr);
    let key = relay.id.wrapping_sub(1);

    // Acked in time: the ack is back after 40 ms, a reply from two or
    // more hops further cannot be before 80 ms.
    let lid = LookupId { origin: upstream.addr, seq: 1 };
    deliver(&mut rt, relay.addr, upstream.addr, relayed(lid, key, upstream, LookupMode::Recursive));
    advance(&mut rt, SimDuration::from_millis(50));
    assert_eq!(forwarding(&rt, relay.addr), 1);
    let before = relay_state(&rt, relay.addr);
    fire(&mut rt, relay.addr, ChordTimer::HopTimeout { lid, attempt: 0 });
    assert_eq!(relay_state(&rt, relay.addr), before, "a timeout after the ack");

    // Rerouted once: the timer of the first attempt is stale.
    let next = rt.node(relay.addr).unwrap().route_first_hop_excluding(key, &[]).unwrap();
    rt.kill(next.addr);
    let lid = LookupId { origin: upstream.addr, seq: 2 };
    deliver(&mut rt, relay.addr, upstream.addr, relayed(lid, key, upstream, LookupMode::Recursive));
    advance(&mut rt, SimDuration::from_millis(510));
    assert_eq!(rt.metrics().counter("lookup.hop_reroutes"), 1);
    let before = relay_state(&rt, relay.addr);
    fire(&mut rt, relay.addr, ChordTimer::HopTimeout { lid, attempt: 0 });
    assert_eq!(relay_state(&rt, relay.addr), before, "a timeout for an older attempt");
    // ... and once the new hop acked, so is the current one.
    advance(&mut rt, SimDuration::from_millis(40));
    let before = relay_state(&rt, relay.addr);
    fire(&mut rt, relay.addr, ChordTimer::HopTimeout { lid, attempt: 1 });
    assert_eq!(relay_state(&rt, relay.addr), before, "a timeout after the rerouted ack");
}

#[test]
fn a_redelivered_lookup_is_acked_but_not_forwarded_again() {
    let (mut rt, members) = spawn_with(32, quiet(LookupMode::Recursive), 9);
    let (relay, upstream) = (members[0], members[16]);
    rt.kill(upstream.addr);
    let lid = LookupId { origin: upstream.addr, seq: 3 };
    let lookup = relayed(lid, relay.id.wrapping_sub(1), upstream, LookupMode::Recursive);
    let ack = ChordMsg::HopAck { lid }.wire_size() as u64;
    let fwd = lookup.wire_size() as u64;
    let bytes = |rt: &Rt| rt.metrics().counter("bytes.lookup");
    deliver(&mut rt, relay.addr, upstream.addr, lookup.clone());
    assert_eq!(bytes(&rt), ack + fwd);
    deliver(&mut rt, relay.addr, upstream.addr, lookup);
    assert_eq!(bytes(&rt), 2 * ack + fwd, "the duplicate is only acked");
    assert_eq!(forwarding(&rt, relay.addr), 1);
}

/// A relay holding forward state for a lookup whose reply never comes:
/// `relay` forwarded `lid` from the dead `upstream`, its next hop acked and
/// then died. Returns the ring, `relay`, `lid` and when the state expires.
fn relay_without_a_reply(seq: u64) -> (Rt, NodeHandle, LookupId, SimTime) {
    let cfg = quiet(LookupMode::Recursive);
    let (mut rt, members) = spawn_with(32, cfg.clone(), 9);
    let (relay, upstream) = (members[0], members[16]);
    rt.kill(upstream.addr);
    let key = relay.id.wrapping_sub(1);
    let next = rt.node(relay.addr).unwrap().route_first_hop_excluding(key, &[]).unwrap();
    let lid = LookupId { origin: upstream.addr, seq };
    let expiry = rt.now() + cfg.lookup_deadline * 2;
    deliver(&mut rt, relay.addr, upstream.addr, relayed(lid, key, upstream, LookupMode::Recursive));
    // The ack is back after 40 ms; the reply would pass `next` after 80.
    advance(&mut rt, SimDuration::from_millis(50));
    rt.kill(next.addr);
    (rt, relay, lid, expiry)
}

/// Delivers the reply to `lid` now and says whether it was relayed
/// upstream.
fn reply_relayed(rt: &mut Rt, relay: NodeHandle, lid: LookupId) -> bool {
    let reply = ChordMsg::Reply {
        lid,
        reply: LookupResult { predecessor: relay, successors: vec![relay] },
        hops: 2,
    };
    let before = rt.metrics().counter("bytes.lookup");
    deliver(rt, relay.addr, relay.addr, reply);
    rt.metrics().counter("bytes.lookup") > before
}

#[test]
fn relay_state_expires_at_twice_the_lookup_deadline() {
    let ns = SimDuration::from_nanos(1);
    // 1 ns before its expiry, the state still relays the reply.
    let (mut rt, relay, lid, expiry) = relay_without_a_reply(4);
    rt.run_until(expiry - ns);
    assert_eq!(forwarding(&rt, relay.addr), 1);
    assert!(reply_relayed(&mut rt, relay, lid));
    assert_eq!(forwarding(&rt, relay.addr), 0);

    // At exactly its expiry the state is gone: the reply that comes back
    // finds nothing to relay, and no hop timer finds anything to reroute.
    let (mut rt, relay, lid, expiry) = relay_without_a_reply(4);
    rt.run_until(expiry - ns);
    assert_eq!(forwarding(&rt, relay.addr), 1);
    rt.run_until(expiry);
    assert_eq!(forwarding(&rt, relay.addr), 0);
    assert!(!reply_relayed(&mut rt, relay, lid));
    advance(&mut rt, SimDuration::from_secs(5));
    assert_eq!(forwarding(&rt, relay.addr), 0);
    assert_eq!(rt.metrics().counter("lookup.hop_reroutes"), 0);
}

#[test]
fn a_lookup_forwarded_again_keeps_its_state_to_its_own_expiry() {
    let cfg = quiet(LookupMode::Recursive);
    let (mut rt, members) = spawn_with(32, cfg.clone(), 9);
    let (relay, upstream) = (members[0], members[16]);
    rt.kill(upstream.addr);
    let key = relay.id.wrapping_sub(1);
    let lid = LookupId { origin: upstream.addr, seq: 6 };
    let lookup = relayed(lid, key, upstream, LookupMode::Recursive);
    // The first pass completes: its reply frees the relay's state.
    let first_expiry = rt.now() + cfg.lookup_deadline * 2;
    deliver(&mut rt, relay.addr, upstream.addr, lookup.clone());
    advance(&mut rt, SimDuration::from_secs(1));
    assert_eq!(forwarding(&rt, relay.addr), 0);

    // The same lookup comes round again; its reply never returns.
    let next = rt.node(relay.addr).unwrap().route_first_hop_excluding(key, &[]).unwrap();
    let expiry = rt.now() + cfg.lookup_deadline * 2;
    deliver(&mut rt, relay.addr, upstream.addr, lookup);
    advance(&mut rt, SimDuration::from_millis(50));
    rt.kill(next.addr);
    // The first entry's deadline does not touch the second entry.
    rt.run_until(first_expiry);
    assert_eq!(forwarding(&rt, relay.addr), 1);
    rt.run_until(expiry - SimDuration::from_nanos(1));
    assert_eq!(forwarding(&rt, relay.addr), 1);
    rt.run_until(expiry);
    assert_eq!(forwarding(&rt, relay.addr), 0);
}

#[test]
fn a_transitive_middle_hop_frees_its_state_on_the_ack_and_a_recursive_one_on_the_reply() {
    for (mode, held) in [(LookupMode::Transitive, 0), (LookupMode::Recursive, 1)] {
        let (mut rt, members) = spawn_with(32, quiet(mode), 11);
        let (relay, upstream) = (members[0], members[16]);
        let lid = LookupId { origin: upstream.addr, seq: 5 };
        deliver(
            &mut rt,
            relay.addr,
            upstream.addr,
            relayed(lid, relay.id.wrapping_sub(1), upstream, mode),
        );
        // The next hop's ack is back (40 ms); the reply is not (≥ 80 ms).
        advance(&mut rt, SimDuration::from_millis(50));
        assert_eq!(forwarding(&rt, relay.addr), held, "{mode:?}");
        advance(&mut rt, SimDuration::from_secs(5));
        assert_eq!(forwarding(&rt, relay.addr), 0, "{mode:?}");

        // A whole lookup: once it finished, no node relays anything.
        let origin = members[8];
        let key = origin.id.wrapping_sub(1);
        rt.invoke(origin.addr, |n, ctx| n.start_lookup(key, ctx)).expect("alive");
        advance(&mut rt, SimDuration::from_secs(5));
        let outcomes = rt.node_mut(origin.addr).expect("alive").take_outcomes();
        assert!(outcomes[0].result.is_some() && outcomes[0].hops >= 2, "{mode:?}");
        let relaying: usize = members.iter().map(|h| forwarding(&rt, h.addr)).sum();
        assert_eq!(relaying, 0, "{mode:?}");
    }
}
