//! End-to-end protocol tests: full Chord rings running on the simulator.

use rand::Rng;

use verme_chord::{ChordConfig, ChordNode, Id, LookupMode, NodeHandle, StaticRing};
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, HostId, Runtime, SeedSource, SimDuration, SimTime};

const HOP_MS: u64 = 20;

fn cfg(mode: LookupMode) -> ChordConfig {
    ChordConfig { lookup_mode: mode, ..ChordConfig::default() }
}

/// Spawns a fully-converged static ring of `n` nodes and returns
/// (runtime, members in id order).
fn spawn_static(
    n: usize,
    mode: LookupMode,
    seed: u64,
) -> (Runtime<ChordNode, UniformLatency>, Vec<NodeHandle>) {
    let mut rt = Runtime::new(UniformLatency::new(n, SimDuration::from_millis(HOP_MS)), seed);
    let ring = StaticRing::random(n, seed);
    ring.spawn(&mut rt, |pos| ring.build_node(pos, cfg(mode)));
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
    rt.set_loss_rate(0.05);
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
    rt.set_loss_rate(0.10);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(240));
    // During the lossy phase, no node may ever point at anything but a
    // live member (there are no dead members to confuse it with).
    for h in &members {
        assert!(!rt.node(h.addr).unwrap().successor_list().is_empty());
    }
    rt.set_loss_rate(0.0);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(480));
    for h in &members {
        let node = rt.node(h.addr).unwrap();
        let expect =
            members.iter().copied().find(|s| s.id.raw() > h.id.raw()).unwrap_or(members[0]);
        assert_eq!(node.successor_list()[0].id, expect.id, "node {} never healed", h.id);
    }
}
