//! End-to-end tests for all four DHT systems on small static rings.

use bytes::Bytes;

use verme_chord::Id;
use verme_core::{Payload, VermeNode};
use verme_dht::{
    block_key, Compromise, DhashNode, DhtConfig, DhtEngine, DhtNode, Fast, OpKind, Secure, Variant,
};
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, Runtime, SimDuration, SimTime};

mod common;
use common::Ring;

const N: usize = 192;

fn spawn_dhash(seed: u64) -> Ring<DhashNode> {
    common::spawn_dhash(N, seed, &DhtConfig::default())
}

fn spawn_verdi<V, P>(seed: u64) -> Ring<DhtEngine<V>>
where
    V: Variant<Overlay = VermeNode<P>>,
    P: Payload,
{
    common::spawn_verdi(N, seed, &DhtConfig::default())
}

/// Puts `value` from `who`, waits, asserts success, returns the key.
fn do_put<N: DhtNode, L: verme_sim::LatencyModel>(
    rt: &mut Runtime<N, L>,
    who: Addr,
    value: Bytes,
) -> Id {
    let key = block_key(&value);
    rt.invoke(who, |n, ctx| n.start_put(value, ctx)).unwrap();
    rt.run_until(rt.now() + SimDuration::from_secs(40));
    let outs = rt.node_mut(who).unwrap().take_op_outcomes();
    assert_eq!(outs.len(), 1, "expected exactly one outcome");
    assert_eq!(outs[0].kind, OpKind::Put);
    assert!(outs[0].ok, "put failed");
    assert_eq!(outs[0].key, key);
    key
}

/// Gets `key` from `who`, waits, asserts success, returns the value.
fn do_get<N: DhtNode, L: verme_sim::LatencyModel>(
    rt: &mut Runtime<N, L>,
    who: Addr,
    key: Id,
) -> Bytes {
    rt.invoke(who, |n, ctx| n.start_get(key, ctx)).unwrap();
    rt.run_until(rt.now() + SimDuration::from_secs(40));
    let outs = rt.node_mut(who).unwrap().take_op_outcomes();
    assert_eq!(outs.len(), 1, "expected exactly one outcome");
    assert!(outs[0].ok, "get failed");
    outs[0].value.clone().expect("gets return the value")
}

fn payload(tag: u8) -> Bytes {
    Bytes::from(vec![tag; 8192])
}

#[test]
fn dhash_put_get_round_trip() {
    let (mut rt, addrs) = spawn_dhash(1);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let key = do_put(&mut rt, addrs[3], payload(7));
    let v = do_get(&mut rt, addrs[100], key);
    assert_eq!(v, payload(7));
}

#[test]
fn fast_verdi_put_get_round_trip_across_types() {
    let (mut rt, addrs) = spawn_verdi::<Fast, _>(2);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let key = do_put(&mut rt, addrs[3], payload(9));
    // Readers of both types must see the data.
    let v1 = do_get(&mut rt, addrs[10], key);
    let v2 = do_get(&mut rt, addrs[11], key);
    assert_eq!(v1, payload(9));
    assert_eq!(v2, payload(9));
}

#[test]
fn fast_verdi_replicates_in_both_typed_sections() {
    let (mut rt, addrs) = spawn_verdi::<Fast, _>(3);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let value = payload(5);
    let key = do_put(&mut rt, addrs[0], value);
    // Give background replication a moment.
    rt.run_until(rt.now() + SimDuration::from_secs(5));
    // Find holders of both types.
    let mut holder_types = std::collections::BTreeSet::new();
    for &a in &addrs {
        let node = rt.node(a).unwrap();
        if node.store().contains(key) {
            holder_types.insert(node.overlay().node_type().index());
        }
    }
    assert_eq!(holder_types.len(), 2, "Fast-VerDi must hold replicas in sections of both types");
}

#[test]
fn secure_verdi_put_get_round_trip_any_type() {
    let (mut rt, addrs) = spawn_verdi::<Secure, _>(4);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let key = do_put(&mut rt, addrs[7], payload(1));
    let v1 = do_get(&mut rt, addrs[42], key);
    let v2 = do_get(&mut rt, addrs[43], key);
    assert_eq!(v1, payload(1));
    assert_eq!(v2, payload(1));
}

#[test]
fn compromise_verdi_put_get_round_trip() {
    let (mut rt, addrs) = spawn_verdi::<Compromise, _>(5);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let key = do_put(&mut rt, addrs[20], payload(3));
    let v = do_get(&mut rt, addrs[77], key);
    assert_eq!(v, payload(3));
}

#[test]
fn compromise_relays_observe_their_clients() {
    let (mut rt, addrs) = spawn_verdi::<Compromise, _>(6);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    // Nothing is harvested before the first relayed operation.
    assert!(addrs.iter().all(|&a| rt.node(a).unwrap().observed_clients().is_empty()));
    let key = do_put(&mut rt, addrs[20], payload(3));
    let _ = do_get(&mut rt, addrs[77], key);
    // Some node acted as a relay and observed a client.
    let observed: usize = addrs.iter().map(|&a| rt.node(a).unwrap().observed_clients().len()).sum();
    assert!(observed >= 2, "both operations went through a relay");
}

#[test]
fn get_of_missing_key_fails_cleanly() {
    let (mut rt, addrs) = spawn_dhash(7);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let bogus = Id::new(0xDEAD_BEEF);
    rt.invoke(addrs[0], |n, ctx| n.start_get(bogus, ctx)).unwrap();
    rt.run_until(rt.now() + SimDuration::from_secs(40));
    let outs = rt.node_mut(addrs[0]).unwrap().take_op_outcomes();
    assert_eq!(outs.len(), 1);
    assert!(!outs[0].ok);
    assert!(outs[0].value.is_none());
}

#[test]
fn secure_verdi_gets_are_slower_under_bandwidth_model() {
    // The paper's Figure 6 ordering (Secure ≫ Fast for gets) comes from
    // the *bandwidth* model: Secure drags the 8 KiB block across every
    // reverse-path hop, paying its serialization time each hop, while
    // Fast transfers it once. A pure-latency model would not show this —
    // so this test runs on the GT-ITM transit-stub network, like §7.2.
    use verme_net::{TransitStub, TransitStubConfig};
    fn mean_get_ms<V, P>() -> f64
    where
        V: Variant<Overlay = VermeNode<P>>,
        P: Payload,
    {
        let net = TransitStub::generate(TransitStubConfig { hosts: N }, 77);
        let (mut rt, addrs) = common::spawn_verdi_on::<V, P, _>(net, N, 8, &DhtConfig::default());
        rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        let key = do_put(&mut rt, addrs[0], payload(2));
        for i in 1..20 {
            let _ = do_get(&mut rt, addrs[i * 7], key);
        }
        rt.metrics_mut().histogram_mut("dht.get.latency_ms").unwrap().summary().mean
    }
    let fast_ms = mean_get_ms::<Fast, _>();
    let secure_ms = mean_get_ms::<Secure, _>();
    assert!(
        secure_ms > fast_ms,
        "secure gets ({secure_ms:.1} ms) should be slower than fast ({fast_ms:.1} ms)"
    );
}

#[test]
fn replication_spreads_blocks_to_multiple_nodes() {
    let (mut rt, addrs) = spawn_dhash(9);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let key = do_put(&mut rt, addrs[0], payload(4));
    rt.run_until(rt.now() + SimDuration::from_secs(5));
    let holders = addrs
        .iter()
        .filter(|&&a| {
            let n = rt.node(a).unwrap();
            n.store().contains(key)
        })
        .count();
    assert!(holders >= 3, "expected several replicas, found {holders}");
}

#[test]
fn data_survives_replica_holder_deaths() {
    // Kill the node that answered a put (and a few of its neighbors);
    // background data stabilization must keep the block retrievable.
    let (mut rt, addrs) = spawn_dhash(11);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let value = payload(8);
    let key = do_put(&mut rt, addrs[0], value.clone());
    rt.run_until(rt.now() + SimDuration::from_secs(5));

    // Kill up to three current replica holders.
    let holders: Vec<Addr> = addrs
        .iter()
        .copied()
        .filter(|&a| rt.node(a).is_some_and(|n| n.store().contains(key)))
        .collect();
    assert!(holders.len() >= 3, "expected several replicas before the failures");
    for &h in holders.iter().take(3) {
        rt.kill(h);
    }
    // Let ring stabilization adopt new successors and data stabilization
    // re-replicate (both run on 30–60 s cadences).
    rt.run_until(rt.now() + SimDuration::from_secs(240));

    // The block is still retrievable from a random live node.
    let reader = addrs.iter().copied().find(|&a| rt.is_alive(a)).unwrap();
    let v = do_get(&mut rt, reader, key);
    assert_eq!(v, value);
    // And the replication level recovered on live nodes.
    let live_holders =
        addrs.iter().filter(|&&a| rt.node(a).is_some_and(|n| n.store().contains(key))).count();
    assert!(live_holders >= 3, "replication did not recover: {live_holders}");
}

#[test]
fn fast_verdi_data_survives_section_neighbor_deaths() {
    let (mut rt, addrs) = spawn_verdi::<Fast, _>(12);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let value = payload(9);
    let key = do_put(&mut rt, addrs[4], value.clone());
    rt.run_until(rt.now() + SimDuration::from_secs(5));
    let holders: Vec<Addr> = addrs
        .iter()
        .copied()
        .filter(|&a| rt.node(a).is_some_and(|n| n.store().contains(key)))
        .collect();
    // Kill half the holders (mixed types).
    for &h in holders.iter().step_by(2) {
        rt.kill(h);
    }
    rt.run_until(rt.now() + SimDuration::from_secs(240));
    let reader = addrs.iter().copied().find(|&a| rt.is_alive(a)).unwrap();
    let v = do_get(&mut rt, reader, key);
    assert_eq!(v, value);
}

#[test]
fn replication_level_stays_bounded_over_time() {
    // Regression: data stabilization must not let replicas creep along
    // the section (only the replica-set anchor re-replicates). After many
    // stabilization cycles the holder count stays near the configured
    // replication level.
    let (mut rt, addrs) = spawn_verdi::<Fast, _>(15);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let key = do_put(&mut rt, addrs[0], payload(6));
    let holders = |rt: &Runtime<DhtEngine<Fast>, UniformLatency>| {
        addrs.iter().filter(|&&a| rt.node(a).is_some_and(|n| n.store().contains(key))).count()
    };
    rt.run_until(rt.now() + SimDuration::from_secs(60));
    let early = holders(&rt);
    // Twenty more stabilization cycles.
    rt.run_until(rt.now() + SimDuration::from_secs(1200));
    let late = holders(&rt);
    assert!(late <= early + 2, "replicas crept from {early} to {late} holders over 20 cycles");
    // Both replica points populated: at least n/2 + n/2 holders..
    assert!(early >= 6, "expected both sections replicated, got {early}");
}
