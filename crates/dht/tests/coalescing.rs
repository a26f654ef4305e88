//! Property tests for serving-side get coalescing (PR-7 workload plane).
//!
//! Two invariants, checked over random seeds and scripted churn:
//!
//! * **Single fetch, shared value** — when K gets for one key are in
//!   flight at a node, exactly one rides the overlay (the leader); the
//!   other K−1 park as waiters and every one of them observes the value
//!   the leader fetched, with `dht.gets.coalesced` counting exactly K−1.
//! * **No lost wakeups** — however the leader's operation ends (reply,
//!   retry exhaustion, deadline after its target died), every waiter
//!   receives an outcome. A node that issues G gets always collects G
//!   outcomes, even when scripted kills land mid-flight.

use bytes::Bytes;
use proptest::prelude::*;

use verme_chord::Id;
use verme_core::{Payload, VermeNode};
use verme_dht::{
    block_key, keys, Compromise, DhashNode, DhtConfig, DhtEngine, DhtNode, Fast, Secure, Variant,
};
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, Runtime, SimDuration, SimTime};

mod common;
use common::Ring;

const N: usize = 48;

fn coalescing_cfg() -> DhtConfig {
    DhtConfig { coalesce_gets: true, ..DhtConfig::default() }
}

fn spawn_dhash(seed: u64) -> Ring<DhashNode> {
    common::spawn_dhash(N, seed, &coalescing_cfg())
}

fn spawn_verdi<V, P>(seed: u64) -> Ring<DhtEngine<V>>
where
    V: Variant<Overlay = VermeNode<P>>,
    P: Payload,
{
    common::spawn_verdi(N, seed, &coalescing_cfg())
}

/// Puts one block fault-free and drains the put outcome so later reads
/// of the client's outcome queue see only the gets under test.
fn seed_block<Nd: DhtNode>(rt: &mut Runtime<Nd, UniformLatency>, addrs: &[Addr]) -> (Id, Bytes) {
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let value = Bytes::from(vec![7u8; 1024]);
    let key = block_key(&value);
    let who = addrs[0];
    let v = value.clone();
    rt.invoke(who, |n, ctx| n.start_put(v, ctx)).unwrap();
    rt.run_until(rt.now() + SimDuration::from_secs(20));
    assert!(
        rt.node_mut(who).unwrap().take_op_outcomes().iter().any(|o| o.ok),
        "fault-free seeding put failed"
    );
    // Let background replication settle before the churn scripts run.
    rt.run_until(rt.now() + SimDuration::from_secs(5));
    (key, value)
}

/// Issues `total` simultaneous gets for `key` at `client`, runs to
/// quiescence, and checks the shared-value + coalesce-count invariants.
fn check_shared_value<Nd: DhtNode>(
    rt: &mut Runtime<Nd, UniformLatency>,
    client: Addr,
    key: Id,
    value: &Bytes,
    total: usize,
) -> Result<(), TestCaseError> {
    for _ in 0..total {
        rt.invoke(client, |n, ctx| n.start_get(key, ctx)).unwrap();
    }
    rt.run_until(rt.now() + SimDuration::from_secs(60));
    let outs = rt.node_mut(client).unwrap().take_op_outcomes();
    prop_assert_eq!(outs.len(), total, "every get must resolve exactly once");
    for o in &outs {
        prop_assert!(o.ok, "fault-free coalesced get failed");
        prop_assert_eq!(o.value.as_ref(), Some(value), "waiter saw a different value");
    }
    let coalesced = rt.metrics().counter(keys::GETS_COALESCED);
    prop_assert_eq!(coalesced, total as u64 - 1, "exactly one get may ride the overlay");
    Ok(())
}

/// A churn round: issue a burst of gets, then kill a scripted node.
#[derive(Clone, Debug)]
struct Round {
    gets: usize,
    victim: u8,
}

fn rounds() -> impl Strategy<Value = Vec<Round>> {
    prop::collection::vec((1usize..5, any::<u8>()), 1..4)
        .prop_map(|v| v.into_iter().map(|(gets, victim)| Round { gets, victim }).collect())
}

/// Runs the churn script and checks that no get's wakeup is ever lost:
/// the client collects one outcome per issued get, and every successful
/// outcome carries the fetched block.
fn check_no_lost_wakeups<Nd: DhtNode>(
    rt: &mut Runtime<Nd, UniformLatency>,
    addrs: &[Addr],
    client: Addr,
    key: Id,
    value: &Bytes,
    script: &[Round],
) -> Result<(), TestCaseError> {
    let mut issued = 0usize;
    for round in script {
        for _ in 0..round.gets {
            rt.invoke(client, |n, ctx| n.start_get(key, ctx)).unwrap();
            issued += 1;
        }
        // Kill a scripted node (never the client) while the burst is in
        // flight, so leaders die, targets die, and deadlines fire.
        let mut live: Vec<Addr> =
            addrs.iter().copied().filter(|&a| a != client && rt.is_alive(a)).collect();
        live.sort_unstable_by_key(|a| a.raw());
        rt.kill(live[round.victim as usize % live.len()]);
        rt.run_until(rt.now() + SimDuration::from_secs(5));
    }
    // Past every retry and operation deadline.
    rt.run_until(rt.now() + SimDuration::from_secs(180));
    let outs = rt.node_mut(client).unwrap().take_op_outcomes();
    prop_assert_eq!(outs.len(), issued, "a waiter's wakeup was lost under churn");
    for o in &outs {
        if o.ok {
            prop_assert_eq!(o.value.as_ref(), Some(value), "waiter saw a different value");
        }
    }
    Ok(())
}

/// A leader that runs out of retries settles its waiters and frees the
/// key: with every replica of the key dead, a parked get fails when the
/// leader gives up, long before its own deadline, and a get issued after
/// that leads a fresh fetch instead of parking behind the dead leader.
#[test]
fn retry_exhaustion_settles_waiters_and_frees_the_key() {
    let (mut rt, addrs) = spawn_dhash(7);
    let (key, _) = seed_block(&mut rt, &addrs);
    let holders: Vec<Addr> = addrs
        .iter()
        .copied()
        .filter(|&a| rt.node(a).is_some_and(|n| n.store().contains(key)))
        .collect();
    assert!(!holders.is_empty(), "the seeded block has replicas");
    for &h in &holders {
        rt.kill(h);
    }
    // Let the ring route around the dead: each attempt then ends fast, on
    // a replica that lacks the block, and the retries run out early.
    rt.run_until(rt.now() + SimDuration::from_secs(120));
    let client = addrs.iter().copied().find(|&a| rt.is_alive(a)).unwrap();

    let t0 = rt.now();
    rt.invoke(client, |n, ctx| n.start_get(key, ctx)).unwrap();
    rt.invoke(client, |n, ctx| n.start_get(key, ctx)).unwrap();
    assert_eq!(rt.metrics().counter(keys::GETS_COALESCED), 1, "the second get parks");
    // Stop well short of the waiter's own deadline.
    let deadline = coalescing_cfg().op_deadline;
    rt.run_until(t0 + deadline / 2);
    let outs = rt.node_mut(client).unwrap().take_op_outcomes();
    assert_eq!(outs.len(), 2, "the waiter's failure must arrive with the leader's");
    assert!(outs.iter().all(|o| !o.ok), "no replica is alive");

    rt.invoke(client, |n, ctx| n.start_get(key, ctx)).unwrap();
    assert_eq!(
        rt.metrics().counter(keys::GETS_COALESCED),
        1,
        "a get after the leader gave up must lead, not park behind it"
    );
}

proptest! {
    /// DHash: K simultaneous gets → one overlay fetch, K identical values.
    #[test]
    fn dhash_waiters_share_the_single_fetched_value(
        seed in 0u64..1_000_000,
        extra in 1usize..6,
    ) {
        let (mut rt, addrs) = spawn_dhash(seed);
        let (key, value) = seed_block(&mut rt, &addrs);
        check_shared_value(&mut rt, addrs[5], key, &value, extra + 1)?;
    }

    /// Fast-VerDi: same invariant on the typed-section data path.
    #[test]
    fn fast_verdi_waiters_share_the_single_fetched_value(
        seed in 0u64..1_000_000,
        extra in 1usize..6,
    ) {
        let (mut rt, addrs) = spawn_verdi::<Fast, _>(seed);
        let (key, value) = seed_block(&mut rt, &addrs);
        check_shared_value(&mut rt, addrs[5], key, &value, extra + 1)?;
    }

    /// Secure-VerDi: same invariant on the piggybacked-lookup path.
    #[test]
    fn secure_verdi_waiters_share_the_single_fetched_value(
        seed in 0u64..1_000_000,
        extra in 1usize..6,
    ) {
        let (mut rt, addrs) = spawn_verdi::<Secure, _>(seed);
        let (key, value) = seed_block(&mut rt, &addrs);
        check_shared_value(&mut rt, addrs[5], key, &value, extra + 1)?;
    }

    /// Compromise-VerDi: same invariant when the one fetch is a relayed
    /// request.
    #[test]
    fn compromise_verdi_waiters_share_the_single_fetched_value(
        seed in 0u64..1_000_000,
        extra in 1usize..6,
    ) {
        let (mut rt, addrs) = spawn_verdi::<Compromise, _>(seed);
        let (key, value) = seed_block(&mut rt, &addrs);
        check_shared_value(&mut rt, addrs[5], key, &value, extra + 1)?;
    }

    /// DHash: scripted mid-flight kills never lose a waiter's wakeup.
    #[test]
    fn dhash_no_lost_wakeups_under_churn(
        seed in 0u64..1_000_000,
        script in rounds(),
    ) {
        let (mut rt, addrs) = spawn_dhash(seed);
        let (key, value) = seed_block(&mut rt, &addrs);
        let client = addrs[5];
        check_no_lost_wakeups(&mut rt, &addrs, client, key, &value, &script)?;
    }

    /// Fast-VerDi: the same churn script on the typed replica sets.
    #[test]
    fn fast_verdi_no_lost_wakeups_under_churn(
        seed in 0u64..1_000_000,
        script in rounds(),
    ) {
        let (mut rt, addrs) = spawn_verdi::<Fast, _>(seed);
        let (key, value) = seed_block(&mut rt, &addrs);
        let client = addrs[5];
        check_no_lost_wakeups(&mut rt, &addrs, client, key, &value, &script)?;
    }

    /// Secure-VerDi: the same churn script on the piggybacked-lookup path.
    #[test]
    fn secure_verdi_no_lost_wakeups_under_churn(
        seed in 0u64..1_000_000,
        script in rounds(),
    ) {
        let (mut rt, addrs) = spawn_verdi::<Secure, _>(seed);
        let (key, value) = seed_block(&mut rt, &addrs);
        let client = addrs[5];
        check_no_lost_wakeups(&mut rt, &addrs, client, key, &value, &script)?;
    }

    /// Compromise-VerDi: the same churn script when relays die too.
    #[test]
    fn compromise_verdi_no_lost_wakeups_under_churn(
        seed in 0u64..1_000_000,
        script in rounds(),
    ) {
        // This case sequence samples a ring with an empty section, where
        // a VerDi put whose replica point falls there fails by design.
        prop_assume!(common::every_section_populated(N, seed));
        let (mut rt, addrs) = spawn_verdi::<Compromise, _>(seed);
        let (key, value) = seed_block(&mut rt, &addrs);
        let client = addrs[5];
        check_no_lost_wakeups(&mut rt, &addrs, client, key, &value, &script)?;
    }
}
