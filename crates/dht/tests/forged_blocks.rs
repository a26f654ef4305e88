//! A block that does not hash to the key it travels under is rejected on
//! every receive path (paper §5.1: a malicious replica cannot substitute
//! data).
//!
//! A sender cannot attach a key of its choice to bytes of its choice: the
//! payload type is [`Block`], whose only constructor hashes what it is
//! given. So a forgery is a block built from other bytes than the key
//! names. Each case hand-delivers one such message into a node's handler and
//! checks what the node did: nothing stored, nothing forwarded, the
//! sender told no, the cache left alone. Each case also delivers the
//! genuine block the same way, so "nothing happened" cannot pass by
//! accident.

use bytes::Bytes;

use verme_chord::proto::HEADER_BYTES as HDR;
use verme_chord::Id;
use verme_core::{Payload, VermeNode};
use verme_dht::compromise::CompExt;
use verme_dht::verme::CrossMsg;
use verme_dht::{
    block_key, keys, Block, Compromise, Dhash, DhtConfig, DhtEngine, DhtMsg, DhtNode, DhtTimer,
    Fast, Secure, SecurePayload, Variant,
};
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, Node, Runtime, SimDuration, SimTime};

mod common;
use common::{Ring, HOP};

const N: usize = 96;

/// Every ring here runs on the uniform test network.
type Rt<N> = Runtime<N, UniformLatency>;

fn genuine() -> Bytes {
    Bytes::from(vec![7u8; 1024])
}

/// Bytes that do not hash to `block_key(&genuine())`.
fn substituted() -> Bytes {
    Bytes::from(vec![9u8; 1024])
}

fn settle<N: Node>(rt: &mut Rt<N>) {
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
}

fn run_for<N: Node>(rt: &mut Rt<N>, d: SimDuration) {
    rt.run_until(rt.now() + d);
}

/// Hands `msg` to `to`'s message handler as if `from` had sent it.
fn deliver<N: Node>(rt: &mut Rt<N>, to: Addr, from: Addr, msg: N::Msg) {
    rt.invoke(to, |n, ctx| n.on_message(from, msg, ctx)).expect("target is alive");
}

/// What has been handed to the network so far.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Traffic {
    msgs: u64,
    bytes: u64,
    /// The share of `bytes` charged to replication and repair.
    background: u64,
}

fn traffic<N: Node>(rt: &Rt<N>) -> Traffic {
    let s = rt.stats();
    Traffic {
        msgs: s.messages_sent,
        bytes: s.bytes_sent,
        background: rt.metrics().counter(keys::BYTES_REPLICATION),
    }
}

fn put_ok<N: DhtNode>(rt: &mut Rt<N>, who: Addr, value: Bytes) -> Id {
    rt.invoke(who, |n, ctx| n.start_put(value, ctx)).unwrap();
    run_for(rt, SimDuration::from_secs(40));
    let outs = rt.node_mut(who).unwrap().take_op_outcomes();
    assert!(outs.len() == 1 && outs[0].ok, "put failed");
    outs[0].key
}

fn get_ok<N: DhtNode>(rt: &mut Rt<N>, who: Addr, key: Id) -> Bytes {
    rt.invoke(who, |n, ctx| n.start_get(key, ctx)).unwrap();
    run_for(rt, SimDuration::from_secs(40));
    let outs = rt.node_mut(who).unwrap().take_op_outcomes();
    assert!(outs.len() == 1 && outs[0].ok, "get failed");
    outs[0].value.clone().expect("gets return the value")
}

fn holders<V: Variant>(rt: &Rt<DhtEngine<V>>, key: Id) -> usize {
    rt.alive_addrs().filter(|&a| rt.node(a).unwrap().store().contains(key)).count()
}

/// A node that does not hold `key` and is none of `not`.
fn non_holder<V: Variant>(rt: &Rt<DhtEngine<V>>, addrs: &[Addr], key: Id, not: &[Addr]) -> Addr {
    *addrs
        .iter()
        .find(|&&a| !not.contains(&a) && !rt.node(a).unwrap().store().contains(key))
        .expect("most nodes hold nothing")
}

#[test]
fn substituted_store_is_nacked_and_leaves_no_trace() {
    let cfg = DhtConfig { cache_enabled: true, ..DhtConfig::default() };
    let (mut rt, addrs) = common::spawn_dhash(N, 11, &cfg);
    settle(&mut rt);
    let (writer, client) = (addrs[2], addrs[3]);
    let key = put_ok(&mut rt, writer, genuine());
    // The target caches the genuine block without storing it.
    let target = non_holder(&rt, &addrs, key, &[writer, client]);
    assert_eq!(get_ok(&mut rt, target, key), genuine());
    assert_eq!(rt.metrics().counter(keys::CACHE_HITS), 0);

    // The client has a put pending under `op`, so the target's answer to
    // a store carrying that id lands on a live operation.
    let op = rt.invoke(client, |n, ctx| n.start_put(genuine(), ctx)).unwrap();
    let before = traffic(&rt);
    let forged =
        DhtMsg::Store { op, key, value: Block::new(substituted()), attempt: 0, repair: false };
    deliver(&mut rt, target, client, forged);
    let after = traffic(&rt);
    // One message left the target — the ack — and no replica copy did.
    assert_eq!(after.msgs - before.msgs, 1);
    assert_eq!(after.bytes - before.bytes, (HDR + 9) as u64);
    assert_eq!(after.background, before.background, "a refused store must not be replicated");
    assert!(!rt.node(target).unwrap().store().contains(key));
    assert_eq!(rt.node(target).unwrap().stored_blocks(), 0);
    assert_eq!(rt.metrics().counter(keys::CACHE_INVALIDATIONS), 0);
    // The ack said no: one hop later the client's attempt has failed. (The
    // genuine store cannot be acknowledged before two hops have passed.)
    run_for(&mut rt, HOP + HOP / 2);
    assert_eq!(rt.metrics().counter(keys::OP_RETRIES), 1);

    run_for(&mut rt, SimDuration::from_secs(40));
    // The cache entry for the key survived the refused store ...
    assert_eq!(get_ok(&mut rt, target, key), genuine());
    assert_eq!(rt.metrics().counter(keys::CACHE_HITS), 1);
    // ... and the genuine block delivered the same way is stored,
    // replicated and drops it.
    let before = traffic(&rt);
    let honest =
        DhtMsg::Store { op: 99, key, value: Block::new(genuine()), attempt: 0, repair: false };
    deliver(&mut rt, target, client, honest);
    assert!(rt.node(target).unwrap().store().contains(key));
    assert!(traffic(&rt).background > before.background);
    assert_eq!(rt.metrics().counter(keys::CACHE_INVALIDATIONS), 1);
}

/// `Replicate` of a substituted block stores nothing, answers nothing and
/// leaves the cached copy alone; the genuine block is stored and evicts it.
fn replicate_case<V: Variant>((mut rt, addrs): Ring<DhtEngine<V>>) {
    settle(&mut rt);
    let (writer, peer) = (addrs[2], addrs[6]);
    let key = put_ok(&mut rt, writer, genuine());
    // The target caches the genuine block without storing it.
    let target = non_holder(&rt, &addrs, key, &[writer, peer]);
    assert_eq!(get_ok(&mut rt, target, key), genuine());
    let before = traffic(&rt);
    deliver(&mut rt, target, peer, DhtMsg::Replicate { key, value: Block::new(substituted()) });
    assert_eq!(traffic(&rt), before);
    assert_eq!(rt.node(target).unwrap().stored_blocks(), 0);
    assert_eq!(rt.metrics().counter(keys::CACHE_INVALIDATIONS), 0);
    deliver(&mut rt, target, peer, DhtMsg::Replicate { key, value: Block::new(genuine()) });
    assert!(rt.node(target).unwrap().store().contains(key));
    assert_eq!(rt.metrics().counter(keys::CACHE_INVALIDATIONS), 1);
}

#[test]
fn substituted_replicate_is_dropped() {
    let cfg = DhtConfig { cache_enabled: true, ..DhtConfig::default() };
    replicate_case::<Dhash>(common::spawn_dhash(N, 12, &cfg));
    assert!(common::every_section_populated(N, 12));
    replicate_case::<Secure>(common::spawn_verdi(N, 12, &cfg));
}

fn fetch_reply_case(hop_suspicion: bool) {
    let cfg = DhtConfig { hop_suspicion, ..DhtConfig::default() };
    let (mut rt, addrs) = common::spawn_dhash(N, 13, &cfg);
    settle(&mut rt);
    let key = put_ok(&mut rt, addrs[2], genuine());
    let (client, liar) = (addrs[40], addrs[41]);
    let op = rt.invoke(client, |n, ctx| n.start_get(key, ctx)).unwrap();
    let reply = DhtMsg::FetchReply { op, value: Some(Block::new(substituted())) };
    deliver(&mut rt, client, liar, reply);
    // The attempt failed and a retry is scheduled; nothing completed.
    assert_eq!(rt.metrics().counter(keys::OP_RETRIES), 1);
    assert_eq!(rt.metrics().counter(keys::LOOKUPS_HIJACKED), u64::from(hop_suspicion));
    assert!(rt.node_mut(client).unwrap().take_op_outcomes().is_empty());
    // The operation still ends with the genuine block.
    run_for(&mut rt, SimDuration::from_secs(40));
    let outs = rt.node_mut(client).unwrap().take_op_outcomes();
    assert_eq!(outs.len(), 1);
    assert!(outs[0].ok);
    assert_eq!(outs[0].value, Some(genuine()));
}

#[test]
fn substituted_fetch_reply_fails_the_attempt_and_retries() {
    fetch_reply_case(false);
    fetch_reply_case(true);
}

/// The first ring position whose ring successor shares its section, so a
/// copy accepted there has an in-section peer to replicate to.
fn with_section_successor<V, P>(rt: &Rt<DhtEngine<V>>, addrs: &[Addr]) -> usize
where
    V: Variant<Overlay = VermeNode<P>>,
    P: Payload,
{
    let id = |i: usize| rt.node(addrs[i]).unwrap().overlay().id();
    (0..addrs.len() - 1)
        .find(|&i| common::layout().same_section(id(i), id(i + 1)))
        .expect("some section has two members")
}

/// `CrossCopy` of a substituted block: refused, not stored, not replicated.
fn cross_copy_case<V>(wrap: fn(CrossMsg) -> V::Ext)
where
    V: Variant<Overlay = VermeNode<()>>,
{
    let (mut rt, addrs) = common::spawn_verdi::<V, ()>(N, 14, &DhtConfig::default());
    settle(&mut rt);
    let key = block_key(&genuine());
    let at = with_section_successor(&rt, &addrs);
    let (target, peer) = (addrs[at], addrs[(at + N / 2) % N]);
    let before = traffic(&rt);
    let forged =
        CrossMsg::CrossCopy { xid: 1, key, value: Block::new(substituted()), repair: false };
    deliver(&mut rt, target, peer, DhtMsg::Ext(wrap(forged)));
    let after = traffic(&rt);
    assert_eq!(after.msgs - before.msgs, 1, "only the ack leaves");
    assert_eq!(after.bytes - before.bytes, (HDR + 9) as u64);
    assert_eq!(after.background, before.background, "a refused copy must not be replicated");
    assert_eq!(rt.node(target).unwrap().stored_blocks(), 0);

    let honest = CrossMsg::CrossCopy { xid: 2, key, value: Block::new(genuine()), repair: false };
    deliver(&mut rt, target, peer, DhtMsg::Ext(wrap(honest)));
    assert!(rt.node(target).unwrap().store().contains(key));
    assert!(
        traffic(&rt).background > after.background,
        "an accepted copy is replicated in-section"
    );
}

#[test]
fn substituted_cross_copy_is_refused() {
    cross_copy_case::<Fast>(|m| m);
    cross_copy_case::<Compromise>(CompExt::Cross);
}

/// Starts a bare overlay lookup from `from` carrying `payload`, the way a
/// node that lies about its put would.
fn piggyback(rt: &mut Rt<DhtEngine<Secure>>, from: Addr, key: Id, payload: SecurePayload) {
    rt.invoke(from, |n, ctx| {
        let overlay = n.overlay_mut();
        ctx.nested(
            |ictx| overlay.start_replica_lookup(key, Some(payload), ictx),
            DhtMsg::Overlay,
            DhtTimer::Overlay,
        )
    })
    .expect("sender is alive");
}

#[test]
fn substituted_piggybacked_put_is_refused() {
    assert!(common::every_section_populated(N, 15));
    let (mut rt, addrs) = common::spawn_verdi::<Secure, _>(N, 15, &DhtConfig::default());
    settle(&mut rt);
    let key = block_key(&genuine());
    let forged = SecurePayload::PutReq { key, value: Block::new(substituted()) };
    piggyback(&mut rt, addrs[4], key, forged);
    run_for(&mut rt, SimDuration::from_secs(10));
    assert_eq!(holders(&rt, key), 0);
    assert!(addrs.iter().all(|&a| rt.node(a).unwrap().stored_blocks() == 0));
    assert_eq!(rt.metrics().counter(keys::BYTES_REPLICATION), 0);

    let honest = SecurePayload::PutReq { key, value: Block::new(genuine()) };
    piggyback(&mut rt, addrs[4], key, honest);
    run_for(&mut rt, SimDuration::from_secs(10));
    assert!(holders(&rt, key) >= 1, "the same path stores the genuine block");
}

#[test]
fn relay_forwards_none_for_a_substituted_fetch_answer() {
    assert!(common::every_section_populated(N, 16));
    let cfg = DhtConfig { hop_suspicion: true, ..DhtConfig::default() };
    let (mut rt, addrs) = common::spawn_verdi::<Compromise, _>(N, 16, &cfg);
    settle(&mut rt);
    let key = block_key(&genuine());
    let relay_of = |rt: &Rt<DhtEngine<Compromise>>, a: Addr| {
        rt.node(a).unwrap().overlay().route_first_hop(key).map(|h| h.addr)
    };
    // Clients that have a relay for this key (ROADMAP: the key's own
    // predecessor has none).
    let mut routable = addrs.iter().copied().filter(|&a| relay_of(&rt, a).is_some());
    let (writer, client) = (routable.next().unwrap(), routable.next().unwrap());
    assert_eq!(put_ok(&mut rt, writer, genuine()), key);

    let relay = relay_of(&rt, client).unwrap();
    rt.invoke(client, |n, ctx| n.start_get(key, ctx)).unwrap();
    // One hop: the relay has accepted the request and opened a job; its
    // fetch cannot have been answered yet.
    run_for(&mut rt, HOP + HOP / 4);
    let job = rt.node(relay).unwrap().observed_clients().len() as u64 - 1;
    let before = traffic(&rt);
    let reply = DhtMsg::FetchReply { op: job, value: Some(Block::new(substituted())) };
    deliver(&mut rt, relay, addrs[0], reply);
    let after = traffic(&rt);
    // The relay's reply to the client carries no block.
    assert_eq!(after.msgs - before.msgs, 1);
    assert_eq!(after.bytes - before.bytes, (HDR + 8 + 1) as u64);
    // The client sees a missing block: suspected hijack, retry.
    run_for(&mut rt, HOP);
    assert_eq!(rt.metrics().counter(keys::LOOKUPS_HIJACKED), 1);
    assert_eq!(rt.metrics().counter(keys::OP_RETRIES), 1);
    run_for(&mut rt, SimDuration::from_secs(40));
    let outs = rt.node_mut(client).unwrap().take_op_outcomes();
    assert_eq!(outs.len(), 1);
    assert!(outs[0].ok);
    assert_eq!(outs[0].value, Some(genuine()));
}
