//! End-to-end tests for the replica-repair plane: active repair after
//! crashes, hinted handoff on graceful departure, and the accounting and
//! determinism guarantees both must uphold.
//!
//! Every ring here runs with the blind periodic data stabilization pushed
//! far beyond the test horizon, so any recovery observed is the repair
//! plane's doing — epoch-kicked repair rounds and handoff — not the
//! pre-existing re-replication timer.

use bytes::Bytes;

use verme_chord::Id;
use verme_core::{Payload, VermeNode};
use verme_dht::{
    block_key, keys, Compromise, DhashNode, DhtConfig, DhtEngine, DhtNode, Fast, FastVerDiNode,
    Secure, Variant,
};
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, Runtime, SimDuration, SimTime};

mod common;
use common::Ring;

const N: usize = 96;

/// Repair on, blind data stabilization effectively off.
fn repair_cfg() -> DhtConfig {
    DhtConfig { data_stabilize_interval: SimDuration::from_secs(3_600), ..DhtConfig::default() }
}

fn spawn_dhash(seed: u64, cfg: &DhtConfig) -> Ring<DhashNode> {
    common::spawn_dhash(N, seed, cfg)
}

fn spawn_verdi<V, P>(seed: u64, cfg: &DhtConfig) -> Ring<DhtEngine<V>>
where
    V: Variant<Overlay = VermeNode<P>>,
    P: Payload,
{
    common::spawn_verdi(N, seed, cfg)
}

fn do_put<Nd: DhtNode>(rt: &mut Runtime<Nd, UniformLatency>, who: Addr, value: Bytes) -> Id {
    let key = block_key(&value);
    rt.invoke(who, |n, ctx| n.start_put(value, ctx)).unwrap();
    rt.run_until(rt.now() + SimDuration::from_secs(10));
    let outs = rt.node_mut(who).unwrap().take_op_outcomes();
    assert!(outs.iter().any(|o| o.ok), "put failed");
    key
}

fn holders<Nd: DhtNode>(rt: &Runtime<Nd, UniformLatency>, addrs: &[Addr], key: Id) -> Vec<Addr> {
    addrs
        .iter()
        .copied()
        .filter(|&a| rt.is_alive(a) && rt.node(a).unwrap().store().contains(key))
        .collect()
}

#[test]
fn repair_restores_replication_after_crashes() {
    // With the blind stabilizer out of the picture, killing half the
    // holder set must still be healed — by repair rounds alone.
    let cfg = repair_cfg();
    let (mut rt, addrs) = spawn_dhash(31, &cfg);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let key = do_put(&mut rt, addrs[5], Bytes::from(vec![7u8; 2048]));
    rt.run_until(rt.now() + SimDuration::from_secs(5));

    let before = holders(&rt, &addrs, key);
    assert!(before.len() >= cfg.replicas, "seeding under-replicated: {}", before.len());
    for &h in before.iter().take(before.len() / 2) {
        rt.kill(h);
    }
    // A couple of repair windows: the kick fires 2 s after the overlay
    // notices, the periodic round every 15 s.
    rt.run_until(rt.now() + SimDuration::from_secs(120));

    let after = holders(&rt, &addrs, key);
    assert!(
        after.len() >= cfg.replicas,
        "repair never restored the replica set: {} live holders",
        after.len()
    );
    assert!(rt.metrics().counter(keys::REPAIR_ROUNDS) > 0, "no repair round probed");
    assert!(rt.metrics().counter(keys::REPAIR_PUSHED) > 0, "no block was re-replicated");
}

#[test]
fn fast_repair_restores_both_typed_sections() {
    let cfg = repair_cfg();
    let (mut rt, addrs) = spawn_verdi::<Fast, _>(32, &cfg);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let key = do_put(&mut rt, addrs[9], Bytes::from(vec![3u8; 2048]));
    rt.run_until(rt.now() + SimDuration::from_secs(5));

    let before = holders(&rt, &addrs, key);
    assert!(before.len() >= 4, "expected replicas in both sections, got {}", before.len());
    // Kill every holder of one node type — the whole typed half of the
    // replica set — leaving only the opposite-type section's copies.
    let doomed_type = rt.node(before[0]).unwrap().overlay().node_type();
    let survivors: Vec<Addr> = before
        .iter()
        .copied()
        .filter(|&h| rt.node(h).unwrap().overlay().node_type() != doomed_type)
        .collect();
    for &h in &before {
        if rt.node(h).unwrap().overlay().node_type() == doomed_type {
            rt.kill(h);
        }
    }
    // The cross-section spot check runs when the surviving anchor's own
    // neighborhood changes (repair rounds are epoch-triggered; a distant
    // section dying is invisible to it). Model that ambient churn by
    // crashing the first non-holder clockwise after the surviving run —
    // it sits in every survivor's successor list, so the anchor's epoch
    // is guaranteed to move.
    let sid =
        |rt: &Runtime<FastVerDiNode, UniformLatency>, a: Addr| rt.node(a).unwrap().overlay().id();
    let s0 = sid(&rt, survivors[0]);
    let last = survivors.iter().copied().max_by_key(|&s| s0.distance_to(sid(&rt, s))).unwrap();
    let lastid = sid(&rt, last);
    let victim = addrs
        .iter()
        .copied()
        .filter(|&a| rt.is_alive(a) && !before.contains(&a))
        .min_by_key(|&a| lastid.distance_to(sid(&rt, a)))
        .expect("a live non-holder exists");
    rt.kill(victim);
    rt.run_until(rt.now() + SimDuration::from_secs(180));

    // The cross-section spot check must have re-seeded the killed half:
    // holders of both types again.
    let mut types = std::collections::BTreeSet::new();
    for &a in &addrs {
        if rt.is_alive(a) && rt.node(a).unwrap().store().contains(key) {
            types.insert(rt.node(a).unwrap().overlay().node_type().index());
        }
    }
    assert_eq!(types.len(), 2, "repair left a typed section empty");
}

/// How the first holder of the test block leaves.
#[derive(Copy, Clone)]
enum Departure {
    Crash,
    Graceful,
}

/// Seeds one block, removes its first holder in ring order — in the
/// rings seeded here the anchor of a replica set — and checks that the shared
/// repair plane (epoch-kicked probe rounds after a crash, hinted handoff
/// on a graceful leave) brings the replica set back to full strength.
fn check_first_holder_departure<Nd: DhtNode>(
    mut rt: Runtime<Nd, UniformLatency>,
    addrs: Vec<Addr>,
    how: Departure,
) {
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let key = do_put(&mut rt, addrs[9], Bytes::from(vec![4u8; 2048]));
    rt.run_until(rt.now() + SimDuration::from_secs(5));
    let before = holders(&rt, &addrs, key);
    assert!(before.len() >= 4, "seeding under-replicated: {}", before.len());
    match how {
        Departure::Crash => rt.kill(before[0]),
        Departure::Graceful => rt.shutdown(before[0]),
    };
    rt.run_until(rt.now() + SimDuration::from_secs(120));

    let after = holders(&rt, &addrs, key);
    assert!(
        after.len() >= before.len(),
        "replica set not restored: {} live holders, {} before",
        after.len(),
        before.len()
    );
    match how {
        Departure::Crash => {
            assert!(rt.metrics().counter(keys::REPAIR_ROUNDS) > 0, "no repair round probed");
            assert!(rt.metrics().counter(keys::REPAIR_PUSHED) > 0, "no block was re-replicated");
        }
        Departure::Graceful => {
            assert!(rt.metrics().counter(keys::HANDOFF_BLOCKS) > 0, "no block was handed off");
        }
    }
}

#[test]
fn every_verdi_variant_heals_an_anchor_departure() {
    let cfg = repair_cfg();
    for how in [Departure::Crash, Departure::Graceful] {
        let (rt, addrs) = spawn_verdi::<Fast, _>(41, &cfg);
        check_first_holder_departure(rt, addrs, how);
        let (rt, addrs) = spawn_verdi::<Secure, _>(42, &cfg);
        check_first_holder_departure(rt, addrs, how);
        let (rt, addrs) = spawn_verdi::<Compromise, _>(43, &cfg);
        check_first_holder_departure(rt, addrs, how);
    }
}

#[test]
fn graceful_leave_hands_blocks_off() {
    let cfg = repair_cfg();
    let (mut rt, addrs) = spawn_dhash(33, &cfg);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let key = do_put(&mut rt, addrs[11], Bytes::from(vec![9u8; 2048]));
    rt.run_until(rt.now() + SimDuration::from_secs(5));

    let before = holders(&rt, &addrs, key);
    // Gracefully retire half the holder set; each hands its anchored
    // blocks to its heir on the way out.
    for &h in before.iter().take(before.len() / 2) {
        rt.shutdown(h);
    }
    rt.run_until(rt.now() + SimDuration::from_secs(120));

    assert!(rt.metrics().counter(keys::HANDOFF_BLOCKS) > 0, "no block was handed off");
    let after = holders(&rt, &addrs, key);
    assert!(
        after.len() >= cfg.replicas,
        "replication not restored after graceful leaves: {}",
        after.len()
    );
}

#[test]
fn handoff_bytes_are_background_only() {
    // Figure 7 counts only foreground data-plane traffic; departure
    // handoff (and the repair rounds it triggers) must all be charged to
    // the replication counter.
    let cfg = repair_cfg();
    let (mut rt, addrs) = spawn_dhash(34, &cfg);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let key = do_put(&mut rt, addrs[2], Bytes::from(vec![5u8; 2048]));
    rt.run_until(rt.now() + SimDuration::from_secs(5));

    let baseline = rt.metrics().counter_snapshot();
    let before = holders(&rt, &addrs, key);
    for &h in before.iter().take(2) {
        rt.shutdown(h);
    }
    rt.run_until(rt.now() + SimDuration::from_secs(120));

    let delta = rt.metrics().counter_delta(&baseline);
    let data = delta.get(keys::BYTES_DATA).copied().unwrap_or(0);
    let repl = delta.get(keys::BYTES_REPLICATION).copied().unwrap_or(0);
    let handed = delta.get(keys::HANDOFF_BLOCKS).copied().unwrap_or(0);
    assert!(handed > 0, "no block was handed off");
    assert!(repl > 0, "handoff sent no replication bytes");
    assert_eq!(data, 0, "departure recovery leaked {data} bytes into the foreground counter");
}

/// Drives a full graceful-churn scenario and fingerprints everything the
/// protocol produced.
fn graceful_run_fingerprint(seed: u64) -> String {
    let cfg = repair_cfg();
    let (mut rt, addrs) = spawn_dhash(seed, &cfg);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let mut keys_put = Vec::new();
    for tag in 0..4u8 {
        keys_put.push(do_put(&mut rt, addrs[tag as usize * 7], Bytes::from(vec![tag; 1024])));
    }
    // Retire a deterministic slice of the ring, interleaved with time.
    for (i, &a) in addrs.iter().step_by(11).enumerate() {
        rt.shutdown(a);
        rt.run_until(rt.now() + SimDuration::from_secs(10 + i as u64));
    }
    rt.run_until(rt.now() + SimDuration::from_secs(180));
    format!("{:?}|{:?}|{:?}", rt.now(), rt.stats(), rt.metrics().counter_snapshot())
}

#[test]
fn graceful_leave_runs_are_deterministic() {
    // Handoff picks heirs from overlay state, not from any ambient
    // randomness: the same seed must replay the whole run byte for byte.
    let a = graceful_run_fingerprint(35);
    let b = graceful_run_fingerprint(35);
    assert_eq!(a, b, "same-seed graceful-leave runs diverged");
}

#[test]
fn read_repair_triggers_on_failover() {
    // Crash the first-line replica so a get needs failover; the success
    // must then schedule a background read-repair charged to replication.
    let cfg = repair_cfg();
    let (mut rt, addrs) = spawn_dhash(36, &cfg);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let key = do_put(&mut rt, addrs[4], Bytes::from(vec![1u8; 2048]));
    rt.run_until(rt.now() + SimDuration::from_secs(5));

    // Repeatedly crash the current anchor and read until a failover
    // happens; under repair the read path heals what it finds broken.
    let mut read_repairs = 0;
    for round in 0..6 {
        let hs = holders(&rt, &addrs, key);
        if hs.is_empty() {
            break;
        }
        rt.kill(hs[0]);
        let reader = addrs[(round * 13 + 1) % N];
        if !rt.is_alive(reader) {
            continue;
        }
        rt.invoke(reader, |n, ctx| n.start_get(key, ctx)).unwrap();
        rt.run_until(rt.now() + SimDuration::from_secs(40));
        let _ = rt.node_mut(reader).unwrap().take_op_outcomes();
        read_repairs = rt.metrics().counter(keys::READ_REPAIR);
        if read_repairs > 0 {
            break;
        }
    }
    assert!(read_repairs > 0, "no failover get ever triggered a read-repair");
}
