//! Property tests for the replica-repair plane: after an arbitrary churn
//! script (crashes and graceful leaves) followed by a quiet convergence
//! window, every surviving block sits on the placement the ring geometry
//! demands — recomputed here independently of the protocol state.
//!
//! The blind periodic data stabilization is pushed beyond the horizon in
//! every run, so the placements checked are the repair plane's work:
//! epoch-kicked repair rounds, orphan pulls, hinted handoff, and the
//! cross-section spot check.
//!
//! Placement oracles:
//!
//! * DHash — the first `min(replicas, live)` live nodes clockwise from
//!   the key (successor-set placement) must all hold it.
//! * Fast- and Compromise-VerDi — for each of the key's two replica
//!   points, the live in-section anchor (first member at/after the point,
//!   or the last member before it in the §5.2 corner) and its next
//!   `replicas / 2` live in-section followers must all hold it.
//!
//! Secure-VerDi has no oracle here because it has no such placement yet:
//! a piggybacked put executes on the node its lookup ends at — the key's
//! predecessor, which can sit in the *previous* section — and that node,
//! not the replica anchor, replicates to its own in-section successors
//! (ROADMAP, "Fix first"). Its repair plane is exercised in
//! `durability.rs` instead.
//!
//! Stale extra copies on nodes that *used* to be in a replica set are
//! permitted: repair re-replicates but never garbage-collects.

use bytes::Bytes;
use proptest::prelude::*;

use verme_chord::Id;
use verme_core::{Payload, VermeNode};
use verme_dht::{block_key, Compromise, DhtConfig, DhtEngine, DhtNode, Fast, Variant};
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, Runtime, SimDuration, SimTime};

mod common;

const N: usize = 48;
const BLOCKS: usize = 3;

/// One scripted departure: which live node (by index into the live set,
/// sorted by address) and how it goes.
#[derive(Clone, Debug)]
struct ChurnEvent {
    victim: u8,
    graceful: bool,
}

fn churn_script() -> impl Strategy<Value = Vec<ChurnEvent>> {
    prop::collection::vec((any::<u8>(), any::<bool>()), 1..6).prop_map(|v| {
        v.into_iter().map(|(victim, graceful)| ChurnEvent { victim, graceful }).collect()
    })
}

fn repair_cfg() -> DhtConfig {
    DhtConfig { data_stabilize_interval: SimDuration::from_secs(3_600), ..DhtConfig::default() }
}

/// Every node can put every key: DHash, Fast- and Secure-VerDi.
fn any_client<Nd>(_: &Nd, _: Id) -> bool {
    true
}

/// Seeds blocks fault-free, applies the churn script ten simulated
/// seconds apart, then leaves a quiet convergence window. Block `tag` is
/// put by the one client at ring position `17 * tag`, stepped clockwise
/// past nodes `can_put` rules out for that key.
fn drive<Nd: DhtNode>(
    rt: &mut Runtime<Nd, UniformLatency>,
    addrs: &[Addr],
    script: &[ChurnEvent],
    can_put: fn(&Nd, Id) -> bool,
) -> Vec<Id> {
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let mut keys = Vec::new();
    for tag in 0..BLOCKS as u8 {
        let value = Bytes::from(vec![tag; 1024]);
        let key = block_key(&value);
        let who = (0..addrs.len())
            .map(|step| addrs[(tag as usize * 17 + step) % addrs.len()])
            .find(|&a| can_put(rt.node(a).unwrap(), key))
            .expect("some client can put the key");
        rt.invoke(who, |n, ctx| n.start_put(value, ctx)).unwrap();
        rt.run_until(rt.now() + SimDuration::from_secs(10));
        assert!(
            rt.node_mut(who).unwrap().take_op_outcomes().iter().any(|o| o.ok),
            "fault-free put failed"
        );
        keys.push(key);
    }
    for ev in script {
        let mut live: Vec<Addr> = addrs.iter().copied().filter(|&a| rt.is_alive(a)).collect();
        live.sort_unstable_by_key(|a| a.raw());
        let target = live[ev.victim as usize % live.len()];
        if ev.graceful {
            rt.shutdown(target);
        } else {
            rt.kill(target);
        }
        rt.run_until(rt.now() + SimDuration::from_secs(10));
    }
    // Quiet window: stabilization purges the dead (30 s cadence, 2×
    // hop-timeout detection), then repair rounds re-replicate (15 s
    // cadence with retry-until-quiescent).
    rt.run_until(rt.now() + SimDuration::from_secs(240));
    keys
}

/// The dual-point placement oracle: after the churn script and the quiet
/// window, every surviving key sits on both typed replica sets — anchor
/// plus in-section followers at each replica point.
fn check_typed_placement<V, P>(
    seed: u64,
    script: &[ChurnEvent],
    can_put: fn(&DhtEngine<V>, Id) -> bool,
) -> Result<(), TestCaseError>
where
    V: Variant<Overlay = VermeNode<P>>,
    P: Payload,
{
    let cfg = repair_cfg();
    let lay = common::layout();
    let (mut rt, addrs) = common::spawn_verdi::<V, P>(N, seed, &cfg);

    let keys = drive(&mut rt, &addrs, script, can_put);

    let live: Vec<(Id, Addr)> = addrs
        .iter()
        .copied()
        .filter(|&a| rt.is_alive(a))
        .map(|a| (rt.node(a).unwrap().overlay().id(), a))
        .collect();
    for key in keys {
        let holders =
            live.iter().filter(|&&(_, a)| rt.node(a).unwrap().store().contains(key)).count();
        if holders == 0 {
            continue;
        }
        for point in [key, lay.paired_replica_point(key)] {
            // Live members of the point's section, ascending: the
            // section arc is contiguous, so raw-id order is ring
            // order within it.
            let mut members: Vec<(Id, Addr)> =
                live.iter().copied().filter(|&(id, _)| lay.same_section(id, point)).collect();
            if members.is_empty() {
                continue; // the whole typed section died
            }
            members.sort_unstable_by_key(|&(id, _)| id.raw());
            let anchor_pos = members
                .iter()
                .position(|&(id, _)| id.raw() >= point.raw())
                // §5.2 corner: the point is past every member, so the
                // last member before it anchors — with no in-section
                // followers after it.
                .unwrap_or(members.len() - 1);
            let expected: Vec<(Id, Addr)> =
                members.iter().copied().skip(anchor_pos).take(1 + cfg.replicas / 2).collect();
            for (id, a) in expected {
                prop_assert!(
                    rt.node(a).unwrap().store().contains(key),
                    "node {id:?} is in key {key:?}'s replica set at point {point:?} \
                     but lacks the block ({holders} holders, seed {seed}, script {script:?})"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    /// DHash: every surviving key ends up on the full live successor set.
    #[test]
    fn dhash_repair_converges_to_successor_placement(
        seed in 0u64..1_000_000,
        script in churn_script(),
    ) {
        let cfg = repair_cfg();
        let (mut rt, addrs) = common::spawn_dhash(N, seed, &cfg);

        let keys = drive(&mut rt, &addrs, &script, any_client);

        let live: Vec<(Id, Addr)> = addrs
            .iter()
            .copied()
            .filter(|&a| rt.is_alive(a))
            .map(|a| (rt.node(a).unwrap().overlay().id(), a))
            .collect();
        for key in keys {
            let holders = live
                .iter()
                .filter(|&&(_, a)| rt.node(a).unwrap().store().contains(key))
                .count();
            if holders == 0 {
                // The script can assassinate a full replica set faster
                // than repair rounds run; a lost key has no placement to
                // check. (The extI bench measures how rare this is.)
                continue;
            }
            let mut expected = live.clone();
            expected.sort_unstable_by_key(|&(id, _)| key.distance_to(id));
            expected.truncate(cfg.replicas.min(live.len()));
            for (id, a) in expected {
                prop_assert!(
                    rt.node(a).unwrap().store().contains(key),
                    "node {id:?} is in key {key:?}'s successor set but lacks the block \
                     ({holders} holders, script {script:?})"
                );
            }
        }
    }

    /// Fast-VerDi: every surviving key ends up on both typed replica sets.
    #[test]
    fn fast_verdi_repair_converges_to_typed_placement(
        seed in 0u64..1_000_000,
        script in churn_script(),
    ) {
        check_typed_placement::<Fast, _>(seed, &script, any_client)?;
    }

    /// Compromise-VerDi: the same dual-point placement, reached through
    /// relayed puts.
    #[test]
    fn compromise_verdi_repair_converges_to_typed_placement(
        seed in 0u64..1_000_000,
        script in churn_script(),
    ) {
        // A Compromise-VerDi client relays through its first hop towards
        // the key; the key's own predecessor has none and cannot put it.
        check_typed_placement::<Compromise, _>(seed, &script, |n, key| {
            n.overlay().route_first_hop(key).is_some()
        })?;
    }
}
