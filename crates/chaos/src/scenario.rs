//! Self-contained trial scenarios: one schedule in, one verdict out.
//!
//! [`run_trial`] is the pure function the whole plane is built on:
//! `(scenario, schedule, seed) → OracleReport`, with no hidden inputs.
//! Everything the simulation touches — identifiers, fault timing,
//! restart recovery, lookup keys — derives from the one seed, so a
//! repro file replays to the identical verdict on any machine.

use std::collections::BTreeMap;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::Rng;

use verme_chord::{
    check_ring, ring_converged, ChordConfig, ChordNode, Id, MaintenanceMode, NodeHandle, RingNode,
    RingStance, StaticRing,
};
use verme_dht::{block_key, DhashNode, DhtConfig, DhtNode, DurabilityCensus};
use verme_obs::ring as ring_keys;
use verme_sim::fault::{join_via_live_bootstrap, Fault, FaultHooks, FaultPlan, FaultRunner};
use verme_sim::runtime::UniformLatency;
use verme_sim::{
    Addr, AssertorVerdict, HostId, LatencyModel, Node, Recovery, RestartPhase, Runtime, SeedSource,
    SimDuration, SimTime, StepAssertor,
};

use crate::oracle::{self, OracleReport};
use crate::profile::schedule_start;

/// Per-hop one-way latency of the uniform network.
const HOP: SimDuration = SimDuration::from_millis(20);

/// Maintenance breathing room after the last fault's direct effects end,
/// before the oracles take their end-of-run measurements.
const SETTLE_TAIL: SimDuration = SimDuration::from_secs(90);

/// Post-fault lookups issued per trial (each from two far-apart issuers).
const LOOKUPS: usize = 6;

/// What a trial simulates and which oracles judge it. Scenarios carry
/// their own sizing so a serialized repro is self-describing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// A finger-starved Chord ring under the continuous ring-invariant
    /// assertor, judged by the ring, lookup-liveness, and routing
    /// agreement oracles. `Legacy` maintenance is the known-buggy
    /// positive control; `Corrected` must survive every schedule.
    Ring {
        /// Maintenance rules under test.
        mode: MaintenanceMode,
        /// Overlay size.
        nodes: usize,
        /// Successor-list length (kept short so burst arcs can exceed it).
        num_successors: usize,
    },
    /// A DHash-over-Chord cell with seeded blocks, judged by the
    /// durability census: any block with zero live holders at the end is
    /// a finding. With `repair` off this is the known-lossy positive
    /// control; with it on, the repair plane absorbs the attrition.
    Durability {
        /// Whether the replica-repair plane runs.
        repair: bool,
        /// Overlay size.
        nodes: usize,
        /// Blocks seeded before faults start.
        blocks: usize,
    },
}

impl Scenario {
    /// The standard ring scenario at chaos scale.
    pub fn ring(mode: MaintenanceMode) -> Self {
        Scenario::Ring { mode, nodes: 48, num_successors: 3 }
    }

    /// The standard durability scenario at chaos scale.
    pub fn durability(repair: bool) -> Self {
        Scenario::Durability { repair, nodes: 48, blocks: 12 }
    }

    /// Table label.
    pub fn label(&self) -> String {
        match self {
            Scenario::Ring { mode, .. } => match mode {
                MaintenanceMode::Legacy => "ring/legacy".into(),
                MaintenanceMode::Corrected => "ring/corrected".into(),
            },
            Scenario::Durability { repair, .. } => {
                if *repair {
                    "durability/repair-on".into()
                } else {
                    "durability/repair-off".into()
                }
            }
        }
    }
}

/// Runs one trial: builds the scenario's simulation from `seed`, executes
/// `schedule` through a [`FaultRunner`], and evaluates the scenario's
/// oracle set. Pure in `(scenario, schedule, seed)`.
pub fn run_trial(scenario: &Scenario, schedule: &[Fault], seed: u64) -> OracleReport {
    let mut plan = FaultPlan::new();
    for f in schedule {
        plan = plan.with(f.clone());
    }
    if let Err(e) = check_sizes(scenario).and_then(|()| plan.validate()) {
        // Hand-edited repro files fail loudly but deterministically.
        let mut report = OracleReport::default();
        report.flag(oracle::INVALID_SCHEDULE, e);
        return report;
    }
    let end = schedule.iter().map(Fault::end).max().unwrap_or_else(schedule_start);
    match *scenario {
        Scenario::Ring { mode, nodes, num_successors } => {
            run_ring(mode, nodes, num_successors, plan, end, seed)
        }
        Scenario::Durability { repair, nodes, blocks } => {
            run_durability(repair, nodes, blocks, plan, end, seed)
        }
    }
}

/// Rejects the sizes no trial can be built at: an empty overlay, or a
/// Chord successor list of length 0. Generated scenarios never use them;
/// a hand-edited repro file can.
fn check_sizes(scenario: &Scenario) -> Result<(), String> {
    let (nodes, num_successors) = match *scenario {
        Scenario::Ring { nodes, num_successors, .. } => (nodes, Some(num_successors)),
        Scenario::Durability { nodes, .. } => (nodes, None),
    };
    if nodes == 0 {
        return Err("scenario field `nodes` is 0: a ring needs at least one node".into());
    }
    if num_successors == Some(0) {
        return Err("scenario field `num_successors` is 0: Chord needs a successor".into());
    }
    Ok(())
}

/// Builds the continuous ring-invariant assertor for node type `N`: the
/// check of the invariant from Zave's "How to Make Chord Correct" after
/// every processed event.
///
/// The full [`check_ring`] evaluation runs only when a cheap global
/// fingerprint changes — the live-node count plus the wrapping sum over
/// nodes of the two things the invariant's inputs move with, the neighbor
/// epoch and the joined flag — so event storms that do not move ring
/// state cost one O(nodes) sum instead of a full cycle check. The check
/// reads each node's id, joined flag and successor list from its
/// [`RingCore`](verme_chord::RingCore), into stances kept from one check
/// to the next.
pub fn ring_assertor<N: Node + RingNode>() -> StepAssertor<N> {
    let mut last: Option<(usize, u64)> = None;
    let mut stances: Vec<RingStance> = Vec::new();
    Box::new(move |view| {
        let mut count = 0usize;
        let mut sum = 0u64;
        for (_, node) in view.nodes() {
            count += 1;
            let ring = node.ring();
            let digest =
                ring.neighbor_epoch().wrapping_mul(2).wrapping_add(u64::from(ring.is_joined()));
            sum = sum.wrapping_add(digest);
        }
        if last == Some((count, sum)) {
            return AssertorVerdict::empty();
        }
        last = Some((count, sum));
        stances.resize_with(count, RingStance::default);
        for (stance, (_, node)) in stances.iter_mut().zip(view.nodes()) {
            let ring = node.ring();
            stance.id = ring.id().raw();
            stance.joined = ring.is_joined();
            stance.successors.clear();
            stance.successors.extend(ring.successors().iter().map(|h| h.id.raw()));
        }
        let report = check_ring(&stances);
        AssertorVerdict {
            counts: vec![(ring_keys::INVARIANT_VIOLATIONS, report.violations.len() as u64)],
            records: vec![
                (ring_keys::APPENDAGE_NODES, report.appendage_nodes as f64),
                (ring_keys::WEDGED, report.wedged as f64),
            ],
        }
    })
}

/// Seeds `blocks` blocks of `block_size` bytes (at least 8: the block
/// number leads) while the overlay is still fault-free: each is put from
/// a member of `addrs` drawn from `rng` and given 5 simulated seconds.
/// Returns the keys of the puts that reported success, in block order.
///
/// # Panics
///
/// Panics if a drawn member is not alive.
pub fn seed_blocks<N: DhtNode, L: LatencyModel>(
    rt: &mut Runtime<N, L>,
    addrs: &[Addr],
    rng: &mut StdRng,
    blocks: usize,
    block_size: usize,
) -> Vec<Id> {
    let mut seeded = Vec::with_capacity(blocks);
    for blkno in 0..blocks {
        let who = addrs[rng.gen_range(0..addrs.len())];
        let mut value = vec![0u8; block_size];
        value[..8].copy_from_slice(&(blkno as u64).to_le_bytes());
        let value = Bytes::from(value);
        let key = block_key(&value);
        rt.invoke(who, |n, ctx| n.start_put(value, ctx)).expect("alive");
        rt.run_until(rt.now() + SimDuration::from_secs(5));
        let outs = rt.node_mut(who).expect("alive").take_op_outcomes();
        if outs.iter().any(|o| o.ok) {
            seeded.push(key);
        }
    }
    seeded
}

/// Checkpoint state for a restarting Chord node.
type Checkpoint = (Id, Option<NodeHandle>, Vec<NodeHandle>);

/// Binds the fault runner to a trial whose nodes are Chord overlays built
/// from `cfg` and wrapped by `wrap` (the identity for a bare ring,
/// `DhashNode::new(_, dht_cfg)` for a storage cell); `overlay` reads the
/// Chord node back out for the restart checkpoint.
///
/// Joins draw from `seed`'s `"joins"` stream through a live member of
/// `addrs`, selectors read `addrs` as ring order, and a burst counts as
/// healed once [`ring_converged`]. A restarted node comes back under the same identifier: with
/// its ring pointers under Persisted recovery (the stale-state re-admit
/// path), or through a full two-phase join under Amnesia. Whatever `wrap`
/// adds starts fresh either way — a storage node returns with an empty
/// block store, and the repair plane must notice and re-replicate what
/// it held.
pub fn chord_hooks<N: Node + RingNode + 'static>(
    addrs: &[Addr],
    seed: u64,
    cfg: ChordConfig,
    overlay: fn(&N) -> &ChordNode,
    wrap: impl Fn(ChordNode) -> N + Clone + 'static,
) -> FaultHooks<N, UniformLatency> {
    let (join_cfg, join_wrap) = (cfg.clone(), wrap.clone());
    let restart_boot = addrs.to_vec();
    let mut saved: BTreeMap<Addr, Checkpoint> = BTreeMap::new();
    FaultHooks {
        join: join_via_live_bootstrap(
            addrs.to_vec(),
            SeedSource::new(seed).stream("joins"),
            move |rng, bootstrap| {
                join_wrap(ChordNode::joining(Id::random(rng), join_cfg.clone(), bootstrap))
            },
        ),
        victim_order: addrs.to_vec(),
        ring_converged: Box::new(ring_converged),
        restart: Box::new(move |rt, _rng, addr, recovery, phase| match phase {
            RestartPhase::Checkpoint => {
                if let Some(o) = rt.node(addr).map(overlay) {
                    saved.insert(addr, (o.id(), o.predecessor(), o.successor_list().to_vec()));
                }
                None
            }
            RestartPhase::Rejoin => {
                let (id, pred, succs) = saved.remove(&addr)?;
                let host = rt.host_of(addr).unwrap_or(HostId(0));
                let node = match recovery {
                    Recovery::Amnesia => {
                        let bootstrap = restart_boot.iter().copied().find(|&a| rt.is_alive(a))?;
                        ChordNode::joining(id, cfg.clone(), bootstrap)
                    }
                    Recovery::Persisted => {
                        ChordNode::with_state(id, cfg.clone(), pred, &succs, &[])
                    }
                };
                Some(rt.spawn(host, wrap(node)))
            }
        }),
        ..FaultHooks::inert()
    }
}

fn run_ring(
    mode: MaintenanceMode,
    nodes: usize,
    num_successors: usize,
    plan: FaultPlan,
    schedule_end: SimTime,
    seed: u64,
) -> OracleReport {
    let horizon = schedule_end + SETTLE_TAIL;
    let cfg = ChordConfig {
        num_successors,
        maintenance: mode,
        // Finger-starved: an emptied successor list has no forward reseed
        // inside the trial, so the maintenance rules alone decide the
        // outcome — the regime where the legacy hazard is reachable.
        fix_fingers_interval: SimDuration::from_hours(2),
        ..ChordConfig::default()
    };
    let ring = StaticRing::random(nodes, seed);
    let mut rt = Runtime::new(UniformLatency::new(nodes, HOP), seed);
    rt.set_step_assertor(ring_assertor());
    let addrs = ring.spawn(&mut rt, |pos| {
        let pred = Some(ring.node(ring.predecessor_index(pos)));
        let succs = ring.successors_of(pos, cfg.num_successors);
        ChordNode::with_state(ring.node(pos).id, cfg.clone(), pred, &succs, &[])
    });

    let hooks = chord_hooks(&addrs, seed, cfg, |n| n, |overlay| overlay);

    rt.run_until(SimTime::ZERO + SimDuration::from_secs(5));
    let mut runner =
        FaultRunner::new(plan, hooks, SeedSource::new(seed), addrs.clone()).expect("validated");
    runner.run_until(&mut rt, horizon);
    drop(runner);

    let mut report = OracleReport::default();

    // Oracle: the continuous invariant assertor must never have fired.
    let violations = rt.metrics().counter(ring_keys::INVARIANT_VIOLATIONS);
    if violations > 0 {
        report.flag(oracle::RING_INVARIANT, format!("{violations} violations during the run"));
    }

    // Oracle: the settled end snapshot must satisfy the invariant.
    let end_stances: Vec<RingStance> =
        rt.alive_addrs().filter_map(|a| rt.node(a)).map(|n| n.ring_stance()).collect();
    let end = check_ring(&end_stances);
    if !end.ok() {
        let mut kinds: Vec<String> =
            end.violations.iter().map(|v| format!("{:?}", v.kind)).collect();
        kinds.sort();
        kinds.dedup();
        report.flag(oracle::RING_END, format!("end snapshot: {}", kinds.join("+")));
    }

    // Post-fault lookups: every issued lookup must produce an outcome
    // (liveness of the lookup state machine — completing *or* failing
    // cleanly both count), and when two far-apart issuers both complete a
    // lookup for the same key they must agree on the owner (disagreement
    // is the signature of a partitioned ring). The agreement clause only
    // applies when the end snapshot is fully healed: a finger-starved
    // cell legitimately keeps wedged survivors and appendages after a
    // burst that outruns the successor list, and those nodes resolving
    // different owners is correct behaviour, not a partition.
    let healed = end.ok() && end.wedged == 0 && end.appendage_nodes == 0;
    let live: Vec<Addr> = addrs
        .iter()
        .copied()
        .filter(|&a| rt.is_alive(a) && rt.node(a).is_some_and(|n| n.is_joined()))
        .collect();
    if live.len() >= 2 {
        let mut krng = SeedSource::new(seed).stream("chaos-lookup-keys");
        let keys: Vec<Id> = (0..LOOKUPS).map(|_| Id::random(&mut krng)).collect();
        let issuers: Vec<(Addr, Addr)> = (0..LOOKUPS)
            .map(|k| (live[k % live.len()], live[(k + live.len() / 2) % live.len()]))
            .collect();
        for (k, &key) in keys.iter().enumerate() {
            let (a, b) = issuers[k];
            rt.invoke(a, |n, ctx| {
                n.start_lookup(key, ctx);
            });
            if b != a {
                rt.invoke(b, |n, ctx| {
                    n.start_lookup(key, ctx);
                });
            }
        }
        rt.run_until(rt.now() + SimDuration::from_secs(60));
        let mut outcomes: BTreeMap<u64, Vec<(Id, Option<Id>)>> = BTreeMap::new();
        for &(a, b) in &issuers {
            for who in [a, b] {
                if let Some(outs) = rt.node_mut(who).map(|n| n.take_outcomes()) {
                    let entry = outcomes.entry(who.raw()).or_default();
                    for o in outs {
                        entry.push((o.key, o.result.map(|r| r.successors[0].id)));
                    }
                }
            }
        }
        for (k, &key) in keys.iter().enumerate() {
            let (a, b) = issuers[k];
            let of = |who: Addr| {
                outcomes
                    .get(&who.raw())
                    .and_then(|v| v.iter().find(|(okey, _)| *okey == key))
                    .map(|(_, owner)| *owner)
            };
            let oa = of(a);
            if oa.is_none() {
                report.flag(oracle::LOOKUP_LIVENESS, format!("lookup {k} produced no outcome"));
            }
            if b != a {
                let ob = of(b);
                if ob.is_none() {
                    report
                        .flag(oracle::LOOKUP_LIVENESS, format!("lookup {k}' produced no outcome"));
                }
                if let (Some(Some(x)), Some(Some(y))) = (oa, ob) {
                    if healed && x != y {
                        report.flag(
                            oracle::ROUTING_AGREEMENT,
                            format!("lookup {k}: issuers resolved different owners"),
                        );
                    }
                }
            }
        }
    }

    report
}

fn run_durability(
    repair: bool,
    nodes: usize,
    blocks: usize,
    plan: FaultPlan,
    schedule_end: SimTime,
    seed: u64,
) -> OracleReport {
    let horizon = schedule_end + SETTLE_TAIL;
    let dht_cfg = DhtConfig {
        repair_enabled: repair,
        repair_interval: SimDuration::from_secs(10),
        // Background data stabilization is parked beyond the trial so the
        // repair plane alone stands between churn and loss.
        data_stabilize_interval: SimDuration::from_secs(3_600),
        ..DhtConfig::default()
    };
    let chord_cfg = ChordConfig::default();
    let ring = StaticRing::random(nodes, seed);
    let mut rt = Runtime::new(UniformLatency::new(nodes, HOP), seed);
    let addrs = ring.spawn(&mut rt, |pos| {
        DhashNode::new(ring.build_node(pos, chord_cfg.clone()), dht_cfg.clone())
    });

    let hooks = chord_hooks(&addrs, seed, chord_cfg, DhashNode::overlay, move |overlay| {
        DhashNode::new(overlay, dht_cfg.clone())
    });

    rt.run_until(SimTime::ZERO + SimDuration::from_secs(5));
    let mut rng = SeedSource::new(seed).stream("workload");
    let seeded = seed_blocks(&mut rt, &addrs, &mut rng, blocks, 256);

    let mut report = OracleReport::default();
    if seeded.is_empty() {
        report.flag(oracle::DURABILITY, "no block survived fault-free seeding".into());
        return report;
    }

    let mut runner =
        FaultRunner::new(plan, hooks, SeedSource::new(seed), addrs.clone()).expect("validated");
    runner.run_until(&mut rt, horizon);
    drop(runner);

    // Oracle: every seeded block must still have at least one live
    // holder. (Under-replication is a gauge, not a violation — the next
    // repair round closes it.)
    let live: Vec<Addr> = rt.alive_addrs().collect();
    let stores: Vec<_> = live.iter().map(|&a| rt.node(a).expect("alive").store()).collect();
    let census = DurabilityCensus::take(seeded.iter().copied(), stores, 2);
    if census.lost > 0 {
        report.flag(
            oracle::DURABILITY,
            format!("{} of {} blocks have zero live holders", census.lost, census.keys),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{sample_plan, ChaosProfile};

    #[test]
    fn empty_schedule_passes_every_scenario() {
        for scenario in [
            Scenario::ring(MaintenanceMode::Legacy),
            Scenario::ring(MaintenanceMode::Corrected),
            Scenario::durability(false),
            Scenario::durability(true),
        ] {
            let report = run_trial(&scenario, &[], 7);
            assert!(report.pass(), "{}: fault-free trial must pass: {report:?}", scenario.label());
        }
    }

    #[test]
    fn trials_are_reproducible() {
        let profile = ChaosProfile::ring(48, 3);
        let schedule = sample_plan(&profile, 3);
        let scenario = Scenario::ring(MaintenanceMode::Corrected);
        let a = run_trial(&scenario, &schedule, 3);
        let b = run_trial(&scenario, &schedule, 3);
        assert_eq!(a, b, "same (scenario, schedule, seed) must reproduce the verdict");
    }

    #[test]
    fn invalid_schedules_fail_deterministically() {
        let scenario = Scenario::ring(MaintenanceMode::Corrected);
        let bad = vec![Fault::LossBurst {
            at: schedule_start(),
            duration: SimDuration::from_secs(5),
            rate: 1.5,
        }];
        let report = run_trial(&scenario, &bad, 1);
        assert_eq!(report.oracles(), vec![oracle::INVALID_SCHEDULE]);
        assert_eq!(report, run_trial(&scenario, &bad, 1));
    }

    #[test]
    fn sizes_no_trial_can_be_built_at_are_a_verdict_not_a_panic() {
        let corrected = MaintenanceMode::Corrected;
        for (scenario, field) in [
            (Scenario::Ring { mode: corrected, nodes: 0, num_successors: 3 }, "`nodes`"),
            (Scenario::Durability { repair: true, nodes: 0, blocks: 12 }, "`nodes`"),
            (Scenario::Ring { mode: corrected, nodes: 48, num_successors: 0 }, "`num_successors`"),
        ] {
            let report = run_trial(&scenario, &[], 7);
            assert_eq!(report.oracles(), vec![oracle::INVALID_SCHEDULE], "{scenario:?}");
            assert!(report.findings[0].detail.contains(field), "{scenario:?}: {report:?}");
            assert_eq!(report, run_trial(&scenario, &[], 7), "{scenario:?}");
        }
    }
}
