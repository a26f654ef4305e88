//! Integration tests for the proven-correct ring-maintenance plane:
//! the correlated-burst wedge regression, the continuous invariant
//! assertor riding a real simulation, and property tests driving the
//! small-ring model through arbitrary event scripts.

use proptest::prelude::*;

use verme::chord::maintain::model::{ModelEvent, ModelParams, ModelState, Variant};
use verme::chord::{
    check_ring, ChordConfig, ChordNode, Id, MaintenanceMode, RingStance, StaticRing,
};
use verme::obs::ring as ring_keys;
use verme::sim::runtime::UniformLatency;
use verme::sim::{
    Addr, AssertorVerdict, HostId, Runtime, SampleView, SeedSource, SimDuration, SimTime,
};

const NODES: usize = 32;
const SUCCESSORS: usize = 3;

/// Builds a converged Chord ring *with finger tables* under the given
/// maintenance mode, with the continuous invariant assertor attached.
fn build_ring(
    mode: MaintenanceMode,
    seed: u64,
) -> (Runtime<ChordNode, UniformLatency>, Vec<Addr>, ChordConfig) {
    let cfg =
        ChordConfig { num_successors: SUCCESSORS, maintenance: mode, ..ChordConfig::default() };
    let ring = StaticRing::random(NODES, seed);
    let mut rt = Runtime::new(UniformLatency::new(NODES, SimDuration::from_millis(20)), seed);
    rt.set_step_assertor(Box::new(|view: &SampleView<'_, ChordNode>| {
        let stances: Vec<RingStance> = view.nodes().map(|(_, n)| n.ring_stance()).collect();
        let report = check_ring(&stances);
        AssertorVerdict {
            counts: vec![(ring_keys::INVARIANT_VIOLATIONS, report.violations.len() as u64)],
            records: vec![(ring_keys::WEDGED, report.wedged as f64)],
        }
    }));
    let addrs = ring.spawn(&mut rt, |pos| ring.build_node(pos, cfg.clone()));
    (rt, addrs, cfg)
}

fn end_report(rt: &Runtime<ChordNode, UniformLatency>) -> verme::chord::RingReport {
    let stances: Vec<RingStance> =
        rt.alive_addrs().filter_map(|a| rt.node(a)).map(|n| n.ring_stance()).collect();
    check_ring(&stances)
}

/// Drives the wedge scenario: a correlated burst kills a consecutive arc
/// longer than every successor list, so the arc's predecessor prunes to
/// empty and must recover through the `nearest_forward_finger` reseed.
fn wedge_scenario(mode: MaintenanceMode) -> (Runtime<ChordNode, UniformLatency>, u64) {
    let (mut rt, addrs, _) = build_ring(mode, 7);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    // Kill ring positions 1..=SUCCESSORS+1: node 0 loses its whole list.
    for &a in &addrs[1..SUCCESSORS + 2] {
        assert!(rt.kill(a));
    }
    rt.run_until(rt.now() + SimDuration::from_mins(5));
    let survivors = (NODES - SUCCESSORS - 1) as u64;
    (rt, survivors)
}

/// The wedge regression: under the corrected rules the finger reseed is
/// the *only* refill path for an emptied list, so the wedged survivor
/// re-acquires a forward pointer and stabilization walks the ring back
/// together — no wraps, no stranded appendages, and not a single
/// invariant violation along the way.
#[test]
fn burst_wedge_recovers_with_fingers_corrected() {
    let (rt, survivors) = wedge_scenario(MaintenanceMode::Corrected);
    let report = end_report(&rt);
    assert!(report.ok(), "post-recovery violations: {:?}", report.violations);
    assert_eq!(report.wedged, 0, "survivors left wedged");
    assert_eq!(report.appendage_nodes, 0, "survivors left off the cycle");
    assert_eq!(report.ring_len as u64, survivors, "ring does not cover all survivors");
    assert_eq!(
        rt.metrics().counter(ring_keys::INVARIANT_VIOLATIONS),
        0,
        "corrected maintenance violated the invariant during recovery"
    );
}

/// The same scenario under legacy rules: the predecessor's notify races
/// the finger reseed and refills the emptied list *backwards*, wrapping
/// the ring. The wrap is self-sustaining — stabilization keeps walking
/// behind the node forever — so survivors stay stranded off the
/// principal cycle. This is the hazard the corrected rules remove.
#[test]
fn burst_wedge_strands_legacy_survivors() {
    let (rt, _) = wedge_scenario(MaintenanceMode::Legacy);
    let report = end_report(&rt);
    assert!(
        report.appendage_nodes > 0,
        "legacy backwards refill should strand survivors off the cycle: {report:?}"
    );
}

/// A two-phase join followed by the joiner's immediate crash leaves no
/// residue: the ring reabsorbs without a single invariant violation.
#[test]
fn join_then_crash_leaves_no_residue() {
    let (mut rt, addrs, cfg) = build_ring(MaintenanceMode::Corrected, 13);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    let mut idrng = SeedSource::new(99).stream("joiner");
    let joiner = rt.spawn(HostId(0), ChordNode::joining(Id::random(&mut idrng), cfg, addrs[0]));
    rt.run_until(rt.now() + SimDuration::from_secs(60));
    assert!(rt.node(joiner).is_some_and(|n| n.is_joined()), "joiner never completed");
    assert!(rt.kill(joiner));
    rt.run_until(rt.now() + SimDuration::from_mins(3));
    let report = end_report(&rt);
    assert!(report.ok(), "post-crash violations: {:?}", report.violations);
    assert_eq!(report.ring_len, NODES, "ring does not cover the original nodes");
    assert_eq!(rt.metrics().counter(ring_keys::INVARIANT_VIOLATIONS), 0);
}

/// Decodes one fuzzed script entry into a model event over `slots`.
fn decode(op: u8, a: u8, b: u8, slots: usize) -> ModelEvent {
    let i = a % slots as u8;
    let c = b % slots as u8;
    match op {
        0 => ModelEvent::JoinStart(i),
        1 => ModelEvent::JoinFinish(i, c),
        2 => ModelEvent::Fail(i),
        _ => ModelEvent::Stabilize(i),
    }
}

proptest! {
    /// Arbitrary join/fail/stabilize scripts on 3–8 slot rings preserve
    /// the inductive invariant at every applied step, for both variants,
    /// under the corrected rules inside the redundancy assumption.
    #[test]
    fn corrected_scripts_preserve_invariant_guarded(
        slots in 3usize..=8,
        section: bool,
        raw in prop::collection::vec((0u8..4, any::<u8>(), any::<u8>()), 0..60),
    ) {
        let p = ModelParams {
            slots,
            list_len: 2,
            variant: if section { Variant::Section } else { Variant::Chord },
            mode: MaintenanceMode::Corrected,
            guard_redundancy: true,
            finger_oracle: true,
            allow_leaves: false,
            max_fails: slots - 1,
            max_states: 1,
            check_convergence: false,
        };
        let mut st = ModelState::initial(&p);
        prop_assert!(st.check().ok());
        let mut applied = 0u32;
        for &(op, a, b) in &raw {
            let ev = decode(op, a, b, slots);
            if st.apply(ev, &p) {
                applied += 1;
                let report = st.check();
                prop_assert!(
                    report.ok(),
                    "after {:?} (step {}): {:?}\nstate: {:?}",
                    ev, applied, report.violations, st
                );
            }
        }
    }

    /// The same property *outside* the redundancy assumption (no fail
    /// guard, no finger oracle): wedges are allowed, violations are not.
    #[test]
    fn corrected_scripts_stay_safe_unguarded(
        slots in 3usize..=8,
        section: bool,
        raw in prop::collection::vec((0u8..4, any::<u8>(), any::<u8>()), 0..60),
    ) {
        let p = ModelParams {
            slots,
            list_len: 2,
            variant: if section { Variant::Section } else { Variant::Chord },
            mode: MaintenanceMode::Corrected,
            guard_redundancy: false,
            finger_oracle: false,
            allow_leaves: false,
            max_fails: slots - 1,
            max_states: 1,
            check_convergence: false,
        };
        let mut st = ModelState::initial(&p);
        for &(op, a, b) in &raw {
            let ev = decode(op, a, b, slots);
            if st.apply(ev, &p) {
                let report = st.check();
                prop_assert!(
                    report.ok(),
                    "after {:?}: {:?}\nstate: {:?}",
                    ev, report.violations, st
                );
            }
        }
    }
}
