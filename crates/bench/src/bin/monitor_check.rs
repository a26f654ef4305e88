//! End-to-end check of the live monitoring plane, run in CI.
//!
//! Complements `trace_schema_check` (which covers the *post-hoc* trace
//! pipeline) with the *live* side — sampling and detectors:
//!
//! 1. the detector rules fire on a scripted outbreak (guardian-defended
//!    Chord with the monitor attached) and the detection report pairs
//!    every reached section with its first infection;
//! 2. the same rules stay silent over a fault-free Chord ring sampled
//!    through the runtime's step assertor, throttled to one sample per
//!    5 simulated seconds — no false positives;
//! 3. a run with the monitor attached leaves the protocol metrics,
//!    network statistics and final clock *byte-identical* to an
//!    unobserved run (observability never perturbs the simulation);
//! 4. the observed run's wall-clock overhead stays under 15% (the
//!    monitoring plane must be cheap enough to leave on).
//!
//! Exits non-zero on the first broken guarantee.
//!
//! ```text
//! cargo run -p verme-bench --release --bin monitor_check
//! ```

use std::process::ExitCode;

use verme_bench::testbed::{
    chord_lookup, chord_ring, king, lookup_run_config, lookup_workload, run_fingerprint,
    same_bytes, Checks,
};
use verme_bench::CliArgs;
use verme_chord::{ChordNode, StaticRing};
use verme_net::KingMatrix;
use verme_obs::{Monitor, Rule};
use verme_sim::{Addr, AssertorVerdict, Runtime, SeedSource, SimDuration};
use verme_worm::{run_scenario_instrumented, Instrumentation, Scenario, ScenarioConfig};

const NODES: usize = 96;
const LOOKUPS: usize = 200;

/// A converged Chord ring on the King matrix, set up for the fault-free
/// lookup run.
fn king_ring(seed: u64) -> (Runtime<ChordNode, KingMatrix>, Vec<Addr>) {
    let ring = StaticRing::random(NODES, seed);
    chord_ring(&ring, king(NODES, seed), seed, &lookup_run_config(), |o| o)
}

/// Drives the standard lookup workload from the members of `ring`.
fn drive(rt: &mut Runtime<ChordNode, KingMatrix>, ring: &[Addr], seed: u64) {
    let rng = SeedSource::new(seed).stream("monitor-check");
    lookup_workload(rt, ring, rng, LOOKUPS, chord_lookup);
}

/// A deterministic fingerprint of everything the protocol layer produced.
fn fingerprint(rt: &Runtime<ChordNode, KingMatrix>) -> String {
    run_fingerprint(rt, &[verme_chord::keys::descriptors()])
}

/// Attaches a monitor to the runtime's step assertor, watching the
/// fault-free health gauges: dropped messages and degraded nodes must
/// stay at zero, so the threshold rules below must never fire. The first
/// event at or past each 5-s mark takes a sample; the assertor never
/// records anything into the run.
fn attach_quiet_monitor(rt: &mut Runtime<ChordNode, KingMatrix>) -> Monitor {
    const EVERY: SimDuration = SimDuration::from_secs(5);
    let mon = Monitor::new(2048);
    mon.add_rule("net.dropped", Rule::Threshold { min: 1.0 });
    mon.add_rule("net.partition_dropped", Rule::Threshold { min: 1.0 });
    mon.add_rule("health.degraded_nodes", Rule::Threshold { min: 1.0 });
    let hook = mon.clone();
    let mut next = rt.now().checked_add(EVERY);
    rt.set_step_assertor(Box::new(move |view| {
        let mut due = false;
        while let Some(at) = next.filter(|&at| at <= view.now()) {
            next = at.checked_add(EVERY);
            due = true;
        }
        if !due {
            return AssertorVerdict::empty();
        }
        let stats = view.stats();
        hook.observe("net.dropped", view.now(), stats.messages_dropped as f64, None);
        hook.observe("net.partition_dropped", view.now(), stats.partition_dropped as f64, None);
        hook.observe("net.delivered", view.now(), stats.messages_delivered as f64, None);
        hook.observe("sim.pending", view.now(), view.pending_events() as f64, None);
        // Per-node health: a converged static ring must never report a
        // node below half its successor redundancy.
        let mut degraded = 0u64;
        let mut in_flight = 0u64;
        for (_, node) in view.nodes() {
            let h = node.health(view.now());
            if h.is_degraded(5) {
                degraded += 1;
            }
            in_flight += h.pending_lookups as u64;
        }
        hook.observe("health.degraded_nodes", view.now(), degraded as f64, None);
        hook.observe("health.inflight_lookups", view.now(), in_flight as f64, None);
        AssertorVerdict::empty()
    }));
    mon
}

fn main() -> ExitCode {
    let args = CliArgs::parse();
    let mut checks = Checks::default();

    // ------------------------------------------------------------------
    // 1. Detectors fire on a scripted outbreak.
    // ------------------------------------------------------------------
    let outbreak_cfg = ScenarioConfig {
        nodes: 2048,
        sections: 64,
        duration: SimDuration::from_secs(2_000),
        seed: args.seed,
    };
    let mon = Monitor::new(4096);
    mon.add_rule("worm.alerts", Rule::Threshold { min: 1.0 });
    mon.add_rule(
        "worm.infected",
        Rule::RateOfChange { window: SimDuration::from_secs(10), min_rate_per_s: 1.0 },
    );
    let inst = Instrumentation {
        monitor: Some((mon.clone(), SimDuration::from_secs(1))),
        ..Instrumentation::default()
    };
    let outbreak = run_scenario_instrumented(
        &Scenario::ChordWithGuardians { guardian_fraction: 0.05, alert_hop_delay_s: 1.0 },
        &outbreak_cfg,
        &inst,
    );
    checks.check("outbreak.fires", {
        let alerts = mon.alerts();
        if alerts.is_empty() {
            Err("no detector fired on a chord outbreak".into())
        } else if outbreak.detection.is_empty() {
            Err("empty detection report despite an outbreak".into())
        } else {
            let covered = outbreak.detection.iter().filter(|d| d.first_alert.is_some()).count();
            if covered == 0 {
                Err("no section was ever covered by an alert".into())
            } else {
                Ok(format!(
                    "{} alerts, {}/{} sections covered, first at {}",
                    alerts.len(),
                    covered,
                    outbreak.detection.len(),
                    alerts[0].at
                ))
            }
        }
    });

    // ------------------------------------------------------------------
    // 2. The same plane stays silent on a fault-free ring.
    // ------------------------------------------------------------------
    let (mut quiet, ring) = king_ring(args.seed);
    let quiet_mon = attach_quiet_monitor(&mut quiet);
    drive(&mut quiet, &ring, args.seed);
    checks.check("quiet.silent", {
        let alerts = quiet_mon.alerts();
        let samples = quiet_mon.series_points("net.delivered").len();
        if samples == 0 {
            Err("the monitor never sampled".into())
        } else if !alerts.is_empty() {
            Err(format!(
                "false positive on a fault-free ring: {} in {}",
                alerts[0].rule, alerts[0].series
            ))
        } else {
            Ok(format!("{samples} samples, 0 alerts"))
        }
    });

    // ------------------------------------------------------------------
    // 3. Observability never perturbs the run: byte-identical metrics.
    // ------------------------------------------------------------------
    let (mut plain, ring) = king_ring(args.seed);
    drive(&mut plain, &ring, args.seed);
    let plain_print = fingerprint(&plain);

    let (mut observed, ring) = king_ring(args.seed);
    let _observed_mon = attach_quiet_monitor(&mut observed);
    drive(&mut observed, &ring, args.seed);
    checks.check(
        "monitor_off.identical",
        same_bytes(&plain_print, &fingerprint(&observed))
            .map(|n| format!("{n} fingerprint bytes match"))
            .map_err(|at| format!("the monitor changed the protocol outcome at {at}")),
    );

    // ------------------------------------------------------------------
    // 4. Overhead guard: the observed run must stay within 15%.
    // ------------------------------------------------------------------
    checks.check("monitor.overhead", {
        let time_one = |observe: bool| {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let (mut rt, ring) = king_ring(args.seed);
                let mon = observe.then(|| attach_quiet_monitor(&mut rt));
                let started = std::time::Instant::now();
                drive(&mut rt, &ring, args.seed);
                best = best.min(started.elapsed().as_secs_f64());
                drop(mon);
            }
            best
        };
        let off = time_one(false);
        let on = time_one(true);
        // 15% relative plus a small absolute floor so scheduler noise on
        // a sub-100ms baseline cannot flake the check.
        let limit = off * 1.15 + 0.05;
        if on <= limit {
            Ok(format!("off {off:.3} s, on {on:.3} s (limit {limit:.3} s)"))
        } else {
            Err(format!("observed run too slow: off {off:.3} s, on {on:.3} s > {limit:.3} s"))
        }
    });

    checks.finish()
}
