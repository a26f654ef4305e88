//! End-to-end check of the proven-correct ring-maintenance plane, run
//! in CI.
//!
//! Guards the plane's load-bearing promises:
//!
//! 1. the small-ring model checker *exhaustively proves* the corrected
//!    protocol: every reachable interleaving of join / fail / stabilize
//!    on rings up to the slot budget preserves the inductive invariant
//!    and converges back to the ideal ring, for both the Chord and the
//!    Verme section variant — and stays safe even with the redundancy
//!    guard and the finger oracle off;
//! 2. the Zave counterexample *separates the modes*: the scripted
//!    double-wedge trace partitions the ring under legacy rules and
//!    wedges safely under the corrected rules, in the model and on the
//!    wire protocol alike, with the continuous assertor counting the
//!    legacy violations;
//! 3. the plane is *inert when off* — a legacy-mode run with no assertor
//!    attached creates none of the `ring.*` metric keys and replays
//!    byte-identically, so every pre-existing experiment is untouched.
//!
//! Exits non-zero on the first broken guarantee.
//!
//! ```text
//! cargo run -p verme-bench --release --bin ring_check [-- --full]
//! ```

use std::process::ExitCode;

use rand::Rng;

use verme_bench::extm::{run_extm_cell, ExtMParams, ExtMVariant};
use verme_bench::testbed::{chord_ring, run_fingerprint, same_bytes, Checks, HOP};
use verme_bench::CliArgs;
use verme_chord::maintain::model::{
    explore, explore_trace, ModelEvent, ModelParams, ModelState, Variant,
};
use verme_chord::{ChordConfig, ChordNode, Id, MaintenanceMode, StaticRing, ViolationKind};
use verme_obs::ring as ring_keys;
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, Runtime, SeedSource, SimDuration, SimTime};

/// The metric keys the invariant assertor introduces. None of them may
/// materialize on an assertor-off run.
const NEW_KEYS: [&str; 3] =
    [ring_keys::INVARIANT_VIOLATIONS, ring_keys::APPENDAGE_NODES, ring_keys::WEDGED];

/// Model parameters for the exhaustive proof.
fn proof_params(variant: Variant, slots: usize, max_fails: usize) -> ModelParams {
    ModelParams {
        slots,
        list_len: 2,
        variant,
        mode: MaintenanceMode::Corrected,
        guard_redundancy: true,
        finger_oracle: true,
        max_fails,
        // Graceful departures are part of the proof since the chaos PR:
        // every reachable interleaving now includes Leave events too.
        allow_leaves: true,
        max_states: 40_000_000,
        check_convergence: true,
    }
}

/// Builds a legacy-mode, fingers-on ring with **no assertor attached** —
/// the exact configuration every pre-existing experiment runs with.
fn build_legacy(seed: u64) -> (Runtime<ChordNode, UniformLatency>, Vec<Addr>) {
    const NODES: usize = 48;
    let cfg = ChordConfig { maintenance: MaintenanceMode::Legacy, ..ChordConfig::default() };
    chord_ring(&StaticRing::random(NODES, seed), UniformLatency::new(NODES, HOP), seed, &cfg, |o| o)
}

/// Drives stabilization and a lookup workload, returning a fingerprint
/// of everything the protocol produced: final clock, network statistics
/// and the full metrics export.
fn drive_legacy(rt: &mut Runtime<ChordNode, UniformLatency>, addrs: &[Addr], seed: u64) -> String {
    let mut rng = SeedSource::new(seed).stream("ring-check");
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    for _ in 0..24 {
        let who = addrs[rng.gen_range(0..addrs.len())];
        let key = Id::random(&mut rng);
        rt.invoke(who, |n, ctx| n.start_lookup(key, ctx)).expect("alive");
        rt.run_until(rt.now() + SimDuration::from_secs(2));
    }
    rt.run_until(rt.now() + SimDuration::from_secs(60));
    run_fingerprint(rt, &[verme_chord::keys::descriptors(), ring_keys::descriptors()])
}

fn main() -> ExitCode {
    let args = CliArgs::parse();
    let mut checks = Checks::default();
    // Quick explores 5-slot rings exhaustively; --full pushes to the
    // 6-slot universe the issue asks for (minutes, not CI-quick).
    let (slots, max_fails) = if args.full { (6, 4) } else { (5, 3) };

    // ------------------------------------------------------------------
    // 1. Exhaustive proof: corrected maintenance preserves the invariant
    //    and converges from every reachable state, both variants.
    // ------------------------------------------------------------------
    for variant in [Variant::Chord, Variant::Section] {
        let name = format!("model.proof.{}", variant.label());
        let p = proof_params(variant, slots, max_fails);
        let out = explore(&p);
        checks.check(&name, {
            if out.truncated {
                Err(format!("enumeration truncated at {} states", out.states))
            } else if !out.proven() {
                let diag = explore_trace(&p)
                    .map(|(trace, _, v)| format!("{v:?} via {trace:?}"))
                    .unwrap_or_else(|| format!("{:?}", out.samples));
                Err(format!(
                    "{} violation states, {} convergence failures; first: {diag}",
                    out.violation_states, out.convergence_failures
                ))
            } else {
                Ok(format!(
                    "{} states, {} transitions, 0 violations, 0 convergence failures \
                     (slots {slots}, fails {max_fails})",
                    out.states, out.transitions
                ))
            }
        });
    }

    // ------------------------------------------------------------------
    // 2. Safety holds even *outside* the redundancy assumption: no fail
    //    guard, no finger oracle. Wedges happen, violations must not.
    //    (Convergence is rightly off: a wedged ring cannot heal without
    //    the oracle.)
    // ------------------------------------------------------------------
    for variant in [Variant::Chord, Variant::Section] {
        let name = format!("model.unguarded.{}", variant.label());
        let p = ModelParams {
            guard_redundancy: false,
            finger_oracle: false,
            check_convergence: false,
            ..proof_params(variant, slots, max_fails)
        };
        let out = explore(&p);
        checks.check(&name, {
            if out.truncated {
                Err(format!("enumeration truncated at {} states", out.states))
            } else if out.violation_states > 0 {
                Err(format!(
                    "{} violation states outside the redundancy assumption: {:?}",
                    out.violation_states, out.samples
                ))
            } else {
                Ok(format!("{} states, {} transitions, 0 violations", out.states, out.transitions))
            }
        });
    }

    // ------------------------------------------------------------------
    // 3. The Zave counterexample separates the modes in the model: the
    //    scripted double-wedge partitions legacy, wedges corrected.
    // ------------------------------------------------------------------
    checks.check("model.double_wedge", {
        let script = [
            ModelEvent::Fail(2),
            ModelEvent::Fail(3),
            ModelEvent::Fail(6),
            ModelEvent::Fail(7),
            ModelEvent::Stabilize(1),
            ModelEvent::Stabilize(5),
            ModelEvent::Stabilize(0),
            ModelEvent::Stabilize(4),
        ];
        let run = |mode| {
            let p = ModelParams {
                slots: 8,
                list_len: 2,
                variant: Variant::Chord,
                mode,
                guard_redundancy: false,
                finger_oracle: false,
                max_fails: 4,
                allow_leaves: false,
                max_states: 1,
                check_convergence: false,
            };
            let mut st = ModelState::ideal(&p, &[0, 1, 2, 3, 4, 5, 6, 7]);
            for ev in script {
                if !st.apply(ev, &p) {
                    return Err(format!("{ev:?} not enabled under {mode:?}"));
                }
            }
            Ok(st.check())
        };
        match (run(MaintenanceMode::Legacy), run(MaintenanceMode::Corrected)) {
            (Err(e), _) | (_, Err(e)) => Err(e),
            (Ok(legacy), Ok(corrected)) => {
                if !legacy.violations.iter().any(|v| v.kind == ViolationKind::MultipleRings) {
                    Err(format!("legacy trace did not partition: {legacy:?}"))
                } else if !corrected.ok() {
                    Err(format!("corrected trace violated: {:?}", corrected.violations))
                } else if corrected.wedged != 2 {
                    Err(format!("expected 2 safely wedged nodes, got {}", corrected.wedged))
                } else {
                    Ok(format!(
                        "legacy splits into {} cycles' worth of violations, \
                         corrected wedges 2 nodes safely",
                        legacy.violations.len()
                    ))
                }
            }
        }
    });

    // ------------------------------------------------------------------
    // 4. The same separation on the wire protocol, with the continuous
    //    assertor doing the counting — and it replays deterministically.
    // ------------------------------------------------------------------
    let wire = ExtMParams {
        nodes: 64,
        sections: 8,
        num_successors: 3,
        churn_rates: vec![0.02],
        burst: 5,
        window: SimDuration::from_mins(2),
        reps: 1,
        seed: args.seed,
    };
    let legacy = run_extm_cell(ExtMVariant::Chord, MaintenanceMode::Legacy, &wire, 0.02, args.seed);
    let corrected =
        run_extm_cell(ExtMVariant::Chord, MaintenanceMode::Corrected, &wire, 0.02, args.seed);
    checks.check("wire.starved_bursts", {
        if legacy.assert_points == 0 || corrected.assert_points == 0 {
            Err("the continuous assertor never evaluated".into())
        } else if legacy.violations == 0 {
            Err(format!("legacy survived the starved double burst unflagged: {legacy:?}"))
        } else if corrected.violations != 0 || corrected.end_violations != 0 {
            Err(format!("corrected arm violated the invariant: {corrected:?}"))
        } else if corrected.max_wedged < 1.0 {
            Err(format!("the burst never wedged a corrected survivor: {corrected:?}"))
        } else {
            Ok(format!(
                "legacy {} violations (partitioned: {}), corrected 0 over {} assertion points \
                 (peak wedged {:.0})",
                legacy.violations,
                legacy.end_partitioned,
                corrected.assert_points,
                corrected.max_wedged
            ))
        }
    });

    checks.check("wire.deterministic", {
        let legacy2 =
            run_extm_cell(ExtMVariant::Chord, MaintenanceMode::Legacy, &wire, 0.02, args.seed);
        let corrected2 =
            run_extm_cell(ExtMVariant::Chord, MaintenanceMode::Corrected, &wire, 0.02, args.seed);
        if legacy != legacy2 {
            Err(format!("legacy cell diverged across replays: {legacy:?} vs {legacy2:?}"))
        } else if corrected != corrected2 {
            Err(format!("corrected cell diverged: {corrected:?} vs {corrected2:?}"))
        } else {
            Ok("both cells replay identically".into())
        }
    });

    // ------------------------------------------------------------------
    // 5. Assertor-off runs are byte-identical replays and create none of
    //    the plane's metric keys (the pre-PR surface).
    // ------------------------------------------------------------------
    checks.check("legacy.identical_and_unpolluted", {
        let (mut a, addrs_a) = build_legacy(args.seed);
        let fp_a = drive_legacy(&mut a, &addrs_a, args.seed);
        let (mut b, addrs_b) = build_legacy(args.seed);
        let fp_b = drive_legacy(&mut b, &addrs_b, args.seed);
        let snapshot = a.metrics().counter_snapshot();
        let leaked: Vec<&str> = NEW_KEYS
            .iter()
            .copied()
            .filter(|k| snapshot.contains_key(k) || a.metrics().histogram(k).is_some())
            .collect();
        if let Err(at) = same_bytes(&fp_a, &fp_b) {
            Err(format!("assertor-off run diverged across replays at {at}"))
        } else if !leaked.is_empty() {
            Err(format!("ring-plane metrics materialized without an assertor: {leaked:?}"))
        } else {
            Ok(format!("{} fingerprint bytes match, 0 ring keys present", fp_a.len()))
        }
    });

    checks.finish()
}
