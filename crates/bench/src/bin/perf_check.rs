//! Perf-regression gate, run in CI (release builds only — the floors in
//! `crates/bench/baselines.json` assume optimized code).
//!
//! Three guarantees, exit non-zero if any breaks:
//!
//! 1. the span profiler is *strictly observational*: a profiled fig8-style
//!    worm run and a profiled chord lookup run are byte-identical in
//!    simulation output to unprofiled runs;
//! 2. each gated workload clears its checked-in events/s floor — the
//!    floors are generous (≥ 2× slack) so the gate catches catastrophic
//!    regressions (an accidental `O(n²)`, profiling left permanently on)
//!    without flaking on slow CI machines;
//! 3. the profiled workloads' unattributed wall-time fraction stays under
//!    its ceiling — scope coverage must not silently rot as code moves.
//!
//! ```text
//! cargo run -p verme-bench --release --bin perf_check
//! ```

use std::process::ExitCode;

use verme_bench::perf::{check_measurement, load_baselines, PerfMeasurement};
use verme_bench::testbed::{
    chord_lookup, king_chord_ring, lookup_workload, run_fingerprint, same_bytes, Checks,
};
use verme_bench::CliArgs;
use verme_chord::ChordNode;
use verme_net::KingMatrix;
use verme_sim::{
    span_profiler_disable, span_profiler_enable, Addr, Runtime, SeedSource, SimDuration,
    SpanProfile,
};
use verme_worm::{run_scenario, Scenario, ScenarioConfig, ScenarioResult};

const NODES: usize = 96;
const LOOKUPS: usize = 600;

/// The fig8-style outbreak the gate measures: small enough for CI, large
/// enough that events/s is a stable number.
fn worm_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        nodes: 6_000,
        sections: 256,
        duration: SimDuration::from_secs(5_000),
        seed,
        ..ScenarioConfig::default()
    }
}

/// Everything deterministic a worm run produces, as one comparable blob.
fn worm_fingerprint(r: &ScenarioResult) -> String {
    format!("{}|{}|{}|{:?}|{:?}", r.infected, r.vulnerable, r.scans, r.curve.points(), r.detection)
}

/// Drives the standard lookup workload from the members of `ring`.
fn drive(rt: &mut Runtime<ChordNode, KingMatrix>, ring: &[Addr], seed: u64) {
    let rng = SeedSource::new(seed).stream("perf-check");
    lookup_workload(rt, ring, rng, LOOKUPS, chord_lookup);
}

/// Deterministic fingerprint of the chord run's protocol outcome.
fn chord_fingerprint(rt: &Runtime<ChordNode, KingMatrix>) -> String {
    run_fingerprint(rt, &[verme_chord::keys::descriptors()])
}

/// The unattributed wall-time fraction of one profiled stretch.
fn unattributed(profile: &SpanProfile, wall_s: f64) -> f64 {
    if wall_s <= 0.0 {
        return 0.0;
    }
    (1.0 - profile.attributed_total().as_secs_f64() / wall_s).max(0.0)
}

fn main() -> ExitCode {
    let args = CliArgs::parse();
    let mut checks = Checks::default();

    // ------------------------------------------------------------------
    // 1. Profiler-off vs profiler-on worm run: byte-identical output,
    //    and the profiled run is this workload's gated measurement.
    // ------------------------------------------------------------------
    let cfg = worm_config(args.seed);
    let plain = run_scenario(&Scenario::ChordWorm, &cfg);
    span_profiler_enable();
    let started = std::time::Instant::now();
    let profiled = run_scenario(&Scenario::ChordWorm, &cfg);
    let worm_wall = started.elapsed().as_secs_f64();
    let worm_profile = span_profiler_disable().expect("profiler enabled above");
    checks.check(
        "identity.worm",
        same_bytes(&worm_fingerprint(&plain), &worm_fingerprint(&profiled))
            .map(|n| format!("{n} fingerprint bytes match"))
            .map_err(|at| format!("span profiler changed the worm simulation output at {at}")),
    );
    let worm_m = PerfMeasurement {
        name: "worm_outbreak".into(),
        events_per_sec: if worm_wall > 0.0 { profiled.scans as f64 / worm_wall } else { 0.0 },
        unattributed_frac: Some(unattributed(&worm_profile, worm_wall)),
    };

    // ------------------------------------------------------------------
    // 2. Same identity guarantee for the runtime-driven chord workload.
    // ------------------------------------------------------------------
    let (mut plain_rt, ring) = king_chord_ring(NODES, args.seed);
    drive(&mut plain_rt, &ring, args.seed);
    let plain_print = chord_fingerprint(&plain_rt);
    let (mut prof_rt, ring) = king_chord_ring(NODES, args.seed);
    span_profiler_enable();
    let started = std::time::Instant::now();
    drive(&mut prof_rt, &ring, args.seed);
    let chord_wall = started.elapsed().as_secs_f64();
    let chord_profile = span_profiler_disable().expect("profiler enabled above");
    checks.check(
        "identity.chord",
        same_bytes(&plain_print, &chord_fingerprint(&prof_rt))
            .map(|n| format!("{n} fingerprint bytes match"))
            .map_err(|at| format!("span profiler changed the chord protocol outcome at {at}")),
    );
    let delivered = prof_rt.stats().messages_delivered;
    let chord_m = PerfMeasurement {
        name: "chord_lookups".into(),
        events_per_sec: if chord_wall > 0.0 { delivered as f64 / chord_wall } else { 0.0 },
        unattributed_frac: Some(unattributed(&chord_profile, chord_wall)),
    };

    // ------------------------------------------------------------------
    // 3. Both measurements clear the checked-in floors.
    // ------------------------------------------------------------------
    match load_baselines() {
        Err(e) => checks.check("gate.baselines", Err(e)),
        Ok(baselines) => {
            for m in [&worm_m, &chord_m] {
                checks.check(&format!("gate.{}", m.name), check_measurement(m, &baselines));
            }
        }
    }

    checks.finish()
}
