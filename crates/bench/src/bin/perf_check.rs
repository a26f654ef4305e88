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

use rand::Rng;

use verme_bench::perf::{check_measurement, load_baselines, PerfMeasurement};
use verme_bench::report::BenchTimer;
use verme_bench::CliArgs;
use verme_chord::{ChordConfig, ChordNode, Id, LookupMode, StaticRing};
use verme_net::KingMatrix;
use verme_obs::Registry;
use verme_sim::{
    span_profiler_disable, span_profiler_enable, Addr, HostId, Runtime, SeedSource, SimDuration,
    SimTime, SpanProfile,
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

fn build_chord(seed: u64) -> Runtime<ChordNode, KingMatrix> {
    let mut idrng = SeedSource::new(seed).stream("ids");
    let king = KingMatrix::synthetic(NODES, verme_net::king::KING_MEAN_RTT_MS, seed);
    let mut rt = Runtime::new(king, seed);
    let cfg = ChordConfig {
        lookup_mode: LookupMode::Recursive,
        hop_timeout: SimDuration::from_secs(20),
        lookup_deadline: SimDuration::from_secs(60),
        ..ChordConfig::default()
    };
    let handles: Vec<_> = (0..NODES)
        .map(|i| verme_chord::NodeHandle::new(Id::random(&mut idrng), Addr::from_raw(i as u64 + 1)))
        .collect();
    let ring = StaticRing::new(handles);
    let mut by_addr: Vec<(u64, usize)> = (0..NODES).map(|i| (ring.node(i).addr.raw(), i)).collect();
    by_addr.sort_unstable();
    for (raw, pos) in by_addr {
        rt.spawn(HostId(raw as usize - 1), ring.build_node(pos, cfg.clone()));
    }
    rt
}

/// Maintenance warm-up, one random lookup per simulated second, drain.
fn drive(rt: &mut Runtime<ChordNode, KingMatrix>, seed: u64) {
    let mut rng = SeedSource::new(seed).stream("perf-check");
    let mut addrs: Vec<Addr> = rt.alive_addrs().collect();
    addrs.sort_unstable_by_key(|a| a.raw());
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(90));
    for i in 0..LOOKUPS {
        rt.run_until(SimTime::ZERO + SimDuration::from_secs(90 + i as u64));
        let addr = addrs[rng.gen_range(0..addrs.len())];
        let key = Id::random(&mut rng);
        rt.invoke(addr, |node, ctx| {
            if node.is_joined() {
                node.start_lookup(key, ctx);
            }
        });
    }
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(90 + LOOKUPS as u64 + 120));
}

/// Deterministic fingerprint of the chord run's protocol outcome.
fn chord_fingerprint(rt: &Runtime<ChordNode, KingMatrix>) -> String {
    let mut registry = Registry::new();
    registry.register_all(verme_chord::keys::descriptors());
    format!("{:?}|{:?}|{}", rt.now(), rt.stats(), registry.export_ndjson(rt.metrics()))
}

/// The unattributed wall-time fraction of one profiled stretch.
fn unattributed(profile: &SpanProfile, wall_s: f64) -> f64 {
    if wall_s <= 0.0 {
        return 0.0;
    }
    (1.0 - profile.attributed_total().as_secs_f64() / wall_s).max(0.0)
}

/// Runs one named check, printing a verdict line and counting failures.
fn check(failures: &mut u32, name: &str, result: Result<String, String>) {
    match result {
        Ok(detail) => println!("ok   {name}: {detail}"),
        Err(why) => {
            *failures += 1;
            println!("FAIL {name}: {why}");
        }
    }
}

fn main() {
    let timer = BenchTimer::start("perf_check");
    let args = CliArgs::parse();
    let mut failures = 0u32;

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
    check(&mut failures, "identity.worm", {
        let (a, b) = (worm_fingerprint(&plain), worm_fingerprint(&profiled));
        if a == b {
            Ok(format!("{} fingerprint bytes match", a.len()))
        } else {
            Err("span profiler changed the worm simulation output".into())
        }
    });
    let worm_m = PerfMeasurement {
        name: "worm_outbreak".into(),
        events_per_sec: if worm_wall > 0.0 { profiled.scans as f64 / worm_wall } else { 0.0 },
        unattributed_frac: Some(unattributed(&worm_profile, worm_wall)),
    };

    // ------------------------------------------------------------------
    // 2. Same identity guarantee for the runtime-driven chord workload.
    // ------------------------------------------------------------------
    let mut plain_rt = build_chord(args.seed);
    drive(&mut plain_rt, args.seed);
    let plain_print = chord_fingerprint(&plain_rt);
    let mut prof_rt = build_chord(args.seed);
    span_profiler_enable();
    let started = std::time::Instant::now();
    drive(&mut prof_rt, args.seed);
    let chord_wall = started.elapsed().as_secs_f64();
    let chord_profile = span_profiler_disable().expect("profiler enabled above");
    check(&mut failures, "identity.chord", {
        let prof_print = chord_fingerprint(&prof_rt);
        if plain_print == prof_print {
            Ok(format!("{} fingerprint bytes match", plain_print.len()))
        } else {
            Err("span profiler changed the chord protocol outcome".into())
        }
    });
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
        Err(e) => check(&mut failures, "gate.baselines", Err(e)),
        Ok(baselines) => {
            for m in [&worm_m, &chord_m] {
                check(&mut failures, &format!("gate.{}", m.name), check_measurement(m, &baselines));
            }
        }
    }

    timer.finish_with_profile(profiled.scans + delivered, Some(&worm_profile));
    if failures > 0 {
        eprintln!("{failures} check(s) failed");
        std::process::exit(1);
    }
    println!("all checks passed");
}
