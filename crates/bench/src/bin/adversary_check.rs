//! End-to-end check of the Byzantine adversary plane, run in CI.
//!
//! Guards the plane's two load-bearing promises:
//!
//! 1. the attack *fires deterministically* — a `Fault::Byzantine` script
//!    flips the eclipse cluster, lookups degrade, the hijack/poison
//!    detectors count, and the same seed reproduces the cell exactly;
//! 2. the plane is *inert when off* — with no adversaries scripted and
//!    the defenses at their defaults, a run creates none of the new
//!    metric keys, replays byte-identically, and the detector rules on
//!    the adversary gauges stay silent.
//!
//! Exits non-zero on the first broken guarantee.
//!
//! ```text
//! cargo run -p verme-bench --release --bin adversary_check
//! ```

use std::process::ExitCode;

use bytes::Bytes;
use rand::Rng;

use verme_bench::extk::{run_extk_cell, ExtKParams};
use verme_bench::testbed::{
    run_fingerprint, same_bytes, verme_ring, CellOutcome, Checks, DhtCell, DhtSystem, HOP,
};
use verme_bench::CliArgs;
use verme_core::{SectionLayout, VermeConfig, VermeStaticRing};
use verme_dht::{DhtConfig, DhtNode, FastVerDiNode};
use verme_obs::{Monitor, Rule};
use verme_sim::runtime::UniformLatency;
use verme_sim::{SeedSource, SimDuration, SimTime};

const NODES: usize = 64;

/// The metric keys the adversary plane introduces. None of them may
/// materialize on an adversary-off, defense-off run.
const NEW_KEYS: [&str; 4] = [
    verme_dht::keys::LOOKUPS_HIJACKED,
    verme_dht::keys::SUSPECT_REROUTES,
    verme_chord::keys::RING_POISONED,
    verme_sim::fault::keys::BYZANTINE,
];

/// Drives a small put/get workload on a converged Fast-VerDi ring with
/// the *default* (defense-off) DHT configuration — the exact
/// configuration every pre-existing bench runs with. Returns a fingerprint
/// of everything the protocol produced (final clock, network statistics,
/// the full metrics export) and the [`NEW_KEYS`] the run created.
fn legacy_run(seed: u64) -> (String, Vec<&'static str>) {
    let layout = SectionLayout::with_sections(8, 2);
    let ring = VermeStaticRing::generate(layout, NODES, seed);
    let net = UniformLatency::new(NODES, HOP);
    let (mut rt, addrs, _) = verme_ring(&ring, net, seed, &VermeConfig::new(layout), |o| {
        FastVerDiNode::new(o, DhtConfig::default())
    });
    let mut rng = SeedSource::new(seed).stream("adversary-check");
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(5));
    let mut keys = Vec::new();
    for blkno in 0..8u64 {
        let who = addrs[rng.gen_range(0..addrs.len())];
        let mut value = vec![0u8; 512];
        value[..8].copy_from_slice(&blkno.to_le_bytes());
        let value = Bytes::from(value);
        keys.push(verme_dht::block_key(&value));
        rt.invoke(who, |n, ctx| n.start_put(value, ctx)).expect("alive");
        rt.run_until(rt.now() + SimDuration::from_secs(5));
    }
    for _ in 0..16 {
        let who = addrs[rng.gen_range(0..addrs.len())];
        let key = keys[rng.gen_range(0..keys.len())];
        rt.invoke(who, |n, ctx| n.start_get(key, ctx)).expect("alive");
        rt.run_until(rt.now() + SimDuration::from_secs(5));
    }
    rt.run_until(rt.now() + SimDuration::from_secs(60));
    let snapshot = rt.metrics().counter_snapshot();
    let leaked = NEW_KEYS.iter().copied().filter(|k| snapshot.contains_key(k)).collect();
    let descriptors = [verme_chord::keys::descriptors(), verme_dht::keys::descriptors()];
    (run_fingerprint(&rt, &descriptors), leaked)
}

fn main() -> ExitCode {
    let args = CliArgs::parse();
    let mut checks = Checks::default();

    let params = ExtKParams {
        cell: DhtCell {
            nodes: NODES,
            sections: 8,
            block_size: 512,
            blocks: 8,
            gets: 32,
            window: SimDuration::from_mins(2),
        },
        adversary_fractions: vec![0.0, 0.25],
        reps: 1,
        seed: args.seed,
    };

    // ------------------------------------------------------------------
    // 1. The attack fires, degrades lookups, and counts.
    // ------------------------------------------------------------------
    let loud = run_extk_cell(DhtSystem::FastVerDi, &params, 0.25, args.seed);
    let quiet = run_extk_cell(DhtSystem::FastVerDi, &params, 0.0, args.seed);
    let adversaries = |c: &CellOutcome| c.count(verme_sim::fault::keys::BYZANTINE);
    let hijacked = |c: &CellOutcome| c.count(verme_dht::keys::LOOKUPS_HIJACKED);
    let poisoned = |c: &CellOutcome| c.count(verme_chord::keys::RING_POISONED);
    checks.check("attack.fires", {
        if adversaries(&loud) == 0 {
            Err("the Byzantine fault never flipped a node".into())
        } else if hijacked(&loud) + poisoned(&loud) == 0 {
            Err(format!("no hijack or poison detection despite adversaries: {loud:?}"))
        } else if loud.failed_fraction() <= quiet.failed_fraction() {
            Err(format!(
                "adversaries did not degrade gets: loud {:.2}% vs quiet {:.2}%",
                loud.failed_fraction() * 100.0,
                quiet.failed_fraction() * 100.0
            ))
        } else {
            Ok(format!(
                "{} adversaries, {} hijacks, {} poisoned entries, failed {:.1}% vs {:.1}%",
                adversaries(&loud),
                hijacked(&loud),
                poisoned(&loud),
                loud.failed_fraction() * 100.0,
                quiet.failed_fraction() * 100.0
            ))
        }
    });

    // ------------------------------------------------------------------
    // 2. Determinism: the same seed reproduces both cells exactly.
    // ------------------------------------------------------------------
    checks.check("attack.deterministic", {
        let loud2 = run_extk_cell(DhtSystem::FastVerDi, &params, 0.25, args.seed);
        let quiet2 = run_extk_cell(DhtSystem::FastVerDi, &params, 0.0, args.seed);
        if loud != loud2 {
            Err(format!("adversarial cell diverged across replays: {loud:?} vs {loud2:?}"))
        } else if quiet != quiet2 {
            Err(format!("quiet cell diverged across replays: {quiet:?} vs {quiet2:?}"))
        } else {
            Ok("both cells replay identically".into())
        }
    });

    // ------------------------------------------------------------------
    // 3. Detector rules surface the attack as typed alerts — and stay
    //    silent on the quiet cell's gauges.
    // ------------------------------------------------------------------
    checks.check("detectors.typed_alerts", {
        let observe = |cell: &CellOutcome| {
            let mon = Monitor::new(64);
            mon.add_rule(verme_dht::keys::LOOKUPS_HIJACKED, Rule::Threshold { min: 1.0 });
            mon.add_rule(verme_chord::keys::RING_POISONED, Rule::Threshold { min: 1.0 });
            let end = SimTime::ZERO + params.cell.window;
            mon.observe(verme_dht::keys::LOOKUPS_HIJACKED, SimTime::ZERO, 0.0, None);
            mon.observe(verme_chord::keys::RING_POISONED, SimTime::ZERO, 0.0, None);
            mon.observe(verme_dht::keys::LOOKUPS_HIJACKED, end, hijacked(cell) as f64, None);
            mon.observe(verme_chord::keys::RING_POISONED, end, poisoned(cell) as f64, None);
            mon
        };
        let loud_mon = observe(&loud);
        let quiet_mon = observe(&quiet);
        let loud_alerts = loud_mon.alerts();
        if loud_alerts.is_empty() {
            Err("no detector alert despite hijack/poison counts".into())
        } else if !quiet_mon.alerts().is_empty() {
            let a = &quiet_mon.alerts()[0];
            Err(format!("false positive on the quiet cell: {} on {}", a.rule, a.series))
        } else {
            Ok(format!(
                "{} typed alerts (first: {} on {}), quiet silent",
                loud_alerts.len(),
                loud_alerts[0].rule,
                loud_alerts[0].series
            ))
        }
    });

    // ------------------------------------------------------------------
    // 4. Quiet cells never count the adversary metrics.
    // ------------------------------------------------------------------
    checks.check("quiet.silent", {
        if adversaries(&quiet) != 0 {
            Err(format!("{} nodes flipped without a scripted fault", adversaries(&quiet)))
        } else if hijacked(&quiet) != 0 || poisoned(&quiet) != 0 {
            Err(format!("adversary detectors counted on a quiet ring: {quiet:?}"))
        } else {
            Ok(format!("0 adversaries, 0 hijacks, 0 poisoned, {} gets issued", quiet.issued))
        }
    });

    // ------------------------------------------------------------------
    // 5. Adversary-off, defense-off runs are byte-identical replays and
    //    create none of the plane's metric keys.
    // ------------------------------------------------------------------
    checks.check("legacy.identical_and_unpolluted", {
        let (fp_a, leaked) = legacy_run(args.seed);
        let (fp_b, _) = legacy_run(args.seed);
        if let Err(at) = same_bytes(&fp_a, &fp_b) {
            Err(format!("legacy run diverged across replays at {at}"))
        } else if !leaked.is_empty() {
            Err(format!("adversary-plane metrics materialized on a legacy run: {leaked:?}"))
        } else {
            Ok(format!("{} fingerprint bytes match, 0 adversary keys present", fp_a.len()))
        }
    });

    checks.finish()
}
