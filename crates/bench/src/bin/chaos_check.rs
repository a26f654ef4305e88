//! End-to-end check of the chaos-search plane, run in CI.
//!
//! Proves the pipeline works on both ends — it finds bugs known to exist
//! and stays silent on protocols proven correct:
//!
//! 1. exploring the legacy-maintenance ring with generated schedules
//!    rediscovers a ring-invariant violation within a fixed trial budget,
//!    and delta-debugging shrinks the failing schedule to a handful of
//!    entries;
//! 2. the shrunk repro is replayable: serializing it to
//!    `CHAOS_repro_<hash>.json`, parsing it back, and re-running the
//!    trial reproduces the recorded oracle verdict exactly;
//! 3. the corrected protocol survives a larger budget of the *same*
//!    schedule generator with zero findings (any finding is a real
//!    safety regression, not chaos noise);
//! 4. the durability controls behave the same way: repair-off loses
//!    blocks within its budget, repair-on never does;
//! 5. with no chaos plane active, a plain simulation run twice is
//!    byte-identical and materializes no `chaos.*` or `fault.*` metric
//!    keys and no duplicated/reordered messages — the plane costs
//!    nothing when off.
//!
//! Exits non-zero on the first broken guarantee.
//!
//! ```text
//! cargo run -p verme-bench --release --bin chaos_check
//! ```

use std::process::ExitCode;

use verme_bench::testbed::{chord_ring, Checks, HOP};
use verme_bench::CliArgs;
use verme_chaos::{explore, ChaosProfile, ExplorerConfig, Repro, Scenario};
use verme_chord::{ChordConfig, MaintenanceMode, StaticRing};
use verme_sim::runtime::UniformLatency;
use verme_sim::{SimDuration, SimTime};

/// Trial budget for the legacy rediscovery (check 1).
const LEGACY_BUDGET: usize = 50;
/// Trial budget for the corrected survival sweep (check 3).
const CORRECTED_BUDGET: usize = 150;
/// Per-arm budget for the durability controls (check 4).
const DURABILITY_BUDGET: usize = 30;
/// A shrunk repro larger than this means the shrinker is not working.
const MAX_SHRUNK_ENTRIES: usize = 8;

/// A deterministic fingerprint of a plain (chaos-off) simulation run:
/// final clock, network statistics, and every metric the run produced.
fn chaos_off_fingerprint(seed: u64) -> (String, Vec<String>, u64, u64) {
    const NODES: usize = 24;
    let cfg = ChordConfig { num_successors: 3, ..ChordConfig::default() };
    let ring = StaticRing::random(NODES, seed);
    let (mut rt, _) = chord_ring(&ring, UniformLatency::new(NODES, HOP), seed, &cfg, |o| o);
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(120));
    let keys: Vec<String> = rt.metrics().counters().map(|(k, _)| k.to_owned()).collect();
    let stats = rt.stats();
    let fp = format!("{:?}|{:?}|{}", rt.now(), stats, rt.metrics_mut().render_snapshot());
    (fp, keys, stats.messages_duplicated, stats.messages_reordered)
}

fn main() -> ExitCode {
    let args = CliArgs::parse();
    let mut checks = Checks::default();

    let ring_profile = ChaosProfile::ring(48, 3);
    let legacy = Scenario::ring(MaintenanceMode::Legacy);
    let corrected = Scenario::ring(MaintenanceMode::Corrected);

    // ------------------------------------------------------------------
    // 1. The explorer rediscovers the legacy ring hazard and shrinks it.
    // ------------------------------------------------------------------
    let cfg = ExplorerConfig { trials: LEGACY_BUDGET, stop_on_failure: true, shrink: true };
    let hunt = explore(&legacy, &ring_profile, args.seed, &cfg, None);
    let discovery = hunt.discoveries.first().cloned();
    checks.check(
        "legacy hazard rediscovered and shrunk",
        match &discovery {
            None => Err(format!("no violation in {LEGACY_BUDGET} generated schedules")),
            Some(d) => {
                let shrunk = d.repro.schedule.len();
                let oracles = d.repro.report.oracles();
                if shrunk > MAX_SHRUNK_ENTRIES {
                    Err(format!("repro still has {shrunk} entries after shrinking"))
                } else if !oracles.contains(&verme_chaos::oracle::RING_INVARIANT)
                    && !oracles.contains(&verme_chaos::oracle::RING_END)
                {
                    Err(format!("discovery is not a ring violation: {oracles:?}"))
                } else {
                    Ok(format!(
                        "trial {} of {}, {} -> {} entries, oracles {:?}",
                        d.trial, hunt.trials_run, d.original_schedule_len, shrunk, oracles
                    ))
                }
            }
        },
    );

    // ------------------------------------------------------------------
    // 2. The shrunk repro survives a serialize → parse → replay round
    //    trip with the identical verdict.
    // ------------------------------------------------------------------
    checks.check(
        "repro replays to the recorded verdict",
        match &discovery {
            None => Err("no discovery to replay".into()),
            Some(d) => {
                let text = d.repro.to_json();
                match Repro::from_json(&text) {
                    Err(e) => Err(format!("own serialization failed to parse: {e}")),
                    Ok(parsed) if parsed != d.repro => {
                        Err("parse round trip changed the repro".into())
                    }
                    Ok(parsed) => {
                        let replayed = parsed.replay();
                        if replayed == parsed.report {
                            Ok(format!(
                                "{} ({} bytes, {} findings)",
                                parsed.file_name(),
                                text.len(),
                                replayed.findings.len()
                            ))
                        } else {
                            Err(format!(
                                "replay diverged: recorded {:?}, got {:?}",
                                parsed.report.oracles(),
                                replayed.oracles()
                            ))
                        }
                    }
                }
            }
        },
    );

    // ------------------------------------------------------------------
    // 3. The corrected protocol survives a larger budget of the same
    //    generator.
    // ------------------------------------------------------------------
    let cfg = ExplorerConfig { trials: CORRECTED_BUDGET, stop_on_failure: false, shrink: true };
    let sweep = explore(&corrected, &ring_profile, args.seed, &cfg, None);
    checks.check(
        "corrected maintenance survives the envelope",
        if sweep.failures == 0 {
            Ok(format!("0 findings in {} trials", sweep.trials_run))
        } else {
            let d = &sweep.discoveries[0];
            Err(format!(
                "{} findings in {} trials; first at trial {} ({:?}) — repro {}",
                sweep.failures,
                sweep.trials_run,
                d.trial,
                d.original_report.oracles(),
                d.repro.file_name()
            ))
        },
    );

    // ------------------------------------------------------------------
    // 4. Durability controls: repair-off loses blocks, repair-on never.
    // ------------------------------------------------------------------
    let dur_profile = ChaosProfile::durability(48, 6);
    let cfg = ExplorerConfig { trials: DURABILITY_BUDGET, stop_on_failure: false, shrink: false };
    let off = explore(&Scenario::durability(false), &dur_profile, args.seed, &cfg, None);
    let on = explore(&Scenario::durability(true), &dur_profile, args.seed, &cfg, None);
    checks.check(
        "durability controls behave as expected",
        if off.failures == 0 {
            Err(format!(
                "repair-off lost nothing in {} trials — envelope too gentle",
                off.trials_run
            ))
        } else if on.failures > 0 {
            Err(format!(
                "repair-on lost blocks in {}/{} trials: {:?}",
                on.failures, on.trials_run, on.discoveries[0].original_report.findings
            ))
        } else {
            Ok(format!(
                "repair-off {}/{} trials lossy, repair-on 0/{}",
                off.failures, off.trials_run, on.trials_run
            ))
        },
    );

    // ------------------------------------------------------------------
    // 5. Chaos off: byte-identical runs, no chaos/fault keys, no network
    //    mischief.
    // ------------------------------------------------------------------
    let (fp_a, keys, dup, reorder) = chaos_off_fingerprint(args.seed);
    let (fp_b, _, _, _) = chaos_off_fingerprint(args.seed);
    checks.check(
        "chaos-off run is byte-identical and key-clean",
        if fp_a != fp_b {
            Err("two identical chaos-off runs diverged".into())
        } else if let Some(k) =
            keys.iter().find(|k| k.starts_with("chaos.") || k.starts_with("fault."))
        {
            Err(format!("inert run materialized key {k}"))
        } else if dup != 0 || reorder != 0 {
            Err(format!("inert run duplicated {dup} / reordered {reorder} messages"))
        } else {
            Ok(format!("{} metric keys, fingerprint {} bytes", keys.len(), fp_a.len()))
        },
    );

    // This bin's closing lines predate `Checks::finish`; golden pins them.
    if checks.failures() > 0 {
        println!("chaos_check: {} check(s) FAILED", checks.failures());
        return ExitCode::FAILURE;
    }
    println!("chaos_check: all checks passed");
    ExitCode::SUCCESS
}
