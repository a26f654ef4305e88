//! End-to-end check of the replica-repair plane, run in CI.
//!
//! Complements `monitor_check` (the observability plane) with the
//! durability guarantees this PR adds:
//!
//! 1. with repair enabled, a ring survives a targeted two-wave kill of a
//!    block's entire original holder set — the repair plane re-replicates
//!    between the waves, full replication is restored, and the
//!    `dht.blocks.lost` monitor rule stays silent;
//! 2. the identical fault script with repair disabled loses the block
//!    outright, and the same monitor rule fires;
//! 3. on a fault-free ring the repair plane is inert: a repair-enabled
//!    run leaves the protocol metrics, network statistics and final
//!    clock *byte-identical* to a repair-disabled run (the periodic
//!    repair timer no-ops while the neighbor epoch is unchanged, so
//!    enabling repair by default costs nothing until faults happen).
//!
//! Exits non-zero on the first broken guarantee.
//!
//! ```text
//! cargo run -p verme-bench --release --bin durability_check
//! ```

use std::process::ExitCode;

use rand::Rng;

use verme_bench::testbed::{dhash_ring, run_fingerprint, same_bytes, Checks};
use verme_bench::CliArgs;
use verme_chaos::seed_blocks;
use verme_chord::Id;
use verme_dht::{DhashNode, DhtConfig, DhtNode, DurabilityCensus};
use verme_obs::{Monitor, Rule};
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, Runtime, SeedSource, SimDuration, SimTime};

const NODES: usize = 64;
const BLOCKS: usize = 8;

fn config(repair: bool) -> DhtConfig {
    DhtConfig {
        repair_enabled: repair,
        // Push the blind periodic re-replication far beyond the run so
        // only the repair plane can restore the killed copies.
        data_stabilize_interval: SimDuration::from_secs(3_600),
        ..DhtConfig::default()
    }
}

/// Seeds the standard blocks fault-free and returns the surviving keys.
fn seed_standard(
    rt: &mut Runtime<DhashNode, UniformLatency>,
    addrs: &[Addr],
    seed: u64,
) -> Vec<Id> {
    let mut rng = SeedSource::new(seed).stream("workload");
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(5));
    seed_blocks(rt, addrs, &mut rng, BLOCKS, 512)
}

/// The live nodes currently holding `key`, in address order.
fn holders(rt: &Runtime<DhashNode, UniformLatency>, addrs: &[Addr], key: Id) -> Vec<Addr> {
    addrs
        .iter()
        .copied()
        .filter(|&a| rt.is_alive(a) && rt.node(a).expect("alive").store().contains(key))
        .collect()
}

/// Takes the durability census over the live population.
fn census(
    rt: &Runtime<DhashNode, UniformLatency>,
    addrs: &[Addr],
    keys: &[Id],
    target: usize,
) -> DurabilityCensus {
    let stores: Vec<_> = addrs
        .iter()
        .copied()
        .filter(|&a| rt.is_alive(a))
        .map(|a| rt.node(a).expect("alive").store())
        .collect();
    DurabilityCensus::take(keys.iter().copied(), stores, target)
}

/// Feeds the durability gauges into the monitor, the same way a sampler
/// hook would: under-replication and loss from the census, in-flight
/// repair work summed over the live population.
fn observe(
    mon: &Monitor,
    rt: &Runtime<DhashNode, UniformLatency>,
    addrs: &[Addr],
    keys: &[Id],
    target: usize,
) -> DurabilityCensus {
    let c = census(rt, addrs, keys, target);
    let inflight: usize = addrs
        .iter()
        .copied()
        .filter(|&a| rt.is_alive(a))
        .map(|a| rt.node(a).expect("alive").repair_inflight())
        .sum();
    mon.observe("dht.blocks.under_replicated", rt.now(), c.under_replicated as f64, None);
    mon.observe("dht.blocks.lost", rt.now(), c.lost as f64, None);
    mon.observe("dht.repair.inflight", rt.now(), inflight as f64, None);
    c
}

/// Runs the two-wave holder kill against `keys[0]` and returns the final
/// census: wave one crashes every holder but one, a repair window passes,
/// wave two crashes the last original holder.
fn run_kill_waves(
    rt: &mut Runtime<DhashNode, UniformLatency>,
    mon: &Monitor,
    addrs: &[Addr],
    keys: &[Id],
    target: usize,
) -> (DurabilityCensus, Vec<Addr>) {
    let original = holders(rt, addrs, keys[0]);
    assert!(original.len() >= 2, "seeding must replicate keys[0]");
    for &a in &original[1..] {
        rt.kill(a);
    }
    observe(mon, rt, addrs, keys, target);
    // One repair window: epoch kicks fire 2 s after the overlay notices,
    // plus the periodic 15 s timer; 60 s covers several rounds.
    rt.run_until(rt.now() + SimDuration::from_secs(60));
    observe(mon, rt, addrs, keys, target);
    rt.kill(original[0]);
    rt.run_until(rt.now() + SimDuration::from_secs(90));
    (observe(mon, rt, addrs, keys, target), original)
}

/// A deterministic fingerprint of everything the protocol layer produced.
fn fingerprint(rt: &Runtime<DhashNode, UniformLatency>) -> String {
    run_fingerprint(rt, &[verme_chord::keys::descriptors(), verme_dht::keys::descriptors()])
}

/// Drives the fault-free put/get workload used by the inertness check.
fn drive_idle(rt: &mut Runtime<DhashNode, UniformLatency>, addrs: &[Addr], seed: u64) -> Vec<Id> {
    let keys = seed_standard(rt, addrs, seed);
    let mut rng = SeedSource::new(seed).stream("idle-gets");
    for i in 0..16usize {
        rt.run_until(rt.now() + SimDuration::from_secs(10));
        let who = addrs[rng.gen_range(0..addrs.len())];
        let key = keys[i % keys.len()];
        rt.invoke(who, |n, ctx| n.start_get(key, ctx)).expect("alive");
    }
    rt.run_until(rt.now() + SimDuration::from_secs(120));
    keys
}

fn main() -> ExitCode {
    let args = CliArgs::parse();
    let mut checks = Checks::default();
    let target = DhtConfig::default().replicas;

    // ------------------------------------------------------------------
    // 1. Repair keeps the block alive through both kill waves.
    // ------------------------------------------------------------------
    let cfg_on = config(true);
    let (mut rt, addrs) = dhash_ring(NODES, args.seed, &cfg_on);
    let keys = seed_standard(&mut rt, &addrs, args.seed);
    assert!(!keys.is_empty(), "no block survived fault-free seeding");
    let mon = Monitor::new(1024);
    mon.add_rule("dht.blocks.lost", Rule::Threshold { min: 1.0 });
    let (after, original) = run_kill_waves(&mut rt, &mon, &addrs, &keys, target);
    checks.check("repair.restores", {
        let delta = rt.metrics().counter_snapshot();
        let rounds = delta.get(verme_dht::keys::REPAIR_ROUNDS).copied().unwrap_or(0);
        let pushed = delta.get(verme_dht::keys::REPAIR_PUSHED).copied().unwrap_or(0);
        if after.lost > 0 {
            Err(format!("lost {} block(s) despite repair: {:?}", after.lost, after.holders))
        } else if !after.fully_replicated() {
            Err(format!(
                "repair never restored full replication: {} under target {target}",
                after.under_replicated
            ))
        } else if rounds == 0 || pushed == 0 {
            Err(format!("kill waves triggered no repair work: rounds {rounds}, pushed {pushed}"))
        } else if !mon.alerts().is_empty() {
            Err(format!("loss rule fired on the repaired ring: {}", mon.alerts()[0].series))
        } else {
            Ok(format!(
                "{} original holders killed, {rounds} rounds pushed {pushed} blocks, \
                 all {} keys back at {target}+",
                original.len(),
                after.keys
            ))
        }
    });

    // ------------------------------------------------------------------
    // 2. The identical script without repair loses the block and the
    //    monitor rule catches it.
    // ------------------------------------------------------------------
    let cfg_off = config(false);
    let (mut rt_off, addrs_off) = dhash_ring(NODES, args.seed, &cfg_off);
    let keys_off = seed_standard(&mut rt_off, &addrs_off, args.seed);
    let mon_off = Monitor::new(1024);
    mon_off.add_rule("dht.blocks.lost", Rule::Threshold { min: 1.0 });
    let (after_off, _) = run_kill_waves(&mut rt_off, &mon_off, &addrs_off, &keys_off, target);
    checks.check("norepair.loses", {
        if after_off.lost == 0 {
            Err("killing every holder somehow kept the block alive without repair".into())
        } else if mon_off.alerts().is_empty() {
            Err(format!("{} block(s) lost but the loss rule never fired", after_off.lost))
        } else {
            Ok(format!(
                "{} block(s) lost, rule {} fired at {}",
                after_off.lost,
                mon_off.alerts()[0].rule,
                mon_off.alerts()[0].at
            ))
        }
    });

    // ------------------------------------------------------------------
    // 3. Fault-free, the repair plane is byte-for-byte inert.
    // ------------------------------------------------------------------
    let (mut rt_a, addrs_a) = dhash_ring(NODES, args.seed, &config(true));
    drive_idle(&mut rt_a, &addrs_a, args.seed);
    let print_on = fingerprint(&rt_a);
    let (mut rt_b, addrs_b) = dhash_ring(NODES, args.seed, &config(false));
    drive_idle(&mut rt_b, &addrs_b, args.seed);
    checks.check(
        "repair_idle.identical",
        same_bytes(&print_on, &fingerprint(&rt_b))
            .map(|n| format!("{n} fingerprint bytes match"))
            .map_err(|at| format!("repair-on fault-free run diverged from repair-off at {at}")),
    );

    checks.finish()
}
