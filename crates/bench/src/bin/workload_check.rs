//! End-to-end check of the PR's real-traffic workload plane, run in CI.
//!
//! Complements `extL_load` (the latency-vs-load curves) with the plane's
//! functional guarantees:
//!
//! 1. workload generation is deterministic per seed: the same seed
//!    produces the identical event schedule for every profile, and a
//!    different seed produces a different one;
//! 2. coalescing issues exactly one upstream fetch: K concurrent gets
//!    for one key count K−1 `dht.gets.coalesced`, every waiter gets the
//!    value, and the foreground data bytes equal a single-get run's;
//! 3. cache invalidation fires when repair moves a block underneath a
//!    node that has it cached;
//! 4. with every serving feature off, the plane is inert: serving-only
//!    knobs (capacity, memo TTL) cannot change a single byte of the
//!    run, all five new counters stay zero, and a same-seed rerun is
//!    byte-identical — i.e. the cache-off run matches pre-plane output.
//!
//! Exits non-zero on the first broken guarantee.
//!
//! ```text
//! cargo run -p verme-bench --release --bin workload_check
//! ```

use std::process::ExitCode;

use bytes::Bytes;

use verme_bench::testbed::{dhash_ring, run_fingerprint, same_bytes, Checks};
use verme_bench::CliArgs;
use verme_chord::Id;
use verme_dht::{keys as dht_keys, DhashNode, DhtConfig, DhtNode};
use verme_load::{generate_schedule, LoadProfile};
use verme_sim::runtime::UniformLatency;
use verme_sim::{Addr, Runtime, SeedSource, SimDuration, SimTime};

const NODES: usize = 64;

/// Puts one block fault-free from `addrs[0]` and returns its key.
fn seed_one(rt: &mut Runtime<DhashNode, UniformLatency>, addrs: &[Addr]) -> (Id, Bytes) {
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let value = Bytes::from(vec![0x57u8; 1024]);
    let key = verme_dht::block_key(&value);
    let v = value.clone();
    rt.invoke(addrs[0], |n, ctx| n.start_put(v, ctx)).expect("alive");
    rt.run_until(rt.now() + SimDuration::from_secs(20));
    assert!(
        rt.node_mut(addrs[0]).unwrap().take_op_outcomes().iter().any(|o| o.ok),
        "fault-free seeding put failed"
    );
    rt.run_until(rt.now() + SimDuration::from_secs(10));
    (key, value)
}

/// Foreground data bytes moved so far.
fn data_bytes(rt: &Runtime<DhashNode, UniformLatency>) -> u64 {
    rt.metrics().counter("bytes.data")
}

/// A deterministic fingerprint of everything the protocol layer produced.
fn fingerprint(rt: &Runtime<DhashNode, UniformLatency>) -> String {
    run_fingerprint(rt, &[verme_chord::keys::descriptors(), verme_dht::keys::descriptors()])
}

/// Issues `gets` concurrent gets for `key` from `who`, runs to
/// quiescence, and returns the outcomes.
fn burst_gets(
    rt: &mut Runtime<DhashNode, UniformLatency>,
    who: Addr,
    key: Id,
    gets: usize,
) -> Vec<verme_dht::OpOutcome> {
    for _ in 0..gets {
        rt.invoke(who, |n, ctx| n.start_get(key, ctx)).expect("alive");
    }
    rt.run_until(rt.now() + SimDuration::from_secs(40));
    rt.node_mut(who).unwrap().take_op_outcomes()
}

/// The small idle workload used by the inertness fingerprints.
fn drive_idle(rt: &mut Runtime<DhashNode, UniformLatency>, addrs: &[Addr]) {
    let (key, _) = seed_one(rt, addrs);
    for i in 0..12usize {
        rt.run_until(rt.now() + SimDuration::from_secs(10));
        let who = addrs[(i * 11 + 5) % addrs.len()];
        rt.invoke(who, |n, ctx| n.start_get(key, ctx)).expect("alive");
    }
    rt.run_until(rt.now() + SimDuration::from_secs(120));
}

fn main() -> ExitCode {
    let args = CliArgs::parse();
    let mut checks = Checks::default();

    // ------------------------------------------------------------------
    // 1. Same seed, same schedule — for every profile shape.
    // ------------------------------------------------------------------
    checks.check("generator.deterministic", {
        let horizon = SimDuration::from_secs(120);
        let mut verdict = Ok(String::new());
        let mut total = 0usize;
        for spec in ["zipf@10", "uniform@10", "bursty@10", "diurnal@10"] {
            let profile = LoadProfile::parse(spec).expect("known profile");
            let a = generate_schedule(&profile, &SeedSource::new(args.seed), horizon);
            let b = generate_schedule(&profile, &SeedSource::new(args.seed), horizon);
            let c = generate_schedule(&profile, &SeedSource::new(args.seed ^ 0xFF), horizon);
            total += a.len();
            if a != b {
                verdict = Err(format!("{spec}: same seed produced different schedules"));
                break;
            }
            if a == c {
                verdict = Err(format!("{spec}: different seeds produced identical schedules"));
                break;
            }
        }
        verdict.map(|_| format!("4 profiles x {total} total events replayed identically"))
    });

    // ------------------------------------------------------------------
    // 2. K concurrent gets coalesce into exactly one upstream fetch.
    // ------------------------------------------------------------------
    let coalesce_cfg = DhtConfig { coalesce_gets: true, ..DhtConfig::default() };
    let (mut rt_many, addrs_many) = dhash_ring(NODES, args.seed, &coalesce_cfg);
    let (key, value) = seed_one(&mut rt_many, &addrs_many);
    let reader = addrs_many[5];
    let before_many = data_bytes(&rt_many);
    const BURST: usize = 5;
    let outs = burst_gets(&mut rt_many, reader, key, BURST);
    let burst_bytes = data_bytes(&rt_many) - before_many;

    let (mut rt_one, addrs_one) = dhash_ring(NODES, args.seed, &coalesce_cfg);
    let (key_one, _) = seed_one(&mut rt_one, &addrs_one);
    let before_one = data_bytes(&rt_one);
    let _ = burst_gets(&mut rt_one, addrs_one[5], key_one, 1);
    let single_bytes = data_bytes(&rt_one) - before_one;

    checks.check("coalesce.single_fetch", {
        let coalesced = rt_many.metrics().counter(dht_keys::GETS_COALESCED);
        if outs.len() != BURST {
            Err(format!("{} outcomes for {BURST} gets", outs.len()))
        } else if !outs.iter().all(|o| o.ok && o.value.as_ref() == Some(&value)) {
            Err("a waiter failed or saw a different value".into())
        } else if coalesced != BURST as u64 - 1 {
            Err(format!("{coalesced} gets coalesced, expected {}", BURST - 1))
        } else if burst_bytes != single_bytes {
            Err(format!(
                "{BURST} coalesced gets moved {burst_bytes} data bytes, \
                 a single get moves {single_bytes}"
            ))
        } else {
            Ok(format!(
                "{BURST} gets -> 1 upstream fetch ({burst_bytes} data bytes, \
                 {coalesced} waiters served)"
            ))
        }
    });

    // ------------------------------------------------------------------
    // 3. Repair-driven block movement invalidates the hot cache.
    // ------------------------------------------------------------------
    let cache_cfg = DhtConfig {
        cache_enabled: true,
        // Blind periodic stabilization pushed out, as in durability_check:
        // only the repair plane may move the block.
        data_stabilize_interval: SimDuration::from_secs(3_600),
        ..DhtConfig::default()
    };
    let (mut rt_c, addrs_c) = dhash_ring(NODES, args.seed, &cache_cfg);
    let (key_c, _) = seed_one(&mut rt_c, &addrs_c);
    checks.check("cache.invalidation_on_repair", {
        // The repair target after one holder dies is the next node in
        // the key's successor order past the current replica set.
        let replicas = cache_cfg.replicas;
        let mut by_dist: Vec<(Id, Addr)> =
            addrs_c.iter().map(|&a| (rt_c.node(a).unwrap().overlay().id(), a)).collect();
        by_dist.sort_unstable_by_key(|&(id, _)| key_c.distance_to(id));
        let next_in_line = by_dist[replicas].1;
        // It caches the block via an ordinary get...
        let outs = burst_gets(&mut rt_c, next_in_line, key_c, 1);
        let primed = outs.iter().any(|o| o.ok);
        // ...then a holder dies and repair pushes the block onto it.
        rt_c.kill(by_dist[0].1);
        rt_c.run_until(rt_c.now() + SimDuration::from_secs(120));
        let invalidations = rt_c.metrics().counter(dht_keys::CACHE_INVALIDATIONS);
        let adopted = rt_c.node(next_in_line).unwrap().store().contains(key_c);
        if !primed {
            Err("priming get failed".into())
        } else if !adopted {
            Err("repair never re-replicated onto the next-in-line node".into())
        } else if invalidations == 0 {
            Err("block moved onto a caching node but no invalidation fired".into())
        } else {
            Ok(format!(
                "holder killed, repair pushed the block, {invalidations} invalidation(s) fired"
            ))
        }
    });

    // ------------------------------------------------------------------
    // 4. Serving features off => the plane is inert, byte for byte.
    // ------------------------------------------------------------------
    let (mut rt_a, addrs_a) = dhash_ring(NODES, args.seed, &DhtConfig::default());
    drive_idle(&mut rt_a, &addrs_a);
    let print_default = fingerprint(&rt_a);
    // Same run with every serving-only knob changed — but the features
    // still off. Pre-plane behavior means none of this can matter.
    let knobbed = DhtConfig {
        cache_capacity: 1,
        memo_ttl: SimDuration::from_secs(1),
        ..DhtConfig::default()
    };
    let (mut rt_b, addrs_b) = dhash_ring(NODES, args.seed, &knobbed);
    drive_idle(&mut rt_b, &addrs_b);
    checks.check("serving_off.inert", {
        let print_knobbed = fingerprint(&rt_b);
        let new_counters = [
            dht_keys::CACHE_HITS,
            dht_keys::CACHE_MISSES,
            dht_keys::CACHE_INVALIDATIONS,
            dht_keys::GETS_COALESCED,
            dht_keys::LOOKUP_MEMO_HITS,
        ];
        let nonzero: Vec<&str> =
            new_counters.iter().copied().filter(|k| rt_a.metrics().counter(k) != 0).collect();
        if let Err(at) = same_bytes(&print_default, &print_knobbed) {
            Err(format!("serving-only knobs changed the run at {at}"))
        } else if !nonzero.is_empty() {
            Err(format!("features off but counters fired: {nonzero:?}"))
        } else {
            Ok(format!("{} fingerprint bytes match, all 5 new counters zero", print_default.len()))
        }
    });

    checks.finish()
}
