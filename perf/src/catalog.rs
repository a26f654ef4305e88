//! The metric catalogue: every name the benchmark prints, with its unit
//! and which direction is better. The hand-written `BENCHMARK.json` at the
//! repo root says the same; a unit test keeps the two equal.

use crate::stats::Better::{self, Higher, Lower};

/// How long one run measures, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// Timed children per workload in a suite run (plus one traced child).
pub const TIMED_CHILDREN: usize = 3;

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Absolute worsening `--compare` always tolerates, in the metric's
    /// unit: a share of a near-zero median is below what a clock resolves.
    pub floor: f64,
}

/// The end-to-end metrics, measured with tracing off.
///
/// The bounds are what the 2-core sandbox can resolve, not what one would
/// like: identical code and seed swing by 25-30% between its quiet and
/// noisy phases (each tens of seconds long), and a bound below the spread
/// of ten runs only produces false alarms. See README, "Bounds".
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "run_s", unit: "s", better: Lower, bound: 0.25, floor: 0.0 },
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25, floor: 0.05 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.15, floor: 0.0 },
];

/// A per-layer metric, measured by the traced pass or a kernel.
pub struct PerLayer {
    /// Metric name; the part before the first `.` is the layer (crate).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, in report order.
pub const PER_LAYER: &[PerLayer] = &[
    // sim: spans and counts at the Runtime boundary.
    m("sim.events", "count", Lower),
    m("sim.ns_per_event", "ns", Lower),
    m("sim.events_per_s", "1/s", Higher),
    m("sim.queue_peak_depth", "count", Lower),
    m("sim.run_until_s", "s", Lower),
    m("sim.invoke_s", "s", Lower),
    m("sim.spawn_s", "s", Lower),
    m("sim.kill_s", "s", Lower),
    m("sim.msgs_sent", "count", Lower),
    m("sim.msgs_dropped", "count", Lower),
    m("sim.bytes_sent", "bytes", Lower),
    // sim: the in-program span profiler's dispatch scopes.
    m("sim.deliver.calls", "count", Lower),
    m("sim.deliver.self_s", "s", Lower),
    m("sim.timer.calls", "count", Lower),
    m("sim.timer.self_s", "s", Lower),
    m("sim.dead_letter.calls", "count", Lower),
    // sim: kernels.
    m("sim.queue.hold_ns_d4k", "ns", Lower),
    m("sim.queue.hold_ns_d64k", "ns", Lower),
    m("sim.null_event_ns_n1740", "ns", Lower),
    m("sim.null_event_ns_n20k", "ns", Lower),
    m("sim.metrics.record_ns", "ns", Lower),
    // net: kernels on the two topology models the workloads use.
    m("net.king.build_s", "s", Lower),
    m("net.king.delay_ns", "ns", Lower),
    m("net.transit_stub.build_s", "s", Lower),
    m("net.transit_stub.delay_ns", "ns", Lower),
    // crypto: kernels.
    m("crypto.issue_ns", "ns", Lower),
    m("crypto.verify_ns", "ns", Lower),
    m("crypto.seal_open_ns", "ns", Lower),
    // chord: arms that run verme-chord node code (Chord, DHash, chaos).
    m("chord.ring_build_s", "s", Lower),
    m("chord.run_s", "s", Lower),
    m("chord.stabilize.calls", "count", Lower),
    m("chord.stabilize.self_s", "s", Lower),
    m("chord.lookup_relay.calls", "count", Lower),
    m("chord.lookup_relay.self_s", "s", Lower),
    m("chord.lookups_failed_frac", "ratio", Lower),
    m("chord.bytes_maint", "bytes", Lower),
    // core: arms that run verme-core node code (Verme, the VerDi variants).
    m("core.ring_build_s", "s", Lower),
    m("core.run_s", "s", Lower),
    m("core.stabilize.self_s", "s", Lower),
    m("core.lookup_relay.self_s", "s", Lower),
    m("core.joins", "count", Higher),
    m("core.lookups_failed_frac", "ratio", Lower),
    // dht
    m("dht.dhash.run_s", "s", Lower),
    m("dht.fast.run_s", "s", Lower),
    m("dht.secure.run_s", "s", Lower),
    m("dht.compromise.run_s", "s", Lower),
    m("dht.seed_s", "s", Lower),
    m("dht.op.calls", "count", Lower),
    m("dht.op.self_s", "s", Lower),
    m("dht.serve.calls", "count", Lower),
    m("dht.serve.self_s", "s", Lower),
    m("dht.repair.calls", "count", Lower),
    m("dht.repair.self_s", "s", Lower),
    m("dht.cache_hit_frac", "ratio", Higher),
    m("dht.gets_coalesced", "count", Higher),
    m("dht.memo_hits", "count", Higher),
    m("dht.op_retries", "count", Lower),
    m("dht.bytes_per_op", "bytes", Lower),
    // load
    m("load.schedule_s", "s", Lower),
    m("load.schedule_ops", "count", Higher),
    m("load.schedule_ns_per_op", "ns", Lower),
    // worm
    m("worm.chord.run_s", "s", Lower),
    m("worm.fast.run_s", "s", Lower),
    m("worm.compromise.run_s", "s", Lower),
    m("worm.secure.run_s", "s", Lower),
    m("worm.verme.run_s", "s", Lower),
    m("worm.build.calls", "count", Lower),
    m("worm.build.self_s", "s", Lower),
    m("worm.run.self_s", "s", Lower),
    m("worm.propagate.calls", "count", Lower),
    m("worm.scans", "count", Lower),
    m("worm.scans_per_s", "1/s", Higher),
    // chaos
    m("chaos.plan_s", "s", Lower),
    m("chaos.ring.trials_per_s", "1/s", Higher),
    m("chaos.durability.trials_per_s", "1/s", Higher),
    m("chaos.ring.trial_ms_p50", "ms", Lower),
    m("chaos.ring.trial_ms_p95", "ms", Lower),
    m("chaos.durability.trial_ms_p50", "ms", Lower),
    m("chaos.durability.trial_ms_p90", "ms", Lower),
    m("chaos.findings", "count", Lower),
    // obs: every workload runs observers off; these must not rise.
    m("obs.tracer_overhead_frac", "ratio", Lower),
    m("obs.export_ns_per_key", "ns", Lower),
    // bench: the instrument's own cost and coverage.
    m("bench.trace_overhead_frac", "ratio", Lower),
    m("bench.driver_self_s", "s", Lower),
    m("bench.span_coverage_frac", "ratio", Higher),
    m("bench.profiler_attributed_frac", "ratio", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use verme_obs::Json;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|e| e.name));
        names.extend(PER_LAYER.iter().map(|p| p.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for e in END_TO_END {
            assert!(e.bound > 0.0 && e.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound), "setup_s has the largest bound");
    }

    /// The `(name, unit, better, bound)` rows of one `BENCHMARK.json` section.
    fn rows(doc: &Json, section: &str) -> Vec<(String, String, String, Option<f64>)> {
        let text = |e: &Json, key: &str| -> String {
            e.get(key).and_then(Json::as_str).expect("entry has name, unit and better").into()
        };
        doc.get(section)
            .and_then(Json::as_array)
            .expect("section is an array")
            .iter()
            .map(|e| {
                let bound = e.get("bound").and_then(Json::as_f64);
                (text(e, "name"), text(e, "unit"), text(e, "better"), bound)
            })
            .collect()
    }

    #[test]
    fn checked_in_benchmark_json_says_what_the_catalogue_says() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = verme_obs::parse(&on_disk).expect("valid JSON");
        let keys: Vec<&str> =
            doc.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(doc.get("run_seconds").and_then(Json::as_u64), Some(RUN_SECONDS));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads is an array")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload has a name"))
            .collect();
        assert_eq!(workloads, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        let spelled = |b: Better| String::from(if b == Lower { "lower" } else { "higher" });
        let end_to_end: Vec<_> = END_TO_END
            .iter()
            .map(|e| (e.name.into(), e.unit.into(), spelled(e.better), Some(e.bound)))
            .collect();
        assert_eq!(rows(&doc, "end_to_end"), end_to_end);
        let per_layer: Vec<_> = PER_LAYER
            .iter()
            .map(|p| (p.name.into(), p.unit.into(), spelled(p.better), None))
            .collect();
        assert_eq!(rows(&doc, "per_layer"), per_layer);
    }
}
