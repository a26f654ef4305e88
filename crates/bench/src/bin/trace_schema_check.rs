//! End-to-end check of the observability pipeline, run in CI.
//!
//! Drives a small fault-free Chord ring and a small Verme ring with the
//! flight recorder and the path collector teed into the runtime tracer,
//! then verifies every layer of the `verme-obs` contract:
//!
//! 1. the recorded events serialize to NDJSON that parses back and passes
//!    the trace schema (every message-flow and protocol event carries a
//!    cause ID);
//! 2. the assembled lookup paths satisfy the routing invariants — Chord's
//!    monotone clockwise progress, Verme's opposite-type rule on
//!    cross-section hops;
//! 3. the per-lookup hop counts recorded in the trace agree with the
//!    protocols' own hop histograms (trace and metrics tell one story);
//! 4. every metric the run produced is covered by a registry descriptor,
//!    and both exporters render it.
//!
//! Exits non-zero on the first broken guarantee.
//!
//! ```text
//! cargo run -p verme-bench --release --bin trace_schema_check
//! cargo run -p verme-bench --release --bin trace_schema_check -- --trace /tmp/trace.ndjson
//! ```

use std::process::ExitCode;

use verme_bench::testbed::{chord_lookup, king_chord_ring, lookup_workload, Checks};
use verme_bench::CliArgs;
use verme_chord::Id;
use verme_core::node::verme_keys;
use verme_core::{SectionLayout, VermeConfig, VermeNode, VermeStaticRing};
use verme_crypto::CertificateAuthority;
use verme_net::KingMatrix;
use verme_obs::{
    check_chord_monotone, check_hop_agreement, check_verme_opposite_types, parse_ndjson,
    trace_to_ndjson, validate_trace_schema, LookupPath, PathCollector, Registry,
};
use verme_sim::{
    tee, Addr, FlightRecorder, LatencyModel, Node, Runtime, SeedSource, SimDuration, TraceEvent,
};

const NODES: usize = 128;
const LOOKUPS: usize = 300;
const RECORDER_CAPACITY: usize = 1 << 16;

struct Probe {
    /// Everything the runtime traced, oldest first.
    events: Vec<TraceEvent>,
    /// Completed application-level lookup paths.
    app_paths: Vec<LookupPath>,
    /// All finished paths (maintenance included).
    all_paths: Vec<LookupPath>,
}

/// Installs recorder + collector, drives the standard lookup workload
/// ([`LOOKUPS`] random keys through `issue`, from the members of `ring`),
/// and drains the trace.
fn drive<N: Node, L: LatencyModel>(
    rt: &mut Runtime<N, L>,
    ring: &[Addr],
    seed: u64,
    app_kind: &str,
    issue: impl Fn(&mut Runtime<N, L>, Addr, Id),
) -> Probe {
    let recorder = FlightRecorder::new(RECORDER_CAPACITY);
    let collector = PathCollector::new();
    rt.set_tracer(Some(tee(recorder.tracer(), collector.tracer())));

    let rng = SeedSource::new(seed).stream("schema-check");
    lookup_workload(rt, ring, rng, LOOKUPS, issue);
    rt.set_tracer(None);

    let all_paths = collector.finished();
    let app_paths: Vec<LookupPath> =
        all_paths.iter().filter(|p| p.kind == app_kind && p.ok == Some(true)).cloned().collect();
    Probe { events: recorder.snapshot(), app_paths, all_paths }
}

fn build_verme(seed: u64) -> (Runtime<VermeNode<()>, KingMatrix>, Vec<Addr>) {
    // Section size (nodes/sections = 32) must exceed the successor and
    // predecessor list lengths (10): otherwise a single successor-list
    // hop can skip a whole section and land same-type, which the
    // opposite-type invariant rightly rejects. The paper keeps the same
    // margin (24-node sections, 10-entry lists).
    let layout = SectionLayout::with_sections(4, 2);
    let king = KingMatrix::synthetic(NODES, verme_net::king::KING_MEAN_RTT_MS, seed);
    let mut rt = Runtime::new(king, seed);
    let mut ca = CertificateAuthority::new(seed);
    let ring = VermeStaticRing::generate(layout, NODES, seed);
    let cfg = VermeConfig {
        hop_timeout: SimDuration::from_secs(20),
        lookup_deadline: SimDuration::from_secs(60),
        ..VermeConfig::new(layout)
    };
    let addrs = ring.spawn(&mut rt, |i| ring.build_node(i, cfg.clone(), &mut ca));
    (rt, addrs)
}

/// Schema-validates a recorded event stream end to end through NDJSON.
fn schema_roundtrip(events: &[TraceEvent]) -> Result<String, String> {
    let ndjson = trace_to_ndjson(events);
    let lines = parse_ndjson(&ndjson).map_err(|(n, e)| format!("line {n}: {e}"))?;
    if lines.len() != events.len() {
        return Err(format!("{} events serialized to {} lines", events.len(), lines.len()));
    }
    let stats = validate_trace_schema(&lines).map_err(|e| e.to_string())?;
    Ok(format!("{} events, {} caused, {} proto", stats.events, stats.caused, stats.proto))
}

fn main() -> ExitCode {
    let args = CliArgs::parse();
    let mut checks = Checks::default();

    // ------------------------------------------------------------------
    // Chord: schema + monotone progress + hop agreement.
    // ------------------------------------------------------------------
    let (mut chord, ring) = king_chord_ring(NODES, args.seed);
    let probe = drive(&mut chord, &ring, args.seed, "app", chord_lookup);
    checks.check("chord.schema", schema_roundtrip(&probe.events));
    checks.check("chord.paths", {
        if probe.app_paths.len() < LOOKUPS / 2 {
            Err(format!(
                "only {} of {LOOKUPS} app lookups traced to completion",
                probe.app_paths.len()
            ))
        } else {
            Ok(format!("{} app paths ({} total)", probe.app_paths.len(), probe.all_paths.len()))
        }
    });
    checks.check("chord.monotone", {
        let violations = check_chord_monotone(&probe.app_paths);
        if violations.is_empty() {
            Ok("clockwise progress holds on every hop".into())
        } else {
            Err(format!("{} violations; first: {}", violations.len(), violations[0]))
        }
    });
    checks.check("chord.hop_agreement", {
        match chord.metrics().histogram(verme_chord::keys::LOOKUP_HOPS) {
            None => Err("no lookup.hops histogram".into()),
            Some(hist) => check_hop_agreement(&probe.app_paths, hist)
                .map(|()| format!("trace matches histogram over {} lookups", hist.count())),
        }
    });
    let mut trace_dump = probe.events;

    // ------------------------------------------------------------------
    // Verme: schema + opposite-type rule + hop agreement.
    // ------------------------------------------------------------------
    let (mut verme, ring) = build_verme(args.seed);
    let probe = drive(&mut verme, &ring, args.seed, "replicas", |rt, addr, key| {
        rt.invoke(addr, |node, ctx| {
            if node.is_joined() {
                node.start_measured_lookup(key, ctx);
            }
        });
    });
    checks.check("verme.schema", schema_roundtrip(&probe.events));
    checks.check("verme.paths", {
        if probe.app_paths.len() < LOOKUPS / 2 {
            Err(format!(
                "only {} of {LOOKUPS} replica lookups traced to completion",
                probe.app_paths.len()
            ))
        } else {
            Ok(format!("{} replica paths ({} total)", probe.app_paths.len(), probe.all_paths.len()))
        }
    });
    checks.check("verme.opposite_types", {
        let violations = check_verme_opposite_types(&probe.app_paths);
        if violations.is_empty() {
            Ok("every cross-section hop connects opposite types".into())
        } else {
            Err(format!("{} violations; first: {}", violations.len(), violations[0]))
        }
    });
    checks.check("verme.hop_agreement", {
        match verme.metrics().histogram(verme_chord::keys::LOOKUP_HOPS) {
            None => Err("no lookup.hops histogram".into()),
            Some(hist) => check_hop_agreement(&probe.app_paths, hist)
                .map(|()| format!("trace matches histogram over {} lookups", hist.count())),
        }
    });
    trace_dump.extend(probe.events);

    // ------------------------------------------------------------------
    // Registry: every metric both runs produced has a descriptor, and
    // both exporters render.
    // ------------------------------------------------------------------
    let mut registry = Registry::new();
    registry.register_all(verme_chord::keys::descriptors());
    registry.register_all(verme_dht::keys::descriptors());
    registry.register_all(verme_keys::descriptors());
    registry.register_all(verme_sim::fault::keys::descriptors());
    checks.check("registry.coverage", {
        let mut missing = registry.unregistered(chord.metrics());
        missing.extend(registry.unregistered(verme.metrics()));
        missing.sort_unstable();
        missing.dedup();
        if missing.is_empty() {
            Ok(format!("{} descriptors cover both runs", registry.entries().len()))
        } else {
            Err(format!("metrics without descriptors: {missing:?}"))
        }
    });
    checks.check("registry.export", {
        let ndjson = registry.export_ndjson(chord.metrics());
        let csv = registry.export_csv(verme.metrics());
        match parse_ndjson(&ndjson) {
            Err((n, e)) => Err(format!("metrics NDJSON line {n}: {e}")),
            Ok(lines) => {
                let rows = csv.lines().count();
                Ok(format!("{} NDJSON metric lines, {rows} CSV rows", lines.len()))
            }
        }
    });

    if let Some(path) = &args.trace {
        std::fs::write(path, trace_to_ndjson(&trace_dump)).expect("write trace dump");
        println!("# trace: {} events -> {path}", trace_dump.len());
    }
    checks.finish()
}
