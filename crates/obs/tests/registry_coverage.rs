//! Registry coverage for the workload/serving plane: every metric the
//! `verme-load` generator and the `verme-dht` serving features emit must
//! have a catalogued descriptor, appear in the NDJSON export, and show up
//! as a row in the monitor's `render_health` report.

use verme_obs::{Monitor, Registry};
use verme_sim::metrics::{MetricKind, MetricsSink};
use verme_sim::{SimDuration, SimTime};

/// Every plane key, with the kind each must be catalogued under.
const PLANE_KEYS: &[(&str, MetricKind)] = &[
    (verme_load::keys::LOAD_OFFERED, MetricKind::Counter),
    (verme_load::keys::LOAD_COMPLETED, MetricKind::Counter),
    (verme_load::keys::LOAD_FAILED, MetricKind::Counter),
    (verme_load::keys::LOAD_LATENCY_MS, MetricKind::Histogram),
    (verme_dht::keys::CACHE_HITS, MetricKind::Counter),
    (verme_dht::keys::CACHE_MISSES, MetricKind::Counter),
    (verme_dht::keys::CACHE_INVALIDATIONS, MetricKind::Counter),
    (verme_dht::keys::GETS_COALESCED, MetricKind::Counter),
    (verme_dht::keys::LOOKUP_MEMO_HITS, MetricKind::Counter),
];

fn plane_registry() -> Registry {
    let mut registry = Registry::new();
    registry.register_all(verme_load::keys::descriptors());
    registry.register_all(verme_dht::keys::descriptors());
    registry
}

#[test]
fn every_plane_metric_is_catalogued_with_its_kind() {
    let registry = plane_registry();
    for &(key, kind) in PLANE_KEYS {
        let desc = registry
            .get(key)
            .unwrap_or_else(|| panic!("metric {key:?} has no registered descriptor"));
        assert_eq!(desc.kind, kind, "metric {key:?} catalogued under the wrong kind");
        assert!(!desc.help.is_empty(), "metric {key:?} has empty help text");
        assert!(!desc.unit.is_empty(), "metric {key:?} has empty unit");
    }
}

#[test]
fn every_plane_metric_appears_in_the_ndjson_export() {
    let registry = plane_registry();
    let mut sink = MetricsSink::default();
    for &(key, kind) in PLANE_KEYS {
        match kind {
            MetricKind::Counter => sink.count(key, 3),
            MetricKind::Histogram => sink.record(key, 41.5),
        }
    }
    // Nothing the plane records falls outside the catalogue...
    assert!(
        registry.unregistered(&sink).is_empty(),
        "plane keys recorded outside the catalogue: {:?}",
        registry.unregistered(&sink)
    );
    // ...and every key round-trips into the export with its value.
    let ndjson = registry.export_ndjson(&sink);
    for &(key, kind) in PLANE_KEYS {
        let line = ndjson
            .lines()
            .find(|l| l.contains(&format!("\"name\":\"{key}\"")))
            .unwrap_or_else(|| panic!("metric {key:?} missing from NDJSON export"));
        match kind {
            MetricKind::Counter => {
                assert!(line.contains("\"value\":3"), "counter {key:?} exported without its value")
            }
            MetricKind::Histogram => {
                assert!(line.contains("\"count\":1"), "histogram {key:?} exported without samples")
            }
        }
    }
}

#[test]
fn every_plane_metric_renders_a_health_row() {
    let monitor = Monitor::new(64);
    for (i, &(key, _)) in PLANE_KEYS.iter().enumerate() {
        let at = SimTime::ZERO + SimDuration::from_secs(i as u64 + 1);
        monitor.observe(key, at, (i + 1) as f64, None);
    }
    let health = monitor.render_health();
    for &(key, _) in PLANE_KEYS {
        assert!(health.contains(key), "gauge {key:?} missing from render_health:\n{health}");
    }
}
