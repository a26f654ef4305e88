//! Cross-crate tests for the measurement stack: metrics recorded by real
//! protocol runs feed the analysis utilities coherently.

use verme::chord::Id;
use verme::core::{SectionLayout, VermeConfig, VermeNode, VermeStaticRing};
use verme::crypto::CertificateAuthority;
use verme::sim::runtime::UniformLatency;
use verme::sim::{HostId, Runtime, SeedSource, SimDuration, SimTime};
use verme::worm::{analyze, logistic, run_scenario, Scenario, ScenarioConfig};

#[test]
fn chord_worm_tracks_the_logistic_model_early() {
    // The unconstrained Chord worm should follow an S-curve whose early
    // exponential growth the analysis module recovers; the analytic
    // logistic with the fitted rate should then stay within a small
    // factor of the simulated curve during the growth phase.
    let cfg = ScenarioConfig {
        nodes: 4000,
        sections: 128,
        duration: SimDuration::from_secs(300),
        seed: 17,
    };
    let r = run_scenario(&Scenario::ChordWorm, &cfg);
    let stats = analyze(&r.curve);
    assert!(stats.growth_rate_per_s > 0.1, "growth rate {:.3}", stats.growth_rate_per_s);
    assert!(stats.t10_s.unwrap() < stats.t90_s.unwrap());

    // Anchor the logistic at the measured 10% point (the worm's
    // activation delay shifts the whole curve right of an I0 = 1 model)
    // and check it predicts the 10% → 50% climb.
    let n = r.vulnerable as f64;
    let t10 = r.time_to_vulnerable_fraction(0.1).unwrap().as_secs_f64();
    let t50 = r.time_to_vulnerable_fraction(0.5).unwrap().as_secs_f64();
    let predicted = logistic(n, 0.1 * n, stats.growth_rate_per_s, t50 - t10);
    let ratio = predicted / (0.5 * n);
    assert!(
        (0.5..=2.0).contains(&ratio),
        "logistic 10%→50% prediction off by {ratio:.2}x          (growth {:.3}/s, t10 {t10:.1}s, t50 {t50:.1}s)",
        stats.growth_rate_per_s
    );
}

#[test]
fn metrics_sink_aggregates_full_runs_consistently() {
    let layout = SectionLayout::with_sections(8, 2);
    let n = 128;
    let ring = VermeStaticRing::generate(layout, n, 23);
    let mut ca = CertificateAuthority::new(23);
    let mut rt: Runtime<VermeNode, UniformLatency> =
        Runtime::new(UniformLatency::new(n, SimDuration::from_millis(15)), 23);
    for i in 0..n {
        let node: VermeNode = ring.build_node(i, VermeConfig::new(layout), &mut ca);
        rt.spawn(HostId(i), node);
    }
    let mut rng = SeedSource::new(4).stream("keys");
    let issued = 25u64;
    for i in 0..issued {
        let origin = ring.node((i as usize * 17) % n).addr;
        let key = Id::random(&mut rng);
        rt.invoke(origin, |node, ctx| node.start_measured_lookup(key, ctx)).unwrap();
        rt.run_until(rt.now() + SimDuration::from_secs(8));
    }
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(400));

    // Accounting coherence across layers:
    let m = rt.metrics();
    assert_eq!(m.counter("lookup.issued"), issued);
    assert_eq!(m.counter("lookup.completed") + m.counter("lookup.failed"), issued);
    let hist = rt.metrics().histogram("lookup.latency_ms").expect("latencies recorded");
    assert_eq!(hist.count() as u64, m.counter("lookup.completed"));
    // Byte categories never exceed the runtime's total sent bytes.
    let cat_total = m.counter("bytes.lookup") + m.counter("bytes.maint");
    assert!(cat_total <= rt.stats().bytes_sent);
    // And the overwhelming majority of traffic is categorized.
    assert!(cat_total * 10 >= rt.stats().bytes_sent * 9);
}
