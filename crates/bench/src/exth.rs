//! Extension H — detection latency of the live monitoring plane.
//!
//! The paper's argument is *structural*: Verme contains a worm without
//! anyone detecting it. The reactive alternative (guardian nodes, Zhou et
//! al.) needs its detectors to win a race against the outbreak. This
//! extension quantifies that race with the `verme-obs` monitor attached
//! to the guardian scenario:
//!
//! * **coverage sweep** — detection latency (first detector alert minus
//!   first infection) as guardian coverage grows. More guardians see the
//!   worm's scans sooner, so latency must fall monotonically.
//! * **detector sweeps** — for a fixed coverage, how the latency depends
//!   on the detector itself: the alert-count threshold and the
//!   rate-of-change window, swept against the same outbreak.
//!
//! Every repetition is a deterministic function of the seed; the sweep
//! averages a few repetitions with derived seeds (as Figure 8 does).

use verme_obs::{Monitor, Rule};
use verme_sim::SimDuration;
use verme_worm::{run_scenario_on, Instrumentation, Overlay, Population, Scenario, ScenarioConfig};

/// Parameters for the Extension H sweeps.
#[derive(Clone, Debug)]
pub struct ExtHParams {
    /// Base population/timing configuration.
    pub config: ScenarioConfig,
    /// Guardian coverage fractions for the main sweep (ascending).
    pub coverages: Vec<f64>,
    /// Alert-count thresholds for the detector-threshold sweep.
    pub thresholds: Vec<f64>,
    /// Rate windows (seconds) for the rate-of-change sweep.
    pub windows_s: Vec<f64>,
    /// Monitor sample interval (simulated time).
    pub sample_interval: SimDuration,
    /// Per-overlay-hop guardian alert delay, seconds.
    pub alert_hop_delay_s: f64,
    /// Repetitions to average per point.
    pub repetitions: u64,
}

impl ExtHParams {
    /// Paper-scale setup (100 000 nodes).
    pub fn paper(seed: u64) -> Self {
        ExtHParams {
            config: ScenarioConfig { seed, ..ScenarioConfig::default() },
            coverages: vec![0.005, 0.01, 0.02, 0.05, 0.10],
            thresholds: vec![1.0, 4.0, 16.0, 64.0],
            windows_s: vec![5.0, 20.0, 80.0],
            sample_interval: SimDuration::from_secs(1),
            alert_hop_delay_s: 1.0,
            repetitions: 3,
        }
    }

    /// Laptop-quick setup (structurally identical, smaller population).
    pub fn quick(seed: u64) -> Self {
        ExtHParams {
            config: ScenarioConfig {
                nodes: 4096,
                sections: 128,
                duration: SimDuration::from_secs(2_000),
                seed,
            },
            coverages: vec![0.01, 0.05, 0.20],
            thresholds: vec![1.0, 8.0, 32.0],
            windows_s: vec![5.0, 20.0, 80.0],
            sample_interval: SimDuration::from_secs(1),
            alert_hop_delay_s: 1.0,
            repetitions: 3,
        }
    }
}

/// One point of the guardian-coverage sweep.
#[derive(Clone, Debug)]
pub struct CoveragePoint {
    /// Guardian fraction.
    pub coverage: f64,
    /// Mean detection latency (s) over the repetitions that detected.
    pub mean_latency_s: Option<f64>,
    /// Repetitions in which a detector fired.
    pub detected_reps: u64,
    /// Total repetitions.
    pub repetitions: u64,
    /// Mean final infected count.
    pub mean_final_infected: f64,
    /// Mean number of sections the worm reached.
    pub mean_sections_hit: f64,
    /// Total worm scans across repetitions.
    pub scans: u64,
}

/// One point of a detector-parameter sweep.
#[derive(Clone, Debug)]
pub struct DetectorPoint {
    /// Human-readable parameter value (`min=4`, `window=20s`, ...).
    pub label: String,
    /// Mean detection latency (s) over the repetitions that detected.
    pub mean_latency_s: Option<f64>,
    /// Repetitions in which a detector fired.
    pub detected_reps: u64,
    /// Total repetitions.
    pub repetitions: u64,
}

/// The three sweeps of the extension.
#[derive(Clone, Debug)]
pub struct ExtHSweeps {
    /// Detection latency vs guardian coverage. The detector watches the
    /// guardian-alert gauge (`worm.alerts` ≥ 1): it fires at the first
    /// sample after any guardian raised the alarm, so the latency is the
    /// time the *defense* needed to notice the outbreak at all.
    pub coverage: Vec<CoveragePoint>,
    /// Detector-threshold sweep at fixed coverage: the detector watches
    /// the *infected-count* gauge and needs `min` infections before
    /// firing, so the latency grows with the threshold at a rate set by
    /// the outbreak's speed.
    pub threshold: Vec<DetectorPoint>,
    /// Rate-of-change window sweep at fixed coverage: the detector fires
    /// when the infected count grows by at least one node per second over
    /// the window, so longer windows smooth the early exponential phase
    /// away and detect later.
    pub window: Vec<DetectorPoint>,
}

/// One setting's totals over the repetitions.
#[derive(Default)]
struct Totals {
    latency: f64,
    detected: u64,
    infected: f64,
    sections: f64,
    scans: u64,
}

impl Totals {
    fn mean_latency_s(&self) -> Option<f64> {
        (self.detected > 0).then(|| self.latency / self.detected as f64)
    }
}

/// Runs the coverage sweep over `p.coverages` and the two detector
/// sweeps at `detector_coverage`. Every setting attacks the same guarded
/// Chord overlay, so each repetition seed's population is built once, up
/// front, and every setting of every sweep runs on it.
pub fn run_sweeps(p: &ExtHParams, detector_coverage: f64) -> ExtHSweeps {
    let reps: Vec<(ScenarioConfig, Population)> = (0..p.repetitions)
        .map(|rep| {
            let cfg =
                ScenarioConfig { seed: p.config.seed.wrapping_add(rep * 7919), ..p.config.clone() };
            let pop = Population::build(&cfg, Overlay::Chord);
            (cfg, pop)
        })
        .collect();
    // One setting — a guardian coverage and the detector watching `key` —
    // over every repetition. A repetition's detection latency is the
    // earliest detector alert minus the outbreak's first infection.
    let measure = |coverage: f64, key: &str, rule: Rule| {
        let scenario = Scenario::ChordWithGuardians {
            guardian_fraction: coverage,
            alert_hop_delay_s: p.alert_hop_delay_s,
        };
        let mut sum = Totals::default();
        for (cfg, pop) in &reps {
            let mon = Monitor::new(4096);
            mon.add_rule(key, rule.clone());
            let inst =
                Instrumentation { recorder: None, monitor: Some((mon.clone(), p.sample_interval)) };
            let r = run_scenario_on(pop, &scenario, cfg, &inst);
            let first_infection = r.detection.iter().map(|d| d.first_infection).min();
            let first_alert = mon.alerts().iter().map(|a| a.at).min();
            if let (Some(i), Some(a)) = (first_infection, first_alert) {
                sum.latency += a.saturating_since(i).as_secs_f64();
                sum.detected += 1;
            }
            sum.infected += r.infected as f64;
            sum.sections += r.detection.len() as f64;
            sum.scans += r.scans;
        }
        sum
    };
    let detector_point = |label: String, sum: Totals| DetectorPoint {
        label,
        mean_latency_s: sum.mean_latency_s(),
        detected_reps: sum.detected,
        repetitions: p.repetitions,
    };
    let n = p.repetitions as f64;
    ExtHSweeps {
        coverage: p
            .coverages
            .iter()
            .map(|&coverage| {
                let sum = measure(coverage, "worm.alerts", Rule::Threshold { min: 1.0 });
                CoveragePoint {
                    coverage,
                    mean_latency_s: sum.mean_latency_s(),
                    detected_reps: sum.detected,
                    repetitions: p.repetitions,
                    mean_final_infected: sum.infected / n,
                    mean_sections_hit: sum.sections / n,
                    scans: sum.scans,
                }
            })
            .collect(),
        threshold: p
            .thresholds
            .iter()
            .map(|&min| {
                let sum = measure(detector_coverage, "worm.infected", Rule::Threshold { min });
                detector_point(format!("min={min:.0}"), sum)
            })
            .collect(),
        window: p
            .windows_s
            .iter()
            .map(|&window_s| {
                let rule = Rule::RateOfChange {
                    window: SimDuration::from_secs_f64(window_s),
                    min_rate_per_s: 1.0,
                };
                let sum = measure(detector_coverage, "worm.infected", rule);
                detector_point(format!("window={window_s:.0}s"), sum)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExtHParams {
        ExtHParams {
            config: ScenarioConfig {
                nodes: 1024,
                sections: 32,
                duration: SimDuration::from_secs(500),
                seed: 7,
            },
            coverages: vec![0.01, 0.05, 0.20],
            thresholds: vec![1.0, 8.0, 32.0],
            windows_s: vec![5.0, 20.0],
            sample_interval: SimDuration::from_secs(1),
            alert_hop_delay_s: 1.0,
            repetitions: 2,
        }
    }

    #[test]
    fn latency_decreases_monotonically_with_coverage() {
        let points = run_sweeps(&tiny(), 0.05).coverage;
        assert_eq!(points.len(), 3);
        let lat: Vec<f64> = points
            .iter()
            .map(|p| p.mean_latency_s.expect("every coverage level must detect"))
            .collect();
        for w in lat.windows(2) {
            assert!(w[1] <= w[0], "latency must fall as coverage rises: {lat:?}");
        }
        // And denser coverage blunts the outbreak.
        assert!(points.last().unwrap().mean_final_infected <= points[0].mean_final_infected);
    }

    #[test]
    fn latency_grows_with_detector_threshold() {
        let p = ExtHParams { coverages: Vec::new(), windows_s: Vec::new(), ..tiny() };
        let points = run_sweeps(&p, 0.05).threshold;
        assert_eq!(points.len(), 3);
        let lat: Vec<f64> = points.iter().map(|d| d.mean_latency_s.expect("must detect")).collect();
        for w in lat.windows(2) {
            assert!(w[1] >= w[0], "higher thresholds detect later: {lat:?}");
        }
    }

    #[test]
    fn window_sweep_detects_in_every_configuration() {
        let p = ExtHParams { coverages: Vec::new(), thresholds: Vec::new(), ..tiny() };
        let points = run_sweeps(&p, 0.05).window;
        assert_eq!(points.len(), 2);
        for d in points {
            assert_eq!(d.detected_reps, d.repetitions, "{} failed to detect", d.label);
        }
    }

    #[test]
    fn sweeps_are_deterministic() {
        let p = ExtHParams { thresholds: Vec::new(), windows_s: Vec::new(), ..tiny() };
        let a = run_sweeps(&p, 0.05).coverage;
        let b = run_sweeps(&p, 0.05).coverage;
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mean_latency_s, y.mean_latency_s);
            assert_eq!(x.scans, y.scans);
        }
    }
}
