//! Figure 8 harness: worm propagation speed across the five scenarios.
//!
//! Wraps `verme-worm`'s scenario runner, averages several repetitions
//! (the paper uses 10), and resamples the infection curves onto a
//! logarithmic time grid matching the figure's log-scaled x-axis.

use verme_obs::{Alert, Monitor, Rule};
use verme_sim::{FlightRecorder, SimDuration, SimTime, TraceEvent};
use verme_worm::{
    run_scenario_on, Instrumentation, Overlay, Population, Scenario, ScenarioConfig,
    ScenarioResult, SectionDetection,
};

use crate::testbed::par_map;

/// Parameters for a Figure 8 sweep.
#[derive(Clone, Debug)]
pub struct Fig8Params {
    /// Base configuration (population, sections, worm timing).
    pub config: ScenarioConfig,
    /// Repetitions to average (paper: 10).
    pub repetitions: u64,
}

impl Fig8Params {
    /// The paper's full-scale setup: 100 000 nodes, 4096 sections, 10
    /// repetitions.
    pub fn paper(seed: u64) -> Self {
        Fig8Params { config: ScenarioConfig { seed, ..ScenarioConfig::default() }, repetitions: 10 }
    }

    /// Laptop-quick setup (structurally identical, smaller population).
    pub fn quick(seed: u64) -> Self {
        Fig8Params {
            config: ScenarioConfig {
                nodes: 10_000,
                sections: 512,
                duration: SimDuration::from_secs(10_000),
                seed,
                ..ScenarioConfig::default()
            },
            repetitions: 3,
        }
    }
}

/// One averaged Figure 8 series.
#[derive(Clone, Debug)]
pub struct Fig8Series {
    /// Scenario label (the figure legend).
    pub label: &'static str,
    /// `(time_s, mean infected machines)` on the log grid.
    pub points: Vec<(f64, f64)>,
    /// Mean final infected count.
    pub final_infected: f64,
    /// Vulnerable population (identical across repetitions).
    pub vulnerable: usize,
    /// Mean time to infect half the vulnerable population, over the
    /// repetitions that reached it.
    pub t50_s: Option<f64>,
    /// How many repetitions reached the 50% mark.
    pub t50_reached: u64,
    /// Total repetitions.
    pub repetitions: u64,
    /// Total worm scans across all repetitions (the series' event count).
    pub scans: u64,
}

/// The five scenarios of the figure, in its legend order.
pub fn figure_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::ChordWorm,
        Scenario::FastVerDiImpersonation { lookups_per_sec: 10.0 },
        Scenario::CompromiseVerDi { node_lookup_rate_per_sec: 1.0 },
        Scenario::SecureVerDiImpersonation,
        Scenario::VermeWorm,
    ]
}

/// The logarithmic sample grid (seconds) used for the printed table.
pub fn log_grid(max_s: f64) -> Vec<f64> {
    let mut grid = Vec::new();
    let mut t = 1.0;
    while t <= max_s {
        for m in [1.0, 2.0, 5.0] {
            let v = t * m;
            if v <= max_s {
                grid.push(v);
            }
        }
        t *= 10.0;
    }
    grid
}

/// Infected count at time `t` (step function over the curve points).
pub fn infected_at(result: &ScenarioResult, t_s: f64) -> f64 {
    let t = SimTime::ZERO + SimDuration::from_secs_f64(t_s);
    let mut last = 0.0;
    for &(at, v) in result.curve.points() {
        if at > t {
            break;
        }
        last = v;
    }
    last
}

/// A `Send`-able snapshot of the live monitor after a run.
#[derive(Clone, Debug)]
pub struct MonitorReport {
    /// The rendered run-health report (sparklines + alert timeline).
    pub health: String,
    /// Every alert the detectors raised, in firing order.
    pub alerts: Vec<Alert>,
    /// Per-section detection timing of the monitored repetition.
    pub detection: Vec<SectionDetection>,
}

/// The detector rules `--monitor` installs: an outbreak-wide growth
/// detector plus per-section presence alerts.
pub fn default_monitor_rules() -> Vec<(&'static str, Rule)> {
    vec![
        (
            "worm.infected",
            Rule::RateOfChange { window: SimDuration::from_secs(10), min_rate_per_s: 1.0 },
        ),
        ("worm.infected", Rule::Ewma { alpha: 0.3, k: 4.0, warmup: 8 }),
        ("worm.section.", Rule::Threshold { min: 1.0 }),
    ]
}

/// What to attach to each scenario's *first* repetition. Only one
/// repetition is observed — the others are statistically identical, and
/// tracing them would just evict rep 0's events from the ring.
#[derive(Clone, Debug)]
pub enum Observe {
    /// Nothing: plain runs.
    Nothing,
    /// A bounded flight recorder: infection milestones (seed, infect,
    /// activate, alert) land in the ring as cause-attributed events, one
    /// causal span per infection chain.
    Trace {
        /// Events retained per scenario.
        capacity: usize,
    },
    /// The live monitor: outbreak gauges are sampled every `interval` of
    /// simulated time and `rules` run per sample.
    Monitor {
        /// Sample interval (simulated time).
        interval: SimDuration,
        /// `(series prefix, rule)` detectors to install.
        rules: Vec<(&'static str, Rule)>,
    },
}

/// One scenario's outcome in a [`run_figure`] sweep.
#[derive(Clone, Debug)]
pub struct FigureRun {
    /// The averaged series.
    pub series: Fig8Series,
    /// Rep 0's flight-recorder events ([`Observe::Trace`], else empty).
    pub events: Vec<TraceEvent>,
    /// Rep 0's monitor report ([`Observe::Monitor`], else `None`).
    pub report: Option<MonitorReport>,
}

/// Runs every scenario `params.repetitions` times and averages each onto
/// the log grid. Repetitions are the outer loop: a repetition's seed
/// fixes its populations, so each distinct [`Overlay`] among `scenarios`
/// is built once per repetition and shared by the scenarios that attack
/// it (the figure's four Verme scenarios share one build). With
/// `parallel`, a repetition's builds, then its outbreaks, run on worker
/// threads; without, everything runs on the calling thread
/// (the span profiler is thread-local). The numbers are the same either
/// way.
pub fn run_figure(
    scenarios: &[Scenario],
    params: &Fig8Params,
    observe: &Observe,
    parallel: bool,
) -> Vec<FigureRun> {
    let grid = log_grid(params.config.duration.as_secs_f64());
    let mut overlays: Vec<Overlay> = Vec::new();
    for sc in scenarios {
        if !overlays.contains(&sc.overlay()) {
            overlays.push(sc.overlay());
        }
    }
    let mut sums: Vec<SeriesSum> = scenarios.iter().map(|_| SeriesSum::new(grid.len())).collect();
    let mut first_rep = Vec::new();
    for rep in 0..params.repetitions {
        let cfg = ScenarioConfig {
            seed: params.config.seed.wrapping_add(rep * 7919),
            ..params.config.clone()
        };
        let observe = if rep == 0 { observe } else { &Observe::Nothing };
        let pops = map_each(&overlays, parallel, |&o| Population::build(&cfg, o));
        let runs = map_each(scenarios, parallel, |sc| {
            let pop = pops.iter().find(|p| p.overlay() == sc.overlay());
            observed_run(pop.expect("one population per overlay in use"), sc, &cfg, observe)
        });
        for (sum, (r, _, _)) in sums.iter_mut().zip(&runs) {
            sum.add(r, &grid);
        }
        if rep == 0 {
            first_rep = runs;
        }
    }
    let mut first_rep = first_rep.into_iter();
    scenarios
        .iter()
        .zip(sums)
        .map(|(sc, sum)| {
            let (events, report) = match first_rep.next() {
                Some((_, events, report)) => (events, report),
                None => (Vec::new(), None),
            };
            FigureRun { series: sum.finish(sc.label(), &grid, params.repetitions), events, report }
        })
        .collect()
}

/// One outbreak on `pop` with `observe`'s instrument attached; returns
/// what it recorded as plain data ([`Monitor`] is a single-threaded
/// handle and must not leave the worker).
fn observed_run(
    pop: &Population,
    scenario: &Scenario,
    cfg: &ScenarioConfig,
    observe: &Observe,
) -> (ScenarioResult, Vec<TraceEvent>, Option<MonitorReport>) {
    match observe {
        Observe::Nothing => {
            (run_scenario_on(pop, scenario, cfg, &Instrumentation::default()), Vec::new(), None)
        }
        Observe::Trace { capacity } => {
            let rec = FlightRecorder::new(*capacity);
            let inst =
                Instrumentation { recorder: Some(rec.clone()), ..Instrumentation::default() };
            (run_scenario_on(pop, scenario, cfg, &inst), rec.snapshot(), None)
        }
        Observe::Monitor { interval, rules } => {
            let mon = Monitor::new(8192);
            for (prefix, rule) in rules {
                mon.add_rule(prefix, rule.clone());
            }
            let inst = Instrumentation {
                monitor: Some((mon.clone(), *interval)),
                ..Instrumentation::default()
            };
            let r = run_scenario_on(pop, scenario, cfg, &inst);
            let report = MonitorReport {
                health: mon.render_health(),
                alerts: mon.alerts(),
                detection: r.detection.clone(),
            };
            (r, Vec::new(), Some(report))
        }
    }
}

/// `f` over `items`, in order — on worker threads ([`par_map`]) if
/// `parallel`.
fn map_each<T: Sync, R: Send>(items: &[T], parallel: bool, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if parallel {
        par_map(items, f)
    } else {
        items.iter().map(f).collect()
    }
}

/// One scenario's running totals over its repetitions.
struct SeriesSum {
    grid: Vec<f64>,
    final_infected: f64,
    t50: f64,
    t50_count: u64,
    vulnerable: usize,
    scans: u64,
}

impl SeriesSum {
    fn new(grid_len: usize) -> Self {
        SeriesSum {
            grid: vec![0.0; grid_len],
            final_infected: 0.0,
            t50: 0.0,
            t50_count: 0,
            vulnerable: 0,
            scans: 0,
        }
    }

    fn add(&mut self, r: &ScenarioResult, grid: &[f64]) {
        for (sum, &t) in self.grid.iter_mut().zip(grid) {
            *sum += infected_at(r, t);
        }
        self.final_infected += r.infected as f64;
        self.vulnerable = r.vulnerable;
        self.scans += r.scans;
        if let Some(t) = r.time_to_vulnerable_fraction(0.5) {
            self.t50 += t.as_secs_f64();
            self.t50_count += 1;
        }
    }

    fn finish(self, label: &'static str, grid: &[f64], repetitions: u64) -> Fig8Series {
        let reps = repetitions as f64;
        Fig8Series {
            label,
            points: grid.iter().zip(&self.grid).map(|(&t, &s)| (t, s / reps)).collect(),
            final_infected: self.final_infected / reps,
            vulnerable: self.vulnerable,
            t50_s: (self.t50_count > 0).then(|| self.t50 / self.t50_count as f64),
            t50_reached: self.t50_count,
            repetitions,
            scans: self.scans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_log_spaced() {
        let g = log_grid(100.0);
        assert_eq!(g, vec![1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]);
    }

    #[test]
    fn series_average_is_sane() {
        let params = Fig8Params {
            config: ScenarioConfig {
                nodes: 1000,
                sections: 32,
                duration: SimDuration::from_secs(200),
                seed: 1,
                ..ScenarioConfig::default()
            },
            repetitions: 2,
        };
        let s =
            run_figure(&[Scenario::ChordWorm], &params, &Observe::Nothing, false).remove(0).series;
        assert_eq!(s.label, "Chord");
        assert!(s.final_infected > 0.9 * s.vulnerable as f64);
        assert!(s.t50_s.is_some());
        assert!(s.scans > 0);
        // Points are non-decreasing in time.
        for w in s.points.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn monitored_series_matches_plain_series_and_reports_health() {
        let params = Fig8Params {
            config: ScenarioConfig {
                nodes: 1000,
                sections: 32,
                duration: SimDuration::from_secs(200),
                seed: 3,
                ..ScenarioConfig::default()
            },
            repetitions: 2,
        };
        let scenarios = [Scenario::ChordWorm];
        let plain = run_figure(&scenarios, &params, &Observe::Nothing, false).remove(0).series;
        let observe = Observe::Monitor {
            interval: SimDuration::from_secs(2),
            rules: default_monitor_rules(),
        };
        let FigureRun { series: monitored, report, .. } =
            run_figure(&scenarios, &params, &observe, true).remove(0);
        let report = report.expect("rep 0 was monitored");
        // The monitor never perturbs the outbreak.
        assert_eq!(plain.points, monitored.points);
        assert_eq!(plain.scans, monitored.scans);
        // And it saw the chord outbreak.
        assert!(!report.alerts.is_empty(), "growth detectors must fire on a chord worm");
        assert!(!report.detection.is_empty());
        assert!(report.health.contains("worm.infected"));
    }
}
