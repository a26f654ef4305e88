//! One benchmark run: repeat a workload's iteration for the measuring
//! time, check every iteration's outputs, and report medians.
//!
//! Untraced runs produce the end-to-end metrics. A traced run makes one
//! discarded warm-up iteration, then pairs of an untraced iteration (the
//! baseline the tracing overhead is measured against) and a traced one,
//! then the kernels, and produces every per-layer metric.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use verme_obs::Json;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::kernels;
use crate::probe::{layer_and_driver_s, trace_json, Probe, Span};
use crate::stats::{fnv64_hex, median, peak_rss_mb, quantile};
use crate::workloads::{Outcome, Workload};

/// Share of a traced run's measuring time after which no further pair of
/// iterations starts; the rest is for the workload's extra measurement and
/// the kernels.
const TRACE_SHARE: f64 = 0.6;
/// Each kernel's share of the measuring time: 0.3 s of the default 12 s.
const KERNEL_SHARE: f64 = 0.025;

/// Arguments of one run.
pub struct RunArgs<'a> {
    /// The workload to run.
    pub workload: &'static Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) or timed pass (end-to-end metrics).
    pub trace: bool,
    /// Run the reduced size the unit tests use.
    pub tiny: bool,
    /// Where a traced run writes `<workload>.trace.json`; `None` skips it.
    pub out_dir: Option<&'a Path>,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    /// Catalogue name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Catalogue unit.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Every iteration passed its checks and produced the same fingerprint.
    pub correct: bool,
    /// Operations attempted over all iterations.
    pub attempted: u64,
    /// Operations failed over all iterations, by the workload's own
    /// definition: with `attempted`, the suite's `ops_failed_frac`.
    pub failed: u64,
    /// Those of `failed` the workload's fault injection caused; the result
    /// line reports the rest.
    pub failed_by_design: u64,
    /// End-to-end metrics (timed pass) or per-layer metrics (traced pass).
    pub metrics: Vec<Reading>,
    /// Hash of the simulated statistics, identical for one seed.
    pub fingerprint: String,
    /// The simulated statistics themselves.
    pub sim_stats: String,
    /// Iterations measured.
    pub iterations: usize,
    /// What went wrong, when `correct` is false.
    pub violations: Vec<String>,
}

/// Folds iterations into totals and checks they agree with each other.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failed_by_design: u64,
    sim_stats: Option<String>,
    violations: Vec<String>,
    iterations: usize,
}

impl Tally {
    fn take(&mut self, out: Outcome) {
        self.iterations += 1;
        self.attempted += out.attempted;
        self.failed += out.failed;
        self.failed_by_design += out.failed_by_design;
        for v in out.violations {
            if !self.violations.contains(&v) {
                self.violations.push(v);
            }
        }
        match &self.sim_stats {
            None => self.sim_stats = Some(out.sim_stats),
            Some(first) if *first != out.sim_stats => {
                let msg = "simulated statistics differ between iterations of one seed".to_string();
                if !self.violations.contains(&msg) {
                    self.violations.push(msg);
                }
            }
            Some(_) => {}
        }
    }

    fn finish(self, metrics: Vec<Reading>) -> RunResult {
        let sim_stats = self.sim_stats.unwrap_or_default();
        RunResult {
            correct: self.violations.is_empty() && self.attempted > 0,
            attempted: self.attempted,
            failed: self.failed,
            failed_by_design: self.failed_by_design,
            metrics,
            fingerprint: fnv64_hex(&sim_stats),
            sim_stats,
            iterations: self.iterations,
            violations: self.violations,
        }
    }
}

/// True when one more iteration as long as the last still ends inside
/// the budget, so a run never measures for longer than it was asked to.
fn fits_another(started: Instant, last: Duration, budget: Duration) -> bool {
    started.elapsed() + last <= budget
}

/// Runs the timed or the traced pass.
pub fn run(args: &RunArgs<'_>) -> RunResult {
    if args.trace {
        run_traced(args)
    } else {
        run_timed(args)
    }
}

fn run_timed(args: &RunArgs<'_>) -> RunResult {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut tally = Tally::default();
    let (mut setup_s, mut run_s) = (Vec::new(), Vec::new());
    let mut first_peak_mb = None;
    loop {
        let t = Instant::now();
        let out = (args.workload.run)(args.tiny, args.seed, &mut Probe::off());
        setup_s.push(out.setup_s);
        run_s.push(out.run_s);
        tally.take(out);
        // What one pass of the workload needs, as a user's single run
        // would: later iterations only add heap fragmentation, by an
        // amount that depends on how many of them fit.
        first_peak_mb = first_peak_mb.or_else(peak_rss_mb);
        if !fits_another(started, t.elapsed(), budget) {
            break;
        }
    }
    let metrics = END_TO_END
        .iter()
        .map(|e| {
            let value = match e.name {
                "run_s" => median(&run_s),
                "setup_s" => median(&setup_s),
                "peak_rss_mb" => first_peak_mb.unwrap_or(f64::NAN),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            Reading { name: e.name, value, unit: e.unit }
        })
        .collect();
    tally.finish(metrics)
}

/// What the traced iterations of one run add up to.
#[derive(Default)]
struct Traced {
    /// Per-layer sums over the iterations.
    sums: BTreeMap<&'static str, f64>,
    /// Per-layer maxima over the iterations.
    peaks: BTreeMap<&'static str, f64>,
    /// Individual readings of the percentile metrics.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Total duration per span name, seconds.
    span_s: BTreeMap<&'static str, f64>,
    /// Self time of layer spans and of the benchmark's own spans, seconds.
    layer_s: f64,
    driver_s: f64,
    /// Each iteration's `run_s` and whole wall.
    run_s: Vec<f64>,
    wall_s: Vec<f64>,
}

impl Traced {
    /// Folds one iteration in and hands its spans back.
    fn absorb(&mut self, probe: Probe, run_s: f64, wall_s: f64) -> Vec<Span> {
        self.run_s.push(run_s);
        self.wall_s.push(wall_s);
        let (layer, driver) = layer_and_driver_s(&probe.spans);
        self.layer_s += layer;
        self.driver_s += driver;
        for s in &probe.spans {
            *self.span_s.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e9;
        }
        for (k, v) in probe.sums {
            *self.sums.entry(k).or_insert(0.0) += v;
        }
        for (k, v) in probe.peaks {
            let slot = self.peaks.entry(k).or_insert(0.0);
            *slot = slot.max(v);
        }
        for (k, v) in probe.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        probe.spans
    }

    /// The catalogued per-layer values these iterations support. Sums are
    /// reported per iteration; a metric `<span>_s` with no sum of its own
    /// is the time spent in spans called `<span>`; ratios are ratios of
    /// sums.
    fn derive(&self, base_run_s: &[f64]) -> BTreeMap<&'static str, f64> {
        let base_run_s = median(base_run_s);
        let iters = self.run_s.len() as f64;
        let sum = |k: &str| {
            self.sums
                .get(k)
                .or_else(|| self.span_s.get(k.strip_suffix("_s")?))
                .copied()
                .unwrap_or(0.0)
        };
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let pct = |k: &str, q: f64| quantile(self.samples.get(k).map_or(&[][..], Vec::as_slice), q);
        let worm_s: f64 = ["chord", "fast", "compromise", "secure", "verme"]
            .iter()
            .map(|s| sum(&format!("worm.{s}.run_s")))
            .sum();

        let mut v: BTreeMap<&'static str, f64> =
            PER_LAYER.iter().map(|p| (p.name, sum(p.name) / iters)).collect();
        v.extend(self.peaks.iter().map(|(k, peak)| (*k, *peak)));
        v.extend([
            ("sim.ns_per_event", ratio(sum("sim.run_until_s") * 1e9, sum("sim.events"))),
            ("sim.events_per_s", ratio(sum("sim.events"), sum("sim.run_until_s"))),
            (
                "dht.cache_hit_frac",
                ratio(sum("dht.cache_hits"), sum("dht.cache_hits") + sum("dht.cache_misses")),
            ),
            ("dht.bytes_per_op", ratio(sum("dht.fg_bytes"), sum("dht.ops"))),
            ("worm.scans_per_s", ratio(sum("worm.scans"), worm_s)),
            ("chaos.ring.trials_per_s", ratio(sum("chaos.ring.trials"), sum("chaos.ring.arm_s"))),
            (
                "chaos.durability.trials_per_s",
                ratio(sum("chaos.durability.trials"), sum("chaos.durability.arm_s")),
            ),
            ("chaos.ring.trial_ms_p50", pct("chaos.ring.trial_ms", 0.50)),
            ("chaos.ring.trial_ms_p95", pct("chaos.ring.trial_ms", 0.95)),
            ("chaos.durability.trial_ms_p50", pct("chaos.durability.trial_ms", 0.50)),
            ("chaos.durability.trial_ms_p90", pct("chaos.durability.trial_ms", 0.90)),
            ("bench.trace_overhead_frac", (median(&self.run_s) - base_run_s) / base_run_s),
            ("bench.driver_self_s", self.driver_s / iters),
            ("bench.span_coverage_frac", ratio(self.layer_s, self.wall_s.iter().sum())),
            (
                "bench.profiler_attributed_frac",
                ratio(sum("bench.profiler_attributed_s"), self.run_s.iter().sum()),
            ),
        ]);
        v
    }
}

fn run_traced(args: &RunArgs<'_>) -> RunResult {
    let started = Instant::now();
    let trace_budget = Duration::from_secs_f64(args.seconds * TRACE_SHARE);
    let mut tally = Tally::default();

    // A process's first pass grows the heap and runs slower than every
    // later one (README, `ring_scale`): it is a baseline for nothing, so
    // only its outputs are kept.
    tally.take((args.workload.run)(args.tiny, args.seed, &mut Probe::off()));

    let mut traced = Traced::default();
    let mut base_run_s = Vec::new();
    let last_spans = loop {
        let pair = Instant::now();
        let base = (args.workload.run)(args.tiny, args.seed, &mut Probe::off());
        base_run_s.push(base.run_s);
        tally.take(base);

        let mut probe = Probe::on();
        let t = Instant::now();
        let root = probe.enter("workload");
        let out = (args.workload.run)(args.tiny, args.seed, &mut probe);
        probe.exit(root);
        let spans = traced.absorb(probe, out.run_s, t.elapsed().as_secs_f64());
        tally.take(out);
        if !fits_another(started, pair.elapsed(), trace_budget) {
            break spans;
        }
    };

    if let Some(dir) = args.out_dir {
        let path = dir.join(format!("{}.trace.json", args.workload.name));
        let doc = trace_json(args.workload.name, args.seed, &last_spans);
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
            tally.violations.push(format!("cannot write {}: {e}", path.display()));
        }
    }

    let mut values = traced.derive(&base_run_s);
    if let Some(extra) = args.workload.extra {
        values.extend([extra(args.tiny, args.seed)]);
    }
    let per_kernel = Duration::from_secs_f64(args.seconds * KERNEL_SHARE);
    values.extend(kernels::run_all(args.seed, per_kernel));

    let metrics = PER_LAYER
        .iter()
        .map(|p| Reading { name: p.name, value: values[p.name], unit: p.unit })
        .collect();
    tally.finish(metrics)
}

/// The last line of a run's standard output: one JSON object with exactly
/// the keys `correct`, `attempted`, `failed` and `metrics`, every value
/// with all the digits measured. `failed` leaves out the simulated
/// failures a workload injects on purpose (README, "What counts as a
/// failed operation"): the driver wants runs in which no operation fails.
pub fn result_line(r: &RunResult) -> String {
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            let reading = vec![
                ("value".to_string(), Json::Float(m.value)),
                ("unit".to_string(), m.unit.into()),
            ];
            (m.name.to_string(), Json::Obj(reading))
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), r.correct.into()),
        ("attempted".to_string(), r.attempted.into()),
        ("failed".to_string(), (r.failed - r.failed_by_design).into()),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn tiny_run(workload: &'static Workload, trace: bool) -> RunResult {
        run(&RunArgs { workload, seed: 11, seconds: 0.05, trace, tiny: true, out_dir: None })
    }

    fn benchmark_json_names(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = verme_obs::parse(&text).expect("valid JSON");
        doc.get(section)
            .and_then(|s| s.as_array())
            .expect("section is an array")
            .iter()
            .map(|e| e.get("name").and_then(|n| n.as_str()).expect("entry has a name").to_string())
            .collect()
    }

    #[test]
    fn every_workload_emits_exactly_the_catalogued_metrics_and_repeats_its_fingerprint() {
        let end_to_end = benchmark_json_names("end_to_end");
        let per_layer = benchmark_json_names("per_layer");
        assert_eq!(
            benchmark_json_names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for w in WORKLOADS {
            let timed = tiny_run(w, false);
            let traced = tiny_run(w, true);
            for (r, want) in [(&timed, &end_to_end), (&traced, &per_layer)] {
                assert!(r.correct, "{}: {:?}", w.name, r.violations);
                assert!(r.attempted >= 1 && r.failed <= r.attempted, "{}", w.name);
                // Nothing fails but what the workload injects.
                assert_eq!(r.failed, r.failed_by_design, "{}", w.name);
                // Same names, same order, so each exactly once.
                let got: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
                assert_eq!(&got, want, "{}", w.name);
                for m in &r.metrics {
                    assert!(m.value.is_finite(), "{} {} = {}", w.name, m.name, m.value);
                }
            }
            for m in &timed.metrics {
                assert!(m.value > 0.0, "{} {} must never be 0", w.name, m.name);
            }
            assert_eq!(timed.fingerprint, traced.fingerprint, "{}", w.name);
            assert!(!timed.sim_stats.is_empty());
            // The traced pass made its warm-up, a baseline and a traced iteration.
            assert!(traced.iterations >= 3);
            // Failures are exact for a seed, whatever the pass.
            assert_eq!(
                timed.failed * traced.attempted,
                traced.failed * timed.attempted,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn traced_pass_counts_what_the_timed_pass_ran() {
        let w = crate::workloads::find("ring_scale").expect("catalogued");
        let traced = tiny_run(w, true);
        let get = |name: &str| traced.metrics.iter().find(|m| m.name == name).expect(name).value;
        assert!(get("sim.events") > 0.0 && get("sim.ns_per_event") > 0.0);
        assert!(get("sim.deliver.calls") + get("sim.timer.calls") <= get("sim.events"));
        assert!(get("core.run_s") > 0.0 && get("chord.run_s") == 0.0);
        assert!(get("worm.scans") == 0.0 && get("chaos.findings") == 0.0);
        assert!(get("bench.span_coverage_frac") > 0.5 && get("bench.span_coverage_frac") <= 1.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = tiny_run(crate::workloads::find("dht_ops").expect("catalogued"), false);
        let doc = verme_obs::parse(&result_line(&r)).expect("valid JSON");
        let keys: Vec<&str> =
            doc.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let run_s = doc.get("metrics").and_then(|m| m.get("run_s")).expect("run_s reported");
        assert_eq!(run_s.get("unit").and_then(|u| u.as_str()), Some("s"));
        assert!(run_s.get("value").and_then(|v| v.as_f64()).is_some_and(|v| v > 0.0));
    }
}
