//! Measurement primitives used by every experiment harness.
//!
//! Protocols record observations through a [`MetricsSink`]; harnesses read
//! them back as [`Summary`] values (mean / quantiles / count) or
//! [`TimeSeries`] (for infection curves and other trajectories).

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// What kind of instrument a registered metric is.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing counter.
    Counter,
    /// A histogram of scalar observations.
    Histogram,
}

/// Static description of one named metric: the registry entry protocols
/// publish so exporters and dashboards can interpret raw sink keys.
///
/// Each crate exposes a `descriptors()` function next to its `keys` module
/// returning the `MetricDesc` for every key it records; the `verme-obs`
/// registry collects them and drives the NDJSON/CSV exporters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MetricDesc {
    /// The sink key, e.g. `"lookup.latency_ms"`.
    pub name: &'static str,
    /// Counter or histogram.
    pub kind: MetricKind,
    /// Unit label (`"ms"`, `"bytes"`, `"ops"`, `""` for dimensionless).
    pub unit: &'static str,
    /// One-line human description.
    pub help: &'static str,
}

impl MetricDesc {
    /// Shorthand for a counter descriptor.
    pub const fn counter(name: &'static str, unit: &'static str, help: &'static str) -> Self {
        MetricDesc { name, kind: MetricKind::Counter, unit, help }
    }

    /// Shorthand for a histogram descriptor.
    pub const fn histogram(name: &'static str, unit: &'static str, help: &'static str) -> Self {
        MetricDesc { name, kind: MetricKind::Histogram, unit, help }
    }
}

/// A monotonically increasing event counter.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds `n` to the counter.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub const fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A collection of scalar samples supporting mean and quantile queries.
///
/// The histogram stores raw samples (experiments here record at most a few
/// million observations, so exact quantiles are affordable and simpler than
/// sketching).
///
/// # Example
///
/// ```
/// use verme_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     h.record(v);
/// }
/// assert_eq!(h.mean(), 2.5);
/// assert_eq!(h.quantile(0.5), 2.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram { samples: Vec::new(), sorted: true }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    pub fn record(&mut self, v: f64) {
        assert!(!v.is_nan(), "cannot record NaN");
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean of all observations, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Minimum observation, or 0.0 if empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Maximum observation, or 0.0 if empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) using the nearest-rank method,
    /// or 0.0 if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]: {q}");
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN recorded"));
            self.sorted = true;
        }
        let idx = ((self.samples.len() as f64 * q).ceil() as usize)
            .saturating_sub(1)
            .min(self.samples.len() - 1);
        self.samples[idx]
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Produces an immutable summary (count/mean/min/max/median/p90/p99).
    pub fn summary(&mut self) -> Summary {
        Summary {
            count: self.count() as u64,
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.5),
            p90: self.quantile(0.9),
            p99: self.quantile(0.99),
        }
    }

    /// [`summary`](Histogram::summary) through a shared reference.
    ///
    /// The in-place variant caches its sort; this one sorts a scratch copy
    /// when needed, so mid-run snapshots (live monitoring, read-only
    /// exporters) can summarize without exclusive access to the sink.
    pub fn snapshot_summary(&self) -> Summary {
        let quantile_of = |sorted: &[f64], q: f64| -> f64 {
            if sorted.is_empty() {
                return 0.0;
            }
            let idx =
                ((sorted.len() as f64 * q).ceil() as usize).saturating_sub(1).min(sorted.len() - 1);
            sorted[idx]
        };
        let scratch;
        let sorted: &[f64] = if self.sorted {
            &self.samples
        } else {
            let mut copy = self.samples.clone();
            copy.sort_by(|a, b| a.partial_cmp(b).expect("no NaN recorded"));
            scratch = copy;
            &scratch
        };
        Summary {
            count: sorted.len() as u64,
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            p50: quantile_of(sorted, 0.5),
            p90: quantile_of(sorted, 0.9),
            p99: quantile_of(sorted, 0.99),
        }
    }
}

/// An immutable statistical summary of a [`Histogram`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} p50={:.3} p90={:.3} p99={:.3} min={:.3} max={:.3}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.min, self.max
        )
    }
}

/// A sequence of `(time, value)` points, e.g. an infection curve.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a point. Points should be appended in time order.
    pub fn push(&mut self, at: SimTime, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(t, _)| t <= at),
            "time series points must be appended in order"
        );
        self.points.push((at, value));
    }

    /// The recorded points, in time order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The last value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// The earliest time at which the value reached at least `threshold`.
    pub fn time_to_reach(&self, threshold: f64) -> Option<SimTime> {
        self.points.iter().find(|&&(_, v)| v >= threshold).map(|&(t, _)| t)
    }
}

/// Named counters and histograms shared by all nodes in a simulation run.
///
/// Protocol implementations record into the sink through their
/// [`Ctx`](crate::runtime::Ctx); harnesses read the sink back after the run.
/// Keys are static strings, namespaced by convention (`"lookup.latency_ms"`,
/// `"maintenance.bytes"`, ...).
#[derive(Clone, Debug, Default)]
pub struct MetricsSink {
    counters: BTreeMap<&'static str, Counter>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        MetricsSink::default()
    }

    /// Adds `n` to the counter named `key`, creating it if needed.
    pub fn count(&mut self, key: &'static str, n: u64) {
        self.counters.entry(key).or_default().add(n);
    }

    /// Records `v` into the histogram named `key`, creating it if needed.
    pub fn record(&mut self, key: &'static str, v: f64) {
        self.histograms.entry(key).or_default().record(v);
    }

    /// Reads the counter named `key` (0 if never written).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).map_or(0, |c| c.get())
    }

    /// The histogram named `key`, if any observation has been recorded.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Mutable access to the histogram named `key` (for summaries).
    pub fn histogram_mut(&mut self, key: &str) -> Option<&mut Histogram> {
        self.histograms.get_mut(key)
    }

    /// Iterates over all counter names and values.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, c)| (k, c.get()))
    }

    /// Iterates over all histogram names.
    pub fn histogram_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.histograms.keys().copied()
    }

    /// A point-in-time copy of every counter, for measuring the impact of
    /// an interval (e.g. one injected fault) as a delta. See
    /// [`counter_delta`](MetricsSink::counter_delta).
    pub fn counter_snapshot(&self) -> BTreeMap<&'static str, u64> {
        self.counters().collect()
    }

    /// Per-counter increase since `earlier` (a
    /// [`counter_snapshot`](MetricsSink::counter_snapshot)). Counters that
    /// did not move are omitted; counters born after the snapshot report
    /// their full value.
    pub fn counter_delta(
        &self,
        earlier: &BTreeMap<&'static str, u64>,
    ) -> BTreeMap<&'static str, u64> {
        self.counters()
            .filter_map(|(k, v)| {
                let d = v.saturating_sub(earlier.get(k).copied().unwrap_or(0));
                (d > 0).then_some((k, d))
            })
            .collect()
    }

    /// A stable, human-readable rendering of every counter and histogram
    /// summary, suitable for byte-for-byte determinism comparisons between
    /// runs. Keys are emitted in sorted order; floats with fixed precision.
    pub fn render_snapshot(&mut self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (k, v) in self.counters() {
            let _ = writeln!(out, "counter {k} = {v}");
        }
        let names: Vec<&'static str> = self.histogram_names().collect();
        for k in names {
            let s = self.histograms.get_mut(k).expect("histogram vanished").summary();
            let _ = writeln!(
                out,
                "hist {k} count={} mean={:.6} min={:.6} max={:.6} p50={:.6} p90={:.6} p99={:.6}",
                s.count, s.mean, s.min, s.max, s.p50, s.p90, s.p99
            );
        }
        out
    }

    /// Merges all counters and histograms from `other` into this sink.
    pub fn merge(&mut self, other: &MetricsSink) {
        for (&k, c) in &other.counters {
            self.counters.entry(k).or_default().add(c.get());
        }
        for (&k, h) in &other.histograms {
            self.histograms.entry(k).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.add(5);
        assert_eq!(c.get(), 5);
        assert_eq!(c.to_string(), "5");
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.mean(), 50.5);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 100.0);
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.9), 90.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        let s = h.summary();
        assert_eq!(s.count, 0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(1.0);
        let mut b = Histogram::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 2.0);
    }

    #[test]
    #[should_panic(expected = "cannot record NaN")]
    fn histogram_rejects_nan() {
        Histogram::new().record(f64::NAN);
    }

    #[test]
    fn time_series_threshold() {
        let mut ts = TimeSeries::new();
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        ts.push(t(1), 10.0);
        ts.push(t(2), 20.0);
        ts.push(t(3), 50.0);
        assert_eq!(ts.time_to_reach(15.0), Some(t(2)));
        assert_eq!(ts.time_to_reach(100.0), None);
        assert_eq!(ts.last_value(), Some(50.0));
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn quantiles_on_single_sample_collapse_to_it() {
        let mut h = Histogram::new();
        h.record(42.5);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 42.5, "q={q}");
        }
        let s = h.summary();
        assert_eq!((s.count, s.mean, s.min, s.max), (1, 42.5, 42.5, 42.5));
    }

    #[test]
    fn quantiles_on_duplicate_heavy_input() {
        // 999 copies of 5.0 and one 1000.0: every quantile below the last
        // rank must return the duplicated value, not interpolate.
        let mut h = Histogram::new();
        for _ in 0..999 {
            h.record(5.0);
        }
        h.record(1000.0);
        assert_eq!(h.quantile(0.0), 5.0);
        assert_eq!(h.quantile(0.5), 5.0);
        assert_eq!(h.quantile(0.99), 5.0);
        assert_eq!(h.quantile(1.0), 1000.0);
        assert_eq!(h.min(), 5.0);
        assert_eq!(h.max(), 1000.0);
    }

    #[test]
    fn quantile_boundaries_on_empty_histogram() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn quantile_rejects_out_of_range() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.quantile(1.5);
    }

    #[test]
    fn quantiles_stay_correct_across_interleaved_records() {
        // Recording after a quantile query must re-sort.
        let mut h = Histogram::new();
        h.record(10.0);
        h.record(20.0);
        assert_eq!(h.quantile(1.0), 20.0);
        h.record(5.0);
        assert_eq!(h.quantile(0.0), 5.0);
        assert_eq!(h.quantile(1.0), 20.0);
    }

    #[test]
    fn time_series_ordering_and_accessors() {
        let mut ts = TimeSeries::new();
        assert!(ts.is_empty());
        assert_eq!(ts.last_value(), None);
        assert_eq!(ts.time_to_reach(0.0), None);
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        // Equal timestamps are allowed; strictly increasing values are not
        // required by the container.
        ts.push(t(1), 3.0);
        ts.push(t(1), 2.0);
        ts.push(t(4), 9.0);
        assert_eq!(ts.len(), 3);
        assert!(!ts.is_empty());
        assert_eq!(ts.points(), &[(t(1), 3.0), (t(1), 2.0), (t(4), 9.0)]);
        // time_to_reach returns the *first* crossing in append order.
        assert_eq!(ts.time_to_reach(2.5), Some(t(1)));
        assert_eq!(ts.time_to_reach(9.0), Some(t(4)));
        assert_eq!(ts.last_value(), Some(9.0));
    }

    #[test]
    fn metric_descriptors_carry_metadata() {
        const D: MetricDesc = MetricDesc::counter("lookup.issued", "ops", "lookups issued");
        assert_eq!(D.kind, MetricKind::Counter);
        assert_eq!(D.name, "lookup.issued");
        let h = MetricDesc::histogram("lookup.latency_ms", "ms", "lookup latency");
        assert_eq!(h.kind, MetricKind::Histogram);
        assert_eq!(h.unit, "ms");
    }

    #[test]
    fn sink_round_trip() {
        let mut s = MetricsSink::new();
        s.count("msgs", 2);
        s.count("msgs", 3);
        s.record("lat", 1.5);
        s.record("lat", 2.5);
        assert_eq!(s.counter("msgs"), 5);
        assert_eq!(s.counter("missing"), 0);
        assert_eq!(s.histogram("lat").unwrap().count(), 2);
        assert_eq!(s.histogram_mut("lat").unwrap().summary().mean, 2.0);

        let mut other = MetricsSink::new();
        other.count("msgs", 1);
        other.record("lat", 3.5);
        s.merge(&other);
        assert_eq!(s.counter("msgs"), 6);
        assert_eq!(s.histogram("lat").unwrap().count(), 3);
        assert_eq!(s.counters().count(), 1);
        assert_eq!(s.histogram_names().count(), 1);
    }
}
