//! The six workloads. Each is a pure function of `(params, seed)` that
//! drives the crates through their public functions only, timing its
//! set-up and its run separately and folding every simulated statistic
//! into one fingerprint string.

use std::time::Instant;

use verme_sim::{LatencyModel, MetricsSink, Node, Runtime};

use crate::probe::Probe;

pub mod chaos_trials;
pub mod dht_load;
pub mod dht_ops;
pub mod lookup_churn;
pub mod ring_scale;
pub mod worm_outbreak;

/// A per-layer measurement only one workload can make: `(tiny, seed)` in,
/// the metric's name and value out.
pub type Extra = fn(tiny: bool, seed: u64) -> (&'static str, f64);

/// One entry of the workload table.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`, which also says why the workload exists.
    pub name: &'static str,
    /// Runs one iteration; `tiny` selects the ~1/20 scale the tests use.
    pub run: fn(tiny: bool, seed: u64, probe: &mut Probe) -> Outcome,
    /// Taken once per traced pass, after the iterations.
    pub extra: Option<Extra>,
}

/// The workloads, in report order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "lookup_churn",
        run: lookup_churn::run,
        extra: Some(lookup_churn::tracer_overhead_frac),
    },
    Workload { name: "dht_ops", run: dht_ops::run, extra: None },
    Workload { name: "dht_load", run: dht_load::run, extra: None },
    Workload { name: "worm_outbreak", run: worm_outbreak::run, extra: None },
    Workload { name: "chaos_trials", run: chaos_trials::run, extra: None },
    Workload { name: "ring_scale", run: ring_scale::run, extra: None },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What one iteration of a workload hands back.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Host wall spent building inputs: network model, converged ring,
    /// spawns, block seeding, schedule generation.
    pub setup_s: f64,
    /// Host wall of the timed phase: a fixed, seed-determined amount of
    /// simulated work.
    pub run_s: f64,
    /// User-level operations attempted.
    pub attempted: u64,
    /// Operations that failed (per-workload definition in the README).
    /// Exact for a seed; not gated on zero, compared across commits.
    pub failed: u64,
    /// The part of `failed` that is the workload's own fault injection at
    /// work (a lookup timed out by churn, a chaos trial ending in a
    /// finding): a simulated result, which the driver's result line does
    /// not count as a failed operation of the run.
    pub failed_by_design: u64,
    /// Every simulated statistic of the iteration; exact for a seed.
    pub sim_stats: String,
    /// Correctness checks that did not hold (empty when correct).
    pub violations: Vec<String>,
}

impl Outcome {
    /// Records a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// Accumulates the two phase times across a workload's arms, in seconds.
#[derive(Default)]
pub struct PhaseClock {
    setup: f64,
    run: f64,
}

impl PhaseClock {
    /// Adds the time since `since` to set-up.
    pub fn setup_done(&mut self, since: Instant) {
        self.setup += since.elapsed().as_secs_f64();
    }

    /// Adds the time since `since` to the run.
    pub fn run_done(&mut self, since: Instant) {
        self.run += since.elapsed().as_secs_f64();
    }

    /// Writes both totals into `out`.
    pub fn store(&self, out: &mut Outcome) {
        out.setup_s = self.setup;
        out.run_s = self.run;
    }
}

/// Mean and median of a sink histogram, `0.0` when it never recorded.
pub fn mean_p50(sink: &mut MetricsSink, key: &str) -> (f64, f64) {
    sink.histogram_mut(key).map_or((0.0, 0.0), |h| {
        let s = h.summary();
        (s.mean, s.p50)
    })
}

/// The runtime's network counters as one fingerprint fragment.
pub fn net_fragment<N: Node, L: LatencyModel>(rt: &Runtime<N, L>) -> String {
    let s = rt.stats();
    format!(
        "sent={} bytes={} delivered={} dropped={}",
        s.messages_sent, s.bytes_sent, s.messages_delivered, s.messages_dropped
    )
}
