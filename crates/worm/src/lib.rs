//! # verme-worm — topological worm propagation (paper §7.3)
//!
//! The four-state worm model of Staniford et al. as used by the paper,
//! plus the five Figure-8 propagation scenarios. The worm only ever sees
//! what a real worm could read from an infected machine: the addresses in
//! the node's actual routing state (built from the `verme-chord` /
//! `verme-core` static rings), extended at runtime by whatever harvesting
//! channel the attacked VerDi variant leaves open. Containment on Verme is
//! therefore an *emergent* property of the overlay structure, not an
//! assumption of the model.
//!
//! * [`WormSim`] — the propagation engine.
//! * [`Scenario`] / [`run_scenario`] — the five experiment configurations.
//! * [`Population`] / [`run_scenario_on`] — build an overlay's population
//!   once and run every scenario of that [`Overlay`] on it.
//!
//! For live observability, a [`Monitor`](verme_obs::Monitor) can be
//! attached to a [`WormSim`] ([`attach_monitor`](WormSim::attach_monitor)):
//! outbreak gauges are sampled on the simulated clock, detector rules run
//! per sample, and [`detection_report`](WormSim::detection_report) pairs
//! each section's first infection with its first covering alert — the
//! detection-latency measurement behind the `extH` experiment.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod model;
pub mod scenarios;

pub use analysis::{analyze, logistic, CurveStats};
pub use model::{SectionDetection, WormParams, WormSim, WormState};
pub use scenarios::{
    run_scenario, run_scenario_instrumented, run_scenario_on, run_scenario_recorded,
    Instrumentation, Overlay, Population, Scenario, ScenarioConfig, ScenarioResult,
};
