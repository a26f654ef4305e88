//! # verme-obs — observability over the simulation's causal traces
//!
//! `verme-sim` produces a stream of cause-attributed [`TraceEvent`]s
//! (see `verme_sim::trace`); this crate turns that stream into things an
//! experimenter can *use*:
//!
//! * [`path`] — a [`PathCollector`] that folds lookup events into
//!   per-lookup [`LookupPath`] records: ordered hops with node types,
//!   sections and per-leg timing.
//! * [`invariant`] — checkers that run over recorded paths: Chord's
//!   monotone clockwise progress, Verme's opposite-type rule for
//!   cross-section fingers, and trace-vs-histogram hop agreement.
//! * [`export`] — NDJSON trace serialization with schema validation, and
//!   a metrics [`Registry`] (named [`MetricDesc`](verme_sim::MetricDesc)
//!   entries) with NDJSON/CSV exporters.
//! * [`json`] — the dependency-free JSON value/writer/parser underneath
//!   (the vendored `serde` shim has no `serde_json`).
//! * [`perfetto`] — Chrome-trace-event export (span-profiler spans on a
//!   host-time track, flight-recorder events on a virtual-time track,
//!   loadable at <https://ui.perfetto.dev>) and folded-stack output for
//!   flamegraph tooling.
//! * [`window`] — retention-bounded ring-buffer time series and
//!   log-bucketed streaming histograms for live sampling.
//! * [`detect`] — threshold / rate-of-change / EWMA detector rules and the
//!   typed, cause-attributed [`Alert`] stream.
//! * [`ring`] — metric keys, descriptors and monitor rules for the
//!   continuous ring-invariant assertor (`ring.invariant.violations`,
//!   `ring.appendage_nodes`, `ring.wedged`).
//! * [`monitor`] — the live [`Monitor`]: a clock-driven gauge store fed by
//!   sampler hooks, evaluating detectors per sample and rendering
//!   plain-text run-health reports.
//!
//! The crate is strictly a *consumer* of the trace stream and the sampled
//! state: it depends only on `verme-sim` and never feeds back into a
//! running simulation, so attaching any of it cannot perturb a run.
//!
//! ## Typical wiring
//!
//! ```
//! use verme_obs::export::{parse_ndjson, trace_to_ndjson, validate_trace_schema};
//! use verme_obs::path::PathCollector;
//! use verme_sim::{tee, FlightRecorder};
//!
//! let recorder = FlightRecorder::new(4096);
//! let paths = PathCollector::new();
//! let tracer = tee(recorder.tracer(), paths.tracer());
//! // rt.set_tracer(Some(tracer)); run the scenario...
//! # drop(tracer);
//! let dump = trace_to_ndjson(&recorder.snapshot());
//! let stats = validate_trace_schema(&parse_ndjson(&dump).unwrap()).unwrap();
//! assert_eq!(stats.events, 0); // nothing ran in this doc example
//! ```

#![forbid(unsafe_code)]

pub mod chaos;
pub mod detect;
pub mod export;
pub mod invariant;
pub mod json;
pub mod monitor;
pub mod path;
pub mod perfetto;
pub mod ring;
pub mod window;

pub use detect::{Alert, DetectorState, Rule};
pub use export::{
    event_to_json, parse_ndjson, trace_to_ndjson, validate_trace_schema, Registry, TraceStats,
};
pub use invariant::{
    check_chord_monotone, check_hop_agreement, check_verme_opposite_types, Violation,
};
pub use json::{parse, Json, JsonError};
pub use monitor::Monitor;
pub use path::{HopRecord, LookupPath, PathCollector};
pub use perfetto::{chrome_trace, folded_stacks};
pub use window::{RingSeries, StreamingHistogram};

// Re-exported so harnesses can depend on `verme-obs` alone for tracing.
pub use verme_sim::trace::TraceEvent;
