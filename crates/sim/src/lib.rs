//! # verme-sim — deterministic discrete-event simulation engine
//!
//! This crate is the substrate on which every protocol in the Verme
//! reproduction runs. It plays the role that [p2psim] played in the original
//! paper: a single-threaded, fully deterministic discrete-event simulator
//! with a virtual clock, an event queue, timers, and message delivery with
//! configurable per-pair latency.
//!
//! The engine is split into small, independently testable layers:
//!
//! * [`time`] — the virtual clock types [`SimTime`] and [`SimDuration`].
//! * [`event`] — a generic ordered event queue, [`EventQueue`].
//! * [`fault`] — scriptable fault injection: [`FaultPlan`] scripts churn,
//!   mass failures, restarts, Byzantine flips and five network windows
//!   (loss, latency, duplication, reorder, partition), executed
//!   deterministically by a [`FaultRunner`]; the windows open now compose
//!   into one [`NetConditions`].
//! * [`rng`] — reproducible random-number streams derived from one seed.
//! * [`metrics`] — counters, histograms and time series used by every
//!   experiment harness.
//! * [`profile`] — the host-side profiler: scoped spans ([`ProfScope`]
//!   guards over a fixed [`Scope`] taxonomy) attributing wall clock to
//!   protocol planes; one thread-local branch per scope when disabled.
//! * [`runtime`] — the node runtime: protocol state machines implementing
//!   [`Node`] exchange messages through a [`LatencyModel`], with churn
//!   (spawn/kill), timers, and byte accounting; every send is subject to
//!   the one [`NetConditions`] value the runtime holds.
//! * [`trace`] — causal tracing: cause-attributed [`TraceEvent`]s, the
//!   protocol-level [`ProtoEvent`] vocabulary, and the bounded
//!   [`FlightRecorder`] ring buffer.
//! * [`config`] — the [`InvalidConfig`] error shared by every crate's
//!   configuration validators.
//! * [`split`] — [`split_parts`], how many scoped threads a large
//!   construction step (the King matrix, a worm population) splits over.
//!
//! Determinism is a hard requirement: given the same seed, a simulation
//! produces the same event trace, which makes every experiment in the
//! repository exactly reproducible.
//!
//! ## Example
//!
//! ```
//! use verme_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "world");
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(1), "hello");
//! let (t1, e1) = q.pop().unwrap();
//! let (t2, e2) = q.pop().unwrap();
//! assert_eq!((e1, e2), ("hello", "world"));
//! assert!(t1 < t2);
//! ```
//!
//! [p2psim]: https://pdos.csail.mit.edu/p2psim/

#![forbid(unsafe_code)]

pub mod config;
pub mod event;
pub mod fault;
pub mod metrics;
pub mod profile;
pub mod rng;
pub mod runtime;
pub mod split;
pub mod time;
pub mod trace;

pub use config::InvalidConfig;
pub use event::EventQueue;
pub use fault::{Fault, FaultHooks, FaultPlan, FaultRunner, Recovery, RestartHook, RestartPhase};
pub use metrics::{Counter, Histogram, MetricDesc, MetricKind, MetricsSink, Summary, TimeSeries};
pub use profile::{
    span_profiler_disable, span_profiler_enable, span_profiler_enable_logged,
    span_profiler_enabled, ProfScope, Scope, SpanEvent, SpanNode, SpanProfile,
};
pub use rng::SeedSource;
pub use runtime::{
    Addr, AssertorVerdict, Ctx, HostId, LatencyModel, NetConditions, NetStats, Node, Runtime,
    SampleView, StepAssertor, Wire,
};
pub use split::split_parts;
pub use time::{SimDuration, SimTime};
pub use trace::{tee, CauseId, FlightRecorder, ProtoEvent, TraceEvent, TraceKind, Tracer};
