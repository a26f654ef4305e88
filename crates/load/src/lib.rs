//! # verme-load: deterministic production-shaped workload generation
//!
//! The paper's figures drive the ring with uniform, closed-loop scripted
//! lookups. This crate supplies the missing real-traffic plane: seeded,
//! virtual-clock workload schedules with
//!
//! - **Zipf key popularity** over arbitrarily large key universes,
//!   sampled in O(1) from a precomputed Vose alias table
//!   ([`ZipfSampler`]);
//! - **open-loop arrival processes** — Poisson, bursty on/off, and
//!   diurnal sinusoidal modulation ([`ArrivalProcess`]) — that keep
//!   offering load past the saturation knee instead of self-throttling;
//! - **per-client sessions** with independent derived RNG streams and a
//!   configurable read/write mix ([`LoadProfile`], [`generate_schedule`]).
//!
//! Everything is a pure function of `(profile, SeedSource, horizon)`:
//! same seed, same schedule, byte for byte. The crate deliberately knows
//! nothing about the DHT — benches map [`WorkloadEvent`] ranks onto real
//! block keys and drive whichever variant is under test.

#![forbid(unsafe_code)]

pub mod arrival;
pub mod workload;
pub mod zipf;

pub use arrival::ArrivalProcess;
pub use workload::{generate_schedule, LoadProfile, WorkloadEvent};
pub use zipf::{AliasTable, ZipfSampler};

/// Metric keys emitted by load-plane drivers.
pub mod keys {
    /// Requests offered by the generator (counted at issue time, whether
    /// or not the serving side keeps up).
    pub const LOAD_OFFERED: &str = "load.offered";
    /// Offered requests that completed successfully.
    pub const LOAD_COMPLETED: &str = "load.completed";
    /// Offered requests that failed or timed out.
    pub const LOAD_FAILED: &str = "load.failed";
    /// End-to-end latency of each completed offered request, milliseconds.
    pub const LOAD_LATENCY_MS: &str = "load.latency_ms";

    /// Descriptors for every load metric, for registry export.
    pub fn descriptors() -> &'static [verme_sim::MetricDesc] {
        use verme_sim::MetricDesc;
        const DESCS: &[MetricDesc] = &[
            MetricDesc::counter(LOAD_OFFERED, "ops", "requests offered by the load generator"),
            MetricDesc::counter(LOAD_COMPLETED, "ops", "offered requests completed successfully"),
            MetricDesc::counter(LOAD_FAILED, "ops", "offered requests failed or timed out"),
            MetricDesc::histogram(LOAD_LATENCY_MS, "ms", "latency of completed offered requests"),
        ];
        DESCS
    }
}
