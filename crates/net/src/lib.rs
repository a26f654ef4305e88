//! # verme-net — network models for the Verme reproduction
//!
//! Two latency models back the paper's two experimental setups:
//!
//! * [`KingMatrix`] (§7.1): pairwise RTTs in the style of the King data set
//!   used by p2psim — 1740 hosts, 198 ms average RTT. Since the measured
//!   matrix is not redistributable, the default constructor *synthesizes* a
//!   matrix from a log-normal RTT distribution with the same mean and a
//!   realistic dispersion; [`KingMatrix::from_rtt_millis`] loads a measured
//!   matrix if you have one.
//! * [`TransitStub`] (§7.2): a GT-ITM-style transit-stub topology (Zegura
//!   et al.) that supplies both latency *and* bandwidth, so data transfers
//!   have a serialization cost. This is what makes the DHT get/put
//!   experiments meaningful.
//!
//! Both implement [`verme_sim::LatencyModel`].

#![forbid(unsafe_code)]

pub mod king;
pub mod transit_stub;

pub use king::KingMatrix;
pub use transit_stub::{TransitStub, TransitStubConfig};
