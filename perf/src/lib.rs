//! # verme-perf — the repository benchmark
//!
//! Six workloads drive `verme-sim`, `-net`, `-crypto`, `-chord`, `-core`,
//! `-dht`, `-load`, `-worm`, `-chaos` and `-obs` through their public
//! functions only and time those calls from outside. See `README.md` for
//! the workload table, the metric catalogue and how to read the output.

pub mod catalog;
pub mod compare;
pub mod kernels;
pub mod probe;
pub mod runner;
pub mod stats;
pub mod suite;
pub mod workloads;
