//! # verme-chaos — generative fault-schedule search with shrinking
//!
//! The scripted fault plans in `verme-sim` answer "does the protocol
//! survive *this* schedule?". This crate asks the stronger question:
//! "does any schedule inside a bounded envelope break it?" — and when
//! one does, it hands back the smallest replayable witness it can find.
//!
//! The pipeline has four stages, one module each:
//!
//! * [`profile`] — a [`ChaosProfile`] bounds the generation envelope
//!   (fault palette, rates, windows, victim spans); [`sample_plan`] turns
//!   `(profile, seed)` into a concrete schedule, a pure `Vec<Fault>`.
//! * [`scenario`] — [`run_trial`] executes one schedule against a
//!   self-contained simulation ([`Scenario::Ring`] or
//!   [`Scenario::Durability`]) and evaluates the oracle set; the returned
//!   [`OracleReport`] is a pure function of `(scenario, schedule, seed)`.
//!   The two harness pieces its scenarios are built from and the bench
//!   experiments share are public: [`ring_assertor`] (the continuous
//!   ring-invariant check) and [`seed_blocks`] (fault-free block seeding).
//! * [`shrink`] — [`ddmin`] delta-debugs a failing schedule down to a
//!   locally minimal one that still fails.
//! * [`repro`] — a [`Repro`] bundles `(scenario, seed, schedule, report)`
//!   into a `CHAOS_repro_<hash>.json` file whose replay reproduces the
//!   recorded verdict bit-for-bit, on any machine.
//!
//! [`explorer::explore`] drives the loop: sample, run, and on the first
//! failure shrink and package. Every trial seed derives from the explorer
//! seed and the trial index, so a whole exploration is as replayable as a
//! single trial.
//!
//! The oracles only read simulator state; a run with no chaos plan active
//! spends zero extra RNG draws and materializes no `chaos.*` metric keys,
//! preserving the workspace's byte-identical-when-off guarantee.

#![forbid(unsafe_code)]

pub mod explorer;
pub mod oracle;
pub mod profile;
pub mod repro;
pub mod scenario;
pub mod shrink;

pub use explorer::{explore, trial_seed, Discovery, Exploration, ExplorerConfig};
pub use oracle::{Finding, OracleReport};
pub use profile::{sample_plan, ChaosProfile, FaultKind};
pub use repro::Repro;
pub use scenario::{ring_assertor, run_trial, seed_blocks, Scenario};
pub use shrink::{ddmin, ShrinkOutcome};
