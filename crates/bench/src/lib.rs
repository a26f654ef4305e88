//! # verme-bench — experiment harnesses for every figure in the paper
//!
//! One module per experiment:
//!
//! * [`fig5`] — lookup latency under churn (Figure 5).
//! * [`fig67`] — DHT get/put latency and bandwidth (Figures 6 and 7).
//! * [`fig8`] — worm propagation speed (Figure 8).
//! * [`ext`] — the extension experiments (failure rate, maintenance
//!   bandwidth, uneven type split) the paper reports in summary form.
//! * [`extg`] — churn × kill-burst resilience sweep with and without
//!   end-to-end retries (extension G).
//! * [`exth`] — detection-latency sweeps for the live monitoring plane
//!   (extension H): guardian coverage and detector parameters vs the
//!   outbreak's speed.
//! * [`exti`] — data durability under churn (extension I): loss and
//!   under-replication with the replica-repair plane off vs on at
//!   several repair intervals.
//! * [`extl`] — latency vs offered load under the `verme-load` workload
//!   plane (extension L): open-loop Zipf traffic against each variant,
//!   serving-side cache/coalescing/memoization off vs on.
//! * [`extk`] — lookup degradation under a Byzantine routing adversary
//!   (extension K): failed/hijacked fractions vs the adversary share
//!   for all four variants, with the honest defenses enabled.
//! * [`extm`] — ring-maintenance safety (extension M): legacy vs
//!   Zave-corrected maintenance under churn plus arc kill bursts, with
//!   the continuous ring-invariant assertor attached.
//! * [`exto`] — chaos search (extension O): four `verme-chaos`
//!   explorations, two positive controls and two hardened arms.
//! * [`testbed`] — what every module above and every `*_check` bin is
//!   built from beyond the crates' own constructors: the Verme joiner and
//!   churn hooks, the DHash ring and the DHT fault-sweep cell, the
//!   King-matrix lookup run, the check bins' verdicts and fingerprints,
//!   the side-file directory, and `par_map`, the one sweep fan-out.
//!
//! The `src/bin/` binaries print each figure's table at paper scale
//! (`--full`) or a laptop-quick scale (default). How fast they run is
//! measured from outside, by the `perf/` package (`perf/README.md`).

#![forbid(unsafe_code)]

pub mod ext;
pub mod extg;
pub mod exth;
pub mod exti;
pub mod extk;
pub mod extl;
pub mod extm;
pub mod exto;
pub mod fig5;
pub mod fig67;
pub mod fig8;
pub mod plot;
pub mod testbed;

/// Parses the common `--full` / `--seed N` / `--reps N` binary arguments.
#[derive(Clone, Debug)]
pub struct CliArgs {
    /// Run at the paper's full scale.
    pub full: bool,
    /// Master seed.
    pub seed: u64,
    /// Repetition override, if given.
    pub reps: Option<u64>,
    /// Simulated-hours override for the churn experiments, if given.
    pub hours: Option<u64>,
    /// Where to dump a flight-recorder NDJSON trace, if requested.
    pub trace: Option<String>,
    /// Attach the live monitor and print its run-health report.
    pub monitor: bool,
    /// A `verme-load` workload profile spec (e.g. `zipf@10`, `bursty`),
    /// for the binaries that can replay real-traffic workloads.
    pub load: Option<String>,
}

impl CliArgs {
    /// Parses `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse() -> CliArgs {
        let mut out = CliArgs {
            full: false,
            seed: 42,
            reps: None,
            hours: None,
            trace: None,
            monitor: false,
            load: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => out.full = true,
                "--monitor" => out.monitor = true,
                "--seed" => {
                    out.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed requires an integer");
                }
                "--reps" => {
                    out.reps = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--reps requires an integer"),
                    );
                }
                "--hours" => {
                    out.hours = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--hours requires an integer"),
                    );
                }
                "--trace" => {
                    out.trace = Some(args.next().expect("--trace requires a file path"));
                }
                "--load" => {
                    out.load = Some(args.next().expect("--load requires a profile spec"));
                }
                other => panic!(
                    "unknown argument {other}; usage: \
                     [--full] [--seed N] [--reps N] [--hours H] [--trace FILE] [--monitor] \
                     [--load PROFILE]"
                ),
            }
        }
        out
    }
}
