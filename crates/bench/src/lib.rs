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
//!   built from beyond the crates' own constructors: one Chord and one
//!   Verme ring builder, the four DHT systems and the one builder of
//!   their rings, the Verme joiner and churn hooks, the DHT fault-sweep
//!   cell and its pooled outcome, the King-matrix lookup run, the check
//!   bins' verdicts and fingerprints, the side-file directory, and
//!   `sweep`, the one jobs × repetitions fan-out, with its seed rule.
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

/// The usage line every bin prints beside a rejected argument.
const USAGE: &str = "usage: [--full] [--seed N] [--reps N] [--hours H] [--trace FILE] [--monitor] \
                     [--load PROFILE]";

/// The arguments every bin accepts: `--full`, `--seed N`, `--reps N`,
/// `--hours H`, `--trace FILE`, `--monitor`, `--load PROFILE`.
#[derive(Clone, Debug)]
pub struct CliArgs {
    /// Run at the paper's full scale.
    pub full: bool,
    /// Master seed.
    pub seed: u64,
    /// Repetition override, if given (at least 1).
    pub reps: Option<u64>,
    /// Simulated-hours override for the churn experiments, if given (at
    /// least 1).
    pub hours: Option<u64>,
    /// Where to dump a flight-recorder NDJSON trace, if requested.
    pub trace: Option<String>,
    /// Attach the live monitor and print its run-health report.
    pub monitor: bool,
    /// A `verme-load` workload profile (`zipf@10`, `bursty`, …), for the
    /// binaries that can replay real-traffic workloads.
    pub load: Option<verme_load::LoadProfile>,
}

impl CliArgs {
    /// Parses `std::env::args`. A rejected argument prints the reason and
    /// the usage line to stderr and exits with status 2.
    pub fn parse() -> CliArgs {
        CliArgs::from_args(std::env::args().skip(1)).unwrap_or_else(|why| {
            eprintln!("{why}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parses the arguments that follow the program name.
    ///
    /// # Errors
    ///
    /// An unknown flag, a missing or non-integer value, `--reps 0`,
    /// `--hours 0`, or a `--load` spec that
    /// [`LoadProfile::parse`](verme_load::LoadProfile::parse) refuses.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<CliArgs, String> {
        let mut out = CliArgs {
            full: false,
            seed: 42,
            reps: None,
            hours: None,
            trace: None,
            monitor: false,
            load: None,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} requires a value"));
            let int = |v: String| {
                v.parse::<u64>().map_err(|_| format!("{flag} requires an integer, got {v:?}"))
            };
            match flag.as_str() {
                "--full" => out.full = true,
                "--monitor" => out.monitor = true,
                "--seed" => out.seed = int(value()?)?,
                "--reps" => out.reps = Some(int(value()?)?),
                "--hours" => out.hours = Some(int(value()?)?),
                "--trace" => out.trace = Some(value()?),
                "--load" => out.load = Some(verme_load::LoadProfile::parse(&value()?)?),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        for (flag, n) in [("--reps", out.reps), ("--hours", out.hours)] {
            if n == Some(0) {
                return Err(format!("{flag} must be at least 1"));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliArgs, String> {
        CliArgs::from_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn cli_defaults_and_every_flag_parse() {
        let plain = parse(&[]).expect("no arguments is valid");
        assert!(!plain.full && !plain.monitor && plain.load.is_none());
        assert_eq!((plain.seed, plain.reps, plain.hours, plain.trace), (42, None, None, None));

        let all = parse(&[
            "--full",
            "--seed",
            "7",
            "--reps",
            "3",
            "--hours",
            "2",
            "--trace",
            "t.ndjson",
            "--monitor",
            "--load",
            "bursty@5",
        ])
        .expect("every flag is valid");
        assert!(all.full && all.monitor);
        assert_eq!((all.seed, all.reps, all.hours), (7, Some(3), Some(2)));
        assert_eq!(all.trace.as_deref(), Some("t.ndjson"));
        assert_eq!(all.load.map(|p| p.name), Some("bursty".to_string()));
    }

    #[test]
    fn cli_rejects_unknown_flags_and_missing_or_non_integer_values() {
        assert_eq!(parse(&["--fast"]).unwrap_err(), "unknown argument --fast");
        assert_eq!(parse(&["--seed"]).unwrap_err(), "--seed requires a value");
        assert_eq!(parse(&["--full", "--trace"]).unwrap_err(), "--trace requires a value");
        assert_eq!(parse(&["--seed", "x"]).unwrap_err(), "--seed requires an integer, got \"x\"");
        assert!(parse(&["--reps", "-1"]).is_err());
        assert!(parse(&["--hours", "1.5"]).is_err());
    }

    #[test]
    fn cli_rejects_zero_reps_and_zero_hours() {
        assert_eq!(parse(&["--reps", "0"]).unwrap_err(), "--reps must be at least 1");
        assert_eq!(parse(&["--hours", "0"]).unwrap_err(), "--hours must be at least 1");
        assert_eq!(parse(&["--reps", "1", "--hours", "1"]).unwrap().reps, Some(1));
    }

    #[test]
    fn cli_rejects_a_load_spec_the_profile_parser_refuses() {
        for spec in ["bogus", "zipf@x", "zipf@0"] {
            let why = parse(&["--load", spec]).unwrap_err();
            assert_eq!(Err(why), verme_load::LoadProfile::parse(spec).map(|p| p.name));
        }
    }
}
