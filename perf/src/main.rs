//! Command line of the benchmark. See `README.md`.
//!
//! ```text
//! verme-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! verme-perf [--seed <n>] [--record]                                    whole suite
//! verme-perf --compare A.json B.json                                     two result files
//! ```

use std::path::Path;
use std::process::ExitCode;

use verme_perf::runner::{result_line, RunArgs};
use verme_perf::{catalog, compare, runner, suite, workloads};

/// Outputs land beside the benchmark, relative to the checkout root the
/// command is run from.
const OUT_DIR: &str = "perf/out";
const TRAJECTORY: &str = "perf/trajectory.ndjson";
const DEFAULT_SEED: u64 = 42;

const USAGE: &str = "usage: verme-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
       verme-perf [--seed <n>] [--record]
       verme-perf --compare A.json B.json";

/// Parsed command line.
#[derive(Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    record: bool,
    compare: Option<(String, String)>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--record" => cli.record = true,
            "--compare" => cli.compare = Some((value()?.clone(), value()?.clone())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // The suite always measures for the `run_seconds` of `BENCHMARK.json`.
    if cli.seconds.is_some() && cli.workload.is_none() {
        return Err("--seconds goes with --workload".into());
    }
    Ok(cli)
}

fn read_json(path: &str) -> Result<verme_obs::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    verme_obs::parse(&text).map_err(|e| format!("{path} is not JSON: {e:?}"))
}

fn one_run(cli: &Cli, name: &str) -> Result<bool, String> {
    let workload = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let r = runner::run(&RunArgs {
        workload,
        seed: cli.seed.unwrap_or(DEFAULT_SEED),
        seconds: cli.seconds.unwrap_or(catalog::RUN_SECONDS as f64),
        trace: cli.trace,
        tiny: false,
        out_dir: Some(Path::new(OUT_DIR)),
    });
    for m in &r.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    println!("{name} iterations {}", r.iterations);
    println!("{name} ops_failed_frac {}/{}", r.failed, r.attempted);
    println!("{name} sim_fingerprint {}", r.fingerprint);
    println!("{name} sim_stats {}", r.sim_stats);
    for v in &r.violations {
        eprintln!("{name}: check failed: {v}");
    }
    // The result line carries `correct`; the exit code only says that a
    // result was produced.
    println!("{}", result_line(&r));
    Ok(true)
}

fn main_inner() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args).map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some((a, b)) = &cli.compare {
        let rows = compare::compare(&read_json(a)?, &read_json(b)?)?;
        return Ok(compare::print(&rows));
    }
    if let Some(name) = &cli.workload {
        return one_run(&cli, name);
    }
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    suite::run(seed, cli.record, Path::new(OUT_DIR), Path::new(TRAJECTORY))
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("verme-perf: {e}");
            ExitCode::from(2)
        }
    }
}
