//! **Extension N**: performance attribution for the figure suite.
//!
//! Runs laptop-quick versions of the fig5 / fig6+7 / fig8 workloads with
//! the scoped span profiler on and reports where the wall-clock time
//! went, per `Subsystem × Op` scope (`chord.stabilize`, `dht.repair`,
//! `worm.propagate`, ...). The fig8 suite additionally runs with the
//! span *log* retained and a flight recorder attached, and exports a
//! Chrome-trace-event file (open it at <https://ui.perfetto.dev>) plus a
//! folded-stack file for flamegraph tooling, both under
//! `$VERME_BENCH_DIR` (the current directory when unset).
//!
//! ```text
//! cargo run -p verme-bench --release --bin extN_profile
//! ```
//!
//! Output discipline: stdout carries only *deterministic* facts (labels,
//! event and call counts, simulation outcomes) so same-seed runs stay
//! byte-identical; every wall-clock number — the attribution tables —
//! goes to stderr.
//!
//! The acceptance gate lives here: the fig8 suite must attribute at
//! least [`MIN_FIG8_ATTRIBUTED`] of its wall time to named scopes. The
//! unattributed remainder is always reported explicitly; the bin exits
//! non-zero when the gate fails.

use std::time::Instant;

use verme_bench::fig5::{run_fig5, Fig5Params, Fig5System};
use verme_bench::fig67::{run_fig67, DhtSystem, Fig67Params};
use verme_bench::fig8::{figure_scenarios, run_figure, Fig8Params, FigureRun, Observe};
use verme_bench::testbed::artifact_dir;
use verme_bench::CliArgs;
use verme_sim::{
    span_profiler_disable, span_profiler_enable, span_profiler_enable_logged, SimDuration,
    SpanProfile, TraceEvent,
};

/// Minimum attributed fraction of fig8 wall time (the acceptance gate).
const MIN_FIG8_ATTRIBUTED: f64 = 0.90;
/// Raw spans retained for the Perfetto export (the counter in
/// `dropped_spans` reports the overflow; aggregation is unaffected).
const SPAN_LOG_CAP: usize = 16_384;
/// Flight-recorder events retained per fig8 scenario.
const TRACE_CAPACITY: usize = 8_192;

/// Prints one workload's attribution table — wall-clock numbers, so
/// stderr only — and returns the attributed fraction.
fn report_attribution(name: &str, wall_s: f64, profile: &SpanProfile) -> f64 {
    let attributed_s = profile.attributed_total().as_secs_f64();
    let frac = if wall_s > 0.0 { attributed_s / wall_s } else { 0.0 };
    eprintln!();
    eprintln!("## {name} — wall-time attribution");
    eprintln!("{:<20} {:>12} {:>12} {:>12}", "scope", "calls", "self (ms)", "total (ms)");
    for (scope, n) in profile.scope_totals() {
        eprintln!(
            "{:<20} {:>12} {:>12.1} {:>12.1}",
            scope.name(),
            n.calls,
            n.self_wall.as_secs_f64() * 1e3,
            n.total.as_secs_f64() * 1e3
        );
    }
    eprintln!(
        "{:<20} {:>12} {:>12.1} {:>12}",
        "(unattributed)",
        "",
        (wall_s - attributed_s).max(0.0) * 1e3,
        ""
    );
    eprintln!(
        "attributed {:.1}% of {:.2} s wall ({} spans dropped from the log)",
        frac * 100.0,
        wall_s,
        profile.dropped_spans
    );
    frac
}

/// Deterministic per-scope call counts, for stdout.
fn print_calls(profile: &SpanProfile) {
    for (scope, n) in profile.scope_totals() {
        println!("#   {:<20} {:>12} calls", scope.name(), n.calls);
    }
}

fn run_fig5_suite(seed: u64) {
    println!("# fig5 — lookup latency under churn (quick, mean lifetime 600 s)");
    span_profiler_enable();
    let started = Instant::now();
    let params = Fig5Params::quick(SimDuration::from_secs(600), seed);
    for system in Fig5System::ALL {
        let r = run_fig5(system, &params);
        println!(
            "#   {:<20} issued {:>6}  completed {:>6}  failed {:>5}",
            system.label(),
            r.issued,
            r.completed,
            r.failed
        );
    }
    let wall_s = started.elapsed().as_secs_f64();
    let profile = span_profiler_disable().expect("profiler enabled above");
    print_calls(&profile);
    report_attribution("fig5 suite", wall_s, &profile);
}

fn run_fig67_suite(seed: u64) {
    println!("# fig6+7 — DHT get/put latency and bandwidth (quick)");
    span_profiler_enable();
    let started = Instant::now();
    let params = Fig67Params::quick(seed);
    for system in DhtSystem::ALL {
        let r = run_fig67(system, &params);
        println!("#   {:<20} completed {:>6}  failed {:>5}", system.label(), r.completed, r.failed);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let profile = span_profiler_disable().expect("profiler enabled above");
    print_calls(&profile);
    report_attribution("fig6+7 suite", wall_s, &profile);
}

/// Runs the five fig8 scenarios sequentially (the profiler is
/// thread-local) with the span log and a flight recorder on; returns the
/// profile, the fig8 wall time and the merged rep-0 trace.
fn run_fig8_suite(seed: u64) -> (SpanProfile, f64, Vec<TraceEvent>) {
    println!("# fig8 — worm propagation (quick)");
    let params = Fig8Params::quick(seed);
    span_profiler_enable_logged(SPAN_LOG_CAP);
    let started = Instant::now();
    let mut merged = Vec::new();
    let observe = Observe::Trace { capacity: TRACE_CAPACITY };
    for FigureRun { series, events, .. } in
        run_figure(&figure_scenarios(), &params, &observe, false)
    {
        merged.extend(events);
        println!(
            "#   {:<32} final {:>8.0} of {:>6} vulnerable, {:>10} scans",
            series.label, series.final_infected, series.vulnerable, series.scans
        );
    }
    let wall_s = started.elapsed().as_secs_f64();
    let profile = span_profiler_disable().expect("profiler enabled above");
    print_calls(&profile);
    (profile, wall_s, merged)
}

fn main() {
    let args = CliArgs::parse();
    println!("# Extension N — per-subsystem performance attribution | seed: {}", args.seed);

    run_fig5_suite(args.seed);
    run_fig67_suite(args.seed);

    let (profile, wall_s, trace) = run_fig8_suite(args.seed);
    let frac = report_attribution("fig8 suite", wall_s, &profile);

    // Perfetto + flamegraph exports.
    let dir = artifact_dir();
    let trace_path = dir.join("extN_profile.trace.json");
    let folded_path = dir.join("extN_profile.folded");
    let doc = verme_obs::chrome_trace(&profile, &trace);
    match std::fs::write(&trace_path, doc.to_json() + "\n") {
        Ok(()) => eprintln!(
            "# perfetto trace: {} spans + {} instants -> {} (open at https://ui.perfetto.dev)",
            profile.spans.len(),
            trace.len(),
            trace_path.display()
        ),
        Err(e) => eprintln!("# could not write {}: {e}", trace_path.display()),
    }
    match std::fs::write(&folded_path, verme_obs::folded_stacks(&profile)) {
        Ok(()) => eprintln!("# folded stacks -> {}", folded_path.display()),
        Err(e) => eprintln!("# could not write {}: {e}", folded_path.display()),
    }

    if frac < MIN_FIG8_ATTRIBUTED {
        eprintln!(
            "FAIL: only {:.1}% of fig8 wall time attributed (gate {:.0}%); \
             unattributed remainder {:.2} s",
            frac * 100.0,
            MIN_FIG8_ATTRIBUTED * 100.0,
            (wall_s - profile.attributed_total().as_secs_f64()).max(0.0)
        );
        std::process::exit(1);
    }
    eprintln!(
        "ok: {:.1}% of fig8 wall time attributed (gate {:.0}%)",
        frac * 100.0,
        MIN_FIG8_ATTRIBUTED * 100.0
    );
}
