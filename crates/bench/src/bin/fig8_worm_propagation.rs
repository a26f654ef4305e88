//! Regenerates **Figure 8**: infected machines vs time (log x-axis) for
//! the five propagation scenarios.
//!
//! ```text
//! cargo run -p verme-bench --release --bin fig8_worm_propagation            # quick (10k nodes)
//! cargo run -p verme-bench --release --bin fig8_worm_propagation -- --full  # paper (100k nodes)
//! ```
//!
//! With `--trace FILE` each scenario's first repetition runs with a
//! flight recorder attached; the merged infection-milestone events are
//! dumped to `FILE` as NDJSON (one causal span per infection chain).
//!
//! With `--monitor` each scenario's first repetition runs with the live
//! monitor sampled every 5 simulated seconds; the run-health report
//! (per-gauge sparklines, alert timeline, per-section detection latency)
//! is printed after the figure.

use verme_bench::fig8::{
    default_monitor_rules, figure_scenarios, run_figure, Fig8Params, Fig8Series, Observe,
};
use verme_bench::plot::render_log_x;
use verme_bench::CliArgs;
use verme_sim::SimDuration;

/// Events retained per scenario when `--trace` is active.
const TRACE_CAPACITY: usize = 65_536;

fn main() {
    let args = CliArgs::parse();
    let mut params =
        if args.full { Fig8Params::paper(args.seed) } else { Fig8Params::quick(args.seed) };
    params.repetitions = args.reps.unwrap_or(params.repetitions);
    println!("# Figure 8 — simulated worm propagation (infected machines over time)");
    println!(
        "# mode: {} nodes, {} sections, {} reps | seed: {}",
        params.config.nodes, params.config.sections, params.repetitions, args.seed
    );

    let scenarios = figure_scenarios();
    let observe = if args.monitor {
        Observe::Monitor { interval: SimDuration::from_secs(5), rules: default_monitor_rules() }
    } else if args.trace.is_some() {
        Observe::Trace { capacity: TRACE_CAPACITY }
    } else {
        Observe::Nothing
    };
    let runs = run_figure(&scenarios, &params, &observe, true);
    if let Some(path) = &args.trace {
        // One dump, scenarios in legend order (each internally
        // time-ordered by the recorder).
        let merged: Vec<verme_sim::TraceEvent> =
            runs.iter().flat_map(|r| r.events.iter().cloned()).collect();
        let ndjson = verme_obs::trace_to_ndjson(&merged);
        std::fs::write(path, ndjson).expect("write trace dump");
        println!("# trace: {} events -> {path}", merged.len());
    }
    let series: Vec<&Fig8Series> = runs.iter().map(|r| &r.series).collect();
    // Header.
    print!("{:<12}", "t (s)");
    for s in &series {
        print!(" {:>26}", s.label);
    }
    println!();
    // Shared log grid (all series use the same grid by construction).
    for (gi, &(t, _)) in series[0].points.iter().enumerate() {
        print!("{:<12.0}", t);
        for s in &series {
            print!(" {:>26.0}", s.points[gi].1);
        }
        println!();
    }
    println!();
    println!("# vulnerable population: {} of {} nodes", series[0].vulnerable, params.config.nodes);
    // The figure itself, rendered in ASCII (log-x like the paper's).
    let plot_series: Vec<(&str, &[(f64, f64)])> =
        series.iter().map(|s| (s.label, s.points.as_slice())).collect();
    println!();
    for line in render_log_x(&plot_series, 16, 72) {
        println!("{line}");
    }
    println!();
    for s in &series {
        // Early-phase growth rate from the averaged curve points.
        let mut ts = verme_sim::TimeSeries::new();
        for &(t, v) in &s.points {
            ts.push(verme_sim::SimTime::ZERO + verme_sim::SimDuration::from_secs_f64(t), v);
        }
        let growth = verme_worm::analyze(&ts).growth_rate_per_s;
        match s.t50_s {
            Some(t) => println!(
                "# {:<32} t50 = {:>8.0} s ({}/{} reps reached)   final = {:>8.0}   growth = {:.3}/s",
                s.label, t, s.t50_reached, s.repetitions, s.final_infected, growth
            ),
            None => println!(
                "# {:<32} t50 =    never   final = {:>8.0}  (contained)",
                s.label, s.final_infected
            ),
        }
    }

    for run in &runs {
        let (s, Some(report)) = (&run.series, &run.report) else { continue };
        println!();
        println!("## monitor — {} (first repetition)", s.label);
        for line in report.health.lines() {
            println!("#   {line}");
        }
        println!("#   alert timeline ({} alerts):", report.alerts.len());
        for a in report.alerts.iter().take(12) {
            println!(
                "#     t={:>8.1} s  {:<28} [{}] value={:.1}",
                a.at.as_secs_f64(),
                a.series,
                a.rule,
                a.value
            );
        }
        if report.alerts.len() > 12 {
            println!("#     ... {} more", report.alerts.len() - 12);
        }
        let detected = report.detection.iter().filter(|d| d.first_alert.is_some());
        for d in detected.take(8) {
            let lat = d.latency().map_or(f64::NAN, |l| l.as_secs_f64());
            println!(
                "#     section {:>4}  first infection t={:>8.1} s  detection latency {:>6.1} s",
                d.section,
                d.first_infection.as_secs_f64(),
                lat
            );
        }
    }
    println!("# expectation (paper, 100k nodes): Chord saturates in ~32 s; Verme confined to one section;");
    println!("# Secure+imp confined to O(log n) sections (~352 nodes); Fast t50 ≈ 160 s; Compromise t50 ≈ 1600 s");
}
