//! Regenerates **Figure 5**: lookup latency vs mean node lifetime for
//! Chord (transitive), Chord (recursive) and Verme on the King matrix.
//!
//! ```text
//! cargo run -p verme-bench --release --bin fig5_lookup_latency            # quick
//! cargo run -p verme-bench --release --bin fig5_lookup_latency -- --full  # paper scale
//! ```

use verme_bench::fig5::{run_sweep, Fig5System};
use verme_bench::testbed::mean_of;
use verme_bench::CliArgs;
use verme_sim::SimDuration;

fn main() {
    let args = CliArgs::parse();
    let reps = args.reps.unwrap_or(if args.full { 8 } else { 2 });
    let lifetimes = [
        ("15 min", SimDuration::from_mins(15)),
        ("30 min", SimDuration::from_mins(30)),
        ("1 h", SimDuration::from_hours(1)),
        ("4 h", SimDuration::from_hours(4)),
        ("8 h", SimDuration::from_hours(8)),
    ];

    println!("# Figure 5 — lookup latency (ms) vs mean node lifetime");
    let mode =
        if args.full { "paper scale (1740 nodes, 12 h)" } else { "quick (400 nodes, 20 min)" };
    match args.hours {
        Some(h) => println!(
            "# mode: {mode}, sim time overridden to {h} h | reps: {reps} | seed: {}",
            args.seed
        ),
        None => println!("# mode: {mode} | reps: {reps} | seed: {}", args.seed),
    }
    println!(
        "{:<10} {:>20} {:>20} {:>20} {:>12}",
        "lifetime", "Chord transitive", "Chord recursive", "Verme", "Verme/rec."
    );

    let sweep = run_sweep(&lifetimes.map(|l| l.1), &Fig5System::ALL, reps, &args);
    for ((name, _), by_system) in lifetimes.iter().zip(&sweep) {
        let m: Vec<f64> = by_system.iter().map(|rs| mean_of(rs, |r| r.mean_latency_ms)).collect();
        println!(
            "{:<10} {:>20.1} {:>20.1} {:>20.1} {:>12.2}",
            name,
            m[0],
            m[1],
            m[2],
            m[2] / m[1].max(1e-9)
        );
    }
    println!(
        "# expectation (paper): transitive ≈ 35% below Verme; recursive ≈ Verme; flat in lifetime"
    );
}
