//! Regenerates **Figure 5**: lookup latency vs mean node lifetime for
//! Chord (transitive), Chord (recursive) and Verme on the King matrix.
//!
//! ```text
//! cargo run -p verme-bench --release --bin fig5_lookup_latency            # quick
//! cargo run -p verme-bench --release --bin fig5_lookup_latency -- --full  # paper scale
//! ```

use verme_bench::fig5::{run_fig5, Fig5Params, Fig5System};
use verme_bench::report::BenchTimer;
use verme_bench::testbed::par_map;
use verme_bench::CliArgs;
use verme_sim::SimDuration;

fn main() {
    let timer = BenchTimer::start("fig5_lookup_latency");
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

    // Independent replications run in parallel; the sums fold in job order.
    let jobs: Vec<(usize, usize, u64)> = (0..lifetimes.len())
        .flat_map(|li| (0..3).flat_map(move |si| (0..reps).map(move |rep| (li, si, rep))))
        .collect();
    let results = par_map(&jobs, |&(li, si, rep)| {
        let life = lifetimes[li].1;
        let run_seed = args.seed.wrapping_add(rep * 7919).wrapping_add(li as u64 * 104729);
        let mut params = if args.full {
            Fig5Params::paper(life, run_seed)
        } else {
            Fig5Params::quick(life, run_seed)
        };
        if let Some(h) = args.hours {
            params.sim_time = SimDuration::from_hours(h);
        }
        run_fig5(Fig5System::ALL[si], &params)
    });
    let mut events: u64 = 0;
    let mut sums = vec![[0.0f64; 3]; lifetimes.len()];
    for (&(li, si, _), r) in jobs.iter().zip(&results) {
        sums[li][si] += r.mean_latency_ms;
        events += r.issued;
    }
    for (name, sums) in lifetimes.iter().map(|l| l.0).zip(sums) {
        let m = sums.map(|sum| sum / reps.max(1) as f64);
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
    timer.finish(events);
}
