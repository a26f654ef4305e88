//! Regenerates **Extension A**: lookup failure rates under churn for
//! Chord vs Verme (the paper reports "failure rates do not differ
//! significantly", citing the companion thesis).
//!
//! ```text
//! cargo run -p verme-bench --release --bin extA_lookup_failure [-- --full]
//! ```

use verme_bench::fig5::{run_fig5, Fig5Params, Fig5System};
use verme_bench::report::BenchTimer;
use verme_bench::testbed::par_map;
use verme_bench::CliArgs;
use verme_sim::SimDuration;

fn main() {
    let timer = BenchTimer::start("extA_lookup_failure");
    let args = CliArgs::parse();
    let reps = args.reps.unwrap_or(if args.full { 8 } else { 2 });
    let lifetimes = [
        ("15 min", SimDuration::from_mins(15)),
        ("30 min", SimDuration::from_mins(30)),
        ("1 h", SimDuration::from_hours(1)),
        ("4 h", SimDuration::from_hours(4)),
        ("8 h", SimDuration::from_hours(8)),
    ];
    println!("# Extension A — lookup failure rate (%) vs mean node lifetime");
    println!(
        "# mode: {} | reps: {reps} | seed: {}",
        if args.full { "paper" } else { "quick" },
        args.seed
    );
    println!("{:<10} {:>18} {:>18} {:>12}", "lifetime", "Chord recursive", "Verme", "difference");

    // Independent replications run in parallel; the sums fold in job order.
    let systems = [Fig5System::ChordRecursive, Fig5System::Verme];
    let jobs: Vec<(usize, usize, u64)> = (0..lifetimes.len())
        .flat_map(|li| (0..2).flat_map(move |si| (0..reps).map(move |rep| (li, si, rep))))
        .collect();
    let results = par_map(&jobs, |&(li, si, rep)| {
        let life = lifetimes[li].1;
        let seed = args.seed.wrapping_add(rep * 7919).wrapping_add(li as u64 * 104729);
        let mut params =
            if args.full { Fig5Params::paper(life, seed) } else { Fig5Params::quick(life, seed) };
        if let Some(h) = args.hours {
            params.sim_time = SimDuration::from_hours(h);
        }
        run_fig5(systems[si], &params)
    });
    let mut events: u64 = 0;
    let mut sums = vec![[0.0f64; 2]; lifetimes.len()];
    for (&(li, si, _), r) in jobs.iter().zip(&results) {
        sums[li][si] += r.failure_rate() * 100.0;
        events += r.issued;
    }
    for (name, sums) in lifetimes.iter().map(|l| l.0).zip(sums) {
        let [c, v] = sums.map(|sum| sum / reps.max(1) as f64);
        println!("{:<10} {:>17.2}% {:>17.2}% {:>11.2}%", name, c, v, v - c);
    }
    println!(
        "# expectation (paper/thesis): Chord and Verme failure rates do not differ significantly"
    );
    timer.finish(events);
}
