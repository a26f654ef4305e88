//! Regenerates **Extension A**: lookup failure rates under churn for
//! Chord vs Verme (the paper reports "failure rates do not differ
//! significantly", citing the companion thesis).
//!
//! ```text
//! cargo run -p verme-bench --release --bin extA_lookup_failure [-- --full]
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
    println!("# Extension A — lookup failure rate (%) vs mean node lifetime");
    println!(
        "# mode: {} | reps: {reps} | seed: {}",
        if args.full { "paper" } else { "quick" },
        args.seed
    );
    println!("{:<10} {:>18} {:>18} {:>12}", "lifetime", "Chord recursive", "Verme", "difference");

    let systems = [Fig5System::ChordRecursive, Fig5System::Verme];
    let sweep = run_sweep(&lifetimes.map(|l| l.1), &systems, reps, &args);
    for ((name, _), by_system) in lifetimes.iter().zip(&sweep) {
        let c = mean_of(&by_system[0], |r| r.failure_rate() * 100.0);
        let v = mean_of(&by_system[1], |r| r.failure_rate() * 100.0);
        println!("{:<10} {:>17.2}% {:>17.2}% {:>11.2}%", name, c, v, v - c);
    }
    println!(
        "# expectation (paper/thesis): Chord and Verme failure rates do not differ significantly"
    );
}
