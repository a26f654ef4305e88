//! Regenerates **Extension B**: overlay maintenance bandwidth for Chord
//! vs Verme (the paper reports "the bandwidth used for overlay
//! maintenance and lookups does not differ significantly").
//!
//! ```text
//! cargo run -p verme-bench --release --bin extB_maintenance_bw [-- --full]
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
        ("1 h", SimDuration::from_hours(1)),
        ("8 h", SimDuration::from_hours(8)),
    ];
    println!("# Extension B — maintenance traffic (bytes/node/s) vs mean node lifetime");
    println!(
        "# mode: {} | reps: {reps} | seed: {}",
        if args.full { "paper" } else { "quick" },
        args.seed
    );
    println!("{:<10} {:>18} {:>18} {:>10}", "lifetime", "Chord recursive", "Verme", "ratio");

    let systems = [Fig5System::ChordRecursive, Fig5System::Verme];
    let sweep = run_sweep(&lifetimes.map(|l| l.1), &systems, reps, &args);
    for ((name, _), by_system) in lifetimes.iter().zip(&sweep) {
        let c = mean_of(&by_system[0], |r| r.maint_bytes_per_node_s);
        let v = mean_of(&by_system[1], |r| r.maint_bytes_per_node_s);
        println!("{:<10} {:>18.1} {:>18.1} {:>10.2}", name, c, v, v / c.max(1e-9));
    }
    println!(
        "# expectation (paper/thesis): maintenance bandwidth comparable between Chord and Verme"
    );
    println!("# (Verme pays extra for predecessor-list upkeep; same order of magnitude)");
}
