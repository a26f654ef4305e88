//! **Extension M**: ring-maintenance safety — legacy Chord stabilization
//! vs the Zave-corrected protocol (two-phase join, rectify, forward-only
//! successor reseed), for plain Chord and the Verme section variant.
//!
//! Each cell runs finger-starved under Poisson churn plus two staggered
//! consecutive-arc kill bursts, each arc spanning a whole successor list —
//! the regime where legacy maintenance refills an emptied successor list
//! *backwards* off the next notify and partitions the ring, while the
//! corrected protocol wedges the survivors safely. The continuous
//! invariant assertor evaluates the global ring invariant after every
//! state-changing event.
//!
//! ```text
//! cargo run -p verme-bench --release --bin extM_ring_safety [-- --full]
//! ```

use verme_bench::extm::{run_extm, ExtMParams};
use verme_bench::CliArgs;

fn main() {
    let args = CliArgs::parse();
    let mut params =
        if args.full { ExtMParams::full(args.seed) } else { ExtMParams::quick(args.seed) };
    params.reps = args.reps.unwrap_or(params.reps);

    println!("# Extension M — ring-invariant safety under churn × double arc kill bursts");
    println!(
        "# mode: {} | nodes: {} | succ list: {} | burst arc: {} | reps: {} | seed: {}",
        if args.full { "paper" } else { "quick" },
        params.nodes,
        params.num_successors,
        params.burst,
        params.reps,
        params.seed
    );
    println!("# finger-starved cells: emptied successor lists have no forward reseed;");
    println!("# legacy refills backwards (partition risk), corrected wedges safely");
    println!(
        "{:<7} {:>8} | {:>9} {:>9} {:>7} {:>7} | {:>9} {:>9} {:>7} {:>7} | {:>7}",
        "variant",
        "churn/s",
        "viol(L)",
        "part(L)",
        "wedg(L)",
        "app(L)",
        "viol(C)",
        "part(C)",
        "wedg(C)",
        "app(C)",
        "joins"
    );

    let rows = run_extm(&params);
    let mut dominated = 0usize;
    let mut corrected_clean = true;
    for row in &rows {
        let l = &row.legacy;
        let c = &row.corrected;
        if c.violations == 0 && (l.violations > c.violations || l.violations == 0) {
            dominated += 1;
        }
        corrected_clean &= c.violations == 0 && c.end_violations == 0;
        println!(
            "{:<7} {:>8.2} | {:>9} {:>9} {:>7.0} {:>7.0} | {:>9} {:>9} {:>7.0} {:>7.0} | {:>7}",
            row.variant.label(),
            row.churn_rate,
            l.violations,
            if l.end_partitioned { "yes" } else { "no" },
            l.max_wedged,
            l.max_appendages,
            c.violations,
            if c.end_partitioned { "yes" } else { "no" },
            c.max_wedged,
            c.max_appendages,
            c.joins
        );
    }
    println!(
        "# corrected dominates (zero violations, legacy ≥ corrected) in {dominated}/{} settings",
        rows.len()
    );
    println!(
        "# corrected arm invariant-clean across every cell: {}",
        if corrected_clean { "yes" } else { "NO — safety regression" }
    );
    println!("# expectation: viol(C) = 0 everywhere; legacy partitions under the starved bursts");
    if !corrected_clean {
        std::process::exit(1);
    }
}
