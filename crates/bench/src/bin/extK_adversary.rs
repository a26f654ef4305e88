//! **Extension K**: lookup degradation under a Byzantine routing
//! adversary — failed and hijacked lookup fractions vs the adversary
//! fraction (0–30% of the overlay) for all four variants. Adversaries
//! are flipped mid-run by a scripted `Fault::Byzantine` entry and placed
//! eclipse-style around one victim section (one victim key on Chord);
//! each corrupted node drops, misroutes or hijacks relayed lookups and
//! poisons its stabilization advertisements from a private RNG stream,
//! so the 0% column is byte-identical to a run without the adversary
//! plane. Every variant runs with per-hop suspicion rerouting on;
//! Secure-VerDi additionally fans each attempt over disjoint first hops.
//!
//! ```text
//! cargo run -p verme-bench --release --bin extK_adversary [-- --full]
//! ```

use verme_bench::extk::{run_extk, ExtKParams, ExtKSystem};
use verme_bench::CliArgs;

fn main() {
    let args = CliArgs::parse();
    let mut params =
        if args.full { ExtKParams::full(args.seed) } else { ExtKParams::quick(args.seed) };
    if let Some(reps) = args.reps {
        params.reps = reps;
    }

    println!("# Extension K — lookup degradation vs Byzantine adversary fraction");
    println!(
        "# mode: {} | nodes: {} | gets/cell: {} | attack: {} | fanout(secure): {} | reps: {} | seed: {}",
        if args.full { "paper" } else { "quick" },
        params.nodes,
        params.gets,
        params.attack,
        params.fanout,
        params.reps,
        params.seed
    );
    println!(
        "# failed = gets never completed; hijacked = forged-answer detections per get; \
         poisoned = advertisement entries rejected; reroutes = suspicion blacklistings"
    );
    println!(
        "{:<17} {:>6} | {:>7} {:>9} {:>9} | {:>8} {:>8} {:>8}",
        "variant", "adv%", "issued", "failed%", "hijack/op", "poisoned", "reroutes", "advs"
    );

    let rows = run_extk(&params);
    for row in &rows {
        for (fraction, cell) in &row.cells {
            println!(
                "{:<17} {:>5.0}% | {:>7} {:>8.1}% {:>9.2} | {:>8} {:>8} {:>8}",
                row.system.label(),
                fraction * 100.0,
                cell.issued,
                cell.failed_fraction() * 100.0,
                cell.hijacked_per_get(),
                cell.poisoned,
                cell.suspect_reroutes,
                cell.adversaries
            );
        }
    }

    // Summary: does Secure-VerDi's redundant-path fan-out dominate
    // Fast-VerDi once the adversary holds a real share of the ring?
    let fast = rows.iter().find(|r| r.system == ExtKSystem::FastVerDi).expect("fast swept");
    let secure = rows.iter().find(|r| r.system == ExtKSystem::SecureVerDi).expect("secure swept");
    let mut dominated = 0usize;
    let mut checked = 0usize;
    for (fraction, fc) in &fast.cells {
        if *fraction < 0.10 - 1e-9 {
            continue;
        }
        let sc = secure.at(*fraction).expect("same fractions swept");
        checked += 1;
        if sc.failed_fraction() < fc.failed_fraction() {
            dominated += 1;
        }
    }
    println!(
        "# secure-verdi fails strictly less than fast-verdi in {dominated}/{checked} \
         settings at >=10% adversaries"
    );
    println!("# expectation: failed%/hijack rise with the adversary fraction for every");
    println!("# variant, and secure-verdi's disjoint-path fan-out dominates fast-verdi");
    println!("# once the adversary holds >=10% of the ring");
}
