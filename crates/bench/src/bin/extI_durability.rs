//! **Extension I**: data durability under churn — blocks lost and
//! under-replicated with the replica-repair plane disabled vs enabled at
//! several repair intervals, for DHash over Chord and Fast-VerDi over
//! Verme. The fault script (Poisson churn with rejoins plus a small kill
//! burst, always smaller than the replica set) is injected by
//! `verme_sim::fault::FaultRunner`; the same seed replays the sweep byte
//! for byte. Background data stabilization is pushed beyond the window,
//! so survival is attributable to the repair plane alone: epoch-kicked
//! repair rounds, hinted handoff on graceful leaves, and read-repair.
//!
//! ```text
//! cargo run -p verme-bench --release --bin extI_durability [-- --full]
//! ```

use verme_bench::exti::{run_exti, ExtIParams, RepairArm, CENSUS_TARGET};
use verme_bench::testbed::DhtSystem;
use verme_bench::CliArgs;

fn main() {
    let args = CliArgs::parse();
    let mut params =
        if args.full { ExtIParams::full(args.seed) } else { ExtIParams::quick(args.seed) };
    params.reps = args.reps.unwrap_or(params.reps);

    println!("# Extension I — data durability under churn × repair interval");
    println!(
        "# mode: {} | nodes: {} | blocks/cell: {} | reps: {} | window: {:.0} s | seed: {}",
        if args.full { "paper" } else { "quick" },
        params.nodes,
        params.blocks,
        params.reps,
        params.window.as_secs_f64(),
        params.seed
    );
    println!(
        "# arms: repair off (pre-repair baseline) vs repair on at each interval; \
         under-replicated = fewer than {CENSUS_TARGET} live holders; lost = zero holders"
    );
    let arm_labels: Vec<String> = params.repair_arms.iter().map(|a| a.label()).collect();
    println!("# repair arms: {}", arm_labels.join(", "));
    println!(
        "{:<17} {:>8} | {:>9} {:>9} {:>9} | {:>7} {:>7} {:>8} {:>8} {:>8}",
        "system",
        "churn/s",
        "lost(off)",
        "lost(on)",
        "under(on)",
        "rounds",
        "pushed",
        "readrep",
        "handoff",
        "joins"
    );

    let rows = run_exti(&params);
    let mut dominated = 0usize;
    let mut checked = 0usize;
    for row in &rows {
        let off = row.off().expect("off arm swept");
        let on = row.best_on().expect("on arm swept");
        checked += 1;
        if on.lost < off.lost {
            dominated += 1;
        }
        println!(
            "{:<17} {:>8.2} | {:>8.1}% {:>8.1}% {:>8.1}% | {:>7} {:>7} {:>8} {:>8} {:>8}",
            // This table names each system with its overlay.
            if row.system == DhtSystem::Dhash { "DHash/Chord" } else { "Fast-VerDi/Verme" },
            row.churn_rate,
            off.loss_fraction() * 100.0,
            on.loss_fraction() * 100.0,
            if on.keys == 0 { 0.0 } else { on.under_replicated as f64 / on.keys as f64 * 100.0 },
            on.repair_rounds,
            on.repair_pushed,
            on.read_repairs,
            on.handoff_blocks,
            on.joins
        );
        // Per-arm detail rows, indented under the setting.
        for (arm, cell) in &row.arms {
            if let RepairArm::On(_) = arm {
                println!(
                    "{:<17} {:>8} |           {:>8.1}% {:>8.1}% | {:>7} {:>7} {:>8} {:>8} {:>8}",
                    format!("  repair={}", arm.label()),
                    "",
                    cell.loss_fraction() * 100.0,
                    if cell.keys == 0 {
                        0.0
                    } else {
                        cell.under_replicated as f64 / cell.keys as f64 * 100.0
                    },
                    cell.repair_rounds,
                    cell.repair_pushed,
                    cell.read_repairs,
                    cell.handoff_blocks,
                    cell.joins
                );
            }
        }
    }
    println!("# repair-on loses strictly fewer blocks in {dominated}/{checked} settings");
    println!("# expectation: lost(on) < lost(off) in every row — without repair, each");
    println!("# departure permanently thins a block's holder set until no copy survives;");
    println!("# with repair the plane restores the target count between departures");
}
