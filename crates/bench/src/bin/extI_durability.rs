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
use verme_bench::testbed::{CellOutcome, DhtSystem};
use verme_bench::CliArgs;
use verme_dht::keys;
use verme_sim::fault::keys::JOIN;

fn main() {
    let args = CliArgs::parse();
    let mut params =
        if args.full { ExtIParams::full(args.seed) } else { ExtIParams::quick(args.seed) };
    params.reps = args.reps.unwrap_or(params.reps);

    println!("# Extension I — data durability under churn × repair interval");
    println!(
        "# mode: {} | nodes: {} | blocks/cell: {} | reps: {} | window: {:.0} s | seed: {}",
        if args.full { "paper" } else { "quick" },
        params.cell.nodes,
        params.cell.blocks,
        params.reps,
        params.cell.window.as_secs_f64(),
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
    // One arm's columns: lost, under-replicated, then the plane's counters.
    let arm = |c: &CellOutcome| {
        let census = &c.census;
        let under = match census.keys {
            0 => 0.0,
            keys => census.under_replicated as f64 / keys as f64 * 100.0,
        };
        let [rounds, pushed, readrep, handoff, joins] = [
            keys::REPAIR_ROUNDS,
            keys::REPAIR_PUSHED,
            keys::READ_REPAIR,
            keys::HANDOFF_BLOCKS,
            JOIN,
        ]
        .map(|k| c.count(k));
        format!(
            "{:>8.1}% {:>8.1}% | {rounds:>7} {pushed:>7} {readrep:>8} {handoff:>8} {joins:>8}",
            census.loss_fraction() * 100.0,
            under
        )
    };
    let mut dominated = 0usize;
    let mut checked = 0usize;
    for row in &rows {
        let off = row.off().expect("off arm swept");
        let on = row.best_on().expect("on arm swept");
        checked += 1;
        if on.census.lost < off.census.lost {
            dominated += 1;
        }
        println!(
            "{:<17} {:>8.2} | {:>8.1}% {}",
            // This table names each system with its overlay.
            if row.system == DhtSystem::Dhash { "DHash/Chord" } else { "Fast-VerDi/Verme" },
            row.churn_rate,
            off.census.loss_fraction() * 100.0,
            arm(on)
        );
        // Per-arm detail rows, indented under the setting.
        for (repair, cell) in &row.arms {
            if let RepairArm::On(_) = repair {
                let label = format!("  repair={}", repair.label());
                println!("{label:<17} {:>8} |           {}", "", arm(cell));
            }
        }
    }
    println!("# repair-on loses strictly fewer blocks in {dominated}/{checked} settings");
    println!("# expectation: lost(on) < lost(off) in every row — without repair, each");
    println!("# departure permanently thins a block's holder set until no copy survives;");
    println!("# with repair the plane restores the target count between departures");
}
