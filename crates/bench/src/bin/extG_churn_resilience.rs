//! **Extension G**: end-to-end churn + kill-burst resilience — DHash over
//! Chord vs Fast-VerDi over Verme, with end-to-end retries enabled
//! (`max_retries = 3`) and disabled. The fault script (Poisson churn with
//! rejoins, a consecutive-arc kill burst, a message-loss burst) is injected
//! by `verme_sim::fault::FaultRunner`; the same seed replays the sweep
//! byte for byte.
//!
//! ```text
//! cargo run -p verme-bench --release --bin extG_churn_resilience [-- --full]
//! ```

use verme_bench::extg::{reconverge_ms, run_extg, ExtGParams, EXTG_RETRIES};
use verme_bench::testbed::{CellOutcome, DhtSystem};
use verme_bench::CliArgs;
use verme_dht::keys;
use verme_sim::fault::keys::JOIN;

fn main() {
    let args = CliArgs::parse();
    let mut params =
        if args.full { ExtGParams::full(args.seed) } else { ExtGParams::quick(args.seed) };
    params.reps = args.reps.unwrap_or(params.reps);

    println!("# Extension G — lookup success under churn × correlated kill bursts");
    println!(
        "# mode: {} | nodes: {} | gets/cell: {} | reps: {} | loss burst: {:.0}% | seed: {}",
        if args.full { "paper" } else { "quick" },
        params.cell.nodes,
        params.cell.gets,
        params.reps,
        params.loss_rate * 100.0,
        params.seed
    );
    println!(
        "# retries arm: max_retries = {EXTG_RETRIES} (exponential backoff, hard 30 s deadline); \
         baseline arm: max_retries = 0"
    );
    println!(
        "{:<17} {:>8} {:>6} | {:>10} {:>10} {:>7} {:>9} | {:>8} {:>6} {:>11}",
        "system",
        "churn/s",
        "burst",
        "ok(retry)",
        "ok(none)",
        "delta",
        "recovered",
        "retries",
        "joins",
        "reconv_ms"
    );

    let rows = run_extg(&params);
    let success = |c: &CellOutcome| c.per_get(keys::GET_COMPLETED);
    let mut dominated = 0usize;
    for row in &rows {
        let with = &row.with_retries;
        let without = &row.no_retries;
        if success(with) > success(without) {
            dominated += 1;
        }
        let reconv = match reconverge_ms(&with.reconverge_ms) {
            Some(ms) => format!("{ms:.0}"),
            None => "-".to_string(),
        };
        println!(
            "{:<17} {:>8.2} {:>6} | {:>9.1}% {:>9.1}% {:>6.1}% {:>9} | {:>8} {:>6} {:>11}",
            // This table names each system with its overlay.
            if row.system == DhtSystem::Dhash { "DHash/Chord" } else { "Fast-VerDi/Verme" },
            row.churn_rate,
            row.burst_size,
            success(with) * 100.0,
            success(without) * 100.0,
            (success(with) - success(without)) * 100.0,
            with.count(keys::OP_RECOVERED),
            with.count(keys::OP_RETRIES),
            with.count(JOIN),
            reconv
        );
    }
    println!("# retries strictly dominate no-retry in {dominated}/{} settings", rows.len());
    println!("# expectation: delta > 0 in every row — end-to-end retries recover attempts");
    println!("# broken by churn departures, the kill burst, and the loss window");
}
