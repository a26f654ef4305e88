//! **Extension O**: chaos search — generative fault schedules against the
//! ring and durability planes, with automatic shrinking to minimal
//! replayable repros.
//!
//! Four arms share one seeded schedule generator: legacy ring maintenance
//! and repair-off durability are the positive controls (the explorer must
//! rediscover their known failure modes from random schedules alone);
//! the corrected protocol and the repair plane must survive the identical
//! envelopes with zero findings. Every failing trial is delta-debugged to
//! a minimal schedule and written out as `CHAOS_repro_<hash>.json` under
//! `$VERME_BENCH_DIR` (the current directory when unset), ready to replay
//! with `verme_chaos::Repro`.
//!
//! ```text
//! cargo run -p verme-bench --release --bin extO_chaos [-- --full]
//! ```

use verme_bench::exto::{run_exto, ExtOParams};
use verme_bench::testbed::artifact_dir;
use verme_bench::CliArgs;

fn main() {
    let args = CliArgs::parse();
    let params = if args.full { ExtOParams::full(args.seed) } else { ExtOParams::quick(args.seed) };

    println!("# Extension O — chaos search: generated schedules, oracles, shrinking");
    println!(
        "# mode: {} | ring trials: {} | durability trials: {} | nodes: {} | seed: {}",
        if args.full { "paper" } else { "quick" },
        params.ring_trials,
        params.durability_trials,
        params.nodes,
        params.seed
    );
    println!("# positive controls: ring/legacy and durability/repair-off must fail;");
    println!("# ring/corrected and durability/repair-on must survive the same envelopes");
    println!(
        "{:<22} {:>7} {:>7} {:>9} | {:>7} {:>11} {:>9}",
        "arm", "trials", "viol", "viol/1k", "shrinks", "shrunk len", "expected"
    );

    let rows = run_exto(&params);
    let mut ok = true;
    let dir = artifact_dir();
    let mut repro_files = Vec::new();
    for row in &rows {
        let as_expected =
            if row.expect_failures { row.violations > 0 } else { row.violations == 0 };
        ok &= as_expected;
        let shrunk = match (row.shrunk_min, row.shrunk_max) {
            (Some(a), Some(b)) if a == b => format!("{a}"),
            (Some(a), Some(b)) => format!("{a}-{b}"),
            _ => "-".into(),
        };
        println!(
            "{:<22} {:>7} {:>7} {:>9.1} | {:>7} {:>11} {:>9}",
            row.label,
            row.trials,
            row.violations,
            row.per_1k(),
            row.shrink_steps,
            shrunk,
            if as_expected { "yes" } else { "NO" }
        );
        // Wall-clock throughput is chatter, not result: stderr, so
        // same-seed stdout stays byte-identical.
        eprintln!(
            "# wall: {:<22} {:>6.2}s  {:>5.0} schedules/s",
            row.label,
            row.wall_s,
            row.schedules_per_sec()
        );
        // Persist each arm's smallest repro (they are all replayable, but
        // one witness per arm keeps the artifact set readable).
        if let Some(repro) = row.repros().first() {
            let path = dir.join(repro.file_name());
            match std::fs::write(&path, repro.to_json() + "\n") {
                Ok(()) => repro_files.push(path),
                Err(e) => eprintln!("# could not write {}: {e}", path.display()),
            }
        }
    }
    for f in &repro_files {
        println!("# repro: {}", f.display());
    }
    println!("# expectation: both positive controls rediscover their bugs; both hardened");
    println!("# arms stay clean — a finding on ring/corrected is a real safety regression");
    if !ok {
        std::process::exit(1);
    }
}
