//! Regenerates **Figure 7**: bytes consumed per DHT get/put operation for
//! DHash and the three VerDi variants (background replication excluded,
//! matching the paper's accounting).
//!
//! ```text
//! cargo run -p verme-bench --release --bin fig7_dht_bandwidth            # quick
//! cargo run -p verme-bench --release --bin fig7_dht_bandwidth -- --full  # paper scale
//! ```
//!
//! With `--load <profile>` (e.g. `zipf@10`, `diurnal@5`) the figure is
//! rerun under a `verme-load` real-traffic workload: foreground lookup
//! and data bytes per completed client operation, open-loop arrivals at
//! the profile's native rate.

use verme_bench::extl::{run_point, ExtLParams};
use verme_bench::fig67::run_sweep;
use verme_bench::testbed::{mean_of, DhtSystem};
use verme_bench::CliArgs;
use verme_load::LoadProfile;

/// The `--load` variant of the figure: foreground bytes per completed
/// client op for each system under the named workload profile, serving
/// features off (the plain figure measures the protocols, not the cache).
fn run_loaded_figure(args: &CliArgs, profile: LoadProfile) {
    let mut params =
        if args.full { ExtLParams::full(args.seed) } else { ExtLParams::quick(args.seed) };
    params.profile = profile;
    let rate = params.profile.arrival.mean_rate();
    println!("# Figure 7 (loaded) — foreground bytes per DHT op under `{}`", params.profile.name);
    println!(
        "# mode: {} | rate: {rate:.1} ops/s | window: {:.0} s | seed: {}",
        if args.full { "paper" } else { "quick" },
        params.window.as_secs_f64(),
        args.seed
    );
    println!("{:<18} {:>12} {:>8} {:>8}", "system", "KiB per op", "done", "failed");
    for sys in DhtSystem::ALL {
        let p = run_point(sys, &params, rate, false);
        let per_op = p.fg_bytes as f64 / p.completed.max(1) as f64 / 1024.0;
        println!("{:<18} {:>12.1} {:>8} {:>8}", sys.label(), per_op, p.completed, p.failed);
    }
}

fn main() {
    let args = CliArgs::parse();
    if let Some(profile) = args.load.clone() {
        run_loaded_figure(&args, profile);
        return;
    }
    let reps = args.reps.unwrap_or(if args.full { 4 } else { 2 });
    println!("# Figure 7 — bandwidth per DHT operation (KiB)");
    println!(
        "# mode: {} | reps: {reps} | seed: {}",
        if args.full { "paper scale (1740 nodes)" } else { "quick (256 nodes)" },
        args.seed
    );
    println!("{:<18} {:>12} {:>12}", "system", "get (KiB)", "put (KiB)");

    let sweep = run_sweep(reps, &args);
    for (sys, rs) in DhtSystem::ALL.iter().zip(&sweep) {
        let get = mean_of(rs, |r| r.get_bytes_per_op);
        let put = mean_of(rs, |r| r.put_bytes_per_op);
        println!("{:<18} {:>12.1} {:>12.1}", sys.label(), get / 1024.0, put / 1024.0);
    }
    println!("# expectation (paper): get — DHash ≈ Fast < Compromise (≈2×) ≪ Secure");
    println!("# expectation (paper): put — like get, plus the extra cross-section copy for Fast/Compromise");
}
