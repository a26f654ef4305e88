//! Regenerates **Figure 6**: DHT get/put latency for DHash and the three
//! VerDi variants on a GT-ITM transit-stub network.
//!
//! ```text
//! cargo run -p verme-bench --release --bin fig6_dht_latency            # quick
//! cargo run -p verme-bench --release --bin fig6_dht_latency -- --full  # paper scale
//! ```
//!
//! With `--load <profile>` (e.g. `zipf@10`, `bursty@5`) the figure is
//! rerun under a `verme-load` real-traffic workload instead of the
//! scripted closed-loop lookups: open-loop arrivals at the profile's
//! native rate, Zipf key popularity, and the profile's read/write mix.

use verme_bench::extl::{run_point, ExtLParams};
use verme_bench::fig67::run_sweep;
use verme_bench::testbed::{mean_of, DhtSystem};
use verme_bench::CliArgs;
use verme_load::LoadProfile;

/// The `--load` variant of the figure: client-observed op latency for
/// each system under the named workload profile, serving features off
/// (the plain figure measures the protocols, not the cache).
fn run_loaded_figure(args: &CliArgs, profile: LoadProfile) {
    let mut params =
        if args.full { ExtLParams::full(args.seed) } else { ExtLParams::quick(args.seed) };
    params.profile = profile;
    let rate = params.profile.arrival.mean_rate();
    println!(
        "# Figure 6 (loaded) — client-observed DHT op latency under `{}`",
        params.profile.name
    );
    println!(
        "# mode: {} | rate: {rate:.1} ops/s | window: {:.0} s | seed: {}",
        if args.full { "paper" } else { "quick" },
        params.window.as_secs_f64(),
        args.seed
    );
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "system", "mean (ms)", "p50 (ms)", "p99 (ms)", "done", "failed"
    );
    for sys in DhtSystem::ALL {
        let p = run_point(sys, &params, rate, false);
        println!(
            "{:<18} {:>10.1} {:>10.1} {:>10.1} {:>8} {:>8}",
            sys.label(),
            p.mean_ms,
            p.p50_ms,
            p.p99_ms,
            p.completed,
            p.failed
        );
    }
}

fn main() {
    let args = CliArgs::parse();
    if let Some(profile) = args.load.clone() {
        run_loaded_figure(&args, profile);
        return;
    }
    let reps = args.reps.unwrap_or(if args.full { 4 } else { 2 });
    println!("# Figure 6 — DHT operation latency (ms)");
    println!(
        "# mode: {} | reps: {reps} | seed: {}",
        if args.full { "paper scale (1740 nodes)" } else { "quick (256 nodes)" },
        args.seed
    );
    println!("{:<18} {:>12} {:>12}", "system", "get (ms)", "put (ms)");

    let sweep = run_sweep(reps, &args);
    for (sys, rs) in DhtSystem::ALL.iter().zip(&sweep) {
        let get = mean_of(rs, |r| r.get_latency_ms);
        let put = mean_of(rs, |r| r.put_latency_ms);
        println!("{:<18} {:>12.1} {:>12.1}", sys.label(), get, put);
    }
    println!("# expectation (paper): get — Fast ≈ DHash < Compromise (≤ ~31% over DHash) ≪ Secure");
    println!("# expectation (paper): put — DHash < Fast ≈ Compromise < Secure");
}
