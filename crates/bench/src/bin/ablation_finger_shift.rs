//! **Ablation study**: is the §4.4 finger redefinition actually what
//! contains the worm, or would the sectioned id layout alone suffice?
//!
//! Runs the plain-Verme worm next to a variant whose fingers are resolved
//! the ordinary Chord way (`successor(id + 2^i)`, no section shift, no
//! corner rule) over the *same* typed ring.
//!
//! ```text
//! cargo run -p verme-bench --release --bin ablation_finger_shift [-- --full]
//! ```

use verme_bench::CliArgs;
use verme_sim::SimDuration;
use verme_worm::{analyze, run_scenario, Scenario, ScenarioConfig};

fn main() {
    let args = CliArgs::parse();
    let cfg = if args.full {
        ScenarioConfig { seed: args.seed, ..ScenarioConfig::default() }
    } else {
        ScenarioConfig {
            nodes: 10_000,
            sections: 512,
            duration: SimDuration::from_secs(5_000),
            seed: args.seed,
            ..ScenarioConfig::default()
        }
    };
    println!("# Ablation — Verme with vs without the §4.4 finger shift");
    println!("# {} nodes, {} sections | seed: {}", cfg.nodes, cfg.sections, args.seed);
    println!(
        "{:<28} {:>10} {:>12} {:>14} {:>16}",
        "variant", "infected", "vulnerable", "t50 (s)", "growth (1/s)"
    );
    for sc in [Scenario::VermeWorm, Scenario::VermeUnshiftedFingersAblation] {
        let r = run_scenario(&sc, &cfg);
        let stats = analyze(&r.curve);
        let t50 = r
            .time_to_vulnerable_fraction(0.5)
            .map(|t| format!("{:.0}", t.as_secs_f64()))
            .unwrap_or_else(|| "never".into());
        println!(
            "{:<28} {:>10} {:>12} {:>14} {:>16.4}",
            sc.label(),
            r.infected,
            r.vulnerable,
            t50,
            stats.growth_rate_per_s
        );
    }
    println!("# expectation: without the shift, long fingers land in same-type sections and");
    println!("# the worm saturates like on Chord; with it, the worm never leaves its island.");
}
