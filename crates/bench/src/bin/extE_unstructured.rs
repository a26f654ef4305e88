//! **Extension E — the §6.2 generalization**: worm containment in an
//! unstructured, tracker-based swarm (BitTorrent-style).
//!
//! Compares the classic type-blind random tracker against a tracker that
//! assigns neighbors in the paper's Figure-1 island structure, with the
//! structured overlays as reference points.
//!
//! ```text
//! cargo run -p verme-bench --release --bin extE_unstructured [-- --full]
//! ```

use verme_bench::CliArgs;
use verme_sim::SimDuration;
use verme_worm::{run_scenario, Scenario, ScenarioConfig};

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
        }
    };
    println!("# Extension E — §6.2: containment in unstructured (tracker-based) swarms");
    println!(
        "# {} nodes, islands of ~{} | seed: {}",
        cfg.nodes,
        cfg.nodes as u128 / cfg.sections,
        args.seed
    );
    println!("{:<30} {:>10} {:>12} {:>12}", "overlay", "infected", "vulnerable", "t50 (s)");
    for sc in [
        Scenario::ChordWorm,
        Scenario::SwarmRandomTracker,
        Scenario::SwarmTypeAwareTracker,
        Scenario::VermeWorm,
    ] {
        let r = run_scenario(&sc, &cfg);
        let t50 = r
            .time_to_vulnerable_fraction(0.5)
            .map(|t| format!("{:.0}", t.as_secs_f64()))
            .unwrap_or_else(|| "never".into());
        println!("{:<30} {:>10} {:>12} {:>12}", sc.label(), r.infected, r.vulnerable, t50);
    }
    println!("# expectation (§6.2): a type-aware tracker gives an unstructured swarm the same");
    println!("# island containment Verme gives a DHT; a type-blind tracker gives none.");
}
