//! **Extension F — the §6.1 Sybil threat**: how containment degrades with
//! the number of certificates an attacker can obtain.
//!
//! Sweeps the attacker's identity count on the Figure-8 population: each
//! identity is an opposite-type node whose routing state unlocks its own
//! O(log n) vulnerable sections. The curve quantifies the paper's argument
//! that certificate issuance must be rate-limited (puzzles, large
//! downloads, or remote attestation).
//!
//! ```text
//! cargo run -p verme-bench --release --bin extF_sybil [-- --full]
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
            nodes: 20_000,
            sections: 1024,
            duration: SimDuration::from_secs(5_000),
            seed: args.seed,
            ..ScenarioConfig::default()
        }
    };
    println!("# Extension F — §6.1: containment vs Sybil identity count");
    println!(
        "# {} nodes, {} sections ({} vulnerable sections) | seed: {}",
        cfg.nodes,
        cfg.sections,
        cfg.sections / 2,
        args.seed
    );
    println!(
        "{:<12} {:>10} {:>14} {:>22}",
        "identities", "infected", "% vulnerable", "sections reached (est)"
    );
    let island = (cfg.nodes as u128 / cfg.sections).max(1) as f64 / 2.0; // type-A per section ≈ island
    for identities in [1usize, 2, 5, 10, 20, 50] {
        let r = run_scenario(&Scenario::SybilImpersonation { identities }, &cfg);
        println!(
            "{:<12} {:>10} {:>13.1}% {:>22.0}",
            identities,
            r.infected,
            100.0 * r.infected as f64 / r.vulnerable as f64,
            r.infected as f64 / (2.0 * island)
        );
    }
    println!("# each identity unlocks ~O(log n) vulnerable sections; containment degrades");
    println!("# roughly linearly in the attacker's certificate budget — hence §6.1's");
    println!("# puzzles / large-download / attestation rate limits on issuance.");
}
