//! **Extension D — related-work comparison**: Verme's structural
//! containment vs the guardian-node defense (Zhou et al.) the paper
//! positions itself against (§2: "This differs from our vision of a true
//! p2p system where all nodes have common responsibilities").
//!
//! Sweeps the guardian coverage fraction on plain Chord and prints where
//! each configuration lands relative to undefended Chord and to Verme.
//!
//! ```text
//! cargo run -p verme-bench --release --bin extD_guardians [-- --full]
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
    println!("# Extension D — guardian nodes (Zhou et al.) vs structural containment");
    println!("# {} nodes, alert flood at 1 s/hop | seed: {}", cfg.nodes, args.seed);
    println!("{:<34} {:>10} {:>12} {:>12}", "defense", "infected", "vulnerable", "t50 (s)");

    let mut rows: Vec<Scenario> = vec![Scenario::ChordWorm];
    for fraction in [0.001, 0.01, 0.05, 0.10] {
        rows.push(Scenario::ChordWithGuardians {
            guardian_fraction: fraction,
            alert_hop_delay_s: 1.0,
        });
    }
    rows.push(Scenario::VermeWorm);

    for sc in rows {
        let r = run_scenario(&sc, &cfg);
        let label = match &sc {
            Scenario::ChordWithGuardians { guardian_fraction, .. } => {
                format!("{} ({:.1}%)", sc.label(), guardian_fraction * 100.0)
            }
            _ => sc.label().to_string(),
        };
        let t50 = r
            .time_to_vulnerable_fraction(0.5)
            .map(|t| format!("{:.0}", t.as_secs_f64()))
            .unwrap_or_else(|| "never".into());
        println!("{label:<34} {:>10} {:>12} {:>12}", r.infected, r.vulnerable, t50);
    }
    println!("# observation: guardians trade coverage for containment and require special");
    println!("# detector nodes; Verme contains a worm structurally, with every node equal.");
}
