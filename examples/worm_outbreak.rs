//! Worm outbreak, side by side: the same worm released on Chord and on
//! Verme (plus the Fast-VerDi impersonation attack), printing each
//! outbreak's timeline.
//!
//! ```text
//! cargo run --release --example worm_outbreak
//! ```

use verme::sim::SimDuration;
use verme::worm::{run_scenario, Scenario, ScenarioConfig};

fn main() {
    let cfg = ScenarioConfig {
        nodes: 20_000,
        sections: 1024,
        duration: SimDuration::from_secs(2_000),
        seed: 3,
    };
    println!(
        "population: {} nodes, {} sections, 50% vulnerable (one platform type)\n",
        cfg.nodes, cfg.sections
    );

    let scenarios = [
        Scenario::ChordWorm,
        Scenario::VermeWorm,
        Scenario::SecureVerDiImpersonation,
        Scenario::FastVerDiImpersonation { lookups_per_sec: 10.0 },
    ];
    for sc in &scenarios {
        let r = run_scenario(sc, &cfg);
        println!("== {} ==", sc.label());
        println!("   infected {} of {} vulnerable machines", r.infected, r.vulnerable);
        for milestone in [10, 100, 1000, 10_000] {
            match r.curve.time_to_reach(milestone as f64) {
                Some(t) => println!("   {milestone:>6} infected after {:>8.1} s", t.as_secs_f64()),
                None => {
                    println!("   {milestone:>6} infected: never (contained)");
                    break;
                }
            }
        }
        match r.time_to_vulnerable_fraction(0.5) {
            Some(t) => {
                println!("   half the vulnerable population down in {:.0} s", t.as_secs_f64())
            }
            None => println!("   the worm never reached half the vulnerable population"),
        }
        println!();
    }
    println!("takeaway: the same worm that owns a Chord overlay in seconds is stuck in one");
    println!("island on Verme; even with an impersonating identity, Fast-VerDi only leaks");
    println!("addresses at lookup speed, and Secure-VerDi caps the damage at O(log n) islands.");
}
