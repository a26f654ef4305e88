//! Regenerates **Extension C**: the load imbalance caused by an uneven
//! distribution of node types (the §7.1.1 remark: "such deployments cause
//! a slight load imbalance, which would only become relevant for systems
//! with a very high load").
//!
//! ```text
//! cargo run -p verme-bench --release --bin extC_type_imbalance [-- --full]
//! ```

use verme_bench::ext::measure_imbalance;
use verme_bench::CliArgs;

fn main() {
    let args = CliArgs::parse();
    let (nodes, sections, samples) =
        if args.full { (1740, 128, 2_000_000) } else { (512, 16, 200_000) };
    println!("# Extension C — per-node responsibility load under uneven type splits");
    println!("# {nodes} nodes, {sections} sections, {samples} sampled keys | seed: {}", args.seed);
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>14} {:>16}",
        "split", "A rel. load", "B rel. load", "A key share", "B key share", "A hot-spot (max)"
    );
    for frac_a in [0.5, 0.4, 0.3, 0.2] {
        let r = measure_imbalance(sections, nodes, frac_a, samples, args.seed);
        println!(
            "{:<8} {:>14.2} {:>14.2} {:>14.2} {:>14.2} {:>16.1}",
            format!("{:.0}/{:.0}", frac_a * 100.0, (1.0 - frac_a) * 100.0),
            r.type_a.relative_load,
            r.type_b.relative_load,
            r.type_a.key_fraction,
            r.type_b.key_fraction,
            r.type_a.max_relative_load,
        );
    }
    println!("# relative load 1.0 = a perfectly fair per-node share of the key space");
    println!("# expectation (paper): minority-type nodes carry proportionally more keys —");
    println!("# a slight imbalance, relevant only under very high load");
}
