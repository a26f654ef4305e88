//! Extension experiments A–C: results the paper reports only in summary
//! form (§7.1.2's "additional experiments" and §7.1.1's uneven-type
//! remark), reproduced with full harnesses here.
//!
//! * **Ext. A** — lookup failure rates under churn do not differ
//!   significantly between Chord and Verme.
//! * **Ext. B** — maintenance bandwidth does not differ significantly.
//! * **Ext. C** — an uneven type distribution causes a slight load
//!   imbalance.
//!
//! A and B fall out of the Figure 5 harness ([`crate::fig5`]); C is a
//! static responsibility analysis over uneven rings.

use verme_chord::Id;
use verme_core::{SectionLayout, VermeStaticRing};
use verme_sim::SeedSource;

/// Per-type load statistics for the uneven-split experiment (Ext. C).
#[derive(Copy, Clone, Debug, Default)]
pub struct TypeLoad {
    /// Fraction of nodes with this type.
    pub node_fraction: f64,
    /// Fraction of sampled keys this type's nodes are responsible for.
    pub key_fraction: f64,
    /// Mean keys-per-node, normalized so 1.0 is a perfectly fair share.
    pub relative_load: f64,
    /// Max keys on any single node of the type, relative to the fair
    /// share (hot-spot factor).
    pub max_relative_load: f64,
}

/// Result of the Ext. C analysis for one type split.
#[derive(Copy, Clone, Debug, Default)]
pub struct ImbalanceResult {
    /// Fraction of type-A nodes configured.
    pub frac_a: f64,
    /// Load on type-A nodes.
    pub type_a: TypeLoad,
    /// Load on type-B nodes.
    pub type_b: TypeLoad,
}

/// Measures responsibility load per type under Verme's §4.4 corner rule
/// by sampling `samples` uniform keys against a static ring.
///
/// With an uneven split, the minority type owns the same number of
/// sections but fills them with fewer nodes, so each minority node is
/// responsible for more keys — the "slight load imbalance" of §7.1.1.
///
/// # Panics
///
/// Panics if inputs are structurally invalid (see
/// [`VermeStaticRing::generate_with_split`]).
pub fn measure_imbalance(
    sections: u128,
    nodes: usize,
    frac_a: f64,
    samples: usize,
    seed: u64,
) -> ImbalanceResult {
    let layout = SectionLayout::with_sections(sections, 2);
    let ring = VermeStaticRing::generate_with_split(layout, nodes, frac_a, seed);
    let mut rng = SeedSource::new(seed).stream("imbalance-keys");
    let mut per_node = vec![0u64; nodes];
    let mut unowned = 0u64;
    for _ in 0..samples {
        let key = Id::random(&mut rng);
        match ring.corner_responsible_index(key) {
            Some(i) => per_node[i] += 1,
            None => unowned += 1,
        }
    }
    let owned = (samples as u64 - unowned) as f64;
    let fair = owned / nodes as f64;

    let mut result = ImbalanceResult { frac_a, ..Default::default() };
    for (ty, out) in [
        (verme_crypto::NodeType::A, &mut result.type_a),
        (verme_crypto::NodeType::B, &mut result.type_b),
    ] {
        let members: Vec<usize> = (0..nodes).filter(|&i| ring.type_of_index(i) == ty).collect();
        let keys: u64 = members.iter().map(|&i| per_node[i]).sum();
        let max = members.iter().map(|&i| per_node[i]).max().unwrap_or(0);
        *out = TypeLoad {
            node_fraction: members.len() as f64 / nodes as f64,
            key_fraction: keys as f64 / owned,
            relative_load: (keys as f64 / members.len() as f64) / fair,
            max_relative_load: max as f64 / fair,
        };
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_is_balanced() {
        let r = measure_imbalance(16, 512, 0.5, 50_000, 1);
        assert!((r.type_a.relative_load - 1.0).abs() < 0.15, "{:?}", r.type_a);
        assert!((r.type_b.relative_load - 1.0).abs() < 0.15, "{:?}", r.type_b);
        assert!((r.type_a.key_fraction - 0.5).abs() < 0.1);
    }

    #[test]
    fn minority_type_carries_more_load_per_node() {
        let r = measure_imbalance(16, 512, 0.3, 50_000, 2);
        // Type A is 30% of nodes but owns ~half the key space (its
        // sections cover half the ring), so each A node carries more.
        assert!(
            r.type_a.relative_load > r.type_b.relative_load,
            "minority should be busier: {:?} vs {:?}",
            r.type_a,
            r.type_b
        );
        assert!(r.type_a.relative_load > 1.2);
        assert!((r.type_a.key_fraction - 0.5).abs() < 0.12, "sections still split the ring evenly");
    }
}
