//! The companion thesis' k-type generalization: Verme with more than two
//! platform types (the paper's §4.1 defers this to [11]; we implement and
//! test it for k = 4).

use verme::chord::Id;
use verme::core::{audit_static_ring, SectionLayout, VermeStaticRing};
use verme::crypto::NodeType;
use verme::sim::{SeedSource, SimDuration, SimTime};
use verme::worm::{WormParams, WormSim};

fn layout4() -> SectionLayout {
    SectionLayout::with_sections(64, 4)
}

#[test]
fn four_type_sections_cycle_and_never_repeat_adjacently() {
    let l = layout4();
    assert_eq!(l.type_count(), 4);
    for s in 0..l.num_sections() {
        let here = l.type_of(l.section_start(s));
        let next = l.type_of(l.section_start((s + 1) % l.num_sections()));
        assert_ne!(here, next, "adjacent sections {s} share a type");
    }
}

#[test]
fn four_type_long_fingers_avoid_own_type() {
    let l = layout4();
    let mut rng = SeedSource::new(3).stream("ids");
    for tyi in 0..4u8 {
        let ty = NodeType::new(tyi);
        for _ in 0..40 {
            let id = l.assign_id(&mut rng, ty);
            for i in (l.section_bits() + 1)..Id::BITS {
                let target = l.finger_target(id, i);
                assert_ne!(
                    l.type_of(target),
                    ty,
                    "type-{ty} node's finger {i} targets its own type"
                );
            }
        }
    }
}

#[test]
fn four_type_ring_contains_a_single_type_worm_to_one_section() {
    // 512 nodes over 64 four-typed sections; only type-C machines are
    // vulnerable (one platform of four, 25% of the population).
    let l = layout4();
    let n = 512;
    let ring = VermeStaticRing::generate(l, n, 9);
    assert!(audit_static_ring(&ring, 0).is_clean());

    let vulnerable: Vec<bool> = (0..n).map(|i| ring.type_of_index(i) == NodeType::new(2)).collect();
    let vuln_count = vulnerable.iter().filter(|&&v| v).count();
    assert!((vuln_count as f64 - n as f64 / 4.0).abs() < 8.0, "≈25% vulnerable");

    let mut targets: Vec<Vec<u32>> = Vec::with_capacity(n);
    for i in 0..n {
        let mut list: Vec<u32> = Vec::new();
        for d in 1..=10.min(n - 1) {
            list.push(((i + d) % n) as u32);
            let j = ((i + n - d) % n) as u32;
            if !list.contains(&j) {
                list.push(j);
            }
        }
        for j in ring.distinct_finger_indices(i) {
            if !list.contains(&(j as u32)) {
                list.push(j as u32);
            }
        }
        targets.push(list);
    }
    let mut sim = WormSim::new(targets, vulnerable, WormParams::default(), 9);
    let mut rng = SeedSource::new(9).stream("seed");
    let seed = ring.random_index_of_type(NodeType::new(2), &mut rng) as u32;
    let seed_section = ring.section_of_index(seed as usize);
    sim.seed_infection(seed);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(5_000));

    // Everything infected sits in the seed's section.
    for i in 0..n as u32 {
        if sim.state(i).is_infected() {
            assert_eq!(
                ring.section_of_index(i as usize),
                seed_section,
                "worm escaped section {seed_section} to node {i}"
            );
        }
    }
    assert!(sim.infected() >= 2, "worm should spread within the section");
    assert!(sim.infected() < vuln_count / 4, "containment failed");
}

#[test]
fn four_type_worm_view_invariant() {
    let ring = VermeStaticRing::generate(layout4(), 512, 11);
    for i in 0..ring.len() {
        let ty = ring.type_of_index(i);
        let sec = ring.section_of_index(i);
        for j in ring.distinct_finger_indices(i) {
            assert!(
                ring.type_of_index(j) != ty || ring.section_of_index(j) == sec,
                "node {i} has a same-type finger outside its section"
            );
        }
    }
}
