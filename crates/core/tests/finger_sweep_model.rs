//! The finger sweep against a search per bit.
//!
//! Both static rings resolve fingers through `FingerSweep`, which carries
//! one forward cursor per finger bit from member to member instead of
//! searching the ring afresh. Its answers rest on one argument: the
//! successor of `id + reach` never moves back, neither from one member to
//! the next nor from one bit to the next. This file checks the argument
//! where it is easiest to get wrong — tiny rings, wrap-around, sparse and
//! crowded Verme sections, members sitting exactly on finger targets —
//! against the rule the rings used before the sweep: one
//! `successor_index` per bit, then (on Verme) the §4.4 corner rule.
//!
//! For every member, three answers must equal that reference: the lists
//! of one sweep over the whole ring (`distinct_finger_lists`, what the
//! worm populations use), a fresh sweep for the member alone
//! (`distinct_finger_indices`), and the full table (`fingers_of`). The
//! plain ring over a Verme membership (the unshifted ablation) is checked
//! the same way. Below the rings, the sweep itself answers every bit of
//! every member, in order, as the search does, and an answer that repeats
//! the member's previous one costs at most one probe: the query starts
//! there rather than searching again.

use proptest::prelude::*;

use verme_chord::static_ring::FingerSweep;
use verme_chord::{Id, NodeHandle, StaticRing};
use verme_core::{SectionLayout, VermeStaticRing};
use verme_sim::Addr;

/// Finger table by the search-per-bit rule: for each bit, `target(b)`'s
/// member under `resolve`, owners themselves left out.
fn reference(
    i: usize,
    target: impl Fn(u32) -> Id,
    resolve: impl Fn(Id) -> Option<usize>,
) -> Vec<(usize, usize)> {
    (0..Id::BITS)
        .filter_map(|b| resolve(target(b)).filter(|&j| j != i).map(|j| (b as usize, j)))
        .collect()
}

/// First occurrences of the table's members, in bit order.
fn distinct(table: &[(usize, usize)]) -> Vec<usize> {
    let mut out = Vec::new();
    for &(_, j) in table {
        if !out.contains(&j) {
            out.push(j);
        }
    }
    out
}

fn handles(mut ids: Vec<u128>) -> Vec<NodeHandle> {
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter()
        .enumerate()
        .map(|(i, id)| NodeHandle::new(Id::new(id), Addr::from_raw(i as u64 + 1)))
        .collect()
}

/// One sweep over every bit of every member of `ring`, reaching `reach(b)`
/// past each, against `successor_index`.
fn check_sweep(ring: &StaticRing, reach: impl Fn(u32) -> u128) -> Result<(), TestCaseError> {
    let mut sweep = FingerSweep::new(ring.nodes());
    for i in 0..ring.len() {
        let mut previous = None;
        for b in 0..Id::BITS {
            let probes = sweep.probes();
            let j = sweep.successor(i, b, reach(b));
            prop_assert_eq!(j, ring.successor_index(ring.node(i).id.wrapping_add(reach(b))));
            if previous == Some(j) {
                prop_assert!(sweep.probes() - probes <= 1, "member {} bit {} searched again", i, b);
            }
            previous = Some(j);
        }
    }
    Ok(())
}

fn check_chord(ring: &StaticRing) -> Result<(), TestCaseError> {
    check_sweep(ring, |b| 1u128 << b)?;
    let swept: Vec<Vec<usize>> = ring.distinct_finger_lists().collect();
    prop_assert_eq!(swept.len(), ring.len());
    for (i, swept) in swept.iter().enumerate() {
        let id = ring.node(i).id;
        let want = reference(i, |b| id.finger_target(b), |t| Some(ring.successor_index(t)));
        let table: Vec<(usize, usize)> =
            ring.fingers_of(i).into_iter().map(|(b, h)| (b, ring.successor_index(h.id))).collect();
        prop_assert_eq!(&table, &want, "Chord fingers_of({})", i);
        prop_assert_eq!(&ring.distinct_finger_indices(i), &distinct(&want), "fresh sweep, {}", i);
        prop_assert_eq!(swept, &distinct(&want), "whole-ring sweep, member {}", i);
    }
    Ok(())
}

fn check_verme(ring: &VermeStaticRing) -> Result<(), TestCaseError> {
    let swept: Vec<Vec<usize>> = ring.distinct_finger_lists().collect();
    prop_assert_eq!(swept.len(), ring.len());
    let layout = *ring.layout();
    check_sweep(ring, |b| layout.finger_target(Id::ZERO, b).raw())?;
    for (i, swept) in swept.iter().enumerate() {
        let id = ring.node(i).id;
        let want =
            reference(i, |b| layout.finger_target(id, b), |t| ring.corner_responsible_index(t));
        let table: Vec<(usize, usize)> =
            ring.fingers_of(i).into_iter().map(|(b, h)| (b, ring.successor_index(h.id))).collect();
        prop_assert_eq!(&table, &want, "Verme fingers_of({})", i);
        prop_assert_eq!(&ring.distinct_finger_indices(i), &distinct(&want), "fresh sweep, {}", i);
        prop_assert_eq!(swept, &distinct(&want), "whole-ring sweep, member {}", i);
    }
    // The ablation: plain Chord fingers over the same membership.
    check_chord(&StaticRing::new(ring.nodes().to_vec()))
}

/// How a Verme ring's members are placed.
#[derive(Clone, Copy, Debug)]
enum Placement {
    /// Anywhere: with many sections, most are empty or hold one member.
    Uniform,
    /// In a few adjacent sections, crowded, with every other one empty.
    Crowded { sections: u128 },
}

/// A layout with `2^log_sections` sections of `types` types.
fn layout(log_sections: u32, types: u8) -> SectionLayout {
    SectionLayout::with_sections(1u128 << log_sections, types)
}

/// `log2` of the section count and the type count of a valid layout,
/// 4 to 1 024 sections: `SectionLayout::with_sections` needs at least two
/// sections per type.
fn layouts() -> impl Strategy<Value = (u32, u8)> {
    let two = (2u32..=10).map(|s| (s, 2u8));
    prop::sample::select(two.chain((3u32..=10).map(|s| (s, 4u8))).collect::<Vec<_>>())
}

fn placements() -> impl Strategy<Value = Placement> {
    let crowded = (1u128..=4).map(|sections| Placement::Crowded { sections });
    prop::sample::select(std::iter::once(Placement::Uniform).chain(crowded).collect::<Vec<_>>())
}

/// The ids a placement puts on `layout` from raw draws.
fn place(layout: SectionLayout, placement: Placement, raw: &[(u128, u128)]) -> Vec<u128> {
    let low = layout.section_len() - 1;
    match placement {
        Placement::Uniform => raw.iter().map(|&(a, _)| a).collect(),
        Placement::Crowded { sections } => {
            let first = raw[0].0 >> layout.section_bits();
            raw.iter()
                .map(|&(a, b)| {
                    let section = (first + a % sections) % layout.num_sections();
                    layout.section_start(section).raw() | (b & low)
                })
                .collect()
        }
    }
}

/// A run of adjacent ids from `base` (gap 1: the shortest targets land
/// exactly on members), plus a member exactly on each picked target of
/// `base` and one either side of it.
fn exact_hits(
    base: u128,
    run: u128,
    hits: &[(u32, i8)],
    target: impl Fn(Id, u32) -> Id,
) -> Vec<u128> {
    let mut ids: Vec<u128> = (0..=run).map(|d| base.wrapping_add(d)).collect();
    for &(b, side) in hits {
        let t = target(Id::new(base), b).raw();
        ids.push(match side {
            0 => t,
            s if s > 0 => t.wrapping_add(1),
            _ => t.wrapping_sub(1),
        });
    }
    ids
}

fn hits() -> impl Strategy<Value = Vec<(u32, i8)>> {
    prop::collection::vec((0u32..Id::BITS, -1i8..=1), 0..12)
}

proptest! {
    #[test]
    fn chord_sweeps_equal_the_search_per_bit(
        ids in prop::collection::vec(any::<u128>(), 1..=64),
    ) {
        check_chord(&StaticRing::new(handles(ids)))?;
    }

    #[test]
    fn chord_sweeps_equal_the_search_per_bit_on_exact_hits(
        base: u128,
        run in 0u128..6,
        hits in hits(),
    ) {
        let ids = exact_hits(base, run, &hits, |id, b| id.finger_target(b));
        check_chord(&StaticRing::new(handles(ids)))?;
    }

    #[test]
    fn verme_sweeps_equal_the_search_per_bit_and_the_corner_rule(
        (log_sections, types) in layouts(),
        placement in placements(),
        raw in prop::collection::vec((any::<u128>(), any::<u128>()), 1..=64),
    ) {
        let layout = layout(log_sections, types);
        let ids = place(layout, placement, &raw);
        check_verme(&VermeStaticRing::from_handles(layout, handles(ids)))?;
    }

    #[test]
    fn verme_sweeps_equal_the_search_per_bit_on_exact_hits(
        (log_sections, types) in layouts(),
        base: u128,
        run in 0u128..6,
        hits in hits(),
    ) {
        let layout = layout(log_sections, types);
        let ids = exact_hits(base, run, &hits, |id, b| layout.finger_target(id, b));
        check_verme(&VermeStaticRing::from_handles(layout, handles(ids)))?;
    }
}
